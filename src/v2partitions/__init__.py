"""Restricted partition functions computed through 2-adic valuation exponents.

Five families (overpartitions into odd parts; distinct even parts; distinct
parts; distinct odd parts; even parts), each computable by four independent
routes whose coefficient-by-coefficient agreement is machine-verified.
"""

from .families import (
    BRUTE_LIMIT,
    FAMILIES,
    Route,
    binomial_table,
    brute_force_count,
    enumerate_capped,
    gf_series,
    product_series,
    table,
)
from .series import TruncatedSeries, mul, pochhammer, product_power, reciprocal
from .valuation import FamilyId, exponent
from .verify import remark_trace, verify_binary_identity, verify_family

__all__ = [
    "BRUTE_LIMIT", "FAMILIES", "FamilyId", "Route", "TruncatedSeries", "binomial_table",
    "brute_force_count", "enumerate_capped", "exponent", "gf_series", "mul", "pochhammer",
    "product_power", "product_series", "reciprocal", "remark_trace", "table",
    "verify_binary_identity", "verify_family",
]
