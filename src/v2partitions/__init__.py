"""Restricted partition functions computed through 2-adic valuation exponents.

Five families (overpartitions into odd parts; distinct even parts; distinct
parts; distinct odd parts; even parts), each computable by four independent
routes whose coefficient-by-coefficient agreement is machine-verified.
"""

from .families import (
    BRUTE_LIMIT,
    CappedPartition,
    FAMILIES,
    Route,
    binomial_sum,
    binomial_table,
    brute_force_count,
    enumerate_capped,
    gf_series,
    product_series,
    table,
)
from .series import PochhammerSpec, TruncatedSeries, mul, one, pochhammer, product_power, reciprocal
from .valuation import FamilyId, Valuation, exponent, v2
from .verify import RemarkTrace, VerificationReport, remark_trace, verify_binary_identity, verify_family

__all__ = [
    "BRUTE_LIMIT", "CappedPartition", "FAMILIES", "FamilyId", "PochhammerSpec",
    "RemarkTrace", "Route", "TruncatedSeries", "Valuation", "VerificationReport",
    "binomial_sum", "binomial_table", "brute_force_count", "enumerate_capped",
    "exponent", "gf_series", "mul", "one", "pochhammer", "product_power",
    "product_series", "reciprocal", "remark_trace", "table", "v2",
    "verify_binary_identity", "verify_family",
]
