"""Restricted partition functions computed through 2-adic valuation exponents.

Five families (overpartitions into odd parts; distinct even parts; distinct
parts; distinct odd parts; even parts), each computable by four independent
routes whose coefficient-by-coefficient agreement is machine-verified.
"""

from .families import BRUTE_LIMIT, FAMILIES, Route, table
from .valuation import FamilyId
from .verify import remark_trace, verify_binary_identity, verify_family

__all__ = ["BRUTE_LIMIT", "FAMILIES", "FamilyId", "Route", "remark_trace", "table",
           "verify_binary_identity", "verify_family"]
