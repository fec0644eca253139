"""Machine-checkable verification of the product/binomial identities.

Produces immutable reports: cross-route coefficient comparison per family,
the binary-expansion identity 1/(1-q^m) = prod(1+q^(2^k m)), and rendered
capped-partition tableaux with binomial weights.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import zip_longest

from .families import (BRUTE_LIMIT, MAX_ORDER, CappedPartition, Route, binomial_table, enumerate_capped,
                       exponents, table)
from .series import product_power
from .valuation import FamilyId


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one coefficient-by-coefficient comparison.

    `subject` is the family token, or "binary-identity m=<m>" for the binary
    identity. In `first_mismatch`, a route whose table ends before n shows
    None. `elapsed_ms` is excluded from any equality used in tests.
    """

    subject: str
    order: int
    routes_compared: tuple[str, ...]
    status: str  # "PASS" | "FAIL"
    first_mismatch: tuple[int, dict[str, int | None]] | None
    elapsed_ms: float

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


@dataclass(frozen=True)
class RemarkTrace:
    """A capped-partition tableau: one weighted line per partition, plus the total."""

    lines: tuple[tuple[CappedPartition, str], ...]
    total: int


def _compare_tables(tables: dict[str, list[int]]) -> tuple[int, dict[str, int | None]] | None:
    for n, values in enumerate(zip_longest(*tables.values())):
        if values.count(values[0]) != len(values):
            return (n, dict(zip(tables, values)))
    return None


def _report(subject: str, order: int, tables: dict[str, list[int]], start: float) -> VerificationReport:
    # Every report is built here: the compared routes are the tables' keys, and
    # elapsed_ms runs from `start` to the end of the comparison.
    mismatch = _compare_tables(tables)
    return VerificationReport(
        subject=subject,
        order=order,
        routes_compared=tuple(tables),
        status="PASS" if mismatch is None else "FAIL",
        first_mismatch=mismatch,
        elapsed_ms=(time.perf_counter() - start) * 1000.0,
    )


def verify_family(family: FamilyId, order: int, include_brute: bool = False) -> VerificationReport:
    """Compare GF, PRODUCT and BINOMIAL (optionally BRUTE) tables up to `order`."""
    if include_brute and order > BRUTE_LIMIT:
        raise ValueError(f"brute-force comparison is limited to order <= {BRUTE_LIMIT}")
    start = time.perf_counter()
    routes = [Route.GF, Route.PRODUCT, Route.BINOMIAL]
    if include_brute:
        routes.append(Route.BRUTE)
    tables = {route.value: table(family, order, route) for route in routes}
    return _report(family.value, order, tables, start)


def verify_binary_identity(m: int, order: int) -> VerificationReport:
    """Check 1/(1-q^m) = prod_{k>=0} (1+q^(2^k m)) at the given truncation order."""
    if m < 1:
        raise ValueError("m must be positive")
    if order < 0:
        raise ValueError("order must be non-negative")
    if order > MAX_ORDER:
        raise ValueError(f"order is limited to <= {MAX_ORDER}")
    start = time.perf_counter()
    e = [0] * (order + 1)  # one factor (1+q^n) exactly when n = m * 2^k
    n = m
    while n <= order:
        e[n] = 1
        n *= 2
    tables = {"binary-product": list(product_power(e, order).coeffs),
              "geometric-reciprocal": [1 if k % m == 0 else 0 for k in range(order + 1)]}
    return _report(f"binary-identity m={m}", order, tables, start)


def remark_trace(family: FamilyId, n: int) -> RemarkTrace:
    """Render every capped partition of n with its binomial-product weight."""
    if n < 1 or n > BRUTE_LIMIT:
        raise ValueError(f"remark tableaux are limited to 1 <= n <= {BRUTE_LIMIT}")
    caps = exponents(family, n)
    partitions = enumerate_capped(n, caps)
    lines = tuple((p, "*".join(f"C({caps[k]},{t})" for k, t in p.terms)) for p in partitions)
    total = sum(p.weight for p in partitions)
    expected = binomial_table(family, n)[n]
    if total != expected:
        raise AssertionError(
            f"tableau total {total} disagrees with binomial DP {expected} "
            f"for {family.value} at n={n}")
    return RemarkTrace(lines, total)
