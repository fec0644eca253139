"""Machine-checkable verification of the product/binomial identities.

Produces the reports that `verify` prints: cross-route coefficient comparison
per family and the binary-expansion identity 1/(1-q^m) = prod(1+q^(2^k m)),
plus the `remark` tableau of capped partitions with binomial weights.
"""

from __future__ import annotations

import time
from itertools import zip_longest

from . import valuation
from .families import BRUTE_LIMIT, MAX_ORDER, Route, binomial_table, enumerate_capped, table
from .series import product_power


def _first_mismatch(tables: dict[str, list[int]]) -> dict | None:
    # Whole-list == runs in C; the per-index walk runs only to locate a mismatch.
    first = next(iter(tables.values()))
    if all(t == first for t in tables.values()):
        return None
    for n, values in enumerate(zip_longest(*tables.values())):
        if values.count(values[0]) != len(values):
            return {"n": n, "values": {route: None if v is None else str(v)
                                       for route, v in zip(tables, values)}}
    return None


def _report(subject: str, order: int, tables: dict[str, list[int]], start: float) -> dict:
    """The report `verify --format json` prints, with its keys in that order.

    Every report is built here: the compared routes are the tables' keys, and
    elapsed_ms runs from `start` to the end of the comparison. In
    first_mismatch, present on FAIL only, values are decimal strings and a
    route whose table ends before n shows None.
    """
    mismatch = _first_mismatch(tables)
    report = {"subject": subject, "order": order, "routes": list(tables),
              "status": "PASS" if mismatch is None else "FAIL",
              "elapsed_ms": round((time.perf_counter() - start) * 1000.0, 3)}
    if mismatch is not None:
        report["first_mismatch"] = mismatch
    return report


def verify_family(family: valuation.FamilyId, order: int, include_brute: bool = False) -> dict:
    """Compare GF, PRODUCT and BINOMIAL (optionally BRUTE) tables up to `order`."""
    if include_brute and order > BRUTE_LIMIT:
        raise ValueError(f"brute-force comparison is limited to order <= {BRUTE_LIMIT}")
    start = time.perf_counter()
    routes = [Route.GF, Route.PRODUCT, Route.BINOMIAL]
    if include_brute:
        routes.append(Route.BRUTE)
    tables = {route.value: table(family, order, route) for route in routes}
    return _report(family.value, order, tables, start)


def verify_binary_identity(m: int, order: int) -> dict:
    """Check 1/(1-q^m) = prod_{k>=0} (1+q^(2^k m)) at the given truncation order."""
    if m < 1:
        raise ValueError("m must be positive")
    if order < 0:  # before bytearray(order + 1) refuses it in other words
        raise ValueError("order must be non-negative")
    if order > MAX_ORDER:
        raise ValueError(f"order is limited to <= {MAX_ORDER}")
    start = time.perf_counter()
    e = bytearray(order + 1)  # one factor (1+q^n) exactly when n = m * 2^k; _expand copies bytes in C
    n = m
    while n <= order:
        e[n] = 1
        n *= 2
    c = [0] * (order + 1)  # 1/(1-q^m): a 1 at every multiple of m
    c[::m] = [1] * (order // m + 1)
    tables = {"binary-product": product_power(e, order), "geometric-reciprocal": c}
    return _report(f"binary-identity m={m}", order, tables, start)


def remark_trace(family: valuation.FamilyId, n: int) -> list[str]:
    """The lines that `remark` prints, ending with "total = N".

    One line per capped partition of n with its binomial-product weight, e.g.
    "3+1+1  C(2,1)*C(2,2) = 2"; N is the sum of the weights.
    """
    if n < 1 or n > BRUTE_LIMIT:
        raise ValueError(f"remark tableaux are limited to 1 <= n <= {BRUTE_LIMIT}")
    partitions = enumerate_capped(n, valuation.exponents(family, n))
    total = sum(weight for _, _, weight in partitions)
    expected = binomial_table(family, n)[n]
    if total != expected:
        raise AssertionError(
            f"tableau total {total} disagrees with binomial DP {expected} "
            f"for {family.value} at n={n}")
    lines = [f"{parts}  {factors} = {weight}" for parts, factors, weight in partitions]
    lines.append(f"total = {total}")
    return lines
