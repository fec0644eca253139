"""The five restricted partition families, each computable by four routes.

Routes:
  GF       — expand the family's generating function as an eta quotient,
  PRODUCT  — expand prod (1+q^n)^v(n) with the family's exponent rule,
  BINOMIAL — bounded-knapsack DP over the binomial-weighted capped partitions,
  BRUTE    — direct combinatorial enumeration from the family's definition.

Agreement of all four, coefficient by coefficient, is the verification
performed by the `verify` module.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .series import PochhammerSpec, TruncatedSeries, _divide, _shift_add, mul, one, pochhammer, product_power
from .valuation import FamilyId, exponent

BRUTE_LIMIT = 60  # brute-force enumeration is refused beyond this n
MAX_ORDER = 10_000  # every route refuses tables beyond this order


class Route(enum.Enum):
    GF = "gf"
    PRODUCT = "product"
    BINOMIAL = "binomial"
    BRUTE = "brute"


# Each family's generating function as the eta quotient prod_k f_k^eta[k],
# where f_k = (q^k; q^k)_inf; e.g. ped = f4/f1 is {4: 1, 1: -1}. Each
# q-Pochhammer fraction is rewritten by Euler's identities, e.g.
# (-q; q^2)_inf = f2^2/(f1 f4) and (q; q^2)_inf = f1/f2 (Hirschhorn, The Power of q).
FAMILIES: dict[FamilyId, dict[int, int]] = {
    FamilyId.OVERPARTITION_ODD: {2: 3, 1: -2, 4: -1},
    FamilyId.PED: {4: 1, 1: -1},
    FamilyId.PD: {2: 1, 1: -1},
    FamilyId.POD: {2: 1, 1: -1, 4: -1},
    FamilyId.PE: {2: -1},
}


@dataclass(frozen=True)
class CappedPartition:
    """A partition of n as (part k, multiplicity t) terms, largest part first.

    Each t is in 1..caps[k]; weight is prod C(caps[k], t) over the terms,
    always >= 1 for emitted partitions.
    """

    terms: tuple[tuple[int, int], ...]
    weight: int

    def parts(self) -> tuple[int, ...]:
        """Parts in decreasing order, e.g. (3, 1, 1)."""
        return tuple(k for k, t in self.terms for _ in range(t))


def gf_series(family: FamilyId, order: int) -> TruncatedSeries:
    """Expand the family's eta quotient to `order`, positive exponents first.

    Each f_k is the sparse pentagonal series, so every multiplication or
    division by it costs O(order^1.5).
    """
    c = one(order)
    for k, e in sorted(FAMILIES[family].items(), key=lambda item: item[1] < 0):
        f_k = pochhammer(PochhammerSpec(sign=1, offset=k, step=k), order)
        for _ in range(abs(e)):
            c = mul(f_k, c, order) if e > 0 else _divide(c, f_k, order)
    return c


def exponents(family: FamilyId, order: int) -> list[int]:
    """[0, v(1), ..., v(order)]: the family's exponent rule as one list per table."""
    return [0] + [exponent(family, n) for n in range(1, order + 1)]


def product_series(family: FamilyId, order: int) -> TruncatedSeries:
    """Expand prod_{n>=1} (1+q^n)^v(n) with the family's exponent rule."""
    return product_power(exponents(family, order), order)


def binomial_table(family: FamilyId, order: int) -> list[int]:
    """f(0..order) by the bounded-knapsack DP over binomial-weighted multiplicities.

    State is the remaining weight; the transition at part k chooses its
    multiplicity t <= v(k) with weight C(v(k), t).
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    dp = [0] * (order + 1)
    dp[0] = 1
    for k, cap in enumerate(exponents(family, order)):
        if cap == 0:
            continue
        before = dp[:]
        for t in range(1, min(cap, order // k) + 1):
            _shift_add(dp, before, k * t, comb(cap, t))
    return dp


def binomial_sum(family: FamilyId, n: int) -> int:
    """Sum of prod_k C(v(k), t_k) over multiplicity vectors with sum k*t_k = n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return binomial_table(family, n)[n]


def enumerate_capped(n: int, caps: list[int]) -> list[CappedPartition]:
    """All partitions of n with multiplicity of part k at most caps[k].

    Emitted in lexicographically decreasing part order (largest part first),
    each with its binomial weight prod_k C(caps[k], t_k).
    """
    if n < 1:
        raise ValueError("n must be positive")
    results: list[CappedPartition] = []

    def rec(remaining: int, max_part: int, terms: tuple[tuple[int, int], ...], weight: int) -> None:
        # One (k, t) term per level: larger parts, then more copies, come first.
        if remaining == 0:
            results.append(CappedPartition(terms, weight))
            return
        for k in range(min(max_part, remaining), 0, -1):
            for t in range(min(caps[k], remaining // k), 0, -1):
                rec(remaining - k * t, k - 1, terms + ((k, t),), weight * comb(caps[k], t))

    rec(n, n, (), 1)
    return results


def _count_partitions(caps: list[int], size_factor: int = 1) -> list[int]:
    # f(0..len(caps)-1): partitions with part k used at most caps[k] times;
    # each part size actually used contributes a factor size_factor (2 for
    # overlining). One memo serves every n.
    @lru_cache(maxsize=None)
    def rec(remaining: int, largest: int) -> int:
        if remaining == 0:
            return 1
        if largest == 0:
            return 0
        total = rec(remaining, largest - 1)
        t = 1
        while t <= caps[largest] and t * largest <= remaining:
            total += size_factor * rec(remaining - t * largest, largest - 1)
            t += 1
        return total

    return [rec(n, n) for n in range(len(caps))]


def _brute_table(family: FamilyId, order: int) -> list[int]:
    # f(0..order) counted from the family's combinatorial definition: the caps
    # on odd and even parts come from it, never from the exponent rule.
    if order > BRUTE_LIMIT:
        raise ValueError(f"brute route is limited to order <= {BRUTE_LIMIT}")
    free = order  # no partition of n <= order repeats a part more often

    def caps(odd: int, even: int) -> list[int]:
        return [0] + [odd if k % 2 else even for k in range(1, order + 1)]

    odd, even = {FamilyId.OVERPARTITION_ODD: (free, 0), FamilyId.PED: (free, 1),
                 FamilyId.PD: (1, 1), FamilyId.POD: (1, free), FamilyId.PE: (0, free)}[family]
    overlined = family is FamilyId.OVERPARTITION_ODD
    counts = _count_partitions(caps(odd, even), size_factor=2 if overlined else 1)
    if family is FamilyId.PD:  # also tallied as partitions into odd parts
        for n, (d, o) in enumerate(zip(counts, _count_partitions(caps(free, 0)))):
            if d != o:
                raise AssertionError(f"distinct-parts and odd-parts tallies differ at n={n}: "
                                     f"{d} vs {o}")
    return counts


def brute_force_count(family: FamilyId, n: int) -> int:
    """Count by direct enumeration from the family's combinatorial definition.

    The distinct-parts family is tallied twice (distinct parts, and odd
    parts, which its generating function literally enumerates); the two
    tallies must agree or this raises.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return _brute_table(family, n)[n]


def table(family: FamilyId, order: int, route: Route) -> list[int]:
    """f(0..order) by the requested route."""
    if order < 0:
        raise ValueError("order must be non-negative")
    if order > MAX_ORDER:
        raise ValueError(f"order is limited to <= {MAX_ORDER}")
    if route is Route.GF:
        return list(gf_series(family, order).coeffs)
    if route is Route.PRODUCT:
        return list(product_series(family, order).coeffs)
    if route is Route.BINOMIAL:
        return binomial_table(family, order)
    if route is Route.BRUTE:
        return _brute_table(family, order)
    raise AssertionError(f"unhandled route {route}")
