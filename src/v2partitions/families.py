"""The five restricted partition families, each computable by four routes.

Routes:
  GF       — expand the family's generating function as one quotient of sparse series,
  PRODUCT  — expand prod (1+q^n)^v(n) with the family's exponent rule,
  BINOMIAL — bounded-knapsack DP over the binomial-weighted capped partitions,
  BRUTE    — the largest-part recurrence, tabulated bottom-up from the caps
             the family's definition puts on odd and even parts.

Agreement of all four, coefficient by coefficient, is the verification
performed by the `verify` module.
"""

from __future__ import annotations

import enum
from itertools import accumulate, repeat
from math import comb, gcd, isqrt

from . import series, valuation
from .series import binomial_power, pochhammer, product_power
from .valuation import FamilyId

BRUTE_LIMIT = 60  # brute-force enumeration is refused beyond this n
MAX_ORDER = 10_000  # every route refuses tables beyond this order


class Route(enum.Enum):
    GF = "gf"
    PRODUCT = "product"
    BINOMIAL = "binomial"
    BRUTE = "brute"


# Each family's generating function as one quotient (numerator, denominator)
# of sparse series. A side is ("f", k) for f_k = (q^k; q^k)_inf, ("phi", s*k)
# for phi(s q^k), ("psi", s) for psi(s q), with s = +-1 and k >= 1, or None
# for 1, so a side (kind, j) is a series in q^|j|. Euler's identities turn
# each q-Pochhammer fraction into an eta quotient, e.g. (-q; q^2)_inf =
# f2^2/(f1 f4), and Gauss's and Jacobi's phi(-q) = f1^2/f2, phi(q) =
# f2^5/(f1^2 f4^2), phi(-q^2) = f2^2/f4 and psi(-q) = f1 f4/f2 fold it into
# one quotient with the sparsest denominator found (Hirschhorn, The Power of
# q). The division pays one big-int add per coefficient for each nonzero
# denominator term past the constant: at N = 2000 there are 31, 72, 44, 62
# and 50 (pe divides in q^2, at order N/2).
Side = tuple[str, int] | None
FAMILIES: dict[FamilyId, tuple[Side, Side]] = {
    FamilyId.OVERPARTITION_ODD: (("phi", 1), ("phi", -2)),  # f2^3/(f1^2 f4)
    FamilyId.PED: (("f", 4), ("f", 1)),
    FamilyId.PD: (("f", 1), ("phi", -1)),  # f2/f1
    FamilyId.POD: (None, ("psi", -1)),  # f2/(f1 f4)
    FamilyId.PE: (None, ("f", 2)),
}


def sparse_side(side: Side, order: int) -> list[int]:
    """One side of a FAMILIES quotient, written from its closed form to `order`."""
    if order < 0:
        raise ValueError("order must be non-negative")
    if side is None:
        return [1] + [0] * order
    kind, k = side
    if kind == "f":
        return pochhammer(k, order)
    c = [1] + [0] * order
    if kind == "phi":  # phi(s q^|k|) = sum_n s^n q^(|k| n^2), s the sign of k, n and -n together
        for n in range(1, isqrt(order // abs(k)) + 1):
            c[abs(k) * n * n] = 2 * (k // abs(k)) ** n
    else:  # psi(k q) = sum_{n>=0} k^(T_n) q^(T_n), T_n = n(n+1)/2
        t, n = 1, 1
        while t <= order:
            c[t] = k ** t
            n += 1
            t += n
    return c


def gf_series(family: FamilyId, order: int) -> list[int]:
    """Expand the family's quotient to `order` by one division.

    Both sides are series in q^d, d the gcd of their dilations |j|. It
    divides them written in q (each j over d) at order // d and spreads the
    quotient to every d-th index. Both sides have O(order^0.5) nonzero terms,
    so the division costs O(order^1.5).
    """
    sides = FAMILIES[family]
    d = gcd(*(abs(side[1]) for side in sides if side)) or 1
    numerator, denominator = (sparse_side(side and (side[0], side[1] // d), order // d) for side in sides)
    spread = [0] * (order + 1)
    spread[::d] = series._divide(numerator, denominator, order // d)
    return spread


def product_series(family: FamilyId, order: int) -> list[int]:
    """Expand prod_{n>=1} (1+q^n)^v(n) with the family's exponent rule."""
    return product_power(valuation.exponents(family, order), order)


def binomial_table(family: FamilyId, order: int) -> list[int]:
    """f(0..order) by the binomial DP over the family's exponent rule, read by `valuation.exponent` at each n."""
    return binomial_power(b"\0" + bytes(map(valuation.exponent, repeat(family), range(1, order + 1))), order)


def enumerate_capped(n: int, caps: list[int]) -> list[tuple[str, str, int]]:
    """All partitions of n with multiplicity of part k at most caps[k], as rendered text.

    Each partition is a (parts, factors, weight) triple such as
    ("3+1+1", "C(2,1)*C(2,2)", 2): its parts, largest first, its factors
    C(caps[k], t) for each part k used t times, 1 <= t <= caps[k], and its
    weight prod_k C(caps[k], t_k) >= 1. Partitions come in lexicographically
    decreasing part order (largest part first).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if len(caps) <= n:
        raise ValueError(f"caps must give a cap for every part k <= {n}")
    if min(caps) < 0:  # it would lower `reach` below what the other parts can sum to
        k = next(k for k, cap in enumerate(caps) if cap < 0)
        raise ValueError(f"cap {caps[k]} of part {k} is negative")
    results = []
    reach = list(accumulate(k * cap for k, cap in enumerate(caps)))  # most parts <= k can sum to
    # (k*t, "k+...+k", "C(caps[k],t)", C(caps[k], t)) for each t that fits in n, most copies first.
    choices = [[]] + [[(k * t, "+".join([str(k)] * t), f"C({caps[k]},{t})", comb(caps[k], t))
                       for t in range(min(caps[k], n // k), 0, -1)] for k in range(1, n + 1)]

    def rec(remaining: int, max_part: int, parts: str, factors: str, weight: int) -> None:
        # max_part <= remaining; parts and factors end in their separators.
        # Larger parts, then more copies, come first.
        for k in range(max_part, 0, -1):
            if reach[k] < remaining:  # parts <= k cannot fill it, nor can smaller ones
                return
            for size, run, factor, w in choices[k]:
                if size < remaining:
                    rest = remaining - size
                    rec(rest, k - 1 if k <= rest else rest,
                        parts + run + "+", factors + factor + "*", weight * w)
                elif size == remaining:
                    results.append((parts + run, factors + factor, weight * w))

    rec(n, n, "", "", 1)
    return results


def _count_partitions(caps: list[int], size_factor: int = 1) -> list[int]:
    # f(0..len(caps)-1): partitions with part k used at most caps[k] times;
    # each part size actually used contributes a factor size_factor (2 for
    # overlining). Tabulated bottom-up over the largest part k, one pass over r each:
    # f_k(r) = f_{k-1}(r) + size_factor * W_k(r), W_k(r) = sum_{t=1..c} f_{k-1}(r - t*k)
    # with c = min(caps[k], order // k). W_k is a running window sum,
    # W_k(r) = f_{k-1}(r-k) + W_k(r-k) - f_{k-1}(r-(c+1)k); for c = 1 it is f_{k-1}(r-k),
    # one add per r without the window, and every part k > order // 2 has c <= 1.
    order = len(caps) - 1
    counts = [1] + [0] * order  # partitions into parts < k
    for k in range(1, order + 1):
        cap = min(caps[k], order // k)
        if cap == 1:
            fewer = counts[:]
            for r in range(k, order + 1):
                counts[r] += size_factor * fewer[r - k]
        elif cap:
            fewer, window, span = counts[:], [0] * (order + 1), (cap + 1) * k
            for r in range(k, order + 1):
                w = window[r] = fewer[r - k] + window[r - k] - (fewer[r - span] if r >= span else 0)
                counts[r] += size_factor * w
    return counts


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
    """Count from the family's combinatorial definition, with no series algebra.

    The largest-part recurrence is tabulated bottom-up from the caps that the
    definition puts on odd and even parts. The distinct-parts family is
    tallied twice (distinct parts, and odd parts, which its generating
    function literally enumerates); the two tallies must agree or this raises.
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
        return gf_series(family, order)
    if route is Route.PRODUCT:
        return product_series(family, order)
    if route is Route.BINOMIAL:
        return binomial_table(family, order)
    if route is Route.BRUTE:
        return _brute_table(family, order)
    raise AssertionError(f"unhandled route {route}")
