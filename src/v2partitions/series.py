"""Exact dense truncated power series over the integers.

A series is a dense coefficient vector c_0..c_N representing a power
series mod q^(N+1). All arithmetic is exact (Python ints); the truncation
order is passed explicitly to every operation so two routes can never be
compared at silently different orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub
from typing import Sequence


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series mod q^(order+1); coeffs[i] is the coefficient of q^i."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) == 0:
            raise ValueError("a truncated series has at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i]


@dataclass(frozen=True)
class PochhammerSpec:
    """(L; q^step)_inf with L = sign * q^offset, i.e. factors (1 - sign*q^(offset + s*step)).

    sign=+1 gives factors (1 - q^m), sign=-1 gives (1 + q^m).
    """

    sign: int
    offset: int
    step: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.offset < 1 or self.step < 1:
            raise ValueError("offset and step must be >= 1")


def one(order: int) -> TruncatedSeries:
    """The multiplicative identity 1 at the given truncation order."""
    if order < 0:
        raise ValueError("order must be non-negative")
    return TruncatedSeries((1,) + (0,) * order)


def mul(a: TruncatedSeries, b: TruncatedSeries, order: int) -> TruncatedSeries:
    """Cauchy product truncated at `order` (schoolbook convolution)."""
    if a.order < order or b.order < order:
        raise ValueError("both factors must carry coefficients up to the requested order")
    out = [0] * (order + 1)
    for i, ai in enumerate(a.coeffs[:order + 1]):
        if ai:
            _shift_add(out, b.coeffs, i, ai)
    return TruncatedSeries(tuple(out))


def reciprocal(a: TruncatedSeries, order: int) -> TruncatedSeries:
    """Multiplicative inverse mod q^(order+1); requires constant term 1."""
    return _divide(one(order), a, order)


def _divide(c: TruncatedSeries, a: TruncatedSeries, order: int) -> TruncatedSeries:
    """c/a mod q^(order+1); requires constant term 1 in a.

    Recurrence r_k = c_k - sum_{i=1..k} a_i r_{k-i}, visiting only the nonzero
    a_i, so dividing by a sparse series costs O(nnz(a) * order).

    Each nonzero a_i gets a cursor, a list iterator over r started when k
    reaches i and filed under a_i. Every step appends r_k and advances each
    cursor once, so at step k the cursor of term i yields r[k-i]: it reads
    below len(r) and never runs dry. Summing each coefficient's cursors with
    `map(next, ...)` runs the inner loop in C.
    """
    if a.coeffs[0] != 1:
        raise ValueError("reciprocal requires constant term 1")
    if a.order < order:
        raise ValueError("input must carry coefficients up to the requested order")
    starts = {i: ai for i, ai in enumerate(a.coeffs[1:order + 1], start=1) if ai}
    cursors: dict[int, list] = {}  # a_i -> cursors of the terms with that coefficient
    r = [c.coeffs[0]]
    for k, ck in enumerate(c.coeffs[1:order + 1], start=1):
        if k in starts:
            cursors.setdefault(starts[k], []).append(iter(r))
        for ai, its in cursors.items():
            ck -= ai * sum(map(next, its))
        r.append(ck)
    return TruncatedSeries(tuple(r))


def _shift_add(dst: list[int], src: Sequence[int], s: int, w: int) -> None:
    """dst[k] += w*src[k-s] for s <= k < len(dst), in place.

    `src` may be `dst` itself: its needed prefix is then copied before `dst`
    is written, so multiplying c by (1 + w*q^s) is _shift_add(c, c, s, w).
    Otherwise `map` reads `src` directly and stops after len(dst) - s items.
    """
    n = len(dst) - s
    if n <= 0:
        return
    tail = src[:n] if src is dst else src
    if w == 1:
        dst[s:] = map(add, dst[s:], tail)
    elif w == -1:
        dst[s:] = map(sub, dst[s:], tail)
    else:
        dst[s:] = map(add, dst[s:], map(w.__mul__, tail))


def pochhammer(spec: PochhammerSpec, order: int) -> TruncatedSeries:
    """Expand prod_{s>=0} (1 - sign*q^(offset + s*step)) mod q^(order+1).

    (q^k; q^k)_inf (sign 1, offset = step = k) is the pentagonal series
    sum_j (-1)^j q^(k*j*(3j-1)/2) over all integers j, written directly.
    Any other spec is expanded factor by factor; only the finitely many
    factors with exponent <= order matter.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    c = [0] * (order + 1)
    c[0] = 1
    if spec.sign == 1 and spec.offset == spec.step:
        k, j = spec.step, 1
        while k * j * (3 * j - 1) // 2 <= order:
            for e in (k * j * (3 * j - 1) // 2, k * j * (3 * j + 1) // 2):
                if e <= order:
                    c[e] = -1 if j % 2 else 1
            j += 1
        return TruncatedSeries(tuple(c))
    m = spec.offset
    while m <= order:
        _shift_add(c, c, m, -spec.sign)
        m += spec.step
    return TruncatedSeries(tuple(c))


def product_power(e: Sequence[int], order: int) -> TruncatedSeries:
    """Expand prod_{n=1..order} (1+q^n)^e[n] mod q^(order+1); e[0] is unused.

    Each (1+q^n) factor is one shift-add pass, applied e[n] times.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    c = [0] * (order + 1)
    c[0] = 1
    for n in range(1, order + 1):
        for _ in range(e[n]):
            _shift_add(c, c, n, 1)
    return TruncatedSeries(tuple(c))
