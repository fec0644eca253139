"""Exact dense truncated power series over the integers.

A series is a dense coefficient list c_0..c_N representing a power
series mod q^(N+1). All arithmetic is exact (Python ints); the truncation
order is passed explicitly to every operation so two routes can never be
compared at silently different orders. `pochhammer`, `product_power`, `mul`
and `reciprocal` return a `TruncatedSeries`, a list whose `coeffs` is itself.

`product_power` and `binomial_power` run packed: c_0..c_N become one int
with c_k in the `bits`-wide slot N - k, so a pass is a few big-int operations.
Both run through `_expand`, which writes the factors n > N/3 in closed form
(no monomial of degree <= N takes three of them), then widens the slots as
the partial product grows (`_top_bits`, `_widen`); `_unpack` reads them back
a byte, a machine word or a `struct` field per slot.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Iterable, Sequence
from itertools import compress, repeat
from math import comb
from operator import mul as times
from struct import unpack
from sys import byteorder

_WORD_TYPECODE = {array(t).itemsize: t for t in "HILQ"}  # 2-, 4- or 8-byte word -> array typecode
_BIT_LENGTH = bytes(map(int.bit_length, range(256)))  # byte -> its bit length, for translate


class TruncatedSeries(list):
    """Power series mod q^(len(self)); self[i] is the coefficient of q^i."""

    coeffs = property(lambda self: self)  # the name the benchmark tracer reads


def mul(a: Sequence[int], b: Sequence[int], order: int) -> TruncatedSeries:
    """Cauchy product truncated at `order` (schoolbook convolution)."""
    if order < 0:
        raise ValueError("order must be non-negative")
    if len(a) <= order or len(b) <= order:
        raise ValueError("both factors must carry coefficients up to the requested order")
    return TruncatedSeries(sum(map(times, a[:k + 1], b[k::-1])) for k in range(order + 1))


def reciprocal(a: Sequence[int], order: int) -> TruncatedSeries:
    """Multiplicative inverse mod q^(order+1); requires constant term 1."""
    return TruncatedSeries(_divide([1] + [0] * order, a, order))


def _divide(c: Sequence[int], a: Sequence[int], order: int) -> list[int]:
    """c/a mod q^(order+1); requires constant term 1 in a.

    Recurrence r_k = c_k - sum_{i=1..k} a_i r_{k-i}, visiting only the nonzero
    a_i, so dividing by a sparse series costs O(nnz(a) * order).

    Each distinct nonzero value v among the a_i keeps one list of v*r_j, r itself for v = 1: memory is
    O(order * values), and each gf divisor has two values (+-1 or +-2), so at most two extra lists.
    Term i gets a cursor, a list iterator over its value's list started at step i. Every step appends
    to each list and advances each cursor once, so at step k term i's cursor yields a_i*r[k-i], below
    the list's end. A step is one `sum(map(next, cursors))`, in C; the steps are walked in runs
    between consecutive term starts, so no step looks a start up.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    if len(c) <= order or len(a) <= order:
        raise ValueError("input must carry coefficients up to the requested order")
    if a[0] != 1:
        raise ValueError("reciprocal requires constant term 1")
    starts = [i for i, ai in enumerate(a[1:order + 1], start=1) if ai]
    r, cursors = [c[0]], []
    multiples = {v: r if v == 1 else [v * c[0]] for v in {a[i] for i in starts}}  # v -> v*r_0..v*r_(k-1)
    appends = [(v, m.append) for v, m in multiples.items() if v != 1]
    for lo, hi in zip([1, *starts], [*starts, order + 1]):
        for ck in c[lo:hi]:
            ck -= sum(map(next, cursors))
            r.append(ck)
            for v, append in appends:
                append(v * ck)
        if hi <= order:  # term hi starts at step hi
            cursors.append(iter(multiples[a[hi]]))
    return r


def _shift_add(dst: int, src: int, s: int, w: int, bits: int) -> int:
    """dst + w*q^s*src for packed series with `bits`-wide slots.

    c_k sits in slot order - k, so the shift by s slots toward the low end
    moves c_k to c_(k+s) and drops the terms past the order. It reads only
    whole slots, so it is exact while every coefficient fits its slot, and a
    shift past the order adds nothing. `src` may be `dst` itself: multiplying
    c by (1 + w*q^s) is c = _shift_add(c, c, s, w, bits).
    """
    shifted = src >> s * bits
    return dst + (shifted if w == 1 else w * shifted)  # 1 * shifted would cost a pass


def _unpack(x: int, order: int, bits: int) -> list[int]:
    """[c_0, ..., c_order] of a packed series: slot order - k holds c_k.

    Bits above the top slot, which only a carry out of a too-narrow slot puts there, are dropped.
    1-byte slots are the bytes themselves. Wider ones of up to 8 bytes are read as machine words by `array`,
    in C, after `_spread` moves those of 3, 5, 6 or 7 bytes into 4- or 8-byte ones; `struct` cuts wider
    ones apart for `int.from_bytes`.
    """
    size, width = bits // 8, (order + 1) * bits
    raw = (x & ((1 << width) - 1)).to_bytes(width // 8, "big")
    if size == 1:  # each byte is a slot
        return list(raw)
    if size > 8:  # no machine word holds a slot
        return list(map(int.from_bytes, unpack(f"{size}s" * (order + 1), raw), repeat("big")))
    word = 1 << (size - 1).bit_length()  # 2, 4 or 8 bytes: the smallest word a slot fits
    words = array(_WORD_TYPECODE[word], raw if word == size else _spread(raw, size, word))
    if byteorder == "little":
        words.byteswap()  # the slots are big-endian
    return words.tolist()


def pochhammer(k: int, order: int) -> TruncatedSeries:
    """f_k = (q^k; q^k)_inf mod q^(order+1), written from the pentagonal number theorem.

    f_k = sum_j (-1)^j q^(k*j*(3j-1)/2) over all integers j.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if order < 0:
        raise ValueError("order must be non-negative")
    c = [1] + [0] * order
    j = 1
    while k * j * (3 * j - 1) // 2 <= order:
        for e in (k * j * (3 * j - 1) // 2, k * j * (3 * j + 1) // 2):
            if e <= order:
                c[e] = -1 if j % 2 else 1
        j += 1
    return TruncatedSeries(c)


def _byte_bits(raw: bytes) -> int:
    """Bit length of the largest byte in `raw`, 0 if none: one `translate`, then `in` from 8 down."""
    return next(filter(raw.translate(_BIT_LENGTH).__contains__, range(8, 0, -1)), 0)


def _largest(raw: bytes) -> int:
    """The largest byte in `raw`, 0 if none. `max` boxes every byte, and is still the faster below
    about 64 of them (the two cross at 54-67 bytes); past that, `_byte_bits` gives the bit length,
    and `in` finds the value, searching down from that length's top, with no byte boxed."""
    if len(raw) < 64:
        return max(raw, default=0)
    return next(filter(raw.__contains__, range((1 << _byte_bits(raw)) - 1, 0, -1)), 0)


def _top_bits(raw: bytes, bits: int) -> int:
    """Bit length of the largest `bits`-wide slot in `raw`, off its top nonzero byte column."""
    size = bits // 8
    j = next((j for j in range(size - 1) if raw[j::size].count(0) < len(raw) // size), size - 1)
    return 8 * (size - 1 - j) + _byte_bits(raw[j::size])


def _spread(raw: bytes, size: int, wider: int) -> bytearray:
    """`raw`'s big-endian `size`-byte slots moved into `wider`-byte ones, one byte column at a time."""
    out = bytearray(len(raw) // size * wider)
    for j in range(size):
        out[wider - size + j::wider] = raw[j::size]
    return out


def _widen(raw: bytes, bits: int, wide: int) -> tuple[int, int]:
    """`raw`'s slots moved into `wide`-bit ones, and the width `_expand` uses."""
    return int.from_bytes(_spread(raw, bits // 8, wide // 8), "big"), wide


def _expand(e: Sequence[int], order: int, apply: Callable[..., int]) -> list[int]:
    """[c_0, ..., c_order] of prod (1+q^n)^e[n]; `apply(c, ns, bits)` multiplies in those of ns.

    Each e[n], n >= 1, is 0..255 (e[0] is neither read nor refused): a negative one is a division,
    and the write packs each in a byte. e may be any sequence of ints, a list or bytes: it is read
    into bytes once, in C for bytes. The factors n > order // 3 are written: a monomial of degree
    <= order takes at most two of them, so their product is 1 + T + (T^2 - T(q^2))/2 with
    T = sum e[n] q^n over them (binomial too: C(e, 2) = (e^2 - e)/2). T is packed into slots that
    hold max(e) * sum(e) over it (`_largest` gives max(e)), which bounds every slot of T^2, so no
    slot past the order carries into a kept one, and each slot of T^2 - T(q^2) is even, so one shift
    halves them all. If no two meet in degree <= order, 1 + T is written in 8-bit slots and nothing
    is squared. The rest run from n = order // 3 down, in segments [lo, hi), lo = hi // 2, the
    n < 16 last. `most` bounds every coefficient; a segment's E binomials multiply it by at most
    their count of monomials of degree <= order. Each factor is >= 0 with constant term 1: no pass
    exceeds its segment's end.
    When `most` outgrows the slots, they are read back, then widened if the largest value needs it.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    if len(e) <= order:
        raise ValueError("e must give an exponent for every n <= order")
    try:
        e = b"\0" + bytes(e[1:order + 1])  # read by C from here on; e[0] is unused
    except ValueError:  # bytes() takes only 0..255
        n, x = next((n, x) for n, x in enumerate(e[1:order + 1], 1) if not 0 <= x < 256)
        raise ValueError(f"exponent {x} at n = {n} is {'negative' if x < 0 else 'over 255'}") from None
    hi, top = order // 3 + 1, e[order // 3 + 1:]  # T: no monomial takes three of these factors
    rest = top.lstrip(b"\0")  # T from its smallest factor up: n = order + 1 - len(rest)
    pair = rest if rest[:1] > b"\1" else rest[1:].lstrip(b"\0")  # T from the factor n pairs with
    if len(rest) + len(pair) < order + 2:  # those two meet past the order, so no two do
        bits, most, c = 8, max(_largest(top), 1), 1 << order * 8 | int.from_bytes(top, "big")
    else:
        most = _largest(top) * sum(top)
        t, bits = _widen(top, 8, -(-most.bit_length() // 8) * 8)
        u = int.from_bytes(_spread(top, 1, bits // 4), "big")  # T(q^2) in the slots of T^2
        c = (1 << order * bits) + t + ((t * t - u) >> order * bits + 1)
    while hi > 1:
        lo = max(hi // 2, 16) if hi > 16 else 1
        total, j = sum(e[lo:hi]), order // lo  # such a monomial has at most j of the E factors
        growth = 1 << total if j >= total else sum(map(comb, repeat(total), range(j + 1)))
        if (most * growth).bit_length() > bits:  # read back; the mask drops a top slot's carry
            raw = (c & (1 << (order + 1) * bits) - 1).to_bytes((order + 1) * bits // 8, "big")
            most = (1 << _top_bits(raw, bits)) - 1  # >= 1: c_0 = 1 sits in the top slot
            if (wide := -(-(most * growth).bit_length() // 8) * 8) > bits:
                c, bits = _widen(raw, bits, wide)
        most *= growth
        c = apply(c, compress(range(hi - 1, lo - 1, -1), e[hi - 1:lo - 1:-1]), bits) if total else c
        hi = lo
    return _unpack(c, order, bits)


def product_power(e: Sequence[int], order: int) -> TruncatedSeries:
    """Expand prod_{n=1..order} (1+q^n)^e[n] mod q^(order+1); e[0] is unused, each other e[n] 0..255.

    `_expand` writes the factors n > order // 3; each other one takes e[n] packed shift-add passes.
    """
    def apply(c: int, ns: Iterable[int], bits: int) -> int:
        for n in ns:
            for _ in range(e[n]):
                c = _shift_add(c, c, n, 1, bits)
        return c
    return TruncatedSeries(_expand(e, order, apply))


def binomial_power(e: Sequence[int], order: int) -> list[int]:
    """f(0..order) by the bounded-knapsack DP over binomial-weighted multiplicities.

    State is the remaining weight; part k chooses its multiplicity t <= e[k] with weight
    C(e[k], t). Those choices sum to (1+q^k)^e[k], so the DP runs packed through `_expand`.
    """
    def apply(dp: int, parts: Iterable[int], bits: int) -> int:
        for k in parts:
            cap, before = e[k], dp
            for t in range(1, min(cap, order // k) + 1):
                dp = _shift_add(dp, before, k * t, comb(cap, t), bits)
        return dp
    return _expand(e, order, apply)
