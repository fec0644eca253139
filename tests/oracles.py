"""Independent brute-force oracles for the tests.

Everything here enumerates partitions literally (no series arithmetic,
no DP shared with the package) so expected values are computed by a
genuinely separate path. `capped_tableau` renders the `remark` tableau
from `partitions`. `eta_exponents` reads the FAMILIES quotients, the
data under test, and expands no series. `unpack_slots` is the reference
decoder of the packed kernel's slots, one slot at a time. `parse_bfile_walk`
is the reference b-file parser, one line at a time. `count_partitions_by_copies`
is the brute route's recurrence, one pass per part and copy count.
"""

import re
from collections import Counter
from itertools import groupby
from math import comb, prod

from v2partitions.families import FAMILIES


def partitions(n, max_part=None):
    """Yield all partitions of n as decreasing part tuples."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for k in range(min(max_part, n), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def partition_count(n):
    return sum(1 for _ in partitions(n))


def count_with(n, keep):
    """Count partitions of n satisfying a predicate on the part tuple."""
    return sum(1 for p in partitions(n) if keep(p))


def capped_tableau(n, caps):
    """The `remark` lines of n without the total, e.g. "3+1+1  C(2,1)*C(2,2) = 2".

    One line per partition of n that uses each part k at most caps[k] times,
    in lexicographically decreasing order; the weight is prod_k C(caps[k], t_k).
    """
    capped = sorted((p for p in partitions(n)
                     if all(t <= caps[k] for k, t in Counter(p).items())), reverse=True)
    lines = []
    for p in capped:
        runs = [(k, len(list(copies))) for k, copies in groupby(p)]
        factors = "*".join(f"C({caps[k]},{t})" for k, t in runs)
        weight = prod(comb(caps[k], t) for k, t in runs)
        lines.append(f"{'+'.join(map(str, p))}  {factors} = {weight}")
    return lines


def distinct_parts(p):
    return len(set(p)) == len(p)


def all_odd(p):
    return all(k % 2 == 1 for k in p)


def all_even(p):
    return all(k % 2 == 0 for k in p)


def even_parts_distinct(p):
    evens = [k for k in p if k % 2 == 0]
    return len(set(evens)) == len(evens)


def odd_parts_distinct(p):
    odds = [k for k in p if k % 2 == 1]
    return len(set(odds)) == len(odds)


def overpartitions_into_odd_parts(n):
    """Each odd-part partition with d distinct sizes contributes 2^d overlinings."""
    if n == 0:
        return 1
    return sum(2 ** len(set(p)) for p in partitions(n) if all_odd(p))


def v2_by_division(n):
    """2-adic valuation by repeated halving; raises on n = 0."""
    if n <= 0:
        raise ValueError("positive integers only")
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    return e


def product_expand(factors, order):
    """Expand a product of (exponent, coefficient-dict) polynomial factors.

    Each factor is a plain dict {power: coeff}; returns a coefficient list of
    length order+1. Used to cross-check Pochhammer expansions term by term.
    """
    coeffs = [1] + [0] * order
    for poly in factors:
        new = [0] * (order + 1)
        for power, c in poly.items():
            if power > order:
                continue
            for i in range(order + 1 - power):
                new[i + power] += coeffs[i] * c
        coeffs = new
    return coeffs


def pochhammer_factors(sign, offset, step, order):
    """(sign*q^offset; q^step)_inf = prod_{s>=0} (1 - sign*q^(offset + s*step)), factor by factor."""
    return product_expand([{0: 1, m: -sign} for m in range(offset, order + 1, step)], order)


def divisor_sum_table(free, distinct, order):
    """a(0..order) of prod_{free d} 1/(1-q^d) * prod_{distinct d} (1+q^d), d >= 1.

    `free` and `distinct` are predicates on a part size d. The log-derivative
    gives n*a(n) = sum_{j=1..n} b(j)*a(n-j), where b(j) sums d over the free
    parts d | j and (-1)^(j/d+1)*d over the distinct parts d | j (Euler's
    n*p(n) = sum sigma(j)*p(n-j), generalised). Raises if n does not divide
    the sum, since an exact a(n) requires it.
    """
    b = [0] * (order + 1)
    for d in range(1, order + 1):
        for j in range(d, order + 1, d):
            if free(d):
                b[j] += d
            if distinct(d):
                b[j] += d if (j // d) % 2 else -d
    a = [1] + [0] * order
    for n in range(1, order + 1):
        total = sum(b[j] * a[n - j] for j in range(1, n + 1))
        if total % n:
            raise AssertionError(f"divisor sum {total} at n={n} is not a multiple of n")
        a[n] = total // n
    return a


def side_eta(side):
    """A FAMILIES side as an eta quotient {k: power of f_k}.

    ("phi", s*k) is phi(s q^k), s = +-1: phi(-q^k) = f_k^2/f_2k (Gauss) and
    phi(q^k) = f_2k^5/(f_k^2 f_4k^2); psi(q) = f2^2/f1 and psi(-q) = f1 f4/f2.
    tests/test_families.py pins each against the closed form to N = 2000.
    """
    if side is None:
        return {}
    kind, k = side
    if kind == "f":
        return {k: 1}
    if kind == "phi":
        m = abs(k)
        return {m: 2, 2 * m: -1} if k < 0 else {m: -2, 2 * m: 5, 4 * m: -2}
    return {1: 1, 4: 1, 2: -1} if k == -1 else {2: 2, 1: -1}


def eta_exponents(family, n):
    """c(n) in the family's generating function written as prod_{n>=1} (1-q^n)^c(n).

    f_k = prod_m (1-q^(km)) adds its power to c(n) at every n that k divides;
    the denominator's f_k subtract theirs.
    """
    numerator, denominator = FAMILIES[family]
    return (sum(e for k, e in side_eta(numerator).items() if n % k == 0)
            - sum(e for k, e in side_eta(denominator).items() if n % k == 0))


def count_partitions_by_copies(caps, size_factor=1):
    """`families._count_partitions` as one pass over r for each part k and copy count t.

    f_k(r) = f_{k-1}(r) + size_factor * sum_{t=1..caps[k]} f_{k-1}(r - t*k), summed term by term.
    """
    order = len(caps) - 1
    counts = [1] + [0] * order  # partitions into parts < k
    for k in range(1, order + 1):
        fewer = counts[:]
        for t in range(1, min(caps[k], order // k) + 1):
            shift = t * k
            for r in range(shift, order + 1):
                counts[r] += size_factor * fewer[r - shift]
    return counts


def unpack_slots(x, order, bits):
    """[c_0, ..., c_order] of a packed series, one `int.from_bytes` per slot.

    Slot order - k holds c_k; bits above the top slot are dropped.
    """
    size, width = bits // 8, (order + 1) * bits
    raw = (x & ((1 << width) - 1)).to_bytes(width // 8, "big")
    return [int.from_bytes(raw[i:i + size], "big") for i in range(0, len(raw), size)]


_DECIMAL = re.compile(r"-?[0-9]+")
_FIELD_SEP = re.compile(r"[ \t]+")


def parse_bfile_walk(path):
    """`cli.parse_bfile` as a walk over `bytes.splitlines()`: the same pairs or ValueError text."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    entries = []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        where = f"{path}: line {lineno}"
        try:
            line = raw.decode("ascii").strip(" \t")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{where}: non-ASCII byte 0x{raw[exc.start]:02x} "
                             f"at column {exc.start + 1}") from None
        if not line or line.startswith("#"):
            continue
        fields = _FIELD_SEP.split(line)
        if len(fields) != 2:
            raise ValueError(f"{where}: expected '<n> <value>', got {line!r}")
        try:
            if not all(_DECIMAL.fullmatch(field) for field in fields):
                raise ValueError
            index, value = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"{where}: non-integer field in {line!r}") from None
        if index < 0:
            raise ValueError(f"{where}: negative index {index}")
        if entries and index <= entries[-1][0]:
            raise ValueError(f"{where}: index {index} not strictly increasing")
        entries.append((index, value))
    return entries
