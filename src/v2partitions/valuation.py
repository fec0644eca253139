"""The per-family exponent rules v(n) of prod_{n>=1} (1+q^n)^{v(n)}, built from 2-adic valuations.

_RULES states the five rules once, as data. The product route builds its table by `exponents`, in C;
the binomial route reads `exponent` at each n, so product == binomial checks one reading by the other.
"""

from __future__ import annotations

import enum


class FamilyId(enum.Enum):
    """The five restricted partition families."""

    OVERPARTITION_ODD = "overpartition-odd"  # overpartitions into odd parts
    PED = "ped"  # distinct even parts, odd parts free
    PD = "pd"    # distinct parts (equivalently: odd parts)
    POD = "pod"  # distinct odd parts, even parts free
    PE = "pe"    # even parts only


# family value (an Enum member hashes in Python) -> (rule at odd n, rule at even n). A rule (k, offset) is
# v(n) = v2(k n - k // 2) + offset: k = 1 reads v2(n), k = 4 v2(4n-2), not hard-coded to 1 so tests confirm it.
_RULES = {
    FamilyId.OVERPARTITION_ODD.value: ((4, 1), (4, 0)),
    FamilyId.PED.value: ((4, 0), (4, 1)),
    FamilyId.PD.value: ((4, 0), (4, 0)),
    FamilyId.POD.value: ((4, 0), (1, 0)),
    FamilyId.PE.value: ((1, 0), (1, 0)),
}
_ADD = bytes(range(256)), bytes(range(1, 256)) + bytes(1)  # translate tables v -> v + offset


def exponent(family: FamilyId, n: int) -> int:
    """Exponent v(n) of (1+q^n) in the product representation of `family`, for any n >= 1."""
    if n < 1:
        raise ValueError("exponent rules are defined for n >= 1 only")
    k, offset = _RULES[family._value_][n % 2 == 0]
    return ((m := k * n - k // 2) & -m).bit_length() - 1 + offset


def exponents(family: FamilyId, order: int) -> bytearray:
    """[0, v(1), ..., v(order)], each parity class of n one strided slice of v2 over 1..4*order."""
    if order < 0:
        raise ValueError("order must be non-negative")
    v2, p = bytearray(4 * order + 1), 2
    while p <= 4 * order:
        v2[p::p] = bytes([p.bit_length() - 1]) * (4 * order // p)
        p *= 2
    e = bytearray(order + 1)
    for s, (k, offset) in zip((1, 2), _RULES[family._value_]):
        e[s::2] = v2[k * s - k // 2:k * order + 1:2 * k].translate(_ADD[offset])
    return e
