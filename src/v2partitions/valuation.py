"""The per-family exponent rules v(n), built from 2-adic valuations.

Every product representation used in this package has the shape
prod_{n>=1} (1+q^n)^{v(n)} where v(n) is built from 2-adic valuations;
this module owns the five family-specific rules.
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


# exponent() runs once per n on the product and binomial routes; comparing
# with module-level names skips an enum attribute lookup (~0.2 us) per test.
_OVERPARTITION_ODD, _PED, _PD, _POD, _PE = (
    FamilyId.OVERPARTITION_ODD, FamilyId.PED, FamilyId.PD, FamilyId.POD, FamilyId.PE)


def exponent(family: FamilyId, n: int) -> int:
    """Exponent v(n) of (1+q^n) in the product representation of `family`.

    v2(4n-2) is computed honestly (not hard-coded to its simplified value 1)
    so tests can confirm the simplification independently. v2(m) is the bit
    trick (m & -m).bit_length() - 1, inline, with no helper call per n.
    """
    if n < 1:
        raise ValueError("exponent rules are defined for n >= 1 only")
    odd = n % 2 == 1
    # pe, and pod at even n, take v2(n); every other rule takes v2(4n-2)
    m = n if family is _PE or (family is _POD and not odd) else 4 * n - 2
    v = (m & -m).bit_length() - 1
    if family is _OVERPARTITION_ODD:
        return v + (1 if odd else 0)
    if family is _PED:
        return v + (0 if odd else 1)
    if family is _PD or family is _POD or family is _PE:
        return v
    raise AssertionError(f"unhandled family {family}")


def exponents(family: FamilyId, order: int) -> list[int]:
    """[0, v(1), ..., v(order)]: the family's exponent rule as one list per table."""
    return [0] + [exponent(family, n) for n in range(1, order + 1)]
