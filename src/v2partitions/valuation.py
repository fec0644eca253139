"""2-adic valuations and the per-family exponent rules v(n).

Every product representation used in this package has the shape
prod_{n>=1} (1+q^n)^{v(n)} where v(n) is built from 2-adic valuations;
this module owns both v_2 itself and the five family-specific rules.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class FamilyId(enum.Enum):
    """The five restricted partition families."""

    OVERPARTITION_ODD = "overpartition-odd"  # overpartitions into odd parts
    PED = "ped"  # distinct even parts, odd parts free
    PD = "pd"    # distinct parts (equivalently: odd parts)
    POD = "pod"  # distinct odd parts, even parts free
    PE = "pe"    # even parts only

    @classmethod
    def from_token(cls, token: str) -> "FamilyId":
        for fam in cls:
            if fam.value == token:
                return fam
        raise ValueError(f"unknown family {token!r}")


@dataclass(frozen=True)
class Valuation:
    """A 2-adic valuation: finite exponent, or the infinite value v2(0).

    The infinite case is a first-class variant (exponent access raises)
    so it can never silently leak into exponent arithmetic.
    """

    _exponent: int | None

    @classmethod
    def finite(cls, exponent: int) -> "Valuation":
        if exponent < 0:
            raise ValueError("valuation exponent must be non-negative")
        return cls(exponent)

    @classmethod
    def infinite(cls) -> "Valuation":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self._exponent is None

    @property
    def exponent(self) -> int:
        if self._exponent is None:
            raise ValueError("infinite valuation has no finite exponent")
        return self._exponent

    def __repr__(self) -> str:
        return "Valuation.infinite()" if self.is_infinite else f"Valuation.finite({self._exponent})"


def v2(n: int) -> Valuation:
    """2-adic valuation of n >= 0: largest e with 2^e | n; v2(0) is infinite."""
    if n < 0:
        raise ValueError("v2 is defined for non-negative integers only")
    if n == 0:
        return Valuation.infinite()
    return Valuation.finite((n & -n).bit_length() - 1)


# exponent() runs once per n on the product and binomial routes; comparing
# with module-level names skips an enum attribute lookup (~0.2 us) per test.
_OVERPARTITION_ODD, _PED, _PD, _POD, _PE = (
    FamilyId.OVERPARTITION_ODD, FamilyId.PED, FamilyId.PD, FamilyId.POD, FamilyId.PE)


def exponent(family: FamilyId, n: int) -> int:
    """Exponent v(n) of (1+q^n) in the product representation of `family`.

    v2(4n-2) is computed honestly (not hard-coded to its simplified value 1)
    so tests can confirm the simplification independently. The valuations
    use v2's bit trick inline, so no Valuation is allocated per call.
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
