import pytest
from hypothesis import given, strategies as st

from v2partitions import FamilyId, Valuation, exponent, v2

from oracles import v2_by_division


class TestV2:
    def test_odd_numbers_have_valuation_zero(self):
        assert v2(1) == Valuation.finite(0)
        assert v2(17) == Valuation.finite(0)

    def test_worked_values(self):
        assert v2(8) == Valuation.finite(3)
        assert v2(18) == Valuation.finite(1)

    def test_zero_is_infinite(self):
        assert v2(0).is_infinite
        with pytest.raises(ValueError):
            v2(0).exponent

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            v2(-4)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_matches_repeated_halving(self, n):
        assert v2(n).exponent == v2_by_division(n)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_doubling_adds_one(self, n):
        assert v2(2 * n).exponent == 1 + v2(n).exponent

    @given(st.integers(min_value=1, max_value=10**6))
    def test_4n_minus_2_has_valuation_one(self, n):
        # 4n-2 = 2*(2n-1) with 2n-1 odd
        assert v2(4 * n - 2) == Valuation.finite(1)


class TestExponentRules:
    def test_paper_worked_values(self):
        assert exponent(FamilyId.OVERPARTITION_ODD, 5) == 2
        assert exponent(FamilyId.OVERPARTITION_ODD, 4) == 1
        assert exponent(FamilyId.PED, 4) == 2
        assert exponent(FamilyId.PED, 5) == 1
        assert exponent(FamilyId.POD, 4) == 2
        assert exponent(FamilyId.POD, 2) == 1
        assert exponent(FamilyId.POD, 5) == 1
        assert exponent(FamilyId.PE, 8) == 3
        assert exponent(FamilyId.PE, 6) == 1
        assert exponent(FamilyId.PE, 4) == 2

    def test_distinct_parts_exponent_is_always_one(self):
        assert all(exponent(FamilyId.PD, n) == 1 for n in range(1, 101))

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_zero_rejected(self, family):
        with pytest.raises(ValueError):
            exponent(family, 0)

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_non_negative(self, family):
        assert all(exponent(family, n) >= 0 for n in range(1, 200))

    def test_even_parts_family_vanishes_on_odd(self):
        assert all(exponent(FamilyId.PE, n) == 0 for n in range(1, 500, 2))

    def test_parity_offsets_from_distinct_parts_rule(self):
        # overpartition-odd and ped are the pd rule plus 1 on one parity class
        for n in range(1, 10**4 + 1):
            base = exponent(FamilyId.PD, n)
            assert exponent(FamilyId.OVERPARTITION_ODD, n) == base + (n % 2)
            assert exponent(FamilyId.PED, n) == base + (1 - n % 2)

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_matches_rules_built_from_v2(self, family):
        # the rules as the paper states them, through the public Valuation form
        rule = {
            FamilyId.OVERPARTITION_ODD: lambda n: v2(4 * n - 2).exponent + n % 2,
            FamilyId.PED: lambda n: v2(4 * n - 2).exponent + 1 - n % 2,
            FamilyId.PD: lambda n: v2(4 * n - 2).exponent,
            FamilyId.POD: lambda n: v2(4 * n - 2 if n % 2 else n).exponent,
            FamilyId.PE: lambda n: v2(n).exponent,
        }[family]
        assert all(exponent(family, n) == rule(n) for n in range(1, 10**4 + 1))
