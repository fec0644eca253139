import pytest
from hypothesis import given, strategies as st

from v2partitions.families import MAX_ORDER
from v2partitions.valuation import FamilyId, exponent, exponents

from oracles import v2_by_division


# The rules as the paper states them, with v2 by repeated halving.
PAPER_RULES = {
    FamilyId.OVERPARTITION_ODD: lambda n: v2_by_division(4 * n - 2) + n % 2,
    FamilyId.PED: lambda n: v2_by_division(4 * n - 2) + 1 - n % 2,
    FamilyId.PD: lambda n: v2_by_division(4 * n - 2),
    FamilyId.POD: lambda n: v2_by_division(4 * n - 2 if n % 2 else n),
    FamilyId.PE: lambda n: v2_by_division(n),
}


class TestV2:
    # exponent computes v2 inline; pe's rule is v2(n) itself, so these read
    # v2 through exponent(FamilyId.PE, n)

    def test_odd_numbers_have_valuation_zero(self):
        assert exponent(FamilyId.PE, 1) == 0
        assert exponent(FamilyId.PE, 17) == 0

    def test_worked_values(self):
        assert exponent(FamilyId.PE, 8) == 3
        assert exponent(FamilyId.PE, 18) == 1

    def test_zero_is_infinite(self):
        # v2(0) is infinite, and the bit trick would give -1: both refuse 0
        with pytest.raises(ValueError):
            exponent(FamilyId.PE, 0)
        with pytest.raises(ValueError):
            v2_by_division(0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            exponent(FamilyId.PE, -4)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_matches_repeated_halving(self, n):
        assert exponent(FamilyId.PE, n) == v2_by_division(n)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_doubling_adds_one(self, n):
        assert exponent(FamilyId.PE, 2 * n) == 1 + exponent(FamilyId.PE, n)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_4n_minus_2_has_valuation_one(self, n):
        # 4n-2 = 2*(2n-1) with 2n-1 odd
        assert v2_by_division(4 * n - 2) == 1


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
        rule = PAPER_RULES[family]
        assert all(exponent(family, n) == rule(n) for n in range(1, 10**4 + 1))


class TestExponentTable:
    # exponents builds each route's table from the rule data in bytes; exponent reads
    # the same data at one n, so the two must agree wherever a table reaches.
    @pytest.mark.parametrize("family", list(FamilyId))
    def test_table_matches_scalar_rule(self, family):
        for N in [*range(301), MAX_ORDER]:
            assert list(exponents(family, N)) == [0] + [exponent(family, n) for n in range(1, N + 1)], N

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_table_matches_paper_rule(self, family):
        # exponent and exponents share their rule data; this reads the paper's rule instead
        rule = PAPER_RULES[family]
        assert list(exponents(family, MAX_ORDER)) == [0] + [rule(n) for n in range(1, MAX_ORDER + 1)]

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_negative_order_rejected(self, family):
        with pytest.raises(ValueError, match="non-negative"):
            exponents(family, -1)
