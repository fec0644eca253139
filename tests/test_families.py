from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from v2partitions import (
    BRUTE_LIMIT,
    FAMILIES,
    FamilyId,
    PochhammerSpec,
    Route,
    binomial_sum,
    brute_force_count,
    enumerate_capped,
    exponent,
    gf_series,
    mul,
    pochhammer,
    product_series,
    reciprocal,
    table,
    verify_family,
)
import v2partitions
from v2partitions import families, series, valuation

import oracles

ALL_FAMILIES = list(FamilyId)


def test_every_exported_name_resolves():
    assert [name for name in v2partitions.__all__ if not hasattr(v2partitions, name)] == []


def exponent_caps(family, n):
    return [0] + [exponent(family, k) for k in range(1, n + 1)]


# Each family's generating function as the q-Pochhammer fraction
# numerator/denominator it was first written as; specs are (sign, offset,
# step) and None is 1.
POCHHAMMER_FRACTIONS = {
    FamilyId.OVERPARTITION_ODD: (PochhammerSpec(-1, 1, 2), PochhammerSpec(1, 1, 2)),
    FamilyId.PED: (PochhammerSpec(-1, 2, 2), PochhammerSpec(1, 1, 2)),
    FamilyId.PD: (None, PochhammerSpec(1, 1, 2)),
    FamilyId.POD: (PochhammerSpec(-1, 1, 2), PochhammerSpec(1, 2, 2)),
    FamilyId.PE: (None, PochhammerSpec(1, 2, 2)),
}


class TestGfSeries:
    def test_overpartition_odd_at_five(self):
        assert gf_series(FamilyId.OVERPARTITION_ODD, 5)[5] == 8

    def test_even_parts_vanish_at_odd_n(self):
        assert gf_series(FamilyId.PE, 5)[5] == 0

    def test_distinct_parts_initial_segment(self):
        expected = [oracles.count_with(n, oracles.distinct_parts) for n in range(11)]
        assert list(gf_series(FamilyId.PD, 10).coeffs) == expected
        assert expected == [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10]

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_constant_term_is_one(self, family):
        assert gf_series(family, 0).coeffs == (1,)

    def test_eta_quotients_are_distinct(self):
        assert len({frozenset(FAMILIES[family].items()) for family in ALL_FAMILIES}) == 5

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_eta_quotient_equals_pochhammer_fraction(self, family):
        # (-q;q^2), (-q^2;q^2), (q;q^2) and (q^2;q^2) have offset != step, so
        # pochhammer expands them factor by factor, not as pentagonal series.
        N = 500
        numerator, denominator = POCHHAMMER_FRACTIONS[family]
        dense = reciprocal(pochhammer(denominator, N), N)
        if numerator is not None:
            dense = mul(pochhammer(numerator, N), dense, N)
        assert gf_series(family, N) == dense


class TestProductSeries:
    def test_even_parts_at_eight(self):
        assert product_series(FamilyId.PE, 8)[8] == 5

    def test_ped_at_five(self):
        assert product_series(FamilyId.PED, 5)[5] == 6

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_order_zero(self, family):
        assert product_series(family, 0).coeffs == (1,)


class TestBinomialSum:
    @pytest.mark.parametrize("family,n,expected", [
        (FamilyId.OVERPARTITION_ODD, 5, 8),
        (FamilyId.PD, 5, 3),
        (FamilyId.POD, 5, 4),
        (FamilyId.PED, 5, 6),
        (FamilyId.PE, 8, 5),
    ])
    def test_worked_values(self, family, n, expected):
        assert binomial_sum(family, n) == expected

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_empty_partition(self, family):
        assert binomial_sum(family, 0) == 1


class TestEnumerateCapped:
    @pytest.mark.parametrize("family,n,expected_parts,expected_weights", [
        (FamilyId.OVERPARTITION_ODD, 5,
         [(5,), (4, 1), (3, 2), (3, 1, 1)], [2, 2, 2, 2]),
        (FamilyId.PED, 5,
         [(5,), (4, 1), (3, 2), (2, 2, 1)], [1, 2, 2, 1]),
        (FamilyId.PD, 5,
         [(5,), (4, 1), (3, 2)], [1, 1, 1]),
        (FamilyId.PE, 8,
         [(8,), (6, 2), (4, 4)], [3, 1, 1]),
    ])
    def test_worked_listings(self, family, n, expected_parts, expected_weights):
        got = enumerate_capped(n, exponent_caps(family, n))
        assert [p.parts() for p in got] == expected_parts
        assert [p.weight for p in got] == expected_weights

    def test_invariants(self):
        caps = exponent_caps(FamilyId.OVERPARTITION_ODD, 12)
        listing = enumerate_capped(12, caps)
        for p in listing:
            assert sum(k * t for k, t in p.terms) == 12
            parts = [k for k, _ in p.terms]
            assert parts == sorted(set(parts), reverse=True)  # strictly decreasing
            assert all(1 <= t <= caps[k] for k, t in p.terms)
            assert p.weight >= 1
        assert [p.parts() for p in listing] == sorted((p.parts() for p in listing), reverse=True)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", range(1, 26))
    def test_weight_sum_equals_binomial_sum(self, family, n):
        got = enumerate_capped(n, exponent_caps(family, n))
        assert sum(p.weight for p in got) == binomial_sum(family, n)

    @settings(max_examples=40, deadline=None)
    @given(caps=st.lists(st.sampled_from([0, 1, 2, 3, 5]), max_size=30))
    def test_any_caps_list_agrees_with_product_and_binomial_dp(self, caps):
        # Not just the five families' caps: product_power, the binomial DP fed
        # the same list and the enumerated weights agree on an arbitrary one.
        caps = [0] + caps
        N = len(caps) - 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(families, "exponents", lambda family, order: caps)
            dp = families.binomial_table(FamilyId.PD, N)
        weights = [1] + [sum(p.weight for p in enumerate_capped(n, caps)) for n in range(1, N + 1)]
        assert list(series.product_power(caps, N).coeffs) == dp == weights


class TestBruteForce:
    def test_overpartitions_of_three(self):
        # odd-part partitions of 3 are {3} and {1,1,1}: 2 + 2
        assert brute_force_count(FamilyId.OVERPARTITION_ODD, 3) == 4

    def test_even_parts_of_eight(self):
        assert brute_force_count(FamilyId.PE, 8) == 5

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_empty_partition(self, family):
        assert brute_force_count(family, 0) == 1

    def test_limit_enforced(self):
        with pytest.raises(ValueError):
            brute_force_count(FamilyId.PD, 61)

    @pytest.mark.parametrize("family,keep", [
        (FamilyId.PED, oracles.even_parts_distinct),
        (FamilyId.POD, oracles.odd_parts_distinct),
        (FamilyId.PE, oracles.all_even),
        (FamilyId.PD, oracles.distinct_parts),
    ])
    def test_against_literal_enumeration(self, family, keep):
        for n in range(26):
            assert brute_force_count(family, n) == oracles.count_with(n, keep)

    def test_overpartitions_against_literal_enumeration(self):
        for n in range(26):
            assert (brute_force_count(FamilyId.OVERPARTITION_ODD, n)
                    == oracles.overpartitions_into_odd_parts(n))

    def test_distinct_and_odd_tallies_agree(self):
        # Euler's identity, checked through the dual-count oracle
        for n in range(41):
            assert (brute_force_count(FamilyId.PD, n)
                    == oracles.count_with(n, oracles.all_odd))

    def test_tally_disagreement_names_first_differing_n(self, monkeypatch):
        original = families._count_partitions

        def skewed(caps, size_factor=1):
            counts = original(caps, size_factor)
            if caps[2] == 0:  # the odd-parts tally: even parts are capped at 0
                counts[5] += 1
            return counts

        monkeypatch.setattr(families, "_count_partitions", skewed)
        with pytest.raises(AssertionError, match="at n=5: 3 vs 4"):
            brute_force_count(FamilyId.PD, 10)


def _crossed(*args):
    raise AssertionError("route boundary crossed")


class TestRouteBoundaries:
    # Pins README's "What the routes share": brute reads neither the exponent
    # rule nor the shift-add kernel, and gf does not read the exponent rule.
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_brute_reads_no_exponent_rule_and_no_kernel(self, monkeypatch, family):
        expected = table(family, 60, Route.GF)
        for module, name in [(families, "exponent"), (valuation, "exponent"),
                             (series, "_shift_add"), (families, "_shift_add")]:
            monkeypatch.setattr(module, name, _crossed)
        with pytest.raises(AssertionError, match="boundary"):
            table(family, 60, Route.PRODUCT)
        assert table(family, 60, Route.BRUTE) == expected

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_gf_reads_no_exponent_rule(self, monkeypatch, family):
        expected = table(family, 200, Route.GF)
        monkeypatch.setattr(families, "exponent", _crossed)
        monkeypatch.setattr(valuation, "exponent", _crossed)
        with pytest.raises(AssertionError, match="boundary"):
            table(family, 200, Route.BINOMIAL)
        assert table(family, 200, Route.GF) == expected


class TestRouteEquivalence:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_analytic_routes_agree_to_120(self, family):
        N = 120
        gf = list(gf_series(family, N).coeffs)
        prod = list(product_series(family, N).coeffs)
        binom = table(family, N, Route.BINOMIAL)
        assert gf == prod == binom

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_brute_agrees_to_30(self, family):
        N = 30
        assert table(family, N, Route.BRUTE) == list(gf_series(family, N).coeffs)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_sequences_non_negative(self, family):
        assert all(c >= 0 for c in gf_series(family, 200).coeffs)

    def test_overpartition_values_even_from_one(self):
        coeffs = gf_series(FamilyId.OVERPARTITION_ODD, 100).coeffs
        assert all(c % 2 == 0 for c in coeffs[1:])

    @pytest.mark.parametrize("route", [Route.GF, Route.PRODUCT, Route.BINOMIAL])
    def test_ped_congruences_mod_4_and_12(self, route):
        # ped(9n+4) = 0 mod 4 and ped(9n+7) = 0 mod 12 (Andrews, Hirschhorn and
        # Sellers, Ramanujan J. 2010): a check at large n that no route computes.
        ped = table(FamilyId.PED, 1000, route)
        assert all(ped[n] % 4 == 0 for n in range(4, 1001, 9))
        assert all(ped[n] % 12 == 0 for n in range(7, 1001, 9))

    @pytest.mark.parametrize("route", [Route.GF, Route.PRODUCT, Route.BINOMIAL])
    def test_ramanujan_congruences_through_pe(self, route):
        # p(5n+4) = 0 mod 5, p(7n+5) = 0 mod 7, p(11n+6) = 0 mod 11 (Ramanujan
        # 1919, 1921), read through pe(2n) = p(n) for p(n) up to n = 1000.
        p = table(FamilyId.PE, 2000, route)[::2]
        for modulus, residue in [(5, 4), (7, 5), (11, 6)]:
            assert all(p[n] % modulus == 0 for n in range(residue, 1001, modulus))

    def test_even_family_shadows_unrestricted_partitions(self):
        # p_e(2n) = p(n), p_e(odd) = 0
        N = 100
        pe = product_series(FamilyId.PE, 2 * N)
        p = reciprocal(pochhammer(PochhammerSpec(sign=1, offset=1, step=1), N), N)
        for n in range(N + 1):
            assert pe[2 * n] == p[n]
        assert all(pe[k] == 0 for k in range(1, 2 * N + 1, 2))


def _odd(d):
    return d % 2 == 1


def _even(d):
    return d % 2 == 0


def _none(d):
    return False


def _all(d):
    return True


# Each family's parts read off its definition, as (free, distinct) rules on a
# part size d: a free part repeats at will, a distinct part appears at most
# once, and an overpartition into odd parts takes both for each odd d.
PART_RULES = {
    FamilyId.OVERPARTITION_ODD: (_odd, _odd),
    FamilyId.PED: (_odd, _even),
    FamilyId.PD: (_none, _all),
    FamilyId.POD: (_even, _odd),
    FamilyId.PE: (_even, _none),
}
ORACLE_N = 1000
ANALYTIC_ROUTES = [Route.GF, Route.PRODUCT, Route.BINOMIAL]


@cache
def _divisor_sum_oracle(family):
    return oracles.divisor_sum_table(*PART_RULES[family], ORACLE_N)


def _first_difference(a, b):
    return next((n for n, (x, y) in enumerate(zip(a, b)) if x != y), None)


def _check_against_oracle(family, route):
    got, expected = table(family, ORACLE_N, route), _divisor_sum_oracle(family)
    n = _first_difference(got, expected)
    assert n is None, (f"{route.value} differs from the divisor-sum oracle at n={n}: "
                       f"{got[n]} vs {expected[n]}")


class TestDivisorSumOracle:
    # Past brute's n <= 60: a recurrence from each family's part rules that
    # reads no eta quotient, exponent rule, pentagonal series or kernel.
    @pytest.mark.parametrize("route", ANALYTIC_ROUTES)
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_analytic_routes_match_oracle_to_1000(self, family, route):
        _check_against_oracle(family, route)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_kernel_fault_above_brute_limit_fails_oracle_not_brute(self, monkeypatch, family):
        clean = {route: table(family, ORACLE_N, route) for route in ANALYTIC_ROUTES}
        kernel = series._shift_add

        def faulty(dst, src, s, w):
            kernel(dst, src, s + 1 if s > BRUTE_LIMIT else s, w)  # one place too far

        monkeypatch.setattr(series, "_shift_add", faulty)
        monkeypatch.setattr(families, "_shift_add", faulty)
        assert verify_family(family, BRUTE_LIMIT, include_brute=True).passed
        changed = 0
        for route in ANALYTIC_ROUTES:
            first = _first_difference(table(family, ORACLE_N, route), clean[route])
            if first is None:  # pe's gf, 1/f2, only divides: it never calls the kernel
                assert (family, route) == (FamilyId.PE, Route.GF)
                continue
            changed += 1
            assert first > BRUTE_LIMIT
            with pytest.raises(AssertionError, match=f"{route.value} differs .* at n={first}:"):
                _check_against_oracle(family, route)
        assert changed >= 2


class TestTable:
    def test_ped_gf_ends_in_six(self):
        assert table(FamilyId.PED, 5, Route.GF)[-1] == 6

    def test_even_parts_product_table(self):
        assert table(FamilyId.PE, 5, Route.PRODUCT) == [1, 0, 1, 0, 2, 0]

    def test_pod_binomial_ends_in_four(self):
        assert table(FamilyId.POD, 5, Route.BINOMIAL)[-1] == 4

    def test_brute_beyond_policy_refused(self):
        with pytest.raises(ValueError):
            table(FamilyId.PE, 61, Route.BRUTE)
