import importlib
import pkgutil
import re
from functools import cache
from itertools import chain, count, groupby
from math import comb, prod
from pathlib import Path
from types import ModuleType

import pytest
from hypothesis import given, settings, strategies as st

import v2partitions
from v2partitions import BRUTE_LIMIT, FAMILIES, FamilyId, Route, table, verify_family
from v2partitions import families, series, valuation
from v2partitions.families import (binomial_table, brute_force_count, enumerate_capped, gf_series,
                                   product_series)
from v2partitions.series import mul, pochhammer, reciprocal
from v2partitions.valuation import exponent

import oracles

ALL_FAMILIES = list(FamilyId)
README = Path(__file__).parents[1] / "README.md"
MODULES = [v2partitions, *(importlib.import_module(f"v2partitions.{m.name}")  # not __main__
                           for m in pkgutil.iter_modules(v2partitions.__path__) if m.name[0] != "_")]


def test_every_exported_name_resolves():
    assert [name for name in v2partitions.__all__ if not hasattr(v2partitions, name)] == []


def test_fault_seams_have_one_binding():
    # Fault tests patch these where they are defined; a copy elsewhere would escape them.
    seams = [series._shift_add, series._widen, series._certified, series._unpack, series._divide,
             valuation.exponent, valuation.exponents]
    copies = [f"{m.__name__}.{attr}" for m in MODULES for attr, value in vars(m).items()
              if any(value is seam for seam in seams) and value.__module__ != m.__name__]
    assert copies == []


def test_root_binds_only_the_exported_names():
    public = {name for name, value in vars(v2partitions).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == set(v2partitions.__all__)


def _readme_names(opening):
    """Backticked (dotted) names outside parentheses in the README paragraph starting `opening`."""
    paragraph = README.read_text(encoding="utf-8").split("\n" + opening, 1)[1].split("\n\n", 1)[0]
    names, depth = [], 0
    for i, chunk in enumerate(paragraph.split("`")):
        if i % 2 == 0:  # outside backticks
            depth += chunk.count("(") - chunk.count(")")
        elif depth == 0 and re.fullmatch(r"\w+(\.\w+)*", chunk):
            names.append(chunk)
    return names


def _resolve(name):
    obj = v2partitions
    for attr in name.split("."):
        obj = getattr(obj, attr)
    return obj


def test_readme_gone_names_resolve_nowhere():
    gone = _readme_names("These public names are gone:")
    assert {"one", "CappedPartition", "series.TruncatedSeries.order"} <= set(gone)
    for name in gone:
        assert name not in v2partitions.__all__, name
        owner, _, attr = name.rpartition(".")
        assert not any(hasattr(m, attr) for m in ([_resolve(owner)] if owner else MODULES)), name


def test_readme_tracer_names_resolve():
    kept = _readme_names("These public names stay only for the frozen benchmark tracer:")
    assert {"series.TruncatedSeries", "series.mul", "series.reciprocal",
            "families.brute_force_count"} <= set(kept)
    for name in kept:
        _resolve(name)


def test_readme_library_example_holds():
    # Each "# <value>" comment in README's Library block is the repr of its line's value.
    readme = README.read_text(encoding="utf-8")
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, checked = {}, 0
    for line in block.splitlines():
        code, _, value = line.partition("  # ")
        if value:
            assert repr(eval(code, namespace)) == value, line
            checked += 1
        else:
            exec(code, namespace)
    assert checked > 0


def parts(text):
    """The parts of an enumerate_capped partition's text in decreasing order, e.g. (3, 1, 1)."""
    return tuple(map(int, text.split("+")))


# Each family's generating function as the q-Pochhammer fraction
# numerator/denominator it was first written as; specs are (sign, offset,
# step) for oracles.pochhammer_factors and None is 1.
POCHHAMMER_FRACTIONS = {
    FamilyId.OVERPARTITION_ODD: ((-1, 1, 2), (1, 1, 2)),
    FamilyId.PED: ((-1, 2, 2), (1, 1, 2)),
    FamilyId.PD: (None, (1, 1, 2)),
    FamilyId.POD: ((-1, 1, 2), (1, 2, 2)),
    FamilyId.PE: (None, (1, 2, 2)),
}


class TestGfSeries:
    def test_overpartition_odd_at_five(self):
        assert gf_series(FamilyId.OVERPARTITION_ODD, 5)[5] == 8

    def test_even_parts_vanish_at_odd_n(self):
        assert gf_series(FamilyId.PE, 5)[5] == 0

    def test_distinct_parts_initial_segment(self):
        expected = [oracles.count_with(n, oracles.distinct_parts) for n in range(11)]
        assert gf_series(FamilyId.PD, 10) == expected
        assert expected == [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10]

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_constant_term_is_one(self, family):
        assert gf_series(family, 0) == [1]

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_negative_order_rejected(self, family):
        with pytest.raises(ValueError, match="non-negative"):
            gf_series(family, -1)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_divides_once_at_order_over_step(self, monkeypatch, family):
        # pe = 1/f2 is a series in q^2, so it divides 1/f1 at half the order
        orders, divide = [], series._divide
        monkeypatch.setattr(series, "_divide",
                            lambda c, a, order: orders.append(order) or divide(c, a, order))
        gf_series(family, 2000)
        assert orders == [1000 if family is FamilyId.PE else 2000]

    @pytest.mark.parametrize("N", range(8))
    def test_even_parts_at_small_orders(self, N):
        # odd N leaves the spread one index past the last even one
        assert gf_series(FamilyId.PE, N) == table(FamilyId.PE, N, Route.BRUTE)

    def test_quotients_are_distinct(self):
        assert len({FAMILIES[family] for family in ALL_FAMILIES}) == 5

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_eta_quotient_equals_pochhammer_fraction(self, family):
        # (-q;q^2), (-q^2;q^2), (q;q^2) and (q^2;q^2) are expanded factor by
        # factor, not as pentagonal series.
        N = 500

        def expand(spec):
            return oracles.pochhammer_factors(*spec, N)

        numerator, denominator = POCHHAMMER_FRACTIONS[family]
        dense = reciprocal(expand(denominator), N)
        if numerator is not None:
            dense = mul(expand(numerator), dense, N)
        assert gf_series(family, N) == dense

    @pytest.mark.parametrize("side", [("phi", -1), ("phi", -2), ("phi", 1), ("psi", 1), ("psi", -1)],
                             ids=["phi(-q)", "phi(-q^2)", "phi(q)", "psi(q)", "psi(-q)"])
    def test_theta_series_equals_eta_quotient(self, side):
        # The identities gf_series and oracles.eta_exponents rest on, to N = 2000:
        # each closed-form theta series against its eta quotient, expanded
        # densely with mul and reciprocal over pentagonal series.
        N = 2000
        numerator = denominator = [1] + [0] * N
        for k, e in oracles.side_eta(side).items():
            f_k = pochhammer(k, N)
            for _ in range(abs(e)):
                if e > 0:
                    numerator = mul(f_k, numerator, N)
                else:
                    denominator = mul(f_k, denominator, N)
        expected = mul(numerator, reciprocal(denominator, N), N)
        assert families.sparse_side(side, N) == expected


class TestProductSeries:
    def test_even_parts_at_eight(self):
        assert product_series(FamilyId.PE, 8)[8] == 5

    def test_ped_at_five(self):
        assert product_series(FamilyId.PED, 5)[5] == 6

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_order_zero(self, family):
        assert product_series(family, 0) == [1]


class TestBinomialSum:
    @pytest.mark.parametrize("family,n,expected", [
        (FamilyId.OVERPARTITION_ODD, 5, 8),
        (FamilyId.PD, 5, 3),
        (FamilyId.POD, 5, 4),
        (FamilyId.PED, 5, 6),
        (FamilyId.PE, 8, 5),
    ])
    def test_worked_values(self, family, n, expected):
        assert binomial_table(family, n)[n] == expected

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_empty_partition(self, family):
        assert binomial_table(family, 0) == [1]


def _first_eta_disagreement(family, rule):
    # (1+q^n) = (1-q^(2n))/(1-q^n), so prod (1+q^n)^v(n) has c(n) = -v(n) + [2 | n] v(n/2).
    # README ("The identities for every n") says why these n decide every n.
    for n in chain(range(1, 20_001), (2 ** j * u for j in range(200) for u in (1, 3, 5, 7))):
        if -rule(family, n) + (rule(family, n // 2) if n % 2 == 0 else 0) != \
                oracles.eta_exponents(family, n):
            return n
    return None


class TestEtaExponents:
    # Every series with constant term 1 is prod_{n>=1} (1-q^n)^c(n) for exactly one c,
    # so gf and product expand the same series iff their c(n) agree at every n.
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_exponent_rule_matches_gf_quotient(self, family):
        assert _first_eta_disagreement(family, exponent) is None

    def test_changed_exponent_rule_fails_at_first_changed_n(self):
        def changed(family, n):  # pod at even n takes v2(n) + 1
            return exponent(family, n) + (family is FamilyId.POD and n % 2 == 0)

        first = next(n for n in count(1) if changed(FamilyId.POD, n) != exponent(FamilyId.POD, n))
        assert first == 2
        assert _first_eta_disagreement(FamilyId.POD, changed) == first
        assert _first_eta_disagreement(FamilyId.PE, changed) is None


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
        got = enumerate_capped(n, valuation.exponents(family, n))
        assert [parts(text) for text, _, _ in got] == expected_parts
        assert [weight for _, _, weight in got] == expected_weights

    def test_invariants(self):
        caps = valuation.exponents(FamilyId.OVERPARTITION_ODD, 12)
        listing = enumerate_capped(12, caps)
        for text, factors, weight in listing:
            assert sum(parts(text)) == 12
            runs = [(k, len(list(copies))) for k, copies in groupby(parts(text))]
            sizes = [k for k, _ in runs]
            assert sizes == sorted(set(sizes), reverse=True)  # strictly decreasing
            # One factor C(cap, t) per part size, in the same order: read cap and t back.
            terms = [tuple(map(int, f)) for f in re.findall(r"C\((\d+),(\d+)\)", factors)]
            assert "*".join(f"C({cap},{t})" for cap, t in terms) == factors
            assert terms == [(caps[k], t) for k, t in runs]
            assert all(1 <= t <= caps[k] for k, t in runs)
            assert weight == prod(comb(cap, t) for cap, t in terms) >= 1
        assert ([parts(text) for text, _, _ in listing]
                == sorted((parts(text) for text, _, _ in listing), reverse=True))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", range(1, 26))
    def test_weight_sum_equals_binomial_sum(self, family, n):
        got = enumerate_capped(n, valuation.exponents(family, n))
        assert sum(weight for _, _, weight in got) == binomial_table(family, n)[n]

    @pytest.mark.parametrize("n,message", [(0, "n must be positive"),
                                           (5, "every part k <= 5")])  # not an IndexError
    def test_bad_arguments_rejected(self, n, message):
        with pytest.raises(ValueError, match=message):
            enumerate_capped(n, [0, 1])

    def test_negative_cap_rejected(self):
        # A cap of -1 on part 2 lowered the reach of parts <= 2, which pruned 1+1+1
        # and listed only (3,).
        listing = enumerate_capped(3, [0, 3, 0, 1])
        assert [parts(text) for text, _, _ in listing] == [(3,), (1, 1, 1)]
        with pytest.raises(ValueError, match="cap -1 of part 2 is negative"):
            enumerate_capped(3, [0, 3, -1, 1])

    @settings(max_examples=40, deadline=None)
    @given(caps=st.lists(st.sampled_from([0, 1, 2, 3, 5]), max_size=30))
    def test_any_caps_list_agrees_with_product_and_binomial_dp(self, caps):
        # Not just the five families' caps: product_power, the binomial DP fed
        # the same list and the enumerated weights agree on an arbitrary one.
        caps = [0] + caps
        N = len(caps) - 1
        dp = series.binomial_power(caps, N)
        weights = [1] + [sum(weight for _, _, weight in enumerate_capped(n, caps))
                         for n in range(1, N + 1)]
        assert series.product_power(caps, N) == dp == weights


class TestBruteForce:
    def test_overpartitions_of_three(self):
        # odd-part partitions of 3 are {3} and {1,1,1}: 2 + 2
        assert brute_force_count(FamilyId.OVERPARTITION_ODD, 3) == 4

    def test_even_parts_of_eight(self):
        assert brute_force_count(FamilyId.PE, 8) == 5

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_empty_partition(self, family):
        assert brute_force_count(family, 0) == 1

    @pytest.mark.parametrize("n,message", [(61, "limited to order <= 60"), (-1, "n must be non-negative")])
    def test_limit_enforced(self, n, message):
        with pytest.raises(ValueError, match=message):
            brute_force_count(FamilyId.PD, n)

    @pytest.mark.parametrize("family,keep", [
        (FamilyId.PED, oracles.even_parts_distinct),
        (FamilyId.POD, oracles.odd_parts_distinct),
        (FamilyId.PE, oracles.all_even),
        (FamilyId.PD, oracles.distinct_parts),
    ])
    def test_against_literal_enumeration(self, family, keep):
        expected = [oracles.count_with(n, keep) for n in range(31)]
        assert table(family, 30, Route.BRUTE) == expected
        assert [brute_force_count(family, n) for n in range(31)] == expected

    def test_overpartitions_against_literal_enumeration(self):
        for n in range(26):
            assert (brute_force_count(FamilyId.OVERPARTITION_ODD, n)
                    == oracles.overpartitions_into_odd_parts(n))

    def test_distinct_and_odd_tallies_agree(self):
        # Euler's identity, checked through the dual-count oracle
        for n in range(41):
            assert (brute_force_count(FamilyId.PD, n)
                    == oracles.count_with(n, oracles.all_odd))

    # The running window sum against the recurrence summed copy by copy, caps 0..5 past
    # order // k included; a cap of 1 takes its own single pass.
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, BRUTE_LIMIT).flatmap(lambda n: st.lists(
        st.integers(0, 5), min_size=n + 1, max_size=n + 1)), st.integers(1, 3))
    def test_window_sum_matches_copy_by_copy(self, caps, size_factor):
        assert (families._count_partitions(caps, size_factor)
                == oracles.count_partitions_by_copies(caps, size_factor))

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


PACKED_KERNEL = [(series, name) for name in ("_shift_add", "_widen", "_unpack")]


class TestRouteBoundaries:
    # Pins README's "What the routes share": brute reads neither the exponent
    # rule nor the packed kernel (shift-add, widening, unpacker) nor the
    # binomial DP, and neither does gf.
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_brute_reads_no_exponent_rule_and_no_kernel(self, monkeypatch, family):
        expected = table(family, 60, Route.GF)
        for module, name in [(valuation, "exponent"), (valuation, "exponents"), *PACKED_KERNEL,
                             (series, "comb"), (families, "comb"), (families, "binomial_table")]:
            monkeypatch.setattr(module, name, _crossed)
        with pytest.raises(AssertionError, match="boundary"):
            table(family, 60, Route.PRODUCT)
        assert table(family, 60, Route.BRUTE) == expected

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_gf_reads_no_exponent_rule(self, monkeypatch, family):
        expected = table(family, 200, Route.GF)
        monkeypatch.setattr(valuation, "exponent", _crossed)
        monkeypatch.setattr(valuation, "exponents", _crossed)
        with pytest.raises(AssertionError, match="boundary"):
            table(family, 200, Route.BINOMIAL)
        assert table(family, 200, Route.GF) == expected

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_product_reads_the_table_and_binomial_the_rule_at_each_n(self, monkeypatch, family):
        # The two routes read the rule two ways, so product == binomial checks one by the other.
        expected, calls = table(family, 50, Route.GF), []
        exponent = valuation.exponent
        monkeypatch.setattr(valuation, "exponent", lambda f, n: calls.append(n) or exponent(f, n))
        assert table(family, 50, Route.PRODUCT) == expected and calls == []
        assert table(family, 50, Route.BINOMIAL) == expected and calls == list(range(1, 51))
        monkeypatch.setattr(valuation, "exponents", _crossed)
        assert table(family, 50, Route.BINOMIAL) == expected

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_gf_calls_no_kernel_and_no_mul(self, monkeypatch, family):
        expected = table(family, 200, Route.GF)
        for module, name in [*PACKED_KERNEL, (series, "mul")]:
            monkeypatch.setattr(module, name, _crossed)
        with pytest.raises(AssertionError, match="boundary"):
            table(family, 200, Route.PRODUCT)
        assert table(family, 200, Route.GF) == expected


class TestRouteEquivalence:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_analytic_routes_agree_to_120(self, family):
        N = 120
        gf = gf_series(family, N)
        prod = product_series(family, N)
        binom = table(family, N, Route.BINOMIAL)
        assert gf == prod == binom

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_brute_agrees_to_30(self, family):
        N = 30
        assert table(family, N, Route.BRUTE) == gf_series(family, N)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_sequences_non_negative(self, family):
        assert all(c >= 0 for c in gf_series(family, 200))

    def test_overpartition_values_even_from_one(self):
        coeffs = gf_series(FamilyId.OVERPARTITION_ODD, 100)
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
        p = reciprocal(pochhammer(1, N), N)
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
    # reads no FAMILIES quotient, exponent rule, pentagonal series or kernel.
    @pytest.mark.parametrize("route", ANALYTIC_ROUTES)
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_analytic_routes_match_oracle_to_1000(self, family, route):
        _check_against_oracle(family, route)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_kernel_fault_above_brute_limit_fails_oracle_not_brute(self, monkeypatch, family):
        clean = {route: table(family, ORACLE_N, route) for route in ANALYTIC_ROUTES}
        kernel = series._shift_add

        def faulty(dst, src, s, w, bits):  # one place too far past the brute limit
            return kernel(dst, src, s + 1 if s > BRUTE_LIMIT else s, w, bits)

        monkeypatch.setattr(series, "_shift_add", faulty)
        assert verify_family(family, BRUTE_LIMIT, include_brute=True)["status"] == "PASS"
        # gf, one division of sparse series, never calls the kernel
        assert table(family, ORACLE_N, Route.GF) == clean[Route.GF]
        for route in [Route.PRODUCT, Route.BINOMIAL]:
            first = _first_difference(table(family, ORACLE_N, route), clean[route])
            assert first is not None and first > BRUTE_LIMIT
            with pytest.raises(AssertionError, match=f"{route.value} differs .* at n={first}:"):
                _check_against_oracle(family, route)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_division_fault_above_brute_limit_fails_oracle_not_brute(self, monkeypatch, family):
        clean = table(family, ORACLE_N, Route.GF)
        divide = series._divide

        def faulty(c, a, order):  # drops the divisor's terms past the brute limit
            kept = a[:BRUTE_LIMIT + 1] + [0] * (len(a) - 1 - BRUTE_LIMIT)
            return divide(c, kept, order)

        monkeypatch.setattr(series, "_divide", faulty)
        assert verify_family(family, BRUTE_LIMIT, include_brute=True)["status"] == "PASS"
        first = _first_difference(table(family, ORACLE_N, Route.GF), clean)
        assert first is not None and first > BRUTE_LIMIT
        with pytest.raises(AssertionError, match=f"gf differs .* at n={first}:"):
            _check_against_oracle(family, Route.GF)


def _record_widths(monkeypatch):
    """Patch `series._shift_add` to log [part, slot width, last source] per part.

    A product pass shifts by its part; the binomial DP's passes for part k
    shift by k, 2k, ... from one source. A pass with neither the shift nor
    the source of the one before it starts the next part.
    """
    passes, shift_add = [], series._shift_add

    def recorded(dst, src, s, w, bits):
        if not passes or (s != passes[-1][0] and src is not passes[-1][2]):
            passes.append([s, bits, src])
        passes[-1][2] = src
        return shift_add(dst, src, s, w, bits)

    monkeypatch.setattr(series, "_shift_add", recorded)
    return passes


def _final_width(monkeypatch, expand, e, order):
    widths, unpack = [], series._unpack
    monkeypatch.setattr(series, "_unpack", lambda x, order, bits: widths.append(bits) or unpack(x, order, bits))
    expand(e, order)
    monkeypatch.undo()
    return widths[-1]


class TestSlotWidths:
    # The packed kernel is exact while every coefficient fits its slot. The
    # factors run from n = N down, so once part n is in, the series is the
    # product over the parts >= n. Each width must hold that product's largest
    # coefficient, computed here at one full width with no widening. The
    # factors n > N // 3 take no pass: their product is written directly, into
    # 8-bit slots when no two of them meet in degree <= N, else into slots that
    # hold max(e) * sum(e) over them.
    @pytest.mark.parametrize("expand", [series.product_power, series.binomial_power], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_every_width_holds_its_partial_product(self, monkeypatch, family, expand):
        for N in [*range(61), 170, 500, 2000]:
            e = valuation.exponents(family, N)
            passes = _record_widths(monkeypatch)
            expand(e, N)
            monkeypatch.undo()
            top = N // 3  # parts above it are written
            assert [n for n, _, _ in passes] == sorted((n for n in range(1, top + 1) if e[n]), reverse=True)
            full = 8 * (max(gf_series(family, N)).bit_length() // 8 + 1)
            c = 1 << N * full
            for n in range(N, top, -1):
                for _ in range(e[n]):
                    c = series._shift_add(c, c, n, 1, full)
            written = [n for n in range(top + 1, N + 1) for _ in range(e[n])]
            paired = len(written) > 1 and written[0] + written[1] <= N
            width = 8 * -(-(max(e[top + 1:]) * len(written)).bit_length() // 8) if paired else 8
            assert max(series._unpack(c, N, full)).bit_length() <= width, N  # the written product
            for i, (n, bits, _) in enumerate(passes):
                for _ in range(e[n]):
                    c = series._shift_add(c, c, n, 1, full)
                if i + 1 == len(passes) or passes[i + 1][1] != bits:  # the last pass at this width
                    assert max(series._unpack(c, N, full)).bit_length() <= bits, (N, n, bits)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_final_width_holds_every_gf_value(self, monkeypatch, family):
        for N in [*range(61), 500, 2000, 4000, 10_000]:
            need = max(gf_series(family, N)).bit_length()
            assert _final_width(monkeypatch, series.product_power, valuation.exponents(family, N), N) >= need, N

    # The budget of doublings keeps the slots near what the values need: overpartition-odd's
    # first pass at N = 500 needs 24 bits, and a bound that took every monomial of degree <= N
    # at the largest coefficient ran it in 48.
    @pytest.mark.parametrize("expand", [series.product_power, series.binomial_power], ids=lambda f: f.__name__)
    def test_first_pass_at_500_runs_in_at_most_32_bits(self, monkeypatch, expand):
        passes = _record_widths(monkeypatch)
        expand(valuation.exponents(FamilyId.OVERPARTITION_ODD, 500), 500)
        assert passes[0][1] <= 32

    # A certificate must test the top byte of the slots c has now, not of those it had before
    # a widening. c_0 = 1 sits alone in the top slot, so c's bit length gives the width.
    @pytest.mark.parametrize("expand", [series.product_power, series.binomial_power], ids=lambda f: f.__name__)
    def test_every_certificate_masks_the_current_slots(self, monkeypatch, expand):
        order, masks, certified = 500, [], series._certified

        def checked(c, mask):
            masks.append(mask == series._top_byte_mask(order, (c.bit_length() - 1) // order))
            return certified(c, mask)

        monkeypatch.setattr(series, "_certified", checked)
        for family in ALL_FAMILIES:
            expand(valuation.exponents(family, order), order)
        assert masks and all(masks)

    @pytest.mark.parametrize("m", range(1, 51))
    def test_binary_identity_stays_at_8_bits(self, monkeypatch, m):
        # The product side of the binary identity is 1/(1-q^m): every value is 0 or 1.
        e = [0] * 501
        n = m
        while n <= 500:
            e[n] = 1
            n *= 2
        monkeypatch.setattr(series, "_widen", _crossed)
        assert all(series.product_power(e[:N + 1], N) == [int(k % m == 0) for k in range(N + 1)]
                   for N in range(501))


class TestReturnContract:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("N", [0, 1, 60])
    def test_every_route_returns_a_fresh_list_of_ints(self, family, N):
        # Fault fixtures mutate a returned table, so no two calls may share one. The product
        # route returns product_power's TruncatedSeries, a list, as is.
        for route in Route:
            first = table(family, N, route)
            assert isinstance(first, list) and len(first) == N + 1
            assert all(type(c) is int for c in first)
            first[0] += 1
            second = table(family, N, route)
            assert second is not first and second[0] == first[0] - 1

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("N", [0, 1, 60])
    def test_route_functions_return_their_table(self, family, N):
        for route, route_table in [(Route.GF, gf_series), (Route.PRODUCT, product_series),
                                   (Route.BINOMIAL, binomial_table)]:
            got = route_table(family, N)
            assert isinstance(got, list)
            assert got == table(family, N, route)


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
