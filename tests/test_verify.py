import tracemalloc

import pytest

from v2partitions import (BRUTE_LIMIT, FamilyId, Route, remark_trace, table, verify_binary_identity,
                          verify_family)
from v2partitions import families, series, valuation, verify
from v2partitions.families import binomial_table

import oracles

ALL_FAMILIES = list(FamilyId)


def _cap_widths(monkeypatch, narrow):
    """Cap every slot width at `narrow` bits, through the one function that widens slots."""
    widen = series._widen
    monkeypatch.setattr(series, "_widen", lambda raw, bits, wide: widen(raw, bits, min(wide, narrow)))


def _bump_exponent(monkeypatch, n):
    """Add 1 to v(n) in both readings of the rule: the tables `exponents` builds and `exponent` at n."""
    exponent, exponents = valuation.exponent, valuation.exponents

    def bumped(family, order):
        e = exponents(family, order)
        e[n] += 1
        return e
    monkeypatch.setattr(valuation, "exponents", bumped)
    monkeypatch.setattr(valuation, "exponent", lambda family, m: exponent(family, m) + (m == n))


class TestVerifyFamily:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_passes_at_100(self, family):
        report = verify_family(family, 100)
        assert report["status"] == "PASS" and report["subject"] == family.value
        assert "first_mismatch" not in report
        assert report["routes"] == ["gf", "product", "binomial"]

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_passes_with_brute_at_40(self, family):
        report = verify_family(family, 40, include_brute=True)
        assert report["status"] == "PASS"
        assert "brute" in report["routes"]

    def test_order_zero(self):
        report = verify_family(FamilyId.PD, 0)
        assert report["status"] == "PASS" and report["order"] == 0

    def test_brute_beyond_policy_rejected(self):
        with pytest.raises(ValueError):
            verify_family(FamilyId.PD, 61, include_brute=True)

    def test_broken_exponent_rule_fails_at_first_changed_index(self, monkeypatch):
        _bump_exponent(monkeypatch, 7)
        report = verify_family(FamilyId.PD, 20)
        assert report["status"] == "FAIL"
        assert report["first_mismatch"]["n"] == 7

    def test_broken_top_half_exponent_fails_at_its_index(self, monkeypatch):
        # n = 300 > 500 // 2: that factor is written into the top half, not passed.
        # product and binomial share that write, so they agree; gf does not.
        _bump_exponent(monkeypatch, 300)
        report = verify_family(FamilyId.PD, 500)
        assert report["status"] == "FAIL"
        values = report["first_mismatch"]["values"]
        assert report["first_mismatch"]["n"] == 300
        assert values["product"] == values["binomial"] != values["gf"]

    def test_broken_paired_exponent_fails_at_its_index(self, monkeypatch):
        # n = 200 is in (500 // 3, 500 // 2]: its factor is written, and it pairs with
        # others in degree <= 500. The shared write keeps product == binomial; gf differs.
        _bump_exponent(monkeypatch, 200)
        report = verify_family(FamilyId.PD, 500)
        assert report["status"] == "FAIL"
        values = report["first_mismatch"]["values"]
        assert report["first_mismatch"]["n"] == 200
        assert values["product"] == values["binomial"] != values["gf"]

    @pytest.mark.parametrize("family,n,value", [
        (FamilyId.OVERPARTITION_ODD, 1, 2), (FamilyId.PED, 1, 1), (FamilyId.PD, 1, 1),
        (FamilyId.POD, 1, 1), (FamilyId.PE, 2, 1),
    ])
    def test_off_by_one_kernel_shift_fails_against_brute(self, monkeypatch, family, n, value):
        # product and binomial run on the one packed shift-add kernel, which now
        # puts each part one place too high, so at the smallest part both read 0.
        # gf, one division of sparse series, touches no kernel and agrees with brute.
        original = series._shift_add
        broken = lambda dst, src, s, w, bits: original(dst, src, s + 1, w, bits)
        monkeypatch.setattr(series, "_shift_add", broken)
        report = verify_family(family, 40, include_brute=True)
        assert report["status"] == "FAIL"
        assert report["first_mismatch"] == {
            "n": n, "values": {"gf": str(value), "product": "0", "binomial": "0", "brute": str(value)}}

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_slot_overflow_fails_against_gf_and_brute(self, monkeypatch, family):
        # Slots capped one byte narrower than the narrowest whole-byte width that
        # holds gf's largest value to n = 60. The first coefficient n that outgrows
        # its slot carries into the slot above it, that of q^(n-1), so product and
        # binomial first differ from gf and brute at n - 1.
        gf = table(family, BRUTE_LIMIT, Route.GF)
        narrow = 8 * ((max(gf).bit_length() - 1) // 8)
        n = next(n for n, c in enumerate(gf) if c.bit_length() > narrow)
        _cap_widths(monkeypatch, narrow)
        report = verify_family(family, BRUTE_LIMIT, include_brute=True)
        assert report["status"] == "FAIL"
        values = report["first_mismatch"]["values"]
        assert report["first_mismatch"]["n"] == n - 1
        assert values["gf"] == values["brute"] == str(gf[n - 1]) != values["product"] == values["binomial"]

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_slot_overflow_in_slot_by_slot_widths_fails_against_gf(self, monkeypatch, family):
        # 8- and 16-bit slots are read as machine words directly, 24-bit slots
        # after `_spread` moves them into 32-bit ones. gf first outgrows 24 bits
        # at n = 95 to 162, depending on the family.
        order, narrow = 170, 24
        gf = table(family, order, Route.GF)
        n = next(n for n, c in enumerate(gf) if c.bit_length() > narrow)
        _cap_widths(monkeypatch, narrow)
        report = verify_family(family, order)
        assert report["status"] == "FAIL"
        values = report["first_mismatch"]["values"]
        assert report["first_mismatch"]["n"] == n - 1
        assert values["gf"] == str(gf[n - 1]) != values["product"] == values["binomial"]

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_short_last_widening_fails_against_gf(self, monkeypatch, family):
        # Each table's widenings but the last are honest. From the last on, the
        # slots keep the width they had; a later segment would only try again.
        # At N = 2000 that width is short of gf's largest value for every family.
        # The count restarts at each table call, not at a widening from 8 bits:
        # the write of the factors n > N // 3 widens from 8 bits too.
        order, widen = 2000, series._widen
        before = []  # the width each honest widening starts from
        monkeypatch.setattr(series, "_widen", lambda raw, bits, wide: before.append(bits) or widen(raw, bits, wide))
        table(family, order, Route.PRODUCT)
        calls = []

        def short(raw, bits, wide):
            calls.append(wide)
            return widen(raw, bits, wide if len(calls) < len(before) else bits)

        monkeypatch.setattr(series, "_widen", short)
        monkeypatch.setattr(verify, "table", lambda *args: calls.clear() or table(*args))
        gf = table(family, order, Route.GF)
        n = next(n for n, c in enumerate(gf) if c.bit_length() > before[-1])
        report = verify_family(family, order)
        assert report["status"] == "FAIL"
        values = report["first_mismatch"]["values"]
        assert report["first_mismatch"]["n"] == n - 1
        assert values["gf"] == str(gf[n - 1]) != values["product"] == values["binomial"]

    def test_gf_sign_flip_fails_at_first_changed_index(self, monkeypatch):
        # psi(q) = f2^2/f1 = (q^2;q^2)/(q;q^2) in place of f4/f1 = (-q^2;q^2)/(q;q^2):
        # the q^2 coefficient of ped's gf flips.
        monkeypatch.setitem(families.FAMILIES, FamilyId.PED, (("psi", 1), None))
        report = verify_family(FamilyId.PED, 40)
        assert report["status"] == "FAIL"
        assert report["first_mismatch"] == {"n": 2, "values": {"gf": "0", "product": "2", "binomial": "2"}}

    def test_undilated_even_parts_fails_at_one(self, monkeypatch):
        # 1/f1, p(n) at every n, in place of 1/f2: the even-parts table left unspread
        monkeypatch.setitem(families.FAMILIES, FamilyId.PE, (None, ("f", 1)))
        report = verify_family(FamilyId.PE, 20)
        assert report["status"] == "FAIL"
        assert report["first_mismatch"] == {"n": 1, "values": {"gf": "1", "product": "0", "binomial": "0"}}

    def test_gf_table_one_term_short_fails_at_missing_index(self, monkeypatch):
        original = families.gf_series
        monkeypatch.setattr(families, "gf_series",
                            lambda family, order: original(family, order - 1))
        report = verify_family(FamilyId.PD, 20)
        assert report["status"] == "FAIL"
        assert report["first_mismatch"] == {
            "n": 20, "values": {"gf": None, "product": "64", "binomial": "64"}}

    @pytest.mark.parametrize("name,route", [("binomial_table", "binomial"), ("_brute_table", "brute")])
    def test_one_later_route_wrong_fails_at_its_index(self, monkeypatch, name, route):
        # gf and product still agree, so only a comparison of every table catches it
        original = getattr(families, name)

        def skewed(family, order):
            values = original(family, order)
            values[9] += 1
            return values

        monkeypatch.setattr(families, name, skewed)
        report = verify_family(FamilyId.PD, 40, include_brute=True)
        expected = {"gf": "8", "product": "8", "binomial": "8", "brute": "8"}
        expected[route] = "9"
        assert report["first_mismatch"] == {"n": 9, "values": expected}

    def test_reports_deterministic_modulo_elapsed(self):
        a = verify_family(FamilyId.POD, 60)
        b = verify_family(FamilyId.POD, 60)
        assert list(a) == list(b) == ["subject", "order", "routes", "status", "elapsed_ms"]
        del a["elapsed_ms"], b["elapsed_ms"]
        assert a == b


class TestBinaryIdentity:
    def test_base_case(self):
        assert verify_binary_identity(1, 64)["status"] == "PASS"

    def test_odd_multiplier(self):
        assert verify_binary_identity(3, 100)["status"] == "PASS"

    def test_order_zero(self):
        report = verify_binary_identity(2, 0)
        assert report["status"] == "PASS"

    def test_sweep(self):
        assert all(verify_binary_identity(m, 200)["status"] == "PASS" for m in range(1, 51))

    # A negative order is named as such, not refused by the allocation of the exponents.
    @pytest.mark.parametrize("m,order", [(0, 10), (1, -1), (1, -2), (1, -10**6)])
    def test_bad_input_rejected(self, m, order):
        message = "^m must be positive$" if m < 1 else "^order must be non-negative$"
        with pytest.raises(ValueError, match=message):
            verify_binary_identity(m, order)

    def test_order_beyond_max_order_rejected(self):
        with pytest.raises(ValueError, match="order is limited"):
            verify_binary_identity(1, families.MAX_ORDER + 1)

    def test_dropped_product_factor_fails_at_its_exponent(self, monkeypatch):
        monkeypatch.setattr(verify, "product_power", lambda e, order: series.product_power(
            [*e[:4], 0, *e[5:]], order))
        report = verify_binary_identity(1, 16)
        assert report["status"] == "FAIL"
        assert report["first_mismatch"]["n"] == 4

    def test_dropped_top_half_factor_fails_at_its_exponent(self, monkeypatch):
        # 256 > 500 // 2: (1+q^256) is written into the top half, not passed.
        monkeypatch.setattr(verify, "product_power", lambda e, order: series.product_power(
            [*e[:256], 0, *e[257:]], order))
        report = verify_binary_identity(1, 500)
        assert report["status"] == "FAIL"
        assert report["first_mismatch"]["n"] == 256

    @pytest.mark.parametrize("m,order", [(2, 0), (2, 1), (51, 50), (10**6, 3), (10**18, 3)])
    def test_multiplier_past_order(self, request, m, order):
        # No factor (1+q^(2^k m)) reaches the order: both sides are 1, written to the order.
        tracemalloc.start()
        request.addfinalizer(tracemalloc.stop)
        report = verify_binary_identity(m, order)
        assert tracemalloc.get_traced_memory()[1] < 64 * 1024
        assert report["status"] == "PASS" and report["order"] == order

    def test_subject_names_the_multiplier(self):
        assert verify_binary_identity(7, 10)["subject"] == "binary-identity m=7"


class TestRemarkTrace:
    @pytest.mark.parametrize("family,n,n_lines,total", [
        (FamilyId.OVERPARTITION_ODD, 5, 4, 8),
        (FamilyId.PED, 5, 4, 6),
        (FamilyId.PD, 5, 3, 3),
        (FamilyId.POD, 5, 3, 4),
        (FamilyId.PE, 8, 3, 5),
    ])
    def test_worked_tableaux(self, family, n, n_lines, total):
        trace = remark_trace(family, n)
        assert len(trace) == n_lines + 1
        assert trace[-1] == f"total = {total}"

    def test_rendered_terms(self):
        trace = remark_trace(FamilyId.OVERPARTITION_ODD, 5)
        assert "3+1+1  C(2,1)*C(2,2) = 2" in trace
        assert "5  C(2,1) = 2" in trace

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_lines_match_independent_tableau(self, family):
        # Every line's text and its place, against a filter over all partitions of n.
        for n in range(1, 31):
            expected = oracles.capped_tableau(n, valuation.exponents(family, n))
            assert remark_trace(family, n)[:-1] == expected, n

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", range(1, 26))
    def test_total_matches_binomial_sum(self, family, n):
        assert remark_trace(family, n)[-1] == f"total = {binomial_table(family, n)[n]}"

    def test_policy_bound(self):
        with pytest.raises(ValueError):
            remark_trace(FamilyId.PD, 61)

    def test_total_disagreeing_with_binomial_dp_raises(self, monkeypatch):
        original = verify.binomial_table

        def skewed(family, order):
            values = original(family, order)
            values[order] += 1
            return values

        monkeypatch.setattr(verify, "binomial_table", skewed)
        with pytest.raises(AssertionError, match="disagrees with binomial DP .* for pd at n=7"):
            remark_trace(FamilyId.PD, 7)
