import pytest

from v2partitions import FamilyId, binomial_sum, remark_trace, verify_binary_identity, verify_family
from v2partitions import cli, families, series, verify

ALL_FAMILIES = list(FamilyId)


class TestVerifyFamily:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_passes_at_100(self, family):
        report = verify_family(family, 100)
        assert report.passed and report.subject == family.value
        assert report.first_mismatch is None
        assert report.routes_compared == ("gf", "product", "binomial")

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_passes_with_brute_at_40(self, family):
        report = verify_family(family, 40, include_brute=True)
        assert report.passed
        assert "brute" in report.routes_compared

    def test_order_zero(self):
        report = verify_family(FamilyId.PD, 0)
        assert report.passed and report.order == 0

    def test_brute_beyond_policy_rejected(self):
        with pytest.raises(ValueError):
            verify_family(FamilyId.PD, 61, include_brute=True)

    def test_broken_exponent_rule_fails_at_first_changed_index(self, monkeypatch):
        original = families.exponent
        monkeypatch.setattr(families, "exponent",
                            lambda family, n: original(family, n) + (n == 7))
        report = verify_family(FamilyId.PD, 20)
        assert report.status == "FAIL"
        assert report.first_mismatch[0] == 7

    @pytest.mark.parametrize("family,n,gf,product,binomial", [
        (FamilyId.OVERPARTITION_ODD, 0, 0, 1, 1), (FamilyId.PED, 0, 0, 1, 1),
        (FamilyId.PD, 0, 0, 1, 1), (FamilyId.POD, 0, 0, 1, 1), (FamilyId.PE, 2, 1, 0, 0),
    ])
    def test_off_by_one_kernel_shift_fails_against_brute(self, monkeypatch, family, n,
                                                         gf, product, binomial):
        # product, binomial and gf's multiply-by-f_k run on the one shift-add
        # kernel. pe's gf (1/f2) touches no kernel, so there gf and brute agree
        # at n and the two broken routes differ from both.
        original = series._shift_add
        broken = lambda dst, src, s, w: original(dst, src, s + 1, w)
        monkeypatch.setattr(series, "_shift_add", broken)
        monkeypatch.setattr(families, "_shift_add", broken)
        report = verify_family(family, 40, include_brute=True)
        assert report.status == "FAIL"
        assert report.first_mismatch == (
            n, {"gf": gf, "product": product, "binomial": binomial, "brute": 1})

    def test_gf_sign_flip_fails_at_first_changed_index(self, monkeypatch):
        # f2^2/f1 = (q^2;q^2)/(q;q^2) in place of f4/f1 = (-q^2;q^2)/(q;q^2):
        # the q^2 coefficient of ped's gf flips.
        monkeypatch.setitem(families.FAMILIES, FamilyId.PED, {2: 2, 1: -1})
        report = verify_family(FamilyId.PED, 40)
        assert report.status == "FAIL"
        assert report.first_mismatch == (2, {"gf": 0, "product": 2, "binomial": 2})

    def test_gf_table_one_term_short_fails_at_missing_index(self, monkeypatch):
        original = families.gf_series
        monkeypatch.setattr(families, "gf_series",
                            lambda family, order: original(family, order - 1))
        report = verify_family(FamilyId.PD, 20)
        assert report.status == "FAIL"
        assert report.first_mismatch == (20, {"gf": None, "product": 64, "binomial": 64})
        assert cli._report_dict(report, stable=True)["first_mismatch"]["values"] == \
            {"gf": None, "product": "64", "binomial": "64"}

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
        expected = {"gf": 8, "product": 8, "binomial": 8, "brute": 8}
        expected[route] = 9
        assert report.first_mismatch == (9, expected)

    def test_reports_deterministic_modulo_elapsed(self):
        a = verify_family(FamilyId.POD, 60)
        b = verify_family(FamilyId.POD, 60)
        assert (a.subject, a.order, a.routes_compared, a.status, a.first_mismatch) == \
               (b.subject, b.order, b.routes_compared, b.status, b.first_mismatch)


class TestBinaryIdentity:
    def test_base_case(self):
        assert verify_binary_identity(1, 64).passed

    def test_odd_multiplier(self):
        assert verify_binary_identity(3, 100).passed

    def test_order_zero(self):
        report = verify_binary_identity(2, 0)
        assert report.passed

    def test_sweep(self):
        assert all(verify_binary_identity(m, 200).passed for m in range(1, 51))

    def test_bad_input_rejected(self):
        with pytest.raises(ValueError):
            verify_binary_identity(0, 10)

    def test_order_beyond_max_order_rejected(self):
        with pytest.raises(ValueError, match="order is limited"):
            verify_binary_identity(1, families.MAX_ORDER + 1)

    def test_dropped_product_factor_fails_at_its_exponent(self, monkeypatch):
        monkeypatch.setattr(verify, "product_power", lambda e, order: series.product_power(
            e[:4] + [0] + e[5:], order))
        report = verify_binary_identity(1, 16)
        assert report.status == "FAIL"
        assert report.first_mismatch[0] == 4

    def test_subject_names_the_multiplier(self):
        assert verify_binary_identity(7, 10).subject == "binary-identity m=7"


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
        assert len(trace.lines) == n_lines
        assert trace.total == total

    def test_rendered_terms(self):
        trace = remark_trace(FamilyId.OVERPARTITION_ODD, 5)
        rendered = {("+".join(map(str, p.parts())), term) for p, term in trace.lines}
        assert ("3+1+1", "C(2,1)*C(2,2)") in rendered
        assert ("5", "C(2,1)") in rendered

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", range(1, 26))
    def test_total_matches_binomial_sum(self, family, n):
        assert remark_trace(family, n).total == binomial_sum(family, n)

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
