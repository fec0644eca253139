import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from v2partitions import cli, families, series, verify
from v2partitions.cli import FAMILY_TOKENS, ROUTE_TOKENS, build_parser, main, parse_bfile
from v2partitions.families import BRUTE_LIMIT, MAX_ORDER, Route
from v2partitions.valuation import FamilyId

import oracles

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def short_gf(monkeypatch):
    """gf's table ends one term before the requested order."""
    original = families.gf_series
    monkeypatch.setattr(families, "gf_series", lambda family, order: original(family, order - 1))


@pytest.fixture
def skewed_binomial(monkeypatch):
    """The binomial route's value at n = 9 is one too large."""
    original = families.binomial_table

    def skewed(family, order):
        values = original(family, order)
        values[9] += 1
        return values

    monkeypatch.setattr(families, "binomial_table", skewed)


@pytest.fixture
def dropped_product_factor(monkeypatch):
    """The binary identity's product side loses its factor (1+q^4)."""
    monkeypatch.setattr(verify, "product_power", lambda e, order: series.product_power(
        [*e[:4], 0, *e[5:]], order))


class TestTable:
    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "pe", "--limit", "8",
                           "--route", "product", "--format", "csv")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "family,n,value,route"
        assert lines[-1] == "pe,8,5,product"

    def test_limit_zero(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "pd", "--limit", "0")
        assert code == 0
        assert out.splitlines()[1] == "pd,0,1,gf"

    def test_json_lines(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "pod", "--limit", "5",
                           "--route", "binomial", "--format", "json")
        records = [json.loads(line) for line in out.splitlines()]
        assert code == 0
        assert records[-1] == {"family": "pod", "n": 5, "value": "4", "route": "binomial"}
        assert all(set(r) == {"family", "n", "value", "route"} for r in records)

    def test_csv_and_json_carry_identical_tuples(self, capsys):
        _, csv_out, _ = run(capsys, "table", "--family", "ped", "--limit", "20",
                            "--route", "gf", "--format", "csv")
        _, json_out, _ = run(capsys, "table", "--family", "ped", "--limit", "20",
                             "--route", "gf", "--format", "json")
        csv_tuples = [tuple(line.split(",")) for line in csv_out.splitlines()[1:]]
        json_tuples = [(r["family"], str(r["n"]), r["value"], r["route"])
                       for r in map(json.loads, json_out.splitlines())]
        assert csv_tuples == json_tuples

    @pytest.mark.parametrize("limit", [0, 1, 40])
    @pytest.mark.parametrize("route", ["gf", "product", "binomial"])
    @pytest.mark.parametrize("family", FAMILY_TOKENS)
    def test_output_bytes_match_row_by_row_reconstruction(self, capsys, family, route, limit):
        values = families.table(FamilyId(family), limit, Route(route))
        _, csv_out, _ = run(capsys, "table", "--family", family, "--limit", str(limit),
                            "--route", route, "--format", "csv")
        _, json_out, _ = run(capsys, "table", "--family", family, "--limit", str(limit),
                             "--route", route, "--format", "json")
        assert csv_out == "family,n,value,route\n" + "".join(
            f"{family},{n},{v},{route}\n" for n, v in enumerate(values))
        assert json_out == "".join(
            json.dumps({"family": family, "n": n, "value": str(v), "route": route}) + "\n"
            for n, v in enumerate(values))

    def test_unknown_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--family", "bogus", "--limit", "5"])
        assert exc.value.code == 2

    def test_brute_beyond_policy_is_usage_error(self, capsys):
        code, _, err = run(capsys, "table", "--family", "pe", "--limit", "61",
                           "--route", "brute")
        assert code == 2
        assert "error" in err


class TestParserReuse:
    """main() builds its parser once per process, and no call leaves state for the next."""

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        build_parser.cache_clear()  # the first main() call below builds it

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_brute_flag_does_not_carry_over(self, capsys):
        routes = []
        for brute in (["--brute"], []):
            code, out, _ = run(capsys, "verify", "--families", "pd", "--limit", "20",
                               "--stable", "--format", "json", *brute)
            assert code == 0
            routes.append(",".join(json.loads(out.splitlines()[0])["routes"]))
        assert routes == ["gf,product,binomial,brute", "gf,product,binomial"]

    def test_usage_error_leaves_next_call_unchanged(self, capsys):
        argv = ["table", "--family", "pe", "--limit", "12", "--route", "brute"]
        first = run(capsys, *argv)
        with pytest.raises(SystemExit) as exc:
            main(["table", "--family", "bogus", "--limit", "3"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert first[0] == 0
        assert run(capsys, *argv) == first


class TestVerify:
    def test_all_families_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--families", "all", "--limit", "100")
        assert code == 0
        assert out.count("PASS") == 6  # five families + binary-identity sweep
        assert "FAIL" not in out

    def test_single_family_with_brute(self, capsys):
        code, out, _ = run(capsys, "verify", "--families", "pe", "--limit", "40", "--brute")
        assert code == 0
        assert "brute" in out

    def test_unknown_family_is_usage_error(self, capsys):
        # argparse does not check --families: the first unknown token is named
        for tokens, bad in [("bogus", "bogus"), ("", ""), ("pd,", ""), ("PD", "PD"),
                            (" pd", " pd"), ("pd,bogus", "bogus")]:
            code, out, err = run(capsys, "verify", "--families", tokens, "--limit", "10")
            assert (code, out, err) == (2, "", f"error: unknown family {bad!r}\n")

    def test_brute_with_large_limit_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--families", "pd", "--limit", "100", "--brute")
        assert code == 2

    def test_stable_output_is_deterministic(self, capsys):
        args = ["verify", "--families", "all", "--limit", "60", "--stable"]
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_negative_limit_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--limit", "-1")
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_repeated_family_verified_once_in_first_named_order(self, capsys):
        code, out, _ = run(capsys, "verify", "--families", "pe,pd,pe", "--limit", "5")
        subjects = [line.split()[1] for line in out.splitlines()]
        assert code == 0
        assert subjects == ["pe", "pd", "binary-identity"]

    def test_stable_json_output_is_deterministic(self, capsys):
        args = ["verify", "--families", "pod,pe", "--limit", "50",
                "--format", "json", "--stable"]
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("faults,argv,code,text,json_lines", [
        ((), ["--families", "pd,pe", "--limit", "60"], 0,
         "PASS  pd  order=60  routes=gf,product,binomial  elapsed=-\n"
         "PASS  pe  order=60  routes=gf,product,binomial  elapsed=-\n"
         "PASS  binary-identity m<=50  order=60\n",
         '{"subject": "pd", "order": 60, "routes": ["gf", "product", "binomial"], '
         '"status": "PASS", "elapsed_ms": 0.0}\n'
         '{"subject": "pe", "order": 60, "routes": ["gf", "product", "binomial"], '
         '"status": "PASS", "elapsed_ms": 0.0}\n'
         '{"subject": "binary-identity m<=50", "order": 60, "status": "PASS"}\n'),
        (("short_gf",), ["--families", "pd", "--limit", "20"], 1,
         "FAIL  pd  order=20  routes=gf,product,binomial  elapsed=-  "
         "first mismatch at n=20: gf=None, product=64, binomial=64\n"
         "PASS  binary-identity m<=50  order=20\n",
         '{"subject": "pd", "order": 20, "routes": ["gf", "product", "binomial"], '
         '"status": "FAIL", "elapsed_ms": 0.0, "first_mismatch": {"n": 20, '
         '"values": {"gf": null, "product": "64", "binomial": "64"}}}\n'
         '{"subject": "binary-identity m<=50", "order": 20, "status": "PASS"}\n'),
        (("skewed_binomial",), ["--families", "pd", "--limit", "40", "--brute"], 1,
         "FAIL  pd  order=40  routes=gf,product,binomial,brute  elapsed=-  "
         "first mismatch at n=9: gf=8, product=8, binomial=9, brute=8\n"
         "PASS  binary-identity m<=50  order=40\n",
         '{"subject": "pd", "order": 40, "routes": ["gf", "product", "binomial", "brute"], '
         '"status": "FAIL", "elapsed_ms": 0.0, "first_mismatch": {"n": 9, '
         '"values": {"gf": "8", "product": "8", "binomial": "9", "brute": "8"}}}\n'
         '{"subject": "binary-identity m<=50", "order": 40, "status": "PASS"}\n'),
        # A failing m prints its own FAIL line, and the sweep's PASS line is left out.
        (("dropped_product_factor",), ["--families", "pe", "--limit", "16"], 1,
         "PASS  pe  order=16  routes=gf,product,binomial  elapsed=-\n" + "".join(
             f"FAIL  binary-identity m={m}  order=16  routes=binary-product,geometric-reciprocal  "
             "elapsed=-  first mismatch at n=4: binary-product=0, geometric-reciprocal=1\n"
             for m in (1, 2, 4)),
         '{"subject": "pe", "order": 16, "routes": ["gf", "product", "binomial"], '
         '"status": "PASS", "elapsed_ms": 0.0}\n' + "".join(
             f'{{"subject": "binary-identity m={m}", "order": 16, '
             '"routes": ["binary-product", "geometric-reciprocal"], "status": "FAIL", '
             '"elapsed_ms": 0.0, "first_mismatch": {"n": 4, '
             '"values": {"binary-product": "0", "geometric-reciprocal": "1"}}}\n'
             for m in (1, 2, 4))),
        # A failing family and failing m in one run: both FAIL, still no sweep PASS line.
        (("skewed_binomial", "dropped_product_factor"), ["--families", "pd", "--limit", "16"], 1,
         "FAIL  pd  order=16  routes=gf,product,binomial  elapsed=-  "
         "first mismatch at n=9: gf=8, product=8, binomial=9\n" + "".join(
             f"FAIL  binary-identity m={m}  order=16  routes=binary-product,geometric-reciprocal  "
             "elapsed=-  first mismatch at n=4: binary-product=0, geometric-reciprocal=1\n"
             for m in (1, 2, 4)),
         '{"subject": "pd", "order": 16, "routes": ["gf", "product", "binomial"], '
         '"status": "FAIL", "elapsed_ms": 0.0, "first_mismatch": {"n": 9, '
         '"values": {"gf": "8", "product": "8", "binomial": "9"}}}\n' + "".join(
             f'{{"subject": "binary-identity m={m}", "order": 16, '
             '"routes": ["binary-product", "geometric-reciprocal"], "status": "FAIL", '
             '"elapsed_ms": 0.0, "first_mismatch": {"n": 4, '
             '"values": {"binary-product": "0", "geometric-reciprocal": "1"}}}\n'
             for m in (1, 2, 4))),
    ])
    def test_stable_output_golden(self, capsys, request, faults, argv, code, text, json_lines):
        for fault in faults:
            request.getfixturevalue(fault)
        for fmt, expected in (("text", text), ("json", json_lines)):
            assert run(capsys, "verify", *argv, "--stable", "--format", fmt) == (code, expected, "")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("brute", [[], ["--brute"]])
    def test_all_is_every_family_in_token_order(self, capsys, fmt, brute):
        args = ["--limit", "40", "--stable", "--format", fmt, *brute]
        named = run(capsys, "verify", "--families", "overpartition-odd,ped,pd,pod,pe", *args)
        assert named == run(capsys, "verify", "--families", "all", *args)
        assert named[1].count("\n") == 6 and named[0] == 0

    def test_family_fail_keeps_the_sweep_status_line(self, capsys, skewed_binomial):
        code, out, _ = run(capsys, "verify", "--families", "pd", "--limit", "20")
        lines = out.splitlines()
        assert code == 1
        assert lines[0].startswith("FAIL  pd  order=20  ")
        assert lines[1:] == ["PASS  binary-identity m<=50  order=20"]

    def test_tally_disagreement_is_one_fail_line(self, capsys, monkeypatch):
        # pd's brute table raises when its two tallies differ; ped has printed by then.
        original = families._count_partitions

        def skewed(caps, size_factor=1):
            counts = original(caps, size_factor)
            if caps[2] == 0:  # the odd-parts tally: even parts are capped at 0
                counts[5] += 1
            return counts

        monkeypatch.setattr(families, "_count_partitions", skewed)
        assert run(capsys, "verify", "--families", "ped,pd,pe", "--limit", "10", "--brute",
                   "--stable") == (
            1, "PASS  ped  order=10  routes=gf,product,binomial,brute  elapsed=-\n",
            "FAIL: distinct-parts and odd-parts tallies differ at n=5: 3 vs 4\n")


class TestRemark:
    def test_overpartition_tableau(self, capsys):
        code, out, _ = run(capsys, "remark", "--family", "overpartition-odd", "--n", "5")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 5
        assert lines[-1] == "total = 8"

    def test_ped_tableau(self, capsys):
        code, out, _ = run(capsys, "remark", "--family", "ped", "--n", "5")
        assert code == 0
        assert len(out.splitlines()) == 5
        assert out.splitlines()[-1] == "total = 6"

    def test_pe_tableau(self, capsys):
        code, out, _ = run(capsys, "remark", "--family", "pe", "--n", "8")
        lines = out.splitlines()
        assert code == 0
        assert lines == ["8  C(3,1) = 3", "6+2  C(1,1)*C(1,1) = 1",
                         "4+4  C(2,2) = 1", "total = 5"]

    def test_out_of_policy_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "remark", "--family", "pd", "--n", "61")
        assert code == 2

    def test_total_disagreeing_with_binomial_dp_is_one_fail_line(self, capsys, monkeypatch):
        original = verify.binomial_table

        def skewed(family, order):
            values = original(family, order)
            values[order] += 1
            return values

        monkeypatch.setattr(verify, "binomial_table", skewed)
        assert run(capsys, "remark", "--family", "pd", "--n", "7") == (
            1, "", "FAIL: tableau total 5 disagrees with binomial DP 6 for pd at n=7\n")

    # The whole tableau, byte for byte: the listing order, every term and weight.
    # Each pin is (line count, sha256 of stdout).
    TABLEAU_PINS = {
        40: {
            "overpartition-odd": (2893, "8364b61a7048ae5a0a5e6e68131ea3add44e8d0b6f788288cccf486711de4a3b"),
            "ped": (2410, "4b26f69a63aee603703695adabf4e958bcb598c3b8ace887e63b2170a7bec00b"),
            "pd": (1114, "b1dadb81f9763914e0fb8dc25a1c4691da4e694f7377d41ca0fa43cd69abe139"),
            "pod": (1550, "380cdf1ffbbbf7260554e2c1a264fc1e5d020274384cda61b9bc2f02fe6767be"),
            "pe": (115, "746f3d927c3fedb215dda0632009e05e5047a7a9a426134bab7f5ab981361912"),
        },
        BRUTE_LIMIT: {  # the deepest tableau remark prints
            "overpartition-odd": (34777, "87f102e1e4f4e79bf28343ccf6e353fa0d8bc25c942a4bde19afb3dd4e1e6d6e"),
            "ped": (28819, "f5a5879d5721f4c3bacec3c4f24773220631544811ced2e87370f7e6b17eaaef"),
            "pd": (10881, "ef455f3a5daaf6c446995dc345904206b92cd496039de2d17054757fa989a14a"),
            "pod": (17035, "b356150f7958a0c3349b605e3fed32670dd80e3c76c59a9c2aac9dddf2cdec57"),
            "pe": (610, "09d3647b66d5755e9ca1df8fc5191efe6d60123be4be41b6801caa8cfd41138f"),
        },
    }

    def check_pinned_tableau(self, capsys, family, n):
        lines, sha256 = self.TABLEAU_PINS[n][family]
        code, out, _ = run(capsys, "remark", "--family", family, "--n", str(n))
        assert code == 0
        assert len(out.splitlines()) == lines
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize("family", FAMILY_TOKENS)
    def test_tableau_golden_at_40(self, capsys, family):
        self.check_pinned_tableau(capsys, family, 40)

    @pytest.mark.parametrize("family", FAMILY_TOKENS)
    def test_tableau_golden_at_brute_limit(self, capsys, family):
        self.check_pinned_tableau(capsys, family, BRUTE_LIMIT)


class TestBFileParsing:
    def test_comments_and_blanks_skipped(self, tmp_path):
        f = tmp_path / "b.txt"
        f.write_text("# header\n\n0 1\n1 2\n\n# tail\n2 2\n")
        entries = parse_bfile(str(f))
        assert entries == [(0, 1), (1, 2), (2, 2)]

    def test_malformed_line_reports_line_number(self, tmp_path):
        f = tmp_path / "b.txt"
        f.write_text("0 1\n1 two\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_bfile(str(f))

    @pytest.mark.parametrize("bad_line", ["1_0 2", "0 +1",
                                          pytest.param("9" * 4301 + " 2", id="4301-digit-index"),
                                          pytest.param("1 " + "9" * 4301, id="4301-digit-value")])
    def test_python_literal_field_rejected(self, tmp_path, bad_line):
        # int() reads "1_0" as 10 and "+1" as 1, and raises past its 4300-digit limit;
        # a b-file field is '-'? and ASCII digits
        f = tmp_path / "b.txt"
        f.write_text(f"0 1\n{bad_line}\n")
        with pytest.raises(ValueError, match="line 2: non-integer field"):
            parse_bfile(str(f))

    def test_non_increasing_rejected(self, tmp_path):
        f = tmp_path / "b.txt"
        f.write_text("0 1\n0 1\n")
        with pytest.raises(ValueError, match="strictly increasing"):
            parse_bfile(str(f))

    def test_minus_zero_is_index_zero(self, tmp_path):
        f = tmp_path / "b.txt"
        f.write_text("-0 5\n1 -0\n")
        assert parse_bfile(str(f)) == [(0, 5), (1, 0)]

    @pytest.mark.parametrize("end", [b"\r", b"\r\n"], ids=["cr", "crlf"])
    @pytest.mark.parametrize("text,expected", [
        (b"# h\n0 1\n\n2 5\n", [(0, 1), (2, 5)]),
        (b"0 1\n# c\n\n1 x\n", "line 4: non-integer field in '1 x'"),
        (b"0 1\n\n-1 2", "line 3: negative index -1"),
    ], ids=["pairs", "malformed", "negative"])
    def test_cr_ends_a_line_as_newline_does(self, tmp_path, end, text, expected):
        f = tmp_path / "b.txt"
        for data in (text, text.replace(b"\n", end)):
            f.write_bytes(data)
            if isinstance(expected, list):
                assert parse_bfile(str(f)) == expected
            else:
                with pytest.raises(ValueError) as exc:
                    parse_bfile(str(f))
                assert str(exc.value) == f"{f}: {expected}"


class TestCompare:
    def test_matching_bfile(self, capsys, tmp_path):
        f = tmp_path / "b.txt"
        f.write_text("0 1\n1 2\n2 2\n3 4\n")
        code, out, _ = run(capsys, "compare", "--family", "overpartition-odd",
                           "--bfile", str(f), "--route", "brute")
        assert code == 0
        assert out.count("MATCH") == 4 and "MISMATCH" not in out

    def test_single_entry(self, capsys, tmp_path):
        f = tmp_path / "b.txt"
        f.write_text("8 5\n")
        code, out, _ = run(capsys, "compare", "--family", "pe", "--bfile", str(f))
        assert code == 0
        assert "8: MATCH 5" in out

    def test_wrong_value_exits_one(self, capsys, tmp_path):
        f = tmp_path / "b.txt"
        f.write_text("5 7\n")
        code, out, _ = run(capsys, "compare", "--family", "ped", "--bfile", str(f))
        assert code == 1
        assert "MISMATCH file=7 computed=6" in out

    def test_corrupted_file_exits_two(self, capsys, tmp_path):
        f = tmp_path / "b.txt"
        f.write_text("0 1\nnot a bfile line\n")
        code, _, err = run(capsys, "compare", "--family", "pd", "--bfile", str(f))
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("bad_line,byte,column",
                             [("1 é", "0xc3", 3), ("1\u00a02", "0xc2", 2), ("# é", "0xc3", 3)],
                             ids=["e-acute", "no-break-space", "comment"])
    def test_non_ascii_byte_exits_two_with_line_number(self, capsys, tmp_path,
                                                       bad_line, byte, column):
        # A no-break space (U+00A0) is not a field separator: it is a non-ASCII byte.
        f = tmp_path / "b.txt"
        f.write_bytes(f"0 1\n{bad_line}\n".encode("utf-8"))
        code, out, err = run(capsys, "compare", "--family", "pd", "--bfile", str(f))
        assert code == 2 and out == ""
        assert err == f"error: {f}: line 2: non-ASCII byte {byte} at column {column}\n"

    @pytest.mark.parametrize("bad_line", ["1{}1", "{}1 1", "1 1{}"], ids=["between", "start", "end"])
    @pytest.mark.parametrize("byte", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f"])
    def test_control_byte_is_no_field_separator(self, capsys, tmp_path, bad_line, byte):
        # str.split() and str.strip() treat these as whitespace; a b-file does not.
        f = tmp_path / "b.txt"
        f.write_bytes(f"0 1\n{bad_line.format(byte)}\n".encode("ascii"))
        code, out, err = run(capsys, "compare", "--family", "pd", "--bfile", str(f))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {f}: line 2: ")

    def test_comments_only_compares_nothing(self, capsys, tmp_path):
        f = tmp_path / "b.txt"
        f.write_text("# no terms\n\n# yet\n")
        code, out, err = run(capsys, "compare", "--family", "pd", "--bfile", str(f))
        assert (code, out, err) == (0, "summary: 0 compared, 0 mismatched, 0 skipped\n", "")

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "compare", "--family", "pd",
                           "--bfile", str(tmp_path / "absent.txt"))
        assert code == 2

    @pytest.mark.parametrize("kind", ["fifo", "dev-zero", "directory"])
    def test_not_a_regular_file_exits_two(self, tmp_path, kind):
        # A FIFO with no writer blocks inside open() and /dev/zero never ends a read,
        # so the path is refused before it is opened. The subprocess bounds a hang.
        path = {"fifo": tmp_path / "b.fifo", "dev-zero": Path("/dev/zero"), "directory": tmp_path}[kind]
        if kind == "fifo":
            os.mkfifo(path)
        elif not path.exists():
            pytest.skip(f"no {path} here")
        proc = subprocess.run(
            [sys.executable, "-m", "v2partitions", "compare", "--family", "pd", "--bfile", str(path)],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: cannot read {path}: not a regular file\n"

    def test_file_past_the_byte_cap_exits_two(self, capsys, monkeypatch, tmp_path):
        # The real cap sits far above a 10 000-line b-file of the widest family.
        values = families.gf_series(FamilyId.OVERPARTITION_ODD, MAX_ORDER)
        widest = sum(len(f"{n} {v}\n") for n, v in enumerate(values))
        assert 10 * widest < cli.BFILE_MAX_BYTES
        monkeypatch.setattr(cli, "BFILE_MAX_BYTES", 8)
        f = tmp_path / "b.txt"
        f.write_text("0 1\n1 0\n")  # 8 bytes: at the cap
        assert run(capsys, "compare", "--family", "pe", "--bfile", str(f))[0] == 0
        f.write_text("0 1\n1 0\n\n")
        code, out, err = run(capsys, "compare", "--family", "pe", "--bfile", str(f))
        assert (code, out, err) == (2, "", f"error: cannot read {f}: larger than 8 bytes\n")

    # A /proc file is regular but reports size 0, so the read goes on past what fstat
    # says: its first line is read and refused, and the byte cap still holds.
    def test_file_longer_than_its_reported_size_is_read_whole(self, monkeypatch):
        path = Path("/proc/self/status")
        if not path.exists():
            pytest.skip(f"no {path} here")
        assert path.stat().st_size == 0
        name = path.read_text().splitlines()[0]  # "Name:\t" and this process's command name
        with pytest.raises(ValueError) as raised:
            parse_bfile(str(path))
        assert str(raised.value) == f"{path}: line 1: non-integer field in {name!r}"
        monkeypatch.setattr(cli, "BFILE_MAX_BYTES", 8)
        with pytest.raises(ValueError, match=f"^cannot read {path}: larger than 8 bytes$"):
            parse_bfile(str(path))

    def test_indices_beyond_brute_policy_skipped(self, capsys, tmp_path):
        f = tmp_path / "b.txt"
        f.write_text("0 1\n100 0\n")
        code, out, _ = run(capsys, "compare", "--family", "pe",
                           "--bfile", str(f), "--route", "brute")
        assert code == 0
        assert "100: SKIPPED" in out
        assert "1 compared, 0 mismatched, 1 skipped" in out


@pytest.mark.parametrize("argv", [["table", "--family", "pe"], ["verify"]])
def test_limit_above_max_order_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--limit", str(MAX_ORDER + 1))
    assert code == 2
    assert out == "" and err.startswith("error: ")


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(["table", "verify"]), family=st.sampled_from(FAMILY_TOKENS),
       limit=st.integers(-3, 40), brute=st.booleans())
def test_limit_and_brute_exit_zero_or_two(command, family, limit, brute):
    if command == "table":
        argv = ["table", "--family", family, "--limit", str(limit)]
        argv += ["--route", "brute"] if brute else []
    else:
        argv = ["verify", "--families", family, "--limit", str(limit)]
        argv += ["--brute"] if brute else []
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code == (2 if limit < 0 else 0)


# n in 31..60 is valid but slow (a tableau at n = 60 takes seconds), so the
# valid side is sampled below it.
@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(FAMILY_TOKENS),
       n=st.integers(-3, 30) | st.integers(BRUTE_LIMIT + 1, 10**9))
def test_remark_n_exit_zero_or_two(family, n):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(["remark", "--family", family, "--n", str(n)])
    assert code == (0 if 1 <= n <= BRUTE_LIMIT else 2)


bfile_line = st.one_of(  # joined by "\n": a "\r" end makes "\r\n", and "\r\r" a lone "\r" too
    st.tuples(st.integers(-2, 70), st.integers(-2, 3000), st.sampled_from(["", "\r", "\r\r"]))
    .map(lambda t: f"{t[0]} {t[1]}{t[2]}"),
    st.sampled_from(["", "# comment", "1", "x 1", "1 2 3",
                     "1\v2", "\x1c1 2", "1 2\f", "1\x002", "# \x1f\x00"]))


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(FAMILY_TOKENS), route=st.sampled_from(ROUTE_TOKENS),
       lines=st.lists(bfile_line, max_size=6), missing=st.booleans())
def test_compare_exit_two_exactly_when_bfile_unusable(family, route, lines, missing):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "b.txt")
        if not missing:
            with open(path, "w", encoding="ascii") as fh:
                fh.write("\n".join(lines) + "\n")
        try:
            parse_bfile(path)
            unusable = False
        except (OSError, ValueError):
            unusable = True
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(["compare", "--family", family, "--bfile", path, "--route", route])
    assert code in ((2,) if unusable else (0, 1))


# Pieces where a whole-file parser and a line walk could part ways.
RISKY_BYTES = [b"\r", b"\r\n", b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e", b"\x1f", b"\x00",
               b"\xc3", b"#", b"+", b"_", b"-", b"9" * 4301]


@st.composite
def bfile_bytes(draw):
    """Pairs whose index may start negative, repeat or fall, comments and blanks,
    ended by any of the three line ends, with risky bytes spliced in anywhere."""
    data, n = b"", draw(st.integers(-2, 2))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["pair", "pair", "comment", "blank"]))
        pad = draw(st.sampled_from([b"", b" ", b"\t"]))
        if kind == "pair":
            n += draw(st.integers(-1, 3))
            value = draw(st.integers(-9, 10**30).map(lambda v: str(v).encode())
                         | st.sampled_from([b"-0", b"9" * 4301]))
            data += pad + str(n).encode() + draw(st.sampled_from([b" ", b"\t", b" \t "])) + value
        elif kind == "comment":
            data += pad + b"#" + draw(st.sampled_from(RISKY_BYTES + [b"", b" 1 2"]))
        data += pad + draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    for at, piece in draw(st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(RISKY_BYTES)),
                                   max_size=2)):
        at %= len(data) + 1
        data = data[:at] + piece + data[at:]
    return data


def _parsed(parse, path):
    try:
        return parse(path)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(data=bfile_bytes())
def test_parse_bfile_agrees_with_line_walk(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "b.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        assert _parsed(parse_bfile, path) == _parsed(oracles.parse_bfile_walk, path)


def test_parse_bfile_memory_stays_near_line_walk(tmp_path):
    # A regex that matches the whole file at once, (?:<line>)*, keeps a backtracking
    # state per line: about 3x the walk's peak here. This parser's is about 1.5x.
    f = tmp_path / "b.txt"
    f.write_text("# n n^2\n" + "".join(f"{n} {n * n}\n" for n in range(10**5)))
    peaks = []
    for parse in (parse_bfile, oracles.parse_bfile_walk):
        tracemalloc.start()
        try:
            assert len(parse(str(f))) == 10**5
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 2 * peaks[1]


def test_benchmark_selftest_passes():
    # The benchmark traces public names and reads each route's table; a rename
    # or a changed return shape fails here, not only in a benchmark run.
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = lambda limit: subprocess.run(
        [sys.executable, "-m", "v2partitions", "table", "--family", "pe", "--limit", limit],
        env=env, capture_output=True, text=True)
    ok, refused = run("8"), run("-1")
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.splitlines()[-1] == "pe,8,5,gf"
    assert refused.returncode == 2
    assert refused.stderr.startswith("error:") and refused.stdout == ""


def test_cli_import_stays_lean():
    # Every CLI call pays for what the package imports, and it needs none of these three.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import v2partitions.cli; "
            "print(*[m for m in ('dataclasses', 'typing', 'inspect') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def _closed_stdout_run(**env_extra):
    # Far more output than the pipe holds, and the reader closes after one line.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(ROOT / "src"), **env_extra)
    proc = subprocess.Popen(
        [sys.executable, "-m", "v2partitions", "table", "--family", "pd", "--limit", "5000"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"family,n,value,route\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=60), err


def test_closed_stdout_exits_two_without_traceback():
    # Buffered stdout: the write after the reader closes fails for certain.
    code, err = _closed_stdout_run()
    assert code == 2
    assert b"Traceback" not in err


def test_closed_unbuffered_stdout_exits_two_without_traceback():
    # Unbuffered stdout: the one large write comes back short once the reader
    # closes, and the rest of it must still fail, not vanish.
    code, err = _closed_stdout_run(PYTHONUNBUFFERED="1")
    assert code == 2
    assert b"Traceback" not in err
