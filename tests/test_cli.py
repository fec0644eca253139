import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from v2partitions import families
from v2partitions.cli import FAMILY_TOKENS, ROUTE_TOKENS, main, parse_bfile
from v2partitions.families import BRUTE_LIMIT, MAX_ORDER, Route
from v2partitions.valuation import FamilyId

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
        values = families.table(FamilyId.from_token(family), limit, Route(route))
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
        code, _, err = run(capsys, "verify", "--families", "bogus", "--limit", "10")
        assert code == 2
        assert "unknown family" in err

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

    @pytest.mark.parametrize("fault,argv,code,text,json_lines", [
        (None, ["--families", "pd,pe", "--limit", "60"], 0,
         "PASS  pd  order=60  routes=gf,product,binomial  elapsed=-\n"
         "PASS  pe  order=60  routes=gf,product,binomial  elapsed=-\n"
         "PASS  binary-identity m<=50  order=60\n",
         '{"subject": "pd", "order": 60, "routes": ["gf", "product", "binomial"], '
         '"status": "PASS", "elapsed_ms": 0.0}\n'
         '{"subject": "pe", "order": 60, "routes": ["gf", "product", "binomial"], '
         '"status": "PASS", "elapsed_ms": 0.0}\n'
         '{"subject": "binary-identity m<=50", "order": 60, "status": "PASS"}\n'),
        ("short_gf", ["--families", "pd", "--limit", "20"], 1,
         "FAIL  pd  order=20  routes=gf,product,binomial  elapsed=-  "
         "first mismatch at n=20: gf=None, product=64, binomial=64\n"
         "PASS  binary-identity m<=50  order=20\n",
         '{"subject": "pd", "order": 20, "routes": ["gf", "product", "binomial"], '
         '"status": "FAIL", "elapsed_ms": 0.0, "first_mismatch": {"n": 20, '
         '"values": {"gf": null, "product": "64", "binomial": "64"}}}\n'
         '{"subject": "binary-identity m<=50", "order": 20, "status": "PASS"}\n'),
        ("skewed_binomial", ["--families", "pd", "--limit", "40", "--brute"], 1,
         "FAIL  pd  order=40  routes=gf,product,binomial,brute  elapsed=-  "
         "first mismatch at n=9: gf=8, product=8, binomial=9, brute=8\n"
         "PASS  binary-identity m<=50  order=40\n",
         '{"subject": "pd", "order": 40, "routes": ["gf", "product", "binomial", "brute"], '
         '"status": "FAIL", "elapsed_ms": 0.0, "first_mismatch": {"n": 9, '
         '"values": {"gf": "8", "product": "8", "binomial": "9", "brute": "8"}}}\n'
         '{"subject": "binary-identity m<=50", "order": 40, "status": "PASS"}\n'),
    ])
    def test_stable_output_golden(self, capsys, request, fault, argv, code, text, json_lines):
        if fault:
            request.getfixturevalue(fault)
        for fmt, expected in (("text", text), ("json", json_lines)):
            assert run(capsys, "verify", *argv, "--stable", "--format", fmt) == (code, expected, "")

    def test_family_fail_keeps_the_sweep_status_line(self, capsys, skewed_binomial):
        code, out, _ = run(capsys, "verify", "--families", "pd", "--limit", "20")
        lines = out.splitlines()
        assert code == 1
        assert lines[0].startswith("FAIL  pd  order=20  ")
        assert lines[1:] == ["PASS  binary-identity m<=50  order=20"]


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

    @pytest.mark.parametrize("family", FAMILY_TOKENS)
    def test_tableau_golden_at_40(self, capsys, family):
        # The whole tableau, byte for byte: the listing order, every term and weight.
        lines, sha256 = {
            "overpartition-odd": (2893, "8364b61a7048ae5a0a5e6e68131ea3add44e8d0b6f788288cccf486711de4a3b"),
            "ped": (2410, "4b26f69a63aee603703695adabf4e958bcb598c3b8ace887e63b2170a7bec00b"),
            "pd": (1114, "b1dadb81f9763914e0fb8dc25a1c4691da4e694f7377d41ca0fa43cd69abe139"),
            "pod": (1550, "380cdf1ffbbbf7260554e2c1a264fc1e5d020274384cda61b9bc2f02fe6767be"),
            "pe": (115, "746f3d927c3fedb215dda0632009e05e5047a7a9a426134bab7f5ab981361912"),
        }[family]
        code, out, _ = run(capsys, "remark", "--family", family, "--n", "40")
        assert code == 0
        assert len(out.splitlines()) == lines
        assert hashlib.sha256(out.encode()).hexdigest() == sha256


class TestBFileParsing:
    def test_comments_and_blanks_skipped(self, tmp_path):
        f = tmp_path / "b.txt"
        f.write_text("# header\n\n0 1\n1 2\n\n# tail\n2 2\n")
        entries = parse_bfile(str(f))
        assert [(e.index, e.value) for e in entries] == [(0, 1), (1, 2), (2, 2)]

    def test_malformed_line_reports_line_number(self, tmp_path):
        f = tmp_path / "b.txt"
        f.write_text("0 1\n1 two\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_bfile(str(f))

    @pytest.mark.parametrize("bad_line", ["1_0 2", "0 +1"])
    def test_python_literal_field_rejected(self, tmp_path, bad_line):
        # int() reads "1_0" as 10 and "+1" as 1; a b-file field is '-'? and ASCII digits
        f = tmp_path / "b.txt"
        f.write_text(f"0 1\n{bad_line}\n")
        with pytest.raises(ValueError, match="line 2: non-integer field"):
            parse_bfile(str(f))

    def test_non_increasing_rejected(self, tmp_path):
        f = tmp_path / "b.txt"
        f.write_text("0 1\n0 1\n")
        with pytest.raises(ValueError, match="strictly increasing"):
            parse_bfile(str(f))


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

    @pytest.mark.parametrize("bad_line,byte,column", [("1 é", "0xc3", 3), ("1\u00a02", "0xc2", 2)],
                             ids=["e-acute", "no-break-space"])
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

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "compare", "--family", "pd",
                           "--bfile", str(tmp_path / "absent.txt"))
        assert code == 2

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


bfile_line = st.one_of(
    st.tuples(st.integers(-2, 70), st.integers(-2, 3000)).map(lambda t: f"{t[0]} {t[1]}"),
    st.sampled_from(["", "# comment", "1", "x 1", "1 2 3"]))


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


def test_full_verification_script_passes():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "full_verification.py")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "FAIL" not in proc.stdout
    assert proc.stdout.count("PASS") == 12  # 2 runs x (5 families + binary identity)


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


def test_closed_stdout_exits_two_without_traceback():
    # Buffered stdout, and far more output than the pipe holds, so the write
    # after the reader closes fails for certain.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "v2partitions", "table", "--family", "pd", "--limit", "5000"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"family,n,value,route\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert b"Traceback" not in err
