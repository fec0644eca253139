"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import time

from v2partitions import FamilyId, Route, remark_trace, table, verify_binary_identity, verify_family
from v2partitions.cli import main
from v2partitions.families import product_series
from v2partitions.series import pochhammer, reciprocal
from v2partitions.valuation import exponent

ALL_FAMILIES = list(FamilyId)
ALL_ROUTES = [Route.GF, Route.PRODUCT, Route.BINOMIAL, Route.BRUTE]

GOLDEN = [
    (FamilyId.OVERPARTITION_ODD, 5, 8),
    (FamilyId.PED, 5, 6),
    (FamilyId.PD, 5, 3),
    (FamilyId.POD, 5, 4),
    (FamilyId.PE, 8, 5),
]


def report(label, passed):
    print(f"\nACCEPTANCE {label}: {'PASS' if passed else 'FAIL'}")
    assert passed, label


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def test_1_paper_golden_values_all_routes():
    with Stopwatch() as sw:
        ok = all(table(family, n, route)[n] == expected
                 for family, n, expected in GOLDEN
                 for route in ALL_ROUTES)
    report("1 golden values by all four routes", ok and sw.elapsed < 1.0)


def test_2_route_agreement_to_order_500():
    with Stopwatch() as sw:
        ok = all(verify_family(family, 500)["status"] == "PASS" for family in ALL_FAMILIES)
    report("2 gf/product/binomial agree to N=500", ok and sw.elapsed < 60.0)


def test_3_brute_force_oracle_to_40():
    with Stopwatch() as sw:
        ok = all(verify_family(family, 40, include_brute=True)["status"] == "PASS"
                 for family in ALL_FAMILIES)
    report("3 brute-force oracle agrees for n<=40", ok and sw.elapsed < 120.0)


def test_4_binary_identity_sweep():
    with Stopwatch() as sw:
        ok = all(verify_binary_identity(m, 200)["status"] == "PASS" for m in range(1, 51))
    report("4 binary product identity m<=50 at N=200", ok and sw.elapsed < 10.0)


def test_5_remark_tableau_fidelity():
    expected = {
        (FamilyId.OVERPARTITION_ODD, 5): ([(5,), (4, 1), (3, 2), (3, 1, 1)], [2, 2, 2, 2]),
        (FamilyId.PED, 5): ([(5,), (4, 1), (3, 2), (2, 2, 1)], [1, 2, 2, 1]),
        (FamilyId.PD, 5): ([(5,), (4, 1), (3, 2)], [1, 1, 1]),
        (FamilyId.PE, 8): ([(8,), (6, 2), (4, 4)], [3, 1, 1]),
    }
    ok = True
    for (family, n), (parts, weights) in expected.items():
        rows = [line.split("  ") for line in remark_trace(family, n)[:-1]]  # "3+1+1  C(..) = 2"
        ok &= [tuple(map(int, partition.split("+"))) for partition, _ in rows] == parts
        ok &= [int(term.rpartition(" = ")[2]) for _, term in rows] == weights
    report("5 remark tableaux match the worked listings", ok)


def test_6_derived_structural_checks():
    pe = product_series(FamilyId.PE, 500)
    p = reciprocal(pochhammer(1, 250), 250)
    shadow = all(pe[2 * n] == p[n] for n in range(101))
    pd_exponent = all(exponent(FamilyId.PD, n) == 1 for n in range(1, 10**6 + 1))
    odd_zero = all(pe[k] == 0 for k in range(1, 501, 2))
    report("6 structural checks (p_e shadowing, PD exponent, odd vanishing)",
           shadow and pd_exponent and odd_zero)


def test_7_cli_end_to_end(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text("0 1\n1 2\n2 2\n3 4\n")
    wrong = tmp_path / "wrong.txt"
    wrong.write_text("5 7\n")
    corrupt = tmp_path / "corrupt.txt"
    corrupt.write_text("0 1\nbroken line here\n")

    codes = [
        main(["verify", "--families", "all", "--limit", "60", "--stable"]) == 0,
        main(["compare", "--family", "overpartition-odd", "--bfile", str(good),
              "--route", "brute"]) == 0,
        main(["compare", "--family", "ped", "--bfile", str(wrong)]) == 1,
        main(["compare", "--family", "pd", "--bfile", str(corrupt)]) == 2,
        main(["verify", "--families", "nonsense", "--limit", "5"]) == 2,
    ]
    capsys.readouterr()

    stable_args = ["verify", "--families", "all", "--limit", "60",
                   "--format", "json", "--stable"]
    main(stable_args)
    first = capsys.readouterr().out
    main(stable_args)
    second = capsys.readouterr().out
    deterministic = first == second and all(
        json.loads(line)["status"] == "PASS" for line in first.splitlines())

    main(["table", "--family", "pe", "--limit", "8", "--route", "product"])
    csv_out = capsys.readouterr().out
    with capsys.disabled():
        report("7 CLI exit-code contract and stable byte-determinism",
               all(codes) and deterministic
               and csv_out.splitlines()[-1] == "pe,8,5,product")
