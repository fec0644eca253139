"""Command-line front end: tables, verification runs, remark tableaux,
and comparison against locally supplied b-files.

Exit codes: 0 = success / all checks pass, 1 = mathematical mismatch,
2 = usage or input error. All numeric output is decimal strings; nothing
here ever touches floating point except the elapsed timing field, which
`--stable` zeroes for golden-file comparisons.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass

from .families import BRUTE_LIMIT, MAX_ORDER, Route, table
from .valuation import FamilyId
from .verify import remark_trace, verify_binary_identity, verify_family

FAMILY_TOKENS = [f.value for f in FamilyId]
ROUTE_TOKENS = [r.value for r in Route]

BINARY_IDENTITY_SWEEP = 50      # m <= 50 checked in every verify run
_DECIMAL = re.compile(r"-?[0-9]+")  # a b-file field; int() alone also takes "1_0" and "+1"
_FIELD_SEP = re.compile(r"[ \t]+")  # str.split() would also split on \v \f and 0x1c-0x1f


@dataclass(frozen=True)
class BFileEntry:
    index: int
    value: int


def parse_bfile(path: str) -> list[BFileEntry]:
    """Parse an OEIS-style b-file: lines "<n> <value>", '#' comments, blanks ignored.

    Raises ValueError, prefixed with the path, when the file cannot be read or
    a line is malformed, non-ASCII or non-increasing (with its line number).
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    entries: list[BFileEntry] = []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        where = f"{path}: line {lineno}"
        try:  # ASCII only, so no Unicode space (e.g. U+00A0) separates fields
            line = raw.decode("ascii").strip(" \t")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{where}: non-ASCII byte 0x{raw[exc.start]:02x} "
                             f"at column {exc.start + 1}") from None
        if not line or line.startswith("#"):
            continue
        fields = _FIELD_SEP.split(line)
        if len(fields) != 2:
            raise ValueError(f"{where}: expected '<n> <value>', got {line!r}")
        try:  # int() also raises on a field past its digit limit
            if not all(_DECIMAL.fullmatch(field) for field in fields):
                raise ValueError
            index, value = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"{where}: non-integer field in {line!r}") from None
        if index < 0:
            raise ValueError(f"{where}: negative index {index}")
        if entries and index <= entries[-1].index:
            raise ValueError(f"{where}: index {index} not strictly increasing")
        entries.append(BFileEntry(index, value))
    return entries


def _emit_table(out, family: FamilyId, values: list[int], route: Route, fmt: str) -> None:
    """Write the whole table in one call; a JSON row has the bytes of json.dumps(record)."""
    if fmt == "csv":
        fam, rt = family.value, route.value
        rows = ["family,n,value,route\n"]
        rows += [f"{fam},{n},{value},{rt}\n" for n, value in enumerate(values)]
    else:
        fam, rt = json.dumps(family.value), json.dumps(route.value)
        rows = [f'{{"family": {fam}, "n": {n}, "value": "{value}", "route": {rt}}}\n'
                for n, value in enumerate(values)]
    out.write("".join(rows))


def cmd_table(args) -> int:
    family = FamilyId.from_token(args.family)
    route = Route(args.route)
    values = table(family, args.limit, route)
    _emit_table(sys.stdout, family, values, route, args.format)
    return 0


def _report_dict(report, stable: bool) -> dict:
    d = {
        "subject": report.subject,
        "order": report.order,
        "routes": list(report.routes_compared),
        "status": report.status,
        "elapsed_ms": 0.0 if stable else round(report.elapsed_ms, 3),
    }
    if report.first_mismatch is not None:
        n, values = report.first_mismatch
        d["first_mismatch"] = {"n": n, "values": {k: None if v is None else str(v)
                                                  for k, v in values.items()}}
    return d


def _print_result(d: dict, fmt: str, stable: bool) -> None:
    """Print one verify result dict as a JSON line, or as the text line read off its keys."""
    if fmt == "json":
        print(json.dumps(d))
        return
    line = f"{d['status']}  {d['subject']}  order={d['order']}"
    if "routes" in d:
        elapsed = "-" if stable else f"{d['elapsed_ms']:.1f}ms"
        line += f"  routes={','.join(d['routes'])}  elapsed={elapsed}"
    if "first_mismatch" in d:
        detail = ", ".join(f"{k}={v}" for k, v in d["first_mismatch"]["values"].items())
        line += f"  first mismatch at n={d['first_mismatch']['n']}: {detail}"
    print(line)


def cmd_verify(args) -> int:
    if args.families == "all":
        families = list(FamilyId)
    else:
        # dict.fromkeys drops repeated tokens and keeps the first-named order
        families = [FamilyId.from_token(tok) for tok in dict.fromkeys(args.families.split(","))]
    families_pass = sweep_pass = True
    for family in families:
        report = verify_family(family, args.limit, include_brute=args.brute)
        _print_result(_report_dict(report, args.stable), args.format, args.stable)
        families_pass &= report.passed
    for m in range(1, BINARY_IDENTITY_SWEEP + 1):
        report = verify_binary_identity(m, args.limit)
        if not report.passed:
            _print_result(_report_dict(report, args.stable), args.format, args.stable)
            sweep_pass = False
    if sweep_pass:
        _print_result({"subject": f"binary-identity m<={BINARY_IDENTITY_SWEEP}",
                       "order": args.limit, "status": "PASS"}, args.format, args.stable)
    return 0 if families_pass and sweep_pass else 1


def cmd_remark(args) -> int:
    family = FamilyId.from_token(args.family)
    trace = remark_trace(family, args.n)
    rows = [f"{'+'.join(map(str, partition.parts()))}  {term} = {partition.weight}\n"
            for partition, term in trace.lines]
    rows.append(f"total = {trace.total}\n")
    sys.stdout.write("".join(rows))
    return 0


def cmd_compare(args) -> int:
    family = FamilyId.from_token(args.family)
    route = Route(args.route)
    entries = parse_bfile(args.bfile)
    limit = BRUTE_LIMIT if route is Route.BRUTE else MAX_ORDER
    comparable = [e for e in entries if e.index <= limit]
    skipped = [e for e in entries if e.index > limit]
    values = table(family, comparable[-1].index, route) if comparable else []
    rows = [f"{e.index}: MATCH {e.value}\n" if values[e.index] == e.value else
            f"{e.index}: MISMATCH file={e.value} computed={values[e.index]}\n" for e in comparable]
    mismatches = sum(values[e.index] != e.value for e in comparable)
    rows += [f"{e.index}: SKIPPED (beyond {route.value} route limit {limit})\n" for e in skipped]
    rows.append(f"summary: {len(comparable)} compared, {mismatches} mismatched, "
                f"{len(skipped)} skipped\n")
    sys.stdout.write("".join(rows))
    return 1 if mismatches else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="v2partitions",
        description="Restricted partition functions via 2-adic valuation exponents")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="print f(0..N) for one family and route")
    p_table.add_argument("--family", required=True, choices=FAMILY_TOKENS)
    p_table.add_argument("--limit", type=int, required=True, metavar="N")
    p_table.add_argument("--route", default="gf", choices=ROUTE_TOKENS)
    p_table.add_argument("--format", default="csv", choices=["csv", "json"])
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="cross-route verification reports")
    p_verify.add_argument("--families", default="all",
                          help="comma-separated family tokens, or 'all'")
    p_verify.add_argument("--limit", type=int, required=True, metavar="N")
    p_verify.add_argument("--brute", action="store_true",
                          help="include the brute-force oracle (limit <= 60)")
    p_verify.add_argument("--format", default="text", choices=["text", "json"])
    p_verify.add_argument("--stable", action="store_true",
                          help="freeze timing fields for golden-file comparison")
    p_verify.set_defaults(func=cmd_verify)

    p_remark = sub.add_parser("remark", help="capped-partition tableau with binomial weights")
    p_remark.add_argument("--family", required=True, choices=FAMILY_TOKENS)
    p_remark.add_argument("--n", type=int, required=True)
    p_remark.set_defaults(func=cmd_remark)

    p_compare = sub.add_parser("compare", help="compare a family against a b-file")
    p_compare.add_argument("--family", required=True, choices=FAMILY_TOKENS)
    p_compare.add_argument("--bfile", required=True)
    p_compare.add_argument("--route", default="gf", choices=ROUTE_TOKENS)
    p_compare.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; a ValueError from it is a usage error (exit 2)."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    """Exit with main()'s code; a reader that closed stdout early makes it 2."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Point fd 1 at devnull so that the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)
