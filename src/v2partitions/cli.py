"""Command-line front end: tables, verification runs, remark tableaux,
and comparison against locally supplied b-files.

Exit codes: 0 = success / all checks pass, 1 = mathematical mismatch or a
failed self-check (one FAIL line on stderr), 2 = usage or input error. All
numeric output is decimal strings; nothing here ever touches floating point
except the elapsed timing field, which `--stable` zeroes for golden-file
comparisons.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import re
import stat
import sys
from operator import lt

from .families import BRUTE_LIMIT, MAX_ORDER, Route, table
from .valuation import FamilyId
from .verify import remark_trace, verify_binary_identity, verify_family

FAMILY_TOKENS = [f.value for f in FamilyId]
ROUTE_TOKENS = [r.value for r in Route]

BINARY_IDENTITY_SWEEP = 50      # m <= 50 checked in every verify run
BFILE_MAX_BYTES = 16 << 20      # a 10 000-line b-file of any family here is under 0.7 MB
_FIELD_SEP = re.compile(r"[ \t]+")  # str.split() would also split on \v \f and 0x1c-0x1f
# One match per line: a pair, a comment or blank. Nothing in it crosses a line end.
_LINE = re.compile(rb"^[ \t]*(?:(-?[0-9]+)[ \t]+(-?[0-9]+)[ \t]*|#.*|)$", re.M)


def parse_bfile(path: str) -> list[tuple[int, int]]:
    """Parse an OEIS-style b-file: lines "<n> <value>", '#' comments, blanks ignored.

    Returns the (index, value) pairs in file order.

    Raises ValueError, prefixed with the path, when the file cannot be read, is
    not a regular file or holds more than BFILE_MAX_BYTES, or when a line is
    malformed, non-ASCII or non-increasing (with its line number).
    """
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):  # a FIFO blocks in open(), /dev/zero never ends
            raise ValueError(f"cannot read {path}: not a regular file")
        with open(path, "rb") as fh:
            data = fh.read(BFILE_MAX_BYTES + 1)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    if len(data) > BFILE_MAX_BYTES:
        raise ValueError(f"cannot read {path}: larger than {BFILE_MAX_BYTES} bytes")
    text = data.replace(b"\r", b"\n")  # as splitlines() does; \r\n leaves a blank line
    rows = _LINE.findall(text) if text.isascii() else []
    if len(rows) == text.count(b"\n") + 1:  # every line matched
        with contextlib.suppress(ValueError):  # int() raises past its digit limit
            entries = [(int(n), int(v)) for n, v in rows if n]
            indices = [n for n, _ in entries]
            if all(map(lt, [-1, *indices], indices)):  # non-negative, strictly increasing
                return entries
    entries = []  # a file the passes above refuse is walked line by line to word its error
    for lineno, raw in enumerate(data.splitlines(), start=1):
        where = f"{path}: line {lineno}"
        try:  # ASCII only, so no Unicode space (e.g. U+00A0) separates fields
            line = raw.decode("ascii").strip(" \t")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{where}: non-ASCII byte 0x{raw[exc.start]:02x} "
                             f"at column {exc.start + 1}") from None
        if (match := _LINE.fullmatch(raw)) and not match[1]:  # a comment or blank line
            continue
        try:  # int() also raises on a field past its digit limit
            if not match:
                raise ValueError
            index, value = int(match[1]), int(match[2])
        except ValueError:  # the field count picks the wording: two fields hold a non-integer one
            if len(_FIELD_SEP.split(line)) == 2:
                raise ValueError(f"{where}: non-integer field in {line!r}") from None
            raise ValueError(f"{where}: expected '<n> <value>', got {line!r}") from None
        if index < 0:
            raise ValueError(f"{where}: negative index {index}")
        if entries and index <= entries[-1][0]:
            raise ValueError(f"{where}: index {index} not strictly increasing")
        entries.append((index, value))
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
    family = FamilyId(args.family)
    route = Route(args.route)
    values = table(family, args.limit, route)
    _emit_table(sys.stdout, family, values, route, args.format)
    return 0


def _print_result(d: dict, fmt: str, stable: bool) -> None:
    """Print one verify result dict as a JSON line, or as the text line read off its keys.

    `stable` zeroes elapsed_ms, the one timing field, so that output is byte-deterministic.
    """
    if stable and "elapsed_ms" in d:
        d = {**d, "elapsed_ms": 0.0}
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
    tokens = FAMILY_TOKENS if args.families == "all" else args.families.split(",")
    families = []
    for tok in dict.fromkeys(tokens):  # argparse does not check them; repeats go, order stays
        if tok not in FAMILY_TOKENS:
            raise ValueError(f"unknown family {tok!r}")
        families.append(FamilyId(tok))
    failed = False
    for family in families:  # print each as it finishes: a later self-check may raise
        report = verify_family(family, args.limit, include_brute=args.brute)
        _print_result(report, args.format, args.stable)
        failed |= report["status"] != "PASS"
    sweep = [r for m in range(1, BINARY_IDENTITY_SWEEP + 1)
             if (r := verify_binary_identity(m, args.limit))["status"] != "PASS"]
    for report in sweep or [{"subject": f"binary-identity m<={BINARY_IDENTITY_SWEEP}",
                             "order": args.limit, "status": "PASS"}]:
        _print_result(report, args.format, args.stable)
    return 1 if failed or sweep else 0


def cmd_remark(args) -> int:
    sys.stdout.write("\n".join(remark_trace(FamilyId(args.family), args.n)) + "\n")
    return 0


def cmd_compare(args) -> int:
    family = FamilyId(args.family)
    route = Route(args.route)
    entries = parse_bfile(args.bfile)
    limit = BRUTE_LIMIT if route is Route.BRUTE else MAX_ORDER
    comparable = [(n, v) for n, v in entries if n <= limit]
    skipped = [n for n, _ in entries if n > limit]
    values = table(family, comparable[-1][0], route) if comparable else []
    rows = [f"{n}: MATCH {v}\n" if values[n] == v else
            f"{n}: MISMATCH file={v} computed={values[n]}\n" for n, v in comparable]
    mismatches = sum(values[n] != v for n, v in comparable)
    rows += [f"{n}: SKIPPED (beyond {route.value} route limit {limit})\n" for n in skipped]
    rows.append(f"summary: {len(comparable)} compared, {mismatches} mismatched, "
                f"{len(skipped)} skipped\n")
    sys.stdout.write("".join(rows))
    return 1 if mismatches else 0


@functools.cache  # built on the first main() call, not at import; parse_args keeps no state
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
    """Run one subcommand: a ValueError is a usage error (exit 2), an AssertionError a FAIL (exit 1)."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    """Exit with main()'s code; a reader that closed stdout early makes it 2."""
    if isinstance(getattr(sys.stdout, "buffer", None), io.RawIOBase):
        # Unbuffered (-u), a short write to a closed pipe drops the rest unseen; a
        # line-buffered writer retries it, so the closed reader raises BrokenPipeError.
        sys.stdout = open(sys.stdout.fileno(), "w", encoding=sys.stdout.encoding,
                          errors=sys.stdout.errors, buffering=1, closefd=False)
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Point fd 1 at devnull so that the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)
