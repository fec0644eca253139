"""Seeded op streams for the benchmark's workloads, and the gate every op passes.

An op is one CLI request. The seed fixes the stream: the same seed gives the
same ops in the same order. The gate checks each op's exit code and output
against reference values committed in perfbench/reference/.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

FAMILIES = ("overpartition-odd", "ped", "pd", "pod", "pe")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
BRUTE_LIMIT = 60                # the package's brute route and `compare` cap
COMPARE_LIMIT = 10_000          # the analytic routes' `compare` cap

# verify-deep and gf-table use the N = 500 and N = 2000 points of the
# ROADMAP's grid. One op then takes about 1 s, so a 40-s run holds 10 to 30
# passes; at N = 1000 and 3000 a run held only 3 to 6.
VERIFY_DEEP_LIMIT = 500
GF_TABLE_LIMIT = 2000
REFERENCE_ORDER = GF_TABLE_LIMIT    # the largest N any workload asks for

# small-mix: (kind, ops per route and family, lowest N, highest N, routes).
# Each (route, family) group draws its N from equal strata of [lo, hi] and
# alternates csv and json, so streams differ per seed while the work and the
# latency spread of a stream stay close. remark stays at n <= 40: one call at
# n = 60 takes up to 1.7 s and would swamp the other ops.
SMALL_MIX = (
    ("table", 10, 50, 300, ("gf", "product", "binomial")),
    ("table", 12, 20, 60, ("brute",)),
    ("remark", 12, 10, 40, ("",)),
    ("verify", 12, 20, 60, ("",)),
    ("compare", 4, 50, 300, ("gf", "product", "binomial", "brute")),
)

WORKLOADS = ("verify-deep", "gf-table", "small-mix")

# Calls the traced run must never see on a workload: the gf route reads
# nothing from `valuation` and never runs the binomial DP.
MUST_NOT_CALL = {"gf-table": ("valuation.exponent", "families.binomial_table")}


@dataclass(frozen=True)
class Op:
    """One CLI request; `n` is --limit, or --n for remark, or the b-file's last index."""

    kind: str
    families: tuple[str, ...]
    n: int
    route: str = ""
    fmt: str = ""
    brute: bool = False

    def argv(self, bfile_dir: Path) -> list[str]:
        family = self.families[0]
        if self.kind == "table":
            return ["table", "--family", family, "--limit", str(self.n),
                    "--route", self.route, "--format", self.fmt]
        if self.kind == "remark":
            return ["remark", "--family", family, "--n", str(self.n)]
        if self.kind == "verify":
            return (["verify", "--families", ",".join(self.families), "--limit", str(self.n)]
                    + (["--brute"] if self.brute else []))
        if self.kind == "compare":
            return ["compare", "--family", family, "--bfile", str(bfile_path(bfile_dir, self)),
                    "--route", self.route]
        raise ValueError(f"unknown op kind {self.kind!r}")


def bfile_path(bfile_dir: Path, op: Op) -> Path:
    return bfile_dir / f"{op.families[0]}-{op.n}.txt"


def _stratified(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    width = (hi - lo + 1) / count
    return [lo + int((s + rng.random()) * width) for s in range(count)]


def make_ops(workload: str, seed: int) -> list[Op]:
    """The op stream of `workload` for `seed`."""
    rng = random.Random(f"{workload}/{seed}")
    families = list(FAMILIES)
    rng.shuffle(families)
    if workload == "verify-deep":
        return [Op("verify", tuple(families), VERIFY_DEEP_LIMIT)]
    if workload == "gf-table":
        return [Op("table", (f,), GF_TABLE_LIMIT, "gf", "json") for f in families]
    if workload == "small-mix":
        ops = []
        for kind, count, lo, hi, routes in SMALL_MIX:
            for route in routes:
                for family in FAMILIES:
                    fmts = ("csv", "json") if kind == "table" else ("",)
                    ops += [Op(kind, (family,), n, route, fmts[i % len(fmts)], kind == "verify")
                            for i, n in enumerate(_stratified(rng, count, lo, hi))]
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def load_reference() -> dict[str, list[int]]:
    """f(0..REFERENCE_ORDER) for every family, from the committed reference files."""
    reference = {}
    for family in FAMILIES:
        values: list[int] = []
        with open(REFERENCE_DIR / f"{family}.txt", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("#"):
                    continue
                n, value = line.split()
                if int(n) != len(values):
                    raise ValueError(f"{family} reference: index {n} out of sequence")
                values.append(int(value))
        if len(values) != REFERENCE_ORDER + 1:
            raise ValueError(f"{family} reference has {len(values)} values, "
                             f"expected {REFERENCE_ORDER + 1}")
        reference[family] = values
    return reference


def write_bfiles(ops: list[Op], reference: dict[str, list[int]], bfile_dir: Path) -> None:
    """Write the b-file every compare op reads: f(0..n) for its family.

    Each file is written in one call, which keeps the time of set-up's I/O steadier.
    """
    bfile_dir.mkdir(parents=True, exist_ok=True)
    for op in {op for op in ops if op.kind == "compare"}:
        values = reference[op.families[0]][:op.n + 1]
        text = f"# {op.families[0]} reference values\n" + "".join(
            f"{n} {v}\n" for n, v in enumerate(values))
        bfile_path(bfile_dir, op).write_text(text, encoding="ascii")


def check(op: Op, code: int, out: str, reference: dict[str, list[int]]) -> str | None:
    """None if the op exited 0 with correct output, else what was wrong."""
    if code != 0:
        return f"exit code {code}"
    try:
        return _CHECKS[op.kind](op, out.splitlines(), reference)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unparsable output: {exc!r}"


def _check_table(op: Op, lines: list[str], reference) -> str | None:
    expected = reference[op.families[0]][:op.n + 1]
    if op.fmt == "csv":
        if lines[0] != "family,n,value,route":
            return f"bad csv header {lines[0]!r}"
        rows = [line.split(",") for line in lines[1:]]
    else:
        rows = [(r["family"], r["n"], r["value"], r["route"]) for r in map(json.loads, lines)]
    if len(rows) != len(expected):
        return f"{len(rows)} rows, expected {len(expected)}"
    for i, (family, n, value, route) in enumerate(rows):
        if (family, int(n), int(value), route) != (op.families[0], i, expected[i], op.route):
            return f"row {i} is {family},{n},{value},{route}; expected value {expected[i]}"
    return None


def _check_remark(op: Op, lines: list[str], reference) -> str | None:
    expected = reference[op.families[0]][op.n]
    if lines[-1] != f"total = {expected}":
        return f"last line {lines[-1]!r}, expected total = {expected}"
    weights = 0
    for line in lines[:-1]:
        head, weight = line.rsplit(" = ", 1)
        if sum(map(int, head.split()[0].split("+"))) != op.n:
            return f"tableau line {line!r} is not a partition of {op.n}"
        weights += int(weight)
    if weights != expected:
        return f"tableau weights sum to {weights}, expected {expected}"
    return None


def _check_verify(op: Op, lines: list[str], reference) -> str | None:
    routes = "routes=gf,product,binomial" + (",brute" if op.brute else "")
    if len(lines) != len(op.families) + 1:
        return f"{len(lines)} report lines, expected {len(op.families) + 1}"
    for line, family in zip(lines, op.families):
        if line.split()[:4] != ["PASS", family, f"order={op.n}", routes]:
            return f"report line {line!r}"
    last = lines[-1].split()
    if last[:2] != ["PASS", "binary-identity"] or last[-1] != f"order={op.n}":
        return f"binary-identity line {lines[-1]!r}"
    return None


def _check_compare(op: Op, lines: list[str], reference) -> str | None:
    limit = BRUTE_LIMIT if op.route == "brute" else COMPARE_LIMIT
    compared = min(op.n, limit) + 1
    skipped = op.n + 1 - compared
    summary = f"summary: {compared} compared, 0 mismatched, {skipped} skipped"
    if lines[-1] != summary:
        return f"summary {lines[-1]!r}, expected {summary!r}"
    matches = sum(1 for line in lines if ": MATCH " in line)
    if matches != compared:
        return f"{matches} MATCH lines, expected {compared}"
    return None


_CHECKS = {"table": _check_table, "remark": _check_remark,
           "verify": _check_verify, "compare": _check_compare}
