#!/usr/bin/env python3
"""Benchmark for v2partitions: one workload, a closed loop with one caller.

Every op is an in-process call to `v2partitions.cli.main(argv)` with stdout
captured in memory; the next op starts only after the previous one returned
and was checked against the committed reference values. The op list is run
in passes until `--seconds` is used up. Each op's timing is its median over
the passes, in refloops: its latency over the time of a fixed reference loop
timed around and inside it (see SpeedProbe). Each pass starts with fresh
set-ups, timed the same way.

    python3 perfbench/run.py --workload small-mix --seed 1 --seconds 30 --trace 0

`--trace 0` prints the end-to-end metrics named in BENCHMARK.json. `--trace 1`
alternates untraced and traced passes and prints the per-layer metrics; the
spans of the traced passes are written to perfbench/out/<workload>.spans.csv.
The last stdout line is the result JSON; the line before it is provenance.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracing import PACKAGE, Tracer
from workloads import MUST_NOT_CALL, WORKLOADS, Op, check, load_reference, make_ops, write_bfiles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
BFILE_DIR = OUT_DIR / "bfiles"

SETUPS_PER_PASS = 5     # fresh set-ups before every pass; setup_s is their median cost
MIN_PASSES = 2
# The reference loop multiplies and adds 318-bit ints read from a list, as the
# package's kernels do. A host slow-down that hits that work harder than plain
# interpreter work then slows the loop as much (a small-int loop left
# verify-deep about 1.5 times as spread across runs).
PROBE_LOOP = 1_000      # iterations of the reference loop: one "refloop"
PROBE_TERMS = tuple(3 ** 200 + i for i in range(8))
PROBE_EVERY_S = 0.025   # interval of the probes taken while an op runs
# setup_s is set-up cost in refloops times this round refloop time: seconds at
# a fixed speed, about that of an uncontended core of the 2-CPU VM the bounds
# were set on.
REFLOOP_NOMINAL_S = 1e-4


def import_package(fresh: bool = False):
    """Import v2partitions from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: no {PACKAGE} source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    if fresh:
        for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != (src / PACKAGE).resolve():
        raise SystemExit(f"error: imported {pkg.__file__}, not the checkout's source")
    return pkg


def setup(ops: list[Op]):
    """Import the package afresh, load the reference values and write the b-files."""
    import_package(fresh=True)
    cli = importlib.import_module(f"{PACKAGE}.cli")
    reference = load_reference()
    write_bfiles(ops, reference, BFILE_DIR)
    return cli, reference


class SpeedProbe:
    """Times the reference loop between ops and, from a SIGALRM timer, inside them.

    Other tenants of a shared machine slow its CPU by up to a third for
    minutes at a time. The reference loop slows with the ops, so an op's
    latency over the loop's time, its cost in refloops, stays put.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []    # (start, seconds) of each probe

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += PROBE_TERMS[i & 7] * i
        self.samples.append((start, time.perf_counter() - start))

    def take(self) -> list[tuple[float, float]]:
        taken, self.samples = self.samples, []
        return taken

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn):
        """(fn(), its latency less the probes inside it, median refloop time around it)."""
        gc.collect()    # start with no garbage left, as a fresh CLI process does
        before = self.take()
        start = time.perf_counter()
        value = fn()
        end = time.perf_counter()
        self.sample()
        around = before + self.take()
        inside = sum(seconds for at, seconds in around if start <= at < end)
        return value, end - start - inside, statistics.median(seconds for _, seconds in around)


def call(cli, argv: list[str]) -> tuple[int | None, str, str]:
    """Run one CLI request in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:     # argparse refusing argv exits 2
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:
            code = None
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


@dataclass
class Pass:
    tracer: Tracer | None
    latencies: list[float] = field(default_factory=list)   # seconds, probes inside excluded
    refloops: list[float] = field(default_factory=list)    # seconds per refloop around each op
    failures: list[str] = field(default_factory=list)
    out_bytes: int = 0

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)

    @property
    def costs(self) -> list[float]:
        """Each op's latency in refloops."""
        return [latency / refloop for latency, refloop in zip(self.latencies, self.refloops)]


def run_pass(cli, ops: list[Op], reference, tracer: Tracer | None) -> Pass:
    """Run the op list once; wall time counts the calls, not the checks between them."""
    result = Pass(tracer)
    with SpeedProbe() as probe:
        probe.sample()
        if tracer is not None:
            tracer.install()
        try:
            for op_id, op in enumerate(ops):
                argv = op.argv(BFILE_DIR)
                if tracer is not None:
                    tracer.op_id = op_id
                (code, out, err), latency, refloop = probe.timed(lambda: call(cli, argv))
                result.latencies.append(latency)
                result.refloops.append(refloop)
                result.out_bytes += len(out)
                problem = check(op, code, out, reference)
                if problem is not None:
                    tail = err.strip().splitlines()[-1:] or [""]
                    result.failures.append(f"{' '.join(argv)}: {problem} {tail[0]}".rstrip())
        finally:
            if tracer is not None:
                tracer.uninstall()
    return result


def run_passes(ops: list[Op], seconds: float,
               trace: bool) -> tuple[list[Pass], list[tuple[float, float]]]:
    """Passes until the next one would overrun `seconds`; traced runs alternate.

    Each pass runs on the modules of fresh set-ups made just before it, so the
    set-ups sample the whole run, as the passes do. Returns the passes and each
    set-up's (seconds, refloop time).
    """
    passes: list[Pass] = []
    setups: list[tuple[float, float]] = []
    start = time.perf_counter()
    while True:
        with SpeedProbe() as probe:
            probe.sample()
            for _ in range(SETUPS_PER_PASS):
                (cli, reference), latency, refloop = probe.timed(lambda: setup(ops))
                setups.append((latency, refloop))
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(cli, ops, reference, Tracer() if traced else None))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes, setups


def _deciles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=10, method="inclusive") if len(values) > 1 else values * 9


def end_to_end(passes: list[Pass], setups: list[tuple[float, float]]) -> dict[str, float]:
    """Per-op medians over passes, in refloops and, unbounded, in wall time."""
    setup_refloops = statistics.median(latency / refloop for latency, refloop in setups)
    costs = [statistics.median(op) for op in zip(*(p.costs for p in passes))]
    latencies_ms = [statistics.median(op) * 1000.0 for op in zip(*(p.latencies for p in passes))]
    cost_deciles, ms_deciles = _deciles(costs), _deciles(latencies_ms)
    return {
        "setup_s": setup_refloops * REFLOOP_NOMINAL_S,
        "wall_refloops": sum(costs),
        "op_p50_refloops": cost_deciles[4],
        "op_p90_refloops": cost_deciles[8],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_refloops": setup_refloops,
        "setup_wall_s": statistics.median(latency for latency, _ in setups),
        "wall_s": sum(latencies_ms) / 1000.0,
        "op_p50_ms": ms_deciles[4],
        "op_p90_ms": ms_deciles[8],
        "refloop_ms": statistics.median(r for p in passes for r in p.refloops) * 1000.0,
    }


def per_layer(passes: list[Pass]) -> dict[str, float]:
    traced = [p for p in passes if p.tracer is not None]
    untraced = [p for p in passes if p.tracer is None]
    summaries = [p.tracer.summary() for p in traced]
    metrics = {name: statistics.median(s[name] for s in summaries) for name in summaries[0]}
    metrics["cli.out_bytes"] = statistics.median(p.out_bytes for p in traced)
    plain = statistics.median(sum(p.costs) for p in untraced)
    with_spans = statistics.median(sum(p.costs) for p in traced)
    metrics["trace.overhead_pct"] = (with_spans / plain - 1) * 100
    return metrics


def route_violations(workload: str, passes: list[Pass]) -> list[str]:
    """Calls the workload's ops must never make, as seen by the traced passes."""
    found = []
    for p in passes:
        if p.tracer is None:
            continue
        summary = p.tracer.summary()
        found += [f"{name} called {summary[name + '.calls']} times"
                  for name in MUST_NOT_CALL.get(workload, ()) if summary[name + ".calls"]]
    return found


def git_sha() -> str | None:
    """HEAD's commit if the checkout itself is a git work tree, else None."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))   # never look above it
    try:
        found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                               capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return found.stdout.strip() if found.returncode == 0 else None


def provenance(args, ops: list[Op], passes: list[Pass], setups: int, failed: int,
               attempted: int) -> dict:
    by_kind: dict[str, list[int]] = {}
    for op in ops:
        by_kind.setdefault(f"{op.kind}:{op.route}" if op.route else op.kind, []).append(op.n)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client, in-process cli.main calls",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "ops_per_pass": len(ops),
        "ops_by_kind": {k: {"count": len(ns), "n": sorted(ns)} for k, ns in by_kind.items()},
        "passes": {"untraced": sum(p.tracer is None for p in passes),
                   "traced": sum(p.tracer is not None for p in passes)},
        "pass_wall_s": [p.wall_s for p in passes],
        "percentile_samples": len(ops),
        "setups": setups,
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
    }


def write_spans(workload: str, passes: list[Pass], origin: float) -> None:
    with open(OUT_DIR / f"{workload}.spans.csv", "w", encoding="ascii") as fh:
        fh.write("pass,op,span,parent,name,start_s,end_s\n")
        for index, p in enumerate(passes):
            if p.tracer is not None:
                p.tracer.write_spans(fh, index, origin)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    origin = time.perf_counter()
    ops = make_ops(args.workload, args.seed)
    passes, setups = run_passes(ops, args.seconds, bool(args.trace))

    measured = per_layer(passes) if args.trace else end_to_end(passes, setups)
    missing = sorted(set(wanted) - set(measured))
    if missing:
        raise SystemExit(f"error: BENCHMARK.json names metrics this run did not measure: {missing}")

    failures = [f for p in passes for f in p.failures]
    violations = route_violations(args.workload, passes)
    for line in failures[:10] + violations:
        print(f"FAILED {line}", file=sys.stderr)
    attempted = len(ops) * len(passes)
    record = provenance(args, ops, passes, len(setups), len(failures), attempted)
    record["unbounded_metrics"] = {k: v for k, v in measured.items() if k not in wanted}
    result = {
        "correct": not failures and not violations,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in wanted.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        write_spans(args.workload, passes, origin)
    with open(OUT_DIR / f"{args.workload}.trace{args.trace}.json", "w", encoding="ascii") as fh:
        json.dump({"provenance": record, "result": result}, fh, indent=1)
    print(json.dumps({"provenance": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
