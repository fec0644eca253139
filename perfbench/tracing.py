"""Per-layer tracing from outside the package.

A Tracer wraps the public functions of each v2partitions module in every
module namespace that binds them, so calls made inside the package pass
through the wrapper too. Each call becomes one span (name, start, end, parent
span, op id) kept in memory; `uninstall` puts the original functions back.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

PACKAGE = "v2partitions"

# layer (module) -> public functions timed wherever they are looked up
TRACED = {
    "cli": ("main", "parse_bfile"),
    "verify": ("verify_family", "verify_binary_identity", "remark_trace"),
    "families": ("table", "gf_series", "product_series", "binomial_table",
                 "brute_force_count", "enumerate_capped"),
    "series": ("pochhammer", "reciprocal", "mul", "product_power"),
    "valuation": ("exponent",),
}


class Tracer:
    def __init__(self) -> None:
        # One span per wrapped call, stored column-wise in flat arrays so that
        # hundreds of thousands of spans add no objects for the garbage collector.
        self.names: list[str] = [f"{layer}.{fname}" for layer, fnames in TRACED.items()
                                 for fname in fnames]
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")       # index of the enclosing span, or -1
        self.ops = array("l")           # op id of the request the span belongs to
        self.op_id = -1
        self.errors = Counter({layer: 0 for layer in TRACED})
        self.max_bits = 0
        self.pochhammer_coeffs = 0
        self.pochhammer_nonzero = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer, fnames in TRACED.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for fname in fnames:
                original = getattr(home, fname)
                wrapper = self._wrap(layer, f"{layer}.{fname}", original)
                for module in modules:
                    if module.__dict__.get(fname) is original:
                        self._patches.append((module, fname, original))
                        setattr(module, fname, wrapper)

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._patches):
            setattr(module, fname, original)
        self._patches.clear()

    def _wrap(self, layer: str, name: str, fn):
        name_id = self.names.index(name)
        stack, clock = self._stack, time.perf_counter
        name_ids, starts, ends, parents, ops = (
            self.name_ids, self.starts, self.ends, self.parents, self.ops)
        observe = self._observe_series if layer == "series" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                ends[span] = clock()
                stack.pop()
            if observe is not None:
                observe(name, result)
            return result

        return traced

    def _observe_series(self, name: str, result) -> None:
        coeffs = result.coeffs
        self.max_bits = max(self.max_bits, max(-min(coeffs), max(coeffs)).bit_length())
        if name == "series.pochhammer":
            self.pochhammer_coeffs += len(coeffs)
            self.pochhammer_nonzero += len(coeffs) - coeffs.count(0)

    def summary(self) -> dict[str, float]:
        """Calls, total ms and self ms for every traced function, plus layer counters."""
        count = len(self.names)
        calls, total, own = [0] * count, [0.0] * count, [0.0] * count
        covered = [0.0] * len(self.starts)
        for span, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[span] - self.starts[span]
        for name_id, start, end, child in zip(self.name_ids, self.starts, self.ends, covered):
            calls[name_id] += 1
            total[name_id] += end - start
            own[name_id] += end - start - child
        out: dict[str, float] = {}
        for name_id, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[name_id]
            out[f"{name}.ms"] = total[name_id] * 1000.0
            out[f"{name}.self_ms"] = own[name_id] * 1000.0
        for layer in TRACED:
            out[f"{layer}.errors"] = self.errors[layer]
        out["series.max_bits"] = self.max_bits
        out["series.pochhammer.nonzero_ratio"] = (
            self.pochhammer_nonzero / self.pochhammer_coeffs if self.pochhammer_coeffs else 0.0)
        return out

    def write_spans(self, fh, pass_index: int, origin: float) -> None:
        """Append this tracer's spans as CSV rows: pass,op,span,parent,name,start_s,end_s."""
        for span, (name_id, op_id, parent, start, end) in enumerate(zip(
                self.name_ids, self.ops, self.parents, self.starts, self.ends)):
            fh.write(f"{pass_index},{op_id},{span},{parent},{self.names[name_id]},"
                     f"{start - origin:.7f},{end - origin:.7f}\n")
