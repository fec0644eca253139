#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate, op streams and tracer.

    python3 perfbench/selftest.py

It shows that the gate can fail: a perturbed coefficient, a wrong value
injected into the program and a non-zero exit all count as failed ops. It
also shows that a seed always gives the same op stream and that different
seeds give different ones.
"""

from __future__ import annotations

import sys
import unittest

import run
from tracing import Tracer
from workloads import FAMILIES, SMALL_MIX, WORKLOADS, Op, check, make_ops

# Small ops covering every op kind and route, so the test takes seconds.
OPS = [
    Op("table", ("ped",), 40, "gf", "csv"),
    Op("table", ("pod",), 30, "product", "json"),
    Op("table", ("pd",), 35, "binomial", "csv"),
    Op("table", ("pe",), 20, "brute", "json"),
    Op("remark", ("overpartition-odd",), 12),
    Op("verify", ("pd",), 25, brute=True),
    Op("verify", ("pe", "ped"), 30),
    Op("compare", ("ped",), 70, "brute"),
    Op("compare", ("overpartition-odd",), 50, "gf"),
]


class Streams(unittest.TestCase):
    def test_same_seed_gives_same_stream(self):
        for workload in WORKLOADS:
            self.assertEqual(make_ops(workload, 7), make_ops(workload, 7))

    def test_different_seeds_give_different_streams(self):
        for workload in WORKLOADS:
            self.assertNotEqual(make_ops(workload, 1), make_ops(workload, 2))

    def test_small_mix_keeps_its_mix(self):
        ops = make_ops("small-mix", 3)
        for kind, count, lo, hi, routes in SMALL_MIX:
            for route in routes:
                for family in FAMILIES:
                    group = [op for op in ops
                             if (op.kind, op.route, op.families) == (kind, route, (family,))]
                    self.assertEqual(len(group), count)
                    self.assertTrue(all(lo <= op.n <= hi for op in group))
        self.assertEqual(len(ops), sum(c * len(r) * len(FAMILIES) for _, c, _, _, r in SMALL_MIX))


class Gate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cli, cls.reference = run.setup(OPS)

    def run_ops(self, ops, tracer=None):
        return run.run_pass(self.cli, ops, self.reference, tracer)

    def test_correct_program_passes(self):
        self.assertEqual(self.run_ops(OPS).failures, [])

    def test_perturbed_output_fails(self):
        for op in OPS:
            code, out, *_ = run.call(self.cli, op.argv(run.BFILE_DIR))
            self.assertIsNone(check(op, code, out, self.reference))
            if op.kind in ("table", "remark"):       # one coefficient off by one
                value = str(self.reference[op.families[0]][op.n])
                head, found, tail = out.rpartition(value)
                wrong = head + str(int(value) + 1) + tail
            else:
                found = "PASS" if op.kind == "verify" else " 0 mismatched"
                wrong = out.replace(found, "FAIL" if op.kind == "verify" else " 1 mismatched", 1)
            self.assertIn(found, out)
            self.assertIsNotNone(check(op, code, wrong, self.reference), op)

    def test_nonzero_exit_fails(self):
        op = OPS[0]
        code, out, *_ = run.call(self.cli, op.argv(run.BFILE_DIR))
        self.assertIsNotNone(check(op, 1, out, self.reference))
        refused = self.run_ops([Op("remark", ("pe",), 0)])    # the CLI exits 2
        self.assertEqual(len(refused.failures), 1)
        self.assertIn("exit code 2", refused.failures[0])

    def test_wrong_value_in_program_raises_fail_ratio(self):
        families = sys.modules[f"{run.PACKAGE}.families"]
        verify = sys.modules[f"{run.PACKAGE}.verify"]
        original = families.binomial_table

        def off_by_one(family, order):
            values = original(family, order)
            values[-1] += 1
            return values

        families.binomial_table = verify.binomial_table = off_by_one
        try:
            tracer = Tracer()
            result = self.run_ops(OPS, tracer)
        finally:
            families.binomial_table = verify.binomial_table = original
        uses_binomial = [op for op in OPS if op.route == "binomial"
                         or op.kind in ("remark", "verify")]
        self.assertEqual(len(result.failures), len(uses_binomial))
        self.assertGreater(tracer.errors["verify"], 0)  # remark_trace's own cross-check raised


class Tracing(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cli, cls.reference = run.setup([])

    def traced(self, ops, workload="small-mix"):
        tracer = Tracer()
        result = run.run_pass(self.cli, ops, self.reference, tracer)
        self.assertEqual(result.failures, [])
        return tracer.summary(), run.route_violations(workload, [result])

    def test_gf_route_reads_nothing_from_valuation(self):
        summary, violations = self.traced([Op("table", ("ped",), 50, "gf", "json")], "gf-table")
        self.assertEqual(violations, [])
        self.assertEqual(summary["valuation.exponent.calls"], 0)
        self.assertEqual(summary["families.binomial_table.calls"], 0)
        self.assertEqual(summary["series.pochhammer.calls"], 2)

    def test_route_violation_is_reported(self):
        summary, violations = self.traced([Op("table", ("ped",), 50, "binomial", "csv")],
                                          "gf-table")
        self.assertEqual(summary["valuation.exponent.calls"], 50)
        self.assertEqual(summary["families.binomial_table.calls"], 1)
        self.assertEqual(len(violations), 2)

    def test_spans_nest_and_functions_are_restored(self):
        families = sys.modules[f"{run.PACKAGE}.families"]
        before = (self.cli.main, self.cli.table, families.gf_series)
        summary, _ = self.traced(OPS[:3])
        self.assertEqual(before, (self.cli.main, self.cli.table, families.gf_series))
        self.assertEqual(summary["cli.main.calls"], 3)
        self.assertEqual(summary["families.table.calls"], 3)
        for name in ("cli.main", "families.gf_series", "families.binomial_table"):
            self.assertLessEqual(summary[f"{name}.self_ms"], summary[f"{name}.ms"])
        self.assertLess(summary["cli.main.self_ms"], summary["cli.main.ms"])


if __name__ == "__main__":
    unittest.main()
