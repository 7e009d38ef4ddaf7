#!/usr/bin/env python3
"""Self-tests of the benchmark harness (no build needed).

    python3 perfbench/test_run.py
"""

import inspect
import json
import os
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class Percentile(unittest.TestCase):
    def test_rejects_fewer_than_ten_samples_beyond(self):
        with self.assertRaises(ValueError):
            run.percentile(range(100), 99)   # 1 sample beyond p99
        with self.assertRaises(ValueError):
            run.percentile(range(999), 99)   # 9 beyond
        self.assertEqual(run.percentile(range(1000), 99), 989)  # 10 beyond

    def test_median(self):
        self.assertEqual(run.percentile(range(1, 101), 50), 50)


class RequestPlan(unittest.TestCase):
    def test_fixed_count_never_a_duration(self):
        # The plan takes no time budget, and its length never varies.
        self.assertEqual(list(inspect.signature(run.request_plan).parameters),
                         ["seed"])
        for seed in (0, 1, 2, 12345):
            self.assertEqual(len(run.request_plan(seed)), run.SERVE_REQUESTS)
        self.assertGreaterEqual(run.SERVE_REQUESTS, 2000)

    def test_same_seed_same_sequence(self):
        self.assertEqual(run.request_plan(7), run.request_plan(7))
        self.assertNotEqual(run.request_plan(7), run.request_plan(8))

    def test_seeds_differ_only_in_order(self):
        key = lambda r: (r["suite"], r["instructions"])
        plans = [run.request_plan(seed) for seed in (1, 2)]
        self.assertEqual(sorted(map(key, plans[0])),
                         sorted(map(key, plans[1])))
        cold = sum(r["instructions"] != run.SERVE_INSTR for r in plans[0])
        self.assertAlmostEqual(cold / len(plans[0]), 0.10, delta=0.005)

    def test_every_key_has_a_reference(self):
        keys = {(r["suite"], r["instructions"]) for r in run.reference_plan()}
        for seed in range(5):
            for r in run.request_plan(seed):
                self.assertIn((r["suite"], r["instructions"]), keys)
        golden = json.loads(run.GOLDEN_SERVE.read_text())
        for suite, instr in keys:
            for config in run.SERVE_CONFIGS:
                self.assertTrue(any(k.startswith(f"{suite}|") and
                                    k.endswith(f"|{config}|{instr}")
                                    for k in golden))


class GoldenCheck(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)
        self.bins = {}
        for name, body in (("a", "echo alpha"), ("b", "echo beta"),
                           ("c", "echo gamma; exit 3")):
            path = self.dir / name
            path.write_text(f"#!/bin/sh\n{body}\n")
            path.chmod(0o755)
            self.bins[name] = path

    def tearDown(self):
        self.tmp.cleanup()

    def digest(self, text):
        return run.hashlib.sha256(text.encode()).hexdigest()

    def test_tampered_digest_is_one_failure_not_an_abort(self):
        golden = {"a": {"sha256": self.digest("alpha\n")},
                  "b": {"sha256": "0" * 64}}
        bench_set = run.BenchSet(["a", "b"], self.bins, os.environ,
                                 self.dir / "out").run()
        failures = bench_set.failures(golden)
        self.assertEqual(len(bench_set.runs), 2)
        self.assertEqual(len(failures), 1)
        self.assertIn("b:", failures[0])

    def test_nonzero_exit_is_one_failure(self):
        golden = {"c": {"sha256": self.digest("gamma\n")}}
        bench_set = run.BenchSet(["c"], self.bins, os.environ,
                                 self.dir / "out").run()
        self.assertEqual(bench_set.failures(golden), ["c: exit code 3"])

    def test_all_23_benches_have_golden_digests(self):
        golden = json.loads(run.GOLDEN_STDOUT.read_text())
        self.assertEqual(sorted(golden),
                         sorted(run.REGEN_LOOPS + run.REGEN_SWEEPS))


class BuildChecks(unittest.TestCase):
    def test_refuses_a_non_release_tree(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp)
            (tree / "CMakeCache.txt").write_text(
                "CMAKE_BUILD_TYPE:STRING=Debug\n")
            with self.assertRaises(run.Refusal):
                run.check_build_type(tree)
            (tree / "CMakeCache.txt").write_text(
                "CMAKE_BUILD_TYPE:STRING=Release\n")
            run.check_build_type(tree)

    def test_refuses_a_missing_binary(self):
        with tempfile.TemporaryDirectory() as tmp:
            with self.assertRaises(run.Refusal):
                run.binaries(Path(tmp))


class Spans(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        tracer = run.Tracer()
        root = tracer.add("set", "perfbench", "w", 0, 0.0, 10.0)
        tracer.add("x", "bench", "w", root, 1.0, 4.0)
        tracer.add("y", "bench", "w", root, 5.0, 9.0)
        self.assertEqual(tracer.self_seconds(),
                         {"perfbench": 3.0, "bench": 7.0})

    def test_overlapping_children_are_covered_once(self):
        tracer = run.Tracer()
        root = tracer.add("pass", "perfbench", "w", 0, 0.0, 10.0)
        tracer.add("r1", "serve", "w", root, 1.0, 6.0)
        tracer.add("r2", "serve", "w", root, 2.0, 8.0)
        self.assertEqual(tracer.self_seconds(),
                         {"perfbench": 3.0, "serve": 11.0})

    def test_adopted_spans_keep_their_parents(self):
        tracer = run.Tracer()
        probe = tracer.add("probe", "perfbench", "layers", 0, 0.0, 5.0)
        tracer.adopt([{"id": 1, "parent": 0, "name": "a", "layer": "sim",
                       "start": 1.0, "end": 4.0},
                      {"id": 2, "parent": 1, "name": "b", "layer": "vm",
                       "start": 2.0, "end": 3.0}], "layers", probe)
        self.assertEqual([s["parent"] for s in tracer.spans], [0, 1, 2])


if __name__ == "__main__":
    unittest.main()
