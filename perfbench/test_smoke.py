"""Tests of the benchmark itself: the answer checker, and a tiny-scale
smoke run of every workload, untraced and traced.

Run from the repository root:

    python3 -m unittest perfbench/test_smoke.py
"""

import collections
import json
import os
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


class AnswerChecking(unittest.TestCase):
    QUERY = {"k": 3, "origin": "cut",
             "expected": [["7", "0", "4"], ["9", "1", "4"], ["2", "1.5", "3"]]}
    GOOD = [["1", "7", "0", "4"], ["2", "9", "1", "4"], ["3", "2", "1.5", "3"]]

    def test_the_reference_answer_passes(self):
        self.assertIsNone(run.check_rows(self.QUERY, self.GOOD, 100))

    def test_every_kind_of_wrong_answer_is_caught(self):
        short = self.GOOD[:2]
        self.assertIn("2 rows", run.check_rows(self.QUERY, short, 100))
        unsorted = [self.GOOD[0], ["2", "9", "2", "4"], self.GOOD[2]]
        self.assertIn("decrease", run.check_rows(self.QUERY, unsorted, 100))
        far = [["1", "7", "1", "4"]] + self.GOOD[1:]
        self.assertIn("top-1", run.check_rows(self.QUERY, far, 100))
        moved = [self.GOOD[0], ["2", "8", "1", "4"], self.GOOD[2]]
        self.assertIn("row 2", run.check_rows(self.QUERY, moved, 100))

    def test_a_small_document_may_answer_fewer_rows(self):
        query = dict(self.QUERY, expected=self.QUERY["expected"][:2])
        self.assertIsNone(run.check_rows(query, self.GOOD[:2], 2))

    def test_daemon_failures_are_counted_by_kind(self):
        self.assertEqual(run.parse_wire(["BUSY retry-after-ms=50"]), (None, "busy"))
        self.assertEqual(run.parse_wire(["ERR timeout late"]), (None, "timeout"))
        self.assertEqual(run.parse_wire(["ERR parse bad xml"]), (None, "err-parse"))
        self.assertEqual(run.parse_wire(["OK 1 degraded=1/2", "1 3 0 2 s0", "END"]),
                         (None, "degraded"))
        self.assertEqual(run.parse_wire(["OK 1", "1 3 0 2 s0", "END"]),
                         ([["1", "3", "0", "2", "s0"]], None))


class Smoke(unittest.TestCase):
    """Every workload at a tiny scale: the program answers, every answer
    checks out, and the result line carries exactly the listed metrics."""

    def bench(self, workload, trace, seed=7):
        out = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
             "--scale", "0.01"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_workloads_untraced_and_traced(self):
        for w in SPEC["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    result = self.bench(w["name"], trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(result["failed"], 0)
                    names = [m["name"] for m in SPEC[kind]]
                    self.assertEqual(sorted(result["metrics"]), sorted(names))
                    trace_dir = os.path.join(run.WORK, w["name"], "trace")
                    if trace:
                        for spans in ("layers-spans.jsonl", "e2e-spans.jsonl"):
                            with open(os.path.join(trace_dir, spans)) as f:
                                first = json.loads(f.readline())
                            self.assertLessEqual({"name", "req", "parent", "start_ns", "end_ns"},
                                                 set(first))

    def test_seeds_give_inputs_of_the_same_shape(self):
        tasm, harness = run.build()
        del tasm

        def plan(seed, d):
            subprocess.run([harness, "prepare", "--workload", "serve-resident", "--seed",
                            str(seed), "--scale", "0.01", "--dir", d],
                           check=True, capture_output=True)
            with open(os.path.join(d, "plan.json")) as f:
                p = json.load(f)
            return p, collections.Counter((q["target"], q["origin"], q["k"]) for q in p["queries"])

        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            a, shape_a = plan(1, os.path.join(tmp, "a"))
            again, _ = plan(1, os.path.join(tmp, "again"))
            b, shape_b = plan(2, os.path.join(tmp, "b"))
        self.assertEqual([q["xml"] for q in a["queries"]], [q["xml"] for q in again["queries"]])
        self.assertNotEqual([q["xml"] for q in a["queries"]], [q["xml"] for q in b["queries"]])
        self.assertEqual(shape_a, shape_b)


if __name__ == "__main__":
    unittest.main()
