"""Tests of scripts/bench_record.py on canned perfbench output.

    python3 -m unittest scripts/test_bench_record.py

No perfbench run is started: a fake runner returns the report text and
JSON result line that perfbench/run.py prints.
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_record  # noqa: E402

METRICS = ["latency_p50_ms", "answered_frac"]


def canned(p50, correct=True, failed=0):
    """What run.py prints for one run: a report, then the result line."""
    result = {
        "correct": correct,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "latency_p50_ms": {"value": p50, "unit": "ms"},
            "answered_frac": {"value": 1.0, "unit": "frac"},
        },
    }
    return "# workload report\nlatency_p50_ms  1.0 ms\n" + json.dumps(result) + "\n"


class FakeRunner:
    """Answers each call with the next canned output of its workload and
    logs the call order."""

    def __init__(self, outputs):
        self.outputs = {w: list(o) for w, o in outputs.items()}
        self.calls = []

    def __call__(self, workload, seconds):
        self.calls.append(workload)
        out = self.outputs[workload].pop(0)
        return out if isinstance(out, tuple) else (0, out)


OLD = {
    "bench": "tasm_postorder_stream",
    "command": "an older command",
    "note": "an older note",
    "history": [
        {"label": "first", "scale": 4, "workloads": [{"name": "a", "seconds": 0.5}]},
        {"label": "second", "scale": 4, "workloads": [{"name": "b", "seconds": 0.25}]},
    ],
}


class BenchRecordTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.path = os.path.join(self.dir.name, "BENCH_tasm.json")
        with open(self.path, "w") as f:
            json.dump(OLD, f, indent=1)

    def tearDown(self):
        self.dir.cleanup()

    def test_medians_min_and_max_per_workload(self):
        runner = FakeRunner({
            "w1": [canned(v) for v in (5.0, 1.0, 3.0, 2.0, 4.0)],
            "w2": [canned(v) for v in (10.0, 30.0, 20.0, 50.0, 40.0)],
        })
        got = bench_record.measure(["w1", "w2"], 30, METRICS, runner)
        self.assertEqual(got["w1"]["latency_p50_ms"],
                         {"min": 1.0, "median": 3.0, "max": 5.0, "unit": "ms"})
        self.assertEqual(got["w2"]["latency_p50_ms"],
                         {"min": 10.0, "median": 30.0, "max": 50.0, "unit": "ms"})
        self.assertEqual(got["w1"]["answered_frac"]["median"], 1.0)

    def test_rounds_alternate_the_workload_order(self):
        runner = FakeRunner({w: [canned(1.0)] * 5 for w in ("w1", "w2")})
        bench_record.measure(["w1", "w2"], 30, METRICS, runner)
        self.assertEqual(runner.calls, ["w1", "w2", "w2", "w1", "w1", "w2",
                                        "w2", "w1", "w1", "w2"])

    def test_append_keeps_older_entries_entry_for_entry(self):
        entry = {"label": "new", "runs": 5, "workloads": []}
        bench_record.append(self.path, entry)
        with open(self.path) as f:
            record = json.load(f)
        self.assertEqual(record["history"][:2], OLD["history"])
        self.assertEqual(record["history"][2], entry)
        self.assertEqual(len(record["history"]), 3)
        self.assertEqual(record["bench"], OLD["bench"])
        self.assertEqual(record["command"], bench_record.COMMAND)
        self.assertEqual(record["note"], bench_record.NOTE)
        self.assertEqual(os.listdir(self.dir.name), ["BENCH_tasm.json"])

    def test_a_failing_run_writes_nothing(self):
        with open(self.path, "rb") as f:
            before = f.read()
        for bad in (canned(1.0, correct=False), canned(1.0, failed=2), (1, ""),
                    (0, "report without a result line\n")):
            runner = FakeRunner({"w1": [canned(1.0), bad] + [canned(1.0)] * 3})
            with self.assertRaises(bench_record.RecordError):
                bench_record.record(self.path, "bad", ["w1"], 30, METRICS, runner)
            self.assertEqual(len(runner.calls), 2, "stops at the failing run")
        with open(self.path, "rb") as f:
            self.assertEqual(f.read(), before)
        self.assertEqual(os.listdir(self.dir.name), ["BENCH_tasm.json"])

    def test_a_recorded_snapshot_is_stamped(self):
        runner = FakeRunner({"w1": [canned(v) for v in (2.0, 1.0, 3.0, 5.0, 4.0)]})
        bench_record.record(self.path, "stamped", ["w1"], 30, METRICS, runner)
        with open(self.path) as f:
            entry = json.load(f)["history"][-1]
        self.assertEqual(entry["label"], "stamped")
        self.assertEqual((entry["seed"], entry["seconds"], entry["runs"]), (1, 30, 5))
        self.assertEqual(len(entry["commit"]), 40)
        self.assertIsInstance(entry["dirty"], bool)
        self.assertGreaterEqual(entry["cores"], 1)
        self.assertEqual(entry["workloads"][0]["name"], "w1")
        self.assertEqual(entry["workloads"][0]["metrics"]["latency_p50_ms"]["median"], 3.0)

    def test_spec_is_read_from_benchmark_json(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        workloads, seconds, metrics = bench_record.load_spec(
            os.path.join(root, "BENCHMARK.json"))
        self.assertIn("serve-resident", workloads)
        self.assertGreater(seconds, 0)
        self.assertIn("latency_p50_ms", metrics)


if __name__ == "__main__":
    unittest.main()
