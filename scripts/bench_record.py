#!/usr/bin/env python3
"""Appends one perfbench snapshot to BENCH_tasm.json.

    python3 scripts/bench_record.py --label "<what this snapshot is>"

Run it from the repository root, on a clean checkout of the commit to
record. It reads the workloads, the run length and the end-to-end metric
names from BENCHMARK.json, then makes 5 rounds; each round runs

    python3 perfbench/run.py --workload <w> --seed 1 --seconds <run_seconds>

once per workload, the workload order reversed every other round so
that neither workload always runs first. If every run exits 0 and
reports `correct: true` with no failed request, it appends one snapshot
(label, commit, cores, date, and per workload and metric the
min/median/max over the rounds) to the file's `history`, keeping every
older entry as it was, and replaces the file atomically. Otherwise it
writes nothing and exits 1.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import tempfile

SPEC = "BENCHMARK.json"
RECORD = "BENCH_tasm.json"
ROUNDS = 5
SEED = 1
COMMAND = "python3 scripts/bench_record.py --label <text>"
NOTE = (
    "Benchmark of record: one snapshot per entry, new snapshots appended. "
    "Entries with `runs` are perfbench end-to-end runs (BENCHMARK.json "
    "workloads, min/median/max over `runs` alternated rounds, on `cores` "
    "cores). Older entries, with `scale`, are per-candidate summaries "
    "from a since-removed mode of the `experiments` binary, taken on a "
    "1-core runner; they are not comparable with the perfbench entries."
)


class RecordError(Exception):
    pass


def load_spec(path=SPEC):
    """(workload names, run seconds, end-to-end metric names)."""
    with open(path) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    return workloads, spec["run_seconds"], metrics


def round_orders(workloads, rounds=ROUNDS):
    """The workload order of each round: reversed every other round."""
    return [list(workloads) if r % 2 == 0 else list(reversed(workloads))
            for r in range(rounds)]


def run_perfbench(workload, seconds):
    """Runs one perfbench run; returns (exit code, stdout)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def parse_result(workload, code, stdout):
    """The checked result line of one run: the JSON object run.py prints
    last. Raises RecordError for a failed, wrong or incomplete run."""
    if code != 0:
        raise RecordError(f"{workload}: perfbench exited {code}")
    lines = [l for l in stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RecordError(f"{workload}: no result line in perfbench's output")
    if result.get("correct") is not True:
        raise RecordError(f"{workload}: perfbench reports correct: false")
    if result.get("failed", 0) > 0:
        raise RecordError(f"{workload}: {result['failed']} failed request(s)")
    return result


def summarize(results, metrics):
    """Per metric of one workload's results: min/median/max and unit."""
    out = {}
    for name in metrics:
        try:
            values = [r["metrics"][name]["value"] for r in results]
        except KeyError:
            raise RecordError(f"a run lacks the metric {name}")
        out[name] = {
            "min": min(values),
            "median": statistics.median(values),
            "max": max(values),
            "unit": results[0]["metrics"][name]["unit"],
        }
    return out


def measure(workloads, seconds, metrics, runner=run_perfbench, rounds=ROUNDS):
    """Runs every round; returns {workload: summary}. Stops at the first
    run that fails."""
    results = {w: [] for w in workloads}
    for r, order in enumerate(round_orders(workloads, rounds)):
        for w in order:
            print(f"bench_record: round {r + 1}/{rounds}: {w}", file=sys.stderr)
            results[w].append(parse_result(w, *runner(w, seconds)))
    return {w: summarize(results[w], metrics) for w in workloads}


def git(*args):
    return subprocess.run(["git", *args], stdout=subprocess.PIPE, text=True,
                          check=True).stdout.strip()


def snapshot(label, summaries, seconds, rounds=ROUNDS):
    """The history entry for one measurement, stamped with where and
    when it was taken."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count()
    return {
        "label": label,
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "cores": cores,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seed": SEED,
        "seconds": seconds,
        "runs": rounds,
        "workloads": [{"name": w, "metrics": m} for w, m in summaries.items()],
    }


def append(path, entry):
    """Appends `entry` to the record's history and names this script as
    its command, replacing the file atomically."""
    with open(path) as f:
        record = json.load(f)
    record["command"] = COMMAND
    record["note"] = NOTE
    record.setdefault("history", []).append(entry)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               prefix=".bench_record.")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def record(path, label, workloads, seconds, metrics, runner=run_perfbench):
    """Measures every workload and appends the snapshot to `path`; on a
    failed run raises RecordError before anything is written."""
    summaries = measure(workloads, seconds, metrics, runner)
    append(path, snapshot(label, summaries, seconds))
    return summaries


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="what this snapshot is")
    args = ap.parse_args()
    try:
        summaries = record(RECORD, args.label, *load_spec())
    except RecordError as e:
        print(f"bench_record: {e}; {RECORD} left unchanged", file=sys.stderr)
        sys.exit(1)
    for w, m in summaries.items():
        cells = ", ".join(f"{k} {v['median']:.4g}" for k, v in m.items())
        print(f"{w}: {cells}")


if __name__ == "__main__":
    main()
