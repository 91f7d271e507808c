#!/usr/bin/env python3
"""End-to-end TASM benchmark.

Runs one seeded workload against the shipped `tasm` binary, checks every
answer, and prints the end-to-end metrics; with `--trace 1` it prints the
per-layer metrics of a traced run instead. Run it from the repository
root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md):

    serve-resident  `tasm serve` with two resident documents, 2 clients
    corpus          `tasm corpus build`, then `tasm serve --corpus`, 1 client

It builds `tasm` and the `perfbench` helper with cargo (target directory:
$CARGO_TARGET_DIR, default .bench_build), writes its inputs and traces
under .bench_work/, and prints a readable report followed by one JSON
line: {"correct", "attempted", "failed", "metrics"}. Any error exits
non-zero without that line.
"""

import argparse
import collections
import itertools
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_work")

WHY = {
    "serve-resident": "set-up parses the XML documents into resident trees, so "
    "no request parses: time sits in the "
    "scan engine, cascade, kernels, batch lanes and admission; out-of-document, "
    "deep and large-k queries put kernel work in the tail; it bypasses the index",
    "corpus": "set-up writes an indexed corpus (parse, index build, fsync) and "
    "queries read it through postings, regions and the shard scheduler; it "
    "bypasses the ring-buffer scan",
}
# Daemon deadline per request: generous, so only a real stall times out.
TIMEOUT_MS = 10000
# The traced run replays each sampled query this many times over the wire.
PROBE_REPS = 3
# Set-ups per run. The run alternates set-up and load in segments, so the set-up median and the latency samples cover the same
# stretch of time: the machine's speed drifts over seconds, and set-ups
# taken in one burst all land in the same phase.
SEGMENTS = {"serve-resident": 10, "corpus": 8}


class BenchError(Exception):
    pass


# ---------------------------------------------------------------- build


def build():
    """Builds `tasm` and `perfbench`; returns their paths."""
    if not os.path.exists(os.path.join(ROOT, "Cargo.toml")):
        raise BenchError("run from the repository root: no Cargo.toml here")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "tasm-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))
    return (os.path.join(target, "release", "tasm"),
            os.path.join(target, "release", "perfbench"))


# ------------------------------------------------------------ processes


def run_timed(argv):
    """Runs argv to completion, its output to our stderr. Returns (wall
    seconds, exit code, peak RSS in KiB) — the RSS from the child's own
    rusage."""
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[(os.POSIX_SPAWN_DUP2, 2, 1)])
    _, status, usage = os.wait4(pid, 0)
    return time.perf_counter() - t0, os.waitstatus_to_exitcode(status), usage.ru_maxrss


class Daemon:
    """A `tasm serve` process on a Unix socket, ready once it answers PING."""

    def __init__(self, tasm, sock, args, log):
        if os.path.exists(sock):
            os.unlink(sock)
        t0 = time.perf_counter()
        with open(log, "ab") as err:
            self.proc = subprocess.Popen([tasm, "serve", "--socket", sock] + args,
                                         stdout=subprocess.DEVNULL, stderr=err)
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"tasm serve exited with {self.proc.returncode}; see {log}")
            if time.perf_counter() - t0 > 120:
                self.stop()
                raise BenchError("tasm serve did not answer PING within 120 s")
            try:
                with Client(sock, 5) as c:
                    if c.request("PING") == ["PONG"]:
                        break
            except OSError:
                time.sleep(0.002)
        self.ready_s = time.perf_counter() - t0

    def peak_rss_kib(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise BenchError("no VmHWM for tasm serve")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Client:
    """One connection speaking the daemon's line protocol."""

    def __init__(self, sock, timeout_s):
        self.s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.s.settimeout(timeout_s)
        try:
            self.s.connect(sock)
        except OSError:
            self.s.close()
            raise
        self.f = self.s.makefile("rb")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        self.f.close()
        self.s.close()

    def _line(self):
        line = self.f.readline()
        if not line.endswith(b"\n"):
            raise ConnectionError("connection closed mid-response")
        return line[:-1].decode()

    def request(self, line):
        """Sends one request; returns the response lines (through END)."""
        self.s.sendall(line.encode() + b"\n")
        lines = [self._line()]
        head = lines[0].split()
        if head[0] in ("OK", "DOCS") and len(head) > 1 and head[1].isdigit():
            while lines[-1] != "END":
                lines.append(self._line())
        return lines


# ------------------------------------------------------- answer checking


def parse_wire(lines):
    """(rows, failure kind or None) of a daemon response."""
    head = lines[0]
    if head.startswith("BUSY"):
        return None, "busy"
    if head.startswith("ERR"):
        kind = head.split()[1] if len(head.split()) > 1 else "unknown"
        return None, "timeout" if kind == "timeout" else "err-" + kind
    if not head.startswith("OK") or lines[-1] != "END":
        return None, "proto"
    if "degraded=" in head:
        return None, "degraded"
    return [line.split() for line in lines[1:-1] if not line.startswith("STATS")], None


def check_rows(query, rows, subtrees):
    """Checks one answer; returns None if it is right, else what is wrong.

    The answer has k rows (fewer only when the documents hold fewer
    subtrees), ranks 1..n, distances that never decrease, distance 0 at
    the top for a query cut from the document, and equals the reference
    answer row for row."""
    n = min(query["k"], subtrees)
    if len(rows) != n:
        return f"{len(rows)} rows, expected {n}"
    if [r[0] for r in rows] != [str(i) for i in range(1, n + 1)]:
        return "ranks are not 1..n"
    dists = [float(r[2]) for r in rows]
    if any(a > b for a, b in zip(dists, dists[1:])):
        return "distances decrease down the ranking"
    if query["origin"] == "cut" and dists and dists[0] != 0:
        return "query cut from the document has top-1 distance " + rows[0][2]
    for i, (got, want) in enumerate(zip(rows, query["expected"])):
        if got[1:] != want:
            return f"row {i + 1}: got {' '.join(got[1:])}, expected {' '.join(want)}"
    return None


# ------------------------------------------------------------- workloads


def percentile(xs, p):
    """Linear-interpolated percentile, p in [0, 100]."""
    xs = sorted(xs)
    if not xs:
        raise BenchError("no successful samples")
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Run:
    """One benchmark run: inputs, processes, samples and failures."""

    def __init__(self, args, tasm, harness):
        self.args = args
        self.tasm = tasm
        self.harness = harness
        self.dir = os.path.join(WORK, args.workload)
        self.sock = os.path.relpath(os.path.join(self.dir, "tasm.sock"))
        self.log = os.path.join(self.dir, "tasm.log")
        self.daemon = None
        self.samples = []  # (query index, seconds, failure kind or None)
        self.failures = collections.Counter()
        self.details = []
        self.rss_kib = 0
        self.setup_s = []
        self.cycles = {}
        self.spans = []
        self.span_lock = threading.Lock()

    # inputs

    def prepare(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        subprocess.run([self.harness, "prepare", "--workload", self.args.workload,
                        "--seed", str(self.args.seed), "--scale", str(self.args.scale),
                        "--dir", self.dir], check=True, timeout=150, stdout=sys.stderr)
        # Written files must not be flushed to disk while timing runs.
        os.sync()
        with open(os.path.join(self.dir, "plan.json")) as f:
            self.plan = json.load(f)
        self.queries = self.plan["queries"]
        self.doc_bytes = {d["name"]: d["bytes"] for d in self.plan["docs"]}
        self.doc_nodes = {d["name"]: d["nodes"] for d in self.plan["docs"]}
        if self.plan["corpus"]:
            self.doc_bytes = {"corpus": sum(self.doc_bytes.values())}
            self.doc_nodes = {"corpus": sum(self.doc_nodes.values())}

    def next_query(self, stream):
        """The next query index of one caller's seeded, shuffled cycle of
        the pool. The cycle runs on across load segments, so a run covers
        the pool instead of replaying its head."""
        if stream not in self.cycles:
            idx = list(range(len(self.queries)))
            random.Random(self.args.seed * 1000 + stream).shuffle(idx)
            self.cycles[stream] = itertools.cycle(idx)
        return next(self.cycles[stream])

    def wire_line(self, q):
        return f"QUERY doc={q['target']} k={q['k']} timeout={TIMEOUT_MS} q={q['xml']}"

    # set-up

    def setup(self):
        """(Re)starts the daemon, building the corpus first for `corpus`."""
        if self.daemon:
            self.rss_kib = max(self.rss_kib, self.daemon.peak_rss_kib())
            self.daemon.stop()
        took = 0.0
        if self.args.workload == "corpus":
            store = os.path.join(self.dir, "corpus-store")
            shutil.rmtree(store, ignore_errors=True)
            argv = [self.tasm, "corpus", "build", "--dir", store]
            for d in self.plan["docs"]:
                argv += ["--doc", f"{d['name']}={d['path']}"]
            took, code, rss = run_timed(argv)
            if code:
                raise BenchError("tasm corpus build failed")
            self.rss_kib = max(self.rss_kib, rss)
            serve = ["--corpus", f"corpus={store}", "--workers", "1", "--corpus-threads", "2"]
        else:
            serve = ["--workers", "2"]
            for d in self.plan["docs"]:
                serve += ["--doc", f"{d['name']}={d['path']}"]
        self.daemon = Daemon(self.tasm, self.sock, serve, self.log)
        self.setup_s.append(took + self.daemon.ready_s)

    # load

    def failed(self):
        return sum(1 for _, _, fail in self.samples if fail)

    def record(self, qi, seconds, fail, detail=None):
        self.samples.append((qi, seconds, fail))
        if fail:
            self.failures[fail] += 1
            if detail and len(self.details) < 5:
                self.details.append(f"{self.queries[qi]['id']}: {detail}")

    def span(self, name, req, parent, start, end=None):
        """Records a span (end it later with `end_span` if `end` is None)."""
        with self.span_lock:
            self.spans.append({"id": len(self.spans), "name": name, "req": req,
                               "parent": parent, "start_ns": start, "end_ns": end})
            return len(self.spans) - 1

    def end_span(self, span):
        self.spans[span]["end_ns"] = time.perf_counter_ns()

    def load(self, seconds, traced=False):
        """Closed loop for `seconds`: each caller waits for its answer
        before it sends the next query. Returns (elapsed s, index of the
        first sample)."""
        first = len(self.samples)
        # A traced loop records one span per query under a span of the
        # whole loop.
        phase = self.span("e2e.load", 0, None, time.perf_counter_ns()) if traced else None
        t0 = time.perf_counter()
        deadline = t0 + seconds
        callers = 2 if self.args.workload == "serve-resident" else 1
        replies = [[] for _ in range(callers)]
        errors = []

        def caller(c):
            try:
                self.caller(c, deadline, phase, replies[c])
            except Exception as e:  # surfaces in the main thread
                errors.append(e)

        threads = [threading.Thread(target=caller, args=(c,)) for c in range(callers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0
        if traced:
            self.end_span(phase)
        if errors:
            raise errors[0]
        # Answers are checked after the timed loop.
        for qi, wall, lines in (r for rs in replies for r in rs):
            if lines is None:
                self.record(qi, wall, "timeout", "no reply before the client timeout")
                continue
            rows, fail = parse_wire(lines)
            wrong = None
            if fail is None:
                q = self.queries[qi]
                wrong = check_rows(q, rows, self.doc_nodes[q["target"]])
                fail = "wrong" if wrong else None
            self.record(qi, wall, fail, wrong or (lines[0] if fail else None))
        return elapsed, first

    def caller(self, c, deadline, phase, out):
        client = Client(self.sock, TIMEOUT_MS / 1000 + 5)
        i = 0
        try:
            while time.perf_counter() < deadline:
                qi = self.next_query(c + 1)
                i += 1
                start = time.perf_counter_ns()
                try:
                    lines = client.request(self.wire_line(self.queries[qi]))
                except TimeoutError:
                    lines = None
                    client.close()
                    client = Client(self.sock, TIMEOUT_MS / 1000 + 5)
                end = time.perf_counter_ns()
                if phase is not None:
                    self.span("e2e.request", c * 1_000_000 + i, phase, start, end)
                out.append((qi, (end - start) / 1e9, lines))
        finally:
            client.close()

    def stop(self):
        if self.daemon:
            self.daemon.stop()
            self.daemon = None

    # metrics

    def end_to_end(self, elapsed, first):
        ok = [(qi, s) for qi, s, fail in self.samples[first:] if not fail]
        lat_ms = [s * 1e3 for _, s in ok]
        mb = sum(self.doc_bytes[self.queries[qi]["target"]] for qi, _ in ok) / 1e6
        attempted = len(self.samples) - first
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "latency_p50_ms": (percentile(lat_ms, 50), "ms"),
            "latency_p90_ms": (percentile(lat_ms, 90), "ms"),
            "throughput_qps": (len(ok) / elapsed, "1/s"),
            "scan_mb_per_s": (mb / (sum(lat_ms) / 1e3), "MB/s"),
            "peak_rss_mib": (self.rss_kib / 1024, "MiB"),
            "answered_frac": (len(ok) / attempted, "frac"),
        }

    def probe(self):
        """Sequential round trips of the layer-sampled queries on an idle
        daemon: the wire time the traced run compares with in-process
        replays. Returns {query id: median seconds}."""
        rtt = {}
        with Client(self.sock, TIMEOUT_MS / 1000 + 5) as client:
            for qi, q in enumerate(self.queries):
                if not q["layer"]:
                    continue
                times = []
                for _ in range(PROBE_REPS):
                    t0 = time.perf_counter()
                    lines = client.request(self.wire_line(q))
                    wall = time.perf_counter() - t0
                    rows, fail = parse_wire(lines)
                    wrong = None if fail else check_rows(q, rows, self.doc_nodes[q["target"]])
                    self.record(qi, wall, fail or ("wrong" if wrong else None), wrong or fail)
                    times.append(wall)
                rtt[q["id"]] = statistics.median(times)
        return rtt


def header(run):
    """What every result records: the seed, the documents, the query mix,
    the core count and why the workload exists."""
    plan = run.plan
    mix = collections.Counter(q["origin"] for q in plan["queries"])
    sizes = dict(sorted(collections.Counter(q["size"] for q in plan["queries"]).items()))
    ks = dict(sorted(collections.Counter(q["k"] for q in plan["queries"]).items()))
    ref = plan["reference"]
    info = {
        "workload": run.args.workload,
        "why": WHY[run.args.workload],
        "seed": run.args.seed,
        "scale": run.args.scale,
        "nproc": os.cpu_count(),
        "documents": [{k: d[k] for k in ("name", "generator", "nodes", "bytes")}
                      for d in plan["docs"]],
        "query_mix": {"queries": len(plan["queries"]), "origin": dict(mix), "size": sizes, "k": ks},
        "reference": ref,
    }
    lines = [f"# {run.args.workload}, seed {run.args.seed}, {os.cpu_count()} cores: "
             f"{WHY[run.args.workload]}"]
    for d in plan["docs"]:
        lines.append(f"#   document {d['name']}: {d['generator']}-like, {d['nodes']} nodes, "
                     f"{d['bytes'] / 1e6:.2f} MB")
    lines.append(f"#   queries: {len(plan['queries'])} "
                 f"({', '.join(f'{k} {v}' for k, v in mix.items())}); |Q| {sizes}; k {ks}")
    if plan["corpus"]:
        lines.append("#   every answer is checked against per-shard scans merged on the "
                     "corpus rank key")
    else:
        lines.append(f"#   every answer is checked against a reference answer; the reference "
                     f"matched tasm_dynamic on "
                     f"{ref['dynamic_checked'] - ref['dynamic_mismatches']}"
                     f"/{ref['dynamic_checked']} sampled queries")
    return lines, info


def failure_notes(run):
    lines = [f"#   {run.failed()} of {len(run.samples)} queries failed; "
             f"by kind: {dict(run.failures) or 'none'}"]
    return lines + [f"#   failure {d}" for d in run.details]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="document size factor (the smoke test uses a tiny one)")
    args = ap.parse_args()

    tasm, harness = build()
    run = Run(args, tasm, harness)
    try:
        run.prepare()
        if run.plan["reference"]["dynamic_mismatches"]:
            raise BenchError("the reference answers disagree with tasm_dynamic")
        report, metrics = (traced if args.trace else untraced)(run)
    finally:
        run.stop()
    print(report)
    print(json.dumps({"correct": run.failures["wrong"] == 0, "attempted": len(run.samples),
                      "failed": run.failed(), "metrics": metrics}))


def untraced(run):
    """The end-to-end run: set-up and the timed closed loop, alternating
    in segments."""
    args = run.args
    segments = SEGMENTS[args.workload]
    elapsed, first = 0.0, len(run.samples)
    for _ in range(segments):
        run.setup()
        took, _ = run.load(args.seconds / segments)
        elapsed += took
    if run.daemon:
        run.rss_kib = max(run.rss_kib, run.daemon.peak_rss_kib())
    run.stop()
    e2e = run.end_to_end(elapsed, first)
    lines, info = header(run)
    lines.append(f"#   {len(run.samples)} queries in {elapsed:.1f} s")
    lines += [f"{name:<40} {value:>16.4f} {unit}" for name, (value, unit) in e2e.items()]
    lines.append(f"{'failed_frac':<40} {run.failed() / len(run.samples):>16.4f} frac")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    with open(os.path.join(run.dir, f"result-{args.seed}.json"), "w") as f:
        json.dump({"info": info, "failures": dict(run.failures), "metrics": metrics,
                   "setup_s": run.setup_s, "samples": run.samples}, f, indent=1)
    return "\n".join(lines + failure_notes(run)), metrics


def traced(run):
    """The traced run: the end-to-end loop untraced then traced (their
    p50 difference is the tracing overhead), wire round trips of the
    layer sample, and the in-process layer run."""
    args = run.args
    run.setup()
    half = args.seconds / 2
    elapsed, first = run.load(half)
    base = run.end_to_end(elapsed, first)
    elapsed, first = run.load(half, traced=True)
    with_spans = run.end_to_end(elapsed, first)
    rtt = run.probe()
    run.stop()
    wire = collections.Counter(run.failures)

    out = subprocess.run([run.harness, "layers", "--dir", run.dir], check=True,
                         timeout=150, capture_output=True, text=True)
    layers = json.loads(out.stdout.strip().splitlines()[-1])
    values = dict(layers["metrics"])
    replay = layers["replay_ms"]
    values["tasm-core.server.overhead_ms"] = statistics.median(
        rtt[q] * 1e3 - replay[q] for q in rtt)
    values["tasm-core.server.busy"] = wire["busy"]
    values["tasm-core.server.timeouts"] = wire["timeout"]
    values["tasm-core.server.errors"] = sum(v for k, v in wire.items() if k.startswith("err-"))
    p50, p50_traced = base["latency_p50_ms"][0], with_spans["latency_p50_ms"][0]
    values["trace.overhead_ms"] = p50_traced - p50
    values["trace.overhead_frac"] = (p50_traced - p50) / p50
    values["failed_frac"] = run.failed() / len(run.samples)

    os.makedirs(os.path.join(run.dir, "trace"), exist_ok=True)
    with open(os.path.join(run.dir, "trace", "e2e-spans.jsonl"), "w") as f:
        for s in run.spans:
            f.write(json.dumps(s) + "\n")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        units = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"traced run lacks {sorted(missing)}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    lines, _ = header(run)
    lines.append(f"#   traced run; spans in {os.path.relpath(os.path.join(run.dir, 'trace'))}")
    lines += [f"{name:<40} {m['value']:>16.4f} {m['unit']}" for name, m in metrics.items()]
    return "\n".join(lines + failure_notes(run)), metrics


if __name__ == "__main__":
    try:
        main()
    except (BenchError, subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
