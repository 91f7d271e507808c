//! Streaming shard hand-off: the multi-threaded topology of
//! [`tasm_batch`](crate::tasm_batch) — batch×parallel TASM over a
//! postorder **stream**, the document never resident in memory.
//!
//! One [`ScanEngine`] pass over the stream (the same `O(τ)` prefix ring
//! buffer as the sequential path) derives the candidates, and instead
//! of evaluating them inline it copies each candidate's postorder
//! entries into a **segment** — a flat `(label, size)` buffer holding a
//! run of complete candidate subtrees plus their document root numbers
//! — and hands full segments to worker threads over a bounded pipe. It
//! serves streams only: a resident tree has its candidates in its size
//! column already, so
//! [`tasm_resident_batch`](crate::tasm_resident_batch) splits it into
//! postorder blocks for its workers with no hand-off at all.
//!
//! Each worker evaluates its segments' candidates in place, as
//! [`TreeView`] slices of the segment (subtree sizes are invariant
//! under renumbering, so the copied columns are the candidate's local
//! postorder as-is), and fans every candidate out to N per-query
//! evaluation lanes, exactly as the inline shared scan does. Per-lane
//! heaps merge with
//! [`TopKHeap::merge`](crate::TopKHeap::merge); the rank key is a total
//! order, so the rankings are **identical** to the sequential ones no
//! matter how candidates land on workers (pinned by
//! `tests/differential.rs`).
//!
//! # Memory bound
//!
//! The pipe owns a fixed pool of `2·threads + 1` segments of
//! `O(clamp(τ_scan, 1024, 2¹⁸))` entries each (a candidate larger than
//! the budget grows its segment on demand, bounded by the candidate's
//! actual size); consumed segments return to the producer through a
//! free list, and every buffer (segments, lane matrices) grows but
//! never shrinks. End to end the scan therefore runs in
//! `O(threads · min(τ_scan, max candidate) + Σ m_i² )` memory —
//! document-independent — and its steady state performs **zero heap
//! allocations per candidate** (regression-tested with the counting
//! allocator in `tasm-bench`). Backpressure is the free list: when all
//! segments are in flight the producer blocks until a worker recycles
//! one.
//!
//! Only `std::thread::scope`, `Mutex` and `Condvar` are used — no
//! external dependencies, no unbounded channels.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

use crate::batch::{BatchOutput, BatchQuery, StreamIntegrityError, StreamScanError};
use crate::deadline::Deadline;
use crate::engine::{CandidateSink, ScanEngine, ScanStats};
use crate::lane::{merge_shard_results, scan_tau_of, LaneSet, ShardResult};
use crate::run::Run;
use crate::workspace::{scratch_fits_cap, LaneScratch};
use tasm_tree::{LabelId, NodeId, PostorderQueue, Tree, TreeView};

/// Locks `mutex`, recovering the guard if a peer poisoned it while
/// unwinding: the pipe's abort flag — not poisoning — is the signal
/// that a side died, and the originating panic payload (preserved by
/// the workers' `catch_unwind`) must reach the caller instead of a
/// secondary "poisoned" panic on an innocent thread.
fn lock_recovering<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Segments are flushed once they hold at least this many entries (a
/// single candidate larger than the floor still travels whole — the
/// buffer grows to the candidate's real size at most). Batching many
/// small candidates per hand-off amortizes the pipe synchronization.
const SEGMENT_MIN_NODES: usize = 1024;

/// Upper bound on the flush budget (and thus on each segment's eager
/// reservation, ~12 bytes per entry): a saturated τ must not pre-claim
/// gigabytes up front. With the `2T + 1` pool this caps the pipe at
/// roughly `(2T + 1) · 3 MiB`; larger individual candidates still grow
/// their segment on demand, bounded by the candidate's actual size.
const SEGMENT_MAX_NODES: usize = 1 << 18;

/// One hand-off unit: a run of complete candidate subtrees in stream
/// order, stored as parallel postorder label and size columns.
#[derive(Debug, Default)]
struct Segment {
    /// `(document root postorder, candidate length)` per candidate.
    roots: Vec<(u32, u32)>,
    /// Concatenated labels of all candidates.
    labels: Vec<LabelId>,
    /// Concatenated local subtree sizes, parallel to `labels`.
    sizes: Vec<u32>,
}

impl Segment {
    fn with_capacity(nodes: usize) -> Self {
        Segment {
            roots: Vec::with_capacity(nodes / 2 + 1),
            labels: Vec::with_capacity(nodes + 1),
            sizes: Vec::with_capacity(nodes + 1),
        }
    }

    fn clear(&mut self) {
        self.roots.clear();
        self.labels.clear();
        self.sizes.clear();
    }
}

/// The bounded SPMC hand-off pipe: the producer pushes full segments
/// into `ready`, any worker pops the next one (work stealing — shard
/// balance is automatic), and consumed segments return through the
/// `free` pool. Buffers only ever *move*, so the steady state
/// synchronizes without allocating.
struct Pipe {
    ready: Mutex<ReadyState>,
    ready_cv: Condvar,
    free: Mutex<Vec<Segment>>,
    free_cv: Condvar,
    /// Set when either side of the pipe unwinds: both blocking waits
    /// bail out instead of deadlocking on a peer that will never come
    /// back (the panic then propagates through `thread::scope`).
    aborted: AtomicBool,
}

struct ReadyState {
    queue: VecDeque<Segment>,
    done: bool,
}

impl Pipe {
    /// A pipe owning `pool` pre-sized segments.
    fn new(pool: usize, segment_nodes: usize) -> Self {
        Pipe {
            ready: Mutex::new(ReadyState {
                queue: VecDeque::with_capacity(pool),
                done: false,
            }),
            ready_cv: Condvar::new(),
            free: Mutex::new(
                (0..pool)
                    .map(|_| Segment::with_capacity(segment_nodes))
                    .collect(),
            ),
            free_cv: Condvar::new(),
            aborted: AtomicBool::new(false),
        }
    }

    /// Marks the pipe dead and wakes every waiter on both sides.
    ///
    /// Each notify happens while holding the matching mutex: a naked
    /// notify could land in the gap between a waiter's abort check and
    /// its `wait()`, be lost, and turn the panic this exists for into a
    /// hang. Lock results are deliberately not `expect`ed — abort runs
    /// during unwinding, where a poisoned mutex must not double-panic.
    fn abort(&self) {
        self.aborted.store(true, Ordering::SeqCst);
        let ready = self.ready.lock();
        self.ready_cv.notify_all();
        drop(ready);
        let free = self.free.lock();
        self.free_cv.notify_all();
        drop(free);
    }

    fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::SeqCst)
    }

    /// Producer: publishes a full segment to the workers.
    fn send(&self, seg: Segment) {
        lock_recovering(&self.ready).queue.push_back(seg);
        self.ready_cv.notify_one();
    }

    /// Producer: marks the stream exhausted and wakes every worker.
    fn finish(&self) {
        lock_recovering(&self.ready).done = true;
        self.ready_cv.notify_all();
    }

    /// Worker: takes the next segment, blocking while the stream is
    /// still live; `None` once the producer finished and the queue
    /// drained.
    fn recv(&self) -> Option<Segment> {
        let mut state = lock_recovering(&self.ready);
        loop {
            if self.is_aborted() {
                // A peer died; exit so its panic can propagate.
                return None;
            }
            if let Some(seg) = state.queue.pop_front() {
                return Some(seg);
            }
            if state.done {
                return None;
            }
            state = self
                .ready_cv
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Worker: returns a consumed segment to the pool (capacity kept).
    fn recycle(&self, mut seg: Segment) {
        seg.clear();
        lock_recovering(&self.free).push(seg);
        self.free_cv.notify_one();
    }

    /// Producer: acquires an empty segment, blocking until a worker
    /// recycles one (the backpressure that bounds total memory).
    ///
    /// The abort assertion below fires on the producer when a worker
    /// dies mid-stream; the entry point catches it and re-raises the
    /// *worker's* payload, so the caller sees the original panic.
    fn take_free(&self) -> Segment {
        let mut free = lock_recovering(&self.free);
        loop {
            assert!(
                !self.is_aborted(),
                "stream shard worker died; aborting the scan"
            );
            if let Some(seg) = free.pop() {
                return seg;
            }
            free = self
                .free_cv
                .wait(free)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Unwind guard held by both sides of the pipe: if its holder panics,
/// the pipe is aborted so the other side stops waiting and the panic
/// reaches `thread::scope` instead of deadlocking the scan.
struct AbortOnPanic<'p>(&'p Pipe);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abort();
        }
    }
}

/// Producer-side [`CandidateSink`]: copies every candidate the scan
/// emits into the segment in hand and flushes it downstream once the
/// node budget is reached.
struct SegmentSink<'p> {
    pipe: &'p Pipe,
    current: Segment,
    budget: usize,
}

impl CandidateSink for SegmentSink<'_> {
    fn consume(&mut self, cand: &Tree, root: NodeId, _stats: &mut ScanStats) {
        self.current.roots.push((root.post(), cand.len() as u32));
        self.current.labels.extend_from_slice(cand.labels());
        self.current.sizes.extend_from_slice(cand.sizes());
        if self.current.labels.len() >= self.budget {
            let full = std::mem::replace(&mut self.current, self.pipe.take_free());
            self.pipe.send(full);
        }
    }
}

/// One streaming shard worker: consumes segments until the pipe drains,
/// evaluating every candidate in place, as a view of its segment,
/// through this worker's own [`LaneSet`].
fn stream_worker(pipe: &Pipe, queries: &[BatchQuery<'_>], run: &Run<'_>) -> ShardResult {
    let _guard = AbortOnPanic(pipe);
    let mut scratch = LaneScratch::default();
    let mut set = LaneSet::new(queries, run, &mut scratch);
    while let Some(seg) = pipe.recv() {
        let mut lo = 0usize;
        for &(root, len) in &seg.roots {
            let hi = lo + len as usize;
            let cand = TreeView::from_slices_unchecked(&seg.labels[lo..hi], &seg.sizes[lo..hi]);
            set.eval(cand, root - len);
            lo = hi;
        }
        pipe.recycle(seg);
    }
    // The scan-layer counters of the pass (nodes seen, ring peak) are
    // the producer's and replace the workers' after the merge; only the
    // candidate counts are checked against it.
    set.into_result()
}

/// The sharded topology of [`tasm_batch`](crate::tasm_batch) for more
/// than one thread: the calling thread runs the `O(τ_scan)` ring-buffer
/// scan and hands candidate segments to `run.threads` workers through
/// a bounded, recycling pipe (see the [module docs](self) for the
/// memory bound).
///
/// The producer — the one thread running the unbounded per-candidate
/// scan loop — mints the run's deadline poller, polls it and aborts the
/// whole pass when it expires. Workers drain the already-published
/// segments and exit; their partial heaps are discarded. A worker's
/// panic reaches the caller with its original payload.
pub(crate) fn sharded_scan<Q: PostorderQueue + ?Sized>(
    queries: &[BatchQuery<'_>],
    queue: &mut Q,
    run: &Run<'_>,
) -> Result<BatchOutput, StreamScanError> {
    let threads = run.workers();
    // The scan must cover the widest lane threshold; the workers build
    // their own lanes, so only the thresholds are computed here.
    let scan_tau = scan_tau_of(queries, run);
    // The flush budget is capped so a pathological τ (e.g. saturated by
    // a huge k) cannot pre-reserve gigabytes of segments or defer every
    // flush to the end of the stream; an individual candidate larger
    // than the budget still travels whole (the buffer grows to its real
    // size on demand, bounded by the actual subtree).
    let budget = (scan_tau as usize).clamp(SEGMENT_MIN_NODES, SEGMENT_MAX_NODES);
    let pipe = Pipe::new(2 * threads + 1, budget);

    let (producer_out, worker_outs) = std::thread::scope(|scope| {
        let pipe = &pipe;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    // The guard inside `stream_worker` aborts the pipe
                    // while unwinding; catching here preserves the
                    // payload so the caller re-raises the *original*
                    // panic, not a join shim or a "poisoned" secondary.
                    catch_unwind(AssertUnwindSafe(|| stream_worker(pipe, queries, run)))
                })
            })
            .collect();

        // The producer runs on the calling thread: one ring-buffer pass
        // over the stream, segmenting candidates as they fall out. Its
        // own panics are caught too — when a worker dies first, the
        // producer goes down on the `take_free` abort assertion, and
        // that secondary panic must not shadow the worker's.
        let producer_out = catch_unwind(AssertUnwindSafe(|| {
            let _guard = AbortOnPanic(pipe);
            let mut engine = ScanEngine::new(scan_tau);
            if scratch_fits_cap(scan_tau as usize) {
                engine.reserve();
            }
            let mut sink = SegmentSink {
                pipe,
                current: pipe.take_free(),
                budget,
            };
            let scan = engine.scan_with_deadline(queue, &mut sink, &Deadline::new(run.deadline));
            let integrity = queue.integrity_error();
            let last = sink.current;
            if scan.is_err() || last.roots.is_empty() {
                // On a deadline abort the partial segment is dropped:
                // the workers' heaps are discarded anyway, so feeding
                // them more candidates is pure waste.
                pipe.recycle(last);
            } else {
                pipe.send(last);
            }
            pipe.finish();
            (scan, integrity)
        }));
        if producer_out.is_err() {
            // The guard already aborted inside the closure, but only
            // after its own unwinding began; make doubly sure no worker
            // is left waiting on a stream that will never finish.
            pipe.abort();
        }

        let worker_outs: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("stream worker died outside catch_unwind"))
            .collect();
        (producer_out, worker_outs)
    });

    // A worker's own panic outranks whatever the producer reports: the
    // producer's failure is usually the *consequence* (abort assertion)
    // of the worker's death, never its cause.
    let mut results: Vec<ShardResult> = Vec::with_capacity(worker_outs.len());
    let mut worker_panic = None;
    for out in worker_outs {
        match out {
            Ok(r) => results.push(r),
            Err(payload) => {
                worker_panic.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = worker_panic {
        resume_unwind(payload);
    }
    let (producer_scan, integrity) = match producer_out {
        Ok(out) => out,
        Err(payload) => resume_unwind(payload),
    };
    // A deadline abort outranks integrity reporting: a scan cancelled
    // mid-stream naturally leaves the queue "incomplete".
    let producer_scan = producer_scan?;
    if let Some(msg) = integrity {
        return Err(StreamIntegrityError(msg).into());
    }

    debug_assert_eq!(
        results.iter().map(|r| r.scan.candidates).sum::<usize>(),
        producer_scan.candidates,
        "every candidate must be evaluated by exactly one worker"
    );
    // Scan-layer truth comes from the producer's single pass.
    Ok(merge_shard_results(
        queries.len(),
        results,
        Some(&producer_scan),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::tasm_batch;
    use crate::ranking::Match;
    use crate::tasm_dynamic::TasmOptions;
    use crate::tasm_postorder::tasm_postorder;
    use crate::workspace::TasmWorkspace;
    use std::time::{Duration, Instant};
    use tasm_ted::{CostModel, UnitCost};
    use tasm_tree::{bracket, LabelDict, PostorderEntry, TreeQueue};

    /// One query through the driver at `threads` (`<= 1` runs inline).
    fn solo<Q: PostorderQueue + ?Sized>(
        query: &Tree,
        queue: &mut Q,
        k: usize,
        model: &(dyn CostModel + Sync),
        opts: TasmOptions,
        threads: usize,
    ) -> Result<Vec<Match>, StreamScanError> {
        let queries = [BatchQuery { query, k }];
        let run = Run {
            model,
            opts,
            threads,
            ..Run::default()
        };
        let out = tasm_batch(&queries, queue, &run, &mut TasmWorkspace::new())?;
        Ok(out.rankings.into_iter().next().expect("one lane"))
    }

    fn wide_doc(dict: &mut LabelDict, records: usize) -> Tree {
        let mut s = String::from("{dblp");
        for i in 0..records {
            match i % 3 {
                0 => s.push_str("{article{a}{t}}"),
                1 => s.push_str("{book{t}}"),
                _ => s.push_str("{article{a}{t}{y}}"),
            }
        }
        s.push('}');
        bracket::parse(&s, dict).unwrap()
    }

    #[test]
    fn stream_parallel_equals_sequential() {
        let mut dict = LabelDict::new();
        let doc = wide_doc(&mut dict, 80);
        let query = bracket::parse("{article{a}{t}}", &mut dict).unwrap();
        let opts = TasmOptions {
            keep_trees: true,
            ..Default::default()
        };
        for k in [1usize, 3, 10] {
            let mut q = TreeQueue::new(&doc);
            let want = tasm_postorder(&query, &mut q, k, &UnitCost, 1, opts, None);
            for threads in [1usize, 2, 3, 4, 7] {
                let mut q = TreeQueue::new(&doc);
                let got = solo(&query, &mut q, k, &UnitCost, opts, threads).unwrap();
                assert_eq!(got, want, "k = {k}, threads = {threads}");
            }
        }
    }

    #[test]
    fn stream_batch_parallel_matches_per_query_sequential() {
        let mut dict = LabelDict::new();
        let doc = wide_doc(&mut dict, 60);
        let q1 = bracket::parse("{article{a}{t}}", &mut dict).unwrap();
        let q2 = bracket::parse("{book{t}}", &mut dict).unwrap();
        let q3 = bracket::parse("{y}", &mut dict).unwrap();
        let queries = [
            BatchQuery { query: &q1, k: 4 },
            BatchQuery { query: &q2, k: 1 },
            BatchQuery { query: &q3, k: 9 },
        ];
        let opts = TasmOptions::default();
        for threads in [2usize, 4, 7] {
            let mut q = TreeQueue::new(&doc);
            let run = Run {
                opts,
                threads,
                ..Run::default()
            };
            let BatchOutput {
                rankings,
                scan: agg,
                lanes,
                ted,
            } = sharded_scan(&queries, &mut q, &run).unwrap();
            assert!(ted.is_none(), "not asked for");
            assert_eq!(rankings.len(), 3);
            assert_eq!(lanes.len(), 3);
            assert_eq!(agg.nodes_seen as usize, doc.len());
            for (bq, got) in queries.iter().zip(&rankings) {
                let mut q = TreeQueue::new(&doc);
                let want = tasm_postorder(bq.query, &mut q, bq.k, &UnitCost, 1, opts, None);
                assert_eq!(got, &want, "threads = {threads}");
            }
            // Per-lane funnels sum to the aggregate funnel.
            let funnel_sum: u64 = lanes.iter().map(|l| l.evaluated).sum();
            assert_eq!(funnel_sum, agg.evaluated);
            for lane in &lanes {
                assert_eq!(lane.candidates, agg.candidates);
            }
        }
    }

    #[test]
    fn stream_stats_merge_ted_stats() {
        // 1,000 records fill several 1,024-entry segments, so more than
        // one worker evaluates.
        let mut dict = LabelDict::new();
        let doc = wide_doc(&mut dict, 1000);
        let query = bracket::parse("{book{t}}", &mut dict).unwrap();
        let mut q = TreeQueue::new(&doc);
        let queries = [BatchQuery {
            query: &query,
            k: 2,
        }];
        let run = Run {
            threads: 3,
            ted_stats: true,
            ..Run::default()
        };
        let out = sharded_scan(&queries, &mut q, &run).unwrap();
        assert_eq!(out.rankings[0].len(), 2);
        assert!(out.scan.candidates > 0);
        // Every worker's DPs are in the merged stats.
        let ted = out.ted.expect("asked for");
        assert!(ted.ted_calls > 0);
        assert_eq!(ted.ted_calls, out.scan.evaluated);
    }

    #[test]
    fn zero_and_one_threads_match_sequential() {
        let mut dict = LabelDict::new();
        let doc = wide_doc(&mut dict, 20);
        let query = bracket::parse("{book{t}}", &mut dict).unwrap();
        let mut q = TreeQueue::new(&doc);
        let want = tasm_postorder(
            &query,
            &mut q,
            2,
            &UnitCost,
            1,
            TasmOptions::default(),
            None,
        );
        for threads in [0usize, 1] {
            let mut q = TreeQueue::new(&doc);
            let got = solo(
                &query,
                &mut q,
                2,
                &UnitCost,
                TasmOptions::default(),
                threads,
            )
            .unwrap();
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn single_node_stream_works() {
        let mut dict = LabelDict::new();
        let doc = bracket::parse("{a}", &mut dict).unwrap();
        let query = bracket::parse("{a}", &mut dict).unwrap();
        let mut q = TreeQueue::new(&doc);
        let got = solo(&query, &mut q, 1, &UnitCost, TasmOptions::default(), 4).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].distance, tasm_ted::Cost::ZERO);
    }

    #[test]
    #[should_panic(expected = "queue exploded")]
    fn producer_panic_propagates_instead_of_hanging() {
        // A queue that dies mid-stream: the producer's panic must abort
        // the pipe so the workers exit and `thread::scope` can re-raise
        // it — a lost wakeup here would hang the scan forever.
        struct PanicQueue(u32);
        impl PostorderQueue for PanicQueue {
            fn dequeue(&mut self) -> Option<PostorderEntry> {
                self.0 += 1;
                assert!(self.0 <= 5000, "queue exploded");
                // An endless forest of leaves (every prefix valid).
                Some(PostorderEntry::new(LabelId(0), 1))
            }
        }
        let mut dict = LabelDict::new();
        let query = bracket::parse("{a}", &mut dict).unwrap();
        let _ = solo(
            &query,
            &mut PanicQueue(0),
            1,
            &UnitCost,
            TasmOptions::default(),
            4,
        );
    }

    /// A queue that serves a fixed prefix of a larger document, then
    /// reports the difference as an integrity error — the in-memory
    /// analogue of a truncated `.pq` file.
    struct TruncatedQueue {
        entries: Vec<PostorderEntry>,
        next: usize,
        missing: usize,
    }

    impl PostorderQueue for TruncatedQueue {
        fn dequeue(&mut self) -> Option<PostorderEntry> {
            let e = self.entries.get(self.next).copied();
            self.next += e.is_some() as usize;
            e
        }

        fn integrity_error(&self) -> Option<String> {
            (self.next >= self.entries.len() && self.missing > 0)
                .then(|| format!("postorder file truncated: {} nodes missing", self.missing))
        }
    }

    #[test]
    fn truncated_stream_is_an_error_not_a_partial_ranking() {
        // Before the fix, both paths happily ranked whatever prefix the
        // queue produced — a truncated corpus file went unnoticed.
        let mut dict = LabelDict::new();
        let doc = wide_doc(&mut dict, 30);
        let query = bracket::parse("{article{a}{t}}", &mut dict).unwrap();
        let cut = doc.len() / 2; // leaves a valid forest prefix
        for threads in [1usize, 4] {
            let mut q = TruncatedQueue {
                entries: doc
                    .postorder()
                    .take(cut)
                    .map(|(l, s)| PostorderEntry::new(l, s))
                    .collect(),
                next: 0,
                missing: doc.len() - cut,
            };
            let err = solo(
                &query,
                &mut q,
                3,
                &UnitCost,
                TasmOptions::default(),
                threads,
            )
            .unwrap_err();
            assert!(
                err.to_string().contains("truncated"),
                "threads = {threads}: {err}"
            );
        }
    }

    /// Runs `body` on its own thread and fails if it has not finished
    /// within `limit`: a lost wakeup or a worker that never exits would
    /// otherwise hang the test instead of failing it.
    fn within(limit: std::time::Duration, body: impl FnOnce() + Send + 'static) {
        let (done, finished) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        match finished.recv_timeout(limit) {
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("hung for {limit:?}: a lost wakeup or a worker that never exited")
            }
            // Finished, or panicked (the join re-raises the panic).
            _ => {
                if let Err(payload) = runner.join() {
                    resume_unwind(payload);
                }
            }
        }
    }

    #[test]
    fn pipe_stress_loses_no_segment_wakeup_or_worker() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::sync::Barrier;
        for seed in 0..32u64 {
            within(std::time::Duration::from_secs(60), move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let workers = rng.gen_range(1..=4usize);
                let pool = rng.gen_range(1..=5usize);
                let segments = rng.gen_range(0..300u32);
                // A third of the runs abort once the workers have taken
                // this many segments, as a dying worker does.
                let abort_at = rng
                    .gen_bool(1.0 / 3.0)
                    .then(|| rng.gen_range(1..=segments.max(1)));
                let pipe = Pipe::new(pool, 4);
                let taken = Mutex::new(Vec::new());
                let start = Barrier::new(workers + 1);
                std::thread::scope(|scope| {
                    for w in 0..workers as u64 {
                        let (pipe, taken, start) = (&pipe, &taken, &start);
                        scope.spawn(move || {
                            let mut rng = StdRng::seed_from_u64(seed * 31 + w);
                            start.wait();
                            while let Some(seg) = pipe.recv() {
                                let count = {
                                    let mut taken = lock_recovering(taken);
                                    taken.push(seg.roots[0].0);
                                    taken.len() as u32
                                };
                                if abort_at == Some(count) {
                                    pipe.abort();
                                }
                                if rng.gen_bool(0.25) {
                                    std::thread::yield_now();
                                }
                                pipe.recycle(seg);
                            }
                        });
                    }
                    start.wait();
                    for i in 0..segments {
                        // After an abort the producer dies on its next
                        // `take_free`, as in the scan.
                        let Ok(mut seg) = catch_unwind(AssertUnwindSafe(|| pipe.take_free()))
                        else {
                            break;
                        };
                        seg.roots.push((i, 1));
                        pipe.send(seg);
                        if rng.gen_bool(0.2) {
                            std::thread::yield_now();
                        }
                    }
                    pipe.finish();
                });
                // Every worker exited (the scope joined them). Every
                // segment is back in the pool or still queued.
                let free = lock_recovering(&pipe.free).len();
                let queued = lock_recovering(&pipe.ready).queue.len();
                assert_eq!(free + queued, pool, "seed {seed}: a segment was lost");
                let mut taken = taken.into_inner().unwrap();
                taken.sort_unstable();
                if abort_at.is_none() {
                    assert_eq!(taken, (0..segments).collect::<Vec<_>>(), "seed {seed}");
                } else {
                    taken.dedup();
                    assert!(taken.iter().all(|&i| i < segments), "seed {seed}");
                }
            });
        }
    }

    #[test]
    fn sharded_scan_under_random_deadlines_is_all_or_nothing() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut dict = LabelDict::new();
        let doc = wide_doc(&mut dict, 300);
        let query = bracket::parse("{article{a}{t}}", &mut dict).unwrap();
        let mut q = TreeQueue::new(&doc);
        let want = tasm_postorder(
            &query,
            &mut q,
            5,
            &UnitCost,
            1,
            TasmOptions::default(),
            None,
        );
        let (doc, query) = (std::sync::Arc::new(doc), std::sync::Arc::new(query));
        for seed in 0..24u64 {
            let (doc, query, want) = (doc.clone(), query.clone(), want.clone());
            within(std::time::Duration::from_secs(60), move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let threads = rng.gen_range(2..=5usize);
                let limit = Duration::from_micros(rng.gen_range(0..3000));
                let queries = [BatchQuery {
                    query: &query,
                    k: 5,
                }];
                let run = Run {
                    threads,
                    deadline: Some(Instant::now() + limit),
                    ..Run::default()
                };
                let got = sharded_scan(&queries, &mut TreeQueue::new(&doc), &run);
                match got {
                    Ok(out) => assert_eq!(out.rankings[0], want, "seed {seed}"),
                    Err(e) => assert!(
                        matches!(e, StreamScanError::Deadline(_)),
                        "seed {seed}: {e}"
                    ),
                }
            });
        }
    }

    #[test]
    fn worker_panic_payload_reaches_the_caller() {
        // A cost model that explodes on a label only the document
        // contains: the panic happens on a *worker* thread, mid-pipe.
        // Before the fix the caller saw the producer's secondary
        // "stream shard worker died" assert (or a join shim) instead of
        // the original payload.
        struct BoomCost(LabelId);
        impl CostModel for BoomCost {
            fn node_cost(&self, tree: tasm_tree::TreeView<'_>, node: NodeId) -> u64 {
                assert!(tree.label(node) != self.0, "cost model exploded");
                1
            }
            fn max_cost(&self, _: tasm_tree::TreeView<'_>) -> u64 {
                1
            }
        }
        let mut dict = LabelDict::new();
        let doc = wide_doc(&mut dict, 50);
        let query = bracket::parse("{article{a}{t}}", &mut dict).unwrap();
        let boom = BoomCost(dict.get("book").unwrap());
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut q = TreeQueue::new(&doc);
            let _ = solo(&query, &mut q, 2, &boom, TasmOptions::default(), 4);
        }))
        .unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("cost model exploded"),
            "caller saw `{msg}` instead of the worker's own panic"
        );
    }
}
