//! Streaming shard hand-off: the multi-threaded topology of
//! [`tasm_batch`](crate::tasm_batch) — batch×parallel TASM over a
//! postorder **stream**, the document never resident in memory.
//!
//! One [`scan_candidates`] pass over the stream (the same `O(τ)` prefix
//! ring buffer as the sequential path) derives the candidates, and
//! instead of evaluating them inline it copies each candidate's postorder
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
//!
//! # Failure
//!
//! Each side takes part in the pipe through a drop guard, so neither
//! ever waits on a peer that is gone. A worker that panics fails the
//! pipe: the producer stops at its next hand-off, the other workers
//! stop at their next segment, and the caller sees the worker's own
//! panic. A producer that panics (a queue that fails) ends the stream:
//! the workers finish what was sent and exit, and the caller sees the
//! producer's panic. An expired deadline ends the stream the same way
//! and the workers' heaps are discarded.

use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::batch::{BatchOutput, BatchQuery, StreamIntegrityError, StreamScanError};
use crate::deadline::{Deadline, DeadlineExceeded};
use crate::lane::{join_workers, merge_shard_results, scan_tau_of, LaneSet, ShardResult};
use crate::run::Run;
use crate::scan::{scan_candidates, ScanStats};
use crate::workspace::LaneScratch;
use tasm_tree::{LabelId, PostorderQueue, Tree, TreeView};

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
    state: Mutex<PipeState>,
    /// Workers wait here for a ready segment.
    ready_cv: Condvar,
    /// The producer waits here for a free segment.
    free_cv: Condvar,
}

struct PipeState {
    ready: VecDeque<Segment>,
    free: Vec<Segment>,
    /// The producer has left: no more segments will be sent.
    produced: bool,
    /// A worker died: the run is lost, and both sides stop.
    failed: bool,
}

impl Pipe {
    /// A pipe owning `pool` pre-sized segments.
    fn new(pool: usize, segment_nodes: usize) -> Self {
        Pipe {
            state: Mutex::new(PipeState {
                ready: VecDeque::with_capacity(pool),
                free: (0..pool)
                    .map(|_| Segment::with_capacity(segment_nodes))
                    .collect(),
                produced: false,
                failed: false,
            }),
            ready_cv: Condvar::new(),
            free_cv: Condvar::new(),
        }
    }

    /// Locks the state. Nothing panics while holding the lock, so the
    /// state is consistent even if the mutex reports a poisoning.
    fn lock(&self) -> MutexGuard<'_, PipeState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Producer: publishes a full segment to the workers.
    fn send(&self, seg: Segment) {
        self.lock().ready.push_back(seg);
        self.ready_cv.notify_one();
    }

    /// Worker: takes the next segment, blocking while the producer is
    /// still sending; `None` once it has left and the queue drained, or
    /// once the pipe failed.
    fn recv(&self) -> Option<Segment> {
        let mut state = self.lock();
        loop {
            if state.failed {
                return None;
            }
            if let Some(seg) = state.ready.pop_front() {
                return Some(seg);
            }
            if state.produced {
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
        self.lock().free.push(seg);
        self.free_cv.notify_one();
    }

    /// Producer: acquires an empty segment, blocking until a worker
    /// recycles one (the backpressure that bounds total memory); `None`
    /// once the pipe failed.
    fn take_free(&self) -> Option<Segment> {
        let mut state = self.lock();
        loop {
            if state.failed {
                return None;
            }
            if let Some(seg) = state.free.pop() {
                return Some(seg);
            }
            state = self
                .free_cv
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Held by each side of the pipe while it takes part, and dropped
/// however it leaves, unwinding included: the producer's guard ends the
/// stream, and a worker's guard fails the pipe if the worker panics.
/// Either way every waiter wakes up to see it.
struct Leave<'p> {
    pipe: &'p Pipe,
    producer: bool,
}

impl Drop for Leave<'_> {
    fn drop(&mut self) {
        if !self.producer && !std::thread::panicking() {
            return; // a worker that drained the pipe changes nothing
        }
        let mut state = self.pipe.lock();
        if self.producer {
            state.produced = true;
        } else {
            state.failed = true;
        }
        drop(state);
        self.pipe.ready_cv.notify_all();
        self.pipe.free_cv.notify_all();
    }
}

/// The producer, on the calling thread: one ring-buffer pass over the
/// stream that copies every candidate into the segment in hand and
/// sends the segment on once it holds `budget` entries. It mints the
/// run's deadline poller — it runs the one unbounded per-candidate loop
/// — and stops early when the pipe fails; the dead worker's panic then
/// reaches the caller through the join.
fn produce<Q: PostorderQueue + ?Sized>(
    pipe: &Pipe,
    queue: &mut Q,
    tau: u32,
    budget: usize,
    expiry: Option<Instant>,
) -> Result<ScanStats, DeadlineExceeded> {
    let _leave = Leave {
        pipe,
        producer: true,
    };
    let Some(mut seg) = pipe.take_free() else {
        return Ok(ScanStats::default());
    };
    let mut cand = Tree::leaf(LabelId(0));
    let deadline = Deadline::new(expiry);
    // On a deadline the segment in hand is dropped: the workers' heaps
    // are discarded anyway, so feeding them more candidates is waste.
    let scan = scan_candidates(queue, tau, &mut cand, &deadline, |cand, root| {
        seg.roots.push((root.post(), cand.len() as u32));
        seg.labels.extend_from_slice(cand.labels());
        seg.sizes.extend_from_slice(cand.sizes());
        if seg.labels.len() < budget {
            return ControlFlow::Continue(());
        }
        match pipe.take_free() {
            Some(next) => {
                pipe.send(std::mem::replace(&mut seg, next));
                ControlFlow::Continue(())
            }
            None => ControlFlow::Break(()),
        }
    })?;
    if !seg.roots.is_empty() {
        pipe.send(seg);
    }
    Ok(scan)
}

/// One streaming shard worker: consumes segments until the pipe drains,
/// evaluating every candidate in place, as a view of its segment,
/// through this worker's own [`LaneSet`].
fn stream_worker(pipe: &Pipe, queries: &[BatchQuery<'_>], run: &Run<'_>) -> ShardResult {
    let _leave = Leave {
        pipe,
        producer: false,
    };
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
/// memory bound and how a run fails).
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

    let (scan, results) = std::thread::scope(|scope| {
        let pipe = &pipe;
        let workers: Vec<_> = (0..threads)
            .map(|_| scope.spawn(move || stream_worker(pipe, queries, run)))
            .collect();
        let scan = produce(pipe, queue, scan_tau, budget, run.deadline);
        (scan, join_workers(workers))
    });
    // A deadline abort outranks integrity reporting: a scan cancelled
    // mid-stream naturally leaves the queue "incomplete".
    let scan = scan?;
    if let Some(msg) = queue.integrity_error() {
        return Err(StreamIntegrityError(msg).into());
    }

    debug_assert_eq!(
        results.iter().map(|r| r.scan.candidates).sum::<usize>(),
        scan.candidates,
        "every candidate must be evaluated by exactly one worker"
    );
    // Scan-layer truth comes from the producer's single pass.
    Ok(merge_shard_results(queries.len(), results, Some(&scan)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::tasm_batch;
    use crate::ranking::Match;
    use crate::tasm_dynamic::TasmOptions;
    use crate::tasm_postorder::tasm_postorder;
    use crate::workspace::TasmWorkspace;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::time::Duration;
    use tasm_ted::{CostModel, UnitCost};
    use tasm_tree::{bracket, LabelDict, NodeId, PostorderEntry, TreeQueue};

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
                // In a third of the runs a worker panics while it holds
                // the segment the workers take this many-th.
                let die_at = rng
                    .gen_bool(1.0 / 3.0)
                    .then(|| rng.gen_range(1..=segments.max(1)));
                let pipe = Pipe::new(pool, 4);
                let taken = Mutex::new(Vec::new());
                let start = Barrier::new(workers + 1);
                // The scope returns (or unwinds) only once every worker
                // has exited.
                let joined = catch_unwind(AssertUnwindSafe(|| {
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = (0..workers as u64)
                            .map(|w| {
                                let (pipe, taken, start) = (&pipe, &taken, &start);
                                scope.spawn(move || {
                                    let _leave = Leave {
                                        pipe,
                                        producer: false,
                                    };
                                    let mut rng = StdRng::seed_from_u64(seed * 31 + w);
                                    start.wait();
                                    while let Some(seg) = pipe.recv() {
                                        let count = {
                                            let mut taken = taken.lock().unwrap();
                                            taken.push(seg.roots[0].0);
                                            taken.len() as u32
                                        };
                                        assert_ne!(die_at, Some(count), "worker died");
                                        if rng.gen_bool(0.25) {
                                            std::thread::yield_now();
                                        }
                                        pipe.recycle(seg);
                                    }
                                })
                            })
                            .collect();
                        {
                            let _leave = Leave {
                                pipe: &pipe,
                                producer: true,
                            };
                            start.wait();
                            for i in 0..segments {
                                let Some(mut seg) = pipe.take_free() else {
                                    break;
                                };
                                seg.roots.push((i, 1));
                                pipe.send(seg);
                                if rng.gen_bool(0.2) {
                                    std::thread::yield_now();
                                }
                            }
                        }
                        join_workers(handles).len()
                    })
                }));
                let died = die_at.is_some_and(|n| n <= segments);
                match joined {
                    Ok(n) => assert!(!died && n == workers, "seed {seed}"),
                    Err(_) => assert!(died, "seed {seed}: unexpected panic"),
                }
                // Every segment is back in the pool, still queued, or
                // lost with the dead worker.
                let state = pipe.lock();
                assert_eq!(
                    state.free.len() + state.ready.len() + died as usize,
                    pool,
                    "seed {seed}: a segment was lost"
                );
                let mut taken = taken.into_inner().unwrap();
                taken.sort_unstable();
                if died {
                    taken.dedup();
                    assert!(taken.iter().all(|&i| i < segments), "seed {seed}");
                } else {
                    assert_eq!(taken, (0..segments).collect::<Vec<_>>(), "seed {seed}");
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
        let payload = catch_unwind(AssertUnwindSafe(|| {
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
