//! Multi-query batching: N TASM queries answered in **one** document
//! scan.
//!
//! A production matcher rarely serves one query at a time. The scan
//! layer's work — ring-buffer maintenance, candidate materialization,
//! stream decoding — depends only on the document and the size
//! threshold, so it can be shared: the [`ScanEngine`] runs once at
//! `τ_scan = max_i τ_i` and every candidate is offered to one
//! evaluation *lane* per query, each with its own
//! [`QueryContext`](tasm_ted::QueryContext), its own Theorem 3/Lemma 4
//! pruning bound and its own [`TopKHeap`](crate::TopKHeap). A query
//! whose own τ is smaller than `τ_scan`
//! simply prunes harder inside each candidate; the per-lane bounds are
//! exactly the sequential ones, so every lane returns **exactly** the
//! ranking [`tasm_postorder`](crate::tasm_postorder) would (pinned by
//! the differential matrix in `tests/differential.rs`).
//!
//! Memory stays document-independent: `O(Σ m_i² + τ_scan · Σ m_i)` for
//! the lane matrices plus the shared `O(τ_scan)` ring — and with a warm
//! [`BatchWorkspace`] a scan performs O(#queries) allocations total,
//! regardless of the document's length (regression-tested with the
//! counting allocator in `tasm-bench`).
//!
//! [`tasm_batch`] is the one driver for every document that arrives as
//! a postorder queue — a stream, or a materialized tree replayed
//! through [`TreeQueue`](tasm_tree::TreeQueue). At one thread it runs
//! the shared scan inline; above one it hands the candidates to the
//! streaming shard workers, which fan them out to the same lanes.

use crate::deadline::{Deadline, DeadlineExceeded};
use crate::engine::{CandidateSink, ScanEngine, ScanStats};
use crate::lane::{build_lanes, fan_out, reserve_lanes, resolve_threads, EvalLane};
use crate::ranking::Match;
use crate::stream_shard::sharded_scan;
use crate::tasm_dynamic::TasmOptions;
use crate::workspace::scratch_fits_cap;
use tasm_ted::{CascadeScratch, CostModel, TedStats, TedWorkspace};
use tasm_tree::{NodeId, PostorderQueue, Tree};

/// One query of a batch: the query tree and its ranking size.
#[derive(Debug, Clone, Copy)]
pub struct BatchQuery<'a> {
    /// The query tree.
    pub query: &'a Tree,
    /// The ranking size `k` for this query (clamped to `>= 1`).
    pub k: usize,
}

/// What a batch driver ([`tasm_batch`],
/// [`tasm_indexed_batch`](crate::tasm_indexed_batch)) returns.
#[derive(Debug, Clone, Default)]
pub struct BatchOutput {
    /// One ranking per query, in query order.
    pub rankings: Vec<Vec<Match>>,
    /// Scan-layer counters of the pass plus the pruning funnel summed
    /// over every query lane.
    pub scan: ScanStats,
    /// Per-lane statistics in query order: the pass's scan-layer
    /// counters plus that lane's own pruning funnel.
    pub lanes: Vec<ScanStats>,
}

/// Reusable scratch state for the inline shared scan of [`tasm_batch`]:
/// the scan engine plus one distance workspace per lane. All buffers
/// grow but never shrink; reuse across streams for an allocation
/// profile of O(#queries) per scan. The sharded path leaves it
/// untouched — each worker owns its state by design.
#[derive(Debug)]
pub struct BatchWorkspace {
    engine: ScanEngine,
    /// Lower-bound cascade scratch (only one lane checks at a time, so
    /// it is shared).
    lb: CascadeScratch,
    /// One distance workspace per lane; grown to the batch width.
    lanes: Vec<TedWorkspace>,
}

impl Default for BatchWorkspace {
    fn default() -> Self {
        BatchWorkspace::new()
    }
}

impl BatchWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        BatchWorkspace {
            engine: ScanEngine::new(1),
            lb: CascadeScratch::new(),
            lanes: Vec::new(),
        }
    }
}

/// The postorder stream ended abnormally: the scan consumed the whole
/// queue, but the queue reports the document is incomplete (truncated
/// `.pq`/`.pqi` file, malformed XML, an I/O error mid-stream, …).
///
/// [`tasm_batch`] refuses to return a ranking built from a partial
/// document — silently accepting one would report top-k answers that
/// may miss better subtrees in the lost suffix. The message comes from
/// [`PostorderQueue::integrity_error`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamIntegrityError(pub(crate) String);

impl StreamIntegrityError {
    /// The queue's description of the abnormal end.
    pub fn message(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for StreamIntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "incomplete document stream: {}", self.0)
    }
}

impl std::error::Error for StreamIntegrityError {}

/// Failure of a [`tasm_batch`] scan: either the stream ended abnormally
/// ([`StreamIntegrityError`]) or the request's cooperative
/// [`Deadline`] expired mid-pass ([`DeadlineExceeded`]). Both refuse to
/// return a partial ranking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamScanError {
    /// The postorder stream ended abnormally.
    Integrity(StreamIntegrityError),
    /// The request's deadline expired before the scan completed.
    Deadline(DeadlineExceeded),
}

impl std::fmt::Display for StreamScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamScanError::Integrity(e) => e.fmt(f),
            StreamScanError::Deadline(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for StreamScanError {}

impl From<StreamIntegrityError> for StreamScanError {
    fn from(e: StreamIntegrityError) -> Self {
        StreamScanError::Integrity(e)
    }
}

impl From<DeadlineExceeded> for StreamScanError {
    fn from(e: DeadlineExceeded) -> Self {
        StreamScanError::Deadline(e)
    }
}

/// [`CandidateSink`] fanning each candidate out to every query lane.
struct MultiQuerySink<'a> {
    lanes: Vec<EvalLane<'a>>,
    teds: &'a mut [TedWorkspace],
    lb: &'a mut CascadeScratch,
    opts: TasmOptions,
    stats: Option<&'a mut TedStats>,
}

impl CandidateSink for MultiQuerySink<'_> {
    fn consume(&mut self, cand: &Tree, root: NodeId, _scan: &mut ScanStats) {
        let offset = root.post() - cand.len() as u32;
        fan_out(
            &mut self.lanes,
            self.teds,
            self.lb,
            cand.view(),
            offset,
            self.opts,
            self.stats.as_deref_mut(),
        );
    }
}

/// Answers every query of `queries` over **one** pass of `queue` — any
/// postorder stream, or a materialized tree through
/// [`TreeQueue`](tasm_tree::TreeQueue) — returning one ranking per
/// query, in input order, plus the pass's statistics.
///
/// Each ranking is exactly what the sequential
/// [`tasm_postorder`](crate::tasm_postorder) returns for that query
/// alone. `c_t` is the maximum document node cost under `model`, as for
/// the sequential entry point; `stats` (if any) aggregates the
/// evaluation work of **all** lanes.
///
/// `threads` picks the topology (`0` = one per available core):
///
/// * resolved to 1, the scan runs inline on the calling thread and
///   every candidate is offered to one evaluation lane per query,
///   reusing the buffers of `ws` — with a warm workspace a whole scan
///   costs O(#queries) heap allocations, independent of the document's
///   length;
/// * above 1, the calling thread runs the `O(τ_scan)` ring-buffer scan
///   and hands candidate segments to `threads` workers through a
///   bounded, recycling pipe; each worker fans its candidates out to
///   its own query lanes and the per-lane heaps merge at the end. The
///   document is never materialized, so memory stays
///   `O(threads · τ + Σ m_i²)`. `ws` is not used.
///
/// The whole batch shares one scan, so one `deadline` bounds it (the
/// `tasm serve` daemon passes the *earliest* member deadline and
/// retries survivors solo when a batch is cancelled). An empty batch
/// returns at once without touching `queue`.
///
/// # Errors
///
/// [`StreamScanError::Deadline`] if the deadline expires mid-scan,
/// [`StreamScanError::Integrity`] if the queue reports an abnormal end
/// after the scan drained it (truncated postorder file, malformed XML,
/// …). In both cases no partial rankings are returned: a top-k over a
/// prefix of the candidate stream could miss better subtrees.
///
/// # Examples
///
/// ```
/// use tasm_tree::{bracket, LabelDict, TreeQueue};
/// use tasm_ted::UnitCost;
/// use tasm_core::{tasm_batch, BatchQuery, BatchWorkspace, Deadline, TasmOptions};
///
/// let mut dict = LabelDict::new();
/// let q1 = bracket::parse("{a{b}{c}}", &mut dict).unwrap();
/// let q2 = bracket::parse("{a{b}}", &mut dict).unwrap();
/// let doc = bracket::parse("{x{a{b}{d}}{a{b}{c}}}", &mut dict).unwrap();
/// let queries = [
///     BatchQuery { query: &q1, k: 2 },
///     BatchQuery { query: &q2, k: 1 },
/// ];
/// let mut ws = BatchWorkspace::new();
/// for threads in [1, 2] {
///     let mut queue = TreeQueue::new(&doc); // any postorder queue works
///     let out = tasm_batch(&queries, &mut queue, &UnitCost, 1, TasmOptions::default(),
///                          threads, &mut ws, None, &Deadline::none()).unwrap();
///     assert_eq!(out.rankings.len(), 2);
///     assert_eq!(out.rankings[0][0].root.post(), 6); // exact match for q1
/// }
/// ```
#[allow(clippy::too_many_arguments)]
pub fn tasm_batch<Q: PostorderQueue + ?Sized>(
    queries: &[BatchQuery<'_>],
    queue: &mut Q,
    model: &(dyn CostModel + Sync),
    c_t: u64,
    opts: TasmOptions,
    threads: usize,
    ws: &mut BatchWorkspace,
    stats: Option<&mut TedStats>,
    deadline: &Deadline,
) -> Result<BatchOutput, StreamScanError> {
    if queries.is_empty() {
        return Ok(BatchOutput::default());
    }
    let threads = resolve_threads(threads);
    if threads > 1 {
        return sharded_scan(queries, queue, model, c_t, opts, threads, stats, deadline);
    }
    // One worker would only add hand-off copies: the shared scan is the
    // same streaming work inline.
    let out = shared_scan(queries, queue, model, c_t, opts, ws, stats, deadline)?;
    match queue.integrity_error() {
        Some(msg) => Err(StreamIntegrityError(msg).into()),
        None => Ok(out),
    }
}

/// [`tasm_batch`] at one thread without a deadline, returning only the
/// rankings. Kept with this exact signature because the end-to-end
/// benchmark helper (`perfbench/`) times the daemon's batch call
/// through it; unlike the driver it accepts a non-`Sync` cost model and
/// does not check the queue's integrity.
pub fn tasm_batch_with_workspace<Q: PostorderQueue + ?Sized>(
    queries: &[BatchQuery<'_>],
    queue: &mut Q,
    model: &dyn CostModel,
    c_t: u64,
    opts: TasmOptions,
    ws: &mut BatchWorkspace,
    stats: Option<&mut TedStats>,
) -> Vec<Vec<Match>> {
    match shared_scan(
        queries,
        queue,
        model,
        c_t,
        opts,
        ws,
        stats,
        &Deadline::none(),
    ) {
        Ok(out) => out.rankings,
        Err(DeadlineExceeded) => unreachable!("Deadline::none() never expires"),
    }
}

/// The inline shared scan: one [`ScanEngine`] pass at
/// `τ_scan = max_i τ_i`, every candidate fanned out to one lane per
/// query, all buffers borrowed from `ws`.
#[allow(clippy::too_many_arguments)]
fn shared_scan<Q: PostorderQueue + ?Sized>(
    queries: &[BatchQuery<'_>],
    queue: &mut Q,
    model: &dyn CostModel,
    c_t: u64,
    opts: TasmOptions,
    ws: &mut BatchWorkspace,
    stats: Option<&mut TedStats>,
    deadline: &Deadline,
) -> Result<BatchOutput, DeadlineExceeded> {
    if queries.is_empty() {
        return Ok(BatchOutput::default());
    }
    if ws.lanes.len() < queries.len() {
        ws.lanes.resize_with(queries.len(), TedWorkspace::new);
    }

    // Per-query contexts and bounds; the scan must cover the widest τ.
    let (mut lanes, scan_tau) = build_lanes(queries, model, c_t, opts.kernel);

    // Reserve lanes for the widest candidate the scan can emit; the same
    // byte cap as `TasmWorkspace::reserve` guards pathological τ.
    let teds = &mut ws.lanes[..queries.len()];
    reserve_lanes(&lanes, teds, &mut ws.lb, scan_tau);
    ws.engine.set_tau(scan_tau);
    if scratch_fits_cap(scan_tau as usize) {
        ws.engine.reserve();
    }

    let mut sink = MultiQuerySink {
        lanes,
        teds,
        lb: &mut ws.lb,
        opts,
        stats,
    };
    let shared = ws.engine.scan_with_deadline(queue, &mut sink, deadline)?;
    lanes = sink.lanes;

    // Stats: every lane saw the one shared pass; the aggregate sums the
    // per-lane funnels on top of it.
    let mut scan = shared;
    let mut lane_stats = Vec::with_capacity(lanes.len());
    for lane in &mut lanes {
        lane.stats.adopt_scan_layer(&shared);
        scan.merge_funnel(&lane.stats);
        lane_stats.push(lane.stats);
    }
    Ok(BatchOutput {
        rankings: lanes
            .into_iter()
            .map(|lane| lane.heap.into_sorted())
            .collect(),
        scan,
        lanes: lane_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasm_postorder::tasm_postorder;
    use tasm_ted::UnitCost;
    use tasm_tree::{bracket, LabelDict, TreeQueue};

    fn example_d(dict: &mut LabelDict) -> Tree {
        bracket::parse(
            "{dblp{article{auth{John}}{title{X1}}}{proceedings{conf{VLDB}}\
             {article{auth{Peter}}{title{X3}}}{article{auth{Mike}}{title{X4}}}}\
             {book{title{X2}}}}",
            dict,
        )
        .unwrap()
    }

    /// The inline driver at one thread over `queue`.
    fn run<Q: PostorderQueue + ?Sized>(
        queries: &[BatchQuery<'_>],
        queue: &mut Q,
        opts: TasmOptions,
        ws: &mut BatchWorkspace,
        stats: Option<&mut TedStats>,
    ) -> BatchOutput {
        tasm_batch(
            queries,
            queue,
            &UnitCost,
            1,
            opts,
            1,
            ws,
            stats,
            &Deadline::none(),
        )
        .unwrap()
    }

    #[test]
    fn batch_equals_sequential_per_query() {
        let mut dict = LabelDict::new();
        let doc = example_d(&mut dict);
        let q1 = bracket::parse("{article{auth{Peter}}{title{X3}}}", &mut dict).unwrap();
        let q2 = bracket::parse("{book{title{X2}}}", &mut dict).unwrap();
        let q3 = bracket::parse("{auth{X}}", &mut dict).unwrap();
        let opts = TasmOptions {
            keep_trees: true,
            ..Default::default()
        };
        let queries = [
            BatchQuery { query: &q1, k: 3 },
            BatchQuery { query: &q2, k: 1 },
            BatchQuery { query: &q3, k: 22 },
        ];
        let mut queue = TreeQueue::new(&doc);
        let batch = run(&queries, &mut queue, opts, &mut BatchWorkspace::new(), None);
        assert_eq!(batch.rankings.len(), 3);
        assert_eq!(batch.lanes.len(), 3);
        for (bq, got) in queries.iter().zip(&batch.rankings) {
            let mut q = TreeQueue::new(&doc);
            let want = tasm_postorder(bq.query, &mut q, bq.k, &UnitCost, 1, opts, None);
            assert_eq!(got, &want);
        }
    }

    #[test]
    fn empty_batch_returns_nothing_and_consumes_nothing() {
        let mut dict = LabelDict::new();
        let doc = example_d(&mut dict);
        let mut queue = TreeQueue::new(&doc);
        for threads in [1, 4] {
            let out = tasm_batch(
                &[],
                &mut queue,
                &UnitCost,
                1,
                TasmOptions::default(),
                threads,
                &mut BatchWorkspace::new(),
                None,
                &Deadline::none(),
            )
            .unwrap();
            assert!(out.rankings.is_empty() && out.lanes.is_empty());
        }
        // The queue was not touched: a full sequential run still works.
        let q = bracket::parse("{book{title{X2}}}", &mut dict).unwrap();
        let top = tasm_postorder(
            &q,
            &mut queue,
            1,
            &UnitCost,
            1,
            TasmOptions::default(),
            None,
        );
        assert_eq!(top[0].root.post(), 21);
    }

    #[test]
    fn workspace_reuse_across_batches_is_identical() {
        let mut dict = LabelDict::new();
        let doc = example_d(&mut dict);
        let q1 = bracket::parse("{article{auth}{title}}", &mut dict).unwrap();
        let q2 = bracket::parse("{title{X1}}", &mut dict).unwrap();
        let queries = [
            BatchQuery { query: &q1, k: 4 },
            BatchQuery { query: &q2, k: 2 },
        ];
        let mut ws = BatchWorkspace::new();
        let run_pinned = |ws: &mut BatchWorkspace| {
            let mut queue = TreeQueue::new(&doc);
            tasm_batch_with_workspace(
                &queries,
                &mut queue,
                &UnitCost,
                1,
                TasmOptions::default(),
                ws,
                None,
            )
        };
        let first = run_pinned(&mut ws);
        let second = run_pinned(&mut ws);
        assert_eq!(first, second);
        let mut queue = TreeQueue::new(&doc);
        let fresh = run(
            &queries,
            &mut queue,
            TasmOptions::default(),
            &mut BatchWorkspace::new(),
            None,
        );
        assert_eq!(first, fresh.rankings);
    }

    #[test]
    fn batch_stats_aggregate_all_lanes() {
        let mut dict = LabelDict::new();
        let doc = example_d(&mut dict);
        let q1 = bracket::parse("{auth{X}}", &mut dict).unwrap();
        let q2 = bracket::parse("{title{X}}", &mut dict).unwrap();
        let mut solo1 = TedStats::new();
        let mut q = TreeQueue::new(&doc);
        tasm_postorder(
            &q1,
            &mut q,
            1,
            &UnitCost,
            1,
            TasmOptions::default(),
            Some(&mut solo1),
        );
        let mut both = TedStats::new();
        let queries = [
            BatchQuery { query: &q1, k: 1 },
            BatchQuery { query: &q2, k: 1 },
        ];
        let mut q = TreeQueue::new(&doc);
        let out = run(
            &queries,
            &mut q,
            TasmOptions::default(),
            &mut BatchWorkspace::new(),
            Some(&mut both),
        );
        assert!(both.ted_calls >= solo1.ted_calls);
        let funnel_sum: u64 = out.lanes.iter().map(|l| l.evaluated).sum();
        assert_eq!(funnel_sum, out.scan.evaluated);
    }
}
