//! Multi-query batching: N TASM queries answered in **one** document
//! scan.
//!
//! A production matcher rarely serves one query at a time. The scan
//! layer's work — ring-buffer maintenance, candidate materialization,
//! stream decoding — depends only on the document and the size
//! threshold, so it can be shared: the ring-buffer pass runs once at
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
//! [`TasmWorkspace`] a scan performs O(#queries) allocations total,
//! regardless of the document's length (regression-tested with the
//! counting allocator in `tasm-bench`).
//!
//! [`tasm_batch`] is the one driver for every document that arrives as
//! a postorder queue: a stream. At one thread it runs the shared scan
//! inline, evaluating each candidate through the workspace's lane set
//! as the scan hands it over; above one it copies the candidates into
//! segments for the streaming shard workers, each evaluating through a
//! lane set of its own. A single query is the
//! batch of one: [`tasm_postorder`](crate::tasm_postorder) runs the
//! same inline scan with one lane. A materialized tree can still be
//! replayed through [`TreeQueue`](tasm_tree::TreeQueue) (the paper's
//! algorithms and reference runs do), but a resident tree needs no ring
//! buffer: [`tasm_resident_batch`](crate::tasm_resident_batch) sweeps
//! its size column and evaluates the candidates in place.

use std::ops::ControlFlow;

use crate::deadline::{Deadline, DeadlineExceeded};
use crate::lane::{merge_shard_results, LaneSet};
use crate::ranking::Match;
use crate::run::Run;
use crate::scan::{scan_candidates, ScanStats};
use crate::stream_shard::sharded_scan;
use crate::tasm_dynamic::TasmOptions;
use crate::workspace::TasmWorkspace;
use tasm_ted::{CostModel, TedStats};
use tasm_tree::{PostorderQueue, Tree};

/// One query of a batch: the query tree and its ranking size.
#[derive(Debug, Clone, Copy)]
pub struct BatchQuery<'a> {
    /// The query tree.
    pub query: &'a Tree,
    /// The ranking size `k` for this query (clamped to `>= 1`).
    pub k: usize,
}

/// What a batch driver ([`tasm_batch`],
/// [`tasm_resident_batch`](crate::tasm_resident_batch),
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
    /// Distance statistics summed over every lane and worker: `Some`
    /// exactly when the run set [`Run::ted_stats`]. Each exact DP is one
    /// `ted_calls`, so `ted_calls` equals `scan.evaluated`.
    pub ted: Option<TedStats>,
}

impl BatchOutput {
    /// The output of an empty batch under `run`.
    pub(crate) fn empty(run: &Run<'_>) -> Self {
        BatchOutput {
            ted: run.ted_stats.then(TedStats::new),
            ..BatchOutput::default()
        }
    }
}

/// Folds a run's distance statistics into a caller's sink (the pinned
/// shims keep the sink form).
pub(crate) fn fold_ted(sink: Option<&mut TedStats>, ted: Option<TedStats>) {
    if let (Some(sink), Some(ted)) = (sink, ted) {
        sink.merge(&ted);
    }
}

/// An alias of [`TasmWorkspace`], the workspace of every one-thread
/// scan. It exists only because the end-to-end benchmark helper
/// (`perfbench/`) names it, and goes with the benchmark-of-record item
/// of the roadmap.
pub type BatchWorkspace = TasmWorkspace;

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
/// ([`StreamIntegrityError`]) or the run's deadline
/// ([`Run::deadline`]) expired mid-pass ([`DeadlineExceeded`]). Both
/// refuse to return a partial ranking.
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

/// Answers every query of `queries` over **one** pass of `queue` — any
/// postorder stream (a resident tree is answered without one by
/// [`tasm_resident_batch`](crate::tasm_resident_batch)) — returning one
/// ranking per query, in input order, plus the pass's statistics.
///
/// Each ranking is exactly what the sequential
/// [`tasm_postorder`](crate::tasm_postorder) returns for that query
/// alone under `run`'s cost model and `c_t`. With `run.ted_stats` the
/// output's `ted` aggregates the evaluation work of **all** lanes.
///
/// `run.threads` picks the topology (`0` = one per available core):
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
/// The whole batch shares one scan, so one `run.deadline` bounds it
/// (the `tasm serve` daemon passes the *earliest* member deadline and
/// retries survivors solo when a batch is cancelled); the scanning
/// thread checks it before the pass and polls it per candidate. An
/// empty batch returns at once without touching `queue`.
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
/// use tasm_core::{tasm_batch, BatchQuery, Run, TasmWorkspace};
///
/// let mut dict = LabelDict::new();
/// let q1 = bracket::parse("{a{b}{c}}", &mut dict).unwrap();
/// let q2 = bracket::parse("{a{b}}", &mut dict).unwrap();
/// let doc = bracket::parse("{x{a{b}{d}}{a{b}{c}}}", &mut dict).unwrap();
/// let queries = [
///     BatchQuery { query: &q1, k: 2 },
///     BatchQuery { query: &q2, k: 1 },
/// ];
/// let mut ws = TasmWorkspace::new();
/// for threads in [1, 2] {
///     let mut queue = TreeQueue::new(&doc); // any postorder queue works
///     let run = Run { threads, ..Run::default() };
///     let out = tasm_batch(&queries, &mut queue, &run, &mut ws).unwrap();
///     assert_eq!(out.rankings.len(), 2);
///     assert_eq!(out.rankings[0][0].root.post(), 6); // exact match for q1
/// }
/// ```
pub fn tasm_batch<Q: PostorderQueue + ?Sized>(
    queries: &[BatchQuery<'_>],
    queue: &mut Q,
    run: &Run<'_>,
    ws: &mut TasmWorkspace,
) -> Result<BatchOutput, StreamScanError> {
    if queries.is_empty() {
        return Ok(BatchOutput::empty(run));
    }
    if run.workers() > 1 {
        return sharded_scan(queries, queue, run);
    }
    // One worker would only add hand-off copies: the shared scan is the
    // same streaming work inline.
    let out = shared_scan(queries, queue, run, ws)?;
    match queue.integrity_error() {
        Some(msg) => Err(StreamIntegrityError(msg).into()),
        None => Ok(out),
    }
}

/// [`tasm_batch`] at one thread without a deadline, returning only the
/// rankings. Kept with this exact signature because the end-to-end
/// benchmark helper (`perfbench/`) times the daemon's batch call
/// through it; unlike the driver it does not check the queue's
/// integrity. It goes with the benchmark-of-record item of the roadmap.
pub fn tasm_batch_with_workspace<Q: PostorderQueue + ?Sized>(
    queries: &[BatchQuery<'_>],
    queue: &mut Q,
    model: &(dyn CostModel + Sync),
    c_t: u64,
    opts: TasmOptions,
    ws: &mut TasmWorkspace,
    stats: Option<&mut TedStats>,
) -> Vec<Vec<Match>> {
    let run = Run {
        model,
        c_t,
        opts,
        ted_stats: stats.is_some(),
        ..Run::default()
    };
    let out = shared_scan(queries, queue, &run, ws).expect("no deadline");
    fold_ted(stats, out.ted);
    out.rankings
}

/// The inline shared scan: one [`scan_candidates`] pass at `τ_scan =
/// max_i τ_i` over the candidate tree of `ws`, evaluating every
/// candidate in place through a [`LaneSet`] on the scratch of `ws`
/// (whose [`last_scan_stats`](TasmWorkspace::last_scan_stats) it
/// records). The only one-thread evaluation of a postorder queue:
/// [`tasm_batch`] and [`tasm_postorder`](crate::tasm_postorder) both
/// run it. `run.threads` is not read.
pub(crate) fn shared_scan<Q: PostorderQueue + ?Sized>(
    queries: &[BatchQuery<'_>],
    queue: &mut Q,
    run: &Run<'_>,
    ws: &mut TasmWorkspace,
) -> Result<BatchOutput, DeadlineExceeded> {
    if queries.is_empty() {
        return Ok(BatchOutput::empty(run));
    }
    let mut set = LaneSet::new(queries, run, &mut ws.eval);
    let deadline = Deadline::new(run.deadline);
    let shared = scan_candidates(
        queue,
        set.scan_tau,
        &mut ws.cand,
        &deadline,
        |cand, root| {
            set.eval(cand.view(), root.post() - cand.len() as u32);
            ControlFlow::Continue(())
        },
    )?;
    // Every lane saw the one shared pass.
    let out = merge_shard_results(queries.len(), vec![set.into_result()], Some(&shared));
    ws.last_scan = out.scan;
    Ok(out)
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
        ws: &mut TasmWorkspace,
        ted_stats: bool,
    ) -> BatchOutput {
        let run = Run {
            opts,
            ted_stats,
            ..Run::default()
        };
        tasm_batch(queries, queue, &run, ws).unwrap()
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
        let batch = run(&queries, &mut queue, opts, &mut TasmWorkspace::new(), false);
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
            let run = Run {
                threads,
                ted_stats: true,
                ..Run::default()
            };
            let out = tasm_batch(&[], &mut queue, &run, &mut TasmWorkspace::new()).unwrap();
            assert!(out.rankings.is_empty() && out.lanes.is_empty());
            assert_eq!(out.ted.map(|t| t.ted_calls), Some(0));
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
        let mut ws = TasmWorkspace::new();
        let run_pinned = |ws: &mut TasmWorkspace| {
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
            &mut TasmWorkspace::new(),
            false,
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
        let queries = [
            BatchQuery { query: &q1, k: 1 },
            BatchQuery { query: &q2, k: 1 },
        ];
        let mut q = TreeQueue::new(&doc);
        let out = run(
            &queries,
            &mut q,
            TasmOptions::default(),
            &mut TasmWorkspace::new(),
            true,
        );
        let both = out.ted.expect("asked for");
        assert!(both.ted_calls >= solo1.ted_calls);
        let funnel_sum: u64 = out.lanes.iter().map(|l| l.evaluated).sum();
        assert_eq!(funnel_sum, out.scan.evaluated);
    }
}
