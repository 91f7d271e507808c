//! Per-query evaluation lanes: the unit shared by every multi-query
//! scan composition.
//!
//! A *lane* is everything one query needs to evaluate candidates: its
//! [`QueryContext`], its admissible [`LowerBoundCascade`], its own
//! Theorem 3 bound τ_i, its [`TopKHeap`] and its pruning-funnel
//! counters. Lanes only ever see a candidate as a borrowed
//! [`TreeView`] — the postorder interval `[lml, root]` as two slices —
//! wherever it lives. The drivers compose the scan axes by
//! instantiating lanes in different places:
//!
//! * [`tasm_batch`](crate::tasm_batch) — N lanes behind **one** shared
//!   scan (their workspaces borrowed from a
//!   [`BatchWorkspace`](crate::BatchWorkspace)), or a [`LaneSet`] inside
//!   each streaming shard worker, viewing candidates in its segments;
//! * [`tasm_indexed_batch`](crate::tasm_indexed_batch) — a [`LaneSet`]
//!   for the seed pass and one per region-shard worker, viewing the
//!   candidate regions in place in the resident document.
//!
//! Per-lane heaps of the sharded paths merge with
//! [`TopKHeap::merge`] ([`merge_shard_results`]); the rank key is a
//! total order, so any composition returns exactly the sequential
//! per-query rankings (pinned by `tests/differential.rs`).

use crate::batch::{BatchOutput, BatchQuery};
use crate::engine::ScanStats;
use crate::ranking::TopKHeap;
use crate::tasm_dynamic::TasmOptions;
use crate::tasm_postorder::process_candidate_parts;
use crate::threshold::threshold;
use crate::workspace::{matrices_fit_cap, scratch_fits_cap};
use tasm_ted::{
    CascadeScratch, CostModel, LowerBoundCascade, QueryContext, TedKernel, TedStats, TedWorkspace,
};
use tasm_tree::{Tree, TreeView};

/// One per-query evaluation lane of a (possibly sharded) scan.
pub(crate) struct EvalLane<'a> {
    pub(crate) ctx: QueryContext<'a>,
    /// This lane's admissible lower-bound cascade (its own cutoff).
    pub(crate) cascade: LowerBoundCascade<'a>,
    /// This query's own Theorem 3 bound τ_i (pruning is per lane).
    pub(crate) tau: u64,
    pub(crate) heap: TopKHeap,
    /// Funnel counters of this lane only; the scan-layer counters
    /// belong to the pass and are adopted afterwards.
    pub(crate) stats: ScanStats,
}

impl<'a> EvalLane<'a> {
    /// Builds the lane for one query (`k` clamped to `>= 1`); `kernel`
    /// is resolved to a decomposition path here, once per query.
    pub(crate) fn new(
        query: &'a Tree,
        k: usize,
        model: &'a dyn CostModel,
        c_t: u64,
        kernel: TedKernel,
    ) -> Self {
        let k = k.max(1);
        let ctx = QueryContext::with_kernel(query, model, kernel);
        let cascade = LowerBoundCascade::from_context(&ctx);
        let tau = threshold(query.len() as u64, ctx.max_cost(), c_t, k as u64);
        EvalLane {
            ctx,
            cascade,
            tau,
            heap: TopKHeap::new(k),
            stats: ScanStats::default(),
        }
    }

    /// This lane's threshold clamped to the scan's `u32` domain.
    pub(crate) fn tau32(&self) -> u32 {
        u32::try_from(self.tau).unwrap_or(u32::MAX)
    }
}

/// The widest lane threshold of a batch — `τ_scan = max_i τ_i`, which
/// the shared scan must cover — computed *without* building the lanes
/// (no contexts, cascades or heaps; used by the streaming producer,
/// whose workers build their own lanes).
pub(crate) fn scan_tau_of(queries: &[BatchQuery<'_>], model: &dyn CostModel, c_t: u64) -> u32 {
    queries
        .iter()
        .map(|bq| {
            let tau =
                crate::threshold::threshold_for_query(bq.query, model, c_t, bq.k.max(1) as u64);
            u32::try_from(tau).unwrap_or(u32::MAX)
        })
        .max()
        .unwrap_or(1)
        .max(1)
}

/// Builds one lane per batch query and returns them with the widest
/// lane threshold — the shared scan must cover `τ_scan = max_i τ_i`.
pub(crate) fn build_lanes<'a>(
    queries: &[BatchQuery<'a>],
    model: &'a dyn CostModel,
    c_t: u64,
    kernel: TedKernel,
) -> (Vec<EvalLane<'a>>, u32) {
    let mut scan_tau = 1u32;
    let lanes = queries
        .iter()
        .map(|bq| {
            let lane = EvalLane::new(bq.query, bq.k, model, c_t, kernel);
            scan_tau = scan_tau.max(lane.tau32());
            lane
        })
        .collect();
    (lanes, scan_tau)
}

/// Pre-reserves every lane's DP workspace plus the shared cascade
/// scratch for candidates of up to `scan_tau` nodes, under the same
/// byte cap as [`TasmWorkspace::reserve`](crate::TasmWorkspace::reserve)
/// (a pathological τ falls back to on-demand growth).
pub(crate) fn reserve_lanes(
    lanes: &[EvalLane<'_>],
    teds: &mut [TedWorkspace],
    lb: &mut CascadeScratch,
    scan_tau: u32,
) {
    let n = scan_tau as usize;
    let mut max_m = 0usize;
    for (lane, ted) in lanes.iter().zip(teds.iter_mut()) {
        let m = lane.ctx.len();
        max_m = max_m.max(m);
        if matrices_fit_cap(m, n) {
            ted.reserve(m, n);
            if lane.ctx.uses_strategy_kernel() {
                ted.reserve_mirror(n);
            }
        }
    }
    if scratch_fits_cap(n) {
        lb.reserve(max_m, n);
    }
}

/// Offers one candidate to every lane: per-lane Lemma 4 cutoff, cascade
/// decision and heap, with the funnel counters landing in each lane's
/// own [`ScanStats`]. `doc_post_offset` is the document postorder
/// number of the node preceding the candidate span.
pub(crate) fn fan_out(
    lanes: &mut [EvalLane<'_>],
    teds: &mut [TedWorkspace],
    lb: &mut CascadeScratch,
    cand: TreeView<'_>,
    doc_post_offset: u32,
    opts: TasmOptions,
    mut ted_stats: Option<&mut TedStats>,
) {
    for (lane, ted) in lanes.iter_mut().zip(teds.iter_mut()) {
        process_candidate_parts(
            &mut lane.heap,
            &lane.ctx,
            &lane.cascade,
            cand,
            doc_post_offset,
            lane.tau,
            opts,
            lb,
            ted,
            &mut lane.stats,
            ted_stats.as_deref_mut(),
        );
    }
}

/// A batch's lanes together with everything they evaluate with: one
/// [`TedWorkspace`] per lane and a shared [`CascadeScratch`], all
/// reserved up front for candidates of up to `τ_scan` nodes, plus the
/// optional distance stats and the scan-layer counters of the
/// candidates evaluated here. One thread owns one set: a streaming
/// shard worker, the indexed seed pass or an indexed region worker.
pub(crate) struct LaneSet<'a> {
    pub(crate) lanes: Vec<EvalLane<'a>>,
    /// The widest lane threshold, `τ_scan = max_i τ_i`.
    pub(crate) scan_tau: u32,
    /// Counters of the candidates offered through [`eval`](Self::eval).
    pub(crate) scan: ScanStats,
    teds: Vec<TedWorkspace>,
    lb: CascadeScratch,
    opts: TasmOptions,
    ted_stats: Option<TedStats>,
}

impl<'a> LaneSet<'a> {
    /// Builds one lane per batch query and reserves its evaluation
    /// scratch, so no candidate grows a buffer mid-pass (what keeps the
    /// candidate loops zero-alloc).
    pub(crate) fn new(
        queries: &[BatchQuery<'a>],
        model: &'a dyn CostModel,
        c_t: u64,
        opts: TasmOptions,
        want_ted_stats: bool,
    ) -> Self {
        let (lanes, scan_tau) = build_lanes(queries, model, c_t, opts.kernel);
        let mut teds: Vec<TedWorkspace> = (0..lanes.len()).map(|_| TedWorkspace::new()).collect();
        let mut lb = CascadeScratch::new();
        reserve_lanes(&lanes, &mut teds, &mut lb, scan_tau);
        LaneSet {
            lanes,
            scan_tau,
            scan: ScanStats::default(),
            teds,
            lb,
            opts,
            ted_stats: want_ted_stats.then(TedStats::new),
        }
    }

    /// Offers one candidate to every lane ([`fan_out`]) and counts it:
    /// one candidate, its nodes seen, its size against the peak.
    pub(crate) fn eval(&mut self, cand: TreeView<'_>, doc_post_offset: u32) {
        let len = cand.len() as u32;
        self.scan.candidates += 1;
        self.scan.nodes_seen = self.scan.nodes_seen.saturating_add(len);
        self.scan.peak_buffered = self.scan.peak_buffered.max(len as usize);
        fan_out(
            &mut self.lanes,
            &mut self.teds,
            &mut self.lb,
            cand,
            doc_post_offset,
            self.opts,
            self.ted_stats.as_mut(),
        );
    }

    /// Hands the lanes' heaps and funnels back for
    /// [`merge_shard_results`].
    pub(crate) fn into_result(self) -> ShardResult {
        ShardResult {
            lane_funnels: self.lanes.iter().map(|l| l.stats).collect(),
            heaps: self.lanes.into_iter().map(|l| l.heap).collect(),
            scan: self.scan,
            ted_stats: self.ted_stats,
        }
    }
}

/// Resolves a `threads` argument: `0` means "one per available core".
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        threads
    }
}

/// The result one shard worker hands back: per-lane heaps and funnels
/// plus the shard's scan-layer counters and (optional) distance stats.
pub(crate) struct ShardResult {
    pub(crate) heaps: Vec<TopKHeap>,
    pub(crate) lane_funnels: Vec<ScanStats>,
    pub(crate) scan: ScanStats,
    pub(crate) ted_stats: Option<TedStats>,
}

/// Merges per-shard results into one ranking per lane plus the
/// aggregated statistics, preserving lane (query) order. Scan-layer
/// counters sum across shards (each scanned disjoint candidates);
/// per-lane funnels sum; the aggregate adds all lane funnels on top.
pub(crate) fn merge_shard_results(
    n_lanes: usize,
    results: Vec<ShardResult>,
    mut stats: Option<&mut TedStats>,
) -> BatchOutput {
    let mut merged: Vec<Option<TopKHeap>> = (0..n_lanes).map(|_| None).collect();
    let mut lanes = vec![ScanStats::default(); n_lanes];
    let mut scan = ScanStats::default();
    for shard in results {
        scan.merge(&shard.scan);
        if let (Some(out), Some(ts)) = (stats.as_deref_mut(), shard.ted_stats.as_ref()) {
            out.merge(ts);
        }
        for (i, (heap, funnel)) in shard.heaps.into_iter().zip(shard.lane_funnels).enumerate() {
            lanes[i].merge(&funnel);
            merged[i] = Some(match merged[i].take() {
                None => heap,
                Some(mut acc) => {
                    acc.merge(heap);
                    acc
                }
            });
        }
    }
    let mut aggregate = scan;
    for ls in &mut lanes {
        ls.adopt_scan_layer(&scan);
        aggregate.merge_funnel(ls);
    }
    let rankings = merged
        .into_iter()
        .map(|h| h.expect("every lane ran on every shard").into_sorted())
        .collect();
    BatchOutput {
        rankings,
        scan: aggregate,
        lanes,
    }
}
