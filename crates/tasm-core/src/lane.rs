//! Per-query evaluation lanes, the one lane holder every driver
//! evaluates through, and the one pull loop of the resident drivers.
//!
//! A *lane* is everything one query needs to evaluate candidates: its
//! [`QueryContext`], its admissible [`LowerBoundCascade`], its own
//! Theorem 3 bound τ_i, its [`TopKHeap`] and its pruning-funnel
//! counters. Lanes only ever see a candidate as a borrowed
//! [`TreeView`] — the postorder interval `[lml, root]` as two slices —
//! wherever it lives. A [`LaneSet`] holds one lane per batch query and
//! evaluates them with the [`LaneScratch`] of a
//! [`TasmWorkspace`](crate::TasmWorkspace) it borrows; one thread owns
//! one set:
//!
//! * [`tasm_batch`](crate::tasm_batch) — the set is the sink of **one**
//!   shared scan (a single [`tasm_postorder`](crate::tasm_postorder)
//!   query is the one-lane case), or one set per streaming shard
//!   worker, viewing candidates in its segments;
//! * [`tasm_resident_batch`](crate::tasm_resident_batch) and
//!   [`tasm_indexed_batch`](crate::tasm_indexed_batch) — one set per
//!   [`pull_units`] worker, viewing the candidates (of a swept block,
//!   or the index's regions) in place in the resident document;
//! * [`tasm_corpus_batch`](crate::tasm_corpus_batch) — one
//!   [`pull_units`] worker per shard slot, each running the indexed
//!   driver on its own workspace.
//!
//! Per-lane heaps of the parallel paths merge with
//! [`TopKHeap::merge`] ([`merge_shard_results`]); the rank key is a
//! total order, so any composition returns exactly the sequential
//! per-query rankings (pinned by `tests/differential.rs`).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

use crate::batch::{BatchOutput, BatchQuery};
use crate::deadline::{Deadline, DeadlineExceeded};
use crate::engine::{CandidateSink, ScanStats};
use crate::ranking::TopKHeap;
use crate::run::Run;
use crate::tasm_dynamic::{rank_subtrees_into, TasmOptions};
use crate::threshold::{refined_threshold, threshold};
use crate::workspace::{matrices_fit_cap, scratch_fits_cap, LaneScratch, TasmWorkspace};
use tasm_ted::{
    CascadeDecision, CascadeScratch, CostModel, LowerBoundCascade, QueryContext, TedKernel,
    TedStats, TedWorkspace,
};
use tasm_tree::{NodeId, Tree, TreeView};

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

    /// Algorithm 3, lines 7–19: traverse the subtrees of candidate
    /// `cand` in reverse postorder; evaluate each maximal subtree below
    /// the current bound `τ'` with TASM-dynamic — unless the lane's
    /// cascade refutes it against the current heap cutoff — and skip
    /// over its nodes, descending one node at a time otherwise. The
    /// funnel counters land in the lane's own [`ScanStats`].
    ///
    /// `doc_post_offset` is the document postorder number of the node
    /// preceding the candidate's leftmost node. The candidate is a
    /// borrowed [`TreeView`] wherever it lives — scan arena, stream
    /// segment or resident document — so every driver (and
    /// [`tasm_dynamic`](crate::tasm_dynamic), with an unbounded τ)
    /// evaluates in place.
    pub(crate) fn evaluate(
        &mut self,
        cand: TreeView<'_>,
        doc_post_offset: u32,
        opts: TasmOptions,
        lb: &mut CascadeScratch,
        ted: &mut TedWorkspace,
        mut stats: Option<&mut TedStats>,
    ) {
        let EvalLane {
            ctx,
            cascade,
            tau,
            heap,
            stats: scan,
        } = self;
        let m = ctx.len() as u64;
        let mut r = cand.len() as u32; // local postorder of the current root
        while r >= 1 {
            let node = NodeId::new(r);
            let size = cand.size(node) as u64;
            let tau_prime = if opts.use_tau_prime && heap.is_full() {
                refined_threshold(*tau, heap.max_distance().expect("full heap"), m)
            } else {
                *tau
            };
            // `<=` (not `<`): both Theorem 3 and Lemma 3 bound answer
            // sizes *inclusively* (|T_i| <= δ + |Q|), and a subtree of
            // size exactly τ' can still tie the current maximum on
            // distance and win on postorder number. Evaluating the
            // boundary keeps the ranking exact — the batch and parallel
            // paths rely on it for result-set equality with the
            // sequential path.
            if !heap.is_full() || size <= tau_prime {
                // Zero-copy: the subtree (whole candidate included) is a
                // contiguous slice of the candidate.
                let doc = cand.subtree_view(node);
                // The cascade's verdict covers *all* subtrees of `doc`
                // (one DP would rank them all), so a refuted subtree is
                // skipped wholesale. Strictness (`bound > max(R)`) keeps
                // the heap content — and hence every later τ'/cutoff —
                // identical to a cascade-off run.
                if opts.use_cascade && heap.is_full() {
                    let cutoff = heap.max_distance().expect("full heap");
                    match cascade.decide(doc, cutoff, lb) {
                        CascadeDecision::Evaluate => {}
                        CascadeDecision::PrunedByHistogram => {
                            scan.pruned_histogram += 1;
                            r -= size as u32;
                            continue;
                        }
                        CascadeDecision::PrunedBySed => {
                            scan.pruned_sed += 1;
                            r -= size as u32;
                            continue;
                        }
                    }
                }
                scan.evaluated += 1;
                if ctx.uses_strategy_kernel() {
                    scan.evaluated_strategy += 1;
                } else {
                    scan.evaluated_zs += 1;
                }
                let sub_offset = doc_post_offset + r - size as u32;
                rank_subtrees_into(heap, ctx, doc, sub_offset, opts, ted, stats.as_deref_mut());
                // All subtrees of `doc` were ranked as a side effect.
                r -= size as u32;
            } else {
                scan.pruned_size += 1;
                r -= 1;
            }
        }
    }
}

/// The widest lane threshold of a batch — `τ_scan = max_i τ_i`, which
/// a shared pass must cover — computed *without* building the lanes
/// (no contexts, cascades or heaps; used where the workers build their
/// own lanes).
pub(crate) fn scan_tau_of(queries: &[BatchQuery<'_>], run: &Run<'_>) -> u32 {
    queries
        .iter()
        .map(|bq| {
            let tau = crate::threshold::threshold_for_query(
                bq.query,
                run.model,
                run.c_t,
                bq.k.max(1) as u64,
            );
            u32::try_from(tau).unwrap_or(u32::MAX)
        })
        .max()
        .unwrap_or(1)
        .max(1)
}

/// A batch's lanes together with what they evaluate with: one
/// [`TedWorkspace`] per lane and the shared cascade scratch, borrowed
/// from a [`LaneScratch`] and reserved up front for candidates of up to
/// `τ_scan` nodes, plus the run's distance stats (when asked for) and
/// the scan-layer counters of the candidates evaluated here.
pub(crate) struct LaneSet<'a, 'w> {
    pub(crate) lanes: Vec<EvalLane<'a>>,
    /// The widest lane threshold, `τ_scan = max_i τ_i`.
    pub(crate) scan_tau: u32,
    /// Counters of the candidates offered through [`eval`](Self::eval).
    scan: ScanStats,
    scratch: &'w mut LaneScratch,
    opts: TasmOptions,
    ted_stats: Option<TedStats>,
}

impl<'a, 'w> LaneSet<'a, 'w> {
    /// Builds one lane per batch query and reserves `scratch` for the
    /// widest candidate the pass can emit, so no candidate grows a
    /// buffer mid-pass (what keeps the candidate loops zero-alloc). The
    /// reservation is capped at
    /// [`RESERVE_CAP_BYTES`](crate::RESERVE_CAP_BYTES): a pathological
    /// τ falls back to on-demand growth. The set keeps its own copy of
    /// `run.opts`; the candidate loop reads nothing through `run`.
    pub(crate) fn new(
        queries: &[BatchQuery<'a>],
        run: &Run<'a>,
        scratch: &'w mut LaneScratch,
    ) -> Self {
        let mut scan_tau = 1u32;
        let lanes: Vec<EvalLane<'a>> = queries
            .iter()
            .map(|bq| {
                let lane = EvalLane::new(bq.query, bq.k, run.model, run.c_t, run.opts.kernel);
                scan_tau = scan_tau.max(u32::try_from(lane.tau).unwrap_or(u32::MAX));
                lane
            })
            .collect();
        if scratch.teds.len() < lanes.len() {
            scratch.teds.resize_with(lanes.len(), TedWorkspace::new);
        }
        let n = scan_tau as usize;
        let mut max_m = 0usize;
        for (lane, ted) in lanes.iter().zip(&mut scratch.teds) {
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
            scratch.lb.reserve(max_m, n);
        }
        LaneSet {
            lanes,
            scan_tau,
            scan: ScanStats::default(),
            scratch,
            opts: run.opts,
            ted_stats: run.ted_stats.then(TedStats::new),
        }
    }

    /// Offers one candidate to every lane — per-lane Lemma 4 cutoff,
    /// cascade decision and heap, with the funnel counters landing in
    /// each lane's own [`ScanStats`] — and counts it: one candidate, its
    /// nodes seen, its size against the peak. `doc_post_offset` is the
    /// document postorder number of the node preceding the candidate.
    pub(crate) fn eval(&mut self, cand: TreeView<'_>, doc_post_offset: u32) {
        let len = cand.len() as u32;
        self.scan.candidates += 1;
        self.scan.nodes_seen = self.scan.nodes_seen.saturating_add(len);
        self.scan.peak_buffered = self.scan.peak_buffered.max(len as usize);
        let LaneScratch { lb, teds } = &mut *self.scratch;
        for (lane, ted) in self.lanes.iter_mut().zip(teds) {
            lane.evaluate(
                cand,
                doc_post_offset,
                self.opts,
                lb,
                ted,
                self.ted_stats.as_mut(),
            );
        }
    }

    /// Counts `nodes` the candidate generation examined outside every
    /// candidate offered here (a resident sweep's spine).
    pub(crate) fn see(&mut self, nodes: u64) {
        let nodes = u32::try_from(nodes).unwrap_or(u32::MAX);
        self.scan.nodes_seen = self.scan.nodes_seen.saturating_add(nodes);
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

/// The set as the sink of a shared [`ScanEngine`](crate::ScanEngine)
/// pass: every candidate of the arena is evaluated in place.
impl CandidateSink for LaneSet<'_, '_> {
    fn consume(&mut self, cand: &Tree, root: NodeId, _scan: &mut ScanStats) {
        self.eval(cand.view(), root.post() - cand.len() as u32);
    }
}

/// The shared cursor of a [`pull_units`] run. Both atomics are
/// `Relaxed`: they publish no other data (the units are read-only, and
/// every result travels back through the thread join).
pub(crate) struct Units {
    next: AtomicUsize,
    len: usize,
    cancelled: AtomicBool,
    /// Whether more than one worker pulls. A lone worker advances the
    /// cursor with a plain load and store: an atomic read-modify-write
    /// per pull cost a one-thread XMark query with 80 k regions 10%.
    shared: bool,
}

impl Units {
    /// The next unit to evaluate, `None` once every unit is taken.
    /// Fails once another worker failed, or when `deadline` expires
    /// (polled once per pull, strided).
    pub(crate) fn next(&self, deadline: &Deadline) -> Result<Option<usize>, DeadlineExceeded> {
        let unit = if self.shared {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            let unit = self.next.load(Ordering::Relaxed);
            self.next.store(unit + 1, Ordering::Relaxed);
            unit
        };
        if unit >= self.len {
            return Ok(None);
        }
        if self.cancelled.load(Ordering::Relaxed) || deadline.poll() {
            return Err(DeadlineExceeded);
        }
        Ok(Some(unit))
    }
}

/// The one scheduler of the resident drivers: `threads` workers pull
/// the unit indices `0..units` from one shared cursor, in order, until
/// none is left. The calling thread is one of the workers and runs on
/// `ws`; every other worker runs on a workspace of its own. Each worker
/// mints its own [`Deadline`] poller from `expiry` (the poller is
/// deliberately `!Sync`), and the calling thread checks it before any
/// work starts. A worker that fails cancels the run: the others fail at
/// their next pull, and no partial result is returned. At one thread
/// (or one unit) no thread is spawned, so the loop is exactly the
/// sequential one. Returns one result per worker, the caller's first.
pub(crate) fn pull_units<R: Send>(
    units: usize,
    threads: usize,
    expiry: Option<Instant>,
    ws: &mut TasmWorkspace,
    worker: impl Fn(&mut TasmWorkspace, &Units, &Deadline) -> Result<R, DeadlineExceeded> + Sync,
) -> Result<Vec<R>, DeadlineExceeded> {
    let deadline = Deadline::new(expiry);
    if deadline.expired_now() {
        return Err(DeadlineExceeded);
    }
    let workers = threads.min(units).max(1);
    let cursor = Units {
        next: AtomicUsize::new(0),
        len: units,
        cancelled: AtomicBool::new(false),
        shared: workers > 1,
    };
    let run = |ws: &mut TasmWorkspace, deadline: &Deadline| {
        let out = worker(ws, &cursor, deadline);
        if out.is_err() {
            cursor.cancelled.store(true, Ordering::Relaxed);
        }
        out
    };
    if workers == 1 {
        return run(ws, &deadline).map(|r| vec![r]);
    }
    std::thread::scope(|scope| {
        let run = &run;
        let handles: Vec<_> = (1..workers)
            .map(|_| scope.spawn(move || run(&mut TasmWorkspace::new(), &Deadline::new(expiry))))
            .collect();
        let mine = run(ws, &deadline);
        let theirs = handles
            .into_iter()
            .map(|h| h.join().expect("pull worker panicked"));
        std::iter::once(mine).chain(theirs).collect()
    })
}

/// The result one worker hands back: per-lane heaps and funnels plus
/// the worker's scan-layer counters and (optional) distance stats.
pub(crate) struct ShardResult {
    pub(crate) heaps: Vec<TopKHeap>,
    pub(crate) lane_funnels: Vec<ScanStats>,
    pub(crate) scan: ScanStats,
    pub(crate) ted_stats: Option<TedStats>,
}

/// Merges per-worker results into one ranking per lane plus the
/// aggregated statistics, preserving lane (query) order. Scan-layer
/// counters sum across workers (each evaluated disjoint candidates)
/// unless `shared` holds the counters of the one scan pass that fed
/// them all; per-lane funnels and distance stats sum; the aggregate
/// adds all lane funnels on top.
pub(crate) fn merge_shard_results(
    n_lanes: usize,
    results: Vec<ShardResult>,
    shared: Option<&ScanStats>,
) -> BatchOutput {
    let mut merged: Vec<Option<TopKHeap>> = (0..n_lanes).map(|_| None).collect();
    let mut lanes = vec![ScanStats::default(); n_lanes];
    let mut scan = ScanStats::default();
    let mut ted: Option<TedStats> = None;
    for shard in results {
        scan.merge(&shard.scan);
        if let Some(ts) = shard.ted_stats {
            match &mut ted {
                None => ted = Some(ts),
                Some(acc) => acc.merge(&ts),
            }
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
    if let Some(shared) = shared {
        scan.adopt_scan_layer(shared);
    }
    let mut aggregate = scan;
    for ls in &mut lanes {
        ls.adopt_scan_layer(&scan);
        aggregate.merge_funnel(ls);
    }
    let rankings = merged
        .into_iter()
        .map(|h| h.expect("every lane ran on every worker").into_sorted())
        .collect();
    BatchOutput {
        rankings,
        scan: aggregate,
        lanes,
        ted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn a_deadline_in_one_worker_stops_every_worker() {
        // Only the calling thread's worker watches the deadline (it
        // expires 50 ms in); the others ignore theirs, so the cancel
        // flag alone must stop them. The barrier starts every worker
        // before the first pull; undisturbed, the three would spend
        // 600 units × 1 ms / 3 = 200 ms draining the cursor.
        let caller = std::thread::current().id();
        let started = Barrier::new(3);
        let pulled = AtomicUsize::new(0);
        let expiry = Instant::now() + Duration::from_millis(50);
        let got = pull_units(
            600,
            3,
            Some(expiry),
            &mut TasmWorkspace::new(),
            |_, units, deadline| {
                let never = Deadline::new(None);
                let mine = std::thread::current().id() == caller;
                started.wait();
                while units.next(if mine { deadline } else { &never })?.is_some() {
                    pulled.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(())
            },
        );
        assert_eq!(got.unwrap_err(), DeadlineExceeded);
        let pulled = pulled.load(Ordering::Relaxed);
        assert!(
            pulled < 300,
            "{pulled} units pulled: the cancel did not stop the workers"
        );
    }

    #[test]
    fn every_unit_is_pulled_once() {
        for threads in 1..=4 {
            let seen: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
            let got = pull_units(
                seen.len(),
                threads,
                None,
                &mut TasmWorkspace::new(),
                |_, units, deadline| {
                    let mut mine = 0usize;
                    while let Some(unit) = units.next(deadline)? {
                        seen[unit].fetch_add(1, Ordering::Relaxed);
                        mine += 1;
                    }
                    Ok(mine)
                },
            )
            .unwrap();
            assert_eq!(got.len(), threads);
            assert_eq!(got.iter().sum::<usize>(), seen.len());
            assert!(seen.iter().all(|s| s.load(Ordering::Relaxed) == 1));
        }
    }
}
