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

use crate::batch::{BatchOutput, BatchQuery};
use crate::deadline::{Deadline, DeadlineExceeded};
use crate::engine::{CandidateSink, ScanStats};
use crate::ranking::TopKHeap;
use crate::tasm_dynamic::TasmOptions;
use crate::tasm_postorder::process_candidate_parts;
use crate::threshold::threshold;
use crate::workspace::{matrices_fit_cap, scratch_fits_cap, LaneScratch, TasmWorkspace};
use tasm_ted::{CostModel, LowerBoundCascade, QueryContext, TedKernel, TedStats, TedWorkspace};
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
    fn new(
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
}

/// The widest lane threshold of a batch — `τ_scan = max_i τ_i`, which
/// a shared pass must cover — computed *without* building the lanes
/// (no contexts, cascades or heaps; used where the workers build their
/// own lanes).
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

/// A batch's lanes together with what they evaluate with: one
/// [`TedWorkspace`] per lane and the shared cascade scratch, borrowed
/// from a [`LaneScratch`] and reserved up front for candidates of up to
/// `τ_scan` nodes, plus the optional distance stats and the scan-layer
/// counters of the candidates evaluated here.
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
    /// τ falls back to on-demand growth.
    pub(crate) fn new(
        queries: &[BatchQuery<'a>],
        model: &'a dyn CostModel,
        c_t: u64,
        opts: TasmOptions,
        want_ted_stats: bool,
        scratch: &'w mut LaneScratch,
    ) -> Self {
        let mut scan_tau = 1u32;
        let lanes: Vec<EvalLane<'a>> = queries
            .iter()
            .map(|bq| {
                let lane = EvalLane::new(bq.query, bq.k, model, c_t, opts.kernel);
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
            opts,
            ted_stats: want_ted_stats.then(TedStats::new),
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
            process_candidate_parts(
                &mut lane.heap,
                &lane.ctx,
                &lane.cascade,
                cand,
                doc_post_offset,
                lane.tau,
                self.opts,
                lb,
                ted,
                &mut lane.stats,
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
    /// (polled once per pull, strided — see [`Deadline::poll`]).
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
/// `ws`; every other worker runs on a workspace of its own and a
/// [`Deadline`] minted from the same expiry (the token is deliberately
/// `!Sync`). A worker that fails cancels the run: the others fail at
/// their next pull, and no partial result is returned. At one thread
/// (or one unit) no thread is spawned, so the loop is exactly the
/// sequential one. Returns one result per worker, the caller's first.
pub(crate) fn pull_units<R: Send>(
    units: usize,
    threads: usize,
    ws: &mut TasmWorkspace,
    deadline: &Deadline,
    worker: impl Fn(&mut TasmWorkspace, &Units, &Deadline) -> Result<R, DeadlineExceeded> + Sync,
) -> Result<Vec<R>, DeadlineExceeded> {
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
        return run(ws, deadline).map(|r| vec![r]);
    }
    let expiry = deadline.instant();
    std::thread::scope(|scope| {
        let run = &run;
        let handles: Vec<_> = (1..workers)
            .map(|_| {
                scope.spawn(move || {
                    let deadline = expiry.map_or_else(Deadline::none, Deadline::at);
                    run(&mut TasmWorkspace::new(), &deadline)
                })
            })
            .collect();
        let mine = run(ws, deadline);
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
/// aggregated statistics, preserving lane (query) order, and folds the
/// distance stats into `stats`. Scan-layer counters sum across workers
/// (each evaluated disjoint candidates) unless `shared` holds the
/// counters of the one scan pass that fed them all; per-lane funnels
/// sum; the aggregate adds all lane funnels on top.
pub(crate) fn merge_shard_results(
    n_lanes: usize,
    results: Vec<ShardResult>,
    mut stats: Option<&mut TedStats>,
    shared: Option<&ScanStats>,
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn a_deadline_in_one_worker_stops_every_worker() {
        // Only the calling thread's worker watches the (expired)
        // deadline; the others ignore theirs, so the cancel flag alone
        // must stop them. The barrier starts every worker before the
        // first pull; undisturbed, the other two would spend
        // 600 units × 1 ms / 2 draining the cursor.
        let caller = std::thread::current().id();
        let started = Barrier::new(3);
        let pulled = AtomicUsize::new(0);
        let expired = Deadline::after(Duration::ZERO);
        let got = pull_units(
            600,
            3,
            &mut TasmWorkspace::new(),
            &expired,
            |_, units, deadline| {
                let never = Deadline::none();
                let mine = std::thread::current().id() == caller;
                started.wait();
                while units.next(if mine { deadline } else { &never })?.is_some() {
                    pulled.fetch_add(1, Ordering::Relaxed);
                    if !mine {
                        std::thread::sleep(Duration::from_millis(1));
                    }
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
                &mut TasmWorkspace::new(),
                &Deadline::none(),
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
