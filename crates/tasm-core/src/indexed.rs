//! Index-backed TASM: candidate generation from a persistent `.pqi`
//! label index instead of a full document scan.
//!
//! The scan entry points pay `O(n)` per pass: every node of the document
//! streams through the prefix ring buffer even when the top-k answers
//! hide in a few subtrees. An [`IndexedDocument`] inverts that cost
//! model for the index-once / query-many workload:
//!
//! 1. the candidate set `cand(T, τ)` (Def. 9) is derived from the
//!    subtree-size column — examining only the nodes *above* the
//!    candidate frontier, not all `n`;
//! 2. the per-label postings bound every candidate region's label
//!    overlap with each query (rarest labels first — they have the
//!    shortest postings), giving the admissible histogram lower bound
//!    `δ(Q, S) >= |Q| − common` for **every** subtree `S` of the region
//!    (the same bound as `tasm_ted`'s filter cascade, hoisted from
//!    per-candidate to per-region);
//! 3. regions are evaluated most-promising first, so the top-k heaps
//!    tighten early and later regions whose bound exceeds every lane's
//!    cutoff are skipped without ever materializing a candidate.
//!
//! Skipping is **exact**: a region is dropped only when every lane's
//! heap is full and the bound *strictly* exceeds its cutoff — the same
//! admissibility argument as
//! [`LowerBoundCascade::decide`](tasm_ted::LowerBoundCascade::decide) —
//! and the rank key (distance, document postorder, size) is a total
//! order, so the ranking is independent of evaluation order. Evaluated
//! regions flow through the unchanged lane machinery
//! ([`fan_out`](crate::lane::fan_out) into the cascade, heaps and
//! [`ScanStats`] funnel), so [`tasm_indexed_batch`] returns
//! **identical** rankings to [`tasm_postorder`](crate::tasm_postorder)
//! / [`tasm_naive`](crate::tasm_naive) (pinned by
//! `tests/differential.rs`).
//!
//! With more than one thread, the regions that survive the seed pass
//! are split into node-balanced contiguous shards ([`shard_spans`]),
//! each replayed by a worker through a [`SpanQueue`] into its own scan
//! engine and lanes.

use crate::batch::{BatchOutput, BatchQuery};
use crate::deadline::{Deadline, DeadlineExceeded};
use crate::engine::{CandidateSink, ScanEngine, ScanStats};
use crate::lane::{
    build_lanes, fan_out, merge_shard_results, reserve_lanes, resolve_threads, scan_tau_of,
    EvalLane, ShardResult,
};
use crate::tasm_dynamic::TasmOptions;
use crate::workspace::scratch_fits_cap;
use tasm_index::IndexedDocument;
use tasm_ted::{CascadeScratch, Cost, CostModel, TedStats, TedWorkspace};
use tasm_tree::{LabelDict, LabelId, NodeId, PostorderEntry, PostorderQueue, Tree};

/// Once every lane's heap is full, how many further seed regions the
/// parallel driver evaluates before freezing the cutoffs and handing
/// the filtered remainder to the shard workers.
const SEED_EXTRA: usize = 16;

/// A postorder queue replaying selected `(lml, root)` spans of an
/// in-memory document — each span a complete subtree, so every prefix of
/// the stream is a valid forest (what the ring buffer requires).
struct SpanQueue<'a> {
    doc: &'a Tree,
    spans: &'a [(u32, u32)],
    /// Index of the span currently being replayed.
    span_idx: usize,
    /// Next document postorder number within the current span (0 = start
    /// of the span not yet entered).
    pos: u32,
}

impl<'a> SpanQueue<'a> {
    fn new(doc: &'a Tree, spans: &'a [(u32, u32)]) -> Self {
        SpanQueue {
            doc,
            spans,
            span_idx: 0,
            pos: 0,
        }
    }
}

impl PostorderQueue for SpanQueue<'_> {
    fn dequeue(&mut self) -> Option<PostorderEntry> {
        loop {
            let &(lo, hi) = self.spans.get(self.span_idx)?;
            if self.pos == 0 {
                self.pos = lo;
            }
            if self.pos > hi {
                self.span_idx += 1;
                self.pos = 0;
                continue;
            }
            let id = NodeId::new(self.pos);
            self.pos += 1;
            // Subtree sizes are invariant under the renumbering of a span
            // to local postorder, so the arena values stream unchanged.
            return Some(PostorderEntry {
                label: self.doc.label(id),
                size: self.doc.size(id),
            });
        }
    }

    fn len_hint(&self) -> Option<usize> {
        Some(
            self.spans
                .iter()
                .map(|&(lo, hi)| (hi - lo + 1) as usize)
                .sum(),
        )
    }
}

/// Splits `spans` into at most `shards` contiguous groups of roughly
/// equal **node** weight (candidate counts can be wildly uneven in
/// size); every group is non-empty.
fn shard_spans(spans: &[(u32, u32)], shards: usize) -> Vec<&[(u32, u32)]> {
    let span_weight = |&(lo, hi): &(u32, u32)| u64::from(hi - lo + 1);
    if spans.is_empty() {
        return Vec::new();
    }
    let shards = shards.clamp(1, spans.len());
    let mut out = Vec::with_capacity(shards);
    let mut start = 0usize;
    let mut remaining_weight: u64 = spans.iter().map(span_weight).sum();
    for s in 0..shards {
        if s + 1 == shards {
            out.push(&spans[start..]);
            break;
        }
        // Fill this shard up to its fair share of the remaining weight,
        // but leave at least one span for each remaining shard. Since
        // `shards <= spans.len()`, the cap always leaves this shard at
        // least one span as well.
        let target = remaining_weight / (shards - s) as u64;
        let cap = spans.len() - (shards - s - 1);
        let mut weight = 0u64;
        let mut end = start;
        while end < cap && (end == start || weight + span_weight(&spans[end]) <= target) {
            weight += span_weight(&spans[end]);
            end += 1;
        }
        out.push(&spans[start..end]);
        remaining_weight -= weight;
        start = end;
    }
    out
}

/// Shard-side sink: maps each emitted candidate back to its document
/// span (the scan re-derives candidates 1:1 with the shard's spans, in
/// order) and fans it out to every query lane of the shard.
struct ShardSink<'a> {
    lanes: Vec<EvalLane<'a>>,
    teds: Vec<TedWorkspace>,
    lb: CascadeScratch,
    opts: TasmOptions,
    spans: &'a [(u32, u32)],
    next: usize,
    stats: Option<TedStats>,
}

impl CandidateSink for ShardSink<'_> {
    fn consume(&mut self, cand: &Tree, _local_root: NodeId, _scan: &mut ScanStats) {
        let (lml, root) = self.spans[self.next];
        self.next += 1;
        debug_assert_eq!(
            cand.len() as u32,
            root - lml + 1,
            "shard scan must re-derive exactly the sharded candidate"
        );
        fan_out(
            &mut self.lanes,
            &mut self.teds,
            &mut self.lb,
            cand,
            lml - 1,
            self.opts,
            self.stats.as_mut(),
        );
    }
}

/// The admissible per-region lower bound: each of the `m` query nodes
/// without an equal-label partner in the region costs at least one
/// natural unit (node costs are clamped `>= 1`, Def. 4), for every
/// subtree inside the region.
fn region_bound(m: u64, common: u32) -> Cost {
    Cost::from_natural(m.saturating_sub(u64::from(common)))
}

/// Whether any lane still has use for region `ri`: an unfilled heap
/// accepts everything; a full one only if the region bound does not
/// strictly exceed its cutoff (ties must be evaluated, exactly as in
/// the per-candidate cascade).
fn region_wanted(lanes: &[EvalLane<'_>], msizes: &[u64], commons: &[Vec<u32>], ri: usize) -> bool {
    lanes
        .iter()
        .enumerate()
        .any(|(li, lane)| match lane.heap.max_distance() {
            Some(cutoff) if lane.heap.is_full() => {
                region_bound(msizes[li], commons[li][ri]) <= cutoff
            }
            _ => true,
        })
}

/// Evaluates one `(lml, root)` span through every lane: clones the
/// subtree out of the materialized document (local postorder, sizes
/// invariant) and fans it out exactly as the scan sinks do.
#[allow(clippy::too_many_arguments)]
fn eval_span(
    span: (u32, u32),
    doc: &Tree,
    scratch: &mut Tree,
    lanes: &mut [EvalLane<'_>],
    teds: &mut [TedWorkspace],
    lb: &mut CascadeScratch,
    scan: &mut ScanStats,
    opts: TasmOptions,
    ted_stats: Option<&mut TedStats>,
) {
    let (lo, hi) = span;
    scratch.clone_subtree_from(doc, NodeId::new(hi));
    scan.candidates += 1;
    scan.nodes_seen = scan.nodes_seen.saturating_add(hi - lo + 1);
    scan.peak_buffered = scan.peak_buffered.max((hi - lo + 1) as usize);
    fan_out(lanes, teds, lb, scratch, lo - 1, opts, ted_stats);
}

/// Counts a region skip in every lane's funnel: the histogram tier
/// refuted it for each of them (a region is only skipped when **all**
/// lanes refuse it).
fn count_region_skip(lanes: &mut [EvalLane<'_>]) {
    for lane in lanes {
        lane.stats.pruned_histogram += 1;
    }
}

/// Answers every query of `queries` from one candidate-region pass over
/// an indexed document, with the rankings of
/// [`tasm_postorder`](crate::tasm_postorder) but candidates generated
/// from the `.pqi` index instead of a full scan. The region filter keeps
/// a region alive as long as **any** lane still wants it; region skips
/// count into each lane's histogram tier. `nodes_seen` counts the nodes
/// the index actually examined (candidate-frontier walk plus evaluated
/// regions) — compare it against the document size to see what the
/// index saved.
///
/// `src_dict` is the dictionary the queries were parsed with; they are
/// re-encoded into the index's frequency-ordered label space
/// internally. Label-dependent [`CostModel`]s must therefore be defined
/// over the **index** label space (resolve names through
/// [`IndexedDocument::dict`]); label-agnostic models like
/// [`UnitCost`](tasm_ted::UnitCost) need no care. Matched subtrees
/// (`keep_trees`) carry index-space labels.
///
/// `threads` (`0` = one per available core) shards the regions that
/// survive the seed pass across worker threads. `deadline` is polled
/// per region in the promise-ordered loop (strided — see
/// [`Deadline::poll`]) and per candidate in the shard workers, so one
/// large document cannot overrun a request deadline by more than a
/// single region evaluation.
///
/// # Errors
///
/// [`DeadlineExceeded`] if the deadline expires anywhere; no partial
/// ranking is returned.
///
/// # Examples
///
/// ```
/// use tasm_tree::{bracket, LabelDict};
/// use tasm_ted::UnitCost;
/// use tasm_index::IndexedDocument;
/// use tasm_core::{tasm_indexed_batch, BatchQuery, Deadline, TasmOptions};
///
/// let mut dict = LabelDict::new();
/// let q = bracket::parse("{a{b}{c}}", &mut dict).unwrap();
/// let doc = bracket::parse("{x{a{b}{d}}{a{b}{c}}}", &mut dict).unwrap();
/// let idx = IndexedDocument::build(&doc, &dict);
/// let queries = [BatchQuery { query: &q, k: 2 }];
/// let out = tasm_indexed_batch(&queries, &dict, &idx, &UnitCost, 1,
///     TasmOptions::default(), 1, None, &Deadline::none()).unwrap();
/// assert_eq!(out.rankings[0][0].root.post(), 6);
/// assert_eq!(out.rankings[0][1].root.post(), 3);
/// ```
#[allow(clippy::too_many_arguments)]
pub fn tasm_indexed_batch(
    queries: &[BatchQuery<'_>],
    src_dict: &LabelDict,
    idx: &IndexedDocument,
    model: &(dyn CostModel + Sync),
    c_t: u64,
    opts: TasmOptions,
    threads: usize,
    stats: Option<&mut TedStats>,
    deadline: &Deadline,
) -> Result<BatchOutput, DeadlineExceeded> {
    if queries.is_empty() {
        return Ok(BatchOutput::default());
    }
    if deadline.expired_now() {
        return Err(DeadlineExceeded);
    }
    let threads = resolve_threads(threads);
    let trees: Vec<&Tree> = queries.iter().map(|bq| bq.query).collect();
    let (encoded, _work_dict) = idx.encode_queries(&trees, src_dict);
    let equeries: Vec<BatchQuery<'_>> = encoded
        .iter()
        .zip(queries)
        .map(|(query, bq)| BatchQuery { query, k: bq.k })
        .collect();

    let (mut lanes, scan_tau) = build_lanes(&equeries, model, c_t, opts.kernel);
    debug_assert_eq!(scan_tau, scan_tau_of(&equeries, model, c_t));
    let msizes: Vec<u64> = encoded.iter().map(|q| q.len() as u64).collect();

    // Scan-free candidate generation: spans from the size column,
    // per-lane label overlap from the postings.
    let (spans, generated) = idx.candidate_spans(scan_tau);
    let commons: Vec<Vec<u32>> = encoded
        .iter()
        .map(|q| idx.region_common(&spans, q))
        .collect();

    // Most promising regions first: smallest best-lane deficit, ties in
    // document order. Deterministic, and independent of thread count.
    let mut order: Vec<u32> = (0..spans.len() as u32).collect();
    order.sort_by_key(|&ri| {
        let ri = ri as usize;
        let deficit = (0..lanes.len())
            .map(|li| msizes[li].saturating_sub(u64::from(commons[li][ri])))
            .min()
            .unwrap_or(0);
        (deficit, spans[ri].0)
    });

    let mut teds: Vec<TedWorkspace> = (0..lanes.len()).map(|_| TedWorkspace::new()).collect();
    let mut lb = CascadeScratch::new();
    reserve_lanes(&lanes, &mut teds, &mut lb, scan_tau);
    let mut scratch = Tree::leaf(LabelId(0));
    if scratch_fits_cap(scan_tau as usize) {
        scratch.reserve(scan_tau as usize);
    }
    let want_ted_stats = stats.is_some();
    let mut ted_local = want_ted_stats.then(TedStats::new);
    let mut scan = ScanStats {
        nodes_seen: u32::try_from(generated).unwrap_or(u32::MAX),
        ..ScanStats::default()
    };

    // Seed phase (and, with <= 1 thread, the whole run): walk regions in
    // promise order, skipping those no lane can use any more.
    let mut rest_start = order.len();
    let mut extra_after_full = 0usize;
    for (pos, &ri) in order.iter().enumerate() {
        if deadline.poll() {
            return Err(DeadlineExceeded);
        }
        if threads > 1 && lanes.iter().all(|l| l.heap.is_full()) {
            extra_after_full += 1;
            if extra_after_full > SEED_EXTRA {
                rest_start = pos;
                break;
            }
        }
        if region_wanted(&lanes, &msizes, &commons, ri as usize) {
            eval_span(
                spans[ri as usize],
                idx.tree(),
                &mut scratch,
                &mut lanes,
                &mut teds,
                &mut lb,
                &mut scan,
                opts,
                ted_local.as_mut(),
            );
        } else {
            count_region_skip(&mut lanes);
        }
    }

    // Remainder: filter against the (now frozen) cutoffs — admissible
    // because cutoffs only tighten — and shard the survivors.
    let mut survivors: Vec<(u32, u32)> = Vec::new();
    for &ri in &order[rest_start..] {
        if region_wanted(&lanes, &msizes, &commons, ri as usize) {
            survivors.push(spans[ri as usize]);
        } else {
            count_region_skip(&mut lanes);
        }
    }
    survivors.sort_unstable();
    let shards = shard_spans(&survivors, threads);

    let mut results: Vec<ShardResult> = Vec::with_capacity(shards.len() + 1);
    if shards.len() <= 1 {
        // Too few survivors to be worth worker threads: finish on the
        // warm seed lanes.
        for &span in &survivors {
            if deadline.poll() {
                return Err(DeadlineExceeded);
            }
            eval_span(
                span,
                idx.tree(),
                &mut scratch,
                &mut lanes,
                &mut teds,
                &mut lb,
                &mut scan,
                opts,
                ted_local.as_mut(),
            );
        }
    } else {
        let doc = idx.tree();
        let equeries = &equeries;
        // `Deadline` is deliberately `!Sync`, so each worker mints its
        // own token from the shared expiry instant.
        let expiry = deadline.instant();
        let worker_results: Result<Vec<ShardResult>, DeadlineExceeded> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .iter()
                    .map(|shard| {
                        scope.spawn(move || {
                            let worker_deadline = match expiry {
                                Some(at) => Deadline::at(at),
                                None => Deadline::none(),
                            };
                            let (lanes, _) = build_lanes(equeries, model, c_t, opts.kernel);
                            let mut teds: Vec<TedWorkspace> =
                                (0..lanes.len()).map(|_| TedWorkspace::new()).collect();
                            let mut lb = CascadeScratch::new();
                            reserve_lanes(&lanes, &mut teds, &mut lb, scan_tau);
                            let mut engine = ScanEngine::new(scan_tau);
                            if scratch_fits_cap(scan_tau as usize) {
                                engine.reserve();
                            }
                            let mut sink = ShardSink {
                                lanes,
                                teds,
                                lb,
                                opts,
                                spans: shard,
                                next: 0,
                                stats: want_ted_stats.then(TedStats::new),
                            };
                            let mut queue = SpanQueue::new(doc, shard);
                            let scan = engine.scan_with_deadline(
                                &mut queue,
                                &mut sink,
                                &worker_deadline,
                            )?;
                            debug_assert_eq!(scan.candidates, shard.len());
                            Ok(ShardResult {
                                lane_funnels: sink.lanes.iter().map(|l| l.stats).collect(),
                                heaps: sink.lanes.into_iter().map(|l| l.heap).collect(),
                                scan,
                                ted_stats: sink.stats,
                            })
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("indexed shard worker panicked"))
                    .collect()
            });
        results.extend(worker_results?);
    }

    results.push(ShardResult {
        lane_funnels: lanes.iter().map(|l| l.stats).collect(),
        heaps: lanes.into_iter().map(|l| l.heap).collect(),
        scan,
        ted_stats: ted_local,
    });
    Ok(merge_shard_results(queries.len(), results, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::Match;
    use crate::tasm_postorder::tasm_postorder;
    use tasm_ted::UnitCost;
    use tasm_tree::{bracket, TreeQueue};

    fn wide_doc(dict: &mut LabelDict, records: usize) -> Tree {
        let mut s = String::from("{dblp");
        for i in 0..records {
            match i % 4 {
                0 => s.push_str("{article{auth{John}}{title{X1}}}"),
                1 => s.push_str("{book{title{X2}}}"),
                2 => s.push_str("{article{auth{Mike}}{title{X3}}{year}}"),
                _ => s.push_str("{proceedings{conf{VLDB}}}"),
            }
        }
        s.push('}');
        bracket::parse(&s, dict).unwrap()
    }

    fn key(ms: &[Match]) -> Vec<(u32, u64, u32)> {
        ms.iter()
            .map(|m| (m.root.post(), m.distance.halves(), m.size))
            .collect()
    }

    /// The driver with no deadline.
    fn run(
        queries: &[BatchQuery<'_>],
        dict: &LabelDict,
        idx: &IndexedDocument,
        threads: usize,
    ) -> BatchOutput {
        tasm_indexed_batch(
            queries,
            dict,
            idx,
            &UnitCost,
            1,
            TasmOptions::default(),
            threads,
            None,
            &Deadline::none(),
        )
        .unwrap()
    }

    #[test]
    fn indexed_matches_sequential_ranking() {
        let mut dict = LabelDict::new();
        let doc = wide_doc(&mut dict, 25);
        let q = bracket::parse("{article{auth{John}}{title{X9}}}", &mut dict).unwrap();
        let idx = IndexedDocument::build(&doc, &dict);
        for k in [1, 3, 10] {
            let mut queue = TreeQueue::new(&doc);
            let want = tasm_postorder(
                &q,
                &mut queue,
                k,
                &UnitCost,
                1,
                TasmOptions::default(),
                None,
            );
            for threads in [1, 3] {
                let out = run(&[BatchQuery { query: &q, k }], &dict, &idx, threads);
                assert_eq!(
                    key(&out.rankings[0]),
                    key(&want),
                    "k = {k}, threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn indexed_examines_fewer_nodes_once_heap_is_tight() {
        let mut dict = LabelDict::new();
        let doc = wide_doc(&mut dict, 200);
        let q = bracket::parse("{article{auth{John}}{title{X1}}}", &mut dict).unwrap();
        let idx = IndexedDocument::build(&doc, &dict);
        let out = run(&[BatchQuery { query: &q, k: 1 }], &dict, &idx, 1);
        let scan = out.scan;
        assert_eq!(out.rankings[0][0].distance, Cost::ZERO); // exact matches exist
        assert!(
            u64::from(scan.nodes_seen) < doc.len() as u64,
            "index examined {} of {} nodes",
            scan.nodes_seen,
            doc.len()
        );
        assert!(scan.pruned_histogram > 0, "region filter never fired");
    }

    #[test]
    fn expired_deadline_aborts_before_any_region() {
        let mut dict = LabelDict::new();
        let doc = wide_doc(&mut dict, 30);
        let q = bracket::parse("{article{auth{John}}{title{X1}}}", &mut dict).unwrap();
        let idx = IndexedDocument::build(&doc, &dict);
        let queries = [BatchQuery { query: &q, k: 3 }];
        let deadline = Deadline::after(std::time::Duration::ZERO);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let got = tasm_indexed_batch(
            &queries,
            &dict,
            &idx,
            &UnitCost,
            1,
            TasmOptions::default(),
            1,
            None,
            &deadline,
        );
        assert_eq!(got.unwrap_err(), DeadlineExceeded);
    }

    #[test]
    fn empty_batch_is_empty() {
        let mut dict = LabelDict::new();
        let doc = wide_doc(&mut dict, 4);
        let idx = IndexedDocument::build(&doc, &dict);
        let out = run(&[], &dict, &idx, 2);
        assert!(out.rankings.is_empty() && out.lanes.is_empty());
        assert_eq!(out.scan, ScanStats::default());
    }

    #[test]
    fn shard_spans_cover_everything_contiguously() {
        let mut dict = LabelDict::new();
        let doc = wide_doc(&mut dict, 50);
        let (spans, _) = IndexedDocument::build(&doc, &dict).candidate_spans(5);
        for shards in 1..=8 {
            let groups = shard_spans(&spans, shards);
            assert!(!groups.is_empty() && groups.len() <= shards);
            assert!(groups.iter().all(|g| !g.is_empty()));
            let flat: Vec<_> = groups.iter().flat_map(|g| g.iter().copied()).collect();
            assert_eq!(flat, spans, "shards = {shards}");
        }
    }

    #[test]
    fn shard_spans_handles_empty_input() {
        assert_eq!(shard_spans(&[], 4).len(), 0);
    }
}
