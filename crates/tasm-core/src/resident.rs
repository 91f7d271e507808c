//! The resident drivers: TASM over a document held in memory, with
//! its candidates evaluated **in place**.
//!
//! A resident document already has its subtree-size column, so its
//! candidate set `cand(T, τ)` (Def. 9) needs no ring buffer: one
//! stackless reverse sweep over the column
//! ([`CandidateSweep`](tasm_tree::CandidateSweep)) finds it, and each
//! candidate is the contiguous postorder interval `[lml, root]`, so its
//! [`TreeView`](tasm_tree::TreeView) slice of the document arena goes
//! straight into the lane machinery (the cascade, the heaps and the
//! [`ScanStats`](crate::ScanStats) funnel), with no copy. Two drivers
//! share one loop:
//!
//! * [`tasm_resident_batch`] — a parsed [`Tree`]. The units are
//!   postorder blocks of `BLOCK_NODES` (64 Ki) nodes; each worker
//!   sweeps its block backwards and evaluates every candidate whose
//!   root lies in it, in runs of `CHUNK_SPANS` (256) candidates, each
//!   run in document order. No span buffer is kept beyond one run.
//! * [`tasm_indexed_batch`] — a persistent `.pqi` label index
//!   ([`IndexedDocument`]). The units are the candidate regions in
//!   promise order, each bounded by the label postings before it is
//!   evaluated (below).
//!
//! In both, `run.threads` workers pull the next unit from one shared
//! cursor ([`pull_units`]) and evaluate it through their own
//! [`LaneSet`]; the calling thread is one of them and runs on the
//! caller's workspace.
//! The rank key (distance, document postorder, size) is a total order,
//! so the rankings equal [`tasm_postorder`](crate::tasm_postorder)'s
//! whatever the evaluation order (pinned by `tests/differential.rs`).
//! The funnel counters are the evaluation order's own: they may differ
//! from a ring-buffer scan's, and above one worker from run to run.
//!
//! # The index
//!
//! The scan entry points pay `O(n)` per pass. An [`IndexedDocument`]
//! inverts that cost model for the index-once / query-many workload:
//!
//! 1. the candidate set is derived from the subtree-size column by the
//!    same sweep — examining only the nodes *above* the candidate
//!    frontier, not all `n`;
//! 2. the per-label postings bound every candidate region's label
//!    overlap with each query (rarest labels first — they have the
//!    shortest postings), giving the admissible histogram lower bound
//!    `δ(Q, S) >= |Q| − common` for **every** subtree `S` of the region
//!    (the same bound as `tasm_ted`'s filter cascade, hoisted from
//!    per-candidate to per-region);
//! 3. regions are evaluated most-promising first, so the top-k heaps
//!    tighten early and later regions whose bound exceeds every lane's
//!    cutoff are skipped without ever being evaluated.
//!
//! Skipping is **exact**: a region is dropped only when every lane's
//! heap is full and the bound *strictly* exceeds its cutoff — the same
//! admissibility argument as
//! [`LowerBoundCascade::decide`](tasm_ted::LowerBoundCascade::decide).
//!
//! With more than one worker, each skips against its own heaps. That
//! stays admissible: a worker's full heap holds `k` matches at or below
//! its cutoff, so its cutoff is never below the final merged one. Every
//! worker fills its own heaps before it can skip, so a document gets
//! one worker per `MIN_REGIONS_PER_WORKER` regions at most: a small one
//! runs on the calling thread alone, with the deterministic one-thread
//! counters.

use crate::batch::{BatchOutput, BatchQuery};
use crate::deadline::{Deadline, DeadlineExceeded};
use crate::lane::{merge_shard_results, pull_units, scan_tau_of, EvalLane, LaneSet, ShardResult};
use crate::run::Run;
use crate::workspace::TasmWorkspace;
use tasm_index::IndexedDocument;
use tasm_ted::Cost;
use tasm_tree::{CandidateSweep, LabelDict, NodeId, Tree};

/// Postorder nodes per unit of [`tasm_resident_batch`]: a pull is rare
/// next to the candidates a block holds, and a 1 M-node document still
/// splits into 16 units.
const BLOCK_NODES: u32 = 1 << 16;

/// Candidates a worker sweeps before it evaluates them, in document
/// order. The sweep runs backwards, and evaluating each candidate as
/// soon as it is found would read the arena backwards too: on 1 M-node
/// documents whose every candidate reaches the DP, that costs ~20 ms
/// per query, as much as the sweep saves. 256 spans are 2 KiB of stack.
const CHUNK_SPANS: usize = 256;

/// The fewest candidate regions worth a worker of their own. A worker
/// evaluates every region until its own heaps fill, so splitting a
/// small document buys duplicated heap filling and a thread spawn,
/// not speed.
const MIN_REGIONS_PER_WORKER: usize = 128;

/// The one resident loop: `threads` workers pull the units `0..units`
/// from one cursor and hand each to `eval_unit` with their own
/// [`LaneSet`] and deadline poller; the calling thread's set runs on
/// `ws`. Returns one result per worker, for [`merge_shard_results`].
fn evaluate_units<'q>(
    queries: &[BatchQuery<'q>],
    run: &Run<'q>,
    threads: usize,
    units: usize,
    ws: &mut TasmWorkspace,
    eval_unit: impl Fn(usize, &mut LaneSet<'q, '_>, &Deadline) -> Result<(), DeadlineExceeded> + Sync,
) -> Result<Vec<ShardResult>, DeadlineExceeded> {
    pull_units(units, threads, run.deadline, ws, |ws, cursor, deadline| {
        let mut set = LaneSet::new(queries, run, &mut ws.eval);
        while let Some(unit) = cursor.next(deadline)? {
            eval_unit(unit, &mut set, deadline)?;
        }
        Ok(set.into_result())
    })
}

/// Answers every query of `queries` over the resident tree `doc`, with
/// the rankings of [`tasm_postorder`](crate::tasm_postorder) but no
/// ring buffer: the candidates come from a sweep over `doc`'s size
/// column and are evaluated in place.
///
/// The queries must share `doc`'s label space (parse them with its
/// dictionary, or encode them into it with
/// [`LabelDict::encode_tree`]). `run.c_t` is the maximum document node
/// cost under `run.model`, as for the scan.
///
/// `run.threads` (`0` = one per available core) workers pull postorder
/// blocks of 64 Ki nodes from one shared cursor; the calling thread is
/// one of them and evaluates on `ws`, so a warm workspace makes a
/// one-thread call allocate nothing per candidate or block. A document
/// of one block runs on the calling thread alone.
///
/// The scan-layer counters change meaning against a scan:
/// `nodes_seen` is the spine (the nodes over τ) plus the candidates'
/// nodes, and `peak_buffered` is the largest candidate evaluated, not a
/// ring size. The funnel counters may differ from the scan's, since the
/// evaluation order differs; with one worker they are deterministic.
///
/// `run.deadline` is checked (forced) before the first block and
/// polled per candidate.
///
/// # Errors
///
/// [`DeadlineExceeded`] if the deadline expires in any worker; the
/// other workers stop at their next pull and no partial ranking is
/// returned.
///
/// # Examples
///
/// ```
/// use tasm_tree::{bracket, LabelDict};
/// use tasm_core::{tasm_resident_batch, BatchQuery, Run, TasmWorkspace};
///
/// let mut dict = LabelDict::new();
/// let q = bracket::parse("{a{b}{c}}", &mut dict).unwrap();
/// let doc = bracket::parse("{x{a{b}{d}}{a{b}{c}}}", &mut dict).unwrap();
/// let queries = [BatchQuery { query: &q, k: 2 }];
/// let mut ws = TasmWorkspace::new();
/// let out = tasm_resident_batch(&queries, &doc, &Run::default(), &mut ws).unwrap();
/// assert_eq!(out.rankings[0][0].root.post(), 6);
/// assert_eq!(out.rankings[0][1].root.post(), 3);
/// ```
pub fn tasm_resident_batch(
    queries: &[BatchQuery<'_>],
    doc: &Tree,
    run: &Run<'_>,
    ws: &mut TasmWorkspace,
) -> Result<BatchOutput, DeadlineExceeded> {
    sweep_blocks(queries, doc, run, ws, BLOCK_NODES)
}

/// [`tasm_resident_batch`] with blocks of `block` nodes.
fn sweep_blocks(
    queries: &[BatchQuery<'_>],
    doc: &Tree,
    run: &Run<'_>,
    ws: &mut TasmWorkspace,
    block: u32,
) -> Result<BatchOutput, DeadlineExceeded> {
    if queries.is_empty() {
        return Ok(BatchOutput::empty(run));
    }
    let n = doc.len() as u64;
    let block = u64::from(block);
    let units = n.div_ceil(block) as usize;
    let results = evaluate_units(
        queries,
        run,
        run.workers(),
        units,
        ws,
        |unit, set, deadline| {
            let first = unit as u64 * block + 1;
            let last = (first - 1 + block).min(n);
            let mut sweep =
                CandidateSweep::block(doc.view(), set.scan_tau, first as u32, last as u32);
            let mut chunk = [(0u32, 0u32); CHUNK_SPANS];
            loop {
                let len = chunk
                    .iter_mut()
                    .zip(sweep.by_ref())
                    .map(|(slot, span)| *slot = span)
                    .count();
                if len == 0 {
                    break;
                }
                for &(lml, root) in chunk[..len].iter().rev() {
                    if deadline.poll() {
                        return Err(DeadlineExceeded);
                    }
                    set.eval(doc.subtree_view(NodeId::new(root)), lml - 1);
                }
            }
            set.see(sweep.spine());
            Ok(())
        },
    )?;
    Ok(merge_shard_results(queries.len(), results, None))
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
/// encoded into the index's frequency-ordered label space internally
/// ([`IndexedDocument::encode_queries`]), without copying or changing
/// the index's dictionary. Query labels the document lacks get fresh
/// ids past that dictionary. Label-dependent
/// [`CostModel`](tasm_ted::CostModel)s (`run.model`) must
/// therefore be defined over the **index** label space (resolve names
/// through [`IndexedDocument::dict`]) and give a fresh id their default
/// cost; label-agnostic models like [`UnitCost`](tasm_ted::UnitCost)
/// need no care. Matched subtrees (`keep_trees`) are cut from the
/// document, so they carry index-space labels only.
///
/// `run.threads` (`0` = one per available core) workers pull the
/// regions in promise order from one shared cursor; the calling thread
/// is one of them and evaluates on `ws`, so a warm workspace makes a
/// one-thread call allocate nothing per region. A document gets at
/// most one worker per 128 candidate regions, so a small one runs on
/// the calling thread alone. With one worker the funnel counters are
/// deterministic; with more they may vary from run to run, the
/// rankings never. `run.deadline` is polled once per region pull
/// (strided: one clock read per 8 pulls), so one large document cannot
/// overrun a request deadline by more than a few region evaluations.
///
/// # Errors
///
/// [`DeadlineExceeded`] if the deadline expires in any worker; the
/// other workers stop at their next pull and no partial ranking is
/// returned.
///
/// # Examples
///
/// ```
/// use tasm_tree::{bracket, LabelDict};
/// use tasm_index::IndexedDocument;
/// use tasm_core::{tasm_indexed_batch, BatchQuery, Run, TasmWorkspace};
///
/// let mut dict = LabelDict::new();
/// let q = bracket::parse("{a{b}{c}}", &mut dict).unwrap();
/// let doc = bracket::parse("{x{a{b}{d}}{a{b}{c}}}", &mut dict).unwrap();
/// let idx = IndexedDocument::build(&doc, &dict);
/// let queries = [BatchQuery { query: &q, k: 2 }];
/// let mut ws = TasmWorkspace::new();
/// let out = tasm_indexed_batch(&queries, &dict, &idx, &Run::default(), &mut ws).unwrap();
/// assert_eq!(out.rankings[0][0].root.post(), 6);
/// assert_eq!(out.rankings[0][1].root.post(), 3);
/// ```
pub fn tasm_indexed_batch(
    queries: &[BatchQuery<'_>],
    src_dict: &LabelDict,
    idx: &IndexedDocument,
    run: &Run<'_>,
    ws: &mut TasmWorkspace,
) -> Result<BatchOutput, DeadlineExceeded> {
    if queries.is_empty() {
        return Ok(BatchOutput::empty(run));
    }
    let trees: Vec<&Tree> = queries.iter().map(|bq| bq.query).collect();
    let encoded = idx.encode_queries(&trees, src_dict);
    let equeries: Vec<BatchQuery<'_>> = encoded
        .iter()
        .zip(queries)
        .map(|(query, bq)| BatchQuery { query, k: bq.k })
        .collect();
    let msizes: Vec<u64> = encoded.iter().map(|q| q.len() as u64).collect();

    // Scan-free candidate generation: spans from the size column,
    // per-lane label overlap from the postings.
    let (spans, generated) = idx.candidate_spans(scan_tau_of(&equeries, run));
    let commons: Vec<Vec<u32>> = encoded
        .iter()
        .map(|q| idx.region_common(&spans, q))
        .collect();

    // Most promising regions first: smallest best-lane deficit, ties in
    // document order. Deterministic, and independent of thread count.
    let mut order: Vec<u32> = (0..spans.len() as u32).collect();
    order.sort_by_key(|&ri| {
        let ri = ri as usize;
        let deficit = (0..msizes.len())
            .map(|li| msizes[li].saturating_sub(u64::from(commons[li][ri])))
            .min()
            .unwrap_or(0);
        (deficit, spans[ri].0)
    });

    let doc = idx.tree();
    let threads = run.workers().min(order.len() / MIN_REGIONS_PER_WORKER);
    let mut results = evaluate_units(&equeries, run, threads, order.len(), ws, |pos, set, _| {
        let ri = order[pos] as usize;
        if region_wanted(&set.lanes, &msizes, &commons, ri) {
            // The region's view of the document arena (local
            // postorder, sizes invariant), fanned out like a scan
            // candidate.
            let (lo, hi) = spans[ri];
            set.eval(doc.subtree_view(NodeId::new(hi)), lo - 1);
        } else {
            // The histogram tier refuted the region for every lane.
            for lane in &mut set.lanes {
                lane.stats.pruned_histogram += 1;
            }
        }
        Ok(())
    })?;
    let seen = &mut results[0].scan.nodes_seen;
    *seen = seen.saturating_add(u32::try_from(generated).unwrap_or(u32::MAX));
    Ok(merge_shard_results(queries.len(), results, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ScanStats;
    use crate::ranking::Match;
    use crate::tasm_dynamic::TasmOptions;
    use crate::tasm_postorder::tasm_postorder;
    use std::time::{Duration, Instant};
    use tasm_ted::{CostModel, UnitCost};
    use tasm_tree::{bracket, LabelId, TreeQueue};

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
        let run = Run {
            threads,
            ..Run::default()
        };
        tasm_indexed_batch(queries, dict, idx, &run, &mut TasmWorkspace::new()).unwrap()
    }

    /// The resident driver at `threads` over blocks of `block` nodes,
    /// no deadline.
    fn swept(
        queries: &[BatchQuery<'_>],
        doc: &Tree,
        opts: TasmOptions,
        threads: usize,
        block: u32,
    ) -> BatchOutput {
        let run = Run {
            opts,
            threads,
            ..Run::default()
        };
        sweep_blocks(queries, doc, &run, &mut TasmWorkspace::new(), block).unwrap()
    }

    #[test]
    fn resident_ranks_like_the_scan_at_any_block_size() {
        let mut dict = LabelDict::new();
        let doc = wide_doc(&mut dict, 60);
        let q1 = bracket::parse("{article{auth{John}}{title{X9}}}", &mut dict).unwrap();
        let q2 = bracket::parse("{book{title}}", &mut dict).unwrap();
        let opts = TasmOptions {
            keep_trees: true,
            ..TasmOptions::default()
        };
        let n = doc.len() as u32;
        for k in [1, 4, 12] {
            let queries = [
                BatchQuery { query: &q1, k },
                BatchQuery {
                    query: &q2,
                    k: k + 1,
                },
            ];
            let tau = scan_tau_of(&queries, &Run::default());
            let ring = crate::prb_pruning_stats(&mut TreeQueue::new(&doc), tau, None);
            for block in [1, 2, 7, tau, n] {
                for threads in [1, 3] {
                    let out = swept(&queries, &doc, opts, threads, block);
                    for (got, bq) in out.rankings.iter().zip(&queries) {
                        let mut queue = TreeQueue::new(&doc);
                        let want =
                            tasm_postorder(bq.query, &mut queue, bq.k, &UnitCost, 1, opts, None);
                        assert_eq!(got, &want, "k = {k}, block = {block}, threads = {threads}");
                    }
                    // The sweep's candidates are the ring buffer's, and it
                    // sees every node: the spine plus the candidates.
                    assert_eq!(out.scan.candidates, ring.candidates);
                    assert_eq!(out.scan.nodes_seen, n);
                    if threads == 1 {
                        // One worker's counters are deterministic.
                        let again = swept(&queries, &doc, opts, threads, block);
                        assert_eq!(again.scan, out.scan, "block = {block}");
                    }
                }
            }
        }
    }

    #[test]
    fn resident_deadline_is_checked_at_entry_and_per_candidate() {
        // Every evaluation of a candidate holding `slow` sleeps.
        struct SlowCost(LabelId);
        impl CostModel for SlowCost {
            fn node_cost(&self, tree: tasm_tree::TreeView<'_>, node: NodeId) -> u64 {
                if tree.label(node) == self.0 {
                    std::thread::sleep(Duration::from_millis(5));
                }
                1
            }
            fn max_cost(&self, _: tasm_tree::TreeView<'_>) -> u64 {
                1
            }
        }
        let mut dict = LabelDict::new();
        let doc = bracket::parse(
            &format!("{{r{}}}", "{a{b}{c}{slow}}".repeat(400)),
            &mut dict,
        )
        .unwrap();
        let q = bracket::parse("{a{b}{c}}", &mut dict).unwrap();
        let slow = SlowCost(dict.get("slow").unwrap());
        let opts = TasmOptions {
            use_cascade: false,
            use_tau_prime: false,
            ..TasmOptions::default()
        };
        let queries = [BatchQuery { query: &q, k: 1 }];
        let run = |threads, block, deadline| {
            let run = Run {
                model: &slow,
                opts,
                threads,
                deadline: Some(deadline),
                ..Run::default()
            };
            sweep_blocks(&queries, &doc, &run, &mut TasmWorkspace::new(), block)
        };
        let expired = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(run(1, 64, expired).unwrap_err(), DeadlineExceeded);
        // A full evaluation sleeps 400 × 5 ms. One block of the whole
        // document is one pull, so only the per-candidate poll can stop
        // it; at 3 workers the blocks hold 100 records each.
        let n = doc.len() as u32;
        for (threads, block) in [(1, n), (3, 500)] {
            let start = Instant::now();
            let got = run(threads, block, start + Duration::from_millis(20));
            let elapsed = start.elapsed();
            assert_eq!(got.unwrap_err(), DeadlineExceeded, "threads = {threads}");
            assert!(
                elapsed < Duration::from_millis(250),
                "threads = {threads}: deadline noticed only after {elapsed:?}"
            );
        }
    }

    #[test]
    fn resident_empty_batch_is_empty() {
        let mut dict = LabelDict::new();
        let doc = wide_doc(&mut dict, 4);
        let out = swept(&[], &doc, TasmOptions::default(), 2, 3);
        assert!(out.rankings.is_empty() && out.lanes.is_empty());
        assert_eq!(out.scan, ScanStats::default());
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
        let run = Run {
            deadline: Some(Instant::now()),
            ..Run::default()
        };
        std::thread::sleep(Duration::from_millis(1));
        let got = tasm_indexed_batch(&queries, &dict, &idx, &run, &mut TasmWorkspace::new());
        assert_eq!(got.unwrap_err(), DeadlineExceeded);
    }

    #[test]
    fn keep_trees_are_the_document_subtrees() {
        // One region per record: 400 are enough for 3 workers.
        for records in [30, 400] {
            let mut dict = LabelDict::new();
            let doc = wide_doc(&mut dict, records);
            let q1 = bracket::parse("{article{auth{John}}{title{X9}}}", &mut dict).unwrap();
            let q2 = bracket::parse("{book{title}}", &mut dict).unwrap();
            let idx = IndexedDocument::build(&doc, &dict);
            let opts = TasmOptions {
                keep_trees: true,
                ..TasmOptions::default()
            };
            // Matches are cut from the index's document, so the sequential
            // reference runs there too, on the queries in index label space.
            let encoded = idx.encode_queries(&[&q1, &q2], &dict);
            for k in [1, 4, 12] {
                let queries = [
                    BatchQuery { query: &q1, k },
                    BatchQuery {
                        query: &q2,
                        k: k + 1,
                    },
                ];
                for threads in [1, 3] {
                    let run = Run {
                        opts,
                        threads,
                        ..Run::default()
                    };
                    let out =
                        tasm_indexed_batch(&queries, &dict, &idx, &run, &mut TasmWorkspace::new())
                            .unwrap();
                    for ((got, q), bq) in out.rankings.iter().zip(&encoded).zip(&queries) {
                        for m in got {
                            let tree = m.tree.as_ref().expect("keep_trees attaches a tree");
                            assert_eq!(
                                tree,
                                &idx.tree().subtree(m.root),
                                "records = {records}, threads = {threads}"
                            );
                        }
                        let mut queue = TreeQueue::new(idx.tree());
                        let want = tasm_postorder(q, &mut queue, bq.k, &UnitCost, 1, opts, None);
                        assert_eq!(
                            got, &want,
                            "records = {records}, k = {k}, threads = {threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pull_workers_poll_the_deadline() {
        // Every evaluation of a region holding `slow` sleeps.
        struct SlowCost(LabelId);
        impl CostModel for SlowCost {
            fn node_cost(&self, tree: tasm_tree::TreeView<'_>, node: NodeId) -> u64 {
                if tree.label(node) == self.0 {
                    std::thread::sleep(Duration::from_millis(5));
                }
                1
            }
            fn max_cost(&self, _: tasm_tree::TreeView<'_>) -> u64 {
                1
            }
        }
        let mut dict = LabelDict::new();
        let doc = bracket::parse(
            &format!("{{r{}}}", "{a{b}{c}{slow}}".repeat(400)),
            &mut dict,
        )
        .unwrap();
        let q = bracket::parse("{a{b}{c}}", &mut dict).unwrap();
        let idx = IndexedDocument::build(&doc, &dict);
        let slow = SlowCost(idx.dict().get("slow").unwrap());
        // Without the cascade and τ' every region (bound 0, equal to
        // the cutoff) is wanted and runs the DP.
        let opts = TasmOptions {
            use_cascade: false,
            use_tau_prime: false,
            ..TasmOptions::default()
        };
        let queries = [BatchQuery { query: &q, k: 1 }];
        // A full evaluation sleeps 400 × 5 ms, >= 600 ms on 3 workers
        // (400 regions are enough for 3).
        for threads in [1, 3] {
            let start = Instant::now();
            let run = Run {
                model: &slow,
                opts,
                threads,
                deadline: Some(start + Duration::from_millis(20)),
                ..Run::default()
            };
            let got = tasm_indexed_batch(&queries, &dict, &idx, &run, &mut TasmWorkspace::new());
            let elapsed = start.elapsed();
            assert_eq!(got.unwrap_err(), DeadlineExceeded, "threads = {threads}");
            assert!(
                elapsed < Duration::from_millis(250),
                "threads = {threads}: deadline noticed only after {elapsed:?}"
            );
        }
    }

    #[test]
    fn ted_stats_travel_in_the_output_of_every_driver() {
        // One DP per evaluated subtree: the merged distance stats must
        // count exactly the merged funnel's evaluations, on every driver
        // and above one worker too, where a stats merge that drops a
        // worker's share would show. Resident blocks of 500 nodes give
        // three workers something to pull; 600 records are 600 regions
        // for the indexed driver; three shards give the corpus three.
        let mut dict = LabelDict::new();
        let doc = wide_doc(&mut dict, 600);
        let q1 = bracket::parse("{article{auth{John}}{title{X9}}}", &mut dict).unwrap();
        let q2 = bracket::parse("{book{title}}", &mut dict).unwrap();
        let queries = [
            BatchQuery { query: &q1, k: 3 },
            BatchQuery { query: &q2, k: 5 },
        ];
        let idx = IndexedDocument::build(&doc, &dict);
        let dir = std::env::temp_dir().join(format!("tasm-core-ted-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut corpus = tasm_index::Corpus::create(&dir).unwrap();
        for name in ["a", "b", "c"] {
            corpus.add(name, &doc, &dict, None).unwrap();
        }
        type Driver<'d> = &'d dyn Fn(&Run<'_>) -> (u64, Option<tasm_ted::TedStats>);
        let stream: Driver<'_> = &|run| {
            let out = crate::tasm_batch(
                &queries,
                &mut TreeQueue::new(&doc),
                run,
                &mut TasmWorkspace::new(),
            )
            .unwrap();
            (out.scan.evaluated, out.ted)
        };
        let resident: Driver<'_> = &|run| {
            let out = sweep_blocks(&queries, &doc, run, &mut TasmWorkspace::new(), 500).unwrap();
            (out.scan.evaluated, out.ted)
        };
        let indexed: Driver<'_> = &|run| {
            let out =
                tasm_indexed_batch(&queries, &dict, &idx, run, &mut TasmWorkspace::new()).unwrap();
            (out.scan.evaluated, out.ted)
        };
        let corpus_driver: Driver<'_> = &|run| {
            let out =
                crate::tasm_corpus_batch(&queries, &dict, &corpus, run, &mut TasmWorkspace::new())
                    .unwrap();
            (out.scan.evaluated, out.ted)
        };
        let table: [(&str, Driver<'_>, [usize; 2]); 4] = [
            ("stream", stream, [1, 2]),
            ("resident", resident, [1, 3]),
            ("indexed", indexed, [1, 3]),
            ("corpus", corpus_driver, [1, 3]),
        ];
        for (name, driver, threads) in table {
            for threads in threads {
                let mut run = Run {
                    threads,
                    ted_stats: true,
                    ..Run::default()
                };
                let (evaluated, ted) = driver(&run);
                let ted = ted.unwrap_or_else(|| panic!("{name} t{threads}: no stats"));
                assert!(evaluated > 0, "{name} t{threads}");
                assert_eq!(ted.ted_calls, evaluated, "{name} t{threads}");
                run.ted_stats = false;
                assert!(driver(&run).1.is_none(), "{name} t{threads}: unasked stats");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
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
}
