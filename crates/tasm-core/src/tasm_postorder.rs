//! TASM-postorder (Algorithm 3, Sec. VI): the paper's contribution.
//!
//! The document is consumed once, as a postorder queue. The prefix ring
//! buffer emits the candidate set `cand(T, τ)` for the Theorem 3 threshold
//! `τ = |Q|(c_Q + 1) + k·c_T`; every candidate subtree is handed to
//! TASM-dynamic and merged into a bounded max-heap. Once an intermediate
//! ranking of `k` matches exists, the Lemma 4 bound
//! `τ' = min(τ, max(R) + |Q|)` prunes *inside* each candidate: its subtrees
//! are traversed in reverse postorder and only those smaller than `τ'` are
//! evaluated.
//!
//! Space is `O(m² c_Q + m k c_T)` — independent of the document — and time
//! is `O(m² n)` (Theorem 5).
//!
//! On top of Algorithm 3, each maximal in-bound subtree is offered to the
//! admissible [`LowerBoundCascade`] against the current heap cutoff
//! `max(R)` before its DP runs: a refuted subtree (every one of its
//! subtrees provably beyond the cutoff) is skipped wholesale, and the
//! surviving ones are evaluated **in place** as [`TreeView`] slices of
//! the candidate arena — no scratch-tree copy.
//!
//! The scan itself is shared with [`tasm_batch`](crate::tasm_batch): a
//! single query is a batch of one, so [`tasm_postorder`] runs the
//! batch's one-thread shared scan with one evaluation lane, and this
//! module keeps only the per-candidate loop every driver runs,
//! `process_candidate_parts`.

use crate::batch::{shared_scan, BatchQuery};
use crate::deadline::Deadline;
use crate::engine::ScanStats;
use crate::ranking::{Match, TopKHeap};
use crate::tasm_dynamic::{rank_subtrees_into, TasmOptions};
use crate::threshold::refined_threshold;
use crate::workspace::TasmWorkspace;
use tasm_ted::{
    CascadeDecision, CascadeScratch, CostModel, LowerBoundCascade, QueryContext, TedStats,
    TedWorkspace,
};
use tasm_tree::{NodeId, PostorderQueue, Tree, TreeView};

/// Computes the top-`k` ranking of the subtrees of a streamed document
/// w.r.t. `query`, in a single pass over `queue`.
///
/// `c_t` is the maximum node cost of the document under `model` (Theorem 3
/// needs it up front; under [`UnitCost`](tasm_ted::UnitCost) it is 1). If
/// the stream contains nodes of larger cost the threshold would be
/// unsound, so pass a true upper bound.
///
/// # Examples
///
/// ```
/// use tasm_tree::{bracket, LabelDict, TreeQueue};
/// use tasm_ted::UnitCost;
/// use tasm_core::{tasm_postorder, TasmOptions};
///
/// let mut dict = LabelDict::new();
/// let g = bracket::parse("{a{b}{c}}", &mut dict).unwrap();
/// let h = bracket::parse("{x{a{b}{d}}{a{b}{c}}}", &mut dict).unwrap();
/// let mut queue = TreeQueue::new(&h);
/// let top2 = tasm_postorder(&g, &mut queue, 2, &UnitCost, 1, TasmOptions::default(), None);
/// // Example 2: R = (H6, H3).
/// assert_eq!(top2[0].root.post(), 6);
/// assert_eq!(top2[1].root.post(), 3);
/// ```
pub fn tasm_postorder<Q: PostorderQueue + ?Sized>(
    query: &Tree,
    queue: &mut Q,
    k: usize,
    model: &dyn CostModel,
    c_t: u64,
    opts: TasmOptions,
    stats: Option<&mut TedStats>,
) -> Vec<Match> {
    let mut ws = TasmWorkspace::new();
    tasm_postorder_with_workspace(query, queue, k, model, c_t, opts, &mut ws, stats)
}

/// As [`tasm_postorder`], but reusing the caller's [`TasmWorkspace`].
///
/// A single query is the batch of one: this runs the one-thread shared
/// scan of [`tasm_batch`](crate::tasm_batch) with a single lane, which
/// reserves the workspace for the Theorem 3 bound τ before the scan
/// starts. The entire candidate loop then performs **zero heap
/// allocations** — the document stream costs O(1) allocations total,
/// regardless of its length. Reuse the same workspace across streams
/// to amortize even the warm-up;
/// [`TasmWorkspace::last_scan_stats`] reports the run's funnel.
#[allow(clippy::too_many_arguments)]
pub fn tasm_postorder_with_workspace<Q: PostorderQueue + ?Sized>(
    query: &Tree,
    queue: &mut Q,
    k: usize,
    model: &dyn CostModel,
    c_t: u64,
    opts: TasmOptions,
    ws: &mut TasmWorkspace,
    stats: Option<&mut TedStats>,
) -> Vec<Match> {
    let queries = [BatchQuery { query, k }];
    let out = shared_scan(
        &queries,
        queue,
        model,
        c_t,
        opts,
        ws,
        stats,
        &Deadline::none(),
    )
    .expect("Deadline::none() never expires");
    out.rankings.into_iter().next().expect("one lane")
}

/// Algorithm 3, lines 7–19: traverse the subtrees of candidate `cand`
/// in reverse postorder; evaluate each maximal subtree below the current
/// bound `τ'` with TASM-dynamic — unless the lower-bound `cascade`
/// refutes it against the current heap cutoff — and skip over its
/// nodes, descending one node at a time otherwise.
///
/// `doc_post_offset` is the document postorder number of the node
/// preceding the candidate's leftmost node; `tau` is the Theorem 3 bound
/// used by the Lemma 4 refinement; `scan` accumulates the per-tier
/// pruning funnel. The candidate is a borrowed [`TreeView`] wherever it
/// lives — scan arena, stream segment or resident document — so every
/// driver (the evaluation lanes of the shared scan, the shard workers,
/// the indexed driver, and [`tasm_dynamic`](crate::tasm_dynamic) with an
/// unbounded τ) evaluates in place.
#[allow(clippy::too_many_arguments)]
pub(crate) fn process_candidate_parts(
    heap: &mut TopKHeap,
    ctx: &QueryContext<'_>,
    cascade: &LowerBoundCascade<'_>,
    cand: TreeView<'_>,
    doc_post_offset: u32,
    tau: u64,
    opts: TasmOptions,
    lb: &mut CascadeScratch,
    ted: &mut TedWorkspace,
    scan: &mut ScanStats,
    mut stats: Option<&mut TedStats>,
) {
    let m = ctx.len() as u64;
    let mut r = cand.len() as u32; // local postorder of the current root
    while r >= 1 {
        let node = NodeId::new(r);
        let size = cand.size(node) as u64;
        let tau_prime = if opts.use_tau_prime && heap.is_full() {
            refined_threshold(tau, heap.max_distance().expect("full heap"), m)
        } else {
            tau
        };
        // `<=` (not `<`): both Theorem 3 and Lemma 3 bound answer sizes
        // *inclusively* (|T_i| <= δ + |Q|), and a subtree of size exactly
        // τ' can still tie the current maximum on distance and win on
        // postorder number. Evaluating the boundary keeps the ranking
        // exact — the batch and parallel paths rely on it for result-set
        // equality with this sequential path.
        if !heap.is_full() || size <= tau_prime {
            // Zero-copy: the subtree (whole candidate included) is a
            // contiguous slice of the candidate.
            let doc = cand.subtree_view(node);
            // The cascade's verdict covers *all* subtrees of `doc` (one
            // DP would rank them all), so a refuted subtree is skipped
            // wholesale. Strictness (`bound > max(R)`) keeps the heap
            // content — and hence every later τ'/cutoff — identical to
            // a cascade-off run.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasm_dynamic::tasm_dynamic;
    use crate::threshold::threshold;
    use tasm_ted::{Cost, UnitCost};
    use tasm_tree::{bracket, LabelDict, TreeQueue};

    fn parse(s: &str, dict: &mut LabelDict) -> Tree {
        bracket::parse(s, dict).unwrap()
    }

    fn example_d(dict: &mut LabelDict) -> Tree {
        parse(
            "{dblp{article{auth{John}}{title{X1}}}{proceedings{conf{VLDB}}\
             {article{auth{Peter}}{title{X3}}}{article{auth{Mike}}{title{X4}}}}\
             {book{title{X2}}}}",
            dict,
        )
    }

    #[test]
    fn paper_example_2() {
        let mut dict = LabelDict::new();
        let g = parse("{a{b}{c}}", &mut dict);
        let h = parse("{x{a{b}{d}}{a{b}{c}}}", &mut dict);
        let mut q = TreeQueue::new(&h);
        let top2 = tasm_postorder(&g, &mut q, 2, &UnitCost, 1, TasmOptions::default(), None);
        assert_eq!(top2.len(), 2);
        assert_eq!((top2[0].root.post(), top2[0].distance), (6, Cost::ZERO));
        assert_eq!(
            (top2[1].root.post(), top2[1].distance),
            (3, Cost::from_natural(1))
        );
    }

    #[test]
    fn agrees_with_dynamic_on_example_d() {
        let mut dict = LabelDict::new();
        let doc = example_d(&mut dict);
        let query = parse("{article{auth{Peter}}{title{X3}}}", &mut dict);
        for k in [1usize, 2, 3, 5, 10, 22] {
            let dy = tasm_dynamic(&query, &doc, k, &UnitCost, TasmOptions::default(), None);
            let mut q = TreeQueue::new(&doc);
            let po = tasm_postorder(
                &query,
                &mut q,
                k,
                &UnitCost,
                1,
                TasmOptions::default(),
                None,
            );
            let dyd: Vec<(u64, u32)> = dy
                .iter()
                .map(|m| (m.distance.halves(), m.root.post()))
                .collect();
            let pod: Vec<(u64, u32)> = po
                .iter()
                .map(|m| (m.distance.halves(), m.root.post()))
                .collect();
            assert_eq!(dyd, pod, "k = {k}");
        }
    }

    #[test]
    fn exact_match_is_top1() {
        let mut dict = LabelDict::new();
        let doc = example_d(&mut dict);
        let query = parse("{book{title{X2}}}", &mut dict);
        let mut q = TreeQueue::new(&doc);
        let top = tasm_postorder(
            &query,
            &mut q,
            1,
            &UnitCost,
            1,
            TasmOptions::default(),
            None,
        );
        assert_eq!(top[0].distance, Cost::ZERO);
        assert_eq!(top[0].root.post(), 21);
    }

    #[test]
    fn keep_trees_returns_match_content() {
        let mut dict = LabelDict::new();
        let doc = example_d(&mut dict);
        let query = parse("{book{title{X2}}}", &mut dict);
        let mut q = TreeQueue::new(&doc);
        let opts = TasmOptions {
            keep_trees: true,
            ..Default::default()
        };
        let top = tasm_postorder(&query, &mut q, 1, &UnitCost, 1, opts, None);
        let tree = top[0].tree.as_ref().expect("kept");
        assert_eq!(tree, &doc.subtree(NodeId::new(21)));
    }

    #[test]
    fn stats_show_pruning_vs_dynamic() {
        // The headline effect (Fig. 11): postorder's largest computed
        // relevant subtree is bounded by τ, dynamic computes the whole doc.
        let mut dict = LabelDict::new();
        let doc = example_d(&mut dict);
        let query = parse("{auth{X}}", &mut dict);
        let k = 1;

        let mut st_dy = TedStats::new();
        tasm_dynamic(
            &query,
            &doc,
            k,
            &UnitCost,
            TasmOptions::default(),
            Some(&mut st_dy),
        );
        assert_eq!(st_dy.max_relevant_size(), doc.len() as u32);

        let mut st_po = TedStats::new();
        let mut q = TreeQueue::new(&doc);
        tasm_postorder(
            &query,
            &mut q,
            k,
            &UnitCost,
            1,
            TasmOptions::default(),
            Some(&mut st_po),
        );
        let tau = threshold(query.len() as u64, 1, 1, k as u64);
        assert!(u64::from(st_po.max_relevant_size()) <= tau);
    }

    #[test]
    fn k_exceeding_subtree_count() {
        let mut dict = LabelDict::new();
        let doc = parse("{a{b}{c}}", &mut dict);
        let query = parse("{a}", &mut dict);
        let mut q = TreeQueue::new(&doc);
        let all = tasm_postorder(
            &query,
            &mut q,
            10,
            &UnitCost,
            1,
            TasmOptions::default(),
            None,
        );
        assert_eq!(all.len(), 3);
        // Ascending distances.
        assert!(all.windows(2).all(|w| w[0].distance <= w[1].distance));
    }

    #[test]
    fn single_node_query_and_doc() {
        let mut dict = LabelDict::new();
        let doc = parse("{a}", &mut dict);
        let query = parse("{a}", &mut dict);
        let mut q = TreeQueue::new(&doc);
        let top = tasm_postorder(
            &query,
            &mut q,
            1,
            &UnitCost,
            1,
            TasmOptions::default(),
            None,
        );
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].distance, Cost::ZERO);
    }
}
