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
//! admissible [`LowerBoundCascade`](tasm_ted::LowerBoundCascade) against the current heap cutoff
//! `max(R)` before its DP runs: a refuted subtree (every one of its
//! subtrees provably beyond the cutoff) is skipped wholesale, and the
//! surviving ones are evaluated **in place** as
//! [`TreeView`](tasm_tree::TreeView) slices of
//! the candidate arena — no scratch-tree copy.
//!
//! The scan itself is shared with [`tasm_batch`](crate::tasm_batch): a
//! single query is a batch of one, so [`tasm_postorder`] runs the
//! batch's one-thread shared scan with one evaluation lane, and the
//! per-candidate loop every driver runs is that lane's
//! (`EvalLane::evaluate` in the lane module).

use crate::batch::{fold_ted, shared_scan, BatchQuery};
use crate::ranking::Match;
use crate::run::Run;
use crate::tasm_dynamic::TasmOptions;
use crate::workspace::TasmWorkspace;
use tasm_ted::{CostModel, TedStats};
use tasm_tree::{PostorderQueue, Tree};

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
    model: &(dyn CostModel + Sync),
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
    model: &(dyn CostModel + Sync),
    c_t: u64,
    opts: TasmOptions,
    ws: &mut TasmWorkspace,
    stats: Option<&mut TedStats>,
) -> Vec<Match> {
    let run = Run {
        model,
        c_t,
        opts,
        ted_stats: stats.is_some(),
        ..Run::default()
    };
    let out = shared_scan(&[BatchQuery { query, k }], queue, &run, ws).expect("no deadline");
    fold_ted(stats, out.ted);
    out.rankings.into_iter().next().expect("one lane")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasm_dynamic::tasm_dynamic;
    use crate::threshold::threshold;
    use tasm_ted::{Cost, UnitCost};
    use tasm_tree::{bracket, LabelDict, NodeId, TreeQueue};

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
