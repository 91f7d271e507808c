//! TASM-dynamic (Sec. IV-F): the state-of-the-art baseline the paper
//! improves on.
//!
//! One tree-edit-distance computation between the query and the whole
//! document fills the tree distance matrix `td`; its last row holds
//! `δ(Q, T_j)` for every subtree `T_j`, so ranking the last row solves
//! TASM. Time `O(m² n)` for shallow documents, but **space `O(m n)`**:
//! both the document and the matrix must be memory-resident, which is what
//! TASM-postorder eliminates.

use crate::engine::ScanStats;
use crate::lane::EvalLane;
use crate::ranking::{Match, TopKHeap};
use crate::workspace::TasmWorkspace;
use tasm_ted::{
    ted_row_with_workspace, Cost, CostModel, QueryContext, TedKernel, TedStats, TedWorkspace,
};
use tasm_tree::{NodeId, Tree, TreeView};

/// Options shared by the TASM algorithms.
#[derive(Debug, Clone, Copy)]
pub struct TasmOptions {
    /// Keep a copy of each matched subtree in the [`Match`] (costs O(k·τ)
    /// memory; required to show match content after streaming evaluation).
    pub keep_trees: bool,
    /// Apply the Lemma 4 refinement `τ' = min(τ, max(R) + |Q|)` inside
    /// candidate subtrees (Algorithm 3, line 10). Disabling it keeps only
    /// the static Theorem 3 bound — the `ablation-tau` experiment measures
    /// what the refinement buys.
    pub use_tau_prime: bool,
    /// Run the admissible
    /// [`LowerBoundCascade`](tasm_ted::LowerBoundCascade)
    /// (label-histogram deficit, then banded substring SED) against the
    /// current heap cutoff before each exact DP evaluation. Pruning is strict (`bound > max(R)`),
    /// so the ranking is **identical** with the cascade on or off
    /// (property-tested); disabling it measures what the cascade buys.
    pub use_cascade: bool,
    /// Which TED kernel evaluates surviving candidates: the classic
    /// Zhang–Shasha left-path decomposition, the right-path (mirrored)
    /// strategy kernel, or a per-query shape estimate (`Auto`, the
    /// default). Resolved once per query at lane/context construction;
    /// every selection returns **identical** rankings (pinned by the
    /// differential matrix).
    pub kernel: TedKernel,
}

impl Default for TasmOptions {
    fn default() -> Self {
        TasmOptions {
            keep_trees: false,
            use_tau_prime: true,
            use_cascade: true,
            kernel: TedKernel::Auto,
        }
    }
}

/// Computes the top-`k` ranking of the subtrees of `doc` w.r.t. `query`
/// (Def. 1) by the TASM-dynamic algorithm.
///
/// # Examples
///
/// Example 2 of the paper: top-2 for query G in document H is `(H6, H3)`
/// with distances 0 and 1.
///
/// ```
/// use tasm_tree::{bracket, LabelDict, NodeId};
/// use tasm_ted::UnitCost;
/// use tasm_core::{tasm_dynamic, TasmOptions};
///
/// let mut dict = LabelDict::new();
/// let g = bracket::parse("{a{b}{c}}", &mut dict).unwrap();
/// let h = bracket::parse("{x{a{b}{d}}{a{b}{c}}}", &mut dict).unwrap();
/// let top2 = tasm_dynamic(&g, &h, 2, &UnitCost, TasmOptions::default(), None);
/// assert_eq!(top2[0].root, NodeId::new(6));
/// assert_eq!(top2[0].distance.floor_natural(), 0);
/// assert_eq!(top2[1].root, NodeId::new(3));
/// assert_eq!(top2[1].distance.floor_natural(), 1);
/// ```
pub fn tasm_dynamic(
    query: &Tree,
    doc: &Tree,
    k: usize,
    model: &dyn CostModel,
    opts: TasmOptions,
    stats: Option<&mut TedStats>,
) -> Vec<Match> {
    let mut ws = TasmWorkspace::new();
    tasm_dynamic_with_workspace(query, doc, k, model, opts, &mut ws, stats)
}

/// As [`tasm_dynamic`], but reusing the caller's [`TasmWorkspace`] for
/// the distance matrices and document-side buffers (the dominant, O(m·n)
/// allocations). The query-side [`QueryContext`] is still rebuilt per
/// call — O(m), negligible next to the DP — so queries may change freely
/// between calls.
///
/// Structurally this is Algorithm 3's candidate loop with the pruning
/// disabled: the whole (already materialized) document is one candidate
/// under an unbounded τ, so one DP fills the distance matrix and its
/// last row ranks every subtree.
pub fn tasm_dynamic_with_workspace(
    query: &Tree,
    doc: &Tree,
    k: usize,
    model: &dyn CostModel,
    opts: TasmOptions,
    ws: &mut TasmWorkspace,
    stats: Option<&mut TedStats>,
) -> Vec<Match> {
    let mut lane = EvalLane::new(query, k, model, 1, opts.kernel);
    lane.tau = u64::MAX;
    if ws.eval.teds.is_empty() {
        ws.eval.teds.push(TedWorkspace::new());
    }
    lane.evaluate(
        doc.view(),
        0,
        opts,
        &mut ws.eval.lb,
        &mut ws.eval.teds[0],
        stats,
    );
    ws.last_scan = ScanStats {
        candidates: 1,
        ..lane.stats
    };
    lane.heap.into_sorted()
}

/// Core of TASM-dynamic, reusable by TASM-postorder: computes the distance
/// matrix for (`ctx.query()`, `doc`) inside the workspace and offers every
/// subtree of `doc` to `heap`. The document side arrives as a borrowed
/// [`TreeView`] — for TASM-postorder a zero-copy slice of the candidate
/// arena — so the call is allocation-free once the workspace is warm
/// (`keep_trees` aside, which clones at most `k` surviving subtrees).
///
/// `doc_post_offset` shifts reported postorder numbers: when `doc` is a
/// candidate subtree of a larger document, pass the document postorder
/// number of the node *preceding* the candidate's leftmost node.
pub(crate) fn rank_subtrees_into(
    heap: &mut TopKHeap,
    ctx: &QueryContext<'_>,
    doc: TreeView<'_>,
    doc_post_offset: u32,
    opts: TasmOptions,
    ted_ws: &mut TedWorkspace,
    stats: Option<&mut TedStats>,
) {
    let row = ted_row_with_workspace(ctx, doc, ted_ws, stats);
    for j in doc.nodes() {
        let distance: Cost = row[j.post() as usize];
        heap.offer(Match {
            root: NodeId::new(doc_post_offset + j.post()),
            size: doc.size(j),
            distance,
            tree: None,
        });
    }
    if opts.keep_trees {
        // Attach subtree copies to the surviving matches rooted in this
        // doc. Done once per doc rather than per offer: only the at most k
        // survivors pay the clone.
        let lo = doc_post_offset + 1;
        let hi = doc_post_offset + doc.len() as u32;
        heap.attach_trees(lo, hi, |doc_post| {
            doc.subtree(NodeId::new(doc_post - doc_post_offset))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasm_ted::UnitCost;
    use tasm_tree::{bracket, LabelDict};

    fn gh() -> (Tree, Tree) {
        let mut dict = LabelDict::new();
        let g = bracket::parse("{a{b}{c}}", &mut dict).unwrap();
        let h = bracket::parse("{x{a{b}{d}}{a{b}{c}}}", &mut dict).unwrap();
        (g, h)
    }

    #[test]
    fn paper_example_2_top2() {
        let (g, h) = gh();
        let top2 = tasm_dynamic(&g, &h, 2, &UnitCost, TasmOptions::default(), None);
        assert_eq!(top2.len(), 2);
        assert_eq!(top2[0].root.post(), 6);
        assert_eq!(top2[0].distance, Cost::ZERO);
        assert_eq!(top2[1].root.post(), 3);
        assert_eq!(top2[1].distance, Cost::from_natural(1));
    }

    #[test]
    fn k_larger_than_document_returns_all() {
        let (g, h) = gh();
        let all = tasm_dynamic(&g, &h, 100, &UnitCost, TasmOptions::default(), None);
        assert_eq!(all.len(), 7);
        // Sorted ascending by (distance, id): from Fig. 3 last row
        // (2,3,1,2,2,0,4) => 0@6, 1@3, 2@1, 2@4, 2@5, 3@2, 4@7.
        let got: Vec<(u64, u32)> = all
            .iter()
            .map(|m| (m.distance.floor_natural(), m.root.post()))
            .collect();
        assert_eq!(
            got,
            vec![(0, 6), (1, 3), (2, 1), (2, 4), (2, 5), (3, 2), (4, 7)]
        );
    }

    #[test]
    fn top1_is_exact_match() {
        let (g, h) = gh();
        let top1 = tasm_dynamic(&g, &h, 1, &UnitCost, TasmOptions::default(), None);
        assert_eq!(top1.len(), 1);
        assert_eq!(top1[0].root.post(), 6);
        assert_eq!(top1[0].size, 3);
    }

    #[test]
    fn keep_trees_attaches_subtrees() {
        let (g, h) = gh();
        let opts = TasmOptions {
            keep_trees: true,
            ..Default::default()
        };
        let top2 = tasm_dynamic(&g, &h, 2, &UnitCost, opts, None);
        let t6 = top2[0].tree.as_ref().expect("tree kept");
        assert_eq!(t6, &h.subtree(NodeId::new(6)));
        assert_eq!(top2[1].tree.as_ref().unwrap(), &h.subtree(NodeId::new(3)));
    }

    #[test]
    fn stats_see_whole_document() {
        let (g, h) = gh();
        let mut st = TedStats::new();
        tasm_dynamic(&g, &h, 2, &UnitCost, TasmOptions::default(), Some(&mut st));
        // TASM-dynamic computes the whole document: max relevant size = |H|.
        assert_eq!(st.max_relevant_size(), 7);
        assert_eq!(st.ted_calls, 1);
    }
}
