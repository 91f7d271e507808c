//! Property-based tests for the TASM algorithms.
//!
//! * the prefix ring buffer emits exactly `cand(T, τ)` (Def. 9) — checked
//!   against a brute-force reference and against the simple pruning;
//! * the ring buffer never holds more than τ nodes (Theorem 2);
//! * the size-column sweep of a resident tree, whole or restarted on
//!   blocks of any size, yields the ring buffer's candidates;
//! * `TopKHeap::merge` equals offering every entry into one heap;
//! * every returned match respects the Theorem 3 size bound;
//! * the rankings satisfy Def. 1 against exhaustive distances.
//!
//! Cross-algorithm ranking equality (naive/dynamic/postorder/batch/
//! parallel × materialized/streaming × thread counts × cascade on/off)
//! lives in `tests/differential.rs` — one matrix, one oracle — instead
//! of scattered pairwise tests here.

use proptest::prelude::*;
use tasm_core::{
    candidate_set_reference, prb_pruning, prb_pruning_stats, simple_pruning, tasm_dynamic,
    tasm_dynamic_with_workspace, tasm_postorder, tasm_postorder_with_workspace, threshold, Match,
    PrefixRingBuffer, TasmOptions, TasmWorkspace, TopKHeap,
};
use tasm_ted::{ted, ted_with_workspace, Cost, TedWorkspace, UnitCost};
use tasm_tree::{CandidateSweep, LabelId, Tree, TreeBuilder, TreeQueue};

/// Builds a uniformly-shaped random tree of exactly `n` nodes by random
/// attachment: node `i` picks a uniformly random existing parent. Labels
/// are drawn from `n_labels` distinct values so renames and exact matches
/// both occur.
fn random_tree(seed: u64, n: usize, n_labels: u32) -> Tree {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut labels: Vec<u32> = Vec::with_capacity(n);
    labels.push(rng.gen_range(0..n_labels));
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        children[parent].push(i);
        labels.push(rng.gen_range(0..n_labels));
    }
    fn rec(node: usize, children: &[Vec<usize>], labels: &[u32], b: &mut TreeBuilder) {
        b.start(LabelId(labels[node]));
        for &c in &children[node] {
            rec(c, children, labels, b);
        }
        b.end().expect("balanced");
    }
    let mut b = TreeBuilder::with_capacity(n);
    rec(0, &children, &labels, &mut b);
    b.finish().expect("single root")
}

/// Documents: 1–150 nodes over 4 labels.
fn arb_doc() -> impl Strategy<Value = Tree> {
    (any::<u64>(), 1usize..150).prop_map(|(seed, n)| random_tree(seed, n, 4))
}

/// Queries: 1–10 nodes over the same label universe.
fn arb_query() -> impl Strategy<Value = Tree> {
    (any::<u64>(), 1usize..10).prop_map(|(seed, n)| random_tree(seed, n, 4))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ring_buffer_equals_reference_candidate_set(doc in arb_doc(), tau in 1u32..40) {
        let mut q = TreeQueue::new(&doc);
        let got = prb_pruning(&mut q, tau);
        let want = candidate_set_reference(&doc, tau);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.root, w.root);
            prop_assert_eq!(&g.tree, &w.tree);
        }
    }

    #[test]
    fn block_sweeps_equal_the_whole_sweep_and_the_ring_buffer(
        doc in arb_doc(),
        tau in 1u32..40,
    ) {
        let n = doc.len() as u32;
        let mut whole = CandidateSweep::new(doc.view(), tau);
        let mut spans: Vec<(u32, u32)> = whole.by_ref().collect();
        spans.reverse();
        // The ring buffer's candidates, count and nodes.
        let ring = prb_pruning_stats(&mut TreeQueue::new(&doc), tau, None);
        prop_assert_eq!(spans.len(), ring.candidates);
        let nodes: u64 = spans.iter().map(|&(lo, hi)| u64::from(hi - lo + 1)).sum();
        prop_assert_eq!(nodes, ring.candidate_nodes);
        let roots: Vec<u32> = prb_pruning(&mut TreeQueue::new(&doc), tau)
            .iter()
            .map(|c| c.root.post())
            .collect();
        prop_assert_eq!(spans.iter().map(|s| s.1).collect::<Vec<_>>(), roots);
        // Every node is on the spine or inside one candidate.
        prop_assert_eq!(whole.spine() + nodes, u64::from(n));
        for block in [1, 2, 7, tau, n] {
            let mut got = Vec::new();
            let mut spine = 0;
            let mut first = 1;
            while first <= n {
                let last = (first - 1).saturating_add(block).min(n);
                let mut sweep = CandidateSweep::block(doc.view(), tau, first, last);
                let mut part: Vec<(u32, u32)> = sweep.by_ref().collect();
                part.reverse();
                got.extend(part);
                spine += sweep.spine();
                first = last + 1;
            }
            prop_assert_eq!(&got, &spans, "block = {}", block);
            prop_assert_eq!(spine, whole.spine(), "block = {}", block);
        }
    }

    #[test]
    fn simple_pruning_equals_reference_candidate_set(doc in arb_doc(), tau in 1u32..40) {
        let mut q = TreeQueue::new(&doc);
        let (mut got, _) = simple_pruning(&mut q, tau);
        got.sort_by_key(|c| c.root);
        let want = candidate_set_reference(&doc, tau);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.root, w.root);
            prop_assert_eq!(&g.tree, &w.tree);
        }
    }

    #[test]
    fn ring_buffer_space_bound_theorem_2(doc in arb_doc(), tau in 1u32..40) {
        let mut q = TreeQueue::new(&doc);
        let mut prb = PrefixRingBuffer::new(&mut q, tau);
        let mut cand = Tree::leaf(LabelId(0));
        while prb.next_candidate_into(&mut cand).is_some() {}
        prop_assert!(prb.peak_buffered() <= tau as usize);
        prop_assert_eq!(prb.nodes_seen() as usize, doc.len());
    }

    #[test]
    fn candidate_set_partitions_small_subtrees(doc in arb_doc(), tau in 1u32..40) {
        // Every node in a subtree of size <= τ is covered by exactly one
        // candidate; candidates are disjoint.
        let cands = candidate_set_reference(&doc, tau);
        let mut covered = vec![false; doc.len()];
        for c in &cands {
            let lo = (c.root.post() - c.tree.len() as u32) as usize;
            for (i, slot) in covered.iter_mut().enumerate().take(c.root.post() as usize).skip(lo) {
                prop_assert!(!*slot, "overlap at node {}", i + 1);
                *slot = true;
            }
        }
        for id in doc.nodes() {
            if doc.size(id) <= tau {
                prop_assert!(covered[id.index()], "node {} uncovered", id);
            }
        }
    }

    #[test]
    fn heap_merge_equals_single_heap(
        entries in proptest::collection::vec((0u64..6, 1u32..60), 0..24),
        k in 1usize..6,
        split in any::<u64>(),
    ) {
        use tasm_tree::NodeId;
        let mk = |d: u64, r: u32| Match {
            root: NodeId::new(r),
            size: 1,
            distance: tasm_ted::Cost::from_natural(d),
            tree: None,
        };
        let mut one = TopKHeap::new(k);
        let mut left = TopKHeap::new(k);
        let mut right = TopKHeap::new(k);
        for (i, &(d, r)) in entries.iter().enumerate() {
            one.offer(mk(d, r));
            if (split >> (i % 64)) & 1 == 0 {
                left.offer(mk(d, r));
            } else {
                right.offer(mk(d, r));
            }
        }
        left.merge(right);
        prop_assert_eq!(left.into_sorted(), one.into_sorted());
    }

    #[test]
    fn ranking_satisfies_definition_1(
        q in arb_query(),
        t in arb_doc(),
        k in 1usize..6,
    ) {
        let opts = TasmOptions::default();
        let mut stream = TreeQueue::new(&t);
        let ranking = tasm_postorder(&q, &mut stream, k, &UnitCost, 1, opts, None);
        let k_eff = k.min(t.len());
        prop_assert_eq!(ranking.len(), k_eff);
        // Condition 2: sorted by distance.
        for w in ranking.windows(2) {
            prop_assert!(w[0].distance <= w[1].distance);
        }
        // Condition 1: no excluded subtree beats the k-th ranked one.
        let worst = ranking.last().unwrap().distance;
        let ranked: std::collections::HashSet<u32> =
            ranking.iter().map(|m| m.root.post()).collect();
        for j in t.nodes() {
            if !ranked.contains(&j.post()) {
                let d = ted(&q, &t.subtree(j), &UnitCost);
                prop_assert!(
                    worst <= d,
                    "excluded subtree {} at distance {} beats ranked max {}",
                    j, d, worst
                );
            }
        }
    }

    #[test]
    fn theorem_3_size_bound_holds(
        q in arb_query(),
        t in arb_doc(),
        k in 1usize..6,
    ) {
        let tau = threshold(q.len() as u64, 1, 1, k as u64);
        let mut stream = TreeQueue::new(&t);
        let ranking =
            tasm_postorder(&q, &mut stream, k, &UnitCost, 1, TasmOptions::default(), None);
        for m in &ranking {
            prop_assert!(u64::from(m.size) <= tau, "match size {} > τ {}", m.size, tau);
            // Lemma 3 per match: |T_i| <= δ + |Q|.
            prop_assert!(
                u64::from(m.size) <= m.distance.floor_natural() + q.len() as u64
            );
        }
    }

    #[test]
    fn workspace_reuse_is_identical_to_fresh_allocation(
        runs in proptest::collection::vec((arb_query(), arb_doc(), 1usize..7), 2..5),
    ) {
        // One workspace reused across *different* query/document pairs —
        // consecutive candidates (and whole documents) of different
        // sizes must leave no trace: results are identical to the
        // fresh-allocation wrappers in every field.
        let mut ws = TasmWorkspace::new();
        let mut ted_ws = TedWorkspace::new();
        for (q, t, k) in &runs {
            let (q, t, k) = (q, t, *k);
            let opts = TasmOptions { keep_trees: true, ..Default::default() };

            let fresh_dy = tasm_dynamic(q, t, k, &UnitCost, opts, None);
            let reuse_dy = tasm_dynamic_with_workspace(q, t, k, &UnitCost, opts, &mut ws, None);
            prop_assert_eq!(&fresh_dy, &reuse_dy);

            let mut s1 = TreeQueue::new(t);
            let fresh_po = tasm_postorder(q, &mut s1, k, &UnitCost, 1, opts, None);
            let mut s2 = TreeQueue::new(t);
            let reuse_po =
                tasm_postorder_with_workspace(q, &mut s2, k, &UnitCost, 1, opts, &mut ws, None);
            prop_assert_eq!(&fresh_po, &reuse_po);

            prop_assert_eq!(
                ted(q, t, &UnitCost),
                ted_with_workspace(q, t, &UnitCost, &mut ted_ws)
            );
        }
    }

    #[test]
    fn match_sizes_and_trees_are_consistent(
        q in arb_query(),
        t in arb_doc(),
        k in 1usize..4,
    ) {
        let opts = TasmOptions { keep_trees: true, ..Default::default() };
        let mut stream = TreeQueue::new(&t);
        let ranking = tasm_postorder(&q, &mut stream, k, &UnitCost, 1, opts, None);
        for m in &ranking {
            let tree = m.tree.as_ref().expect("keep_trees");
            prop_assert_eq!(tree.len() as u32, m.size);
            prop_assert_eq!(tree, &t.subtree(m.root));
            prop_assert_eq!(ted(&q, tree, &UnitCost), m.distance);
        }
    }
}

#[test]
fn zero_cost_between_identical_query_everywhere() {
    // A document made of repeated copies of the query: top-k are all exact.
    let mut b = TreeBuilder::new();
    b.start(LabelId(9));
    for _ in 0..6 {
        b.start(LabelId(0));
        b.leaf(LabelId(1));
        b.leaf(LabelId(2));
        b.end().unwrap();
    }
    b.end().unwrap();
    let doc = b.finish().unwrap();
    let query =
        Tree::from_postorder(vec![(LabelId(1), 1), (LabelId(2), 1), (LabelId(0), 3)]).unwrap();
    let mut stream = TreeQueue::new(&doc);
    let top4 = tasm_postorder(
        &query,
        &mut stream,
        4,
        &UnitCost,
        1,
        TasmOptions::default(),
        None,
    );
    assert_eq!(top4.len(), 4);
    assert!(top4.iter().all(|m| m.distance == Cost::ZERO));
}

#[test]
fn generated_docs_are_nontrivial() {
    // Guard against the generators silently collapsing to single nodes:
    // sample documents across many seeds and require real spread.
    use proptest::strategy::{Strategy, ValueTree};
    use proptest::test_runner::TestRunner;
    let mut runner = TestRunner::default();
    let strat = arb_doc();
    let mut sizes = Vec::new();
    for _ in 0..200 {
        let tree = strat.new_tree(&mut runner).unwrap().current();
        sizes.push(tree.len());
    }
    let max = *sizes.iter().max().unwrap();
    let avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
    assert!(max >= 40, "largest sampled doc only {max} nodes");
    assert!(avg >= 5.0, "average sampled doc only {avg:.1} nodes");
}
