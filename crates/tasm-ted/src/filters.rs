//! Cheap tree-distance bounds from the related work the paper positions
//! itself against (Sec. III): useful as pre-filters in join pipelines
//! where full TASM verification is only run on surviving pairs.
//!
//! * [`label_histogram_lower_bound`] — an `O(n)` lower bound on the unit
//!   tree edit distance from the label multiset difference;
//! * [`binary_branch_distance`] — Yang, Kalnis & Tung (SIGMOD'05) \[20\]:
//!   an `O(n log n)` vector distance with
//!   `δ_bb(T1, T2) ≤ 5 · δ_unit(T1, T2)`, so `δ_bb / 5` lower-bounds the
//!   unit edit distance;
//! * [`pq_gram_distance`] — Augsten, Böhlen & Gamper (TODS) \[21\]: the
//!   pq-gram pseudo-distance that approximates the fanout-weighted edit
//!   distance; 0 for equal trees, cheap, and effective at ranking.
//!
//! The first two are **admissible** (proven lower bounds of the unit
//! edit distance). The pq-gram distance is **not**: it is a
//! pseudo-distance with no lower-bound relation to the edit distance,
//! so it may only serve heuristic candidate *ranking* and must stay out
//! of the exact [`LowerBoundCascade`](crate::LowerBoundCascade) — a
//! pq-gram tier would silently turn the exact top-k ranking into an
//! approximate one.
//!
//! For the streaming hot path, the cascade in [`LowerBoundCascade`](crate::LowerBoundCascade) uses
//! allocation-free variants of these ideas; the pair-wise entry points
//! here are for join-style pipelines and tests.

use std::collections::HashMap;

use crate::cost::Cost;
use tasm_tree::{LabelId, Tree};

/// Reusable dense scratch for [`label_histogram_lower_bound_with`]: one
/// signed counter per label id, plus the list of touched slots so a pass
/// resets in `O(distinct labels)` instead of `O(label universe)`.
///
/// Grows to the largest label id seen and never shrinks; repeated calls
/// are allocation-free in steady state.
#[derive(Debug, Default)]
pub struct HistogramScratch {
    /// `counts[label]` = multiplicity in `t1` minus multiplicity in `t2`.
    counts: Vec<i32>,
    /// Label ids with a (possibly) non-zero counter this pass.
    touched: Vec<u32>,
}

impl HistogramScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        HistogramScratch::default()
    }
}

/// Lower bound on the **unit-cost** tree edit distance from label
/// histograms.
///
/// Every delete/insert changes the label multiset by one element; every
/// rename by two (one removed, one added). Hence
/// `δ_unit(T1, T2) >= max(|n1 − n2|, L1(hist1, hist2) / 2)`.
///
/// This one-shot entry point counts by sort-and-merge —
/// `O((n1 + n2) log)` time and `O(n1 + n2)` scratch, independent of the
/// label-id universe. Repeated-evaluation loops should use
/// [`label_histogram_lower_bound_with`] with a shared scratch instead.
pub fn label_histogram_lower_bound(t1: &Tree, t2: &Tree) -> Cost {
    let mut a: Vec<LabelId> = t1.labels().to_vec();
    let mut b: Vec<LabelId> = t2.labels().to_vec();
    a.sort_unstable();
    b.sort_unstable();
    // The multiset intersection size: L1 = (n1 − common) + (n2 − common).
    let (mut i, mut j, mut common) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    let l1 = (a.len() as u64 - common) + (b.len() as u64 - common);
    let size_diff = (t1.len() as i64 - t2.len() as i64).unsigned_abs();
    Cost::from_natural((l1 / 2).max(size_diff))
}

/// As [`label_histogram_lower_bound`], but counting in a reusable dense
/// `u32`-indexed array instead of a per-call `HashMap` or sort — the
/// form for repeated-evaluation loops (one scratch, many candidate
/// pairs, zero steady-state allocation). The scratch grows to the
/// largest label id seen, so it assumes a reasonably dense label
/// dictionary (true for interned XML labels); the one-shot entry point
/// above has no such dependence.
pub fn label_histogram_lower_bound_with(
    t1: &Tree,
    t2: &Tree,
    scratch: &mut HistogramScratch,
) -> Cost {
    let slot_count = t1
        .labels()
        .iter()
        .chain(t2.labels())
        .map(|l| l.0 as usize + 1)
        .max()
        .unwrap_or(0);
    if scratch.counts.len() < slot_count {
        scratch.counts.resize(slot_count, 0);
    }
    scratch.touched.clear();
    for &l in t1.labels() {
        if scratch.counts[l.0 as usize] == 0 {
            scratch.touched.push(l.0);
        }
        scratch.counts[l.0 as usize] += 1;
    }
    for &l in t2.labels() {
        if scratch.counts[l.0 as usize] == 0 {
            scratch.touched.push(l.0);
        }
        scratch.counts[l.0 as usize] -= 1;
    }
    let mut l1: u64 = 0;
    for &l in &scratch.touched {
        l1 += scratch.counts[l as usize].unsigned_abs() as u64;
        scratch.counts[l as usize] = 0;
    }
    let size_diff = (t1.len() as i64 - t2.len() as i64).unsigned_abs();
    Cost::from_natural((l1 / 2).max(size_diff))
}

/// A binary branch: a node label with the labels of its leftmost child
/// and its right sibling in the binary (first-child/next-sibling)
/// transform of the tree; `None` encodes the ε padding.
type BinaryBranch = (LabelId, Option<LabelId>, Option<LabelId>);

/// Computes the **binary branch vector** of Yang et al. \[20\]: the multiset
/// of `(label, first_child_label, next_sibling_label)` triples over the
/// first-child/next-sibling encoding of the tree.
pub fn binary_branches(tree: &Tree) -> HashMap<BinaryBranch, i64> {
    // first child and next (right) sibling per node, derived from the
    // postorder arena in one pass over children lists.
    let n = tree.len();
    let mut first_child: Vec<Option<LabelId>> = vec![None; n];
    let mut next_sibling: Vec<Option<LabelId>> = vec![None; n];
    for id in tree.nodes() {
        let children = tree.children(id);
        if let Some(&first) = children.first() {
            first_child[id.index()] = Some(tree.label(first));
        }
        for w in children.windows(2) {
            next_sibling[w[0].index()] = Some(tree.label(w[1]));
        }
        // The root and last children keep None (ε).
    }
    let mut bag: HashMap<BinaryBranch, i64> = HashMap::new();
    for id in tree.nodes() {
        let key = (
            tree.label(id),
            first_child[id.index()],
            next_sibling[id.index()],
        );
        *bag.entry(key).or_insert(0) += 1;
    }
    bag
}

/// The **binary branch distance**: L1 distance of the binary branch
/// vectors. Yang et al. prove `δ_bb ≤ 5 · δ_unit`, so
/// [`binary_branch_lower_bound`] = `ceil(δ_bb / 5)` never exceeds the unit
/// edit distance.
pub fn binary_branch_distance(t1: &Tree, t2: &Tree) -> u64 {
    let mut bag = binary_branches(t1);
    for (k, v) in binary_branches(t2) {
        *bag.entry(k).or_insert(0) -= v;
    }
    bag.values().map(|v| v.unsigned_abs()).sum()
}

/// `ceil(δ_bb / 5)` — a valid lower bound for the unit tree edit distance.
pub fn binary_branch_lower_bound(t1: &Tree, t2: &Tree) -> Cost {
    Cost::from_natural(binary_branch_distance(t1, t2).div_ceil(5))
}

/// The pq-gram profile of a tree \[21\]: the multiset of all `p + q` label
/// windows over the tree extended with dummy (`None`) nodes — `p − 1`
/// ancestors above the root and `q − 1` children around every node.
/// Each pq-gram is `p` stem labels followed by `q` base labels.
pub fn pq_gram_profile(tree: &Tree, p: usize, q: usize) -> HashMap<Vec<Option<LabelId>>, i64> {
    assert!(p >= 1 && q >= 1, "p and q must be at least 1");
    let mut profile: HashMap<Vec<Option<LabelId>>, i64> = HashMap::new();
    // Stem of the current node: the p nearest ancestors (self first is
    // conventionally last); we keep a rolling stack of ancestor labels.
    fn rec(
        tree: &Tree,
        node: tasm_tree::NodeId,
        stem: &mut Vec<Option<LabelId>>,
        p: usize,
        q: usize,
        profile: &mut HashMap<Vec<Option<LabelId>>, i64>,
    ) {
        stem.push(Some(tree.label(node)));
        let stem_window: Vec<Option<LabelId>> = {
            let len = stem.len();
            let mut w = Vec::with_capacity(p);
            for i in 0..p {
                // p labels ending at this node, padded with None above root.
                let idx = (len + i).checked_sub(p);
                w.push(idx.and_then(|j| stem.get(j).copied().flatten()));
            }
            w
        };
        let children = tree.children(node);
        // Sliding window of q over (q-1 dummies) children (q-1 dummies).
        let mut base: Vec<Option<LabelId>> = vec![None; q - 1];
        base.extend(children.iter().map(|&c| Some(tree.label(c))));
        base.extend(std::iter::repeat_n(None, q - 1));
        if children.is_empty() {
            // A leaf contributes the all-dummy base window once.
            let mut gram = stem_window.clone();
            gram.extend(std::iter::repeat_n(None, q));
            *profile.entry(gram).or_insert(0) += 1;
        } else {
            for w in base.windows(q) {
                let mut gram = stem_window.clone();
                gram.extend_from_slice(w);
                *profile.entry(gram).or_insert(0) += 1;
            }
        }
        for c in children {
            rec(tree, c, stem, p, q, profile);
        }
        stem.pop();
    }
    let mut stem = Vec::new();
    rec(tree, tree.root(), &mut stem, p, q, &mut profile);
    profile
}

/// The (non-normalized) **pq-gram distance** \[21\]: the size of the
/// symmetric difference of the two pq-gram profiles (as bags). Zero for
/// identical trees; a pseudo-metric that approximates the fanout-weighted
/// tree edit distance and is computable in `O(n log n)`.
pub fn pq_gram_distance(t1: &Tree, t2: &Tree, p: usize, q: usize) -> u64 {
    let mut bag = pq_gram_profile(t1, p, q);
    for (k, v) in pq_gram_profile(t2, p, q) {
        *bag.entry(k).or_insert(0) -= v;
    }
    bag.values().map(|v| v.unsigned_abs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::UnitCost;
    use crate::zhang_shasha::ted;
    use tasm_tree::{bracket, LabelDict};

    fn parse2(a: &str, b: &str) -> (Tree, Tree) {
        let mut d = LabelDict::new();
        (
            bracket::parse(a, &mut d).unwrap(),
            bracket::parse(b, &mut d).unwrap(),
        )
    }

    #[test]
    fn histogram_bound_is_a_lower_bound() {
        let cases = [
            ("{a{b}{c}}", "{a{b}{c}}"),
            ("{a{b}{c}}", "{x{a{b}{d}}{a{b}{c}}}"),
            ("{a}", "{b}"),
            ("{a{b{c{d}}}}", "{a{b}{c}{d}}"),
            ("{a{a}{a}}", "{b{b}{b}{b}}"),
        ];
        for (x, y) in cases {
            let (t1, t2) = parse2(x, y);
            let lb = label_histogram_lower_bound(&t1, &t2);
            let d = ted(&t1, &t2, &UnitCost);
            assert!(lb <= d, "{x} vs {y}: lb {lb} > ted {d}");
        }
    }

    #[test]
    fn dense_histogram_matches_hashmap_reference() {
        let cases = [
            ("{a{b}{c}}", "{x{a{b}{d}}{a{b}{c}}}"),
            ("{a}", "{b}"),
            ("{a{a}{a}}", "{b{b}{b}{b}}"),
            ("{a{b{c{d}}}}", "{a{b}{c}{d}}"),
        ];
        let mut scratch = HistogramScratch::new();
        for (x, y) in cases {
            let (t1, t2) = parse2(x, y);
            // Reference: the straightforward HashMap bag difference.
            let mut bag: HashMap<LabelId, i64> = HashMap::new();
            for &l in t1.labels() {
                *bag.entry(l).or_insert(0) += 1;
            }
            for &l in t2.labels() {
                *bag.entry(l).or_insert(0) -= 1;
            }
            let l1: u64 = bag.values().map(|v| v.unsigned_abs()).sum();
            let size_diff = (t1.len() as i64 - t2.len() as i64).unsigned_abs();
            let want = Cost::from_natural((l1 / 2).max(size_diff));
            // Same scratch reused across pairs: counters must come back
            // clean after every call.
            assert_eq!(
                label_histogram_lower_bound_with(&t1, &t2, &mut scratch),
                want,
                "{x} vs {y}"
            );
            assert_eq!(label_histogram_lower_bound(&t1, &t2), want);
        }
    }

    #[test]
    fn histogram_bound_exact_on_disjoint_labels() {
        // Same shape, totally different labels: bound = n renames... the
        // histogram gives L1/2 = n, and ted = n.
        let (t1, t2) = parse2("{a{b}{c}}", "{x{y}{z}}");
        assert_eq!(
            label_histogram_lower_bound(&t1, &t2),
            ted(&t1, &t2, &UnitCost)
        );
    }

    #[test]
    fn binary_branch_zero_iff_equal_on_small_trees() {
        let (t1, t2) = parse2("{a{b}{c}}", "{a{b}{c}}");
        assert_eq!(binary_branch_distance(&t1, &t2), 0);
        let (t1, t2) = parse2("{a{b}{c}}", "{a{c}{b}}");
        assert!(
            binary_branch_distance(&t1, &t2) > 0,
            "sibling order matters"
        );
    }

    #[test]
    fn binary_branch_lower_bound_holds_on_fixtures() {
        let cases = [
            ("{a{b}{c}}", "{x{a{b}{d}}{a{b}{c}}}"),
            ("{a{b{c{d}}}}", "{a{b}{c}{d}}"),
            ("{r{a}{b}{c}}", "{r{c}{b}{a}}"),
            ("{a}", "{a{b{c}}}"),
        ];
        for (x, y) in cases {
            let (t1, t2) = parse2(x, y);
            let lb = binary_branch_lower_bound(&t1, &t2);
            let d = ted(&t1, &t2, &UnitCost);
            assert!(lb <= d, "{x} vs {y}: bb lb {lb} > ted {d}");
        }
    }

    #[test]
    fn pq_gram_profile_size() {
        // For p=2, q=3 each node contributes max(1, fanout + q - 1) grams.
        let mut d = LabelDict::new();
        let t = bracket::parse("{a{b}{c}}", &mut d).unwrap();
        let profile = pq_gram_profile(&t, 2, 3);
        let total: i64 = profile.values().sum();
        // root: 2 children + q - 1 windows = 4; leaves: 1 each.
        assert_eq!(total, 4 + 1 + 1);
    }

    #[test]
    fn pq_gram_distance_zero_for_equal() {
        let (t1, t2) = parse2("{a{b{x}}{c}}", "{a{b{x}}{c}}");
        assert_eq!(pq_gram_distance(&t1, &t2, 2, 3), 0);
    }

    #[test]
    fn pq_gram_distance_is_symmetric_and_positive() {
        let (t1, t2) = parse2("{a{b}{c}}", "{a{c}{b}}");
        let d12 = pq_gram_distance(&t1, &t2, 2, 3);
        let d21 = pq_gram_distance(&t2, &t1, 2, 3);
        assert_eq!(d12, d21);
        assert!(d12 > 0);
    }

    #[test]
    fn pq_gram_detects_small_vs_large_changes() {
        // A leaf rename changes few pq-grams; re-parenting two leaves
        // changes their stems *and* both parents' bases — many more grams.
        // This locality is why [21] uses pq-grams to approximate the
        // fanout-weighted edit distance.
        let (base, leaf_rename) = parse2("{r{a{x}{y}}{b}}", "{r{a{x}{z}}{b}}");
        let (_, reparent) = parse2("{r{a{x}{y}}{b}}", "{r{a}{b{x}{y}}}");
        let d_small = pq_gram_distance(&base, &leaf_rename, 2, 3);
        let d_large = pq_gram_distance(&base, &reparent, 2, 3);
        assert!(d_small < d_large, "{d_small} vs {d_large}");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn pq_gram_rejects_zero_params() {
        let mut d = LabelDict::new();
        let t = bracket::parse("{a}", &mut d).unwrap();
        let _ = pq_gram_profile(&t, 0, 3);
    }
}
