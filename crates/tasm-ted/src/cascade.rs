//! The admissible lower-bound pruning cascade of the TASM evaluation
//! layer.
//!
//! TASM-postorder's cost is dominated by the Zhang–Shasha dynamic
//! program it runs per evaluated candidate subtree. Once the top-k heap
//! is full, its worst ranked distance `max(R)` is a *cutoff*: a subtree
//! whose distance provably exceeds it can never enter the ranking, so
//! the DP on it is wasted work. The [`LowerBoundCascade`] answers
//! "can any subtree of this candidate still make the ranking?" with two
//! cheap **admissible** lower bounds, ordered by cost:
//!
//! 1. **Label-histogram deficit** — `O(|T| log d)` with `d` = distinct
//!    query labels. In any edit mapping from the query `Q` to a subtree
//!    `T'` of the candidate `T`, a query node that is not mapped to an
//!    equal-labeled node costs at least 1 natural unit (deletion costs
//!    `cst(q) >= 1`; a rename costs `(cst(q) + cst(t))/2 >= 1` since
//!    node costs are clamped to `>= 1`, Def. 4). The number of
//!    zero-cost (equal-label) pairs is at most the label-multiset
//!    intersection `|hist(Q) ∩ hist(T')| <= |hist(Q) ∩ hist(T)|`, so
//!
//!    `δ(Q, T') >= |Q| − |hist(Q) ∩ hist(T)|`   for **every** `T' ⊆ T`.
//!
//! 2. **Substring string edit distance** (Sellers' algorithm) —
//!    `O(|Q|·|T|)` with cutoff banding and row-minimum early exit. The
//!    string edit distance between postorder label sequences never
//!    exceeds the tree edit distance under the same cost semantics
//!    (property-tested in `tests/properties.rs`), and every subtree of
//!    `T` is a *contiguous substring* of `T`'s postorder sequence. The
//!    DP with a free-start row (`D[0][j] = 0`) and a min over the last
//!    row computes `min_substring SED(Q, ·)`, which therefore
//!    lower-bounds `min_{T' ⊆ T} δ(Q, T')`. Document-side costs are
//!    under-approximated by 1 (edit distances are monotone in the
//!    operation costs), keeping the bound admissible for every cost
//!    model; under [`UnitCost`](crate::UnitCost) it is exact SED.
//!
//! Both bounds hold for **all** subtrees of the inspected tree at once,
//! which is exactly what Algorithm 3 needs: one DP call ranks every
//! subtree of the evaluated candidate, so a sound prune must cover them
//! all. Pruning fires only on `bound > cutoff` *strictly* — a tie on
//! distance can still win on the postorder tiebreak — so a cascade-on
//! run returns **identical** rankings (down to subtree ids) as a
//! cascade-off run.
//!
//! The pq-gram distance of [`filters`](crate::filters) is deliberately
//! **not** a tier: it is a pseudo-distance without a proven
//! lower-bound relation to the unit edit distance, so admitting it
//! would break the exactness guarantee.
//!
//! # Zero-allocation contract
//!
//! [`LowerBoundCascade`] is built once per query (outside the candidate
//! loop); [`CascadeScratch`] owns the per-check buffers, grows but
//! never shrinks, and is sized up front by
//! [`CascadeScratch::reserve`] — the candidate loop performs no heap
//! allocation (regression-tested with the counting allocator in
//! `tasm-bench`).

use crate::cost::Cost;
use crate::workspace::QueryContext;
use tasm_tree::{LabelId, TreeView};

/// The verdict of a cascade check for one candidate (sub)tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CascadeDecision {
    /// No tier could refute the tree: run the exact DP.
    Evaluate,
    /// The label-histogram deficit exceeds the cutoff for every subtree.
    PrunedByHistogram,
    /// The substring edit distance exceeds the cutoff for every subtree.
    PrunedBySed,
}

/// Reusable buffers of the cascade checks (query-independent).
///
/// Lives in the evaluation workspaces (`TasmWorkspace` and the lane
/// sets of `tasm-core`); all buffers grow but never shrink.
#[derive(Debug, Default)]
pub struct CascadeScratch {
    /// Per-distinct-query-label match counters (reset to zero after each
    /// histogram pass).
    q_counts: Vec<u32>,
    /// Sellers DP rows (previous / current), length `n + 1`.
    sed_prev: Vec<Cost>,
    sed_cur: Vec<Cost>,
}

impl CascadeScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        CascadeScratch::default()
    }

    /// Pre-reserves for an `m`-node query against trees of up to `n`
    /// nodes (the Theorem 3 bound τ), so that not even the first check
    /// allocates.
    pub fn reserve(&mut self, m: usize, n: usize) {
        let grow = |v: &mut Vec<u32>, n: usize| v.reserve(n.saturating_sub(v.len()));
        grow(&mut self.q_counts, m);
        let grow = |v: &mut Vec<Cost>, n: usize| v.reserve(n.saturating_sub(v.len()));
        grow(&mut self.sed_prev, n + 1);
        grow(&mut self.sed_cur, n + 1);
    }
}

/// The two-tier admissible lower-bound cascade for one query.
///
/// Build once per query with [`LowerBoundCascade::from_context`] and ask
/// [`LowerBoundCascade::decide`] per candidate (sub)tree with the
/// current heap cutoff `max(R)`.
///
/// # Examples
///
/// ```
/// use tasm_ted::{CascadeDecision, CascadeScratch, Cost, LowerBoundCascade,
///                QueryContext, UnitCost};
/// use tasm_tree::{bracket, LabelDict};
///
/// let mut dict = LabelDict::new();
/// let q = bracket::parse("{a{b}{c}}", &mut dict).unwrap();
/// let t = bracket::parse("{x{y}{z}}", &mut dict).unwrap(); // no shared labels
/// let ctx = QueryContext::new(&q, &UnitCost);
/// let cascade = LowerBoundCascade::from_context(&ctx);
/// let mut scratch = CascadeScratch::new();
/// // Every subtree of t is at distance >= 3 - 0 = 3 > 2: prune.
/// assert_eq!(
///     cascade.decide(t.view(), Cost::from_natural(2), &mut scratch),
///     CascadeDecision::PrunedByHistogram
/// );
/// // Cutoff 3 could be tied; ties must be evaluated to keep rankings exact.
/// assert_eq!(
///     cascade.decide(t.view(), Cost::from_natural(3), &mut scratch),
///     CascadeDecision::Evaluate
/// );
/// ```
#[derive(Debug)]
pub struct LowerBoundCascade<'a> {
    /// Query postorder labels (borrowed from the query tree).
    labels: &'a [LabelId],
    /// Sorted distinct `(label, multiplicity)` histogram of the query.
    hist: Vec<(LabelId, u32)>,
    /// Natural-unit node costs per query node (postorder, clamped >= 1).
    del: Vec<u64>,
    /// `Σ del` — the maximum value the SED tier can reach.
    total_cost: u64,
}

impl<'a> LowerBoundCascade<'a> {
    /// Builds the cascade from a query context (one `O(m log m)` pass;
    /// do this outside the candidate loop).
    pub fn from_context(ctx: &QueryContext<'a>) -> Self {
        let labels = ctx.query().labels();
        let mut sorted: Vec<LabelId> = labels.to_vec();
        sorted.sort_unstable();
        let mut hist: Vec<(LabelId, u32)> = Vec::new();
        for &l in &sorted {
            match hist.last_mut() {
                Some((last, count)) if *last == l => *count += 1,
                _ => hist.push((l, 1)),
            }
        }
        let del: Vec<u64> = (1..=labels.len() as u32)
            .map(|i| ctx.costs().natural(i))
            .collect();
        let total_cost = del.iter().sum();
        LowerBoundCascade {
            labels,
            hist,
            del,
            total_cost,
        }
    }

    /// Number of query nodes `|Q|`.
    pub fn query_len(&self) -> usize {
        self.labels.len()
    }

    /// Runs the cascade against `tree` under the current heap cutoff
    /// `max(R)`: a non-[`Evaluate`](CascadeDecision::Evaluate) verdict
    /// certifies that **every** subtree of `tree` has tree edit distance
    /// strictly greater than `cutoff` and can be skipped without
    /// changing the ranking.
    ///
    /// Each tier runs only if its maximum achievable bound exceeds the
    /// cutoff (the histogram deficit is at most `|Q|`, the SED at most
    /// the total query cost), so in a no-prune regime — an unfilled or
    /// loose heap — the check is `O(1)`.
    pub fn decide(
        &self,
        tree: TreeView<'_>,
        cutoff: Cost,
        scratch: &mut CascadeScratch,
    ) -> CascadeDecision {
        let m = self.labels.len() as u64;
        if Cost::from_natural(m) > cutoff && self.histogram_refutes(tree, cutoff, scratch) {
            return CascadeDecision::PrunedByHistogram;
        }
        if Cost::from_natural(self.total_cost) > cutoff && self.sed_refutes(tree, cutoff, scratch) {
            return CascadeDecision::PrunedBySed;
        }
        CascadeDecision::Evaluate
    }

    /// The exact histogram-deficit bound `|Q| − |hist(Q) ∩ hist(tree)|`
    /// (natural units): a lower bound on `δ(Q, T')` for every subtree
    /// `T'` of `tree`. Exposed for the admissibility tests.
    pub fn histogram_bound(&self, tree: TreeView<'_>, scratch: &mut CascadeScratch) -> Cost {
        let matched = self.count_matched(tree, u64::MAX, scratch);
        Cost::from_natural(self.labels.len() as u64 - matched)
    }

    /// Whether the histogram tier refutes `tree` under `cutoff`:
    /// `|Q| − matched > cutoff`. Bails out (no prune) as soon as the
    /// matched count makes the bound unreachable.
    fn histogram_refutes(
        &self,
        tree: TreeView<'_>,
        cutoff: Cost,
        scratch: &mut CascadeScratch,
    ) -> bool {
        let m = self.labels.len() as u64;
        // Prune needs 2·(m − matched) > cutoff_halves, i.e.
        // matched <= m − (cutoff_halves/2 + 1).
        let Some(max_matched) = m.checked_sub(cutoff.halves() / 2 + 1) else {
            return false;
        };
        let matched = self.count_matched(tree, max_matched, scratch);
        matched <= max_matched && Cost::from_natural(m - matched) > cutoff
    }

    /// Counts the label-multiset intersection of the query histogram and
    /// `tree`'s labels, stopping early once it exceeds `limit` (the
    /// bound can then no longer prune). Resets the scratch counters
    /// before returning.
    fn count_matched(&self, tree: TreeView<'_>, limit: u64, scratch: &mut CascadeScratch) -> u64 {
        let d = self.hist.len();
        scratch.q_counts.resize(d, 0);
        let mut matched = 0u64;
        for &l in tree.labels() {
            if let Ok(slot) = self.hist.binary_search_by_key(&l, |e| e.0) {
                if scratch.q_counts[slot] < self.hist[slot].1 {
                    scratch.q_counts[slot] += 1;
                    matched += 1;
                    if matched > limit {
                        break;
                    }
                }
            }
        }
        scratch.q_counts[..d].fill(0);
        matched
    }

    /// The exact substring-minimum string edit distance between the
    /// query's postorder label sequence and any contiguous substring of
    /// `tree`'s (document-side costs under-approximated by 1): a lower
    /// bound on `δ(Q, T')` for every subtree `T'` of `tree`. Exposed for
    /// the admissibility tests; the cascade uses the banded
    /// early-exiting variant.
    pub fn sed_lower_bound(&self, tree: TreeView<'_>, scratch: &mut CascadeScratch) -> Cost {
        self.sellers(tree, None, scratch)
            .expect("without a cutoff the DP runs to completion")
    }

    /// Whether the SED tier refutes `tree` under `cutoff`: true iff the
    /// substring-minimum SED strictly exceeds `cutoff` (certifying every
    /// subtree does too).
    fn sed_refutes(&self, tree: TreeView<'_>, cutoff: Cost, scratch: &mut CascadeScratch) -> bool {
        self.sellers(tree, Some(cutoff), scratch).is_none()
    }

    /// Sellers' approximate-matching DP over the postorder label
    /// sequences: `D[0][j] = 0` (a match may start after any document
    /// position), the answer is `min_j D[m][j]` (document-side suffixes
    /// are free).
    ///
    /// With a cutoff, cell values are **banded**: anything above the
    /// cutoff is clamped to `cutoff + ½` — cells at or below the cutoff
    /// are still exact (their whole DP path is), so the `> cutoff`
    /// verdict is unaffected — and the scan early-exits with `None`
    /// ("refuted") as soon as a full row minimum exceeds the cutoff
    /// (row minima are non-decreasing: every cell of row `i` derives
    /// from row `i − 1` by non-negative additions). Returns
    /// `Some(min)` when the minimum is at or below the cutoff (or no
    /// cutoff was given).
    fn sellers(
        &self,
        tree: TreeView<'_>,
        cutoff: Option<Cost>,
        scratch: &mut CascadeScratch,
    ) -> Option<Cost> {
        let doc_labels = tree.labels();
        let n = doc_labels.len();
        let cap = cutoff.map(|c| Cost::from_halves(c.halves().saturating_add(1)));
        let clamp = |v: Cost| cap.map_or(v, |cap| v.min(cap));
        let ins = Cost::from_natural(1); // document-side cost under-approximation

        scratch.sed_prev.clear();
        scratch.sed_prev.resize(n + 1, Cost::ZERO);
        scratch.sed_cur.clear();
        scratch.sed_cur.resize(n + 1, Cost::ZERO);

        let mut row_min = Cost::ZERO;
        for (i, &ql) in self.labels.iter().enumerate() {
            let del = Cost::from_natural(self.del[i]);
            // Renames cost (cst(q) + cst(t))/2 >= (cst(q) + 1)/2.
            let sub_miss = Cost::from_halves(self.del[i] + 1);
            let prev = &scratch.sed_prev;
            let cur = &mut scratch.sed_cur;
            cur[0] = clamp(prev[0] + del);
            row_min = cur[0];
            for j in 1..=n {
                // Branchless mismatch test: labels are dense u32 ids, so
                // the comparison result scales the miss cost directly.
                let sub = prev[j - 1]
                    + Cost::from_halves(sub_miss.halves() * u64::from(doc_labels[j - 1] != ql));
                let v = clamp(sub.min(prev[j] + del).min(cur[j - 1] + ins));
                cur[j] = v;
                row_min = row_min.min(v);
            }
            if let Some(c) = cutoff {
                if row_min > c {
                    return None;
                }
            }
            std::mem::swap(&mut scratch.sed_prev, &mut scratch.sed_cur);
        }
        Some(row_min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{FanoutWeighted, UnitCost};
    use crate::zhang_shasha::ted;
    use tasm_tree::{bracket, LabelDict, Tree};

    fn parse2(a: &str, b: &str) -> (Tree, Tree) {
        let mut d = LabelDict::new();
        (
            bracket::parse(a, &mut d).unwrap(),
            bracket::parse(b, &mut d).unwrap(),
        )
    }

    /// Exact `min_{T' ⊆ t} δ(q, T')` by brute force.
    fn min_subtree_ted(q: &Tree, t: &Tree) -> Cost {
        t.nodes()
            .map(|id| ted(q, &t.subtree(id), &UnitCost))
            .min()
            .expect("non-empty")
    }

    #[test]
    fn histogram_bound_is_min_subtree_admissible() {
        let cases = [
            ("{a{b}{c}}", "{x{a{b}{d}}{a{b}{c}}}"),
            ("{a{b}{c}}", "{x{y}{z}}"),
            ("{a{a}{a}}", "{b{b{a}}{b}}"),
            ("{q{w{e}}{r}}", "{q{w{e}}{r}}"),
        ];
        let mut scratch = CascadeScratch::new();
        for (qs, ts) in cases {
            let (q, t) = parse2(qs, ts);
            let ctx = QueryContext::new(&q, &UnitCost);
            let cascade = LowerBoundCascade::from_context(&ctx);
            let bound = cascade.histogram_bound(t.view(), &mut scratch);
            let exact = min_subtree_ted(&q, &t);
            assert!(bound <= exact, "{qs} vs {ts}: {bound} > {exact}");
        }
    }

    #[test]
    fn sed_bound_is_min_subtree_admissible() {
        let cases = [
            ("{a{b}{c}}", "{x{a{b}{d}}{a{b}{c}}}"),
            ("{a{b}{c}}", "{x{y}{z}}"),
            ("{a{b{c{d}}}}", "{a{b}{c}{d}}"),
            ("{a{a}{a}}", "{b{b{a}}{b}}"),
        ];
        let mut scratch = CascadeScratch::new();
        for (qs, ts) in cases {
            let (q, t) = parse2(qs, ts);
            let ctx = QueryContext::new(&q, &UnitCost);
            let cascade = LowerBoundCascade::from_context(&ctx);
            let bound = cascade.sed_lower_bound(t.view(), &mut scratch);
            let exact = min_subtree_ted(&q, &t);
            assert!(bound <= exact, "{qs} vs {ts}: {bound} > {exact}");
        }
    }

    #[test]
    fn decide_refutes_only_above_cutoff() {
        // Disjoint labels: every subtree is at distance >= |Q| = 3.
        let (q, t) = parse2("{a{b}{c}}", "{x{y{z}}{w}}");
        let ctx = QueryContext::new(&q, &UnitCost);
        let cascade = LowerBoundCascade::from_context(&ctx);
        let mut scratch = CascadeScratch::new();
        let exact = min_subtree_ted(&q, &t);
        assert_eq!(exact, Cost::from_natural(3));
        for cutoff_halves in 0..10 {
            let cutoff = Cost::from_halves(cutoff_halves);
            let decision = cascade.decide(t.view(), cutoff, &mut scratch);
            if decision != CascadeDecision::Evaluate {
                // A prune verdict must be sound: exact distance > cutoff.
                assert!(exact > cutoff, "refuted at cutoff {cutoff}");
            }
            if cutoff < exact && cutoff < Cost::from_natural(3) {
                assert_ne!(decision, CascadeDecision::Evaluate, "cutoff {cutoff}");
            }
        }
    }

    #[test]
    fn exact_match_is_never_pruned() {
        let (q, t) = parse2("{a{b}{c}}", "{x{a{b}{d}}{a{b}{c}}}");
        let ctx = QueryContext::new(&q, &UnitCost);
        let cascade = LowerBoundCascade::from_context(&ctx);
        let mut scratch = CascadeScratch::new();
        // t contains q exactly: min distance is 0, nothing may prune at
        // any cutoff.
        for cutoff in 0..8 {
            assert_eq!(
                cascade.decide(t.view(), Cost::from_halves(cutoff), &mut scratch),
                CascadeDecision::Evaluate
            );
        }
    }

    #[test]
    fn sed_tier_sees_structure_the_histogram_misses() {
        // Same label multiset, different sequence order: the histogram
        // deficit is 0, but the postorder sequences differ, so only the
        // SED tier can refute.
        let (q, t) = parse2("{a{b}{c}}", "{c{b{a}}}");
        let ctx = QueryContext::new(&q, &UnitCost);
        let cascade = LowerBoundCascade::from_context(&ctx);
        let mut scratch = CascadeScratch::new();
        assert_eq!(cascade.histogram_bound(t.view(), &mut scratch), Cost::ZERO);
        let sed = cascade.sed_lower_bound(t.view(), &mut scratch);
        assert!(sed > Cost::ZERO);
        assert_eq!(
            cascade.decide(t.view(), Cost::ZERO, &mut scratch),
            CascadeDecision::PrunedBySed
        );
    }

    #[test]
    fn weighted_costs_stay_admissible() {
        let (q, t) = parse2("{a{b}{c}{d}}", "{x{a{b}}{y{c}}}");
        let model = FanoutWeighted { base: 1, weight: 2 };
        let ctx = QueryContext::new(&q, &model);
        let cascade = LowerBoundCascade::from_context(&ctx);
        let mut scratch = CascadeScratch::new();
        let exact = t
            .nodes()
            .map(|id| ted(&q, &t.subtree(id), &model))
            .min()
            .unwrap();
        assert!(cascade.histogram_bound(t.view(), &mut scratch) <= exact);
        assert!(cascade.sed_lower_bound(t.view(), &mut scratch) <= exact);
    }

    #[test]
    fn scratch_is_reusable_across_sizes() {
        let (q, t1) = parse2("{a{b}}", "{a{b{c}{d}{e}{f}}}");
        let (_, t2) = parse2("{a{b}}", "{z}");
        let ctx = QueryContext::new(&q, &UnitCost);
        let cascade = LowerBoundCascade::from_context(&ctx);
        let mut scratch = CascadeScratch::new();
        scratch.reserve(q.len(), 16);
        let big_first = cascade.histogram_bound(t1.view(), &mut scratch);
        let small_after = cascade.histogram_bound(t2.view(), &mut scratch);
        assert_eq!(big_first, Cost::ZERO); // both labels found
        assert_eq!(small_after, Cost::from_natural(2)); // neither found
                                                        // Best alignment against "z": one rename plus one deletion = 2.
        assert_eq!(
            cascade.sed_lower_bound(t2.view(), &mut scratch),
            Cost::from_natural(2)
        );
    }
}
