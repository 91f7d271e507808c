//! The candidate loop of a stream: one prefix-ring-buffer pass over a
//! postorder queue, handing each candidate of `cand(T, τ)` to the
//! caller once.
//!
//! TASM-postorder (Algorithm 3) is one postorder scan that emits the
//! candidate set with `O(τ)` memory (Sec. V) followed by an evaluation
//! of each candidate. Only streams run the scan — a resident tree reads
//! its candidates off its size column — and it has two callers: the
//! inline shared scan of [`tasm_batch`](crate::tasm_batch), which
//! evaluates each candidate through its lanes, and the streaming
//! sharder's producer, which copies each into a segment for its
//! workers. Both call [`scan_candidates`].
//!
//! The candidate scratch tree grows but never shrinks, so once its
//! capacity covers τ the scan emits candidates without heap allocation.

use std::ops::ControlFlow;

use crate::deadline::{Deadline, DeadlineExceeded};
use crate::ring_buffer::PrefixRingBuffer;
use crate::workspace::scratch_fits_cap;
use tasm_tree::{NodeId, PostorderQueue, Tree};

/// Statistics of one candidate pass: the scan-layer counters
/// plus the evaluation-layer **pruning funnel** — how many subtree
/// evaluations each tier of the
/// [`LowerBoundCascade`](tasm_ted::LowerBoundCascade) killed before the
/// `O(m²·n²)` DP ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Candidate subtrees the pass produced, each evaluated once.
    pub candidates: usize,
    /// Nodes consumed from the queue. A resident sweep
    /// ([`tasm_resident_batch`](crate::tasm_resident_batch)) counts the
    /// spine (the nodes over τ) plus the candidates' nodes; the indexed
    /// driver counts the spine, the candidate roots and the evaluated
    /// regions' nodes.
    pub nodes_seen: u32,
    /// Peak number of simultaneously buffered nodes (`<= τ`, Theorem 2).
    /// The resident drivers buffer nothing: for them it is the largest
    /// candidate evaluated.
    pub peak_buffered: usize,
    /// Subtree roots rejected by the τ' size bound during the
    /// Algorithm 3 descent (the descent then steps one node down, so
    /// smaller subtrees may still be evaluated).
    pub pruned_size: u64,
    /// Maximal in-bound subtrees skipped (with their whole subtree) by
    /// the label-histogram tier.
    pub pruned_histogram: u64,
    /// Maximal in-bound subtrees skipped by the substring-SED tier.
    pub pruned_sed: u64,
    /// Subtrees that survived every tier and were evaluated by the exact
    /// DP (one DP ranks the subtree *and* all its descendants).
    pub evaluated: u64,
    /// Of the evaluated subtrees, how many ran under the classic
    /// Zhang–Shasha left-path kernel. The split is per *query* (the
    /// kernel is resolved once at context construction), so one of the
    /// two per-kernel counters is zero for a single-query scan.
    pub evaluated_zs: u64,
    /// Of the evaluated subtrees, how many ran under the right-path
    /// (mirrored) strategy kernel.
    pub evaluated_strategy: u64,
}

impl ScanStats {
    /// Sums another pass's counters into this one (used by the batch
    /// lanes sharing a scan and by the sharded drivers merging per-shard
    /// stats; `peak_buffered` takes the maximum).
    pub fn merge(&mut self, other: &ScanStats) {
        self.candidates += other.candidates;
        self.nodes_seen += other.nodes_seen;
        self.peak_buffered = self.peak_buffered.max(other.peak_buffered);
        self.pruned_size += other.pruned_size;
        self.pruned_histogram += other.pruned_histogram;
        self.pruned_sed += other.pruned_sed;
        self.evaluated += other.evaluated;
        self.evaluated_zs += other.evaluated_zs;
        self.evaluated_strategy += other.evaluated_strategy;
    }

    /// Sums only the pruning-funnel counters of `other` into this one,
    /// leaving the scan-layer counters (`candidates`, `nodes_seen`,
    /// `peak_buffered`) untouched. Used to aggregate per-lane funnels
    /// over **one** shared scan without double-counting the pass.
    pub fn merge_funnel(&mut self, other: &ScanStats) {
        self.pruned_size += other.pruned_size;
        self.pruned_histogram += other.pruned_histogram;
        self.pruned_sed += other.pruned_sed;
        self.evaluated += other.evaluated;
        self.evaluated_zs += other.evaluated_zs;
        self.evaluated_strategy += other.evaluated_strategy;
    }

    /// Copies the scan-layer counters of a shared pass into this
    /// (per-lane) record, leaving the funnel counters untouched — every
    /// lane of a shared scan saw the same candidates.
    pub fn adopt_scan_layer(&mut self, shared: &ScanStats) {
        self.candidates = shared.candidates;
        self.nodes_seen = shared.nodes_seen;
        self.peak_buffered = shared.peak_buffered;
    }

    /// Evaluation decisions the cascade faced: pruned (any tier beyond
    /// the size bound) plus actually evaluated.
    pub fn eval_decisions(&self) -> u64 {
        self.pruned_histogram + self.pruned_sed + self.evaluated
    }

    /// Fraction of in-bound subtree evaluations the cascade pruned
    /// (0.0 when nothing was decided).
    pub fn prune_rate(&self) -> f64 {
        let total = self.eval_decisions();
        if total == 0 {
            0.0
        } else {
            (self.pruned_histogram + self.pruned_sed) as f64 / total as f64
        }
    }
}

/// Runs one prefix-ring-buffer pass over `queue` at threshold `tau`
/// and calls `each` with every candidate of `cand(T, τ)`, in stream
/// order, renumbered into `cand` (local postorder `1..=cand.len()`)
/// together with its root's postorder number **in the stream**. The
/// queue may encode a single tree or a forest of complete subtrees.
///
/// `cand` is reserved for τ nodes up front (capped by
/// [`RESERVE_CAP_BYTES`](crate::RESERVE_CAP_BYTES)). `deadline` is
/// checked before the pass (forced) and polled once per candidate;
/// when it expires the pass stops and no partial result may reach the
/// caller, since a ranking over a prefix of the candidate stream could
/// miss better subtrees. `each` stops the pass early by returning
/// [`ControlFlow::Break`]. Returns the pass's scan-layer counters: the
/// candidates handed out, the nodes consumed and the ring's peak.
pub(crate) fn scan_candidates<Q: PostorderQueue + ?Sized>(
    queue: &mut Q,
    tau: u32,
    cand: &mut Tree,
    deadline: &Deadline,
    mut each: impl FnMut(&Tree, NodeId) -> ControlFlow<()>,
) -> Result<ScanStats, DeadlineExceeded> {
    if deadline.expired_now() {
        return Err(DeadlineExceeded);
    }
    if scratch_fits_cap(tau as usize) {
        cand.reserve(tau as usize);
    }
    let mut prb = PrefixRingBuffer::new(queue, tau);
    let mut stats = ScanStats::default();
    while let Some(root) = prb.next_candidate_into(cand) {
        if deadline.poll() {
            return Err(DeadlineExceeded);
        }
        stats.candidates += 1;
        if each(cand, root).is_break() {
            break;
        }
    }
    stats.nodes_seen = prb.nodes_seen();
    stats.peak_buffered = prb.peak_buffered();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring_buffer::prb_pruning;
    use tasm_tree::{bracket, LabelDict, LabelId, TreeQueue};

    fn example_d(dict: &mut LabelDict) -> Tree {
        bracket::parse(
            "{dblp{article{auth{John}}{title{X1}}}{proceedings{conf{VLDB}}\
             {article{auth{Peter}}{title{X3}}}{article{auth{Mike}}{title{X4}}}}\
             {book{title{X2}}}}",
            dict,
        )
        .unwrap()
    }

    #[test]
    fn scan_emits_exactly_the_candidate_set() {
        let mut dict = LabelDict::new();
        let doc = example_d(&mut dict);
        // One scratch tree across every τ: it is reused, never reset.
        let mut cand = Tree::leaf(LabelId(0));
        for tau in 1..=23u32 {
            let mut got = Vec::new();
            let stats = scan_candidates(
                &mut TreeQueue::new(&doc),
                tau,
                &mut cand,
                &Deadline::new(None),
                |cand, root| {
                    got.push((root.post(), cand.clone()));
                    ControlFlow::Continue(())
                },
            )
            .unwrap();
            let want = prb_pruning(&mut TreeQueue::new(&doc), tau);
            assert_eq!(stats.candidates, want.len(), "τ = {tau}");
            assert_eq!(got.len(), want.len(), "τ = {tau}");
            assert_eq!(stats.nodes_seen as usize, doc.len());
            assert!(stats.peak_buffered <= tau as usize);
            for ((root, tree), w) in got.iter().zip(&want) {
                assert_eq!(*root, w.root.post());
                assert_eq!(tree, &w.tree);
            }
        }
    }

    #[test]
    fn a_break_ends_the_pass() {
        let mut dict = LabelDict::new();
        let doc = example_d(&mut dict);
        let mut seen = 0;
        let stats = scan_candidates(
            &mut TreeQueue::new(&doc),
            6,
            &mut Tree::leaf(LabelId(0)),
            &Deadline::new(None),
            |_, _| {
                seen += 1;
                if seen == 2 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        )
        .unwrap();
        assert_eq!((seen, stats.candidates), (2, 2)); // of cand(D, 6)'s 5
        assert!((stats.nodes_seen as usize) < doc.len());
    }

    #[test]
    fn scan_stats_merge_and_prune_rate() {
        let a = ScanStats {
            candidates: 3,
            nodes_seen: 10,
            peak_buffered: 4,
            pruned_size: 1,
            pruned_histogram: 6,
            pruned_sed: 2,
            evaluated: 2,
            evaluated_zs: 2,
            evaluated_strategy: 0,
        };
        let mut b = ScanStats {
            candidates: 2,
            nodes_seen: 5,
            peak_buffered: 6,
            ..Default::default()
        };
        b.merge(&a);
        assert_eq!(b.candidates, 5);
        assert_eq!(b.nodes_seen, 15);
        assert_eq!(b.peak_buffered, 6); // max, not sum
        assert_eq!(b.eval_decisions(), 10);
        assert!((b.prune_rate() - 0.8).abs() < 1e-9);
        assert_eq!(ScanStats::default().prune_rate(), 0.0);
    }
}
