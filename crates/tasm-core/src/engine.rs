//! The streaming scan engine: one prefix-ring-buffer pass over a
//! postorder queue, feeding candidate subtrees to a pluggable sink.
//!
//! TASM-postorder's structure (Algorithm 3) splits naturally into two
//! layers: a **scan** that consumes the document stream once and emits
//! the candidate set `cand(T, τ)` with `O(τ)` memory (Sec. V), and an
//! **evaluation** of each candidate against one or more queries.
//! [`ScanEngine`] owns the scan layer — the ring buffer and the scratch
//! tree candidates are renumbered into — and drives any
//! [`CandidateSink`]:
//!
//! * the single-query sink behind [`tasm_postorder`](crate::tasm_postorder);
//! * the multi-query sink behind [`tasm_batch`](crate::tasm_batch),
//!   which amortizes ring-buffer maintenance and candidate
//!   materialization across N queries in one pass — or, with more than
//!   one thread, copies the candidates into segments for the shard
//!   workers.
//!
//! The engine preserves the zero-allocation steady state of PR 2: the
//! scratch tree grows but never shrinks, so once its capacity covers τ
//! the scan emits candidates without heap allocation.

use crate::deadline::{Deadline, DeadlineExceeded};
use crate::ring_buffer::PrefixRingBuffer;
use tasm_tree::{LabelId, NodeId, PostorderQueue, Tree};

/// A consumer of candidate subtrees emitted by a [`ScanEngine`] pass.
///
/// `consume` is called once per candidate, in ascending order of the
/// candidate root's postorder number in the scanned stream. `cand` is
/// renumbered to local postorder `1..=cand.len()`; `root` is the
/// candidate root's postorder number **in the stream** (so local node
/// `j` corresponds to stream node `root.post() - cand.len() as u32 +
/// j.post()`, as in [`Candidate::doc_post`](crate::Candidate::doc_post)).
/// `stats` is the pass's [`ScanStats`]: evaluation-layer sinks record
/// their per-tier pruning-funnel counters into it.
///
/// The candidate borrow ends when `consume` returns: sinks that need a
/// candidate beyond the call must copy it.
pub trait CandidateSink {
    /// Evaluates (or otherwise processes) one candidate subtree.
    fn consume(&mut self, cand: &Tree, root: NodeId, stats: &mut ScanStats);
}

/// Statistics of one [`ScanEngine::scan`] pass: the scan-layer counters
/// plus the evaluation-layer **pruning funnel** — how many subtree
/// evaluations each tier of the
/// [`LowerBoundCascade`](tasm_ted::LowerBoundCascade) killed before the
/// `O(m²·n²)` DP ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Candidate subtrees emitted to the sink.
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

/// The streaming scan layer of TASM: owns the prefix ring buffer of one
/// pass and the scratch tree candidates are renumbered into, and drives
/// a pluggable [`CandidateSink`] over the candidate set `cand(T, τ)`.
///
/// Create once (or embed in a workspace) and reuse across streams: the
/// scratch tree grows but never shrinks, so repeated scans are
/// allocation-free in steady state apart from the `O(τ)` ring itself.
///
/// # Examples
///
/// ```
/// use tasm_core::{CandidateSink, ScanEngine};
/// use tasm_tree::{bracket, LabelDict, NodeId, Tree, TreeQueue};
///
/// struct CountNodes(u64);
/// impl CandidateSink for CountNodes {
///     fn consume(&mut self, cand: &Tree, _root: NodeId, _stats: &mut tasm_core::ScanStats) {
///         self.0 += cand.len() as u64;
///     }
/// }
///
/// let mut dict = LabelDict::new();
/// let doc = bracket::parse("{dblp{article{a}{t}}{article{a}{t}}}", &mut dict).unwrap();
/// let mut sink = CountNodes(0);
/// let mut engine = ScanEngine::new(3);
/// let stats = engine.scan(&mut TreeQueue::new(&doc), &mut sink);
/// assert_eq!(stats.candidates, 2); // the two article subtrees
/// assert_eq!(sink.0, 6);
/// ```
#[derive(Debug)]
pub struct ScanEngine {
    tau: u32,
    /// Scratch tree the ring buffer renumbers each candidate into
    /// (grow-don't-shrink).
    cand: Tree,
}

impl ScanEngine {
    /// Creates an engine emitting the candidate set for threshold
    /// `tau >= 1` (clamped).
    pub fn new(tau: u32) -> Self {
        ScanEngine {
            tau: tau.max(1),
            cand: Tree::leaf(LabelId(0)),
        }
    }

    /// The scan threshold τ.
    pub fn tau(&self) -> u32 {
        self.tau
    }

    /// Re-targets the engine to a new threshold, keeping the (grown)
    /// scratch capacity.
    pub fn set_tau(&mut self, tau: u32) {
        self.tau = tau.max(1);
    }

    /// Pre-reserves the candidate scratch for the current τ so that not
    /// even the first candidate allocates. Capped by the caller (see
    /// [`RESERVE_CAP_BYTES`](crate::RESERVE_CAP_BYTES)).
    pub fn reserve(&mut self) {
        self.cand.reserve(self.tau as usize);
    }

    /// Runs one full pass: consumes `queue` through a fresh prefix ring
    /// buffer and feeds every candidate of `cand(T, τ)` to `sink`, in
    /// stream order. The queue may encode a single tree or a forest of
    /// complete subtrees (every prefix a valid forest).
    pub fn scan<Q: PostorderQueue + ?Sized>(
        &mut self,
        queue: &mut Q,
        sink: &mut dyn CandidateSink,
    ) -> ScanStats {
        match self.scan_with_deadline(queue, sink, &Deadline::new(None)) {
            Ok(stats) => stats,
            Err(DeadlineExceeded) => unreachable!("a scan without a deadline never expires"),
        }
    }

    /// As [`scan`](Self::scan), but cooperatively cancellable: the
    /// `deadline` poller is checked once before the pass starts (forced)
    /// and once per candidate (strided — see [`Deadline::poll`]). When
    /// it expires the pass stops where it is and **no partial result**
    /// reaches the caller beyond what the sink already consumed; the
    /// sink's state must be discarded, since a ranking over a prefix of
    /// the candidate stream could silently miss better subtrees.
    ///
    /// This is the cancellation point of every stream run with a
    /// [`Run::deadline`](crate::Run::deadline).
    pub(crate) fn scan_with_deadline<Q: PostorderQueue + ?Sized>(
        &mut self,
        queue: &mut Q,
        sink: &mut dyn CandidateSink,
        deadline: &Deadline,
    ) -> Result<ScanStats, DeadlineExceeded> {
        if deadline.expired_now() {
            return Err(DeadlineExceeded);
        }
        let mut prb = PrefixRingBuffer::new(queue, self.tau);
        let mut stats = ScanStats::default();
        while let Some(root) = prb.next_candidate_into(&mut self.cand) {
            if deadline.poll() {
                return Err(DeadlineExceeded);
            }
            sink.consume(&self.cand, root, &mut stats);
            stats.candidates += 1;
        }
        stats.nodes_seen = prb.nodes_seen();
        stats.peak_buffered = prb.peak_buffered();
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring_buffer::prb_pruning;
    use tasm_tree::{bracket, LabelDict, TreeQueue};

    /// Collects owned copies of every candidate (test sink).
    struct Collect(Vec<(u32, Tree)>);

    impl CandidateSink for Collect {
        fn consume(&mut self, cand: &Tree, root: NodeId, _stats: &mut ScanStats) {
            self.0.push((root.post(), cand.clone()));
        }
    }

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
    fn engine_emits_exactly_the_candidate_set() {
        let mut dict = LabelDict::new();
        let doc = example_d(&mut dict);
        for tau in 1..=23u32 {
            let mut engine = ScanEngine::new(tau);
            let mut sink = Collect(Vec::new());
            let mut q = TreeQueue::new(&doc);
            let stats = engine.scan(&mut q, &mut sink);
            let mut q = TreeQueue::new(&doc);
            let want = prb_pruning(&mut q, tau);
            assert_eq!(stats.candidates, want.len(), "τ = {tau}");
            assert_eq!(stats.nodes_seen as usize, doc.len());
            assert!(stats.peak_buffered <= tau.max(1) as usize);
            for ((root, tree), w) in sink.0.iter().zip(&want) {
                assert_eq!(*root, w.root.post());
                assert_eq!(tree, &w.tree);
            }
        }
    }

    #[test]
    fn engine_is_reusable_across_streams_and_taus() {
        let mut dict = LabelDict::new();
        let doc = example_d(&mut dict);
        let mut engine = ScanEngine::new(6);
        engine.reserve();
        let mut first = Collect(Vec::new());
        engine.scan(&mut TreeQueue::new(&doc), &mut first);
        assert_eq!(first.0.len(), 5); // Example 3: cand(D, 6)

        engine.set_tau(22);
        assert_eq!(engine.tau(), 22);
        let mut second = Collect(Vec::new());
        engine.scan(&mut TreeQueue::new(&doc), &mut second);
        assert_eq!(second.0.len(), 1);
        assert_eq!(second.0[0].1, doc);
    }

    #[test]
    fn tau_is_clamped_to_one() {
        let engine = ScanEngine::new(0);
        assert_eq!(engine.tau(), 1);
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
