//! The prefix ring buffer (Sec. V of the paper): candidate-set computation
//! in a single postorder scan with `O(τ)` memory.
//!
//! Given a size threshold τ, the **candidate set** `cand(T, τ)` (Def. 9)
//! contains every subtree of size `<= τ` whose proper ancestors all root
//! subtrees larger than τ. The prefix ring buffer emits exactly this set
//! while consuming the document as a postorder queue, using `b = τ + 1`
//! slots (Theorem 2): no candidate needs a look-ahead of more than
//! `τ - |T_i|` nodes (Lemma 1).
//!
//! # Data layout
//!
//! Two synchronized rings of `b = τ + 1` slots, as in the paper's
//! Algorithm 1/Fig. 8: `lbl` holds node labels and `pfx` the *prefix array*
//! (Def. 10). The node with postorder number `id` lives in slot
//! `(id − 1) % b`, and its `pfx` entry is
//!
//! * for a non-leaf: the postorder number of its leftmost leaf
//!   (`lml = id − size + 1`), i.e. a pointer **left**;
//! * for a leaf: the postorder number of the root of the largest *valid*
//!   subtree (size `<= τ`) whose leftmost leaf it is, i.e. a pointer
//!   **right** (at least its own id).
//!
//! A slot holds a leaf iff `pfx[slot] >= id`. The subtree size of a
//! non-leaf is recovered as `id − pfx[slot] + 1`, so no separate size ring
//! is needed.
//!
//! Note: the paper's Algorithm 2 pseudocode stores `c − size` while its
//! Figure 8 stores `c − size + 1` (the true `lml`); we follow Figure 8 and
//! keep one consistent slot convention.

use tasm_ted::TedStats;
use tasm_tree::{LabelId, NodeId, PostorderQueue, Tree};

/// A candidate subtree emitted by the pruning scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// The subtree, renumbered to local postorder `1..=tree.len()`.
    pub tree: Tree,
    /// Postorder number of the subtree's root **in the document**. The
    /// local node `j` corresponds to document node
    /// `root.post() − tree.len() as u32 + j.post()`.
    pub root: NodeId,
}

impl Candidate {
    /// Maps a local postorder number to the document postorder number.
    #[inline]
    pub fn doc_post(&self, local: NodeId) -> NodeId {
        NodeId::new(self.root.post() - self.tree.len() as u32 + local.post())
    }
}

/// Streaming candidate-set computation over a postorder queue
/// (Algorithms 1–2, `prb-pruning` / `prb-next`).
///
/// Iterate with [`PrefixRingBuffer::next_candidate_into`]; candidates
/// are yielded in ascending order of their root's postorder number,
/// which for disjoint subtrees is also ascending document order.
#[derive(Debug)]
pub struct PrefixRingBuffer<'q, Q: PostorderQueue + ?Sized> {
    queue: &'q mut Q,
    /// Current ring capacity: starts at `min(τ + 1, RING_RESERVE_CAP)`
    /// and doubles on demand up to `τ + 1`.
    b: usize,
    tau: u32,
    lbl: Vec<LabelId>,
    pfx: Vec<u32>,
    /// Slot of the leftmost buffered node.
    s: usize,
    /// Slot one past the rightmost buffered node.
    e: usize,
    /// Number of nodes appended so far (= postorder number of the newest).
    c: u32,
    /// Peak number of buffered nodes (instrumentation; Theorem 2 says <= τ).
    peak: usize,
}

impl<'q, Q: PostorderQueue + ?Sized> PrefixRingBuffer<'q, Q> {
    /// Creates the buffer for threshold `tau` over `queue`.
    ///
    /// # Panics (debug)
    ///
    /// `tau` must be `>= 1`: `cand(T, 0)` is empty by Def. 9, so a zero
    /// threshold is always a caller bug (typically an unvalidated user
    /// argument — reject it at the boundary, as [`ScanEngine`] and the
    /// CLI do). The old behavior of silently clamping `0` to `1` turned
    /// that bug into a plausible-looking leaf ranking.
    ///
    /// [`ScanEngine`]: crate::ScanEngine
    pub fn new(queue: &'q mut Q, tau: u32) -> Self {
        debug_assert!(tau >= 1, "PrefixRingBuffer requires tau >= 1, got {tau}");
        let tau = tau.max(1);
        let b = (tau as usize + 1).min(RING_RESERVE_CAP);
        PrefixRingBuffer {
            queue,
            b,
            tau,
            lbl: vec![LabelId(0); b],
            pfx: vec![0; b],
            s: 0,
            e: 0,
            c: 0,
            peak: 0,
        }
    }

    /// The threshold τ.
    pub fn tau(&self) -> u32 {
        self.tau
    }

    /// Peak number of simultaneously buffered nodes so far.
    pub fn peak_buffered(&self) -> usize {
        self.peak
    }

    /// Number of nodes consumed from the queue so far.
    pub fn nodes_seen(&self) -> u32 {
        self.c
    }

    #[inline]
    fn slot(&self, id: u32) -> usize {
        ((id - 1) as usize) % self.b
    }

    #[inline]
    fn buffered(&self) -> usize {
        (self.e + self.b - self.s) % self.b
    }

    #[inline]
    fn is_full(&self) -> bool {
        self.s == (self.e + 1) % self.b
    }

    /// Postorder number of the node in the leftmost slot.
    #[inline]
    fn leftmost_id(&self) -> u32 {
        self.c + 1 - self.buffered() as u32
    }

    /// Advances the scan to the next candidate subtree (the paper's
    /// `prb-next`), renumbering it into the caller-owned `scratch` tree
    /// and returning the candidate root's postorder number **in the
    /// document** (`None` when queue and buffer are exhausted).
    ///
    /// This is the one emit path: once `scratch`'s capacity covers the
    /// largest candidate (at most τ nodes), the scan emits candidates
    /// with zero heap allocation. The local-to-document numbering
    /// correspondence is as in [`Candidate::doc_post`].
    pub fn next_candidate_into(&mut self, scratch: &mut Tree) -> Option<NodeId> {
        let (lo, root) = self.advance()?;
        self.materialize_into(lo, root, scratch);
        self.consume(root);
        Some(NodeId::new(root))
    }

    /// Core of the scan: finds the next candidate span `lo..=root`
    /// (document postorder numbers) without removing it from the ring.
    fn advance(&mut self) -> Option<(u32, u32)> {
        loop {
            // Step 1: fill the ring from the queue.
            let mut queue_empty = false;
            while !self.is_full() || self.grow() {
                match self.queue.dequeue() {
                    Some(entry) => self.append(entry.label, entry.size),
                    None => {
                        queue_empty = true;
                        break;
                    }
                }
            }
            if self.s == self.e {
                // Buffer drained and (necessarily) queue empty.
                return None;
            }
            // Step 2: examine the leftmost node.
            if self.is_full() || queue_empty {
                let id = self.leftmost_id();
                if self.pfx[self.s] >= id {
                    // Leaf: it starts a candidate subtree; the prefix array
                    // points at the root of the largest valid subtree.
                    return Some((id, self.pfx[self.s]));
                }
                // Non-leaf at the leftmost position: by Lemma 2 it roots a
                // subtree larger than τ — skip it.
                self.s = (self.s + 1) % self.b;
            }
        }
    }

    /// Grows a full ring that is still below its `τ + 1` slots; returns
    /// whether it grew.
    #[inline]
    fn grow(&mut self) -> bool {
        if self.b > self.tau as usize {
            return false;
        }
        self.regrow();
        true
    }

    /// Doubles the ring (at most to `τ + 1` slots), re-laying the
    /// buffered nodes out for the new modulus. Node ids (and thus the
    /// prefix pointers) are layout-independent, so only the slots move.
    #[cold]
    fn regrow(&mut self) {
        let new_b = self.b.saturating_mul(2).min(self.tau as usize + 1);
        let (lo, n) = (self.leftmost_id(), self.buffered());
        let mut lbl = vec![LabelId(0); new_b];
        let mut pfx = vec![0; new_b];
        for id in lo..=self.c {
            let (old, new) = (self.slot(id), (id - 1) as usize % new_b);
            lbl[new] = self.lbl[old];
            pfx[new] = self.pfx[old];
        }
        self.lbl = lbl;
        self.pfx = pfx;
        self.b = new_b;
        self.s = (lo - 1) as usize % new_b;
        self.e = (self.s + n) % new_b;
    }

    /// Removes an emitted candidate from the ring: jump past its root.
    #[inline]
    fn consume(&mut self, root: u32) {
        self.s = self.slot(root + 1);
    }

    /// Appends one postorder entry (Step 1 of the pruning).
    fn append(&mut self, label: LabelId, size: u32) {
        self.c += 1;
        let id = self.c;
        debug_assert!(size >= 1 && size <= id, "postorder sizes are 1..=id");
        let lml = id - size + 1;
        self.lbl[self.e] = label;
        self.pfx[self.e] = lml;
        if size <= self.tau {
            // Register this node as the (currently largest) valid subtree
            // rooted above its leftmost leaf. For a leaf this writes its own
            // slot (lml = id).
            let lml_slot = self.slot(lml);
            self.pfx[lml_slot] = id;
        }
        self.e = (self.e + 1) % self.b;
        self.peak = self.peak.max(self.buffered());
    }

    /// Copies nodes `lo..=root` out of the ring into the caller's
    /// scratch tree (allocation-free once warm). Subtree sizes are
    /// recovered from the prefix array: a slot holds a leaf iff its
    /// pointer is `>= id` (size 1), otherwise the pointer is the node's
    /// leftmost leaf; local sizes equal document sizes (subtree sizes
    /// are invariant under the shift), so no renumbering is needed.
    fn materialize_into(&self, lo: u32, root: u32, scratch: &mut Tree) {
        scratch.set_postorder_unchecked((lo..=root).map(|id| self.node_entry(id)));
    }

    /// Recovers the `(label, local subtree size)` of buffered node `id`.
    #[inline]
    fn node_entry(&self, id: u32) -> (LabelId, u32) {
        let slot = self.slot(id);
        let p = self.pfx[slot];
        let size = if p >= id { 1 } else { id - p + 1 };
        debug_assert!(size <= self.tau, "candidate node exceeds τ");
        (self.lbl[slot], size)
    }
}

/// Initial ring capacity cap: a saturated τ (u32::MAX, e.g. from a huge
/// `k`) must not allocate `O(τ)` slots up front — the ring doubles on
/// demand instead, bounded by the nodes actually buffered. Every τ below
/// it gets its full `τ + 1` ring at once, so the common scan never grows.
const RING_RESERVE_CAP: usize = 1 << 16;

/// Cap on speculative accumulator reservations derived from τ, so a
/// saturated τ (u32::MAX = "no pruning") cannot demand a huge up-front
/// allocation. Geometric growth takes over beyond it.
pub(crate) const INITIAL_RESERVE_CAP: usize = 4096;

/// Convenience: runs the full pruning (Algorithm 1, `prb-pruning`) and
/// collects the candidate set.
pub fn prb_pruning<Q: PostorderQueue + ?Sized>(queue: &mut Q, tau: u32) -> Vec<Candidate> {
    let mut prb = PrefixRingBuffer::new(queue, tau);
    // The stream length is unknown, but the ring bound b = τ + 1 is a
    // sound first guess for the accumulator (capped; geometric growth
    // after).
    let mut out = Vec::with_capacity(prb.b.min(INITIAL_RESERVE_CAP));
    let mut scratch = Tree::leaf(LabelId(0));
    while let Some(root) = prb.next_candidate_into(&mut scratch) {
        out.push(Candidate {
            tree: scratch.clone(),
            root,
        });
    }
    out
}

/// Reference implementation of `cand(T, τ)` straight from Def. 9, for an
/// in-memory tree: all subtrees of size `<= τ` whose ancestors are all
/// larger than τ. O(n · height); test oracle for the ring buffer.
pub fn candidate_set_reference(tree: &Tree, tau: u32) -> Vec<Candidate> {
    let parents = tree.parents();
    // Exact-size accumulator: subtree sizes are strictly increasing
    // towards the root, so "all ancestors larger than τ" is equivalent to
    // "the parent is larger than τ" — one cheap counting pass. The
    // emission loop below still walks all ancestors, staying literal to
    // Def. 9 (this is the test oracle).
    let n_cands = tree
        .nodes()
        .filter(|&id| {
            tree.size(id) <= tau && parents[id.index()].is_none_or(|p| tree.size(p) > tau)
        })
        .count();
    let mut out = Vec::with_capacity(n_cands);
    for id in tree.nodes() {
        if tree.size(id) > tau {
            continue;
        }
        // Check all ancestors are larger than τ.
        let mut ok = true;
        let mut a = parents[id.index()];
        while let Some(anc) = a {
            if tree.size(anc) <= tau {
                ok = false;
                break;
            }
            a = parents[anc.index()];
        }
        if ok {
            out.push(Candidate {
                tree: tree.subtree(id),
                root: id,
            });
        }
    }
    debug_assert_eq!(
        out.len(),
        n_cands,
        "parent-size shortcut disagrees with Def. 9"
    );
    out
}

/// Statistics of a pruning run, for the ablation experiments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PruningStats {
    /// Candidates emitted.
    pub candidates: usize,
    /// Total nodes across all candidates.
    pub candidate_nodes: u64,
    /// Peak buffered nodes.
    pub peak_buffered: usize,
    /// Nodes consumed from the queue.
    pub nodes_seen: u32,
}

/// Runs the pruning, collecting only statistics (used by experiments that
/// do not need the candidate trees). `stats_sink` receives one relevant
/// "document side" record per candidate if provided.
pub fn prb_pruning_stats<Q: PostorderQueue + ?Sized>(
    queue: &mut Q,
    tau: u32,
    mut stats_sink: Option<&mut TedStats>,
) -> PruningStats {
    let mut prb = PrefixRingBuffer::new(queue, tau);
    let mut st = PruningStats::default();
    let mut scratch = Tree::leaf(LabelId(0));
    while prb.next_candidate_into(&mut scratch).is_some() {
        st.candidates += 1;
        st.candidate_nodes += scratch.len() as u64;
        if let Some(s) = stats_sink.as_deref_mut() {
            s.record_relevant(scratch.len() as u32);
        }
    }
    st.peak_buffered = prb.peak_buffered();
    st.nodes_seen = prb.nodes_seen();
    st
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasm_tree::{bracket, LabelDict, TreeQueue};

    /// The example document D of Fig. 4a.
    fn example_d() -> (Tree, LabelDict) {
        let mut dict = LabelDict::new();
        let t = bracket::parse(
            "{dblp{article{auth{John}}{title{X1}}}{proceedings{conf{VLDB}}\
             {article{auth{Peter}}{title{X3}}}{article{auth{Mike}}{title{X4}}}}\
             {book{title{X2}}}}",
            &mut dict,
        )
        .unwrap();
        assert_eq!(t.len(), 22);
        (t, dict)
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "tau >= 1")]
    fn zero_tau_is_rejected_not_silently_clamped() {
        // Before the fix, tau = 0 was clamped to 1 without a word and
        // the scan returned a plausible-looking leaf ranking.
        let (t, _) = example_d();
        let mut q = TreeQueue::new(&t);
        let _ = PrefixRingBuffer::new(&mut q, 0);
    }

    #[test]
    fn ring_grows_past_its_initial_cap_and_matches_the_reference() {
        // Records wider than the initial ring: a τ above the cap must grow
        // the ring mid-scan (re-laying out wrapped slots) and still emit
        // exactly cand(T, τ); a saturated τ yields the whole document.
        let mut dict = LabelDict::new();
        let mut src = String::from("{r");
        for (i, width) in [30_000usize, 50_000, 20_000, 45_000]
            .into_iter()
            .enumerate()
        {
            src.push_str(if i % 2 == 0 { "{a" } else { "{b" });
            for _ in 0..width {
                src.push_str("{x}");
            }
            src.push('}');
        }
        src.push('}');
        let t = bracket::parse(&src, &mut dict).unwrap();
        for tau in [RING_RESERVE_CAP as u32 + 4_000, 80_000, u32::MAX] {
            let got = prb_pruning(&mut TreeQueue::new(&t), tau);
            let want = candidate_set_reference(&t, tau);
            let spans = |cs: &[Candidate]| -> Vec<(u32, usize)> {
                cs.iter().map(|c| (c.root.post(), c.tree.len())).collect()
            };
            assert_eq!(spans(&got), spans(&want), "τ = {tau}");
            if tau == u32::MAX {
                assert_eq!(spans(&got), vec![(t.len() as u32, t.len())]);
            }
        }
    }

    #[test]
    fn paper_example_3_candidate_set() {
        // cand(D, 6) = {D5, D7, D12, D17, D21} (Example 3 / Fig. 6).
        let (t, _) = example_d();
        let mut q = TreeQueue::new(&t);
        let cands = prb_pruning(&mut q, 6);
        let roots: Vec<u32> = cands.iter().map(|c| c.root.post()).collect();
        assert_eq!(roots, vec![5, 7, 12, 17, 21]);
        let sizes: Vec<usize> = cands.iter().map(|c| c.tree.len()).collect();
        assert_eq!(sizes, vec![5, 2, 5, 5, 3]);
    }

    #[test]
    fn candidates_match_subtree_content() {
        let (t, _) = example_d();
        let mut q = TreeQueue::new(&t);
        for cand in prb_pruning(&mut q, 6) {
            assert_eq!(cand.tree, t.subtree(cand.root), "candidate {}", cand.root);
        }
    }

    #[test]
    fn doc_post_mapping() {
        let (t, _) = example_d();
        let mut q = TreeQueue::new(&t);
        let cands = prb_pruning(&mut q, 6);
        // D12 spans document ids 8..=12; local node 1 is doc node 8.
        let d12 = &cands[2];
        assert_eq!(d12.root.post(), 12);
        assert_eq!(d12.doc_post(NodeId::new(1)).post(), 8);
        assert_eq!(d12.doc_post(NodeId::new(5)).post(), 12);
    }

    #[test]
    fn reference_matches_ring_buffer_on_example() {
        let (t, _) = example_d();
        for tau in 1..=23 {
            let mut q = TreeQueue::new(&t);
            let got: Vec<u32> = prb_pruning(&mut q, tau)
                .iter()
                .map(|c| c.root.post())
                .collect();
            let want: Vec<u32> = candidate_set_reference(&t, tau)
                .iter()
                .map(|c| c.root.post())
                .collect();
            assert_eq!(got, want, "τ = {tau}");
        }
    }

    #[test]
    fn whole_tree_is_single_candidate_when_tau_large() {
        let (t, _) = example_d();
        let mut q = TreeQueue::new(&t);
        let cands = prb_pruning(&mut q, 22);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].root.post(), 22);
        assert_eq!(cands[0].tree, t);
    }

    #[test]
    fn tau_one_yields_leaves_under_big_internals() {
        // τ = 1: candidates are leaves whose ancestors all have size > 1 —
        // i.e. every leaf (internal nodes always have size >= 2).
        let (t, _) = example_d();
        let mut q = TreeQueue::new(&t);
        let cands = prb_pruning(&mut q, 1);
        let n_leaves = t.nodes().filter(|&i| t.is_leaf(i)).count();
        assert_eq!(cands.len(), n_leaves);
        assert!(cands.iter().all(|c| c.tree.len() == 1));
    }

    #[test]
    fn single_node_document() {
        let mut d = LabelDict::new();
        let t = bracket::parse("{a}", &mut d).unwrap();
        let mut q = TreeQueue::new(&t);
        let cands = prb_pruning(&mut q, 5);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].tree.len(), 1);
    }

    #[test]
    fn peak_buffer_is_bounded_by_tau() {
        let (t, _) = example_d();
        for tau in 1..=10u32 {
            let mut q = TreeQueue::new(&t);
            let st = prb_pruning_stats(&mut q, tau, None);
            assert!(
                st.peak_buffered <= tau as usize,
                "peak {} > τ {}",
                st.peak_buffered,
                tau
            );
            assert_eq!(st.nodes_seen, 22);
        }
    }

    #[test]
    fn deep_path_document() {
        // Path of 10 nodes, τ = 3: only the bottom 3-node subtree (rooted
        // at the node of size 3) qualifies; ancestors sizes 4..10 are all
        // bigger than τ.
        let mut d = LabelDict::new();
        let t = bracket::parse("{a{a{a{a{a{a{a{a{a{a}}}}}}}}}}", &mut d).unwrap();
        let mut q = TreeQueue::new(&t);
        let cands = prb_pruning(&mut q, 3);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].root.post(), 3);
        assert_eq!(cands[0].tree.len(), 3);
    }

    #[test]
    fn wide_flat_document_streams_with_small_buffer() {
        // DBLP-shaped: root with 200 children of size 3 each; τ = 6. The
        // simple pruning would buffer all 600 nodes; the ring buffer must
        // stay <= τ.
        let mut dict = LabelDict::new();
        let mut s = String::from("{dblp");
        for i in 0..200 {
            s.push_str(&format!("{{article{{a{i}}}{{t{i}}}}}"));
        }
        s.push('}');
        let t = bracket::parse(&s, &mut dict).unwrap();
        assert_eq!(t.len(), 601);
        let mut q = TreeQueue::new(&t);
        let mut prb = PrefixRingBuffer::new(&mut q, 6);
        let mut count = 0;
        let mut cand = Tree::leaf(LabelId(0));
        while prb.next_candidate_into(&mut cand).is_some() {
            assert_eq!(cand.len(), 3);
            count += 1;
        }
        assert_eq!(count, 200);
        assert!(prb.peak_buffered() <= 6);
    }

    #[test]
    fn stats_sink_records_candidate_sizes() {
        let (t, _) = example_d();
        let mut q = TreeQueue::new(&t);
        let mut sink = TedStats::new();
        let st = prb_pruning_stats(&mut q, 6, Some(&mut sink));
        assert_eq!(st.candidates, 5);
        assert_eq!(st.candidate_nodes, 5 + 2 + 5 + 5 + 3);
        assert_eq!(sink.total_relevant(), 5);
        assert_eq!(sink.relevant_by_size[&5], 3);
    }
}
