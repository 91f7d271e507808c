//! Top-k ranking: matches and the bounded max-heap (Sec. VI-B).
//!
//! The intermediate ranking `R` of TASM-postorder is "a max-heap that stores
//! (key, value) pairs: `max(R)` returns the maximum key in constant time;
//! `pop-heap` deletes the maximum element; `merge-heap` merges two heaps".
//! [`TopKHeap`] is that structure specialised to hold at most `k` entries:
//! pushing into a full heap either rejects the newcomer or evicts the
//! current maximum.

use std::collections::BinaryHeap;

use tasm_ted::Cost;
use tasm_tree::{NodeId, Tree};

/// One ranked answer: a document subtree and its distance to the query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Match {
    /// Root of the matched subtree: its postorder number in the document.
    pub root: NodeId,
    /// Number of nodes of the matched subtree.
    pub size: u32,
    /// Tree edit distance to the query.
    pub distance: Cost,
    /// The matched subtree itself, if the caller asked to keep trees
    /// (streaming evaluation cannot recover it afterwards).
    pub tree: Option<Tree>,
}

impl Match {
    /// The total order used by the ranking: by distance, then by postorder
    /// number (earlier document positions win ties), then by size.
    fn rank_key(&self) -> (Cost, u32, u32) {
        (self.distance, self.root.post(), self.size)
    }
}

/// Heap entry wrapper ordering matches by [`Match::rank_key`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry(Match);

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.rank_key().cmp(&other.0.rank_key())
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Most entries [`TopKHeap::new`] reserves up front. It covers every `k`
/// the `tasm serve` daemon accepts (`max_k = 10_000`), so the candidate
/// loop never grows the heap there; a larger `k` grows on demand
/// instead of reserving `O(k)` memory for a ranking the document may
/// never fill.
const HEAP_RESERVE_CAP: usize = 1 << 14;

/// A max-heap keeping the `k` smallest matches seen so far.
#[derive(Debug, Clone)]
pub struct TopKHeap {
    k: usize,
    heap: BinaryHeap<Entry>,
}

impl TopKHeap {
    /// Creates a heap for a top-`k` ranking.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`; a top-0 ranking is meaningless.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be at least 1");
        TopKHeap {
            k,
            heap: BinaryHeap::with_capacity(k.min(HEAP_RESERVE_CAP) + 1),
        }
    }

    /// The ranking size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of matches currently held (`<= k`).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the heap holds no matches yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether the heap already holds `k` matches (an *intermediate
    /// ranking* in the paper's sense, enabling the `τ'` bound of Lemma 4).
    pub fn is_full(&self) -> bool {
        self.heap.len() == self.k
    }

    /// The largest ranked distance, `max(R)`; `None` until non-empty.
    pub fn max_distance(&self) -> Option<Cost> {
        self.heap.peek().map(|e| e.0.distance)
    }

    /// Offers a match. If the heap is full and the newcomer does not beat
    /// the current maximum (by the deterministic rank key) it is rejected.
    /// Returns `true` if the match was kept.
    pub fn offer(&mut self, m: Match) -> bool {
        if self.heap.len() < self.k {
            self.heap.push(Entry(m));
            return true;
        }
        let worst = self.heap.peek().expect("full heap is non-empty");
        if m.rank_key() < worst.0.rank_key() {
            self.heap.pop();
            self.heap.push(Entry(m));
            true
        } else {
            false
        }
    }

    /// Whether a candidate distance could still enter the ranking (i.e. the
    /// heap is not full, or the distance is strictly below the maximum).
    /// Cheaper than building a [`Match`] when it would be rejected.
    pub fn would_accept(&self, distance: Cost) -> bool {
        !self.is_full() || distance < self.max_distance().expect("full")
    }

    /// Merges another heap into this one (the paper's `merge-heap` followed
    /// by popping back down to `k`).
    ///
    /// The result keeps **this** heap's `k`; `other`'s `k` only bounded
    /// how many entries it contributes. Because the rank key (distance,
    /// then document postorder number, then size) is a total order, the
    /// merged content is the unique top-`k` of the union and does not
    /// depend on merge order — the guarantee the sharded drivers rely on
    /// when combining per-shard heaps.
    pub fn merge(&mut self, other: TopKHeap) {
        for e in other.heap {
            self.offer(e.0);
        }
    }

    /// Attaches subtrees to matches whose root postorder number lies in
    /// `[lo, hi]` and that do not carry a tree yet. `make` receives the
    /// document postorder number of the match root.
    ///
    /// Rebuilds the heap (O(k log k)); `k` is small by assumption.
    pub fn attach_trees(&mut self, lo: u32, hi: u32, mut make: impl FnMut(u32) -> Tree) {
        let entries = std::mem::take(&mut self.heap).into_vec();
        self.heap = entries
            .into_iter()
            .map(|mut e| {
                let post = e.0.root.post();
                if e.0.tree.is_none() && (lo..=hi).contains(&post) {
                    e.0.tree = Some(make(post));
                }
                e
            })
            .collect();
    }

    /// Consumes the heap, returning matches sorted ascending (the final
    /// ranking `R` of Def. 1).
    pub fn into_sorted(self) -> Vec<Match> {
        let mut v: Vec<Match> = self.heap.into_iter().map(|e| e.0).collect();
        v.sort_by_key(|a| a.rank_key());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(dist: u64, root: u32) -> Match {
        Match {
            root: NodeId::new(root),
            size: 1,
            distance: Cost::from_natural(dist),
            tree: None,
        }
    }

    #[test]
    fn keeps_k_smallest() {
        let mut h = TopKHeap::new(2);
        for (d, r) in [(5, 1), (3, 2), (7, 3), (1, 4)] {
            h.offer(m(d, r));
        }
        let out = h.into_sorted();
        let dists: Vec<u64> = out.iter().map(|x| x.distance.floor_natural()).collect();
        assert_eq!(dists, vec![1, 3]);
    }

    #[test]
    fn max_distance_tracks_worst_kept() {
        let mut h = TopKHeap::new(2);
        assert_eq!(h.max_distance(), None);
        h.offer(m(5, 1));
        h.offer(m(3, 2));
        assert_eq!(h.max_distance(), Some(Cost::from_natural(5)));
        h.offer(m(1, 3));
        assert_eq!(h.max_distance(), Some(Cost::from_natural(3)));
    }

    #[test]
    fn ties_prefer_smaller_postorder() {
        let mut h = TopKHeap::new(1);
        h.offer(m(2, 9));
        // Same distance, smaller id: replaces.
        assert!(h.offer(m(2, 3)));
        // Same distance, larger id: rejected.
        assert!(!h.offer(m(2, 7)));
        let out = h.into_sorted();
        assert_eq!(out[0].root, NodeId::new(3));
    }

    #[test]
    fn would_accept_matches_offer_semantics() {
        let mut h = TopKHeap::new(1);
        assert!(h.would_accept(Cost::from_natural(100)));
        h.offer(m(4, 1));
        assert!(h.would_accept(Cost::from_natural(3)));
        assert!(!h.would_accept(Cost::from_natural(4))); // tie on distance: only
                                                         // smaller ids would win; conservative helper says no
        assert!(!h.would_accept(Cost::from_natural(5)));
    }

    #[test]
    fn merge_combines_rankings() {
        let mut a = TopKHeap::new(3);
        a.offer(m(1, 1));
        a.offer(m(4, 2));
        let mut b = TopKHeap::new(3);
        b.offer(m(2, 3));
        b.offer(m(3, 4));
        b.offer(m(9, 5));
        a.merge(b);
        let dists: Vec<u64> = a
            .into_sorted()
            .iter()
            .map(|x| x.distance.floor_natural())
            .collect();
        assert_eq!(dists, vec![1, 2, 3]);
    }

    #[test]
    fn into_sorted_is_ascending_and_stable_by_id() {
        let mut h = TopKHeap::new(4);
        for (d, r) in [(2, 8), (2, 2), (1, 5), (2, 4)] {
            h.offer(m(d, r));
        }
        let out = h.into_sorted();
        let keys: Vec<(u64, u32)> = out
            .iter()
            .map(|x| (x.distance.floor_natural(), x.root.post()))
            .collect();
        assert_eq!(keys, vec![(1, 5), (2, 2), (2, 4), (2, 8)]);
    }

    #[test]
    fn huge_k_reserves_a_bounded_heap_and_grows_on_demand() {
        // `with_capacity(k + 1)` here used to abort the process on an
        // impossible allocation; the reservation is capped instead.
        let mut h = TopKHeap::new(99_999_999_999_999);
        assert_eq!(h.k(), 99_999_999_999_999);
        assert!(h.heap.capacity() <= HEAP_RESERVE_CAP + 1);
        let n = HEAP_RESERVE_CAP as u32 + 10;
        for i in 0..n {
            assert!(h.offer(m(u64::from(i % 7), i + 1)));
        }
        assert_eq!(h.len(), n as usize);
        assert!(!h.is_full());
        let sorted = h.into_sorted();
        assert!(sorted
            .windows(2)
            .all(|w| w[0].rank_key() <= w[1].rank_key()));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_k_panics() {
        let _ = TopKHeap::new(0);
    }

    #[test]
    fn merge_with_duplicate_scores_is_order_independent() {
        // Duplicate distances everywhere: the id tiebreak must decide, and
        // the same ids must survive regardless of which heap held them.
        let entries = [(2u64, 5u32), (2, 1), (2, 9), (2, 3), (2, 7)];
        let (mut left, mut right) = (TopKHeap::new(3), TopKHeap::new(3));
        for (i, &(d, r)) in entries.iter().enumerate() {
            if i % 2 == 0 {
                left.offer(m(d, r));
            } else {
                right.offer(m(d, r));
            }
        }
        let mut one = TopKHeap::new(3);
        for &(d, r) in &entries {
            one.offer(m(d, r));
        }
        left.merge(right);
        let merged: Vec<u32> = left.into_sorted().iter().map(|x| x.root.post()).collect();
        let direct: Vec<u32> = one.into_sorted().iter().map(|x| x.root.post()).collect();
        assert_eq!(merged, direct);
        assert_eq!(merged, vec![1, 3, 5]);
    }

    #[test]
    fn merge_empty_heaps() {
        // Empty into full, full into empty, empty into empty.
        let mut full = TopKHeap::new(2);
        full.offer(m(1, 1));
        full.offer(m(2, 2));
        full.merge(TopKHeap::new(2));
        assert_eq!(full.len(), 2);

        let mut empty = TopKHeap::new(2);
        let mut donor = TopKHeap::new(2);
        donor.offer(m(3, 3));
        empty.merge(donor);
        assert_eq!(empty.len(), 1);
        assert_eq!(empty.max_distance(), Some(Cost::from_natural(3)));

        let mut a = TopKHeap::new(5);
        a.merge(TopKHeap::new(5));
        assert!(a.is_empty());
    }

    #[test]
    fn merge_k1_keeps_single_best() {
        let mut a = TopKHeap::new(1);
        a.offer(m(4, 2));
        let mut b = TopKHeap::new(1);
        b.offer(m(4, 1)); // same distance, smaller id: must win
        a.merge(b);
        let out = a.into_sorted();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].root, NodeId::new(1));
    }

    #[test]
    fn merge_keeps_receivers_k() {
        let mut small = TopKHeap::new(2);
        small.offer(m(5, 1));
        let mut big = TopKHeap::new(4);
        for (d, r) in [(1, 2), (2, 3), (3, 4), (4, 5)] {
            big.offer(m(d, r));
        }
        small.merge(big);
        assert_eq!(small.k(), 2);
        let dists: Vec<u64> = small
            .into_sorted()
            .iter()
            .map(|x| x.distance.floor_natural())
            .collect();
        assert_eq!(dists, vec![1, 2]);
    }
}
