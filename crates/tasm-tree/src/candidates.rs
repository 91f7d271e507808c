//! The candidate set `cand(T, τ)` (Def. 9) of a resident tree, read
//! off its subtree-size column.
//!
//! A candidate is a maximal subtree of at most `τ` nodes: its size is
//! `<= τ` and its parent's size is `> τ` (or it is the whole tree). The
//! paper's prefix ring buffer (Sec. V) derives this set from a
//! postorder *stream* in `O(τ)` memory. A resident tree already has
//! every size, so one stackless reverse sweep finds it: at node `i`, a
//! subtree of size `s <= τ` is the candidate `[i − s + 1, i]` and the
//! sweep jumps to `i − s`; otherwise node `i` is on the *spine* (size
//! `> τ`, inside no candidate) and the sweep steps to `i − 1`. It
//! visits each spine node and each candidate root once.
//!
//! The sweep restarts on any postorder block, which is how a resident
//! driver splits one document among workers without a span buffer.

use crate::tree::TreeView;

/// The reverse sweep over a tree's size column: yields the candidate
/// spans `(lml, root)` (1-based postorder, inclusive) whose root lies
/// in one postorder block, in **reverse** document order.
///
/// Every node of the tree is either a spine node or inside exactly one
/// candidate, so after a whole-tree sweep
/// [`spine`](Self::spine) plus the candidates' sizes is the tree's
/// size, and the blocks of any partition of `1..=n` together yield
/// exactly the whole sweep's candidates.
///
/// # Examples
///
/// ```
/// use tasm_tree::{bracket, CandidateSweep, LabelDict};
///
/// let mut dict = LabelDict::new();
/// // r(a(b, c), d(e)): sizes 1 1 3 1 2 6 in postorder.
/// let t = bracket::parse("{r{a{b}{c}}{d{e}}}", &mut dict).unwrap();
/// let mut sweep = CandidateSweep::new(t.view(), 3);
/// let spans: Vec<(u32, u32)> = sweep.by_ref().collect();
/// assert_eq!(spans, vec![(4, 5), (1, 3)]); // d(e), then a(b, c)
/// assert_eq!(sweep.spine(), 1); // the root
///
/// // The block [1, 4] starts inside the candidate rooted at 5, which
/// // belongs to the block that holds its root.
/// let block: Vec<_> = CandidateSweep::block(t.view(), 3, 1, 4).collect();
/// assert_eq!(block, vec![(1, 3)]);
/// ```
#[derive(Debug, Clone)]
pub struct CandidateSweep<'a> {
    sizes: &'a [u32],
    tau: u32,
    /// The next node to visit (postorder); below `first` the sweep is
    /// done.
    next: u32,
    /// The block's first node: the lowest root the sweep yields.
    first: u32,
    /// Spine nodes visited so far.
    spine: u64,
}

impl<'a> CandidateSweep<'a> {
    /// The sweep over the whole of `tree`.
    ///
    /// # Panics
    ///
    /// If `tau` is 0 (`cand(T, 0)` is empty, and no size is `<= 0`).
    pub fn new(tree: TreeView<'a>, tau: u32) -> Self {
        let n = tree.len() as u32;
        CandidateSweep::block(tree, tau, 1, n)
    }

    /// The sweep over the block `[first, last]` of `tree`: it yields
    /// exactly the candidates whose root lies in the block, including
    /// one that reaches below `first`. It starts at `last`, unless
    /// `last` lies strictly inside a candidate whose root `r` is past
    /// the block. That root is among the `τ − 1` nodes after `last`,
    /// and the sweep then starts at `lml(r) − 1`.
    ///
    /// # Panics
    ///
    /// If `tau` is 0, or unless `1 <= first <= last <= n`.
    pub fn block(tree: TreeView<'a>, tau: u32, first: u32, last: u32) -> Self {
        assert!(tau >= 1, "tau must be >= 1");
        let sizes = tree.sizes();
        let n = sizes.len() as u32;
        assert!(
            1 <= first && first <= last && last <= n,
            "block [{first}, {last}] is not inside 1..={n}"
        );
        let size = |i: u32| sizes[(i - 1) as usize];
        let mut next = last;
        if size(last) <= tau {
            // `last` is inside a candidate: the highest ancestor-or-self
            // of at most τ nodes. Its ancestors grow with their postorder
            // number, and a root r with lml(r) <= last is at most τ − 1
            // nodes past it.
            let mut root = last;
            let mut j = last + 1;
            while j <= n && j - last < tau {
                let s = size(j);
                if j - s < last {
                    // An ancestor of `last`.
                    if s > tau {
                        break;
                    }
                    root = j;
                }
                j += 1;
            }
            if root > last {
                next = root - size(root);
            }
        }
        CandidateSweep {
            sizes,
            tau,
            next,
            first,
            spine: 0,
        }
    }

    /// The spine nodes (size `> τ`, inside no candidate) the sweep has
    /// visited so far. With the candidates yielded so far it makes the
    /// nodes the sweep examined.
    pub fn spine(&self) -> u64 {
        self.spine
    }
}

impl Iterator for CandidateSweep<'_> {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        while self.next >= self.first {
            let i = self.next;
            let s = self.sizes[(i - 1) as usize];
            if s <= self.tau {
                self.next = i - s;
                return Some((i - s + 1, i));
            }
            self.spine += 1;
            self.next = i - 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bracket, LabelDict, Tree};

    /// `cand(T, τ)` by definition, in document order.
    fn reference(t: &Tree, tau: u32) -> Vec<(u32, u32)> {
        let parents = t.parents();
        t.nodes()
            .filter(|&id| t.size(id) <= tau && parents[id.index()].is_none_or(|p| t.size(p) > tau))
            .map(|id| (t.lml(id).post(), id.post()))
            .collect()
    }

    #[test]
    fn whole_sweep_is_the_candidate_set() {
        let mut dict = LabelDict::new();
        let t = bracket::parse(
            "{dblp{article{auth{John}}{title{X1}}}{proceedings{conf{VLDB}}\
             {article{auth{Peter}}{title{X3}}}{article{auth{Mike}}{title{X4}}}}\
             {book{title{X2}}}}",
            &mut dict,
        )
        .unwrap();
        let n = t.len() as u32;
        for tau in 1..=n + 1 {
            let mut sweep = CandidateSweep::new(t.view(), tau);
            let mut got: Vec<_> = sweep.by_ref().collect();
            got.reverse();
            assert_eq!(got, reference(&t, tau), "tau = {tau}");
            let inside: u64 = got.iter().map(|&(lo, hi)| u64::from(hi - lo + 1)).sum();
            assert_eq!(sweep.spine() + inside, u64::from(n), "tau = {tau}");
            let spine = t.nodes().filter(|&id| t.size(id) > tau).count() as u64;
            assert_eq!(sweep.spine(), spine, "tau = {tau}");
        }
    }

    #[test]
    fn every_block_yields_the_roots_inside_it() {
        let mut dict = LabelDict::new();
        let t = bracket::parse("{r{a{b}{c{x}{y}}}{d{e}}{f}}", &mut dict).unwrap();
        let n = t.len() as u32;
        for tau in 1..=n {
            let all = reference(&t, tau);
            for first in 1..=n {
                for last in first..=n {
                    let mut got: Vec<_> =
                        CandidateSweep::block(t.view(), tau, first, last).collect();
                    got.reverse();
                    let want: Vec<_> = all
                        .iter()
                        .copied()
                        .filter(|&(_, root)| (first..=last).contains(&root))
                        .collect();
                    assert_eq!(got, want, "tau = {tau}, block [{first}, {last}]");
                }
            }
        }
    }

    #[test]
    fn a_single_node_is_one_candidate() {
        let t = Tree::leaf(crate::LabelId(0));
        let got: Vec<_> = CandidateSweep::new(t.view(), 1).collect();
        assert_eq!(got, vec![(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "tau must be >= 1")]
    fn tau_zero_is_refused() {
        let t = Tree::leaf(crate::LabelId(0));
        let _ = CandidateSweep::new(t.view(), 0);
    }
}
