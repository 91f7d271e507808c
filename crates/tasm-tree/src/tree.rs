//! The ordered labeled tree, stored as a postorder arena.
//!
//! A [`Tree`] is two parallel arrays indexed by postorder number: the label
//! and the subtree size of each node. This is exactly the information the
//! paper's *postorder queue* (Def. 2) carries, and it uniquely determines
//! the tree: the subtree rooted at node `i` spans the contiguous postorder
//! interval `[i - size(i) + 1, i]`.
//!
//! All structural queries (children, parent, leftmost leaf, depth) are
//! derived from the size array; no pointers are stored.

use crate::error::TreeError;
use crate::label::LabelId;
use crate::node::NodeId;

/// An ordered labeled tree in postorder arena representation.
///
/// Nodes are addressed by [`NodeId`] (1-based postorder number). The tree is
/// immutable after construction; build one with [`TreeBuilder`](crate::TreeBuilder),
/// [`Tree::from_postorder`], or the bracket parser.
///
/// # Examples
///
/// ```
/// use tasm_tree::{LabelDict, Tree, NodeId};
///
/// let mut dict = LabelDict::new();
/// // The example query G of the paper (Fig. 2): a(b, c)
/// let (a, b, c) = (dict.intern("a"), dict.intern("b"), dict.intern("c"));
/// let g = Tree::from_postorder(vec![(b, 1), (c, 1), (a, 3)]).unwrap();
/// assert_eq!(g.len(), 3);
/// assert_eq!(g.root(), NodeId::new(3));
/// assert_eq!(g.label(NodeId::new(3)), a);
/// assert!(g.is_leaf(NodeId::new(1)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tree {
    labels: Vec<LabelId>,
    sizes: Vec<u32>,
}

impl Tree {
    /// Builds a tree from a postorder `(label, subtree_size)` sequence,
    /// validating that the sequence encodes a single well-formed tree.
    ///
    /// This is the inverse of [`Tree::postorder`] and accepts exactly the
    /// content of a postorder queue (Def. 2).
    ///
    /// # Errors
    ///
    /// [`TreeError::Empty`] for an empty sequence,
    /// [`TreeError::InvalidPostorder`] if a size is inconsistent,
    /// [`TreeError::NotATree`] if the sequence encodes a forest.
    pub fn from_postorder(
        entries: impl IntoIterator<Item = (LabelId, u32)>,
    ) -> Result<Self, TreeError> {
        let iter = entries.into_iter();
        let (lower, _) = iter.size_hint();
        let mut labels = Vec::with_capacity(lower);
        let mut sizes = Vec::with_capacity(lower);
        // Stack of completed top-level subtree sizes so far.
        let mut stack: Vec<u32> = Vec::new();
        for (pos, (label, size)) in iter.enumerate() {
            if size == 0 {
                return Err(TreeError::InvalidPostorder {
                    position: pos + 1,
                    size,
                });
            }
            // The new node adopts the most recent completed subtrees as its
            // children; their sizes must sum to exactly size - 1.
            let mut need = size - 1;
            while need > 0 {
                let child = stack.pop().ok_or(TreeError::InvalidPostorder {
                    position: pos + 1,
                    size,
                })?;
                if child > need {
                    return Err(TreeError::InvalidPostorder {
                        position: pos + 1,
                        size,
                    });
                }
                need -= child;
            }
            stack.push(size);
            labels.push(label);
            sizes.push(size);
        }
        if labels.is_empty() {
            return Err(TreeError::Empty);
        }
        if stack.len() != 1 {
            return Err(TreeError::NotATree { roots: stack.len() });
        }
        Ok(Tree { labels, sizes })
    }

    /// Builds a tree from raw postorder arrays **without validation**.
    ///
    /// The caller must guarantee that `(labels[i], sizes[i])` is a valid
    /// postorder encoding of a single tree (as checked by
    /// [`Tree::from_postorder`]). Used on hot paths where the encoding is
    /// correct by construction, e.g. extracting a subtree slice.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the arrays are empty or of unequal length.
    pub fn from_postorder_unchecked(labels: Vec<LabelId>, sizes: Vec<u32>) -> Self {
        debug_assert_eq!(labels.len(), sizes.len());
        debug_assert!(!labels.is_empty());
        debug_assert_eq!(sizes[labels.len() - 1] as usize, labels.len());
        Tree { labels, sizes }
    }

    /// Overwrites this tree in place with the given postorder encoding,
    /// **without validation**, reusing the existing buffers.
    ///
    /// This is the scratch-tree API used by the streaming workspaces:
    /// buffers grow but never shrink, so repeatedly rebuilding a scratch
    /// tree is allocation-free once its capacity covers the largest
    /// encoding seen. The entries must satisfy the invariants of
    /// [`Tree::from_postorder_unchecked`]; only debug assertions check
    /// them.
    pub fn set_postorder_unchecked(&mut self, entries: impl IntoIterator<Item = (LabelId, u32)>) {
        self.labels.clear();
        self.sizes.clear();
        for (label, size) in entries {
            self.labels.push(label);
            self.sizes.push(size);
        }
        debug_assert!(!self.labels.is_empty());
        debug_assert_eq!(
            self.sizes[self.labels.len() - 1] as usize,
            self.labels.len()
        );
    }

    /// Ensures capacity for at least `n` nodes without changing the
    /// tree's content (scratch-tree warm-up).
    pub fn reserve(&mut self, n: usize) {
        self.labels.reserve(n.saturating_sub(self.labels.len()));
        self.sizes.reserve(n.saturating_sub(self.sizes.len()));
    }

    /// A single-node tree.
    pub fn leaf(label: LabelId) -> Self {
        Tree {
            labels: vec![label],
            sizes: vec![1],
        }
    }

    /// Number of nodes `|T|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Trees are non-empty by definition; always `false`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The root node (largest postorder number).
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId::from_index(self.labels.len() - 1)
    }

    /// The label of `node`.
    #[inline]
    pub fn label(&self, node: NodeId) -> LabelId {
        self.labels[node.index()]
    }

    /// The size of the subtree rooted at `node` (including `node`).
    #[inline]
    pub fn size(&self, node: NodeId) -> u32 {
        self.sizes[node.index()]
    }

    /// The leftmost leaf `lml(node)`: the smallest descendant in postorder.
    #[inline]
    pub fn lml(&self, node: NodeId) -> NodeId {
        NodeId::new(node.post() - self.size(node) + 1)
    }

    /// Whether `node` is a leaf.
    #[inline]
    pub fn is_leaf(&self, node: NodeId) -> bool {
        self.size(node) == 1
    }

    /// Whether `a` is an ancestor of `b` (strict: `a != b`).
    ///
    /// In postorder-interval terms: `b`'s interval is strictly inside `a`'s.
    #[inline]
    pub fn is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.lml(a) <= b && b < a
    }

    /// Whether `a` is to the left of `b` (Sec. IV-A: `a < b` and `a` is not
    /// a descendant of `b`).
    #[inline]
    pub fn is_left_of(&self, a: NodeId, b: NodeId) -> bool {
        a < b && self.lml(b) > a
    }

    /// Iterates over all node ids in postorder (ascending).
    pub fn nodes(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator {
        (0..self.labels.len()).map(NodeId::from_index)
    }

    /// Iterates over the children of `node` from **right to left**.
    ///
    /// Right-to-left is the natural direction in a postorder arena: the
    /// rightmost child is at `node - 1`, and each further sibling is found by
    /// skipping the previous child's subtree. O(1) per child, no allocation.
    pub fn children_rl(&self, node: NodeId) -> ChildrenRl<'_> {
        ChildrenRl {
            tree: self,
            lml: self.lml(node).post(),
            next: node.post() - 1, // 0 when node is a leaf => iterator empty
        }
    }

    /// The children of `node` from left to right (allocates).
    pub fn children(&self, node: NodeId) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.children_rl(node).collect();
        v.reverse();
        v
    }

    /// The fanout (number of children) of `node`.
    pub fn fanout(&self, node: NodeId) -> usize {
        self.children_rl(node).count()
    }

    /// Iterates the postorder `(label, size)` entries — the content of the
    /// postorder queue `post(T)` (Def. 2).
    pub fn postorder(
        &self,
    ) -> impl DoubleEndedIterator<Item = (LabelId, u32)> + ExactSizeIterator + '_ {
        self.labels.iter().copied().zip(self.sizes.iter().copied())
    }

    /// Extracts the subtree rooted at `node` as an owned tree.
    ///
    /// Postorder numbers inside the copy are renumbered to `1..=size(node)`;
    /// the mapping is `new = old - lml(node) + 1`.
    pub fn subtree(&self, node: NodeId) -> Tree {
        let lo = self.lml(node).index();
        let hi = node.index() + 1;
        Tree {
            labels: self.labels[lo..hi].to_vec(),
            sizes: self.sizes[lo..hi].to_vec(),
        }
    }

    /// The parent of every node (`None` for the root), computed in one
    /// postorder scan. O(n) time, O(height) auxiliary stack.
    pub fn parents(&self) -> Vec<Option<NodeId>> {
        let n = self.len();
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        // Stack of roots of completed subtrees not yet attached to a parent.
        let mut stack: Vec<NodeId> = Vec::new();
        for id in self.nodes() {
            let mut need = self.size(id) - 1;
            while need > 0 {
                let child = stack.pop().expect("valid postorder encoding");
                parent[child.index()] = Some(id);
                need -= self.size(child);
            }
            stack.push(id);
        }
        parent
    }

    /// The depth of every node (root has depth 0). O(n).
    pub fn depths(&self) -> Vec<u32> {
        let parents = self.parents();
        let mut depth = vec![0u32; self.len()];
        // Process in reverse postorder: parents come before children.
        for id in self.nodes().rev() {
            if let Some(p) = parents[id.index()] {
                depth[id.index()] = depth[p.index()] + 1;
            }
        }
        depth
    }

    /// The height of the tree: number of edges on the longest root-to-leaf
    /// path. A single node has height 0.
    pub fn height(&self) -> u32 {
        self.depths().into_iter().max().unwrap_or(0)
    }

    /// Direct access to the postorder label array (index = postorder - 1).
    #[inline]
    pub fn labels(&self) -> &[LabelId] {
        &self.labels
    }

    /// Direct access to the postorder size array (index = postorder - 1).
    #[inline]
    pub fn sizes(&self) -> &[u32] {
        &self.sizes
    }

    /// The maximum node cost under `cost`, written `c_T` in the paper
    /// (Sec. VI-A). Costs are per-node, `>= 1`.
    pub fn max_node_cost(&self, mut cost: impl FnMut(LabelId) -> u64) -> u64 {
        self.labels.iter().map(|&l| cost(l)).max().unwrap_or(1)
    }

    /// A borrowed [`TreeView`] of the whole tree.
    #[inline]
    pub fn view(&self) -> TreeView<'_> {
        TreeView {
            labels: &self.labels,
            sizes: &self.sizes,
        }
    }

    /// A borrowed [`TreeView`] of the subtree rooted at `node`, without
    /// copying: the subtree occupies the contiguous postorder interval
    /// `[lml(node), node]` of the arena, so the view is two subslices.
    /// Postorder numbers inside the view are `1..=size(node)` (the same
    /// renumbering as [`Tree::subtree`]).
    #[inline]
    pub fn subtree_view(&self, node: NodeId) -> TreeView<'_> {
        let lo = self.lml(node).index();
        let hi = node.index() + 1;
        TreeView {
            labels: &self.labels[lo..hi],
            sizes: &self.sizes[lo..hi],
        }
    }
}

/// A borrowed, zero-copy view of a tree (or of any subtree): two parallel
/// postorder slices of labels and subtree sizes.
///
/// Because a subtree spans a contiguous postorder interval of its host
/// arena and subtree sizes are invariant under the renumbering shift, a
/// `TreeView` of a subtree is just a pair of subslices — no copy, no
/// allocation. This is what lets the TASM evaluation layer run the
/// Zhang–Shasha DP directly over a slice of the scan engine's candidate
/// arena instead of cloning each proper subtree into a scratch tree.
///
/// The read API mirrors [`Tree`]; node ids are 1-based postorder numbers
/// **local to the view** (`1..=len`).
///
/// # Examples
///
/// ```
/// use tasm_tree::{bracket, LabelDict, NodeId};
///
/// let mut dict = LabelDict::new();
/// let h = bracket::parse("{x{a{b}{d}}{a{b}{c}}}", &mut dict).unwrap();
/// let h6 = h.subtree_view(NodeId::new(6)); // the second a(b, c) subtree
/// assert_eq!(h6.len(), 3);
/// assert_eq!(h6.label(h6.root()), h.label(NodeId::new(6)));
/// assert_eq!(h6.to_tree(), h.subtree(NodeId::new(6)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeView<'a> {
    labels: &'a [LabelId],
    sizes: &'a [u32],
}

impl<'a> TreeView<'a> {
    /// A view over raw postorder slices **without validation**; the caller
    /// must guarantee they encode a single well-formed tree (the
    /// invariants of [`Tree::from_postorder_unchecked`]).
    pub fn from_slices_unchecked(labels: &'a [LabelId], sizes: &'a [u32]) -> Self {
        debug_assert_eq!(labels.len(), sizes.len());
        debug_assert!(!labels.is_empty());
        debug_assert_eq!(sizes[labels.len() - 1] as usize, labels.len());
        TreeView { labels, sizes }
    }

    /// Number of nodes in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Trees are non-empty by definition; always `false`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The root node (largest local postorder number).
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId::from_index(self.labels.len() - 1)
    }

    /// The label of `node` (local postorder).
    #[inline]
    pub fn label(&self, node: NodeId) -> LabelId {
        self.labels[node.index()]
    }

    /// The size of the subtree rooted at `node`.
    #[inline]
    pub fn size(&self, node: NodeId) -> u32 {
        self.sizes[node.index()]
    }

    /// The leftmost leaf `lml(node)` in local postorder numbering.
    #[inline]
    pub fn lml(&self, node: NodeId) -> NodeId {
        NodeId::new(node.post() - self.size(node) + 1)
    }

    /// Whether `node` is a leaf.
    #[inline]
    pub fn is_leaf(&self, node: NodeId) -> bool {
        self.size(node) == 1
    }

    /// Iterates over all node ids in local postorder (ascending).
    pub fn nodes(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator {
        (0..self.labels.len()).map(NodeId::from_index)
    }

    /// The fanout (number of children) of `node`, recovered from the size
    /// slice by skipping child subtrees right to left. O(fanout).
    pub fn fanout(&self, node: NodeId) -> usize {
        let lml = self.lml(node).post();
        let mut next = node.post() - 1;
        let mut count = 0;
        while next >= lml && next > 0 {
            count += 1;
            next -= self.sizes[(next - 1) as usize]; // skip the child's subtree
        }
        count
    }

    /// Direct access to the postorder label slice (index = postorder − 1).
    #[inline]
    pub fn labels(&self) -> &'a [LabelId] {
        self.labels
    }

    /// Direct access to the postorder size slice (index = postorder − 1).
    #[inline]
    pub fn sizes(&self) -> &'a [u32] {
        self.sizes
    }

    /// A narrower view of the subtree rooted at `node` (local postorder).
    #[inline]
    pub fn subtree_view(&self, node: NodeId) -> TreeView<'a> {
        let lo = self.lml(node).index();
        let hi = node.index() + 1;
        TreeView {
            labels: &self.labels[lo..hi],
            sizes: &self.sizes[lo..hi],
        }
    }

    /// Copies the subtree rooted at `node` out as an owned [`Tree`]
    /// (allocates; used only for surviving top-k matches).
    pub fn subtree(&self, node: NodeId) -> Tree {
        let lo = self.lml(node).index();
        let hi = node.index() + 1;
        Tree {
            labels: self.labels[lo..hi].to_vec(),
            sizes: self.sizes[lo..hi].to_vec(),
        }
    }

    /// Copies the whole view out as an owned [`Tree`] (allocates).
    pub fn to_tree(&self) -> Tree {
        Tree {
            labels: self.labels.to_vec(),
            sizes: self.sizes.to_vec(),
        }
    }
}

/// Iterator over children right-to-left; see [`Tree::children_rl`].
#[derive(Debug)]
pub struct ChildrenRl<'a> {
    tree: &'a Tree,
    /// Postorder number of the parent's leftmost leaf.
    lml: u32,
    /// Postorder number of the next child to yield; 0 = exhausted.
    next: u32,
}

impl Iterator for ChildrenRl<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.next < self.lml || self.next == 0 {
            return None;
        }
        let child = NodeId::new(self.next);
        // Skip over the child's whole subtree to find the next sibling.
        self.next = self.tree.lml(child).post() - 1;
        Some(child)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::LabelDict;

    /// The example document H of Fig. 2:
    /// x(a(b, d), a(b, c)) with postorder h1..h7.
    fn example_h() -> (Tree, LabelDict) {
        let mut d = LabelDict::new();
        let (a, b, c, dd, x) = (
            d.intern("a"),
            d.intern("b"),
            d.intern("c"),
            d.intern("d"),
            d.intern("x"),
        );
        let h = Tree::from_postorder(vec![
            (b, 1),
            (dd, 1),
            (a, 3),
            (b, 1),
            (c, 1),
            (a, 3),
            (x, 7),
        ])
        .unwrap();
        (h, d)
    }

    #[test]
    fn from_postorder_builds_example_h() {
        let (h, _) = example_h();
        assert_eq!(h.len(), 7);
        assert_eq!(h.root(), NodeId::new(7));
        assert_eq!(h.size(NodeId::new(3)), 3);
        assert_eq!(h.lml(NodeId::new(3)), NodeId::new(1));
        assert_eq!(h.lml(NodeId::new(6)), NodeId::new(4));
        assert_eq!(h.lml(NodeId::new(7)), NodeId::new(1));
    }

    #[test]
    fn children_of_example_h() {
        let (h, _) = example_h();
        assert_eq!(
            h.children(NodeId::new(7)),
            vec![NodeId::new(3), NodeId::new(6)]
        );
        assert_eq!(
            h.children(NodeId::new(6)),
            vec![NodeId::new(4), NodeId::new(5)]
        );
        assert!(h.children(NodeId::new(1)).is_empty());
        assert_eq!(h.fanout(NodeId::new(7)), 2);
        assert_eq!(h.fanout(NodeId::new(1)), 0);
    }

    #[test]
    fn ancestor_and_left_of() {
        let (h, _) = example_h();
        let (n1, n3, n4, n6, n7) = (
            NodeId::new(1),
            NodeId::new(3),
            NodeId::new(4),
            NodeId::new(6),
            NodeId::new(7),
        );
        assert!(h.is_ancestor(n7, n1));
        assert!(h.is_ancestor(n3, n1));
        assert!(!h.is_ancestor(n6, n1));
        assert!(!h.is_ancestor(n1, n1));
        assert!(h.is_left_of(n1, n4));
        assert!(h.is_left_of(n3, n6));
        assert!(!h.is_left_of(n1, n3)); // n1 is a descendant of n3
        assert!(!h.is_left_of(n4, n3));
    }

    #[test]
    fn parents_and_depths() {
        let (h, _) = example_h();
        let p = h.parents();
        assert_eq!(p[NodeId::new(1).index()], Some(NodeId::new(3)));
        assert_eq!(p[NodeId::new(2).index()], Some(NodeId::new(3)));
        assert_eq!(p[NodeId::new(3).index()], Some(NodeId::new(7)));
        assert_eq!(p[NodeId::new(6).index()], Some(NodeId::new(7)));
        assert_eq!(p[NodeId::new(7).index()], None);
        let d = h.depths();
        assert_eq!(d[NodeId::new(7).index()], 0);
        assert_eq!(d[NodeId::new(3).index()], 1);
        assert_eq!(d[NodeId::new(1).index()], 2);
        assert_eq!(h.height(), 2);
    }

    #[test]
    fn subtree_extraction_renumbers() {
        let (h, _) = example_h();
        let h6 = h.subtree(NodeId::new(6));
        assert_eq!(h6.len(), 3);
        assert_eq!(h6.root(), NodeId::new(3));
        assert_eq!(h6.label(NodeId::new(3)), h.label(NodeId::new(6)));
        assert_eq!(h6.label(NodeId::new(1)), h.label(NodeId::new(4)));
        // A subtree of the whole tree is the tree itself.
        assert_eq!(h.subtree(h.root()), h);
    }

    #[test]
    fn postorder_round_trip() {
        let (h, _) = example_h();
        let entries: Vec<_> = h.postorder().collect();
        let h2 = Tree::from_postorder(entries).unwrap();
        assert_eq!(h, h2);
    }

    #[test]
    fn leaf_constructor() {
        let t = Tree::leaf(LabelId(0));
        assert_eq!(t.len(), 1);
        assert!(t.is_leaf(t.root()));
        assert_eq!(t.height(), 0);
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(Tree::from_postorder(vec![]), Err(TreeError::Empty));
    }

    #[test]
    fn rejects_zero_size() {
        let l = LabelId(0);
        assert!(matches!(
            Tree::from_postorder(vec![(l, 0)]),
            Err(TreeError::InvalidPostorder { position: 1, .. })
        ));
    }

    #[test]
    fn rejects_forest() {
        let l = LabelId(0);
        assert_eq!(
            Tree::from_postorder(vec![(l, 1), (l, 1)]),
            Err(TreeError::NotATree { roots: 2 })
        );
    }

    #[test]
    fn rejects_overshooting_size() {
        let l = LabelId(0);
        // Node 2 claims size 3 but only 1 node precedes it.
        assert!(matches!(
            Tree::from_postorder(vec![(l, 1), (l, 3)]),
            Err(TreeError::InvalidPostorder { position: 2, .. })
        ));
    }

    #[test]
    fn rejects_size_splitting_a_child() {
        let l = LabelId(0);
        // (l,1),(l,2) completes a 2-node tree; a following node of size 2
        // would have to split that subtree.
        assert!(matches!(
            Tree::from_postorder(vec![(l, 1), (l, 2), (l, 2)]),
            Err(TreeError::InvalidPostorder { position: 3, .. })
        ));
    }

    #[test]
    fn max_node_cost_unit() {
        let (h, _) = example_h();
        assert_eq!(h.max_node_cost(|_| 1), 1);
        assert_eq!(h.max_node_cost(|l| if l == LabelId(4) { 7 } else { 1 }), 7);
    }

    #[test]
    fn deep_path_tree() {
        // a(a(a(...))) of depth 99: postorder sizes 1..=100.
        let l = LabelId(0);
        let t = Tree::from_postorder((1..=100u32).map(|s| (l, s))).unwrap();
        assert_eq!(t.height(), 99);
        assert_eq!(t.fanout(t.root()), 1);
        assert_eq!(t.lml(t.root()), NodeId::new(1));
    }

    #[test]
    fn wide_star_tree() {
        // root with 99 leaf children.
        let l = LabelId(0);
        let mut entries: Vec<(LabelId, u32)> = (0..99).map(|_| (l, 1)).collect();
        entries.push((l, 100));
        let t = Tree::from_postorder(entries).unwrap();
        assert_eq!(t.height(), 1);
        assert_eq!(t.fanout(t.root()), 99);
        assert_eq!(t.children(t.root()).len(), 99);
        // children are sorted ascending
        let ch = t.children(t.root());
        assert!(ch.windows(2).all(|w| w[0] < w[1]));
    }
}
