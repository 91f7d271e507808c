//! Cost models and exact cost arithmetic (Def. 4 of the paper).
//!
//! Every node `x` carries a cost `cst(x) >= 1`. The cost of a node alignment
//! `(q, t)` is
//!
//! * `cst(q)` for a deletion (`t = ε`),
//! * `cst(t)` for an insertion (`q = ε`),
//! * `(cst(q) + cst(t)) / 2` for a rename (labels differ),
//! * `0` when the labels match.
//!
//! The rename case divides by two, so distances live in **half-units**: the
//! [`Cost`] type stores `2 × natural cost` as a `u64`, keeping all arithmetic
//! exact and totally ordered (no floats in the algorithms; `f64` only at the
//! presentation boundary).

use std::collections::HashMap;
use std::fmt;
use std::ops::{Add, AddAssign};

use tasm_tree::{LabelId, NodeId, TreeView};

/// An exact edit cost or distance, stored in half-units.
///
/// `Cost::from_natural(3)` is "3.0"; a rename between nodes of cost 1 and 2
/// is `Cost(3)` = "1.5". Comparison, addition and zero/infinity behave as
/// expected; addition saturates so `INFINITY` is absorbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cost(u64);

impl Cost {
    /// Zero cost.
    pub const ZERO: Cost = Cost(0);
    /// An absorbing maximal cost, usable as a DP sentinel.
    pub const INFINITY: Cost = Cost(u64::MAX);

    /// A cost of `n` natural units.
    #[inline]
    pub const fn from_natural(n: u64) -> Cost {
        Cost(n.saturating_mul(2))
    }

    /// A cost of `h` half-units (i.e. `h / 2` natural units).
    #[inline]
    pub const fn from_halves(h: u64) -> Cost {
        Cost(h)
    }

    /// The raw half-unit value.
    #[inline]
    pub const fn halves(self) -> u64 {
        self.0
    }

    /// The cost in natural units as a float (presentation only).
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64 / 2.0
    }

    /// `floor` of the cost in natural units. Exact; used by Lemma 3/4 style
    /// bounds (`|T| - |Q| <= δ` with `|T| - |Q|` integral implies
    /// `|T| <= floor(δ) + |Q|`).
    #[inline]
    pub const fn floor_natural(self) -> u64 {
        self.0 / 2
    }

    /// Whether this is the infinity sentinel.
    #[inline]
    pub const fn is_infinite(self) -> bool {
        self.0 == u64::MAX
    }
}

impl Add for Cost {
    type Output = Cost;
    #[inline]
    fn add(self, rhs: Cost) -> Cost {
        Cost(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Cost {
    #[inline]
    fn add_assign(&mut self, rhs: Cost) {
        *self = *self + rhs;
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_infinite() {
            return write!(f, "inf");
        }
        if self.0.is_multiple_of(2) {
            write!(f, "{}", self.0 / 2)
        } else {
            write!(f, "{}.5", self.0 / 2)
        }
    }
}

/// Assigns a cost `cst(x) >= 1` to every tree node (Def. 4).
///
/// Implementations see the whole tree — as a borrowed [`TreeView`], so
/// the evaluation layer can cost candidate subtrees in place (zero-copy
/// slices of the scan arena) — and costs may depend on structure (e.g.
/// fanout) as well as the label. Return values are clamped to `>= 1` by
/// the distance algorithms, as required for Lemma 3 to hold.
pub trait CostModel {
    /// The cost of node `node` of `tree`, in natural units.
    fn node_cost(&self, tree: TreeView<'_>, node: NodeId) -> u64;

    /// The maximum node cost over the whole tree (`c_Q` / `c_T` in
    /// Theorem 3). The default scans all nodes.
    fn max_cost(&self, tree: TreeView<'_>) -> u64 {
        tree.nodes()
            .map(|id| self.node_cost(tree, id).max(1))
            .max()
            .unwrap_or(1)
    }
}

/// The unit cost model: every node costs 1; the distance is the minimum
/// number of edit operations (Sec. IV-D).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitCost;

impl CostModel for UnitCost {
    #[inline]
    fn node_cost(&self, _tree: TreeView<'_>, _node: NodeId) -> u64 {
        1
    }

    fn max_cost(&self, _tree: TreeView<'_>) -> u64 {
        1
    }
}

/// The fanout-weighted cost model of Augsten et al. \[21\] (cited in
/// Sec. IV-D): structure-changing operations (insert/delete of high-fanout
/// internal nodes) are more expensive. `cst(x) = base + weight · fanout(x)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FanoutWeighted {
    /// Cost of a leaf (and additive base for internal nodes); must be >= 1.
    pub base: u64,
    /// Additional cost per child.
    pub weight: u64,
}

impl Default for FanoutWeighted {
    fn default() -> Self {
        FanoutWeighted { base: 1, weight: 1 }
    }
}

impl CostModel for FanoutWeighted {
    fn node_cost(&self, tree: TreeView<'_>, node: NodeId) -> u64 {
        self.base.max(1) + self.weight * tree.fanout(node) as u64
    }
}

/// A per-label cost table ("in XML, the node cost can depend on the element
/// type", Sec. IV-D). Labels not in the table get `default_cost`.
#[derive(Debug, Clone, Default)]
pub struct PerLabelCost {
    costs: HashMap<LabelId, u64>,
    default_cost: u64,
}

impl PerLabelCost {
    /// Creates a table with the given default cost (clamped to >= 1).
    pub fn new(default_cost: u64) -> Self {
        PerLabelCost {
            costs: HashMap::new(),
            default_cost: default_cost.max(1),
        }
    }

    /// Sets the cost of `label` (clamped to >= 1). Returns `self` for
    /// chaining.
    pub fn with(mut self, label: LabelId, cost: u64) -> Self {
        self.costs.insert(label, cost.max(1));
        self
    }

    /// Sets the cost of `label` in place.
    pub fn set(&mut self, label: LabelId, cost: u64) {
        self.costs.insert(label, cost.max(1));
    }
}

impl CostModel for PerLabelCost {
    fn node_cost(&self, tree: TreeView<'_>, node: NodeId) -> u64 {
        self.costs
            .get(&tree.label(node))
            .copied()
            .unwrap_or(self.default_cost)
    }
}

/// Per-node costs of a tree, precomputed for the DP inner loops.
///
/// Also carries the tree's maximum cost (`c_Q` / `c_T` of Theorem 3).
#[derive(Debug, Clone)]
pub struct NodeCosts {
    /// `costs[i]` = cst of the node with postorder number `i + 1`, clamped
    /// to >= 1, in natural units.
    costs: Vec<u64>,
    max: u64,
}

impl Default for NodeCosts {
    fn default() -> Self {
        NodeCosts::empty()
    }
}

impl NodeCosts {
    /// Evaluates `model` on every node of `tree`.
    pub fn compute(tree: TreeView<'_>, model: &dyn CostModel) -> Self {
        let mut nc = NodeCosts::empty();
        nc.compute_into(tree, model);
        nc
    }

    /// An empty scratch instance, to be filled with
    /// [`NodeCosts::compute_into`] (workspace reuse).
    pub fn empty() -> Self {
        NodeCosts {
            costs: Vec::new(),
            max: 1,
        }
    }

    /// Re-evaluates `model` on every node of `tree` in place, reusing the
    /// buffer (allocation-free once capacity covers the largest tree
    /// seen).
    pub fn compute_into(&mut self, tree: TreeView<'_>, model: &dyn CostModel) {
        self.costs.clear();
        self.max = 1;
        for id in tree.nodes() {
            let c = model.node_cost(tree, id).max(1);
            self.max = self.max.max(c);
            self.costs.push(c);
        }
    }

    /// Ensures capacity for at least `n` nodes (workspace warm-up).
    pub fn reserve(&mut self, n: usize) {
        self.costs.reserve(n.saturating_sub(self.costs.len()));
    }

    /// The cost of deleting/inserting the node with postorder `post`
    /// (1-based), in half-units.
    #[inline]
    pub fn del_ins(&self, post: u32) -> Cost {
        Cost::from_natural(self.costs[(post - 1) as usize])
    }

    /// The natural-unit cost of the node with postorder `post`.
    #[inline]
    pub fn natural(&self, post: u32) -> u64 {
        self.costs[(post - 1) as usize]
    }

    /// The full natural-unit cost array (index = postorder − 1), for DP
    /// inner loops that index it directly.
    #[inline]
    pub fn naturals(&self) -> &[u64] {
        &self.costs
    }

    /// Maximum node cost (natural units).
    #[inline]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Number of nodes covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// Whether empty (never true for valid trees).
    pub fn is_empty(&self) -> bool {
        self.costs.is_empty()
    }
}

/// The rename cost between two nodes given their natural costs and labels:
/// `0` if labels match, else `(cq + ct) / 2` — exact in half-units.
///
/// Branchless: labels are dense `u32` ids, so the mismatch test compiles
/// to a single comparison whose result scales the half-sum (no branch in
/// the DP inner loop).
#[inline]
pub fn rename_cost(label_q: LabelId, cq: u64, label_t: LabelId, ct: u64) -> Cost {
    Cost::from_halves((cq + ct) * u64::from(label_q != label_t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasm_tree::{bracket, LabelDict};

    #[test]
    fn cost_display_and_halves() {
        assert_eq!(Cost::from_natural(3).to_string(), "3");
        assert_eq!(Cost::from_halves(7).to_string(), "3.5");
        assert_eq!(Cost::ZERO.to_string(), "0");
        assert_eq!(Cost::INFINITY.to_string(), "inf");
        assert_eq!(Cost::from_halves(7).floor_natural(), 3);
        assert_eq!(Cost::from_natural(3).as_f64(), 3.0);
    }

    #[test]
    fn infinity_is_absorbing() {
        assert_eq!(Cost::INFINITY + Cost::from_natural(5), Cost::INFINITY);
        assert!(Cost::INFINITY.is_infinite());
        assert!(Cost::from_natural(1) < Cost::INFINITY);
    }

    #[test]
    fn ordering_is_total_on_halves() {
        assert!(Cost::from_halves(3) < Cost::from_natural(2));
        assert!(Cost::from_natural(1) < Cost::from_halves(3));
    }

    #[test]
    fn unit_cost_model() {
        let mut d = LabelDict::new();
        let t = bracket::parse("{a{b}{c}}", &mut d).unwrap();
        let nc = NodeCosts::compute(t.view(), &UnitCost);
        assert_eq!(nc.max(), 1);
        assert_eq!(nc.del_ins(1), Cost::from_natural(1));
        assert_eq!(nc.natural(3), 1);
    }

    #[test]
    fn fanout_weighted_model() {
        let mut d = LabelDict::new();
        let t = bracket::parse("{a{b}{c}{d}}", &mut d).unwrap();
        let nc = NodeCosts::compute(t.view(), &FanoutWeighted { base: 1, weight: 2 });
        assert_eq!(nc.natural(1), 1); // leaf
        assert_eq!(nc.natural(4), 1 + 2 * 3); // root, 3 children
        assert_eq!(nc.max(), 7);
    }

    #[test]
    fn per_label_model_defaults_and_overrides() {
        let mut d = LabelDict::new();
        let t = bracket::parse("{a{b}{c}}", &mut d).unwrap();
        let b = d.get("b").unwrap();
        let model = PerLabelCost::new(2).with(b, 9);
        let nc = NodeCosts::compute(t.view(), &model);
        assert_eq!(nc.natural(1), 9); // b
        assert_eq!(nc.natural(2), 2); // c -> default
        assert_eq!(nc.max(), 9);
    }

    #[test]
    fn costs_are_clamped_to_one() {
        struct Zero;
        impl CostModel for Zero {
            fn node_cost(&self, _: TreeView<'_>, _: NodeId) -> u64 {
                0
            }
        }
        let mut d = LabelDict::new();
        let t = bracket::parse("{a}", &mut d).unwrap();
        let nc = NodeCosts::compute(t.view(), &Zero);
        assert_eq!(nc.natural(1), 1);
        assert_eq!(Zero.max_cost(t.view()), 1);
    }

    #[test]
    fn rename_cost_rules() {
        let (a, b) = (LabelId(0), LabelId(1));
        assert_eq!(rename_cost(a, 5, a, 7), Cost::ZERO);
        assert_eq!(rename_cost(a, 1, b, 1), Cost::from_natural(1));
        assert_eq!(rename_cost(a, 1, b, 2), Cost::from_halves(3)); // 1.5
    }
}
