//! The Zhang–Shasha tree edit distance [9] (Sec. IV-E of the paper).
//!
//! The algorithm decomposes both trees into their *relevant subtrees*
//! (keyroot subtrees, Def. 8) and, for each pair of keyroots, fills a
//! forest-distance table over the prefixes (Def. 7) of the two keyroot
//! subtrees. Distances between prefixes that are themselves trees are
//! persisted into the **tree distance matrix** `td` (Fig. 3), whose entry
//! `td[i][j]` is the edit distance between subtree `Q_i` and subtree `T_j`.
//!
//! The last row of `td` holds the distance between the whole query and
//! *every* subtree of the document — the observation TASM-dynamic is built
//! on (Sec. IV-F).
//!
//! Complexity for `|Q| = m`, `|T| = n`: `O(m² n²)` worst-case time
//! (`O(m n · min(depth, leaves)²)` in the classic tighter bound) and
//! `O(m n)` space. For shallow-and-wide XML this is near `O(m n)` time,
//! which is why the paper adopts it.

use crate::cost::{rename_cost, Cost, CostModel, NodeCosts};
use crate::matrix::Matrix;
use crate::stats::TedStats;
use crate::strategy::DecompPath;
use crate::workspace::{QueryContext, TedWorkspace};
use tasm_tree::{keyroots, LabelId, NodeId, Tree, TreeView};

/// The tree distance matrix `td` plus everything needed to interpret it.
///
/// Row `i`, column `j` (1-based, as in the paper's Fig. 3) is
/// `δ(Q_i, T_j)`; row/column 0 are unused padding so indexes match
/// postorder numbers.
#[derive(Debug, Clone)]
pub struct TreeDistances {
    td: Matrix<Cost>,
}

impl TreeDistances {
    /// A borrowed view with the same accessors.
    pub fn view(&self) -> TreeDistancesView<'_> {
        TreeDistancesView { td: &self.td }
    }

    /// `δ(Q_i, T_j)` for subtree roots given by postorder numbers.
    #[inline]
    pub fn subtree_distance(&self, qi: NodeId, tj: NodeId) -> Cost {
        self.view().subtree_distance(qi, tj)
    }

    /// The distance between the whole query and the whole document.
    pub fn distance(&self) -> Cost {
        self.view().distance()
    }

    /// The last row: `δ(Q, T_j)` for every document subtree `T_j`
    /// (index 0 is padding). This is what TASM-dynamic ranks.
    pub fn query_row(&self) -> &[Cost] {
        self.view().query_row()
    }

    /// Number of document nodes `n` (columns minus padding).
    pub fn doc_len(&self) -> usize {
        self.view().doc_len()
    }
}

/// A borrowed tree distance matrix, as produced by the workspace-reusing
/// entry point [`ted_full_with_workspace`]. Same interpretation as
/// [`TreeDistances`], but the storage belongs to the [`TedWorkspace`]
/// (no allocation, invalidated by the next run).
#[derive(Debug, Clone, Copy)]
pub struct TreeDistancesView<'a> {
    td: &'a Matrix<Cost>,
}

impl<'a> TreeDistancesView<'a> {
    /// `δ(Q_i, T_j)` for subtree roots given by postorder numbers.
    #[inline]
    pub fn subtree_distance(&self, qi: NodeId, tj: NodeId) -> Cost {
        *self.td.get(qi.post() as usize, tj.post() as usize)
    }

    /// The distance between the whole query and the whole document.
    pub fn distance(&self) -> Cost {
        *self.td.get(self.td.rows() - 1, self.td.cols() - 1)
    }

    /// The last row: `δ(Q, T_j)` for every document subtree `T_j`
    /// (index 0 is padding; the borrow outlives the view itself).
    pub fn query_row(&self) -> &'a [Cost] {
        self.td.row(self.td.rows() - 1)
    }

    /// Number of document nodes `n` (columns minus padding).
    pub fn doc_len(&self) -> usize {
        self.td.cols() - 1
    }
}

/// The largest DP footprint, in bytes, that callers reading their trees
/// from untrusted input (the daemon's `QUERY`, the CLI's `ted`) accept
/// before refusing the request: 1 GiB. A larger matrix is not an error
/// of the algorithm, but its allocation failure aborts the process,
/// which no unwinding can catch.
pub const DP_BYTES_LIMIT: u64 = 1 << 30;

/// Bytes of the two `(m+1) × (n+1)` matrices (`td` and `fd`) one
/// distance between an `m`-node and an `n`-node tree fills, saturating.
pub fn dp_bytes(m: usize, n: usize) -> u64 {
    let cells = (m as u64 + 1).saturating_mul(n as u64 + 1);
    cells.saturating_mul(2 * std::mem::size_of::<Cost>() as u64)
}

/// Computes the tree edit distance `δ(Q, T)` (Def. 6).
///
/// # Examples
///
/// The paper's running example (Figs. 2 and 3): `δ(G, H) = 4` under unit
/// costs.
///
/// ```
/// use tasm_tree::{bracket, LabelDict};
/// use tasm_ted::{ted, Cost, UnitCost};
///
/// let mut dict = LabelDict::new();
/// let g = bracket::parse("{a{b}{c}}", &mut dict).unwrap();
/// let h = bracket::parse("{x{a{b}{d}}{a{b}{c}}}", &mut dict).unwrap();
/// assert_eq!(ted(&g, &h, &UnitCost), Cost::from_natural(4));
/// ```
pub fn ted(query: &Tree, doc: &Tree, model: &dyn CostModel) -> Cost {
    ted_full(query, doc, model, None).distance()
}

/// Computes the full tree distance matrix between `query` and `doc`
/// (all pairwise subtree distances).
///
/// If `stats` is provided, each document-side relevant subtree and the
/// forest-matrix work are recorded (Sec. VII-B instrumentation).
pub fn ted_full(
    query: &Tree,
    doc: &Tree,
    model: &dyn CostModel,
    stats: Option<&mut TedStats>,
) -> TreeDistances {
    let cq = NodeCosts::compute(query.view(), model);
    let ct = NodeCosts::compute(doc.view(), model);
    ted_full_with_costs(query, &cq, doc, &ct, stats)
}

/// As [`ted_full`], but with precomputed node costs (hot path for
/// TASM-dynamic invoked many times with the same query).
///
/// Allocates fresh matrices and keyroot decompositions per call; the
/// allocation-free path is [`ted_full_with_workspace`].
pub fn ted_full_with_costs(
    query: &Tree,
    query_costs: &NodeCosts,
    doc: &Tree,
    doc_costs: &NodeCosts,
    stats: Option<&mut TedStats>,
) -> TreeDistances {
    let m = query.len();
    let n = doc.len();
    let kq = keyroots(query);
    let kt = keyroots(doc);
    let q_lml: Vec<u32> = query.nodes().map(|id| query.lml(id).post()).collect();
    let t_lml: Vec<u32> = doc.nodes().map(|id| doc.lml(id).post()).collect();
    let q_del: Vec<Cost> = query
        .nodes()
        .map(|id| query_costs.del_ins(id.post()))
        .collect();
    let t_del: Vec<Cost> = doc.nodes().map(|id| doc_costs.del_ins(id.post())).collect();
    // td[i][j] = δ(Q_i, T_j); row/col 0 are padding so indexes are postorder.
    let mut td: Matrix<Cost> = Matrix::new(m + 1, n + 1);
    let mut fd: Matrix<Cost> = Matrix::new(m + 1, n + 1);
    fill_td(
        query.labels(),
        &kq,
        &q_lml,
        &q_del,
        query_costs.naturals(),
        doc.labels(),
        &kt,
        &t_lml,
        &t_del,
        doc_costs.naturals(),
        &mut td,
        &mut fd,
        stats,
    );
    TreeDistances { td }
}

/// The zero-allocation-steady-state entry point: computes the tree
/// distance matrix between the context's query and `doc` inside the
/// caller's [`TedWorkspace`].
///
/// The query-side decomposition comes precomputed from `ctx`
/// (once per query); the document-side keyroots, costs and both DP
/// matrices live in `ws` and are reused across calls
/// (grow-don't-shrink). After the workspace has seen its largest
/// document — or after [`TedWorkspace::reserve`] — a call performs **no
/// heap allocation**.
pub fn ted_full_with_workspace<'w>(
    ctx: &QueryContext<'_>,
    doc: &Tree,
    ws: &'w mut TedWorkspace,
    stats: Option<&mut TedStats>,
) -> TreeDistancesView<'w> {
    ted_view_with_workspace(ctx, doc.view(), ws, stats)
}

/// As [`ted_full_with_workspace`], but over a borrowed [`TreeView`] of
/// the document — the zero-copy entry point of the scan-engine
/// evaluation layer. A proper subtree of a ring-buffer candidate is a
/// contiguous slice of the candidate arena, so the DP runs directly on
/// that slice; no scratch-tree copy is made for any evaluated subtree.
pub fn ted_view_with_workspace<'w>(
    ctx: &QueryContext<'_>,
    doc: TreeView<'_>,
    ws: &'w mut TedWorkspace,
    stats: Option<&mut TedStats>,
) -> TreeDistancesView<'w> {
    let m = ctx.len();
    let n = doc.len();
    ws.prepare(doc, ctx.model());
    // Stale reset: every cell the DP reads is written first — `fd` border
    // and interior are initialized per keyroot pair, and `td[i][j]` reads
    // in the forest case refer to pairs persisted earlier in this same
    // run (the Zhang–Shasha keyroot-ordering invariant) — so the
    // O(m·n) zero-fill is skipped along with the allocation.
    ws.td.reset_stale(m + 1, n + 1);
    ws.fd.reset_stale(m + 1, n + 1);
    fill_td(
        ctx.query().labels(),
        ctx.keyroots(),
        ctx.lml_array(),
        ctx.del_array(),
        ctx.costs().naturals(),
        doc.labels(),
        &ws.doc_keyroots,
        &ws.doc_lml,
        &ws.doc_del_ins,
        ws.doc_costs.naturals(),
        &mut ws.td,
        &mut ws.fd,
        stats,
    );
    TreeDistancesView { td: &ws.td }
}

/// The row-level, kernel-dispatching seam of the TASM evaluation layer:
/// computes `δ(Q, T_j)` for **every** subtree `T_j` of `doc` — the last
/// row of the tree distance matrix, indexed by original document
/// postorder with index 0 as padding — using whichever decomposition
/// path the context resolved to.
///
/// * Left path: the classic [`ted_view_with_workspace`] run; the row is
///   borrowed straight from the `td` matrix.
/// * Right path: the same Zhang–Shasha DP over the *mirrored* arenas
///   (tree edit distance is invariant under mirroring both trees, and a
///   mirrored arena is just an `O(n)` permutation — see
///   [`TedKernel`](crate::TedKernel)), then the query row is permuted
///   back to original postorder into the workspace's `row_out` buffer.
///
/// Zero heap allocation once the workspace capacity covers the largest
/// candidate (or after [`TedWorkspace::reserve`] /
/// [`TedWorkspace::reserve_mirror`]).
pub fn ted_row_with_workspace<'w>(
    ctx: &QueryContext<'_>,
    doc: TreeView<'_>,
    ws: &'w mut TedWorkspace,
    stats: Option<&mut TedStats>,
) -> &'w [Cost] {
    match ctx.path() {
        DecompPath::Left => ted_view_with_workspace(ctx, doc, ws, stats).query_row(),
        DecompPath::Right => {
            let m = ctx.len();
            let n = doc.len();
            ws.prepare_mirror(doc, ctx.model());
            ws.td.reset_stale(m + 1, n + 1);
            ws.fd.reset_stale(m + 1, n + 1);
            let mq = ctx.mirror().expect("right path carries a mirrored query");
            fill_td(
                &mq.labels,
                &mq.keyroots,
                &mq.lml,
                &mq.del,
                &mq.nat,
                &ws.mir_labels,
                &ws.mir_keyroots,
                &ws.mir_lml,
                &ws.mir_del,
                &ws.mir_nat,
                &mut ws.td,
                &mut ws.fd,
                stats,
            );
            // td[m][mir(p)] is δ(mirror(Q), mirror(T)_mir(p)) =
            // δ(Q, T_p): permute the row back to original postorder.
            let row = ws.td.row(m);
            ws.row_out.clear();
            ws.row_out.push(Cost::ZERO); // index 0 is padding
            ws.row_out
                .extend(ws.mir_of_post.iter().map(|&j| row[j as usize]));
            &ws.row_out
        }
    }
}

/// As [`ted`], but with an explicit [`TedKernel`](crate::TedKernel)
/// selection — the entry point the differential and property suites use
/// to pin a decomposition path and prove `zs == strategy` equality.
pub fn ted_with_kernel(
    query: &Tree,
    doc: &Tree,
    model: &dyn CostModel,
    kernel: crate::TedKernel,
) -> Cost {
    let ctx = QueryContext::with_kernel(query, model, kernel);
    let mut ws = TedWorkspace::new();
    let row = ted_row_with_workspace(&ctx, doc.view(), &mut ws, None);
    row[doc.len()]
}

/// As [`ted`], but reusing the caller's [`TedWorkspace`] for the DP
/// matrices and document-side buffers. For many distances against the
/// same query, hoist a [`QueryContext`] and use
/// [`ted_full_with_workspace`] instead.
pub fn ted_with_workspace(
    query: &Tree,
    doc: &Tree,
    model: &dyn CostModel,
    ws: &mut TedWorkspace,
) -> Cost {
    let ctx = QueryContext::new(query, model);
    ted_full_with_workspace(&ctx, doc, ws, None).distance()
}

/// The Zhang–Shasha dynamic program over prepared inputs (the shared
/// core of all public entry points).
///
/// Fully symmetric over plain postorder slices, so the same code runs
/// both decomposition paths: the left path passes the original arenas,
/// the right path passes the mirrored ones (mirrored postorder arrays
/// are postorder arrays of the mirrored trees, nothing else changes).
///
/// `td`/`fd` must be `(m+1) × (n+1)`; their prior content is irrelevant
/// (see the stale-reset note in [`ted_full_with_workspace`]).
#[allow(clippy::too_many_arguments)]
fn fill_td(
    q_labels: &[LabelId],
    kq: &[NodeId],
    q_lml: &[u32],
    q_del: &[Cost],
    q_nat: &[u64],
    t_labels: &[LabelId],
    kt: &[NodeId],
    t_lml: &[u32],
    t_del: &[Cost],
    t_nat: &[u64],
    td: &mut Matrix<Cost>,
    fd: &mut Matrix<Cost>,
    stats: Option<&mut TedStats>,
) {
    let m = q_labels.len();
    let n = t_labels.len();
    debug_assert_eq!(q_nat.len(), m);
    debug_assert_eq!(t_nat.len(), n);
    assert_eq!(q_del.len(), m, "query del/ins cost array length mismatch");
    assert_eq!(t_del.len(), n, "del/ins cost array length mismatch");
    // Keyroots are ascending and end at the root, so every postorder
    // index visited below is bounded by m (query side) / n (doc side).
    debug_assert_eq!(kq.last().map(|k| k.post() as usize), Some(m));
    debug_assert_eq!(kt.last().map(|k| k.post() as usize), Some(n));

    // Index guard for the matrix access below (kept in release builds;
    // O(m + n) against the O(|kq|·|kt|·m·n) DP). `Matrix` checks only
    // the flat index `r * cols + c`, so an out-of-range column would
    // silently alias a cell of another row. Every index is derived from
    // `lml` values, which for any *range-valid* encoding
    // (1 <= lml(i) <= i, i.e. 1 <= size(i) <= i) stay inside the
    // (m+1) × (n+1) matrices — so a structurally inconsistent tree built
    // via the debug-assert-only unchecked constructors yields a wrong
    // distance or this panic, never a cell aliased across rows.
    assert_eq!(q_lml.len(), m, "query lml array length mismatch");
    assert_eq!(t_lml.len(), n, "document lml array length mismatch");
    assert_eq!((td.rows(), td.cols()), (m + 1, n + 1));
    assert_eq!((fd.rows(), fd.cols()), (m + 1, n + 1));
    for (idx, &l) in q_lml.iter().enumerate() {
        assert!(
            l >= 1 && l as usize <= idx + 1,
            "invalid query lml at postorder {}",
            idx + 1
        );
    }
    for (idx, &l) in t_lml.iter().enumerate() {
        assert!(
            l >= 1 && l as usize <= idx + 1,
            "invalid document lml at postorder {}",
            idx + 1
        );
    }

    if let Some(s) = stats {
        s.record_call();
        // Keyroot subtree sizes are recoverable from the lml arrays:
        // size(k) = post(k) − lml(k) + 1.
        for &k in kt {
            s.record_relevant(k.post() - t_lml[k.index()] + 1);
        }
        let qwork: u64 = kq
            .iter()
            .map(|&k| u64::from(k.post() - q_lml[k.index()] + 1))
            .sum();
        let twork: u64 = kt
            .iter()
            .map(|&k| u64::from(k.post() - t_lml[k.index()] + 1))
            .sum();
        s.record_cells(qwork * twork);
    }

    // The padding cell of the exposed query row (`query_row()[0]`) is
    // never written by the DP; pin it so the stale-reset workspace path
    // exposes the same content as the zero-filled fresh path.
    td.set(m, 0, Cost::ZERO);

    for &q_key in kq {
        let lq = q_lml[q_key.index()] as usize; // leftmost leaf of Q_kq
        let q_hi = q_key.post() as usize;
        for &t_key in kt {
            let lt = t_lml[t_key.index()] as usize;
            let t_hi = t_key.post() as usize;

            // Forest distance table, absolute-indexed: fd[i][j] is the
            // distance between pfx(Q_kq, i) and pfx(T_kt, j), where
            // row/col `lq-1` / `lt-1` represent the empty forest. Only
            // the rectangle of the current pair is touched.

            // Empty-vs-empty.
            fd.set(lq - 1, lt - 1, Cost::ZERO);
            // First column: delete all query prefix nodes.
            for i in lq..=q_hi {
                let v = *fd.get(i - 1, lt - 1) + q_del[i - 1];
                fd.set(i, lt - 1, v);
            }
            // First row: insert all document prefix nodes.
            for j in lt..=t_hi {
                let v = *fd.get(lq - 1, j - 1) + t_del[j - 1];
                fd.set(lq - 1, j, v);
            }

            for i in lq..=q_hi {
                let lqi = q_lml[i - 1] as usize;
                let del_i = q_del[i - 1];
                if lqi == lq {
                    // Q-prefix is a whole subtree: cells split on
                    // whether the T-prefix is one too.
                    let q_label = q_labels[i - 1];
                    let q_nat_i = q_nat[i - 1];
                    for j in lt..=t_hi {
                        let ltj = t_lml[j - 1] as usize;
                        let del = *fd.get(i - 1, j) + del_i;
                        let ins = *fd.get(i, j - 1) + t_del[j - 1];
                        if ltj == lt {
                            // Both prefixes are whole subtrees: the
                            // match case is a rename, and the value
                            // is a tree distance.
                            let ren = *fd.get(i - 1, j - 1)
                                + rename_cost(q_label, q_nat_i, t_labels[j - 1], t_nat[j - 1]);
                            let v = del.min(ins).min(ren);
                            fd.set(i, j, v);
                            td.set(i, j, v);
                        } else {
                            let sub = *fd.get(lq - 1, ltj - 1) + *td.get(i, j);
                            let v = del.min(ins).min(sub);
                            fd.set(i, j, v);
                        }
                    }
                } else {
                    // General forests throughout this row: match the
                    // whole subtrees via the persisted tree distance.
                    for j in lt..=t_hi {
                        let ltj = t_lml[j - 1] as usize;
                        let del = *fd.get(i - 1, j) + del_i;
                        let ins = *fd.get(i, j - 1) + t_del[j - 1];
                        let sub = *fd.get(lqi - 1, ltj - 1) + *td.get(i, j);
                        let v = del.min(ins).min(sub);
                        fd.set(i, j, v);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::UnitCost;
    use tasm_tree::{bracket, LabelDict};

    fn parse2(q: &str, t: &str) -> (Tree, Tree) {
        let mut d = LabelDict::new();
        let q = bracket::parse(q, &mut d).unwrap();
        let t = bracket::parse(t, &mut d).unwrap();
        (q, t)
    }

    fn unit(q: &str, t: &str) -> u64 {
        let (q, t) = parse2(q, t);
        let c = ted(&q, &t, &UnitCost);
        assert_eq!(c.halves() % 2, 0, "unit-cost distance must be integral");
        c.floor_natural()
    }

    #[test]
    fn identical_trees_have_distance_zero() {
        assert_eq!(unit("{a{b}{c}}", "{a{b}{c}}"), 0);
        assert_eq!(unit("{a}", "{a}"), 0);
    }

    #[test]
    fn single_rename() {
        assert_eq!(unit("{a}", "{b}"), 1);
        assert_eq!(unit("{a{b}{c}}", "{a{b}{x}}"), 1);
        assert_eq!(unit("{a{b}{c}}", "{x{b}{c}}"), 1);
    }

    #[test]
    fn single_insert_or_delete() {
        assert_eq!(unit("{a{b}}", "{a{b}{c}}"), 1); // insert leaf c
        assert_eq!(unit("{a{b}{c}}", "{a{b}}"), 1); // delete leaf c
        assert_eq!(unit("{a{c}}", "{a{b{c}}}"), 1); // insert inner b
    }

    #[test]
    fn paper_example_distance_is_4() {
        // Fig. 3: td[G3][H7] = 4.
        assert_eq!(unit("{a{b}{c}}", "{x{a{b}{d}}{a{b}{c}}}"), 4);
    }

    #[test]
    fn paper_example_full_matrix_fig_3() {
        let (g, h) = parse2("{a{b}{c}}", "{x{a{b}{d}}{a{b}{c}}}");
        let td = ted_full(&g, &h, &UnitCost, None);
        let expected: [[u64; 7]; 3] = [
            [0, 1, 2, 0, 1, 2, 6],
            [1, 1, 3, 1, 0, 2, 6],
            [2, 3, 1, 2, 2, 0, 4],
        ];
        for (i, row) in expected.iter().enumerate() {
            for (j, &want) in row.iter().enumerate() {
                let got = td.subtree_distance(NodeId::new(i as u32 + 1), NodeId::new(j as u32 + 1));
                assert_eq!(got, Cost::from_natural(want), "td[G{}][H{}]", i + 1, j + 1);
            }
        }
        assert_eq!(td.distance(), Cost::from_natural(4));
        // query_row is the last row of Fig. 3.
        let row: Vec<u64> = td.query_row()[1..]
            .iter()
            .map(|c| c.floor_natural())
            .collect();
        assert_eq!(row, vec![2, 3, 1, 2, 2, 0, 4]);
    }

    #[test]
    fn structure_matters_not_just_labels() {
        // {a{b{c}}} -> {a{b}{c}}: move c from child-of-b to sibling: one
        // delete + one insert? No — deleting c and inserting c = 2, but a
        // single "move" is not an edit operation; ZS gives 2? Actually
        // deleting b and inserting b also works: 2. Distance must be 2.
        assert_eq!(unit("{a{b{c}}}", "{a{b}{c}}"), 2);
    }

    #[test]
    fn completely_disjoint_trees() {
        // No common labels: delete all of Q (3), insert all of T (3)... but
        // renames are cheaper: 3 renames when shapes match.
        assert_eq!(unit("{a{b}{c}}", "{x{y}{z}}"), 3);
        // Shapes differ: {a{b}} vs {x{y}{z}}: rename 2 + insert 1 = 3.
        assert_eq!(unit("{a{b}}", "{x{y}{z}}"), 3);
    }

    #[test]
    fn distance_to_single_node() {
        // Keep the a-node, delete 2.
        assert_eq!(unit("{a}", "{a{b}{c}}"), 2);
        // Rename + delete 2.
        assert_eq!(unit("{z}", "{a{b}{c}}"), 3);
    }

    #[test]
    fn symmetric_for_unit_costs() {
        let cases = [
            ("{a{b}{c}}", "{x{a{b}{d}}{a{b}{c}}}"),
            ("{a{b{c}{d}}{e}}", "{a{b}{c{d}{e}}}"),
            ("{p{q}{r{s}}}", "{p{r{s}}{q}}"),
        ];
        for (x, y) in cases {
            assert_eq!(unit(x, y), unit(y, x), "{x} vs {y}");
        }
    }

    #[test]
    fn deep_vs_wide() {
        // Path a(b(c(d))) vs star a(b,c,d). Any mapping keeping a->a and
        // b->b violates the ancestor condition for c and d (descendants of
        // b in the path, siblings of b in the star), so besides a->a and
        // b->b everything is delete+insert: distance 4.
        assert_eq!(unit("{a{b{c{d}}}}", "{a{b}{c}{d}}"), 4);
    }

    #[test]
    fn half_unit_rename_costs() {
        use crate::cost::PerLabelCost;
        let mut d = LabelDict::new();
        let q = bracket::parse("{a}", &mut d).unwrap();
        let t = bracket::parse("{b}", &mut d).unwrap();
        let a = d.get("a").unwrap();
        // cst(a) = 2, cst(b) = 1 => rename = 1.5.
        let model = PerLabelCost::new(1).with(a, 2);
        assert_eq!(ted(&q, &t, &model), Cost::from_halves(3));
    }

    #[test]
    fn fanout_weighted_prefers_leaf_edits() {
        use crate::cost::FanoutWeighted;
        let mut d = LabelDict::new();
        // Q: a(b, c); T: a(b, c, d) — inserting leaf d costs base.
        let q = bracket::parse("{a{b}{c}}", &mut d).unwrap();
        let t = bracket::parse("{a{b}{c}{d}}", &mut d).unwrap();
        let model = FanoutWeighted {
            base: 1,
            weight: 10,
        };
        assert_eq!(ted(&q, &t, &model), Cost::from_natural(1));
    }

    #[test]
    fn stats_record_document_keyroots() {
        let (g, h) = parse2("{a{b}{c}}", "{x{a{b}{d}}{a{b}{c}}}");
        let mut st = TedStats::new();
        ted_full(&g, &h, &UnitCost, Some(&mut st));
        // Document keyroots: H2 (1), H5 (1), H6 (3), H7 (7) — Example 1.
        assert_eq!(st.total_relevant(), 4);
        assert_eq!(st.relevant_by_size[&1], 2);
        assert_eq!(st.relevant_by_size[&3], 1);
        assert_eq!(st.relevant_by_size[&7], 1);
        assert_eq!(st.ted_calls, 1);
        // Q keyroot sizes {1,3}, T {1,1,3,7} -> cells = 4 * 12 = 48.
        assert_eq!(st.fd_cells, 48);
    }

    #[test]
    fn large_random_smoke() {
        // A fixed pseudo-random tree pair; checks triangle vs identity
        // lightly and that nothing panics at a few hundred nodes.
        let mut d = LabelDict::new();
        let mut s = String::from("{r");
        for i in 0..120 {
            s.push_str(&format!("{{n{}{{x}}{{y}}}}", i % 7));
        }
        s.push('}');
        let t = bracket::parse(&s, &mut d).unwrap();
        let q = bracket::parse("{n3{x}{y}}", &mut d).unwrap();
        let dist = ted(&q, &t, &UnitCost);
        assert!(dist > Cost::ZERO);
        // Lemma 3: |T| <= δ + |Q|.
        assert!(t.len() as u64 <= dist.floor_natural() + q.len() as u64);
        assert_eq!(ted(&t, &t, &UnitCost), Cost::ZERO);
    }
}
