//! The evaluation workspace threaded through the TASM matching stack.
//!
//! TASM-postorder's guarantee (Theorem 5) is document-independent memory
//! in a single pass — yet a naive implementation re-allocates on every
//! candidate: a fresh candidate tree from the ring buffer, a fresh
//! subtree copy per evaluated root, fresh cost arrays, keyroot vectors
//! and DP matrices inside Zhang–Shasha. [`TasmWorkspace`] owns every one
//! of those buffers and is reused across calls. Every driver evaluates
//! through a [`LaneSet`](crate::lane::LaneSet) that borrows the
//! workspace's [`LaneScratch`] and reserves it up front for the widest
//! candidate the Theorem 3 bound τ admits, so the candidate loop of the
//! shared scan, the index's region loop and the corpus's shard loop
//! perform **zero heap allocations** once the workspace is warm —
//! verified by the counting-allocator regression tests in `tasm-bench`.

use crate::engine::{ScanEngine, ScanStats};
use tasm_ted::{CascadeScratch, TedWorkspace};

/// Reusable scratch state for every driver: [`tasm_postorder`](crate::tasm_postorder),
/// [`tasm_batch`](crate::tasm_batch), [`tasm_indexed_batch`](crate::tasm_indexed_batch),
/// [`tasm_corpus_batch`](crate::tasm_corpus_batch) and
/// [`tasm_dynamic`](crate::tasm_dynamic).
///
/// Create once (per stream, or per daemon worker) and pass `&mut` to
/// the drivers. All buffers grow but never shrink. The scan layer — the
/// [`ScanEngine`] with its candidate arena — lives inside the
/// workspace, so workspace reuse also amortizes the scan warm-up.
/// Evaluated subtrees are zero-copy [`TreeView`](tasm_tree::TreeView)
/// slices of that arena or of the resident document. Above one thread,
/// the calling thread's share of the work runs on this workspace and
/// every other worker on its own.
#[derive(Debug)]
pub struct TasmWorkspace {
    /// The scan layer: ring-buffer pass plus the candidate arena.
    pub(crate) engine: ScanEngine,
    /// What the lanes evaluate with.
    pub(crate) eval: LaneScratch,
    /// Scan + pruning-funnel statistics of the most recent run.
    pub(crate) last_scan: ScanStats,
}

/// The evaluation scratch a [`LaneSet`](crate::lane::LaneSet) borrows:
/// the lower-bound cascade scratch (histogram counters, SED rows; only
/// one lane checks at a time, so every lane shares it) and one
/// distance-side workspace per query lane (DP matrices, doc keyroots,
/// doc costs), grown to the widest batch seen.
#[derive(Debug, Default)]
pub(crate) struct LaneScratch {
    pub(crate) lb: CascadeScratch,
    pub(crate) teds: Vec<TedWorkspace>,
}

impl Default for TasmWorkspace {
    fn default() -> Self {
        TasmWorkspace::new()
    }
}

impl TasmWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        TasmWorkspace {
            engine: ScanEngine::new(1),
            eval: LaneScratch::default(),
            last_scan: ScanStats::default(),
        }
    }

    /// The scan and pruning-funnel statistics of the most recent
    /// [`tasm_postorder_with_workspace`](crate::tasm_postorder_with_workspace),
    /// one-thread [`tasm_batch`](crate::tasm_batch) or
    /// [`tasm_dynamic_with_workspace`](crate::tasm_dynamic_with_workspace)
    /// run through this workspace (aggregated over all query lanes).
    pub fn last_scan_stats(&self) -> ScanStats {
        self.last_scan
    }
}

/// Upper bound on the up-front scratch reservation of the evaluation
/// lanes (64 MiB): a pathological τ (e.g. saturated by a huge `k`)
/// falls back to on-demand growth, which still reaches the same steady
/// state.
pub const RESERVE_CAP_BYTES: usize = 64 << 20;

/// Whether the DP matrices for an `m`-node query against `n`-node
/// documents (`2 · (m+1) · (n+1)` cells) fit [`RESERVE_CAP_BYTES`].
pub(crate) fn matrices_fit_cap(m: usize, n: usize) -> bool {
    let cells = 2u128 * (m as u128 + 1) * (n as u128 + 1);
    cells * std::mem::size_of::<tasm_ted::Cost>() as u128 <= RESERVE_CAP_BYTES as u128
}

/// Whether an `O(n)` candidate buffer (scratch tree or cascade
/// scratch, 8 bytes per node) fits [`RESERVE_CAP_BYTES`] — guards a
/// saturated τ.
pub(crate) fn scratch_fits_cap(n: usize) -> bool {
    n.saturating_mul(8) <= RESERVE_CAP_BYTES
}
