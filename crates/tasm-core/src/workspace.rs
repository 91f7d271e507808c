//! The evaluation workspace threaded through the TASM matching stack.
//!
//! TASM-postorder's guarantee (Theorem 5) is document-independent memory
//! in a single pass — yet a naive implementation re-allocates on every
//! candidate: a fresh candidate tree from the ring buffer, a fresh
//! subtree copy per evaluated root, fresh cost arrays, keyroot vectors
//! and DP matrices inside Zhang–Shasha. [`TasmWorkspace`] owns every one
//! of those buffers and is reused across the whole stream, so after
//! warm-up (or up front, via [`TasmWorkspace::reserve`] with the
//! Theorem 3 bound τ) the candidate loop performs **zero heap
//! allocations** — verified by the counting-allocator regression test in
//! `tasm-bench`.

use crate::engine::{ScanEngine, ScanStats};
use tasm_ted::{CascadeScratch, TedWorkspace};

/// Reusable scratch state for [`tasm_postorder`](crate::tasm_postorder)
/// and [`tasm_dynamic`](crate::tasm_dynamic).
///
/// Create once (per stream, or per thread for sharded streams) and pass
/// `&mut` to the `_with_workspace` entry points. All buffers grow but
/// never shrink. The scan layer — the [`ScanEngine`] with its candidate
/// scratch tree — lives inside the workspace, so workspace reuse also
/// amortizes the scan warm-up. Evaluated subtrees are zero-copy
/// [`TreeView`](tasm_tree::TreeView) slices of the engine's candidate
/// arena, so no per-subtree scratch tree exists anymore.
#[derive(Debug)]
pub struct TasmWorkspace {
    /// Distance-side scratch: DP matrices, doc keyroots, doc costs.
    pub(crate) ted: TedWorkspace,
    /// The scan layer: ring-buffer pass plus the scratch tree candidates
    /// are renumbered into.
    pub(crate) engine: ScanEngine,
    /// Lower-bound cascade scratch (histogram counters, SED rows).
    pub(crate) lb: CascadeScratch,
    /// Scan + pruning-funnel statistics of the most recent run.
    pub(crate) last_scan: ScanStats,
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
            ted: TedWorkspace::new(),
            engine: ScanEngine::new(1),
            lb: CascadeScratch::new(),
            last_scan: ScanStats::default(),
        }
    }

    /// Pre-reserves all buffers for an `m`-node query and candidates of
    /// up to `tau` nodes (the Theorem 3 bound), so that not even the
    /// first candidate allocates. Also re-targets the embedded
    /// [`ScanEngine`] to `tau`.
    ///
    /// The DP matrices need `2 · (m+1) · (tau+1)` cells; to keep a
    /// pathological τ (e.g. saturated by a huge `k`) from reserving
    /// gigabytes up front, reservations above [`RESERVE_CAP_BYTES`] fall
    /// back to on-demand growth, which still reaches the same
    /// steady state.
    pub fn reserve(&mut self, m: usize, tau: u32) {
        self.engine.set_tau(tau);
        let n = tau as usize;
        if matrices_fit_cap(m, n) {
            self.ted.reserve(m, n);
            self.engine.reserve();
            self.lb.reserve(m, n);
        }
    }

    /// Pre-reserves the mirrored-document buffers of the right-path
    /// (strategy) TED kernel for candidates of up to `tau` nodes, under
    /// the same byte cap as [`reserve`](Self::reserve). Separate from
    /// `reserve` so pure left-path runs never pay the extra `O(τ)`
    /// buffers; the drivers call it when the query's resolved kernel is
    /// the strategy kernel
    /// ([`QueryContext::uses_strategy_kernel`](tasm_ted::QueryContext::uses_strategy_kernel)).
    pub fn reserve_mirror(&mut self, tau: u32) {
        let n = tau as usize;
        if scratch_fits_cap(n) {
            self.ted.reserve_mirror(n);
        }
    }

    /// Access to the inner distance workspace (e.g. for standalone
    /// [`ted_full_with_workspace`](tasm_ted::ted_full_with_workspace)
    /// calls sharing the same buffers).
    pub fn ted_mut(&mut self) -> &mut TedWorkspace {
        &mut self.ted
    }

    /// The scan and pruning-funnel statistics of the most recent
    /// [`tasm_postorder_with_workspace`](crate::tasm_postorder_with_workspace)
    /// (or `tasm_dynamic_with_workspace`) run through this workspace.
    pub fn last_scan_stats(&self) -> ScanStats {
        self.last_scan
    }
}

/// Upper bound on the up-front matrix reservation of
/// [`TasmWorkspace::reserve`] (64 MiB).
pub const RESERVE_CAP_BYTES: usize = 64 << 20;

/// Whether the DP matrices for an `m`-node query against `n`-node
/// documents (`2 · (m+1) · (n+1)` cells) fit [`RESERVE_CAP_BYTES`].
/// The single reservation-policy predicate shared by the sequential
/// and batch workspaces.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_caps_pathological_tau() {
        let mut ws = TasmWorkspace::new();
        // Would be ~64 GiB of matrices; must not reserve.
        ws.reserve(64, u32::MAX);
        // And a sane bound reserves fine.
        ws.reserve(8, 1000);
    }
}
