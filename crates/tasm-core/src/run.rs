//! The run parameters every driver shares.

use std::time::Instant;

use crate::tasm_dynamic::TasmOptions;
use tasm_ted::{CostModel, UnitCost};

/// How a driver runs Algorithm 3: the cost model and document cost
/// bound behind Theorem 3's `τ = |Q|(c_Q + 1) + k·c_T`, the
/// [`TasmOptions`], the thread count, the deadline and whether to
/// collect distance statistics.
///
/// [`Default`] is the unit cost model with `c_t = 1`, default options,
/// one thread, no deadline and no statistics; override fields with
/// struct-update syntax:
///
/// ```
/// use tasm_core::Run;
///
/// let run = Run { threads: 4, ted_stats: true, ..Run::default() };
/// assert_eq!(run.c_t, 1);
/// ```
#[derive(Clone, Copy)]
pub struct Run<'m> {
    /// The cost model of both trees.
    pub model: &'m (dyn CostModel + Sync),
    /// The maximum node cost of the document under `model` (Theorem 3
    /// needs it up front; under [`UnitCost`] it is 1). A smaller value
    /// makes the threshold unsound.
    pub c_t: u64,
    /// Pruning, kernel and match-copy switches.
    pub opts: TasmOptions,
    /// Worker threads; `0` means one per available core.
    pub threads: usize,
    /// When the run must give up. An expired run fails with
    /// [`DeadlineExceeded`](crate::DeadlineExceeded) and returns no
    /// partial ranking; each worker polls the expiry (strided) once per
    /// candidate or unit it pulls.
    pub deadline: Option<Instant>,
    /// Whether the output carries [`TedStats`](tasm_ted::TedStats)
    /// summed over every distance computation of the run. Off by
    /// default: collecting them costs time per candidate.
    pub ted_stats: bool,
}

impl Default for Run<'_> {
    fn default() -> Self {
        Run {
            model: &UnitCost,
            c_t: 1,
            opts: TasmOptions::default(),
            threads: 1,
            deadline: None,
            ted_stats: false,
        }
    }
}

impl std::fmt::Debug for Run<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Run")
            .field("c_t", &self.c_t)
            .field("opts", &self.opts)
            .field("threads", &self.threads)
            .field("deadline", &self.deadline)
            .field("ted_stats", &self.ted_stats)
            .finish_non_exhaustive()
    }
}

impl Run<'_> {
    /// The thread count with `0` resolved to one per available core.
    pub(crate) fn workers(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}
