//! Experiment harness and benchmarks for the TASM reproduction.
//!
//! * [`harness`] — one function per figure of the paper's Sec. VII
//!   (Figs. 9a–c, 10, 11a–c, 12) plus two ablations; driven by the
//!   `experiments` binary.
//! * [`alloc`] — a counting global allocator for the Fig. 10 memory
//!   experiment and the zero-allocation regression tests.
//!
//! Criterion micro-benchmarks live in `benches/`. End-to-end speed is
//! measured by `perfbench/` (daemon workloads with checked answers); its
//! snapshots are appended to `BENCH_tasm.json` by
//! `scripts/bench_record.py`.

// `alloc` wraps the system allocator, which requires `unsafe`; everything
// else in the workspace forbids it.
#![warn(missing_docs)]

pub mod alloc;
pub mod harness;
