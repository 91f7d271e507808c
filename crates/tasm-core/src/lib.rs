//! TASM: Top-k Approximate Subtree Matching (Augsten, Böhlen, Barbosa,
//! Palpanas — ICDE 2010).
//!
//! Given a small query tree `Q` and a large document tree `T`, find the `k`
//! subtrees of `T` closest to `Q` under the tree edit distance (Def. 1).
//! This crate implements the paper's contribution:
//!
//! * [`threshold`] — the query-only upper bound
//!   `τ = |Q|(c_Q + 1) + k·c_T` on answer subtree sizes (Theorem 3);
//! * [`PrefixRingBuffer`] / [`prb_pruning`] — candidate-set computation in
//!   one postorder scan with `O(τ)` memory (Sec. V, Algorithms 1–2);
//! * [`tasm_postorder`] — the single-pass, document-size-independent-memory
//!   TASM algorithm (Algorithm 3);
//! * [`tasm_dynamic`] — the state-of-the-art baseline (Sec. IV-F) and
//!   [`tasm_naive`] — the ground-truth oracle;
//! * [`simple_pruning`] — the O(n)-buffer pruning baseline of Sec. V-B;
//! * [`ScanEngine`] / [`CandidateSink`] — the streaming scan layer the
//!   algorithms above are built on, reusable for custom evaluations.
//!
//! Around the paper's algorithms sit four **drivers**, one per kind of
//! document source. Each takes `(queries, source, &Run, &mut
//! TasmWorkspace)`: a batch of queries, the document source, the
//! [`Run`] parameters (cost model and `c_t`, [`TasmOptions`], thread
//! count with `0` = one per available core, an optional deadline, and
//! whether to collect distance statistics) and a caller-kept
//! [`TasmWorkspace`]. Each returns rankings plus statistics, with the
//! distance statistics in the output when the run asked for them:
//!
//! * [`tasm_batch`] — a postorder **queue**: an XML or `.pq` stream (or
//!   a [`TreeQueue`](tasm_tree::TreeQueue) replay, which the paper's
//!   algorithms and reference runs use). At one thread the N queries
//!   share **one** inline scan; above one, the scan hands candidate
//!   segments to worker threads, so the document is never materialized
//!   and memory stays `O(threads · τ + Σ m_i²)`;
//! * [`tasm_resident_batch`] — a resident **tree**: no ring buffer. The
//!   candidate set is read off the tree's subtree-size column by a
//!   reverse sweep ([`CandidateSweep`](tasm_tree::CandidateSweep)), and
//!   workers pull postorder blocks from one shared cursor, sweeping
//!   each and evaluating its candidates in place as views of the tree;
//! * [`tasm_indexed_batch`] — a persistent `.pqi` label **index**
//!   ([`IndexedDocument`](tasm_index::IndexedDocument)): candidate
//!   regions come from the same sweep, the label postings bound each
//!   region before it is evaluated, and workers pull the regions in
//!   promise order through the same loop as the resident driver;
//! * [`tasm_corpus_batch`] — a crash-safe multi-shard **corpus**
//!   ([`Corpus`](tasm_index::Corpus)): workers pull the healthy shards
//!   through the same loop, each shard answers via the index path, and
//!   the per-shard rankings merge on a
//!   deterministic corpus rank key, with quarantined shards surfaced as
//!   an explicit `healthy/total` degraded marker ([`CorpusStatus`]).
//!
//! Every driver returns, per query, exactly the ranking of
//! [`tasm_postorder`] (pinned against [`tasm_naive`] by the
//! differential matrix in `tests/differential.rs`).

//! Between the scan and every evaluation sits the admissible
//! lower-bound **pruning cascade**
//! ([`LowerBoundCascade`](tasm_ted::LowerBoundCascade)): once the top-k
//! heap is full, each in-bound subtree is first tested against the
//! current cutoff `max(R)` with a label-histogram deficit and a banded
//! substring edit distance; refuted subtrees never reach the `O(m²·n²)`
//! DP, and surviving ones are evaluated zero-copy as
//! [`TreeView`](tasm_tree::TreeView) slices of the candidate arena.
//! [`ScanStats`] reports the per-tier funnel.
//!
//! # Quick start
//!
//! ```
//! use tasm_tree::{bracket, LabelDict, TreeQueue};
//! use tasm_ted::UnitCost;
//! use tasm_core::{tasm_postorder, TasmOptions};
//!
//! let mut dict = LabelDict::new();
//! let query = bracket::parse("{article{auth}{title}}", &mut dict).unwrap();
//! let doc = bracket::parse(
//!     "{dblp{article{auth{John}}{title{X1}}}{book{title{X2}}}}",
//!     &mut dict,
//! ).unwrap();
//!
//! let mut stream = TreeQueue::new(&doc); // any postorder queue works
//! let top1 = tasm_postorder(&query, &mut stream, 1, &UnitCost, 1,
//!                           TasmOptions::default(), None);
//! assert_eq!(top1[0].root.post(), 5); // the article subtree
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod corpus;
mod deadline;
mod engine;
mod lane;
mod naive;
mod ranking;
mod resident;
mod ring_buffer;
mod run;
mod simple_pruning;
mod stream_shard;
mod tasm_dynamic;
mod tasm_postorder;
mod threshold;
mod workspace;

pub use batch::{
    tasm_batch, tasm_batch_with_workspace, BatchOutput, BatchQuery, BatchWorkspace,
    StreamIntegrityError, StreamScanError,
};
pub use corpus::{
    tasm_corpus_batch, tasm_corpus_batch_with_stats, CorpusBatchOutput, CorpusMatch,
    CorpusShardStats, CorpusStatus,
};
pub use deadline::DeadlineExceeded;
pub use engine::{CandidateSink, ScanEngine, ScanStats};
pub use naive::tasm_naive;
pub use ranking::{Match, TopKHeap};
pub use resident::{tasm_indexed_batch, tasm_resident_batch};
pub use ring_buffer::{
    candidate_set_reference, prb_pruning, prb_pruning_stats, Candidate, PrefixRingBuffer,
    PruningStats,
};
pub use run::Run;
pub use simple_pruning::simple_pruning;
pub use tasm_dynamic::{tasm_dynamic, tasm_dynamic_with_workspace, TasmOptions};
pub use tasm_postorder::{tasm_postorder, tasm_postorder_with_workspace};
pub use tasm_ted::TedKernel;
pub use threshold::{refined_threshold, threshold, threshold_for_query};
pub use workspace::{TasmWorkspace, RESERVE_CAP_BYTES};
