//! Persistent label-indexed corpus store (`.pqi` shards + `MANIFEST`)
//! for TASM.
//!
//! The paper's scan (Sec. V) answers one query over one document in a
//! single `O(τ)`-memory pass — the right shape for a one-shot stream,
//! but the wrong one for a query server that answers many queries over
//! the same corpus: every query re-reads every node. This crate is the
//! opposite access pattern: parse and index documents **once**, then
//! answer queries touching only the index sections that matter.
//!
//! # One document: the `.pqi` file ([`IndexedDocument`])
//!
//! A `.pqi` file is a version-2 postorder file
//! (see [`tasm_tree::postfile`]): the version-1 header and fixed-width
//! postorder entry section — so every existing `.pq` consumer can still
//! stream it — followed by an inverted index:
//!
//! ```text
//! magic    "TASMPQ2\n"                       8 bytes
//! n_nodes  u64
//! n_labels u64
//! labels   n_labels × (u32 len, bytes)        dictionary, frequency order
//! entries  n_nodes × (u32 label, u32 size)    postorder records
//! postings n_labels × (u32 len, len × u32)    postorder positions per label
//! crc32    u32                                CRC-32 (IEEE) of the postings
//! ```
//!
//! The trailing checksum covers every byte of the postings section and
//! is verified on open: a torn or bit-rotted index is a structured
//! [`PostFileError`](tasm_tree::postfile::PostFileError) error, never a
//! silent misparse. Writes go through
//! [`tasm_tree::postfile::atomic_write`] (temp file + fsync + rename),
//! so readers only ever observe complete files.
//!
//! Two properties make the index useful:
//!
//! * **frequency-ordered dense label ids** — label `0` is the most
//!   frequent label of the document, so a query's *rarest* labels have
//!   the highest ids and the shortest postings lists;
//! * **per-label postings of postorder positions** — combined with the
//!   subtree-size column of the entry section (the subtree rooted at
//!   postorder `i` spans exactly `[i − size(i) + 1, i]`), a handful of
//!   binary-search-free merge walks bounds the label overlap between a
//!   query and every candidate region without reading the nodes.
//!
//! [`IndexedDocument`] is the reader: [`IndexedDocument::candidate_spans`]
//! derives the candidate set `cand(T, τ)` (Def. 9) from the size column
//! alone — examining only the nodes *above* the candidates instead of
//! all `n` — and [`IndexedDocument::region_common`] scores every span's
//! label overlap with a query from the postings. The
//! `tasm_indexed_batch` driver in `tasm-core` combines the two with the admissible
//! label-histogram lower bound (`tasm-ted`'s filter cascade) to skip
//! whole regions that provably cannot beat the top-k heap cutoff.
//!
//! # Many documents: the corpus directory ([`Corpus`])
//!
//! A corpus is a directory of `.pqi` shards described by a versioned,
//! checksummed `MANIFEST` ([`Manifest`]): a monotonic generation
//! number, the corpus-wide frequency-ordered label dictionary, and one
//! record per shard (document name, shard path, source path, file size,
//! whole-file CRC-32, the generation that wrote it, node count). The
//! manifest is rewritten atomically on every mutation, so a crash
//! mid-`add`/mid-`rebuild` always leaves the previous generation
//! readable.
//!
//! On [`Corpus::open`], every shard is verified against the manifest
//! (size, whole-file CRC, then the `.pqi` format's own structural and
//! checksum validation). A shard that fails **any** check is
//! *quarantined* — excluded from querying, its failure captured as a
//! structured [`ShardReport`] — rather than fatal: querying proceeds in
//! explicit degraded mode over the healthy shards. Only a missing or
//! corrupt `MANIFEST` itself is a hard error. `tasm corpus fsck`
//! surfaces the reports; `fsck --repair` re-indexes quarantined shards
//! from their recorded sources.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod corpus;
mod document;

pub use corpus::{
    Corpus, CorpusError, FsckOutcome, Manifest, ShardMeta, ShardReport, MANIFEST_MAGIC,
    MANIFEST_NAME,
};
pub use document::{IndexedDocument, PqiView};
