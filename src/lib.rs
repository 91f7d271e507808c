//! # TASM: Top-k Approximate Subtree Matching
//!
//! A Rust implementation of *Augsten, Böhlen, Barbosa, Palpanas — "TASM:
//! Top-k Approximate Subtree Matching", ICDE 2010*: find the `k` subtrees
//! of a large document tree that are closest to a small query tree under
//! the canonical tree edit distance, in **one pass** over the document and
//! with memory **independent of the document size**.
//!
//! This crate is a facade over the workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`tree`] | ordered labeled trees, label dictionary, postorder queues |
//! | [`ted`] | Zhang–Shasha tree edit distance, cost models |
//! | [`core`] | τ threshold, prefix ring buffer, TASM-dynamic/postorder |
//! | [`index`] | persistent `.pqi` label index for scan-free candidates |
//! | [`xml`] | streaming XML parser → postorder queue |
//! | [`data`] | XMark/DBLP/PSD-like workload generators |
//!
//! # Quick start
//!
//! ```
//! use tasm::TasmQuery;
//!
//! let document = r#"
//!     <dblp>
//!       <article><author>John Doe</author><title>Tree Matching</title></article>
//!       <article><author>Jane Roe</author><title>Graph Matching</title></article>
//!       <book><title>Trees</title></book>
//!     </dblp>"#;
//!
//! let matches = TasmQuery::from_xml(
//!         "<article><author>Jane Roe</author><title>Tree Matching</title></article>")
//!     .unwrap()
//!     .k(2)
//!     .run_xml_str(document)
//!     .unwrap();
//!
//! assert_eq!(matches.len(), 2);
//! // Both articles match with one rename each; the book is further away.
//! assert_eq!(matches[0].distance.as_f64(), 1.0);
//! ```
//!
//! For streaming gigabyte-scale documents use
//! [`TasmQuery::run_xml_file`], which keeps only `O(τ)` nodes in memory
//! (Theorem 2 of the paper), or drive [`core::tasm_postorder`] with any
//! [`tree::PostorderQueue`] implementation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tasm_core as core;
pub use tasm_data as data;
pub use tasm_index as index;
pub use tasm_ted as ted;
pub use tasm_tree as tree;
pub use tasm_xml as xml;

pub use tasm_core::{Match, ScanStats, StreamIntegrityError, TasmOptions};
pub use tasm_index::IndexedDocument;
pub use tasm_ted::{Cost, CostModel, FanoutWeighted, PerLabelCost, UnitCost};
pub use tasm_tree::{LabelDict, NodeId, Tree};

use std::fs::File;
use std::io::BufReader;
use std::path::Path;

/// Everything needed for typical use, in one import.
pub mod prelude {
    pub use crate::core::{
        prb_pruning, tasm_batch, tasm_corpus_batch, tasm_dynamic, tasm_dynamic_with_workspace,
        tasm_indexed_batch, tasm_naive, tasm_postorder, tasm_postorder_with_workspace,
        tasm_resident_batch, threshold, BatchOutput, BatchQuery, Match, PrefixRingBuffer, Run,
        ScanStats, StreamIntegrityError, StreamScanError, TasmOptions, TasmWorkspace, TopKHeap,
    };
    pub use crate::index::IndexedDocument;
    pub use crate::ted::{
        ted, ted_full, ted_with_workspace, CascadeScratch, Cost, CostModel, FanoutWeighted,
        LowerBoundCascade, QueryContext, TedWorkspace, UnitCost,
    };
    pub use crate::tree::{
        bracket, LabelDict, LabelId, NodeId, PostorderEntry, PostorderQueue, Tree, TreeBuilder,
        TreeQueue,
    };
    pub use crate::xml::{parse_tree_str, XmlPostorderQueue};
    pub use crate::{TasmBatch, TasmQuery};
}

/// Errors from the high-level query API.
#[derive(Debug)]
pub enum TasmError {
    /// Query or document XML failed to parse.
    Xml(xml::XmlError),
    /// I/O failure opening or reading the document.
    Io(std::io::Error),
    /// The document stream ended abnormally (truncated or unreadable
    /// mid-document), so the ranking would be computed over a partial
    /// document.
    Stream(StreamIntegrityError),
    /// A `.pq` / `.pqi` postorder file failed to load.
    File(tree::postfile::PostFileError),
}

impl std::fmt::Display for TasmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TasmError::Xml(e) => write!(f, "XML error: {e}"),
            TasmError::Io(e) => write!(f, "I/O error: {e}"),
            TasmError::Stream(e) => write!(f, "stream error: {e}"),
            TasmError::File(e) => write!(f, "index error: {e}"),
        }
    }
}

impl std::error::Error for TasmError {}

impl From<xml::XmlError> for TasmError {
    fn from(e: xml::XmlError) -> Self {
        TasmError::Xml(e)
    }
}

impl From<std::io::Error> for TasmError {
    fn from(e: std::io::Error) -> Self {
        TasmError::Io(e)
    }
}

impl From<StreamIntegrityError> for TasmError {
    fn from(e: StreamIntegrityError) -> Self {
        TasmError::Stream(e)
    }
}

impl From<tree::postfile::PostFileError> for TasmError {
    fn from(e: tree::postfile::PostFileError) -> Self {
        TasmError::File(e)
    }
}

/// Re-interns kept match subtrees from the index's dictionary into the
/// caller's, so the rendering helpers keep working after an indexed run.
fn adopt_match_trees(
    mut matches: Vec<Match>,
    idx_dict: &LabelDict,
    dict: &mut LabelDict,
) -> Vec<Match> {
    for m in &mut matches {
        if let Some(t) = m.tree.take() {
            let labels = t
                .nodes()
                .map(|id| dict.intern(idx_dict.resolve(t.label(id))))
                .collect();
            let sizes = t.nodes().map(|id| t.size(id)).collect();
            m.tree = Some(Tree::from_postorder_unchecked(labels, sizes));
        }
    }
    matches
}

/// A configured TASM query: the high-level entry point.
///
/// Wraps query parsing, the label dictionary, the Theorem 3 threshold and
/// the single-pass evaluation. A query is a batch of one: every method
/// forwards to a one-query [`TasmBatch`], so both facades run the same
/// drivers: the [`core::tasm_batch`] scan for a stream,
/// [`core::tasm_resident_batch`] for an in-memory tree and
/// [`core::tasm_indexed_batch`] for an index. Runs them under the
/// default [`core::Run`] (unit costs, no deadline) with this query's
/// `k`, threads and `keep_trees`; for custom cost models, deadlines or
/// distance statistics call the drivers with a [`core::Run`] of your
/// own.
#[derive(Debug)]
pub struct TasmQuery {
    batch: TasmBatch,
}

/// The only ranking of a one-query batch.
fn only(mut rankings: Vec<Vec<Match>>) -> Vec<Match> {
    rankings.pop().expect("one lane")
}

impl TasmQuery {
    /// Parses the query from an XML fragment.
    pub fn from_xml(query_xml: &str) -> Result<Self, TasmError> {
        Ok(TasmQuery {
            batch: TasmBatch::from_xml(&[query_xml])?,
        })
    }

    /// Parses the query from bracket notation (e.g. `{a{b}{c}}`).
    pub fn from_bracket(query: &str) -> Result<Self, tree::TreeError> {
        let mut dict = LabelDict::new();
        let query = tree::bracket::parse(query, &mut dict)?;
        Ok(TasmQuery {
            batch: TasmBatch::new(dict, vec![query]),
        })
    }

    /// Sets the ranking size `k` (default 1).
    pub fn k(self, k: usize) -> Self {
        TasmQuery {
            batch: self.batch.k(k),
        }
    }

    /// Sets the number of worker threads for sharded evaluation
    /// (default 1 = sequential; 0 = one per available core).
    ///
    /// Above one thread a streamed document keeps streaming and
    /// candidate segments are handed off to the workers with
    /// `O(threads · τ)` memory ([`core::tasm_batch`]).
    /// [`TasmQuery::run_tree`] needs no ring buffer: the workers pull
    /// postorder blocks of the materialized tree and sweep them
    /// ([`core::tasm_resident_batch`]). Index runs pull the candidate
    /// regions ([`core::tasm_indexed_batch`]). Results are identical to
    /// the sequential pass either way.
    pub fn threads(self, threads: usize) -> Self {
        TasmQuery {
            batch: self.batch.threads(threads),
        }
    }

    /// Sets whether matched subtrees are copied into the results
    /// (default `true`).
    pub fn keep_trees(self, keep: bool) -> Self {
        TasmQuery {
            batch: self.batch.keep_trees(keep),
        }
    }

    /// The parsed query tree.
    pub fn query(&self) -> &Tree {
        &self.batch.queries[0]
    }

    /// The label dictionary (grows while documents are processed).
    pub fn dict(&self) -> &LabelDict {
        self.batch.dict()
    }

    /// Runs the query against an XML string (streamed; the document tree is
    /// never materialized).
    pub fn run_xml_str(&mut self, document: &str) -> Result<Vec<Match>, TasmError> {
        self.batch.run_xml_str(document).map(only)
    }

    /// Runs the query against an XML file, streaming it with `O(τ)` memory.
    pub fn run_xml_file(&mut self, path: impl AsRef<Path>) -> Result<Vec<Match>, TasmError> {
        self.batch.run_xml_file(path).map(only)
    }

    /// Runs the query against any buffered XML source. The internal
    /// workspace is reused, so back-to-back runs skip all warm-up
    /// allocations. With [`TasmQuery::threads`] above 1 the document
    /// **still streams**: no document tree is ever materialized.
    pub fn run_reader<R: std::io::BufRead>(&mut self, reader: R) -> Result<Vec<Match>, TasmError> {
        self.batch.run_reader(reader).map(only)
    }

    /// Runs the query against an in-memory tree that shares this query's
    /// dictionary (e.g. built with [`TasmQuery::parse_document`]). The
    /// candidates come from a sweep over the tree's size column and are
    /// evaluated in place, by [`TasmQuery::threads`] workers pulling
    /// postorder blocks ([`core::tasm_resident_batch`]); no ring buffer
    /// replays the tree.
    pub fn run_tree(&mut self, doc: &Tree) -> Vec<Match> {
        only(self.batch.run_tree(doc))
    }

    /// Parses a document into this query's dictionary for use with
    /// [`TasmQuery::run_tree`] / repeated runs.
    pub fn parse_document(&mut self, xml_text: &str) -> Result<Tree, TasmError> {
        Ok(xml::parse_tree_str(xml_text, &mut self.batch.dict)?)
    }

    /// Runs the query against a prebuilt `.pqi` index file (see
    /// [`IndexedDocument`] and the `tasm index` CLI subcommand):
    /// candidate regions come from the label postings instead of a full
    /// document scan, and the ranking is identical to the streamed run.
    pub fn run_index_file(&mut self, path: impl AsRef<Path>) -> Result<Vec<Match>, TasmError> {
        self.batch.run_index_file(path).map(only)
    }

    /// Runs the query against an already-loaded [`IndexedDocument`].
    ///
    /// The index carries its own label dictionary; query labels are
    /// translated by name and kept match subtrees are translated back,
    /// so [`TasmQuery::match_to_xml`] works exactly as after a
    /// streamed run.
    pub fn run_index(&mut self, idx: &IndexedDocument) -> Vec<Match> {
        only(self.batch.run_index(idx))
    }

    /// Scan and pruning-funnel statistics ([`ScanStats`]) of the most
    /// recent run, whichever path it took — streaming (`run_xml_str` /
    /// `run_xml_file` / `run_reader`), in-memory ([`TasmQuery::run_tree`]),
    /// indexed, or sharded parallel (merged over all shards): candidates
    /// emitted, per-tier cascade prunes, exact evaluations. After
    /// `run_tree`, `nodes_seen` is the sweep's spine plus the candidates'
    /// nodes and `peak_buffered` the largest candidate.
    pub fn last_scan_stats(&self) -> ScanStats {
        self.batch.last_scan_stats()
    }

    /// Renders a match's subtree back to XML (requires `keep_trees`).
    pub fn match_to_xml(&self, m: &Match) -> Option<String> {
        self.batch.match_to_xml(m)
    }
}

/// A batch of TASM queries answered in **one** shared document scan.
///
/// Ring-buffer maintenance and candidate materialization are paid once
/// for the whole batch ([`core::tasm_batch`]); each query keeps its own
/// pruning bound and ranking, and each result is exactly what the
/// corresponding single [`TasmQuery`] run would return. Every run uses
/// one [`core::Run`]: unit costs, no deadline, no distance statistics,
/// and the batch's threads and `keep_trees` setting.
///
/// # Examples
///
/// ```
/// use tasm::TasmBatch;
///
/// let doc = "<dblp>\
///     <article><author>Jane</author><title>Trees</title></article>\
///     <book><title>Graphs</title></book></dblp>";
/// let rankings = TasmBatch::from_xml(&[
///         "<article><author>Jane</author><title>Trees</title></article>",
///         "<book><title>Trees</title></book>",
///     ])
///     .unwrap()
///     .k(1)
///     .run_xml_str(doc)
///     .unwrap();
/// assert_eq!(rankings.len(), 2);
/// assert_eq!(rankings[0][0].distance.as_f64(), 0.0);
/// assert_eq!(rankings[1][0].distance.as_f64(), 1.0);
/// ```
#[derive(Debug)]
pub struct TasmBatch {
    dict: LabelDict,
    queries: Vec<Tree>,
    k: usize,
    /// Options and worker threads of every run (unit costs, no deadline,
    /// no distance statistics).
    run: core::Run<'static>,
    /// Scan + per-lane workspaces reused across runs.
    workspace: core::TasmWorkspace,
    /// Aggregate stats of the most recent run.
    last_scan: ScanStats,
    /// Per-lane stats of the most recent run, in query order.
    last_lanes: Vec<ScanStats>,
}

impl TasmBatch {
    /// Parses every query from an XML fragment; all queries share one
    /// label dictionary.
    pub fn from_xml(query_xmls: &[&str]) -> Result<Self, TasmError> {
        let mut dict = LabelDict::new();
        let queries = query_xmls
            .iter()
            .map(|q| xml::parse_tree_str(q, &mut dict))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(TasmBatch::new(dict, queries))
    }

    /// A batch over `queries`, parsed with `dict`, at the defaults.
    fn new(dict: LabelDict, queries: Vec<Tree>) -> Self {
        TasmBatch {
            dict,
            queries,
            k: 1,
            run: core::Run {
                opts: TasmOptions {
                    keep_trees: true,
                    ..Default::default()
                },
                ..core::Run::default()
            },
            workspace: core::TasmWorkspace::new(),
            last_scan: ScanStats::default(),
            last_lanes: Vec::new(),
        }
    }

    /// Sets the ranking size `k` for every query (default 1).
    pub fn k(mut self, k: usize) -> Self {
        self.k = k.max(1);
        self
    }

    /// Sets the number of worker threads (default 1 = one shared
    /// sequential scan; 0 = one per available core).
    ///
    /// With more than one thread the batch runs **batch×parallel**: the
    /// document still streams once, candidate segments are handed off
    /// to the workers, and every worker fans each candidate out to all
    /// query lanes ([`core::tasm_batch`]). Each ranking is identical to
    /// the sequential shared-scan result.
    pub fn threads(mut self, threads: usize) -> Self {
        self.run.threads = threads;
        self
    }

    /// Sets whether matched subtrees are copied into the results
    /// (default `true`).
    pub fn keep_trees(mut self, keep: bool) -> Self {
        self.run.opts.keep_trees = keep;
        self
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the batch holds no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The label dictionary (grows while documents are processed).
    pub fn dict(&self) -> &LabelDict {
        &self.dict
    }

    /// Runs every query against an XML string in one shared scan,
    /// returning one ranking per query, in input order.
    pub fn run_xml_str(&mut self, document: &str) -> Result<Vec<Vec<Match>>, TasmError> {
        self.run_reader(document.as_bytes())
    }

    /// Runs every query against an XML file, streaming it once with
    /// `O(τ_max)` memory.
    pub fn run_xml_file(&mut self, path: impl AsRef<Path>) -> Result<Vec<Vec<Match>>, TasmError> {
        let file = File::open(path)?;
        self.run_reader(BufReader::new(file))
    }

    /// Runs every query against any buffered XML source in one shared
    /// scan. The internal workspace is reused across runs.
    pub fn run_reader<R: std::io::BufRead>(
        &mut self,
        reader: R,
    ) -> Result<Vec<Vec<Match>>, TasmError> {
        self.run_queue(
            |dict| xml::XmlPostorderQueue::new(reader, dict),
            xml::XmlPostorderQueue::take_error,
        )
    }

    /// One [`core::tasm_batch`] pass over the queue `open` builds on
    /// this batch's dictionary (an XML queue interns the document's
    /// labels into it). After the pass, `parse_error` reports the
    /// queue's own parse error, which is preferred over the driver's
    /// stream error: it carries the byte offset and reason, while the
    /// stream error only records that the document ended early.
    fn run_queue<'d, Q: tree::PostorderQueue>(
        &'d mut self,
        open: impl FnOnce(&'d mut LabelDict) -> Q,
        parse_error: impl FnOnce(&mut Q) -> Option<xml::XmlError>,
    ) -> Result<Vec<Vec<Match>>, TasmError> {
        let batch: Vec<core::BatchQuery<'_>> = self
            .queries
            .iter()
            .map(|query| core::BatchQuery { query, k: self.k })
            .collect();
        let mut queue = open(&mut self.dict);
        let result = core::tasm_batch(&batch, &mut queue, &self.run, &mut self.workspace);
        if let Some(err) = parse_error(&mut queue) {
            return Err(err.into());
        }
        let out = match result {
            Ok(out) => out,
            Err(core::StreamScanError::Integrity(e)) => return Err(e.into()),
            Err(core::StreamScanError::Deadline(_)) => unreachable!("no deadline"),
        };
        self.last_scan = out.scan;
        self.last_lanes = out.lanes;
        Ok(out.rankings)
    }

    /// One [`core::tasm_resident_batch`] sweep over a tree in this
    /// batch's label space.
    fn run_tree(&mut self, doc: &Tree) -> Vec<Vec<Match>> {
        let batch: Vec<core::BatchQuery<'_>> = self
            .queries
            .iter()
            .map(|query| core::BatchQuery { query, k: self.k })
            .collect();
        let out = core::tasm_resident_batch(&batch, doc, &self.run, &mut self.workspace)
            .expect("no deadline");
        self.last_scan = out.scan;
        self.last_lanes = out.lanes;
        out.rankings
    }

    /// Answers the whole batch from a prebuilt `.pqi` index file: one
    /// index lookup feeds every query lane, and each ranking is
    /// identical to the corresponding streamed run.
    pub fn run_index_file(&mut self, path: impl AsRef<Path>) -> Result<Vec<Vec<Match>>, TasmError> {
        let idx = IndexedDocument::open(path)?;
        Ok(self.run_index(&idx))
    }

    /// Answers the whole batch from an already-loaded
    /// [`IndexedDocument`], translating labels by name in both
    /// directions (see [`TasmQuery::run_index`]).
    pub fn run_index(&mut self, idx: &IndexedDocument) -> Vec<Vec<Match>> {
        let batch: Vec<core::BatchQuery<'_>> = self
            .queries
            .iter()
            .map(|query| core::BatchQuery { query, k: self.k })
            .collect();
        let out = core::tasm_indexed_batch(&batch, &self.dict, idx, &self.run, &mut self.workspace)
            .expect("no deadline");
        let rankings = out
            .rankings
            .into_iter()
            .map(|matches| adopt_match_trees(matches, idx.dict(), &mut self.dict))
            .collect();
        self.last_scan = out.scan;
        self.last_lanes = out.lanes;
        rankings
    }

    /// Renders a match's subtree back to XML (requires `keep_trees`).
    pub fn match_to_xml(&self, m: &Match) -> Option<String> {
        m.tree.as_ref().map(|t| xml::tree_to_xml(t, &self.dict))
    }

    /// Scan and pruning-funnel statistics ([`ScanStats`]) of the most
    /// recent run — shared sequential scan, sharded streaming scan,
    /// resident sweep or index — aggregated over all query lanes.
    pub fn last_scan_stats(&self) -> ScanStats {
        self.last_scan
    }

    /// Per-lane statistics of the most recent run, in query order: the
    /// scan-layer counters of the (single) pass plus each query lane's
    /// own pruning funnel.
    pub fn last_lane_stats(&self) -> Vec<ScanStats> {
        self.last_lanes.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trip() {
        let doc = "<r><a><b>x</b></a><a><b>y</b></a></r>";
        let matches = TasmQuery::from_xml("<a><b>x</b></a>")
            .unwrap()
            .k(2)
            .run_xml_str(doc)
            .unwrap();
        assert_eq!(matches.len(), 2);
        assert_eq!(matches[0].distance, Cost::ZERO);
        assert_eq!(matches[1].distance.as_f64(), 1.0);
    }

    #[test]
    fn match_to_xml_renders() {
        let mut q = TasmQuery::from_xml("<a><b>x</b></a>").unwrap();
        let matches = q.run_xml_str("<r><a><b>x</b></a></r>").unwrap();
        let rendered = q.match_to_xml(&matches[0]).unwrap();
        assert_eq!(rendered, "<a><b>x</b></a>");
    }

    #[test]
    fn bracket_queries_work() {
        let mut q = TasmQuery::from_bracket("{a{b}}").unwrap();
        let doc = q.parse_document("<r><a><b/></a></r>").unwrap();
        let matches = q.run_tree(&doc);
        assert_eq!(matches[0].distance, Cost::ZERO);
    }

    #[test]
    fn malformed_document_errors() {
        let mut q = TasmQuery::from_xml("<a/>").unwrap();
        assert!(q.run_xml_str("<r><a></r>").is_err());
    }

    #[test]
    fn empty_document_errors() {
        let mut q = TasmQuery::from_xml("<a/>").unwrap();
        assert!(matches!(q.run_xml_str(""), Err(TasmError::Xml(_))));
    }

    #[test]
    fn k_zero_is_clamped() {
        let mut q = TasmQuery::from_xml("<a/>").unwrap().k(0);
        let matches = q.run_xml_str("<r><a/></r>").unwrap();
        assert_eq!(matches.len(), 1);
    }

    #[test]
    fn threads_builder_matches_sequential() {
        let doc: String = std::iter::once("<dblp>".to_string())
            .chain((0..40).map(|i| format!("<article><a>n{i}</a><t>t{}</t></article>", i % 7)))
            .chain(std::iter::once("</dblp>".to_string()))
            .collect();
        let q = "<article><a>n3</a><t>t3</t></article>";
        let sequential = TasmQuery::from_xml(q)
            .unwrap()
            .k(5)
            .run_xml_str(&doc)
            .unwrap();
        for threads in [0usize, 2, 4] {
            let parallel = TasmQuery::from_xml(q)
                .unwrap()
                .k(5)
                .threads(threads)
                .run_xml_str(&doc)
                .unwrap();
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn threads_run_surfaces_parse_errors() {
        let mut q = TasmQuery::from_xml("<a/>").unwrap().threads(2);
        assert!(q.run_xml_str("<r><a></r>").is_err());
    }

    #[test]
    fn batch_matches_individual_queries() {
        let doc = "<r><a><b>x</b></a><a><b>y</b></a><c><d/></c></r>";
        let queries = ["<a><b>x</b></a>", "<c><d/></c>", "<b>z</b>"];
        let rankings = TasmBatch::from_xml(&queries)
            .unwrap()
            .k(2)
            .run_xml_str(doc)
            .unwrap();
        assert_eq!(rankings.len(), queries.len());
        for (q, got) in queries.iter().zip(&rankings) {
            let want = TasmQuery::from_xml(q)
                .unwrap()
                .k(2)
                .run_xml_str(doc)
                .unwrap();
            // Dictionaries differ between the two facades, so compare the
            // dictionary-independent fields plus the rendered XML.
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!((g.root, g.size, g.distance), (w.root, w.size, w.distance));
            }
        }
    }

    #[test]
    fn batch_workspace_reuse_and_errors() {
        let mut batch = TasmBatch::from_xml(&["<a/>", "<b/>"]).unwrap();
        assert_eq!(batch.len(), 2);
        assert!(!batch.is_empty());
        let first = batch.run_xml_str("<r><a/><b/></r>").unwrap();
        let second = batch.run_xml_str("<r><a/><b/></r>").unwrap();
        assert_eq!(first, second);
        assert!(batch.run_xml_str("<r><a>").is_err());
        // And the batch recovers after the failed run.
        assert_eq!(batch.run_xml_str("<r><a/><b/></r>").unwrap(), first);
    }

    #[test]
    fn batch_rejects_malformed_query() {
        assert!(TasmBatch::from_xml(&["<a/>", "<broken"]).is_err());
    }

    #[test]
    fn batch_threads_matches_sequential_batch() {
        let doc: String = std::iter::once("<dblp>".to_string())
            .chain((0..40).map(|i| format!("<article><a>n{i}</a><t>t{}</t></article>", i % 7)))
            .chain(std::iter::once("</dblp>".to_string()))
            .collect();
        let queries = [
            "<article><a>n3</a><t>t3</t></article>",
            "<book><t>t1</t></book>",
        ];
        let sequential = TasmBatch::from_xml(&queries)
            .unwrap()
            .k(3)
            .run_xml_str(&doc)
            .unwrap();
        for threads in [0usize, 2, 4] {
            let mut batch = TasmBatch::from_xml(&queries).unwrap().k(3).threads(threads);
            let parallel = batch.run_xml_str(&doc).unwrap();
            assert_eq!(parallel.len(), sequential.len(), "threads = {threads}");
            for (p, s) in parallel.iter().zip(&sequential) {
                assert_eq!(p.len(), s.len());
                for (g, w) in p.iter().zip(s) {
                    assert_eq!((g.root, g.size, g.distance), (w.root, w.size, w.distance));
                }
            }
            // Per-lane stats are live on the sharded path too.
            let lanes = batch.last_lane_stats();
            assert_eq!(lanes.len(), queries.len());
            assert_eq!(batch.last_scan_stats().candidates, lanes[0].candidates);
        }
    }

    #[test]
    fn batch_threads_surfaces_parse_errors() {
        let mut batch = TasmBatch::from_xml(&["<a/>"]).unwrap().threads(2);
        assert!(batch.run_xml_str("<r><a></r>").is_err());
        // And recovers on the next run.
        assert_eq!(batch.run_xml_str("<r><a/></r>").unwrap().len(), 1);
    }

    #[test]
    fn scan_stats_report_the_pruning_funnel() {
        let doc: String = std::iter::once("<dblp>".to_string())
            .chain((0..60).map(|i| format!("<article><a>n{i}</a><t>t{}</t></article>", i % 5)))
            .chain(std::iter::once("</dblp>".to_string()))
            .collect();
        let mut q = TasmQuery::from_xml("<article><a>n3</a><t>t3</t></article>")
            .unwrap()
            .k(2);
        let matches = q.run_xml_str(&doc).unwrap();
        assert_eq!(matches.len(), 2);
        let scan = q.last_scan_stats();
        assert_eq!(scan.candidates, 60);
        assert!(scan.evaluated > 0);
        // Exact matches exist, so the cutoff drops to 0 and the cascade
        // must kill most non-matching records before their DP.
        assert!(scan.pruned_histogram + scan.pruned_sed > 0);

        let mut batch = TasmBatch::from_xml(&["<article><a>n3</a><t>t3</t></article>"]).unwrap();
        batch.run_xml_str(&doc).unwrap();
        assert_eq!(batch.last_scan_stats().candidates, 60);

        // The sharded parallel path must report its merged stats too —
        // not the stale stats of an earlier sequential run.
        let mut par = TasmQuery::from_xml("<article><a>n3</a><t>t3</t></article>")
            .unwrap()
            .k(2)
            .threads(2);
        par.run_xml_str(&doc).unwrap();
        assert_eq!(par.last_scan_stats().candidates, 60);
        assert!(par.last_scan_stats().evaluated > 0);
        // And switching back to one thread refreshes them again.
        let mut seq = par.threads(1);
        seq.run_xml_str(&doc).unwrap();
        assert_eq!(seq.last_scan_stats().candidates, 60);
    }

    #[test]
    fn run_tree_sweeps_like_the_stream() {
        let doc: String = std::iter::once("<dblp>".to_string())
            .chain((0..60).map(|i| format!("<article><a>n{i}</a><t>t{}</t></article>", i % 5)))
            .chain(std::iter::once("</dblp>".to_string()))
            .collect();
        for threads in [1, 2] {
            let mut q = TasmQuery::from_xml("<article><a>n3</a><t>t3</t></article>")
                .unwrap()
                .k(3)
                .threads(threads);
            let streamed = q.run_xml_str(&doc).unwrap();
            let tree = q.parse_document(&doc).unwrap();
            assert_eq!(q.run_tree(&tree), streamed, "threads = {threads}");
            let scan = q.last_scan_stats();
            assert_eq!(scan.candidates, 60);
            assert_eq!(scan.nodes_seen as usize, tree.len());
        }
    }

    #[test]
    fn query_recovers_after_a_failed_run() {
        // A mid-stream parse error must not poison the query for later runs.
        let mut q = TasmQuery::from_xml("<a><b>x</b></a>").unwrap().k(1);
        assert!(q.run_xml_str("<r><a><b>x</b></a><broken>").is_err());
        let matches = q.run_xml_str("<r><a><b>x</b></a></r>").unwrap();
        assert_eq!(matches[0].distance, Cost::ZERO);
    }

    #[test]
    fn indexed_run_matches_streaming_run() {
        let doc: String = std::iter::once("<dblp>".to_string())
            .chain((0..40).map(|i| format!("<article><a>n{i}</a><t>t{}</t></article>", i % 7)))
            .chain(std::iter::once("</dblp>".to_string()))
            .collect();
        let query = "<article><a>n3</a><t>t3</t></article>";
        for threads in [1usize, 3] {
            let mut q = TasmQuery::from_xml(query).unwrap().k(4).threads(threads);
            let want = q.run_xml_str(&doc).unwrap();
            let want_xml: Vec<_> = want.iter().map(|m| q.match_to_xml(m)).collect();

            // Build the index over an independently-parsed document; the
            // facade must bridge both label spaces by name.
            let mut dict = LabelDict::new();
            let tree = xml::parse_tree_str(&doc, &mut dict).unwrap();
            let idx = IndexedDocument::build(&tree, &dict);
            let got = q.run_index(&idx);

            assert_eq!(got.len(), want.len(), "threads = {threads}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!((g.root, g.size, g.distance), (w.root, w.size, w.distance));
            }
            // Kept subtrees are re-interned into the query dictionary, so
            // rendering works and agrees with the streamed run.
            let got_xml: Vec<_> = got.iter().map(|m| q.match_to_xml(m)).collect();
            assert_eq!(got_xml, want_xml, "threads = {threads}");
            // Indexed runs refresh the scan stats like any other path.
            assert!(q.last_scan_stats().candidates > 0);
        }
    }

    #[test]
    fn indexed_run_round_trips_through_a_file() {
        let dir = std::env::temp_dir().join(format!("tasm-facade-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.pqi");

        let doc = "<r><a><b>x</b></a><a><b>y</b></a><c><d/></c></r>";
        let mut dict = LabelDict::new();
        let tree = xml::parse_tree_str(doc, &mut dict).unwrap();
        IndexedDocument::save(&path, &tree, &dict).unwrap();

        let mut q = TasmQuery::from_xml("<a><b>x</b></a>").unwrap().k(2);
        let want = q.run_xml_str(doc).unwrap();
        let got = q.run_index_file(&path).unwrap();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!((g.root, g.size, g.distance), (w.root, w.size, w.distance));
        }

        let mut batch = TasmBatch::from_xml(&["<a><b>x</b></a>", "<c><d/></c>"])
            .unwrap()
            .k(2);
        let want = batch.run_xml_str(doc).unwrap();
        let got = batch.run_index_file(&path).unwrap();
        assert_eq!(got.len(), want.len());
        for (gs, ws) in got.iter().zip(&want) {
            assert_eq!(gs.len(), ws.len());
            for (g, w) in gs.iter().zip(ws) {
                assert_eq!((g.root, g.size, g.distance), (w.root, w.size, w.distance));
            }
        }
        assert_eq!(batch.last_lane_stats().len(), 2);

        // A missing index surfaces as a file error, not a panic.
        assert!(matches!(
            q.run_index_file(dir.join("missing.pqi")),
            Err(TasmError::File(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
