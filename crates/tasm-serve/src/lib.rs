//! `tasm-serve` — a resident TASM query daemon: parsed documents stay
//! warm, requests multiplex onto the batch engine, and failures stay
//! *contained*.
//!
//! One-shot CLI runs re-parse the document and rebuild every workspace
//! per query — fine for a benchmark, wasteful for a workload. The
//! daemon keeps [`Doc`]s (parsed tree + label dictionary) resident
//! behind a newline-delimited socket protocol (the `conn` module),
//! parses each query with the same XML parser the one-shot CLI uses,
//! and evaluates it through the same query lanes. A tree document needs
//! no ring buffer: `tasm_resident_batch` sweeps its size column and
//! evaluates the candidates in place. A ranking from the daemon is
//! byte-for-byte the ranking the one-shot CLI prints
//! (differential-tested).
//!
//! The robustness contract, layer by layer:
//!
//! * **Deadlines** ([`Run::deadline`](tasm_core::Run::deadline)): every
//!   request carries an absolute expiry; the evaluation loop polls it
//!   per candidate and aborts with a structured `ERR timeout` — no
//!   partial rankings, no wedged workers.
//! * **Admission control** (the `admission` module): a bounded queue
//!   sheds overload with an immediate `BUSY retry-after-ms=…`; requests
//!   already queued on the same tree document share one sweep.
//! * **Bounded input**: a request line longer than 1 MiB is refused
//!   with `ERR proto` and the connection dropped, so one client cannot
//!   make the daemon buffer without bound.
//! * **Panic isolation**: workers evaluate under `catch_unwind`; a
//!   panicking request gets `ERR internal`, its workspace is discarded
//!   and rebuilt (never reused poisoned), the payload is logged, and
//!   the daemon keeps serving.
//! * **Graceful drain**: [`Server::drain`] stops admission, waits for
//!   in-flight responses to reach their sockets under a drain deadline,
//!   and reports whether the drain was clean.
//! * **Fault injection** (the `fault` module): test-only levers
//!   (behind the `fault-inject` feature) that make the above paths
//!   reachable from integration tests.
//!
//! The crate owns the whole wire protocol, clients included:
//! [`is_multiline`] and [`busy_retry_after_ms`] are the framing facts a
//! client needs to read one response at a time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod admission;
pub(crate) mod conn;
pub(crate) mod fault;

use std::io;
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::admission::{Admission, PendingRequest};
use crate::conn::{handle_conn, ConnCtx, ConnStream, Response, Row, WireStats};
use tasm_core::{tasm_corpus_batch, tasm_resident_batch, BatchQuery, Match, Run, TasmWorkspace};
use tasm_index::Corpus;
use tasm_tree::{LabelDict, Tree};

pub use crate::conn::{busy_retry_after_ms, is_multiline};

/// What a resident document holds: one parsed tree with the label
/// dictionary it was parsed with, or a whole corpus of indexed shards
/// (each shard has its own dictionary).
#[derive(Debug)]
enum DocContent {
    Tree { tree: Tree, dict: LabelDict },
    Corpus(Arc<Corpus>),
}

/// A resident document: a parsed tree and its label dictionary, or an
/// opened [`Corpus`].
///
/// A query is parsed into a small request-local dictionary. For a tree
/// document it is then encoded into the document's dictionary, which
/// stays read-only ([`LabelDict::encode_tree`]); a corpus encodes it
/// per shard. Either way no request copies a document's dictionary.
#[derive(Debug)]
pub struct Doc {
    name: String,
    content: DocContent,
}

impl Doc {
    /// Wraps a parsed document under the name clients address it by.
    pub fn new(name: impl Into<String>, tree: Tree, dict: LabelDict) -> Self {
        Doc {
            name: name.into(),
            content: DocContent::Tree { tree, dict },
        }
    }

    /// Wraps an opened corpus: queries against this name run
    /// cross-document over every healthy shard, in explicit degraded
    /// mode when shards are quarantined.
    pub fn new_corpus(name: impl Into<String>, corpus: Arc<Corpus>) -> Self {
        Doc {
            name: name.into(),
            content: DocContent::Corpus(corpus),
        }
    }

    /// The name clients pass as `doc=<name>`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parsed document tree (`None` for a corpus document).
    pub fn tree(&self) -> Option<&Tree> {
        match &self.content {
            DocContent::Tree { tree, .. } => Some(tree),
            DocContent::Corpus(_) => None,
        }
    }

    /// The opened corpus (`None` for a single-tree document).
    pub fn corpus(&self) -> Option<&Arc<Corpus>> {
        match &self.content {
            DocContent::Tree { .. } => None,
            DocContent::Corpus(corpus) => Some(corpus),
        }
    }

    /// The dictionary of a tree document, which queries are encoded
    /// into (`None` for a corpus document: each shard encodes queries
    /// into its own).
    pub fn dict(&self) -> Option<&LabelDict> {
        match &self.content {
            DocContent::Tree { dict, .. } => Some(dict),
            DocContent::Corpus(_) => None,
        }
    }

    /// Node count reported by `DOCS`: the tree's size, or the summed
    /// size of the corpus's healthy shards.
    pub fn node_count(&self) -> u64 {
        match &self.content {
            DocContent::Tree { tree, .. } => tree.len() as u64,
            DocContent::Corpus(corpus) => corpus
                .healthy()
                .map(|(_, _, doc)| doc.tree().len() as u64)
                .sum(),
        }
    }
}

/// The set of documents a [`Server`] answers queries over.
///
/// Insertion order is preserved (it is the `DOCS` listing order).
/// Inserting a document under an existing name replaces it.
#[derive(Debug, Default)]
pub struct DocStore {
    docs: Vec<Arc<Doc>>,
}

impl DocStore {
    /// An empty store.
    pub fn new() -> Self {
        DocStore::default()
    }

    /// Adds `doc`, replacing any document with the same name.
    pub fn insert(&mut self, doc: Doc) {
        let doc = Arc::new(doc);
        match self.docs.iter_mut().find(|d| d.name() == doc.name()) {
            Some(slot) => *slot = doc,
            None => self.docs.push(doc),
        }
    }

    /// Looks a document up by name.
    pub fn get(&self, name: &str) -> Option<&Arc<Doc>> {
        self.docs.iter().find(|d| d.name() == name)
    }

    /// The documents, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<Doc>> {
        self.docs.iter()
    }

    /// Number of resident documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the store holds no documents.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }
}

/// Tuning knobs for a [`Server`]. Start from [`ServerConfig::default`]
/// and override what the deployment needs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Evaluation worker threads (min 1).
    pub workers: usize,
    /// Bound on queued (admitted, not yet picked up) requests; beyond
    /// it requests are shed with `BUSY`.
    pub queue_capacity: usize,
    /// Deadline applied when a request names none.
    pub default_deadline: Duration,
    /// Hard cap on any client-requested deadline.
    pub max_deadline: Duration,
    /// How long [`Server::drain`] waits for in-flight responses.
    pub drain_deadline: Duration,
    /// The hint sent with `BUSY retry-after-ms=…`.
    pub retry_after: Duration,
    /// Idle-connection read timeout.
    pub read_timeout: Duration,
    /// Hard cap on a request's `k` (protects workspace memory, which
    /// grows with the candidate-size bound τ = |Q| + k).
    pub max_k: usize,
    /// Thread budget for one corpus request: the shard-level scheduler
    /// splits it across shards first, then across intra-shard lanes
    /// (`0` = all available cores). Rankings are identical for every
    /// value — only latency changes.
    pub corpus_threads: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            default_deadline: Duration::from_secs(2),
            max_deadline: Duration::from_secs(30),
            drain_deadline: Duration::from_secs(5),
            retry_after: Duration::from_millis(50),
            read_timeout: Duration::from_secs(10),
            max_k: 10_000,
            corpus_threads: 1,
        }
    }
}

/// Something the accept loop can poll for new connections.
trait Acceptor {
    type Stream: ConnStream;
    fn set_nonblocking_mode(&self, nb: bool) -> io::Result<()>;
    /// `Ok(None)` when no connection is pending right now.
    fn accept_pending(&self) -> io::Result<Option<Self::Stream>>;
}

impl Acceptor for TcpListener {
    type Stream = TcpStream;
    fn set_nonblocking_mode(&self, nb: bool) -> io::Result<()> {
        self.set_nonblocking(nb)
    }
    fn accept_pending(&self) -> io::Result<Option<TcpStream>> {
        match self.accept() {
            Ok((stream, _)) => Ok(Some(stream)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

#[cfg(unix)]
impl Acceptor for UnixListener {
    type Stream = UnixStream;
    fn set_nonblocking_mode(&self, nb: bool) -> io::Result<()> {
        self.set_nonblocking(nb)
    }
    fn accept_pending(&self) -> io::Result<Option<UnixStream>> {
        match self.accept() {
            Ok((stream, _)) => Ok(Some(stream)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// The resident query daemon: worker pool, admission queue, and the
/// accept loops that feed it.
pub struct Server {
    cfg: ServerConfig,
    store: Arc<DocStore>,
    admission: Arc<Admission>,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Builds the daemon and spawns its evaluation workers.
    pub fn new(cfg: ServerConfig, store: DocStore) -> Server {
        let admission = Admission::new(cfg.queue_capacity);
        let corpus_threads = cfg.corpus_threads;
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let admission = admission.clone();
                thread::Builder::new()
                    .name(format!("tasm-worker-{i}"))
                    .spawn(move || worker_loop(&admission, corpus_threads))
                    .expect("spawn evaluation worker")
            })
            .collect();
        Server {
            cfg,
            store: Arc::new(store),
            admission,
            stop: Arc::new(AtomicBool::new(false)),
            workers,
        }
    }

    /// Requests shed with `BUSY` so far (overload visibility for the
    /// host's logs).
    pub fn shed_count(&self) -> usize {
        self.admission.shed_count()
    }

    fn conn_ctx(&self) -> ConnCtx {
        ConnCtx {
            store: self.store.clone(),
            admission: self.admission.clone(),
            cfg: self.cfg.clone(),
            stop: self.stop.clone(),
        }
    }

    fn accept_loop<A: Acceptor>(
        &self,
        listener: &A,
        external_stop: Option<&AtomicBool>,
    ) -> io::Result<()> {
        listener.set_nonblocking_mode(true)?;
        loop {
            let stopped = self.stop.load(Ordering::SeqCst)
                || external_stop.is_some_and(|s| s.load(Ordering::SeqCst));
            if stopped {
                self.stop.store(true, Ordering::SeqCst);
                return Ok(());
            }
            match listener.accept_pending() {
                Ok(Some(stream)) => {
                    let ctx = self.conn_ctx();
                    // Connection threads are deliberately detached: the
                    // drain accounting tracks admitted *requests*, not
                    // idle readers, so an idle client cannot hold up
                    // shutdown.
                    let _ = thread::Builder::new()
                        .name("tasm-conn".to_string())
                        .spawn(move || handle_conn(stream, ctx));
                }
                Ok(None) => thread::sleep(Duration::from_millis(2)),
                Err(e) => {
                    eprintln!("tasm serve: accept failed: {e}");
                    thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }

    /// Serves connections from a pre-bound TCP listener until a stop is
    /// requested (via `SHUTDOWN` or `external_stop`, typically a signal
    /// handler's flag). Returns without draining — call
    /// [`Server::drain`] next.
    pub fn serve_tcp(
        &self,
        listener: &TcpListener,
        external_stop: Option<&AtomicBool>,
    ) -> io::Result<()> {
        self.accept_loop(listener, external_stop)
    }

    /// Serves connections from a pre-bound Unix socket listener; see
    /// [`Server::serve_tcp`].
    #[cfg(unix)]
    pub fn serve_unix(
        &self,
        listener: &UnixListener,
        external_stop: Option<&AtomicBool>,
    ) -> io::Result<()> {
        self.accept_loop(listener, external_stop)
    }

    /// Graceful shutdown: stops admitting (late arrivals get `BUSY`),
    /// waits up to the drain deadline for every in-flight response to
    /// reach its socket, and joins the workers. Returns `true` for a
    /// clean drain; `false` means the deadline passed with work still
    /// in flight (the host should exit nonzero or log loudly).
    pub fn drain(self) -> bool {
        self.admission.begin_drain();
        let clean = self.admission.wait_idle(self.cfg.drain_deadline);
        if clean {
            // Workers exit once the queue is empty under drain; join is
            // bounded. On a dirty drain a wedged worker could block
            // forever, so leave it to process teardown instead.
            for handle in self.workers {
                let _ = handle.join();
            }
        }
        clean
    }
}

/// A worker: pull batches, evaluate under panic isolation, deliver.
fn worker_loop(admission: &Admission, corpus_threads: usize) {
    let mut ws = TasmWorkspace::new();
    while let Some(batch) = admission.next_batch() {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            evaluate_batch(&mut ws, &batch, corpus_threads)
        }));
        match outcome {
            Ok(responses) => {
                for (req, resp) in batch.iter().zip(responses) {
                    req.slot.deliver(resp);
                }
            }
            Err(payload) => {
                // Panic isolation: log the payload and the offending
                // request lines, answer ERR internal, and REPLACE the
                // workspace — its buffers were abandoned mid-update and
                // must never be reused.
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("<non-string panic payload>");
                eprintln!(
                    "tasm serve: worker panicked evaluating {} request(s): {msg}",
                    batch.len()
                );
                for req in &batch {
                    eprintln!("tasm serve:   request: {}", req.raw);
                }
                ws = TasmWorkspace::new();
                for req in &batch {
                    req.slot.deliver(Response::Internal);
                }
            }
        }
    }
}

fn rows(matches: Vec<Match>) -> Vec<Row> {
    matches
        .into_iter()
        .map(|m| Row {
            root: m.root.post(),
            distance: m.distance,
            size: m.size,
            doc: None,
        })
        .collect()
}

/// Evaluates one compatible batch (all requests target the same
/// document). Tree documents run under the earliest member deadline
/// with solo retries on expiry; corpus documents evaluate per request
/// under each member's own deadline (every request carries its own
/// request-local dictionary, so corpus queries cannot share one
/// encoding).
fn evaluate_batch(
    ws: &mut TasmWorkspace,
    batch: &[PendingRequest],
    corpus_threads: usize,
) -> Vec<Response> {
    for req in batch {
        fault::maybe_inject(&req.root_label);
    }
    let doc = &batch[0].doc;
    match &doc.content {
        DocContent::Tree { tree, .. } => evaluate_tree_batch(ws, batch, tree),
        DocContent::Corpus(corpus) => batch
            .iter()
            .map(|req| evaluate_corpus_request(ws, req, corpus, corpus_threads))
            .collect(),
    }
}

/// The tree path: one shared sweep under the earliest member deadline;
/// on expiry, survivors are retried solo under their own deadlines.
fn evaluate_tree_batch(
    ws: &mut TasmWorkspace,
    batch: &[PendingRequest],
    tree: &Tree,
) -> Vec<Response> {
    let earliest = batch
        .iter()
        .map(|r| r.deadline_at)
        .min()
        .expect("batches are non-empty");
    if let Some(responses) = scan_tree(ws, batch, tree, earliest) {
        return responses;
    }
    // The shared sweep died at the earliest member's deadline. That
    // member is out of time; the others still have budget, so each gets
    // a solo retry under its own deadline.
    batch
        .iter()
        .map(|req| {
            let solo = std::slice::from_ref(req);
            if Instant::now() < req.deadline_at {
                if let Some(mut answer) = scan_tree(ws, solo, tree, req.deadline_at) {
                    return answer.pop().expect("one lane");
                }
            }
            Response::Timeout {
                limit_ms: req.timeout_ms,
            }
        })
        .collect()
}

/// One resident sweep of `tree` answering every request in `reqs`, or
/// `None` when `deadline` expires first. One thread per worker: the
/// daemon's parallelism is its worker pool.
fn scan_tree(
    ws: &mut TasmWorkspace,
    reqs: &[PendingRequest],
    tree: &Tree,
    deadline: Instant,
) -> Option<Vec<Response>> {
    let queries: Vec<BatchQuery<'_>> = reqs
        .iter()
        .map(|r| BatchQuery {
            query: &r.query,
            k: r.k,
        })
        .collect();
    let run = Run {
        deadline: Some(deadline),
        ..Run::default()
    };
    let out = tasm_resident_batch(&queries, tree, &run, ws).ok()?;
    let responses = out
        .rankings
        .into_iter()
        .zip(out.lanes)
        .zip(reqs)
        .map(|((ranking, lane), req)| Response::Ranking {
            rows: rows(ranking),
            degraded: None,
            stats: req.stats.then_some(WireStats {
                scan: lane,
                shards: None,
            }),
        })
        .collect();
    Some(responses)
}

/// The corpus path: cross-document top-k over the healthy shards under
/// the request's own deadline, with the degraded marker threaded into
/// the `OK` line (and `STATS`, when requested).
fn evaluate_corpus_request(
    ws: &mut TasmWorkspace,
    req: &PendingRequest,
    corpus: &Arc<Corpus>,
    corpus_threads: usize,
) -> Response {
    let run = Run {
        threads: corpus_threads,
        deadline: Some(req.deadline_at),
        ..Run::default()
    };
    let queries = [BatchQuery {
        query: &req.query,
        k: req.k,
    }];
    let dict = req
        .dict
        .as_ref()
        .expect("corpus requests carry their request-local dictionary");
    match tasm_corpus_batch(&queries, dict, corpus, &run, ws) {
        Ok(out) => {
            let (status, scan) = (out.status, out.scan);
            let mut rankings = out.rankings;
            let ranking = rankings.pop().expect("one lane");
            let rows = ranking
                .into_iter()
                .map(|cm| Row {
                    root: cm.hit.root.post(),
                    distance: cm.hit.distance,
                    size: cm.hit.size,
                    doc: Some(cm.doc),
                })
                .collect();
            let health = (status.healthy, status.total);
            Response::Ranking {
                rows,
                degraded: status.is_degraded().then_some(health),
                stats: req.stats.then_some(WireStats {
                    scan,
                    shards: Some(health),
                }),
            }
        }
        Err(_) => Response::Timeout {
            limit_ms: req.timeout_ms,
        },
    }
}
