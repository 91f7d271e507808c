//! `tasm-serve` — a resident TASM query daemon: parsed documents stay
//! warm, each connection thread answers its own queries, and failures
//! stay *contained*.
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
//!   partial rankings, no slot held past its budget.
//! * **Admission control** (the `admission` module): one FIFO gate
//!   lets at most [`ServerConfig::workers`] evaluations run at once and
//!   at most [`ServerConfig::queue_capacity`] requests wait, in arrival
//!   order; beyond that it sheds overload with an immediate
//!   `BUSY retry-after-ms=…`.
//! * **Bounded input**: a request line longer than 1 MiB is refused
//!   with `ERR proto` and the connection dropped, so one client cannot
//!   make the daemon buffer without bound.
//! * **Panic isolation**: the connection thread evaluates under
//!   `catch_unwind`; a panicking request gets `ERR internal`, its
//!   workspace is discarded (never reused poisoned) while its slot is
//!   freed, the payload is logged, and the daemon keeps serving.
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crate::admission::Admission;
use crate::conn::{handle_conn, ConnCtx, ConnStream, PreparedQuery, Response, Row, WireStats};
use tasm_core::{tasm_corpus_batch, tasm_resident_batch, BatchQuery, Run, TasmWorkspace};
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

    /// Node count of the largest tree one evaluation runs over: the
    /// tree's size, or the largest healthy corpus shard's.
    pub(crate) fn largest_tree(&self) -> usize {
        match &self.content {
            DocContent::Tree { tree, .. } => tree.len(),
            DocContent::Corpus(corpus) => corpus
                .healthy()
                .map(|(_, _, doc)| doc.tree().len())
                .max()
                .unwrap_or(0),
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
    /// Evaluation slots: how many queries are evaluated at once, each
    /// on its own connection thread (`0` = one per available core).
    pub workers: usize,
    /// Bound on admitted requests waiting for a slot; beyond it requests
    /// are shed with `BUSY`.
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

/// The resident query daemon: the accept loops, whose connection
/// threads answer their own queries, and the admission gate in front
/// of evaluation.
pub struct Server {
    cfg: ServerConfig,
    store: Arc<DocStore>,
    admission: Arc<Admission>,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Builds the daemon; no thread starts before a connection does.
    pub fn new(cfg: ServerConfig, store: DocStore) -> Server {
        let slots = match cfg.workers {
            0 => thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        Server {
            admission: Admission::new(slots, cfg.queue_capacity),
            cfg,
            store: Arc::new(store),
            stop: Arc::new(AtomicBool::new(false)),
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

    /// Graceful shutdown: stops admitting (late arrivals get `BUSY`)
    /// and waits up to the drain deadline for every admitted request's
    /// response to reach its socket. Returns `true` for a clean drain;
    /// `false` means the deadline passed with work still in flight (the
    /// host should exit nonzero or log loudly).
    pub fn drain(self) -> bool {
        self.admission.begin_drain();
        self.admission.wait_idle(self.cfg.drain_deadline)
    }
}

/// Answers one admitted query on `ws` under `deadline`, or `None` when
/// the deadline expires first. A tree document is swept on the calling
/// thread alone: the daemon's parallelism is its evaluation slots. A
/// corpus runs cross-document top-k over its healthy shards on
/// `corpus_threads`, with the degraded marker threaded into the `OK`
/// line (and `STATS`, when requested).
pub(crate) fn evaluate(
    doc: &Doc,
    prepared: &PreparedQuery,
    k: usize,
    stats: bool,
    deadline: Instant,
    corpus_threads: usize,
    ws: &mut TasmWorkspace,
) -> Option<Response> {
    let queries = [BatchQuery {
        query: &prepared.query,
        k,
    }];
    let mut run = Run {
        deadline: Some(deadline),
        ..Run::default()
    };
    match &doc.content {
        DocContent::Tree { tree, .. } => {
            let mut out = tasm_resident_batch(&queries, tree, &run, ws).ok()?;
            let rows = out
                .rankings
                .pop()
                .expect("one lane")
                .into_iter()
                .map(|m| Row {
                    root: m.root.post(),
                    distance: m.distance,
                    size: m.size,
                    doc: None,
                })
                .collect();
            Some(Response::Ranking {
                rows,
                degraded: None,
                stats: stats.then_some(WireStats {
                    scan: out.lanes[0],
                    shards: None,
                }),
            })
        }
        DocContent::Corpus(corpus) => {
            run.threads = corpus_threads;
            let dict = prepared
                .dict
                .as_ref()
                .expect("corpus requests carry their request-local dictionary");
            let mut out = tasm_corpus_batch(&queries, dict, corpus, &run, ws).ok()?;
            let rows = out
                .rankings
                .pop()
                .expect("one lane")
                .into_iter()
                .map(|cm| Row {
                    root: cm.hit.root.post(),
                    distance: cm.hit.distance,
                    size: cm.hit.size,
                    doc: Some(cm.doc),
                })
                .collect();
            let health = (out.status.healthy, out.status.total);
            Some(Response::Ranking {
                rows,
                degraded: out.status.is_degraded().then_some(health),
                stats: stats.then_some(WireStats {
                    scan: out.scan,
                    shards: Some(health),
                }),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_workers_means_one_per_core() {
        let cfg = ServerConfig {
            workers: 0,
            ..ServerConfig::default()
        };
        let server = Server::new(cfg, DocStore::new());
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(server.admission.slots, cores);
        assert!(server.drain(), "an idle server drains cleanly");
    }
}
