//! Per-connection protocol handling for the query daemon.
//!
//! The wire protocol is deliberately boring: newline-delimited ASCII
//! requests, newline-delimited responses, no framing beyond `\n`, no
//! dependencies beyond `std`. One thread per connection reads lines,
//! classifies failures, and blocks on a [`ResponseSlot`] while a worker
//! evaluates.
//!
//! Requests:
//!
//! ```text
//! PING
//! DOCS
//! QUERY doc=<name> [k=<n>] [timeout=<ms>] [stats=1] q=<XML query to end of line>
//! SHUTDOWN
//! ```
//!
//! Responses:
//!
//! ```text
//! PONG
//! DOCS <n>      then per document "<name> <nodes>", then "END"
//! OK <n>        then per match "<rank> <root> <distance> <size>", then "END"
//! BUSY retry-after-ms=<n>
//! ERR <kind> <message>     kind ∈ {proto, parse, doc, timeout, internal}
//! ```
//!
//! Corpus documents extend the ranking shape without changing it for
//! tree documents: each match row carries the source document name as a
//! fifth column, and when shards are quarantined the `OK` line carries
//! an explicit `degraded=<healthy>/<total>` marker — a degraded answer
//! is never silent. With `stats=1` the response also carries one
//! `STATS key=value ...` line (the [`ScanStats`] funnel, plus
//! `shards=<healthy>/<total>` for corpus queries) immediately before
//! `END`.
//!
//! Failure discipline: a malformed line gets `ERR proto` and the
//! connection keeps serving (one bad request must not cost the client
//! its session); a connection that closes mid-line gets `ERR proto
//! truncated request` back (best effort) and is dropped; so does a
//! line longer than [`MAX_REQUEST_LINE`] bytes, which is refused before
//! the daemon buffers more of it; a read that times out idles out with
//! `ERR timeout`; an in-request panic surfaces as `ERR internal` with
//! the daemon alive.

use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::admission::{Admission, PendingRequest};
use crate::{Doc, DocStore, ServerConfig};
use tasm_core::ScanStats;
use tasm_ted::Cost;
use tasm_tree::{LabelDict, Tree};
use tasm_xml::XmlError;

/// Longest request line the daemon reads, newline excluded. Queries
/// are small trees, so a longer line is refused rather than buffered:
/// without the bound, one client streaming an unterminated line grows
/// the daemon's memory without limit.
pub(crate) const MAX_REQUEST_LINE: usize = 1 << 20;

/// The head of the overload answer; the server's retry hint (in
/// milliseconds) follows it.
const BUSY_HEAD: &str = "BUSY retry-after-ms=";

/// A duplex byte stream the daemon can serve: cloneable into separate
/// read/write halves, with an idle read timeout.
pub(crate) trait ConnStream: Read + Write + Send + Sized + 'static {
    /// A second handle to the same stream (read half / write half).
    fn try_clone_stream(&self) -> io::Result<Self>;
    /// Read timeout for the receive half.
    fn set_stream_read_timeout(&self, dur: Option<Duration>) -> io::Result<()>;
}

impl ConnStream for TcpStream {
    fn try_clone_stream(&self) -> io::Result<Self> {
        self.try_clone()
    }
    fn set_stream_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(dur)
    }
}

#[cfg(unix)]
impl ConnStream for UnixStream {
    fn try_clone_stream(&self) -> io::Result<Self> {
        self.try_clone()
    }
    fn set_stream_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(dur)
    }
}

/// One ranked match, already projected to wire-friendly fields.
#[derive(Debug, Clone)]
pub(crate) struct Row {
    /// Postorder number of the matched subtree's root in the document.
    pub(crate) root: u32,
    /// Tree edit distance to the query.
    pub(crate) distance: Cost,
    /// Node count of the matched subtree.
    pub(crate) size: u32,
    /// Corpus queries: the document the match came from (the fifth
    /// column of the row; tree queries omit it).
    pub(crate) doc: Option<String>,
}

/// Per-request statistics sent on the `STATS` line when the client
/// asked with `stats=1`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WireStats {
    /// The scan/pruning funnel of this request's evaluation.
    pub(crate) scan: ScanStats,
    /// Corpus queries: `(healthy, total)` shard count — rendered as
    /// `shards=h/t` whether or not the corpus is degraded.
    pub(crate) shards: Option<(usize, usize)>,
}

impl WireStats {
    fn render(&self) -> String {
        let s = &self.scan;
        let mut line = format!(
            "STATS candidates={} nodes_seen={} peak_buffered={} pruned_size={} \
             pruned_histogram={} pruned_sed={} evaluated={} evaluated_zs={} \
             evaluated_strategy={}",
            s.candidates,
            s.nodes_seen,
            s.peak_buffered,
            s.pruned_size,
            s.pruned_histogram,
            s.pruned_sed,
            s.evaluated,
            s.evaluated_zs,
            s.evaluated_strategy,
        );
        if let Some((healthy, total)) = self.shards {
            line.push_str(&format!(" shards={healthy}/{total}"));
        }
        line
    }
}

/// What a worker hands back for one request.
#[derive(Debug, Clone)]
pub(crate) enum Response {
    /// A complete ranking (possibly shorter than `k` on small documents).
    Ranking {
        /// The ranked matches, best first.
        rows: Vec<Row>,
        /// `Some((healthy, total))` when a corpus answered degraded:
        /// the `OK` line carries the marker so the partial coverage is
        /// explicit on the wire.
        degraded: Option<(usize, usize)>,
        /// Present iff the request asked with `stats=1`.
        stats: Option<WireStats>,
    },
    /// The request ran past its deadline; no partial ranking exists.
    Timeout {
        /// The deadline the request was admitted under, for the error text.
        limit_ms: u64,
    },
    /// Evaluation panicked; the worker recovered and logged the payload.
    Internal,
}

/// A one-shot rendezvous: the connection thread waits, the worker
/// delivers exactly once.
#[derive(Clone)]
pub(crate) struct ResponseSlot {
    cell: Arc<(Mutex<Option<Response>>, Condvar)>,
}

impl ResponseSlot {
    pub(crate) fn new() -> Self {
        ResponseSlot {
            cell: Arc::new((Mutex::new(None), Condvar::new())),
        }
    }

    /// Worker side: publish the response and wake the connection.
    pub(crate) fn deliver(&self, resp: Response) {
        let (lock, cv) = &*self.cell;
        let mut slot = lock.lock().unwrap_or_else(PoisonError::into_inner);
        *slot = Some(resp);
        cv.notify_all();
    }

    /// Connection side: block until the worker delivers, or `limit`
    /// elapses (a worker lost to a wedge — `None`).
    pub(crate) fn wait(&self, limit: Duration) -> Option<Response> {
        let end = Instant::now() + limit;
        let (lock, cv) = &*self.cell;
        let mut slot = lock.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(resp) = slot.take() {
                return Some(resp);
            }
            let now = Instant::now();
            if now >= end {
                return None;
            }
            let (s, _) = cv
                .wait_timeout(slot, end - now)
                .unwrap_or_else(PoisonError::into_inner);
            slot = s;
        }
    }
}

/// Everything a connection thread needs, cloneable per accept.
#[derive(Clone)]
pub(crate) struct ConnCtx {
    pub(crate) store: Arc<DocStore>,
    pub(crate) admission: Arc<Admission>,
    pub(crate) cfg: ServerConfig,
    /// Flipped by `SHUTDOWN` (and the host's signal handler); the
    /// accept loop polls it.
    pub(crate) stop: Arc<AtomicBool>,
}

/// A parsed request line.
#[derive(Debug, PartialEq, Eq)]
enum Request {
    Ping,
    Docs,
    Shutdown,
    Query {
        doc: String,
        k: usize,
        timeout_ms: Option<u64>,
        stats: bool,
        q: String,
    },
}

/// Finds `q=` at a token boundary; everything after it is the query.
fn find_query_param(rest: &str) -> Option<usize> {
    let b = rest.as_bytes();
    (0..b.len().saturating_sub(1))
        .find(|&i| b[i] == b'q' && b[i + 1] == b'=' && (i == 0 || b[i - 1].is_ascii_whitespace()))
}

fn parse_request(line: &str) -> Result<Request, String> {
    let mut words = line.split_whitespace();
    let verb = words.next().ok_or_else(|| "empty request".to_string())?;
    match verb {
        "PING" => Ok(Request::Ping),
        "DOCS" => Ok(Request::Docs),
        "SHUTDOWN" => Ok(Request::Shutdown),
        "QUERY" => {
            let rest = line[line.find("QUERY").expect("verb present") + 5..].trim_start();
            let q_at = find_query_param(rest)
                .ok_or_else(|| "QUERY needs q=<query> (to end of line)".to_string())?;
            let (head, tail) = rest.split_at(q_at);
            let q = tail[2..].trim().to_string();
            if q.is_empty() {
                return Err("QUERY needs a non-empty query after q=".to_string());
            }
            let mut doc = None;
            let mut k = 5usize;
            let mut timeout_ms = None;
            let mut stats = false;
            for tok in head.split_whitespace() {
                match tok.split_once('=') {
                    Some(("doc", v)) if !v.is_empty() => doc = Some(v.to_string()),
                    Some(("k", v)) => {
                        k = v
                            .parse()
                            .map_err(|_| format!("k must be a positive integer, got '{v}'"))?;
                    }
                    Some(("timeout", v)) => {
                        let ms: u64 = v
                            .parse()
                            .map_err(|_| format!("timeout must be milliseconds, got '{v}'"))?;
                        timeout_ms = Some(ms);
                    }
                    Some(("stats", v)) => {
                        stats = match v {
                            "1" => true,
                            "0" => false,
                            _ => return Err(format!("stats must be 0 or 1, got '{v}'")),
                        };
                    }
                    _ => return Err(format!("unknown QUERY parameter '{tok}'")),
                }
            }
            let doc = doc.ok_or_else(|| "QUERY needs doc=<name>".to_string())?;
            Ok(Request::Query {
                doc,
                k,
                timeout_ms,
                stats,
                q,
            })
        }
        other => Err(format!(
            "unknown command '{other}' (expected PING, DOCS, QUERY, or SHUTDOWN)"
        )),
    }
}

fn send(writer: &mut impl Write, line: &str) -> io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Whether a response head opens a multi-line body (`OK <n>` / `DOCS
/// <n>` rows up to `END`). `OK draining` and every `ERR`/`BUSY`/`PONG`
/// is a single line.
pub fn is_multiline(head: &str) -> bool {
    let mut toks = head.split_whitespace();
    matches!(toks.next(), Some("OK") | Some("DOCS"))
        && toks.next().is_some_and(|n| n.parse::<u64>().is_ok())
}

/// The retry hint of a `BUSY retry-after-ms=<n>` head, in milliseconds;
/// `None` for every other response.
pub fn busy_retry_after_ms(head: &str) -> Option<u64> {
    head.strip_prefix(BUSY_HEAD)?.trim().parse().ok()
}

fn write_response(writer: &mut impl Write, resp: Response) -> io::Result<()> {
    match resp {
        Response::Ranking {
            rows,
            degraded,
            stats,
        } => {
            let mut head = format!("OK {}", rows.len());
            if let Some((healthy, total)) = degraded {
                head.push_str(&format!(" degraded={healthy}/{total}"));
            }
            send(writer, &head)?;
            for (rank, row) in rows.iter().enumerate() {
                let mut line = format!("{} {} {} {}", rank + 1, row.root, row.distance, row.size);
                if let Some(doc) = &row.doc {
                    line.push(' ');
                    line.push_str(doc);
                }
                send(writer, &line)?;
            }
            if let Some(stats) = stats {
                send(writer, &stats.render())?;
            }
            send(writer, "END")
        }
        Response::Timeout { limit_ms } => send(
            writer,
            &format!(
                "ERR timeout request exceeded its {limit_ms} ms deadline; \
                 no partial ranking is returned"
            ),
        ),
        Response::Internal => send(
            writer,
            "ERR internal request evaluation failed; the daemon logged the \
             panic and keeps serving",
        ),
    }
}

/// Serves one connection until EOF, a fatal protocol error, or
/// `SHUTDOWN`.
pub(crate) fn handle_conn<S: ConnStream>(stream: S, ctx: ConnCtx) {
    let _ = stream.set_stream_read_timeout(Some(ctx.cfg.read_timeout));
    let reader = match stream.try_clone_stream() {
        Ok(half) => BufReader::new(half),
        Err(_) => return,
    };
    serve_lines(reader, stream, ctx);
}

/// The protocol loop, generic over the halves so tests can drive it
/// with in-memory pipes.
pub(crate) fn serve_lines<R: BufRead, W: Write>(mut reader: R, mut writer: W, ctx: ConnCtx) {
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte past the limit tells an oversized line from one that
        // fits exactly.
        let limit = (MAX_REQUEST_LINE + 1) as u64;
        match reader.by_ref().take(limit).read_until(b'\n', &mut buf) {
            Ok(0) => return, // clean EOF
            Ok(_) if buf.last() != Some(&b'\n') => {
                // Either the line outgrew the limit, or the stream ended
                // mid-line and the request record was cut off. Best-effort
                // diagnosis, then drop the connection — there is no way
                // to resynchronize.
                let msg = if buf.len() > MAX_REQUEST_LINE {
                    format!("ERR proto request line exceeds {MAX_REQUEST_LINE} bytes")
                } else {
                    "ERR proto truncated request (stream ended mid-line)".to_string()
                };
                let _ = send(&mut writer, &msg);
                return;
            }
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                let _ = send(
                    &mut writer,
                    "ERR timeout idle connection: no complete request within the read timeout",
                );
                return;
            }
            Err(_) => return,
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            // Non-UTF-8 request bytes: corruption on the wire.
            let _ = send(&mut writer, "ERR proto request is not valid UTF-8");
            return;
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let req = match parse_request(trimmed) {
            Ok(req) => req,
            Err(msg) => {
                // One malformed line must not cost the client its
                // session: answer and keep reading.
                if send(&mut writer, &format!("ERR proto {msg}")).is_err() {
                    return;
                }
                continue;
            }
        };
        let keep_going = match req {
            Request::Ping => send(&mut writer, "PONG").is_ok(),
            Request::Docs => write_docs(&mut writer, &ctx).is_ok(),
            Request::Shutdown => {
                ctx.stop.store(true, Ordering::SeqCst);
                ctx.admission.begin_drain();
                let _ = send(&mut writer, "OK draining");
                false
            }
            Request::Query {
                doc,
                k,
                timeout_ms,
                stats,
                q,
            } => handle_query(&mut writer, &ctx, &doc, k, timeout_ms, stats, &q, trimmed).is_ok(),
        };
        if !keep_going {
            return;
        }
    }
}

fn write_docs(writer: &mut impl Write, ctx: &ConnCtx) -> io::Result<()> {
    send(writer, &format!("DOCS {}", ctx.store.len()))?;
    for doc in ctx.store.iter() {
        send(writer, &format!("{} {}", doc.name(), doc.node_count()))?;
    }
    send(writer, "END")
}

/// A query made ready for evaluation against its document.
struct PreparedQuery {
    /// Encoded into a tree document's dictionary, or in `dict`'s label
    /// space for a corpus.
    query: Tree,
    /// The request-local dictionary, kept for corpus documents only.
    dict: Option<LabelDict>,
    /// The query root's label name (fault-injection hook + log line).
    root_label: String,
}

/// Parses `q` into a request-local dictionary, then encodes it into a
/// tree document's read-only dictionary, or keeps the local one for a
/// corpus (whose shards encode from it). The cost depends on the query
/// alone, never on the size of the document's vocabulary.
fn prepare_query(doc: &Doc, q: &str) -> Result<PreparedQuery, XmlError> {
    let mut local = LabelDict::new();
    let parsed = tasm_xml::parse_tree_str(q, &mut local)?;
    let root_label = local.resolve(parsed.label(parsed.root())).to_string();
    let (query, dict) = match doc.dict() {
        Some(target) => (target.encode_tree(&parsed, &local), None),
        None => (parsed, Some(local)),
    };
    Ok(PreparedQuery {
        query,
        dict,
        root_label,
    })
}

#[allow(clippy::too_many_arguments)]
fn handle_query(
    writer: &mut impl Write,
    ctx: &ConnCtx,
    doc_name: &str,
    k: usize,
    timeout_ms: Option<u64>,
    stats: bool,
    q: &str,
    raw: &str,
) -> io::Result<()> {
    let Some(doc) = ctx.store.get(doc_name) else {
        return send(
            writer,
            &format!("ERR doc unknown document '{doc_name}' (list with DOCS)"),
        );
    };
    if let Some(corpus) = doc.corpus() {
        // A degraded corpus still answers, but a fully quarantined one
        // has nothing left to answer from: refuse explicitly instead of
        // returning a silently empty ranking.
        if corpus.healthy_count() == 0 && corpus.total_shards() > 0 {
            return send(
                writer,
                &format!(
                    "ERR doc corpus '{doc_name}' has all {} shard(s) quarantined \
                     (diagnose with `tasm corpus fsck`)",
                    corpus.total_shards()
                ),
            );
        }
    }
    if k == 0 {
        return send(writer, "ERR parse k must be >= 1");
    }
    if k > ctx.cfg.max_k {
        return send(
            writer,
            &format!(
                "ERR parse k={k} exceeds the server limit of {}",
                ctx.cfg.max_k
            ),
        );
    }
    let PreparedQuery {
        query,
        dict,
        root_label,
    } = match prepare_query(doc, q) {
        Ok(prepared) => prepared,
        Err(e) => return send(writer, &format!("ERR parse {e}")),
    };
    let dur = timeout_ms
        .map(Duration::from_millis)
        .unwrap_or(ctx.cfg.default_deadline)
        .min(ctx.cfg.max_deadline);
    let limit_ms = dur.as_millis() as u64;
    let slot = ResponseSlot::new();
    let req = PendingRequest {
        doc: doc.clone(),
        query,
        dict,
        k,
        timeout_ms: limit_ms,
        deadline_at: Instant::now() + dur,
        stats,
        root_label,
        raw: raw.to_string(),
        slot: slot.clone(),
    };
    match ctx.admission.submit(req) {
        Err(_) => send(
            writer,
            &format!("{BUSY_HEAD}{}", ctx.cfg.retry_after.as_millis()),
        ),
        Ok(token) => {
            // Generous upper bound: the request deadline plus slack for
            // queueing and response delivery. A miss means a worker was
            // lost in a way panic isolation did not catch.
            let grace = dur + ctx.cfg.drain_deadline + Duration::from_secs(30);
            let outcome = match slot.wait(grace) {
                Some(resp) => write_response(writer, resp),
                None => send(writer, "ERR internal response lost (worker did not answer)"),
            };
            // Only now has the response hit the socket: release the
            // drain accounting.
            drop(token);
            outcome
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasm_bench::alloc::{thread_allocated_bytes, CountingAlloc};
    use tasm_index::IndexedDocument;
    use tasm_tree::{LabelId, NodeId};

    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    /// A flat document over `n_labels` distinct labels: `l0` at the
    /// root, one leaf per other label.
    fn flat_doc(n_labels: usize) -> (Tree, LabelDict) {
        let mut dict = LabelDict::with_capacity(n_labels);
        let mut entries: Vec<(LabelId, u32)> = (1..n_labels)
            .map(|i| (dict.intern(&format!("l{i}")), 1))
            .collect();
        entries.push((dict.intern("l0"), n_labels as u32));
        (Tree::from_postorder(entries).unwrap(), dict)
    }

    /// Bytes the calling thread allocates while running `f`, whose
    /// result is dropped inside the measurement.
    fn bytes_allocated<T>(f: impl FnOnce() -> T) -> usize {
        let before = thread_allocated_bytes();
        drop(f());
        thread_allocated_bytes() - before
    }

    /// Known labels, an attribute, text, and a label no document has.
    const QUERY: &str = r#"<l0><l7 year="1999">l3</l7><nosuchlabel/></l0>"#;

    #[test]
    fn request_preparation_allocates_the_same_bytes_for_any_vocabulary() {
        let mut prepared = Vec::new();
        let mut encoded = Vec::new();
        for n_labels in [1_000, 100_000] {
            let (tree, dict) = flat_doc(n_labels);
            let idx = IndexedDocument::build(&tree, &dict);
            let doc = Doc::new("d", tree, dict);
            let mut src = LabelDict::new();
            let query = tasm_xml::parse_tree_str(QUERY, &mut src).unwrap();
            // Warm up once, so lazily built per-thread state is not counted.
            drop(prepare_query(&doc, QUERY).unwrap());
            prepared.push(bytes_allocated(|| prepare_query(&doc, QUERY).unwrap()));
            encoded.push(bytes_allocated(|| idx.encode_queries(&[&query], &src)));
            assert_eq!(doc.dict().unwrap().len(), n_labels, "read-only dictionary");
            assert_eq!(idx.dict().len(), n_labels, "read-only dictionary");
        }
        assert_eq!(
            prepared[0], prepared[1],
            "daemon parse + encode: {prepared:?}"
        );
        assert_eq!(encoded[0], encoded[1], "encode_queries: {encoded:?}");
        // O(|Q|): far below even the smaller dictionary's size.
        assert!(prepared[0] < 16 << 10, "{prepared:?}");
        assert!(encoded[0] < 1 << 10, "{encoded:?}");
    }

    #[test]
    fn tree_queries_are_encoded_and_corpus_queries_keep_their_dictionary() {
        let (tree, dict) = flat_doc(10);
        let l7 = dict.get("l7").unwrap();
        let doc = Doc::new("d", tree, dict);
        let p = prepare_query(&doc, "<l0><l7>l3</l7><nosuchlabel/></l0>").unwrap();
        assert!(
            p.dict.is_none(),
            "a tree request carries only the encoded tree"
        );
        assert_eq!(p.root_label, "l0");
        // Postorder: l3 text, l7, nosuchlabel, l0.
        assert_eq!(p.query.label(NodeId::new(2)), l7);
        let fresh = p.query.label(NodeId::new(3));
        assert!(
            fresh.index() >= 10,
            "an unknown label matches no document label"
        );

        let dir = std::env::temp_dir().join(format!("tasm-serve-prepare-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let corpus = tasm_index::Corpus::create(&dir).unwrap();
        let doc = Doc::new_corpus("c", Arc::new(corpus));
        let p = prepare_query(&doc, "<__fault_panic__/>").unwrap();
        let local = p.dict.expect("a corpus request keeps its local dictionary");
        assert_eq!(
            local.resolve(p.query.label(p.query.root())),
            "__fault_panic__"
        );
        assert_eq!(p.root_label, "__fault_panic__");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn request_grammar_round_trips() {
        assert_eq!(parse_request("PING").unwrap(), Request::Ping);
        assert_eq!(parse_request("DOCS").unwrap(), Request::Docs);
        assert_eq!(parse_request("SHUTDOWN").unwrap(), Request::Shutdown);
        let q = parse_request("QUERY doc=dblp k=3 timeout=250 q=<a><b/></a>").unwrap();
        assert_eq!(
            q,
            Request::Query {
                doc: "dblp".into(),
                k: 3,
                timeout_ms: Some(250),
                stats: false,
                q: "<a><b/></a>".into(),
            }
        );
        let q = parse_request("QUERY doc=dblp stats=1 q=<a/>").unwrap();
        match q {
            Request::Query { stats, .. } => assert!(stats),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn query_text_runs_to_end_of_line() {
        let q = parse_request("QUERY doc=d q=<a x=\"1\"> spaces </a>").unwrap();
        match q {
            Request::Query { q, k, .. } => {
                assert_eq!(q, "<a x=\"1\"> spaces </a>");
                assert_eq!(k, 5, "k defaults");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn q_param_is_found_at_token_boundaries_only() {
        // "doc=myq=weird" must not be mistaken for the query parameter.
        let q = parse_request("QUERY doc=myq=weird q=<a/>").unwrap();
        match q {
            Request::Query { doc, q, .. } => {
                assert_eq!(doc, "myq=weird");
                assert_eq!(q, "<a/>");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn framing_distinguishes_single_and_multi_line_heads() {
        assert!(is_multiline("OK 3"));
        assert!(is_multiline("OK 0 degraded=1/2"));
        assert!(is_multiline("DOCS 2"));
        assert!(!is_multiline("OK draining"));
        assert!(!is_multiline("PONG"));
        assert!(!is_multiline("ERR doc unknown document"));
        assert!(!is_multiline("BUSY retry-after-ms=100"));
    }

    #[test]
    fn busy_hint_parses_only_from_busy_heads() {
        assert_eq!(busy_retry_after_ms("BUSY retry-after-ms=50"), Some(50));
        assert_eq!(busy_retry_after_ms("BUSY retry-after-ms=soon"), None);
        assert_eq!(busy_retry_after_ms("OK 1"), None);
        assert_eq!(busy_retry_after_ms("ERR proto BUSY retry-after-ms=5"), None);
    }

    #[test]
    fn malformed_requests_are_diagnosed() {
        for (line, needle) in [
            ("NOPE", "unknown command"),
            ("QUERY doc=d", "q=<query>"),
            ("QUERY doc=d q=", "non-empty query"),
            ("QUERY q=<a/>", "doc=<name>"),
            ("QUERY doc=d k=zero q=<a/>", "positive integer"),
            ("QUERY doc=d timeout=soon q=<a/>", "milliseconds"),
            ("QUERY doc=d stats=yes q=<a/>", "stats must be 0 or 1"),
            ("QUERY doc=d frob=1 q=<a/>", "unknown QUERY parameter"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }
}
