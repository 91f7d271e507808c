//! Per-connection protocol handling for the query daemon.
//!
//! The wire protocol is deliberately boring: newline-delimited ASCII
//! requests, newline-delimited responses, no framing beyond `\n`, no
//! dependencies beyond `std`. One thread per connection reads lines,
//! classifies failures, and answers each query itself once the
//! admission gate lets it evaluate.
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
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::admission::Admission;
use crate::{fault, Doc, DocStore, ServerConfig};
use tasm_core::{threshold, ScanStats};
use tasm_ted::{dp_bytes, Cost, DP_BYTES_LIMIT};
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
///
/// For a tree document the counters are the resident sweep's:
/// `nodes_seen` is the spine (nodes over τ) plus the candidates' nodes,
/// and `peak_buffered` is the largest candidate, not a ring size. The
/// funnel counters follow the sweep's evaluation order, so they may
/// differ from a one-shot scan's; the rankings do not.
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

/// The answer to one query.
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
    /// Evaluation panicked; the connection thread recovered and logged
    /// the payload.
    Internal,
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
    Query(QueryRequest),
}

/// The parameters of one `QUERY` line.
#[derive(Debug, PartialEq, Eq)]
struct QueryRequest {
    /// The document (or corpus) name.
    doc: String,
    /// The ranking size; 0 is refused when the request is handled.
    k: usize,
    /// The requested timeout, capped by the server's limit.
    timeout_ms: Option<u64>,
    /// Whether the answer carries a `STATS` line.
    stats: bool,
    /// The query XML.
    q: String,
}

/// Finds `q=` at a token boundary; everything after it is the query.
fn find_query_param(rest: &str) -> Option<usize> {
    let b = rest.as_bytes();
    (0..b.len().saturating_sub(1))
        .find(|&i| b[i] == b'q' && b[i + 1] == b'=' && (i == 0 || b[i - 1].is_ascii_whitespace()))
}

/// Stores a `QUERY` parameter's value, refusing a second one: a
/// repeated `k=` must not silently win over the first.
fn set_once<T>(slot: &mut Option<T>, key: &str, value: T) -> Result<(), String> {
    match slot.replace(value) {
        Some(_) => Err(format!("duplicate QUERY parameter '{key}'")),
        None => Ok(()),
    }
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
            let mut k = None;
            let mut timeout_ms = None;
            let mut stats = None;
            for tok in head.split_whitespace() {
                match tok.split_once('=') {
                    Some(("doc", v)) if !v.is_empty() => set_once(&mut doc, "doc", v.to_string())?,
                    Some(("k", v)) => {
                        let n = v
                            .parse()
                            .map_err(|_| format!("k must be a positive integer, got '{v}'"))?;
                        set_once(&mut k, "k", n)?;
                    }
                    Some(("timeout", v)) => {
                        let ms = v
                            .parse()
                            .map_err(|_| format!("timeout must be milliseconds, got '{v}'"))?;
                        set_once(&mut timeout_ms, "timeout", ms)?;
                    }
                    Some(("stats", v)) => {
                        let on = match v {
                            "1" => true,
                            "0" => false,
                            _ => return Err(format!("stats must be 0 or 1, got '{v}'")),
                        };
                        set_once(&mut stats, "stats", on)?;
                    }
                    _ => return Err(format!("unknown QUERY parameter '{tok}'")),
                }
            }
            let doc = doc.ok_or_else(|| "QUERY needs doc=<name>".to_string())?;
            Ok(Request::Query(QueryRequest {
                doc,
                k: k.unwrap_or(5),
                timeout_ms,
                stats: stats.unwrap_or(false),
                q,
            }))
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
            Request::Query(req) => handle_query(&mut writer, &ctx, &req, trimmed).is_ok(),
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
pub(crate) struct PreparedQuery {
    /// Encoded into a tree document's dictionary, or in `dict`'s label
    /// space for a corpus.
    pub(crate) query: Tree,
    /// The request-local dictionary, kept for corpus documents only.
    pub(crate) dict: Option<LabelDict>,
    /// The query root's label name (the fault-injection hook).
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

/// Answers one `QUERY`: checks it against the document and the server
/// limits, enters the admission gate, evaluates it under panic
/// isolation, frees the slot and writes the response. `raw` is the
/// request line, logged if the evaluation panics.
fn handle_query(
    writer: &mut impl Write,
    ctx: &ConnCtx,
    req: &QueryRequest,
    raw: &str,
) -> io::Result<()> {
    let (doc_name, k) = (req.doc.as_str(), req.k);
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
    let prepared = match prepare_query(doc, &req.q) {
        Ok(prepared) => prepared,
        Err(e) => return send(writer, &format!("ERR parse {e}")),
    };
    // No candidate is larger than τ or the tree, so this bounds every
    // distance matrix the evaluation fills; a larger one would abort
    // the daemon on its allocation.
    let (m, n) = (prepared.query.len(), doc.largest_tree());
    let tau = threshold(m as u64, 1, 1, k as u64);
    let cols = usize::try_from(tau).map_or(n, |tau| tau.min(n));
    if dp_bytes(m, cols) > DP_BYTES_LIMIT {
        return send(
            writer,
            &format!(
                "ERR parse a {m}-node query over a {n}-node document needs {} MiB \
                 of distance matrices, over the server limit of {} MiB",
                dp_bytes(m, cols) >> 20,
                DP_BYTES_LIMIT >> 20
            ),
        );
    }
    let dur = req
        .timeout_ms
        .map(Duration::from_millis)
        .unwrap_or(ctx.cfg.default_deadline)
        .min(ctx.cfg.max_deadline);
    // Fixed at admission: time spent waiting for a slot counts.
    let deadline = Instant::now() + dur;
    let Ok((token, slot)) = ctx.admission.enter() else {
        return send(
            writer,
            &format!("{BUSY_HEAD}{}", ctx.cfg.retry_after.as_millis()),
        );
    };
    let ticket = slot.ticket;
    // The slot moves into the evaluation and is dropped when it ends,
    // so it is free before the response is written. A panic drops it
    // while unwinding, which discards its workspace.
    let outcome = catch_unwind(AssertUnwindSafe(move || {
        let mut slot = slot;
        fault::maybe_inject(&prepared.root_label);
        let ws = slot.workspace();
        crate::evaluate(
            doc,
            &prepared,
            k,
            req.stats,
            deadline,
            ctx.cfg.corpus_threads,
            ws,
        )
    }));
    let resp = match outcome {
        Ok(Some(resp)) => resp,
        Ok(None) => Response::Timeout {
            limit_ms: dur.as_millis() as u64,
        },
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic payload>");
            eprintln!("tasm serve: request #{ticket} panicked: {msg}");
            eprintln!("tasm serve:   request: {raw}");
            Response::Internal
        }
    };
    let outcome = write_response(writer, resp);
    // Only now has the response hit the socket: release the drain
    // accounting.
    drop(token);
    outcome
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
            Request::Query(QueryRequest {
                doc: "dblp".into(),
                k: 3,
                timeout_ms: Some(250),
                stats: false,
                q: "<a><b/></a>".into(),
            })
        );
        let q = parse_request("QUERY doc=dblp stats=1 q=<a/>").unwrap();
        match q {
            Request::Query(QueryRequest { stats, .. }) => assert!(stats),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn query_text_runs_to_end_of_line() {
        let q = parse_request("QUERY doc=d q=<a x=\"1\"> spaces </a>").unwrap();
        match q {
            Request::Query(QueryRequest { q, k, .. }) => {
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
            Request::Query(QueryRequest { doc, q, .. }) => {
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

    #[test]
    fn repeated_query_parameters_are_refused() {
        for (line, key) in [
            ("QUERY doc=d k=1 k=2 q=<a/>", "k"),
            ("QUERY doc=d doc=e q=<a/>", "doc"),
            ("QUERY doc=d timeout=5 timeout=5 q=<a/>", "timeout"),
            ("QUERY stats=0 doc=d stats=1 q=<a/>", "stats"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err, format!("duplicate QUERY parameter '{key}'"), "{line}");
        }
    }

    /// Characters the request fuzzer splices in: every separator the
    /// grammar cares about, ASCII and Unicode whitespace (the verb split
    /// is Unicode-aware, the `q=` boundary check ASCII-only), and
    /// multi-byte characters that make byte offsets land mid-character.
    const SPLICE: [char; 16] = [
        ' ', '\t', '=', 'q', 'k', '<', '>', '/', '\u{a0}', '\u{85}', '\u{2003}', '\u{3000}',
        '\u{2028}', 'é', '€', '😀',
    ];

    /// A valid `QUERY` line and the request it must parse to.
    fn query_line(
        doc: u64,
        k: u64,
        timeout: Option<u64>,
        stats: bool,
        q: &str,
    ) -> (String, Request) {
        let mut line = format!("QUERY doc=d{doc} k={k}");
        if let Some(ms) = timeout {
            line.push_str(&format!(" timeout={ms}"));
        }
        if stats {
            line.push_str(" stats=1");
        }
        line.push_str(&format!(" q={q}"));
        let want = Request::Query(QueryRequest {
            doc: format!("d{doc}"),
            k: k as usize,
            timeout_ms: timeout,
            stats,
            q: q.to_string(),
        });
        (line, want)
    }

    /// Inserts `text` into `line` at the character boundary at or after
    /// byte `at` (wrapped to the line's length).
    fn insert_at(line: &str, at: usize, text: &str) -> String {
        let mut at = at % (line.len() + 1);
        while !line.is_char_boundary(at) {
            at += 1;
        }
        let mut out = line.to_string();
        out.insert_str(at, text);
        out
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        /// Query texts, including ones with spaces, `=` and `q=` inside.
        const QUERIES: [&str; 4] = ["<a/>", "<a><b/></a>", "<a x=\"q=1\"> t </a>", "<é>€</é>"];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn arbitrary_strings_never_panic(
                codes in prop::collection::vec(any::<u32>(), 0..48),
                verb in 0usize..5,
            ) {
                // Random characters behind each verb (and none): most
                // land in the QUERY parameter parser.
                let body: String = codes
                    .iter()
                    .map(|&c| match c % 4 {
                        0 => SPLICE[(c / 4) as usize % SPLICE.len()],
                        _ => char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}'),
                    })
                    .collect();
                let line = match verb {
                    0 => body,
                    1 => format!("QUERY {body}"),
                    2 => format!("QUERY doc=d {body}"),
                    3 => format!("QUERY doc=d q={body}"),
                    _ => format!("PING{body}"),
                };
                let _ = parse_request(&line);
            }

            #[test]
            fn valid_query_lines_round_trip(
                doc in any::<u64>(),
                k in any::<u64>(),
                timeout in (any::<bool>(), any::<u64>()),
                stats in any::<bool>(),
                qi in 0usize..4,
            ) {
                let timeout = timeout.0.then_some(timeout.1);
                let (line, want) = query_line(doc, k, timeout, stats, QUERIES[qi]);
                prop_assert_eq!(parse_request(&line), Ok(want));
            }

            #[test]
            fn mutated_query_lines_never_panic(
                qi in 0usize..4,
                max in any::<bool>(),
                mutation in 0usize..4,
                at in any::<usize>(),
                arg in any::<usize>(),
            ) {
                // k= and timeout= at u64::MAX (or one past it, when
                // `max` is off and a digit gets spliced in).
                let (line, _) = query_line(7, u64::MAX, Some(u64::MAX), max, QUERIES[qi]);
                let mutated = match mutation {
                    // Flip one byte, then read the bytes back lossily.
                    0 => {
                        let mut bytes = line.clone().into_bytes();
                        let i = at % bytes.len();
                        bytes[i] ^= (arg % 255 + 1) as u8;
                        String::from_utf8_lossy(&bytes).into_owned()
                    }
                    // Cut at any byte, mid-character included.
                    1 => String::from_utf8_lossy(&line.as_bytes()[..at % (line.len() + 1)])
                        .into_owned(),
                    // Splice a separator, whitespace or multi-byte char.
                    2 => {
                        let c = SPLICE[arg % SPLICE.len()];
                        insert_at(&line, at, c.encode_utf8(&mut [0; 4]))
                    }
                    // Another `q=`, at or off a token boundary.
                    _ => insert_at(&line, at, if arg.is_multiple_of(2) { " q=" } else { "q=" }),
                };
                let _ = parse_request(&mutated);
            }
        }
    }
}
