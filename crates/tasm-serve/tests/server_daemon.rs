//! End-to-end daemon tests: a real [`Server`] behind a real Unix
//! socket, driven by real client connections.
//!
//! The protocol surface (PING/DOCS/QUERY/SHUTDOWN, ERR kinds, BUSY,
//! truncated requests) is exercised without any fault-injection
//! feature; the paths that need a misbehaving *worker* (panic
//! isolation, stalls) live in `server_faults.rs` behind
//! `--features fault-inject`.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use tasm_core::{tasm_corpus_batch, tasm_postorder, BatchQuery, Run, TasmOptions, TasmWorkspace};
use tasm_index::Corpus;
use tasm_serve::{is_multiline, Doc, DocStore, Server, ServerConfig};
use tasm_ted::UnitCost;
use tasm_tree::{bracket, LabelDict, TreeQueue};
use tasm_xml::parse_tree_str;

const DOC: &str =
    "{dblp{article{auth{John}}{title{X1}}}{article{auth{Mary}}{title{X2}}}{book{title{X3}}}}";

fn store() -> (DocStore, LabelDict) {
    let mut dict = LabelDict::new();
    let tree = bracket::parse(DOC, &mut dict).unwrap();
    let mut store = DocStore::new();
    store.insert(Doc::new("dblp", tree, dict.clone()));
    (store, dict)
}

struct Daemon {
    path: PathBuf,
    handle: JoinHandle<bool>,
}

impl Daemon {
    /// Serves `cfg` over a fresh Unix socket; the thread exits after a
    /// SHUTDOWN request, returning `drain()`'s verdict.
    fn start(name: &str, cfg: ServerConfig) -> Daemon {
        let (store, _) = store();
        Daemon::start_with_store(name, cfg, store)
    }

    fn start_with_store(name: &str, cfg: ServerConfig, store: DocStore) -> Daemon {
        let path = std::env::temp_dir().join(format!(
            "tasm-serve-daemon-{}-{name}.sock",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).unwrap();
        let server = Server::new(cfg, store);
        let handle = std::thread::spawn(move || {
            server.serve_unix(&listener, None).unwrap();
            server.drain()
        });
        Daemon { path, handle }
    }

    fn connect(&self) -> (BufReader<UnixStream>, UnixStream) {
        let stream = UnixStream::connect(&self.path).unwrap();
        (BufReader::new(stream.try_clone().unwrap()), stream)
    }

    /// SHUTDOWN over a fresh connection, then join the serve thread.
    fn shutdown(self) -> bool {
        let (mut rd, mut wr) = self.connect();
        wr.write_all(b"SHUTDOWN\n").unwrap();
        assert_eq!(read_line(&mut rd), "OK draining");
        let clean = self.handle.join().unwrap();
        let _ = std::fs::remove_file(&self.path);
        clean
    }
}

fn read_line(rd: &mut BufReader<UnixStream>) -> String {
    let mut line = String::new();
    rd.read_line(&mut line).unwrap();
    line.trim_end().to_string()
}

/// Sends one request line and collects the full response (single line,
/// or OK/DOCS header + rows + END).
fn roundtrip(rd: &mut BufReader<UnixStream>, wr: &mut UnixStream, req: &str) -> Vec<String> {
    wr.write_all(req.as_bytes()).unwrap();
    wr.write_all(b"\n").unwrap();
    let head = read_line(rd);
    let mut out = vec![head.clone()];
    if is_multiline(&head) {
        loop {
            let row = read_line(rd);
            let done = row == "END";
            out.push(row);
            if done {
                break;
            }
        }
    }
    out
}

#[test]
fn ping_docs_query_match_the_oneshot_engine() {
    let daemon = Daemon::start("basic", ServerConfig::default());
    let (mut rd, mut wr) = daemon.connect();

    assert_eq!(roundtrip(&mut rd, &mut wr, "PING"), ["PONG"]);

    let docs = roundtrip(&mut rd, &mut wr, "DOCS");
    assert_eq!(docs[0], "DOCS 1");
    assert!(docs[1].starts_with("dblp "), "{docs:?}");

    // Differential: the daemon's ranking is the one-shot engine's.
    let query_text = "<article><auth/><title/></article>";
    let resp = roundtrip(
        &mut rd,
        &mut wr,
        &format!("QUERY doc=dblp k=3 q={query_text}"),
    );
    let (_, mut dict) = store();
    let query = parse_tree_str(query_text, &mut dict).unwrap();
    let doc = bracket::parse(DOC, &mut dict).unwrap();
    let mut queue = TreeQueue::new(&doc);
    let expect = tasm_postorder(
        &query,
        &mut queue,
        3,
        &UnitCost,
        1,
        TasmOptions::default(),
        None,
    );
    assert_eq!(resp[0], format!("OK {}", expect.len()));
    for (i, m) in expect.iter().enumerate() {
        assert_eq!(
            resp[1 + i],
            format!("{} {} {} {}", i + 1, m.root.post(), m.distance, m.size)
        );
    }
    assert_eq!(resp.last().unwrap(), "END");

    assert!(daemon.shutdown(), "drain must be clean");
}

#[test]
fn protocol_errors_are_structured_and_survivable() {
    let daemon = Daemon::start("errors", ServerConfig::default());
    let (mut rd, mut wr) = daemon.connect();

    // A garbage line costs one ERR proto, not the connection.
    let resp = roundtrip(&mut rd, &mut wr, "FROBNICATE all the things");
    assert!(resp[0].starts_with("ERR proto "), "{resp:?}");
    assert_eq!(roundtrip(&mut rd, &mut wr, "PING"), ["PONG"]);

    let resp = roundtrip(&mut rd, &mut wr, "QUERY doc=nope k=1 q=<a/>");
    assert!(resp[0].starts_with("ERR doc "), "{resp:?}");

    let resp = roundtrip(&mut rd, &mut wr, "QUERY doc=dblp k=0 q=<a/>");
    assert!(resp[0].starts_with("ERR parse "), "{resp:?}");

    let resp = roundtrip(&mut rd, &mut wr, "QUERY doc=dblp k=999999999 q=<a/>");
    assert!(
        resp[0].starts_with("ERR parse ") && resp[0].contains("server limit"),
        "{resp:?}"
    );

    let resp = roundtrip(&mut rd, &mut wr, "QUERY doc=dblp k=1 q=<unclosed>");
    assert!(resp[0].starts_with("ERR parse "), "{resp:?}");

    assert!(daemon.shutdown());
}

#[test]
fn truncated_request_is_diagnosed_and_dropped() {
    let daemon = Daemon::start("truncated", ServerConfig::default());
    let (mut rd, wr) = daemon.connect();

    // A request cut off mid-line (no trailing newline, then EOF).
    (&wr).write_all(b"QUERY doc=dblp k=1 q=<a").unwrap();
    wr.shutdown(Shutdown::Write).unwrap();
    let resp = read_line(&mut rd);
    assert!(
        resp.starts_with("ERR proto truncated request"),
        "got: {resp}"
    );
    // The daemon dropped only THIS connection; a fresh one works.
    let (mut rd2, mut wr2) = daemon.connect();
    assert_eq!(roundtrip(&mut rd2, &mut wr2, "PING"), ["PONG"]);

    assert!(daemon.shutdown());
}

#[test]
fn an_oversized_request_line_is_refused_and_dropped() {
    let daemon = Daemon::start("oversized", ServerConfig::default());
    let (mut rd, mut wr) = daemon.connect();

    // One byte past the 1 MiB limit, with no newline: the daemon
    // refuses the line instead of buffering it.
    wr.write_all(&vec![b'x'; (1 << 20) + 1]).unwrap();
    let resp = read_line(&mut rd);
    assert_eq!(resp, "ERR proto request line exceeds 1048576 bytes");
    // There is no way to resynchronize, so the connection is dropped;
    // a fresh one works.
    assert_eq!(read_line(&mut rd), "", "connection closed");
    let (mut rd2, mut wr2) = daemon.connect();
    assert_eq!(roundtrip(&mut rd2, &mut wr2, "PING"), ["PONG"]);

    assert!(daemon.shutdown());
}

#[test]
fn an_already_expired_deadline_times_out_with_no_partial_ranking() {
    let daemon = Daemon::start("deadline", ServerConfig::default());
    let (mut rd, mut wr) = daemon.connect();

    // timeout=0: the deadline has passed before the scan starts; the
    // forced pre-scan check refuses the request.
    let resp = roundtrip(
        &mut rd,
        &mut wr,
        "QUERY doc=dblp k=2 timeout=0 q=<article/>",
    );
    assert!(resp[0].starts_with("ERR timeout "), "{resp:?}");
    assert!(resp[0].contains("no partial ranking"), "{resp:?}");

    // The worker is fine afterwards.
    let resp = roundtrip(&mut rd, &mut wr, "QUERY doc=dblp k=1 q=<article/>");
    assert!(resp[0].starts_with("OK "), "{resp:?}");

    assert!(daemon.shutdown());
}

/// On-disk corpus for the daemon tests: two bracket documents whose
/// subtree structure mirrors the tree-doc fixture.
fn corpus_on_disk(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tasm-daemon-corpus-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut corpus = Corpus::create(&dir).unwrap();
    let docs = [
        (
            "alpha",
            "{dblp{article{auth{John}}{title{X1}}}{book{title{X2}}}}",
        ),
        (
            "beta",
            "{dblp{article{auth{Mary}}{title{X2}}}{article{auth{John}}{title{X3}}}}",
        ),
    ];
    for (name, src) in docs {
        let mut dict = LabelDict::new();
        let tree = bracket::parse(src, &mut dict).unwrap();
        corpus.add(name, &tree, &dict, None).unwrap();
    }
    dir
}

fn corpus_store(dir: &PathBuf) -> DocStore {
    let corpus = Corpus::open(dir).unwrap();
    let mut store = DocStore::new();
    store.insert(Doc::new_corpus("corp", Arc::new(corpus)));
    store
}

#[test]
fn corpus_doc_rows_carry_the_document_and_match_the_engine() {
    let dir = corpus_on_disk("healthy");
    let daemon = Daemon::start_with_store("corpus", ServerConfig::default(), corpus_store(&dir));
    let (mut rd, mut wr) = daemon.connect();

    let docs = roundtrip(&mut rd, &mut wr, "DOCS");
    assert_eq!(docs[0], "DOCS 1");
    assert!(docs[1].starts_with("corp "), "{docs:?}");

    let query_text = "<article><auth>John</auth><title>X1</title></article>";
    let resp = roundtrip(
        &mut rd,
        &mut wr,
        &format!("QUERY doc=corp k=3 q={query_text}"),
    );
    // Healthy corpus: no degraded marker on the OK line.
    assert_eq!(resp[0], "OK 3", "{resp:?}");

    // Differential: identical to the direct corpus engine call.
    let corpus = Corpus::open(&dir).unwrap();
    let mut qdict = LabelDict::new();
    let query = parse_tree_str(query_text, &mut qdict).unwrap();
    let out = tasm_corpus_batch(
        &[BatchQuery {
            query: &query,
            k: 3,
        }],
        &qdict,
        &corpus,
        &Run::default(),
        &mut TasmWorkspace::new(),
    )
    .unwrap();
    assert!(!out.status.is_degraded());
    let expect = &out.rankings[0];
    for (i, m) in expect.iter().enumerate() {
        assert_eq!(
            resp[1 + i],
            format!(
                "{} {} {} {} {}",
                i + 1,
                m.hit.root.post(),
                m.hit.distance,
                m.hit.size,
                m.doc
            )
        );
    }
    // The exact match lives in alpha.
    assert!(resp[1].ends_with(" alpha"), "{resp:?}");
    assert_eq!(resp.last().unwrap(), "END");

    // stats=1 adds the funnel with the shard health count.
    let resp = roundtrip(
        &mut rd,
        &mut wr,
        &format!("QUERY doc=corp k=3 stats=1 q={query_text}"),
    );
    let stats_line = resp
        .iter()
        .find(|l| l.starts_with("STATS "))
        .expect("STATS line present");
    assert!(stats_line.contains("candidates="), "{stats_line}");
    assert!(stats_line.contains("shards=2/2"), "{stats_line}");

    assert!(daemon.shutdown());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queries_with_labels_the_document_lacks_match_the_engine() {
    // `nosuchlabel` occurs in neither document: the daemon encodes it
    // past the document's dictionary instead of adding it there, and
    // the ranking must not notice.
    let query_text = "<article><auth>John</auth><nosuchlabel/></article>";

    // Tree document: the reference parses into a copy of the document's
    // dictionary, the one-shot engine's way.
    let daemon = Daemon::start("absent-label", ServerConfig::default());
    let (mut rd, mut wr) = daemon.connect();
    let resp = roundtrip(
        &mut rd,
        &mut wr,
        &format!("QUERY doc=dblp k=4 q={query_text}"),
    );
    let (_, mut dict) = store();
    let doc = bracket::parse(DOC, &mut dict).unwrap();
    let query = parse_tree_str(query_text, &mut dict).unwrap();
    let expect = tasm_postorder(
        &query,
        &mut TreeQueue::new(&doc),
        4,
        &UnitCost,
        1,
        TasmOptions::default(),
        None,
    );
    let mut want = vec![format!("OK {}", expect.len())];
    for (i, m) in expect.iter().enumerate() {
        want.push(format!(
            "{} {} {} {}",
            i + 1,
            m.root.post(),
            m.distance,
            m.size
        ));
    }
    want.push("END".to_string());
    assert_eq!(resp, want);
    assert!(daemon.shutdown());

    // Corpus document: the reference parses into a copy of the
    // manifest's dictionary.
    let dir = corpus_on_disk("absent-label");
    let daemon = Daemon::start_with_store(
        "absent-label-corpus",
        ServerConfig::default(),
        corpus_store(&dir),
    );
    let (mut rd, mut wr) = daemon.connect();
    let resp = roundtrip(
        &mut rd,
        &mut wr,
        &format!("QUERY doc=corp k=4 q={query_text}"),
    );
    let corpus = Corpus::open(&dir).unwrap();
    let mut qdict = LabelDict::new();
    let query = parse_tree_str(query_text, &mut qdict).unwrap();
    let out = tasm_corpus_batch(
        &[BatchQuery {
            query: &query,
            k: 4,
        }],
        &qdict,
        &corpus,
        &Run::default(),
        &mut TasmWorkspace::new(),
    )
    .unwrap();
    let expect = &out.rankings[0];
    let mut want = vec![format!("OK {}", expect.len())];
    for (i, m) in expect.iter().enumerate() {
        want.push(format!(
            "{} {} {} {} {}",
            i + 1,
            m.hit.root.post(),
            m.hit.distance,
            m.hit.size,
            m.doc
        ));
    }
    want.push("END".to_string());
    assert_eq!(resp, want);
    assert!(daemon.shutdown());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn degraded_corpus_answers_with_an_explicit_marker() {
    let dir = corpus_on_disk("degraded");
    // Corrupt beta's shard: the daemon must keep serving alpha.
    let shard = dir.join("beta.pqi");
    let mut bytes = std::fs::read(&shard).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x02;
    std::fs::write(&shard, &bytes).unwrap();

    let daemon = Daemon::start_with_store("degraded", ServerConfig::default(), corpus_store(&dir));
    let (mut rd, mut wr) = daemon.connect();
    let resp = roundtrip(
        &mut rd,
        &mut wr,
        "QUERY doc=corp k=2 stats=1 q=<article><auth>John</auth><title>X1</title></article>",
    );
    assert!(resp[0].starts_with("OK 2 degraded=1/2"), "{resp:?}");
    for row in &resp[1..resp.len() - 2] {
        assert!(row.ends_with(" alpha"), "quarantined doc leaked: {resp:?}");
    }
    let stats_line = resp.iter().find(|l| l.starts_with("STATS ")).unwrap();
    assert!(stats_line.contains("shards=1/2"), "{stats_line}");

    assert!(daemon.shutdown());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fully_quarantined_corpus_refuses_queries_but_keeps_serving() {
    let dir = corpus_on_disk("dead");
    for name in ["alpha", "beta"] {
        let shard = dir.join(format!("{name}.pqi"));
        let mut bytes = std::fs::read(&shard).unwrap();
        bytes.truncate(bytes.len() - 1);
        std::fs::write(&shard, &bytes).unwrap();
    }
    let daemon = Daemon::start_with_store("dead", ServerConfig::default(), corpus_store(&dir));
    let (mut rd, mut wr) = daemon.connect();
    let resp = roundtrip(&mut rd, &mut wr, "QUERY doc=corp k=1 q=<article/>");
    assert!(resp[0].starts_with("ERR doc "), "{resp:?}");
    assert!(resp[0].contains("quarantined"), "{resp:?}");
    // The daemon itself is healthy: the refusal is per-document.
    assert_eq!(roundtrip(&mut rd, &mut wr, "PING"), ["PONG"]);
    assert!(daemon.shutdown());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queries_after_shutdown_are_shed_with_busy() {
    let daemon = Daemon::start("late", ServerConfig::default());
    // Open the connection BEFORE the drain begins…
    let (mut rd, mut wr) = daemon.connect();
    let (mut srd, mut swr) = daemon.connect();
    swr.write_all(b"SHUTDOWN\n").unwrap();
    assert_eq!(read_line(&mut srd), "OK draining");
    // …and race the request against it: once draining, admission sheds.
    let mut saw_busy = false;
    for _ in 0..10 {
        let resp = roundtrip(&mut rd, &mut wr, "QUERY doc=dblp k=1 q=<a/>");
        if resp[0].starts_with("BUSY retry-after-ms=") {
            saw_busy = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(saw_busy, "post-drain queries must be shed with BUSY");
    assert!(daemon.handle.join().unwrap(), "drain stays clean");
    let _ = std::fs::remove_file(&daemon.path);
}
