//! Fault-matrix tests for the daemon: every recovery path that needs a
//! *misbehaving evaluation* to become reachable. Compiled only with
//! `--features fault-inject`, which arms the magic query labels
//! (`__fault_panic__`, `__fault_sleep_<ms>__`) inside the evaluation
//! path.
//!
//! Matrix rows covered here: in-request panic (on a tree and on a
//! corpus document, and with one evaluation slot), stall past deadline
//! (while evaluating and while waiting for a slot), overload burst,
//! arrival-order backlog, SIGTERM-style drain with a request in flight. The torn-bytes rows (short read,
//! truncation, corruption) live against the file formats in
//! `tasm-index`/`tasm-tree` and against the CLI in `tasm-cli`.

#![cfg(all(unix, feature = "fault-inject"))]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tasm_core::{tasm_postorder, TasmOptions};
use tasm_index::Corpus;
use tasm_serve::{is_multiline, Doc, DocStore, Server, ServerConfig};
use tasm_ted::UnitCost;
use tasm_tree::{bracket, LabelDict, TreeQueue};
use tasm_xml::parse_tree_str;

const DOC: &str = "{dblp{article{auth{John}}{title{X1}}}{book{title{X2}}}}";

struct Daemon {
    path: PathBuf,
    handle: JoinHandle<bool>,
}

impl Daemon {
    fn start(name: &str, cfg: ServerConfig) -> Daemon {
        let mut dict = LabelDict::new();
        let tree = bracket::parse(DOC, &mut dict).unwrap();
        let mut store = DocStore::new();
        store.insert(Doc::new("dblp", tree, dict));
        Daemon::start_with_store(name, cfg, store)
    }

    fn start_with_store(name: &str, cfg: ServerConfig, store: DocStore) -> Daemon {
        let path = std::env::temp_dir().join(format!(
            "tasm-serve-faults-{}-{name}.sock",
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
fn in_request_panic_is_isolated_and_the_daemon_keeps_serving() {
    let daemon = Daemon::start("panic", ServerConfig::default());
    let (mut rd, mut wr) = daemon.connect();

    let resp = roundtrip(&mut rd, &mut wr, "QUERY doc=dblp k=1 q=<__fault_panic__/>");
    assert!(resp[0].starts_with("ERR internal "), "{resp:?}");

    // Same daemon, same connection: the poisoned workspace was
    // discarded, a fresh one answers correctly.
    let resp = roundtrip(
        &mut rd,
        &mut wr,
        "QUERY doc=dblp k=2 q=<article><auth/></article>",
    );
    assert!(resp[0].starts_with("OK "), "{resp:?}");
    assert_eq!(resp.last().unwrap(), "END");

    assert!(daemon.shutdown(), "panic must not dirty the drain");
}

#[test]
fn a_panic_on_a_corpus_document_is_isolated_too() {
    // The fault lever reads the query root's name from the request-local
    // dictionary, so it fires for corpus documents as for trees.
    let dir = std::env::temp_dir().join(format!("tasm-serve-faults-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut corpus = Corpus::create(&dir).unwrap();
    let mut dict = LabelDict::new();
    let tree = bracket::parse(DOC, &mut dict).unwrap();
    corpus.add("alpha", &tree, &dict, None).unwrap();
    let mut store = DocStore::new();
    store.insert(Doc::new_corpus("corp", Arc::new(corpus)));
    let daemon = Daemon::start_with_store("corpus-panic", ServerConfig::default(), store);
    let (mut rd, mut wr) = daemon.connect();

    let resp = roundtrip(&mut rd, &mut wr, "QUERY doc=corp k=1 q=<__fault_panic__/>");
    assert!(resp[0].starts_with("ERR internal "), "{resp:?}");

    let resp = roundtrip(
        &mut rd,
        &mut wr,
        "QUERY doc=corp k=2 q=<article><auth/></article>",
    );
    assert_eq!(resp[0], "OK 2", "{resp:?}");
    assert!(resp[1].ends_with(" alpha"), "{resp:?}");
    assert_eq!(resp.last().unwrap(), "END");

    assert!(daemon.shutdown(), "panic must not dirty the drain");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_stalled_request_times_out_while_later_requests_still_answer() {
    let daemon = Daemon::start("stall", ServerConfig::default());
    let (mut rd, mut wr) = daemon.connect();

    // The worker stalls 200 ms; the request's budget is 30 ms. The
    // pre-scan deadline check refuses it — structured, no partials.
    let resp = roundtrip(
        &mut rd,
        &mut wr,
        "QUERY doc=dblp k=1 timeout=30 q=<__fault_sleep_200__/>",
    );
    assert!(resp[0].starts_with("ERR timeout "), "{resp:?}");
    assert!(resp[0].contains("30 ms"), "{resp:?}");

    let resp = roundtrip(&mut rd, &mut wr, "QUERY doc=dblp k=1 q=<article/>");
    assert!(resp[0].starts_with("OK "), "{resp:?}");

    assert!(daemon.shutdown());
}

#[test]
fn overload_burst_is_shed_with_busy_not_queued_without_bound() {
    let cfg = ServerConfig {
        workers: 1,
        queue_capacity: 2,
        ..ServerConfig::default()
    };
    let daemon = Daemon::start("burst", cfg);

    // Wedge the single worker for 400 ms…
    let (mut wrd, mut wwr) = daemon.connect();
    wwr.write_all(b"QUERY doc=dblp k=1 timeout=2000 q=<__fault_sleep_400__/>\n")
        .unwrap();
    std::thread::sleep(Duration::from_millis(60)); // worker holds it now

    // …then burst 6 clients at a queue of capacity 2.
    let heads: Vec<String> = (0..6)
        .map(|_| {
            let (mut rd, mut wr) = daemon.connect();
            std::thread::spawn(move || {
                roundtrip(
                    &mut rd,
                    &mut wr,
                    "QUERY doc=dblp k=1 timeout=2000 q=<article/>",
                )[0]
                .clone()
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();

    let busy = heads
        .iter()
        .filter(|h| h.starts_with("BUSY retry-after-ms="))
        .count();
    let ok = heads.iter().filter(|h| h.starts_with("OK ")).count();
    assert_eq!(busy + ok, 6, "{heads:?}");
    assert!(
        busy >= 4,
        "capacity 2 must shed most of the burst: {heads:?}"
    );
    assert!(ok >= 1, "queued requests still complete: {heads:?}");

    // The wedged request itself completes fine (2 s budget > 400 ms).
    assert!(read_line(&mut wrd).starts_with("OK "), "wedge answer");

    assert!(daemon.shutdown());
}

#[test]
fn drain_waits_for_the_in_flight_request() {
    let daemon = Daemon::start("drain", ServerConfig::default());

    // A request that will still be running when SHUTDOWN lands.
    let (mut rd, mut wr) = daemon.connect();
    wr.write_all(b"QUERY doc=dblp k=1 timeout=2000 q=<__fault_sleep_150__/>\n")
        .unwrap();
    std::thread::sleep(Duration::from_millis(40)); // worker holds it

    let clean = daemon.shutdown(); // SHUTDOWN + drain() verdict
    assert!(clean, "drain must wait out the in-flight request");

    // The in-flight request completed with a real answer, not an error.
    let head = read_line(&mut rd);
    assert!(head.starts_with("OK "), "in-flight answer was: {head}");
}

#[test]
fn a_request_that_times_out_waiting_for_a_slot_gets_err_timeout() {
    let cfg = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let daemon = Daemon::start("wait-timeout", cfg);

    // Stall the only slot for 300 ms…
    let (mut wrd, mut wwr) = daemon.connect();
    wwr.write_all(b"QUERY doc=dblp k=1 timeout=5000 q=<__fault_sleep_300__/>\n")
        .unwrap();
    std::thread::sleep(Duration::from_millis(60)); // it holds the slot now

    // …so a 50 ms budget runs out while the request waits its turn.
    let (mut rd, mut wr) = daemon.connect();
    let resp = roundtrip(
        &mut rd,
        &mut wr,
        "QUERY doc=dblp k=1 timeout=50 q=<article/>",
    );
    assert!(resp[0].starts_with("ERR timeout "), "{resp:?}");
    assert!(resp[0].contains("50 ms"), "{resp:?}");
    assert!(read_line(&mut wrd).starts_with("OK "), "stall answer");

    assert!(daemon.shutdown());
}

#[test]
fn a_panic_frees_the_only_slot() {
    let cfg = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let daemon = Daemon::start("panic-one-slot", cfg);
    let (mut rd, mut wr) = daemon.connect();
    // A leaked slot would block the next request forever: bound the
    // wait, so the test fails instead of hanging.
    wr.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    let resp = roundtrip(&mut rd, &mut wr, "QUERY doc=dblp k=1 q=<__fault_panic__/>");
    assert!(resp[0].starts_with("ERR internal "), "{resp:?}");
    let resp = roundtrip(&mut rd, &mut wr, "QUERY doc=dblp k=1 q=<article/>");
    assert_eq!(resp[0], "OK 1", "{resp:?}");

    assert!(daemon.shutdown());
}

#[test]
fn a_backlog_is_answered_in_arrival_order_and_each_answer_matches_the_engine() {
    let cfg = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let daemon = Daemon::start("backlog", cfg);

    // Stall the only slot so the next requests wait behind it…
    let (mut wrd, mut wwr) = daemon.connect();
    wwr.write_all(b"QUERY doc=dblp k=1 timeout=5000 q=<__fault_sleep_300__/>\n")
        .unwrap();
    std::thread::sleep(Duration::from_millis(60)); // it holds the slot now

    // …then queue three different queries on the same tree document,
    // ~30 ms apart. Each stalls 40 ms when its turn comes, so the order
    // in which they finish shows through client-side clocks.
    let queries = [
        (
            "<__fault_sleep_40__><article><auth/><title/></article></__fault_sleep_40__>",
            3,
        ),
        (
            "<__fault_sleep_40__><book><title>X2</title></book></__fault_sleep_40__>",
            2,
        ),
        (
            "<__fault_sleep_40__><auth>John</auth></__fault_sleep_40__>",
            4,
        ),
    ];
    let handles: Vec<_> = queries
        .iter()
        .map(|&(q, k)| {
            let (mut rd, mut wr) = daemon.connect();
            let req = format!("QUERY doc=dblp k={k} timeout=5000 q={q}");
            let handle = std::thread::spawn(move || {
                let resp = roundtrip(&mut rd, &mut wr, &req);
                (resp, Instant::now())
            });
            std::thread::sleep(Duration::from_millis(30));
            handle
        })
        .collect();
    let answers: Vec<(Vec<String>, Instant)> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(read_line(&mut wrd).starts_with("OK "), "stall answer");
    assert!(
        answers.windows(2).all(|w| w[0].1 < w[1].1),
        "the backlog finished out of arrival order"
    );

    for ((q, k), (resp, _)) in queries.iter().zip(&answers) {
        let mut dict = LabelDict::new();
        let doc = bracket::parse(DOC, &mut dict).unwrap();
        let query = parse_tree_str(q, &mut dict).unwrap();
        let expect = tasm_postorder(
            &query,
            &mut TreeQueue::new(&doc),
            *k,
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
        assert_eq!(resp, &want, "query {q}");
    }

    assert!(daemon.shutdown());
}
