//! The `serve` and `client` subcommands: the resident query daemon and
//! a minimal line-protocol client for scripts and tests.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::Arc;
use std::time::Duration;

use crate::args::Args;
use crate::errors::{CliError, UsageExt};
use crate::output::Out;
use tasm_index::Corpus;
use tasm_serve::{busy_retry_after_ms, is_multiline, Doc, DocStore, Server, ServerConfig};
use tasm_tree::LabelDict;

/// Every option `serve` reads; anything else is a usage error.
const SERVE_OPTIONS: &[&str] = &[
    "socket",
    "tcp",
    "doc",
    "corpus",
    "workers",
    "corpus-threads",
    "queue",
    "default-timeout-ms",
    "max-timeout-ms",
    "drain-timeout-ms",
    "read-timeout-ms",
];

/// Every option `client` reads; anything else is a usage error.
const CLIENT_OPTIONS: &[&str] = &["socket", "tcp", "send", "retries", "max-backoff-ms"];

/// Derives the document alias from `--doc <name=path>` (or the file
/// stem when no `name=` is given). Shared with `corpus build/add`.
pub(crate) fn doc_alias(value: &str) -> (String, &str) {
    if let Some((name, path)) = value.split_once('=') {
        if !name.is_empty() {
            return (name.to_string(), path);
        }
    }
    let stem = std::path::Path::new(value)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(value);
    (stem.to_string(), value)
}

fn build_config(args: &Args) -> Result<ServerConfig, CliError> {
    let defaults = ServerConfig::default();
    Ok(ServerConfig {
        workers: args.get_threads("workers", defaults.workers).usage()?,
        queue_capacity: args.get_num("queue", defaults.queue_capacity).usage()?,
        default_deadline: Duration::from_millis(
            args.get_num(
                "default-timeout-ms",
                defaults.default_deadline.as_millis() as u64,
            )
            .usage()?,
        ),
        max_deadline: Duration::from_millis(
            args.get_num("max-timeout-ms", defaults.max_deadline.as_millis() as u64)
                .usage()?,
        ),
        drain_deadline: Duration::from_millis(
            args.get_num(
                "drain-timeout-ms",
                defaults.drain_deadline.as_millis() as u64,
            )
            .usage()?,
        ),
        read_timeout: Duration::from_millis(
            args.get_num("read-timeout-ms", defaults.read_timeout.as_millis() as u64)
                .usage()?,
        ),
        corpus_threads: args
            .get_threads("corpus-threads", defaults.corpus_threads)
            .usage()?,
        ..defaults
    })
}

/// `tasm serve` — load documents, bind a socket, answer queries until
/// SIGTERM/SIGINT or a client's SHUTDOWN, then drain gracefully.
///
/// Exit code 0 means every admitted request's response reached its
/// socket before the drain deadline; a dirty drain exits 2.
pub fn cmd_serve(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(SERVE_OPTIONS).usage()?;
    // Checked before any document is loaded or socket bound.
    let cfg = build_config(args)?;
    let mut store = DocStore::new();
    for (name, value) in &args.options {
        match name.as_str() {
            "doc" => {
                let (alias, path) = doc_alias(value);
                let mut dict = LabelDict::new();
                let tree = crate::load_xml(path, &mut dict)?;
                eprintln!(
                    "tasm serve: loaded doc '{alias}': {} nodes from {path}",
                    tree.len()
                );
                store.insert(Doc::new(alias, tree, dict));
            }
            "corpus" => {
                // A damaged corpus still serves: healthy shards answer,
                // the protocol carries the degraded marker, and the
                // operator sees the quarantine reasons here at startup.
                let (alias, path) = doc_alias(value);
                let corpus =
                    Corpus::open(path).map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
                for r in corpus.quarantined() {
                    eprintln!(
                        "tasm serve: warning: corpus '{alias}' quarantined '{}': {}",
                        r.name, r.error
                    );
                }
                eprintln!(
                    "tasm serve: loaded corpus '{alias}': {}/{} shard(s) healthy from {path}",
                    corpus.healthy_count(),
                    corpus.total_shards()
                );
                store.insert(Doc::new_corpus(alias, Arc::new(corpus)));
            }
            _ => {}
        }
    }
    if store.is_empty() {
        return Err(CliError::Usage(
            "serve needs at least one --doc <name=file.xml> or --corpus <name=dir>".into(),
        ));
    }
    let server = Server::new(cfg, store);
    let stop = crate::signal::install_term_flag();

    let socket = args.get("socket");
    let tcp = args.get("tcp");
    match (socket, tcp) {
        (Some(path), None) => {
            #[cfg(unix)]
            {
                // A previous crash can leave the socket file behind;
                // binding over it needs the stale file gone.
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)
                    .map_err(|e| CliError::Runtime(format!("bind {path}: {e}")))?;
                eprintln!("tasm serve: listening on unix socket {path}");
                let served = server.serve_unix(&listener, Some(stop));
                let clean = server.drain();
                let _ = std::fs::remove_file(path);
                served.map_err(|e| CliError::Runtime(format!("serve: {e}")))?;
                finish(clean)
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                Err(CliError::Usage(
                    "--socket needs a Unix platform; use --tcp".into(),
                ))
            }
        }
        (None, Some(addr)) => {
            let listener = TcpListener::bind(addr)
                .map_err(|e| CliError::Runtime(format!("bind {addr}: {e}")))?;
            eprintln!(
                "tasm serve: listening on tcp {}",
                listener
                    .local_addr()
                    .map_err(|e| CliError::Runtime(e.to_string()))?
            );
            let served = server.serve_tcp(&listener, Some(stop));
            let clean = server.drain();
            served.map_err(|e| CliError::Runtime(format!("serve: {e}")))?;
            finish(clean)
        }
        (None, None) => Err(CliError::Usage(
            "serve needs --socket <path> or --tcp <addr:port>".into(),
        )),
        (Some(_), Some(_)) => Err(CliError::Usage(
            "--socket and --tcp are mutually exclusive".into(),
        )),
    }
}

fn finish(clean: bool) -> Result<(), CliError> {
    if clean {
        eprintln!("tasm serve: drained cleanly");
        Ok(())
    } else {
        Err(CliError::Runtime(
            "drain deadline passed with requests still in flight".into(),
        ))
    }
}

/// `tasm client` — connect, send requests, stream responses to stdout.
///
/// Requests come from repeated `--send <line>` options, or — when none
/// are given — verbatim from stdin (including a final line *without* a
/// newline, which is how the truncated-request path is exercised).
/// The client transports; it does not interpret. Server-side `ERR`/
/// `BUSY` lines still exit 0 — scripts branch on the response text.
///
/// With `--retries <n>` the client switches to *framed* mode: each
/// `--send` request is written and its response read before the next,
/// and a `BUSY retry-after-ms=<t>` answer is retried up to `n` times
/// with bounded, jittered exponential backoff starting from the
/// server's hint (capped by `--max-backoff-ms`). Exhausted retries
/// surface the final `BUSY` line verbatim — still exit 0.
pub fn cmd_client(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(CLIENT_OPTIONS).usage()?;
    let sends: Vec<&str> = args.get_all("send");
    let retries: u32 = args.get_num("retries", 0).usage()?;
    let max_backoff_ms: u64 = args.get_num("max-backoff-ms", 2000).usage()?;
    if retries > 0 && sends.is_empty() {
        return Err(CliError::Usage(
            "--retries reads one response per request (framed mode) and needs --send <line>".into(),
        ));
    }
    match (args.get("socket"), args.get("tcp")) {
        (Some(path), None) => {
            #[cfg(unix)]
            {
                let stream = UnixStream::connect(path)
                    .map_err(|e| CliError::Runtime(format!("connect {path}: {e}")))?;
                if retries > 0 {
                    return run_client_framed(stream, &sends, retries, max_backoff_ms);
                }
                let shutdown = |s: &UnixStream| s.shutdown(std::net::Shutdown::Write);
                run_client(stream, shutdown, &sends)
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                Err(CliError::Usage(
                    "--socket needs a Unix platform; use --tcp".into(),
                ))
            }
        }
        (None, Some(addr)) => {
            let stream = TcpStream::connect(addr)
                .map_err(|e| CliError::Runtime(format!("connect {addr}: {e}")))?;
            if retries > 0 {
                return run_client_framed(stream, &sends, retries, max_backoff_ms);
            }
            let shutdown = |s: &TcpStream| s.shutdown(std::net::Shutdown::Write);
            run_client(stream, shutdown, &sends)
        }
        (None, None) => Err(CliError::Usage(
            "client needs --socket <path> or --tcp <addr:port>".into(),
        )),
        (Some(_), Some(_)) => Err(CliError::Usage(
            "--socket and --tcp are mutually exclusive".into(),
        )),
    }
}

/// One response line, without the trailing newline. EOF mid-response is
/// a transport error in framed mode — the server never half-answers.
fn read_line<S: Read>(stream: &mut BufReader<S>) -> Result<String, CliError> {
    let mut line = String::new();
    let n = stream
        .read_line(&mut line)
        .map_err(|e| CliError::Runtime(format!("receive: {e}")))?;
    if n == 0 {
        return Err(CliError::Runtime(
            "receive: connection closed mid-response".into(),
        ));
    }
    if line.ends_with('\n') {
        line.pop();
    }
    Ok(line)
}

/// The server's `retry-after-ms=<t>` hint, scaled exponentially by the
/// attempt number, capped, and jittered into `[cap/2, cap]` so a burst
/// of shed clients does not reconverge on the same instant.
fn backoff_ms(retry_after: u64, attempt: u32, max_backoff_ms: u64, rng: &mut u64) -> u64 {
    let cap = retry_after
        .max(1)
        .saturating_mul(1u64 << attempt.min(16))
        .min(max_backoff_ms.max(1));
    *rng = rng
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let span = cap - cap / 2 + 1;
    cap / 2 + (*rng >> 33) % span
}

/// Framed client: per-request request/response cycles over one
/// connection, honoring `BUSY retry-after-ms` with bounded backoff.
fn run_client_framed<S: Read + Write>(
    stream: S,
    sends: &[&str],
    retries: u32,
    max_backoff_ms: u64,
) -> Result<(), CliError> {
    let mut stream = BufReader::new(stream);
    let mut out = Out::new(std::io::stdout());
    // Small LCG for jitter: no rand dependency, seeded per process.
    let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ u64::from(std::process::id());
    for line in sends {
        let mut attempt = 0u32;
        loop {
            stream
                .get_mut()
                .write_all(line.as_bytes())
                .and_then(|()| stream.get_mut().write_all(b"\n"))
                .and_then(|()| stream.get_mut().flush())
                .map_err(|e| CliError::Runtime(format!("send: {e}")))?;
            let head = read_line(&mut stream)?;
            if let Some(retry_after) = busy_retry_after_ms(&head) {
                if attempt < retries {
                    let delay = backoff_ms(retry_after, attempt, max_backoff_ms, &mut rng);
                    attempt += 1;
                    eprintln!("tasm client: BUSY, retry {attempt}/{retries} in {delay}ms");
                    std::thread::sleep(Duration::from_millis(delay));
                    continue;
                }
                // Retries exhausted: fall through and report the BUSY.
            }
            out.raw(head.as_bytes())?;
            out.raw(b"\n")?;
            if is_multiline(&head) {
                loop {
                    let row = read_line(&mut stream)?;
                    out.raw(row.as_bytes())?;
                    out.raw(b"\n")?;
                    if row == "END" {
                        break;
                    }
                }
            }
            break;
        }
    }
    out.flush()
}

fn run_client<S: Read + Write>(
    mut stream: S,
    shutdown_write: impl Fn(&S) -> std::io::Result<()>,
    sends: &[&str],
) -> Result<(), CliError> {
    if sends.is_empty() {
        // Raw mode: forward stdin bytes verbatim (no newline fixing —
        // deliberately, so torn requests can be produced).
        std::io::copy(&mut std::io::stdin().lock(), &mut stream)
            .map_err(|e| CliError::Runtime(format!("send: {e}")))?;
    } else {
        for line in sends {
            stream
                .write_all(line.as_bytes())
                .and_then(|()| stream.write_all(b"\n"))
                .map_err(|e| CliError::Runtime(format!("send: {e}")))?;
        }
    }
    stream
        .flush()
        .and_then(|()| shutdown_write(&stream))
        .map_err(|e| CliError::Runtime(format!("send: {e}")))?;
    // Stream every response byte to stdout until the server closes.
    let mut out = Out::new(std::io::stdout());
    let mut buf = [0u8; 8 * 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => out.raw(&buf[..n])?,
            Err(e) => return Err(CliError::Runtime(format!("receive: {e}"))),
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_alias_prefers_the_explicit_name() {
        assert_eq!(
            doc_alias("dblp=/data/d.xml"),
            ("dblp".into(), "/data/d.xml")
        );
        assert_eq!(
            doc_alias("/data/corpus.xml"),
            ("corpus".into(), "/data/corpus.xml")
        );
        assert_eq!(doc_alias("plain.pq"), ("plain".into(), "plain.pq"));
    }

    #[test]
    fn backoff_grows_exponentially_and_respects_the_cap() {
        let mut rng = 42u64;
        for attempt in 0..20 {
            let cap = 50u64.saturating_mul(1 << attempt.min(16)).min(1000);
            let d = backoff_ms(50, attempt, 1000, &mut rng);
            assert!(
                d >= cap / 2 && d <= cap,
                "attempt {attempt}: {d} vs cap {cap}"
            );
        }
        // Degenerate hints stay sane.
        assert!(backoff_ms(0, 0, 1000, &mut rng) <= 1);
        assert!(backoff_ms(500, 30, 200, &mut rng) <= 200);
    }
}
