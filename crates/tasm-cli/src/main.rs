//! `tasm` — Top-k Approximate Subtree Matching from the command line.
//!
//! Subcommands:
//!
//! * `query`  — rank the subtrees of an XML document against a query
//! * `ted`    — tree edit distance between two XML documents
//! * `gen`    — generate synthetic datasets (xmark / dblp / psd / random)
//! * `stats`  — shape statistics of an XML document
//! * `candidates` — run the prefix-ring-buffer pruning and report stats
//! * `index`  — build a label-indexed postorder file (`.pqi`) that
//!   `query --index` answers from without scanning the document
//! * `corpus` — crash-safe multi-document store: build/add/fsck/query a
//!   directory of shards behind a checksummed manifest
//! * `serve`  — resident query daemon over a Unix or TCP socket
//! * `client` — line-protocol client for `serve`
//!
//! Exit codes: 0 success (including output truncated by a closed
//! pipe), 1 usage error, 2 runtime/I-O/protocol error.
//!
//! Run `tasm help` for details.

mod args;
mod errors;
#[macro_use]
mod output;
mod corpus;
mod serve;
mod signal;

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;
use std::time::Instant;

use args::Args;
use errors::{CliError, RuntimeExt, UsageExt};
use tasm_core::{
    prb_pruning_stats, simple_pruning, tasm_batch, tasm_dynamic, tasm_indexed_batch, tasm_naive,
    threshold_for_query, BatchQuery, Run, ScanStats, TasmOptions, TasmWorkspace,
};
use tasm_data::{
    dblp_tree, psd_tree, random_tree, xmark_tree, DblpConfig, PsdConfig, RandomTreeConfig,
    XMarkConfig,
};
use tasm_index::IndexedDocument;
use tasm_ted::{ted, TedKernel, TedStats, UnitCost};
use tasm_tree::postfile::{save_tree, PostFileReader};
use tasm_tree::{LabelDict, LabelId, PostorderQueue, Tree, TreeQueue};
use tasm_xml::{parse_tree, tree_to_xml, XmlPostorderQueue};

const HELP: &str = "\
tasm — Top-k Approximate Subtree Matching (ICDE 2010)

USAGE:
    tasm <command> [options]

COMMANDS:
    query       Rank document subtrees by tree edit distance to a query
                  --query <file.xml>     query XML (or --query-str '<a/>');
                                         repeat either flag to run a batch
                                         of queries in ONE document scan
                  --doc <file.xml>       document XML
                  --k <n>                ranking size          [default: 5]
                  --algorithm <name>     postorder|dynamic|naive [postorder]
                  --threads <n>          shard candidate evaluation across
                                         n worker threads (0 = all cores,
                                         at most 256; postorder only).
                                         The document still STREAMS — no
                                         materialized tree — and composes
                                         with repeated --query
                                         (batch×parallel)      [default: 1]
                  --index <file.pqi>     answer from a prebuilt label
                                         index (see `index`) instead of
                                         scanning --doc; composes with
                                         repeated --query and --threads
                  --kernel <name>        TED kernel for surviving
                                         candidates: auto picks the
                                         cheaper decomposition per query
                                         shape, zs/strategy pin the
                                         left/right path. All three return
                                         identical rankings
                                         auto|zs|strategy       [auto]
                  --show-xml             print matched subtrees as XML
                  --stats                print work statistics and the
                                         per-tier pruning funnel (per query
                                         lane in batch mode)

    ted         Tree edit distance between two XML files
                  --left <a.xml> --right <b.xml>

    gen         Generate a synthetic dataset as XML on stdout or --out
                  --dataset <name>       xmark|dblp|psd|random  [dblp]
                  --nodes <n>            approximate node count [10000]
                  --seed <n>             RNG seed               [42]
                  --out <file.xml>       output path            [stdout]

    stats       Shape statistics of an XML document
                  --doc <file.xml>

    candidates  Prefix ring buffer pruning statistics
                  --doc <file.xml> --tau <n> [--compare-simple]

    convert     Parse XML once and store it as a binary postorder file
                (.pq), which all other commands accept in place of XML
                  --doc <file.xml> --out <file.pq>

    index       Index a document once into a .pqi file: the .pq node
                stream plus per-label postings and frequency-ordered
                labels. `query --index` then generates candidates from
                the index instead of scanning the whole document
                  --doc <file.xml|file.pq> --out <file.pqi>

    corpus      Crash-safe multi-document store: a directory of .pqi
                shards plus a versioned, checksummed MANIFEST, updated
                atomically — a crash mid-update always leaves the
                previous generation readable. Damaged shards are
                quarantined, never fatal: queries answer from the
                healthy shards with an explicit degraded marker
                  corpus build --dir <d> --doc <name=f.xml> ...
                                         initialize and index documents
                  corpus add   --dir <d> --doc <name=f.xml> ...
                                         index more documents
                  corpus fsck  --dir <d> [--repair]
                                         verify every shard (exit 2 when
                                         any is quarantined); --repair
                                         re-indexes damaged shards from
                                         their recorded sources
                  corpus query --dir <d> --query <f.xml> [--k <n>]
                               [--threads <n>] [--kernel <name>]
                               [--stats] [--strict]
                                         cross-document top-k over the
                                         healthy shards (rows carry the
                                         source document); --threads
                                         splits the budget across shards
                                         first (0 = all cores, at most
                                         256), --stats
                                         adds per-shard timing, --strict
                                         exits 2 on a degraded answer

    serve       Resident query daemon: documents stay parsed, queries
                multiplex onto the batch engine, failures stay contained
                (per-request deadlines, BUSY load shedding, panic
                isolation, graceful drain on SIGTERM/SHUTDOWN)
                  --socket <path>        listen on a Unix socket
                  --tcp <addr:port>      …or on TCP (mutually exclusive)
                  --doc <name=file.xml>  resident document (repeatable;
                                         name defaults to the file stem)
                  --corpus <name=dir>    resident corpus served in
                                         degraded mode when shards are
                                         quarantined (repeatable)
                  --workers <n>          evaluation threads (<= 256) [2]
                  --corpus-threads <n>   shard-scheduler threads per
                                         corpus request (0=cores,
                                         <= 256)                [1]
                  --queue <n>            admission queue bound  [64]
                  --default-timeout-ms <n>  deadline when a request
                                         names none             [2000]
                  --max-timeout-ms <n>   cap on client deadlines [30000]
                  --drain-timeout-ms <n> graceful drain budget  [5000]
                  --read-timeout-ms <n>  idle connection cutoff [10000]

    client      Send protocol lines to a running daemon and print the
                responses (transport only: server ERR/BUSY still exit 0)
                  --socket <path> | --tcp <addr:port>
                  --send <line>          request line (repeatable);
                                         without it, stdin is forwarded
                                         verbatim
                  --retries <n>          honor BUSY retry-after-ms with
                                         bounded jittered exponential
                                         backoff (framed mode; needs
                                         --send)                [0]
                  --max-backoff-ms <n>   backoff ceiling        [2000]

    help        Show this message

PROTOCOL (serve/client, newline-delimited):
    PING                                  -> PONG
    DOCS                                  -> DOCS <n>, rows, END
    QUERY doc=<name> [k=<n>] [timeout=<ms>] [stats=1] q=<xml>
                                          -> OK <n>[ degraded=<h>/<t>],
                                             '<rank> <node> <distance>
                                             <size>[ <doc>]' rows,
                                             optional STATS line, END
    SHUTDOWN                              -> OK draining
    errors: ERR <proto|parse|doc|timeout|internal> <message>
    overload: BUSY retry-after-ms=<n>
";

fn main() -> ExitCode {
    let args = Args::from_env();
    let result = match args.command.as_deref() {
        Some("query") => cmd_query(&args),
        Some("ted") => cmd_ted(&args),
        Some("gen") => cmd_gen(&args),
        Some("stats") => cmd_stats(&args),
        Some("candidates") => cmd_candidates(&args),
        Some("convert") => cmd_convert(&args),
        Some("index") => cmd_index(&args),
        Some("corpus") => corpus::cmd_corpus(&args),
        Some("serve") => serve::cmd_serve(&args),
        Some("client") => serve::cmd_client(&args),
        Some("help") | None => {
            let mut out = output::stdout();
            out.raw(HELP.as_bytes()).and_then(|()| out.flush())
        }
        Some(other) => Err(CliError::Usage(format!(
            "unknown command '{other}'; see `tasm help`"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("usage error: {msg}");
            ExitCode::from(1)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Loads a document: `.pq` postorder files are streamed directly, anything
/// else is parsed as XML. The file's labels are re-interned into `dict`.
fn load_xml(path: &str, dict: &mut LabelDict) -> Result<Tree, CliError> {
    if path.ends_with(".pq") {
        let mut reader =
            PostFileReader::open(path).map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
        // Remap the file's label ids into the caller's dictionary, one
        // lookup per distinct label.
        let remap: Vec<LabelId> = reader
            .dict()
            .iter()
            .map(|(_, name)| dict.intern(name))
            .collect();
        let mut entries = Vec::new();
        while let Some(e) = reader.dequeue() {
            let label = remap.get(e.label.index()).copied().ok_or_else(|| {
                CliError::Runtime(format!(
                    "{path}: node label {} is not in the file's dictionary",
                    e.label.0
                ))
            })?;
            entries.push((label, e.size));
        }
        // A short read ends the stream silently; a truncated file must
        // not pass as a smaller document even when the surviving prefix
        // happens to form a valid tree.
        check_pq_complete(&reader, path)?;
        return Tree::from_postorder(entries)
            .map_err(|e| CliError::Runtime(format!("{path}: {e}")));
    }
    let file =
        File::open(path).map_err(|e| CliError::Runtime(format!("cannot open {path}: {e}")))?;
    parse_tree(BufReader::new(file), dict).map_err(|e| CliError::Runtime(format!("{path}: {e}")))
}

fn cmd_convert(args: &Args) -> Result<(), CliError> {
    let doc_path = args.require("doc").usage()?;
    let out = args.require("out").usage()?;
    let mut dict = LabelDict::new();
    let tree = load_xml(doc_path, &mut dict)?;
    save_tree(out, &tree, &dict).map_err(|e| CliError::Runtime(format!("{out}: {e}")))?;
    let in_size = std::fs::metadata(doc_path).map(|m| m.len()).unwrap_or(0);
    let out_size = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    eprintln!(
        "converted {} nodes: {doc_path} ({in_size} B) -> {out} ({out_size} B)",
        tree.len()
    );
    Ok(())
}

fn cmd_index(args: &Args) -> Result<(), CliError> {
    let doc_path = args.require("doc").usage()?;
    let out = args.require("out").usage()?;
    let mut dict = LabelDict::new();
    let tree = load_xml(doc_path, &mut dict)?;
    let t0 = Instant::now();
    let idx = IndexedDocument::save(out, &tree, &dict)
        .map_err(|e| CliError::Runtime(format!("{out}: {e}")))?;
    let out_size = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    eprintln!(
        "indexed {} nodes, {} distinct labels: {doc_path} -> {out} ({out_size} B, {:?})",
        tree.len(),
        idx.dict().len(),
        t0.elapsed()
    );
    Ok(())
}

/// Fails a `.pq` scan that the reader reports as damaged (truncated,
/// malformed entry, trailer mismatch) or that ended before the
/// header-promised node count — a damaged file must not silently pass
/// as a smaller document.
fn check_pq_complete<R: std::io::Read>(
    reader: &PostFileReader<R>,
    doc_path: &str,
) -> Result<(), CliError> {
    if let Some(msg) = reader.integrity_error() {
        return Err(CliError::Runtime(format!("{doc_path}: {msg}")));
    }
    if reader.remaining_nodes() > 0 {
        return Err(CliError::Runtime(format!(
            "{doc_path}: truncated postorder file ({} of {} nodes missing)",
            reader.remaining_nodes(),
            reader.total_nodes()
        )));
    }
    Ok(())
}

/// Opens `doc_path` as a postorder stream and runs `f` over it,
/// centralizing the `.pq` vs XML differences for every streaming query
/// path: `.pq` files get the queries encoded into the file's read-only
/// dictionary (which then replaces `dict`, since matched subtrees carry
/// its ids) and a truncation check after the scan; XML streams surface
/// mid-stream parse errors.
fn run_over_doc_stream<T>(
    doc_path: &str,
    dict: &mut LabelDict,
    queries: &[Tree],
    f: impl FnOnce(&[Tree], &mut dyn PostorderQueue) -> T,
) -> Result<T, CliError> {
    if doc_path.ends_with(".pq") {
        let mut reader = PostFileReader::open(doc_path)
            .map_err(|e| CliError::Runtime(format!("{doc_path}: {e}")))?;
        let encoded: Vec<Tree> = queries
            .iter()
            .map(|q| reader.dict().encode_tree(q, dict))
            .collect();
        let out = f(&encoded, &mut reader);
        check_pq_complete(&reader, doc_path)?;
        *dict = reader.into_dict();
        Ok(out)
    } else {
        let file = File::open(doc_path)
            .map_err(|e| CliError::Runtime(format!("cannot open {doc_path}: {e}")))?;
        let mut queue = XmlPostorderQueue::new(BufReader::new(file), dict);
        let out = f(queries, &mut queue);
        if let Some(e) = queue.take_error() {
            return Err(CliError::Runtime(format!("{doc_path}: {e}")));
        }
        Ok(out)
    }
}

/// Reads `--k` (default 5), rejecting 0: a top-0 ranking is empty by
/// definition, and the engines would otherwise clamp it to 1.
fn ranking_size(args: &Args) -> Result<usize, CliError> {
    let k: usize = args.get_num("k", 5).usage()?;
    if k == 0 {
        return Err(CliError::Usage(
            "--k must be >= 1: a top-0 ranking is empty by definition".into(),
        ));
    }
    Ok(k)
}

fn cmd_query(args: &Args) -> Result<(), CliError> {
    // Checked before any file is opened.
    let threads = args.get_threads("threads", 1).usage()?;
    let mut dict = LabelDict::new();
    // Collect queries in command-line order, even when --query files and
    // --query-str literals are interleaved: output tables are numbered by
    // that order.
    let mut queries: Vec<Tree> = Vec::new();
    for (name, value) in &args.options {
        match name.as_str() {
            "query" => queries.push(load_xml(value, &mut dict)?),
            "query-str" => queries.push(
                tasm_xml::parse_tree_str(value, &mut dict)
                    .map_err(|e| CliError::Runtime(format!("--query-str: {e}")))?,
            ),
            _ => {}
        }
    }
    if queries.is_empty() {
        return Err(CliError::Usage(
            "missing required option --query <file> (or --query-str '<xml>')".into(),
        ));
    }
    let index_path = args.get("index");
    let k = ranking_size(args)?;
    let algorithm = args.get("algorithm").unwrap_or("postorder");
    let kernel: TedKernel = args
        .get("kernel")
        .unwrap_or("auto")
        .parse()
        .map_err(CliError::Usage)?;
    let opts = TasmOptions {
        keep_trees: args.flag("show-xml"),
        kernel,
        ..Default::default()
    };
    let mut stats = TedStats::new();
    let want_stats = args.flag("stats");
    let batch = queries.len() > 1;
    let parallel = threads != 1;
    if batch && algorithm != "postorder" {
        return Err(CliError::Usage(format!(
            "--algorithm {algorithm} evaluates a single query; batch mode needs postorder"
        )));
    }
    if parallel && algorithm != "postorder" {
        return Err(CliError::Usage(format!(
            "--threads applies to --algorithm postorder, not {algorithm}"
        )));
    }
    if index_path.is_some() && algorithm != "postorder" {
        return Err(CliError::Usage(format!(
            "--index generates candidates for the postorder engine, not --algorithm {algorithm}"
        )));
    }
    let run = Run {
        opts,
        threads,
        ted_stats: want_stats,
        ..Run::default()
    };
    // Scan + pruning-funnel statistics of the run, when the scan-engine
    // path produced them (postorder, any number of queries and threads).
    let mut scan_stats: Option<ScanStats> = None;
    // Per-query-lane stats of a postorder run (sequential or sharded).
    let mut lane_stats: Option<Vec<ScanStats>> = None;
    // The opened index of an `--index` run: its dictionary names the
    // labels of the matched subtrees.
    let mut index: Option<IndexedDocument> = None;

    let t0 = Instant::now();
    let rankings: Vec<Vec<tasm_core::Match>> = if let Some(ipath) = index_path {
        // Scan-free candidate generation from the prebuilt .pqi index:
        // candidate regions come from the subtree-size column, bounded
        // per query by the label postings, and only surviving regions
        // are evaluated, in place in the index's document.
        let idx = index.insert(
            IndexedDocument::open(ipath).map_err(|e| CliError::Runtime(format!("{ipath}: {e}")))?,
        );
        let bqs: Vec<BatchQuery<'_>> = queries
            .iter()
            .map(|query| BatchQuery { query, k })
            .collect();
        let out = tasm_indexed_batch(&bqs, &dict, idx, &run, &mut TasmWorkspace::new())
            .expect("no deadline");
        stats = out.ted.unwrap_or_default();
        scan_stats = Some(out.scan);
        lane_stats = Some(out.lanes);
        out.rankings
    } else if algorithm == "postorder" {
        // All queries share ONE streaming scan (a single query is the
        // batch of one); with --threads > 1 the candidate segments are
        // sharded across workers and each worker fans them out to every
        // query lane. The document is never materialized.
        let doc_path = args.require("doc").usage()?;
        let out = run_over_doc_stream(doc_path, &mut dict, &queries, |qs, queue| {
            let bqs: Vec<BatchQuery<'_>> = qs.iter().map(|query| BatchQuery { query, k }).collect();
            tasm_batch(&bqs, queue, &run, &mut TasmWorkspace::new())
        })?
        .map_err(|e| format!("{doc_path}: {e}"))
        .runtime()?;
        stats = out.ted.unwrap_or_default();
        scan_stats = Some(out.scan);
        lane_stats = Some(out.lanes);
        out.rankings
    } else {
        let doc_path = args.require("doc").usage()?;
        let query = &queries[0];
        let matches = match algorithm {
            "dynamic" | "naive" => {
                let doc = load_xml(doc_path, &mut dict)?;
                let sink = want_stats.then_some(&mut stats);
                if algorithm == "dynamic" {
                    tasm_dynamic(query, &doc, k, &UnitCost, opts, sink)
                } else {
                    tasm_naive(query, &doc, k, &UnitCost, opts, sink)
                }
            }
            other => return Err(CliError::Usage(format!("unknown algorithm '{other}'"))),
        };
        vec![matches]
    };
    let elapsed = t0.elapsed();
    // Kept subtrees of an indexed run live in the index's
    // frequency-ordered label space.
    let dict = index.as_ref().map_or(&dict, IndexedDocument::dict);

    let mut out = output::stdout();
    for (qi, (query, matches)) in queries.iter().zip(&rankings).enumerate() {
        if batch {
            wln!(
                out,
                "# query {}: {} nodes, k = {k}, algorithm = {algorithm} (batched scan{})",
                qi + 1,
                query.len(),
                if parallel {
                    format!(", threads = {threads}")
                } else {
                    String::new()
                }
            )?;
        } else {
            wln!(
                out,
                "# query: {} nodes, k = {k}, algorithm = {algorithm}{}",
                query.len(),
                if parallel {
                    format!(", threads = {threads}")
                } else {
                    String::new()
                }
            )?;
        }
        wln!(
            out,
            "{:<6} {:>10} {:>10} {:>8}",
            "rank",
            "node",
            "distance",
            "size"
        )?;
        for (rank, m) in matches.iter().enumerate() {
            wln!(
                out,
                "{:<6} {:>10} {:>10} {:>8}",
                rank + 1,
                m.root.post(),
                m.distance.to_string(),
                m.size
            )?;
            if let Some(tree) = &m.tree {
                wln!(out, "       {}", tree_to_xml(tree, dict))?;
            }
        }
    }
    wln!(out, "# elapsed: {elapsed:?}")?;
    if want_stats {
        let tau = queries
            .iter()
            .map(|q| threshold_for_query(q, &UnitCost, 1, k as u64))
            .max()
            .expect("at least one query");
        wln!(
            out,
            "# relevant subtrees computed: {} (largest {} nodes), ted calls: {}, {} = {}",
            stats.total_relevant(),
            stats.max_relevant_size(),
            stats.ted_calls,
            if batch { "scan tau" } else { "tau" },
            tau,
        )?;
        if let Some(scan) = scan_stats {
            print_scan_stats(&mut out, &scan)?;
        }
        if let Some(lanes) = lane_stats.filter(|l| l.len() > 1) {
            for (i, lane) in lanes.iter().enumerate() {
                wln!(
                    out,
                    "# lane {} funnel: size-skipped {}, histogram-pruned {}, \
                     sed-pruned {}, evaluated {} (prune rate {:.1}%)",
                    i + 1,
                    lane.pruned_size,
                    lane.pruned_histogram,
                    lane.pruned_sed,
                    lane.evaluated,
                    100.0 * lane.prune_rate(),
                )?;
            }
        }
    }
    out.flush()
}

/// Prints the scan-layer counters and the per-tier pruning funnel of a
/// run (shared by single, batch and parallel `query` invocations).
pub(crate) fn print_scan_stats<W: Write>(
    out: &mut output::Out<W>,
    scan: &ScanStats,
) -> Result<(), CliError> {
    wln!(
        out,
        "# scan: {} candidates from {} nodes (peak ring buffer {})",
        scan.candidates,
        scan.nodes_seen,
        scan.peak_buffered
    )?;
    let decisions = scan.eval_decisions();
    let pct = |n: u64| {
        if decisions == 0 {
            0.0
        } else {
            100.0 * n as f64 / decisions as f64
        }
    };
    wln!(
        out,
        "# prune funnel: size-skipped {}, histogram-pruned {} ({:.1}%), \
         sed-pruned {} ({:.1}%), evaluated {} ({:.1}%); cascade prune rate {:.1}%",
        scan.pruned_size,
        scan.pruned_histogram,
        pct(scan.pruned_histogram),
        scan.pruned_sed,
        pct(scan.pruned_sed),
        scan.evaluated,
        pct(scan.evaluated),
        100.0 * scan.prune_rate(),
    )?;
    wln!(
        out,
        "# kernel funnel: zs={} strategy={}",
        scan.evaluated_zs,
        scan.evaluated_strategy,
    )
}

fn cmd_ted(args: &Args) -> Result<(), CliError> {
    let mut dict = LabelDict::new();
    let left = load_xml(args.require("left").usage()?, &mut dict)?;
    let right = load_xml(args.require("right").usage()?, &mut dict)?;
    let t0 = Instant::now();
    let d = ted(&left, &right, &UnitCost);
    let mut out = output::stdout();
    wln!(
        out,
        "delta = {d}  (|left| = {}, |right| = {}, {:?})",
        left.len(),
        right.len(),
        t0.elapsed()
    )?;
    out.flush()
}

fn cmd_gen(args: &Args) -> Result<(), CliError> {
    let dataset = args.get("dataset").unwrap_or("dblp");
    let nodes: usize = args.get_num("nodes", 10_000).usage()?;
    let seed: u64 = args.get_num("seed", 42).usage()?;
    let mut dict = LabelDict::new();
    let tree = match dataset {
        "xmark" => xmark_tree(&mut dict, &XMarkConfig::new(seed, nodes)),
        "dblp" => dblp_tree(&mut dict, &DblpConfig::new(seed, nodes)),
        "psd" => psd_tree(&mut dict, &PsdConfig::new(seed, nodes)),
        "random" => random_tree(
            &mut dict,
            &RandomTreeConfig {
                seed,
                nodes,
                ..Default::default()
            },
        ),
        other => return Err(CliError::Usage(format!("unknown dataset '{other}'"))),
    };
    let xml = tree_to_xml(&tree, &dict);
    match args.get("out") {
        Some(path) => {
            let file = File::create(path)
                .map_err(|e| CliError::Runtime(format!("cannot create {path}: {e}")))?;
            let mut w = BufWriter::new(file);
            w.write_all(xml.as_bytes())
                .and_then(|()| w.flush())
                .map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
            eprintln!("wrote {} nodes to {path}", tree.len());
        }
        None => {
            // Large documents are routinely piped into `head`/`grep`;
            // a closed pipe is a clean exit (handled inside Out), and
            // real write failures are runtime errors.
            let mut out = output::stdout();
            out.raw(xml.as_bytes())?;
            out.raw(b"\n")?;
            out.flush()?;
        }
    }
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), CliError> {
    let mut dict = LabelDict::new();
    let doc = load_xml(args.require("doc").usage()?, &mut dict)?;
    let s = tasm_tree::stats::TreeStats::of(&doc);
    let mut out = output::stdout();
    wln!(out, "nodes:            {}", s.nodes)?;
    wln!(out, "leaves:           {}", s.leaves)?;
    wln!(out, "height:           {}", s.height)?;
    wln!(out, "max fanout:       {}", s.max_fanout)?;
    wln!(out, "mean fanout:      {:.2}", s.mean_internal_fanout)?;
    wln!(out, "distinct labels:  {}", s.distinct_labels)?;
    for tau in [10u32, 50, 100] {
        wln!(
            out,
            "subtrees <= {tau:>3}:  {:.2}%",
            100.0 * tasm_tree::stats::fraction_below(&doc, tau)
        )?;
    }
    out.flush()
}

fn cmd_candidates(args: &Args) -> Result<(), CliError> {
    let mut dict = LabelDict::new();
    let doc = load_xml(args.require("doc").usage()?, &mut dict)?;
    let tau: u32 = args.get_num("tau", 50).usage()?;
    if tau == 0 {
        // cand(T, 0) is empty by Def. 9 — a zero threshold is always a
        // mistake, and silently clamping it to 1 (the old behavior)
        // reported a plausible-looking leaf-only candidate set.
        return Err(CliError::Usage(
            "--tau must be >= 1: cand(T, 0) is empty by definition".into(),
        ));
    }
    let mut queue = TreeQueue::new(&doc);
    let t0 = Instant::now();
    let st = prb_pruning_stats(&mut queue, tau, None);
    let dt = t0.elapsed();
    let mut out = output::stdout();
    wln!(out, "tau = {tau}")?;
    wln!(out, "candidates:        {}", st.candidates)?;
    wln!(out, "candidate nodes:   {}", st.candidate_nodes)?;
    wln!(
        out,
        "peak ring buffer:  {} nodes (bound: tau = {tau})",
        st.peak_buffered
    )?;
    wln!(out, "nodes scanned:     {}", st.nodes_seen)?;
    wln!(out, "elapsed:           {dt:?}")?;
    if args.flag("compare-simple") {
        let mut queue = TreeQueue::new(&doc);
        let (_, simple) = simple_pruning(&mut queue, tau);
        wln!(
            out,
            "simple pruning (Sec. V-B) peak buffer: {} nodes ({}x the ring buffer)",
            simple.peak_buffered,
            simple
                .peak_buffered
                .checked_div(st.peak_buffered)
                .unwrap_or(0)
        )?;
    }
    out.flush()
}
