//! The `corpus` subcommand family: build, extend, verify and query the
//! crash-safe corpus store (`tasm-index`'s `Corpus`).
//!
//! * `corpus build` — initialize a corpus directory and index documents
//! * `corpus add`   — index more documents into an existing corpus
//! * `corpus fsck`  — verify every shard; `--repair` re-indexes damaged
//!   shards from their recorded sources
//! * `corpus query` — cross-document top-k over the healthy shards,
//!   with an explicit `degraded` marker when shards are quarantined
//!
//! `fsck` without `--repair` exits 2 when any shard is quarantined so
//! scripts and CI can branch on corpus health; `query` never aborts on
//! shard damage — it answers from the healthy shards and says so.
//! `query --strict` additionally exits 2 *after* printing the healthy
//! rows when the answer is degraded, for pipelines that must not act on
//! a partial corpus. `query --threads N` hands the shard-level
//! scheduler N threads (0 = all cores); `--stats` then shows `# shard`
//! lines with each shard's wall clock and funnel.

use std::time::Instant;

use crate::args::Args;
use crate::errors::{CliError, UsageExt};
use crate::{load_xml, output, print_scan_stats};
use tasm_core::{tasm_corpus_batch, BatchQuery, Run, TasmOptions, TasmWorkspace};
use tasm_index::Corpus;
use tasm_ted::TedKernel;
use tasm_tree::{LabelDict, Tree};

pub fn cmd_corpus(args: &Args) -> Result<(), CliError> {
    match args.positional.first().map(String::as_str) {
        Some("build") => cmd_build(args),
        Some("add") => cmd_add(args),
        Some("fsck") => cmd_fsck(args),
        Some("query") => cmd_query(args),
        Some(other) => Err(CliError::Usage(format!(
            "unknown corpus subcommand '{other}'; expected build|add|fsck|query"
        ))),
        None => Err(CliError::Usage(
            "corpus needs a subcommand: build|add|fsck|query".into(),
        )),
    }
}

/// Shared by `build` and `add`: index every `--doc <name=path>` into
/// `corpus`, recording the source path so `fsck --repair` can re-index.
fn add_docs(corpus: &mut Corpus, args: &Args) -> Result<usize, CliError> {
    let mut added = 0usize;
    for (name, value) in &args.options {
        if name != "doc" {
            continue;
        }
        let (alias, path) = crate::serve::doc_alias(value);
        let mut dict = LabelDict::new();
        let tree = load_xml(path, &mut dict)?;
        corpus
            .add(&alias, &tree, &dict, Some(path))
            .map_err(|e| CliError::Runtime(e.to_string()))?;
        eprintln!(
            "tasm corpus: indexed '{alias}': {} nodes from {path}",
            tree.len()
        );
        added += 1;
    }
    Ok(added)
}

fn cmd_build(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(1, &["dir", "doc"]).usage()?;
    let dir = args.require("dir").usage()?;
    let mut corpus = Corpus::create(dir).map_err(|e| CliError::Runtime(e.to_string()))?;
    let added = add_docs(&mut corpus, args)?;
    eprintln!(
        "tasm corpus: built {dir}: {added} shard(s), generation {}",
        corpus.generation()
    );
    Ok(())
}

fn cmd_add(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(1, &["dir", "doc"]).usage()?;
    let dir = args.require("dir").usage()?;
    let mut corpus = Corpus::open(dir).map_err(|e| CliError::Runtime(e.to_string()))?;
    let added = add_docs(&mut corpus, args)?;
    if added == 0 {
        return Err(CliError::Usage(
            "corpus add needs at least one --doc <name=path>".into(),
        ));
    }
    eprintln!(
        "tasm corpus: {dir} now holds {} shard(s), generation {}",
        corpus.total_shards(),
        corpus.generation()
    );
    Ok(())
}

fn cmd_fsck(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(1, &["dir", "repair"]).usage()?;
    let dir = args.require("dir").usage()?;
    let repair = args.flag("repair");
    let mut corpus = Corpus::open(dir).map_err(|e| CliError::Runtime(e.to_string()))?;
    let mut out = output::stdout();
    let mut repaired = 0usize;
    if repair {
        // Re-index every quarantined shard whose manifest record still
        // knows its source document; shards added without a recorded
        // source stay quarantined (reported below).
        let damaged: Vec<String> = corpus
            .quarantined()
            .iter()
            .map(|r| r.name.clone())
            .collect();
        for name in damaged {
            let source = corpus
                .manifest()
                .shards
                .iter()
                .find(|s| s.name == name)
                .and_then(|s| s.source.clone());
            let Some(source) = source else {
                eprintln!("tasm corpus: cannot repair '{name}': no source recorded");
                continue;
            };
            let mut dict = LabelDict::new();
            let tree = load_xml(&source, &mut dict)?;
            corpus
                .repair_shard(&name, &tree, &dict)
                .map_err(|e| CliError::Runtime(format!("repair '{name}': {e}")))?;
            wln!(out, "repaired {name} (re-indexed from {source})")?;
            repaired += 1;
        }
    }
    let healthy = corpus.healthy_count();
    let total = corpus.total_shards();
    wln!(
        out,
        "corpus {dir}: generation {}, {healthy}/{total} shard(s) healthy",
        corpus.generation()
    )?;
    for r in corpus.quarantined() {
        wln!(
            out,
            "quarantined {}: {} ({})",
            r.name,
            r.error,
            r.path.display()
        )?;
    }
    out.flush()?;
    let _ = repaired;
    if healthy < total {
        return Err(CliError::Runtime(format!(
            "{} of {total} shard(s) quarantined{}",
            total - healthy,
            if repair { "" } else { "; rerun with --repair" }
        )));
    }
    Ok(())
}

fn cmd_query(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(
        1,
        &[
            "dir",
            "query",
            "query-str",
            "k",
            "threads",
            "kernel",
            "stats",
            "strict",
        ],
    )
    .usage()?;
    let dir = args.require("dir").usage()?;
    // Checked before any file is opened.
    let threads = args.get_threads("threads", 1).usage()?;
    let mut dict = LabelDict::new();
    // Queries in command-line order, files and literals interleaved.
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
    let k = crate::ranking_size(args)?;
    let kernel: TedKernel = args
        .get("kernel")
        .unwrap_or("auto")
        .parse()
        .map_err(CliError::Usage)?;
    let opts = TasmOptions {
        kernel,
        ..Default::default()
    };
    let want_stats = args.flag("stats");
    let strict = args.flag("strict");

    let corpus = Corpus::open(dir).map_err(|e| CliError::Runtime(e.to_string()))?;
    // Shard damage degrades the answer instead of failing the query;
    // say so up front, on stderr, where it cannot be mistaken for rows.
    for r in corpus.quarantined() {
        eprintln!(
            "tasm corpus: warning: quarantined '{}': {}",
            r.name, r.error
        );
    }
    let bqs: Vec<BatchQuery<'_>> = queries
        .iter()
        .map(|query| BatchQuery { query, k })
        .collect();
    let t0 = Instant::now();
    let run = Run {
        opts,
        threads,
        ted_stats: want_stats,
        ..Run::default()
    };
    let result = tasm_corpus_batch(&bqs, &dict, &corpus, &run, &mut TasmWorkspace::new())
        .expect("no deadline");
    let elapsed = t0.elapsed();
    let (rankings, status, scan, lanes, shard_stats) = (
        result.rankings,
        result.status,
        result.scan,
        result.lane_scans,
        result.shard_stats,
    );
    let stats = result.ted.unwrap_or_default();

    let batch = queries.len() > 1;
    let mut out = output::stdout();
    for (qi, (query, matches)) in queries.iter().zip(&rankings).enumerate() {
        wln!(
            out,
            "# {}: {} nodes, k = {k}, corpus = {dir} ({} shard(s)){}",
            if batch {
                format!("query {}", qi + 1)
            } else {
                "query".to_string()
            },
            query.len(),
            status.healthy,
            if threads != 1 {
                format!(", threads = {threads}")
            } else {
                String::new()
            }
        )?;
        wln!(
            out,
            "{:<6} {:<20} {:>10} {:>10} {:>8}",
            "rank",
            "doc",
            "node",
            "distance",
            "size"
        )?;
        for (rank, m) in matches.iter().enumerate() {
            wln!(
                out,
                "{:<6} {:<20} {:>10} {:>10} {:>8}",
                rank + 1,
                m.doc,
                m.hit.root.post(),
                m.hit.distance.to_string(),
                m.hit.size
            )?;
        }
    }
    if status.is_degraded() {
        wln!(
            out,
            "# degraded: {} shard(s) answered — quarantined shards excluded",
            status.marker()
        )?;
    }
    wln!(out, "# elapsed: {elapsed:?}")?;
    if want_stats {
        wln!(
            out,
            "# relevant subtrees computed: {} (largest {} nodes), ted calls: {}",
            stats.total_relevant(),
            stats.max_relevant_size(),
            stats.ted_calls,
        )?;
        print_scan_stats(&mut out, &scan)?;
        // Where the corpus time went, shard by shard, in manifest
        // order — overlapping shards each report their own wall clock.
        for s in &shard_stats {
            wln!(
                out,
                "# shard {} ({}): {:.3} ms, candidates {}, evaluated {}",
                s.shard,
                s.name,
                s.millis(),
                s.scan.candidates,
                s.scan.evaluated,
            )?;
        }
        if batch {
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
    out.flush()?;
    // --strict turns a degraded answer into a failure *after* the
    // healthy rows have been printed: scripts that must not act on a
    // partial corpus can branch on the exit code, and interactive use
    // still sees everything the healthy shards found.
    if strict && status.is_degraded() {
        return Err(CliError::Runtime(format!(
            "degraded answer: {} shard(s) answered (--strict)",
            status.marker()
        )));
    }
    Ok(())
}
