//! The traced run: times calls into each layer's public functions on the
//! workload's own documents and sampled queries, inside spans, and
//! reports the per-layer metrics.
//!
//! Every layer is measured on every workload's inputs, including layers
//! the workload's end-to-end path bypasses: the index and corpus layers
//! run over a corpus built from the workload's documents.

use std::fs::{self, File};
use std::io::BufReader;
use std::path::{Path, PathBuf};

use tasm_core::{
    prb_pruning_stats, tasm_batch_with_workspace, tasm_corpus_batch_with_stats,
    tasm_postorder_with_workspace, threshold_for_query, BatchQuery, BatchWorkspace, ScanStats,
    TasmOptions, TasmWorkspace,
};
use tasm_index::{Corpus, IndexedDocument};
use tasm_ted::{TedStats, UnitCost};
use tasm_tree::{LabelDict, PostorderQueue, Tree, TreeQueue};
use tasm_xml::{parse_tree, parse_tree_str, XmlPostorderQueue};

use crate::json;
use crate::trace::Tracer;
use crate::workload::{encode_query, load_inputs, CORPUS_NAME};

/// Repetitions of each document-level measurement (the median is kept).
const REPS: usize = 3;
/// Shard-scheduler threads, as the corpus workload's daemon runs them.
pub const CORPUS_THREADS: usize = 2;

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

struct Loaded {
    name: String,
    path: PathBuf,
    /// Median time to drain the file through `XmlPostorderQueue`.
    drain_ms: f64,
    tree: Tree,
    dict: LabelDict,
}

fn open(path: &Path) -> BufReader<File> {
    BufReader::new(File::open(path).expect("workload document exists"))
}

fn drain(path: &Path) -> u64 {
    let mut dict = LabelDict::new();
    let mut queue = XmlPostorderQueue::new(open(path), &mut dict);
    let mut nodes = 0u64;
    while queue.dequeue().is_some() {
        nodes += 1;
    }
    assert!(
        queue.take_error().is_none(),
        "{}: parse error",
        path.display()
    );
    nodes
}

fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Adds `(name, value)` pairs in order; values keep all their digits.
#[derive(Default)]
struct Metrics(Vec<(String, f64)>);

impl Metrics {
    fn set(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {}", json::string(k), json::number(*v)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

pub fn run(dir: &Path) -> Result<String, String> {
    let inputs = load_inputs(dir)?;
    let scratch = dir.join("layers");
    let _ = fs::remove_dir_all(&scratch);
    fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let mut tr = Tracer::new();
    let mut m = Metrics::default();

    // tasm-xml: streaming drain and tree parse of every document.
    let phase = tr.begin("layers.documents", 0);
    let mut docs = Vec::new();
    let (mut parse_ms, mut parse_tree_ms, mut xml_bytes) = (0.0, 0.0, 0u64);
    for (di, (name, path)) in inputs.docs.iter().enumerate() {
        let req = di as u64;
        let drain_ms = median(
            (0..REPS)
                .map(|_| tr.time("tasm-xml.drain", req, || drain(path)).1)
                .collect(),
        );
        let mut parsed = None;
        let mut parse_times = Vec::new();
        for _ in 0..REPS {
            let mut dict = LabelDict::new();
            let (tree, ms) = tr.time("tasm-xml.parse_tree", req, || {
                parse_tree(open(path), &mut dict)
            });
            parse_times.push(ms);
            parsed = Some((tree.map_err(|e| e.to_string())?, dict));
        }
        let (tree, dict) = parsed.expect("REPS > 0");
        parse_ms += drain_ms;
        parse_tree_ms += median(parse_times);
        xml_bytes += fs::metadata(path).map_err(|e| e.to_string())?.len();
        docs.push(Loaded {
            name: name.clone(),
            path: path.clone(),
            drain_ms,
            tree,
            dict,
        });
    }
    m.set("tasm-xml.parse_ms", parse_ms);
    m.set(
        "tasm-xml.parse_mb_per_s",
        xml_bytes as f64 / 1e6 / (parse_ms / 1e3),
    );
    m.set("tasm-xml.parse_tree_ms", parse_tree_ms);

    // tasm-index document: build, write, open.
    let (mut build_ms, mut open_ms, mut pqi_bytes) = (0.0, 0.0, 0u64);
    for (di, d) in docs.iter().enumerate() {
        let req = di as u64;
        build_ms += median(
            (0..REPS)
                .map(|_| {
                    tr.time("tasm-index.build", req, || {
                        IndexedDocument::build(&d.tree, &d.dict)
                    })
                    .1
                })
                .collect(),
        );
        let pqi = scratch.join(format!("{}.pqi", d.name));
        IndexedDocument::save(&pqi, &d.tree, &d.dict).map_err(|e| e.to_string())?;
        pqi_bytes += fs::metadata(&pqi).map_err(|e| e.to_string())?.len();
        open_ms += median(
            (0..REPS)
                .map(|_| {
                    let (idx, ms) = tr.time("tasm-index.open", req, || IndexedDocument::open(&pqi));
                    idx.expect("index just written opens");
                    ms
                })
                .collect(),
        );
    }
    m.set("tasm-index.build_ms", build_ms);
    m.set("tasm-index.open_ms", open_ms);
    m.set(
        "tasm-index.bytes_per_xml_byte",
        pqi_bytes as f64 / xml_bytes as f64,
    );

    // tasm-index corpus store: every document added as a shard (index
    // build, atomic write, fsync, manifest), then the verified open.
    let mut add_times = Vec::new();
    let mut corpus_dir = scratch.join("corpus");
    for rep in 0..REPS {
        let _ = fs::remove_dir_all(&corpus_dir);
        corpus_dir = scratch.join(format!("corpus{rep}"));
        let mut corpus = Corpus::create(&corpus_dir).map_err(|e| e.to_string())?;
        let id = tr.begin("tasm-index.corpus.add", rep as u64);
        for d in &docs {
            corpus
                .add(&d.name, &d.tree, &d.dict, None)
                .map_err(|e| e.to_string())?;
        }
        add_times.push(tr.end(id));
    }
    m.set("tasm-index.corpus.add_ms", median(add_times));
    m.set(
        "tasm-index.corpus.bytes_written",
        dir_bytes(&corpus_dir) as f64,
    );
    let mut corpus = None;
    let mut open_times = Vec::new();
    for rep in 0..REPS {
        let (c, ms) = tr.time("tasm-index.corpus.open", rep as u64, || {
            Corpus::open(&corpus_dir)
        });
        open_times.push(ms);
        corpus = Some(c.map_err(|e| e.to_string())?);
    }
    let corpus = corpus.expect("REPS > 0");
    assert_eq!(
        corpus.healthy_count(),
        docs.len(),
        "layer corpus is healthy"
    );
    m.set("tasm-index.corpus.open_ms", median(open_times));
    tr.end(phase);

    // Per sampled query: one-shot streaming, candidate generation, the
    // match pass, the daemon's batch call, index spans and the corpus
    // scheduler.
    let mut ws = TasmWorkspace::new();
    let mut bws = BatchWorkspace::new();
    let mut share = Vec::new();
    let (mut candgen, mut matching, mut eval) = (Vec::new(), Vec::new(), Vec::new());
    let (mut spans_ms, mut shard_max, mut shard_sum, mut efficiency) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut candidates, mut nodes_seen, mut peak) = (0u64, 0u64, 0usize);
    let (mut regions, mut examined) = (0u64, 0u64);
    let mut funnel = ScanStats::default();
    let mut ted = TedStats::new();
    let mut replay = Vec::new();
    let opts = TasmOptions::default();
    for (qi, q) in inputs.queries.iter().filter(|q| q.layer).enumerate() {
        let req = qi as u64;
        let parent = tr.begin("layers.query", req);
        let targets: Vec<&Loaded> = if q.target == CORPUS_NAME {
            docs.iter().collect()
        } else {
            docs.iter().filter(|d| d.name == q.target).collect()
        };
        let mut src_dict = LabelDict::new();
        let parsed = parse_tree_str(&q.xml, &mut src_dict).map_err(|e| e.to_string())?;
        let tau = threshold_for_query(&parsed, &UnitCost, 1, q.k as u64);
        let tau = u32::try_from(tau).unwrap_or(u32::MAX);

        let (mut stream_ms, mut drain_ms, mut cg_ms, mut match_ms) = (0.0, 0.0, 0.0, 0.0);
        let mut replay_ms = Vec::new();
        for d in &targets {
            let ((), ms) = tr.time("tasm-xml+core.stream", req, || {
                let mut dict = LabelDict::new();
                let qt = parse_tree_str(&q.xml, &mut dict).expect("query parses");
                let mut queue = XmlPostorderQueue::new(open(&d.path), &mut dict);
                tasm_postorder_with_workspace(
                    &qt, &mut queue, q.k, &UnitCost, 1, opts, &mut ws, None,
                );
            });
            stream_ms += ms;
            drain_ms += d.drain_ms;

            let (st, ms) = tr.time("tasm-core.candgen", req, || {
                prb_pruning_stats(&mut TreeQueue::new(&d.tree), tau, None)
            });
            cg_ms += ms;
            candidates += st.candidates as u64;
            nodes_seen += u64::from(st.nodes_seen);
            peak = peak.max(st.peak_buffered);

            let enc = encode_query(&q.xml, &d.dict);
            let (_, ms) = tr.time("tasm-core.match", req, || {
                let mut queue = TreeQueue::new(&d.tree);
                tasm_postorder_with_workspace(
                    &enc, &mut queue, q.k, &UnitCost, 1, opts, &mut ws, None,
                )
            });
            match_ms += ms;
            funnel.merge(&ws.last_scan_stats());
            // Kernel counters come from a second, untimed-for-metrics
            // pass: the stats sink costs time per candidate.
            tr.time("tasm-ted.counted_match", req, || {
                let mut queue = TreeQueue::new(&d.tree);
                tasm_postorder_with_workspace(
                    &enc,
                    &mut queue,
                    q.k,
                    &UnitCost,
                    1,
                    opts,
                    &mut ws,
                    Some(&mut ted),
                )
            });

            if q.target != CORPUS_NAME {
                let batch = [BatchQuery {
                    query: &enc,
                    k: q.k,
                }];
                for _ in 0..REPS {
                    let (_, ms) = tr.time("tasm-core.batch", req, || {
                        let mut queue = TreeQueue::new(&d.tree);
                        tasm_batch_with_workspace(
                            &batch, &mut queue, &UnitCost, 1, opts, &mut bws, None,
                        )
                    });
                    replay_ms.push(ms);
                }
            }
        }
        share.push(drain_ms / stream_ms);
        candgen.push(cg_ms);
        matching.push(match_ms);
        eval.push(match_ms - cg_ms);

        let mut span_ms = 0.0;
        for (_, _, idx) in corpus.healthy() {
            let (enc, _) = idx.encode_query(&parsed, &src_dict);
            let ((spans, seen), ms) = tr.time("tasm-index.candidate_spans", req, || {
                let (spans, seen) = idx.candidate_spans(tau);
                let common = idx.region_common(&spans, &enc);
                std::hint::black_box(common);
                (spans, seen)
            });
            span_ms += ms;
            regions += spans.len() as u64;
            examined += seen;
        }
        spans_ms.push(span_ms);

        let batch = [BatchQuery {
            query: &parsed,
            k: q.k,
        }];
        for _ in 0..REPS {
            let (out, wall) = tr.time("tasm-core.corpus", req, || {
                tasm_corpus_batch_with_stats(
                    &batch,
                    &src_dict,
                    &corpus,
                    &UnitCost,
                    1,
                    opts,
                    CORPUS_THREADS,
                    None,
                )
            });
            let max = out
                .shard_stats
                .iter()
                .map(|s| s.millis())
                .fold(0.0, f64::max);
            let sum: f64 = out.shard_stats.iter().map(|s| s.millis()).sum();
            shard_max.push(max);
            shard_sum.push(sum);
            efficiency.push(sum / (CORPUS_THREADS as f64 * wall));
            if q.target == CORPUS_NAME {
                replay_ms.push(wall);
            }
        }
        replay.push((q.id.clone(), median(replay_ms)));
        tr.end(parent);
    }

    m.set("tasm-xml.parse_share", median(share));
    m.set("tasm-core.candgen_ms", median(candgen));
    m.set("tasm-core.candidates", candidates as f64);
    m.set("tasm-core.nodes_seen", nodes_seen as f64);
    m.set("tasm-core.peak_buffered", peak as f64);
    m.set("tasm-core.match_ms", median(matching));
    m.set("tasm-core.eval_ms", median(eval));
    m.set("tasm-ted.cascade.pruned_size", funnel.pruned_size as f64);
    m.set(
        "tasm-ted.cascade.pruned_histogram",
        funnel.pruned_histogram as f64,
    );
    m.set("tasm-ted.cascade.pruned_sed", funnel.pruned_sed as f64);
    m.set("tasm-ted.cascade.evaluated", funnel.evaluated as f64);
    m.set("tasm-ted.cascade.prune_rate", funnel.prune_rate());
    m.set("tasm-ted.kernel.fd_cells", ted.fd_cells as f64);
    m.set("tasm-ted.kernel.ted_calls", ted.ted_calls as f64);
    m.set("tasm-ted.kernel.evaluated_zs", funnel.evaluated_zs as f64);
    m.set(
        "tasm-ted.kernel.evaluated_strategy",
        funnel.evaluated_strategy as f64,
    );
    m.set("tasm-index.candidate_spans_ms", median(spans_ms));
    m.set("tasm-index.regions", regions as f64);
    m.set("tasm-index.nodes_examined", examined as f64);
    m.set("tasm-core.corpus.shard_ms_max", median(shard_max));
    m.set("tasm-core.corpus.shard_ms_sum", median(shard_sum));
    m.set("tasm-core.corpus.parallel_efficiency", median(efficiency));
    m.set("trace.spans", tr.spans().len() as f64);
    m.set(
        "trace.harness_self_ms",
        tr.self_ms("layers.documents") + tr.self_ms("layers.query"),
    );

    let trace_dir = dir.join("trace");
    fs::create_dir_all(&trace_dir).map_err(|e| e.to_string())?;
    tr.write_jsonl(&trace_dir.join("layers-spans.jsonl"))
        .map_err(|e| e.to_string())?;
    let _ = fs::remove_dir_all(&scratch);

    let replay_json: Vec<String> = replay
        .iter()
        .map(|(id, ms)| format!("{}: {}", json::string(id), json::number(*ms)))
        .collect();
    Ok(format!(
        "{{\"metrics\": {}, \"replay_ms\": {{{}}}}}",
        m.to_json(),
        replay_json.join(", ")
    ))
}
