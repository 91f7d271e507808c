//! Experiment harness: one function per figure of Sec. VII.
//!
//! Each experiment prints the paper-matching series to stdout and writes a
//! CSV under the output directory. Scale-down is controlled by
//! `Ctx::scale`: paper document sizes (in "paper megabytes") are divided
//! by it before being converted to node counts, so `--scale 1` runs the
//! full published sizes and the default `--scale 16` runs a
//! laptop-friendly version with identical curve shapes.

use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tasm_core::{
    prb_pruning_stats, simple_pruning, tasm_batch, tasm_dynamic, tasm_indexed_batch,
    tasm_postorder, tasm_postorder_with_workspace, threshold, BatchOutput, BatchQuery, Match, Run,
    ScanStats, TasmOptions, TasmWorkspace,
};
use tasm_data::{
    dblp_tree, psd_tree, random_query, xmark_tree, DblpConfig, PsdConfig, XMarkConfig,
    DBLP_NODES_PER_MB, PSD_NODES_PER_MB, XMARK_NODES_PER_MB,
};
use tasm_index::IndexedDocument;
use tasm_ted::{TedStats, UnitCost};
use tasm_tree::{LabelDict, LabelId, Tree, TreeBuilder, TreeQueue};
use tasm_xml::{parse_tree, write_tree, XmlPostorderQueue};

/// Paper x-axis: XMark document sizes in MB (Fig. 9a).
pub const XMARK_MBS: [usize; 5] = [112, 224, 448, 896, 1792];
/// Paper query sizes (Figs. 9a/9b).
pub const QUERY_SIZES: [u32; 5] = [4, 8, 16, 32, 64];
/// Paper k sweep (Fig. 9c), log-scale.
pub const K_SWEEP: [usize; 5] = [1, 10, 100, 1_000, 10_000];

/// Experiment context: scaling, directories, memory budget.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Divide paper document sizes by this factor (1 = full scale).
    pub scale: usize,
    /// Directory for cached generated XML documents.
    pub data_dir: PathBuf,
    /// Directory for result CSVs.
    pub out_dir: PathBuf,
    /// Memory budget emulating the paper's 4 GB machine: TASM-dynamic runs
    /// whose predicted footprint exceeds it are reported as OOM, mirroring
    /// the missing data points in Figs. 9–10.
    pub mem_budget: u64,
}

impl Ctx {
    /// Standard context rooted at `results/`.
    pub fn new(scale: usize) -> Self {
        Ctx {
            scale: scale.max(1),
            data_dir: PathBuf::from("results/data"),
            out_dir: PathBuf::from("results"),
            mem_budget: 4 << 30,
        }
    }

    fn ensure_dirs(&self) {
        fs::create_dir_all(&self.data_dir).expect("create data dir");
        fs::create_dir_all(&self.out_dir).expect("create results dir");
    }

    /// Scaled node count for a paper-MB XMark document.
    pub fn xmark_nodes(&self, paper_mb: usize) -> usize {
        (paper_mb * XMARK_NODES_PER_MB / self.scale).max(2_000)
    }
}

/// A simple CSV writer.
pub struct Csv {
    out: BufWriter<File>,
}

impl Csv {
    /// Creates `<out_dir>/<name>.csv` with the given header.
    pub fn create(ctx: &Ctx, name: &str, header: &str) -> Self {
        ctx.ensure_dirs();
        let path = ctx.out_dir.join(format!("{name}.csv"));
        let mut out = BufWriter::new(File::create(&path).expect("create csv"));
        writeln!(out, "{header}").expect("write csv header");
        Csv { out }
    }

    /// Writes one row.
    pub fn row(&mut self, row: impl std::fmt::Display) {
        writeln!(self.out, "{row}").expect("write csv row");
    }
}

/// Generates (or reuses) the XMark-like document for a paper-MB size and
/// returns the in-memory tree plus the path of its XML serialization.
/// The same seed per size keeps documents identical across experiments.
pub fn xmark_doc(ctx: &Ctx, paper_mb: usize, dict: &mut LabelDict) -> (Tree, PathBuf) {
    ctx.ensure_dirs();
    let nodes = ctx.xmark_nodes(paper_mb);
    let tree = xmark_tree(dict, &XMarkConfig::new(paper_mb as u64, nodes));
    let path = ctx
        .data_dir
        .join(format!("xmark_{paper_mb}mb_s{}.xml", ctx.scale));
    if !path.exists() {
        let file = File::create(&path).expect("create xml");
        write_tree(&tree, dict, BufWriter::new(file)).expect("write xml");
    }
    (tree, path)
}

/// Predicted TASM-dynamic footprint: the two `(m+1)×(n+1)` cost matrices
/// plus the document arena — what decides the paper's OOM points.
pub fn dynamic_footprint(m: usize, n: usize) -> u64 {
    let matrices = 2 * (m as u64 + 1) * (n as u64 + 1) * 8;
    let arena = n as u64 * 8;
    matrices + arena
}

/// Times TASM-postorder streaming an XML file (parse + match, one pass).
pub fn time_postorder_file(
    query: &Tree,
    dict: &mut LabelDict,
    path: &Path,
    k: usize,
) -> (Duration, usize) {
    let t0 = Instant::now();
    let file = File::open(path).expect("open xml");
    let mut queue = XmlPostorderQueue::new(BufReader::new(file), dict);
    let matches = tasm_postorder(
        query,
        &mut queue,
        k,
        &UnitCost,
        1,
        TasmOptions::default(),
        None,
    );
    assert!(queue.is_ok(), "stream failed");
    (t0.elapsed(), matches.len())
}

/// Times TASM-dynamic on an XML file (parse + match), or `None` if the
/// predicted footprint exceeds the context's memory budget.
pub fn time_dynamic_file(
    ctx: &Ctx,
    query: &Tree,
    dict: &mut LabelDict,
    path: &Path,
    n_nodes: usize,
    k: usize,
) -> Option<(Duration, usize)> {
    if dynamic_footprint(query.len(), n_nodes) > ctx.mem_budget {
        return None;
    }
    let t0 = Instant::now();
    let file = File::open(path).expect("open xml");
    let doc = parse_tree(BufReader::new(file), dict).expect("parse xml");
    let matches = tasm_dynamic(query, &doc, k, &UnitCost, TasmOptions::default(), None);
    Some((t0.elapsed(), matches.len()))
}

/// Fig. 9a: execution time vs document size, k = 5, |Q| ∈ {4, 8, 64}.
pub fn fig9a(ctx: &Ctx) {
    let k = 5;
    let mut csv = Csv::create(ctx, "fig9a", "doc_mb,nodes,query_size,algorithm,seconds");
    println!(
        "\n=== Fig. 9a: time vs document size (k = {k}, scale 1/{}) ===",
        ctx.scale
    );
    println!(
        "{:>8} {:>10} {:>6}  {:>12} {:>12}",
        "MB", "nodes", "|Q|", "postorder(s)", "dynamic(s)"
    );
    for &mb in &XMARK_MBS {
        for &qsize in &[4u32, 8, 64] {
            let mut dict = LabelDict::new();
            let (tree, path) = xmark_doc(ctx, mb, &mut dict);
            let n = tree.len();
            let (query, _) = random_query(&tree, qsize, 0xA5 + qsize as u64);
            drop(tree); // postorder must not benefit from the parsed doc
            let (dt_pos, _) = time_postorder_file(&query, &mut dict, &path, k);
            let dy = time_dynamic_file(ctx, &query, &mut dict, &path, n, k);
            let dy_str = match dy {
                Some((d, _)) => {
                    csv.row(format_args!("{mb},{n},{qsize},dynamic,{}", d.as_secs_f64()));
                    format!("{:.3}", d.as_secs_f64())
                }
                None => "OOM".to_string(),
            };
            csv.row(format_args!(
                "{mb},{n},{qsize},postorder,{}",
                dt_pos.as_secs_f64()
            ));
            println!(
                "{:>8} {:>10} {:>6}  {:>12.3} {:>12}",
                mb,
                n,
                qsize,
                dt_pos.as_secs_f64(),
                dy_str
            );
        }
    }
}

/// Fig. 9b: execution time vs query size, k = 5.
pub fn fig9b(ctx: &Ctx) {
    let k = 5;
    let mut csv = Csv::create(ctx, "fig9b", "doc_mb,nodes,query_size,algorithm,seconds");
    println!(
        "\n=== Fig. 9b: time vs query size (k = {k}, scale 1/{}) ===",
        ctx.scale
    );
    println!(
        "{:>8} {:>10} {:>6}  {:>12} {:>12}",
        "MB", "nodes", "|Q|", "postorder(s)", "dynamic(s)"
    );
    for &mb in &[112usize, 224, 1792] {
        for &qsize in &QUERY_SIZES {
            let mut dict = LabelDict::new();
            let (tree, path) = xmark_doc(ctx, mb, &mut dict);
            let n = tree.len();
            let (query, _) = random_query(&tree, qsize, 0xB7 + qsize as u64);
            drop(tree);
            let (dt_pos, _) = time_postorder_file(&query, &mut dict, &path, k);
            csv.row(format_args!(
                "{mb},{n},{qsize},postorder,{}",
                dt_pos.as_secs_f64()
            ));
            // The paper plots dynamic only for the two smaller documents.
            let dy_str = if mb <= 224 {
                match time_dynamic_file(ctx, &query, &mut dict, &path, n, k) {
                    Some((d, _)) => {
                        csv.row(format_args!("{mb},{n},{qsize},dynamic,{}", d.as_secs_f64()));
                        format!("{:.3}", d.as_secs_f64())
                    }
                    None => "OOM".to_string(),
                }
            } else {
                "-".to_string()
            };
            println!(
                "{:>8} {:>10} {:>6}  {:>12.3} {:>12}",
                mb,
                n,
                qsize,
                dt_pos.as_secs_f64(),
                dy_str
            );
        }
    }
}

/// Fig. 9c: execution time vs k (log scale), |Q| = 16.
pub fn fig9c(ctx: &Ctx) {
    let qsize = 16u32;
    let mut csv = Csv::create(ctx, "fig9c", "doc_mb,nodes,k,algorithm,seconds");
    println!(
        "\n=== Fig. 9c: time vs k (|Q| = {qsize}, scale 1/{}) ===",
        ctx.scale
    );
    println!(
        "{:>8} {:>10} {:>7}  {:>12} {:>12}",
        "MB", "nodes", "k", "postorder(s)", "dynamic(s)"
    );
    for &mb in &[112usize, 224] {
        for &k in &K_SWEEP {
            let mut dict = LabelDict::new();
            let (tree, path) = xmark_doc(ctx, mb, &mut dict);
            let n = tree.len();
            let (query, _) = random_query(&tree, qsize, 0xC1);
            drop(tree);
            let (dt_pos, _) = time_postorder_file(&query, &mut dict, &path, k);
            csv.row(format_args!(
                "{mb},{n},{k},postorder,{}",
                dt_pos.as_secs_f64()
            ));
            let dy_str = match time_dynamic_file(ctx, &query, &mut dict, &path, n, k) {
                Some((d, _)) => {
                    csv.row(format_args!("{mb},{n},{k},dynamic,{}", d.as_secs_f64()));
                    format!("{:.3}", d.as_secs_f64())
                }
                None => "OOM".to_string(),
            };
            println!(
                "{:>8} {:>10} {:>7}  {:>12.3} {:>12}",
                mb,
                n,
                k,
                dt_pos.as_secs_f64(),
                dy_str
            );
        }
    }
}

/// Fig. 10: peak extra heap vs document size, k = 5, |Q| ∈ {4, 16}.
///
/// `measure` abstracts the allocator probe so the harness stays testable;
/// the experiments binary passes `alloc::measure_peak`.
pub fn fig10(ctx: &Ctx, measure: &dyn Fn(&mut dyn FnMut()) -> usize) {
    let k = 5;
    let mut csv = Csv::create(ctx, "fig10", "doc_mb,nodes,query_size,algorithm,peak_mb");
    println!(
        "\n=== Fig. 10: peak memory vs document size (k = {k}, scale 1/{}) ===",
        ctx.scale
    );
    println!(
        "{:>8} {:>10} {:>6}  {:>14} {:>14}",
        "MB", "nodes", "|Q|", "postorder(MB)", "dynamic(MB)"
    );
    for &mb in &XMARK_MBS {
        for &qsize in &[4u32, 16] {
            let mut dict = LabelDict::new();
            let (tree, path) = xmark_doc(ctx, mb, &mut dict);
            let n = tree.len();
            let (query, _) = random_query(&tree, qsize, 0xD3 + qsize as u64);
            drop(tree);

            // Streaming algorithm: extra heap beyond the (small) baseline.
            let mut run_pos = || {
                let file = File::open(&path).expect("open");
                let mut queue = XmlPostorderQueue::new(BufReader::new(file), &mut dict);
                let m = tasm_postorder(
                    &query,
                    &mut queue,
                    k,
                    &UnitCost,
                    1,
                    TasmOptions::default(),
                    None,
                );
                std::hint::black_box(m.len());
            };
            let peak_pos = measure(&mut run_pos);

            // Dynamic: parse + matrices, unless over the 4 GB budget.
            let over = dynamic_footprint(query.len(), n) > ctx.mem_budget;
            let peak_dy = if over {
                None
            } else {
                let mut run_dy = || {
                    let file = File::open(&path).expect("open");
                    let doc = parse_tree(BufReader::new(file), &mut dict).expect("parse");
                    let m = tasm_dynamic(&query, &doc, k, &UnitCost, TasmOptions::default(), None);
                    std::hint::black_box(m.len());
                };
                Some(measure(&mut run_dy))
            };

            let to_mb = |b: usize| b as f64 / (1024.0 * 1024.0);
            csv.row(format_args!(
                "{mb},{n},{qsize},postorder,{:.3}",
                to_mb(peak_pos)
            ));
            let dy_str = match peak_dy {
                Some(b) => {
                    csv.row(format_args!("{mb},{n},{qsize},dynamic,{:.3}", to_mb(b)));
                    format!("{:>14.2}", to_mb(b))
                }
                None => format!("{:>14}", "OOM"),
            };
            println!(
                "{:>8} {:>10} {:>6}  {:>14.2} {dy_str}",
                mb,
                n,
                qsize,
                to_mb(peak_pos)
            );
        }
    }
}

/// Figs. 11a/11b/11c: number of relevant subtrees per size class for
/// TASM-dynamic vs TASM-postorder, on PSD-like (scatter) and DBLP-like
/// (histogram) documents, top-1, |Q| = 4.
pub fn fig11(ctx: &Ctx) {
    let k = 1;
    let qsize = 4u32;
    println!("\n=== Fig. 11: relevant-subtree size distributions (top-1, |Q| = {qsize}) ===");

    // PSD-like (Figs. 11a, 11b).
    let (psd_dy, psd_po, psd_n) = relevant_stats(ctx, Dataset::Psd, qsize, k);
    let mut csv = Csv::create(ctx, "fig11ab_psd", "algorithm,subtree_size,count");
    for (s, c) in psd_dy.series() {
        csv.row(format_args!("dynamic,{s},{c}"));
    }
    for (s, c) in psd_po.series() {
        csv.row(format_args!("postorder,{s},{c}"));
    }
    println!("\nPSD-like document ({psd_n} nodes):");
    println!(
        "  dynamic:   {:>9} relevant subtrees, sizes 1..{} (incl. whole document)",
        psd_dy.total_relevant(),
        psd_dy.max_relevant_size()
    );
    println!(
        "  postorder: {:>9} relevant subtrees, sizes 1..{} (vs paper's 18)",
        psd_po.total_relevant(),
        psd_po.max_relevant_size()
    );

    // DBLP-like histogram (Fig. 11c), paper bins.
    let (dblp_dy, dblp_po, dblp_n) = relevant_stats(ctx, Dataset::Dblp, qsize, k);
    let bins: Vec<u32> = vec![
        10,
        50,
        100,
        500,
        1_000,
        10_000,
        100_000,
        1_000_000,
        10_000_000,
        100_000_000,
    ];
    let hd = dblp_dy.binned(&bins);
    let hp = dblp_po.binned(&bins);
    let mut csv = Csv::create(ctx, "fig11c_dblp", "bin_upper,dynamic,postorder");
    println!("\nDBLP-like document ({dblp_n} nodes), histogram (bin = sizes below bound):");
    println!("{:>12} {:>12} {:>12}", "bin", "dynamic", "postorder");
    for ((b, cd), (_, cp)) in hd.iter().zip(&hp) {
        csv.row(format_args!("{b},{cd},{cp}"));
        println!("{:>12} {:>12} {:>12}", b, cd, cp);
    }
    let tau = threshold(qsize as u64, 1, 1, k as u64);
    println!("(paper: postorder bins ≥ 50 are empty; τ = {tau})");
}

/// Fig. 12: cumulative subtree size difference css_dyn − css_pos over
/// subtree size, top-1 queries on DBLP-like and PSD-like documents.
pub fn fig12(ctx: &Ctx) {
    let k = 1;
    let qsize = 4u32;
    println!("\n=== Fig. 12: cumulative subtree size difference (top-1) ===");
    let mut csv = Csv::create(
        ctx,
        "fig12",
        "dataset,subtree_size,css_dyn,css_pos,difference",
    );
    for ds in [Dataset::Dblp, Dataset::Psd] {
        let (dy, po, n) = relevant_stats(ctx, ds, qsize, k);
        println!("\n{} ({} nodes):", ds.name(), n);
        println!(
            "{:>12} {:>16} {:>16} {:>16}",
            "size x", "css_dyn(x)", "css_pos(x)", "difference"
        );
        let mut x = 1u64;
        while x <= n as u64 * 10 {
            let cd = dy.css(x.min(u32::MAX as u64) as u32);
            let cp = po.css(x.min(u32::MAX as u64) as u32);
            let diff = cd as i64 - cp as i64;
            csv.row(format_args!("{},{x},{cd},{cp},{diff}", ds.name()));
            println!("{:>12} {:>16} {:>16} {:>16}", x, cd, cp, diff);
            x *= 10;
        }
    }
}

/// Ablation: what the Lemma 4 refinement τ' buys on top of Theorem 3's τ.
pub fn ablation_tau(ctx: &Ctx) {
    println!("\n=== Ablation: τ' refinement (Lemma 4) on/off ===");
    let mut csv = Csv::create(
        ctx,
        "ablation_tau",
        "dataset,k,tau_prime,seconds,fd_cells,relevant_subtrees",
    );
    println!(
        "{:>8} {:>6} {:>10} {:>10} {:>14} {:>10}",
        "dataset", "k", "τ'", "time(s)", "fd cells", "subtrees"
    );
    for ds in [Dataset::Dblp, Dataset::Psd] {
        let mut dict = LabelDict::new();
        let doc = ds.generate(ctx, &mut dict);
        let (query, _) = random_query(&doc, 8, 0xE1);
        for &k in &[5usize, 100] {
            for use_tau_prime in [true, false] {
                let mut st = TedStats::new();
                let opts = TasmOptions {
                    use_tau_prime,
                    ..Default::default()
                };
                let t0 = Instant::now();
                let mut q = TreeQueue::new(&doc);
                let m = tasm_postorder(&query, &mut q, k, &UnitCost, 1, opts, Some(&mut st));
                let dt = t0.elapsed();
                std::hint::black_box(m.len());
                csv.row(format_args!(
                    "{},{k},{use_tau_prime},{},{},{}",
                    ds.name(),
                    dt.as_secs_f64(),
                    st.fd_cells,
                    st.total_relevant()
                ));
                println!(
                    "{:>8} {:>6} {:>10} {:>10.3} {:>14} {:>10}",
                    ds.name(),
                    k,
                    if use_tau_prime { "on" } else { "off" },
                    dt.as_secs_f64(),
                    st.fd_cells,
                    st.total_relevant()
                );
            }
        }
    }
}

/// Ablation: ring buffer vs the simple pruning of Sec. V-B (peak buffer).
pub fn ablation_buffer(ctx: &Ctx) {
    println!("\n=== Ablation: prefix ring buffer vs simple pruning (Sec. V-B) ===");
    let mut csv = Csv::create(
        ctx,
        "ablation_buffer",
        "dataset,tau,ring_peak,simple_peak,candidates",
    );
    println!(
        "{:>8} {:>6} {:>12} {:>12} {:>12}",
        "dataset", "τ", "ring peak", "simple peak", "candidates"
    );
    for ds in [Dataset::Dblp, Dataset::Psd] {
        let mut dict = LabelDict::new();
        let doc = ds.generate(ctx, &mut dict);
        for &tau in &[13u32, 50, 200] {
            let mut q = TreeQueue::new(&doc);
            let ring = prb_pruning_stats(&mut q, tau, None);
            let mut q = TreeQueue::new(&doc);
            let (_, simple) = simple_pruning(&mut q, tau);
            assert_eq!(ring.candidates, simple.candidates);
            csv.row(format_args!(
                "{},{tau},{},{},{}",
                ds.name(),
                ring.peak_buffered,
                simple.peak_buffered,
                ring.candidates
            ));
            println!(
                "{:>8} {:>6} {:>12} {:>12} {:>12}",
                ds.name(),
                tau,
                ring.peak_buffered,
                simple.peak_buffered,
                ring.candidates
            );
        }
    }
}

/// Perf snapshot for the BENCH trajectory: streams generated documents
/// through `tasm_postorder` and reports candidates/s, ns/candidate and a
/// peak-heap proxy. With `json_out` set, a [`crate::report::BENCH_JSON`]
/// summary is written for machine consumption.
///
/// A right-comb query of `2·depth + 1` nodes over the document's own
/// labels: every internal node has a leaf left child and carries its
/// subtree on the right. Zhang–Shasha's worst decomposition (every
/// right-spine node is a keyroot) and the strategy kernel's best — the
/// query shape of the deep-query BENCH workload.
pub fn deep_query(doc: &Tree, depth: usize) -> Tree {
    let labels = doc.labels();
    let label = |i: usize| labels[(i * 37) % labels.len()];
    let mut b = TreeBuilder::new();
    fn rec(d: usize, i: &mut usize, label: &dyn Fn(usize) -> LabelId, b: &mut TreeBuilder) {
        let l = label(*i);
        *i += 1;
        b.start(l);
        if d > 0 {
            let leaf = label(*i);
            *i += 1;
            b.start(leaf);
            b.end().expect("balanced");
            rec(d - 1, i, label, b);
        }
        b.end().expect("balanced");
    }
    let mut i = 0;
    rec(depth, &mut i, &label, &mut b);
    b.finish().expect("single root")
}

/// Workload sizes scale with `ctx.scale` (default 16 ⇒ ~50k-node
/// documents); compare runs only at equal scale.
pub fn bench_summary(
    ctx: &Ctx,
    measure: &dyn Fn(&mut dyn FnMut()) -> usize,
    json_out: Option<&Path>,
    label: &str,
) -> Vec<crate::report::BenchRecord> {
    use crate::report::BenchRecord;
    let nodes = (800_000 / ctx.scale).max(2_000);
    println!("\n=== bench: tasm_postorder hot path ({nodes}-node documents) ===");
    println!(
        "{:>14} {:>9} {:>4} {:>6} {:>10} {:>12} {:>14} {:>12} {:>8}",
        "workload", "nodes", "|Q|", "k", "seconds", "cand/s", "ns/candidate", "peak(KiB)", "pruned"
    );
    let mut records = Vec::new();
    for (dataset, qsize, k) in [
        ("dblp", 8u32, 5usize),
        ("xmark", 8, 5),
        ("xmark", 16, 100),
        // The deep-query workload: a right-comb query, where the
        // left-path (ZS) and right-path (strategy) TED decompositions
        // differ most — tracks what the auto kernel selection buys.
        ("xmark-deep", 16, 100),
    ] {
        let mut dict = LabelDict::new();
        let doc = match dataset {
            "dblp" => dblp_tree(&mut dict, &DblpConfig::new(7, nodes)),
            _ => xmark_tree(&mut dict, &XMarkConfig::new(7, nodes)),
        };
        let query = if dataset == "xmark-deep" {
            deep_query(&doc, qsize as usize / 2)
        } else {
            random_query(&doc, qsize, 0xBE40 + qsize as u64).0
        };
        let tau = threshold(query.len() as u64, 1, 1, k as u64);
        let mut q = TreeQueue::new(&doc);
        let candidates =
            prb_pruning_stats(&mut q, u32::try_from(tau).unwrap_or(u32::MAX), None).candidates;

        let mut ws = TasmWorkspace::new();
        let mut run = || {
            let mut q = TreeQueue::new(&doc);
            let m = tasm_postorder_with_workspace(
                &query,
                &mut q,
                k,
                &UnitCost,
                1,
                TasmOptions::default(),
                &mut ws,
                None,
            );
            std::hint::black_box(m.len());
        };
        run(); // warm-up
        let seconds = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                run();
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        let peak_heap_bytes = measure(&mut run);
        let scan = ws.last_scan_stats();

        let r = BenchRecord {
            name: format!("{dataset} q{} k{k}", query.len()),
            nodes: doc.len(),
            query_size: query.len(),
            k,
            tau,
            candidates,
            seconds,
            peak_heap_bytes,
            ..Default::default()
        }
        .with_scan_stats(&scan);
        println!(
            "{:>14} {:>9} {:>4} {:>6} {:>10.4} {:>12.0} {:>14.0} {:>12.1} {:>7.1}%",
            r.name,
            r.nodes,
            r.query_size,
            r.k,
            r.seconds,
            r.candidates_per_sec(),
            r.ns_per_candidate(),
            r.peak_heap_bytes as f64 / 1024.0,
            100.0 * r.prune_rate(),
        );
        records.push(r);
    }
    if let Some(path) = json_out {
        crate::report::write_json(path, label, ctx.scale, &records).expect("write bench json");
        println!("wrote {} (snapshot \"{label}\")", path.display());
    }
    records
}

/// `queries` over the materialized `doc` through the stream/tree driver
/// ([`tasm_batch`] over a [`TreeQueue`]) at `threads`, no deadline.
fn batch_over_tree(
    queries: &[BatchQuery<'_>],
    doc: &Tree,
    threads: usize,
    ws: &mut TasmWorkspace,
) -> BatchOutput {
    let run = Run {
        threads,
        ..Run::default()
    };
    tasm_batch(queries, &mut TreeQueue::new(doc), &run, ws)
        .expect("an in-memory tree is a complete stream")
}

/// One query against `idx` through the indexed driver at one thread.
fn indexed_one(
    query: &Tree,
    dict: &LabelDict,
    idx: &IndexedDocument,
    k: usize,
) -> (Vec<Match>, ScanStats) {
    let mut out = tasm_indexed_batch(
        &[BatchQuery { query, k }],
        dict,
        idx,
        &Run::default(),
        &mut TasmWorkspace::new(),
    )
    .expect("no deadline");
    (out.rankings.pop().expect("one lane"), out.scan)
}

/// Scan-engine scaling snapshot: multi-query batching (one shared scan
/// vs N independent sequential scans) and the sharded streaming scan
/// (1/2/4 worker threads), on a DBLP-shaped document.
///
/// Batch records are named `batch xN …` with the matching independent
/// baseline `seq xN …`; `candidates` counts candidate *evaluations*
/// (scan candidates × batch width) so candidates/s is directly
/// comparable between the two. Sharded records are `stream tN …` (one
/// query) and `batchpar-stream x4 tN …` (four query lanes); t1 is the
/// inline shared scan. With `json_out` set, the records are appended to
/// the [`crate::report::BENCH_JSON`] trajectory.
pub fn scaling_summary(
    ctx: &Ctx,
    measure: &dyn Fn(&mut dyn FnMut()) -> usize,
    json_out: Option<&Path>,
    label: &str,
) -> Vec<crate::report::BenchRecord> {
    use crate::report::BenchRecord;
    let nodes = (800_000 / ctx.scale).max(2_000);
    let (qsize, k) = (8u32, 5usize);
    let mut dict = LabelDict::new();
    let doc = dblp_tree(&mut dict, &DblpConfig::new(7, nodes));
    println!("\n=== scaling: batch + sharded scan engine ({nodes}-node DBLP document) ===");
    println!(
        "{:>16} {:>9} {:>6} {:>10} {:>14} {:>14} {:>12}",
        "config", "nodes", "k", "seconds", "evaluations", "ns/candidate", "peak(KiB)"
    );
    let mut records = Vec::new();
    let push = |records: &mut Vec<BenchRecord>, r: BenchRecord| {
        println!(
            "{:>16} {:>9} {:>6} {:>10.4} {:>14} {:>14.0} {:>12.1}",
            r.name,
            r.nodes,
            r.k,
            r.seconds,
            r.candidates,
            r.ns_per_candidate(),
            r.peak_heap_bytes as f64 / 1024.0
        );
        records.push(r);
    };

    let time3 = |run: &mut dyn FnMut()| -> f64 {
        run(); // warm-up
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                run();
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };

    // --- Multi-query batching: one shared scan vs N independent scans.
    for &width in &[1usize, 4, 16] {
        let queries: Vec<Tree> = (0..width)
            .map(|i| random_query(&doc, qsize, 0x5CA1E + i as u64).0)
            .collect();
        let tau = queries
            .iter()
            .map(|q| threshold(q.len() as u64, 1, 1, k as u64))
            .max()
            .expect("non-empty batch");
        let mut q = TreeQueue::new(&doc);
        let scan_candidates =
            prb_pruning_stats(&mut q, u32::try_from(tau).unwrap_or(u32::MAX), None).candidates;
        let evaluations = scan_candidates * width;

        let mut ws = TasmWorkspace::new();
        let mut run_seq = || {
            for query in &queries {
                let mut q = TreeQueue::new(&doc);
                let m = tasm_postorder_with_workspace(
                    query,
                    &mut q,
                    k,
                    &UnitCost,
                    1,
                    TasmOptions::default(),
                    &mut ws,
                    None,
                );
                std::hint::black_box(m.len());
            }
        };
        let seq_seconds = time3(&mut run_seq);
        let seq_peak = measure(&mut run_seq);

        let mut bws = TasmWorkspace::new();
        let mut batch_scan = ScanStats::default();
        let mut run_batch = || {
            let batch: Vec<BatchQuery<'_>> = queries
                .iter()
                .map(|query| BatchQuery { query, k })
                .collect();
            let out = batch_over_tree(&batch, &doc, 1, &mut bws);
            batch_scan = out.scan;
            std::hint::black_box(out.rankings.len());
        };
        let batch_seconds = time3(&mut run_batch);
        let batch_peak = measure(&mut run_batch);

        for (name, seconds, peak, scan) in [
            (format!("seq x{width}"), seq_seconds, seq_peak, None),
            (
                format!("batch x{width}"),
                batch_seconds,
                batch_peak,
                Some(batch_scan),
            ),
        ] {
            let mut r = BenchRecord {
                name: format!("{name} dblp q{qsize} k{k}"),
                nodes: doc.len(),
                query_size: qsize as usize,
                k,
                tau,
                candidates: evaluations,
                seconds,
                peak_heap_bytes: peak,
                ..Default::default()
            };
            if let Some(scan) = scan {
                r = r.with_scan_stats(&scan);
            }
            push(&mut records, r);
        }
    }

    // --- Sharded streaming scans: candidate segments handed off to the
    // workers, document never materialized.
    let (query, _) = random_query(&doc, qsize, 0x5CA1E);
    let tau = threshold(query.len() as u64, 1, 1, k as u64);
    let mut q = TreeQueue::new(&doc);
    let candidates =
        prb_pruning_stats(&mut q, u32::try_from(tau).unwrap_or(u32::MAX), None).candidates;
    let solo = [BatchQuery { query: &query, k }];
    let mut bws = TasmWorkspace::new();
    for &threads in &[1usize, 2, 4] {
        let mut run = || {
            let out = batch_over_tree(&solo, &doc, threads, &mut bws);
            std::hint::black_box(out.rankings[0].len());
        };
        let seconds = time3(&mut run);
        let peak = measure(&mut run);
        push(
            &mut records,
            BenchRecord {
                name: format!("stream t{threads} dblp q{qsize} k{k}"),
                nodes: doc.len(),
                query_size: qsize as usize,
                k,
                tau,
                candidates,
                seconds,
                peak_heap_bytes: peak,
                ..Default::default()
            },
        );
    }

    // --- Batch×parallel composition: 4 query lanes × T threads over the
    // postorder stream.
    let lane_queries: Vec<Tree> = (0..4)
        .map(|i| random_query(&doc, qsize, 0x5CA1E + i as u64).0)
        .collect();
    let lane_tau = lane_queries
        .iter()
        .map(|q| threshold(q.len() as u64, 1, 1, k as u64))
        .max()
        .expect("non-empty batch");
    let mut q = TreeQueue::new(&doc);
    let lane_candidates =
        prb_pruning_stats(&mut q, u32::try_from(lane_tau).unwrap_or(u32::MAX), None).candidates;
    let lane_evaluations = lane_candidates * lane_queries.len();
    let batch: Vec<BatchQuery<'_>> = lane_queries
        .iter()
        .map(|query| BatchQuery { query, k })
        .collect();
    for &threads in &[1usize, 2, 4] {
        let mut run = || {
            let out = batch_over_tree(&batch, &doc, threads, &mut bws);
            std::hint::black_box(out.rankings.len());
        };
        let seconds = time3(&mut run);
        let peak = measure(&mut run);
        push(
            &mut records,
            BenchRecord {
                name: format!("batchpar-stream x4 t{threads} dblp q{qsize} k{k}"),
                nodes: doc.len(),
                query_size: qsize as usize,
                k,
                tau: lane_tau,
                candidates: lane_evaluations,
                seconds,
                peak_heap_bytes: peak,
                ..Default::default()
            },
        );
    }

    if let Some(path) = json_out {
        crate::report::write_json(path, label, ctx.scale, &records).expect("write bench json");
        println!("wrote {} (snapshot \"{label}\")", path.display());
    }
    records
}

/// Index-vs-scan snapshot: the same top-k queries answered by a full
/// streaming scan (`scan …`) and by the `.pqi` label index
/// (`indexed …`), on the [`bench_summary`] workloads. `nodes_examined`
/// is the comparison that matters — the scan touches every document
/// node, the index only the posting-driven candidate regions — and the
/// rankings are asserted identical before anything is recorded. With
/// `json_out` set, the records are appended to the
/// [`crate::report::BENCH_JSON`] trajectory.
pub fn index_summary(
    ctx: &Ctx,
    measure: &dyn Fn(&mut dyn FnMut()) -> usize,
    json_out: Option<&Path>,
    label: &str,
) -> Vec<crate::report::BenchRecord> {
    use crate::report::BenchRecord;
    let nodes = (800_000 / ctx.scale).max(2_000);
    println!("\n=== index: .pqi candidate generation vs full scan ({nodes}-node documents) ===");
    println!(
        "{:>20} {:>9} {:>4} {:>4} {:>10} {:>10} {:>10} {:>12}",
        "workload", "nodes", "|Q|", "k", "seconds", "cand", "examined", "peak(KiB)"
    );
    let mut records = Vec::new();
    for (dataset, qsize, k) in [("dblp", 11u32, 5usize), ("xmark", 8, 5)] {
        let mut dict = LabelDict::new();
        let doc = match dataset {
            "dblp" => dblp_tree(&mut dict, &DblpConfig::new(7, nodes)),
            _ => xmark_tree(&mut dict, &XMarkConfig::new(7, nodes)),
        };
        let (query, _) = random_query(&doc, qsize, 0x1DE0 + qsize as u64);
        let tau = threshold(query.len() as u64, 1, 1, k as u64);
        let idx = IndexedDocument::build(&doc, &dict);

        let push = |records: &mut Vec<BenchRecord>,
                    name: String,
                    run: &mut dyn FnMut() -> tasm_core::ScanStats| {
            let mut timed = || {
                std::hint::black_box(run());
            };
            timed(); // warm-up
            let seconds = (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    timed();
                    t0.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min);
            let peak_heap_bytes = measure(&mut timed);
            let scan = run();
            let r = BenchRecord {
                name,
                nodes: doc.len(),
                query_size: query.len(),
                k,
                tau,
                candidates: scan.candidates,
                seconds,
                peak_heap_bytes,
                ..Default::default()
            }
            .with_scan_stats(&scan);
            println!(
                "{:>20} {:>9} {:>4} {:>4} {:>10.4} {:>10} {:>10} {:>12.1}",
                r.name,
                r.nodes,
                r.query_size,
                r.k,
                r.seconds,
                r.candidates,
                r.nodes_examined,
                r.peak_heap_bytes as f64 / 1024.0,
            );
            records.push(r);
        };

        // Both paths must return the exact same ranking before either
        // one is worth timing.
        let scan_ranking = {
            let mut q = TreeQueue::new(&doc);
            tasm_postorder(
                &query,
                &mut q,
                k,
                &UnitCost,
                1,
                TasmOptions::default(),
                None,
            )
        };
        let (indexed_ranking, _) = indexed_one(&query, &dict, &idx, k);
        assert_eq!(
            scan_ranking, indexed_ranking,
            "{dataset}: indexed ranking diverged from the scan"
        );

        let mut ws = TasmWorkspace::new();
        push(
            &mut records,
            format!("scan {dataset} q{} k{k}", query.len()),
            &mut || {
                let mut q = TreeQueue::new(&doc);
                let m = tasm_postorder_with_workspace(
                    &query,
                    &mut q,
                    k,
                    &UnitCost,
                    1,
                    TasmOptions::default(),
                    &mut ws,
                    None,
                );
                std::hint::black_box(m.len());
                ws.last_scan_stats()
            },
        );
        push(
            &mut records,
            format!("indexed {dataset} q{} k{k}", query.len()),
            &mut || {
                let (m, scan) = indexed_one(&query, &dict, &idx, k);
                std::hint::black_box(m.len());
                scan
            },
        );
    }
    if let Some(path) = json_out {
        crate::report::write_json(path, label, ctx.scale, &records).expect("write bench json");
        println!("wrote {} (snapshot \"{label}\")", path.display());
    }
    records
}

/// Corpus-store experiment: one query over a multi-shard on-disk
/// corpus — healthy at 1 and 4 threads, degraded with a quarantined
/// shard, and the merged per-document baseline the corpus path must
/// reproduce. Each ranking is checked against the baseline before its
/// timing is reported, so the numbers only ever describe correct runs.
pub fn corpus_summary(
    ctx: &Ctx,
    json_out: Option<&Path>,
    label: &str,
) -> Vec<crate::report::BenchRecord> {
    use crate::report::BenchRecord;
    use tasm_core::tasm_corpus_batch;
    use tasm_index::Corpus;

    let shards = 4usize;
    let nodes = (800_000 / ctx.scale / shards).max(1_000);
    println!(
        "\n=== corpus: {shards}-shard store vs merged per-document runs ({nodes}-node shards) ==="
    );
    println!(
        "{:>24} {:>9} {:>7} {:>4} {:>10} {:>8}",
        "workload", "nodes", "healthy", "k", "seconds", "matches"
    );

    let dir = std::env::temp_dir().join(format!("tasm-bench-corpus-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let mut dict = LabelDict::new();
    let mut builder = Corpus::create(&dir).expect("create corpus");
    let mut total_nodes = 0usize;
    for i in 0..shards {
        let doc = dblp_tree(&mut dict, &DblpConfig::new(7 + i as u64, nodes));
        total_nodes += doc.len();
        builder
            .add(&format!("doc-{i}"), &doc, &dict, None)
            .expect("add shard");
    }
    drop(builder);
    let query_src = dblp_tree(&mut dict, &DblpConfig::new(99, nodes));
    let (query, _) = random_query(&query_src, 11, 0xC0DE);
    let k = 10usize;
    let tau = threshold(query.len() as u64, 1, 1, k as u64);

    // The reference every corpus run must reproduce exactly: per-shard
    // indexed runs merged on the corpus rank key.
    let reference = |corpus: &Corpus| {
        let mut merged = Vec::new();
        for (shard, _, doc) in corpus.healthy() {
            let (hits, _) = indexed_one(&query, &dict, doc, k);
            merged.extend(
                hits.into_iter()
                    .map(|h| (h.distance, shard, h.root.post(), h.size)),
            );
        }
        merged.sort();
        merged.truncate(k);
        merged
    };

    let mut records = Vec::new();
    let run_one =
        |records: &mut Vec<BenchRecord>, name: String, corpus: &Corpus, threads: usize| {
            let want = reference(corpus);
            let run = || {
                tasm_corpus_batch(
                    &[BatchQuery { query: &query, k }],
                    &dict,
                    corpus,
                    &Run {
                        threads,
                        ..Run::default()
                    },
                    &mut TasmWorkspace::new(),
                )
                .expect("no deadline")
            };
            let out = run();
            let (matches, status) = (&out.rankings[0], out.status);
            let got: Vec<_> = matches
                .iter()
                .map(|m| (m.hit.distance, m.shard, m.hit.root.post(), m.hit.size))
                .collect();
            assert_eq!(got, want, "{name}: corpus ranking diverged from the merge");
            let seconds = (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(run());
                    t0.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min);
            let r = BenchRecord {
                name,
                nodes: total_nodes,
                query_size: query.len(),
                k,
                tau,
                candidates: matches.len(),
                seconds,
                ..Default::default()
            };
            println!(
                "{:>24} {:>9} {:>3}/{:<3} {:>4} {:>10.4} {:>8}",
                r.name, r.nodes, status.healthy, status.total, r.k, r.seconds, r.candidates,
            );
            records.push(r);
        };

    // Open-path load time: every shard is read into one buffer and
    // decoded through the zero-copy slice path (`open_bytes`), CRC
    // verified once over the buffer. This is the daemon's cold-start
    // cost per corpus.
    {
        let open_seconds = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(Corpus::open(&dir).expect("open corpus"));
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        let r = BenchRecord {
            name: "corpus open (zero-copy)".into(),
            nodes: total_nodes,
            query_size: query.len(),
            k,
            tau,
            candidates: shards,
            seconds: open_seconds,
            ..Default::default()
        };
        println!(
            "{:>24} {:>9} {:>3}/{:<3} {:>4} {:>10.4} {:>8}",
            r.name, r.nodes, shards, shards, r.k, r.seconds, r.candidates,
        );
        records.push(r);
    }

    let corpus = Corpus::open(&dir).expect("open corpus");
    run_one(&mut records, "corpus healthy t1".into(), &corpus, 1);
    run_one(&mut records, "corpus healthy t4".into(), &corpus, 4);

    // Quarantine one shard by flipping a bit mid-file: the degraded run
    // must still match the merge over the three survivors.
    let victim = dir.join("doc-1.pqi");
    let mut bytes = fs::read(&victim).expect("read shard");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    fs::write(&victim, &bytes).expect("corrupt shard");
    let degraded = Corpus::open(&dir).expect("open degraded corpus");
    assert!(degraded.is_degraded());
    run_one(&mut records, "corpus degraded t1".into(), &degraded, 1);

    let _ = fs::remove_dir_all(&dir);
    if let Some(path) = json_out {
        crate::report::write_json(path, label, ctx.scale, &records).expect("write bench json");
        println!("wrote {} (snapshot \"{label}\")", path.display());
    }
    records
}

/// Per-tier prune-funnel table: how many subtree evaluations each tier
/// of the lower-bound cascade kills on the recorded workloads, so
/// future PRs can see which tier is earning its keep.
///
/// Runs `tasm_postorder` with the cascade enabled over the same
/// generated documents as [`bench_summary`] plus a PSD-shaped one, and
/// prints (and CSVs) the funnel: candidates emitted, size-skipped
/// roots, histogram prunes, SED prunes, exact evaluations, prune rate.
pub fn funnel(ctx: &Ctx) {
    use tasm_data::{psd_tree, PsdConfig};
    let nodes = (800_000 / ctx.scale).max(2_000);
    println!("\n=== prune funnel: lower-bound cascade per-tier kills ({nodes}-node documents) ===");
    println!(
        "{:>16} {:>10} {:>11} {:>11} {:>9} {:>10} {:>9}",
        "workload", "candidates", "size-skip", "histogram", "sed", "evaluated", "pruned"
    );
    let mut csv = Csv::create(
        ctx,
        "funnel",
        "workload,candidates,pruned_size,pruned_histogram,pruned_sed,evaluated,prune_rate",
    );
    for (dataset, qsize, k) in [
        ("dblp", 8u32, 5usize),
        ("xmark", 8, 5),
        ("xmark", 16, 100),
        ("psd", 8, 5),
    ] {
        let mut dict = LabelDict::new();
        let doc = match dataset {
            "dblp" => dblp_tree(&mut dict, &DblpConfig::new(7, nodes)),
            "psd" => psd_tree(&mut dict, &PsdConfig::new(7, nodes)),
            _ => xmark_tree(&mut dict, &XMarkConfig::new(7, nodes)),
        };
        let (query, _) = random_query(&doc, qsize, 0xBE40 + qsize as u64);
        let mut ws = TasmWorkspace::new();
        let mut q = TreeQueue::new(&doc);
        let m = tasm_postorder_with_workspace(
            &query,
            &mut q,
            k,
            &UnitCost,
            1,
            TasmOptions::default(),
            &mut ws,
            None,
        );
        std::hint::black_box(m.len());
        let scan = ws.last_scan_stats();
        let name = format!("{dataset} q{} k{k}", query.len());
        println!(
            "{:>16} {:>10} {:>11} {:>11} {:>9} {:>10} {:>8.1}%",
            name,
            scan.candidates,
            scan.pruned_size,
            scan.pruned_histogram,
            scan.pruned_sed,
            scan.evaluated,
            100.0 * scan.prune_rate(),
        );
        csv.row(format_args!(
            "{name},{},{},{},{},{},{:.4}",
            scan.candidates,
            scan.pruned_size,
            scan.pruned_histogram,
            scan.pruned_sed,
            scan.evaluated,
            scan.prune_rate()
        ));
    }
}

/// Which real-world-like dataset an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// DBLP-like (shallow, wide).
    Dblp,
    /// PSD-like (deeper records).
    Psd,
}

impl Dataset {
    /// Dataset display name.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Dblp => "DBLP",
            Dataset::Psd => "PSD",
        }
    }

    /// Generates the scaled document (paper: DBLP 26 M nodes, PSD 37 M).
    pub fn generate(self, ctx: &Ctx, dict: &mut LabelDict) -> Tree {
        match self {
            Dataset::Dblp => {
                let nodes = (476 * DBLP_NODES_PER_MB / ctx.scale).max(5_000);
                dblp_tree(dict, &DblpConfig::new(476, nodes))
            }
            Dataset::Psd => {
                let nodes = (683 * PSD_NODES_PER_MB / ctx.scale).max(5_000);
                psd_tree(dict, &PsdConfig::new(683, nodes))
            }
        }
    }
}

/// Runs top-k with both algorithms on a dataset, returning their relevant
/// subtree statistics and the document size.
fn relevant_stats(ctx: &Ctx, ds: Dataset, qsize: u32, k: usize) -> (TedStats, TedStats, usize) {
    let mut dict = LabelDict::new();
    let doc = ds.generate(ctx, &mut dict);
    let (query, _) = random_query(&doc, qsize, 0xF00D);
    let mut dy = TedStats::new();
    tasm_dynamic(
        &query,
        &doc,
        k,
        &UnitCost,
        TasmOptions::default(),
        Some(&mut dy),
    );
    let mut po = TedStats::new();
    let mut q = TreeQueue::new(&doc);
    tasm_postorder(
        &query,
        &mut q,
        k,
        &UnitCost,
        1,
        TasmOptions::default(),
        Some(&mut po),
    );
    (dy, po, doc.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> Ctx {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("tasm_bench_test_{}_{unique}", std::process::id()));
        Ctx {
            scale: 4096,
            data_dir: dir.join("data"),
            out_dir: dir,
            mem_budget: 4 << 30,
        }
    }

    #[test]
    fn xmark_doc_caches_file() {
        let ctx = tiny_ctx();
        let mut dict = LabelDict::new();
        let (t1, p1) = xmark_doc(&ctx, 112, &mut dict);
        assert!(p1.exists());
        let mut dict2 = LabelDict::new();
        let (t2, p2) = xmark_doc(&ctx, 112, &mut dict2);
        assert_eq!(p1, p2);
        assert_eq!(t1, t2, "same seed must give the same document");
        std::fs::remove_dir_all(&ctx.out_dir).ok();
    }

    #[test]
    fn postorder_and_dynamic_agree_via_files() {
        let ctx = tiny_ctx();
        let mut dict = LabelDict::new();
        let (tree, path) = xmark_doc(&ctx, 112, &mut dict);
        let n = tree.len();
        let (query, _) = random_query(&tree, 8, 1);
        let (_, found_pos) = time_postorder_file(&query, &mut dict, &path, 5);
        let (_, found_dy) = time_dynamic_file(&ctx, &query, &mut dict, &path, n, 5).expect("fits");
        assert_eq!(found_pos, 5);
        assert_eq!(found_dy, 5);
        std::fs::remove_dir_all(&ctx.out_dir).ok();
    }

    #[test]
    fn dynamic_footprint_is_monotonic() {
        assert!(dynamic_footprint(8, 1000) < dynamic_footprint(8, 2000));
        assert!(dynamic_footprint(8, 1000) < dynamic_footprint(16, 1000));
        // The paper's OOM case: 64-node query on 26 M nodes blows 4 GB.
        assert!(dynamic_footprint(64, 26_000_000) > (4u64 << 30));
    }

    #[test]
    fn scaling_summary_produces_comparable_records() {
        let ctx = tiny_ctx();
        let records = scaling_summary(
            &ctx,
            &|f: &mut dyn FnMut()| {
                f();
                0
            },
            None,
            "test",
        );
        // 3 batch widths × (seq + batch) + 3 thread counts × (one query
        // + four query lanes) over the sharded stream.
        assert_eq!(records.len(), 12);
        for width in [1usize, 4, 16] {
            let seq = records
                .iter()
                .find(|r| r.name.starts_with(&format!("seq x{width} ")))
                .expect("seq record");
            let batch = records
                .iter()
                .find(|r| r.name.starts_with(&format!("batch x{width} ")))
                .expect("batch record");
            // Same evaluation count: candidates/s is directly comparable.
            assert_eq!(seq.candidates, batch.candidates);
            assert!(seq.candidates > 0);
        }
        for threads in [1usize, 2, 4] {
            let get = |prefix: String| {
                records
                    .iter()
                    .find(|r| r.name.starts_with(&prefix))
                    .unwrap_or_else(|| panic!("missing record {prefix}"))
            };
            let stream = get(format!("stream t{threads} "));
            let bps = get(format!("batchpar-stream x4 t{threads} "));
            assert!(stream.candidates > 0);
            // Four lanes evaluate every scan candidate once each.
            assert!(bps.candidates > 0 && bps.candidates % 4 == 0);
        }
        std::fs::remove_dir_all(&ctx.out_dir).ok();
    }

    #[test]
    fn relevant_stats_show_pruning() {
        let ctx = tiny_ctx();
        let (dy, po, n) = relevant_stats(&ctx, Dataset::Dblp, 4, 1);
        assert_eq!(dy.max_relevant_size() as usize, n);
        let tau = threshold(4, 1, 1, 1);
        assert!(u64::from(po.max_relevant_size()) <= tau);
        std::fs::remove_dir_all(&ctx.out_dir).ok();
    }
}
