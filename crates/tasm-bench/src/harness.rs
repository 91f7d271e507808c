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
    prb_pruning_stats, simple_pruning, tasm_dynamic, tasm_postorder, threshold, TasmOptions,
};
use tasm_data::{
    dblp_tree, psd_tree, random_query, xmark_tree, DblpConfig, PsdConfig, XMarkConfig,
    DBLP_NODES_PER_MB, PSD_NODES_PER_MB, XMARK_NODES_PER_MB,
};
use tasm_ted::{TedStats, UnitCost};
use tasm_tree::{LabelDict, Tree, TreeQueue};
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
    fn relevant_stats_show_pruning() {
        let ctx = tiny_ctx();
        let (dy, po, n) = relevant_stats(&ctx, Dataset::Dblp, 4, 1);
        assert_eq!(dy.max_relevant_size() as usize, n);
        let tau = threshold(4, 1, 1, 1);
        assert!(u64::from(po.max_relevant_size()) <= tau);
        std::fs::remove_dir_all(&ctx.out_dir).ok();
    }
}
