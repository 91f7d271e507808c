//! Regenerates every table and figure of the paper's evaluation (Sec. VII).
//!
//! ```text
//! cargo run -p tasm-bench --release --bin experiments -- all --scale 16
//! cargo run -p tasm-bench --release --bin experiments -- fig9a fig10
//! ```
//!
//! Results are printed as tables and written to `results/*.csv`.
//! `--scale N` divides the paper's document sizes by N (default 16;
//! `--scale 1` reproduces the full published sizes given enough RAM/time).

use tasm_bench::alloc::{measure_peak, CountingAlloc};
use tasm_bench::harness::{self, Ctx};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "\
usage: experiments [fig9a|fig9b|fig9c|fig10|fig11|fig12|ablation-tau|ablation-buffer|bench|scaling|index|corpus|funnel|all]...
                   [--scale N] [--quick] [--json] [--label S]

`bench` times the tasm_postorder hot path (candidates/s, ns/candidate,
peak heap, cascade prune rate); `scaling` times multi-query batching
(one shared scan vs N independent scans) and sharded streaming scans
(1/2/4 threads); `index` compares .pqi index-driven candidate
generation against the full scan (nodes examined, identical rankings);
`corpus` times multi-shard corpus queries (healthy and degraded)
against merged per-document runs; `funnel` prints the per-tier prune
funnel of the lower-bound cascade. With `--json`, bench, scaling,
index and corpus append snapshots (named by --label) to
BENCH_tasm.json in the current directory — the perf trajectory.
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale: usize = 16;
    let mut json = false;
    let mut label = String::from("tasm-bench experiments");
    let mut which: Vec<String> = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--scale" => {
                scale = iter.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--scale needs a number");
                    std::process::exit(2);
                });
            }
            "--quick" => scale = 128,
            "--json" => json = true,
            "--label" => {
                label = iter.next().cloned().unwrap_or_else(|| {
                    eprintln!("--label needs a value");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return;
            }
            other => which.push(other.to_string()),
        }
    }
    // `--json` always implies the perf-trajectory workloads
    // (`experiments -- --json` is the canonical call; with an explicit
    // workload list they are appended rather than silently ignored).
    if json
        && !which
            .iter()
            .any(|w| w == "bench" || w == "scaling" || w == "index" || w == "corpus" || w == "all")
    {
        which.push("bench".to_string());
        which.push("scaling".to_string());
        which.push("index".to_string());
        which.push("corpus".to_string());
    }
    if which.is_empty() || which.iter().any(|w| w == "all") {
        which = [
            "fig9a",
            "fig9b",
            "fig9c",
            "fig10",
            "fig11",
            "fig12",
            "ablation-tau",
            "ablation-buffer",
            "bench",
            "scaling",
            "index",
            "corpus",
            "funnel",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    let ctx = Ctx::new(scale);
    println!(
        "TASM experiments — scale 1/{} of the paper's document sizes; CSVs in {}",
        ctx.scale,
        ctx.out_dir.display()
    );
    for w in &which {
        match w.as_str() {
            "fig9a" => harness::fig9a(&ctx),
            "fig9b" => harness::fig9b(&ctx),
            "fig9c" => harness::fig9c(&ctx),
            "fig10" => harness::fig10(&ctx, &|f: &mut dyn FnMut()| measure_peak(f).1),
            "fig11" => harness::fig11(&ctx),
            "fig12" => harness::fig12(&ctx),
            "ablation-tau" => harness::ablation_tau(&ctx),
            "ablation-buffer" => harness::ablation_buffer(&ctx),
            "funnel" => harness::funnel(&ctx),
            "bench" => {
                let out = json.then(|| std::path::PathBuf::from(tasm_bench::report::BENCH_JSON));
                harness::bench_summary(
                    &ctx,
                    &|f: &mut dyn FnMut()| measure_peak(f).1,
                    out.as_deref(),
                    &label,
                );
            }
            "scaling" => {
                let out = json.then(|| std::path::PathBuf::from(tasm_bench::report::BENCH_JSON));
                harness::scaling_summary(
                    &ctx,
                    &|f: &mut dyn FnMut()| measure_peak(f).1,
                    out.as_deref(),
                    &format!("{label} (scaling)"),
                );
            }
            "index" => {
                let out = json.then(|| std::path::PathBuf::from(tasm_bench::report::BENCH_JSON));
                harness::index_summary(
                    &ctx,
                    &|f: &mut dyn FnMut()| measure_peak(f).1,
                    out.as_deref(),
                    &format!("{label} (index)"),
                );
            }
            "corpus" => {
                let out = json.then(|| std::path::PathBuf::from(tasm_bench::report::BENCH_JSON));
                harness::corpus_summary(&ctx, out.as_deref(), &format!("{label} (corpus)"));
            }
            other => {
                eprintln!("unknown experiment '{other}'\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
}
