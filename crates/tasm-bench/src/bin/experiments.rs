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
//! End-to-end speed is measured by perfbench, not here: its snapshots
//! are recorded in `BENCH_tasm.json` by `scripts/bench_record.py`.

use tasm_bench::alloc::{measure_peak, CountingAlloc};
use tasm_bench::harness::{self, Ctx};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "\
usage: experiments [fig9a|fig9b|fig9c|fig10|fig11|fig12|ablation-tau|ablation-buffer|all]...
                   [--scale N] [--quick]

Each name reruns one figure of the paper's Sec. VII or one ablation;
`all` (the default) runs every one. `--quick` is `--scale 128`.
";

const ALL: [&str; 8] = [
    "fig9a",
    "fig9b",
    "fig9c",
    "fig10",
    "fig11",
    "fig12",
    "ablation-tau",
    "ablation-buffer",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale: usize = 16;
    let mut which: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--scale" => {
                scale = iter.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--scale needs a number");
                    std::process::exit(2);
                });
            }
            "--quick" => scale = 128,
            "--help" | "-h" => {
                print!("{USAGE}");
                return;
            }
            w if w == "all" || ALL.contains(&w) => which.push(w.to_string()),
            other => {
                eprintln!("unknown argument '{other}'\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if which.is_empty() || which.iter().any(|w| w == "all") {
        which = ALL.iter().map(|s| s.to_string()).collect();
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
            _ => unreachable!("names are checked while parsing"),
        }
    }
}
