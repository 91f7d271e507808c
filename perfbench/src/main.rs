//! `perfbench` — the compiled half of the end-to-end TASM benchmark.
//!
//! `run.py` drives the shipped `tasm` binary; this program does the work
//! that needs the library:
//!
//! ```text
//! perfbench prepare --workload <name> --seed <n> --scale <f> --dir <d>
//!     generate the workload's documents and queries into <d>, with the
//!     reference answer of every query (plan.json)
//! perfbench layers --dir <d>
//!     the traced run: time each layer's public functions on the inputs
//!     in <d> and print the per-layer metrics as JSON
//! ```

mod json;
mod layers;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn run(args: &[String]) -> Result<(), String> {
    let required = |name: &str| flag(args, name).ok_or_else(|| format!("missing {name}"));
    let dir = PathBuf::from(required("--dir")?);
    match args.first().map(String::as_str) {
        Some("prepare") => {
            let name = required("--workload")?;
            if !workload::WORKLOADS.contains(&name) {
                return Err(format!("unknown workload '{name}'"));
            }
            let seed = required("--seed")?
                .parse()
                .map_err(|_| "--seed takes an integer")?;
            let scale: f64 = flag(args, "--scale")
                .unwrap_or("1")
                .parse()
                .map_err(|_| "--scale takes a number")?;
            let w = workload::prepare(name, seed, scale, &dir)?;
            eprintln!(
                "perfbench: {name} seed {seed}: {} document(s), {} queries, \
                 reference checked against tasm_dynamic on {} ({} mismatches)",
                w.docs.len(),
                w.queries.len(),
                w.dynamic_checked,
                w.dynamic_mismatches
            );
            Ok(())
        }
        Some("layers") => {
            println!("{}", layers::run(&dir)?);
            Ok(())
        }
        _ => Err("usage: perfbench prepare|layers --dir <d> [...]".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::from(2)
        }
    }
}
