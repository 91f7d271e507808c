//! End-to-end TASM benchmarks: postorder vs dynamic vs naive, and the τ'
//! refinement ablation, at micro scale (the figure-scale sweeps live in
//! the `experiments` binary).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tasm_core::{
    prb_pruning_stats, tasm_batch, tasm_batch_with_workspace, tasm_dynamic, tasm_naive,
    tasm_postorder, tasm_postorder_with_workspace, threshold, BatchQuery, Run, TasmOptions,
    TasmWorkspace,
};
use tasm_data::{dblp_tree, random_query, xmark_tree, DblpConfig, XMarkConfig};
use tasm_ted::UnitCost;
use tasm_tree::{LabelDict, Tree, TreeQueue};

fn bench_algorithms(c: &mut Criterion) {
    let mut dict = LabelDict::new();
    let doc = dblp_tree(&mut dict, &DblpConfig::new(1, 20_000));
    let (query, _) = random_query(&doc, 8, 3);
    let k = 5;
    let mut group = c.benchmark_group("tasm/algorithms_20k");
    group.throughput(Throughput::Elements(doc.len() as u64));
    group.bench_function("postorder", |b| {
        b.iter(|| {
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
        });
    });
    group.bench_function("postorder_reused_ws", |b| {
        // The steady-state deployment shape: one workspace across many
        // document streams — even per-stream warm-up disappears.
        let mut ws = TasmWorkspace::new();
        b.iter(|| {
            let mut q = TreeQueue::new(&doc);
            tasm_postorder_with_workspace(
                &query,
                &mut q,
                k,
                &UnitCost,
                1,
                TasmOptions::default(),
                &mut ws,
                None,
            )
        });
    });
    group.bench_function("dynamic", |b| {
        b.iter(|| tasm_dynamic(&query, &doc, k, &UnitCost, TasmOptions::default(), None));
    });
    group.sample_size(10);
    group.bench_function("naive", |b| {
        b.iter(|| tasm_naive(&query, &doc, k, &UnitCost, TasmOptions::default(), None));
    });
    group.finish();
}

/// Times the postorder hot path directly (the criterion shim has no
/// result API) and appends a `BENCH_tasm.json` perf-trajectory snapshot
/// at the workspace root — the same file `experiments -- bench --json`
/// maintains. Opt-in via `TASM_BENCH_JSON=1` so a plain `cargo bench`
/// has no write side effects.
fn bench_emit_summary(_c: &mut Criterion) {
    use std::time::Instant;
    if std::env::var_os("TASM_BENCH_JSON").is_none() {
        return;
    }
    let mut dict = LabelDict::new();
    let doc = dblp_tree(&mut dict, &DblpConfig::new(1, 20_000));
    let (query, _) = random_query(&doc, 8, 3);
    let k = 5;
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
        criterion::black_box(m.len());
    };
    run(); // warm-up
    let seconds = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            run();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);

    let record = tasm_bench::report::BenchRecord {
        name: "criterion dblp q8 k5".into(),
        nodes: doc.len(),
        query_size: query.len(),
        k,
        tau,
        candidates,
        seconds,
        peak_heap_bytes: 0, // no counting allocator in the bench harness
        ..Default::default()
    }
    .with_scan_stats(&ws.last_scan_stats());
    // cargo bench runs with CWD = the package dir; anchor the trajectory
    // file at the workspace root where `experiments` writes it.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(tasm_bench::report::BENCH_JSON);
    let rate = record.candidates_per_sec();
    tasm_bench::report::write_json(&path, "criterion tasm bench", 0, &[record])
        .expect("write bench json");
    println!("bench: wrote {} ({rate:.0} candidates/s)", path.display());
}

/// Multi-query batching: one shared scan for N queries vs N independent
/// sequential scans (both with warm workspaces) — the scan-amortization
/// curve of the engine layer.
fn bench_batch_widths(c: &mut Criterion) {
    let mut dict = LabelDict::new();
    let doc = dblp_tree(&mut dict, &DblpConfig::new(1, 20_000));
    let k = 5;
    let mut group = c.benchmark_group("tasm/batch_width");
    for &width in &[1usize, 4, 16] {
        let queries: Vec<Tree> = (0..width)
            .map(|i| random_query(&doc, 8, 3 + i as u64).0)
            .collect();
        group.bench_with_input(BenchmarkId::new("batch", width), &width, |b, _| {
            let mut ws = TasmWorkspace::new();
            b.iter(|| {
                let batch: Vec<BatchQuery<'_>> = queries
                    .iter()
                    .map(|query| BatchQuery { query, k })
                    .collect();
                let mut q = TreeQueue::new(&doc);
                tasm_batch_with_workspace(
                    &batch,
                    &mut q,
                    &UnitCost,
                    1,
                    TasmOptions::default(),
                    &mut ws,
                    None,
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("sequential", width), &width, |b, _| {
            let mut ws = TasmWorkspace::new();
            b.iter(|| {
                queries
                    .iter()
                    .map(|query| {
                        let mut q = TreeQueue::new(&doc);
                        tasm_postorder_with_workspace(
                            query,
                            &mut q,
                            k,
                            &UnitCost,
                            1,
                            TasmOptions::default(),
                            &mut ws,
                            None,
                        )
                        .len()
                    })
                    .sum::<usize>()
            });
        });
    }
    group.finish();
}

/// The sharded streaming scan of a materialized tree (through a
/// [`TreeQueue`]) at 1/2/4 worker threads (t1 runs the inline shared
/// scan).
fn bench_parallel_threads(c: &mut Criterion) {
    let mut dict = LabelDict::new();
    let doc = dblp_tree(&mut dict, &DblpConfig::new(1, 20_000));
    let (query, _) = random_query(&doc, 8, 3);
    let k = 5;
    let mut group = c.benchmark_group("tasm/parallel_threads");
    for &threads in &[1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            let queries = [BatchQuery { query: &query, k }];
            let run = Run {
                threads: t,
                ..Run::default()
            };
            let mut ws = TasmWorkspace::new();
            b.iter(|| {
                tasm_batch(&queries, &mut TreeQueue::new(&doc), &run, &mut ws)
                    .expect("complete stream")
            });
        });
    }
    group.finish();
}

fn bench_postorder_k(c: &mut Criterion) {
    let mut dict = LabelDict::new();
    let doc = xmark_tree(&mut dict, &XMarkConfig::new(2, 50_000));
    let (query, _) = random_query(&doc, 16, 5);
    let mut group = c.benchmark_group("tasm/postorder_k");
    for &k in &[1usize, 10, 100, 1000] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
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
            });
        });
    }
    group.finish();
}

/// The lower-bound pruning cascade on/off across the three recorded
/// perf-trajectory workloads (DBLP q11 k5, XMark q8 k5, XMark q16
/// k100): what the histogram + banded-SED tiers buy on each shape.
/// Rankings are identical either way (property-tested); only the number
/// of exact DP evaluations differs.
fn bench_pruning_cascade(c: &mut Criterion) {
    let mut group = c.benchmark_group("tasm/pruning_cascade");
    for (dataset, qsize, k) in [("dblp", 8u32, 5usize), ("xmark", 8, 5), ("xmark", 16, 100)] {
        let mut dict = LabelDict::new();
        let doc = match dataset {
            "dblp" => dblp_tree(&mut dict, &DblpConfig::new(7, 20_000)),
            _ => xmark_tree(&mut dict, &XMarkConfig::new(7, 20_000)),
        };
        let (query, _) = random_query(&doc, qsize, 0xBE40 + qsize as u64);
        let workload = format!("{dataset} q{} k{k}", query.len());
        for (mode, use_cascade) in [("on", true), ("off", false)] {
            group.bench_with_input(
                BenchmarkId::new(mode, &workload),
                &use_cascade,
                |b, &use_cascade| {
                    let opts = TasmOptions {
                        use_cascade,
                        ..Default::default()
                    };
                    let mut ws = TasmWorkspace::new();
                    b.iter(|| {
                        let mut q = TreeQueue::new(&doc);
                        tasm_postorder_with_workspace(
                            &query, &mut q, k, &UnitCost, 1, opts, &mut ws, None,
                        )
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_tau_prime_ablation(c: &mut Criterion) {
    let mut dict = LabelDict::new();
    let doc = xmark_tree(&mut dict, &XMarkConfig::new(3, 50_000));
    let (query, _) = random_query(&doc, 16, 9);
    let k = 5;
    let mut group = c.benchmark_group("tasm/tau_prime");
    for (name, on) in [("on", true), ("off", false)] {
        group.bench_function(name, |b| {
            let opts = TasmOptions {
                use_tau_prime: on,
                ..Default::default()
            };
            b.iter(|| {
                let mut q = TreeQueue::new(&doc);
                tasm_postorder(&query, &mut q, k, &UnitCost, 1, opts, None)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_algorithms,
    bench_batch_widths,
    bench_parallel_threads,
    bench_postorder_k,
    bench_pruning_cascade,
    bench_tau_prime_ablation,
    bench_emit_summary
);
criterion_main!(benches);
