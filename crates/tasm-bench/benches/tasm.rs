//! End-to-end TASM benchmarks: postorder vs dynamic vs naive, and the τ'
//! refinement ablation, at micro scale (the figure-scale sweeps live in
//! the `experiments` binary).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tasm_core::{
    tasm_batch, tasm_batch_with_workspace, tasm_dynamic, tasm_naive, tasm_postorder,
    tasm_postorder_with_workspace, BatchQuery, Run, TasmOptions, TasmWorkspace,
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
    bench_tau_prime_ablation
);
criterion_main!(benches);
