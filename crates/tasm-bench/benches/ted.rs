//! Micro-benchmarks for the Zhang–Shasha tree edit distance: scaling in
//! document size (the `O(m²n)` regime for shallow trees) and in query
//! size, the cost of the full distance matrix vs a plain distance, and
//! the TED-kernel selection (left-path ZS vs right-path strategy vs the
//! auto shape estimator) on the standing TASM workloads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tasm_core::{tasm_postorder_with_workspace, TasmOptions, TasmWorkspace, TedKernel};
use tasm_data::{dblp_tree, random_query, xmark_tree, DblpConfig, XMarkConfig};
use tasm_ted::{ted, ted_full, UnitCost};
use tasm_tree::{LabelDict, LabelId, Tree, TreeBuilder, TreeQueue};

fn bench_ted_doc_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("ted/doc_size");
    for &n in &[500usize, 1_000, 2_000, 4_000] {
        let mut dict = LabelDict::new();
        let doc = dblp_tree(&mut dict, &DblpConfig::new(1, n));
        let (query, _) = random_query(&doc, 8, 7);
        group.throughput(Throughput::Elements(doc.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &doc, |b, doc| {
            b.iter(|| ted(&query, doc, &UnitCost));
        });
    }
    group.finish();
}

fn bench_ted_query_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("ted/query_size");
    let mut dict = LabelDict::new();
    let doc = dblp_tree(&mut dict, &DblpConfig::new(2, 2_000));
    for &m in &[4u32, 8, 16, 32, 64] {
        let (query, _) = random_query(&doc, m, 11);
        group.bench_with_input(BenchmarkId::from_parameter(m), &query, |b, query| {
            b.iter(|| ted(query, &doc, &UnitCost));
        });
    }
    group.finish();
}

fn bench_ted_full_matrix(c: &mut Criterion) {
    let mut dict = LabelDict::new();
    let doc = dblp_tree(&mut dict, &DblpConfig::new(3, 2_000));
    let (query, _) = random_query(&doc, 16, 13);
    c.bench_function("ted/full_matrix_2k", |b| {
        b.iter(|| ted_full(&query, &doc, &UnitCost, None));
    });
}

/// A right-comb query over the document's own labels: every internal
/// node has a leaf left child and carries its subtree on the right —
/// Zhang–Shasha's worst decomposition and the strategy kernel's best.
fn deep_query(doc: &Tree, depth: usize) -> Tree {
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
            b.end().unwrap();
            rec(d - 1, i, label, b);
        }
        b.end().unwrap();
    }
    let mut i = 0;
    rec(depth, &mut i, &label, &mut b);
    b.finish().expect("single root")
}

/// Full TASM-postorder scans under each kernel selection, on random
/// query shapes (dblp-q11, xmark-q8, xmark-q16) plus a right-deep query
/// where the decompositions differ most. `auto` must track the better of the two pinned kernels.
fn bench_ted_kernel(c: &mut Criterion) {
    let nodes = 10_000;
    let mut dict = LabelDict::new();
    let dblp = dblp_tree(&mut dict, &DblpConfig::new(7, nodes));
    let xmark = xmark_tree(&mut dict, &XMarkConfig::new(7, nodes));
    let workloads: Vec<(&str, &Tree, Tree, usize)> = vec![
        ("dblp-q11", &dblp, random_query(&dblp, 8, 0xBE48).0, 5),
        ("xmark-q8", &xmark, random_query(&xmark, 8, 0xBE48).0, 5),
        ("xmark-q16", &xmark, random_query(&xmark, 16, 0xBE50).0, 100),
        ("xmark-deep-q17", &xmark, deep_query(&xmark, 8), 100),
    ];
    let mut group = c.benchmark_group("ted_kernel");
    group.sample_size(10);
    for (name, doc, query, k) in &workloads {
        for kernel in [TedKernel::Zs, TedKernel::Strategy, TedKernel::Auto] {
            let opts = TasmOptions {
                kernel,
                ..Default::default()
            };
            let mut ws = TasmWorkspace::new();
            group.bench_function(BenchmarkId::new(*name, kernel), |b| {
                b.iter(|| {
                    let mut q = TreeQueue::new(doc);
                    let m = tasm_postorder_with_workspace(
                        query, &mut q, *k, &UnitCost, 1, opts, &mut ws, None,
                    );
                    std::hint::black_box(m.len())
                });
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ted_doc_size,
    bench_ted_query_size,
    bench_ted_full_matrix,
    bench_ted_kernel
);
criterion_main!(benches);
