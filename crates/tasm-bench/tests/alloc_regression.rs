//! Zero-allocation steady-state regression test for TASM-postorder
//! (extended to the pruning cascade and the strategy kernel): with a
//! warmed [`TasmWorkspace`], `tasm_postorder_with_workspace` — one
//! shared scan with a single evaluation lane, including the
//! [`LowerBoundCascade`](tasm_ted::LowerBoundCascade) checks against
//! the live heap cutoff and the mirrored right-path DP when the
//! strategy kernel is selected — costs the same O(1) allocations for a
//! stream of any length, so its candidate loop allocates nothing.
//!
//! This file intentionally holds a single `#[test]` so no sibling test
//! can allocate concurrently while the counters are being diffed.

use tasm_bench::alloc::{alloc_count, CountingAlloc};
use tasm_core::{tasm_postorder_with_workspace, TasmOptions, TasmWorkspace, TedKernel};
use tasm_ted::{QueryContext, UnitCost};
use tasm_tree::{bracket, LabelDict, Tree, TreeQueue};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A DBLP-shaped document whose candidates have *varying* sizes
/// (1 to 5 nodes): a wide root over `n` record subtrees.
fn varied_doc(dict: &mut LabelDict, records: usize) -> Tree {
    let mut s = String::from("{dblp");
    for i in 0..records {
        match i % 4 {
            0 => s.push_str("{article{a}{t}}"),
            1 => s.push_str("{x}"),
            2 => s.push_str("{article{a}{t}{y}{z}}"),
            _ => s.push_str("{book{t}}"),
        }
    }
    s.push('}');
    bracket::parse(&s, dict).unwrap()
}

/// Runs `tasm_postorder_with_workspace` under one kernel selection over
/// a short and a long stream with one warmed workspace, asserting that
/// both cost the same number of allocations and that the cascade and
/// the kernel funnel behaved as expected.
fn assert_stream_allocations_are_length_independent(
    query: &Tree,
    short_doc: &Tree,
    long_doc: &Tree,
    k: usize,
    kernel: TedKernel,
) {
    let opts = TasmOptions {
        kernel,
        ..Default::default()
    };
    assert!(opts.use_cascade, "the cascade must be part of the loop");
    let mut ws = TasmWorkspace::new();
    let mut run = |doc: &Tree| {
        let mut q = TreeQueue::new(doc);
        let before = alloc_count();
        let m = tasm_postorder_with_workspace(query, &mut q, k, &UnitCost, 1, opts, &mut ws, None);
        let allocs = alloc_count() - before;
        assert_eq!(m.len(), k, "sanity: ranking still filled");
        allocs
    };
    run(short_doc); // warm the workspace
    let short_allocs = run(short_doc);
    let long_allocs = run(long_doc);
    assert_eq!(
        short_allocs, long_allocs,
        "{kernel} kernel: per-stream allocations must not depend on document \
         length (short: {short_allocs}, long: {long_allocs})"
    );

    let scan = ws.last_scan_stats();
    assert!(
        scan.candidates >= 300,
        "expected a multi-candidate stream, got {scan:?}"
    );
    // The cascade really ran: the stream contains both prunable
    // candidates (e.g. {x}, {book{t}} against a 0-distance cutoff) and
    // survivors that had to be evaluated exactly.
    assert!(
        scan.pruned_histogram + scan.pruned_sed > 0,
        "cascade never pruned: {scan:?}"
    );
    assert!(scan.evaluated > 0, "cascade pruned everything: {scan:?}");
    // The per-kernel funnel attributes every evaluation to the kernel
    // the query resolved to.
    let ctx = QueryContext::with_kernel(query, &UnitCost, kernel);
    let (want_zs, want_strategy) = match ctx.uses_strategy_kernel() {
        false => (scan.evaluated, 0),
        true => (0, scan.evaluated),
    };
    assert_eq!(
        (scan.evaluated_zs, scan.evaluated_strategy),
        (want_zs, want_strategy),
        "{kernel} kernel"
    );
}

#[test]
fn candidate_loop_is_allocation_free_after_warmup() {
    let mut dict = LabelDict::new();
    let short_doc = varied_doc(&mut dict, 60);
    let long_doc = varied_doc(&mut dict, 400);
    let query = bracket::parse("{article{a}{t}}", &mut dict).unwrap();
    let k = 2;

    // Every kernel selection shares the guarantee: the classic
    // left-path DP, the mirrored right-path DP (whose per-candidate
    // mirror permutation and permuted cost arrays live in the
    // workspace), and the per-query shape estimate.
    for kernel in [TedKernel::Zs, TedKernel::Strategy, TedKernel::Auto] {
        assert_stream_allocations_are_length_independent(&query, &short_doc, &long_doc, k, kernel);
    }
}
