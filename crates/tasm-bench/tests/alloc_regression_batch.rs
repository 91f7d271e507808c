//! Allocation regression for the batch path: with a warm
//! [`TasmWorkspace`], a `tasm_batch` scan performs O(#queries)
//! allocations **independent of the document's length** — the candidate
//! loop itself stays allocation-free across every lane.
//!
//! Like the single-query regression test, this file holds a single
//! `#[test]` so no sibling test can allocate concurrently while the
//! counters are diffed.

use tasm_bench::alloc::{alloc_count, CountingAlloc};
use tasm_core::{tasm_batch_with_workspace, BatchQuery, TasmOptions, TasmWorkspace};
use tasm_ted::UnitCost;
use tasm_tree::{bracket, LabelDict, Tree, TreeQueue};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A DBLP-shaped document with candidates of varying sizes.
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

#[test]
fn batch_scan_allocations_are_document_independent() {
    let mut dict = LabelDict::new();
    let short_doc = varied_doc(&mut dict, 60);
    let long_doc = varied_doc(&mut dict, 600);
    let queries: Vec<Tree> = [
        "{article{a}{t}}",
        "{book{t}}",
        "{article{a}{t}{y}{z}}",
        "{x}",
    ]
    .iter()
    .map(|q| bracket::parse(q, &mut dict).unwrap())
    .collect();
    let opts = TasmOptions::default();

    for width in [1usize, 4] {
        let batch: Vec<BatchQuery<'_>> = queries[..width]
            .iter()
            .map(|query| BatchQuery { query, k: 2 })
            .collect();
        let mut ws = TasmWorkspace::new();
        let mut run = |doc: &Tree| {
            let mut q = TreeQueue::new(doc);
            let before = alloc_count();
            let r = tasm_batch_with_workspace(&batch, &mut q, &UnitCost, 1, opts, &mut ws, None);
            assert_eq!(r.len(), width);
            alloc_count() - before
        };
        run(&short_doc); // warm the workspace
        let short_allocs = run(&short_doc);
        let long_allocs = run(&long_doc);
        assert_eq!(
            short_allocs, long_allocs,
            "width {width}: per-scan allocations must not depend on document \
             length (short: {short_allocs}, long: {long_allocs})"
        );
        // O(#queries), with a generous constant: contexts, heaps and the
        // result vectors are the only per-scan allocations left.
        assert!(
            short_allocs <= 32 * width + 16,
            "width {width}: {short_allocs} allocations per warm scan is not O(#queries)"
        );
    }
}
