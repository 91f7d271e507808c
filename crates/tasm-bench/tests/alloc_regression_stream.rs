//! Allocation regression for the streaming shard hand-off: after
//! warm-up, the sharded streaming scan performs **zero allocations per
//! candidate** — candidate segments recycle through the bounded pipe's
//! pool, every worker reserves its lanes up front, and scratch trees
//! grow but never shrink. A longer document therefore costs exactly the
//! same number of allocations as a shorter one (the per-run constant:
//! thread spawns, pipe setup, lane construction).
//!
//! Like the other regression tests, this file holds a single `#[test]`
//! so no sibling test can allocate concurrently while the counters are
//! diffed.

use tasm_bench::alloc::{alloc_count, CountingAlloc};
use tasm_core::{tasm_batch, BatchQuery, Run, TasmWorkspace};
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
fn streaming_sharded_scan_allocations_are_document_independent() {
    let mut dict = LabelDict::new();
    let short_doc = varied_doc(&mut dict, 120);
    let long_doc = varied_doc(&mut dict, 1200);
    let queries: Vec<Tree> = ["{article{a}{t}}", "{book{t}}"]
        .iter()
        .map(|q| bracket::parse(q, &mut dict).unwrap())
        .collect();
    let batch: Vec<BatchQuery<'_>> = queries
        .iter()
        .map(|query| BatchQuery { query, k: 2 })
        .collect();
    let three = Run {
        threads: 3,
        ..Run::default()
    };

    let run = |doc: &Tree| -> usize {
        let mut q = TreeQueue::new(doc);
        let before = alloc_count();
        let r = tasm_batch(&batch, &mut q, &three, &mut TasmWorkspace::new())
            .expect("complete stream")
            .rankings;
        assert_eq!(r.len(), batch.len());
        assert!(r.iter().all(|lane| lane.len() == 2));
        alloc_count() - before
    };

    // Per-run setup (threads, pipe pool, lanes) allocates; the candidate
    // loop must not. Take the minimum over a few runs so an unrelated
    // allocation on another runtime thread cannot inflate a sample.
    let min3 = |doc: &Tree| (0..3).map(|_| run(doc)).min().unwrap();
    let short_allocs = min3(&short_doc);
    let long_allocs = min3(&long_doc);

    // The long document streams ~10× the candidates (~2700 more). If
    // even a fraction of candidates allocated, the delta would be in the
    // thousands; the pipe hand-off itself must stay pooled, so the only
    // tolerated difference is scheduler noise in thread bookkeeping.
    let delta = long_allocs.abs_diff(short_allocs);
    assert!(
        delta <= 8,
        "streaming sharded scan allocations must not scale with the \
         document: short {short_allocs}, long {long_allocs} (delta {delta})"
    );
}
