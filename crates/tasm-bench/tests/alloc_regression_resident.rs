//! Allocation regression for the resident drivers: a warm one-thread
//! `tasm_resident_batch`, `tasm_indexed_batch` or `tasm_corpus_batch`
//! call on a reused [`TasmWorkspace`] allocates per call and per shard,
//! never per candidate, block or region. The DP matrices, the cascade
//! scratch and the lanes' distance workspaces all come from the
//! workspace, reserved on the first call.
//!
//! The resident sweep keeps no span buffer, so its warm calls over a
//! 60- and a 400-record document allocate exactly the same. The
//! indexed driver's per-call span and region-order vectors grow by
//! doubling with the number of candidate regions, so the only growth
//! allowed there is a few doublings. A fixed budget bounds
//! the warm call as a whole, so a driver that rebuilt its distance
//! workspaces on every call fails even though such a rebuild does not
//! grow with the document.
//!
//! Like the other regression files, this one holds a single `#[test]`
//! so no sibling test can allocate concurrently while the counters are
//! diffed.

use std::path::PathBuf;

use tasm_bench::alloc::{alloc_count, CountingAlloc};
use tasm_core::{
    tasm_corpus_batch, tasm_indexed_batch, tasm_resident_batch, BatchQuery, Run, TasmWorkspace,
};
use tasm_index::{Corpus, IndexedDocument};
use tasm_tree::{bracket, LabelDict, Tree};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A DBLP-shaped document of `records` records under one root.
fn records_doc(dict: &mut LabelDict, records: usize) -> Tree {
    let mut s = String::from("{dblp");
    for i in 0..records {
        match i % 4 {
            0 => s.push_str("{article{a{x}}{t{y}}}"),
            1 => s.push_str("{book{t{z}}}"),
            2 => s.push_str("{article{a{w}}{t}{y}{z}}"),
            _ => s.push_str("{proceedings{c{v}}}"),
        }
    }
    s.push('}');
    bracket::parse(&s, dict).unwrap()
}

/// How many times a vector doubling from empty reallocates to hold `n`
/// elements (an upper bound, whatever its first capacity).
fn doublings(n: usize) -> usize {
    (usize::BITS - n.leading_zeros()) as usize
}

#[test]
fn warm_resident_calls_allocate_per_call_not_per_region() {
    let mut dict = LabelDict::new();
    let queries: Vec<Tree> = ["{article{a{x}}{t{y}}}", "{book{t}}", "{proceedings{c{q}}}"]
        .iter()
        .map(|q| bracket::parse(q, &mut dict).unwrap())
        .collect();
    let sizes = [60usize, 400];
    let trees: Vec<Tree> = sizes.iter().map(|&n| records_doc(&mut dict, n)).collect();
    let docs: Vec<IndexedDocument> = trees
        .iter()
        .map(|tree| IndexedDocument::build(tree, &dict))
        .collect();
    let dir = std::env::temp_dir().join(format!("tasm-alloc-resident-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let corpora: Vec<(PathBuf, Corpus)> = sizes
        .iter()
        .map(|&n| {
            let sub = dir.join(format!("c{n}"));
            let mut corpus = Corpus::create(&sub).unwrap();
            for shard in 0..3 {
                let mut d = LabelDict::new();
                let tree = records_doc(&mut d, n + shard);
                corpus.add(&format!("s{shard}"), &tree, &d, None).unwrap();
            }
            (sub, corpus)
        })
        .collect();
    let run = Run::default();

    for width in [1usize, 3] {
        let batch: Vec<BatchQuery<'_>> = queries[..width]
            .iter()
            .map(|query| BatchQuery { query, k: 2 })
            .collect();

        let mut ws = TasmWorkspace::new();
        let mut resident = |tree: &Tree| {
            let before = alloc_count();
            let out = tasm_resident_batch(&batch, tree, &run, &mut ws).unwrap();
            let allocs = alloc_count() - before;
            assert_eq!(out.rankings.len(), width);
            (allocs, out.scan.candidates)
        };
        resident(&trees[0]); // warm the workspace
        resident(&trees[1]);
        let (short, short_cands) = resident(&trees[0]);
        let (long, long_cands) = resident(&trees[1]);
        assert!(
            long_cands > 4 * short_cands,
            "the long document must evaluate more candidates"
        );
        assert_eq!(
            long, short,
            "width {width}: a warm resident call allocated {short} times over \
             {short_cands} candidates but {long} times over {long_cands}"
        );

        let mut ws = TasmWorkspace::new();
        let mut indexed = |idx: &IndexedDocument| {
            let before = alloc_count();
            let out = tasm_indexed_batch(&batch, &dict, idx, &run, &mut ws).unwrap();
            let allocs = alloc_count() - before;
            assert_eq!(out.rankings.len(), width);
            (allocs, out.scan.candidates)
        };
        indexed(&docs[0]); // warm the workspace
        indexed(&docs[1]);
        let (short, short_regions) = indexed(&docs[0]);
        let (long, long_regions) = indexed(&docs[1]);
        assert!(
            long_regions > 4 * short_regions,
            "the long document must evaluate more regions"
        );
        // Two per-call vectors may double: the spans and the sort's
        // scratch.
        let growth = 2 * (doublings(long_regions) - doublings(short_regions)) + 2;
        assert!(
            long <= short + growth,
            "width {width}: a warm indexed call allocated {short} times over \
             {short_regions} regions but {long} times over {long_regions}"
        );
        // Encoded queries, lanes (contexts, cascades, heaps), the
        // region bounds and the outputs: nothing per region, and no
        // distance workspace (a fresh one costs more than the slack).
        let budget = 22 * width + 2 * doublings(long_regions) + 24;
        assert!(
            long <= budget,
            "width {width}: {long} allocations per warm indexed call (budget {budget})"
        );

        let mut ws = TasmWorkspace::new();
        let mut corpus = |corpus: &Corpus| {
            let before = alloc_count();
            let out = tasm_corpus_batch(&batch, &dict, corpus, &run, &mut ws).unwrap();
            let allocs = alloc_count() - before;
            assert_eq!(out.rankings.len(), width);
            allocs
        };
        corpus(&corpora[0].1);
        corpus(&corpora[1].1);
        let short_corpus = corpus(&corpora[0].1);
        let long_corpus = corpus(&corpora[1].1);
        let shards = 3;
        assert!(
            long_corpus <= short_corpus + shards * growth,
            "width {width}: a warm corpus call allocated {short_corpus} times over \
             60-record shards but {long_corpus} times over 400-record shards"
        );
        // Per shard the indexed call plus the corpus rows; then the
        // cross-worker merge.
        let corpus_budget = shards * budget + 12 * width + 12;
        assert!(
            long_corpus <= corpus_budget,
            "width {width}: {long_corpus} allocations per warm corpus call \
             (budget {corpus_budget})"
        );
    }
    for (sub, _) in &corpora {
        let _ = std::fs::remove_dir_all(sub);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
