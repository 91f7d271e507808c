//! Differential tests pinning the corpus query path to its reference
//! semantics: `tasm_corpus_batch` over N shards must return exactly the
//! concatenation of per-document `tasm_indexed_batch` runs, sorted on the
//! corpus rank key `(distance, shard, postorder, size)` and truncated
//! to `k` — under every combination of thread count, pruning cascade,
//! and TED kernel, and with shards quarantined mid-corpus.
//!
//! The reference is computed ONCE with default options: distances are
//! kernel-independent and the rank key is a total order, so every axis
//! combination must reproduce the identical ranking, byte for byte.

use std::fs;
use std::path::{Path, PathBuf};

use tasm_core::{
    tasm_corpus_batch, tasm_indexed_batch, BatchQuery, CorpusBatchOutput, CorpusMatch, Run,
    ScanStats, TasmOptions, TasmWorkspace, TedKernel,
};
use tasm_index::Corpus;
use tasm_ted::UnitCost;
use tasm_tree::{LabelDict, LabelId, Tree, TreeBuilder};

/// Random tree by uniform attachment (the same shape generator the
/// other differential suites use).
fn random_tree(seed: u64, n: usize, n_labels: u32) -> Tree {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut labels: Vec<u32> = Vec::with_capacity(n);
    labels.push(rng.gen_range(0..n_labels));
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        children[parent].push(i);
        labels.push(rng.gen_range(0..n_labels));
    }
    fn rec(node: usize, children: &[Vec<usize>], labels: &[u32], b: &mut TreeBuilder) {
        b.start(LabelId(labels[node]));
        for &c in &children[node] {
            rec(c, children, labels, b);
        }
        b.end().expect("balanced");
    }
    let mut b = TreeBuilder::with_capacity(n);
    rec(0, &children, &labels, &mut b);
    b.finish().expect("single root")
}

/// A dictionary naming labels `l0..l<n>` so every document and query
/// shares one label universe.
fn label_dict(n_labels: u32) -> LabelDict {
    let mut dict = LabelDict::new();
    for i in 0..n_labels {
        dict.intern(&format!("l{i}"));
    }
    dict
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tasm-cdiff-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Five random documents of varied size, one label universe.
fn build_corpus(dir: &Path, n_labels: u32) -> Corpus {
    let dict = label_dict(n_labels);
    let mut corpus = Corpus::create(dir).unwrap();
    for (i, n) in [120usize, 45, 200, 80, 150].iter().enumerate() {
        let tree = random_tree(1000 + i as u64, *n, n_labels);
        corpus.add(&format!("doc-{i}"), &tree, &dict, None).unwrap();
    }
    corpus
}

/// Comparable projection of a corpus ranking.
fn key(ms: &[CorpusMatch]) -> Vec<(String, u32, u64, u32)> {
    ms.iter()
        .map(|m| {
            (
                m.doc.clone(),
                m.hit.root.post(),
                m.hit.distance.halves(),
                m.hit.size,
            )
        })
        .collect()
}

/// Per-document `tasm_indexed_batch` runs over the healthy shards, merged on
/// the corpus rank key — the semantics every axis must reproduce.
fn reference(
    corpus: &Corpus,
    queries: &[&Tree],
    qdict: &LabelDict,
    k: usize,
) -> Vec<Vec<CorpusMatch>> {
    queries
        .iter()
        .map(|q| {
            let mut lane: Vec<CorpusMatch> = Vec::new();
            for (shard, name, doc) in corpus.healthy() {
                let out = tasm_indexed_batch(
                    &[BatchQuery { query: q, k }],
                    qdict,
                    doc,
                    &Run::default(),
                    &mut TasmWorkspace::new(),
                )
                .expect("no deadline");
                let hits = out.rankings.into_iter().next().expect("one lane");
                lane.extend(hits.into_iter().map(|hit| CorpusMatch {
                    doc: name.to_string(),
                    shard,
                    hit,
                }));
            }
            lane.sort_by_key(|m| (m.hit.distance, m.shard, m.hit.root.post(), m.hit.size));
            lane.truncate(k);
            lane
        })
        .collect()
}

/// The corpus driver with unit costs, no deadline and distance
/// statistics.
fn corpus_batch(
    bqs: &[BatchQuery<'_>],
    qdict: &LabelDict,
    corpus: &Corpus,
    opts: TasmOptions,
    threads: usize,
) -> CorpusBatchOutput {
    let run = Run {
        opts,
        threads,
        ted_stats: true,
        ..Run::default()
    };
    tasm_corpus_batch(bqs, qdict, corpus, &run, &mut TasmWorkspace::new()).expect("no deadline")
}

/// Runs the full axis matrix against `corpus` and compares every combo
/// to the shared reference.
fn assert_matrix(corpus: &Corpus, tag: &str) {
    let n_labels = 5;
    let qdict = label_dict(n_labels);
    let q1 = random_tree(77, 6, n_labels);
    let q2 = random_tree(78, 4, n_labels);
    let q3 = random_tree(79, 8, n_labels);
    let queries = [&q1, &q2, &q3];
    let k = 7;
    let want: Vec<_> = reference(corpus, &queries, &qdict, k)
        .iter()
        .map(|lane| key(lane))
        .collect();
    let bqs: Vec<BatchQuery<'_>> = queries
        .iter()
        .map(|query| BatchQuery { query, k })
        .collect();
    for threads in [1usize, 2, 4, 7] {
        for use_cascade in [true, false] {
            for kernel in [TedKernel::Auto, TedKernel::Zs, TedKernel::Strategy] {
                let opts = TasmOptions {
                    use_cascade,
                    kernel,
                    ..Default::default()
                };
                let CorpusBatchOutput {
                    rankings: got,
                    status,
                    ..
                } = corpus_batch(&bqs, &qdict, corpus, opts, threads);
                assert_eq!(status.total, corpus.total_shards());
                assert_eq!(status.healthy, corpus.healthy_count());
                for (lane, (got_lane, want_lane)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        &key(got_lane),
                        want_lane,
                        "{tag}: lane {lane} diverged at threads={threads} \
                         cascade={use_cascade} kernel={kernel:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn corpus_matches_merged_per_document_runs_across_all_axes() {
    let dir = tmp_dir("healthy");
    let corpus = build_corpus(&dir, 5);
    assert_matrix(&corpus, "healthy corpus");
    fs::remove_dir_all(&dir).unwrap();
}

/// The shard-parallel axis, stats included: for every worker/lane
/// split the scheduler must reproduce the sequential run — rankings
/// down to ids, merged funnels, and a per-shard breakdown that covers
/// exactly the healthy shards in manifest order.
fn assert_scheduled_stats(corpus: &Corpus, tag: &str) {
    let n_labels = 5;
    let qdict = label_dict(n_labels);
    let q1 = random_tree(77, 6, n_labels);
    let q2 = random_tree(78, 4, n_labels);
    let queries = [&q1, &q2];
    let k = 7;
    let bqs: Vec<BatchQuery<'_>> = queries
        .iter()
        .map(|query| BatchQuery { query, k })
        .collect();
    let opts = TasmOptions::default();
    let sequential = corpus_batch(&bqs, &qdict, corpus, opts, 1);
    let healthy_shards: Vec<usize> = corpus.healthy().map(|(i, _, _)| i).collect();
    let healthy_names: Vec<String> = corpus
        .healthy()
        .map(|(_, name, _)| name.to_string())
        .collect();
    for threads in [2usize, 4, 7] {
        let scheduled = corpus_batch(&bqs, &qdict, corpus, opts, threads);
        for (lane, (got, want)) in scheduled
            .rankings
            .iter()
            .zip(&sequential.rankings)
            .enumerate()
        {
            assert_eq!(
                key(got),
                key(want),
                "{tag}: lane {lane} diverged at threads={threads}"
            );
        }
        assert_eq!(scheduled.status, sequential.status);
        // With one inner lane per worker every shard evaluates exactly
        // as in the sequential run, so the whole funnel is identical.
        // When threads outnumber shards the leftover budget becomes
        // intra-shard workers, which may prune differently; these shards
        // have too few regions to split, so the candidate count stays
        // invariant regardless.
        let workers = threads.min(healthy_shards.len());
        if threads / workers <= 1 {
            assert_eq!(scheduled.scan, sequential.scan, "{tag}: threads={threads}");
            assert_eq!(scheduled.lane_scans, sequential.lane_scans);
        }
        assert_eq!(scheduled.scan.candidates, sequential.scan.candidates);
        // Per-shard stats: exactly the healthy shards, manifest order,
        // funnels summing to the merged funnel.
        let shards: Vec<usize> = scheduled.shard_stats.iter().map(|s| s.shard).collect();
        assert_eq!(shards, healthy_shards, "{tag}: threads={threads}");
        let names: Vec<String> = scheduled
            .shard_stats
            .iter()
            .map(|s| s.name.clone())
            .collect();
        assert_eq!(names, healthy_names);
        let mut summed = ScanStats::default();
        for s in &scheduled.shard_stats {
            summed.merge(&s.scan);
        }
        assert_eq!(summed, scheduled.scan, "{tag}: threads={threads}");
        // Every shard's distance stats reach the output: one DP per
        // evaluated subtree.
        let ted = scheduled.ted.as_ref().expect("asked for");
        assert_eq!(
            ted.ted_calls, scheduled.scan.evaluated,
            "{tag}: threads={threads}"
        );
    }
}

#[test]
fn scheduled_runs_reproduce_sequential_stats_and_shard_coverage() {
    let dir = tmp_dir("sched-healthy");
    let corpus = build_corpus(&dir, 5);
    // 5 healthy shards: threads 7 → 5 workers × 1 inner lane.
    assert_scheduled_stats(&corpus, "healthy corpus");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn scheduled_runs_reproduce_sequential_stats_when_degraded() {
    let dir = tmp_dir("sched-degraded");
    drop(build_corpus(&dir, 5));
    for name in ["doc-0", "doc-3"] {
        let path = dir.join(format!("{name}.pqi"));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 3;
        bytes[mid] ^= 0x08;
        fs::write(&path, &bytes).unwrap();
    }
    let corpus = Corpus::open(&dir).unwrap();
    assert_eq!(corpus.healthy_count(), 3);
    // 3 survivors: threads 7 → 3 workers × 2 inner lanes, covering the
    // intra-shard fallback regime of the scheduler.
    assert_scheduled_stats(&corpus, "degraded corpus");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn degraded_corpus_matches_the_reference_over_surviving_shards() {
    let dir = tmp_dir("degraded");
    drop(build_corpus(&dir, 5));
    // Corrupt two shards; the matrix must hold exactly over the three
    // survivors — corruption never perturbs healthy rankings.
    for name in ["doc-0", "doc-3"] {
        let path = dir.join(format!("{name}.pqi"));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 3;
        bytes[mid] ^= 0x08;
        fs::write(&path, &bytes).unwrap();
    }
    let corpus = Corpus::open(&dir).unwrap();
    assert_eq!(corpus.healthy_count(), 3);
    assert!(corpus.is_degraded());
    assert_matrix(&corpus, "degraded corpus");
    fs::remove_dir_all(&dir).unwrap();
}

/// The pull scheduler under repetition: at every thread count, run
/// after run, the indexed driver over each shard (and over one larger
/// document) and the corpus driver over all shards rank exactly as at
/// one thread. Which worker pulls which region or shard changes from
/// run to run; the rankings must not. One workspace serves every call.
#[test]
fn pull_workers_rank_like_one_thread_under_stress() {
    let dir = tmp_dir("stress");
    let n_labels = 4;
    let corpus = build_corpus(&dir, n_labels);
    let qdict = label_dict(n_labels);
    let big = tasm_index::IndexedDocument::build(&random_tree(4242, 4000, n_labels), &qdict);
    let docs: Vec<&tasm_index::IndexedDocument> = corpus
        .healthy()
        .map(|(_, _, doc)| doc)
        .chain(std::iter::once(&big))
        .collect();
    let opts = TasmOptions::default();
    let mut ws = TasmWorkspace::new();
    for seed in 0..3u64 {
        let q1 = random_tree(500 + seed, 5, n_labels);
        let q2 = random_tree(600 + seed, 7, n_labels);
        let bqs = [
            BatchQuery { query: &q1, k: 3 },
            BatchQuery { query: &q2, k: 9 },
        ];
        // The larger document must split four ways: the driver gives a
        // worker at least 128 regions.
        let tau = [(&q1, 3u64), (&q2, 9)]
            .iter()
            .map(|&(q, k)| tasm_core::threshold_for_query(q, &UnitCost, 1, k))
            .max()
            .unwrap();
        assert!(big.candidate_spans(tau as u32).0.len() >= 4 * 128);
        let mut indexed = |doc: &tasm_index::IndexedDocument, threads: usize| {
            let run = Run {
                opts,
                threads,
                ..Run::default()
            };
            tasm_indexed_batch(&bqs, &qdict, doc, &run, &mut ws)
                .expect("no deadline")
                .rankings
        };
        let want_indexed: Vec<_> = docs.iter().map(|doc| indexed(doc, 1)).collect();
        let want_corpus: Vec<_> = corpus_batch(&bqs, &qdict, &corpus, opts, 1)
            .rankings
            .iter()
            .map(|lane| key(lane))
            .collect();
        for threads in 1..=4 {
            for run in 0..6 {
                for (d, (doc, want)) in docs.iter().zip(&want_indexed).enumerate() {
                    assert_eq!(
                        &indexed(doc, threads),
                        want,
                        "seed {seed}, document {d}, threads {threads}, run {run}"
                    );
                }
                let got = corpus_batch(&bqs, &qdict, &corpus, opts, threads);
                for (lane, want) in got.rankings.iter().zip(&want_corpus) {
                    assert_eq!(
                        &key(lane),
                        want,
                        "seed {seed}, corpus, threads {threads}, run {run}"
                    );
                }
            }
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}
