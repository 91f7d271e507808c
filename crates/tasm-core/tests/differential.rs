//! The differential matrix: **one** generator, every algorithm variant,
//! exact ranking equality down to subtree ids.
//!
//! Every algorithm and driver claims identical rankings — naive,
//! dynamic, postorder, the stream/tree batch driver at any thread count,
//! the resident driver and the indexed driver — across two document representations
//! (materialized tree through `TreeQueue` vs postorder stream) and with
//! the pruning cascade on or off. Instead of scattered
//! pairwise proptests, this harness pins the whole matrix against a
//! single oracle (`tasm_naive`):
//!
//! ```text
//! {naive, dynamic, postorder, tasm_batch, tasm_resident_batch, tasm_indexed_batch}
//!   × {materialized Tree (TreeQueue, or in place), streaming postorder queue}
//!   × threads ∈ {1, 2, 4, 7}
//!   × cascade ∈ {on, off}
//!   × kernel ∈ {zs, strategy, auto}
//! ```
//!
//! The cell names keep their historical axes: `batch/…` is
//! `tasm_batch` at one thread, `parallel/…/tN` and
//! `batch×parallel/…/tN` are `tasm_batch` at `N` threads over one or
//! several queries. `resident/…/tN` is `tasm_resident_batch` at `N`
//! threads, sweeping the materialized tree in place.
//!
//! Equality is on `(root id, distance, size)` — not just the distance
//! sequence — so tie-breaking must agree everywhere too. A second
//! matrix covers multi-query batches per lane, and an end-to-end case
//! feeds the sharded scans from a real `XmlPostorderQueue` with **no**
//! materialized document (the acceptance criterion of the streaming
//! shard hand-off).
//!
//! The seeded variant (`differential_matrix_seeded`) re-runs the matrix
//! on a deterministic seed sweep; CI shifts the sweep with the
//! `TASM_DIFF_SEED` environment variable (shuffle-style seeds) under
//! `--test-threads=1`.

use proptest::prelude::*;
use tasm_core::{
    tasm_batch, tasm_dynamic, tasm_indexed_batch, tasm_naive, tasm_postorder, tasm_resident_batch,
    BatchQuery, Match, Run, TasmOptions, TasmWorkspace, TedKernel,
};
use tasm_index::IndexedDocument;
use tasm_ted::{CostModel, UnitCost};
use tasm_tree::{LabelDict, LabelId, PostorderQueue, Tree, TreeBuilder, TreeQueue, VecQueue};

/// Thread counts of the parallel axes.
const THREADS: [usize; 4] = [1, 2, 4, 7];

/// The TED-kernel axis: the classic left-path DP, the mirrored
/// right-path kernel, and the per-query shape estimator. All three must
/// return identical rankings everywhere.
const KERNELS: [TedKernel; 3] = [TedKernel::Zs, TedKernel::Strategy, TedKernel::Auto];

/// Builds a uniformly-shaped random tree of exactly `n` nodes by random
/// attachment (node `i` picks a uniformly random existing parent), over
/// `n_labels` distinct labels.
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

/// A streaming view of `doc` that hides the materialized tree: the
/// algorithms under test only ever see a postorder queue.
fn stream(doc: &Tree) -> VecQueue {
    VecQueue::from_tree(doc)
}

/// The full rank key — id, distance AND size must agree.
fn key(ms: &[Match]) -> Vec<(u32, u64, u32)> {
    ms.iter()
        .map(|m| (m.root.post(), m.distance.halves(), m.size))
        .collect()
}

/// Builds the `.pqi` index of `doc` through a full in-memory file
/// round trip — the indexed rows of the matrix exercise the on-disk
/// format, not just the in-memory builder. Synthesizes a dictionary
/// covering every label id in play (the generator hands out raw
/// `LabelId`s; names only have to be consistent).
fn index_of(doc: &Tree, q_labels: &[LabelId]) -> (IndexedDocument, LabelDict) {
    let max_label = doc
        .labels()
        .iter()
        .chain(q_labels)
        .map(|l| l.0)
        .max()
        .unwrap_or(0);
    let mut dict = LabelDict::new();
    for i in 0..=max_label {
        dict.intern(&format!("L{i}"));
    }
    let mut bytes = Vec::new();
    IndexedDocument::build(doc, &dict)
        .write_to(&mut bytes)
        .expect("write .pqi");
    let idx = IndexedDocument::open_bytes(&bytes).expect("read .pqi back");
    (idx, dict)
}

/// The stream/tree driver: `tasm_batch` over any queue (a `TreeQueue`
/// for the materialized cells).
fn batch<Q: PostorderQueue + ?Sized>(
    bqs: &[BatchQuery<'_>],
    queue: &mut Q,
    run: &Run<'_>,
) -> Vec<Vec<Match>> {
    tasm_batch(bqs, queue, run, &mut TasmWorkspace::new())
        .expect("complete stream")
        .rankings
}

/// Thread counts of the resident rows.
const RESIDENT_THREADS: [usize; 2] = [1, 3];

/// The resident driver over the materialized `doc`.
fn resident(bqs: &[BatchQuery<'_>], doc: &Tree, run: &Run<'_>) -> Vec<Vec<Match>> {
    tasm_resident_batch(bqs, doc, run, &mut TasmWorkspace::new())
        .expect("no deadline")
        .rankings
}

/// The indexed driver.
fn indexed(
    bqs: &[BatchQuery<'_>],
    dict: &LabelDict,
    idx: &IndexedDocument,
    run: &Run<'_>,
) -> Vec<Vec<Match>> {
    tasm_indexed_batch(bqs, dict, idx, run, &mut TasmWorkspace::new())
        .expect("no deadline")
        .rankings
}

/// Runs every single-query variant of the matrix against the oracle.
fn check_single_query_matrix(q: &Tree, doc: &Tree, k: usize) -> Result<(), String> {
    let oracle = key(&tasm_naive(
        q,
        doc,
        k,
        &UnitCost,
        TasmOptions::default(),
        None,
    ));
    let check = |name: String, got: Vec<Match>| -> Result<(), String> {
        let got = key(&got);
        if got != oracle {
            return Err(format!("{name}: {got:?} != oracle {oracle:?}"));
        }
        Ok(())
    };
    let (idx, dict) = index_of(doc, q.labels());
    for (kernel, cascade) in KERNELS.into_iter().flat_map(|kr| [(kr, true), (kr, false)]) {
        let opts = TasmOptions {
            use_cascade: cascade,
            kernel,
            ..Default::default()
        };
        let tag = format!(
            "{kernel}/{}",
            if cascade { "cascade-on" } else { "cascade-off" }
        );
        let at = |threads| Run {
            opts,
            threads,
            ..Run::default()
        };

        check(
            format!("dynamic/{tag}"),
            tasm_dynamic(q, doc, k, &UnitCost, opts, None),
        )?;
        check(
            format!("postorder/materialized/{tag}"),
            tasm_postorder(q, &mut TreeQueue::new(doc), k, &UnitCost, 1, opts, None),
        )?;
        check(
            format!("postorder/streaming/{tag}"),
            tasm_postorder(q, &mut stream(doc), k, &UnitCost, 1, opts, None),
        )?;
        let bq = [BatchQuery { query: q, k }];
        check(
            format!("batch/materialized/{tag}"),
            batch(&bq, &mut TreeQueue::new(doc), &at(1)).remove(0),
        )?;
        check(
            format!("batch/streaming/{tag}"),
            batch(&bq, &mut stream(doc), &at(1)).remove(0),
        )?;
        for threads in RESIDENT_THREADS {
            check(
                format!("resident/t{threads}/{tag}"),
                resident(&bq, doc, &at(threads)).remove(0),
            )?;
        }
        for threads in THREADS {
            check(
                format!("parallel/materialized/t{threads}/{tag}"),
                batch(&bq, &mut TreeQueue::new(doc), &at(threads)).remove(0),
            )?;
            check(
                format!("parallel/streaming/t{threads}/{tag}"),
                batch(&bq, &mut stream(doc), &at(threads)).remove(0),
            )?;
            check(
                format!("indexed/t{threads}/{tag}"),
                indexed(&bq, &dict, &idx, &at(threads)).remove(0),
            )?;
        }
    }
    Ok(())
}

/// Runs the multi-query variants: every batch composition must return,
/// per lane, exactly the sequential ranking of that query alone.
fn check_multi_query_matrix(queries: &[(Tree, usize)], doc: &Tree) -> Result<(), String> {
    let oracles: Vec<Vec<(u32, u64, u32)>> = queries
        .iter()
        .map(|(q, k)| {
            key(&tasm_naive(
                q,
                doc,
                *k,
                &UnitCost,
                TasmOptions::default(),
                None,
            ))
        })
        .collect();
    let bqs: Vec<BatchQuery<'_>> = queries
        .iter()
        .map(|(query, k)| BatchQuery { query, k: *k })
        .collect();
    let check = |name: String, got: Vec<Vec<Match>>| -> Result<(), String> {
        if got.len() != oracles.len() {
            return Err(format!("{name}: {} lanes != {}", got.len(), oracles.len()));
        }
        for (i, (g, want)) in got.iter().zip(&oracles).enumerate() {
            let g = key(g);
            if &g != want {
                return Err(format!("{name} lane {i}: {g:?} != oracle {want:?}"));
            }
        }
        Ok(())
    };
    let q_labels: Vec<LabelId> = queries
        .iter()
        .flat_map(|(q, _)| q.labels().iter().copied())
        .collect();
    let (idx, dict) = index_of(doc, &q_labels);
    for (kernel, cascade) in KERNELS.into_iter().flat_map(|kr| [(kr, true), (kr, false)]) {
        let opts = TasmOptions {
            use_cascade: cascade,
            kernel,
            ..Default::default()
        };
        let tag = format!(
            "{kernel}/{}",
            if cascade { "cascade-on" } else { "cascade-off" }
        );
        let at = |threads| Run {
            opts,
            threads,
            ..Run::default()
        };
        check(
            format!("batch/materialized/{tag}"),
            batch(&bqs, &mut TreeQueue::new(doc), &at(1)),
        )?;
        check(
            format!("batch/streaming/{tag}"),
            batch(&bqs, &mut stream(doc), &at(1)),
        )?;
        for threads in RESIDENT_THREADS {
            check(
                format!("resident×batch/t{threads}/{tag}"),
                resident(&bqs, doc, &at(threads)),
            )?;
        }
        for threads in THREADS {
            check(
                format!("batch×parallel/materialized/t{threads}/{tag}"),
                batch(&bqs, &mut TreeQueue::new(doc), &at(threads)),
            )?;
            check(
                format!("batch×parallel/streaming/t{threads}/{tag}"),
                batch(&bqs, &mut stream(doc), &at(threads)),
            )?;
            check(
                format!("indexed×batch/t{threads}/{tag}"),
                indexed(&bqs, &dict, &idx, &at(threads)),
            )?;
        }
    }
    Ok(())
}

proptest! {
    // The kernel axis tripled the matrix volume per case; fewer random
    // cases keep tier-1 runtime flat (the seeded CI sweep still shifts
    // coverage every run).
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn differential_matrix_single_query(
        doc_seed in any::<u64>(),
        doc_n in 1usize..150,
        q_seed in any::<u64>(),
        q_n in 1usize..10,
        k in 1usize..8,
    ) {
        let doc = random_tree(doc_seed, doc_n, 4);
        let q = random_tree(q_seed, q_n, 4);
        if let Err(e) = check_single_query_matrix(&q, &doc, k) {
            panic!("{e}");
        }
    }

    #[test]
    fn differential_matrix_multi_query(
        doc_seed in any::<u64>(),
        doc_n in 1usize..120,
        specs in proptest::collection::vec((any::<u64>(), 1usize..9, 1usize..7), 1..5),
    ) {
        let doc = random_tree(doc_seed, doc_n, 4);
        let queries: Vec<(Tree, usize)> = specs
            .iter()
            .map(|&(seed, n, k)| (random_tree(seed, n, 4), k))
            .collect();
        if let Err(e) = check_multi_query_matrix(&queries, &doc) {
            panic!("{e}");
        }
    }
}

/// Deterministic seed-sweep version of the matrix for CI: the base seed
/// shifts with `TASM_DIFF_SEED`, so repeated CI runs cover different
/// corners while any failure reproduces with the printed seed.
#[test]
fn differential_matrix_seeded() {
    let base: u64 = std::env::var("TASM_DIFF_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xD1FF);
    for round in 0..12u64 {
        let s = base.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(round);
        let doc = random_tree(s, 20 + (s % 120) as usize, 4);
        let q = random_tree(s ^ 0xABCD, 1 + (s % 9) as usize, 4);
        let k = 1 + (s % 7) as usize;
        if let Err(e) = check_single_query_matrix(&q, &doc, k) {
            panic!("seed {base} round {round}: {e}");
        }
        let queries = vec![
            (
                random_tree(s ^ 1, 1 + (s % 8) as usize, 4),
                1 + (s % 5) as usize,
            ),
            (random_tree(s ^ 2, 1 + (s % 6) as usize, 4), 2),
        ];
        if let Err(e) = check_multi_query_matrix(&queries, &doc) {
            panic!("seed {base} round {round}: {e}");
        }
    }
}

/// End-to-end acceptance: the sharded scans fed from a **real XML
/// stream** — parsed on the fly, never materialized — return rankings
/// identical to sequential `tasm_dynamic` on the parsed tree, down to
/// subtree ids.
#[test]
fn xml_stream_matches_materialized_dynamic_down_to_ids() {
    use tasm_tree::LabelDict;
    use tasm_xml::{parse_tree_str, XmlPostorderQueue};

    // A DBLP-shaped document with enough repetition for ties.
    let mut xml = String::from("<dblp>");
    for i in 0..70 {
        xml.push_str(&format!(
            "<article><auth>A{}</auth><title>T{}</title></article>",
            i % 6,
            i % 4
        ));
        if i % 5 == 0 {
            xml.push_str(&format!("<book><title>T{}</title></book>", i % 3));
        }
    }
    xml.push_str("</dblp>");

    let mut dict = LabelDict::new();
    let query = parse_tree_str(
        "<article><auth>A3</auth><title>T2</title></article>",
        &mut dict,
    )
    .unwrap();
    let query2 = parse_tree_str("<book><title>T1</title></book>", &mut dict).unwrap();
    // The oracle parses the document once (same dictionary, so label ids
    // line up with the streaming runs below).
    let doc = parse_tree_str(&xml, &mut dict).unwrap();

    for k in [1usize, 4, 9] {
        let want = key(&tasm_dynamic(
            &query,
            &doc,
            k,
            &UnitCost,
            TasmOptions::default(),
            None,
        ));
        for threads in THREADS {
            // Fresh queue per run: the parser streams, nothing is kept.
            let mut queue = XmlPostorderQueue::new(xml.as_bytes(), &mut dict);
            let got = batch(
                &[BatchQuery { query: &query, k }],
                &mut queue,
                &Run {
                    threads,
                    ..Run::default()
                },
            );
            assert!(queue.is_ok());
            assert_eq!(key(&got[0]), want, "k = {k}, threads = {threads}");
        }
    }

    // Batch×parallel over the XML stream, per lane.
    let bqs = [
        BatchQuery {
            query: &query,
            k: 5,
        },
        BatchQuery {
            query: &query2,
            k: 3,
        },
    ];
    let wants: Vec<_> = bqs
        .iter()
        .map(|bq| {
            key(&tasm_dynamic(
                bq.query,
                &doc,
                bq.k,
                &UnitCost,
                TasmOptions::default(),
                None,
            ))
        })
        .collect();
    for threads in THREADS {
        let mut queue = XmlPostorderQueue::new(xml.as_bytes(), &mut dict);
        let got = batch(
            &bqs,
            &mut queue,
            &Run {
                threads,
                ..Run::default()
            },
        );
        assert!(queue.is_ok());
        for (lane, (g, want)) in got.iter().zip(&wants).enumerate() {
            assert_eq!(&key(g), want, "lane {lane}, threads = {threads}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Weighted-cost axis: the matrix is not unit-cost-specific. The
    /// document-side cost bound `c_t` is the table maximum, as Theorem 3
    /// requires.
    #[test]
    fn differential_matrix_weighted_costs(
        doc_seed in any::<u64>(),
        doc_n in 1usize..100,
        q_seed in any::<u64>(),
        q_n in 1usize..8,
        k in 1usize..5,
    ) {
        use tasm_ted::PerLabelCost;
        let model = PerLabelCost::new(1)
            .with(LabelId(0), 2)
            .with(LabelId(1), 3)
            .with(LabelId(2), 1)
            .with(LabelId(3), 5);
        let c_t = 5; // max of the table
        let doc = random_tree(doc_seed, doc_n, 4);
        let q = random_tree(q_seed, q_n, 4);
        let opts = TasmOptions::default();
        let want = key(&tasm_dynamic(&q, &doc, k, &model, opts, None));
        let got = key(&tasm_postorder(
            &q, &mut stream(&doc), k, &model, c_t, opts, None,
        ));
        prop_assert_eq!(&got, &want);
        // Kernel axis under weighted costs: the mirrored DP permutes
        // per-node costs, so exactness here is load-bearing.
        for kernel in KERNELS {
            let kopts = TasmOptions { kernel, ..opts };
            let kd = key(&tasm_dynamic(&q, &doc, k, &model, kopts, None));
            prop_assert_eq!(&kd, &want, "dynamic kernel {}", kernel);
            let kp = key(&tasm_postorder(
                &q, &mut stream(&doc), k, &model, c_t, kopts, None,
            ));
            prop_assert_eq!(&kp, &want, "postorder kernel {}", kernel);
        }
        let bq = [BatchQuery { query: &q, k }];
        let at = |threads, opts| Run { model: &model, c_t, opts, threads, ..Run::default() };
        for threads in [2usize, 7] {
            let par = key(&batch(&bq, &mut TreeQueue::new(&doc), &at(threads, opts))[0]);
            prop_assert_eq!(&par, &want);
            let par_stream = key(&batch(&bq, &mut stream(&doc), &at(threads, opts))[0]);
            prop_assert_eq!(&par_stream, &want);
        }
        for threads in RESIDENT_THREADS {
            for kernel in KERNELS {
                let kopts = TasmOptions { kernel, ..opts };
                let got = key(&resident(&bq, &doc, &at(threads, kopts))[0]);
                prop_assert_eq!(&got, &want, "resident, threads = {}, kernel {}", threads, kernel);
            }
        }
        // The indexed path re-encodes labels by corpus frequency, so a
        // label-keyed model must be rebuilt in index space: same names,
        // the index's ids. Distances must still agree exactly.
        let (idx, dict) = index_of(&doc, q.labels());
        let mut imodel = PerLabelCost::new(1);
        for (i, w) in [2u64, 3, 1, 5].into_iter().enumerate() {
            if let Some(id) = idx.dict().get(&format!("L{i}")) {
                imodel = imodel.with(id, w);
            }
        }
        for threads in [1usize, 3] {
            let run = Run { model: &imodel, c_t, opts, threads, ..Run::default() };
            let idxed = key(&indexed(&bq, &dict, &idx, &run)[0]);
            prop_assert_eq!(&idxed, &want, "indexed, threads = {}", threads);
        }
    }
}

/// The matrix holds on hand-shaped corner cases the generator is
/// unlikely to hit exactly: single nodes, deep paths, wide-flat trees.
#[test]
fn differential_matrix_corner_shapes() {
    use tasm_tree::bracket;
    let mut dict = tasm_tree::LabelDict::new();
    let corners = [
        "{a}",
        "{a{a{a{a{a{a{a{a}}}}}}}}",
        "{r{a}{a}{a}{a}{a}{a}{a}{a}{a}{a}{a}{a}}",
        "{r{x{a{b}}}{x{a{b}}}{x{a{b}}}}",
    ];
    for doc_s in corners {
        let doc = bracket::parse(doc_s, &mut dict).unwrap();
        for q_s in ["{a}", "{x{a{b}}}", "{r{a}}"] {
            let q = bracket::parse(q_s, &mut dict).unwrap();
            for k in [1usize, 3, 30] {
                check_single_query_matrix(&q, &doc, k)
                    .unwrap_or_else(|e| panic!("doc {doc_s}, q {q_s}, k {k}: {e}"));
            }
        }
    }
}

/// Rewrites every label of `t` through `f`, keeping the shape.
fn relabel(t: &Tree, f: impl Fn(LabelId) -> LabelId) -> Tree {
    Tree::from_postorder_unchecked(
        t.labels().iter().map(|&l| f(l)).collect(),
        t.sizes().to_vec(),
    )
}

/// A random tree of `labels.len()` nodes whose postorder labels are
/// exactly `labels`: a new shape over the same label multiset.
fn reshaped(seed: u64, labels: &[LabelId]) -> Tree {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let n = labels.len();
    // Random attachment in preorder, then postorder positions take the
    // labels in order.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 1..n {
        children[rng.gen_range(0..i)].push(i);
    }
    fn rec(node: usize, children: &[Vec<usize>], out: &mut Vec<u32>) -> u32 {
        let size = 1 + children[node]
            .iter()
            .map(|&c| rec(c, children, out))
            .sum::<u32>();
        out.push(size);
        size
    }
    let mut sizes = Vec::with_capacity(n);
    rec(0, &children, &mut sizes);
    Tree::from_postorder(labels.iter().copied().zip(sizes)).expect("a valid postorder")
}

/// Query labels the document lacks: every driver encodes a query parsed
/// with its own dictionary into the document's read-only label space,
/// where each absent label gets a fresh id past that dictionary. The
/// rankings must equal the naive oracle's, byte for byte, on the scan,
/// indexed and corpus drivers, under unit costs and under a label-keyed
/// cost table whose default cost the fresh ids must get.
#[test]
fn query_labels_absent_from_the_document_rank_like_the_oracle() {
    use tasm_core::tasm_corpus_batch;
    use tasm_index::Corpus;
    use tasm_ted::PerLabelCost;

    // The oracle universe: label `i` is named `L{i}`. Documents use
    // L0..L3; queries also use L4..L6, which no document contains.
    const DOC_LABELS: u32 = 4;
    const QUERY_LABELS: u32 = 7;
    const WEIGHTS: [u64; 4] = [2, 3, 1, 5];
    const DEFAULT_COST: u64 = 4;
    let name = |l: LabelId| format!("L{}", l.0);
    // A cost table keyed by whatever ids `id_of` gives the document's
    // names; every other id, fresh ones included, costs DEFAULT_COST.
    let table = |id_of: &dyn Fn(&str) -> Option<LabelId>| {
        let mut m = PerLabelCost::new(DEFAULT_COST);
        for (i, w) in WEIGHTS.into_iter().enumerate() {
            if let Some(id) = id_of(&format!("L{i}")) {
                m = m.with(id, w);
            }
        }
        m
    };
    let c_t = 5; // the table's maximum, an upper bound on document costs

    let dir = std::env::temp_dir().join(format!("tasm-diff-absent-{}", std::process::id()));
    for round in 0..10u64 {
        let s = 0xAB5E_u64
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(round);
        let doc_u = random_tree(s, 15 + (s % 60) as usize, DOC_LABELS);
        // Two queries; each root is an absent label, so every query has one.
        let queries_u: Vec<Tree> = (0..2u64)
            .map(|j| {
                let q = random_tree(s ^ (0x51 + j), 1 + ((s >> j) % 8) as usize, QUERY_LABELS);
                let mut labels = q.labels().to_vec();
                *labels.last_mut().expect("non-empty") = LabelId(DOC_LABELS + ((s + j) % 3) as u32);
                Tree::from_postorder_unchecked(labels, q.sizes().to_vec())
            })
            .collect();
        let k = 1 + (s % 5) as usize;

        // The document's own dictionary interns its names in reverse;
        // the queries' source dictionary in a rotated order.
        let mut doc_dict = LabelDict::new();
        for i in (0..DOC_LABELS).rev() {
            doc_dict.intern(&format!("L{i}"));
        }
        let mut src = LabelDict::new();
        for i in 0..QUERY_LABELS {
            src.intern(&format!("L{}", (i * 3 + round as u32) % QUERY_LABELS));
        }
        let doc = relabel(&doc_u, |l| doc_dict.get(&name(l)).unwrap());
        let queries: Vec<Tree> = queries_u
            .iter()
            .map(|q| relabel(q, |l| src.get(&name(l)).unwrap()))
            .collect();
        let bqs: Vec<BatchQuery<'_>> = queries
            .iter()
            .map(|query| BatchQuery { query, k })
            .collect();

        // Corpus: three shards over the same label multiset in different
        // shapes, so every shard's frequency-ordered dictionary is the
        // same and one index-space cost table serves them all.
        let shard_docs_u: Vec<Tree> = (0..3u64)
            .map(|j| {
                if j == 0 {
                    doc_u.clone()
                } else {
                    reshaped(s ^ j, doc_u.labels())
                }
            })
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        let mut corpus = Corpus::create(&dir).unwrap();
        for (j, t) in shard_docs_u.iter().enumerate() {
            let t = relabel(t, |l| doc_dict.get(&name(l)).unwrap());
            corpus
                .add(&format!("shard-{j}"), &t, &doc_dict, None)
                .unwrap();
        }
        let idx = corpus.healthy().next().unwrap().2;
        for (_, _, shard) in corpus.healthy() {
            let names: Vec<&str> = shard.dict().iter().map(|(_, n)| n).collect();
            let first: Vec<&str> = idx.dict().iter().map(|(_, n)| n).collect();
            assert_eq!(names, first, "shards share one index label space");
        }

        let unit = UnitCost;
        let u_table = table(&|n: &str| n[1..].parse().ok().map(LabelId));
        let d_table = table(&|n: &str| doc_dict.get(n));
        let i_table = table(&|n: &str| idx.dict().get(n));
        // (name, oracle-space model, document-space, index-space, c_t)
        type Model<'a> = &'a (dyn CostModel + Sync);
        let models: [(&str, Model<'_>, Model<'_>, Model<'_>, u64); 2] = [
            ("unit", &unit, &unit, &unit, 1),
            ("per-label", &u_table, &d_table, &i_table, c_t),
        ];
        for (tag, oracle_model, doc_model, idx_model, c_t) in models {
            let opts = TasmOptions::default();
            let ctx = |driver: &str| format!("round {round}, {tag} costs, {driver}");
            // Document-space and index-space runs at `threads`.
            let on_doc = |threads| Run {
                model: doc_model,
                c_t,
                threads,
                ..Run::default()
            };
            let on_idx = |threads| Run {
                model: idx_model,
                ..on_doc(threads)
            };
            let oracles: Vec<Vec<(u32, u64, u32)>> = queries_u
                .iter()
                .map(|q| key(&tasm_naive(q, &doc_u, k, oracle_model, opts, None)))
                .collect();

            // Scan driver: queries encoded into the document dictionary.
            let encoded: Vec<Tree> = queries
                .iter()
                .map(|q| doc_dict.encode_tree(q, &src))
                .collect();
            let ebqs: Vec<BatchQuery<'_>> = encoded
                .iter()
                .map(|query| BatchQuery { query, k })
                .collect();
            for (q, want) in encoded.iter().zip(&oracles) {
                let got =
                    tasm_postorder(q, &mut TreeQueue::new(&doc), k, doc_model, c_t, opts, None);
                assert_eq!(&key(&got), want, "{}", ctx("postorder"));
            }
            for threads in [1usize, 3] {
                let got = batch(&ebqs, &mut stream(&doc), &on_doc(threads));
                for (lane, want) in got.iter().zip(&oracles) {
                    assert_eq!(&key(lane), want, "{}", ctx(&format!("batch t{threads}")));
                }
            }
            for threads in RESIDENT_THREADS {
                let got = resident(&ebqs, &doc, &on_doc(threads));
                for (lane, want) in got.iter().zip(&oracles) {
                    assert_eq!(&key(lane), want, "{}", ctx(&format!("resident t{threads}")));
                }
            }

            // Indexed driver: the shard's index, queries in `src` ids.
            for threads in [1usize, 3] {
                let got = indexed(&bqs, &src, idx, &on_idx(threads));
                for (lane, want) in got.iter().zip(&oracles) {
                    assert_eq!(&key(lane), want, "{}", ctx(&format!("indexed t{threads}")));
                }
            }

            // Corpus driver: per-shard oracle rankings merged on the
            // corpus rank key (distance, shard, root, size), truncated to k.
            for threads in [1usize, 2] {
                let out = tasm_corpus_batch(
                    &bqs,
                    &src,
                    &corpus,
                    &on_idx(threads),
                    &mut TasmWorkspace::new(),
                )
                .expect("no deadline");
                for (qi, (q, lane)) in queries_u.iter().zip(&out.rankings).enumerate() {
                    let mut want: Vec<(u64, usize, u32, u32, String)> = Vec::new();
                    for (shard, shard_name, _) in corpus.healthy() {
                        let doc_u = &shard_docs_u[shard];
                        for m in tasm_naive(q, doc_u, k, oracle_model, opts, None) {
                            want.push((
                                m.distance.halves(),
                                shard,
                                m.root.post(),
                                m.size,
                                shard_name.to_string(),
                            ));
                        }
                    }
                    want.sort();
                    want.truncate(k);
                    let got: Vec<_> = lane
                        .iter()
                        .map(|m| {
                            (
                                m.hit.distance.halves(),
                                m.shard,
                                m.hit.root.post(),
                                m.hit.size,
                                m.doc.clone(),
                            )
                        })
                        .collect();
                    assert_eq!(
                        got,
                        want,
                        "{} lane {qi}",
                        ctx(&format!("corpus t{threads}"))
                    );
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
