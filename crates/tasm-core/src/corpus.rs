//! Cross-document top-k over a [`Corpus`]: every healthy shard answers
//! through the index-backed path
//! ([`tasm_indexed_batch`](crate::tasm_indexed_batch)), and the
//! per-shard rankings merge into one corpus-wide top-k per query.
//!
//! # The corpus is the parallel unit
//!
//! Shards are independent documents, so the natural work unit is
//! (shard × query-batch). The thread budget is split *across* shards
//! first: `workers = min(threads, shards)` workers pull shard indices
//! from one shared cursor (the same pull loop as the indexed driver's
//! regions), each answering the whole query batch over its shards.
//! The calling thread is one of the workers and runs on the caller's
//! [`TasmWorkspace`]; the others run on their own. Leftover budget
//! falls back *inside* the shards — each worker passes
//! `threads / workers` threads down to the per-shard indexed pass — so
//! a two-shard corpus on eight threads still uses all eight. With one
//! thread (or one shard) the loop runs on the caller's thread alone,
//! in manifest order.
//!
//! # Degraded mode is explicit, never silent
//!
//! A corpus opened with quarantined shards still answers: the healthy
//! shards are queried normally and the result carries a
//! [`CorpusStatus`] stating exactly how many shards participated.
//! Callers (the CLI's `--stats`, the daemon's `OK`/`STATS` lines)
//! surface the `healthy/total` marker so a degraded answer can never be
//! mistaken for a complete one.
//!
//! # Determinism
//!
//! Within a shard the rank key `(distance, postorder, size)` is a total
//! order; across shards postorder numbers collide, so the corpus rank
//! key inserts the manifest shard index: `(distance, shard, postorder,
//! size)`. Every per-shard ranking is thread-count-invariant, the
//! corpus key is a **total** order over all corpus matches (shard +
//! postorder is unique), and each lane keeps exactly the `k` smallest
//! keys of the union — so the merged ranking is independent of shard
//! evaluation order, worker count and inner lane count, and
//! byte-identical to concatenating per-document
//! [`tasm_indexed_batch`](crate::tasm_indexed_batch) runs and sorting
//! (pinned by `tests/corpus_differential.rs`).
//!
//! Merging is **bounded**: each worker folds every shard run into its
//! per-lane accumulator with a sorted two-way merge truncated to `k`,
//! so memory per lane is O(k), not O(shards · k).

use std::time::Instant;

use crate::batch::{fold_ted, BatchOutput, BatchQuery};
use crate::deadline::DeadlineExceeded;
use crate::engine::ScanStats;
use crate::lane::pull_units;
use crate::ranking::Match;
use crate::resident::tasm_indexed_batch;
use crate::run::Run;
use crate::tasm_dynamic::TasmOptions;
use crate::workspace::TasmWorkspace;
use tasm_index::{Corpus, IndexedDocument};
use tasm_ted::{Cost, CostModel, TedStats};
use tasm_tree::LabelDict;

/// One corpus-level match: a [`Match`] plus which document it came from.
#[derive(Debug, Clone)]
pub struct CorpusMatch {
    /// Document (shard) name the subtree was found in.
    pub doc: String,
    /// Shard index in manifest order (the rank-key tiebreaker).
    pub shard: usize,
    /// The match inside that document (root postorder, size, distance).
    pub hit: Match,
}

/// How much of the corpus answered: `healthy` of `total` shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusStatus {
    /// Shards that passed verification and were queried.
    pub healthy: usize,
    /// Shards listed by the manifest.
    pub total: usize,
}

impl CorpusStatus {
    /// Whether any shard was quarantined — the answer misses whatever
    /// the damaged shards contained.
    pub fn is_degraded(&self) -> bool {
        self.healthy < self.total
    }

    /// The `healthy/total` marker surfaced by `--stats` and the daemon.
    pub fn marker(&self) -> String {
        format!("{}/{}", self.healthy, self.total)
    }
}

/// Where the time of one corpus answer went: per-shard wall clock and
/// scan funnel, in manifest shard order (healthy shards only).
#[derive(Debug, Clone)]
pub struct CorpusShardStats {
    /// Manifest shard index.
    pub shard: usize,
    /// Document name of the shard.
    pub name: String,
    /// Wall-clock nanoseconds the shard's indexed pass took (measured
    /// on whichever worker ran it, so overlapping shards each report
    /// their own time).
    pub nanos: u64,
    /// The shard's own [`ScanStats`] funnel.
    pub scan: ScanStats,
}

impl CorpusShardStats {
    /// The shard's wall-clock time in milliseconds.
    pub fn millis(&self) -> f64 {
        self.nanos as f64 / 1e6
    }
}

/// What [`tasm_corpus_batch`] returns: per-query rankings, corpus
/// health, the merged [`ScanStats`] funnel, the per-query
/// funnels in query order, and the per-shard timing breakdown.
#[derive(Debug, Clone)]
pub struct CorpusBatchOutput {
    /// One ranking per query, in query order, each at most `k` long.
    pub rankings: Vec<Vec<CorpusMatch>>,
    /// How many shards answered.
    pub status: CorpusStatus,
    /// The merged scan funnel, summed over shards.
    pub scan: ScanStats,
    /// Per-query funnels in query order, summed over shards.
    pub lane_scans: Vec<ScanStats>,
    /// Per-shard wall clock + funnel, in manifest shard order.
    pub shard_stats: Vec<CorpusShardStats>,
    /// Distance statistics summed over every shard: `Some` exactly when
    /// the run set [`Run::ted_stats`], as for
    /// [`BatchOutput::ted`](crate::BatchOutput::ted).
    pub ted: Option<TedStats>,
}

/// The corpus rank key: a **total** order over all corpus matches
/// (shard index + postorder is unique), so any k-smallest-of-union
/// merge yields the same ranking regardless of merge order.
fn rank_key(m: &CorpusMatch) -> (Cost, usize, u32, u32) {
    (m.hit.distance, m.shard, m.hit.root.post(), m.hit.size)
}

/// Folds `incoming` into `lane`, both sorted on [`rank_key`], keeping
/// only the `k` smallest keys of the union. This is the bounded merge:
/// a lane never grows past `k`, so accumulating S shard runs costs
/// O(k) memory per lane instead of O(S · k).
fn merge_ranked(lane: &mut Vec<CorpusMatch>, incoming: Vec<CorpusMatch>, k: usize) {
    if incoming.is_empty() {
        lane.truncate(k);
        return;
    }
    if lane.is_empty() {
        *lane = incoming;
        lane.truncate(k);
        return;
    }
    let mut a = std::mem::take(lane).into_iter().peekable();
    let mut b = incoming.into_iter().peekable();
    while lane.len() < k {
        match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => {
                let next = if rank_key(x) <= rank_key(y) {
                    a.next()
                } else {
                    b.next()
                };
                lane.push(next.expect("peeked"));
            }
            (Some(_), None) => lane.push(a.next().expect("peeked")),
            (None, Some(_)) => lane.push(b.next().expect("peeked")),
            (None, None) => break,
        }
    }
}

/// Everything one worker accumulated over the shards it pulled.
struct CorpusWorkerOutput {
    /// Per-query rankings, each bounded to `k` and sorted on the key.
    lanes: Vec<Vec<CorpusMatch>>,
    /// Per-query funnels, summed over this worker's shards.
    lane_scans: Vec<ScanStats>,
    /// Merged funnel over this worker's shards.
    scan: ScanStats,
    /// Timing + funnel per shard this worker ran.
    shard_stats: Vec<CorpusShardStats>,
    /// TED counters, collected only when the run asked for them.
    ted: Option<TedStats>,
}

impl CorpusWorkerOutput {
    /// Folds one shard's indexed answer into this worker's accumulators.
    fn fold(
        &mut self,
        shard: usize,
        name: &str,
        nanos: u64,
        answer: BatchOutput,
        queries: &[BatchQuery<'_>],
    ) {
        fold_ted(self.ted.as_mut(), answer.ted);
        self.scan.merge(&answer.scan);
        for (lane, shard_lane) in self.lane_scans.iter_mut().zip(&answer.lanes) {
            lane.merge(shard_lane);
        }
        self.shard_stats.push(CorpusShardStats {
            shard,
            name: name.to_string(),
            nanos,
            scan: answer.scan,
        });
        for ((lane, ranking), bq) in self.lanes.iter_mut().zip(answer.rankings).zip(queries) {
            let incoming: Vec<CorpusMatch> = ranking
                .into_iter()
                .map(|hit| CorpusMatch {
                    doc: name.to_string(),
                    shard,
                    hit,
                })
                .collect();
            merge_ranked(lane, incoming, bq.k);
        }
    }
}

/// Corpus-wide top-`k` for every query of `queries`: every healthy
/// shard of `corpus` answers the whole batch via the `.pqi` index
/// ([`tasm_indexed_batch`]), sharing each shard's candidate pass across
/// the batch, and the per-shard rankings merge on the deterministic
/// corpus rank key. See the module docs for the scheduler and the
/// degraded-mode contract.
///
/// `src_dict` is the dictionary the queries were parsed with (any
/// dictionary works — each shard re-encodes the queries into its own
/// label space). `run.threads` (`0` = one per available core) is split
/// across shards first, then inside them; the calling thread's share
/// runs on `ws`. Above one thread the funnel counters may vary from
/// run to run, the rankings never.
///
/// # Errors
///
/// [`DeadlineExceeded`] if a corpus query cannot finish in time. The
/// deadline is polled *inside* each shard at candidate-region
/// granularity, so even a single large shard cannot overrun the budget
/// by its whole evaluation time. Once any worker trips the deadline,
/// the batch is cancelled: the remaining workers stop at their next
/// pull and no partial ranking is returned.
///
/// # Examples
///
/// ```
/// use tasm_tree::{bracket, LabelDict};
/// use tasm_index::Corpus;
/// use tasm_core::{tasm_corpus_batch, BatchQuery, Run, TasmWorkspace};
///
/// let dir = std::env::temp_dir().join(format!("tasm-doc-corpus-{}", std::process::id()));
/// let mut corpus = Corpus::create(&dir).unwrap();
/// let mut dict = LabelDict::new();
/// let doc = bracket::parse("{x{a{b}{d}}{a{b}{c}}}", &mut dict).unwrap();
/// corpus.add("d", &doc, &dict, None).unwrap();
/// let q = bracket::parse("{a{b}{c}}", &mut dict).unwrap();
/// let queries = [BatchQuery { query: &q, k: 1 }];
/// let out = tasm_corpus_batch(&queries, &dict, &corpus, &Run::default(),
///     &mut TasmWorkspace::new()).unwrap();
/// assert_eq!(out.status.marker(), "1/1");
/// assert_eq!(out.rankings[0][0].doc, "d");
/// assert_eq!(out.rankings[0][0].hit.root.post(), 6);
/// std::fs::remove_dir_all(&dir).unwrap();
/// ```
pub fn tasm_corpus_batch(
    queries: &[BatchQuery<'_>],
    src_dict: &LabelDict,
    corpus: &Corpus,
    run: &Run<'_>,
    ws: &mut TasmWorkspace,
) -> Result<CorpusBatchOutput, DeadlineExceeded> {
    let status = CorpusStatus {
        healthy: corpus.healthy_count(),
        total: corpus.total_shards(),
    };
    let shards: Vec<(usize, &str, &IndexedDocument)> = corpus.healthy().collect();
    if queries.is_empty() || shards.is_empty() {
        return Ok(CorpusBatchOutput {
            rankings: (0..queries.len()).map(|_| Vec::new()).collect(),
            status,
            scan: ScanStats::default(),
            lane_scans: vec![ScanStats::default(); queries.len()],
            shard_stats: Vec::new(),
            ted: run.ted_stats.then(TedStats::new),
        });
    }

    let threads = run.workers();
    // Split the budget across shards first; leftover threads go to the
    // indexed pass inside each shard.
    let workers = threads.min(shards.len());
    let inner = Run {
        threads: (threads / workers).max(1),
        ..*run
    };
    let outputs = pull_units(
        shards.len(),
        workers,
        run.deadline,
        ws,
        |ws, units, deadline| {
            let mut out = CorpusWorkerOutput {
                lanes: (0..queries.len()).map(|_| Vec::new()).collect(),
                lane_scans: vec![ScanStats::default(); queries.len()],
                scan: ScanStats::default(),
                shard_stats: Vec::new(),
                ted: run.ted_stats.then(TedStats::new),
            };
            while let Some(i) = units.next(deadline)? {
                let (shard, name, doc) = shards[i];
                let started = Instant::now();
                let answer = tasm_indexed_batch(queries, src_dict, doc, &inner, ws)?;
                let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                out.fold(shard, name, nanos, answer, queries);
            }
            Ok(out)
        },
    )?;

    // Cross-worker merge. Each worker's lanes are sorted on the total
    // corpus rank key and bounded to k, so folding them in any order
    // yields the same k-smallest-of-union ranking.
    let mut rankings: Vec<Vec<CorpusMatch>> = (0..queries.len()).map(|_| Vec::new()).collect();
    let mut scan = ScanStats::default();
    let mut lane_scans = vec![ScanStats::default(); queries.len()];
    let mut shard_stats: Vec<CorpusShardStats> = Vec::with_capacity(shards.len());
    let mut ted = run.ted_stats.then(TedStats::new);
    for out in outputs {
        scan.merge(&out.scan);
        for (lane, w) in lane_scans.iter_mut().zip(&out.lane_scans) {
            lane.merge(w);
        }
        shard_stats.extend(out.shard_stats);
        fold_ted(ted.as_mut(), out.ted);
        for ((lane, wlane), bq) in rankings.iter_mut().zip(out.lanes).zip(queries) {
            merge_ranked(lane, wlane, bq.k);
        }
    }
    shard_stats.sort_by_key(|s| s.shard);
    Ok(CorpusBatchOutput {
        rankings,
        status,
        scan,
        lane_scans,
        shard_stats,
        ted,
    })
}

/// [`tasm_corpus_batch`] without a deadline. Kept with this exact
/// signature because the end-to-end benchmark helper (`perfbench/`)
/// times the corpus scheduler through it.
#[allow(clippy::too_many_arguments)]
pub fn tasm_corpus_batch_with_stats(
    queries: &[BatchQuery<'_>],
    src_dict: &LabelDict,
    corpus: &Corpus,
    model: &(dyn CostModel + Sync),
    c_t: u64,
    opts: TasmOptions,
    threads: usize,
    stats: Option<&mut TedStats>,
) -> CorpusBatchOutput {
    let run = Run {
        model,
        c_t,
        opts,
        threads,
        ted_stats: stats.is_some(),
        ..Run::default()
    };
    let mut out = tasm_corpus_batch(queries, src_dict, corpus, &run, &mut TasmWorkspace::new())
        .expect("no deadline");
    fold_ted(stats, out.ted.take());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;
    use std::time::Duration;
    use tasm_tree::{bracket, Tree};

    /// The driver over `queries` at `threads` under `deadline`, with
    /// distance statistics.
    fn run(
        queries: &[BatchQuery<'_>],
        qdict: &LabelDict,
        corpus: &Corpus,
        threads: usize,
        deadline: Option<Instant>,
    ) -> Result<CorpusBatchOutput, DeadlineExceeded> {
        let run = Run {
            threads,
            deadline,
            ted_stats: true,
            ..Run::default()
        };
        tasm_corpus_batch(queries, qdict, corpus, &run, &mut TasmWorkspace::new())
    }

    /// One query, one thread, no deadline.
    fn solo(
        q: &Tree,
        qdict: &LabelDict,
        corpus: &Corpus,
        k: usize,
    ) -> (Vec<CorpusMatch>, CorpusStatus) {
        let out = run(&[BatchQuery { query: q, k }], qdict, corpus, 1, None).unwrap();
        (out.rankings.into_iter().next().unwrap(), out.status)
    }

    /// One query over one shard through the indexed driver.
    fn indexed(q: &Tree, qdict: &LabelDict, doc: &IndexedDocument, k: usize) -> Vec<Match> {
        let out = tasm_indexed_batch(
            &[BatchQuery { query: q, k }],
            qdict,
            doc,
            &Run::default(),
            &mut TasmWorkspace::new(),
        )
        .unwrap();
        out.rankings.into_iter().next().unwrap()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tasm-core-corpus-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn build_corpus(dir: &PathBuf) -> Corpus {
        let mut corpus = Corpus::create(dir).unwrap();
        let docs = [
            (
                "a",
                "{dblp{article{auth{John}}{title{X1}}}{book{title{X2}}}}",
            ),
            ("b", "{dblp{article{auth{Mike}}{title{X3}}{year}}}"),
            (
                "c",
                "{lib{proceedings{conf{VLDB}}}{article{auth{John}}{title{X9}}}}",
            ),
        ];
        for (name, src) in docs {
            let mut dict = LabelDict::new();
            let tree = bracket::parse(src, &mut dict).unwrap();
            corpus.add(name, &tree, &dict, None).unwrap();
        }
        corpus
    }

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

    #[test]
    fn corpus_ranking_merges_per_document_runs() {
        let dir = tmp_dir("merge");
        let corpus = build_corpus(&dir);
        let mut qdict = LabelDict::new();
        let q = bracket::parse("{article{auth{John}}{title{X1}}}", &mut qdict).unwrap();
        let k = 4;
        let (got, status) = solo(&q, &qdict, &corpus, k);
        assert!(!status.is_degraded());
        assert_eq!(status.marker(), "3/3");
        assert_eq!(got.len(), k);

        // Reference: per-document indexed runs, concatenated and
        // sorted on the corpus rank key.
        let mut want: Vec<CorpusMatch> = Vec::new();
        for (shard, name, doc) in corpus.healthy() {
            let hits = indexed(&q, &qdict, doc, k);
            want.extend(hits.into_iter().map(|hit| CorpusMatch {
                doc: name.to_string(),
                shard,
                hit,
            }));
        }
        want.sort_by_key(|m| (m.hit.distance, m.shard, m.hit.root.post(), m.hit.size));
        want.truncate(k);
        assert_eq!(key(&got), key(&want));
        // The best hit is the exact match in document "a".
        assert_eq!(got[0].doc, "a");
        assert_eq!(got[0].hit.distance.halves(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantined_shards_degrade_but_keep_healthy_rankings() {
        let dir = tmp_dir("degraded");
        drop(build_corpus(&dir));
        let mut qdict = LabelDict::new();
        let q = bracket::parse("{article{auth{John}}{title{X1}}}", &mut qdict).unwrap();
        // Corrupt shard b; the other shards' results must be identical
        // to merged per-document runs over just the healthy shards.
        let shard = dir.join("b.pqi");
        let mut bytes = fs::read(&shard).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&shard, &bytes).unwrap();
        let corpus = Corpus::open(&dir).unwrap();
        let (got, status) = solo(&q, &qdict, &corpus, 6);
        assert!(status.is_degraded());
        assert_eq!(status.marker(), "2/3");
        let mut want: Vec<CorpusMatch> = Vec::new();
        for (shard, name, doc) in corpus.healthy() {
            let hits = indexed(&q, &qdict, doc, 6);
            want.extend(hits.into_iter().map(|hit| CorpusMatch {
                doc: name.to_string(),
                shard,
                hit,
            }));
        }
        want.sort_by_key(|m| (m.hit.distance, m.shard, m.hit.root.post(), m.hit.size));
        want.truncate(6);
        let got_key = key(&got);
        assert_eq!(got_key, key(&want));
        assert!(got_key.iter().all(|(doc, ..)| doc != "b"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_corpus_answers_empty() {
        let dir = tmp_dir("empty");
        let corpus = Corpus::create(&dir).unwrap();
        let mut qdict = LabelDict::new();
        let q = bracket::parse("{a{b}}", &mut qdict).unwrap();
        let out = run(&[BatchQuery { query: &q, k: 3 }], &qdict, &corpus, 1, None).unwrap();
        assert_eq!(out.ted.map(|t| t.ted_calls), Some(0));
        let (got, status) = solo(&q, &qdict, &corpus, 3);
        assert!(got.is_empty());
        assert_eq!(status.marker(), "0/0");
        assert!(!status.is_degraded());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bounded_merge_never_grows_past_k() {
        use crate::ranking::Match;
        use tasm_tree::NodeId;
        // 40 shards × 8 hits each, merged into one lane with k = 5: the
        // lane must stay at 5 after every fold (the unbounded version
        // would peak at 320) and equal the sort-everything reference.
        let k = 5;
        let mk = |shard: usize, post: u32, dist: u64| CorpusMatch {
            doc: format!("d{shard}"),
            shard,
            hit: Match {
                root: NodeId::new(post),
                size: 3,
                distance: Cost::from_natural(dist),
                tree: None,
            },
        };
        let mut lane: Vec<CorpusMatch> = Vec::new();
        let mut all: Vec<CorpusMatch> = Vec::new();
        for shard in 0..40 {
            // Per-shard runs arrive sorted on the rank key, like real
            // `tasm_indexed_batch` output.
            let incoming: Vec<CorpusMatch> = (0..8)
                .map(|i| mk(shard, 10 + i, ((shard * 7 + i as usize * 3) % 11) as u64))
                .collect();
            let mut sorted = incoming.clone();
            sorted.sort_by_key(|m| (m.hit.distance, m.hit.root.post(), m.hit.size));
            all.extend(sorted.clone());
            merge_ranked(&mut lane, sorted, k);
            assert!(lane.len() <= k, "lane grew to {} entries", lane.len());
        }
        assert_eq!(lane.len(), k);
        all.sort_by_key(rank_key);
        all.truncate(k);
        assert_eq!(key(&lane), key(&all));
        // And the lane itself is sorted, ready for the next fold.
        assert!(lane.windows(2).all(|w| rank_key(&w[0]) <= rank_key(&w[1])));
    }

    #[test]
    fn deadline_interrupts_mid_shard() {
        // One large shard: the old corpus loop only polled *between*
        // shards, so a deadline expiring mid-shard was ignored and the
        // whole shard evaluated anyway. The region-granular poll must
        // fail the request instead.
        let dir = tmp_dir("midshard");
        let mut corpus = Corpus::create(&dir).unwrap();
        let mut src = String::from("{r");
        for i in 0..20_000 {
            src.push_str(if i % 2 == 0 { "{a{b}{c}}" } else { "{a{b}{d}}" });
        }
        src.push('}');
        let mut dict = LabelDict::new();
        let tree = bracket::parse(&src, &mut dict).unwrap();
        corpus.add("big", &tree, &dict, None).unwrap();

        let mut qdict = LabelDict::new();
        let q = bracket::parse("{a{b}{c}}", &mut qdict).unwrap();
        let queries = [BatchQuery { query: &q, k: 5 }];

        // Sanity: without a deadline the single-shard corpus answers.
        let ok = run(&queries, &qdict, &corpus, 1, None);
        assert!(ok.is_ok());

        // A deadline far shorter than the shard's evaluation time must
        // abort mid-shard — there is no between-shards poll to save it.
        let deadline = Instant::now() + Duration::from_micros(100);
        let got = run(&queries, &qdict, &corpus, 1, Some(deadline));
        assert_eq!(got.unwrap_err(), DeadlineExceeded);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scheduler_reports_per_shard_stats_and_matches_sequential() {
        let dir = tmp_dir("shardstats");
        let corpus = build_corpus(&dir);
        let mut qdict = LabelDict::new();
        let q = bracket::parse("{article{auth{John}}{title{X1}}}", &mut qdict).unwrap();
        let queries = [BatchQuery { query: &q, k: 4 }];
        let sequential = run(&queries, &qdict, &corpus, 1, None).unwrap();
        for threads in [2, 4, 7] {
            let scheduled = run(&queries, &qdict, &corpus, threads, None).unwrap();
            assert_eq!(key(&scheduled.rankings[0]), key(&sequential.rankings[0]));
            // With inner == 1 lane (threads ≤ shards) each shard is
            // evaluated exactly as in the sequential run, so the whole
            // funnel is identical. Intra-shard workers (threads = 7 over
            // 3 shards) may prune differently, but these shards have too
            // few regions to split, so the candidate count stays invariant.
            if threads <= 4 {
                assert_eq!(scheduled.scan, sequential.scan);
                assert_eq!(scheduled.lane_scans, sequential.lane_scans);
            }
            assert_eq!(scheduled.scan.candidates, sequential.scan.candidates);
            // Per-shard stats cover every healthy shard, in manifest
            // order, regardless of which worker ran which shard.
            let shards: Vec<usize> = scheduled.shard_stats.iter().map(|s| s.shard).collect();
            assert_eq!(shards, vec![0, 1, 2]);
            let names: Vec<&str> = scheduled
                .shard_stats
                .iter()
                .map(|s| s.name.as_str())
                .collect();
            assert_eq!(names, vec!["a", "b", "c"]);
            // The per-shard funnels sum to the merged funnel.
            let mut summed = ScanStats::default();
            for s in &scheduled.shard_stats {
                summed.merge(&s.scan);
            }
            assert_eq!(summed, scheduled.scan);
            // Every shard's distance stats reach the output: one DP per
            // evaluated subtree.
            let ted = scheduled.ted.as_ref().expect("asked for");
            assert_eq!(
                ted.ted_calls, scheduled.scan.evaluated,
                "threads = {threads}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn expired_deadline_fails_between_shards() {
        let dir = tmp_dir("deadline");
        let corpus = build_corpus(&dir);
        let mut qdict = LabelDict::new();
        let q = bracket::parse("{a{b}}", &mut qdict).unwrap();
        let queries = [BatchQuery { query: &q, k: 2 }];
        let deadline = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        let got = run(&queries, &qdict, &corpus, 1, Some(deadline));
        assert!(got.is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
