//! Seeded workload inputs: documents, query pools and reference answers.
//!
//! Everything here is a function of `(workload, seed, scale)`: the same
//! arguments write the same files. The query pool of every workload is
//! stratified over |Q| ∈ [`QUERY_SIZES`] and k ∈ [`KS`], so any seed gives
//! a pool of the same shape.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tasm_core::{
    tasm_dynamic_with_workspace, tasm_postorder_with_workspace, Match, TasmOptions, TasmWorkspace,
};
use tasm_data::{dblp_tree, xmark_tree, DblpConfig, XMarkConfig};
use tasm_ted::UnitCost;
use tasm_tree::{LabelDict, LabelId, NodeId, Tree, TreeBuilder, TreeQueue};
use tasm_xml::{parse_tree, parse_tree_str, tree_to_xml, write_tree};

use crate::json;

pub const WORKLOADS: [&str; 2] = ["serve-resident", "corpus"];
pub const QUERY_SIZES: [u32; 4] = [4, 8, 16, 32];
pub const KS: [usize; 3] = [5, 20, 100];
/// Queries the traced run times layer by layer.
pub const LAYER_SAMPLE: usize = 8;
/// `tasm_dynamic` fills an |Q|·n matrix, so its check keeps |Q| small.
const DYNAMIC_MAX_QUERY: usize = 16;
/// Name the corpus workload serves its shards under.
pub const CORPUS_NAME: &str = "corpus";

/// A seed for one part of a workload, independent of the other parts.
fn sub_seed(seed: u64, part: u64) -> u64 {
    StdRng::seed_from_u64(seed ^ part.wrapping_mul(0xD6E8_FEB8_6659_FD93)).gen()
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Generator {
    Dblp,
    XMark,
}

impl Generator {
    pub fn name(self) -> &'static str {
        match self {
            Generator::Dblp => "dblp",
            Generator::XMark => "xmark",
        }
    }

    fn tree(self, dict: &mut LabelDict, seed: u64, nodes: usize) -> Tree {
        match self {
            Generator::Dblp => dblp_tree(dict, &DblpConfig::new(seed, nodes)),
            Generator::XMark => xmark_tree(dict, &XMarkConfig::new(seed, nodes)),
        }
    }
}

/// A generated document as the program sees it: written to XML and
/// parsed back, so its labels and postorder are those of the file.
pub struct Doc {
    pub name: String,
    pub generator: Generator,
    pub path: PathBuf,
    pub bytes: u64,
    pub tree: Tree,
    pub dict: LabelDict,
}

impl Doc {
    fn generate(
        dir: &Path,
        name: &str,
        generator: Generator,
        seed: u64,
        nodes: usize,
    ) -> Result<Doc, String> {
        let mut gen_dict = LabelDict::new();
        let generated = generator.tree(&mut gen_dict, seed, nodes);
        let path = dir.join(format!("{name}.xml"));
        let file = File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = BufWriter::new(file);
        write_tree(&generated, &gen_dict, &mut out)
            .and_then(|()| out.flush())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        drop(out);
        Doc::load(name, generator, path)
    }

    /// Parses a document file the way the program does.
    fn load(name: &str, generator: Generator, path: PathBuf) -> Result<Doc, String> {
        let file = File::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let bytes = file.metadata().map_err(|e| e.to_string())?.len();
        let mut dict = LabelDict::new();
        let tree = parse_tree(BufReader::new(file), &mut dict)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Doc {
            name: name.to_string(),
            generator,
            path,
            bytes,
            tree,
            dict,
        })
    }
}

/// Where a query came from; decides which answer checks apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// A subtree of the target document: its top-1 distance is 0.
    Cut,
    /// A subtree of a document generated with another seed.
    Foreign,
    /// A right comb, which selects the strategy TED kernel.
    Deep,
}

impl Origin {
    pub fn as_str(self) -> &'static str {
        match self {
            Origin::Cut => "cut",
            Origin::Foreign => "foreign",
            Origin::Deep => "deep",
        }
    }
}

/// One ranked row as the program prints it: node, distance, size and,
/// for a corpus, the shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    pub node: u32,
    pub distance: String,
    pub size: u32,
    pub shard: Option<String>,
}

impl Row {
    fn of(m: &Match, shard: Option<&str>) -> Row {
        Row {
            node: m.root.post(),
            distance: m.distance.to_string(),
            size: m.size,
            shard: shard.map(str::to_string),
        }
    }
}

pub struct Query {
    pub id: String,
    /// Document name (or [`CORPUS_NAME`]) the query is sent to.
    pub target: String,
    pub k: usize,
    pub origin: Origin,
    pub size: usize,
    pub xml: String,
    pub expected: Vec<Row>,
    /// Part of the traced run's layer sample.
    pub layer: bool,
}

pub struct Workload {
    pub name: String,
    pub seed: u64,
    pub scale: f64,
    /// Resident documents, or the shards of the corpus.
    pub docs: Vec<Doc>,
    pub corpus: bool,
    pub queries: Vec<Query>,
    pub dynamic_checked: usize,
    pub dynamic_mismatches: usize,
}

/// Valid query XML for `q`, if it survives the round trip through the
/// XML writer and parser unchanged and fits on one protocol line.
fn query_xml(q: &Tree, dict: &LabelDict) -> Option<String> {
    if dict.resolve(q.label(q.root())).starts_with('@') {
        return None;
    }
    let xml = tree_to_xml(q, dict);
    if xml.contains(['\n', '\r', '\t']) {
        return None;
    }
    let mut back_dict = LabelDict::new();
    let back = parse_tree_str(&xml, &mut back_dict).ok()?;
    let same = back.sizes() == q.sizes()
        && back
            .labels()
            .iter()
            .zip(q.labels())
            .all(|(a, b)| back_dict.resolve(*a) == dict.resolve(*b));
    same.then_some(xml)
}

/// Parses query XML into `dict`'s label space without changing `dict`:
/// labels the dictionary lacks get fresh ids past its end.
pub fn encode_query(xml: &str, dict: &LabelDict) -> Tree {
    let mut local = LabelDict::new();
    let q = parse_tree_str(xml, &mut local).expect("query XML was checked when it was cut");
    let base = dict.len() as u32;
    let labels = q
        .labels()
        .iter()
        .map(|l| dict.get(local.resolve(*l)).unwrap_or(LabelId(base + l.0)))
        .collect();
    Tree::from_postorder_unchecked(labels, q.sizes().to_vec())
}

/// `n` subtrees of about `target` nodes (within an eighth of it, or of the
/// nearest size the document has), as query XML, spread over the
/// document: the candidates, in document order, are split into `n` equal
/// runs and one is drawn from each (the next candidate if its XML does
/// not round-trip).
///
/// `tasm_data::random_query` draws one subtree of exactly the nearest
/// size instead. A query's cost hinges on the kind of element it is cut
/// at (an XMark `person` of 32 nodes costs about 2x a `closed_auction`
/// and 8x most others), and which kinds have exactly 32 nodes changes
/// with the document's seed. A pool holds few queries of one size (the
/// daemon's holds 3 XMark cuts of 32 nodes), so independent draws let the
/// number of expensive kinds in it, and with it the pool's cost, swing
/// from seed to seed. A size window and spread draws hold each kind's
/// share near fixed.
fn cut_queries(
    tree: &Tree,
    dict: &LabelDict,
    target: u32,
    n: usize,
    rng: &mut StdRng,
) -> Vec<(usize, String)> {
    let nearest = tree
        .nodes()
        .map(|v| tree.size(v).abs_diff(target))
        .min()
        .expect("a document has a root");
    let slack = nearest.max(target / 8);
    let candidates: Vec<NodeId> = tree
        .nodes()
        .filter(|&v| tree.size(v).abs_diff(target) <= slack)
        .collect();
    let len = candidates.len();
    (0..n)
        .map(|i| {
            let start = (i * len + rng.gen_range(0..len)) / n;
            (0..len)
                .find_map(|j| {
                    let sub = tree.subtree(candidates[(start + j) % len]);
                    query_xml(&sub, dict).map(|xml| (sub.len(), xml))
                })
                .unwrap_or_else(|| {
                    panic!("no subtree of about {target} nodes round-trips through XML")
                })
        })
        .collect()
}

/// A right comb of `size` nodes: each level an element with a text leaf
/// and the next level, labels drawn from the document's vocabulary.
fn deep_query(dict: &LabelDict, size: u32, rng: &mut StdRng) -> (usize, String) {
    let names: Vec<LabelId> = dict
        .iter()
        .filter(|(_, s)| {
            s.starts_with(|c: char| c.is_ascii_alphabetic())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        })
        .map(|(id, _)| id)
        .collect();
    assert!(!names.is_empty(), "document has element names");
    for _ in 0..64 {
        let mut b = TreeBuilder::new();
        let levels = (size / 2).max(1);
        for _ in 0..levels {
            b.start(names[rng.gen_range(0..names.len())]);
            b.leaf(names[rng.gen_range(0..names.len())]);
        }
        for _ in 0..levels {
            b.end().expect("balanced comb");
        }
        let comb = b.finish().expect("single root");
        if let Some(xml) = query_xml(&comb, dict) {
            return (comb.len(), xml);
        }
    }
    panic!("no right comb round-trips through XML");
}

fn rows(ms: &[Match]) -> Vec<Row> {
    ms.iter().map(|m| Row::of(m, None)).collect()
}

/// Reference answer for a query against one resident document: the
/// postorder algorithm over the parsed tree, in memory.
fn tree_reference(doc: &Doc, xml: &str, k: usize, ws: &mut TasmWorkspace) -> Vec<Match> {
    let q = encode_query(xml, &doc.dict);
    let mut queue = TreeQueue::new(&doc.tree);
    tasm_postorder_with_workspace(
        &q,
        &mut queue,
        k,
        &UnitCost,
        1,
        TasmOptions::default(),
        ws,
        None,
    )
}

/// Reference answer for a corpus query: one postorder scan per shard,
/// merged on the corpus rank key (distance, shard, postorder, size).
fn corpus_reference(shards: &[Doc], xml: &str, k: usize, ws: &mut TasmWorkspace) -> Vec<Row> {
    let mut all: Vec<(usize, Match)> = Vec::new();
    for (i, shard) in shards.iter().enumerate() {
        all.extend(
            tree_reference(shard, xml, k, ws)
                .into_iter()
                .map(|m| (i, m)),
        );
    }
    all.sort_by_key(|(i, m)| (m.distance, *i, m.root.post(), m.size));
    all.truncate(k);
    all.iter()
        .map(|(i, m)| Row::of(m, Some(&shards[*i].name)))
        .collect()
}

/// Node count at this scale; tiny scales keep documents usable.
fn scaled(nodes: usize, scale: f64) -> usize {
    ((nodes as f64 * scale) as usize).max(400)
}

/// `f(i, workspace)` for every `i < n`, on up to 4 cores: thread `t`
/// takes `t, t + threads, ...` so heavy strata spread evenly.
fn par_map<T: Send>(n: usize, f: impl Fn(usize, &mut TasmWorkspace) -> T + Sync) -> Vec<T> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let f = &f;
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut ws = TasmWorkspace::new();
                    (t..n)
                        .step_by(threads)
                        .map(|i| (i, f(i, &mut ws)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for w in workers {
            for (i, value) in w.join().expect("worker panicked") {
                out[i] = Some(value);
            }
        }
    });
    out.into_iter()
        .map(|v| v.expect("every index mapped"))
        .collect()
}

fn doc_named<'a>(docs: &'a [Doc], name: &str) -> &'a Doc {
    docs.iter().find(|d| d.name == name).expect("target doc")
}

struct Spec {
    target: String,
    origin: Origin,
    k: usize,
    xml: String,
    size: usize,
}

/// The daemon's pool leans toward small queries, (|Q|, per stratum):
/// the XMark |Q| = 32 queries cost 3-8x the rest and, while a worker
/// runs one, the other requests wait behind it. At a uniform share (12%)
/// the p90 sat on the edge between the cheap queries and these, where it
/// jumps with each seed's draw; at 3% it falls among the cheap ones, and
/// the heavy queries show in throughput and the mean.
const SERVE_PER_STRATUM: [(u32, usize); 4] = [(4, 6), (8, 6), (16, 4), (32, 1)];
const CORPUS_CUT_PER_STRATUM: usize = 5;
const CORPUS_UNSEEN_PER_STRATUM: usize = 3;

pub fn prepare(name: &str, seed: u64, scale: f64, dir: &Path) -> Result<Workload, String> {
    let docs_dir = dir.join("docs");
    fs::create_dir_all(&docs_dir).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 1));
    let mut specs: Vec<Spec> = Vec::new();
    let mut push = |target: &str, origin, k, (size, xml)| {
        specs.push(Spec {
            target: target.to_string(),
            origin,
            k,
            xml,
            size,
        })
    };
    let (docs, corpus) = match name {
        "serve-resident" => {
            let mut docs = Vec::new();
            for (i, generator) in [Generator::Dblp, Generator::XMark].into_iter().enumerate() {
                let part = 10 * (i as u64 + 1);
                let doc = Doc::generate(
                    &docs_dir,
                    generator.name(),
                    generator,
                    sub_seed(seed, part),
                    scaled(1_000_000, scale),
                )?;
                let mut other_dict = LabelDict::new();
                let other = generator.tree(
                    &mut other_dict,
                    sub_seed(seed, part + 1),
                    scaled(100_000, scale),
                );
                for (size, per_stratum) in SERVE_PER_STRATUM {
                    let n = per_stratum * KS.len();
                    let cuts = cut_queries(&doc.tree, &doc.dict, size, n, &mut rng);
                    let foreign = cut_queries(&other, &other_dict, size, n, &mut rng);
                    for (i, (cut, foreign)) in cuts.into_iter().zip(foreign).enumerate() {
                        push(&doc.name, Origin::Cut, KS[i % KS.len()], cut);
                        push(&doc.name, Origin::Foreign, KS[i % KS.len()], foreign);
                    }
                }
                for (size, k) in [(16, 5), (32, 100)] {
                    let comb = deep_query(&doc.dict, size, &mut rng);
                    push(&doc.name, Origin::Deep, k, comb);
                }
                docs.push(doc);
            }
            (docs, false)
        }
        "corpus" => {
            let shards = (0..8)
                .map(|i| {
                    Doc::generate(
                        &docs_dir,
                        &format!("s{i}"),
                        Generator::Dblp,
                        sub_seed(seed, 100 + i),
                        scaled(125_000, scale),
                    )
                })
                .collect::<Result<Vec<_>, _>>()?;
            let mut unseen_dict = LabelDict::new();
            let unseen = Generator::Dblp.tree(
                &mut unseen_dict,
                sub_seed(seed, 199),
                scaled(125_000, scale),
            );
            for size in QUERY_SIZES {
                // Cut queries go round the shards and the ks in turn.
                for i in 0..CORPUS_CUT_PER_STRATUM * KS.len() {
                    let s = &shards[i % shards.len()];
                    for cut in cut_queries(&s.tree, &s.dict, size, 1, &mut rng) {
                        push(CORPUS_NAME, Origin::Cut, KS[i % KS.len()], cut);
                    }
                }
                let n = CORPUS_UNSEEN_PER_STRATUM * KS.len();
                for (i, cut) in cut_queries(&unseen, &unseen_dict, size, n, &mut rng)
                    .into_iter()
                    .enumerate()
                {
                    push(CORPUS_NAME, Origin::Foreign, KS[i % KS.len()], cut);
                }
            }
            (shards, true)
        }
        other => return Err(format!("unknown workload '{other}'")),
    };

    let mut layer: Vec<usize> = (0..specs.len()).collect();
    shuffle(&mut layer, &mut rng);
    layer.truncate(LAYER_SAMPLE);

    let expected = par_map(specs.len(), |i, ws| {
        let s = &specs[i];
        if corpus {
            corpus_reference(&docs, &s.xml, s.k, ws)
        } else {
            rows(&tree_reference(
                doc_named(&docs, &s.target),
                &s.xml,
                s.k,
                ws,
            ))
        }
    });
    let queries: Vec<Query> = specs
        .into_iter()
        .zip(expected)
        .enumerate()
        .map(|(i, (s, expected))| Query {
            id: format!("q{i:03}"),
            target: s.target,
            k: s.k,
            origin: s.origin,
            size: s.size,
            xml: s.xml,
            expected,
            layer: layer.contains(&i),
        })
        .collect();

    // The reference path shares its engine with the program, so it is
    // itself checked against the paper's baseline, a different
    // algorithm: one seeded query of every (origin, k) stratum with
    // |Q| <= 16, right combs included. The corpus reference is a merge of
    // per-shard scans, a different path from the program's index.
    let mut dynamic_sample = Vec::new();
    if !corpus {
        let mut strata: BTreeMap<(&str, usize), Vec<usize>> = BTreeMap::new();
        for (i, q) in queries.iter().enumerate() {
            if q.size <= DYNAMIC_MAX_QUERY {
                strata.entry((q.origin.as_str(), q.k)).or_default().push(i);
            }
        }
        for members in strata.values() {
            dynamic_sample.push(members[rng.gen_range(0..members.len())]);
        }
    }
    let dynamic_agrees = par_map(dynamic_sample.len(), |j, ws| {
        let q = &queries[dynamic_sample[j]];
        let doc = doc_named(&docs, &q.target);
        let enc = encode_query(&q.xml, &doc.dict);
        let dynamic = tasm_dynamic_with_workspace(
            &enc,
            &doc.tree,
            q.k,
            &UnitCost,
            TasmOptions::default(),
            ws,
            None,
        );
        rows(&dynamic) == q.expected
    });

    let workload = Workload {
        name: name.to_string(),
        seed,
        scale,
        docs,
        corpus,
        queries,
        dynamic_checked: dynamic_agrees.len(),
        dynamic_mismatches: dynamic_agrees.iter().filter(|ok| !**ok).count(),
    };
    workload.write(dir)?;
    Ok(workload)
}

impl Workload {
    /// Writes the query files, `plan.json` for `run.py`, and
    /// `docs.tsv` / `queries.tsv` for the traced layer run.
    fn write(&self, dir: &Path) -> Result<(), String> {
        let io = |e: std::io::Error| e.to_string();
        let qdir = dir.join("queries");
        fs::create_dir_all(&qdir).map_err(io)?;
        let mut docs_tsv = String::new();
        let mut docs_json = Vec::new();
        for d in &self.docs {
            docs_tsv.push_str(&format!("{}\t{}\n", d.name, d.path.display()));
            docs_json.push(format!(
                "{{\"name\": {}, \"generator\": {}, \"path\": {}, \"nodes\": {}, \"bytes\": {}}}",
                json::string(&d.name),
                json::string(d.generator.name()),
                json::string(&d.path.display().to_string()),
                d.tree.len(),
                d.bytes
            ));
        }
        let mut queries_tsv = String::new();
        let mut queries_json = Vec::new();
        for q in &self.queries {
            let path = qdir.join(format!("{}.xml", q.id));
            fs::write(&path, &q.xml).map_err(io)?;
            queries_tsv.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\n",
                q.id,
                q.target,
                q.k,
                u8::from(q.layer),
                q.xml
            ));
            let expected: Vec<String> = q
                .expected
                .iter()
                .map(|r| {
                    let mut cells =
                        vec![r.node.to_string(), r.distance.clone(), r.size.to_string()];
                    cells.extend(r.shard.clone());
                    json::string_list(&cells)
                })
                .collect();
            queries_json.push(format!(
                "{{\"id\": {}, \"target\": {}, \"k\": {}, \"origin\": {}, \"size\": {}, \
                 \"layer\": {}, \"path\": {}, \"xml\": {}, \"expected\": [{}]}}",
                json::string(&q.id),
                json::string(&q.target),
                q.k,
                json::string(q.origin.as_str()),
                q.size,
                q.layer,
                json::string(&path.display().to_string()),
                json::string(&q.xml),
                expected.join(", ")
            ));
        }
        fs::write(dir.join("docs.tsv"), docs_tsv).map_err(io)?;
        fs::write(dir.join("queries.tsv"), queries_tsv).map_err(io)?;
        let plan = format!(
            "{{\"workload\": {}, \"seed\": {}, \"scale\": {}, \"corpus\": {},\n\
             \"reference\": {{\"dynamic_checked\": {}, \"dynamic_mismatches\": {}}},\n\
             \"docs\": [{}],\n\"queries\": [\n{}\n]}}\n",
            json::string(&self.name),
            self.seed,
            self.scale,
            self.corpus,
            self.dynamic_checked,
            self.dynamic_mismatches,
            docs_json.join(", "),
            queries_json.join(",\n")
        );
        fs::write(dir.join("plan.json"), plan).map_err(io)
    }
}

/// A query as the traced run reads it back.
pub struct QueryLine {
    pub id: String,
    pub target: String,
    pub k: usize,
    pub layer: bool,
    pub xml: String,
}

/// What the traced run reads back: document names and files, and the
/// query list.
pub struct Inputs {
    pub docs: Vec<(String, PathBuf)>,
    pub queries: Vec<QueryLine>,
}

pub fn load_inputs(dir: &Path) -> Result<Inputs, String> {
    let read = |f: &str| fs::read_to_string(dir.join(f)).map_err(|e| format!("{f}: {e}"));
    let docs = read("docs.tsv")?
        .lines()
        .filter_map(|line| line.split_once('\t'))
        .map(|(name, path)| (name.to_string(), PathBuf::from(path)))
        .collect();
    let mut queries = Vec::new();
    for line in read("queries.tsv")?.lines() {
        let cols: Vec<&str> = line.splitn(5, '\t').collect();
        let [id, target, k, layer, xml] = cols[..] else {
            return Err(format!("queries.tsv: malformed line '{line}'"));
        };
        queries.push(QueryLine {
            id: id.to_string(),
            target: target.to_string(),
            k: k.parse()
                .map_err(|_| format!("queries.tsv: bad k in '{line}'"))?,
            layer: layer == "1",
            xml: xml.to_string(),
        });
    }
    Ok(Inputs { docs, queries })
}
