//! The crash-safe corpus store: a directory of `.pqi` shards described
//! by a versioned, checksummed `MANIFEST`.
//!
//! # On-disk layout
//!
//! ```text
//! <corpus dir>/
//!   MANIFEST          versioned + checksummed catalog (format below)
//!   <name>.pqi        one indexed shard per document
//! ```
//!
//! # `MANIFEST` format (little-endian)
//!
//! ```text
//! magic      "TASMCM1\n"                                8 bytes
//! generation u64                                        monotonic
//! n_labels   u64                                        written as 0
//! labels     n_labels × (u32 len, bytes, u64 freq)      skipped on read
//! n_shards   u64
//! shards     n_shards × shard record
//! crc32      u32                CRC-32 (IEEE) of every byte after magic
//!
//! shard record:
//!   name       u32 len, bytes       document name (also the query alias)
//!   path       u32 len, bytes       shard file, relative to the corpus dir
//!   source     u32 len, bytes       original input path ("" if unknown)
//!   file_size  u64                  exact shard byte length
//!   file_crc   u32                  CRC-32 of the whole shard file
//!   generation u64                  generation that wrote the shard
//!   n_nodes    u64                  nodes in the shard's tree
//! ```
//!
//! # Durability discipline
//!
//! Every mutation ([`Corpus::add`], [`Corpus::repair_shard`]) writes the
//! shard file first, then the manifest — both through
//! [`tasm_tree::postfile::atomic_write`] (temp + fsync + rename), with
//! the generation bumped on each manifest rewrite. A crash at any point
//! leaves the **previous** generation fully readable: an orphaned shard
//! or leftover `*.tmp.*` file is simply never referenced by the
//! manifest, and a half-written manifest never replaces the old one.
//!
//! # Verification and quarantine
//!
//! [`Corpus::open`] trusts nothing: each shard is checked against its
//! manifest record (generation skew, file size, whole-file CRC, then
//! the `.pqi` format's own structural + checksum validation, then the
//! recorded node count). A shard failing any check is *quarantined* —
//! excluded from querying, its failure captured as a [`ShardReport`] —
//! and the open still succeeds in degraded mode. Only a missing or
//! corrupt `MANIFEST` is fatal ([`CorpusError::Manifest`]).

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use tasm_tree::crc::crc32_update;
use tasm_tree::postfile::atomic_write;
use tasm_tree::{LabelDict, Tree};

use crate::document::IndexedDocument;

/// File name of the corpus catalog inside the corpus directory.
pub const MANIFEST_NAME: &str = "MANIFEST";

/// Magic opening a corpus manifest.
pub const MANIFEST_MAGIC: &[u8; 8] = b"TASMCM1\n";

/// Errors for the corpus store.
#[derive(Debug)]
pub enum CorpusError {
    /// The `MANIFEST` itself is missing, torn, or fails its checksum.
    /// Per-shard damage is never reported here — it quarantines the
    /// shard instead (see [`ShardReport`]).
    Manifest(String),
    /// Underlying I/O failure outside any single shard.
    Io(io::Error),
    /// Invalid request (duplicate or malformed document name, unknown
    /// shard, corpus directory already initialized, …).
    Invalid(String),
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Manifest(msg) => write!(f, "corpus manifest: {msg}"),
            CorpusError::Io(e) => write!(f, "corpus i/o: {e}"),
            CorpusError::Invalid(msg) => write!(f, "corpus: {msg}"),
        }
    }
}

impl std::error::Error for CorpusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CorpusError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CorpusError {
    fn from(e: io::Error) -> Self {
        CorpusError::Io(e)
    }
}

impl From<tasm_tree::postfile::PostFileError> for CorpusError {
    fn from(e: tasm_tree::postfile::PostFileError) -> Self {
        match e {
            tasm_tree::postfile::PostFileError::Io(e) => CorpusError::Io(e),
            other => CorpusError::Invalid(other.to_string()),
        }
    }
}

/// One shard record of the manifest: everything needed to locate and
/// verify a shard without opening it optimistically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMeta {
    /// Document name; unique within the corpus, used as the query alias.
    pub name: String,
    /// Shard file path, relative to the corpus directory.
    pub path: String,
    /// Original input the shard was indexed from (`None` if unknown);
    /// `fsck --repair` re-indexes from here.
    pub source: Option<String>,
    /// Exact byte length of the shard file when it was written.
    pub file_size: u64,
    /// CRC-32 (IEEE) of the whole shard file.
    pub file_crc: u32,
    /// Generation whose manifest rewrite produced this shard file.
    pub generation: u64,
    /// Node count of the shard's tree.
    pub n_nodes: u64,
}

/// The decoded `MANIFEST`: generation and one [`ShardMeta`] per shard.
///
/// The format keeps a label section from when the manifest carried a
/// corpus-wide dictionary. Nothing reads it any more (every shard
/// encodes queries into its own label space), so it is written empty
/// and skipped, bounds-checked, on read: older corpora open unchanged.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Monotonic generation number, bumped on every rewrite.
    pub generation: u64,
    /// Shard records, in insertion order.
    pub shards: Vec<ShardMeta>,
}

impl Manifest {
    /// Serializes the manifest, including magic and trailing checksum.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(MANIFEST_MAGIC);
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes()); // no label section
        out.extend_from_slice(&(self.shards.len() as u64).to_le_bytes());
        for s in &self.shards {
            put_bytes(&mut out, s.name.as_bytes());
            put_bytes(&mut out, s.path.as_bytes());
            put_bytes(&mut out, s.source.as_deref().unwrap_or("").as_bytes());
            out.extend_from_slice(&s.file_size.to_le_bytes());
            out.extend_from_slice(&s.file_crc.to_le_bytes());
            out.extend_from_slice(&s.generation.to_le_bytes());
            out.extend_from_slice(&s.n_nodes.to_le_bytes());
        }
        let crc = crc32_update(0, &out[MANIFEST_MAGIC.len()..]);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes a manifest, verifying magic and trailing checksum before
    /// trusting any field. Every way `bytes` can be torn, truncated or
    /// bit-flipped is a structured [`CorpusError::Manifest`] — never a
    /// silent misparse.
    pub fn from_bytes(bytes: &[u8]) -> Result<Manifest, CorpusError> {
        let magic_len = MANIFEST_MAGIC.len();
        if bytes.len() < magic_len || &bytes[..magic_len] != MANIFEST_MAGIC {
            return Err(CorpusError::Manifest(
                "bad magic: not a corpus manifest".into(),
            ));
        }
        if bytes.len() < magic_len + 4 {
            return Err(CorpusError::Manifest(
                "truncated: shorter than magic + checksum".into(),
            ));
        }
        let body = &bytes[magic_len..bytes.len() - 4];
        let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        let computed = crc32_update(0, body);
        if stored != computed {
            return Err(CorpusError::Manifest(format!(
                "checksum mismatch (stored {stored:08x}, computed {computed:08x}): \
                 torn or bit-rotted manifest"
            )));
        }
        let mut cur = Cursor { buf: body, pos: 0 };
        let generation = cur.u64("generation")?;
        let n_labels = cur.u64("label count")?;
        for i in 0..n_labels {
            let len = cur.u32(&format!("label {i}"))? as usize;
            cur.take(len, &format!("label {i}"))?;
            cur.u64(&format!("frequency of label {i}"))?;
        }
        let n_shards = cur.u64("shard count")?;
        let mut shards = Vec::new();
        for i in 0..n_shards {
            let name = cur.string(&format!("name of shard {i}"))?;
            let path = cur.string(&format!("path of shard {i}"))?;
            let source = cur.string(&format!("source of shard {i}"))?;
            let file_size = cur.u64(&format!("size of shard {i}"))?;
            let file_crc = cur.u32(&format!("crc of shard {i}"))?;
            let generation = cur.u64(&format!("generation of shard {i}"))?;
            let n_nodes = cur.u64(&format!("node count of shard {i}"))?;
            shards.push(ShardMeta {
                name,
                path,
                source: if source.is_empty() {
                    None
                } else {
                    Some(source)
                },
                file_size,
                file_crc,
                generation,
                n_nodes,
            });
        }
        if cur.pos != body.len() {
            return Err(CorpusError::Manifest(format!(
                "{} trailing bytes after the last shard record",
                body.len() - cur.pos
            )));
        }
        Ok(Manifest { generation, shards })
    }

    /// Reads and verifies `<dir>/MANIFEST`.
    pub fn load(dir: impl AsRef<Path>) -> Result<Manifest, CorpusError> {
        let path = dir.as_ref().join(MANIFEST_NAME);
        let bytes = fs::read(&path)
            .map_err(|e| CorpusError::Manifest(format!("cannot read {}: {e}", path.display())))?;
        Manifest::from_bytes(&bytes)
    }

    /// Writes `<dir>/MANIFEST` atomically (temp + fsync + rename): a
    /// crash mid-store leaves the previous manifest intact.
    pub fn store(&self, dir: impl AsRef<Path>) -> Result<(), CorpusError> {
        let bytes = self.to_bytes();
        atomic_write(dir.as_ref().join(MANIFEST_NAME), |out| {
            out.write_all(&bytes).map_err(Into::into)
        })?;
        Ok(())
    }
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Bounds-checked little-endian slice cursor for manifest decoding.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize, what: &str) -> Result<&[u8], CorpusError> {
        if self.buf.len() - self.pos < n {
            return Err(CorpusError::Manifest(format!(
                "truncated reading {what} ({} of {n} bytes left)",
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self, what: &str) -> Result<u32, CorpusError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, CorpusError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn string(&mut self, what: &str) -> Result<String, CorpusError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CorpusError::Manifest(format!("{what} is not valid UTF-8")))
    }
}

/// Structured failure report for one quarantined shard.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Document name of the damaged shard.
    pub name: String,
    /// Absolute path of the shard file that failed verification.
    pub path: PathBuf,
    /// What the verification found (size mismatch, CRC mismatch,
    /// structural error, generation skew, missing file, …).
    pub error: String,
}

/// Summary of a verification pass over a corpus.
#[derive(Debug)]
pub struct FsckOutcome {
    /// Shards listed by the manifest.
    pub total: usize,
    /// Shards that passed every check.
    pub healthy: usize,
    /// One report per quarantined shard.
    pub reports: Vec<ShardReport>,
    /// Names re-indexed successfully (repair mode only).
    pub repaired: Vec<String>,
}

/// An opened corpus: the verified manifest, every healthy shard loaded
/// as an [`IndexedDocument`], and a quarantine list for the rest.
#[derive(Debug)]
pub struct Corpus {
    dir: PathBuf,
    manifest: Manifest,
    /// Aligned with `manifest.shards`; `None` = quarantined.
    docs: Vec<Option<IndexedDocument>>,
    quarantined: Vec<ShardReport>,
}

impl Corpus {
    /// Initializes an empty corpus at `dir` (created if missing) and
    /// writes generation-1 `MANIFEST`. Fails if a manifest already
    /// exists there — a corpus is never silently clobbered.
    pub fn create(dir: impl AsRef<Path>) -> Result<Corpus, CorpusError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        if dir.join(MANIFEST_NAME).exists() {
            return Err(CorpusError::Invalid(format!(
                "{} already holds a corpus (MANIFEST exists)",
                dir.display()
            )));
        }
        let manifest = Manifest {
            generation: 1,
            shards: Vec::new(),
        };
        manifest.store(&dir)?;
        Ok(Corpus {
            dir,
            manifest,
            docs: Vec::new(),
            quarantined: Vec::new(),
        })
    }

    /// Opens the corpus at `dir`, verifying every shard against its
    /// manifest record. Damaged shards are quarantined (see
    /// [`Corpus::quarantined`]); only a missing or corrupt `MANIFEST`
    /// is an error.
    pub fn open(dir: impl AsRef<Path>) -> Result<Corpus, CorpusError> {
        let dir = dir.as_ref().to_path_buf();
        let manifest = Manifest::load(&dir)?;
        let mut docs = Vec::with_capacity(manifest.shards.len());
        let mut quarantined = Vec::new();
        for meta in &manifest.shards {
            let path = dir.join(&meta.path);
            match verify_shard(meta, manifest.generation, &path) {
                Ok(doc) => docs.push(Some(doc)),
                Err(error) => {
                    docs.push(None);
                    quarantined.push(ShardReport {
                        name: meta.name.clone(),
                        path,
                        error,
                    });
                }
            }
        }
        Ok(Corpus {
            dir,
            manifest,
            docs,
            quarantined,
        })
    }

    /// Verifies the corpus at `dir` and summarizes the result.
    pub fn fsck(dir: impl AsRef<Path>) -> Result<FsckOutcome, CorpusError> {
        let corpus = Corpus::open(dir)?;
        Ok(FsckOutcome {
            total: corpus.total_shards(),
            healthy: corpus.healthy_count(),
            reports: corpus.quarantined.clone(),
            repaired: Vec::new(),
        })
    }

    /// Indexes `tree` as a new shard named `name` and commits it:
    /// shard file first, manifest second, both atomic, generation
    /// bumped. `source` records where the document came from so
    /// `fsck --repair` can re-index it later.
    pub fn add(
        &mut self,
        name: &str,
        tree: &Tree,
        dict: &LabelDict,
        source: Option<&str>,
    ) -> Result<&IndexedDocument, CorpusError> {
        validate_name(name)?;
        if self.manifest.shards.iter().any(|s| s.name == name) {
            return Err(CorpusError::Invalid(format!(
                "document '{name}' already exists in the corpus"
            )));
        }
        let rel = format!("{name}.pqi");
        let generation = self.manifest.generation + 1;
        let (doc, meta) = write_shard(&self.dir, name, &rel, tree, dict, source, generation)?;
        self.manifest.shards.push(meta);
        self.docs.push(Some(doc));
        self.commit(generation)?;
        Ok(self.docs.last().unwrap().as_ref().unwrap())
    }

    /// Re-indexes the shard named `name` from a freshly parsed `tree`,
    /// replacing the damaged file and clearing its quarantine entry.
    pub fn repair_shard(
        &mut self,
        name: &str,
        tree: &Tree,
        dict: &LabelDict,
    ) -> Result<(), CorpusError> {
        let idx = self
            .manifest
            .shards
            .iter()
            .position(|s| s.name == name)
            .ok_or_else(|| {
                CorpusError::Invalid(format!("no shard named '{name}' in the manifest"))
            })?;
        let generation = self.manifest.generation + 1;
        let old = &self.manifest.shards[idx];
        let source = old.source.clone();
        let (doc, meta) = write_shard(
            &self.dir,
            name,
            &old.path.clone(),
            tree,
            dict,
            source.as_deref(),
            generation,
        )?;
        self.manifest.shards[idx] = meta;
        self.docs[idx] = Some(doc);
        self.quarantined.retain(|r| r.name != name);
        self.commit(generation)
    }

    /// Rewrites the manifest at `generation`.
    fn commit(&mut self, generation: u64) -> Result<(), CorpusError> {
        self.manifest.generation = generation;
        self.manifest.store(&self.dir)
    }

    /// The corpus directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The verified manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The current manifest generation.
    pub fn generation(&self) -> u64 {
        self.manifest.generation
    }

    /// Shards listed by the manifest, healthy or not.
    pub fn total_shards(&self) -> usize {
        self.manifest.shards.len()
    }

    /// Shards that passed verification and can be queried.
    pub fn healthy_count(&self) -> usize {
        self.docs.iter().filter(|d| d.is_some()).count()
    }

    /// Whether at least one shard is quarantined.
    pub fn is_degraded(&self) -> bool {
        !self.quarantined.is_empty()
    }

    /// Failure reports for the quarantined shards.
    pub fn quarantined(&self) -> &[ShardReport] {
        &self.quarantined
    }

    /// The healthy shards as `(shard index, name, document)`, in
    /// manifest order. Quarantined shards are skipped.
    pub fn healthy(&self) -> impl Iterator<Item = (usize, &str, &IndexedDocument)> {
        self.docs.iter().enumerate().filter_map(|(i, d)| {
            d.as_ref()
                .map(|doc| (i, self.manifest.shards[i].name.as_str(), doc))
        })
    }

    /// The loaded document of shard `idx` (`None` if quarantined or out
    /// of range).
    pub fn doc(&self, idx: usize) -> Option<&IndexedDocument> {
        self.docs.get(idx).and_then(|d| d.as_ref())
    }

    /// The document name of shard `idx`.
    pub fn shard_name(&self, idx: usize) -> Option<&str> {
        self.manifest.shards.get(idx).map(|s| s.name.as_str())
    }
}

/// Document names become file names; keep them portable and unable to
/// escape the corpus directory.
fn validate_name(name: &str) -> Result<(), CorpusError> {
    let ok = !name.is_empty()
        && name.len() <= 255
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
        && !name.starts_with('.');
    if ok {
        Ok(())
    } else {
        Err(CorpusError::Invalid(format!(
            "invalid document name '{name}': use ASCII letters, digits, '-', '_', '.' \
             (must not start with '.')"
        )))
    }
}

/// Builds, serializes and atomically writes one shard, returning the
/// in-memory document and its manifest record.
fn write_shard(
    dir: &Path,
    name: &str,
    rel: &str,
    tree: &Tree,
    dict: &LabelDict,
    source: Option<&str>,
    generation: u64,
) -> Result<(IndexedDocument, ShardMeta), CorpusError> {
    let doc = IndexedDocument::build(tree, dict);
    let mut bytes = Vec::new();
    doc.write_to(&mut bytes)?;
    let file_crc = crc32_update(0, &bytes);
    let file_size = bytes.len() as u64;
    atomic_write(dir.join(rel), |out| {
        out.write_all(&bytes).map_err(Into::into)
    })?;
    let meta = ShardMeta {
        name: name.to_string(),
        path: rel.to_string(),
        source: source.map(str::to_string),
        file_size,
        file_crc,
        generation,
        n_nodes: tree.len() as u64,
    };
    Ok((doc, meta))
}

/// Checks one shard file against its manifest record. Any failure is a
/// quarantine reason, never a panic or a silent pass.
fn verify_shard(
    meta: &ShardMeta,
    manifest_generation: u64,
    path: &Path,
) -> Result<IndexedDocument, String> {
    if meta.generation > manifest_generation {
        return Err(format!(
            "generation skew: shard written by generation {} but manifest is generation {}",
            meta.generation, manifest_generation
        ));
    }
    let bytes = fs::read(path).map_err(|e| format!("cannot read shard file: {e}"))?;
    if bytes.len() as u64 != meta.file_size {
        return Err(format!(
            "size mismatch: file is {} bytes, manifest records {}",
            bytes.len(),
            meta.file_size
        ));
    }
    let crc = crc32_update(0, &bytes);
    if crc != meta.file_crc {
        return Err(format!(
            "file checksum mismatch (computed {crc:08x}, manifest records {:08x}): \
             torn or bit-rotted shard",
            meta.file_crc
        ));
    }
    // The whole file is already in memory for the CRC pass above, so the
    // decode takes the zero-copy slice path — no second read, no
    // per-field reader calls.
    let doc = IndexedDocument::open_bytes(&bytes)
        .map_err(|e| format!("shard failed .pqi validation: {e}"))?;
    if doc.tree().len() as u64 != meta.n_nodes {
        return Err(format!(
            "node count mismatch: shard has {} nodes, manifest records {}",
            doc.tree().len(),
            meta.n_nodes
        ));
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasm_tree::bracket;

    fn parse(src: &str) -> (Tree, LabelDict) {
        let mut dict = LabelDict::new();
        let tree = bracket::parse(src, &mut dict).unwrap();
        (tree, dict)
    }

    fn sample_corpus(dir: &Path) -> Corpus {
        let mut corpus = Corpus::create(dir).unwrap();
        let (t1, d1) = parse("{dblp{article{title{X1}}}{book{title{X2}}}}");
        corpus.add("docs-a", &t1, &d1, Some("a.xml")).unwrap();
        let (t2, d2) = parse("{dblp{article{author{A}}{title{X1}}}}");
        corpus.add("docs-b", &t2, &d2, None).unwrap();
        corpus
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tasm-corpus-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn manifest_round_trips() {
        let m = Manifest {
            generation: 7,
            shards: vec![ShardMeta {
                name: "x".into(),
                path: "x.pqi".into(),
                source: Some("x.xml".into()),
                file_size: 123,
                file_crc: 0xDEAD_BEEF,
                generation: 6,
                n_nodes: 42,
            }],
        };
        let bytes = m.to_bytes();
        assert_eq!(Manifest::from_bytes(&bytes).unwrap(), m);
    }

    #[test]
    fn every_manifest_cut_and_flip_is_detected() {
        let m = sample_manifest();
        let bytes = m.to_bytes();
        for cut in 0..bytes.len() {
            let err = Manifest::from_bytes(&bytes[..cut]);
            assert!(err.is_err(), "cut at {cut} parsed");
        }
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x40;
            assert!(
                Manifest::from_bytes(&flipped).is_err(),
                "flip at byte {i} parsed"
            );
        }
    }

    fn sample_manifest() -> Manifest {
        Manifest {
            generation: 3,
            shards: vec![ShardMeta {
                name: "d".into(),
                path: "d.pqi".into(),
                source: None,
                file_size: 10,
                file_crc: 1,
                generation: 2,
                n_nodes: 5,
            }],
        }
    }

    #[test]
    fn add_then_open_round_trips() {
        let dir = tmp_dir("roundtrip");
        let corpus = sample_corpus(&dir);
        assert_eq!(corpus.generation(), 3);
        drop(corpus);
        let corpus = Corpus::open(&dir).unwrap();
        assert_eq!(corpus.total_shards(), 2);
        assert_eq!(corpus.healthy_count(), 2);
        assert!(!corpus.is_degraded());
        let names: Vec<&str> = corpus.healthy().map(|(_, n, _)| n).collect();
        assert_eq!(names, ["docs-a", "docs-b"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let dir = tmp_dir("dup");
        let mut corpus = sample_corpus(&dir);
        let (t, d) = parse("{a}");
        let err = corpus.add("docs-a", &t, &d, None).unwrap_err();
        assert!(err.to_string().contains("already exists"), "{err}");
        let err = corpus.add("../evil", &t, &d, None).unwrap_err();
        assert!(err.to_string().contains("invalid document name"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_shard_byte_is_quarantined_not_fatal() {
        let dir = tmp_dir("flip");
        drop(sample_corpus(&dir));
        let shard = dir.join("docs-a.pqi");
        let mut bytes = fs::read(&shard).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&shard, &bytes).unwrap();
        let corpus = Corpus::open(&dir).unwrap();
        assert_eq!(corpus.healthy_count(), 1);
        assert!(corpus.is_degraded());
        let report = &corpus.quarantined()[0];
        assert_eq!(report.name, "docs-a");
        assert!(
            report.error.contains("checksum mismatch"),
            "{}",
            report.error
        );
        // The healthy shard is still fully loaded.
        assert_eq!(corpus.healthy().count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_and_missing_shards_are_quarantined() {
        let dir = tmp_dir("trunc");
        drop(sample_corpus(&dir));
        let a = dir.join("docs-a.pqi");
        let bytes = fs::read(&a).unwrap();
        fs::write(&a, &bytes[..bytes.len() - 3]).unwrap();
        fs::remove_file(dir.join("docs-b.pqi")).unwrap();
        let corpus = Corpus::open(&dir).unwrap();
        assert_eq!(corpus.healthy_count(), 0);
        assert_eq!(corpus.quarantined().len(), 2);
        assert!(corpus.quarantined()[0].error.contains("size mismatch"));
        assert!(corpus.quarantined()[1].error.contains("cannot read"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repair_restores_a_quarantined_shard() {
        let dir = tmp_dir("repair");
        drop(sample_corpus(&dir));
        let shard = dir.join("docs-a.pqi");
        let clean = fs::read(&shard).unwrap();
        let mut bytes = clean.clone();
        bytes[20] ^= 0xFF;
        fs::write(&shard, &bytes).unwrap();
        let mut corpus = Corpus::open(&dir).unwrap();
        assert!(corpus.is_degraded());
        let (t1, d1) = parse("{dblp{article{title{X1}}}{book{title{X2}}}}");
        corpus.repair_shard("docs-a", &t1, &d1).unwrap();
        assert!(!corpus.is_degraded());
        // Byte-identical to the original shard: the build is
        // deterministic, so repair restores exactly what was lost.
        assert_eq!(fs::read(&shard).unwrap(), clean);
        let corpus = Corpus::open(&dir).unwrap();
        assert_eq!(corpus.healthy_count(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generation_skew_is_quarantined() {
        let dir = tmp_dir("skew");
        drop(sample_corpus(&dir));
        let mut manifest = Manifest::load(&dir).unwrap();
        manifest.shards[0].generation = manifest.generation + 5;
        manifest.store(&dir).unwrap();
        let corpus = Corpus::open(&dir).unwrap();
        assert_eq!(corpus.healthy_count(), 1);
        assert!(corpus.quarantined()[0].error.contains("generation skew"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_simulated_orphans_are_ignored() {
        // A crash between the shard write and the manifest write leaves
        // an orphaned shard file and a stale temp file; the previous
        // generation must still open clean.
        let dir = tmp_dir("orphan");
        let corpus = sample_corpus(&dir);
        let generation = corpus.generation();
        drop(corpus);
        fs::write(dir.join("docs-c.pqi"), b"half-written orphan").unwrap();
        fs::write(dir.join("MANIFEST.tmp.9999"), b"interrupted rename").unwrap();
        let corpus = Corpus::open(&dir).unwrap();
        assert_eq!(corpus.generation(), generation);
        assert_eq!(corpus.total_shards(), 2);
        assert_eq!(corpus.healthy_count(), 2);
        assert!(!corpus.is_degraded());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_to_clobber() {
        let dir = tmp_dir("clobber");
        drop(sample_corpus(&dir));
        let err = Corpus::create(&dir).unwrap_err();
        assert!(err.to_string().contains("already holds a corpus"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
