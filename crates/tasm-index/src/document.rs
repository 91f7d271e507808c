//! [`IndexedDocument`]: one document materialized with its `.pqi` label
//! index (frequency-ordered dictionary, per-label postings, checksummed
//! postings section). See the crate docs for the file format.

use std::io::Write;
use std::path::Path;

use tasm_tree::crc::crc32_update;
use tasm_tree::postfile::{PostFileError, MAGIC_V2};
use tasm_tree::{CandidateSweep, LabelDict, LabelId, NodeId, Tree};

/// A document materialized together with its label index, as stored in
/// a `.pqi` file.
///
/// Label ids are **index-local**: dense, frequency-ordered ids minted by
/// [`build`](IndexedDocument::build) (or read back from the file), not
/// the ids of the dictionary the document was first parsed with. Encode
/// queries with [`encode_queries`](IndexedDocument::encode_queries) before
/// matching against the indexed tree.
#[derive(Debug, Clone)]
pub struct IndexedDocument {
    tree: Tree,
    dict: LabelDict,
    /// `postings[l]` = ascending postorder positions (1-based) of the
    /// nodes labeled `l`. Indexed by the dense frequency-ordered id.
    postings: Vec<Vec<u32>>,
}

impl IndexedDocument {
    /// Builds the index for `tree` in memory, remapping its labels to
    /// frequency-ordered dense ids (most frequent label gets id 0; ties
    /// break by the original id, so the result is deterministic).
    ///
    /// `dict` must be the dictionary `tree`'s labels were interned with;
    /// labels interned there but unused by `tree` are kept (with empty
    /// postings), so round-tripping through a file preserves them.
    pub fn build(tree: &Tree, dict: &LabelDict) -> IndexedDocument {
        let n_labels = dict.len();
        let mut freq = vec![0u32; n_labels];
        for l in tree.labels() {
            freq[l.index()] += 1;
        }
        // Permutation old id -> new id by descending frequency.
        let mut by_freq: Vec<u32> = (0..n_labels as u32).collect();
        by_freq.sort_by_key(|&old| (std::cmp::Reverse(freq[old as usize]), old));
        let mut remap = vec![0u32; n_labels];
        let mut new_dict = LabelDict::with_capacity(n_labels);
        for (new, &old) in by_freq.iter().enumerate() {
            remap[old as usize] = new as u32;
            new_dict.intern(dict.resolve(LabelId(old)));
        }
        let labels: Vec<LabelId> = tree
            .labels()
            .iter()
            .map(|l| LabelId(remap[l.index()]))
            .collect();
        let mut postings: Vec<Vec<u32>> = (0..n_labels).map(|_| Vec::new()).collect();
        for (i, l) in labels.iter().enumerate() {
            postings[l.index()].push(i as u32 + 1);
        }
        let tree = Tree::from_postorder_unchecked(labels, tree.sizes().to_vec());
        IndexedDocument {
            tree,
            dict: new_dict,
            postings,
        }
    }

    /// Opens a `.pqi` file through the zero-copy slice path: one
    /// `fs::read` into a buffer, then [`open_bytes`](Self::open_bytes)
    /// over it — no per-field reader calls, and the postings checksum
    /// is computed in a single pass over the buffer.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, PostFileError> {
        let bytes = std::fs::read(path)?;
        Self::open_bytes(&bytes)
    }

    /// Decodes an index from one in-memory buffer through a borrowed
    /// [`PqiView`]: bulk slice decoding instead of per-field reader
    /// calls, with the postings checksum computed in **one** pass over
    /// the postings slice. The file is validated fully: the entry
    /// section must be complete (a truncated file is an error, never a
    /// silently smaller document) and the postings must agree with the
    /// entry section label by label. Every truncation, structural
    /// inconsistency and checksum mismatch is an error, never a silent
    /// misparse (pinned by the corruption tests).
    pub fn open_bytes(bytes: &[u8]) -> Result<Self, PostFileError> {
        Self::from_view(&PqiView::parse(bytes)?)
    }

    /// Materializes a parsed [`PqiView`] into an owned document,
    /// running the full structural + checksum validation against the
    /// borrowed sections.
    pub fn from_view(view: &PqiView<'_>) -> Result<Self, PostFileError> {
        let mut dict = LabelDict::with_capacity(view.labels.len());
        for (i, name) in view.labels.iter().enumerate() {
            let id = dict.intern(name);
            if id.index() != i {
                return Err(PostFileError::Format(format!("duplicate label {name}")));
            }
        }
        // Bulk-decode the fixed-width entry section. The postings checksum
        // does not cover the entries, so every label id is range-checked
        // here before anything indexes by it.
        let mut entries = Vec::with_capacity(view.records.len() / 8);
        for (i, rec) in view.records.chunks_exact(8).enumerate() {
            let label = u32::from_le_bytes(rec[..4].try_into().unwrap());
            let size = u32::from_le_bytes(rec[4..].try_into().unwrap());
            if label as usize >= dict.len() {
                return Err(PostFileError::Format(format!(
                    "entry {} has label id {label}, but the file names {} labels",
                    i + 1,
                    dict.len()
                )));
            }
            entries.push((LabelId(label), size));
        }
        let tree = Tree::from_postorder(entries)
            .map_err(|e| PostFileError::Format(format!("invalid postorder entries: {e}")))?;

        let n = tree.len() as u64;
        let n_labels = dict.len();
        let mut freq = vec![0u32; n_labels];
        for l in tree.labels() {
            freq[l.index()] += 1;
        }
        // Walk the postings section structurally to find its extent,
        // cross-checking every list against the entry section.
        let tail = view.tail;
        let mut cur = SliceCursor { buf: tail, pos: 0 };
        let mut postings: Vec<Vec<u32>> = Vec::with_capacity(n_labels);
        let mut covered = 0u64;
        for (label, &expected) in freq.iter().enumerate() {
            let len = cur.u32("postings length")?;
            if u64::from(len) > n || len != expected {
                return Err(PostFileError::Format(format!(
                    "postings of label {label} list {len} nodes, entries have {expected}"
                )));
            }
            let raw = cur.take(len as usize * 4, "postings entry")?;
            let mut list = Vec::with_capacity(len as usize);
            let mut prev = 0u32;
            for chunk in raw.chunks_exact(4) {
                let pos = u32::from_le_bytes(chunk.try_into().unwrap());
                if pos <= prev || u64::from(pos) > n {
                    return Err(PostFileError::Format(format!(
                        "postings of label {label} are not ascending positions in 1..={n}"
                    )));
                }
                if tree.label(NodeId::new(pos)).index() != label {
                    return Err(PostFileError::Format(format!(
                        "postings of label {label} point at a node labeled differently"
                    )));
                }
                prev = pos;
                list.push(pos);
            }
            covered += u64::from(len);
            postings.push(list);
        }
        if covered != n {
            return Err(PostFileError::Format(format!(
                "postings cover {covered} of {n} nodes"
            )));
        }
        // One crc32 call over the whole postings slice — the streaming
        // path hashes the same bytes 4 at a time.
        let computed = crc32_update(0, &tail[..cur.pos]);
        let stored = cur.u32("postings checksum")?;
        if stored != computed {
            return Err(PostFileError::Corrupt(format!(
                "postings checksum mismatch (stored {stored:08x}, computed {computed:08x}): \
                 torn or bit-rotted index write — rebuild with `tasm index`"
            )));
        }
        Ok(IndexedDocument {
            tree,
            dict,
            postings,
        })
    }

    /// Serializes the index in the `.pqi` (version 2) format.
    pub fn write_to<W: Write>(&self, mut out: W) -> Result<(), PostFileError> {
        out.write_all(MAGIC_V2)?;
        out.write_all(&(self.tree.len() as u64).to_le_bytes())?;
        out.write_all(&(self.dict.len() as u64).to_le_bytes())?;
        for (_, name) in self.dict.iter() {
            let bytes = name.as_bytes();
            out.write_all(&(bytes.len() as u32).to_le_bytes())?;
            out.write_all(bytes)?;
        }
        for (label, size) in self.tree.labels().iter().zip(self.tree.sizes()) {
            out.write_all(&label.0.to_le_bytes())?;
            out.write_all(&size.to_le_bytes())?;
        }
        let mut crc = 0u32;
        for list in &self.postings {
            let len = (list.len() as u32).to_le_bytes();
            crc = crc32_update(crc, &len);
            out.write_all(&len)?;
            for pos in list {
                let bytes = pos.to_le_bytes();
                crc = crc32_update(crc, &bytes);
                out.write_all(&bytes)?;
            }
        }
        out.write_all(&crc.to_le_bytes())?;
        out.flush()?;
        Ok(())
    }

    /// Convenience: builds the index for `tree` and writes it to `path`
    /// **atomically** (temp file + fsync + rename, see
    /// [`tasm_tree::postfile::atomic_write`]): a crash mid-write leaves
    /// the previous index intact, never a torn `.pqi`.
    pub fn save(
        path: impl AsRef<Path>,
        tree: &Tree,
        dict: &LabelDict,
    ) -> Result<IndexedDocument, PostFileError> {
        let idx = IndexedDocument::build(tree, dict);
        tasm_tree::postfile::atomic_write(path, |out| idx.write_to(out))?;
        Ok(idx)
    }

    /// The materialized document, labels in index-local ids.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// The frequency-ordered label dictionary.
    pub fn dict(&self) -> &LabelDict {
        &self.dict
    }

    /// Document frequency of a label (0 for ids outside the dictionary,
    /// e.g. the fresh ids [`encode_queries`](Self::encode_queries) gives
    /// query labels the document lacks).
    pub fn frequency(&self, label: LabelId) -> u32 {
        self.postings
            .get(label.index())
            .map_or(0, |p| p.len() as u32)
    }

    /// Ascending postorder positions of the nodes labeled `label`
    /// (empty for ids outside the dictionary, such as the fresh ids of
    /// query-only labels).
    pub fn postings(&self, label: LabelId) -> &[u32] {
        self.postings.get(label.index()).map_or(&[], |p| p)
    }

    /// Encodes one query into this index's label space, as
    /// [`encode_queries`](Self::encode_queries) does for a batch.
    ///
    /// The returned dictionary is a copy of the index's own
    /// [`dict`](Self::dict). It does **not** resolve the fresh ids of
    /// labels the document lacks; those resolve through `src_dict` (see
    /// [`LabelDict::encode_tree`]). The copy costs O(labels), so query
    /// paths call `encode_queries` instead; only the end-to-end
    /// benchmark (`perfbench/`) still calls this form, and it discards
    /// the dictionary.
    pub fn encode_query(&self, query: &Tree, src_dict: &LabelDict) -> (Tree, LabelDict) {
        (self.dict.encode_tree(query, src_dict), self.dict.clone())
    }

    /// Encodes queries parsed with any dictionary `src_dict` into this
    /// index's label space through [`LabelDict::encode_tree`], leaving
    /// the index untouched. Labels the document contains map to their
    /// index ids; each label it lacks gets a fresh id past the
    /// dictionary (empty postings, zero frequency), the same one for
    /// every query of the batch. O(Σ|Q|), independent of the number of
    /// labels in the index.
    pub fn encode_queries(&self, queries: &[&Tree], src_dict: &LabelDict) -> Vec<Tree> {
        queries
            .iter()
            .map(|q| self.dict.encode_tree(q, src_dict))
            .collect()
    }

    /// Computes the candidate set `cand(T, τ)` (Def. 9) — the maximal
    /// subtrees of at most `tau` nodes, as `(lml, root)` document
    /// postorder spans in document order — from the subtree-size column
    /// alone, plus the number of nodes it examined to do so.
    ///
    /// Unlike the ring-buffer scan (one pass over all `n` nodes), the
    /// reverse sweep over the size column ([`CandidateSweep`]) jumps
    /// over each candidate from its root, so it examines only the nodes
    /// **above** the candidate frontier plus the candidate roots
    /// themselves — typically a small fraction of the document.
    ///
    /// # Panics
    ///
    /// Panics if `tau == 0`; the candidate set is defined for `τ >= 1`
    /// (Theorem 3 thresholds are always positive).
    pub fn candidate_spans(&self, tau: u32) -> (Vec<(u32, u32)>, u64) {
        let mut sweep = CandidateSweep::new(self.tree.view(), tau);
        let mut spans: Vec<(u32, u32)> = sweep.by_ref().collect();
        spans.reverse();
        let examined = sweep.spine() + spans.len() as u64;
        (spans, examined)
    }

    /// For every span of `spans` (disjoint, in document order): the size
    /// of the label-multiset intersection between `query` and the
    /// document nodes inside the span — `Σ_l min(multiplicity in Q,
    /// occurrences in the span)`, the `common` of the label-histogram
    /// lower bound `δ(Q, S) >= |Q| − common` that holds for **every**
    /// subtree `S` inside the span.
    ///
    /// `query` must be encoded in this index's label space (see
    /// [`encode_queries`](Self::encode_queries)). The walk touches only the
    /// postings of the query's labels, rarest label first — `O(Σ_l
    /// |postings(l)| + |spans|)` per distinct query label, independent
    /// of the document size.
    pub fn region_common(&self, spans: &[(u32, u32)], query: &Tree) -> Vec<u32> {
        let mut common = vec![0u32; spans.len()];
        // Distinct query labels with multiplicities, rarest first.
        let mut hist: Vec<(LabelId, u32)> = Vec::new();
        let mut sorted: Vec<LabelId> = query.labels().to_vec();
        sorted.sort_unstable();
        for l in sorted {
            match hist.last_mut() {
                Some((last, count)) if *last == l => *count += 1,
                _ => hist.push((l, 1)),
            }
        }
        hist.sort_by_key(|&(l, _)| (self.frequency(l), l));
        for &(label, multiplicity) in &hist {
            let postings = self.postings(label);
            if postings.is_empty() {
                continue;
            }
            let mut s = 0usize;
            let mut run = 0u32; // occurrences inside spans[s]
            for &pos in postings {
                while s < spans.len() && spans[s].1 < pos {
                    common[s] += run.min(multiplicity);
                    run = 0;
                    s += 1;
                }
                if s == spans.len() {
                    break;
                }
                if pos >= spans[s].0 {
                    run += 1;
                }
            }
            if s < spans.len() {
                common[s] += run.min(multiplicity);
            }
        }
        common
    }
}

/// Borrowed view of one `.pqi` (version-2) buffer: the header decoded,
/// every section a slice into the caller's bytes — nothing copied yet.
///
/// This is the **zero-copy seam**: [`parse`](PqiView::parse) does only
/// bounds-checked section slicing (magic, counts, label names, entry
/// and postings extents), so it works unchanged over any contiguous
/// byte source — a `fs::read` buffer today, an `mmap` region tomorrow.
/// Full structural validation and the postings checksum run in
/// [`IndexedDocument::from_view`], which materializes the owned
/// document; a future mmap-resident document would keep the view and
/// serve postings straight from these slices instead.
#[derive(Debug)]
pub struct PqiView<'a> {
    /// Node count from the header.
    n_nodes: u64,
    /// Label names in id order (frequency order in a v2 file), borrowed
    /// from the buffer.
    labels: Vec<&'a str>,
    /// The fixed-width entry section: `n_nodes × (u32 label, u32 size)`.
    records: &'a [u8],
    /// Postings lists plus the trailing checksum (the postings extent is
    /// only known after walking the lengths, which `from_view` does).
    tail: &'a [u8],
}

impl<'a> PqiView<'a> {
    /// Parses the header and section bounds of a version-2 buffer.
    /// Version-1 files are rejected with guidance to run `tasm index`
    /// (they carry no postings).
    pub fn parse(bytes: &'a [u8]) -> Result<Self, PostFileError> {
        use tasm_tree::postfile::MAGIC_V1;
        let mut cur = SliceCursor { buf: bytes, pos: 0 };
        let magic = cur.take(MAGIC_V2.len(), "magic")?;
        if magic == MAGIC_V1 {
            return Err(PostFileError::Format(
                "not an indexed file: version 1 has no postings (run `tasm index`)".into(),
            ));
        }
        if magic != MAGIC_V2 {
            return Err(PostFileError::Format(
                "bad magic; not a TASMPQ1/TASMPQ2 file".into(),
            ));
        }
        let n_nodes = cur.u64("node count")?;
        let n_labels = cur.u64("label count")?;
        // Cap the pre-allocation: a torn header can claim any count, and
        // the takes below will catch the lie before the vec grows far.
        let mut labels = Vec::with_capacity(usize::try_from(n_labels).unwrap_or(0).min(1 << 16));
        for i in 0..n_labels {
            let len = cur.u32(&format!("length of label {i}"))? as usize;
            if len > 1 << 24 {
                return Err(PostFileError::Format(format!("label {i} is {len} bytes")));
            }
            let raw = cur.take(len, &format!("label {i}"))?;
            let name = std::str::from_utf8(raw)
                .map_err(|_| PostFileError::Format(format!("label {i} is not UTF-8")))?;
            labels.push(name);
        }
        let record_bytes = usize::try_from(n_nodes)
            .ok()
            .and_then(|n| n.checked_mul(8))
            .unwrap_or(usize::MAX);
        let records = cur.take(record_bytes, "entry section")?;
        let tail = &bytes[cur.pos..];
        Ok(PqiView {
            n_nodes,
            labels,
            records,
            tail,
        })
    }

    /// Node count the header promises.
    pub fn n_nodes(&self) -> u64 {
        self.n_nodes
    }

    /// Borrowed label names in id order.
    pub fn labels(&self) -> &[&'a str] {
        &self.labels
    }

    /// The raw fixed-width entry section.
    pub fn records(&self) -> &'a [u8] {
        self.records
    }
}

/// Bounds-checked little-endian slice cursor; a short buffer is the
/// same "truncated" error the streaming reader reports.
struct SliceCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SliceCursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], PostFileError> {
        if self.buf.len() - self.pos < n {
            return Err(PostFileError::Format(format!(
                "indexed file truncated while reading {what}"
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self, what: &str) -> Result<u32, PostFileError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, PostFileError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasm_tree::bracket;
    use tasm_tree::postfile::PostFileReader;
    use tasm_tree::PostorderQueue;

    fn sample() -> (Tree, LabelDict) {
        let mut dict = LabelDict::new();
        let t = bracket::parse(
            "{dblp{article{auth{John}}{title{X1}}}{proceedings{conf{VLDB}}\
             {article{auth{Peter}}{title{X3}}}{article{auth{Mike}}{title{X4}}}}\
             {book{title{X2}}}}",
            &mut dict,
        )
        .unwrap();
        (t, dict)
    }

    /// Reference candidate set via the parent array (mirrors
    /// `tasm-core`'s span derivation).
    fn reference_spans(doc: &Tree, tau: u32) -> Vec<(u32, u32)> {
        let parents = doc.parents();
        doc.nodes()
            .filter(|&id| {
                doc.size(id) <= tau && parents[id.index()].is_none_or(|p| doc.size(p) > tau)
            })
            .map(|id| (doc.lml(id).post(), id.post()))
            .collect()
    }

    /// Brute-force label-multiset intersection of `query` and a span.
    fn reference_common(doc: &Tree, query: &Tree, span: (u32, u32)) -> u32 {
        let mut q: Vec<LabelId> = query.labels().to_vec();
        q.sort_unstable();
        let mut s: Vec<LabelId> = (span.0..=span.1)
            .map(|p| doc.label(NodeId::new(p)))
            .collect();
        s.sort_unstable();
        let (mut i, mut j, mut common) = (0, 0, 0);
        while i < q.len() && j < s.len() {
            match q[i].cmp(&s[j]) {
                std::cmp::Ordering::Equal => {
                    common += 1;
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
            }
        }
        common
    }

    #[test]
    fn build_orders_labels_by_frequency() {
        let (t, dict) = sample();
        let idx = IndexedDocument::build(&t, &dict);
        // Frequencies are non-increasing in id order.
        let freqs: Vec<u32> = (0..idx.dict().len() as u32)
            .map(|i| idx.frequency(LabelId(i)))
            .collect();
        assert!(freqs.windows(2).all(|w| w[0] >= w[1]), "{freqs:?}");
        // "title" (4 occurrences) is the most frequent label.
        assert_eq!(idx.dict().resolve(LabelId(0)), "title");
        // The remapped tree still resolves to the same label strings.
        for id in t.nodes() {
            assert_eq!(
                idx.dict().resolve(idx.tree().label(id)),
                dict.resolve(t.label(id))
            );
            assert_eq!(idx.tree().size(id), t.size(id));
        }
    }

    #[test]
    fn postings_invert_the_tree() {
        let (t, dict) = sample();
        let idx = IndexedDocument::build(&t, &dict);
        let mut covered = 0usize;
        for i in 0..idx.dict().len() as u32 {
            let label = LabelId(i);
            for &pos in idx.postings(label) {
                assert_eq!(idx.tree().label(NodeId::new(pos)), label);
            }
            assert!(idx.postings(label).windows(2).all(|w| w[0] < w[1]));
            covered += idx.postings(label).len();
        }
        assert_eq!(covered, t.len());
    }

    #[test]
    fn file_round_trip() {
        let (t, dict) = sample();
        let idx = IndexedDocument::build(&t, &dict);
        let mut bytes = Vec::new();
        idx.write_to(&mut bytes).unwrap();
        let back = IndexedDocument::open_bytes(&bytes).unwrap();
        assert_eq!(back.tree(), idx.tree());
        assert_eq!(back.postings, idx.postings);
        for (id, name) in idx.dict().iter() {
            assert_eq!(back.dict().resolve(id), name);
        }
    }

    #[test]
    fn view_exposes_the_borrowed_sections() {
        let (t, dict) = sample();
        let idx = IndexedDocument::build(&t, &dict);
        let mut bytes = Vec::new();
        idx.write_to(&mut bytes).unwrap();
        let view = PqiView::parse(&bytes).unwrap();
        assert_eq!(view.n_nodes(), t.len() as u64);
        assert_eq!(view.labels().len(), dict.len());
        assert_eq!(view.records().len(), t.len() * 8);
        for (i, name) in view.labels().iter().enumerate() {
            assert_eq!(*name, idx.dict().resolve(LabelId(i as u32)));
        }
    }

    #[test]
    fn pqi_streams_through_the_v1_reader() {
        // The entry section of a .pqi is a valid postorder stream: the
        // streaming reader must yield the same (relabeled) tree.
        let (t, dict) = sample();
        let idx = IndexedDocument::build(&t, &dict);
        let mut bytes = Vec::new();
        idx.write_to(&mut bytes).unwrap();
        let mut reader = PostFileReader::new(bytes.as_slice()).unwrap();
        assert_eq!(reader.version(), 2);
        let streamed = tasm_tree::collect_tree(&mut reader).unwrap();
        assert_eq!(&streamed, idx.tree());
        assert_eq!(reader.integrity_error(), None);
    }

    #[test]
    fn truncated_entries_are_an_error() {
        let (t, dict) = sample();
        let idx = IndexedDocument::build(&t, &dict);
        let mut bytes = Vec::new();
        idx.write_to(&mut bytes).unwrap();
        // Cut inside the entry section: 22 nodes * 8 bytes from the end
        // of the entries = postings size; chop past it.
        let postings_bytes: usize = idx.postings.iter().map(|p| 4 + 4 * p.len()).sum();
        bytes.truncate(bytes.len() - postings_bytes - 4);
        let msg = IndexedDocument::open_bytes(&bytes).unwrap_err().to_string();
        assert!(msg.contains("truncated"), "{msg}");
    }

    #[test]
    fn truncated_postings_are_an_error() {
        let (t, dict) = sample();
        let idx = IndexedDocument::build(&t, &dict);
        let mut bytes = Vec::new();
        idx.write_to(&mut bytes).unwrap();
        bytes.truncate(bytes.len() - 2);
        let err = IndexedDocument::open_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn corrupted_postings_byte_fails_the_checksum() {
        let (t, dict) = sample();
        let idx = IndexedDocument::build(&t, &dict);
        let mut bytes = Vec::new();
        idx.write_to(&mut bytes).unwrap();
        let postings_bytes: usize = idx.postings.iter().map(|p| 4 + 4 * p.len()).sum();
        let postings_start = bytes.len() - 4 - postings_bytes;
        // Flip one byte in every postings position: each must be caught,
        // either by the structural cross-checks or by the checksum —
        // never accepted silently.
        for at in postings_start..bytes.len() {
            let mut broken = bytes.clone();
            broken[at] ^= 0x20;
            let err =
                IndexedDocument::open_bytes(&broken).expect_err(&format!("byte {at} flipped"));
            assert!(
                matches!(err, PostFileError::Corrupt(_) | PostFileError::Format(_)),
                "byte {at}: {err}"
            );
        }
        // At least the length byte of the first list slips past the
        // structural checks only when semantically plausible; verify the
        // checksum specifically catches a pure trailer flip.
        let mut broken = bytes.clone();
        let last = broken.len() - 1;
        broken[last] ^= 0x01;
        let err = IndexedDocument::open_bytes(&broken).unwrap_err();
        assert!(matches!(err, PostFileError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn out_of_range_entry_label_is_a_format_error() {
        let (t, dict) = sample();
        let idx = IndexedDocument::build(&t, &dict);
        let mut bytes = Vec::new();
        idx.write_to(&mut bytes).unwrap();
        let entries_start = bytes.len()
            - 4
            - idx.postings.iter().map(|p| 4 + 4 * p.len()).sum::<usize>()
            - 8 * t.len();
        for bad in [dict.len() as u32, 0xFFFF_FFF0] {
            let mut broken = bytes.clone();
            broken[entries_start..entries_start + 4].copy_from_slice(&bad.to_le_bytes());
            let err = IndexedDocument::open_bytes(&broken).unwrap_err();
            assert!(matches!(err, PostFileError::Format(_)), "{err}");
            assert!(err.to_string().contains("label id"), "{err}");
        }
    }

    #[test]
    fn missing_checksum_is_a_truncation_error() {
        let (t, dict) = sample();
        let idx = IndexedDocument::build(&t, &dict);
        let mut bytes = Vec::new();
        idx.write_to(&mut bytes).unwrap();
        bytes.truncate(bytes.len() - 4); // drop the whole trailer
        let err = IndexedDocument::open_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn save_is_atomic_and_verifies_on_open() {
        let (t, dict) = sample();
        let path = std::env::temp_dir().join(format!("tasm_idx_{}.pqi", std::process::id()));
        IndexedDocument::save(&path, &t, &dict).unwrap();
        let back = IndexedDocument::open(&path).unwrap();
        assert_eq!(back.tree().len(), t.len());
        // Overwrite in place: still whole, still verifiable.
        IndexedDocument::save(&path, &t, &dict).unwrap();
        assert!(IndexedDocument::open(&path).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_files_are_rejected_with_guidance() {
        let (t, dict) = sample();
        let mut bytes = Vec::new();
        let mut q = tasm_tree::TreeQueue::new(&t);
        tasm_tree::postfile::write_postfile(&mut bytes, &dict, &mut q, t.len() as u64).unwrap();
        let err = IndexedDocument::open_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("tasm index"), "{err}");
    }

    #[test]
    fn candidate_spans_match_reference() {
        let (t, dict) = sample();
        let idx = IndexedDocument::build(&t, &dict);
        for tau in 1..=22u32 {
            let (spans, examined) = idx.candidate_spans(tau);
            assert_eq!(spans, reference_spans(idx.tree(), tau), "tau = {tau}");
            // The walk examines the spine (every node over tau) plus the
            // candidate roots: never more than the whole document.
            let spine = t.nodes().filter(|&id| t.size(id) > tau).count();
            assert_eq!(examined, (spine + spans.len()) as u64, "tau = {tau}");
            assert!(examined <= t.len() as u64, "tau = {tau}");
        }
        // Whole document fits: one span, one node examined.
        let (spans, examined) = idx.candidate_spans(22);
        assert_eq!(spans, vec![(1, 22)]);
        assert_eq!(examined, 1);
    }

    #[test]
    fn region_common_matches_brute_force() {
        let (t, dict) = sample();
        let idx = IndexedDocument::build(&t, &dict);
        let mut qdict = LabelDict::new();
        let q = bracket::parse("{article{auth{John}}{title{X9}}}", &mut qdict).unwrap();
        let q = idx.encode_queries(&[&q], &qdict).remove(0);
        for tau in 1..=22u32 {
            let (spans, _) = idx.candidate_spans(tau);
            let common = idx.region_common(&spans, &q);
            for (i, &span) in spans.iter().enumerate() {
                let want = reference_common(idx.tree(), &q, span);
                assert_eq!(common[i], want, "tau = {tau}, span {span:?}");
            }
        }
    }

    #[test]
    fn encode_query_handles_unknown_labels() {
        let (t, dict) = sample();
        let idx = IndexedDocument::build(&t, &dict);
        let n_labels = idx.dict().len();
        let mut qdict = LabelDict::new();
        let q = bracket::parse("{article{unseen_label}{other_unseen}}", &mut qdict).unwrap();
        let q2 = bracket::parse("{unseen_label{article}}", &mut qdict).unwrap();
        let enc = idx.encode_queries(&[&q, &q2], &qdict);
        assert_eq!(idx.dict().len(), n_labels, "the index is read-only");
        let (unseen, other, article) = (
            enc[0].label(NodeId::new(1)),
            enc[0].label(NodeId::new(2)),
            enc[0].label(NodeId::new(3)),
        );
        // The known label keeps the index id.
        assert_eq!(article, idx.dict().get("article").unwrap());
        assert!(idx.frequency(article) > 0);
        // Unknown labels get fresh ids past the dictionary: len + source id.
        for (id, name) in [(unseen, "unseen_label"), (other, "other_unseen")] {
            assert_eq!(id.index(), n_labels + qdict.get(name).unwrap().index());
            assert!(idx.dict().try_resolve(id).is_none());
            assert_eq!(idx.frequency(id), 0);
            assert_eq!(idx.postings(id), &[] as &[u32]);
        }
        assert_ne!(unseen, other);
        // One label space across the batch.
        assert_eq!(enc[1].label(NodeId::new(2)), unseen);
        assert_eq!(enc[1].label(NodeId::new(1)), article);
        // The single-query form encodes identically.
        assert_eq!(idx.encode_query(&q, &qdict).0, enc[0]);
    }

    /// Name-resolved canonical form of a tree: the id remapping between
    /// v1 dictionary order and v2 frequency order must never change
    /// *which* labels sit where.
    fn canonical(t: &Tree, dict: &LabelDict) -> Vec<(String, u32)> {
        t.nodes()
            .map(|id| (dict.resolve(t.label(id)).to_string(), t.size(id)))
            .collect()
    }

    fn random_tree(seed: u64, n: usize, n_labels: u32) -> (Tree, LabelDict) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dict = LabelDict::new();
        let mut labels = Vec::with_capacity(n);
        let mut parent: Vec<Option<usize>> = vec![None; n];
        for (i, p) in parent.iter_mut().enumerate().skip(1) {
            *p = Some(rng.gen_range(0..i));
        }
        for _ in 0..n {
            labels.push(dict.intern(&format!("w{}", rng.gen_range(0..n_labels))));
        }
        // Postorder by DFS from node 0 (random attachment order keeps
        // children after parents, so reverse-iterate to fill sizes).
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[*p].push(i);
            }
        }
        let mut post_labels = Vec::with_capacity(n);
        let mut post_sizes = Vec::with_capacity(n);
        fn rec(
            node: usize,
            children: &[Vec<usize>],
            labels: &[LabelId],
            out_l: &mut Vec<LabelId>,
            out_s: &mut Vec<u32>,
        ) -> u32 {
            let mut size = 1;
            for &c in &children[node] {
                size += rec(c, children, labels, out_l, out_s);
            }
            out_l.push(labels[node]);
            out_s.push(size);
            size
        }
        rec(0, &children, &labels, &mut post_labels, &mut post_sizes);
        let t = Tree::from_postorder_unchecked(post_labels, post_sizes);
        (t, dict)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// `.pqi` round trip on random trees: build → write → read back
        /// must preserve the name-resolved document, the postings
        /// invariants and the candidate spans for every τ — and the
        /// written bytes must still stream through the v1 reader path
        /// (forward compatibility of the shared header).
        #[test]
        fn pqi_round_trip_preserves_the_document(
            seed in proptest::prelude::any::<u64>(),
            n in 1usize..120,
            n_labels in 1u32..12,
        ) {
            let (t, dict) = random_tree(seed, n, n_labels);
            let idx = IndexedDocument::build(&t, &dict);
            let mut bytes = Vec::new();
            idx.write_to(&mut bytes).expect("write");
            let back = IndexedDocument::open_bytes(&bytes).expect("read");
            proptest::prop_assert_eq!(
                canonical(back.tree(), back.dict()),
                canonical(&t, &dict)
            );
            for label in 0..back.dict().len() as u32 {
                let id = LabelId(label);
                proptest::prop_assert_eq!(
                    back.postings(id),
                    idx.postings(id),
                    "postings of {}", back.dict().resolve(id)
                );
            }
            // The v1 streaming reader must accept the v2 file and see
            // the same document (it ignores the postings suffix).
            let mut reader = PostFileReader::new(bytes.as_slice()).expect("v2 magic");
            let streamed = tasm_tree::collect_tree(&mut reader).expect("stream v2 entries");
            proptest::prop_assert_eq!(reader.version(), 2);
            let sdict = reader.into_inner().1;
            proptest::prop_assert_eq!(canonical(&streamed, &sdict), canonical(&t, &dict));
            for tau in [1u32, 2, 5, n as u32] {
                let (a, _) = idx.candidate_spans(tau.max(1));
                let (b, _) = back.candidate_spans(tau.max(1));
                proptest::prop_assert_eq!(a, b, "tau = {}", tau);
            }
        }
    }
}
