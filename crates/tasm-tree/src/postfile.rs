//! A binary on-disk format for postorder queues — the "persistent XML
//! store" angle of the paper.
//!
//! Sec. VIII argues the postorder queue "can be implemented by any XML
//! processing or storage system that allows an efficient postorder
//! traversal", citing interval-encoded stores \[24\]. This module is such a
//! store: parse a document once, persist it as a compact postorder file,
//! and afterwards stream TASM queries straight from disk without
//! re-parsing XML (typically several times smaller and faster to scan).
//!
//! # Format (version 1, little-endian)
//!
//! ```text
//! magic   "TASMPQ1\n"                      8 bytes
//! n_nodes u64
//! n_labels u64
//! labels  n_labels × (u32 len, bytes)       the dictionary, id order
//! entries n_nodes × (u32 label, u32 size)   postorder
//! trailer u32 crc32, "PQC1"                 optional integrity trailer
//! ```
//!
//! The whole dictionary is stored in the header so readers can stream the
//! fixed-width entry section with O(1) state per node.
//!
//! The trailer is a CRC-32 of the entry section followed by the
//! self-identifying magic `"PQC1"`. [`write_postfile`] always emits it;
//! the reader verifies it after the last entry and reports a mismatch
//! through [`PostorderQueue::integrity_error`]. Files written before the
//! trailer existed simply end after the entries — the reader accepts
//! them unverified (their entries are complete, which is the property
//! that matters), while a *partial* trailer or a checksum mismatch is an
//! integrity error, never silently ignored. Version-2 (`.pqi`) files
//! carry their own postings checksum and have index sections where the
//! trailer would sit, so the trailer applies to version 1 only.
//!
//! # Format version 2 (`.pqi`, indexed)
//!
//! Version 2 (magic `"TASMPQ2\n"`) keeps the header and entry sections
//! byte-identical to version 1 — so this streaming reader handles both
//! transparently — and appends inverted-index sections after the entries
//! (per-label postings of postorder positions). The label dictionary of a
//! v2 file is written in **descending frequency** order. The index
//! sections are written and consumed by the `tasm-index` crate; this
//! reader simply stops after `n_nodes` entries and never touches them.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::crc::crc32_update;
use crate::label::{LabelDict, LabelId};
use crate::postorder_queue::{PostorderEntry, PostorderQueue};
use crate::tree::Tree;

/// Magic of a version-1 (plain postorder stream) file.
pub const MAGIC_V1: &[u8; 8] = b"TASMPQ1\n";
/// Magic of a version-2 (indexed, `.pqi`) file.
pub const MAGIC_V2: &[u8; 8] = b"TASMPQ2\n";
/// Magic closing the optional version-1 integrity trailer (it follows
/// the 4-byte CRC-32 of the entry section).
pub const TRAILER_MAGIC: &[u8; 4] = b"PQC1";

/// Errors for the postorder file format.
#[derive(Debug)]
pub enum PostFileError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Bad magic or malformed header/dictionary.
    Format(String),
    /// The file is structurally readable but fails an integrity check
    /// (checksum mismatch, torn write): its content cannot be trusted.
    Corrupt(String),
}

impl std::fmt::Display for PostFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PostFileError::Io(e) => write!(f, "postorder file I/O error: {e}"),
            PostFileError::Format(m) => write!(f, "postorder file format error: {m}"),
            PostFileError::Corrupt(m) => write!(f, "postorder file corrupt: {m}"),
        }
    }
}

impl std::error::Error for PostFileError {}

impl From<io::Error> for PostFileError {
    fn from(e: io::Error) -> Self {
        PostFileError::Io(e)
    }
}

/// Writes `queue` (with its dictionary) to `out` in the postorder file
/// format. `n_nodes` must match the number of entries the queue yields.
pub fn write_postfile<W: Write>(
    mut out: W,
    dict: &LabelDict,
    queue: &mut dyn PostorderQueue,
    n_nodes: u64,
) -> Result<(), PostFileError> {
    out.write_all(MAGIC_V1)?;
    out.write_all(&n_nodes.to_le_bytes())?;
    out.write_all(&(dict.len() as u64).to_le_bytes())?;
    for (_, name) in dict.iter() {
        let bytes = name.as_bytes();
        out.write_all(&(bytes.len() as u32).to_le_bytes())?;
        out.write_all(bytes)?;
    }
    let mut written = 0u64;
    let mut crc = 0u32;
    while let Some(e) = queue.dequeue() {
        let label = e.label.0.to_le_bytes();
        let size = e.size.to_le_bytes();
        crc = crc32_update(crc, &label);
        crc = crc32_update(crc, &size);
        out.write_all(&label)?;
        out.write_all(&size)?;
        written += 1;
    }
    if written != n_nodes {
        return Err(PostFileError::Format(format!(
            "queue yielded {written} entries, header promised {n_nodes}"
        )));
    }
    out.write_all(&crc.to_le_bytes())?;
    out.write_all(TRAILER_MAGIC)?;
    out.flush()?;
    Ok(())
}

/// Convenience: persists an in-memory tree to `path` **atomically**
/// (see [`atomic_write`]): readers never observe a torn `.pq` file.
pub fn save_tree(
    path: impl AsRef<Path>,
    tree: &Tree,
    dict: &LabelDict,
) -> Result<(), PostFileError> {
    atomic_write(path, |out| {
        let mut queue = crate::postorder_queue::TreeQueue::new(tree);
        write_postfile(out, dict, &mut queue, tree.len() as u64)
    })
}

/// Crash-safe file publication: runs `write` against a temp file in the
/// target's directory, fsyncs it, then atomically renames it over
/// `path`. A crash at any point leaves either the old file or the new
/// one — never a torn mix — and a failed write cleans up the temp file
/// instead of leaving it behind.
pub fn atomic_write(
    path: impl AsRef<Path>,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<(), PostFileError>,
) -> Result<(), PostFileError> {
    let path = path.as_ref();
    // The temp file must live on the same filesystem as the target for
    // the rename to be atomic, so it goes next to it.
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let result = (|| {
        let mut out = BufWriter::new(File::create(&tmp)?);
        write(&mut out)?;
        out.flush()?;
        // Data must be durable BEFORE the rename publishes the name: a
        // rename surviving a crash that the data didn't would swap a
        // good file for garbage.
        out.get_ref().sync_all()?;
        std::fs::rename(&tmp, path)?;
        // Persist the rename itself (directory entry). Best-effort:
        // some filesystems refuse directory fsync.
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// A streaming reader over a postorder file (version 1 or 2): implements
/// [`PostorderQueue`], holding O(1) state beyond the dictionary.
#[derive(Debug)]
pub struct PostFileReader<R: Read> {
    input: R,
    dict: LabelDict,
    remaining: u64,
    total: u64,
    /// Format version from the magic (1 = plain `.pq`, 2 = indexed `.pqi`).
    version: u8,
    /// Set when the entry section ended before `total` nodes were read:
    /// the file is truncated and any ranking over it would be partial.
    truncated: bool,
    /// Set when an entry cannot be part of a postorder stream (its
    /// subtree size is 0 or reaches past the first node); the stream
    /// ends there.
    malformed: Option<String>,
    /// Running CRC-32 of the entry bytes, compared against the trailer.
    crc: u32,
    /// Outcome of the version-1 trailer check, resolved after the last
    /// entry is dequeued.
    trailer: TrailerState,
}

/// Where the optional version-1 integrity trailer stands.
#[derive(Debug)]
enum TrailerState {
    /// The entry section has not finished streaming yet.
    Unchecked,
    /// No trailer bytes after the entries: a file from before the
    /// trailer existed. Its entries are complete, which is what matters.
    Legacy,
    /// The trailer's checksum matched the streamed entries.
    Verified,
    /// Partial trailer or checksum mismatch: the entries cannot be
    /// trusted.
    Error(String),
}

impl PostFileReader<BufReader<File>> {
    /// Opens a postorder file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, PostFileError> {
        let file = File::open(path)?;
        Self::new(BufReader::new(file))
    }
}

impl<R: Read> PostFileReader<R> {
    /// Reads the header and dictionary from `input`.
    pub fn new(mut input: R) -> Result<Self, PostFileError> {
        let mut magic = [0u8; 8];
        input.read_exact(&mut magic)?;
        let version = if &magic == MAGIC_V1 {
            1
        } else if &magic == MAGIC_V2 {
            2
        } else {
            return Err(PostFileError::Format(
                "bad magic; not a TASMPQ1/TASMPQ2 file".into(),
            ));
        };
        let total = read_u64(&mut input)?;
        let n_labels = read_u64(&mut input)?;
        // The count is untrusted: reserve for a modest dictionary at most
        // and let interning grow it, so a corrupt count ends in a short
        // read below instead of a huge allocation.
        let mut dict = LabelDict::with_capacity(n_labels.min(1 << 16) as usize);
        let mut buf = Vec::new();
        for i in 0..n_labels {
            let len = read_u32(&mut input)? as usize;
            if len > 1 << 24 {
                return Err(PostFileError::Format(format!("label {i} is {len} bytes")));
            }
            buf.resize(len, 0);
            input.read_exact(&mut buf)?;
            let name = std::str::from_utf8(&buf)
                .map_err(|_| PostFileError::Format(format!("label {i} is not UTF-8")))?;
            let id = dict.intern(name);
            if id.index() as u64 != i {
                return Err(PostFileError::Format(format!("duplicate label {name}")));
            }
        }
        Ok(PostFileReader {
            input,
            dict,
            remaining: total,
            total,
            version,
            truncated: false,
            malformed: None,
            crc: 0,
            trailer: TrailerState::Unchecked,
        })
    }

    /// The dictionary stored in the file.
    pub fn dict(&self) -> &LabelDict {
        &self.dict
    }

    /// The format version from the magic: 1 (`.pq`) or 2 (`.pqi`).
    pub fn version(&self) -> u8 {
        self.version
    }

    /// Total number of nodes in the file.
    pub fn total_nodes(&self) -> u64 {
        self.total
    }

    /// Entries the header promised but that have not been dequeued yet.
    ///
    /// [`PostorderQueue::dequeue`] ends the stream early (returns `None`)
    /// on a short read or a malformed entry, so after a scan a non-zero
    /// value means the file was **truncated** or damaged — callers that
    /// must not silently accept partial documents (e.g. the CLI) check
    /// this. The scan drivers in `tasm-core` detect the same condition
    /// through [`PostorderQueue::integrity_error`].
    pub fn remaining_nodes(&self) -> u64 {
        self.remaining
    }

    /// Consumes the reader, returning the dictionary (e.g. to resolve
    /// match labels after the scan).
    pub fn into_dict(self) -> LabelDict {
        self.dict
    }

    /// Consumes the reader, returning the underlying input positioned
    /// after the last byte read, plus the dictionary — so an index
    /// loader can continue with the sections that follow the entry
    /// stream of a version-2 file.
    pub fn into_inner(self) -> (R, LabelDict) {
        (self.input, self.dict)
    }

    /// Resolves the version-1 integrity trailer once the entry section
    /// has streamed completely. Absent trailer bytes mean a pre-trailer
    /// file (accepted — its entries are complete); a partial trailer or
    /// a checksum mismatch is recorded for
    /// [`PostorderQueue::integrity_error`]. Version-2 files carry index
    /// sections here instead, so they are never probed.
    fn check_trailer(&mut self) {
        if self.version != 1 || !matches!(self.trailer, TrailerState::Unchecked) {
            return;
        }
        let mut buf = [0u8; 8];
        let mut n = 0usize;
        while n < buf.len() {
            match self.input.read(&mut buf[n..]) {
                Ok(0) => break,
                Ok(m) => n += m,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.trailer =
                        TrailerState::Error(format!("I/O error reading entry trailer: {e}"));
                    return;
                }
            }
        }
        self.trailer = if n == 0 {
            TrailerState::Legacy
        } else if n == buf.len() && &buf[4..8] == TRAILER_MAGIC {
            let stored = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
            if stored == self.crc {
                TrailerState::Verified
            } else {
                TrailerState::Error(format!(
                    "entry checksum mismatch (stored {stored:08x}, computed {:08x}): \
                     torn or bit-rotted postorder file",
                    self.crc
                ))
            }
        } else {
            TrailerState::Error(format!(
                "malformed entry trailer ({n} trailing bytes; expected crc32 + \"PQC1\")"
            ))
        };
    }
}

impl<R: Read> PostorderQueue for PostFileReader<R> {
    fn dequeue(&mut self) -> Option<PostorderEntry> {
        if self.malformed.is_some() {
            return None;
        }
        if self.remaining == 0 {
            // Covers n_nodes == 0 files: the trailer check still runs.
            self.check_trailer();
            return None;
        }
        let mut bytes = [0u8; 8];
        if self.input.read_exact(&mut bytes).is_err() {
            // The header promised more nodes than the byte stream
            // holds: remember the shortfall so drivers can refuse
            // the partial document instead of ranking it.
            self.truncated = true;
            return None;
        }
        self.crc = crc32_update(self.crc, &bytes);
        let label = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        let size = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        let id = self.total - self.remaining + 1;
        self.remaining -= 1;
        if self.remaining == 0 {
            self.check_trailer();
        }
        // A node's subtree holds itself and nodes before it only. Checked
        // here so no scan ever sees an impossible size, e.g. a trailer
        // read as an entry after a corrupt header.
        if size == 0 || u64::from(size) > id {
            self.malformed = Some(format!(
                "postorder file malformed: node {id} claims a subtree of {size} nodes"
            ));
            return None;
        }
        Some(PostorderEntry {
            label: LabelId(label),
            size,
        })
    }

    fn len_hint(&self) -> Option<usize> {
        usize::try_from(self.remaining).ok()
    }

    fn integrity_error(&self) -> Option<String> {
        if let TrailerState::Error(msg) = &self.trailer {
            return Some(msg.clone());
        }
        if let Some(msg) = &self.malformed {
            return Some(msg.clone());
        }
        self.truncated.then(|| {
            format!(
                "postorder file truncated: {} of {} nodes missing",
                self.remaining, self.total
            )
        })
    }
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bracket;
    use crate::postorder_queue::collect_tree;

    fn sample() -> (Tree, LabelDict) {
        let mut dict = LabelDict::new();
        let t = bracket::parse(
            "{dblp{article{auth{John}}{title{X1}}}{book{title{X2}}}}",
            &mut dict,
        )
        .unwrap();
        (t, dict)
    }

    #[test]
    fn round_trip_in_memory() {
        let (t, dict) = sample();
        let mut bytes = Vec::new();
        let mut q = crate::postorder_queue::TreeQueue::new(&t);
        write_postfile(&mut bytes, &dict, &mut q, t.len() as u64).unwrap();

        let mut reader = PostFileReader::new(bytes.as_slice()).unwrap();
        assert_eq!(reader.total_nodes(), t.len() as u64);
        assert_eq!(reader.dict().len(), dict.len());
        assert_eq!(reader.dict().resolve(LabelId(0)), dict.resolve(LabelId(0)));
        let t2 = collect_tree(&mut reader).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn round_trip_via_file() {
        let (t, dict) = sample();
        let path = std::env::temp_dir().join(format!("tasm_pf_{}.pq", std::process::id()));
        save_tree(&path, &t, &dict).unwrap();
        let mut reader = PostFileReader::open(&path).unwrap();
        let t2 = collect_tree(&mut reader).unwrap();
        assert_eq!(t, t2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_label_count_is_an_error_not_an_allocation() {
        for n_labels in [1u64 << 40, u64::MAX] {
            let mut bytes = MAGIC_V1.to_vec();
            bytes.extend_from_slice(&10u64.to_le_bytes());
            bytes.extend_from_slice(&n_labels.to_le_bytes());
            assert!(
                PostFileReader::new(bytes.as_slice()).is_err(),
                "n_labels = {n_labels}"
            );
        }
    }

    #[test]
    fn len_hint_counts_down() {
        let (t, dict) = sample();
        let mut bytes = Vec::new();
        let mut q = crate::postorder_queue::TreeQueue::new(&t);
        write_postfile(&mut bytes, &dict, &mut q, t.len() as u64).unwrap();
        let mut reader = PostFileReader::new(bytes.as_slice()).unwrap();
        assert_eq!(reader.len_hint(), Some(t.len()));
        reader.dequeue();
        assert_eq!(reader.len_hint(), Some(t.len() - 1));
    }

    #[test]
    fn rejects_bad_magic() {
        let err = PostFileReader::new(&b"NOTAPQFILE______"[..]).unwrap_err();
        assert!(matches!(err, PostFileError::Format(_)));
    }

    #[test]
    fn rejects_truncated_header() {
        let err = PostFileReader::new(&b"TASMPQ1\n\x01"[..]).unwrap_err();
        assert!(matches!(err, PostFileError::Io(_)));
    }

    #[test]
    fn truncated_entries_end_the_stream() {
        let (t, dict) = sample();
        let mut bytes = Vec::new();
        let mut q = crate::postorder_queue::TreeQueue::new(&t);
        write_postfile(&mut bytes, &dict, &mut q, t.len() as u64).unwrap();
        bytes.truncate(bytes.len() - 12); // 8-byte trailer + half an entry
        let mut reader = PostFileReader::new(bytes.as_slice()).unwrap();
        let mut n = 0;
        while reader.dequeue().is_some() {
            n += 1;
        }
        assert_eq!(n, t.len() - 1);
        // The shortfall is detectable after the scan.
        assert_eq!(reader.remaining_nodes(), 1);
        let msg = reader.integrity_error().expect("truncation is reported");
        assert!(msg.contains("truncated"), "{msg}");
    }

    /// Cuts a `.pq` at every byte offset past the header: each prefix
    /// must surface as truncation or a trailer error — with one sound
    /// exception, the cut that removes exactly the whole trailer, which
    /// leaves every entry intact and reads as a legacy file.
    #[test]
    fn every_entry_section_cut_is_detected() {
        let (t, dict) = sample();
        let mut bytes = Vec::new();
        let mut q = crate::postorder_queue::TreeQueue::new(&t);
        write_postfile(&mut bytes, &dict, &mut q, t.len() as u64).unwrap();
        let entries_start = bytes.len() - 8 - 8 * t.len();
        for cut in entries_start..bytes.len() {
            let mut reader = PostFileReader::new(&bytes[..cut]).unwrap();
            while reader.dequeue().is_some() {}
            let err = reader.integrity_error();
            if cut == bytes.len() - 8 {
                assert_eq!(err, None, "trailer-only cut reads as legacy");
            } else {
                assert!(err.is_some(), "cut at byte {cut} accepted silently");
            }
        }
    }

    #[test]
    fn legacy_files_without_trailer_still_read() {
        let (t, dict) = sample();
        let mut bytes = Vec::new();
        let mut q = crate::postorder_queue::TreeQueue::new(&t);
        write_postfile(&mut bytes, &dict, &mut q, t.len() as u64).unwrap();
        bytes.truncate(bytes.len() - 8); // what a pre-trailer writer produced
        let mut reader = PostFileReader::new(bytes.as_slice()).unwrap();
        let t2 = collect_tree(&mut reader).unwrap();
        assert_eq!(t, t2);
        assert_eq!(reader.integrity_error(), None);
    }

    #[test]
    fn flipped_entry_byte_fails_the_trailer_check() {
        let (t, dict) = sample();
        let mut bytes = Vec::new();
        let mut q = crate::postorder_queue::TreeQueue::new(&t);
        write_postfile(&mut bytes, &dict, &mut q, t.len() as u64).unwrap();
        let at = bytes.len() - 8 - 3; // inside the last entry
        bytes[at] ^= 0x04;
        let mut reader = PostFileReader::new(bytes.as_slice()).unwrap();
        while reader.dequeue().is_some() {}
        let msg = reader.integrity_error().expect("bit rot is reported");
        assert!(msg.contains("checksum mismatch"), "{msg}");
    }

    #[test]
    fn empty_document_trailer_is_verified() {
        struct Empty;
        impl PostorderQueue for Empty {
            fn dequeue(&mut self) -> Option<PostorderEntry> {
                None
            }
        }
        let dict = LabelDict::new();
        let mut bytes = Vec::new();
        write_postfile(&mut bytes, &dict, &mut Empty, 0).unwrap();
        let mut reader = PostFileReader::new(bytes.as_slice()).unwrap();
        assert!(reader.dequeue().is_none());
        assert_eq!(reader.integrity_error(), None);
        // Flip the empty-section CRC: still detected.
        let at = bytes.len() - 8;
        bytes[at] ^= 0x01;
        let mut reader = PostFileReader::new(bytes.as_slice()).unwrap();
        assert!(reader.dequeue().is_none());
        assert!(reader.integrity_error().is_some());
    }

    #[test]
    fn complete_stream_reports_no_integrity_error() {
        let (t, dict) = sample();
        let mut bytes = Vec::new();
        let mut q = crate::postorder_queue::TreeQueue::new(&t);
        write_postfile(&mut bytes, &dict, &mut q, t.len() as u64).unwrap();
        let mut reader = PostFileReader::new(bytes.as_slice()).unwrap();
        assert_eq!(reader.version(), 1);
        while reader.dequeue().is_some() {}
        assert_eq!(reader.integrity_error(), None);
    }

    #[test]
    fn v2_magic_streams_like_v1() {
        // A v2 file is a v1 file with a different magic plus trailing
        // index sections; the streaming reader must accept it and stop
        // after the entry section.
        let (t, dict) = sample();
        let mut bytes = Vec::new();
        let mut q = crate::postorder_queue::TreeQueue::new(&t);
        write_postfile(&mut bytes, &dict, &mut q, t.len() as u64).unwrap();
        bytes[..8].copy_from_slice(MAGIC_V2);
        bytes.extend_from_slice(&[0xAB; 16]); // fake trailing index data
        let mut reader = PostFileReader::new(bytes.as_slice()).unwrap();
        assert_eq!(reader.version(), 2);
        let t2 = collect_tree(&mut reader).unwrap();
        assert_eq!(t, t2);
        assert_eq!(reader.integrity_error(), None);
    }

    #[test]
    fn atomic_write_leaves_no_temp_file_on_success_or_failure() {
        let (t, dict) = sample();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tasm_aw_{}.pq", std::process::id()));
        save_tree(&path, &t, &dict).unwrap();
        assert!(path.exists());
        // A failing writer must clean up and leave the published file
        // exactly as it was.
        let before = std::fs::read(&path).unwrap();
        let err = atomic_write(&path, |_| {
            Err(PostFileError::Format("writer exploded".into()))
        })
        .unwrap_err();
        assert!(matches!(err, PostFileError::Format(_)));
        assert_eq!(std::fs::read(&path).unwrap(), before);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| {
                n.starts_with(&format!("tasm_aw_{}", std::process::id())) && n.contains(".tmp.")
            })
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_tree_overwrites_atomically() {
        let (t, dict) = sample();
        let path = std::env::temp_dir().join(format!("tasm_ow_{}.pq", std::process::id()));
        save_tree(&path, &t, &dict).unwrap();
        // Overwrite with a different tree; the new content replaces the
        // old wholesale.
        let mut dict2 = LabelDict::new();
        let t2 = bracket::parse("{a{b}}", &mut dict2).unwrap();
        save_tree(&path, &t2, &dict2).unwrap();
        let mut reader = PostFileReader::open(&path).unwrap();
        let back = collect_tree(&mut reader).unwrap();
        assert_eq!(back, t2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_validates_count() {
        let (t, dict) = sample();
        let mut bytes = Vec::new();
        let mut q = crate::postorder_queue::TreeQueue::new(&t);
        let err = write_postfile(&mut bytes, &dict, &mut q, 99).unwrap_err();
        assert!(matches!(err, PostFileError::Format(_)));
    }
}
