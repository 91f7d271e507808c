//! Byte-level robustness of the `.pqi` loader.
//!
//! An index file is untrusted input: whatever its bytes,
//! [`PqiView::parse`] and [`IndexedDocument::open_bytes`] must end in a
//! structured error — never a panic or an allocation abort. These
//! corruptions must be refused by the full loader:
//!
//! * every truncation of a small valid file;
//! * every single-bit flip of it (the postings checksum covers the
//!   postings only, so flips in names, counts and entries must be
//!   caught by the structural checks);
//! * `0x7f`, `0x80` and `0xff` written over each byte after the magic;
//! * random bytes after a valid magic.
//!
//! Two corruptions no loader check can see are allowed through, and
//! then the loaded document must still agree with the original where
//! the file does protect it:
//!
//! * a change inside a label's name bytes that keeps the name valid
//!   UTF-8 and distinct — the file then names a different label;
//! * a change of an entry's subtree size that still forms a valid tree:
//!   the postings checksum does not cover the entry section (the `.pq`
//!   trailer does), so only the tree check guards the sizes. The labels
//!   of every node must be unchanged.

use proptest::prelude::*;
use tasm_index::{IndexedDocument, PqiView};
use tasm_tree::postfile::MAGIC_V2;
use tasm_tree::{bracket, LabelDict};

/// Loads `bytes` through both entry points; the view must accept
/// whatever the full loader accepts.
fn load(bytes: &[u8]) -> Option<IndexedDocument> {
    let view_ok = PqiView::parse(bytes).is_ok();
    let doc = IndexedDocument::open_bytes(bytes).ok();
    assert!(
        view_ok || doc.is_none(),
        "the loader accepted a refused view"
    );
    doc
}

/// A small valid `.pqi` file.
struct Sample {
    bytes: Vec<u8>,
    /// Byte ranges of the label names.
    names: Vec<std::ops::Range<usize>>,
    /// Byte range of the entry section (`n × (u32 label, u32 size)`).
    entries: std::ops::Range<usize>,
    /// The labels of the loaded document, in postorder.
    labels: Vec<u32>,
}

impl Sample {
    fn new(doc: &str) -> Sample {
        let mut dict = LabelDict::new();
        let tree = bracket::parse(doc, &mut dict).unwrap();
        let idx = IndexedDocument::build(&tree, &dict);
        let mut bytes = Vec::new();
        idx.write_to(&mut bytes).unwrap();
        let mut names = Vec::new();
        let mut at = 24; // magic, n_nodes, n_labels
        for (_, name) in idx.dict().iter() {
            at += 4;
            names.push(at..at + name.len());
            at += name.len();
        }
        let labels = idx.tree().labels().iter().map(|l| l.0).collect();
        Sample {
            bytes,
            names,
            entries: at..at + 8 * tree.len(),
            labels,
        }
    }

    /// Asserts that `bytes`, this sample corrupted at byte `at`, is
    /// refused — or accepted only under one of the two allowances of
    /// the module docs.
    fn assert_refused(&self, bytes: &[u8], at: usize) {
        let Some(doc) = load(bytes) else {
            return;
        };
        let in_name = self.names.iter().any(|r| r.contains(&at));
        let in_size = self.entries.contains(&at) && (at - self.entries.start) % 8 >= 4;
        assert!(in_name || in_size, "corruption at byte {at} was accepted");
        let labels: Vec<u32> = doc.tree().labels().iter().map(|l| l.0).collect();
        assert_eq!(labels, self.labels, "byte {at}: labels changed");
    }
}

const DOCS: [&str; 2] = [
    "{dblp{article{auth{John}}{title{X1}}}{book{title{X2}}}}",
    "{r{é}{ab{é}{c}}{ab}}",
];

#[test]
fn samples_load() {
    for doc in DOCS {
        assert!(load(&Sample::new(doc).bytes).is_some(), "{doc}");
    }
}

#[test]
fn every_truncation_is_refused() {
    for doc in DOCS {
        let bytes = Sample::new(doc).bytes;
        for cut in 0..bytes.len() {
            assert!(
                load(&bytes[..cut]).is_none(),
                "{doc}: cut at {cut} of {} was accepted",
                bytes.len()
            );
        }
    }
}

#[test]
fn every_bit_flip_is_refused() {
    for doc in DOCS {
        let sample = Sample::new(doc);
        for i in 0..sample.bytes.len() {
            for bit in 0..8 {
                let mut flipped = sample.bytes.clone();
                flipped[i] ^= 1 << bit;
                sample.assert_refused(&flipped, i);
            }
        }
    }
}

#[test]
fn boundary_bytes_over_every_byte_are_refused() {
    for doc in DOCS {
        let sample = Sample::new(doc);
        for i in MAGIC_V2.len()..sample.bytes.len() {
            for b in [0x7f, 0x80, 0xff] {
                let mut broken = sample.bytes.clone();
                if broken[i] != b {
                    broken[i] = b;
                    sample.assert_refused(&broken, i);
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn junk_after_valid_magic_is_refused(
        tail in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        let mut bytes = MAGIC_V2.to_vec();
        bytes.extend_from_slice(&tail);
        prop_assert!(load(&bytes).is_none(), "junk was accepted");
    }

    #[test]
    fn junk_after_a_small_header_never_panics(
        n_nodes in 0u64..6,
        n_labels in 0u64..4,
        tail in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        // Small counts get the junk past the header into the label,
        // entry and postings parsers.
        let mut bytes = MAGIC_V2.to_vec();
        bytes.extend_from_slice(&n_nodes.to_le_bytes());
        bytes.extend_from_slice(&n_labels.to_le_bytes());
        bytes.extend_from_slice(&tail);
        let _ = load(&bytes);
    }
}
