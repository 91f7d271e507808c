//! Byte-level robustness of the `.pq` reader.
//!
//! A postorder file is untrusted input: whatever its bytes,
//! [`PostFileReader::new`] plus a full drain must end in a structured
//! header error or a reported integrity error — never a panic, an
//! allocation abort, or a silently shorter document. Properties:
//!
//! * random bytes after a valid magic are refused or reported;
//! * every truncation of a small valid file is refused or reported,
//!   except the cut that drops exactly the optional trailer (a legacy
//!   file), which must read back the complete document;
//! * every single-bit flip is refused or reported, except inside the
//!   dictionary's name bytes (the trailer checksums the entries only),
//!   where an accepted file must still carry every original entry.

use proptest::prelude::*;
use tasm_tree::postfile::{save_tree, write_postfile, PostFileReader, MAGIC_V1, MAGIC_V2};
use tasm_tree::{bracket, LabelDict, PostorderQueue, TreeQueue};

/// What reading a whole `.pq` byte string produced.
#[derive(Debug, PartialEq)]
enum Outcome {
    /// [`PostFileReader::new`] refused the header or dictionary.
    Refused,
    /// The entries drained, but the reader reported an integrity error.
    Corrupt,
    /// Accepted: the dictionary names and every `(label, size)` entry.
    Accepted(Vec<String>, Vec<(u32, u32)>),
}

fn read_all(bytes: &[u8]) -> Outcome {
    let Ok(mut reader) = PostFileReader::new(bytes) else {
        return Outcome::Refused;
    };
    let mut entries = Vec::new();
    while let Some(e) = reader.dequeue() {
        entries.push((e.label.0, e.size));
    }
    if reader.integrity_error().is_some() {
        return Outcome::Corrupt;
    }
    assert_eq!(
        entries.len() as u64,
        reader.total_nodes(),
        "an accepted stream must hold every promised entry"
    );
    let names = reader.dict().iter().map(|(_, n)| n.to_string()).collect();
    Outcome::Accepted(names, entries)
}

/// A small valid `.pq` file plus the byte ranges of its label names.
fn sample(doc: &str) -> (Vec<u8>, Vec<std::ops::Range<usize>>) {
    let mut dict = LabelDict::new();
    let tree = bracket::parse(doc, &mut dict).unwrap();
    let mut bytes = Vec::new();
    write_postfile(
        &mut bytes,
        &dict,
        &mut TreeQueue::new(&tree),
        tree.len() as u64,
    )
    .unwrap();
    let mut names = Vec::new();
    let mut at = 24; // magic, n_nodes, n_labels
    for (_, name) in dict.iter() {
        at += 4;
        names.push(at..at + name.len());
        at += name.len();
    }
    (bytes, names)
}

const DOCS: [&str; 2] = [
    "{dblp{article{auth{John}}{title{X1}}}{book{title{X2}}}}",
    "{r{é}{ab{é}{c}}{ab}}",
];

#[test]
fn samples_read_back() {
    for doc in DOCS {
        let (bytes, _) = sample(doc);
        assert!(matches!(read_all(&bytes), Outcome::Accepted(..)), "{doc}");
        // The same bytes also come out of the file-writing path.
        let path = std::env::temp_dir().join(format!("tasm_pfprop_{}.pq", std::process::id()));
        let mut dict = LabelDict::new();
        save_tree(&path, &bracket::parse(doc, &mut dict).unwrap(), &dict).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn every_truncation_is_refused_or_reported() {
    for doc in DOCS {
        let (bytes, _) = sample(doc);
        let full = read_all(&bytes);
        let legacy_cut = bytes.len() - 8; // drops crc32 + "PQC1"
        for cut in 0..bytes.len() {
            let got = read_all(&bytes[..cut]);
            if cut == legacy_cut {
                assert_eq!(got, full, "{doc}: legacy cut");
            } else {
                assert!(
                    matches!(got, Outcome::Refused | Outcome::Corrupt),
                    "{doc}: cut at {cut} of {} read as {got:?}",
                    bytes.len()
                );
            }
        }
    }
}

#[test]
fn every_bit_flip_is_refused_or_reported() {
    for doc in DOCS {
        let (bytes, names) = sample(doc);
        let Outcome::Accepted(_, want_entries) = read_all(&bytes) else {
            panic!("{doc}: sample must read back");
        };
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                match read_all(&flipped) {
                    Outcome::Refused | Outcome::Corrupt => {}
                    Outcome::Accepted(_, entries) => {
                        assert!(
                            names.iter().any(|r| r.contains(&i)),
                            "{doc}: flip of bit {bit} at byte {i} was accepted"
                        );
                        assert_eq!(entries, want_entries, "{doc}: byte {i}");
                    }
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn junk_after_valid_magic_is_refused_or_reported(
        v2 in any::<bool>(),
        tail in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        let mut bytes = if v2 { MAGIC_V2.to_vec() } else { MAGIC_V1.to_vec() };
        bytes.extend_from_slice(&tail);
        let got = read_all(&bytes);
        prop_assert!(
            matches!(got, Outcome::Refused | Outcome::Corrupt),
            "junk read as {:?}", got
        );
    }

    #[test]
    fn junk_after_a_small_header_never_panics(
        n_nodes in 0u64..6,
        n_labels in 0u64..4,
        tail in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        // Small counts get the junk past the header into the dictionary
        // and entry parsers; `read_all` itself checks that an accepted
        // stream is complete.
        let mut bytes = MAGIC_V1.to_vec();
        bytes.extend_from_slice(&n_nodes.to_le_bytes());
        bytes.extend_from_slice(&n_labels.to_le_bytes());
        bytes.extend_from_slice(&tail);
        let _ = read_all(&bytes);
    }
}
