//! Property-based tests for the corpus `MANIFEST` codec.
//!
//! The manifest is the corpus store's single point of trust: every
//! shard is verified *against it*, so the codec itself must be
//! watertight. Properties:
//!
//! * encode → decode is the identity for arbitrary manifests (shards
//!   with and without recorded sources, multi-byte UTF-8 names,
//!   extreme numeric fields), also when the bytes carry the label
//!   section older corpora wrote, which the decoder skips;
//! * any truncation of the encoded bytes is a structured error, at
//!   every possible cut point;
//! * any single-bit corruption is caught by the trailing CRC-32;
//! * arbitrary junk never panics the decoder — torn input is always an
//!   `Err`, never a crash or a silent misparse.

use proptest::prelude::*;
use tasm_index::{Manifest, ShardMeta, MANIFEST_MAGIC};
use tasm_tree::crc::crc32_update;

/// Strings over a small alphabet that includes a multi-byte UTF-8
/// character, so length-prefix handling is exercised beyond ASCII.
fn arb_string(max_len: usize) -> impl Strategy<Value = String> {
    const ALPHABET: [&str; 8] = ["a", "b", "z", "0", "_", ".", "-", "é"];
    proptest::collection::vec(0usize..ALPHABET.len(), 0..max_len)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

fn arb_shard() -> impl Strategy<Value = ShardMeta> {
    (
        (
            arb_string(24),
            arb_string(32),
            any::<bool>(),
            arb_string(16),
        ),
        (any::<u64>(), any::<u32>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |((name, path, with_source, source), (file_size, file_crc, generation, n_nodes))| {
                ShardMeta {
                    name,
                    path,
                    // The codec encodes None as ""; a Some("") would not
                    // round-trip, by design, so never generate it.
                    source: (with_source && !source.is_empty()).then_some(source),
                    file_size,
                    file_crc,
                    generation,
                    n_nodes,
                }
            },
        )
}

fn arb_manifest() -> impl Strategy<Value = Manifest> {
    (any::<u64>(), proptest::collection::vec(arb_shard(), 0..8))
        .prop_map(|(generation, shards)| Manifest { generation, shards })
}

/// A manifest with the `(label, frequency)` section older corpora
/// wrote; the labels carry multi-byte UTF-8 too.
fn arb_legacy() -> impl Strategy<Value = (Manifest, Vec<(String, u64)>)> {
    (
        arb_manifest(),
        proptest::collection::vec((arb_string(16), any::<u64>()), 0..12),
    )
}

/// `m` encoded as a writer of the old corpus-wide dictionary did:
/// `labels` where today's writer puts an empty section, and the
/// checksum recomputed over the result.
fn legacy_bytes(m: &Manifest, labels: &[(String, u64)]) -> Vec<u8> {
    let new = m.to_bytes();
    let at = MANIFEST_MAGIC.len() + 8; // magic, generation
    let mut out = new[..at].to_vec();
    out.extend_from_slice(&(labels.len() as u64).to_le_bytes());
    for (label, freq) in labels {
        out.extend_from_slice(&(label.len() as u32).to_le_bytes());
        out.extend_from_slice(label.as_bytes());
        out.extend_from_slice(&freq.to_le_bytes());
    }
    out.extend_from_slice(&new[at + 8..new.len() - 4]);
    let crc = crc32_update(0, &out[MANIFEST_MAGIC.len()..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

proptest! {
    #[test]
    fn round_trips(legacy in arb_legacy()) {
        let (m, labels) = legacy;
        let bytes = m.to_bytes();
        prop_assert_eq!(bytes.clone(), legacy_bytes(&m, &[]));
        let back = Manifest::from_bytes(&bytes).expect("self-encoded manifest decodes");
        prop_assert_eq!(&back, &m);
        let old = Manifest::from_bytes(&legacy_bytes(&m, &labels))
            .expect("a manifest with a label section decodes");
        prop_assert_eq!(old, m);
    }

    #[test]
    fn every_truncation_errors(legacy in arb_legacy()) {
        let (m, labels) = legacy;
        let bytes = legacy_bytes(&m, &labels);
        for cut in 0..bytes.len() {
            prop_assert!(
                Manifest::from_bytes(&bytes[..cut]).is_err(),
                "cut at {} decoded", cut
            );
        }
    }

    #[test]
    fn every_bit_flip_errors(legacy in arb_legacy(), pos in any::<usize>(), bit in 0u8..8) {
        let (m, labels) = legacy;
        let mut bytes = legacy_bytes(&m, &labels);
        let i = pos % bytes.len();
        bytes[i] ^= 1 << bit;
        prop_assert!(
            Manifest::from_bytes(&bytes).is_err(),
            "flip of bit {} at byte {} decoded", bit, i
        );
    }

    #[test]
    fn junk_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Errors are fine; panics and silent misparses are not. Junk
        // passing the CRC by chance is astronomically unlikely, so any
        // Ok here would be a real decoder hole.
        let _ = Manifest::from_bytes(&bytes);
    }

    #[test]
    fn junk_after_valid_magic_never_panics(tail in proptest::collection::vec(any::<u8>(), 0..128)) {
        let mut bytes = MANIFEST_MAGIC.to_vec();
        bytes.extend_from_slice(&tail);
        prop_assert!(Manifest::from_bytes(&bytes).is_err());
    }
}
