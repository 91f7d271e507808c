//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) — the
//! dependency-free, table-driven implementation shared by every on-disk
//! integrity check in the workspace: the `.pq` entry trailer
//! ([`postfile`](crate::postfile)), the `.pqi` postings trailer and the
//! corpus `MANIFEST` (`tasm-index`).
//!
//! `crc32_update(0, bytes)` equals the standard one-shot `crc32(bytes)`;
//! chain calls to hash a stream incrementally.

/// The slicing-by-8 tables: `TABLES[0]` is the classic bytewise table,
/// and `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so eight table lookups fold eight input bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1usize;
    while t < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = crc32_tables();

/// Folds `bytes` into a running CRC-32. Start from `0`; the result of
/// one call is the seed of the next, so chained updates equal one-shot
/// hashing of the concatenation.
///
/// Eight bytes per step (slicing-by-8), the tail bytewise.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = !crc;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = c ^ u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]);
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The canonical IEEE test vector.
        assert_eq!(crc32_update(0, b"123456789"), 0xCBF4_3926);
        // Chained updates equal one-shot hashing.
        let chained = crc32_update(crc32_update(0, b"12345"), b"6789");
        assert_eq!(chained, 0xCBF4_3926);
        assert_eq!(crc32_update(0, b""), 0);
    }

    /// The classic one-byte-per-step loop the sliced one must equal.
    fn bytewise(crc: u32, bytes: &[u8]) -> u32 {
        let mut c = !crc;
        for &b in bytes {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    use proptest::prelude::*;

    proptest! {
        /// Any length, any start offset (so any alignment of the
        /// 8-byte steps), any chain of splits, any seed.
        #[test]
        fn sliced_equals_bytewise(
            bytes in prop::collection::vec(any::<u8>(), 0..300),
            offset in 0usize..9,
            cuts in prop::collection::vec(0usize..300, 0..4),
            seed in any::<u32>(),
        ) {
            let data = &bytes[offset.min(bytes.len())..];
            prop_assert_eq!(crc32_update(seed, data), bytewise(seed, data));
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let (mut crc, mut from) = (0u32, 0usize);
            for cut in cuts.into_iter().chain([data.len()]) {
                crc = crc32_update(crc, &data[from..cut]);
                from = cut;
            }
            prop_assert_eq!(crc, bytewise(0, data));
        }
    }
}
