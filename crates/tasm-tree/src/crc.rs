//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) — the
//! dependency-free, table-driven implementation shared by every on-disk
//! integrity check in the workspace: the `.pq` entry trailer
//! ([`postfile`](crate::postfile)), the `.pqi` postings trailer and the
//! corpus `MANIFEST` (`tasm-index`).
//!
//! `crc32_update(0, bytes)` equals the standard one-shot `crc32(bytes)`;
//! chain calls to hash a stream incrementally.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// Folds `bytes` into a running CRC-32. Start from `0`; the result of
/// one call is the seed of the next, so chained updates equal one-shot
/// hashing of the concatenation.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let mut c = !crc;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
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
}
