//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the integrity
//! check of the chunked CFAR containers (v2 and v3).
//!
//! Each archive block carries its CRC in the block index, and a v3 row one
//! over its meta area (embedded model and hybrid weights), so a flipped bit
//! anywhere in a block payload or a meta area is detected *before* the
//! entropy decoder or the model parser runs, surfacing as a typed [`crate::CfcError::ChecksumMismatch`] instead
//! of a garbage decode. Slice-by-8: eight tables per process (lazily
//! built), eight input bytes a step.

use std::sync::OnceLock;

/// `tables()[0]` is the classic bytewise table; `tables()[k][b]` is the CRC
/// of byte `b` followed by `k` zero bytes, which lets eight bytes be
/// folded in with eight independent lookups.
fn tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        t
    })
}

/// One byte at a time through `table`: the head and tail of [`crc32`].
fn update_bytewise(table: &[u32; 256], mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 of `data` (IEEE, init `0xFFFFFFFF`, final xor `0xFFFFFFFF`).
pub fn crc32(data: &[u8]) -> u32 {
    let t = tables();
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    update_bytewise(&t[0], c, words.remainder()) ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise table loop over the whole buffer: the oracle.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        update_bytewise(&tables()[0], 0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // standard check value for "123456789"
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sliced_matches_bytewise_on_every_short_length_and_alignment() {
        let buf: Vec<u8> = (0..80u32).map(|i| (i * 167 + 13) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn sliced_matches_bytewise_on_a_megabyte() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..1 << 20)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
        assert_eq!(crc32(&buf[3..]), crc32_bytewise(&buf[3..]));
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let data: Vec<u8> = (0..255u8).collect();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut bad = data.clone();
                bad[byte] ^= 1 << bit;
                assert_ne!(crc32(&bad), base, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
