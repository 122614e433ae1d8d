//! Property tests of the lossless building blocks: LZSS round-trip identity
//! on arbitrary byte streams and Huffman round-trip on arbitrary symbol
//! streams — the invariants the residual pipeline relies on.

use proptest::prelude::*;

use cross_field_compression::sz::compressor;
use cross_field_compression::sz::huffman::HuffmanTable;
use cross_field_compression::sz::lossless::{self, LzScratch};

fn lz_roundtrip(data: &[u8]) -> Vec<u8> {
    let c = lossless::compress_with(data, &mut LzScratch::new());
    lossless::try_decompress_bounded(&c, usize::MAX).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// decompress(compress(x)) == x for arbitrary bytes.
    #[test]
    fn lzss_roundtrip_identity(data in prop::collection::vec(any::<u8>(), 0..4096)) {
        prop_assert_eq!(lz_roundtrip(&data), data);
    }

    /// Same with repetitive structure (exercises the match path heavily).
    #[test]
    fn lzss_roundtrip_repetitive(
        unit in prop::collection::vec(any::<u8>(), 1..16),
        reps in 1usize..600,
        tail in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        let mut data: Vec<u8> = unit.iter().cycle().take(unit.len() * reps).cloned().collect();
        data.extend(tail);
        prop_assert_eq!(lz_roundtrip(&data), data);
    }

    /// Huffman round-trip on arbitrary bounded symbol streams.
    #[test]
    fn huffman_roundtrip(symbols in prop::collection::vec(0u32..1025, 1..4096)) {
        let table = HuffmanTable::from_symbols(&symbols);
        let bits = table.try_encode(&symbols).unwrap();
        prop_assert_eq!(table.try_decode(&bits, symbols.len()).unwrap(), symbols);
    }

    /// Huffman table survives serialization.
    #[test]
    fn huffman_table_serde(symbols in prop::collection::vec(0u32..100_000, 1..512)) {
        let table = HuffmanTable::from_symbols(&symbols);
        let (table2, _) = HuffmanTable::try_deserialize(&table.serialize()).unwrap();
        let bits = table.try_encode(&symbols).unwrap();
        prop_assert_eq!(table2.try_decode(&bits, symbols.len()).unwrap(), symbols);
    }

    /// Outlier varint coding round-trips arbitrary i64s.
    #[test]
    fn outlier_roundtrip(vals in prop::collection::vec(any::<i64>(), 0..512)) {
        let bytes = compressor::encode_outliers_into(&vals, &mut Vec::new(), &mut LzScratch::new());
        let mut out = Vec::new();
        compressor::try_decode_outliers_bounded_into(&bytes, vals.len(), &mut Vec::new(), &mut out)
            .unwrap();
        prop_assert_eq!(out, vals);
    }

    /// Residual code coding round-trips (Huffman + LZSS composition).
    #[test]
    fn code_stream_roundtrip(codes in prop::collection::vec(0u32..1025, 1..2048)) {
        let bytes = compressor::encode_codes_into(&codes, &mut Vec::new(), &mut LzScratch::new());
        let mut out = Vec::new();
        compressor::try_decode_codes_into(&bytes, codes.len(), &mut Vec::new(), &mut out).unwrap();
        prop_assert_eq!(out, codes);
    }
}

/// The LZ flag bitmap is one bit per token, 1 for a match, LSB-first in
/// each byte and zero-padded to a whole byte: 16 distinct literals then 7
/// maximal matches are flag bytes `00 00 7F`.
#[test]
fn lz_flag_bitmap_is_lsb_first_and_zero_padded() {
    let mut data: Vec<u8> = (0..16u8).map(|b| b * 13 + 3).collect();
    while data.len() < 16 + 7 * 258 {
        data.push(data[data.len() - 16]);
    }
    let c = lossless::compress_with(&data, &mut LzScratch::new());
    let u64_at = |at: usize| u64::from_le_bytes(c[at..at + 8].try_into().expect("8 bytes"));
    assert_eq!(c[0], 1, "LZ mode");
    assert_eq!(u64_at(1), data.len() as u64, "raw length");
    assert_eq!(u64_at(9), 16 + 7, "tokens");
    assert_eq!(u64_at(17), 3, "flag section length");
    assert_eq!(c[25..28], [0x00, 0x00, 0x7F]);
    assert_eq!(lz_roundtrip(&data), data);
}
