//! Differential tests of the table-driven Huffman decoder against the
//! bit-serial reference implementation.
//!
//! The fast decoder (packed multi-symbol primary table + per-length
//! fallback) must be observationally identical to the reference walk on
//! every input: same symbols on valid streams, `CfcError` (never a panic,
//! never a wrong-length output) on corrupt or truncated ones. Alphabet
//! shapes cover the hard cases: heavy skew (multi-symbol packs), uniform
//! (single-symbol packs), single-symbol alphabets, wide symbol values
//! (that don't fit the narrow packed fields), and exponential frequencies
//! (max-depth codes that overflow the primary table entirely).

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use cross_field_compression::sz::huffman::{HuffmanTable, TABLE_BITS};
use cross_field_compression::CfcError;

/// Decode with both decoders and require identical observable behaviour.
fn assert_equivalent(table: &HuffmanTable, bits: &[u8], count: usize) -> Result<(), String> {
    let fast = table.try_decode(bits, count);
    let slow = table.try_decode_reference(bits, count);
    match (&fast, &slow) {
        (Ok(f), Ok(s)) => {
            if f != s {
                return Err("decoders disagree on a valid stream".into());
            }
            if f.len() != count {
                return Err(format!("decoded {} symbols, wanted {count}", f.len()));
            }
        }
        (Err(_), Err(_)) => {}
        _ => {
            return Err(format!(
                "fast = {fast:?} disagrees with reference = {slow:?}"
            ))
        }
    }
    Ok(())
}

/// Skew a uniform symbol stream toward a centre value: the shape of real
/// quantization-code streams (mass at the zero-residual code).
fn skew(symbols: &mut [u32], centre: u32, every: usize) {
    for (k, s) in symbols.iter_mut().enumerate() {
        if k % every != 0 {
            *s = centre;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary bounded streams: identical output, exact length.
    #[test]
    fn decoders_agree_on_valid_streams(symbols in prop::collection::vec(0u32..1025, 1..4096)) {
        let table = HuffmanTable::from_symbols(&symbols);
        let bits = table.try_encode(&symbols).unwrap();
        let fast = table.try_decode(&bits, symbols.len()).expect("valid stream");
        prop_assert_eq!(&fast, &symbols);
        let slow = table.try_decode_reference(&bits, symbols.len()).expect("valid stream");
        prop_assert_eq!(&fast, &slow);
    }

    /// Skewed streams exercise the multi-symbol packed entries.
    #[test]
    fn decoders_agree_on_skewed_streams(
        symbols in prop::collection::vec(0u32..1025, 64..4096),
        centre in 0u32..1025,
        every in 2usize..40,
    ) {
        let mut symbols = symbols;
        skew(&mut symbols, centre, every);
        let table = HuffmanTable::from_symbols(&symbols);
        let bits = table.try_encode(&symbols).unwrap();
        let fast = table.try_decode(&bits, symbols.len()).expect("valid stream");
        prop_assert_eq!(&fast, &symbols);
        prop_assert_eq!(
            fast,
            table.try_decode_reference(&bits, symbols.len()).expect("valid stream")
        );
    }

    /// Wide symbol values can't use the narrow packed fields — packs must
    /// degrade without changing the decoded stream.
    #[test]
    fn decoders_agree_on_wide_symbols(
        symbols in prop::collection::vec(any::<u32>(), 32..1024),
        centre_idx in 0usize..32,
        every in 2usize..12,
    ) {
        let mut symbols = symbols;
        let centre = symbols[centre_idx % symbols.len()];
        skew(&mut symbols, centre, every);
        let table = HuffmanTable::from_symbols(&symbols);
        let bits = table.try_encode(&symbols).unwrap();
        let fast = table.try_decode(&bits, symbols.len()).expect("valid stream");
        prop_assert_eq!(&fast, &symbols);
        prop_assert_eq!(
            fast,
            table.try_decode_reference(&bits, symbols.len()).expect("valid stream")
        );
    }

    /// Truncating a valid stream anywhere gives Err from both decoders —
    /// never a panic, never a short Ok.
    #[test]
    fn truncation_is_a_typed_error(
        symbols in prop::collection::vec(0u32..1025, 16..512),
        every in 2usize..20,
        frac in 0.0f64..1.0,
    ) {
        let mut symbols = symbols;
        skew(&mut symbols, 512, every);
        let table = HuffmanTable::from_symbols(&symbols);
        let bits = table.try_encode(&symbols).unwrap();
        let cut = ((bits.len() as f64) * frac) as usize;
        if cut < bits.len() {
            assert_equivalent(&table, &bits[..cut], symbols.len()).map_err(TestCaseError::fail)?;
        }
    }

    /// Arbitrary byte soup decoded against a real table: Err or an exact
    /// `count`-length output, identically in both decoders.
    #[test]
    fn garbage_never_panics(
        symbols in prop::collection::vec(0u32..1025, 16..256),
        garbage in prop::collection::vec(any::<u8>(), 0..512),
        count in 0usize..512,
    ) {
        let table = HuffmanTable::from_symbols(&symbols);
        assert_equivalent(&table, &garbage, count).map_err(TestCaseError::fail)?;
    }

    /// Bit flips in a valid stream: both decoders agree on Ok-vs-Err, and
    /// any Ok output has the demanded length.
    #[test]
    fn bit_flips_stay_equivalent(
        symbols in prop::collection::vec(0u32..1025, 64..512),
        every in 2usize..20,
        flip in any::<u64>(),
    ) {
        let mut symbols = symbols;
        skew(&mut symbols, 512, every);
        let table = HuffmanTable::from_symbols(&symbols);
        let mut bits = table.try_encode(&symbols).unwrap();
        let at = (flip as usize) % (bits.len() * 8);
        bits[at / 8] ^= 1 << (at % 8);
        assert_equivalent(&table, &bits, symbols.len()).map_err(TestCaseError::fail)?;
    }
}

#[test]
fn single_symbol_alphabet_agrees() {
    let symbols = vec![42u32; 500];
    let table = HuffmanTable::from_symbols(&symbols);
    let bits = table.try_encode(&symbols).unwrap();
    assert_eq!(table.try_decode(&bits, 500).unwrap(), symbols);
    assert_eq!(
        table.try_decode(&bits, 500).unwrap(),
        table.try_decode_reference(&bits, 500).unwrap()
    );
    // asking for more symbols than the stream holds is a typed error
    assert!(matches!(
        table.try_decode(&bits, 8 * bits.len() + 1),
        Err(CfcError::Truncated { .. })
    ));
}

#[test]
fn max_depth_alphabet_agrees() {
    // exponential frequencies force codes far past TABLE_BITS (up to the
    // 32-bit depth limit) — the primary table misses and every such symbol
    // takes the canonical fallback walk
    let freqs: Vec<(u32, u64)> = (0..40u32).map(|i| (i, 1u64 << i.min(50))).collect();
    let table = HuffmanTable::from_frequencies(&freqs);
    let data: Vec<u32> = (0..40u32).cycle().take(5000).collect();
    let bits = table.try_encode(&data).unwrap();
    let fast = table.try_decode(&bits, data.len()).expect("valid stream");
    assert_eq!(fast, data);
    assert_eq!(
        fast,
        table
            .try_decode_reference(&bits, data.len())
            .expect("valid stream")
    );
    // sanity: this alphabet really does exceed the primary table width
    let ser = table.serialize();
    let max_len = ser[4..].chunks(5).map(|c| c[4] as u32).max().unwrap_or(0);
    assert!(max_len > TABLE_BITS);
}

#[test]
fn corrupt_tables_from_wire_still_decode_equivalently() {
    // tables deserialized from bytes (the decoder's real entry point)
    // behave identically to freshly built ones
    let symbols: Vec<u32> = (0..2000u32)
        .map(|i| if i % 3 == 0 { i % 700 } else { 350 })
        .collect();
    let table = HuffmanTable::from_symbols(&symbols);
    let (wire, _) = HuffmanTable::try_deserialize(&table.serialize()).unwrap();
    let bits = table.try_encode(&symbols).unwrap();
    assert_eq!(wire.try_decode(&bits, symbols.len()).unwrap(), symbols);
    assert_eq!(
        wire.try_decode(&bits, symbols.len()).unwrap(),
        wire.try_decode_reference(&bits, symbols.len()).unwrap()
    );
}
