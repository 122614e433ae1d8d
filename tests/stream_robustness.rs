//! Stream-format robustness: the decode path is *total*. Corrupt,
//! truncated, bit-flipped, wrong-magic, and future-version inputs must
//! return `Err(CfcError)` — never panic, never decode garbage silently —
//! through both the baseline [`SzCompressor`] and the archive reader.

mod common;

use cross_field_compression::core::archive::{
    ArchiveBuilder, ArchiveReader, DecodePolicy, ReadRequest,
};
use cross_field_compression::core::config::TrainConfig;
use cross_field_compression::core::pipeline::CrossFieldCompressor;
use cross_field_compression::core::train::train_cfnn;
use cross_field_compression::sz::stream::{Container, SectionTag};
use cross_field_compression::sz::{CfcError, DecodeScratch, LorenzoPredictor, SzCompressor};
use cross_field_compression::tensor::{Dataset, Field, Shape};

fn sample_field() -> Field {
    Field::from_fn(Shape::d2(24, 24), |idx| {
        ((idx[0] as f32) * 0.2).sin() * 10.0 + idx[1] as f32 * 0.1
    })
}

fn sample_stream() -> (SzCompressor, Vec<u8>, Field) {
    let f = sample_field();
    let c = SzCompressor::baseline(1e-3);
    let bytes = c.compress(&f).expect("compress").bytes;
    (c, bytes, f)
}

fn sample_archive() -> (Vec<u8>, Dataset) {
    let shape = Shape::d2(24, 24);
    let anchor = sample_field();
    let target = anchor.map(|v| 0.8 * v + 2.0);
    let mut ds = Dataset::new("ROBUST", shape);
    ds.push("A", anchor);
    ds.push("T", target);
    // chunked: 6 rows per block → 4 blocks per field, so the sweeps below
    // also cover the v2 block index and per-block streams
    let bytes = ArchiveBuilder::relative(1e-3)
        .train_config(TrainConfig::fast())
        .cross_field("T", &["A"])
        .always_cross_field()
        .chunk_elements(6 * 24)
        .build()
        .write(&ds)
        .expect("archive write");
    common::assert_has_target(&bytes);
    (bytes, ds)
}

#[test]
fn valid_stream_decodes() {
    let (c, bytes, f) = sample_stream();
    let dec = c.decompress(&bytes).expect("valid stream");
    assert_eq!(dec.shape(), f.shape());
}

#[test]
fn corrupt_magic_rejected() {
    let (c, mut bytes, _) = sample_stream();
    bytes[0] ^= 0xFF;
    assert!(matches!(
        c.decompress(&bytes),
        Err(CfcError::BadMagic { .. })
    ));
}

#[test]
fn future_version_rejected() {
    let (c, mut bytes, _) = sample_stream();
    bytes[4] = 99;
    assert!(matches!(
        c.decompress(&bytes),
        Err(CfcError::UnsupportedVersion { found: 99, .. })
    ));
}

#[test]
fn truncation_at_every_length_rejected() {
    // every proper prefix must produce Err — never panic, never Ok
    let (c, bytes, _) = sample_stream();
    for cut in 0..bytes.len() {
        let res = std::panic::catch_unwind(|| c.decompress(&bytes[..cut]));
        match res {
            Ok(Err(_)) => {}
            Ok(Ok(_)) => panic!("prefix of {cut} bytes decoded successfully"),
            Err(_) => panic!("prefix of {cut} bytes panicked"),
        }
    }
}

#[test]
fn corrupted_section_length_rejected() {
    let (c, mut bytes, _) = sample_stream();
    // blow up the first section length field (just after the fixed header)
    let header = 4 + 2 + 1 + 8 * 2 + 8 + 4 + 2 + 1;
    bytes[header] = 0xFF;
    bytes[header + 7] = 0x7F;
    assert!(c.decompress(&bytes).is_err());
}

#[test]
fn every_single_byte_flip_is_err_or_ok_never_panic() {
    // exhaustive single-byte corruption: each position flipped must either
    // surface as Err or decode to *something* — but must never panic
    let (c, bytes, _) = sample_stream();
    for pos in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[pos] ^= 0xFF;
        let res = std::panic::catch_unwind(|| c.decompress(&bad));
        assert!(res.is_ok(), "byte flip at {pos} panicked");
    }
}

#[test]
fn random_garbage_never_panics() {
    // deterministic pseudo-random buffers straight into the decoder
    let c = SzCompressor::baseline(1e-3);
    let mut x = 0x0123_4567_89AB_CDEFu64;
    for len in [0usize, 1, 3, 17, 64, 256, 1024, 4096] {
        let buf: Vec<u8> = (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 48) as u8
            })
            .collect();
        let res = std::panic::catch_unwind(|| c.decompress(&buf));
        assert!(res.is_ok(), "garbage of len {len} panicked");
        // a random buffer without the magic can never decode successfully
        if len < 4 || &buf[..4] != b"CFSZ" {
            assert!(res.unwrap().is_err());
        }
    }
}

#[test]
fn container_preserves_unknown_future_sections() {
    let mut c = Container::new(Shape::d1(4), 1e-3, 512);
    c.push(SectionTag::Residuals, vec![1, 2, 3]);
    c.sections.push((200u8, vec![9, 9, 9])); // unknown tag
    let c2 = Container::try_from_bytes(&c.to_bytes()).expect("roundtrip");
    assert_eq!(c2.sections.len(), 2);
    assert_eq!(c2.sections[1], (200u8, vec![9, 9, 9]));
}

#[test]
fn mismatched_decoder_predictor_is_an_error() {
    // a stream carrying the retired block-regression predictor's side-info
    // section must fail cleanly: replaying its residuals through Lorenzo
    // would hand back a garbled field as Ok
    let (c, bytes, _) = sample_stream();
    let mut container = Container::try_from_bytes(&bytes).expect("valid stream");
    container.push(SectionTag::PredictorSideInfo, vec![6, 0, 0, 0]);
    let res = c.decompress(&container.to_bytes());
    assert!(
        matches!(
            &res,
            Err(CfcError::Corrupt { context, .. }) if *context == "predictor side info"
        ),
        "must not silently decode with the wrong predictor: {res:?}"
    );
    // the lattice entry point refuses the same stream the same way
    let res = c.decompress_lattice_with(&container, &LorenzoPredictor, &mut DecodeScratch::new());
    assert!(
        matches!(
            &res,
            Err(CfcError::Corrupt { context, .. }) if *context == "predictor side info"
        ),
        "decompress_lattice_with must refuse it too: {res:?}"
    );
}

fn expect_truncated<T: std::fmt::Debug>(
    res: Result<T, CfcError>,
    context: &str,
    needed: usize,
    available: usize,
) {
    match res {
        Err(CfcError::Truncated {
            context: c,
            needed: n,
            available: a,
        }) if (c, n, a) == (context, needed, available) => {}
        other => panic!("want Truncated {{ {context}, {needed}, {available} }}, got {other:?}"),
    }
}

fn expect_corrupt<T: std::fmt::Debug>(res: Result<T, CfcError>, context: &str) {
    match res {
        Err(CfcError::Corrupt { context: c, .. }) if c == context => {}
        other => panic!("want Corrupt {{ {context} }}, got {other:?}"),
    }
}

/// `parts` back to back, each `u64` little-endian.
fn le(parts: &[u64]) -> Vec<u8> {
    parts.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// One hand-built stream per error of each entropy-stage parser and of the
/// hybrid weights, pinned to its variant, context and (for truncation)
/// byte counts.
#[test]
fn every_parser_error_is_typed_and_counted() {
    use cross_field_compression::core::HybridModel;
    use cross_field_compression::sz::compressor::try_decode_outliers_bounded_into;
    use cross_field_compression::sz::huffman::HuffmanTable;
    use cross_field_compression::sz::lossless::try_decompress_bounded;

    // Huffman table: a 3-byte header, then 2 entries claimed in 5 bytes
    expect_truncated(
        HuffmanTable::try_deserialize(&[1, 0, 0]),
        "Huffman table header",
        4,
        3,
    );
    expect_truncated(
        HuffmanTable::try_deserialize(&[2, 0, 0, 0, 5, 0, 0, 0, 1]),
        "Huffman table body",
        14,
        9,
    );

    // LZ container: mode byte, header, section, coded-section header
    let lz = |rest: &[u8]| try_decompress_bounded(&[&[1u8][..], rest].concat(), usize::MAX);
    expect_truncated(
        try_decompress_bounded(&[], usize::MAX),
        "lossless mode byte",
        1,
        0,
    );
    expect_corrupt(try_decompress_bounded(&[9], usize::MAX), "lossless stream");
    expect_truncated(lz(&[0; 5]), "lossless header", 8, 5);
    expect_truncated(
        lz(&[le(&[0, 0, 100]), vec![7; 3]].concat()),
        "lossless section",
        100,
        3,
    );
    // no tokens, an empty flag section, then a 4-byte literal section
    expect_truncated(
        lz(&[le(&[0, 0, 0, 4]), vec![1; 4]].concat()),
        "coded section header",
        8,
        4,
    );

    // outliers, behind a stored-mode lossless byte
    let outliers = |payload: &[u8]| {
        let stored = [&[0u8][..], payload].concat();
        try_decode_outliers_bounded_into(&stored, 10, &mut Vec::new(), &mut Vec::new())
    };
    expect_truncated(outliers(&[1, 2, 3]), "outlier count", 8, 3);
    expect_truncated(
        outliers(&[le(&[1]), vec![0x80]].concat()),
        "outlier varint",
        1,
        0,
    );
    expect_corrupt(
        outliers(&[le(&[1]), vec![0xFF; 10]].concat()),
        "outlier varint",
    );

    // hybrid weights: no count byte, then 2 weights in 8 bytes
    expect_truncated(
        HybridModel::try_deserialize(&[]),
        "hybrid weight count",
        1,
        0,
    );
    let res = HybridModel::try_deserialize(&[&[2u8][..], &1.0f64.to_le_bytes()].concat());
    match res {
        Err(CfcError::Corrupt { context, detail }) => {
            assert_eq!(context, "hybrid weights");
            assert_eq!(detail, "2 weights claimed in 8 payload bytes");
        }
        other => panic!("want Corrupt {{ hybrid weights }}, got {other:?}"),
    }
}

#[test]
fn cross_field_codec_survives_bit_flips() {
    let anchor = sample_field();
    let target = anchor.map(|v| 1.1 * v - 3.0);
    let comp = CrossFieldCompressor::new(1e-3);
    let anchor_dec = comp.roundtrip_anchor(&anchor).expect("anchor roundtrip");
    let trained = train_cfnn(
        &common::NARROW_CFNN,
        &TrainConfig::fast(),
        &[&anchor],
        &target,
    );
    let anchors = [&anchor_dec];
    let bytes = comp
        .compress(&trained, &target, &anchors)
        .expect("compress")
        .bytes;
    // valid stream decodes
    assert!(comp.decompress(&bytes, &anchors).is_ok());
    // flips across the stream (header, residuals, embedded model, weights)
    for pos in (0..bytes.len()).step_by(7) {
        let mut bad = bytes.clone();
        bad[pos] ^= 0xFF;
        let res = std::panic::catch_unwind(|| comp.decompress(&bad, &anchors));
        assert!(res.is_ok(), "cross-field byte flip at {pos} panicked");
    }
    // truncations too
    for cut in (0..bytes.len()).step_by(13) {
        let res = std::panic::catch_unwind(|| comp.decompress(&bytes[..cut], &anchors));
        assert!(
            matches!(res, Ok(Err(_))),
            "cross-field truncation at {cut} must be Err"
        );
    }
}

#[test]
fn archive_wrong_magic_and_version_rejected() {
    let (bytes, _) = sample_archive();
    let mut bad = bytes.clone();
    bad[0] = b'X';
    assert!(matches!(
        ArchiveReader::new(&bad),
        Err(CfcError::BadMagic { .. })
    ));
    let mut bad = bytes.clone();
    bad[4] = 0x7F;
    assert!(matches!(
        ArchiveReader::new(&bad),
        Err(CfcError::UnsupportedVersion { .. })
    ));
}

#[test]
fn archive_truncation_never_panics() {
    let (bytes, _) = sample_archive();
    for cut in 0..bytes.len() {
        let res = std::panic::catch_unwind(|| match ArchiveReader::new(&bytes[..cut]) {
            Ok(r) => r.decode_all().map(|_| ()),
            Err(e) => Err(e),
        });
        match res {
            Ok(Err(_)) => {}
            Ok(Ok(())) => panic!("archive prefix of {cut} bytes decoded fully"),
            Err(_) => panic!("archive prefix of {cut} bytes panicked"),
        }
    }
}

#[test]
fn archive_bit_flips_never_panic() {
    let (bytes, ds) = sample_archive();
    for pos in (0..bytes.len()).step_by(5) {
        let mut bad = bytes.clone();
        bad[pos] ^= 0xFF;
        let res = std::panic::catch_unwind(|| {
            ArchiveReader::new(&bad).and_then(|r| r.decode_all().map(|_| ()))
        });
        assert!(res.is_ok(), "archive byte flip at {pos} panicked");
    }
    // and the pristine archive still round-trips
    let dec = ArchiveReader::new(&bytes).unwrap().decode_all().unwrap();
    assert_eq!(dec.field_names(), ds.field_names());
}

#[test]
fn archive_chunked_manifest_records_blocks() {
    let (bytes, _) = sample_archive();
    let reader = ArchiveReader::new(&bytes).expect("parse");
    assert_eq!(reader.version(), 3);
    for e in reader.entries() {
        assert_eq!(e.n_blocks(), 4, "{}", e.name);
    }
}

#[test]
fn archive_truncated_block_index_rejected() {
    let (bytes, _) = sample_archive();
    let reader = ArchiveReader::new(&bytes).expect("parse");
    let e = &reader.entries()[0];
    // the block index (20 bytes/block) sits immediately before the payload;
    // baseline entries carry no meta, so block 0's span starts the payload
    let payload_base = e.block_span(0).expect("span").0 as usize;
    let index_start = payload_base - 20 * e.n_blocks();
    // cut the file in the middle of the index: parse must fail cleanly
    for cut in [index_start + 1, index_start + 19, payload_base - 1] {
        let res = std::panic::catch_unwind(|| ArchiveReader::new(&bytes[..cut]));
        match res {
            Ok(Err(_)) => {}
            Ok(Ok(_)) => panic!("archive cut inside the block index parsed"),
            Err(_) => panic!("archive cut inside the block index panicked"),
        }
    }
}

#[test]
fn archive_index_offsets_past_eof_rejected() {
    let (bytes, _) = sample_archive();
    let reader = ArchiveReader::new(&bytes).expect("parse");
    let e = &reader.entries()[0];
    let payload_base = e.block_span(0).expect("span").0 as usize;
    let index_start = payload_base - 20 * e.n_blocks();

    // block 0's rel_offset → far past the payload (and the file)
    let mut bad = bytes.clone();
    bad[index_start..index_start + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
    assert!(
        matches!(ArchiveReader::new(&bad), Err(CfcError::Corrupt { .. })),
        "offset past payload must be a typed parse error"
    );

    // block 0's length → past EOF
    let mut bad = bytes.clone();
    bad[index_start + 8..index_start + 16].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
    assert!(ArchiveReader::new(&bad).is_err());

    // the field's payload length itself → past EOF
    let payload_len_at = index_start - 8;
    let mut bad = bytes.clone();
    bad[payload_len_at..payload_len_at + 8].copy_from_slice(&(u64::MAX / 4).to_le_bytes());
    assert!(
        matches!(ArchiveReader::new(&bad), Err(CfcError::Truncated { .. })),
        "payload pointing past EOF must be a typed parse error"
    );
}

#[test]
fn archive_v1_fixture_truncation_and_flips_never_panic() {
    // the legacy container's read path gets the same sweeps as v2
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/small_v1.cfar");
    let bytes = std::fs::read(path).expect("v1 fixture");
    assert_eq!(ArchiveReader::new(&bytes).unwrap().version(), 1);
    for cut in (0..bytes.len()).step_by(61) {
        let res = std::panic::catch_unwind(|| match ArchiveReader::new(&bytes[..cut]) {
            Ok(r) => r.decode_all().map(|_| ()),
            Err(e) => Err(e),
        });
        match res {
            Ok(Err(_)) => {}
            Ok(Ok(())) => panic!("v1 prefix of {cut} bytes decoded fully"),
            Err(_) => panic!("v1 prefix of {cut} bytes panicked"),
        }
    }
    for pos in (0..bytes.len()).step_by(17) {
        let mut bad = bytes.clone();
        bad[pos] ^= 0xFF;
        let res = std::panic::catch_unwind(|| {
            ArchiveReader::new(&bad).and_then(|r| r.decode_all().map(|_| ()))
        });
        assert!(res.is_ok(), "v1 byte flip at {pos} panicked");
    }
}

#[test]
fn archive_garbage_after_valid_toc_is_contained() {
    // random bytes straight into the archive parser
    let mut x = 0xDEAD_BEEF_1234_5678u64;
    for len in [0usize, 1, 5, 21, 100, 512, 2048] {
        let buf: Vec<u8> = (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 40) as u8
            })
            .collect();
        let res = std::panic::catch_unwind(|| ArchiveReader::new(&buf).map(|_| ()));
        assert!(res.is_ok(), "garbage of len {len} panicked");
        if len < 4 || &buf[..4] != b"CFAR" {
            assert!(res.unwrap().is_err());
        }
    }
}

/// Corruption sweep over every `(field, block)`: with exactly that block's
/// payload flipped, Strict decode fails with a typed error naming the
/// field and block, and Salvage decode recovers **every other block
/// byte-for-byte** while reporting exactly the corrupted block.
#[test]
fn salvage_sweep_recovers_every_healthy_block() {
    let (bytes, _) = sample_archive();
    let reader = ArchiveReader::new(&bytes).expect("parse");
    let clean = reader.decode_all().expect("clean decode");
    let rows_per_block = 6;
    let cols = 24;
    let spans: Vec<(String, usize, u64, usize)> = reader
        .entries()
        .iter()
        .flat_map(|e| {
            (0..e.n_blocks()).map(move |b| {
                let (off, len) = e.block_span(b).expect("span");
                (e.name.clone(), b, off, len)
            })
        })
        .collect();
    assert_eq!(spans.len(), 8, "2 fields × 4 blocks");

    for (name, b, off, len) in &spans {
        let mut bad = bytes.clone();
        bad[*off as usize + len / 2] ^= 0x01;
        let r = ArchiveReader::new(&bad).expect("manifest still parses");

        let err = r
            .read(&ReadRequest::new(name))
            .expect_err("strict decode of a corrupt block must fail");
        match &err {
            CfcError::InField { field, block, .. } => {
                assert_eq!(field, name, "error must name the damaged field");
                assert_eq!(*block, Some(*b), "error must name the damaged block");
            }
            other => panic!("expected InField, got {other}"),
        }

        let s = r
            .read(&ReadRequest::new(name).policy(DecodePolicy::Salvage { fill: f32::NAN }))
            .expect("salvage decode");
        assert_eq!(s.damage.blocks_of(name), vec![*b], "{name}[{b}]");
        assert_eq!(s.damage.len(), 1, "exactly one damaged location");
        let want = clean.expect_field(name);
        for k in 0..4usize {
            let lo = k * rows_per_block * cols;
            let hi = lo + rows_per_block * cols;
            if k == *b {
                assert!(
                    s.data.as_slice()[lo..hi].iter().all(|v| v.is_nan()),
                    "{name}[{k}] must be pure fill"
                );
            } else {
                assert!(
                    s.data.as_slice()[lo..hi]
                        .iter()
                        .zip(&want.as_slice()[lo..hi])
                        .all(|(a, w)| a.to_bits() == w.to_bits()),
                    "{name}[{k}] must be byte-identical with {name}[{b}] corrupt"
                );
            }
        }
    }
}

/// Corrupting an *anchor* block under salvage cascades: the target's
/// matching block is filled too, attributed to the anchor, and every
/// other target block still decodes byte-for-byte.
#[test]
fn salvage_cascades_anchor_damage_to_targets() {
    let (bytes, _) = sample_archive();
    let reader = ArchiveReader::new(&bytes).expect("parse");
    let clean = reader.decode_all().expect("clean decode");
    let a = reader
        .entries()
        .iter()
        .find(|e| e.name == "A")
        .expect("anchor entry");
    let (off, len) = a.block_span(2).expect("span");
    let mut bad = bytes.clone();
    bad[off as usize + len / 2] ^= 0x08;

    let r = ArchiveReader::new(&bad).expect("manifest parses");
    let s = r
        .read(&ReadRequest::new("T").policy(DecodePolicy::salvage()))
        .expect("salvage decode of the dependent target");
    assert_eq!(s.damage.blocks_of("T"), vec![2]);
    assert_eq!(s.damage.blocks_of("A"), vec![2], "root damage recorded too");
    let t2 = s
        .damage
        .iter()
        .find(|d| d.field == "T" && d.block == 2)
        .expect("target damage entry");
    assert_eq!(
        t2.cascaded_from.as_deref(),
        Some("A"),
        "target damage must name the corrupt anchor"
    );
    assert_eq!(s.damage.summary(), "A:2;T:2");

    let want = clean.expect_field("T");
    let span = 6 * 24;
    for k in [0usize, 1, 3] {
        assert!(
            s.data.as_slice()[k * span..(k + 1) * span]
                .iter()
                .zip(&want.as_slice()[k * span..(k + 1) * span])
                .all(|(x, w)| x.to_bits() == w.to_bits()),
            "T[{k}] must survive A[2] corruption byte-for-byte"
        );
    }
    assert!(s.data.as_slice()[2 * span..3 * span]
        .iter()
        .all(|v| *v == 0.0));
}

/// Several blocks corrupted at once: salvage reports exactly that set and
/// the complement decodes byte-for-byte.
#[test]
fn salvage_reports_exactly_the_corrupted_set() {
    let (bytes, _) = sample_archive();
    let reader = ArchiveReader::new(&bytes).expect("parse");
    let clean = reader.decode_all().expect("clean decode");
    let t = reader
        .entries()
        .iter()
        .find(|e| e.name == "T")
        .expect("target entry");
    let mut bad = bytes.clone();
    for b in [0usize, 2] {
        let (off, len) = t.block_span(b).expect("span");
        bad[off as usize + len / 3] ^= 0x20;
    }

    let r = ArchiveReader::new(&bad).expect("manifest parses");
    let s = r
        .read(&ReadRequest::new("T").policy(DecodePolicy::salvage()))
        .expect("salvage decode");
    assert_eq!(s.damage.blocks_of("T"), vec![0, 2]);
    assert_eq!(s.damage.len(), 2);
    let want = clean.expect_field("T");
    let span = 6 * 24;
    for k in [1usize, 3] {
        assert!(
            s.data.as_slice()[k * span..(k + 1) * span]
                .iter()
                .zip(&want.as_slice()[k * span..(k + 1) * span])
                .all(|(x, w)| x.to_bits() == w.to_bits()),
            "healthy T[{k}] must be byte-identical"
        );
    }
}

#[test]
fn archive_decodes_with_no_out_of_band_configuration() {
    // the reader gets nothing but bytes: no bound, no roles, no specs
    let (bytes, ds) = sample_archive();
    let reader = ArchiveReader::new(&bytes).expect("parse");
    let dec = reader.decode_all().expect("decode");
    for entry in reader.entries() {
        let orig = ds.expect_field(&entry.name);
        let got = dec.expect_field(&entry.name);
        for (a, b) in orig.as_slice().iter().zip(got.as_slice()) {
            assert!(
                ((a - b).abs() as f64) <= entry.eb_abs * (1.0 + 1e-9),
                "{}: |{a} − {b}| > {}",
                entry.name,
                entry.eb_abs
            );
        }
    }
}

#[test]
fn v3_meta_corruption_sweep_is_typed_not_garbled() {
    // Small temporal archive: 3 epochs at keyframe interval 2, so the
    // sweep covers both CRC-protected meta kinds — the epoch-0 target's
    // embedded model and a delta epoch's temporal hybrid weights.
    let shape = Shape::d2(24, 24);
    let snapshots: Vec<Dataset> = (0..3)
        .map(|t| {
            let a = Field::from_fn(shape, |idx| {
                ((idx[0] as f32) * 0.2 + 0.05 * t as f32).sin() * 10.0
                    + idx[1] as f32 * 0.1
                    + 0.3 * t as f32
            });
            let target = a.map(|v| 0.8 * v + 2.0);
            let mut ds = Dataset::new("ROBUST_V3", shape);
            ds.push("A", a);
            ds.push("T", target);
            ds
        })
        .collect();
    let bytes = ArchiveBuilder::relative(1e-3)
        .train_config(TrainConfig::fast())
        .cross_field("T", &["A"])
        .always_cross_field()
        .chunk_elements(6 * 24)
        .keyframe_interval(2)
        .build()
        .write_epochs(&snapshots)
        .expect("v3 write");
    common::assert_has_target(&bytes);

    let reader = ArchiveReader::new(&bytes).expect("parse");
    assert_eq!(reader.version(), 3);
    // (display name, plain name, epoch, meta start, meta len) for every
    // entry that carries a meta area — blocks start right after it
    let metas: Vec<(String, String, usize, usize, usize)> = reader
        .entries()
        .iter()
        .filter(|e| e.meta_len() > 0)
        .map(|e| {
            let (b0, _) = e.block_span(0).expect("block 0 span");
            (
                e.qualified_name(),
                e.name.clone(),
                e.epoch,
                b0 as usize - e.meta_len(),
                e.meta_len(),
            )
        })
        .collect();
    assert!(
        metas.iter().any(|m| m.2 == 0) && metas.iter().any(|m| m.2 > 0),
        "sweep must cover a keyframe model and a delta's hybrid weights"
    );
    drop(reader);

    for (qualified, name, epoch, start, len) in metas {
        // every byte of the small delta metas; stride through the larger
        // embedded-model meta so the sweep stays fast
        let stride = (len / 64).max(1);
        for off in (0..len).step_by(stride) {
            let mut bad = bytes.clone();
            bad[start + off] ^= 0x01;
            let reader = ArchiveReader::new(&bad).expect("TOC is untouched");

            // strict decode: the typed checksum error, never garbled data
            let err = reader
                .read(&ReadRequest::new(&name).at(epoch))
                .expect_err("meta flip must not decode");
            assert!(
                matches!(
                    err.root_cause(),
                    CfcError::ChecksumMismatch {
                        context: "archive field meta",
                        ..
                    }
                ),
                "{qualified} meta byte {off}: wrong error {err:?}"
            );

            // salvage decode: total, with every block of the field damaged
            let s = reader
                .read(
                    &ReadRequest::new(&name)
                        .at(epoch)
                        .policy(DecodePolicy::salvage()),
                )
                .expect("salvage never fails on payload rot");
            assert_eq!(
                s.damage.blocks_of(&qualified).len(),
                4,
                "{qualified} meta byte {off}: all 4 blocks must be damaged"
            );
        }
    }
}
