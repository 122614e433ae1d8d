//! Scratch-buffer reuse: repeated decodes through one scratch are
//! deterministic, and — the perf contract — steady-state block processing
//! performs no new allocations in the reusable code/outlier/payload/
//! lattice/byte buffers (asserted via the scratch types' capacity-growth
//! counters).

mod common;

use cross_field_compression::core::archive::{
    ArchiveBuilder, ArchiveReader, ArchiveScratch, ReadRequest,
};
use cross_field_compression::sz::{
    DecodeScratch, EncodeScratch, ErrorBound, PredictorKind, QuantizerConfig, SzCompressor,
};
use cross_field_compression::tensor::{Dataset, Field, Shape};

fn snapshot(rows: usize, cols: usize) -> Dataset {
    let shape = Shape::d2(rows, cols);
    let t = Field::from_fn(shape, |i| {
        ((i[0] as f32) * 0.13).sin() * 15.0 + ((i[1] as f32) * 0.09).cos() * 9.0 + 280.0
    });
    let p = Field::from_fn(shape, |i| {
        1000.0 - (i[0] as f32) * 0.8 + ((i[1] as f32) * 0.05).sin() * 3.0
    });
    let mut ds = Dataset::new("SCRATCH", shape);
    ds.push("T", t);
    ds.push("P", p);
    ds
}

#[test]
fn codec_scratch_decode_is_deterministic_and_allocation_free() {
    let f = Field::from_fn(Shape::d2(96, 96), |i| {
        ((i[0] as f32) * 0.2).sin() * 40.0 + (i[1] as f32) * 0.3
    });
    let c = SzCompressor::baseline(1e-3);
    let stream = c.compress(&f).unwrap();

    let mut scratch = DecodeScratch::new();
    let first = c.decompress_with(&stream.bytes, &mut scratch).unwrap();
    assert_eq!(
        first.as_slice(),
        c.decompress(&stream.bytes).unwrap().as_slice()
    );

    // steady state: same stream through the warmed scratch grows nothing
    let warmed = scratch.growths();
    for _ in 0..5 {
        let again = c.decompress_with(&stream.bytes, &mut scratch).unwrap();
        assert_eq!(again.as_slice(), first.as_slice());
    }
    assert_eq!(
        scratch.growths(),
        warmed,
        "steady-state decode must not grow the scratch buffers"
    );
}

/// The growth counter covers all four decode buffers — staged payload,
/// codes, outliers and the lattice a block is dequantized from — so "grows
/// nothing" below means the returned `Field` is the only allocation left.
#[test]
fn decode_scratch_counts_every_buffer_then_stops_growing() {
    // rough data at a small radius: outliers, so every buffer gets sized
    let rough = |rows: usize, cols: usize| {
        Field::from_fn(Shape::d2(rows, cols), |i| {
            ((i[0] * 7919 + i[1] * 104_729) % 1000) as f32 * 3.7 - 1500.0
        })
    };
    let c = SzCompressor {
        bound: ErrorBound::Absolute(0.5),
        quantizer: QuantizerConfig { radius: 16 },
        predictor: PredictorKind::Lorenzo,
    };
    let small = c.compress(&rough(24, 24)).unwrap();
    let large = c.compress(&rough(40, 56)).unwrap();
    assert!(small.n_outliers > 0 && large.n_outliers > small.n_outliers);

    let mut scratch = DecodeScratch::new();
    let first = c.decompress_with(&small.bytes, &mut scratch).unwrap();
    assert_eq!(
        scratch.growths(),
        4,
        "payload, codes, outliers and lattice are each sized once"
    );
    c.decompress_with(&large.bytes, &mut scratch).unwrap();
    assert_eq!(scratch.growths(), 8, "a larger block sizes all four again");

    // warmed for the larger block: either stream, any order, grows nothing
    for stream in [&small, &large, &small, &large] {
        let again = c.decompress_with(&stream.bytes, &mut scratch).unwrap();
        assert_eq!(again, c.decompress(&stream.bytes).unwrap());
    }
    assert_eq!(
        scratch.growths(),
        8,
        "a warmed decompress_with must not grow"
    );
    assert_eq!(c.decompress(&small.bytes).unwrap(), first);
}

#[test]
fn codec_scratch_encode_matches_plain_compress() {
    let f = Field::from_fn(Shape::d2(80, 64), |i| {
        (i[0] as f32) * 0.5 - ((i[1] as f32) * 0.11).cos() * 7.0
    });
    let c = SzCompressor::baseline(1e-3);
    let plain = c.compress(&f).unwrap();

    let mut scratch = EncodeScratch::new();
    let first = c.compress_with(&f, &mut scratch).unwrap();
    assert_eq!(
        first.bytes, plain.bytes,
        "scratch must not change the bytes"
    );
    assert_eq!(first.n_outliers, plain.n_outliers);

    let warmed = scratch.growths();
    for _ in 0..5 {
        let again = c.compress_with(&f, &mut scratch).unwrap();
        assert_eq!(again.bytes, plain.bytes);
    }
    assert_eq!(
        scratch.growths(),
        warmed,
        "steady-state encode must not grow the scratch buffers"
    );
}

#[test]
fn archive_decodes_identically_through_one_reader_twice() {
    let ds = snapshot(48, 40);
    let bytes = ArchiveBuilder::relative(1e-3)
        .chunk_elements(8 * 40)
        .build()
        .write(&ds)
        .unwrap();
    let reader = ArchiveReader::new(&bytes).unwrap();
    let once = reader.decode_all().unwrap();
    let twice = reader.decode_all().unwrap();
    assert_eq!(once.field_names(), twice.field_names());
    for (name, field) in once.iter() {
        assert_eq!(
            field.as_slice(),
            twice.expect_field(name).as_slice(),
            "second decode of {name} differs"
        );
    }
}

#[test]
fn steady_state_block_decode_reuses_buffers() {
    let ds = snapshot(60, 40);
    let bytes = ArchiveBuilder::relative(1e-3)
        .chunk_elements(6 * 40) // 10 equal blocks
        .build()
        .write(&ds)
        .unwrap();
    let reader = ArchiveReader::new(&bytes).unwrap();
    let full = reader.read(&ReadRequest::new("T")).unwrap().data;

    let mut scratch = ArchiveScratch::new();
    // warm pass: buffers grow to their steady-state capacity
    let n_blocks = reader.entries()[0].n_blocks();
    for bi in 0..n_blocks {
        reader.decode_block_with("T", bi, &mut scratch).unwrap();
    }
    let warmed = scratch.growths();
    assert!(warmed > 0, "the warm pass must have allocated something");

    // steady state: a second full pass over every block allocates nothing
    // new in the scratch, and still decodes the exact same samples
    for bi in 0..n_blocks {
        let block = reader.decode_block_with("T", bi, &mut scratch).unwrap();
        assert_eq!(
            block.as_slice(),
            full.slab(bi * 6, ((bi + 1) * 6).min(60)).as_slice(),
            "block {bi} drifted under scratch reuse"
        );
    }
    assert_eq!(
        scratch.growths(),
        warmed,
        "steady-state block decode must not grow any scratch buffer"
    );
}

/// A delta chain through one scratch — keyframe under Lorenzo, then link
/// after link under the temporal hybrid, each predicted from the field the
/// link before it decoded to, which is how the archive reader resolves a
/// delta block. The temporal kernels convert the previous epoch a row at a
/// time into buffers of their own, so the second chain decode on finds
/// every scratch buffer at its size.
#[test]
fn delta_chain_decode_stops_growing_the_scratch_after_the_first_chain() {
    use cross_field_compression::core::predictor::TemporalHybridPredictor;
    use cross_field_compression::core::HybridModel;
    use cross_field_compression::sz::{LorenzoPredictor, Predictor, QuantLattice};

    let eb = 0.01;
    let epochs: Vec<Field> = (0..4)
        .map(|e| {
            Field::from_fn(Shape::d2(64, 48), |i| {
                let (r, c, t) = (i[0] as f32, i[1] as f32, e as f32);
                (0.11 * r + 0.2 * t).sin() * 12.0 + (0.07 * c - 0.1 * t).cos() * 7.0
            })
        })
        .collect();
    let sz = SzCompressor::baseline(1e-3);
    let temporal = |prev: &Field| -> Box<dyn Predictor> {
        let model = HybridModel {
            weights: vec![0.2, 0.5, 0.3],
            losses: Vec::new(),
        };
        Box::new(TemporalHybridPredictor::new(prev, eb, model))
    };
    // each link is encoded against the reader's view of the one before it
    let mut enc = EncodeScratch::new();
    let mut containers = Vec::new();
    let mut view: Option<Field> = None;
    for field in &epochs {
        let lattice = QuantLattice::prequantize(field, eb);
        let predictor = view
            .as_ref()
            .map_or(Box::new(LorenzoPredictor) as _, temporal);
        containers.push(
            sz.compress_lattice_with(&lattice, &*predictor, eb, &mut enc)
                .0,
        );
        view = Some(lattice.reconstruct(eb));
    }

    let mut dec = DecodeScratch::new();
    let chain = |dec: &mut DecodeScratch| -> Field {
        let mut view: Option<Field> = None;
        for container in &containers {
            let predictor = view
                .as_ref()
                .map_or(Box::new(LorenzoPredictor) as _, temporal);
            let lattice = sz
                .decompress_lattice_with(container, &*predictor, dec)
                .expect("own chain");
            view = Some(lattice.reconstruct(eb));
        }
        view.expect("four links")
    };
    let first = chain(&mut dec);
    let warmed = dec.growths();
    assert!(warmed > 0, "the first chain must have allocated something");
    for _ in 0..3 {
        assert_eq!(chain(&mut dec).as_slice(), first.as_slice());
        assert_eq!(dec.growths(), warmed, "a later chain grew the scratch");
    }
    assert_eq!(
        first.as_slice(),
        QuantLattice::prequantize(&epochs[3], eb)
            .reconstruct(eb)
            .as_slice(),
        "the chain's tail is the last epoch's lattice"
    );
}

/// The CFNN activation workspace rides in the same scratch: it must cost
/// nothing until a cross-field target block is decoded, and nothing more
/// after the first one.
#[test]
fn cfnn_workspace_is_lazy_then_reused() {
    use cross_field_compression::core::TrainConfig;
    let mut ds = snapshot(48, 40);
    let rh = ds.expect_field("T").zip_map(ds.expect_field("P"), |t, p| {
        0.5 * (t - 280.0) + 0.04 * (p - 1000.0)
    });
    ds.push("RH", rh);
    let bytes = ArchiveBuilder::relative(1e-3)
        .train_config(TrainConfig::fast())
        .cross_field("RH", &["T", "P"])
        .always_cross_field()
        .chunk_elements(6 * 40) // 8 equal blocks
        .build()
        .write(&ds)
        .unwrap();
    common::assert_has_target(&bytes);
    let reader = ArchiveReader::new(&bytes).unwrap();
    let n_blocks = reader.entries()[0].n_blocks();
    let pass = |field: &str, scratch: &mut ArchiveScratch| -> Vec<Field> {
        (0..n_blocks)
            .map(|bi| reader.decode_block_with(field, bi, scratch).unwrap())
            .collect()
    };

    let mut scratch = ArchiveScratch::new();
    pass("T", &mut scratch);
    let baseline_warmed = scratch.growths();
    pass("P", &mut scratch);
    assert_eq!(
        scratch.growths(),
        baseline_warmed,
        "baseline blocks must not size anything new"
    );

    let first = pass("RH", &mut scratch);
    let target_warmed = scratch.growths();
    assert!(
        target_warmed > baseline_warmed,
        "the first target block sizes the CFNN activations"
    );
    let second = pass("RH", &mut scratch);
    assert_eq!(
        scratch.growths(),
        target_warmed,
        "steady-state target decode must not grow any scratch buffer"
    );
    assert_eq!(first, second);
    assert_eq!(
        Field::concat_axis0(&second),
        reader.read(&ReadRequest::new("RH")).unwrap().data
    );
}

/// Property sweep over the batched encode pipeline: random skewed /
/// uniform / wide symbol streams through word-level Huffman emission and
/// the reusable scratch chain, checked for byte identity with the
/// allocating path, round-trip equality against the bit-serial reference
/// decoder, and zero steady-state scratch growth.
mod encode_sweep {
    use cross_field_compression::sz::compressor::{encode_codes_into, try_decode_codes_into};
    use cross_field_compression::sz::huffman::HuffmanTable;
    use cross_field_compression::sz::lossless;
    use cross_field_compression::sz::{EncodeScratch, SzCompressor};
    use cross_field_compression::tensor::{Field, Shape};
    use proptest::prelude::*;

    /// Shape a raw arbitrary stream into one of three regimes: skewed
    /// (mass at one centre code, the shape Lorenzo residuals produce),
    /// uniform over a small alphabet (defeats multi-symbol packing), and
    /// wide arbitrary values (stress the table header and escape paths).
    fn shape_stream(raw: &[u32], regime: usize, centre: u32, every: usize) -> Vec<u32> {
        match regime {
            0 => raw
                .iter()
                .enumerate()
                .map(|(k, &s)| if k % every == 0 { s % 1025 } else { centre })
                .collect(),
            1 => raw.iter().map(|&s| s % 17).collect(),
            _ => raw.to_vec(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Batched emission through a reused scratch: identical bytes to
        /// the allocating path, exact round trip through both the fast
        /// decoder and the bit-serial reference, and no staging-buffer
        /// regrowth once warm.
        #[test]
        fn batched_emission_round_trips_through_reused_scratch(
            raw in prop::collection::vec(any::<u32>(), 64..2048),
            regime in 0usize..3,
            centre in 0u32..1025,
            every in 2usize..24,
        ) {
            let symbols = shape_stream(&raw, regime, centre, every);
            let mut payload = Vec::new();
            let mut lz = lossless::LzScratch::new();

            let bytes = encode_codes_into(&symbols, &mut payload, &mut lz);
            // what the scratch held must not change the wire bytes
            let fresh = encode_codes_into(&symbols, &mut Vec::new(), &mut lossless::LzScratch::new());
            prop_assert_eq!(&bytes, &fresh);

            let mut fast = Vec::new();
            try_decode_codes_into(&bytes, symbols.len(), &mut Vec::new(), &mut fast)
                .expect("valid section");
            prop_assert_eq!(&fast, &symbols);

            // differential against the bit-serial reference decoder
            let staged =
                lossless::try_decompress_bounded(&bytes, usize::MAX).expect("lossless layer");
            let (table, used) = HuffmanTable::try_deserialize(&staged).expect("table header");
            let slow = table
                .try_decode_reference(&staged[used..], symbols.len())
                .expect("reference decode");
            prop_assert_eq!(&slow, &symbols);

            // steady state: re-encoding the same stream grows nothing
            let cap = payload.capacity();
            for _ in 0..3 {
                let again = encode_codes_into(&symbols, &mut payload, &mut lz);
                prop_assert_eq!(&again, &bytes);
            }
            // steady-state emission must not regrow the staging buffer
            prop_assert_eq!(payload.capacity(), cap);
        }

        /// The whole encode chain (predict → quantize → emit → LZ) through
        /// `EncodeScratch`: random sample data stays byte-identical to the
        /// plain path, with zero growth counters at steady state.
        #[test]
        fn full_encode_chain_is_allocation_free_at_steady_state(
            samples in prop::collection::vec(-1000.0f32..1000.0, 256..2048),
            rows in 2usize..8,
        ) {
            // 256 samples over at most 7 rows keeps cols well above 2
            let cols = samples.len() / rows;
            let field = Field::from_fn(Shape::d2(rows, cols), |i| samples[i[0] * cols + i[1]]);
            let c = SzCompressor::baseline(1e-3);
            let plain = c.compress(&field).unwrap();

            let mut scratch = EncodeScratch::new();
            let first = c.compress_with(&field, &mut scratch).unwrap();
            prop_assert_eq!(&first.bytes, &plain.bytes);

            let warmed = scratch.growths();
            for _ in 0..3 {
                let again = c.compress_with(&field, &mut scratch).unwrap();
                prop_assert_eq!(&again.bytes, &plain.bytes);
            }
            // steady-state encode must not grow any scratch buffer
            prop_assert_eq!(scratch.growths(), warmed);
        }
    }
}

#[test]
fn scratch_and_fresh_block_decodes_agree() {
    let ds = snapshot(36, 24);
    let bytes = ArchiveBuilder::relative(1e-3)
        .chunk_elements(6 * 24)
        .build()
        .write(&ds)
        .unwrap();
    let reader = ArchiveReader::new(&bytes).unwrap();
    let mut scratch = ArchiveScratch::new();
    for name in ["T", "P"] {
        for bi in 0..reader.entries()[0].n_blocks() {
            let fresh = reader.decode_block(name, bi).unwrap();
            let reused = reader.decode_block_with(name, bi, &mut scratch).unwrap();
            assert_eq!(fresh, reused, "{name} block {bi}");
        }
    }
}
