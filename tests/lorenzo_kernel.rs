//! Differential test for the inverse-Lorenzo row kernels:
//! `LorenzoPredictor::reconstruct_into` against `cfc-sz`'s per-point
//! decode walk over Lorenzo's `predict`, over well-formed and malformed
//! residual streams. The contract is equal lattice, or equal error
//! (variant, context and detail) — the kernel may not accept, refuse or
//! wrap differently from the walk on any input. The wording of each
//! malformed-stream error is pinned here for all three kernels: Lorenzo's
//! and both hybrids'.
//!
//! Beside it, the decode that stops after a block's leading rows
//! (`SzCompressor::decompress_rows_with`, what a region read asks of the
//! last block it covers): under Lorenzo's kernels and under both hybrids'
//! row kernels it returns the whole decode's first rows, and it fails
//! with the whole decode's error on streams damaged past those rows.

mod common;

use common::{container, leading, stream, walk_decode, Codes, Outliers, XorShift};
use cross_field_compression::core::predictor::{
    CrossFieldHybridPredictor, TemporalHybridPredictor,
};
use cross_field_compression::core::HybridModel;
use cross_field_compression::sz::{
    codec, CfcError, LorenzoPredictor, Predictor, QuantLattice, QuantizerConfig,
};
use cross_field_compression::tensor::{Field, Shape};

fn shapes() -> Vec<Shape> {
    vec![
        Shape::d1(1),
        Shape::d1(257),
        Shape::d2(1, 9),
        Shape::d2(9, 1),
        Shape::d2(13, 17),
        Shape::d3(1, 5, 7),
        Shape::d3(4, 1, 6),
        Shape::d3(5, 6, 1),
        Shape::d3(4, 5, 6),
        Shape::d3(4, 32, 32),
    ]
}

fn agree(
    p: &dyn Predictor,
    shape: Shape,
    codes: &[u32],
    outliers: &[i64],
    quant: &QuantizerConfig,
    what: &str,
) {
    // dirty, differently sized buffers: both sides must clear and resize
    let mut kernel = vec![-1i64; 7];
    let mut walk = vec![5i64; shape.len() + 3];
    let k = p.reconstruct_into(shape, codes, outliers, quant, &mut kernel);
    let w = walk_decode(p, shape, codes, outliers, quant, &mut walk);
    assert_eq!(k, w, "{what}: outcomes differ");
    if k.is_ok() {
        assert_eq!(kernel, walk, "{what}: lattices differ");
    }
}

#[test]
fn kernel_matches_the_per_point_walk_on_every_stream_kind() {
    let mut rng = XorShift(0x2545_F491_4F6C_DD1D);
    let mut errors = 0usize;
    let mut oks = 0usize;
    for shape in shapes() {
        for radius in [4u32, 512] {
            let quant = QuantizerConfig { radius };
            for codes in [
                Codes::InRange,
                Codes::Escapes { every: 3 },
                Codes::Escapes { every: 40 },
                Codes::OutOfAlphabet { every: 40 },
            ] {
                for outliers in [Outliers::Exact, Outliers::OneShort, Outliers::OneLong] {
                    for huge in [false, true] {
                        let (c, o) = stream(&mut rng, shape.len(), &quant, codes, outliers, huge);
                        let what =
                            format!("{shape} radius {radius} {codes:?} {outliers:?} huge {huge}");
                        agree(&LorenzoPredictor, shape, &c, &o, &quant, &what);
                        let ok =
                            walk_decode(&LorenzoPredictor, shape, &c, &o, &quant, &mut Vec::new())
                                .is_ok();
                        oks += usize::from(ok);
                        errors += usize::from(!ok);
                    }
                }
            }
        }
    }
    // the sweep is only a differential test if it reaches both outcomes
    assert!(oks > 100 && errors > 100, "{oks} ok, {errors} err");
}

#[test]
fn each_malformed_stream_has_its_error() {
    let quant = QuantizerConfig { radius: 4 };
    let shape = Shape::d2(3, 4);
    let esc = quant.escape();
    // every kernel words its own refusal: Lorenzo's and both hybrids'
    let planes = [side(shape, 1), side(shape, 2)];
    let kernels: [(&str, Box<dyn Predictor>); 3] = [
        ("lorenzo", Box::new(LorenzoPredictor)),
        (
            "temporal hybrid",
            Box::new(TemporalHybridPredictor::new(
                &side(shape, 7),
                0.5,
                mix(&[0.2, 0.5, 0.3]),
            )),
        ),
        (
            "cross-field hybrid",
            Box::new(CrossFieldHybridPredictor::new(
                &planes,
                0.5,
                mix(&[0.4, 0.3, 0.3]),
            )),
        ),
    ];
    for (what, p) in &kernels {
        let detail = |codes: &[u32], outliers: &[i64]| {
            agree(p.as_ref(), shape, codes, outliers, &quant, what);
            match p.reconstruct_into(shape, codes, outliers, &quant, &mut Vec::new()) {
                Err(CfcError::Corrupt { context, detail }) => {
                    assert_eq!(context, "residual stream", "{what}");
                    detail
                }
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
        };
        let mut codes = vec![4u32; 12];
        codes[5] = esc;
        assert_eq!(detail(&codes, &[]), "outlier stream exhausted", "{what}");
        assert_eq!(
            detail(&codes, &[7, 8]),
            "outlier stream not fully consumed",
            "{what}"
        );
        // the first offender in scan order wins: the bad code in row 0
        // comes before the unfed escape in row 1
        codes[2] = esc + 5;
        assert_eq!(
            detail(&codes, &[]),
            format!("code {} outside alphabet of radius 4", esc + 5),
            "{what}"
        );
        // and the other way round
        codes[2] = esc;
        codes[5] = esc + 5;
        assert_eq!(detail(&codes, &[]), "outlier stream exhausted", "{what}");
    }
}

/// A side field for the hybrids (a CFNN plane or a previous epoch):
/// anything deterministic will do.
fn side(shape: Shape, salt: usize) -> Field {
    Field::from_fn(shape, |i| {
        let at = i.iter().fold(salt, |at, &x| at * 31 + x);
        (at % 23) as f32 * 0.5 - 5.0
    })
}

/// Hybrid weights, with no loss history.
fn mix(weights: &[f64]) -> HybridModel {
    HybridModel {
        weights: weights.to_vec(),
        losses: Vec::new(),
    }
}

#[test]
fn kernel_inverts_the_encoder_through_the_codec_entry_point() {
    let mut rng = XorShift(0xD1B5_4A32_D192_ED03);
    for shape in shapes() {
        for radius in [4u32, 512] {
            let quant = QuantizerConfig { radius };
            // a random walk with rare jumps: mostly residuals, some outliers
            let mut v = 0i64;
            let data: Vec<i64> = (0..shape.len())
                .map(|_| {
                    v += rng.below(7) as i64 - 3;
                    if rng.below(50) == 0 {
                        v += 100_000;
                    }
                    v
                })
                .collect();
            let lattice = QuantLattice::from_vec(shape, data);
            let enc = codec::encode(&lattice, &LorenzoPredictor, &quant);
            let dec =
                codec::try_decode(shape, &enc.codes, &enc.outliers, &LorenzoPredictor, &quant)
                    .expect("own stream");
            assert_eq!(dec, lattice, "{shape} radius {radius}");
            // a count mismatch is the codec's to refuse, before any kernel runs
            let short = &enc.codes[..enc.codes.len() - 1];
            assert!(matches!(
                codec::try_decode(shape, short, &enc.outliers, &LorenzoPredictor, &quant),
                Err(CfcError::Corrupt { .. })
            ));
        }
    }
}

// ---- decoding only the leading rows ----------------------------------------

/// One predictor family over one shape. `predictor(rows)` is the predictor
/// a decode of `rows` leading rows runs under — the archive reader cuts a
/// 3-D target's CFNN output and a delta's previous epoch to the same rows,
/// and lends a 2-D target's whole.
fn check_leading_rows(shape: Shape, predictor: &dyn Fn(usize) -> Box<dyn Predictor>, what: &str) {
    let n0 = shape.dims()[0];
    let plane = shape.len() / n0;
    let quant = QuantizerConfig { radius: 64 };
    let esc = quant.escape();
    // a slow walk with isolated spikes, one of them on the last sample:
    // mostly residuals, escapes in every part of the stream
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15 ^ shape.len() as u64);
    let mut v = 0i64;
    let mut data: Vec<i64> = (0..shape.len())
        .map(|_| {
            v += rng.below(7) as i64 - 3;
            v + if rng.below(40) == 0 { 100_000 } else { 0 }
        })
        .collect();
    *data.last_mut().unwrap() += 100_000;
    let lattice = QuantLattice::from_vec(shape, data);
    let whole_predictor = predictor(n0);
    let enc = codec::encode(&lattice, whole_predictor.as_ref(), &quant);
    assert_eq!(*enc.codes.last().unwrap(), esc, "{what}: the tail escapes");

    // a clean stream: the first rows of the whole decode, for every count
    let clean = container(shape, &quant, &enc.codes, &enc.outliers);
    let whole = leading(&clean, whole_predictor.as_ref(), usize::MAX).expect("own stream");
    let lattice_f32: Vec<f32> = lattice.as_slice().iter().map(|&q| q as f32).collect();
    assert_eq!(whole.as_slice(), lattice_f32, "{what}: round trip");
    for rows in 1..=n0 + 1 {
        let got = leading(&clean, predictor(rows.min(n0)).as_ref(), rows).expect("own stream");
        let want = whole.slab(0, rows.min(n0));
        assert_eq!(got.shape(), want.shape(), "{what}: {rows} rows");
        assert!(
            got.as_slice()
                .iter()
                .zip(want.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "{what}: {rows} rows differ from the whole decode's"
        );
    }

    // damage past the rows asked for: the whole decode's error, detail and all
    let mut bad_code = enc.codes.clone();
    *bad_code.last_mut().unwrap() = esc + 5;
    let mut long = enc.outliers.clone();
    long.push(7);
    let damaged = [
        (
            "a code outside the alphabet",
            bad_code,
            enc.outliers.clone(),
        ),
        (
            "one outlier too few",
            enc.codes.clone(),
            enc.outliers[..enc.outliers.len() - 1].to_vec(),
        ),
        ("one outlier too many", enc.codes.clone(), long),
        // the entropy stage is asked for one symbol more than was written
        // and may find one in the padding: whatever it makes of that, it
        // runs whole before either decode and both inherit its verdict
        (
            "one code too few",
            enc.codes[..enc.codes.len() - 1].to_vec(),
            enc.outliers.clone(),
        ),
    ];
    for (damage, codes, outliers) in &damaged {
        let c = container(shape, &quant, codes, outliers);
        let want = leading(&c, whole_predictor.as_ref(), usize::MAX);
        assert!(
            want.is_err() || codes.len() != shape.len(),
            "{what}: {damage} must not decode"
        );
        for rows in (1..n0).chain([n0, usize::MAX]) {
            let got = leading(&c, predictor(rows.min(n0)).as_ref(), rows);
            let want = want.clone().map(|whole| whole.slab(0, rows.min(n0)));
            assert_eq!(got, want, "{what}: {damage}, {rows} rows");
        }
    }
    // and damage inside them is met by the walk itself, in scan order
    let mut early = enc.codes.clone();
    early[plane - 1] = esc + 9;
    *early.last_mut().unwrap() = esc + 5;
    let c = container(shape, &quant, &early, &enc.outliers);
    let want = leading(&c, whole_predictor.as_ref(), usize::MAX);
    assert!(
        matches!(&want, Err(CfcError::Corrupt { detail, .. }) if detail.contains(&(esc + 9).to_string()))
    );
    assert_eq!(
        leading(&c, predictor(1).as_ref(), 1),
        want,
        "{what}: first row"
    );
}

#[test]
fn leading_rows_decode_like_the_whole_and_fail_like_the_whole() {
    for shape in shapes().into_iter().filter(|s| s.dims()[0] > 1) {
        check_leading_rows(
            shape,
            &|_| Box::new(LorenzoPredictor),
            &format!("lorenzo {shape}"),
        );
    }
    for shape in [Shape::d2(13, 17), Shape::d3(4, 5, 6), Shape::d3(5, 12, 12)] {
        let ndim = shape.ndim();
        let diffs: Vec<Field> = (0..ndim).map(|axis| side(shape, axis + 1)).collect();
        let weights: &[f64] = match ndim {
            2 => &[0.4, 0.3, 0.3],
            _ => &[0.4, 0.3, 0.2, 0.1],
        };
        // a 2-D target's CFNN output comes whole, a 3-D one's cut to the rows
        for cut in [false, true] {
            check_leading_rows(
                shape,
                &|rows| {
                    let rows = if cut { rows } else { shape.dims()[0] };
                    let diffs: Vec<Field> = diffs.iter().map(|d| d.slab(0, rows)).collect();
                    Box::new(CrossFieldHybridPredictor::new(&diffs, 0.5, mix(weights)))
                },
                &format!("cross-field hybrid {shape} cut {cut}"),
            );
        }
        let prev = side(shape, 7);
        check_leading_rows(
            shape,
            &|rows| {
                Box::new(TemporalHybridPredictor::new(
                    &prev.slab(0, rows),
                    0.5,
                    mix(&[0.2, 0.5, 0.3]),
                ))
            },
            &format!("temporal hybrid {shape}"),
        );
    }
}
