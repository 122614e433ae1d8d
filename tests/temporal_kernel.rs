//! Differential test for the temporal hybrid's row kernels:
//! `TemporalHybridPredictor::{residuals_into, reconstruct_into}` against
//! `cfc-sz`'s per-point walks over the same `predict`.
//! The contract is the one `lorenzo_kernel.rs` holds Lorenzo to — equal
//! residuals on encode; equal lattice, or equal error (variant, context
//! and detail), on decode; a decode of a block's leading rows is the whole
//! decode's first rows or fails with its error — over the inputs where a
//! kernel that hoists `f64` conversions out of the loop and rounds inline
//! could part from the walk: weights a meta area may hold (ordinary, zero,
//! huge, negative, NaN, ±∞), previous-epoch values that put predictions on
//! and one ulp either side of a rounding tie, at ±2⁵² where the inline
//! rounding changes branch and at ±2⁶³ where the cast saturates, and
//! `i64::MAX`-scale outliers beside ordinary values.

mod common;

use common::{
    container, leading, stream, walk_decode, walk_encode, walk_residuals, Codes, Outliers, XorShift,
};
use cross_field_compression::core::predictor::TemporalHybridPredictor;
use cross_field_compression::core::HybridModel;
use cross_field_compression::sz::{codec, CfcError, Predictor, QuantLattice, QuantizerConfig};
use cross_field_compression::tensor::{Field, Shape};

/// `1×n`, `n×1`, `1×1×n`, single planes and rows, and slabs of a depth no
/// chunking would give every block (a partial last slab).
fn shapes() -> Vec<Shape> {
    vec![
        Shape::d2(1, 9),
        Shape::d2(9, 1),
        Shape::d2(1, 1),
        Shape::d2(13, 17),
        Shape::d3(1, 1, 7),
        Shape::d3(1, 5, 7),
        Shape::d3(4, 1, 6),
        Shape::d3(5, 6, 1),
        Shape::d3(3, 5, 6),
        Shape::d3(2, 16, 16),
    ]
}

const ONE_DOWN: f64 = 1.0 - f64::EPSILON / 2.0;
const ONE_UP: f64 = 1.0 + f64::EPSILON;

/// Hybrid weights as a meta area could hold them — it is untrusted bytes.
fn weight_sets() -> Vec<(&'static str, [f64; 3])> {
    vec![
        ("ordinary", [0.2, 0.5, 0.3]),
        ("zero", [0.0, 0.0, 0.0]),
        ("negative", [-0.7, 1.9, -0.2]),
        ("huge", [1e300, -1e300, 3e18]),
        ("nan", [f64::NAN, 0.5, 0.5]),
        ("infinite", [f64::INFINITY, f64::NEG_INFINITY, 0.3]),
        ("one infinite", [0.0, 0.0, f64::NEG_INFINITY]),
        // the previous value alone, exactly and one ulp either side: with
        // `edge_prev` these put predictions on and around rounding ties
        ("previous", [0.0, 1.0, 0.0]),
        ("previous, an ulp down", [0.0, ONE_DOWN, 0.0]),
        ("previous, an ulp up", [0.0, ONE_UP, 0.0]),
        ("previous, negated", [0.0, -1.0, 0.0]),
    ]
}

/// An ordinary previous epoch: a few lattice steps of smooth structure.
fn smooth_prev(shape: Shape) -> Field {
    Field::from_fn(shape, |i| {
        let at = i.iter().fold(7usize, |at, &x| at * 31 + x);
        (at % 23) as f32 * 0.5 - 5.0
    })
}

/// A previous epoch of rounding edge cases (at a lattice step of one):
/// half-integers, the threshold 2⁵² past which every `f64` is an integer,
/// the saturation point 2⁶³, signed zeros and the extremes of `f32`.
fn edge_prev(shape: Shape, rng: &mut XorShift) -> Field {
    let two52 = (1u64 << 52) as f32;
    let two63 = (1u64 << 63) as f32;
    let palette = [
        0.5,
        -0.5,
        1.5,
        -1.5,
        2.5,
        -2.5,
        1023.5,
        -4097.5,
        8_388_607.5,
        0.25,
        -0.75,
        0.0,
        -0.0,
        3.0,
        -7.0,
        two52,
        -two52,
        two52 / 2.0,
        two52 * 2.0,
        two63,
        -two63,
        two63 * 2.0,
        f32::MAX,
        f32::MIN,
        f32::MIN_POSITIVE,
        1e-30,
    ];
    let samples = (0..shape.len())
        .map(|_| palette[rng.below(palette.len() as u64) as usize])
        .collect();
    Field::from_vec(shape, samples)
}

fn hybrid(prev: &Field, eb: f64, weights: [f64; 3]) -> TemporalHybridPredictor<'static> {
    let model = HybridModel {
        weights: weights.to_vec(),
        losses: Vec::new(),
    };
    TemporalHybridPredictor::new(prev, eb, model)
}

/// Every predictor the sweeps run under: both kinds of previous
/// epoch, each weight set, at a lattice step of one (where `edge_prev`
/// lands on the ties) and at an ordinary one.
fn for_each_hybrid(
    shape: Shape,
    rng: &mut XorShift,
    mut check: impl FnMut(&TemporalHybridPredictor, &mut XorShift, &str),
) {
    for (prev_kind, prev) in [
        ("smooth", smooth_prev(shape)),
        ("edge", edge_prev(shape, rng)),
    ] {
        for (weights_kind, weights) in weight_sets() {
            for eb in [0.5, 0.013] {
                let kernel = hybrid(&prev, eb, weights);
                let what = format!("{shape}, {prev_kind} prev, {weights_kind} weights, eb {eb}");
                check(&kernel, rng, &what);
            }
        }
    }
}

#[test]
fn decode_kernel_matches_the_per_point_walk_on_every_stream_kind() {
    let mut rng = XorShift(0x2545_F491_4F6C_DD1D);
    let (mut oks, mut errors) = (0usize, 0usize);
    for shape in shapes() {
        for_each_hybrid(shape, &mut rng, |kernel, rng, what| {
            for radius in [4u32, 512] {
                let quant = QuantizerConfig { radius };
                for (codes, outliers, huge) in [
                    (Codes::InRange, Outliers::Exact, false),
                    (Codes::InRange, Outliers::OneLong, true),
                    (Codes::Escapes { every: 3 }, Outliers::Exact, true),
                    (Codes::Escapes { every: 40 }, Outliers::Exact, false),
                    (Codes::Escapes { every: 5 }, Outliers::OneShort, false),
                    (Codes::Escapes { every: 40 }, Outliers::OneLong, true),
                    (Codes::OutOfAlphabet { every: 40 }, Outliers::Exact, true),
                    (Codes::OutOfAlphabet { every: 9 }, Outliers::OneShort, false),
                ] {
                    let (c, o) = stream(rng, shape.len(), &quant, codes, outliers, huge);
                    // dirty, differently sized buffers: both sides must
                    // clear and resize
                    let mut got = vec![-1i64; 7];
                    let mut want = vec![5i64; shape.len() + 3];
                    let k = kernel.reconstruct_into(shape, &c, &o, &quant, &mut got);
                    let w = walk_decode(kernel, shape, &c, &o, &quant, &mut want);
                    let what = format!("{what}, radius {radius} {codes:?} {outliers:?} {huge}");
                    assert_eq!(k, w, "{what}: outcomes differ");
                    if k.is_ok() {
                        assert_eq!(got, want, "{what}: lattices differ");
                    }
                    oks += usize::from(k.is_ok());
                    errors += usize::from(k.is_err());
                }
            }
        });
    }
    // the sweep is only a differential test if it reaches both outcomes
    assert!(oks > 1000 && errors > 1000, "{oks} ok, {errors} err");
}

#[test]
fn each_malformed_stream_has_the_walks_error() {
    let quant = QuantizerConfig { radius: 4 };
    let shape = Shape::d2(3, 4);
    let esc = quant.escape();
    let kernel = hybrid(&smooth_prev(shape), 0.5, [0.2, 0.5, 0.3]);
    let detail = |codes: &[u32], outliers: &[i64]| {
        let k = kernel.reconstruct_into(shape, codes, outliers, &quant, &mut Vec::new());
        let w = walk_decode(&kernel, shape, codes, outliers, &quant, &mut Vec::new());
        assert_eq!(k, w);
        match k {
            Err(CfcError::Corrupt { context, detail }) => {
                assert_eq!(context, "residual stream");
                detail
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    };
    let mut codes = vec![4u32; 12];
    codes[5] = esc;
    assert_eq!(detail(&codes, &[]), "outlier stream exhausted");
    assert_eq!(detail(&codes, &[7, 8]), "outlier stream not fully consumed");
    // the first offender in scan order wins, whichever kind it is
    codes[2] = esc + 5;
    assert_eq!(
        detail(&codes, &[]),
        format!("code {} outside alphabet of radius 4", esc + 5)
    );
    codes[2] = esc;
    codes[5] = esc + 5;
    assert_eq!(detail(&codes, &[]), "outlier stream exhausted");
}

/// A lattice as an encoder meets it: a slow walk with rare jumps, and —
/// with `huge` — `i64::MAX`-scale values beside the ordinary ones, where
/// every sum the prediction takes saturates or wraps.
fn lattice(shape: Shape, rng: &mut XorShift, huge: bool) -> QuantLattice {
    let mut v = 0i64;
    let data = (0..shape.len())
        .map(|_| {
            v += rng.below(7) as i64 - 3;
            if rng.below(50) == 0 {
                v += 100_000;
            }
            if huge && rng.below(11) == 0 {
                [i64::MAX, i64::MIN, i64::MAX - 3, i64::MIN + 7, 1 << 53][rng.below(5) as usize]
            } else {
                v
            }
        })
        .collect();
    QuantLattice::from_vec(shape, data)
}

#[test]
fn encode_kernel_matches_the_per_point_walk_and_each_side_inverts_the_other() {
    let mut rng = XorShift(0xD1B5_4A32_D192_ED03);
    let quant = QuantizerConfig { radius: 64 };
    for shape in shapes() {
        for_each_hybrid(shape, &mut rng, |kernel, rng, what| {
            for huge in [false, true] {
                let lattice = lattice(shape, rng, huge);
                let mut got = vec![3i64; 5];
                kernel.residuals_into(&lattice, &mut got);
                let want = walk_residuals(kernel, &lattice);
                assert_eq!(got, want, "{what}, huge {huge}: residuals differ");

                // the kernel's stream under the walk and the walk's under
                // the kernel both give the lattice back
                let enc = codec::encode(&lattice, kernel, &quant);
                let mut dec = Vec::new();
                walk_decode(kernel, shape, &enc.codes, &enc.outliers, &quant, &mut dec)
                    .expect("own stream");
                assert_eq!(dec, lattice.as_slice(), "{what}, huge {huge}: round trip");
                let enc = walk_encode(kernel, &lattice, &quant);
                let dec = codec::try_decode(shape, &enc.codes, &enc.outliers, kernel, &quant)
                    .expect("own stream");
                assert_eq!(dec, lattice, "{what}, huge {huge}: round trip");
            }
        });
    }
}

#[test]
fn leading_rows_decode_like_the_whole_and_fail_like_the_whole() {
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let quant = QuantizerConfig { radius: 64 };
    for shape in shapes().into_iter().filter(|s| s.dims()[0] > 1) {
        let n0 = shape.dims()[0];
        for (prev_kind, prev) in [
            ("smooth", smooth_prev(shape)),
            ("edge", edge_prev(shape, &mut rng)),
        ] {
            // the previous epoch cut to the rows, as the reader lends it,
            // and whole
            let predictor = |rows: usize| hybrid(&prev.slab(0, rows), 0.5, [0.2, 0.5, 0.3]);
            let whole_predictor = predictor(n0);
            for (codes, outliers) in [
                (Codes::Escapes { every: 9 }, Outliers::Exact),
                (Codes::Escapes { every: 9 }, Outliers::OneShort),
                (Codes::Escapes { every: 9 }, Outliers::OneLong),
                (Codes::OutOfAlphabet { every: 9 }, Outliers::Exact),
            ] {
                let (c, o) = stream(&mut rng, shape.len(), &quant, codes, outliers, false);
                let block = container(shape, &quant, &c, &o);
                let whole = leading(&block, &whole_predictor, usize::MAX);
                for rows in 1..=n0 {
                    let want = whole.clone().map(|field| field.slab(0, rows));
                    for (lent, p) in [("cut", predictor(rows)), ("whole", predictor(n0))] {
                        assert_eq!(
                            leading(&block, &p, rows),
                            want,
                            "{shape} {prev_kind} {codes:?} {outliers:?}: {rows} rows, {lent} prev"
                        );
                    }
                }
            }
        }
    }
}
