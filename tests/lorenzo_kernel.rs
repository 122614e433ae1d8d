//! Differential test for the inverse-Lorenzo row kernels:
//! `LorenzoPredictor::reconstruct_into` against the `Predictor` trait's
//! per-point default walk, over well-formed and malformed residual
//! streams. The contract is equal lattice, or equal error (variant,
//! context and detail) — the kernel may not accept, refuse or wrap
//! differently from the walk on any input.

use cross_field_compression::sz::{
    codec, CfcError, LorenzoPredictor, Predictor, QuantLattice, QuantizerConfig,
};
use cross_field_compression::tensor::Shape;

/// Lorenzo's `predict` with none of its bulk overrides: `reconstruct_into`
/// on this type is the trait's per-point walk.
struct PerPointLorenzo;

impl Predictor for PerPointLorenzo {
    fn predict(&self, lattice: &QuantLattice, idx: &[usize]) -> i64 {
        LorenzoPredictor.predict(lattice, idx)
    }

    fn name(&self) -> &'static str {
        "lorenzo-per-point"
    }
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        (self.next() >> 11) % n
    }
}

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

/// How a stream's codes are drawn.
#[derive(Clone, Copy, Debug)]
enum Codes {
    /// Every code a residual.
    InRange,
    /// One code in `every` is the escape.
    Escapes { every: u64 },
    /// As `Escapes`, plus one code in 97 beyond the alphabet.
    OutOfAlphabet { every: u64 },
}

/// How the outlier stream relates to the escapes in the codes.
#[derive(Clone, Copy, Debug)]
enum Outliers {
    Exact,
    OneShort,
    OneLong,
}

fn stream(
    rng: &mut XorShift,
    n: usize,
    quant: &QuantizerConfig,
    codes: Codes,
    outliers: Outliers,
    huge: bool,
) -> (Vec<u32>, Vec<i64>) {
    let esc = quant.escape();
    let codes: Vec<u32> = (0..n)
        .map(|_| match codes {
            Codes::InRange => rng.below(esc as u64) as u32,
            Codes::Escapes { every } | Codes::OutOfAlphabet { every } if rng.below(every) == 0 => {
                esc
            }
            Codes::OutOfAlphabet { .. } if rng.below(97) == 0 => {
                esc + 1 + rng.below(1 << 20) as u32
            }
            _ => rng.below(esc as u64) as u32,
        })
        .collect();
    let escapes = codes.iter().filter(|&&c| c == esc).count();
    let count = match outliers {
        Outliers::Exact => escapes,
        Outliers::OneShort => escapes.saturating_sub(1),
        Outliers::OneLong => escapes + 1,
    };
    let outliers = (0..count)
        .map(|_| {
            if huge {
                // i64::MAX-scale neighbours: every later prediction wraps
                [i64::MAX, i64::MIN, i64::MAX - 3, i64::MIN + 7][rng.below(4) as usize]
            } else {
                rng.below(1 << 24) as i64 - (1 << 23)
            }
        })
        .collect();
    (codes, outliers)
}

fn agree(shape: Shape, codes: &[u32], outliers: &[i64], quant: &QuantizerConfig, what: &str) {
    // dirty, differently sized buffers: both sides must clear and resize
    let mut kernel = vec![-1i64; 7];
    let mut walk = vec![5i64; shape.len() + 3];
    let k = LorenzoPredictor.reconstruct_into(shape, codes, outliers, quant, &mut kernel);
    let w = PerPointLorenzo.reconstruct_into(shape, codes, outliers, quant, &mut walk);
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
                        agree(shape, &c, &o, &quant, &what);
                        let ok = PerPointLorenzo
                            .reconstruct_into(shape, &c, &o, &quant, &mut Vec::new())
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
    let detail = |codes: &[u32], outliers: &[i64]| {
        agree(shape, codes, outliers, &quant, "malformed");
        match LorenzoPredictor.reconstruct_into(shape, codes, outliers, &quant, &mut Vec::new()) {
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
    // the first offender in scan order wins: the bad code in row 0 comes
    // before the unfed escape in row 1
    codes[2] = esc + 5;
    assert_eq!(
        detail(&codes, &[]),
        format!("code {} outside alphabet of radius 4", esc + 5)
    );
    // and the other way round
    codes[2] = esc;
    codes[5] = esc + 5;
    assert_eq!(detail(&codes, &[]), "outlier stream exhausted");
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
