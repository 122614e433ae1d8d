//! Helpers shared by the integration tests. For the kernel differential
//! tests (`lorenzo_kernel.rs`, `temporal_kernel.rs`,
//! `cross_field_kernel.rs`): seeded code and outlier streams, well-formed
//! and malformed, the container a block decoder meets them in, and a
//! predictor's per-point rule through `cfc-sz`'s oracle walks. And [`assert_has_target`], for every test whose subject
//! is a cross-field target row, and [`NARROW_CFNN`], the net the
//! cross-field stream tests train. Each test binary uses a part of this
//! module.
#![allow(dead_code)]

use cross_field_compression::core::archive::{ArchiveReader, FieldRole};
use cross_field_compression::core::config::CfnnSpec;
use cross_field_compression::sz::compressor::{encode_codes_into, encode_outliers_into};
use cross_field_compression::sz::lossless::LzScratch;
use cross_field_compression::sz::predict::{reconstruct_per_point, residuals_per_point};
use cross_field_compression::sz::quantizer::EncodedResiduals;
use cross_field_compression::sz::stream::{Container, SectionTag};
use cross_field_compression::sz::{
    CfcError, DecodeScratch, Predictor, QuantLattice, QuantizerConfig, SzCompressor,
};
use cross_field_compression::tensor::{Field, Shape};

/// A narrow 16 × 24 CFNN: quick to train on test-sized fields.
pub const NARROW_CFNN: CfnnSpec = CfnnSpec {
    feat1: 16,
    feat2: 24,
};

pub struct XorShift(pub u64);

impl XorShift {
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    pub fn below(&mut self, n: u64) -> u64 {
        (self.next() >> 11) % n
    }
}

/// How a stream's codes are drawn.
#[derive(Clone, Copy, Debug)]
pub enum Codes {
    /// Every code a residual.
    InRange,
    /// One code in `every` is the escape.
    Escapes { every: u64 },
    /// As `Escapes`, plus one code in 97 beyond the alphabet.
    OutOfAlphabet { every: u64 },
}

/// How the outlier stream relates to the escapes in the codes.
#[derive(Clone, Copy, Debug)]
pub enum Outliers {
    Exact,
    OneShort,
    OneLong,
}

pub fn stream(
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

/// `p`'s per-point rule through the oracle's decode walk: what
/// `p.reconstruct_into`, a row kernel, is held to.
pub fn walk_decode(
    p: &dyn Predictor,
    shape: Shape,
    codes: &[u32],
    outliers: &[i64],
    quant: &QuantizerConfig,
    out: &mut Vec<i64>,
) -> Result<(), CfcError> {
    reconstruct_per_point(|l, i| p.predict(l, i), shape, codes, outliers, quant, out)
}

/// `p`'s per-point rule through the oracle's encode walk: what
/// `p.residuals_into`, a row kernel, is held to.
pub fn walk_residuals(p: &dyn Predictor, lattice: &QuantLattice) -> Vec<i64> {
    let mut out = Vec::new();
    residuals_per_point(|l, i| p.predict(l, i), lattice, &mut out);
    out
}

/// [`walk_residuals`] through the quantizer: the stream `codec::encode`
/// would write if `p` had no row kernels.
pub fn walk_encode(
    p: &dyn Predictor,
    lattice: &QuantLattice,
    quant: &QuantizerConfig,
) -> EncodedResiduals {
    let (mut codes, mut outliers) = (Vec::new(), Vec::new());
    quant.encode_into(
        &walk_residuals(p, lattice),
        lattice.as_slice(),
        &mut codes,
        &mut outliers,
    );
    EncodedResiduals { codes, outliers }
}

/// Codes and outliers as a block decoder meets them: behind the entropy
/// stage of a container. A bound of 0.5 makes the lattice step 1, so the
/// decoded `f32` samples are the lattice integers themselves.
pub fn container(
    shape: Shape,
    quant: &QuantizerConfig,
    codes: &[u32],
    outliers: &[i64],
) -> Container {
    let mut c = Container::new(shape, 0.5, quant.radius);
    let (mut payload, mut lz) = (Vec::new(), LzScratch::new());
    c.push(
        SectionTag::Residuals,
        encode_codes_into(codes, &mut payload, &mut lz),
    );
    c.push(
        SectionTag::Outliers,
        encode_outliers_into(outliers, &mut payload, &mut lz),
    );
    c
}

/// The leading `rows` rows of `c` under `predictor` — through
/// `decompress_rows_with`, after holding it to `decompress_rows_into` of
/// the same rows into a dirty buffer: the same bits, or the same error.
pub fn leading(c: &Container, predictor: &dyn Predictor, rows: usize) -> Result<Field, CfcError> {
    let sz = SzCompressor::baseline(1e-3);
    let with = sz.decompress_rows_with(c, predictor, rows, &mut DecodeScratch::new());
    let dims = c.shape.dims();
    let mut out = vec![f32::NAN; rows.min(dims[0]) * dims[1..].iter().product::<usize>()];
    let into = sz.decompress_rows_into(c, predictor, rows, &mut DecodeScratch::new(), &mut out);
    match (&with, into) {
        (Ok(field), Ok(shape)) => {
            assert_eq!(field.shape(), shape);
            let mut pairs = field.as_slice().iter().zip(&out);
            assert!(pairs.all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        (with, into) => assert_eq!(with.as_ref().err(), into.err().as_ref()),
    }
    with
}

/// `bytes` holds a cross-field target row. The writer demotes a target
/// whose cross-field encoding is not smaller than its independent one, and
/// on test-sized fields it nearly always is not: a test whose subject is a
/// target row writes with `ArchiveBuilder::always_cross_field` and checks
/// here that the row is there, so it cannot turn into a baseline test
/// unnoticed.
pub fn assert_has_target(bytes: &[u8]) {
    let reader = ArchiveReader::new(bytes).expect("open");
    assert!(
        reader.entries().iter().any(|e| e.role == FieldRole::Target),
        "the archive holds no target row"
    );
}
