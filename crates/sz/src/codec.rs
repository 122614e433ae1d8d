//! Prediction codec: residual generation (encoder) and reconstruction
//! (decoder) over the prequantized lattice.
//!
//! Thanks to dual quantization the encoder sees the *final* lattice up
//! front, so the residual of a point depends on no other residual and the
//! encoder may compute them in any order ([`Predictor::residuals_into`]).
//! The decoder has no such freedom — each reconstructed value is a
//! neighbour of later predictions, so the lattice comes back in row-major
//! order — but it too asks the predictor for the whole lattice at once
//! ([`Predictor::reconstruct_into`]). Every predictor answers with row
//! kernels: Lorenzo's resolve the in-row dependency as a prefix sum, the
//! hybrids of `cfc-core` walk a row with the left neighbour carried, and
//! all of them read the untrusted codes and outliers through one
//! [`ResidualStream`], which refuses a malformed stream at its first
//! offender in scan order.
//! Row-major causality also means the first rows of a lattice depend on
//! nothing after them, so a caller that wants only those (a region read
//! ending inside a block) has the predictor rebuild a shorter lattice and
//! reads the codes it skipped through the same stream (`try_decode_into`).

use cfc_tensor::Shape;

use crate::error::CfcError;
use crate::lattice::QuantLattice;
use crate::predict::{Predictor, ResidualStream};
use crate::quantizer::{EncodedResiduals, QuantizerConfig};

/// Encode a lattice into residual codes + outliers in one step.
pub fn encode(
    lattice: &QuantLattice,
    predictor: &dyn Predictor,
    quant: &QuantizerConfig,
) -> EncodedResiduals {
    let mut deltas = Vec::new();
    predictor.residuals_into(lattice, &mut deltas);
    let (mut codes, mut outliers) = (Vec::new(), Vec::new());
    quant.encode_into(&deltas, lattice.as_slice(), &mut codes, &mut outliers);
    EncodedResiduals { codes, outliers }
}

/// Compute `delta[i] = q[i] − predict(q, i)` for every point into a
/// reusable buffer, so per-block archive workers allocate nothing per
/// call: [`Predictor::residuals_into`], the predictor's row kernels.
pub fn encode_residuals_into(
    lattice: &QuantLattice,
    predictor: &dyn Predictor,
    out: &mut Vec<i64>,
) {
    predictor.residuals_into(lattice, out);
}

/// Reconstruct the lattice from codes + outliers.
///
/// The input is untrusted: count mismatches, out-of-alphabet codes, and
/// outlier over/under-runs all return [`CfcError`] instead of panicking.
pub fn try_decode(
    shape: Shape,
    codes: &[u32],
    outliers: &[i64],
    predictor: &dyn Predictor,
    quant: &QuantizerConfig,
) -> Result<QuantLattice, CfcError> {
    let mut data = Vec::new();
    try_decode_into(
        shape,
        usize::MAX,
        codes,
        outliers,
        predictor,
        quant,
        &mut data,
    )?;
    Ok(QuantLattice::from_vec(shape, data))
}

/// [`try_decode`] of the leading `rows` axis-0 rows (all of them when
/// `rows` reaches the extent) into a reusable buffer of raw lattice
/// integers; returns the shape `out` holds.
///
/// Every predictor is causal in row-major order, so those rows are the
/// whole decode's first rows bit for bit: the predictor reconstructs a
/// lattice of the shorter shape from the codes of those rows and the
/// outliers they escape to. The rest of the stream is not walked but still
/// checked, in scan order through the same [`ResidualStream`] — a short decode
/// accepts and rejects exactly the streams a whole one does.
pub(crate) fn try_decode_into(
    shape: Shape,
    rows: usize,
    codes: &[u32],
    outliers: &[i64],
    predictor: &dyn Predictor,
    quant: &QuantizerConfig,
    out: &mut Vec<i64>,
) -> Result<Shape, CfcError> {
    if codes.len() != shape.len() {
        return Err(CfcError::Corrupt {
            context: "residual stream",
            detail: format!("{} codes for {} samples", codes.len(), shape.len()),
        });
    }
    assert!(rows > 0, "a decode of no rows");
    let dims = shape.dims();
    if rows >= dims[0] {
        predictor.reconstruct_into(shape, codes, outliers, quant, out)?;
        return Ok(shape);
    }
    let mut lead = dims.to_vec();
    lead[0] = rows;
    let lead = Shape::from_slice(&lead);
    let (codes, tail) = codes.split_at(lead.len());
    // a stream with too few outliers runs dry at the same escape either way
    let escapes = codes.iter().filter(|&&c| c == quant.escape()).count();
    let (outliers, tail_outliers) = outliers.split_at(escapes.min(outliers.len()));
    predictor.reconstruct_into(lead, codes, outliers, quant, out)?;
    let mut rest = ResidualStream::new(quant, tail_outliers);
    rest.skip(tail)?;
    rest.finish()?;
    Ok(lead)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::LorenzoPredictor;

    fn lattice2(rows: usize, cols: usize, f: impl Fn(usize, usize) -> i64) -> QuantLattice {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        QuantLattice::from_vec(Shape::d2(rows, cols), data)
    }

    #[test]
    fn lorenzo_roundtrip_2d() {
        let lat = lattice2(17, 13, |i, j| ((i * j) as i64 % 23) - 11 + (i as i64 * 100));
        let quant = QuantizerConfig { radius: 512 };
        let enc = encode(&lat, &LorenzoPredictor, &quant);
        let dec = try_decode(
            lat.shape(),
            &enc.codes,
            &enc.outliers,
            &LorenzoPredictor,
            &quant,
        )
        .unwrap();
        assert_eq!(dec.as_slice(), lat.as_slice());
    }

    #[test]
    fn lorenzo_roundtrip_3d() {
        let mut data = Vec::new();
        for k in 0..6i64 {
            for i in 0..7i64 {
                for j in 0..8i64 {
                    data.push(k * k - 3 * i + j * 2 + ((k + i + j) % 5));
                }
            }
        }
        let lat = QuantLattice::from_vec(Shape::d3(6, 7, 8), data);
        let quant = QuantizerConfig { radius: 512 };
        let enc = encode(&lat, &LorenzoPredictor, &quant);
        let dec = try_decode(
            lat.shape(),
            &enc.codes,
            &enc.outliers,
            &LorenzoPredictor,
            &quant,
        )
        .unwrap();
        assert_eq!(dec.as_slice(), lat.as_slice());
    }

    #[test]
    fn lorenzo_roundtrip_1d() {
        let lat = QuantLattice::from_vec(
            Shape::d1(100),
            (0..100).map(|v| (v as i64 * 7) % 40 - 20).collect(),
        );
        let quant = QuantizerConfig { radius: 64 };
        let enc = encode(&lat, &LorenzoPredictor, &quant);
        let dec = try_decode(
            lat.shape(),
            &enc.codes,
            &enc.outliers,
            &LorenzoPredictor,
            &quant,
        )
        .unwrap();
        assert_eq!(dec.as_slice(), lat.as_slice());
    }

    #[test]
    fn outliers_roundtrip() {
        // huge jumps escape the tiny radius but must still reconstruct exactly
        let lat = lattice2(8, 8, |i, j| if (i + j) % 3 == 0 { 1_000_000 } else { 0 });
        let quant = QuantizerConfig { radius: 4 };
        let enc = encode(&lat, &LorenzoPredictor, &quant);
        assert!(!enc.outliers.is_empty(), "test should exercise escapes");
        let dec = try_decode(
            lat.shape(),
            &enc.codes,
            &enc.outliers,
            &LorenzoPredictor,
            &quant,
        )
        .unwrap();
        assert_eq!(dec.as_slice(), lat.as_slice());
    }

    #[test]
    fn smooth_data_yields_concentrated_codes() {
        // On smooth data most Lorenzo residuals are tiny → codes concentrate
        // near the zero-residual code (this is what compression ratio rides on).
        let lat = lattice2(64, 64, |i, j| (i as i64) * 2 + (j as i64));
        let quant = QuantizerConfig::default();
        let enc = encode(&lat, &LorenzoPredictor, &quant);
        let zero_code = quant.radius;
        let near: usize = enc
            .codes
            .iter()
            .filter(|&&c| (c as i64 - zero_code as i64).abs() <= 1)
            .count();
        assert!(near as f64 > 0.95 * enc.codes.len() as f64);
    }

    #[test]
    fn truncated_outliers_detected() {
        let lat = lattice2(8, 8, |i, j| if (i + j) % 2 == 0 { 9_999_999 } else { 0 });
        let quant = QuantizerConfig { radius: 2 };
        let enc = encode(&lat, &LorenzoPredictor, &quant);
        assert!(enc.outliers.len() > 1);
        let truncated = &enc.outliers[..enc.outliers.len() - 1];
        let res = try_decode(
            lat.shape(),
            &enc.codes,
            truncated,
            &LorenzoPredictor,
            &quant,
        );
        assert!(
            matches!(&res, Err(CfcError::Corrupt { detail, .. }) if detail.contains("outlier stream")),
            "{res:?}"
        );
    }
}
