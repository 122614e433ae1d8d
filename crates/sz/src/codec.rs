//! Prediction codec: residual generation (encoder) and sequential
//! reconstruction (decoder) over the prequantized lattice.
//!
//! Thanks to dual quantization the encoder sees the *final* lattice up
//! front, so the residual of a point depends on no other residual and the
//! encoder may compute them in any order ([`Predictor::residuals_into`];
//! Lorenzo does it a row at a time). The decoder must replay predictions
//! against the partially reconstructed lattice in row-major order — the
//! same order the encoder's predictor contract assumes (causality).

use cfc_tensor::Shape;

use crate::error::CfcError;
use crate::lattice::QuantLattice;
use crate::predict::Predictor;
use crate::quantizer::{EncodedResiduals, QuantizerConfig};
use crate::scratch::EncodeScratch;

/// Encode a lattice into residual codes + outliers in one step.
pub fn encode(
    lattice: &QuantLattice,
    predictor: &dyn Predictor,
    quant: &QuantizerConfig,
) -> EncodedResiduals {
    let mut deltas = Vec::new();
    predictor.residuals_into(lattice, &mut deltas);
    quant.encode(&deltas, lattice.as_slice())
}

/// Compute `delta[i] = q[i] − predict(q, i)` for every point into a
/// reusable buffer, so per-block archive workers allocate nothing per
/// call. Dispatches to [`Predictor::residuals_into`], so structured
/// predictors (Lorenzo) run their vectorized row kernels.
pub fn encode_residuals_into(
    lattice: &QuantLattice,
    predictor: &dyn Predictor,
    out: &mut Vec<i64>,
) {
    predictor.residuals_into(lattice, out);
}

/// [`encode`] into reusable scratch buffers: residuals, codes, and
/// outliers land in `scratch` (read back via [`EncodeScratch::streams`]),
/// producing the same streams as [`encode`] with no steady-state
/// allocation.
pub fn encode_with(
    lattice: &QuantLattice,
    predictor: &dyn Predictor,
    quant: &QuantizerConfig,
    scratch: &mut EncodeScratch,
) {
    let before = scratch.caps();
    // split borrows: deltas is input to the quantizer, codes/outliers are
    // outputs — all three live in the same scratch
    let EncodeScratch {
        deltas,
        codes,
        outliers,
        ..
    } = scratch;
    encode_residuals_into(lattice, predictor, deltas);
    quant.encode_into(deltas, lattice.as_slice(), codes, outliers);
    scratch.track(before);
}

/// Sequentially reconstruct the lattice from codes + outliers.
///
/// Must visit points in exactly the row-major order the encoder used; each
/// reconstructed value becomes a neighbour for later predictions. The
/// input is untrusted: count mismatches, out-of-alphabet codes, and outlier
/// over/under-runs all return [`CfcError`] instead of panicking.
pub fn try_decode(
    shape: Shape,
    codes: &[u32],
    outliers: &[i64],
    predictor: &dyn Predictor,
    quant: &QuantizerConfig,
) -> Result<QuantLattice, CfcError> {
    if codes.len() != shape.len() {
        return Err(CfcError::Corrupt {
            context: "residual stream",
            detail: format!("{} codes for {} samples", codes.len(), shape.len()),
        });
    }
    let mut lattice = QuantLattice::zeros(shape);
    let mut out_iter = outliers.iter();
    let mut step =
        |lattice: &mut QuantLattice, off: usize, idx: &[usize]| -> Result<(), CfcError> {
            let code = codes[off];
            let value = match quant.check_one(code) {
                // wrapping: corrupt outliers can leave i64::MAX-scale
                // neighbours in the lattice, and decode must never panic
                Ok(Some(delta)) => predictor.predict(lattice, idx).wrapping_add(delta),
                Ok(None) => *out_iter.next().ok_or(CfcError::Corrupt {
                    context: "residual stream",
                    detail: "outlier stream exhausted".into(),
                })?,
                Err(code) => {
                    return Err(CfcError::Corrupt {
                        context: "residual stream",
                        detail: format!("code {code} outside alphabet of radius {}", quant.radius),
                    })
                }
            };
            lattice.as_mut_slice()[off] = value;
            Ok(())
        };
    match shape.ndim() {
        1 => {
            for i in 0..shape.dims()[0] {
                step(&mut lattice, i, &[i])?;
            }
        }
        2 => {
            let (rows, cols) = (shape.dims()[0], shape.dims()[1]);
            for i in 0..rows {
                for j in 0..cols {
                    step(&mut lattice, i * cols + j, &[i, j])?;
                }
            }
        }
        3 => {
            let d = shape.dims();
            for k in 0..d[0] {
                for i in 0..d[1] {
                    for j in 0..d[2] {
                        step(&mut lattice, (k * d[1] + i) * d[2] + j, &[k, i, j])?;
                    }
                }
            }
        }
        _ => unreachable!("Shape guarantees 1..=3 dims"),
    }
    if out_iter.next().is_some() {
        return Err(CfcError::Corrupt {
            context: "residual stream",
            detail: "outlier stream not fully consumed".into(),
        });
    }
    Ok(lattice)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::{CentralDiffPredictor, LorenzoPredictor};

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
    fn non_causal_predictor_diverges() {
        // The paper's Figure 3 point: central differences read not-yet-decoded
        // neighbours, so encode/decode disagree on generic data.
        let lat = lattice2(16, 16, |i, j| ((i * 31 + j * 17) % 97) as i64);
        let quant = QuantizerConfig { radius: 512 };
        let enc = encode(&lat, &CentralDiffPredictor, &quant);
        let dec = try_decode(
            lat.shape(),
            &enc.codes,
            &enc.outliers,
            &CentralDiffPredictor,
            &quant,
        )
        .unwrap();
        assert_ne!(
            dec.as_slice(),
            lat.as_slice(),
            "central-difference predictor should not round-trip"
        );
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
