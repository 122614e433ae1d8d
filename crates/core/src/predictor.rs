//! The cross-field hybrid predictor: a causal [`cfc_sz::Predictor`] that
//! fuses Lorenzo with CFNN-predicted backward differences (paper §III-C).

use cfc_sz::{Predictor, QuantLattice};
use cfc_tensor::Field;

use crate::hybrid::HybridModel;

/// Per-point candidate predictions on the lattice (Lorenzo first, then one
/// per axis). Shared by the predictor below and hybrid-model training.
#[inline]
pub fn candidate_predictions(
    lattice: &QuantLattice,
    dq: &[Vec<f64>],
    idx: &[usize],
    out: &mut [f64],
) {
    match *idx {
        [i, j] => {
            let (ii, jj) = (i as isize, j as isize);
            let a = lattice.get2(ii - 1, jj) as f64;
            let b = lattice.get2(ii, jj - 1) as f64;
            let c = lattice.get2(ii - 1, jj - 1) as f64;
            let shape = lattice.shape();
            let off = i * shape.dims()[1] + j;
            out[0] = a + b - c; // Lorenzo
            out[1] = a + dq[0][off]; // axis-0 difference
            out[2] = b + dq[1][off]; // axis-1 difference
        }
        [k, i, j] => {
            let (kk, ii, jj) = (k as isize, i as isize, j as isize);
            let pk = lattice.get3(kk - 1, ii, jj) as f64;
            let pi = lattice.get3(kk, ii - 1, jj) as f64;
            let pj = lattice.get3(kk, ii, jj - 1) as f64;
            let lorenzo = pk + pi + pj
                - lattice.get3(kk - 1, ii - 1, jj) as f64
                - lattice.get3(kk - 1, ii, jj - 1) as f64
                - lattice.get3(kk, ii - 1, jj - 1) as f64
                + lattice.get3(kk - 1, ii - 1, jj - 1) as f64;
            let d = lattice.shape();
            let dims = d.dims();
            let off = (k * dims[1] + i) * dims[2] + j;
            out[0] = lorenzo;
            out[1] = pk + dq[0][off];
            out[2] = pi + dq[1][off];
            out[3] = pj + dq[2][off];
        }
        _ => unreachable!("cross-field prediction is 2-D/3-D"),
    }
}

/// Causal hybrid predictor over the prequantized lattice.
///
/// `dq[axis][offset]` holds the CFNN-predicted backward difference at each
/// point, already converted to lattice units (`value / (2·eb)`); both sides
/// compute it from the *decompressed* anchors, so predictions agree exactly.
pub struct CrossFieldHybridPredictor {
    dq: Vec<Vec<f64>>,
    model: HybridModel,
    ndim: usize,
}

impl CrossFieldHybridPredictor {
    /// Build from predicted difference fields (physical units) and the
    /// absolute error bound of the target stream.
    pub fn new(predicted_diffs: &[Field], eb: f64, model: HybridModel) -> Self {
        let ndim = predicted_diffs.len();
        assert!(ndim == 2 || ndim == 3);
        assert_eq!(model.arity(), ndim + 1, "hybrid arity must be ndim+1");
        let step = 2.0 * eb;
        let dq: Vec<Vec<f64>> = predicted_diffs
            .iter()
            .map(|f| f.as_slice().iter().map(|&v| v as f64 / step).collect())
            .collect();
        CrossFieldHybridPredictor { dq, model, ndim }
    }
}

impl Predictor for CrossFieldHybridPredictor {
    #[inline]
    fn predict(&self, lattice: &QuantLattice, idx: &[usize]) -> i64 {
        let mut preds = [0.0f64; 4];
        candidate_predictions(lattice, &self.dq, idx, &mut preds[..self.ndim + 1]);
        self.model.combine(&preds[..self.ndim + 1]).round() as i64
    }

    fn name(&self) -> &'static str {
        "cross-field-hybrid"
    }
}

/// Arity of the temporal hybrid: Lorenzo, previous-epoch value, and the
/// temporally-corrected Lorenzo, independent of dimensionality.
pub const TEMPORAL_ARITY: usize = 3;

/// Per-point candidate predictions for a temporal-delta block (see
/// [`TemporalHybridPredictor`]). `pq` is the previous epoch's decoded slab
/// in *current* lattice units; `out` must hold [`TEMPORAL_ARITY`] slots.
#[inline]
pub fn temporal_candidate_predictions(
    lattice: &QuantLattice,
    pq: &[f64],
    idx: &[usize],
    out: &mut [f64],
) {
    let shape = lattice.shape();
    let dims = shape.dims();
    // zero-padded lookup into the fully-known previous-epoch plane
    let pq_at = |coords: &[isize]| -> f64 {
        let mut off = 0usize;
        for (k, &c) in coords.iter().enumerate() {
            if c < 0 || c as usize >= dims[k] {
                return 0.0;
            }
            off = off * dims[k] + c as usize;
        }
        pq[off]
    };
    match *idx {
        [i, j] => {
            let (ii, jj) = (i as isize, j as isize);
            let lorenzo = lattice.get2(ii - 1, jj) as f64 + lattice.get2(ii, jj - 1) as f64
                - lattice.get2(ii - 1, jj - 1) as f64;
            let p = pq_at(&[ii, jj]);
            let p_lorenzo = pq_at(&[ii - 1, jj]) + pq_at(&[ii, jj - 1]) - pq_at(&[ii - 1, jj - 1]);
            out[0] = lorenzo;
            out[1] = p;
            // spatial Lorenzo of the *increment*: exact for any increment
            // that is locally affine, and exactly `p` for a static field
            out[2] = p + (lorenzo - p_lorenzo);
        }
        [k, i, j] => {
            let (kk, ii, jj) = (k as isize, i as isize, j as isize);
            let lorenzo = lattice.get3(kk - 1, ii, jj) as f64
                + lattice.get3(kk, ii - 1, jj) as f64
                + lattice.get3(kk, ii, jj - 1) as f64
                - lattice.get3(kk - 1, ii - 1, jj) as f64
                - lattice.get3(kk - 1, ii, jj - 1) as f64
                - lattice.get3(kk, ii - 1, jj - 1) as f64
                + lattice.get3(kk - 1, ii - 1, jj - 1) as f64;
            let p = pq_at(&[kk, ii, jj]);
            let p_lorenzo =
                pq_at(&[kk - 1, ii, jj]) + pq_at(&[kk, ii - 1, jj]) + pq_at(&[kk, ii, jj - 1])
                    - pq_at(&[kk - 1, ii - 1, jj])
                    - pq_at(&[kk - 1, ii, jj - 1])
                    - pq_at(&[kk, ii - 1, jj - 1])
                    + pq_at(&[kk - 1, ii - 1, jj - 1]);
            out[0] = lorenzo;
            out[1] = p;
            out[2] = p + (lorenzo - p_lorenzo);
        }
        _ => unreachable!("temporal prediction is 2-D/3-D"),
    }
}

/// Causal temporal hybrid predictor for delta epochs.
///
/// Candidates per point (mixed by a fitted [`HybridModel`] of arity
/// [`TEMPORAL_ARITY`]):
///
/// 1. **Lorenzo** over the current lattice — ignores the previous epoch
///    entirely (best when the field decorrelated);
/// 2. **previous value** — the same point of the previous epoch's decoded
///    slab, converted to current lattice units (best for static or
///    noise-dominated content: one quantization error, not three);
/// 3. **temporal Lorenzo** — previous value plus the spatial Lorenzo
///    residual of the increment plane (exact when the epoch-to-epoch
///    increment is locally affine, e.g. smooth advection).
///
/// Both sides build `pq` from the *decoded* previous epoch, so encoder and
/// decoder predictions agree exactly.
pub struct TemporalHybridPredictor {
    pq: Vec<f64>,
    model: HybridModel,
    ndim: usize,
}

impl TemporalHybridPredictor {
    /// Build from the previous epoch's decoded slab (physical units) and
    /// the absolute error bound of the current block's lattice.
    pub fn new(prev_slab: &Field, eb: f64, model: HybridModel) -> Self {
        let ndim = prev_slab.shape().ndim();
        assert!(ndim == 2 || ndim == 3);
        assert_eq!(
            model.arity(),
            TEMPORAL_ARITY,
            "temporal hybrid arity is fixed"
        );
        let step = 2.0 * eb;
        let pq: Vec<f64> = prev_slab
            .as_slice()
            .iter()
            .map(|&v| v as f64 / step)
            .collect();
        TemporalHybridPredictor { pq, model, ndim }
    }
}

impl Predictor for TemporalHybridPredictor {
    #[inline]
    fn predict(&self, lattice: &QuantLattice, idx: &[usize]) -> i64 {
        debug_assert_eq!(idx.len(), self.ndim);
        let mut preds = [0.0f64; TEMPORAL_ARITY];
        temporal_candidate_predictions(lattice, &self.pq, idx, &mut preds);
        self.model.combine(&preds).round() as i64
    }

    fn name(&self) -> &'static str {
        "temporal-hybrid"
    }
}

/// The one sampler behind both hybrid fits: `n` deterministic interior
/// points of the true lattice (encoder side), each with the `arity`
/// candidate predictions `candidates` fills in and the value they aim at.
fn sample_training(
    lattice: &QuantLattice,
    arity: usize,
    n: usize,
    seed: u64,
    candidates: impl Fn(&[usize], &mut [f64]),
) -> (Vec<Vec<f64>>, Vec<f64>) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let shape = lattice.shape();
    let dims = shape.dims();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut preds = Vec::with_capacity(n);
    let mut targets = Vec::with_capacity(n);
    for _ in 0..n {
        let idx: Vec<usize> = dims
            .iter()
            .map(|&d| if d > 1 { rng.random_range(1..d) } else { 0 })
            .collect();
        let mut p = vec![0.0f64; arity];
        candidates(&idx, &mut p);
        let off = idx.iter().zip(dims).fold(0, |off, (&i, &d)| off * d + i);
        preds.push(p);
        targets.push(lattice.at(off) as f64);
    }
    (preds, targets)
}

/// Sample temporal-hybrid training data from the true lattice (encoder
/// side): `(candidate_predictions, targets)` at `n` deterministic interior
/// points. `pq` is the previous epoch in current lattice units.
pub fn sample_temporal_training(
    lattice: &QuantLattice,
    pq: &[f64],
    n: usize,
    seed: u64,
) -> (Vec<Vec<f64>>, Vec<f64>) {
    sample_training(lattice, TEMPORAL_ARITY, n, seed, |idx, out| {
        temporal_candidate_predictions(lattice, pq, idx, out)
    })
}

/// Sample hybrid-model training data from the true lattice (encoder side):
/// returns `(candidate_predictions, targets)` at `n` deterministic interior
/// points.
pub fn sample_hybrid_training(
    lattice: &QuantLattice,
    dq: &[Vec<f64>],
    n: usize,
    seed: u64,
) -> (Vec<Vec<f64>>, Vec<f64>) {
    sample_training(lattice, lattice.shape().ndim() + 1, n, seed, |idx, out| {
        candidate_predictions(lattice, dq, idx, out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfc_sz::{codec, QuantizerConfig};
    use cfc_tensor::Shape;

    fn lattice2(rows: usize, cols: usize, f: impl Fn(usize, usize) -> i64) -> QuantLattice {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        QuantLattice::from_vec(Shape::d2(rows, cols), data)
    }

    fn exact_dq_2d(lat: &QuantLattice) -> Vec<Vec<f64>> {
        // true backward differences of the lattice, in lattice units
        let shape = lat.shape();
        let (rows, cols) = (shape.dims()[0], shape.dims()[1]);
        let mut d0 = vec![0.0f64; rows * cols];
        let mut d1 = vec![0.0f64; rows * cols];
        for i in 0..rows {
            for j in 0..cols {
                let q = lat.get2(i as isize, j as isize) as f64;
                d0[i * cols + j] = q - lat.get2(i as isize - 1, j as isize) as f64;
                d1[i * cols + j] = q - lat.get2(i as isize, j as isize - 1) as f64;
            }
        }
        vec![d0, d1]
    }

    #[test]
    fn perfect_differences_give_perfect_prediction() {
        let lat = lattice2(12, 12, |i, j| (i * i) as i64 + 3 * j as i64);
        let dq = exact_dq_2d(&lat);
        // pure axis-0 weighting
        let model = HybridModel {
            weights: vec![0.0, 1.0, 0.0],
            losses: vec![],
        };
        let pred = CrossFieldHybridPredictor {
            dq: dq.clone(),
            model,
            ndim: 2,
        };
        for i in 1..12 {
            for j in 1..12 {
                assert_eq!(
                    pred.predict(&lat, &[i, j]),
                    lat.get2(i as isize, j as isize),
                    "at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn hybrid_roundtrips_through_codec() {
        let lat = lattice2(20, 20, |i, j| {
            ((i * 13 + j * 7) % 91) as i64 + i as i64 * 50
        });
        let dq = exact_dq_2d(&lat);
        let (preds, targets) = sample_hybrid_training(&lat, &dq, 500, 3);
        let model = HybridModel::fit_least_squares(&preds, &targets);
        let predictor = CrossFieldHybridPredictor { dq, model, ndim: 2 };
        let quant = QuantizerConfig { radius: 512 };
        let enc = codec::encode(&lat, &predictor, &quant);
        let dec =
            codec::try_decode(lat.shape(), &enc.codes, &enc.outliers, &predictor, &quant).unwrap();
        assert_eq!(dec.as_slice(), lat.as_slice());
    }

    #[test]
    fn noisy_dq_still_roundtrips() {
        // dq wrong by ±3 lattice steps: residuals bigger but still lossless
        let lat = lattice2(16, 16, |i, j| (i * 4 + j) as i64);
        let mut dq = exact_dq_2d(&lat);
        for (k, plane) in dq.iter_mut().enumerate() {
            for (o, v) in plane.iter_mut().enumerate() {
                *v += ((o + k) % 7) as f64 - 3.0;
            }
        }
        let model = HybridModel {
            weights: vec![0.4, 0.3, 0.3],
            losses: vec![],
        };
        let predictor = CrossFieldHybridPredictor { dq, model, ndim: 2 };
        let quant = QuantizerConfig { radius: 512 };
        let enc = codec::encode(&lat, &predictor, &quant);
        let dec =
            codec::try_decode(lat.shape(), &enc.codes, &enc.outliers, &predictor, &quant).unwrap();
        assert_eq!(dec.as_slice(), lat.as_slice());
    }

    #[test]
    fn predictor_3d_roundtrips() {
        let shape = Shape::d3(5, 8, 8);
        let mut data = Vec::new();
        for k in 0..5i64 {
            for i in 0..8i64 {
                for j in 0..8i64 {
                    data.push(k * 9 + i * 2 - j + ((k + i * j) % 4));
                }
            }
        }
        let lat = QuantLattice::from_vec(shape, data);
        let dq: Vec<Vec<f64>> = (0..3).map(|_| vec![0.0f64; shape.len()]).collect();
        let model = HybridModel {
            weights: vec![1.0, 0.0, 0.0, 0.0],
            losses: vec![],
        };
        let predictor = CrossFieldHybridPredictor { dq, model, ndim: 3 };
        let quant = QuantizerConfig { radius: 512 };
        let enc = codec::encode(&lat, &predictor, &quant);
        let dec = codec::try_decode(shape, &enc.codes, &enc.outliers, &predictor, &quant).unwrap();
        assert_eq!(dec.as_slice(), lat.as_slice());
    }

    #[test]
    fn sampling_avoids_borders() {
        let lat = lattice2(10, 10, |i, j| (i + j) as i64);
        let dq = exact_dq_2d(&lat);
        let (preds, targets) = sample_hybrid_training(&lat, &dq, 200, 1);
        assert_eq!(preds.len(), 200);
        assert_eq!(targets.len(), 200);
        // with exact dq, axis predictors equal the target at interior points
        for (p, &t) in preds.iter().zip(&targets) {
            assert_eq!(p[1], t);
            assert_eq!(p[2], t);
        }
    }

    #[test]
    fn temporal_previous_value_candidate_is_exact_on_static_fields() {
        // identical epochs: the previous-value candidate alone reproduces
        // the lattice exactly at every point, border included
        let lat = lattice2(10, 12, |i, j| ((i * 31 + j * 17) % 57) as i64 - 20);
        let pq: Vec<f64> = lat.as_slice().iter().map(|&v| v as f64).collect();
        let model = HybridModel {
            weights: vec![0.0, 1.0, 0.0],
            losses: vec![],
        };
        let pred = TemporalHybridPredictor {
            pq: pq.clone(),
            model,
            ndim: 2,
        };
        for i in 0..10 {
            for j in 0..12 {
                assert_eq!(
                    pred.predict(&lat, &[i, j]),
                    lat.get2(i as isize, j as isize),
                    "at ({i},{j})"
                );
            }
        }
        // the temporal-Lorenzo candidate is exact too when the increment
        // is zero (interior and borders share the zero-padding convention)
        let model = HybridModel {
            weights: vec![0.0, 0.0, 1.0],
            losses: vec![],
        };
        let pred = TemporalHybridPredictor { pq, model, ndim: 2 };
        for i in 0..10 {
            for j in 0..12 {
                assert_eq!(
                    pred.predict(&lat, &[i, j]),
                    lat.get2(i as isize, j as isize)
                );
            }
        }
    }

    #[test]
    fn temporal_lorenzo_candidate_absorbs_affine_increments() {
        // previous epoch rough, current = previous + affine ramp: the
        // temporal-Lorenzo candidate is exact on interior points
        let prev = lattice2(9, 9, |i, j| ((i * 13 + j * 29) % 83) as i64);
        let cur = lattice2(9, 9, |i, j| {
            prev.get2(i as isize, j as isize) + 4 * i as i64 + 7 * j as i64 + 3
        });
        let pq: Vec<f64> = prev.as_slice().iter().map(|&v| v as f64).collect();
        let model = HybridModel {
            weights: vec![0.0, 0.0, 1.0],
            losses: vec![],
        };
        let pred = TemporalHybridPredictor { pq, model, ndim: 2 };
        for i in 1..9 {
            for j in 1..9 {
                assert_eq!(
                    pred.predict(&cur, &[i, j]),
                    cur.get2(i as isize, j as isize),
                    "at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn temporal_hybrid_roundtrips_through_codec() {
        let prev = lattice2(20, 20, |i, j| ((i * 7 + j * 11) % 63) as i64 + i as i64);
        let cur = lattice2(20, 20, |i, j| {
            prev.get2(i as isize, j as isize) + ((i + 2 * j) % 5) as i64
        });
        let pq: Vec<f64> = prev.as_slice().iter().map(|&v| v as f64).collect();
        let (preds, targets) = sample_temporal_training(&cur, &pq, 400, 9);
        let model = HybridModel::fit_least_squares(&preds, &targets);
        assert_eq!(model.arity(), TEMPORAL_ARITY);
        let predictor = TemporalHybridPredictor { pq, model, ndim: 2 };
        let quant = QuantizerConfig { radius: 512 };
        let enc = codec::encode(&cur, &predictor, &quant);
        let dec =
            codec::try_decode(cur.shape(), &enc.codes, &enc.outliers, &predictor, &quant).unwrap();
        assert_eq!(dec.as_slice(), cur.as_slice());
    }

    #[test]
    fn temporal_3d_roundtrips() {
        let shape = Shape::d3(4, 6, 6);
        let prev_data: Vec<i64> = (0..shape.len()).map(|o| ((o * 37) % 101) as i64).collect();
        let cur_data: Vec<i64> = prev_data.iter().map(|&v| v + 2).collect();
        let prev = QuantLattice::from_vec(shape, prev_data);
        let cur = QuantLattice::from_vec(shape, cur_data);
        let pq: Vec<f64> = prev.as_slice().iter().map(|&v| v as f64).collect();
        let model = HybridModel {
            weights: vec![0.1, 0.6, 0.3],
            losses: vec![],
        };
        let predictor = TemporalHybridPredictor { pq, model, ndim: 3 };
        let quant = QuantizerConfig { radius: 512 };
        let enc = codec::encode(&cur, &predictor, &quant);
        let dec = codec::try_decode(shape, &enc.codes, &enc.outliers, &predictor, &quant).unwrap();
        assert_eq!(dec.as_slice(), cur.as_slice());
    }

    #[test]
    fn temporal_new_converts_units() {
        let f = Field::from_vec(Shape::d2(2, 2), vec![0.2, 0.4, -0.2, 0.0]);
        let model = HybridModel {
            weights: vec![0.2, 0.5, 0.3],
            losses: vec![],
        };
        let p = TemporalHybridPredictor::new(&f, 0.1, model);
        for (got, want) in p.pq.iter().zip([1.0, 2.0, -1.0, 0.0]) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
        assert_eq!(p.model.arity(), 3);
    }

    #[test]
    fn new_converts_units() {
        let f = Field::from_vec(Shape::d2(2, 2), vec![0.2, 0.4, -0.2, 0.0]);
        let g = Field::zeros(Shape::d2(2, 2));
        let model = HybridModel {
            weights: vec![0.5, 0.25, 0.25],
            losses: vec![],
        };
        let p = CrossFieldHybridPredictor::new(&[f, g], 0.1, model);
        for (got, want) in p.dq[0].iter().zip([1.0, 2.0, -1.0, 0.0]) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}"); // v / (2·0.1)
        }
        assert!(p.dq.iter().all(|plane| plane.len() == 4) && p.ndim == 2);
    }
}
