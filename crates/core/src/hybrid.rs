//! Hybrid prediction model (paper §III-D3, Fig. 5 right).
//!
//! Combines the `n+1` per-point predictions — Lorenzo plus one
//! difference-based prediction per axis — by a learned weighted sum. The
//! paper keeps this model deliberately tiny (4–5 parameters, Table III)
//! because decompression replays it sequentially per sample.
//!
//! Weights are constrained to sum to 1 by reparametrizing against the
//! Lorenzo prediction: `pred = p_lorenzo + Σ_k w_k (p_k − p_lorenzo)`. This
//! matches the paper's reported weight vectors (e.g. 67%/25%/4%/4% on Wf48)
//! and keeps SGD well-conditioned on huge lattice values.

use cfc_sz::error::Reader;
use cfc_sz::CfcError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Training configuration for the hybrid model.
#[derive(Debug, Clone, Copy)]
pub struct HybridConfig {
    /// Number of lattice points sampled for fitting.
    pub n_samples: usize,
    /// SGD epochs (also the length of the Fig. 5-right loss curve).
    pub epochs: usize,
    /// SGD learning rate.
    pub lr: f64,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            n_samples: 4096,
            epochs: 40,
            lr: 0.25,
            seed: 11,
        }
    }
}

/// The learned combination weights. `weights[0]` belongs to Lorenzo,
/// `weights[1..]` to the axis-difference predictors; they sum to 1.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridModel {
    /// Full weight vector (Lorenzo first), summing to 1.
    pub weights: Vec<f64>,
    /// Per-epoch training loss (lattice-unit MSE).
    pub losses: Vec<f64>,
}

impl HybridModel {
    /// Number of combined predictors.
    pub fn arity(&self) -> usize {
        self.weights.len()
    }

    /// Learnable parameter count (the paper's Table III counts the full
    /// weight vector plus the implicit normalization: n+1 for n axes).
    pub fn num_params(&self) -> usize {
        self.weights.len()
    }

    /// Apply the model to one prediction vector (Lorenzo first).
    #[inline]
    pub fn combine(&self, preds: &[f64]) -> f64 {
        debug_assert_eq!(preds.len(), self.weights.len());
        let mut acc = 0.0;
        for (w, p) in self.weights.iter().zip(preds) {
            acc += w * p;
        }
        acc
    }

    /// Train on sampled points.
    ///
    /// `predictions[k]` holds, for sample `k`, the `n+1` candidate
    /// predictions (Lorenzo first); `targets[k]` is the true lattice value.
    pub fn train(predictions: &[Vec<f64>], targets: &[f64], cfg: &HybridConfig) -> Self {
        assert_eq!(predictions.len(), targets.len());
        assert!(!predictions.is_empty(), "no hybrid training samples");
        let arity = predictions[0].len();
        assert!(arity >= 2);
        let n_free = arity - 1;

        // residual features: r_k = p_k − p_lorenzo ; target t = q − p_lorenzo
        let feats: Vec<Vec<f64>> = predictions
            .iter()
            .map(|p| (1..arity).map(|i| p[i] - p[0]).collect())
            .collect();
        let resid: Vec<f64> = predictions
            .iter()
            .zip(targets)
            .map(|(p, &t)| t - p[0])
            .collect();

        // normalize feature scale for stable SGD
        let scale = feats
            .iter()
            .flat_map(|f| f.iter().map(|v| v.abs()))
            .fold(0.0f64, f64::max)
            .max(1e-9);

        let mut w = vec![0.0f64; n_free];
        let mut losses = Vec::with_capacity(cfg.epochs);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n = feats.len();
        for _ in 0..cfg.epochs {
            // full-batch gradient (samples are cheap, arity tiny)
            let mut grad = vec![0.0f64; n_free];
            let mut loss = 0.0f64;
            for k in 0..n {
                let mut err = -resid[k];
                for i in 0..n_free {
                    err += w[i] * feats[k][i];
                }
                loss += err * err;
                for i in 0..n_free {
                    grad[i] += 2.0 * err * feats[k][i] / (scale * scale);
                }
            }
            loss /= n as f64;
            losses.push(loss);
            for i in 0..n_free {
                // tiny jitter decorrelates symmetric starts
                let jitter = 1.0 + 1e-4 * (rng.random::<f64>() - 0.5);
                w[i] -= cfg.lr * jitter * grad[i] / n as f64;
            }
        }

        let mut weights = Vec::with_capacity(arity);
        weights.push(1.0 - w.iter().sum::<f64>());
        weights.extend_from_slice(&w);
        HybridModel { weights, losses }
    }

    /// Closed-form least-squares fit (same parametrization, no loss curve).
    pub fn fit_least_squares(predictions: &[Vec<f64>], targets: &[f64]) -> Self {
        assert_eq!(predictions.len(), targets.len());
        assert!(!predictions.is_empty());
        let arity = predictions[0].len();
        let n_free = arity - 1;
        let mut ata = vec![0.0f64; n_free * n_free];
        let mut atb = vec![0.0f64; n_free];
        for (p, &t) in predictions.iter().zip(targets) {
            let feats: Vec<f64> = (1..arity).map(|i| p[i] - p[0]).collect();
            let resid = t - p[0];
            for i in 0..n_free {
                for j in 0..n_free {
                    ata[i * n_free + j] += feats[i] * feats[j];
                }
                atb[i] += feats[i] * resid;
            }
        }
        // ridge for singular geometry
        for i in 0..n_free {
            ata[i * n_free + i] += 1e-9 * (ata[i * n_free + i].abs() + 1.0);
        }
        let w = solve_dense(&mut ata, &mut atb, n_free);
        let mut weights = Vec::with_capacity(arity);
        weights.push(1.0 - w.iter().sum::<f64>());
        weights.extend_from_slice(&w);
        HybridModel {
            weights,
            losses: Vec::new(),
        }
    }

    /// Bytes [`serialize`](Self::serialize) writes for `arity` weights.
    pub(crate) fn serialized_len(arity: usize) -> usize {
        1 + 8 * arity
    }

    /// Serialize weights (f64 LE).
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::serialized_len(self.weights.len()));
        out.push(self.weights.len() as u8);
        for &w in &self.weights {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Parse weights written by [`HybridModel::serialize`]. The bytes are
    /// untrusted: validates the declared count against the payload and
    /// requires finite weights.
    pub fn try_deserialize(bytes: &[u8]) -> Result<Self, CfcError> {
        let mut r = Reader::new(bytes);
        let n = r.u8("hybrid weight count")? as usize;
        if r.remaining() != n * 8 {
            return Err(CfcError::Corrupt {
                context: "hybrid weights",
                detail: format!("{n} weights claimed in {} payload bytes", r.remaining()),
            });
        }
        let weights = (0..n)
            .map(|_| r.f64("hybrid weights"))
            .collect::<Result<Vec<f64>, _>>()?;
        if weights.iter().any(|w| !w.is_finite()) {
            return Err(CfcError::Corrupt {
                context: "hybrid weights",
                detail: "non-finite weight".into(),
            });
        }
        Ok(HybridModel {
            weights,
            losses: Vec::new(),
        })
    }
}

/// Gaussian elimination with partial pivoting for the tiny normal system.
fn solve_dense(a: &mut [f64], b: &mut [f64], n: usize) -> Vec<f64> {
    for col in 0..n {
        let mut piv = col;
        for r in col + 1..n {
            if a[r * n + col].abs() > a[piv * n + col].abs() {
                piv = r;
            }
        }
        if a[piv * n + col].abs() < 1e-15 {
            continue;
        }
        if piv != col {
            for c in 0..n {
                a.swap(col * n + c, piv * n + c);
            }
            b.swap(col, piv);
        }
        let d = a[col * n + col];
        for r in 0..n {
            if r == col {
                continue;
            }
            let f = a[r * n + col] / d;
            for c in 0..n {
                a[r * n + c] -= f * a[col * n + c];
            }
            b[r] -= f * b[col];
        }
    }
    (0..n)
        .map(|k| {
            let d = a[k * n + k];
            if d.abs() < 1e-15 {
                0.0
            } else {
                b[k] / d
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic task: target = 0.7·p1 + 0.2·p2 + 0.1·p0 exactly.
    fn synthetic(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(5);
        let mut preds = Vec::with_capacity(n);
        let mut targets = Vec::with_capacity(n);
        for _ in 0..n {
            let base: f64 = rng.random_range(-500.0..500.0);
            let p0 = base + rng.random_range(-8.0..8.0);
            let p1 = base + rng.random_range(-2.0..2.0);
            let p2 = base + rng.random_range(-4.0..4.0);
            targets.push(0.1 * p0 + 0.7 * p1 + 0.2 * p2);
            preds.push(vec![p0, p1, p2]);
        }
        (preds, targets)
    }

    #[test]
    fn least_squares_recovers_true_weights() {
        let (preds, targets) = synthetic(3000);
        let m = HybridModel::fit_least_squares(&preds, &targets);
        assert!((m.weights[0] - 0.1).abs() < 0.03, "{:?}", m.weights);
        assert!((m.weights[1] - 0.7).abs() < 0.03);
        assert!((m.weights[2] - 0.2).abs() < 0.03);
        assert!((m.weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sgd_training_loss_decreases() {
        let (preds, targets) = synthetic(2000);
        let cfg = HybridConfig {
            epochs: 60,
            ..Default::default()
        };
        let m = HybridModel::train(&preds, &targets, &cfg);
        assert_eq!(m.losses.len(), 60);
        assert!(
            m.losses.last().unwrap() < &(m.losses[0] * 0.5),
            "losses {:?}",
            &m.losses[..5]
        );
        assert!((m.weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sgd_approaches_least_squares_solution() {
        let (preds, targets) = synthetic(2000);
        let lsq = HybridModel::fit_least_squares(&preds, &targets);
        let sgd = HybridModel::train(
            &preds,
            &targets,
            &HybridConfig {
                epochs: 400,
                lr: 0.4,
                ..Default::default()
            },
        );
        for (a, b) in lsq.weights.iter().zip(&sgd.weights) {
            assert!((a - b).abs() < 0.08, "lsq {lsq:?} vs sgd {sgd:?}");
        }
    }

    #[test]
    fn combine_applies_weights() {
        let m = HybridModel {
            weights: vec![0.5, 0.25, 0.25],
            losses: vec![],
        };
        assert_eq!(m.combine(&[4.0, 8.0, 0.0]), 4.0);
        assert_eq!(m.arity(), 3);
        assert_eq!(m.num_params(), 3);
    }

    #[test]
    fn serialization_roundtrip() {
        let m = HybridModel {
            weights: vec![0.6, 0.25, 0.1, 0.05],
            losses: vec![],
        };
        let m2 = HybridModel::try_deserialize(&m.serialize()).unwrap();
        assert_eq!(m.weights, m2.weights);
    }

    #[test]
    fn degenerate_identical_predictors_stay_finite() {
        // all predictors equal → any convex weights are optimal; must not blow up
        let preds: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64; 3]).collect();
        let targets: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let m = HybridModel::fit_least_squares(&preds, &targets);
        assert!(m.weights.iter().all(|w| w.is_finite()));
        assert!((m.weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
