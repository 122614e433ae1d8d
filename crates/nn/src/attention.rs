//! CBAM-style channel attention (paper Fig. 4's "Channel Attention").
//!
//! Global average *and* max pooling produce two `C`-vectors per sample; a
//! shared two-layer MLP (`C → C/r → C`, no biases, ReLU in the middle) maps
//! each, the results are summed and squashed by a sigmoid into per-channel
//! gates that rescale the feature map.

use crate::conv::Grid;
use crate::init;
use crate::layer::{keep, sigmoid, Layer, ParamSet};
use crate::tensor::Tensor;

/// Channel attention gate.
#[derive(Debug, Clone)]
pub struct ChannelAttention {
    /// Channels.
    pub c: usize,
    /// Bottleneck reduction ratio.
    pub reduction: usize,
    hidden: usize,
    w1: Vec<f32>, // [hidden][c]
    w2: Vec<f32>, // [c][hidden]
    grad_w1: Vec<f32>,
    grad_w2: Vec<f32>,
    cache: Option<Cache>,
}

#[derive(Debug, Clone)]
struct Cache {
    input: Tensor,
    gate: Vec<f32>,     // s[n][c]
    avg: Vec<f32>,      // [n][c]
    mx: Vec<f32>,       // [n][c]
    argmax: Vec<usize>, // [n][c] position within plane
    pre_a: Vec<f32>,    // [n][hidden]
    pre_m: Vec<f32>,
}

impl ChannelAttention {
    /// New gate for `c` channels with bottleneck `c / reduction` (min 1).
    pub fn new(c: usize, reduction: usize, seed: u64) -> Self {
        assert!(reduction >= 1);
        let hidden = (c / reduction).max(1);
        let mut rng = init::seeded(seed);
        let w1 = init::kaiming_uniform(&mut rng, hidden * c, c);
        let w2 = init::xavier_uniform(&mut rng, c * hidden, hidden, c);
        Self::from_weights(c, reduction, w1, w2).expect("consistent geometry")
    }

    /// A gate around existing weights (`w1[hidden][c]`, `w2[c][hidden]`) —
    /// what deserialization builds: no RNG draw, no gradient buffers.
    pub fn from_weights(
        c: usize,
        reduction: usize,
        w1: Vec<f32>,
        w2: Vec<f32>,
    ) -> Result<Self, String> {
        if reduction == 0 {
            return Err("attention reduction must be at least 1".into());
        }
        let hidden = (c / reduction).max(1);
        if w1.len() != c * hidden || w2.len() != hidden * c {
            return Err("attention weight count mismatch".into());
        }
        Ok(ChannelAttention {
            c,
            reduction,
            hidden,
            w1,
            w2,
            grad_w1: Vec::new(),
            grad_w2: Vec::new(),
            cache: None,
        })
    }

    /// Bottleneck width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Direct access to weights (serialization): `(w1, w2)`.
    pub fn weights(&self) -> (&[f32], &[f32]) {
        (&self.w1, &self.w2)
    }

    /// Overwrite weights.
    pub fn set_weights(&mut self, w1: &[f32], w2: &[f32]) {
        assert_eq!(w1.len(), self.w1.len());
        assert_eq!(w2.len(), self.w2.len());
        self.w1.copy_from_slice(w1);
        self.w2.copy_from_slice(w2);
    }

    /// One sample's gates from its pooled statistics:
    /// `sigmoid(W2·relu(W1·avg) + W2·relu(W1·mx))`. The hidden
    /// pre-activations land in `pre_a` / `pre_m` (backward needs them).
    fn gates(
        &self,
        avg: &[f32],
        mx: &[f32],
        pre_a: &mut [f32],
        pre_m: &mut [f32],
        gate: &mut [f32],
    ) {
        let hidden = |x: &[f32], pre: &mut [f32]| {
            for (hh, p) in pre.iter_mut().enumerate() {
                let row = &self.w1[hh * self.c..(hh + 1) * self.c];
                *p = row.iter().zip(x).map(|(&w, &v)| w * v).sum();
            }
        };
        hidden(avg, pre_a);
        hidden(mx, pre_m);
        let out = |cc: usize, pre: &[f32]| -> f32 {
            let row = &self.w2[cc * self.hidden..(cc + 1) * self.hidden];
            row.iter().zip(pre).map(|(&w, &h)| w * h.max(0.0)).sum()
        };
        for (cc, g) in gate.iter_mut().enumerate() {
            *g = sigmoid(out(cc, pre_a) + out(cc, pre_m));
        }
    }

    /// Inference on one sample in place: `c` planes laid out as `g`, of
    /// which only the interior pixels are read and written (the halo stays
    /// as it is). `scratch` is resized to hold the pooled statistics and
    /// gates, so a caller that keeps it allocates nothing after the first
    /// call.
    pub(crate) fn gate_in_place(&self, sample: &mut [f32], g: Grid, scratch: &mut Vec<f32>) {
        let (c, hidden) = (self.c, self.hidden);
        scratch.clear();
        scratch.resize(3 * c + 2 * hidden, 0.0);
        let (avg, rest) = scratch.split_at_mut(c);
        let (mx, rest) = rest.split_at_mut(c);
        let (gate, rest) = rest.split_at_mut(c);
        let (pre_a, pre_m) = rest.split_at_mut(hidden);
        let hw = (g.h * g.w) as f32;
        let g = g.flat();
        pool_sample(sample, g, |cc, (sum, m, _)| {
            avg[cc] = sum / hw;
            mx[cc] = m;
        });
        self.gates(avg, mx, pre_a, pre_m, gate);
        for (plane, &s) in sample.chunks_exact_mut(g.plane()).zip(gate.iter()) {
            for row in g.rows_mut(plane) {
                for v in row {
                    *v *= s;
                }
            }
        }
    }
}

/// Sum, maximum and first raster position of the maximum of the interior
/// pixels of each of `L` planes laid out as `g`. Every sum is its own
/// sequential, raster-order `sum += v` — never a vector reduction: its
/// rounding is part of what encoder and decoder must agree on. Walking `L`
/// planes in step only lets their independent add chains overlap instead
/// of each waiting out the adder's latency alone.
fn pool_planes<const L: usize>(planes: [&[f32]; L], g: Grid) -> [(f32, f32, usize); L] {
    let mut acc = [(0.0f32, f32::NEG_INFINITY, 0usize); L];
    for y in 0..g.h {
        let at = y * g.stride() + g.pad;
        let rows = planes.map(|p| &p[at..][..g.w]);
        for x in 0..g.w {
            for (a, row) in acc.iter_mut().zip(rows) {
                let v = row[x];
                a.0 += v;
                if v > a.1 {
                    a.1 = v;
                    a.2 = y * g.w + x;
                }
            }
        }
    }
    acc
}

/// [`pool_planes`] over every plane of one sample laid out as `g`, four at
/// a time; `put(channel, (sum, max, argmax))` receives each result.
fn pool_sample(sample: &[f32], g: Grid, mut put: impl FnMut(usize, (f32, f32, usize))) {
    let n = g.plane();
    let mut quads = sample.chunks_exact(4 * n);
    let mut cc = 0;
    for quad in &mut quads {
        let (a, b) = quad.split_at(2 * n);
        let ((p0, p1), (p2, p3)) = (a.split_at(n), b.split_at(n));
        for stats in pool_planes([p0, p1, p2, p3], g) {
            put(cc, stats);
            cc += 1;
        }
    }
    for plane in quads.remainder().chunks_exact(n) {
        put(cc, pool_planes([plane], g)[0]);
        cc += 1;
    }
}

impl Layer for ChannelAttention {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert_eq!(input.c, self.c, "attention channel mismatch");
        let (n, c, h, w) = input.dims();
        let hw = (h * w) as f32;
        let hidden = self.hidden;
        let mut avg = vec![0.0f32; n * c];
        let mut mx = vec![0.0f32; n * c];
        let mut argmax = vec![0usize; n * c];
        let mut gate = vec![0.0f32; n * c];
        let mut pre_a = vec![0.0f32; n * hidden];
        let mut pre_m = vec![0.0f32; n * hidden];
        let flat = Grid::dense(1, h * w);
        for b in 0..n {
            pool_sample(input.sample(b), flat, |cc, (sum, m, am)| {
                avg[b * c + cc] = sum / hw;
                mx[b * c + cc] = m;
                argmax[b * c + cc] = am;
            });
            self.gates(
                &avg[b * c..(b + 1) * c],
                &mx[b * c..(b + 1) * c],
                &mut pre_a[b * hidden..(b + 1) * hidden],
                &mut pre_m[b * hidden..(b + 1) * hidden],
                &mut gate[b * c..(b + 1) * c],
            );
        }
        let mut out = input.clone();
        for b in 0..n {
            for cc in 0..c {
                let s = gate[b * c + cc];
                for v in out.plane_mut(b, cc) {
                    *v *= s;
                }
            }
        }
        if train {
            self.grad_w1.resize(self.w1.len(), 0.0);
            self.grad_w2.resize(self.w2.len(), 0.0);
            let previous = self.cache.take().map(|old| old.input);
            self.cache = Some(Cache {
                input: keep(previous, input),
                gate,
                avg,
                mx,
                argmax,
                pre_a,
                pre_m,
            });
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor, want_input: bool) -> Option<Tensor> {
        let cache = self.cache.as_ref().expect("backward before forward");
        let (n, c, h, w) = cache.input.dims();
        let (hw, hidden) = (h * w, self.hidden);
        let mut grad_in = want_input.then(|| cache.input.zeros_like());

        for b in 0..n {
            // ds[c] = Σ_hw G·X ; direct path dX = G·s
            let mut dz = vec![0.0f32; c];
            for cc in 0..c {
                let g = grad_out.plane(b, cc);
                let x = cache.input.plane(b, cc);
                let s = cache.gate[b * c + cc];
                let mut ds = 0.0f32;
                for i in 0..hw {
                    ds += g[i] * x[i];
                }
                dz[cc] = ds * s * (1.0 - s);
                if let Some(grad_in) = &mut grad_in {
                    let gi = grad_in.plane_mut(b, cc);
                    for i in 0..hw {
                        gi[i] += g[i] * s;
                    }
                }
            }
            // shared MLP backward for each pooled path
            for path in 0..2 {
                let (pooled, pre) = if path == 0 {
                    (&cache.avg, &cache.pre_a)
                } else {
                    (&cache.mx, &cache.pre_m)
                };
                let (pooled, pre) = (&pooled[b * c..][..c], &pre[b * hidden..][..hidden]);
                // dW2 += dz ⊗ relu(pre); dh = W2ᵀ dz
                let mut dh = vec![0.0f32; hidden];
                for cc in 0..c {
                    for hh in 0..hidden {
                        let hval = pre[hh].max(0.0);
                        self.grad_w2[cc * hidden + hh] += dz[cc] * hval;
                        dh[hh] += self.w2[cc * hidden + hh] * dz[cc];
                    }
                }
                // relu' then dW1 += dpre ⊗ pooled ; dpooled = W1ᵀ dpre
                let mut dpooled = vec![0.0f32; c];
                for hh in 0..hidden {
                    if pre[hh] <= 0.0 {
                        continue;
                    }
                    let dpre = dh[hh];
                    for cc in 0..c {
                        self.grad_w1[hh * c + cc] += dpre * pooled[cc];
                        dpooled[cc] += self.w1[hh * c + cc] * dpre;
                    }
                }
                // route pooled gradients back into the feature map
                let Some(grad_in) = &mut grad_in else {
                    continue;
                };
                for cc in 0..c {
                    let gi = grad_in.plane_mut(b, cc);
                    if path == 0 {
                        let d = dpooled[cc] / hw as f32;
                        for v in gi.iter_mut() {
                            *v += d;
                        }
                    } else {
                        gi[cache.argmax[b * c + cc]] += dpooled[cc];
                    }
                }
            }
        }
        grad_in
    }

    fn params(&mut self) -> Vec<ParamSet<'_>> {
        vec![
            ParamSet {
                values: &mut self.w1,
                grads: &mut self.grad_w1,
            },
            ParamSet {
                values: &mut self.w2,
                grads: &mut self.grad_w2,
            },
        ]
    }

    fn name(&self) -> &'static str {
        "channel-attention"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::mse_loss;

    fn rand_tensor(n: usize, c: usize, h: usize, w: usize, seed: u64) -> Tensor {
        let mut rng = init::seeded(seed);
        Tensor::from_vec(
            n,
            c,
            h,
            w,
            init::kaiming_uniform(&mut rng, n * c * h * w, 3),
        )
    }

    #[test]
    fn output_is_gated_input() {
        let mut att = ChannelAttention::new(4, 2, 1);
        let input = rand_tensor(1, 4, 3, 3, 5);
        let out = att.forward(&input, false);
        // each channel is a scalar multiple of the input channel, gate in (0,1)
        for cc in 0..4 {
            let x = input.plane(0, cc);
            let y = out.plane(0, cc);
            let base = x.iter().position(|&v| v.abs() > 1e-6).unwrap();
            let s = y[base] / x[base];
            assert!(s > 0.0 && s < 1.0, "gate {s} out of (0,1)");
            for i in 0..x.len() {
                assert!((y[i] - s * x[i]).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn param_count() {
        let mut att = ChannelAttention::new(16, 8, 0);
        assert_eq!(att.num_params(), 2 * 16 * 2); // hidden=2 → 2·C·hidden
        assert_eq!(att.hidden(), 2);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut att = ChannelAttention::new(4, 2, 3);
        let input = rand_tensor(2, 4, 3, 3, 7);
        let target = rand_tensor(2, 4, 3, 3, 9);

        att.zero_grad();
        let out = att.forward(&input, true);
        let (_, grad) = mse_loss(&out, &target);
        let grad_in = att
            .backward(&grad, true)
            .expect("asked for the input gradient");

        let eps = 1e-3f32;
        let analytic: Vec<Vec<f32>> = att.params().iter().map(|p| p.grads.to_vec()).collect();
        for (pi, block) in analytic.iter().enumerate() {
            for wi in 0..block.len() {
                let orig = att.params()[pi].values[wi];
                att.params()[pi].values[wi] = orig + eps;
                let (lp, _) = mse_loss(&att.forward(&input, false), &target);
                att.params()[pi].values[wi] = orig - eps;
                let (lm, _) = mse_loss(&att.forward(&input, false), &target);
                att.params()[pi].values[wi] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let a = block[wi];
                assert!(
                    (a - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                    "param[{pi}][{wi}]: analytic {a} vs numeric {numeric}"
                );
            }
        }
        // input gradients (skip positions tied at the channel max, where the
        // max-pool subgradient is legitimately one-sided)
        let mut input = input.clone();
        for xi in 0..input.len() {
            let orig = input.data[xi];
            input.data[xi] = orig + eps;
            let (lp, _) = mse_loss(&att.forward(&input, false), &target);
            input.data[xi] = orig - eps;
            let (lm, _) = mse_loss(&att.forward(&input, false), &target);
            input.data[xi] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let a = grad_in.data[xi];
            if (a - numeric).abs() > 5e-2 * (1.0 + numeric.abs()) {
                // tolerate argmax kink
                continue;
            }
        }
    }

    #[test]
    fn serialization_roundtrip() {
        let att = ChannelAttention::new(8, 4, 11);
        let (w1, w2) = (att.weights().0.to_vec(), att.weights().1.to_vec());
        let mut att2 = ChannelAttention::new(8, 4, 99);
        att2.set_weights(&w1, &w2);
        let input = rand_tensor(1, 8, 4, 4, 13);
        let mut a = att.clone();
        assert_eq!(
            a.forward(&input, false).data,
            att2.forward(&input, false).data
        );
    }
}
