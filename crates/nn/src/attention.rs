//! CBAM-style channel attention (paper Fig. 4's "Channel Attention").
//!
//! Global average *and* max pooling produce two `C`-vectors per sample; a
//! shared two-layer MLP (`C → C/r → C`, no biases, ReLU in the middle) maps
//! each, the results are summed and squashed by a sigmoid into per-channel
//! gates that rescale the feature map.

use crate::conv::{Backward, Grid};
use crate::init;
use crate::optim::{param_set, ParamSet};

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
    // gradient accumulators: empty until the parameters are first asked for
    grad_w1: Vec<f32>,
    grad_w2: Vec<f32>,
}

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
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

    /// Both weight blocks with their gradient accumulators.
    pub(crate) fn params(&mut self) -> [ParamSet<'_>; 2] {
        [
            param_set(&mut self.w1, &mut self.grad_w1),
            param_set(&mut self.w2, &mut self.grad_w2),
        ]
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

    /// Values of one sample's statistics (see
    /// [`ChannelAttention::gate_in_place`]).
    pub(crate) fn stats_len(&self) -> usize {
        3 * self.c + 2 * self.hidden
    }

    /// The gate on one sample in place: `c` planes laid out as `g`, of
    /// which only the interior pixels are read and written (the halo stays
    /// as it is). The sample's statistics land in `stats` — `[avg; c][max;
    /// c][gate; c][pre_a; hidden][pre_m; hidden]`, the first
    /// [`ChannelAttention::stats_len`] values — and the raster position
    /// where each plane's maximum first is in `argmax`: all the backward
    /// pass needs besides the planes.
    pub(crate) fn gate_in_place(
        &self,
        sample: &mut [f32],
        g: Grid,
        (stats, argmax): (&mut [f32], &mut [usize]),
    ) {
        let (c, hidden) = (self.c, self.hidden);
        let (avg, rest) = stats.split_at_mut(c);
        let (mx, rest) = rest.split_at_mut(c);
        let (gate, rest) = rest.split_at_mut(c);
        let (pre_a, rest) = rest.split_at_mut(hidden);
        let hw = (g.h * g.w) as f32;
        let g = g.flat();
        pool_sample(sample, g, |cc, (sum, m, am)| {
            avg[cc] = sum / hw;
            mx[cc] = m;
            argmax[cc] = am;
        });
        self.gates(avg, mx, pre_a, &mut rest[..hidden], gate);
        for (plane, &s) in sample.chunks_exact_mut(g.plane()).zip(gate.iter()) {
            for row in g.rows_mut(plane) {
                for v in row {
                    *v *= s;
                }
            }
        }
    }

    /// The gate's backward pass over a batch (see [`Backward`]; `b.x` holds
    /// the planes it gated, `stats` and `argmax` what
    /// [`ChannelAttention::gate_in_place`] left for each sample, one after
    /// another): `grad_w1` and `grad_w2` accumulate sample by sample.
    /// `scratch` holds the gradients of the gate's inner values.
    pub(crate) fn backward(
        &self,
        b: Backward,
        (stats, argmax): (&[f32], &[usize]),
        scratch: &mut Vec<f32>,
        grad_w1: &mut [f32],
        grad_w2: &mut [f32],
    ) {
        let (c, hidden, g) = (self.c, self.hidden, b.g);
        let (plane, hw) = (g.plane(), g.h * g.w);
        let mut gi = b.gi;
        scratch.resize(3 * c + hidden, 0.0);
        let (dz, rest) = scratch.split_at_mut(c);
        let (dh, dpooled) = rest.split_at_mut(hidden);
        let (d_avg, d_max) = dpooled.split_at_mut(c);
        for i in 0..b.n {
            let x = &b.x[i * c * plane..][..c * plane];
            let go = &b.go[i * c * plane..][..c * plane];
            let stats = &stats[i * self.stats_len()..][..self.stats_len()];
            let (avg, rest) = stats.split_at(c);
            let (mx, rest) = rest.split_at(c);
            let (gate, rest) = rest.split_at(c);
            let (pre_a, pre_m) = rest.split_at(hidden);

            // ds[c] = Σ_hw G·X
            for (cc, dz) in dz.iter_mut().enumerate() {
                let at = cc * plane..(cc + 1) * plane;
                let mut ds = 0.0f32;
                for (gr, xr) in g.rows(&go[at.clone()]).zip(g.rows(&x[at])) {
                    for (&gv, &xv) in gr.iter().zip(xr) {
                        ds += gv * xv;
                    }
                }
                let s = gate[cc];
                *dz = ds * s * (1.0 - s);
            }
            // shared MLP backward for each pooled path
            for (pooled, pre, dpooled) in [(avg, pre_a, &mut *d_avg), (mx, pre_m, &mut *d_max)] {
                // dW2 += dz ⊗ relu(pre); dh = W2ᵀ dz
                dh.fill(0.0);
                for cc in 0..c {
                    for hh in 0..hidden {
                        let hval = pre[hh].max(0.0);
                        grad_w2[cc * hidden + hh] += dz[cc] * hval;
                        dh[hh] += self.w2[cc * hidden + hh] * dz[cc];
                    }
                }
                // relu' then dW1 += dpre ⊗ pooled ; dpooled = W1ᵀ dpre
                dpooled.fill(0.0);
                for hh in 0..hidden {
                    if pre[hh] <= 0.0 {
                        continue;
                    }
                    let dpre = dh[hh];
                    for cc in 0..c {
                        grad_w1[hh * c + cc] += dpre * pooled[cc];
                        dpooled[cc] += self.w1[hh * c + cc] * dpre;
                    }
                }
            }
            // dX: the direct path G·s from `+0.0` (so a `-0.0` product
            // comes out `+0.0`), then the average pool's share on every
            // pixel, then the max pool's on the plane's first maximum
            let Some(gi) = gi.as_deref_mut() else {
                continue;
            };
            let gi = &mut gi[i * c * plane..][..c * plane];
            let argmax = &argmax[i * c..][..c];
            for (cc, gi) in gi.chunks_exact_mut(plane).enumerate() {
                let (s, d) = (gate[cc], d_avg[cc] / hw as f32);
                for (dr, gr) in g.rows_mut(gi).zip(g.rows(&go[cc * plane..][..plane])) {
                    for (v, &gv) in dr.iter_mut().zip(gr) {
                        *v = 0.0 + gv * s + d;
                    }
                }
                let am = argmax[cc];
                gi[am / g.w * g.stride() + g.pad + am % g.w] += d_max[cc];
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::tests::{forward, rand};
    use crate::Sequential;

    #[test]
    fn output_is_gated_input() {
        let x = rand(4 * 9, 5);
        let out = forward(&Sequential::new().attention(4, 2, 1), (4, 3, 3), &x);
        // each channel is a scalar multiple of the input channel, gate in (0,1)
        for (x, y) in x.chunks_exact(9).zip(out.chunks_exact(9)) {
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
        let att = ChannelAttention::new(16, 8, 0);
        assert_eq!(att.hidden(), 2);
        let net = Sequential::new().attention(16, 8, 0);
        assert_eq!(net.num_params(), 2 * 16 * 2); // hidden=2 → 2·C·hidden
    }

    #[test]
    fn sigmoid_is_stable_and_bounded() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(100.0) <= 1.0);
        assert!(sigmoid(-100.0) >= 0.0);
        assert!(sigmoid(-100.0) < 1e-20);
    }
}
