//! Training on the inference plan's steps and planes.
//!
//! A training batch runs the steps an [`InferencePlan`] compiled from the
//! network runs — convolutions with their folded ReLU, depthwise
//! convolutions, attention's gate — on the same zero-haloed layout, one
//! sample at a time in batch order. Unlike inference it keeps every step's
//! input planes for the whole batch, since the backward pass reads them: a
//! ReLU or a gate, which inference runs in place, writes a copy here, and a
//! gate's pooled statistics are kept per sample too. The plan is compiled
//! again for every batch, because the optimizer has moved the weights
//! since the last one.
//!
//! The backward pass walks the steps in reverse and, within a step, the
//! samples in batch order:
//!
//! * a step whose output went through ReLU's select — a folded ReLU or a
//!   ReLU step — first zeroes its output gradient wherever its output is
//!   not `> 0` (see `conv`'s module doc for why that is ReLU's own mask);
//! * a convolution or a gate adds its parameters' gradients from the kept
//!   input planes and the output-gradient planes;
//! * every step but the first then writes the gradient of its input — the
//!   output gradient of the step below — into the other gradient buffer.
//!   The first step's input gradient has no reader and is not computed.
//!
//! A [`TrainWorkspace`] holds all those planes and lives across batches and
//! epochs: after its first batch, training grows none of its buffers.

use crate::conv::{self, Backward, Grid, Kernel};
use crate::optim::ParamSet;
use crate::plan::{lay_out, InferencePlan, PlanesMut, Step};
use crate::sequential::Sequential;

/// The planes a training batch keeps between its forward and backward
/// passes, and between batches. Empty until the first forward.
#[derive(Default)]
pub struct TrainWorkspace {
    /// The batch in flight: its compiled steps, the kernel body they run
    /// on, its size and layout, and every step's input channels followed
    /// by the output's.
    plan: Option<InferencePlan>,
    kernel: Option<Kernel>,
    n: usize,
    grid: Option<Grid>,
    channels: Vec<usize>,
    /// Every step's input planes, then the network's output planes: each
    /// `n` samples of whole planes one after another, and the slack.
    acts: Vec<Vec<f32>>,
    /// The output gradient of the step the backward pass is at, and its
    /// input gradient; laid out as `acts`.
    grads: [Vec<f32>; 2],
    /// The batch's outputs, dense.
    out: Vec<f32>,
    /// Each gate step's statistics for the batch, sample after sample.
    stats: Vec<(Vec<f32>, Vec<usize>)>,
    /// A gate's inner gradients; a weight gradient's pixel-major operands.
    scratch: Vec<f32>,
    operands: [Vec<f32>; 2],
    growths: usize,
}

impl TrainWorkspace {
    /// Times a plane buffer had to grow since construction: stable from
    /// one batch to the next ⇔ training allocates no planes.
    pub fn growths(&self) -> usize {
        self.growths
    }

    /// The forward pass of a batch of `n` samples of `h × w` through `net`
    /// from `in_c` input planes. `fill(b, planes)` writes sample `b`'s
    /// input planes a row at a time (the rows hold stale values: write
    /// every one). Returns the outputs, dense: `[n][out_c][h][w]`.
    ///
    /// Panics when `net` does not chain from `in_c` channels or has an
    /// activation wider than [`crate::MAX_CHANNELS`].
    pub fn forward(
        &mut self,
        net: &Sequential,
        in_c: usize,
        n: usize,
        (h, w): (usize, usize),
        fill: impl FnMut(usize, PlanesMut<'_>),
    ) -> &[f32] {
        self.forward_with(Kernel::detect(), net, in_c, n, (h, w), fill)
    }

    /// [`TrainWorkspace::forward`] on a chosen kernel body, which the
    /// backward pass that follows runs on too; every body computes the
    /// same bits.
    pub fn forward_with(
        &mut self,
        kernel: Kernel,
        net: &Sequential,
        in_c: usize,
        n: usize,
        (h, w): (usize, usize),
        mut fill: impl FnMut(usize, PlanesMut<'_>),
    ) -> &[f32] {
        let plan = InferencePlan::compile(net, in_c).unwrap_or_else(|e| panic!("{e}"));
        let g = Grid::new(h, w, plan.k);
        let steps = &plan.steps;
        self.channels.clear();
        self.channels.push(in_c);
        for step in steps {
            let c = *self.channels.last().expect("the input's");
            self.channels.push(step.out_channels(c));
        }
        let fresh = self.grid != Some(g);
        if self.acts.len() <= steps.len() {
            self.acts.resize_with(steps.len() + 1, Vec::new);
            self.stats.resize_with(steps.len(), Default::default);
        }
        for (s, act) in self.acts.iter_mut().enumerate() {
            let c = self.channels.get(s).copied().unwrap_or(0);
            lay_out(act, g.len(n * c), fresh, &mut self.growths);
        }
        for (step, (values, positions)) in steps.iter().zip(&mut self.stats) {
            let (v, p) = step.stats_len();
            lay_out(values, n * v, false, &mut self.growths);
            lay_out(positions, n * p, false, &mut self.growths);
        }
        for buf in &mut self.grads {
            lay_out(buf, g.len(n * plan.max_c), fresh, &mut self.growths);
        }

        let plane = g.plane();
        for b in 0..n {
            let data = &mut self.acts[0][b * in_c * plane..][..in_c * plane];
            fill(b, PlanesMut { data, g });
        }
        for (s, step) in steps.iter().enumerate() {
            let (c, c_out) = (self.channels[s], self.channels[s + 1]);
            let (kept, rest) = self.acts.split_at_mut(s + 1);
            let (src, dst) = (&mut kept[s], &mut rest[0]);
            let (values, positions) = &mut self.stats[s];
            let (v, p) = step.stats_len();
            for b in 0..n {
                let (x, y) = (&mut src[b * c * plane..], &mut dst[b * c_out * plane..]);
                let stats = (&mut values[b * v..][..v], &mut positions[b * p..][..p]);
                if step.in_place() {
                    // the step's input stays for the backward pass
                    y[..c * plane].copy_from_slice(&x[..c * plane]);
                    step.run(kernel, y, &mut [], (c, g), stats);
                } else {
                    step.run(kernel, x, y, (c, g), stats);
                }
            }
        }

        let c = self.channels[steps.len()];
        let len = n * c * h * w;
        lay_out(&mut self.out, len, false, &mut self.growths);
        let rows = g.rows(&self.acts[steps.len()][..n * c * plane]);
        for (to, row) in self.out.chunks_exact_mut(w.max(1)).zip(rows) {
            to.copy_from_slice(row);
        }
        (self.plan, self.kernel, self.n, self.grid) = (Some(plan), Some(kernel), n, Some(g));
        &self.out[..len]
    }

    /// The backward pass of the batch the last forward ran, from
    /// `grad_out`, the loss gradient of its outputs (dense, as the forward
    /// returned them): adds every parameter's gradient to the accumulators
    /// of `net` — the network that forward ran — through
    /// [`Sequential::params`]. With `grad_in`, also writes the gradient of
    /// the network's input there, dense: training never asks for it, a
    /// differential test does.
    pub fn backward(
        &mut self,
        net: &mut Sequential,
        grad_out: &[f32],
        grad_in: Option<&mut [f32]>,
    ) {
        let (Some(plan), Some(kernel), Some(g)) = (&self.plan, self.kernel, self.grid) else {
            panic!("backward before forward");
        };
        let (n, plane, chans) = (self.n, g.plane(), &self.channels);
        let [go, gi] = &mut self.grads;
        let (mut go, mut gi) = (go, gi);
        let c_out = chans[plan.steps.len()];
        assert_eq!(grad_out.len(), n * c_out * g.h * g.w, "gradient shape");
        let rows = g.rows_mut(&mut go[..n * c_out * plane]);
        for (row, from) in rows.zip(grad_out.chunks_exact(g.w.max(1))) {
            row.copy_from_slice(from);
        }
        let mut params = net.params();
        for (s, step) in plan.steps.iter().enumerate().rev() {
            let out = &self.acts[s + 1][..n * chans[s + 1] * plane];
            if matches!(step, Step::Relu) || matches!(step, Step::Conv(p) if p.relu) {
                for (v, &o) in go.iter_mut().zip(out) {
                    *v = if o > 0.0 { *v } else { 0.0 };
                }
            }
            let b = Backward {
                kernel,
                g,
                n,
                x: &self.acts[s],
                go: &mut go[..],
                gi: (s > 0 || grad_in.is_some()).then_some(&mut gi[..]),
                operands: &mut self.operands,
            };
            match step {
                Step::Relu => continue, // the masked gradient is the input's
                Step::Conv(p) => {
                    let [w, bias] = last_pair(&mut params);
                    conv::conv_backward(b, p, w.values, w.grads, bias.grads)
                }
                Step::Depthwise { k, weight, .. } => {
                    let [w, bias] = last_pair(&mut params);
                    conv::depthwise_backward(b, *k, weight, w.grads, bias.grads)
                }
                Step::Attention(gate) => {
                    let [w1, w2] = last_pair(&mut params);
                    let (values, positions) = &self.stats[s];
                    let stats = (&values[..], &positions[..]);
                    gate.backward(b, stats, &mut self.scratch, w1.grads, w2.grads)
                }
            }
            std::mem::swap(&mut go, &mut gi);
        }
        if let Some(grad_in) = grad_in {
            assert_eq!(
                grad_in.len(),
                n * chans[0] * g.h * g.w,
                "input gradient shape"
            );
            let rows = g.rows(&go[..n * chans[0] * plane]);
            for (to, row) in grad_in.chunks_exact_mut(g.w.max(1)).zip(rows) {
                to.copy_from_slice(row);
            }
        }
    }
}

/// The last two parameter blocks of `params`, taken off it: the blocks of
/// the last learnable layer left.
fn last_pair<'a>(params: &mut Vec<ParamSet<'a>>) -> [ParamSet<'a>; 2] {
    let second = params.pop().expect("a learnable step's blocks");
    let first = params.pop().expect("a learnable step's blocks");
    [first, second]
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::init;
    use crate::loss::mse_loss;
    use crate::optim::Adam;

    /// `n` uniform values in `[-1.2, 1.2)`, seeded.
    pub(crate) fn rand(n: usize, seed: u64) -> Vec<f32> {
        init::kaiming_uniform(&mut init::seeded(seed), n, 4)
    }

    /// `net`'s training forward over `x`, dense samples of `in_c` planes of
    /// `h × w`, on `ws`: the outputs, dense.
    pub(crate) fn forward_on(
        ws: &mut TrainWorkspace,
        net: &Sequential,
        (in_c, h, w): (usize, usize, usize),
        x: &[f32],
    ) -> Vec<f32> {
        let n = x.len() / (in_c * h * w);
        let out = ws.forward(net, in_c, n, (h, w), |b, mut planes| {
            let sample = &x[b * in_c * h * w..][..in_c * h * w];
            for (c, plane) in sample.chunks_exact(h * w).enumerate() {
                for (row, from) in planes.rows_mut(c).zip(plane.chunks_exact(w)) {
                    row.copy_from_slice(from);
                }
            }
        });
        out.to_vec()
    }

    /// [`forward_on`] a workspace of its own.
    pub(crate) fn forward(net: &Sequential, dims: (usize, usize, usize), x: &[f32]) -> Vec<f32> {
        forward_on(&mut TrainWorkspace::default(), net, dims, x)
    }

    fn loss(net: &Sequential, dims: (usize, usize, usize), x: &[f32], target: &[f32]) -> f32 {
        let out = forward(net, dims, x);
        mse_loss(&out, target, &mut vec![0.0; out.len()])
    }

    /// Finite-difference check of a spread of every parameter block's
    /// gradients and, with `inputs`, of the input gradient at those of the
    /// `x` positions it keeps.
    fn grad_check(
        net: &mut Sequential,
        dims: (usize, usize, usize),
        (x, target): (&[f32], &[f32]),
        tol: f32,
        inputs: Option<&dyn Fn(usize) -> bool>,
    ) {
        let mut ws = TrainWorkspace::default();
        let out = forward_on(&mut ws, net, dims, x);
        let mut grad = vec![0.0; out.len()];
        mse_loss(&out, target, &mut grad);
        let mut grad_in = vec![f32::NAN; x.len()];
        net.zero_grad();
        ws.backward(net, &grad, Some(&mut grad_in));

        let eps = 1e-3f32;
        let close = |a: f32, numeric: f32| (a - numeric).abs() < tol * (1.0 + numeric.abs());
        let analytic: Vec<Vec<f32>> = net.params().iter().map(|p| p.grads.to_vec()).collect();
        for (pi, block) in analytic.iter().enumerate() {
            for wi in (0..block.len()).step_by(block.len().div_ceil(12).max(1)) {
                let orig = net.params()[pi].values[wi];
                net.params()[pi].values[wi] = orig + eps;
                let lp = loss(net, dims, x, target);
                net.params()[pi].values[wi] = orig - eps;
                let lm = loss(net, dims, x, target);
                net.params()[pi].values[wi] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let a = block[wi];
                assert!(
                    close(a, numeric),
                    "param[{pi}][{wi}]: analytic {a} vs numeric {numeric}"
                );
            }
        }
        let Some(keep) = inputs else {
            return;
        };
        let mut x = x.to_vec();
        for xi in (0..x.len())
            .step_by(x.len().div_ceil(10).max(1))
            .filter(|&i| keep(i))
        {
            let orig = x[xi];
            x[xi] = orig + eps;
            let lp = loss(net, dims, &x, target);
            x[xi] = orig - eps;
            let lm = loss(net, dims, &x, target);
            x[xi] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let a = grad_in[xi];
            assert!(
                close(a, numeric),
                "input[{xi}]: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn conv_gradients_match_finite_differences() {
        let mut net = Sequential::new().conv(2, 3, 3, 7);
        let (x, target) = (rand(2 * 2 * 25, 11), rand(2 * 3 * 25, 13));
        grad_check(&mut net, (2, 5, 5), (&x, &target), 2e-2, Some(&|_| true));
    }

    #[test]
    fn pointwise_conv_gradients() {
        let mut net = Sequential::new().conv(4, 2, 1, 5);
        let (x, target) = (rand(4 * 16, 17), rand(2 * 16, 19));
        grad_check(&mut net, (4, 4, 4), (&x, &target), 2e-2, Some(&|_| true));
    }

    #[test]
    fn depthwise_gradients_match_finite_differences() {
        let mut net = Sequential::new().depthwise(3, 3, 9);
        let (x, target) = (rand(2 * 3 * 16, 23), rand(2 * 3 * 16, 29));
        grad_check(&mut net, (3, 4, 4), (&x, &target), 2e-2, Some(&|_| true));
    }

    #[test]
    fn attention_gradients_match_finite_differences() {
        let mut net = Sequential::new().attention(4, 2, 3);
        let (x, target) = (rand(2 * 4 * 9, 7), rand(2 * 4 * 9, 9));
        // a plane's maximum is a kink of the max pool: one-sided there
        let is_max = |i: usize| {
            let plane = &x[i / 9 * 9..][..9];
            plane.iter().all(|&v| v <= x[i])
        };
        let keep = |i: usize| !is_max(i);
        grad_check(&mut net, (4, 3, 3), (&x, &target), 5e-2, Some(&keep));
    }

    #[test]
    fn whole_stack_gradcheck() {
        // end to end through a folded ReLU, a ReLU step and the gate
        let mut net = Sequential::new()
            .conv(1, 4, 3, 2)
            .relu()
            .depthwise(4, 3, 6)
            .relu()
            .attention(4, 2, 7)
            .conv(4, 1, 3, 3);
        let (x, target) = (rand(25, 4), rand(25, 5));
        grad_check(&mut net, (1, 5, 5), (&x, &target), 2e-2, None);
    }

    #[test]
    fn a_relu_step_masks_the_gradient_where_its_output_is_not_positive() {
        let mut net = Sequential::new().relu();
        let mut ws = TrainWorkspace::default();
        let out = forward_on(&mut ws, &net, (1, 1, 5), &[-1.0, 0.5, 2.0, -0.0, f32::NAN]);
        assert_eq!(out[..4], [0.0, 0.5, 2.0, 0.0]);
        assert!(
            out[3].is_sign_negative() && out[4].is_nan(),
            "ReLU's select"
        );
        let mut grad_in = [f32::NAN; 5];
        ws.backward(&mut net, &[1.0; 5], Some(&mut grad_in));
        assert_eq!(grad_in, [0.0, 1.0, 1.0, 0.0, 0.0]);
        assert_eq!(net.num_params(), 0);
    }

    #[test]
    fn training_reduces_loss_on_learnable_task() {
        // target = 3×3 box mean of channel 0 — a conv net must fit this
        let (n, h, w) = (4, 8, 8);
        let x = rand(n * 2 * h * w, 3);
        let mut target = vec![0.0; n * h * w];
        for b in 0..n {
            for y in 0..h {
                for xx in 0..w {
                    let (mut acc, mut cnt) = (0.0, 0.0);
                    for yy in y.saturating_sub(1)..(y + 2).min(h) {
                        for xs in xx.saturating_sub(1)..(xx + 2).min(w) {
                            acc += x[(b * 2 * h + yy) * w + xs];
                            cnt += 1.0;
                        }
                    }
                    target[(b * h + y) * w + xx] = acc / cnt;
                }
            }
        }
        let mut net = Sequential::new()
            .conv(2, 8, 3, 5)
            .relu()
            .depthwise(8, 3, 6)
            .conv(8, 8, 1, 7)
            .relu()
            .attention(8, 4, 8)
            .conv(8, 1, 3, 9);
        let mut opt = Adam::new(1e-2);
        let (mut ws, mut grad) = (TrainWorkspace::default(), vec![0.0; target.len()]);
        let mut losses = Vec::new();
        for _ in 0..60 {
            net.zero_grad();
            let out = forward_on(&mut ws, &net, (2, h, w), &x);
            losses.push(mse_loss(&out, &target, &mut grad));
            ws.backward(&mut net, &grad, None);
            opt.step(&mut net.params());
        }
        let (first, last) = (losses[0], losses[losses.len() - 1]);
        assert!(last < first * 0.3, "loss did not drop: {first} → {last}");
    }

    #[test]
    fn a_batch_is_its_samples_one_by_one() {
        // the outputs and every accumulated gradient, bit for bit: a batch
        // of three against three batches of one in the same order
        let mk = || {
            Sequential::new()
                .conv(2, 6, 3, 1)
                .relu()
                .depthwise(6, 3, 2)
                .conv(6, 4, 1, 3)
                .relu()
                .attention(4, 2, 4)
                .conv(4, 2, 3, 5)
        };
        let (n, dims) = (3, (2, 6, 7));
        let (x, go) = (rand(n * 2 * 42, 1), rand(n * 2 * 42, 2));
        let (mut whole, mut single) = (mk(), mk());
        let mut ws = TrainWorkspace::default();
        let out = forward_on(&mut ws, &whole, dims, &x);
        ws.backward(&mut whole, &go, None);
        for b in 0..n {
            let got = forward_on(&mut ws, &single, dims, &x[b * 84..][..84]);
            assert_eq!(got, out[b * 84..][..84]);
            ws.backward(&mut single, &go[b * 84..][..84], None);
        }
        for (a, b) in whole.params().iter().zip(single.params()) {
            let bits = |g: &[f32]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a.grads), bits(b.grads));
        }
    }
}
