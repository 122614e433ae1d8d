//! Inference plans: a [`Sequential`] compiled once for forward-only use.
//!
//! `Sequential::forward` serves training — it takes `&mut self`, caches
//! activations for `backward`, allocates every intermediate tensor and
//! repacks convolution weights on each call because the optimizer keeps
//! moving them. Inference on fixed weights needs none of that. An
//! [`InferencePlan`] validates the layer chain and packs the weights once,
//! is immutable and `Send + Sync` (one plan serves every decode thread),
//! and runs one sample at a time through two ping-pong buffers in a
//! caller-owned [`Workspace`], so steady-state inference allocates nothing.
//!
//! Both paths run the same kernels in the same order, so a plan's output
//! is bit-identical to `Sequential::forward(_, false)` — for any batch
//! size, since no layer mixes samples.
//!
//! One step is merged, not reordered: a `ReLU` that directly follows a
//! full convolution is folded into that convolution's store
//! ([`PackedConv`] keeps the flag), so its activation is written once
//! instead of written and then swept again. The fold applies ReLU's own
//! select, `if v < 0.0 { 0.0 } else { v }`, to each finished sum — the
//! same operation on the same value as the separate pass, NaN and `-0.0`
//! kept — so the plan and `Sequential` still match bit for bit. A `ReLU`
//! after any other layer stays its own step.

use crate::attention::ChannelAttention;
use crate::conv::{self, Kernel, PackedConv};
use crate::layer::relu_in_place;
use crate::sequential::{AnyLayer, Sequential};

/// Widest activation, in channels, a plan accepts. The workspace holds two
/// buffers of that many planes, and a model is untrusted input: a
/// depthwise channel costs it 8 bytes, so without a bound a 130 KB model
/// over a 128×128 slab would ask for 2 GiB. 1 024 is 7× the widest network
/// the writer builds (`paper_3d`, 139).
const MAX_PLAN_CHANNELS: usize = 1024;

enum Step {
    Conv(PackedConv),
    Depthwise {
        k: usize,
        weight: Vec<f32>,
        bias: Vec<f32>,
    },
    Relu,
    Attention(Box<ChannelAttention>),
}

/// A network compiled for inference. See the [module docs](self).
pub struct InferencePlan {
    steps: Vec<Step>,
    in_c: usize,
    out_c: usize,
    /// Widest activation, in channels: sizes the workspace buffers.
    max_c: usize,
    kernel: Kernel,
}

/// Reusable activation buffers for [`InferencePlan::run`]. Empty until a
/// plan first runs with it; afterwards it only grows when a larger plan or
/// plane comes along.
#[derive(Debug, Default)]
pub struct Workspace {
    bufs: [Vec<f32>; 2],
    /// Attention's pooled statistics and gates.
    pooled: Vec<f32>,
    growths: usize,
}

impl Workspace {
    /// Times an activation buffer had to grow since construction: 0 ⇔
    /// never used, stable across runs ⇔ steady-state inference allocates
    /// nothing.
    pub fn growths(&self) -> usize {
        self.growths
    }
}

impl InferencePlan {
    /// Compile `net` for `in_channels` input planes. Fails when the layers
    /// do not chain — each must accept the channel count the previous one
    /// produces — or when an activation is wider than 1 024 channels.
    pub fn compile(net: &Sequential, in_channels: usize) -> Result<Self, String> {
        let mut channels = in_channels;
        let mut max_c = in_channels;
        let mut steps = Vec::with_capacity(net.len());
        for layer in net.layers() {
            if let (AnyLayer::ReLU(_), Some(Step::Conv(p))) = (layer, steps.last_mut()) {
                p.relu = true;
                continue;
            }
            let (step, takes, gives) = match layer {
                AnyLayer::Conv(c) => (Step::Conv(c.packed()), c.in_c, c.out_c),
                AnyLayer::Depthwise(d) => {
                    let (w, b) = d.weights();
                    let step = Step::Depthwise {
                        k: d.k,
                        weight: w.to_vec(),
                        bias: b.to_vec(),
                    };
                    (step, d.c, d.c)
                }
                AnyLayer::ReLU(_) => (Step::Relu, channels, channels),
                AnyLayer::Attention(a) => {
                    let (w1, w2) = a.weights();
                    let gate =
                        ChannelAttention::from_weights(a.c, a.reduction, w1.to_vec(), w2.to_vec())?;
                    (Step::Attention(Box::new(gate)), a.c, a.c)
                }
            };
            if takes != channels {
                return Err(format!(
                    "layer expects {takes} channels, previous layer produces {channels}"
                ));
            }
            channels = gives;
            max_c = max_c.max(gives);
            steps.push(step);
        }
        if max_c > MAX_PLAN_CHANNELS {
            return Err(format!(
                "an activation of {max_c} channels is wider than {MAX_PLAN_CHANNELS}"
            ));
        }
        Ok(InferencePlan {
            steps,
            in_c: in_channels,
            out_c: channels,
            max_c,
            kernel: Kernel::detect(),
        })
    }

    /// Input planes per sample.
    pub fn in_channels(&self) -> usize {
        self.in_c
    }

    /// Output planes per sample.
    pub fn out_channels(&self) -> usize {
        self.out_c
    }

    /// Run one `h × w` sample. `fill` writes the `in_channels` input planes
    /// (it sees stale values: write every element); the returned slice
    /// holds the `out_channels` output planes until the workspace's next
    /// use.
    pub fn run<'w>(
        &self,
        ws: &'w mut Workspace,
        h: usize,
        w: usize,
        fill: impl FnOnce(&mut [f32]),
    ) -> &'w [f32] {
        let hw = h * w;
        for buf in &mut ws.bufs {
            if buf.len() < self.max_c * hw {
                buf.resize(self.max_c * hw, 0.0);
                ws.growths += 1;
            }
        }
        let [cur, next] = &mut ws.bufs;
        let (mut cur, mut next) = (cur, next);
        let mut c = self.in_c;
        fill(&mut cur[..c * hw]);
        for step in &self.steps {
            match step {
                Step::Conv(p) => {
                    let out_c = p.out_channels();
                    p.run(self.kernel, &cur[..c * hw], &mut next[..out_c * hw], h, w);
                    c = out_c;
                    std::mem::swap(&mut cur, &mut next);
                }
                Step::Depthwise { k, weight, bias } => {
                    let (src, dst) = (&cur[..c * hw], &mut next[..c * hw]);
                    conv::depthwise(self.kernel, *k, weight, bias, src, dst, h, w);
                    std::mem::swap(&mut cur, &mut next);
                }
                Step::Relu => relu_in_place(&mut cur[..c * hw]),
                Step::Attention(gate) => gate.gate_in_place(&mut cur[..c * hw], hw, &mut ws.pooled),
            }
        }
        &cur[..c * hw]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use crate::tensor::Tensor;

    fn net(seed: u64) -> Sequential {
        Sequential::new()
            .conv(3, 9, 3, seed)
            .relu()
            .depthwise(9, 3, seed + 1)
            .conv(9, 6, 1, seed + 2)
            .relu()
            .attention(6, 2, seed + 3)
            .conv(6, 2, 3, seed + 4)
    }

    #[test]
    fn plan_matches_sequential_forward_bit_for_bit() {
        let mut net = net(5);
        let plan = InferencePlan::compile(&net, 3).unwrap();
        assert_eq!((plan.in_channels(), plan.out_channels()), (3, 2));
        let (h, w) = (7, 21);
        let mut rng = init::seeded(9);
        let x = Tensor::from_vec(
            2,
            3,
            h,
            w,
            init::kaiming_uniform(&mut rng, 2 * 3 * h * w, 2),
        );
        let want = net.forward(&x, false);
        let mut ws = Workspace::default();
        for b in 0..2 {
            let got = plan.run(&mut ws, h, w, |dst| dst.copy_from_slice(x.sample(b)));
            let same = got
                .iter()
                .zip(want.sample(b))
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "sample {b} differs");
        }
    }

    #[test]
    fn a_relu_after_a_conv_is_folded_and_any_other_stays_a_step() {
        let mut net = Sequential::new()
            .conv(2, 5, 3, 1)
            .relu()
            .depthwise(5, 3, 2)
            .relu()
            .conv(5, 4, 1, 3)
            .relu()
            .attention(4, 2, 4)
            .relu()
            .conv(4, 2, 3, 5);
        let plan = InferencePlan::compile(&net, 2).unwrap();
        let relus = plan.steps.iter().filter(|s| matches!(s, Step::Relu));
        assert_eq!(relus.count(), 2, "after the depthwise and the attention");
        let fused = plan
            .steps
            .iter()
            .filter(|s| matches!(s, Step::Conv(p) if p.relu));
        assert_eq!(fused.count(), 2, "the 3x3 and the 1x1 in front of a ReLU");
        // (non-finite inputs through the folded stores: cfnn_equivalence)
        let (h, w) = (6, 19);
        let x = init::kaiming_uniform(&mut init::seeded(3), 2 * h * w, 2);
        let want = net.forward(&Tensor::from_vec(1, 2, h, w, x.clone()), false);
        let mut ws = Workspace::default();
        let got = plan.run(&mut ws, h, w, |d| d.copy_from_slice(&x));
        let same = got.iter().zip(&want.data);
        assert!(same.clone().all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(same.clone().any(|(a, _)| *a != 0.0), "not all zero");
    }

    #[test]
    fn broken_chain_is_an_error() {
        let err = InferencePlan::compile(&net(1), 4).err().expect("3 != 4");
        assert!(err.contains("expects 3 channels"), "{err}");
        let bad = Sequential::new().conv(2, 4, 3, 0).depthwise(5, 3, 1);
        assert!(InferencePlan::compile(&bad, 2).is_err());
    }

    #[test]
    fn activations_wider_than_the_bound_are_refused() {
        let wide = |c: usize| Sequential::new().depthwise(c, 3, 0);
        let err = InferencePlan::compile(&wide(2048), 2048)
            .err()
            .expect("2 048 channels");
        assert!(err.contains("2048 channels"), "{err}");
        let plan = InferencePlan::compile(&wide(MAX_PLAN_CHANNELS), MAX_PLAN_CHANNELS);
        assert_eq!(plan.map(|p| p.out_channels()).ok(), Some(1024));
    }

    #[test]
    fn plans_are_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<InferencePlan>();
    }

    #[test]
    fn workspace_stops_growing() {
        let plan = InferencePlan::compile(&net(2), 3).unwrap();
        let mut ws = Workspace::default();
        assert_eq!(ws.growths(), 0);
        plan.run(&mut ws, 16, 16, |d| d.fill(0.5));
        assert_eq!(ws.growths(), 2);
        plan.run(&mut ws, 16, 16, |d| d.fill(0.25));
        plan.run(&mut ws, 8, 16, |d| d.fill(0.25));
        assert_eq!(ws.growths(), 2);
    }
}
