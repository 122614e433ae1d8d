//! Inference plans: a [`Sequential`] compiled once for forward-only use.
//!
//! An [`InferencePlan`] validates the layer chain and packs the weights
//! once, is immutable and `Send + Sync` (one plan serves every decode
//! thread), and runs one sample at a time through two ping-pong buffers in
//! a caller-owned [`Workspace`], so steady-state inference allocates
//! nothing. Training runs the same steps on the same layout
//! ([`crate::TrainWorkspace`]), compiling a plan for each batch because
//! the optimizer keeps moving the weights; no layer mixes samples, so a
//! sample's output does not depend on the batch it is in.
//!
//! One step is merged, not reordered: a `ReLU` that directly follows a
//! full convolution is folded into that convolution's store
//! ([`PackedConv`] keeps the flag), so its activation is written once
//! instead of written and then swept again. The fold applies ReLU's own
//! select, `if v < 0.0 { 0.0 } else { v }`, to each finished sum — the
//! same operation on the same value as the separate pass, NaN and `-0.0`
//! kept. A `ReLU` after any other layer stays its own step.
//!
//! # Workspace layout
//!
//! Each of the two buffers holds up to the plan's widest activation in
//! planes of `h` rows, and every row sits between `pad` zero columns on
//! either side: `k / 2` for the plan's widest kernel `k`, but no more than
//! `w - 1`, since a kernel column reaching further from every pixel reads
//! none and is skipped. A row takes `w + 2·pad` values — less than `3·w`
//! — and after the last plane come a strip's worth of values that only the
//! unstored lanes of a row narrower than a strip read. Every convolution
//! strip is then an interior one — a tap past the row's end reads the
//! halo's `+0.0` — so no kernel masks a lane.
//!
//! The halo stays zero because nothing stores into it. The convolutions
//! (and the ReLU folded into them), a standalone ReLU and attention's gate
//! write interior pixels only; attention's pool reads them only, in raster
//! order; [`InferencePlan::run_planes`] hands its `fill` the interior rows
//! and its caller reads the interior rows back. The workspace remembers
//! the layout (`h`, `w`, `pad`) its halos are zero for, and on any other
//! it zeroes both buffers before the plan runs: a halo column of one
//! layout is an interior pixel of another.

use crate::attention::ChannelAttention;
use crate::conv::{self, Grid, Kernel, PackedConv};
use crate::sequential::{AnyLayer, Sequential};

/// Widest activation, in channels, a network may have: the model parser,
/// [`InferencePlan::compile`] and the archive writer's plan check all hold
/// to it. A model is untrusted input, and a workspace holds two buffers of
/// that many haloed planes: a channel costs 8 bytes a pixel and, for the
/// halo, `16 · pad` bytes a row. Without a bound a 130 KB model over a
/// 128×128 slab would ask for 2 GiB. With it the buffers of an `h × w`
/// plane hold at most `8 · 1 024 · h · (w + 2·pad)` bytes and 512 more for
/// the slack, where `pad` is at most 31 (the parser's widest kernel, 63)
/// and at most `w − 1`: 190 MiB on a 128×128 slab with that kernel, and on
/// a 1-wide plane 8 KiB a row, as with no halo at all. 1 024 is 7× the
/// widest net trained, the ablation's paper-parity 139 (the writer trains
/// what its plan names, 24 × 32 by default); 3×3 kernels need a halo of
/// one column.
pub const MAX_CHANNELS: usize = 1024;

/// One step of a compiled network.
pub(crate) enum Step {
    Conv(PackedConv),
    Depthwise {
        k: usize,
        weight: Vec<f32>,
        bias: Vec<f32>,
    },
    Relu,
    Attention(Box<ChannelAttention>),
}

impl Step {
    /// A ReLU or a gate: rewrites its planes rather than filling another
    /// buffer.
    pub(crate) fn in_place(&self) -> bool {
        matches!(self, Step::Relu | Step::Attention(_))
    }

    /// Channels out of the step for `c` in.
    pub(crate) fn out_channels(&self, c: usize) -> usize {
        match self {
            Step::Conv(p) => p.out_channels(),
            _ => c,
        }
    }

    /// Values and positions a sample's statistics take: a gate's.
    pub(crate) fn stats_len(&self) -> (usize, usize) {
        match self {
            Step::Attention(gate) => (gate.stats_len(), gate.c),
            _ => (0, 0),
        }
    }

    /// The step on `c` planes laid out as `g`: in place on `cur`, or from
    /// `cur` into `next`. A gate leaves its statistics in `stats`.
    pub(crate) fn run(
        &self,
        kernel: Kernel,
        cur: &mut [f32],
        next: &mut [f32],
        (c, g): (usize, Grid),
        stats: (&mut [f32], &mut [usize]),
    ) {
        let n = c * g.plane();
        match self {
            Step::Conv(p) => p.run_on(kernel, cur, g, next, g),
            Step::Depthwise { k, weight, bias } => {
                conv::depthwise_on(kernel, *k, weight, bias, cur, g, next, g)
            }
            Step::Relu => g.rows_mut(&mut cur[..n]).for_each(relu_in_place),
            Step::Attention(gate) => gate.gate_in_place(&mut cur[..n], g, stats),
        }
    }
}

/// ReLU in place. A comparison, not `max`: NaN and `-0.0` pass through
/// unchanged. Every element is stored, so the comparison compiles to a
/// select rather than a branch that activations of mixed sign mispredict
/// half the time.
fn relu_in_place(data: &mut [f32]) {
    for v in data {
        *v = if *v < 0.0 { 0.0 } else { *v };
    }
}

/// A network compiled for inference. See the [module docs](self).
pub struct InferencePlan {
    pub(crate) steps: Vec<Step>,
    in_c: usize,
    out_c: usize,
    /// Widest activation, in channels: sizes the workspace buffers.
    pub(crate) max_c: usize,
    /// Widest kernel: sizes the halo.
    pub(crate) k: usize,
    kernel: Kernel,
}

/// Reusable activation buffers for [`InferencePlan::run_planes`] (see the
/// module doc's layout). Empty until a plan first runs with it; afterwards
/// it only grows when a larger plan or plane comes along.
#[derive(Debug, Default)]
pub struct Workspace {
    bufs: [Vec<f32>; 2],
    /// The layout whose halos are zero in `bufs`.
    grid: Option<Grid>,
    /// A gate's statistics.
    stats: Vec<f32>,
    argmax: Vec<usize>,
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

/// `buf` holding at least `len` values with zero halos, emptied first when
/// its planes are to be `fresh`ly laid out; counts a growth in `growths`
/// when it has to reallocate.
pub(crate) fn lay_out<T: Copy + Default>(
    buf: &mut Vec<T>,
    len: usize,
    fresh: bool,
    growths: &mut usize,
) {
    if fresh {
        buf.clear();
    }
    if buf.len() < len {
        *growths += usize::from(len > buf.capacity());
        buf.resize(len, T::default());
    }
}

/// A plan's input planes, as [`InferencePlan::run_planes`] hands them to
/// its `fill`: the interior rows of the haloed layout.
pub struct PlanesMut<'a> {
    pub(crate) data: &'a mut [f32],
    pub(crate) g: Grid,
}

impl PlanesMut<'_> {
    /// The `h` rows of `w` values of input plane `c`, in order. They hold
    /// stale values: write every one.
    pub fn rows_mut(&mut self, c: usize) -> impl Iterator<Item = &mut [f32]> {
        let n = self.g.plane();
        self.g.rows_mut(&mut self.data[c * n..][..n])
    }
}

/// A plan's output planes, as [`InferencePlan::run_planes`] returns them.
pub struct Planes<'a> {
    data: &'a [f32],
    g: Grid,
}

impl<'a> Planes<'a> {
    /// The `h` rows of `w` values of output plane `c`, in order.
    pub fn rows(&self, c: usize) -> impl Iterator<Item = &'a [f32]> {
        let n = self.g.plane();
        self.g.rows(&self.data[c * n..][..n])
    }
}

impl InferencePlan {
    /// Compile `net` for `in_channels` input planes. Fails when the layers
    /// do not chain — each must accept the channel count the previous one
    /// produces — or when an activation is wider than [`MAX_CHANNELS`].
    pub fn compile(net: &Sequential, in_channels: usize) -> Result<Self, String> {
        let mut channels = in_channels;
        let mut max_c = in_channels;
        let mut k = 1;
        let mut steps = Vec::with_capacity(net.len());
        for layer in net.layers() {
            if let (AnyLayer::ReLU, Some(Step::Conv(p))) = (layer, steps.last_mut()) {
                p.relu = true;
                continue;
            }
            let (step, takes, gives) = match layer {
                AnyLayer::Conv(c) => {
                    k = k.max(c.k);
                    (Step::Conv(c.packed()), c.in_c, c.out_c)
                }
                AnyLayer::Depthwise(d) => {
                    let (w, b) = d.weights();
                    let step = Step::Depthwise {
                        k: d.k,
                        weight: w.to_vec(),
                        bias: b.to_vec(),
                    };
                    k = k.max(d.k);
                    (step, d.c, d.c)
                }
                AnyLayer::ReLU => (Step::Relu, channels, channels),
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
        if max_c > MAX_CHANNELS {
            return Err(format!(
                "an activation of {max_c} channels is wider than {MAX_CHANNELS}"
            ));
        }
        Ok(InferencePlan {
            steps,
            in_c: in_channels,
            out_c: channels,
            max_c,
            k,
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

    /// Run one `h × w` sample on the workspace's haloed planes. `fill`
    /// writes the `in_channels` input planes a row at a time (the rows
    /// hold stale values: write every one); the returned planes hold the
    /// `out_channels` outputs until the workspace's next use.
    pub fn run_planes<'w>(
        &self,
        ws: &'w mut Workspace,
        h: usize,
        w: usize,
        fill: impl FnOnce(PlanesMut<'_>),
    ) -> Planes<'w> {
        let g = Grid::new(h, w, self.k);
        let fresh = ws.grid != Some(g);
        for buf in &mut ws.bufs {
            lay_out(buf, g.len(self.max_c), fresh, &mut ws.growths);
        }
        ws.grid = Some(g);
        let (values, positions) = (self.steps.iter().map(Step::stats_len))
            .fold((0, 0), |(v, p), (sv, sp)| (v.max(sv), p.max(sp)));
        ws.stats.resize(ws.stats.len().max(values), 0.0);
        ws.argmax.resize(ws.argmax.len().max(positions), 0);
        Planes {
            data: self.forward(&mut ws.bufs, (&mut ws.stats, &mut ws.argmax), g, fill),
            g,
        }
    }

    /// Every step on buffers laid out as `g`: the input planes written by
    /// `fill`, the output planes returned.
    fn forward<'a>(
        &self,
        bufs: &'a mut [Vec<f32>; 2],
        stats: (&mut [f32], &mut [usize]),
        g: Grid,
        fill: impl FnOnce(PlanesMut<'_>),
    ) -> &'a [f32] {
        let n = g.plane();
        let [cur, next] = bufs;
        let (mut cur, mut next) = (cur, next);
        let mut c = self.in_c;
        fill(PlanesMut {
            data: &mut cur[..c * n],
            g,
        });
        for step in &self.steps {
            step.run(
                self.kernel,
                cur,
                next,
                (c, g),
                (&mut *stats.0, &mut *stats.1),
            );
            c = step.out_channels(c);
            if !step.in_place() {
                std::mem::swap(&mut cur, &mut next);
            }
        }
        let cur: &'a Vec<f32> = cur;
        &cur[..c * n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use crate::train::tests::forward;

    /// `plan` on one sample of dense planes through `run_planes`, its
    /// output planes collected dense.
    fn run_dense(
        plan: &InferencePlan,
        ws: &mut Workspace,
        h: usize,
        w: usize,
        x: &[f32],
    ) -> Vec<f32> {
        let out = plan.run_planes(ws, h, w, |mut planes| {
            for (c, plane) in x.chunks_exact(h * w).enumerate() {
                for (row, from) in planes.rows_mut(c).zip(plane.chunks_exact(w)) {
                    row.copy_from_slice(from);
                }
            }
        });
        let rows = (0..plan.out_channels()).flat_map(|c| out.rows(c));
        rows.flatten().copied().collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

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
    fn plan_matches_the_training_forward_bit_for_bit() {
        let net = net(5);
        let plan = InferencePlan::compile(&net, 3).unwrap();
        assert_eq!((plan.in_channels(), plan.out_channels()), (3, 2));
        let (h, w) = (7, 21);
        let x = init::kaiming_uniform(&mut init::seeded(9), 2 * 3 * h * w, 2);
        let want = forward(&net, (3, h, w), &x);
        let mut ws = Workspace::default();
        for b in 0..2 {
            let got = run_dense(&plan, &mut ws, h, w, &x[b * 3 * h * w..][..3 * h * w]);
            let want = &want[b * 2 * h * w..][..2 * h * w];
            assert_eq!(bits(&got), bits(want), "sample {b}");
        }
    }

    #[test]
    fn a_relu_after_a_conv_is_folded_and_any_other_stays_a_step() {
        let net = Sequential::new()
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
        let want = forward(&net, (2, h, w), &x);
        let mut ws = Workspace::default();
        let got = run_dense(&plan, &mut ws, h, w, &x);
        assert_eq!(bits(&got), bits(&want));
        assert!(got.iter().any(|&v| v != 0.0), "not all zero");
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
        let plan = InferencePlan::compile(&wide(MAX_CHANNELS), MAX_CHANNELS);
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
        run_dense(&plan, &mut ws, 16, 16, &[0.5; 3 * 16 * 16]);
        assert_eq!(ws.growths(), 2);
        run_dense(&plan, &mut ws, 16, 16, &[0.25; 3 * 16 * 16]);
        run_dense(&plan, &mut ws, 8, 16, &[0.25; 3 * 8 * 16]);
        assert_eq!(ws.growths(), 2);
    }

    /// Bytes the workspace holds.
    fn bytes(ws: &Workspace) -> usize {
        let bufs = ws.bufs.iter().chain([&ws.stats]);
        4 * bufs.map(Vec::capacity).sum::<usize>() + 8 * ws.argmax.capacity()
    }

    #[test]
    fn the_widest_kernel_keeps_the_workspace_under_its_bound() {
        // the parser's widest kernel, 63: a halo of 31 columns a side, or
        // `w - 1` on a narrower plane
        let net = Sequential::new()
            .depthwise(2, 63, 1)
            .relu()
            .conv(2, 3, 63, 2);
        let plan = InferencePlan::compile(&net, 2).unwrap();
        assert_eq!((plan.k, plan.max_c), (63, 3));
        // MAX_CHANNELS's arithmetic for `c` channels: two buffers of `c`
        // planes of `h` rows of `w + 2·pad`, and the slack
        let bound = |c: usize, h: usize, w: usize| 8 * c * h * (w + 2 * 31.min(w - 1)) + 512;
        assert_eq!(bound(1024, 128, 128), (190 << 20) + 512);
        assert_eq!(bound(1024, 1, 1), (8 << 10) + 512, "no halo");
        for (h, w) in [(16, 1), (6, 20), (4, 128)] {
            let x = init::kaiming_uniform(&mut init::seeded(4), 2 * h * w, 2);
            let mut ws = Workspace::default();
            let got = run_dense(&plan, &mut ws, h, w, &x);
            assert_eq!(bits(&got), bits(&forward(&net, (2, h, w), &x)));
            let (used, cap) = (bytes(&ws), bound(plan.max_c, h, w));
            assert!(used <= cap, "{h}x{w}: {used} B > {cap} B");
        }
    }
}
