//! Differential bit-exactness suite for CFNN inference and training.
//!
//! CFNN predictions are computed on both sides of the codec, so archives on
//! disk decode within their error bound only as long as inference keeps
//! producing the bits it produced when they were written; and the model is
//! trained at compression time and written into the archive, so the same
//! data must keep training to the same bytes. This file holds the oracle —
//! the tap-major convolution loops (forward, weight, bias and input
//! gradient), ReLU, channel attention and input/output marshalling exactly
//! as they stood before the register-tiled kernels and inference plans
//! replaced them — and compares everything that runs today against it with
//! `to_bits()`:
//!
//! * every [`Kernel`] the host offers (the portable body too, on an AVX2
//!   host), one convolution at a time through the training forward
//!   ([`TrainWorkspace::forward_with`]), over kernel sizes, plane shapes on both sides of every strip
//!   threshold, channel counts that do not divide the tile, zero weights
//!   and non-finite inputs;
//! * the halo reads of the border strips: weights only on the kernel's
//!   border taps, over row widths around every strip width and kernels
//!   wider than the row, with NaN and infinities in the inputs those taps
//!   overhang;
//!
//! all of it inside the kernels' precondition — finite weights, no `-0.0`
//! bias — which `Sequential::try_deserialize` enforces on every model it
//! parses (a model outside it is refused there, not run here);
//! * the same kernels' backward passes through
//!   [`TrainWorkspace::backward`] — `grad_w`, `grad_b` and `grad_in` of
//!   full and depthwise convolutions — over the same axes, batch 1 and 4,
//!   accumulated over two calls, with `-0.0`, NaN and infinities in the
//!   output gradient;
//! * [`InferencePlan`] and the training forward
//!   ([`TrainWorkspace::forward`]) on the paper's networks — the
//!   proportional specs and every width Table III ships — batch 1 against
//!   batch 4, up to the benchmark's 128×128 slice and a 130-pixel row (both
//!   fold each ReLU that follows a convolution into that convolution's
//!   store), and one workspace across plane widths, where a stale or
//!   written halo would show;
//! * `predict_differences` on 2-D fields and on a partial last block, at a
//!   wide and a narrow width.
//!
//! NaN *payloads* are outside the contract: where two different NaNs meet
//! in an add, IEEE 754 lets either through and compilers are free to
//! commute the operands. Whether a value is NaN is inside it.

use cross_field_compression::core::config::{paper_table3, CfnnSpec};
use cross_field_compression::core::diffnet::{build_cfnn, fit_normalizers};
use cross_field_compression::core::predict::predict_differences;
use cross_field_compression::core::train::{TrainReport, TrainedCfnn};
use cross_field_compression::datagen::catalog;
use cross_field_compression::nn::attention::sigmoid;
use cross_field_compression::nn::{
    AnyLayer, InferencePlan, Kernel, PlanesMut, Sequential, TrainWorkspace, Workspace,
};
use cross_field_compression::tensor::{diff, Field, Shape};

// ---- the oracle -----------------------------------------------------------

/// A batch of `n` samples of `c` planes of `h × w`, dense.
struct Batch {
    data: Vec<f32>,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
}

impl Batch {
    fn zeros(n: usize, c: usize, h: usize, w: usize) -> Self {
        Batch {
            data: vec![0.0; n * c * h * w],
            n,
            c,
            h,
            w,
        }
    }

    fn plane(&self, b: usize, c: usize) -> &[f32] {
        let hw = self.h * self.w;
        &self.data[(b * self.c + c) * hw..][..hw]
    }
}

/// Full convolution of one sample, one whole-plane sweep per kernel tap.
#[allow(clippy::too_many_arguments)]
fn reference_conv(
    weight: &[f32], // [out_c][in_c][k][k]
    bias: &[f32],
    in_c: usize,
    k: usize,
    src: &[f32],
    dst: &mut [f32],
    h: usize,
    w: usize,
) {
    let (hw, kk, pad) = (h * w, k * k, k / 2);
    for (oc, dst) in dst.chunks_exact_mut(hw).enumerate() {
        dst.fill(bias[oc]);
        for ic in 0..in_c {
            let src = &src[ic * hw..(ic + 1) * hw];
            let kernel = &weight[(oc * in_c + ic) * kk..][..kk];
            reference_taps(kernel, k, pad, src, dst, h, w, true);
        }
    }
}

/// Depthwise convolution of one sample: zero weights are *not* skipped.
fn reference_depthwise(
    weight: &[f32], // [c][k][k]
    bias: &[f32],
    k: usize,
    src: &[f32],
    dst: &mut [f32],
    h: usize,
    w: usize,
) {
    let (hw, kk, pad) = (h * w, k * k, k / 2);
    for (c, dst) in dst.chunks_exact_mut(hw).enumerate() {
        dst.fill(bias[c]);
        let src = &src[c * hw..(c + 1) * hw];
        reference_taps(&weight[c * kk..][..kk], k, pad, src, dst, h, w, false);
    }
}

#[allow(clippy::too_many_arguments)]
fn reference_taps(
    kernel: &[f32],
    k: usize,
    pad: usize,
    src: &[f32],
    dst: &mut [f32],
    h: usize,
    w: usize,
    skip_zero: bool,
) {
    for ky in 0..k {
        let dy = ky as isize - pad as isize;
        for kx in 0..k {
            let dx = kx as isize - pad as isize;
            let kv = kernel[ky * k + kx];
            if skip_zero && kv == 0.0 {
                continue;
            }
            // valid output rows/columns for this tap
            let y0 = (-dy).max(0) as usize;
            let y1 = (h as isize - dy).clamp(0, h as isize) as usize;
            let x0 = (-dx).max(0) as usize;
            let x1 = (w as isize - dx).clamp(0, w as isize) as usize;
            for y in y0..y1 {
                let sy = (y as isize + dy) as usize;
                for x in x0..x1 {
                    let sx = (x as isize + dx) as usize;
                    dst[y * w + x] += kv * src[sy * w + sx];
                }
            }
        }
    }
}

/// One weight's chain for one sample, as `Conv2d::backward` and
/// `DepthwiseConv2d::backward` ran it: the products of `go` with `src`
/// shifted by the tap's offset, summed over the plane in raster order.
/// (The ranges are clamped as in [`reference_taps`]; the layers' own loops
/// were not, and indexed out of bounds on a plane narrower than `k / 2`.)
fn reference_weight_chain(
    go: &[f32],
    src: &[f32],
    h: usize,
    w: usize,
    dy: isize,
    dx: isize,
) -> f32 {
    let y0 = (-dy).max(0) as usize;
    let y1 = (h as isize - dy).clamp(0, h as isize) as usize;
    let x0 = (-dx).max(0) as usize;
    let x1 = (w as isize - dx).clamp(0, w as isize) as usize;
    let mut acc = 0.0f32;
    for y in y0..y1 {
        let sy = (y as isize + dy) as usize;
        for x in x0..x1 {
            let sx = (x as isize + dx) as usize;
            acc += go[y * w + x] * src[sy * w + sx];
        }
    }
    acc
}

/// One tap's sweep over an input-gradient plane: `gi[iy][ix] += kv *
/// go[iy - dy][ix - dx]` wherever the output pixel exists.
fn reference_input_tap(
    gi: &mut [f32],
    go: &[f32],
    kv: f32,
    h: usize,
    w: usize,
    dy: isize,
    dx: isize,
) {
    let y0 = dy.max(0) as usize;
    let y1 = (h as isize + dy).clamp(0, h as isize) as usize;
    let x0 = dx.max(0) as usize;
    let x1 = (w as isize + dx).clamp(0, w as isize) as usize;
    for iy in y0..y1 {
        let oy = (iy as isize - dy) as usize;
        for ix in x0..x1 {
            let ox = (ix as isize - dx) as usize;
            gi[iy * w + ix] += kv * go[oy * w + ox];
        }
    }
}

/// Bias gradient of either convolution: each output-gradient plane summed
/// front to back, sample after sample.
fn reference_grad_b(grad_b: &mut [f32], grad_out: &Batch) {
    for b in 0..grad_out.n {
        for (oc, gb) in grad_b.iter_mut().enumerate() {
            *gb += grad_out.plane(b, oc).iter().sum::<f32>();
        }
    }
}

/// Weight gradient (`[out_c][in_c][k][k]`) of a full convolution.
fn reference_grad_w(grad_w: &mut [f32], k: usize, input: &Batch, grad_out: &Batch) {
    let (n, in_c, h, w) = (input.n, input.c, input.h, input.w);
    let (kk, pad) = (k * k, k / 2);
    for (oc, gw) in grad_w.chunks_exact_mut(in_c * kk).enumerate() {
        for b in 0..n {
            let go = grad_out.plane(b, oc);
            for ic in 0..in_c {
                let src = input.plane(b, ic);
                for ky in 0..k {
                    let dy = ky as isize - pad as isize;
                    for kx in 0..k {
                        let dx = kx as isize - pad as isize;
                        gw[ic * kk + ky * k + kx] += reference_weight_chain(go, src, h, w, dy, dx);
                    }
                }
            }
        }
    }
}

/// Input gradient of a full convolution: zero weights are skipped.
fn reference_grad_in(weight: &[f32], in_c: usize, k: usize, grad_out: &Batch) -> Batch {
    let (n, out_c, h, w) = (grad_out.n, grad_out.c, grad_out.h, grad_out.w);
    let (kk, pad) = (k * k, k / 2);
    let mut grad_in = Batch::zeros(n, in_c, h, w);
    for (plane, gi) in grad_in.data.chunks_exact_mut(h * w).enumerate() {
        let (b, ic) = (plane / in_c, plane % in_c);
        for oc in 0..out_c {
            let go = grad_out.plane(b, oc);
            let kernel = &weight[(oc * in_c + ic) * kk..][..kk];
            for ky in 0..k {
                let dy = ky as isize - pad as isize;
                for kx in 0..k {
                    let dx = kx as isize - pad as isize;
                    let kv = kernel[ky * k + kx];
                    if kv == 0.0 {
                        continue;
                    }
                    reference_input_tap(gi, go, kv, h, w, dy, dx);
                }
            }
        }
    }
    grad_in
}

/// Weight gradient (`[c][k][k]`) of a depthwise convolution.
fn reference_depthwise_grad_w(grad_w: &mut [f32], k: usize, input: &Batch, grad_out: &Batch) {
    let (n, h, w) = (input.n, input.h, input.w);
    let pad = k / 2;
    for (c, gw) in grad_w.chunks_exact_mut(k * k).enumerate() {
        for b in 0..n {
            let (go, src) = (grad_out.plane(b, c), input.plane(b, c));
            for ky in 0..k {
                let dy = ky as isize - pad as isize;
                for kx in 0..k {
                    let dx = kx as isize - pad as isize;
                    gw[ky * k + kx] += reference_weight_chain(go, src, h, w, dy, dx);
                }
            }
        }
    }
}

/// Input gradient of a depthwise convolution: zero weights are *not*
/// skipped.
fn reference_depthwise_grad_in(weight: &[f32], k: usize, grad_out: &Batch) -> Batch {
    let (n, c, h, w) = (grad_out.n, grad_out.c, grad_out.h, grad_out.w);
    let (kk, pad) = (k * k, k / 2);
    let mut grad_in = Batch::zeros(n, c, h, w);
    for (plane, gi) in grad_in.data.chunks_exact_mut(h * w).enumerate() {
        let go = grad_out.plane(plane / c, plane % c);
        let kernel = &weight[(plane % c) * kk..][..kk];
        for ky in 0..k {
            let dy = ky as isize - pad as isize;
            for kx in 0..k {
                let dx = kx as isize - pad as isize;
                reference_input_tap(gi, go, kernel[ky * k + kx], h, w, dy, dx);
            }
        }
    }
    grad_in
}

fn reference_relu(data: &mut [f32]) {
    for v in data {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// CBAM channel attention of one sample, in place.
fn reference_attention(w1: &[f32], w2: &[f32], c: usize, sample: &mut [f32], hw: usize) {
    let hidden = w1.len() / c;
    let (mut avg, mut mx) = (vec![0.0f32; c], vec![f32::NEG_INFINITY; c]);
    for (cc, plane) in sample.chunks_exact(hw).enumerate() {
        let mut sum = 0.0f32;
        for &v in plane {
            sum += v;
            if v > mx[cc] {
                mx[cc] = v;
            }
        }
        avg[cc] = sum / hw as f32;
    }
    let mlp = |x: &[f32]| -> Vec<f32> {
        let pre: Vec<f32> = (0..hidden)
            .map(|hh| {
                let row = &w1[hh * c..(hh + 1) * c];
                row.iter().zip(x).map(|(&w, &v)| w * v).sum()
            })
            .collect();
        (0..c)
            .map(|cc| {
                let row = &w2[cc * hidden..(cc + 1) * hidden];
                row.iter().zip(&pre).map(|(&w, &h)| w * h.max(0.0)).sum()
            })
            .collect()
    };
    let (za, zm) = (mlp(&avg), mlp(&mx));
    for (cc, plane) in sample.chunks_exact_mut(hw).enumerate() {
        let s = sigmoid(za[cc] + zm[cc]);
        for v in plane {
            *v *= s;
        }
    }
}

/// One sample through `net`, layer by layer, on the oracle loops.
fn reference_forward(net: &Sequential, input: &[f32], h: usize, w: usize) -> Vec<f32> {
    let hw = h * w;
    let mut x = input.to_vec();
    for layer in net.layers() {
        match layer {
            AnyLayer::Conv(c) => {
                let (wt, b) = c.weights();
                let mut y = vec![0.0; c.out_c * hw];
                reference_conv(wt, b, c.in_c, c.k, &x, &mut y, h, w);
                x = y;
            }
            AnyLayer::Depthwise(d) => {
                let (wt, b) = d.weights();
                let mut y = vec![0.0; d.c * hw];
                reference_depthwise(wt, b, d.k, &x, &mut y, h, w);
                x = y;
            }
            AnyLayer::ReLU => reference_relu(&mut x),
            AnyLayer::Attention(a) => {
                let (w1, w2) = a.weights();
                reference_attention(w1, w2, a.c, &mut x, hw);
            }
        }
    }
    x
}

// ---- helpers --------------------------------------------------------------

struct Lcg(u64);

impl Lcg {
    /// Uniform in `[-1, 1)`.
    fn next(&mut self) -> f32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }

    fn vec(&mut self, n: usize, scale: f32) -> Vec<f32> {
        (0..n).map(|_| self.next() * scale).collect()
    }
}

fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

#[track_caller]
fn assert_same(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    if let Some(i) = (0..got.len()).find(|&i| !same(got[i], want[i])) {
        panic!(
            "{what}: element {i} is {:?} ({:#010x}), reference {:?} ({:#010x})",
            got[i],
            got[i].to_bits(),
            want[i],
            want[i].to_bits()
        );
    }
}

/// Sprinkle the values a fast path is most likely to get wrong.
fn poison(data: &mut [f32], rng: &mut Lcg) {
    let specials = [
        -0.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        f32::MIN_POSITIVE / 2.0,
    ];
    for (i, &s) in specials.iter().enumerate() {
        let at = ((rng.next() + 1.0) * 0.5 * data.len() as f32) as usize % data.len();
        data[(at + i) % data.len()] = s;
    }
}

/// A one-layer network: `layer` with its parameter blocks set to `blocks`.
fn one_layer(layer: Sequential, blocks: [&[f32]; 2]) -> Sequential {
    let mut net = layer;
    for (p, b) in net.params().into_iter().zip(blocks) {
        p.values.copy_from_slice(b);
    }
    net
}

/// `net`'s training forward on `kernel` over `x`, dense samples of `in_c`
/// planes of `h × w`; the outputs, dense.
fn forward(
    ws: &mut TrainWorkspace,
    kernel: Kernel,
    net: &Sequential,
    (in_c, h, w): (usize, usize, usize),
    x: &[f32],
) -> Vec<f32> {
    let n = x.len() / (in_c * h * w);
    let fill = |b: usize, mut planes: PlanesMut<'_>| {
        let sample = &x[b * in_c * h * w..][..in_c * h * w];
        for (c, plane) in sample.chunks_exact(h * w).enumerate() {
            for (row, from) in planes.rows_mut(c).zip(plane.chunks_exact(w)) {
                row.copy_from_slice(from);
            }
        }
    };
    ws.forward_with(kernel, net, in_c, n, (h, w), fill).to_vec()
}

/// Every kernel variant against the oracle on one full convolution.
fn check_conv(in_c: usize, out_c: usize, k: usize, h: usize, w: usize, zeros: bool, special: bool) {
    let mut rng = Lcg((in_c * 31 + out_c * 17 + k * 7 + h * 3 + w) as u64);
    let mut weight = rng.vec(out_c * in_c * k * k, 0.4);
    let bias = rng.vec(out_c, 0.2);
    if zeros {
        for (i, v) in weight.iter_mut().enumerate() {
            match i % 5 {
                0 => *v = 0.0,
                3 => *v = -0.0,
                _ => {}
            }
        }
    }
    let mut src = rng.vec(in_c * h * w, 1.0);
    if special {
        poison(&mut src, &mut rng);
    }
    let mut want = vec![0.0; out_c * h * w];
    reference_conv(&weight, &bias, in_c, k, &src, &mut want, h, w);
    let net = one_layer(Sequential::new().conv(in_c, out_c, k, 0), [&weight, &bias]);
    let mut ws = TrainWorkspace::default();
    for kernel in Kernel::available() {
        let got = forward(&mut ws, kernel, &net, (in_c, h, w), &src);
        let what = format!(
            "{} conv {in_c}->{out_c} k{k} {h}x{w} zeros={zeros} special={special}",
            kernel.name()
        );
        assert_same(&got, &want, &what);
    }
}

fn check_depthwise(c: usize, k: usize, h: usize, w: usize, special: bool) {
    let mut rng = Lcg((c * 13 + k * 5 + h * 3 + w) as u64);
    let mut weight = rng.vec(c * k * k, 0.4);
    // depthwise multiplies zero weights through: 0·inf must come out NaN
    // (the non-finite inputs), from a zero bias too
    weight[0] = 0.0;
    weight[k * k - 1] = -0.0;
    let mut bias = rng.vec(c, 0.2);
    bias[0] = 0.0;
    let mut src = rng.vec(c * h * w, 1.0);
    if special {
        poison(&mut src, &mut rng);
    }
    let mut want = vec![0.0; c * h * w];
    reference_depthwise(&weight, &bias, k, &src, &mut want, h, w);
    let net = one_layer(Sequential::new().depthwise(c, k, 0), [&weight, &bias]);
    let mut ws = TrainWorkspace::default();
    for kernel in Kernel::available() {
        let got = forward(&mut ws, kernel, &net, (c, h, w), &src);
        let what = format!(
            "{} depthwise {c} k{k} {h}x{w} special={special}",
            kernel.name()
        );
        assert_same(&got, &want, &what);
    }
}

/// Both sides of every strip width of every body (8, 16, 32, 64): whole
/// strips, the overlapping last strip, the scalar border, no strip at all.
const EXTENTS: [usize; 14] = [1, 2, 3, 7, 12, 17, 24, 31, 32, 33, 63, 64, 65, 128];
const CHANNELS: [usize; 4] = [3, 9, 24, 33];

// ---- kernels against the oracle -------------------------------------------

#[test]
fn the_host_offers_the_portable_kernel_first() {
    let kernels = Kernel::available();
    let names: Vec<&str> = kernels.iter().map(|k| k.name()).collect();
    // every matrix below runs per `available()` entry: this line in a log
    // says whether the 256- and 512-bit bodies were among them
    println!("kernels exercised: {}", names.join(", "));
    assert_eq!(kernels[0], Kernel::PORTABLE);
    assert_eq!(*kernels.last().unwrap(), Kernel::detect());
    // portable, then every body the CPU reports, each exactly once (the
    // 512-bit body leans on the AVX2 weight-gradient tiles)
    #[allow(unused_mut)]
    let mut want = vec!["portable"];
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        want.push("avx2");
        if std::arch::is_x86_feature_detected!("avx512f") {
            want.push("avx512");
        }
    }
    assert_eq!(names, want);
}

#[test]
fn conv_matches_reference_on_every_plane_shape() {
    // both strip widths, the overlapping last strip, the scalar border and
    // planes too narrow or too short for any strip
    for k in [1, 3, 5] {
        for h in EXTENTS {
            for w in EXTENTS {
                check_conv(3, 5, k, h, w, false, false);
            }
        }
    }
}

#[test]
fn conv_matches_reference_on_channel_counts_off_the_tile() {
    for k in [1, 3] {
        for in_c in CHANNELS {
            for out_c in CHANNELS {
                check_conv(in_c, out_c, k, 5, 21, false, false);
            }
        }
    }
    for out_c in [1, 2, 4, 6, 7] {
        check_conv(2, out_c, 5, 6, 13, false, false);
    }
    // the benchmark's three convolutions, at its plane width
    for (in_c, out_c, k) in [(9, 24, 3), (24, 32, 1), (32, 3, 3)] {
        check_conv(in_c, out_c, k, 3, 128, false, false);
    }
}

#[test]
fn conv_skips_zero_weights_and_keeps_special_values() {
    for k in [1, 3, 5] {
        for (h, w) in [(1, 1), (3, 7), (7, 12), (4, 24), (5, 33), (2, 128)] {
            for (zeros, special) in [(true, false), (false, true), (true, true)] {
                check_conv(3, 9, k, h, w, zeros, special);
                check_conv(9, 3, k, h, w, zeros, special);
            }
        }
    }
}

#[test]
fn depthwise_matches_reference() {
    for k in [1, 3, 5] {
        for h in [1, 2, 7, 17] {
            for w in EXTENTS {
                check_depthwise(3, k, h, w, w % 2 == 1);
            }
        }
        check_depthwise(24, k, 12, 12, false);
        check_depthwise(33, k, 3, 33, true);
    }
}

/// Row widths on both sides of every strip width (16, 32, 64) and of the
/// 12-pixel training row, around the 128-pixel plane, and 3, where a 9×9
/// kernel overhangs the whole row on both sides.
const EDGE_WIDTHS: [usize; 15] = [1, 2, 3, 11, 12, 13, 16, 17, 18, 33, 34, 127, 128, 129, 130];

/// Weights that are zero but on the kernel's outermost rows and columns —
/// the taps that overhang a plane's border: a lane that adds an
/// overhanging tap of a NaN or infinite input instead of skipping it turns
/// a finite output into NaN or infinity.
fn edge_tap_weights(n: usize, k: usize, rng: &mut Lcg) -> Vec<f32> {
    (0..n * k * k)
        .map(|i| {
            let (ky, kx) = (i % (k * k) / k, i % k);
            if ky != 0 && kx != 0 && ky != k - 1 && kx != k - 1 {
                0.0
            } else {
                rng.next() * 0.4
            }
        })
        .collect()
}

#[test]
fn border_taps_are_skipped_on_every_row_width() {
    // a halo read is +0.0, which is a skipped tap for finite weights and a
    // +0.0 bias; the neighbouring rows' NaN and infinities must not leak
    // into it either
    let b = 0.0;
    let mut rng = Lcg(0xED6E);
    for w in EDGE_WIDTHS {
        let ks: &[usize] = if w == 3 {
            &[1, 3, 5, 7, 9]
        } else {
            &[1, 3, 5, 7]
        };
        for &k in ks {
            for h in [1, 3] {
                let (in_c, out_c) = (2, 5);
                let weight = edge_tap_weights(out_c * in_c, k, &mut rng);
                let bias = vec![b; out_c];
                let mut src = rng.vec(in_c * h * w, 1.0);
                poison(&mut src, &mut rng);
                let mut want = vec![0.0; out_c * h * w];
                reference_conv(&weight, &bias, in_c, k, &src, &mut want, h, w);
                let conv = one_layer(Sequential::new().conv(in_c, out_c, k, 0), [&weight, &bias]);

                let dw_weight = edge_tap_weights(in_c, k, &mut rng);
                let dw_bias = vec![b; in_c];
                let mut dw_want = vec![0.0; in_c * h * w];
                reference_depthwise(&dw_weight, &dw_bias, k, &src, &mut dw_want, h, w);
                let dw = one_layer(
                    Sequential::new().depthwise(in_c, k, 0),
                    [&dw_weight, &dw_bias],
                );

                let mut ws = TrainWorkspace::default();
                for kernel in Kernel::available() {
                    let what = |conv: &str| format!("{} {conv} k{k} {h}x{w}", kernel.name());
                    let got = forward(&mut ws, kernel, &conv, (in_c, h, w), &src);
                    assert_same(&got, &want, &what("conv"));
                    let got = forward(&mut ws, kernel, &dw, (in_c, h, w), &src);
                    assert_same(&got, &dw_want, &what("depthwise"));
                }
            }
        }
    }
}

// ---- backward kernels against the oracle ----------------------------------

/// Which convolution a backward check runs.
#[derive(Clone, Copy)]
enum Conv {
    Full { in_c: usize, out_c: usize },
    Depthwise { c: usize },
}

/// Every kernel variant's `grad_w`, `grad_b` and `grad_in` against the
/// oracle: a batch of `n` through a one-layer network's training forward,
/// then a backward call per output gradient — two, different — without
/// `zero_grad` between them.
fn check_backward(conv: Conv, k: usize, h: usize, w: usize, n: usize, zeros: bool, special: bool) {
    let (in_c, out_c) = match conv {
        Conv::Full { in_c, out_c } => (in_c, out_c),
        Conv::Depthwise { c } => (c, c),
    };
    let mut rng = Lcg((in_c * 29 + out_c * 19 + k * 11 + h * 5 + w * 3 + n) as u64);
    let n_weights = match conv {
        Conv::Full { .. } => out_c * in_c * k * k,
        Conv::Depthwise { c } => c * k * k,
    };
    let mut weight = rng.vec(n_weights, 0.4);
    if zeros {
        for (i, v) in weight.iter_mut().enumerate() {
            match i % 5 {
                0 => *v = 0.0,
                3 => *v = -0.0,
                _ => {}
            }
        }
    }
    let bias = rng.vec(out_c, 0.2);
    let input = Batch {
        data: rng.vec(n * in_c * h * w, 1.0),
        ..Batch::zeros(n, in_c, h, w)
    };
    let grad_outs: Vec<Batch> = (0..2)
        .map(|_| {
            let mut data = rng.vec(n * out_c * h * w, 0.05);
            if special {
                poison(&mut data, &mut rng);
            }
            Batch {
                data,
                ..Batch::zeros(n, out_c, h, w)
            }
        })
        .collect();

    let mut want_w = vec![0.0f32; n_weights];
    let mut want_b = vec![0.0f32; out_c];
    let mut want_in = Vec::new();
    for go in &grad_outs {
        reference_grad_b(&mut want_b, go);
        match conv {
            Conv::Full { in_c, .. } => {
                reference_grad_w(&mut want_w, k, &input, go);
                want_in.push(reference_grad_in(&weight, in_c, k, go));
            }
            Conv::Depthwise { .. } => {
                reference_depthwise_grad_w(&mut want_w, k, &input, go);
                want_in.push(reference_depthwise_grad_in(&weight, k, go));
            }
        }
    }

    for kernel in Kernel::available() {
        let what = |part: &str| {
            let name = match conv {
                Conv::Full { .. } => format!("conv {in_c}->{out_c}"),
                Conv::Depthwise { c } => format!("depthwise {c}"),
            };
            format!(
                "{} {name} k{k} {h}x{w} batch {n} zeros={zeros} special={special}: {part}",
                kernel.name()
            )
        };
        // with and without the input gradient: the parameter gradients
        // must not depend on whether anyone asked for it
        for want_input in [true, false] {
            let layer = match conv {
                Conv::Full { in_c, out_c } => Sequential::new().conv(in_c, out_c, k, 0),
                Conv::Depthwise { c } => Sequential::new().depthwise(c, k, 0),
            };
            let mut net = one_layer(layer, [&weight, &bias]);
            let mut ws = TrainWorkspace::default();
            forward(&mut ws, kernel, &net, (in_c, h, w), &input.data);
            for (call, (go, want)) in grad_outs.iter().zip(&want_in).enumerate() {
                let mut grad_in = vec![f32::NAN; want.data.len()];
                ws.backward(&mut net, &go.data, want_input.then_some(&mut grad_in[..]));
                if want_input {
                    assert_same(&grad_in, &want.data, &what(&format!("grad_in #{call}")));
                }
            }
            let params = net.params();
            assert_same(params[0].grads, &want_w, &what("grad_w"));
            assert_same(params[1].grads, &want_b, &what("grad_b"));
        }
    }
}

/// Plane shapes on both sides of every strip width the input gradient's
/// kernels switch at, and of the kernel edge.
const PLANES: [(usize, usize); 7] = [
    (1, 1),
    (2, 3),
    (7, 7),
    (12, 12),
    (17, 33),
    (3, 128),
    (128, 128),
];

#[test]
fn conv_gradients_match_reference_on_every_plane_shape() {
    for k in [1, 3, 5] {
        for (h, w) in PLANES {
            let conv = Conv::Full { in_c: 3, out_c: 5 };
            check_backward(conv, k, h, w, 1, false, false);
            if h * w <= 1024 {
                check_backward(conv, k, h, w, 4, false, false);
            }
        }
    }
}

#[test]
fn conv_gradients_match_reference_on_channel_counts_off_the_tile() {
    for k in [1, 3] {
        for in_c in CHANNELS {
            for out_c in CHANNELS {
                check_backward(Conv::Full { in_c, out_c }, k, 5, 21, 2, false, false);
            }
        }
    }
    for (in_c, out_c) in [(1, 1), (2, 7), (8, 8), (16, 17), (17, 16)] {
        check_backward(Conv::Full { in_c, out_c }, 5, 6, 13, 1, false, false);
    }
    // the benchmark's three convolutions, on a training batch's patches
    for (in_c, out_c, k) in [(9, 24, 3), (24, 32, 1), (32, 3, 3)] {
        check_backward(Conv::Full { in_c, out_c }, k, 12, 12, 4, false, false);
    }
}

#[test]
fn conv_gradients_skip_zero_weights_and_keep_special_values() {
    for k in [1, 3, 5] {
        for (h, w) in [(1, 1), (2, 3), (7, 7), (4, 24), (5, 33)] {
            for (zeros, special) in [(true, false), (false, true), (true, true)] {
                for n in [1, 4] {
                    check_backward(Conv::Full { in_c: 3, out_c: 9 }, k, h, w, n, zeros, special);
                    check_backward(Conv::Full { in_c: 9, out_c: 3 }, k, h, w, n, zeros, special);
                }
            }
        }
    }
}

#[test]
fn depthwise_gradients_match_reference() {
    for k in [1, 3, 5] {
        for (h, w) in PLANES {
            // zero weights are multiplied through: 0 · inf must stay NaN
            let special = w % 2 == 1;
            check_backward(Conv::Depthwise { c: 3 }, k, h, w, 1, true, special);
            if h * w <= 1024 {
                check_backward(Conv::Depthwise { c: 9 }, k, h, w, 4, special, true);
            }
        }
        check_backward(Conv::Depthwise { c: 24 }, k, 12, 12, 4, false, false);
        check_backward(Conv::Depthwise { c: 33 }, k, 3, 33, 2, true, true);
    }
}

// ---- plans and networks against the oracle --------------------------------

/// `plan` on one sample of dense planes through `run_planes`, its output
/// planes collected dense.
fn run_plan(plan: &InferencePlan, ws: &mut Workspace, h: usize, w: usize, x: &[f32]) -> Vec<f32> {
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

/// Plan (per sample) and the training forward (whole batch, and each
/// sample as a batch of its own) against the oracle, on a batch of 4: the
/// CFNN at `spec`'s widths over `n_anchors` anchors of `ndim`-D data.
fn check_network(
    spec: &CfnnSpec,
    (n_anchors, ndim): (usize, usize),
    seed: u64,
    h: usize,
    w: usize,
    special: bool,
) {
    let net = build_cfnn(spec, n_anchors, ndim, seed);
    let (in_c, out_c) = (n_anchors * ndim, ndim);
    let mut rng = Lcg(seed ^ 0xABCD);
    let mut data = rng.vec(4 * in_c * h * w, 1.0);
    if special {
        // one non-finite value reaches every later pixel through the
        // attention gate: confine it to the last sample
        let n = data.len();
        poison(&mut data[n - in_c * h * w..], &mut rng);
    }
    let mut train = TrainWorkspace::default();
    let detect = Kernel::detect();
    let forward4 = forward(&mut train, detect, &net, (in_c, h, w), &data);
    assert_eq!(forward4.len(), 4 * out_c * h * w);

    let plan = InferencePlan::compile(&net, in_c).expect("build_cfnn chains");
    assert_eq!(
        (plan.in_channels(), plan.out_channels()),
        (in_c, out_c),
        "plan geometry"
    );
    let mut ws = Workspace::default();
    for (b, sample) in data.chunks_exact(in_c * h * w).enumerate() {
        let what = |path: &str| format!("{path}, sample {b} of {h}x{w} special={special}");
        let want = reference_forward(&net, sample, h, w);
        let got4 = &forward4[b * out_c * h * w..][..out_c * h * w];
        assert_same(got4, &want, &what("forward batch 4"));
        let single = forward(&mut train, detect, &net, (in_c, h, w), sample);
        assert_same(&single, &want, &what("forward batch 1"));
        let got = run_plan(&plan, &mut ws, h, w, sample);
        assert_same(&got, &want, &what("plan"));
    }
}

#[test]
fn plan_and_forward_match_reference_on_the_3d_network() {
    let spec = CfnnSpec::writer_default(3);
    check_network(&spec, (3, 3), 11, 12, 12, false); // a training patch
    check_network(&spec, (3, 3), 12, 7, 33, true);
    check_network(&spec, (3, 3), 13, 32, 32, false); // the golden fixtures' planes
                                                     // the benchmark's SCALE slice and a row two pixels past it: whole
                                                     // interior strips, and a last strip pulled back over its neighbour,
                                                     // each stored through the ReLU the plan folds into the convolution
    check_network(&spec, (3, 3), 14, 128, 128, true);
    check_network(&spec, (3, 3), 15, 5, 130, false);
}

#[test]
fn plan_and_forward_match_reference_on_the_2d_network() {
    let spec = CfnnSpec::writer_default(2);
    check_network(&spec, (2, 2), 21, 24, 24, false); // the other training patch
    check_network(&spec, (2, 2), 22, 3, 17, true);
    check_network(&spec, (2, 2), 23, 1, 1, false);
}

#[test]
fn plan_and_forward_match_reference_on_every_table3_width() {
    // the widths the paper's rows ship with: channel attention with a
    // one-unit bottleneck (`feat2 < reduction`) and planes of 2–8
    // channels, which fill a 4-channel output tile only in part
    for (i, row) in paper_table3().iter().enumerate() {
        let seed = 51 + 3 * i as u64;
        let info = catalog::find(row.dataset).expect("a catalog dataset");
        let data = (row.anchors.len(), info.default_dims.ndim());
        check_network(&row.spec, data, seed, 12, 12, false); // a training patch
        check_network(&row.spec, data, seed + 1, 128, 128, true); // the benchmark's slice
        check_network(&row.spec, data, seed + 2, 5, 130, false);
    }
}

#[test]
fn a_workspace_serves_plans_and_planes_of_any_size() {
    // the store hands one scratch to blocks of different targets and
    // shapes: stale activations from a bigger run must not leak
    let big = build_cfnn(&CfnnSpec::writer_default(3), 3, 3, 1);
    let small = build_cfnn(&CfnnSpec::writer_default(2), 2, 2, 2);
    let big_plan = InferencePlan::compile(&big, 9).unwrap();
    let small_plan = InferencePlan::compile(&small, 4).unwrap();
    let mut rng = Lcg(77);
    let mut ws = Workspace::default();
    for (plan, net, in_c, h, w) in [
        (&big_plan, &big, 9, 17, 24),
        (&small_plan, &small, 4, 5, 9),
        (&big_plan, &big, 9, 3, 40),
        (&small_plan, &small, 4, 17, 24),
    ] {
        let x = rng.vec(in_c * h * w, 1.0);
        let got = run_plan(plan, &mut ws, h, w, &x);
        assert_same(&got, &reference_forward(net, &x, h, w), "shared workspace");
    }
}

#[test]
fn a_stale_or_dirty_halo_cannot_leak() {
    // a 1×1 with biases far above zero and a folded ReLU stores no pixel
    // near zero, and the 3×3 behind it reads the halo around them: a halo
    // column left from another plane width, or one the 1×1 wrote, moves
    // the 3×3's border outputs
    let mut net = Sequential::new().conv(3, 6, 1, 31).relu().conv(6, 2, 3, 32);
    for (i, b) in net.params()[1].values.iter_mut().enumerate() {
        *b = 40.0 + i as f32;
    }
    let plan = InferencePlan::compile(&net, 3).expect("chains");
    let mut rng = Lcg(0x4A10);
    let (mut ws, mut train) = (Workspace::default(), TrainWorkspace::default());
    for (h, w) in [(128, 128), (7, 21), (128, 128)] {
        let x = rng.vec(3 * h * w, 1.0);
        let want = reference_forward(&net, &x, h, w);
        let got = forward(&mut train, Kernel::detect(), &net, (3, h, w), &x);
        assert_same(&got, &want, &format!("forward at {h}x{w}"));
        let got = run_plan(&plan, &mut ws, h, w, &x);
        assert_same(&got, &want, &format!("plan at {h}x{w}"));
    }
}

// ---- predict_differences against the old marshalling ----------------------

/// `predict_differences` as it was: difference fields, normalized copies,
/// per-slice copies into a tensor, the network, denormalized copies out.
fn reference_predict(trained: &TrainedCfnn, anchors: &[&Field]) -> Vec<Vec<f32>> {
    let shape = anchors[0].shape();
    let ndim = shape.ndim();
    let (h, w) = (shape.dims()[ndim - 2], shape.dims()[ndim - 1]);
    let hw = h * w;
    let channels: Vec<Field> = anchors
        .iter()
        .flat_map(|a| diff::backward_diff_all(a))
        .zip(&trained.input_norms)
        .map(|(d, n)| n.apply_field(&d))
        .collect();
    let mut out = vec![Vec::new(); trained.target_norms.len()];
    for k in 0..shape.len() / hw {
        let x: Vec<f32> = channels
            .iter()
            .flat_map(|ch| ch.as_slice()[k * hw..(k + 1) * hw].iter().copied())
            .collect();
        let y = reference_forward(&trained.net, &x, h, w);
        for ((out, norm), plane) in out.iter_mut().zip(&trained.target_norms).zip(y.chunks(hw)) {
            out.extend(plane.iter().map(|&v| norm.invert(v)));
        }
    }
    out
}

fn check_predict(shape: Shape, n_anchors: usize, spec: CfnnSpec, seed: u64) {
    let ndim = shape.ndim();
    let anchors: Vec<Field> = (0..n_anchors)
        .map(|a| {
            Field::from_fn(shape, |i| {
                let t: usize = i.iter().enumerate().map(|(d, &v)| (d + 2) * v).sum();
                ((t + 5 * a) as f32 * 0.37).sin() * (3.0 + a as f32) + 0.01 * t as f32
            })
        })
        .collect();
    let refs: Vec<&Field> = anchors.iter().collect();
    let diffs: Vec<Field> = refs
        .iter()
        .flat_map(|a| diff::backward_diff_all(a))
        .collect();
    let trained = TrainedCfnn {
        net: build_cfnn(&spec, n_anchors, ndim, seed),
        spec,
        input_norms: fit_normalizers(&diffs),
        // any non-trivial scale and shift: the inverse must be applied as is
        target_norms: fit_normalizers(&diffs[..ndim])
            .into_iter()
            .map(|mut n| {
                n.shift = 0.25;
                n
            })
            .collect(),
        report: TrainReport {
            losses: Vec::new(),
            n_patches: 0,
        },
    };
    let want = reference_predict(&trained, &refs);
    let got = predict_differences(&trained, &refs);
    assert_eq!(got.len(), want.len());
    for (axis, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g.shape(), shape);
        assert_same(g.as_slice(), w, &format!("{shape} axis {axis}"));
    }
}

#[test]
fn predict_differences_matches_the_old_path_on_a_partial_last_block() {
    // 3 of a block's 4 slabs, planes on the narrow-strip path
    let wide = CfnnSpec::writer_default(3);
    check_predict(Shape::d3(3, 9, 14), 3, wide, 31);
    // a single slab: the slice-axis difference is all boundary
    check_predict(Shape::d3(1, 5, 20), 2, wide, 32);
    // a narrow net: two-channel planes and a one-unit attention bottleneck
    let narrow = CfnnSpec { feat1: 2, feat2: 4 };
    check_predict(Shape::d3(3, 9, 14), 3, narrow, 33);
}

#[test]
fn predict_differences_matches_the_old_path_in_2d() {
    check_predict(Shape::d2(12, 24), 2, CfnnSpec::writer_default(2), 41);
}
