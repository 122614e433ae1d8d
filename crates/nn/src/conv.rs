//! Convolution layers — full (also used as 1×1 pointwise) and depthwise —
//! and the register-tiled kernels every forward pass runs on.
//!
//! Stride is fixed at 1 with "same" zero padding — the CFNN predicts a
//! difference value for *every* grid point, so spatial dims never shrink.
//!
//! # Tiling
//!
//! The kernels are *output-stationary*: a strip of `XT = 16` (8 on narrow
//! planes, 64 for a lone output channel) adjacent pixels of one row × up
//! to `OCT = 4` output channels lives in accumulators (eight 256-bit
//! registers under AVX2) while the loops run over every input channel and
//! kernel tap, and is stored once. Per multiply-add that costs a fraction of a load instead
//! of the two loads and one store of a loop that sweeps a whole plane per
//! tap. Weights are repacked `[oc tile][ic][ky][kx][oc in tile]`
//! ([`PackedConv`]) so the four broadcasts of one tap are adjacent. The
//! last strip of a row overlaps its neighbour rather than running short
//! (an output element is computed from scratch, so computing it twice is
//! harmless); the `k / 2` border columns, where some taps fall outside
//! the plane, and planes narrower than one strip plus padding take a
//! scalar path with the same loop nest.
//!
//! # Order of operations is the contract
//!
//! CFNN inference runs on both sides of the codec, and the decoder must
//! reproduce the encoder's predictions bit for bit or the error bound is
//! lost. Every output element is therefore computed by exactly this
//! sequence of IEEE-754 single operations, whatever the tile shape or
//! instruction set: start at `bias[oc]`; for `ic`, then `ky`, then `kx`
//! ascending, `acc = acc + w * x` as a rounded multiply followed by a
//! rounded add (never fused); taps outside the plane are skipped, not
//! added as `w * 0`; full convolutions also skip taps whose weight is
//! exactly zero (depthwise ones do not). Tiling only changes *which*
//! elements are in flight together, never the chain of one element. The
//! AVX2 body is the same safe Rust compiled with wider registers —
//! `avx2` without `fma` — so it cannot contract the multiply-add.
//! `tests/cfnn_equivalence.rs` compares every [`Kernel`] the host offers
//! against tap-major reference loops with `to_bits()`.

use rayon::prelude::*;

use crate::init;
use crate::layer::{Layer, ParamSet};
use crate::tensor::Tensor;

/// Output channels per register tile.
const OCT: usize = 4;
/// Pixels per strip; planes too narrow for it use strips of `XT / 2`.
const XT: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

/// One compiled body of the convolution kernels. All of them produce
/// bit-identical output; [`Kernel::detect`] picks the fastest the CPU
/// runs, [`Kernel::available`] lists every one for differential tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kernel(Isa); // private field: `Isa::Avx2` exists only once AVX2 was detected

impl Kernel {
    /// The body built for the compile-time target; runs anywhere.
    pub const PORTABLE: Kernel = Kernel(Isa::Portable);

    /// The fastest body this CPU supports.
    pub fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Kernel(Isa::Avx2);
        }
        Kernel::PORTABLE
    }

    /// Every body this CPU supports, portable first.
    pub fn available() -> Vec<Kernel> {
        let best = Kernel::detect();
        if best == Kernel::PORTABLE {
            vec![best]
        } else {
            vec![Kernel::PORTABLE, best]
        }
    }

    /// Short name for test and benchmark output.
    pub fn name(self) -> &'static str {
        match self.0 {
            Isa::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => "avx2",
        }
    }
}

/// A full convolution's weights repacked for the tiled kernel: immutable,
/// `Send + Sync`, built once per inference plan (or per training forward,
/// where the optimizer has just moved the weights).
#[derive(Debug, Clone)]
pub struct PackedConv {
    in_c: usize,
    out_c: usize,
    k: usize,
    /// `[oc tile][ic][ky][kx][oc in tile]`; the last tile is `out_c % OCT`
    /// wide when that is non-zero.
    weight: Vec<f32>,
    bias: Vec<f32>,
    /// Some weight is exactly ±0: take the body that skips such taps.
    has_zero: bool,
}

impl PackedConv {
    /// Repack `[out_c][in_c][k][k]` weights. Panics on a length mismatch
    /// or an even kernel edge.
    pub fn new(in_c: usize, out_c: usize, k: usize, weight: &[f32], bias: &[f32]) -> Self {
        assert!(k % 2 == 1, "kernel edge must be odd for same padding");
        let kk = k * k;
        assert_eq!(weight.len(), out_c * in_c * kk, "conv weight count");
        assert_eq!(bias.len(), out_c, "conv bias count");
        let mut packed = Vec::with_capacity(weight.len());
        for oc0 in (0..out_c).step_by(OCT) {
            let oct = OCT.min(out_c - oc0);
            for ic in 0..in_c {
                for tap in 0..kk {
                    for o in 0..oct {
                        packed.push(weight[((oc0 + o) * in_c + ic) * kk + tap]);
                    }
                }
            }
        }
        PackedConv {
            in_c,
            out_c,
            k,
            weight: packed,
            bias: bias.to_vec(),
            has_zero: weight.contains(&0.0), // either sign
        }
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        self.out_c
    }

    /// Convolve one sample: `src` holds `in_c` planes of `h × w`, `dst`
    /// receives `out_c` planes.
    pub fn run(&self, kernel: Kernel, src: &[f32], dst: &mut [f32], h: usize, w: usize) {
        assert_eq!(src.len(), self.in_c * h * w, "conv input size");
        assert_eq!(dst.len(), self.out_c * h * w, "conv output size");
        match kernel.0 {
            Isa::Portable => conv_sample(self, src, dst, h, w),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Isa::Avx2` is only constructed by `Kernel::detect` after AVX2 was detected
            Isa::Avx2 => unsafe { conv_sample_avx2(self, src, dst, h, w) },
        }
    }
}

/// Depthwise convolution of one sample: `c` planes of `h × w`, one `k × k`
/// kernel (`weight[c][k][k]`) and bias per plane. Needs no repacking — a
/// plane is a one-in, one-out convolution — and, like the layer always
/// has, multiplies zero weights through instead of skipping them.
#[allow(clippy::too_many_arguments)]
pub fn depthwise(
    kernel: Kernel,
    k: usize,
    weight: &[f32],
    bias: &[f32],
    src: &[f32],
    dst: &mut [f32],
    h: usize,
    w: usize,
) {
    assert!(k % 2 == 1, "kernel edge must be odd for same padding");
    assert_eq!(weight.len(), bias.len() * k * k, "depthwise weight count");
    assert_eq!(src.len(), bias.len() * h * w, "depthwise input size");
    assert_eq!(dst.len(), src.len(), "depthwise output size");
    match kernel.0 {
        Isa::Portable => depthwise_sample(k, weight, bias, src, dst, h, w),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Isa::Avx2` is only constructed by `Kernel::detect` after AVX2 was detected
        Isa::Avx2 => unsafe { depthwise_sample_avx2(k, weight, bias, src, dst, h, w) },
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn conv_sample_avx2(p: &PackedConv, src: &[f32], dst: &mut [f32], h: usize, w: usize) {
    conv_sample(p, src, dst, h, w)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn depthwise_sample_avx2(
    k: usize,
    weight: &[f32],
    bias: &[f32],
    src: &[f32],
    dst: &mut [f32],
    h: usize,
    w: usize,
) {
    depthwise_sample(k, weight, bias, src, dst, h, w)
}

// The bodies below are `inline(always)` so that each entry point above —
// portable or `target_feature` — compiles its own copy with its own
// register width.

#[inline(always)]
fn conv_sample(p: &PackedConv, src: &[f32], dst: &mut [f32], h: usize, w: usize) {
    let hw = h * w;
    let kk = p.k * p.k;
    for oc0 in (0..p.out_c).step_by(OCT) {
        let oct = OCT.min(p.out_c - oc0);
        let wts = &p.weight[oc0 * p.in_c * kk..][..oct * p.in_c * kk];
        let bias = &p.bias[oc0..oc0 + oct];
        let dst = &mut dst[oc0 * hw..(oc0 + oct) * hw];
        macro_rules! tile {
            ($oct:literal) => {
                if p.has_zero {
                    tile_planes::<$oct, true>(wts, bias, p.in_c, p.k, src, dst, h, w)
                } else {
                    tile_planes::<$oct, false>(wts, bias, p.in_c, p.k, src, dst, h, w)
                }
            };
        }
        match oct {
            4 => tile!(4),
            3 => tile!(3),
            2 => tile!(2),
            _ => tile!(1),
        }
    }
}

#[inline(always)]
fn depthwise_sample(
    k: usize,
    weight: &[f32],
    bias: &[f32],
    src: &[f32],
    dst: &mut [f32],
    h: usize,
    w: usize,
) {
    let hw = h * w;
    let kk = k * k;
    for (c, b) in bias.iter().enumerate() {
        let plane = c * hw..(c + 1) * hw;
        tile_planes::<1, false>(
            &weight[c * kk..(c + 1) * kk],
            std::slice::from_ref(b),
            1,
            k,
            &src[plane.clone()],
            &mut dst[plane],
            h,
            w,
        );
    }
}

/// All of `dst`'s `T` output planes from `src`'s `in_c` input planes;
/// `wts` is `[ic][ky][kx][T]`. `SKIP` leaves out taps whose weight is zero.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile_planes<const T: usize, const SKIP: bool>(
    wts: &[f32],
    bias: &[f32],
    in_c: usize,
    k: usize,
    src: &[f32],
    dst: &mut [f32],
    h: usize,
    w: usize,
) {
    const HALF: usize = XT / 2;
    let pad = k / 2;
    // columns where every tap of a row lies inside the plane
    let inner = pad..w.saturating_sub(pad);
    // strip starts for width `n`, the last one pulled back to end at `inner.end`
    let strips = |n: usize| inner.clone().step_by(n).map(move |x| x.min(inner.end - n));
    // what the strips leave to the scalar path: the borders, or everything
    let scalar = match inner.len() {
        n if n >= HALF => (0..inner.start).chain(inner.end..w),
        _ => (0..w).chain(w..w),
    };
    for y in 0..h {
        let tap = Taps::new(wts, in_c, k, src, h, w, y);
        if T == 1 && inner.len() >= 4 * XT {
            // one output channel (depthwise, or a remainder tile) fills
            // only XT / 8 registers, whose add chains wait on each other:
            // a four times longer strip keeps as many chains in flight as
            // a full tile does
            for x0 in strips(4 * XT) {
                strip::<{ 4 * XT }, T, SKIP>(&tap, bias, dst, x0);
            }
        } else if inner.len() >= XT {
            for x0 in strips(XT) {
                strip::<XT, T, SKIP>(&tap, bias, dst, x0);
            }
        } else if inner.len() >= HALF {
            for x0 in strips(HALF) {
                strip::<HALF, T, SKIP>(&tap, bias, dst, x0);
            }
        }
        for x in scalar.clone() {
            point::<T, SKIP>(&tap, bias, dst, x);
        }
    }
}

/// What every output element of row `y` of one tile shares: the operands
/// and the kernel rows that fall inside the plane.
struct Taps<'a> {
    wts: &'a [f32],
    src: &'a [f32],
    in_c: usize,
    k: usize,
    w: usize,
    hw: usize,
    y: usize,
    /// `ky` range whose source row `y + ky - k / 2` exists.
    ky: std::ops::Range<usize>,
}

impl<'a> Taps<'a> {
    #[inline(always)]
    fn new(
        wts: &'a [f32],
        in_c: usize,
        k: usize,
        src: &'a [f32],
        h: usize,
        w: usize,
        y: usize,
    ) -> Self {
        let pad = k / 2;
        Taps {
            wts,
            src,
            in_c,
            k,
            w,
            hw: h * w,
            y,
            ky: pad.saturating_sub(y)..k.min(h + pad - y),
        }
    }

    /// Source row under kernel row `ky` in input plane `ic`.
    #[inline(always)]
    fn row(&self, ic: usize, ky: usize) -> &'a [f32] {
        &self.src[ic * self.hw + (self.y + ky - self.k / 2) * self.w..][..self.w]
    }

    /// The tile's `T` weights of one tap.
    #[inline(always)]
    fn weights<const T: usize>(&self, ic: usize, ky: usize, kx: usize) -> &'a [f32; T] {
        self.wts[((ic * self.k + ky) * self.k + kx) * T..][..T]
            .try_into()
            .expect("slice of length T")
    }
}

/// `N` pixels from column `x0` (all taps in range) × `T` output channels.
#[inline(always)]
fn strip<const N: usize, const T: usize, const SKIP: bool>(
    tap: &Taps,
    bias: &[f32],
    dst: &mut [f32],
    x0: usize,
) {
    let pad = tap.k / 2;
    let mut acc = [[0.0f32; N]; T];
    for o in 0..T {
        acc[o] = [bias[o]; N];
    }
    for ic in 0..tap.in_c {
        for ky in tap.ky.clone() {
            let row = tap.row(ic, ky);
            for kx in 0..tap.k {
                let x: &[f32; N] = row[x0 + kx - pad..][..N]
                    .try_into()
                    .expect("slice of length N");
                let wv = tap.weights::<T>(ic, ky, kx);
                for o in 0..T {
                    let kv = wv[o];
                    if SKIP && kv == 0.0 {
                        continue;
                    }
                    for j in 0..N {
                        acc[o][j] += kv * x[j];
                    }
                }
            }
        }
    }
    for o in 0..T {
        dst[o * tap.hw + tap.y * tap.w + x0..][..N].copy_from_slice(&acc[o]);
    }
}

/// One pixel × `T` output channels, taps outside the plane skipped.
#[inline(always)]
fn point<const T: usize, const SKIP: bool>(tap: &Taps, bias: &[f32], dst: &mut [f32], x: usize) {
    let pad = tap.k / 2;
    let kxs = pad.saturating_sub(x)..tap.k.min(tap.w + pad - x);
    let mut acc = [0.0f32; T];
    acc.copy_from_slice(bias);
    for ic in 0..tap.in_c {
        for ky in tap.ky.clone() {
            let row = tap.row(ic, ky);
            for kx in kxs.clone() {
                let xv = row[x + kx - pad];
                let wv = tap.weights::<T>(ic, ky, kx);
                for o in 0..T {
                    let kv = wv[o];
                    if SKIP && kv == 0.0 {
                        continue;
                    }
                    acc[o] += kv * xv;
                }
            }
        }
    }
    for o in 0..T {
        dst[o * tap.hw + tap.y * tap.w + x] = acc[o];
    }
}

/// Same-padded 2-D convolution with bias.
#[derive(Debug, Clone)]
pub struct Conv2d {
    /// Input channels.
    pub in_c: usize,
    /// Output channels.
    pub out_c: usize,
    /// Kernel edge (odd).
    pub k: usize,
    weight: Vec<f32>, // [out_c][in_c][k][k]
    bias: Vec<f32>,   // [out_c]
    // gradient accumulators: empty until the first training forward
    grad_w: Vec<f32>,
    grad_b: Vec<f32>,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// New layer with Kaiming-uniform weights.
    pub fn new(in_c: usize, out_c: usize, k: usize, seed: u64) -> Self {
        let mut rng = init::seeded(seed);
        let weight = init::kaiming_uniform(&mut rng, out_c * in_c * k * k, in_c * k * k);
        Self::from_weights(in_c, out_c, k, weight, vec![0.0; out_c]).expect("consistent geometry")
    }

    /// A layer around existing weights (`[out_c][in_c][k][k]`) — what
    /// deserialization builds: no RNG draw, no gradient buffers. Fails on
    /// an even kernel edge or counts that disagree with the geometry.
    pub fn from_weights(
        in_c: usize,
        out_c: usize,
        k: usize,
        weight: Vec<f32>,
        bias: Vec<f32>,
    ) -> Result<Self, String> {
        if k.is_multiple_of(2) {
            return Err(format!("kernel edge {k} must be odd for same padding"));
        }
        let expect_w = in_c
            .checked_mul(out_c)
            .and_then(|v| v.checked_mul(k * k))
            .ok_or("conv geometry overflows")?;
        if weight.len() != expect_w || bias.len() != out_c {
            return Err(format!(
                "conv weights {}/{} mismatch geometry {expect_w}/{out_c}",
                weight.len(),
                bias.len()
            ));
        }
        Ok(Conv2d {
            in_c,
            out_c,
            k,
            weight,
            bias,
            grad_w: Vec::new(),
            grad_b: Vec::new(),
            cached_input: None,
        })
    }

    /// Direct access to weights (serialization).
    pub fn weights(&self) -> (&[f32], &[f32]) {
        (&self.weight, &self.bias)
    }

    /// Overwrite weights.
    pub fn set_weights(&mut self, weight: &[f32], bias: &[f32]) {
        assert_eq!(weight.len(), self.weight.len());
        assert_eq!(bias.len(), self.bias.len());
        self.weight.copy_from_slice(weight);
        self.bias.copy_from_slice(bias);
    }

    /// The weights repacked for the tiled kernel.
    pub(crate) fn packed(&self) -> PackedConv {
        PackedConv::new(self.in_c, self.out_c, self.k, &self.weight, &self.bias)
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert_eq!(input.c, self.in_c, "conv2d channel mismatch");
        let (n, _, h, w) = input.dims();
        let mut out = Tensor::zeros(n, self.out_c, h, w);
        // the optimizer moves the weights between calls: repack each time
        let packed = self.packed();
        let kernel = Kernel::detect();
        for b in 0..n {
            packed.run(kernel, input.sample(b), out.sample_mut(b), h, w);
        }
        if train {
            self.grad_w.resize(self.weight.len(), 0.0);
            self.grad_b.resize(self.bias.len(), 0.0);
            self.cached_input = Some(input.clone());
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("backward before forward");
        let (n, _, h, w) = input.dims();
        let pad = self.k / 2;
        let k = self.k;
        let kk = k * k;

        // bias gradients
        for b in 0..n {
            for oc in 0..self.out_c {
                self.grad_b[oc] += grad_out.plane(b, oc).iter().sum::<f32>();
            }
        }

        // weight gradients: parallel over oc (disjoint grad_w slices)
        let in_c = self.in_c;
        self.grad_w
            .par_chunks_mut(in_c * kk)
            .enumerate()
            .for_each(|(oc, gw)| {
                for b in 0..n {
                    let go = grad_out.plane(b, oc);
                    for ic in 0..in_c {
                        let src = input.plane(b, ic);
                        for ky in 0..k {
                            let dy = ky as isize - pad as isize;
                            for kx in 0..k {
                                let dx = kx as isize - pad as isize;
                                let y0 = (-dy).max(0) as usize;
                                let y1 = (h as isize - dy).min(h as isize) as usize;
                                let x0 = (-dx).max(0) as usize;
                                let x1 = (w as isize - dx).min(w as isize) as usize;
                                let mut acc = 0.0f32;
                                for y in y0..y1 {
                                    let sy = (y as isize + dy) as usize;
                                    for x in x0..x1 {
                                        let sx = (x as isize + dx) as usize;
                                        acc += go[y * w + x] * src[sy * w + sx];
                                    }
                                }
                                gw[ic * kk + ky * k + kx] += acc;
                            }
                        }
                    }
                }
            });

        // input gradients: full correlation with flipped kernel
        let mut grad_in = input.zeros_like();
        let out_c = self.out_c;
        let weight = &self.weight;
        grad_in
            .data
            .par_chunks_mut(h * w)
            .enumerate()
            .for_each(|(plane, gi)| {
                let b = plane / in_c;
                let ic = plane % in_c;
                for oc in 0..out_c {
                    let go = grad_out.plane(b, oc);
                    let kernel = &weight[(oc * in_c + ic) * kk..(oc * in_c + ic + 1) * kk];
                    for ky in 0..k {
                        let dy = ky as isize - pad as isize;
                        for kx in 0..k {
                            let dx = kx as isize - pad as isize;
                            let kv = kernel[ky * k + kx];
                            if kv == 0.0 {
                                continue;
                            }
                            // gi[iy][ix] += kv * go[iy - dy][ix - dx]
                            let y0 = dy.max(0) as usize;
                            let y1 = (h as isize + dy).min(h as isize) as usize;
                            let x0 = dx.max(0) as usize;
                            let x1 = (w as isize + dx).min(w as isize) as usize;
                            for iy in y0..y1 {
                                let oy = (iy as isize - dy) as usize;
                                for ix in x0..x1 {
                                    let ox = (ix as isize - dx) as usize;
                                    gi[iy * w + ix] += kv * go[oy * w + ox];
                                }
                            }
                        }
                    }
                }
            });
        grad_in
    }

    fn params(&mut self) -> Vec<ParamSet<'_>> {
        vec![
            ParamSet {
                values: &mut self.weight,
                grads: &mut self.grad_w,
            },
            ParamSet {
                values: &mut self.bias,
                grads: &mut self.grad_b,
            },
        ]
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }
}

/// Depthwise same-padded convolution: one k×k kernel per channel.
#[derive(Debug, Clone)]
pub struct DepthwiseConv2d {
    /// Channels (input = output).
    pub c: usize,
    /// Kernel edge (odd).
    pub k: usize,
    weight: Vec<f32>, // [c][k][k]
    bias: Vec<f32>,
    // gradient accumulators: empty until the first training forward
    grad_w: Vec<f32>,
    grad_b: Vec<f32>,
    cached_input: Option<Tensor>,
}

impl DepthwiseConv2d {
    /// New layer with Kaiming-uniform weights.
    pub fn new(c: usize, k: usize, seed: u64) -> Self {
        let mut rng = init::seeded(seed);
        let weight = init::kaiming_uniform(&mut rng, c * k * k, k * k);
        Self::from_weights(c, k, weight, vec![0.0; c]).expect("consistent geometry")
    }

    /// A layer around existing weights (`[c][k][k]`); see
    /// [`Conv2d::from_weights`].
    pub fn from_weights(
        c: usize,
        k: usize,
        weight: Vec<f32>,
        bias: Vec<f32>,
    ) -> Result<Self, String> {
        if k.is_multiple_of(2) {
            return Err(format!("kernel edge {k} must be odd for same padding"));
        }
        if weight.len() != c * k * k || bias.len() != c {
            return Err("depthwise weight count mismatch".into());
        }
        Ok(DepthwiseConv2d {
            c,
            k,
            weight,
            bias,
            grad_w: Vec::new(),
            grad_b: Vec::new(),
            cached_input: None,
        })
    }

    /// Direct access to weights (serialization).
    pub fn weights(&self) -> (&[f32], &[f32]) {
        (&self.weight, &self.bias)
    }

    /// Overwrite weights.
    pub fn set_weights(&mut self, weight: &[f32], bias: &[f32]) {
        assert_eq!(weight.len(), self.weight.len());
        assert_eq!(bias.len(), self.bias.len());
        self.weight.copy_from_slice(weight);
        self.bias.copy_from_slice(bias);
    }
}

impl Layer for DepthwiseConv2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert_eq!(input.c, self.c, "depthwise channel mismatch");
        let (n, _, h, w) = input.dims();
        let mut out = input.zeros_like();
        let kernel = Kernel::detect();
        for b in 0..n {
            depthwise(
                kernel,
                self.k,
                &self.weight,
                &self.bias,
                input.sample(b),
                out.sample_mut(b),
                h,
                w,
            );
        }
        if train {
            self.grad_w.resize(self.weight.len(), 0.0);
            self.grad_b.resize(self.bias.len(), 0.0);
            self.cached_input = Some(input.clone());
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("backward before forward");
        let (n, _, h, w) = input.dims();
        let pad = self.k / 2;
        let k = self.k;
        let kk = k * k;

        for b in 0..n {
            for c in 0..self.c {
                self.grad_b[c] += grad_out.plane(b, c).iter().sum::<f32>();
            }
        }

        self.grad_w
            .par_chunks_mut(kk)
            .enumerate()
            .for_each(|(c, gw)| {
                for b in 0..n {
                    let go = grad_out.plane(b, c);
                    let src = input.plane(b, c);
                    for ky in 0..k {
                        let dy = ky as isize - pad as isize;
                        for kx in 0..k {
                            let dx = kx as isize - pad as isize;
                            let y0 = (-dy).max(0) as usize;
                            let y1 = (h as isize - dy).min(h as isize) as usize;
                            let x0 = (-dx).max(0) as usize;
                            let x1 = (w as isize - dx).min(w as isize) as usize;
                            let mut acc = 0.0f32;
                            for y in y0..y1 {
                                let sy = (y as isize + dy) as usize;
                                for x in x0..x1 {
                                    let sx = (x as isize + dx) as usize;
                                    acc += go[y * w + x] * src[sy * w + sx];
                                }
                            }
                            gw[ky * k + kx] += acc;
                        }
                    }
                }
            });

        let mut grad_in = input.zeros_like();
        let weight = &self.weight;
        let cc = self.c;
        grad_in
            .data
            .par_chunks_mut(h * w)
            .enumerate()
            .for_each(|(plane, gi)| {
                let b = plane / cc;
                let c = plane % cc;
                let go = grad_out.plane(b, c);
                let kernel = &weight[c * kk..(c + 1) * kk];
                for ky in 0..k {
                    let dy = ky as isize - pad as isize;
                    for kx in 0..k {
                        let dx = kx as isize - pad as isize;
                        let kv = kernel[ky * k + kx];
                        let y0 = dy.max(0) as usize;
                        let y1 = (h as isize + dy).min(h as isize) as usize;
                        let x0 = dx.max(0) as usize;
                        let x1 = (w as isize + dx).min(w as isize) as usize;
                        for iy in y0..y1 {
                            let oy = (iy as isize - dy) as usize;
                            for ix in x0..x1 {
                                let ox = (ix as isize - dx) as usize;
                                gi[iy * w + ix] += kv * go[oy * w + ox];
                            }
                        }
                    }
                }
            });
        grad_in
    }

    fn params(&mut self) -> Vec<ParamSet<'_>> {
        vec![
            ParamSet {
                values: &mut self.weight,
                grads: &mut self.grad_w,
            },
            ParamSet {
                values: &mut self.bias,
                grads: &mut self.grad_b,
            },
        ]
    }

    fn name(&self) -> &'static str {
        "depthwise-conv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::mse_loss;

    /// Finite-difference gradient check of a layer's parameter and input
    /// gradients on a tiny problem.
    fn grad_check<L: Layer>(layer: &mut L, input: &Tensor, target: &Tensor, tol: f32) {
        // analytic
        layer.zero_grad();
        let out = layer.forward(input, true);
        let (_, grad) = mse_loss(&out, target);
        let grad_in = layer.backward(&grad);

        // numeric parameter gradients
        let eps = 1e-3f32;
        let analytic: Vec<Vec<f32>> = layer.params().iter().map(|p| p.grads.to_vec()).collect();
        for (pi, block) in analytic.iter().enumerate() {
            for wi in (0..block.len()).step_by(block.len().div_ceil(12).max(1)) {
                let orig = layer.params()[pi].values[wi];
                layer.params()[pi].values[wi] = orig + eps;
                let (lp, _) = mse_loss(&layer.forward(input, false), target);
                layer.params()[pi].values[wi] = orig - eps;
                let (lm, _) = mse_loss(&layer.forward(input, false), target);
                layer.params()[pi].values[wi] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let a = block[wi];
                assert!(
                    (a - numeric).abs() < tol * (1.0 + numeric.abs()),
                    "param[{pi}][{wi}]: analytic {a} vs numeric {numeric}"
                );
            }
        }

        // numeric input gradients
        let mut input = input.clone();
        for xi in (0..input.len()).step_by(input.len().div_ceil(10).max(1)) {
            let orig = input.data[xi];
            input.data[xi] = orig + eps;
            let (lp, _) = mse_loss(&layer.forward(&input, false), target);
            input.data[xi] = orig - eps;
            let (lm, _) = mse_loss(&layer.forward(&input, false), target);
            input.data[xi] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let a = grad_in.data[xi];
            assert!(
                (a - numeric).abs() < tol * (1.0 + numeric.abs()),
                "input[{xi}]: analytic {a} vs numeric {numeric}"
            );
        }
    }

    fn rand_tensor(n: usize, c: usize, h: usize, w: usize, seed: u64) -> Tensor {
        let mut rng = init::seeded(seed);
        Tensor::from_vec(
            n,
            c,
            h,
            w,
            init::kaiming_uniform(&mut rng, n * c * h * w, 4),
        )
    }

    #[test]
    fn conv_identity_kernel_passes_through() {
        let mut conv = Conv2d::new(1, 1, 3, 0);
        let mut w = vec![0.0f32; 9];
        w[4] = 1.0; // centre tap
        conv.set_weights(&w, &[0.0]);
        let input = rand_tensor(1, 1, 5, 5, 3);
        let out = conv.forward(&input, false);
        assert_eq!(out.data, input.data);
    }

    #[test]
    fn conv_shift_kernel_shifts() {
        let mut conv = Conv2d::new(1, 1, 3, 0);
        let mut w = vec![0.0f32; 9];
        w[3] = 1.0; // tap (ky=1, kx=0) → reads (y, x-1)
        conv.set_weights(&w, &[0.0]);
        let input = Tensor::from_vec(1, 1, 1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let out = conv.forward(&input, false);
        assert_eq!(out.data, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn conv_bias_applies() {
        let mut conv = Conv2d::new(1, 2, 1, 0);
        conv.set_weights(&[1.0, 2.0], &[10.0, -5.0]);
        let input = Tensor::from_vec(1, 1, 1, 2, vec![1.0, 2.0]);
        let out = conv.forward(&input, false);
        assert_eq!(out.data, vec![11.0, 12.0, -3.0, -1.0]);
    }

    #[test]
    fn conv_gradients_match_finite_differences() {
        let mut conv = Conv2d::new(2, 3, 3, 7);
        let input = rand_tensor(2, 2, 5, 5, 11);
        let target = rand_tensor(2, 3, 5, 5, 13);
        grad_check(&mut conv, &input, &target, 2e-2);
    }

    #[test]
    fn pointwise_conv_gradients() {
        let mut conv = Conv2d::new(4, 2, 1, 5);
        let input = rand_tensor(1, 4, 4, 4, 17);
        let target = rand_tensor(1, 2, 4, 4, 19);
        grad_check(&mut conv, &input, &target, 2e-2);
    }

    #[test]
    fn depthwise_gradients_match_finite_differences() {
        let mut conv = DepthwiseConv2d::new(3, 3, 9);
        let input = rand_tensor(2, 3, 4, 4, 23);
        let target = rand_tensor(2, 3, 4, 4, 29);
        grad_check(&mut conv, &input, &target, 2e-2);
    }

    #[test]
    fn depthwise_channels_are_independent() {
        let mut conv = DepthwiseConv2d::new(2, 3, 1);
        let mut input = Tensor::zeros(1, 2, 3, 3);
        input.plane_mut(0, 0).fill(1.0);
        let out = conv.forward(&input, false);
        // channel 1 saw zero input → output is exactly its bias (0)
        assert!(out.plane(0, 1).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn param_counts() {
        let mut conv = Conv2d::new(9, 32, 3, 0);
        assert_eq!(conv.num_params(), 9 * 32 * 9 + 32);
        let mut dw = DepthwiseConv2d::new(32, 3, 0);
        assert_eq!(dw.num_params(), 32 * 9 + 32);
    }

    #[test]
    fn serialization_roundtrip() {
        let mut a = Conv2d::new(2, 2, 3, 42);
        let (w, b) = (a.weights().0.to_vec(), a.weights().1.to_vec());
        let mut c = Conv2d::new(2, 2, 3, 99);
        c.set_weights(&w, &b);
        let input = rand_tensor(1, 2, 4, 4, 1);
        assert_eq!(a.forward(&input, false).data, c.forward(&input, false).data);
    }
}
