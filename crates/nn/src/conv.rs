//! Convolution layers — full (also used as 1×1 pointwise) and depthwise —
//! and the register-tiled kernels every forward and backward pass runs on.
//!
//! Stride is fixed at 1 with "same" zero padding — the CFNN predicts a
//! difference value for *every* grid point, so spatial dims never shrink.
//!
//! # Tiling
//!
//! The forward kernels are *output-stationary*: a strip of adjacent pixels
//! of one row × up to `OCT = 4` output channels lives in accumulators
//! while the loops run over every input channel and kernel tap, and is
//! stored once. Per multiply-add that costs a fraction of a load instead
//! of the two loads and one store of a loop that sweeps a whole plane per
//! tap. A strip is two registers a channel, so a full tile keeps eight
//! add chains in flight: `XT = 16` pixels in the portable and AVX2 bodies
//! (eight 256-bit registers), `XT_512 = 32` in the AVX-512 body (eight
//! 512-bit ones); a lone output channel (depthwise, or a remainder tile)
//! takes `XT_LONE = 64` pixels on every body to get its eight (four)
//! chains. Weights are repacked `[oc tile][ic][ky][kx][oc in tile]`
//! ([`PackedConv`]) so the four broadcasts of one tap are adjacent.
//!
//! Every kernel runs on zero-haloed planes (`Grid`): each row is stored
//! between `k / 2` columns of `+0.0` on either side, so a tap that
//! overhangs the row reads the halo, and every strip — the first and last
//! of a row, and every strip a wide kernel overhangs — runs the same plain
//! loop nest: no lane is masked and no strip is special. (A kernel column
//! reaching more than `w - 1` past every pixel reads none: it is skipped,
//! and the halo is never wider.) Strips cover each row from column 0;
//! there is no scalar path. A row at least a strip wide ends on a whole
//! strip that overlaps its neighbour; a row narrower than the body's
//! strip is one strip of the narrowest width that holds it, its
//! lanes past the row reading on into whatever follows (a `SLACK` past
//! the last plane) and never stored: a 12-pixel training row is one
//! 16-pixel strip on every body. Only interior pixels are stored, so the
//! halo of a plan's and a training workspace's buffers stays zero from
//! layer to layer (see `plan`'s module doc); there is no other layout and
//! no copy into one. A full
//! convolution runs row by row, and in each row every tile of output
//! channels, so the row's source rows stay in L1 while all tiles read
//! them; a pointwise one's strip walks its input channels without a loop
//! over taps, and its planes, when they have no halo, are one long row —
//! its pixels do not see each other.
//!
//! # Precondition: finite weights, no `-0.0` bias
//!
//! Every kernel here assumes that every weight is finite and that no bias
//! is `-0.0`. Then a halo read adds `w · (+0.0) = ±0` to an accumulator
//! that is never `-0.0` (it starts at a bias that is not, and a sum is
//! `-0.0` only when both addends are), which changes nothing: reading the
//! halo is the same as skipping the tap, which is what the contract below
//! asks for. Training meets the precondition unless it diverges — biases
//! start at `+0.0`, and an optimizer step `b - d` or `b + d` never lands on
//! `-0.0` — and `Sequential::try_deserialize` refuses any model that
//! breaks it, so every parsed model meets it, and the writer, which parses
//! the model it ships, stops on a diverged one. The inputs may hold
//! anything.
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
//! elements are in flight together, never the chain of one element. An
//! inference plan's convolution that a `ReLU` follows then applies ReLU's
//! select to the finished sum before storing it, as the separate pass
//! would have after it. The
//! AVX2 and AVX-512 bodies are the same safe Rust compiled with wider
//! registers — `avx2`, or `avx512f`, without `fma` — so they cannot
//! contract the multiply-add: every lane still rounds its product and then
//! its sum. `tests/cfnn_equivalence.rs` compares every [`Kernel`] the host
//! offers against tap-major reference loops with `to_bits()` and prints
//! which bodies those were.
//!
//! Training runs at compression time and its result — the model — is
//! written into the archive, so the backward pass is under the same
//! contract: the same data and seed give the same model bytes on every
//! kernel and host. Its two chains, per sample `b` ascending:
//!
//! * **Weight gradient** of `w[oc][ic][ky][kx]`: `acc` starts at `+0.0`;
//!   over the output pixels `(y, x)` in raster order whose source pixel
//!   `(y + ky - k/2, x + kx - k/2)` lies inside the plane (border taps are
//!   skipped, not added as `· 0`), `acc = acc + go[oc][y][x] * in[ic][..]`
//!   as a rounded multiply then a rounded add; then `grad_w += acc`. The
//!   bias gradient is the plane of `go[oc]` summed in raster order
//!   starting from its first pixel, then `grad_b += sum`.
//! * **Input gradient** of `in[ic][y][x]`: starts at `+0.0`; for `oc`, then
//!   `ky`, then `kx` ascending, `acc = acc + w[oc][ic][ky][kx] *
//!   go[oc][y - ky + k/2][x - kx + k/2]`, taps outside the plane skipped,
//!   zero weights skipped by full convolutions and multiplied through by
//!   depthwise ones — the forward chain with the channel roles swapped
//!   and the offsets mirrored.
//!
//! A weight's chain is a reduction *over pixels*, so its order is fixed
//! and pixels can never share a vector: summing a row eight pixels at a
//! time and folding the lanes afterwards adds the same numbers in a
//! different order and rounds differently. Different weights' chains are
//! independent, so lanes run *across channels* instead. The weight
//! gradient kernel is weight-stationary — the mirror image of the forward
//! one: the `GL = 8` output channels (one 256-bit register a row) × up to
//! `GR = 8` input channels of one tap live in accumulators while the
//! sample's pixels stream past in raster order, every lane keeping its
//! own chain, and are added to `grad_w` once per sample. Per pixel that is
//! one vector load of the output gradient and `GR` broadcasts of the
//! input, which wants both with channels adjacent: the sample's input and
//! output gradient are transposed to pixel-major once per backward pass
//! (and that keeps the update of a tile one straight-line block, which is
//! what lets the compiler hold the accumulators in vector registers).
//! The tiles are eight lanes wide by construction (`GL`), so they have one
//! vector body, the AVX2 one, and the AVX-512 [`Kernel`] runs it. The
//! input gradient is a reduction over channels and taps for each pixel,
//! exactly like the forward pass, and runs on the forward kernels:
//! weights transposed `[ic][oc]` and repacked per batch, zero bias, and
//! the haloed planes of `go` reversed end to end in place — a same-padded
//! correlation of a plane reversed in both axes *is* the correlation with
//! mirrored offsets, read backwards, with the taps still walked in
//! ascending `(ky, kx)` order, and a haloed plane reversed is the reversed
//! plane under the same halo — then the result reversed back.
//!
//! The halo in the gradient chains: the weight gradient reads only
//! interior pixels (its operands are the interior, made pixel-major), and
//! its border taps are skipped by range. The input gradient is a forward
//! pass over weights that are finite whenever the forward's are and a
//! `+0.0` bias, so a halo read there is a skipped tap by the precondition's
//! argument. The ReLU folded into a convolution's store masks the output
//! gradient by `out > 0` on the stored output, which is `pre > 0` on the
//! sum it was selected from, NaN and `-0.0` included (ReLU's select keeps
//! both, and neither is `> 0`): the mask a separate ReLU takes from its
//! input.
//!
//! Why grouping the work changes no bit: every accumulator of the backward
//! pass — a weight's or a bias's gradient — receives one term per sample,
//! that sample's chain, in ascending `b`. Training walks the batch layer by
//! layer and, within a layer, sample by sample, so each accumulator still
//! adds the same terms in the same order; a chain itself depends only on
//! its sample's planes, which no other sample's work touches.

use crate::init;
use crate::optim::{param_set, ParamSet};

/// Output channels per register tile.
const OCT: usize = 4;
/// Pixels per strip of the 256-bit bodies: two registers a channel.
const XT: usize = 16;
/// Pixels per strip of the 512-bit body: again two registers a channel.
const XT_512: usize = 32;
/// Pixels per strip of a lone output channel, on every body.
const XT_LONE: usize = 64;
/// Lanes of a weight-gradient accumulator row: adjacent output channels
/// (channels of a depthwise layer).
const GL: usize = 8;
/// Most input channels per weight-gradient tile, one accumulator row each.
const GR: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// One compiled body of the convolution kernels: portable, AVX2 (256-bit
/// strips) or AVX-512 (512-bit forward and input-gradient strips over the
/// AVX2 weight-gradient tiles). All of them produce bit-identical output;
/// [`Kernel::detect`] picks the fastest the CPU runs, [`Kernel::available`]
/// lists every one it runs for differential tests. Nothing else selects a
/// body: no feature, no environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kernel(Isa); // private field: an x86 `Isa` exists only once its feature was detected

impl Kernel {
    /// The body built for the compile-time target; runs anywhere.
    pub const PORTABLE: Kernel = Kernel(Isa::Portable);

    /// The fastest body this CPU supports: the last of
    /// [`Kernel::available`].
    pub fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // the 512-bit body's weight-gradient tiles are the AVX2 ones
            return if std::arch::is_x86_feature_detected!("avx512f") {
                Kernel(Isa::Avx512)
            } else {
                Kernel(Isa::Avx2)
            };
        }
        Kernel::PORTABLE
    }

    /// Every body this CPU supports, portable first, fastest last.
    pub fn available() -> Vec<Kernel> {
        #[allow(unused_mut)]
        let mut bodies = vec![Kernel::PORTABLE];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            bodies.push(Kernel(Isa::Avx2));
            if std::arch::is_x86_feature_detected!("avx512f") {
                bodies.push(Kernel(Isa::Avx512));
            }
        }
        bodies
    }

    /// Short name for test and benchmark output.
    pub fn name(self) -> &'static str {
        match self.0 {
            Isa::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => "avx512",
        }
    }
}

/// A full convolution's weights repacked for the tiled kernel: immutable,
/// `Send + Sync`, built once per inference plan (or per training batch,
/// where the optimizer has just moved the weights).
#[derive(Debug, Clone)]
pub(crate) struct PackedConv {
    in_c: usize,
    out_c: usize,
    k: usize,
    /// `[oc tile][ic][ky][kx][oc in tile]`; the last tile is `out_c % OCT`
    /// wide when that is non-zero.
    weight: Vec<f32>,
    bias: Vec<f32>,
    /// Some weight is exactly ±0: take the body that skips such taps.
    has_zero: bool,
    /// Store every output as `ReLU` would leave it: `if v < 0.0 { 0.0 }
    /// else { v }` on the finished sum, the select a separate ReLU step
    /// makes, so NaN and `-0.0` pass as they would through that step
    /// (`f32::max` would turn NaN into 0). Set by an inference plan for a
    /// convolution a `ReLU` directly follows.
    pub(crate) relu: bool,
}

impl PackedConv {
    /// Repack `[out_c][in_c][k][k]` weights. Panics on a length mismatch
    /// or an even kernel edge. The output is the contract's only for
    /// finite weights and no `-0.0` bias (see the module doc).
    pub(crate) fn new(in_c: usize, out_c: usize, k: usize, weight: &[f32], bias: &[f32]) -> Self {
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
            relu: false,
        }
    }

    /// Output channels.
    pub(crate) fn out_channels(&self) -> usize {
        self.out_c
    }

    /// The layouts the kernel runs on: a pointwise convolution's pixels do
    /// not see each other, so planes with no halo are each one long row —
    /// all strips, however narrow the rows.
    fn grids(&self, src_g: Grid, dst_g: Grid) -> (Grid, Grid) {
        if self.k == 1 && src_g.pad == 0 && dst_g.pad == 0 {
            (src_g.flat(), dst_g.flat())
        } else {
            (src_g, dst_g)
        }
    }

    /// Convolve one sample from planes laid out as `src_g` into planes laid
    /// out as `dst_g` (same `h × w`). `src` holds `in_c` planes and their
    /// [`SLACK`], with zero halos at least [`reach`] wide; only `dst`'s
    /// interior pixels are written.
    pub(crate) fn run_on(
        &self,
        kernel: Kernel,
        src: &[f32],
        src_g: Grid,
        dst: &mut [f32],
        dst_g: Grid,
    ) {
        let (src_g, dst_g) = self.grids(src_g, dst_g);
        let s = Sample::new(self.k, src, src_g, dst, dst_g);
        match kernel.0 {
            Isa::Portable => conv_sample::<XT>(self, s),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Isa::Avx2` is only constructed by `Kernel` after AVX2 was detected
            Isa::Avx2 => unsafe { conv_sample_avx2(self, s) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Isa::Avx512` is only constructed by `Kernel` after AVX-512F was detected
            Isa::Avx512 => unsafe { conv_sample_avx512(self, s) },
        }
    }
}

/// Where one sample's planes lie in a buffer: `h` rows of `w` pixels, each
/// stored between `pad` halo columns on either side, so a row takes
/// `w + 2·pad` values and a plane `h` rows of them. A kernel reads the
/// halo of its source as `+0.0` — every buffer a kernel reads keeps it
/// zero — and stores only into its destination's interior pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Grid {
    pub(crate) h: usize,
    pub(crate) w: usize,
    pub(crate) pad: usize,
}

/// Columns a `k`-wide kernel reads past either end of a `w`-wide row:
/// `k / 2`, but no more than `w - 1` — a tap that reaches further from
/// every pixel of the row never lands on one, and is skipped ([`Taps`]).
pub(crate) fn reach(k: usize, w: usize) -> usize {
    (k / 2).min(w.saturating_sub(1))
}

/// Values a source buffer holds past its last plane. A strip wider than
/// its row — a row narrower than the strip — reads on past the row's end,
/// by less than a strip; the lanes that do are never stored.
pub(crate) const SLACK: usize = XT_LONE;

impl Grid {
    /// Planes of `h × w` with the halo a `k × k` kernel reads: [`reach`].
    pub(crate) fn new(h: usize, w: usize, k: usize) -> Self {
        let pad = reach(k, w);
        Grid { h, w, pad }
    }

    /// Planes of `h × w` with no halo: plain `h·w`-value planes.
    pub(crate) fn dense(h: usize, w: usize) -> Self {
        Grid { h, w, pad: 0 }
    }

    /// These planes as one long row each if they have no halo, for work
    /// whose pixels do not see each other: the same values in the same
    /// order, with no row ends.
    pub(crate) fn flat(self) -> Self {
        if self.pad == 0 {
            Grid::dense(1, self.h * self.w)
        } else {
            self
        }
    }

    pub(crate) fn stride(self) -> usize {
        self.w + 2 * self.pad
    }

    /// Values of one plane, halo included.
    pub(crate) fn plane(self) -> usize {
        self.h * self.stride()
    }

    /// Values of a source buffer of `c` planes: the planes and [`SLACK`].
    pub(crate) fn len(self, c: usize) -> usize {
        c * self.plane() + SLACK
    }

    /// The interior pixels of every plane of `planes`, a row at a time.
    pub(crate) fn rows(self, planes: &[f32]) -> impl Iterator<Item = &[f32]> {
        planes
            .chunks_exact(self.stride().max(1))
            .map(move |row| &row[self.pad..][..self.w])
    }

    /// [`Grid::rows`], writable.
    pub(crate) fn rows_mut(self, planes: &mut [f32]) -> impl Iterator<Item = &mut [f32]> {
        planes
            .chunks_exact_mut(self.stride().max(1))
            .map(move |row| &mut row[self.pad..][..self.w])
    }
}

/// Depthwise convolution of one sample between laid-out planes, as
/// [`PackedConv::run_on`]: `c` planes, one `k × k` kernel (`weight[c][k][k]`)
/// and bias per plane. Needs no repacking — a plane is a one-in, one-out
/// convolution — and, like the layer always has, multiplies zero weights
/// through instead of skipping them. Same precondition as
/// [`PackedConv::new`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn depthwise_on(
    kernel: Kernel,
    k: usize,
    weight: &[f32],
    bias: &[f32],
    src: &[f32],
    src_g: Grid,
    dst: &mut [f32],
    dst_g: Grid,
) {
    assert!(k % 2 == 1, "kernel edge must be odd for same padding");
    assert_eq!(weight.len(), bias.len() * k * k, "depthwise weight count");
    let s = Sample::new(k, src, src_g, dst, dst_g);
    match kernel.0 {
        Isa::Portable => depthwise_sample::<XT>(k, weight, bias, s),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Isa::Avx2` is only constructed by `Kernel` after AVX2 was detected
        Isa::Avx2 => unsafe { depthwise_sample_avx2(k, weight, bias, s) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Isa::Avx512` is only constructed by `Kernel` after AVX-512F was detected
        Isa::Avx512 => unsafe { depthwise_sample_avx512(k, weight, bias, s) },
    }
}

/// One sample's operands: source planes and their layout, destination
/// planes and theirs.
struct Sample<'a> {
    src: &'a [f32],
    src_g: Grid,
    dst: &'a mut [f32],
    dst_g: Grid,
}

impl<'a> Sample<'a> {
    /// Panics unless both layouts are of one `h × w` and `src`'s halo is as
    /// wide as a `k`-wide kernel reads.
    fn new(k: usize, src: &'a [f32], src_g: Grid, dst: &'a mut [f32], dst_g: Grid) -> Self {
        assert_eq!((src_g.h, src_g.w), (dst_g.h, dst_g.w), "plane shape");
        assert!(
            src_g.pad >= reach(k, src_g.w),
            "halo narrower than the kernel"
        );
        Sample {
            src,
            src_g,
            dst,
            dst_g,
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn conv_sample_avx2(p: &PackedConv, s: Sample) {
    conv_sample::<XT>(p, s)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn conv_sample_avx512(p: &PackedConv, s: Sample) {
    conv_sample::<XT_512>(p, s)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn depthwise_sample_avx2(k: usize, weight: &[f32], bias: &[f32], s: Sample) {
    depthwise_sample::<XT>(k, weight, bias, s)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn depthwise_sample_avx512(k: usize, weight: &[f32], bias: &[f32], s: Sample) {
    depthwise_sample::<XT_512>(k, weight, bias, s)
}

// The bodies below are `inline(always)` so that each entry point above —
// portable or `target_feature` — compiles its own copy with its own
// register width and its own strip width `W`.

/// Row by row, and in each row every tile of `OCT` output channels: the
/// row's source rows stay in L1 while all tiles read them.
#[inline(always)]
fn conv_sample<const W: usize>(p: &PackedConv, s: Sample) {
    let kk = p.k * p.k;
    for y in 0..s.src_g.h {
        for oc0 in (0..p.out_c).step_by(OCT) {
            let oct = OCT.min(p.out_c - oc0);
            let wts = &p.weight[oc0 * p.in_c * kk..][..oct * p.in_c * kk];
            let tap = Taps::new(wts, p.in_c, p.k, s.src, s.src_g, y);
            let bias = &p.bias[oc0..oc0 + oct];
            let (dst, dst_g) = (&mut s.dst[oc0 * s.dst_g.plane()..], s.dst_g);
            macro_rules! tile {
                ($oct:literal, $skip:literal, $relu:literal) => {
                    row::<W, $oct, $skip, $relu>(&tap, bias, dst, dst_g, y)
                };
                ($oct:literal) => {
                    match (p.has_zero, p.relu) {
                        (true, true) => tile!($oct, true, true),
                        (true, false) => tile!($oct, true, false),
                        (false, true) => tile!($oct, false, true),
                        (false, false) => tile!($oct, false, false),
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
}

#[inline(always)]
fn depthwise_sample<const W: usize>(k: usize, weight: &[f32], bias: &[f32], s: Sample) {
    let kk = k * k;
    for (c, b) in bias.iter().enumerate() {
        let src = &s.src[c * s.src_g.plane()..];
        let dst = &mut s.dst[c * s.dst_g.plane()..];
        let wts = &weight[c * kk..(c + 1) * kk];
        for y in 0..s.src_g.h {
            let tap = Taps::new(wts, 1, k, src, s.src_g, y);
            row::<W, 1, false, false>(&tap, std::slice::from_ref(b), dst, s.dst_g, y);
        }
    }
}

/// Row `y` of `dst`'s `T` output planes; `SKIP` leaves out taps whose
/// weight is zero, `RELU` stores each finished sum through ReLU's select.
/// Strips of one width cover the row from column 0: the body's widest for
/// the tile — [`XT_LONE`] for a lone output channel, else `W` (two
/// registers a channel) — or, for a row narrower than `W`, the narrowest
/// of [`XT`] and `W` that holds it. A row at least a strip wide ends on a
/// whole strip that overlaps its neighbour (a pixel computed twice comes
/// out the same); a narrower row is one strip whose lanes past the row are
/// not stored.
#[inline(always)]
fn row<const W: usize, const T: usize, const SKIP: bool, const RELU: bool>(
    tap: &Taps,
    bias: &[f32],
    dst: &mut [f32],
    dst_g: Grid,
    y: usize,
) {
    let (w, plane) = (dst_g.w, dst_g.plane());
    let at = y * dst_g.stride() + dst_g.pad;
    macro_rules! strips {
        ($n:expr) => {{
            // a row narrower than the strip: one strip, its first `w` lanes
            // stored
            let stored = w.min($n);
            for x0 in (0..w).step_by($n).map(|x0| x0.min(w - stored)) {
                let at = at + x0;
                strip::<{ $n }, T, SKIP, RELU>(tap, bias, x0, dst, plane, at, stored);
            }
        }};
    }
    if w <= XT {
        strips!(XT)
    } else if w <= W || T > 1 {
        strips!(W)
    } else {
        // one output channel (depthwise, or a remainder tile) fills a
        // quarter of a tile's registers, whose add chains wait on each
        // other: a longer strip keeps as many chains in flight as a full
        // tile does
        strips!(XT_LONE)
    }
}

/// What every output element of row `y` of one tile shares: the operands,
/// and the kernel rows and columns that can fall inside the plane.
struct Taps<'a> {
    wts: &'a [f32],
    src: &'a [f32],
    in_c: usize,
    k: usize,
    /// Values a source plane and a source row take.
    plane: usize,
    stride: usize,
    /// Flat index, in source plane 0, of the column tap `kx.start` reads
    /// for pixel 0 of row `y`.
    at: usize,
    /// `ky` range whose source row `y + ky - k / 2` exists.
    ky: std::ops::Range<usize>,
    /// `kx` range whose source column `x + kx - k / 2` is in the row for some `x`.
    kx: std::ops::Range<usize>,
}

impl<'a> Taps<'a> {
    #[inline(always)]
    fn new(wts: &'a [f32], in_c: usize, k: usize, src: &'a [f32], src_g: Grid, y: usize) -> Self {
        let (pad, r) = (k / 2, reach(k, src_g.w));
        Taps {
            wts,
            src,
            in_c,
            k,
            plane: src_g.plane(),
            stride: src_g.stride(),
            at: y * src_g.stride() + src_g.pad - r,
            ky: pad.saturating_sub(y)..k.min(src_g.h + pad - y),
            kx: pad - r..pad + r + 1,
        }
    }

    /// Input plane `ic`'s source row under kernel row `ky`, from the column
    /// tap `kx.start` reads for pixel 0 (inside the halo) to the end of the
    /// buffer.
    #[inline(always)]
    fn row(&self, ic: usize, ky: usize) -> &'a [f32] {
        let pad = self.k / 2;
        &self.src[ic * self.plane + self.at + ky * self.stride - pad * self.stride..]
    }

    /// The tile's `T` weights of one tap.
    #[inline(always)]
    fn weights<const T: usize>(&self, ic: usize, ky: usize, kx: usize) -> &'a [f32; T] {
        self.wts[((ic * self.k + ky) * self.k + kx) * T..][..T]
            .try_into()
            .expect("slice of length T")
    }
}

/// `N` pixels from column `x0` × `T` output channels, of which the first
/// `stored` go to `dst` from `at` in each of its `T` planes (`plane` values
/// apart). Every tap of every lane reads its source row or the row's halo
/// — under the module's precondition (finite weights, no `-0.0` bias) a
/// halo read is the same as a skipped tap — except the lanes of a strip
/// wider than its row, which read on into whatever follows the row and
/// are not stored. `RELU` passes the finished sums through ReLU's select.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn strip<const N: usize, const T: usize, const SKIP: bool, const RELU: bool>(
    tap: &Taps,
    bias: &[f32],
    x0: usize,
    dst: &mut [f32],
    plane: usize,
    at: usize,
    stored: usize,
) {
    let mut acc = [[0.0f32; N]; T];
    for o in 0..T {
        acc[o] = [bias[o]; N];
    }
    if tap.k == 1 {
        // pointwise: one tap an input channel, and no loop over taps
        for (ic, wv) in tap.wts.chunks_exact(T).enumerate() {
            let x: &[f32; N] = tap.src[ic * tap.plane + tap.at + x0..][..N]
                .try_into()
                .expect("slice of length N");
            add_tap::<N, T, SKIP>(&mut acc, wv.try_into().expect("T weights"), x);
        }
    } else {
        for ic in 0..tap.in_c {
            for ky in tap.ky.clone() {
                let row = tap.row(ic, ky);
                for (dx, kx) in tap.kx.clone().enumerate() {
                    let x: &[f32; N] = row[x0 + dx..][..N].try_into().expect("slice of length N");
                    add_tap::<N, T, SKIP>(&mut acc, tap.weights(ic, ky, kx), x);
                }
            }
        }
    }
    if RELU {
        relu_lanes(&mut acc);
    }
    for o in 0..T {
        let out = &mut dst[o * plane + at..][..stored];
        if stored == N {
            out.copy_from_slice(&acc[o]);
        } else {
            // (a whole-array copy first keeps `acc` in registers up to here)
            let lanes = acc[o];
            out.copy_from_slice(&lanes[..stored]);
        }
    }
}

/// One tap on every output channel of a strip: `acc[o][j] = acc[o][j] +
/// wv[o] * x[j]`, a rounded multiply then a rounded add.
#[inline(always)]
fn add_tap<const N: usize, const T: usize, const SKIP: bool>(
    acc: &mut [[f32; N]; T],
    wv: &[f32; T],
    x: &[f32; N],
) {
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

/// ReLU on every finished sum of a strip, by the select `relu_in_place`
/// makes: a NaN or `-0.0` sum is kept.
#[inline(always)]
fn relu_lanes<const N: usize, const T: usize>(acc: &mut [[f32; N]; T]) {
    for o in 0..T {
        for j in 0..N {
            let v = acc[o][j];
            acc[o][j] = if v < 0.0 { 0.0 } else { v };
        }
    }
}

/// The interior pixels of `c` planes laid out as `g`, channels adjacent:
/// `dst[p * cp + ch]`, `p` the raster position. Returns `cp`, the channel
/// count rounded up to whole [`GL`] lanes; the padding lanes are zero.
fn pixel_major(src: &[f32], c: usize, g: Grid, dst: &mut Vec<f32>) -> usize {
    let cp = c.next_multiple_of(GL);
    dst.clear();
    dst.resize(g.h * g.w * cp, 0.0);
    for (ch, plane) in src.chunks_exact(g.plane()).take(c).enumerate() {
        for (y, row) in g.rows(plane).enumerate() {
            let at = &mut dst[y * g.w * cp + ch..];
            for (x, &v) in row.iter().enumerate() {
                at[x * cp] = v;
            }
        }
    }
    cp
}

/// Every plane of `data` reversed end to end: a haloed plane's interior
/// reversed in both axes, its halo onto its halo.
fn reverse_planes(data: &mut [f32], plane: usize) {
    for p in data.chunks_exact_mut(plane) {
        p.reverse();
    }
}

/// `grad_b[c] +=` the sum of channel `c`'s plane in raster order, every
/// channel its own chain started from the first pixel; `go_t` is
/// pixel-major with `cp` lanes a pixel.
fn bias_grad(go_t: &[f32], cp: usize, grad_b: &mut [f32]) {
    let mut pixels = go_t.chunks_exact(cp);
    let Some(first) = pixels.next() else {
        return;
    };
    let mut sum = first.to_vec();
    for px in pixels {
        for (s, &g) in sum.iter_mut().zip(px) {
            *s += g;
        }
    }
    for (gb, s) in grad_b.iter_mut().zip(sum) {
        *gb += s;
    }
}

/// The output pixels along one axis of extent `n` whose source under
/// kernel offset `t` (of `k`) lies inside the plane.
#[inline(always)]
fn tap_range(t: usize, k: usize, n: usize) -> std::ops::Range<usize> {
    let pad = k / 2;
    pad.saturating_sub(t)..n.min((n + pad).saturating_sub(t))
}

/// One sample as the weight-gradient kernels read it: the layer's input
/// and the output gradient, both pixel-major (`icp` / `ocp` lanes a
/// pixel), and the geometry.
struct GradOperands<'a> {
    src_t: &'a [f32],
    icp: usize,
    go_t: &'a [f32],
    ocp: usize,
    k: usize,
    h: usize,
    w: usize,
}

impl GradOperands<'_> {
    /// The pixel pairs tap `(ky, kx)` multiplies, in raster order, as runs
    /// of adjacent pixels: `(first source pixel, first output pixel,
    /// length)`, one run per output row the tap reaches.
    #[inline(always)]
    fn runs(&self, ky: usize, kx: usize) -> impl Iterator<Item = (usize, usize, usize)> {
        let (w, pad) = (self.w, self.k / 2);
        let xs = tap_range(kx, self.k, w);
        let ys = if xs.is_empty() {
            0..0
        } else {
            tap_range(ky, self.k, self.h)
        };
        ys.map(move |y| {
            let src = (y + ky - pad) * w + xs.start + kx - pad;
            (src, y * w + xs.start, xs.len())
        })
    }
}

/// One layer's backward pass over a batch: `n` samples of the layer's
/// input planes `x` and of the gradient of its output `go`, and — when the
/// layer below reads it — where the gradient of its input goes, `gi`. All
/// are laid out as `g`, whole samples one after another, and `go` holds
/// the slack a forward kernel reads past its last plane.
pub(crate) struct Backward<'a> {
    pub(crate) kernel: Kernel,
    pub(crate) g: Grid,
    pub(crate) n: usize,
    pub(crate) x: &'a [f32],
    pub(crate) go: &'a mut [f32],
    pub(crate) gi: Option<&'a mut [f32]>,
    /// Scratch for a sample's pixel-major operands.
    pub(crate) operands: &'a mut [Vec<f32>; 2],
}

impl Backward<'_> {
    /// A convolution's backward pass from `in_c` to `out_c` channels with a
    /// `k`-wide kernel. Every sample's parameter gradients, in batch order:
    /// input and output gradient made pixel-major, the bias gradient added,
    /// and `weight_grad` handed the operands. Then, when asked for, the
    /// input gradient on a forward kernel: `go`'s planes are reversed in
    /// place, `correlate(src, dst)` runs over each sample, and the result is
    /// reversed back.
    fn run(
        self,
        (in_c, out_c, k): (usize, usize, usize),
        grad_b: &mut [f32],
        mut weight_grad: impl FnMut(&GradOperands),
        mut correlate: impl FnMut(&[f32], &mut [f32]),
    ) {
        let Backward {
            g,
            n,
            x,
            go,
            gi,
            operands: [src_t, go_t],
            ..
        } = self;
        let (ni, no) = (in_c * g.plane(), out_c * g.plane());
        for s in 0..n {
            let icp = pixel_major(&x[s * ni..][..ni], in_c, g, src_t);
            let ocp = pixel_major(&go[s * no..][..no], out_c, g, go_t);
            let ops = GradOperands {
                src_t: src_t.as_slice(),
                icp,
                go_t: go_t.as_slice(),
                ocp,
                k,
                h: g.h,
                w: g.w,
            };
            bias_grad(ops.go_t, ops.ocp, grad_b);
            weight_grad(&ops);
        }
        let Some(gi) = gi else {
            return;
        };
        reverse_planes(&mut go[..n * no], g.plane());
        for s in 0..n {
            correlate(&go[s * no..], &mut gi[s * ni..][..ni]);
        }
        reverse_planes(&mut gi[..n * ni], g.plane());
    }
}

/// A full convolution's backward pass (see [`Backward`]; `weight` is the
/// `[out_c][in_c][k][k]` block `p` was packed from).
pub(crate) fn conv_backward(
    b: Backward,
    p: &PackedConv,
    weight: &[f32],
    grad_w: &mut [f32],
    grad_b: &mut [f32],
) {
    let (in_c, out_c, k, kernel, g) = (p.in_c, p.out_c, p.k, b.kernel, b.g);
    // the forward kernel with the channel roles swapped
    let transposed = b.gi.is_some().then(|| {
        let kk = k * k;
        let mut t = vec![0.0; weight.len()];
        for (at, taps) in weight.chunks_exact(kk).enumerate() {
            let (oc, ic) = (at / in_c, at % in_c);
            t[(ic * out_c + oc) * kk..][..kk].copy_from_slice(taps);
        }
        PackedConv::new(out_c, in_c, k, &t, &vec![0.0; in_c])
    });
    b.run(
        (in_c, out_c, k),
        grad_b,
        |ops| conv_grad_w(kernel, ops, in_c, out_c, grad_w),
        |src, dst| {
            let t = transposed.as_ref().expect("packed when asked for");
            t.run_on(kernel, src, g, dst, g)
        },
    );
}

/// A depthwise convolution's backward pass (see [`Backward`]; `weight` is
/// `[c][k][k]`).
pub(crate) fn depthwise_backward(
    b: Backward,
    k: usize,
    weight: &[f32],
    grad_w: &mut [f32],
    grad_b: &mut [f32],
) {
    let (c, kernel, g) = (grad_b.len(), b.kernel, b.g);
    let zero_bias = vec![0.0; c];
    b.run(
        (c, c, k),
        grad_b,
        |ops| depthwise_grad_w(kernel, ops, c, grad_w),
        |src, dst| depthwise_on(kernel, k, weight, &zero_bias, src, g, dst, g),
    );
}

/// One sample's contribution to a full convolution's weight gradient
/// (`[out_c][in_c][k][k]`).
fn conv_grad_w(kernel: Kernel, ops: &GradOperands, in_c: usize, out_c: usize, grad_w: &mut [f32]) {
    match kernel.0 {
        Isa::Portable => conv_grad_w_sample(ops, in_c, out_c, grad_w),
        #[cfg(target_arch = "x86_64")]
        // eight lanes across channels by construction: one body for both
        // SAFETY: either `Isa` is only constructed by `Kernel` after AVX2 was detected
        Isa::Avx2 | Isa::Avx512 => unsafe { conv_grad_w_sample_avx2(ops, in_c, out_c, grad_w) },
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn conv_grad_w_sample_avx2(ops: &GradOperands, in_c: usize, out_c: usize, grad_w: &mut [f32]) {
    conv_grad_w_sample(ops, in_c, out_c, grad_w)
}

#[inline(always)]
fn conv_grad_w_sample(ops: &GradOperands, in_c: usize, out_c: usize, grad_w: &mut [f32]) {
    let k = ops.k;
    for oc0 in (0..out_c).step_by(GL) {
        for ic0 in (0..in_c).step_by(GR) {
            for ky in 0..k {
                for kx in 0..k {
                    let mut flush = |acc: &[[f32; GL]]| {
                        for (r, row) in acc.iter().enumerate() {
                            for (l, &a) in row.iter().take(out_c - oc0).enumerate() {
                                grad_w[(((oc0 + l) * in_c + ic0 + r) * k + ky) * k + kx] += a;
                            }
                        }
                    };
                    macro_rules! tile {
                        ($($r:literal)*) => {
                            match GR.min(in_c - ic0) {
                                $($r => flush(&grad_w_tile::<$r>(ops, ic0, oc0, ky, kx)),)*
                                _ => unreachable!("a tile holds 1..=GR input channels"),
                            }
                        };
                    }
                    tile!(1 2 3 4 5 6 7 8);
                }
            }
        }
    }
}

/// One tap's weight gradients for `R` input channels from `ic0` × [`GL`]
/// output channels from `oc0`: `R × GL` accumulators stay put while the
/// sample's pixels stream past in raster order.
#[inline(always)]
fn grad_w_tile<const R: usize>(
    ops: &GradOperands,
    ic0: usize,
    oc0: usize,
    ky: usize,
    kx: usize,
) -> [[f32; GL]; R] {
    let mut acc = [[0.0f32; GL]; R];
    for (src, out, len) in ops.runs(ky, kx) {
        let src = &ops.src_t[src * ops.icp + ic0..];
        let go = &ops.go_t[out * ops.ocp + oc0..];
        for j in 0..len {
            let sv: &[f32; R] = src[j * ops.icp..][..R]
                .try_into()
                .expect("slice of length R");
            let gv: &[f32; GL] = go[j * ops.ocp..][..GL]
                .try_into()
                .expect("slice of length GL");
            for r in 0..R {
                for l in 0..GL {
                    acc[r][l] += gv[l] * sv[r];
                }
            }
        }
    }
    acc
}

/// One sample's contribution to a depthwise convolution's weight
/// gradient (`[c][k][k]`); `ops.icp == ops.ocp`.
fn depthwise_grad_w(kernel: Kernel, ops: &GradOperands, c: usize, grad_w: &mut [f32]) {
    match kernel.0 {
        Isa::Portable => depthwise_grad_w_sample(ops, c, grad_w),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: either `Isa` is only constructed by `Kernel` after AVX2 was detected
        Isa::Avx2 | Isa::Avx512 => unsafe { depthwise_grad_w_sample_avx2(ops, c, grad_w) },
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn depthwise_grad_w_sample_avx2(ops: &GradOperands, c: usize, grad_w: &mut [f32]) {
    depthwise_grad_w_sample(ops, c, grad_w)
}

#[inline(always)]
fn depthwise_grad_w_sample(ops: &GradOperands, c: usize, grad_w: &mut [f32]) {
    let (k, cp) = (ops.k, ops.ocp);
    for c0 in (0..c).step_by(GL) {
        for ky in 0..k {
            for kx in 0..k {
                let mut acc = [0.0f32; GL];
                for (src, out, len) in ops.runs(ky, kx) {
                    let src = &ops.src_t[src * cp + c0..];
                    let go = &ops.go_t[out * cp + c0..];
                    for j in 0..len {
                        let sv: &[f32; GL] =
                            src[j * cp..][..GL].try_into().expect("slice of length GL");
                        let gv: &[f32; GL] =
                            go[j * cp..][..GL].try_into().expect("slice of length GL");
                        for l in 0..GL {
                            acc[l] += gv[l] * sv[l];
                        }
                    }
                }
                for (l, &a) in acc.iter().take(c - c0).enumerate() {
                    grad_w[((c0 + l) * k + ky) * k + kx] += a;
                }
            }
        }
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
    // gradient accumulators: empty until the parameters are first asked for
    grad_w: Vec<f32>,
    grad_b: Vec<f32>,
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
        })
    }

    /// Direct access to weights (serialization).
    pub fn weights(&self) -> (&[f32], &[f32]) {
        (&self.weight, &self.bias)
    }

    /// The weights repacked for the tiled kernel.
    pub(crate) fn packed(&self) -> PackedConv {
        PackedConv::new(self.in_c, self.out_c, self.k, &self.weight, &self.bias)
    }

    /// Weights and biases with their gradient accumulators.
    pub(crate) fn params(&mut self) -> [ParamSet<'_>; 2] {
        [
            param_set(&mut self.weight, &mut self.grad_w),
            param_set(&mut self.bias, &mut self.grad_b),
        ]
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
    // gradient accumulators: empty until the parameters are first asked for
    grad_w: Vec<f32>,
    grad_b: Vec<f32>,
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
        })
    }

    /// Direct access to weights (serialization).
    pub fn weights(&self) -> (&[f32], &[f32]) {
        (&self.weight, &self.bias)
    }

    /// Weights and biases with their gradient accumulators.
    pub(crate) fn params(&mut self) -> [ParamSet<'_>; 2] {
        [
            param_set(&mut self.weight, &mut self.grad_w),
            param_set(&mut self.bias, &mut self.grad_b),
        ]
    }
}

#[cfg(test)]
mod tests {
    use crate::train::tests::{forward, rand};
    use crate::Sequential;

    /// A one-convolution network with weights `w` and biases `b`.
    fn conv(in_c: usize, out_c: usize, k: usize, w: &[f32], b: &[f32]) -> Sequential {
        let mut net = Sequential::new().conv(in_c, out_c, k, 0);
        for (p, v) in net.params().into_iter().zip([w, b]) {
            p.values.copy_from_slice(v);
        }
        net
    }

    #[test]
    fn conv_identity_kernel_passes_through() {
        let mut w = vec![0.0f32; 9];
        w[4] = 1.0; // centre tap
        let x = rand(25, 3);
        assert_eq!(forward(&conv(1, 1, 3, &w, &[0.0]), (1, 5, 5), &x), x);
    }

    #[test]
    fn conv_shift_kernel_shifts() {
        let mut w = vec![0.0f32; 9];
        w[3] = 1.0; // tap (ky=1, kx=0) → reads (y, x-1)
        let out = forward(&conv(1, 1, 3, &w, &[0.0]), (1, 1, 4), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(out, [0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn conv_bias_applies() {
        let net = conv(1, 2, 1, &[1.0, 2.0], &[10.0, -5.0]);
        let out = forward(&net, (1, 1, 2), &[1.0, 2.0]);
        assert_eq!(out, [11.0, 12.0, -3.0, -1.0]);
    }

    #[test]
    fn depthwise_channels_are_independent() {
        let net = Sequential::new().depthwise(2, 3, 1);
        let mut x = vec![0.0; 2 * 9];
        x[..9].fill(1.0);
        let out = forward(&net, (2, 3, 3), &x);
        // channel 1 saw zero input → output is exactly its bias (0)
        assert!(out[9..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn param_counts() {
        assert_eq!(
            Sequential::new().conv(9, 32, 3, 0).num_params(),
            9 * 32 * 9 + 32
        );
        assert_eq!(
            Sequential::new().depthwise(32, 3, 0).num_params(),
            32 * 9 + 32
        );
    }
}
