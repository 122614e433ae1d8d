//! CFNN training pipeline (paper §III-B, Fig. 5 left).
//!
//! Training uses *original* (not prequantized, not decompressed) data so one
//! model serves every error bound (paper §III-D2). Patches of normalized
//! backward differences are sampled away from array borders (where the
//! difference convention pads with zeros) and fitted by MSE with Adam.
//!
//! Two halves: [`train_cfnn`] turns fields into difference channels and
//! their normalizers — one streaming pass per field, and each patch
//! differenced and normalized straight from the original samples, so no
//! whole-volume difference or normalized copy is ever allocated — and
//! [`fit_patches`] samples the windows and runs the one training loop,
//! whatever the channels hold (`crates/bench`'s ablation fits raw values
//! through it).

use cfc_nn::{mse_loss, Adam, Sequential, TrainWorkspace};
use cfc_tensor::{Field, Normalizer, Shape};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::config::{CfnnSpec, TrainConfig};
use crate::diffnet;

/// Per-epoch training loss history (reproduces paper Fig. 5).
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean MSE per epoch.
    pub losses: Vec<f32>,
    /// Number of patches in the training set.
    pub n_patches: usize,
}

impl TrainReport {
    /// True when the loss history is (noisily) decreasing: final loss below
    /// a fraction of the initial loss.
    pub fn converged(&self, factor: f32) -> bool {
        match (self.losses.first(), self.losses.last()) {
            (Some(&first), Some(&last)) => last <= first * factor,
            _ => false,
        }
    }
}

/// A trained CFNN bundle: network + the normalizers both sides must apply.
pub struct TrainedCfnn {
    /// The network.
    pub net: Sequential,
    /// The widths it was built at. The model header records them; the
    /// decoder rebuilds the network from its layer records.
    pub spec: CfnnSpec,
    /// Input-channel normalizers (`n_anchors × ndim`).
    pub input_norms: Vec<Normalizer>,
    /// Output-channel (target difference) normalizers (`ndim`).
    pub target_norms: Vec<Normalizer>,
    /// Loss history.
    pub report: TrainReport,
}

/// Train a CFNN at `spec`'s widths to predict the target field's backward
/// differences from the anchors' backward differences.
pub fn train_cfnn(
    spec: &CfnnSpec,
    cfg: &TrainConfig,
    anchors: &[&Field],
    target: &Field,
) -> TrainedCfnn {
    let shape = target.shape();
    assert!(
        anchors.iter().all(|a| a.shape() == shape),
        "anchor/target shape mismatch"
    );

    // channel layout: anchor-major, then axis
    let x_channels: Vec<DiffChannel> = anchors.iter().flat_map(|a| diff_channels(a)).collect();
    let y_channels = diff_channels(target);
    let pp = cfg.patch * cfg.patch;
    let (net, report) = fit_patches(spec, cfg, shape, anchors.len(), |k, r0, c0, x, y| {
        for (channels, planes) in [(&x_channels, x), (&y_channels, y)] {
            for (ch, plane) in channels.iter().zip(planes.chunks_exact_mut(pp)) {
                ch.gather(k, r0, c0, cfg.patch, plane);
            }
        }
    });

    TrainedCfnn {
        net,
        spec: *spec,
        input_norms: x_channels.iter().map(|ch| ch.norm).collect(),
        target_norms: y_channels.iter().map(|ch| ch.norm).collect(),
        report,
    }
}

/// Sample `cfg.n_patches` windows of `cfg.patch`² from the 2-D slices of
/// `shape` and fit a freshly built CFNN — `n_anchors` anchors of
/// `shape.ndim()`-D data — to them.
///
/// `gather(k, r0, c0, x, y)` fills one window's `n_anchors × ndim` input
/// planes and `ndim` target planes (channel-major, `patch`²
/// values each) from slice `k`, rows from `r0`, columns from `c0`. Windows
/// never touch index 0 of an axis that has more than one sample.
///
/// One `StdRng` seeded with `cfg.seed` draws every window (`k`, `r0`, `c0`
/// in that order) and then every epoch's shuffle, so the draw order — and
/// with it the trained model — is a function of `cfg` and the data alone.
/// Panics on a configuration [`TrainConfig::validate`] rejects, a patch
/// that leaves no border inside a slice, or a network with an activation
/// wider than [`cfc_nn::MAX_CHANNELS`] (the archive writer refuses such a
/// plan before it samples anything).
pub fn fit_patches(
    spec: &CfnnSpec,
    cfg: &TrainConfig,
    shape: Shape,
    n_anchors: usize,
    mut gather: impl FnMut(usize, usize, usize, &mut [f32], &mut [f32]),
) -> (Sequential, TrainReport) {
    if let Err(why) = cfg.validate() {
        panic!("{why}");
    }
    let (n_slices, rows, cols) = diffnet::slice_geometry(shape);
    let p = cfg.patch;
    assert!(
        p + 1 < rows && p + 1 < cols,
        "patch {p} too large for {rows}x{cols} slices"
    );
    let ndim = shape.ndim();
    let (in_c, out_c) = (n_anchors * ndim, ndim);
    let (in_len, out_len) = (in_c * p * p, out_c * p * p);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let mut xs = vec![0.0f32; cfg.n_patches * in_len];
    let mut ys = vec![0.0f32; cfg.n_patches * out_len];
    for (x, y) in xs
        .chunks_exact_mut(in_len)
        .zip(ys.chunks_exact_mut(out_len))
    {
        // skip index 0 along every axis: backward differences there are the
        // zero-padding convention, not data
        let k = if n_slices > 1 {
            rng.random_range(1..n_slices)
        } else {
            0
        };
        let r0 = rng.random_range(1..rows - p);
        let c0 = rng.random_range(1..cols - p);
        gather(k, r0, c0, x, y);
    }

    let mut net = diffnet::build_cfnn(spec, n_anchors, ndim, cfg.seed);
    let samples = Samples {
        xs,
        ys,
        p,
        channels: (in_c, out_c),
    };
    let losses = samples.fit(&mut net, cfg, &mut rng, &mut TrainWorkspace::default());
    let report = TrainReport {
        losses,
        n_patches: cfg.n_patches,
    };
    (net, report)
}

/// The sampled windows, `p`² values a plane: each window's input planes
/// in `xs` and its target planes in `ys`, `channels` of each.
struct Samples {
    xs: Vec<f32>,
    ys: Vec<f32>,
    p: usize,
    channels: (usize, usize),
}

impl Samples {
    /// `cfg.epochs` of mini-batches in a fresh shuffle each, every batch
    /// one forward, loss, backward and Adam step through `ws`; returns the
    /// mean loss of each epoch.
    fn fit(
        &self,
        net: &mut Sequential,
        cfg: &TrainConfig,
        rng: &mut StdRng,
        ws: &mut TrainWorkspace,
    ) -> Vec<f32> {
        let (p, (in_c, out_c)) = (self.p, self.channels);
        let (in_len, out_len) = (in_c * p * p, out_c * p * p);
        let mut opt = Adam::new(cfg.lr);
        let mut losses = Vec::with_capacity(cfg.epochs);
        let mut order: Vec<usize> = (0..cfg.n_patches).collect();
        // the batch's targets and loss gradient, filled in place batch after
        // batch
        let (mut y, mut grad) = (Vec::new(), Vec::new());
        for _epoch in 0..cfg.epochs {
            order.shuffle(rng);
            let mut epoch_loss = 0.0f64;
            let mut n_batches = 0usize;
            for chunk in order.chunks(cfg.batch) {
                y.clear();
                for &pi in chunk {
                    y.extend_from_slice(&self.ys[pi * out_len..][..out_len]);
                }
                grad.resize(y.len(), 0.0);
                net.zero_grad();
                let out = ws.forward(net, in_c, chunk.len(), (p, p), |b, mut planes| {
                    let x = &self.xs[chunk[b] * in_len..][..in_len];
                    for (c, plane) in x.chunks_exact(p * p).enumerate() {
                        for (row, from) in planes.rows_mut(c).zip(plane.chunks_exact(p)) {
                            row.copy_from_slice(from);
                        }
                    }
                });
                let loss = mse_loss(out, &y, &mut grad);
                ws.backward(net, &grad, None);
                opt.step(&mut net.params());
                epoch_loss += loss as f64;
                n_batches += 1;
            }
            losses.push((epoch_loss / n_batches.max(1) as f64) as f32);
        }
        losses
    }
}

/// One CFNN channel: a field's backward difference along one axis,
/// normalized — computed window by window from the original samples.
struct DiffChannel<'a> {
    v: &'a [f32],
    /// Extent of a 2-D slice of the field.
    rows: usize,
    cols: usize,
    /// Distance in `v` to the previous sample along the axis.
    step: usize,
    norm: Normalizer,
}

/// The difference channels of one field, in axis order, each with the
/// max-abs normalizer of its whole difference volume.
fn diff_channels(field: &Field) -> Vec<DiffChannel<'_>> {
    let (_, rows, cols) = diffnet::slice_geometry(field.shape());
    let v = field.as_slice();
    // largest |difference| along the slice, row and column axis in one pass
    // (the samples at index 0 of an axis have difference 0 and cannot win)
    let mut largest = [0.0f32; 3];
    for (at, cur) in v.chunks_exact(cols).enumerate() {
        if at >= rows {
            largest[0] = max_abs_diff(largest[0], cur, &v[(at - rows) * cols..][..cols]);
        }
        if at % rows > 0 {
            largest[1] = max_abs_diff(largest[1], cur, &v[(at - 1) * cols..][..cols]);
        }
        largest[2] = max_abs_diff(largest[2], &cur[1..], cur);
    }
    let steps = [rows * cols, cols, 1];
    (3 - field.shape().ndim()..3)
        .map(|axis| DiffChannel {
            v,
            rows,
            cols,
            step: steps[axis],
            norm: Normalizer::max_abs(&largest[axis..=axis], 1.0),
        })
        .collect()
}

/// The largest `|cur[i] − prev[i]|` over the pairs, or `m` if that is
/// larger. Eight running maxima, so the compiler can keep them in vector
/// registers; a maximum does not depend on the order it is taken in, and a
/// NaN difference never wins a comparison — as it never wins `f32::max`.
fn max_abs_diff(m: f32, cur: &[f32], prev: &[f32]) -> f32 {
    const LANES: usize = 8;
    let larger = |a: f32, b: f32| if b > a { b } else { a };
    let n = cur.len().min(prev.len());
    let (mut cur, mut prev) = (cur[..n].chunks_exact(LANES), prev[..n].chunks_exact(LANES));
    let mut lanes = [m; LANES];
    for (c, p) in (&mut cur).zip(&mut prev) {
        for l in 0..LANES {
            lanes[l] = larger(lanes[l], (c[l] - p[l]).abs());
        }
    }
    let tail = cur.remainder().iter().zip(prev.remainder());
    tail.map(|(&c, &p)| (c - p).abs())
        .chain(lanes)
        .fold(m, larger)
}

impl DiffChannel<'_> {
    /// The `p × p` window at rows from `r0`, columns from `c0` of slice `k`.
    /// The arithmetic is `predict::normalized_diff_plane`'s — `cur − prev`,
    /// then [`Normalizer::apply`] — so the network trains on the bits
    /// inference will feed it.
    fn gather(&self, k: usize, r0: usize, c0: usize, p: usize, dst: &mut [f32]) {
        let (rows, cols) = (self.rows, self.cols);
        let base = (k * rows + r0) * cols + c0;
        if base < self.step {
            // the first slab of a volume: no slice below it
            return dst.fill(self.norm.apply(0.0));
        }
        for (i, row) in dst.chunks_exact_mut(p).enumerate() {
            let at = base + i * cols;
            let (cur, prev) = (&self.v[at..at + p], &self.v[at - self.step..][..p]);
            for ((d, &cur), &prev) in row.iter_mut().zip(cur).zip(prev) {
                *d = self.norm.apply(cur - prev);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tests::NARROW;
    use cfc_tensor::Shape;

    /// Anchors and a target whose differences are a simple linear function of
    /// the anchors' differences — CFNN must fit this quickly.
    fn linear_family_2d(rows: usize, cols: usize) -> (Vec<Field>, Field) {
        let a = Field::from_fn(Shape::d2(rows, cols), |i| {
            ((i[0] as f32) * 0.31).sin() * 8.0 + ((i[1] as f32) * 0.17).cos() * 5.0
        });
        let b = Field::from_fn(Shape::d2(rows, cols), |i| {
            ((i[0] as f32) * 0.11).cos() * 4.0 - (i[1] as f32) * 0.02
        });
        let t = a.zip_map(&b, |x, y| 0.6 * x - 0.4 * y + 3.0);
        (vec![a, b], t)
    }

    #[test]
    fn training_loss_decreases_on_learnable_relation() {
        let (anchors, target) = linear_family_2d(64, 64);
        let refs: Vec<&Field> = anchors.iter().collect();
        let trained = train_cfnn(&NARROW, &TrainConfig::fast(), &refs, &target);
        assert_eq!(trained.report.losses.len(), TrainConfig::fast().epochs);
        assert!(
            trained.report.converged(0.6),
            "loss did not converge: {:?}",
            trained.report.losses
        );
    }

    #[test]
    fn channels_match_the_materialized_difference_volumes() {
        // the path this module used to take: difference volumes, their
        // normalizers, normalized copies, windows cut from those
        let p = 3;
        for shape in [Shape::d2(9, 21), Shape::d3(4, 9, 21), Shape::d3(1, 9, 21)] {
            let f = Field::from_fn(shape, |i| {
                let t: usize = i.iter().enumerate().map(|(d, &v)| (3 * d + 2) * v).sum();
                (t as f32 * 0.37).sin() * 40.0 + 0.3 * t as f32
            });
            let diffs = cfc_tensor::diff::backward_diff_all(&f);
            let norms = diffnet::fit_normalizers(&diffs);
            let channels = diff_channels(&f);
            assert_eq!(channels.len(), diffs.len());
            let (slices, rows, cols) = diffnet::slice_geometry(shape);
            for ((ch, diff), norm) in channels.iter().zip(&diffs).zip(&norms) {
                assert_eq!(ch.norm, *norm, "{shape}");
                let want = norm.apply_field(diff);
                // every window the sampler can draw
                for k in usize::from(slices > 1)..slices {
                    for r0 in 1..rows - p {
                        for c0 in 1..cols - p {
                            let mut got = vec![f32::NAN; p * p];
                            ch.gather(k, r0, c0, p, &mut got);
                            for (i, row) in got.chunks_exact(p).enumerate() {
                                let at = (k * rows + r0 + i) * cols + c0;
                                let bits =
                                    |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                                assert_eq!(
                                    bits(row),
                                    bits(&want.as_slice()[at..at + p]),
                                    "{shape} window ({k}, {r0}, {c0}) row {i}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn training_is_deterministic() {
        let (anchors, target) = linear_family_2d(48, 48);
        let refs: Vec<&Field> = anchors.iter().collect();
        let a = train_cfnn(&NARROW, &TrainConfig::fast(), &refs, &target);
        let b = train_cfnn(&NARROW, &TrainConfig::fast(), &refs, &target);
        assert_eq!(a.report.losses, b.report.losses);
        assert_eq!(a.net.serialize(), b.net.serialize());
    }

    #[test]
    fn normalizer_counts_match_layout() {
        let (anchors, target) = linear_family_2d(40, 40);
        let refs: Vec<&Field> = anchors.iter().collect();
        let trained = train_cfnn(&NARROW, &TrainConfig::fast(), &refs, &target);
        assert_eq!(trained.input_norms.len(), 4); // 2 anchors × 2 dims
        assert_eq!(trained.target_norms.len(), 2);
    }

    #[test]
    fn the_training_workspace_stops_growing_after_its_first_batch() {
        let (p, in_c, out_c) = (8, 4, 2);
        let samples = |n: usize| {
            let wave = |len: usize| (0..len).map(|i| (i * 7 % 13) as f32 / 13.0 - 0.5).collect();
            Samples {
                xs: wave(n * in_c * p * p),
                ys: wave(n * out_c * p * p),
                p,
                channels: (in_c, out_c),
            }
        };
        let cfg = |n_patches, epochs| TrainConfig {
            patch: p,
            n_patches,
            batch: 4,
            epochs,
            lr: 1e-3,
            seed: 1,
        };
        let mut net = diffnet::build_cfnn(&NARROW, 2, 2, 1);
        let (mut rng, mut ws) = (StdRng::seed_from_u64(1), TrainWorkspace::default());
        samples(4).fit(&mut net, &cfg(4, 1), &mut rng, &mut ws);
        let first = ws.growths();
        assert!(first > 0, "the first batch lays the planes out");
        // three more epochs of two whole batches and a short one
        samples(10).fit(&mut net, &cfg(10, 3), &mut rng, &mut ws);
        assert_eq!(ws.growths(), first, "a later batch grew a buffer");
    }

    #[test]
    fn works_on_3d_volumes() {
        let shape = Shape::d3(6, 32, 32);
        let a = Field::from_fn(shape, |i| {
            (i[0] as f32) * 0.5 + ((i[1] as f32) * 0.2).sin() * 3.0 + (i[2] as f32) * 0.05
        });
        let t = a.map(|v| 1.5 * v - 2.0);
        let cfg = TrainConfig {
            patch: 10,
            n_patches: 32,
            batch: 8,
            epochs: 6,
            lr: 4e-3,
            seed: 3,
        };
        let trained = train_cfnn(&NARROW, &cfg, &[&a], &t);
        assert_eq!(trained.input_norms.len(), 3);
        assert_eq!(trained.target_norms.len(), 3);
        assert!(trained.report.losses.iter().all(|l| l.is_finite()));
    }
}
