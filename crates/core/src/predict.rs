//! CFNN inference: predicted target-difference fields and the one-step
//! prediction fields shown in the paper's Figure 6.

use cfc_nn::{InferencePlan, Sequential, Workspace};
use cfc_tensor::{Field, Normalizer};

use crate::archive::run_parallel_scratch;
use crate::diffnet;
use crate::predictor::cross_field_candidates;
use crate::train::TrainedCfnn;

/// A CFNN ready for inference: the network compiled into an
/// [`InferencePlan`] plus the normalizers both sides apply. Immutable and
/// `Send + Sync` — the archive reader parses a target's model once and
/// every block, on every thread, predicts through the same value.
pub struct CfnnInference {
    plan: InferencePlan,
    input_norms: Vec<Normalizer>,
    target_norms: Vec<Normalizer>,
}

impl CfnnInference {
    /// Compile `net` for `input_norms.len()` input channels. Fails when the
    /// layers do not chain from there to `target_norms.len()` outputs.
    pub fn new(
        net: &Sequential,
        input_norms: Vec<Normalizer>,
        target_norms: Vec<Normalizer>,
    ) -> Result<Self, String> {
        let plan = InferencePlan::compile(net, input_norms.len())?;
        if plan.out_channels() != target_norms.len() {
            return Err(format!(
                "network produces {} channels, spec declares {}",
                plan.out_channels(),
                target_norms.len()
            ));
        }
        Ok(CfnnInference {
            plan,
            input_norms,
            target_norms,
        })
    }

    /// Input channels: anchors × axes.
    pub fn in_channels(&self) -> usize {
        self.input_norms.len()
    }

    /// Output channels: one predicted difference field per axis.
    pub fn out_channels(&self) -> usize {
        self.target_norms.len()
    }

    /// Run CFNN inference over full fields.
    ///
    /// `anchors` must be the *decompressed* anchor fields (paper §III-B:
    /// the model is trained on original data but applied to decompressed
    /// data so encoder and decoder see identical inputs). Returns `ndim`
    /// predicted backward-difference fields for the target, in axis order,
    /// already denormalized to physical units.
    ///
    /// One 2-D slice at a time, on the calling thread: the anchors'
    /// normalized backward differences are written straight into the
    /// plan's input planes and its output planes denormalized straight into
    /// the result, so with a kept `ws` only the returned fields are
    /// allocated. The archive reader's own one-request reads run the same
    /// slices over several threads (`predict_on`); each slice is computed
    /// the same way wherever it runs, so the result is the same bits.
    pub fn predict(&self, anchors: &[&Field], ws: &mut Workspace) -> Vec<Field> {
        self.predict_on(anchors, ws, &mut [])
    }

    /// [`CfnnInference::predict`] with the 2-D slices spread over up to
    /// `1 + helpers.len()` workers, in runs of adjacent slices: the first
    /// run on `ws`, each other on a workspace of its own from `helpers`. A
    /// slice's arithmetic and its place in the output do not depend on the
    /// worker that runs it, so the result is bit-identical for every width.
    /// No more workers run than there are slices: a 2-D field (one plane)
    /// or a one-slice block spawns none and touches no helper.
    pub(crate) fn predict_on(
        &self,
        anchors: &[&Field],
        ws: &mut Workspace,
        helpers: &mut [Workspace],
    ) -> Vec<Field> {
        let shape = anchors[0].shape();
        let ndim = shape.ndim();
        assert_eq!(
            self.in_channels(),
            anchors.len() * ndim,
            "anchor count mismatch"
        );
        assert!(
            anchors.iter().all(|a| a.shape() == shape),
            "anchor shape mismatch"
        );
        let (n_slices, h, w) = diffnet::slice_geometry(shape);
        let hw = h * w;

        let mut outputs: Vec<Vec<f32>> = vec![vec![0.0; shape.len()]; self.out_channels()];
        // slice k's plane of every output channel
        let mut planes: Vec<_> = outputs.iter_mut().map(|o| o.chunks_exact_mut(hw)).collect();
        let mut slices = (0..n_slices).map(|k| {
            let out = planes
                .iter_mut()
                .map(|p| p.next().expect("a plane per slice"));
            (k, out.collect::<Vec<&mut [f32]>>())
        });
        // one task per worker: a run of adjacent slices and the workspace
        // it runs on — `ws` for the first, a helper for each other — so
        // which workspace a slice runs on does not depend on scheduling
        let workers = n_slices.min(1 + helpers.len());
        let tasks: Vec<_> = std::iter::once(ws)
            .chain(helpers)
            .take(workers)
            .enumerate()
            .map(|(t, ws)| {
                let n = (t + 1) * n_slices / workers - t * n_slices / workers;
                (ws, slices.by_ref().take(n).collect::<Vec<_>>())
            })
            .collect();
        run_parallel_scratch(
            tasks,
            workers,
            || (),
            |(), (ws, run)| {
                for (k, mut out) in run {
                    self.slice(anchors, k, (h, w), ws, &mut out);
                }
            },
        );
        outputs
            .into_iter()
            .map(|data| Field::from_vec(shape, data))
            .collect()
    }

    /// Slice `k` (`h × w`) of the prediction into `out`, one plane per
    /// output channel: the normalized differences are written into the
    /// plan's input rows and denormalized out of its output rows.
    fn slice(
        &self,
        anchors: &[&Field],
        k: usize,
        (h, w): (usize, usize),
        ws: &mut Workspace,
        out: &mut [&mut [f32]],
    ) {
        let ndim = anchors[0].shape().ndim();
        let hw = h * w;
        let y = self.plan.run_planes(ws, h, w, |mut input| {
            for (ci, norm) in self.input_norms.iter().enumerate() {
                // channel layout: anchor-major, then axis
                let v = &anchors[ci / ndim].as_slice()[k * hw..(k + 1) * hw];
                // the same slice one step back along the slice axis
                let below = (k > 0).then(|| &anchors[ci / ndim].as_slice()[(k - 1) * hw..k * hw]);
                let axis = ci % ndim + (3 - ndim);
                normalized_diff_plane(input.rows_mut(ci), v, below, axis, w, norm);
            }
        });
        for (c, (out, norm)) in out.iter_mut().zip(&self.target_norms).enumerate() {
            for (o, row) in out.chunks_exact_mut(w).zip(y.rows(c)) {
                for (o, &v) in o.iter_mut().zip(row) {
                    *o = norm.invert(v);
                }
            }
        }
    }
}

/// One slice `v` (rows of `w`) of [`cfc_tensor::diff::backward_diff`],
/// normalized, into `dst`'s rows. `axis` counts as in a 3-D field — 0
/// steps between slices (`below` is the previous one, `None` on the
/// first), 1 between rows, 2 between columns; the first sample along the
/// axis has difference 0.
fn normalized_diff_plane<'d>(
    dst: impl Iterator<Item = &'d mut [f32]>,
    v: &[f32],
    below: Option<&[f32]>,
    axis: usize,
    w: usize,
    norm: &Normalizer,
) {
    let edge = norm.apply(0.0);
    let rows = dst.zip(v.chunks_exact(w));
    match (axis, below) {
        (0, None) => rows.for_each(|(d, _)| d.fill(edge)),
        (0, Some(below)) => {
            for ((d, row), prev) in rows.zip(below.chunks_exact(w)) {
                for ((d, &cur), &prev) in d.iter_mut().zip(row).zip(prev) {
                    *d = norm.apply(cur - prev);
                }
            }
        }
        (1, _) => {
            let mut prev: Option<&[f32]> = None;
            for (d, row) in rows {
                match prev {
                    None => d.fill(edge),
                    Some(prev) => {
                        for ((d, &cur), &prev) in d.iter_mut().zip(row).zip(prev) {
                            *d = norm.apply(cur - prev);
                        }
                    }
                }
                prev = Some(row);
            }
        }
        _ => {
            for (d, row) in rows {
                d[0] = edge;
                for (d, pair) in d[1..].iter_mut().zip(row.windows(2)) {
                    *d = norm.apply(pair[1] - pair[0]);
                }
            }
        }
    }
}

/// [`CfnnInference::predict`] for a freshly trained bundle: compiles the
/// plan and allocates a workspace per call. Paths that predict block after
/// block build a [`CfnnInference`] once and keep a [`Workspace`].
pub fn predict_differences(trained: &TrainedCfnn, anchors: &[&Field]) -> Vec<Field> {
    CfnnInference::new(
        &trained.net,
        trained.input_norms.clone(),
        trained.target_norms.clone(),
    )
    .expect("a trained network chains from its input to its target normalizers")
    .predict(anchors, &mut Workspace::default())
}

/// One-step-ahead prediction fields: at every point, the value each
/// predictor would produce from the *true* causal neighbours (exactly what
/// the encoder's residual stage sees, without quantization), through the
/// candidate rule the hybrid predictor runs ([`cross_field_candidates`]).
///
/// Returns `(lorenzo, cross_field_mean, hybrid)` given predicted difference
/// fields and hybrid weights (Lorenzo first). Border samples (index 0 along
/// any axis) copy the original so the panels aren't dominated by the
/// zero-padding convention.
pub fn one_step_predictions(
    original: &Field,
    diffs: &[Field],
    weights: &[f64],
) -> (Field, Field, Field) {
    let shape = original.shape();
    let (ndim, dims) = (shape.ndim(), shape.dims());
    assert!(ndim == 2 || ndim == 3, "unsupported dimensionality");
    assert_eq!(diffs.len(), ndim);
    assert_eq!(weights.len(), ndim + 1);
    let mut lorenzo = original.clone();
    let mut cross = original.clone();
    let mut hybrid = original.clone();
    // interior points only: every neighbour lies inside the field
    let sample = |at: &[isize]| {
        let off = at
            .iter()
            .zip(dims)
            .fold(0, |off, (&x, &d)| off * d + x as usize);
        original.as_slice()[off] as f64
    };
    let diff = |axis: usize, off: usize| diffs[axis].as_slice()[off] as f64;
    let mut preds = [0.0f64; 4];
    for off in 0..shape.len() {
        let (mut idx, mut rest) = ([0usize; 3], off);
        for (i, &d) in idx[..ndim].iter_mut().zip(dims).rev() {
            *i = rest % d;
            rest /= d;
        }
        if idx[..ndim].contains(&0) {
            continue;
        }
        cross_field_candidates(dims, sample, diff, &idx[..ndim], &mut preds[..=ndim]);
        let (lor, axis_preds) = (preds[0], &preds[1..=ndim]);
        let cross_mean = axis_preds.iter().sum::<f64>() / axis_preds.len() as f64;
        let mut hyb = weights[0] * lor;
        for (k, &p) in axis_preds.iter().enumerate() {
            hyb += weights[k + 1] * p;
        }
        lorenzo.as_mut_slice()[off] = lor as f32;
        cross.as_mut_slice()[off] = cross_mean as f32;
        hybrid.as_mut_slice()[off] = hyb as f32;
    }
    (lorenzo, cross, hybrid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tests::NARROW;
    use crate::config::{CfnnSpec, TrainConfig};
    use crate::diffnet::build_cfnn;
    use crate::train::train_cfnn;
    use cfc_tensor::{diff, Shape};

    fn correlated_pair(rows: usize, cols: usize) -> (Field, Field) {
        let a = Field::from_fn(Shape::d2(rows, cols), |i| {
            ((i[0] as f32) * 0.23).sin() * 10.0 + ((i[1] as f32) * 0.31).cos() * 6.0
        });
        let t = a.map(|v| 0.8 * v + 1.0);
        (a, t)
    }

    #[test]
    fn predicted_differences_have_target_shape() {
        let (a, t) = correlated_pair(40, 40);
        let trained = train_cfnn(&NARROW, &TrainConfig::fast(), &[&a], &t);
        let diffs = predict_differences(&trained, &[&a]);
        assert_eq!(diffs.len(), 2);
        for d in &diffs {
            assert_eq!(d.shape(), t.shape());
        }
    }

    #[test]
    fn prediction_beats_zero_baseline_on_correlated_data() {
        // predicting dx/dy from a perfectly-correlated anchor must beat
        // predicting all-zero differences
        let (a, t) = correlated_pair(56, 56);
        let cfg = TrainConfig {
            epochs: 20,
            ..TrainConfig::fast()
        };
        let trained = train_cfnn(&NARROW, &cfg, &[&a], &t);
        let pred = predict_differences(&trained, &[&a]);
        let truth = diff::backward_diff_all(&t);
        let mse = |x: &Field, y: &Field| -> f64 {
            x.as_slice()
                .iter()
                .zip(y.as_slice())
                .map(|(&p, &q)| ((p - q) as f64).powi(2))
                .sum::<f64>()
                / x.len() as f64
        };
        let zero = Field::zeros(t.shape());
        // interior-weighted comparison on axis 1 (rows)
        let m_pred = mse(&pred[1], &truth[1]);
        let m_zero = mse(&zero, &truth[1]);
        assert!(
            m_pred < m_zero * 0.6,
            "prediction mse {m_pred} not clearly better than zero baseline {m_zero}"
        );
    }

    /// Two anchors over `shape`, with NaN and ±∞ in the last slice of the
    /// first (the attention gate spreads a non-finite value over its whole
    /// slice, so the others stay finite).
    fn special_anchors(shape: Shape) -> Vec<Field> {
        let (slices, h, w) = diffnet::slice_geometry(shape);
        (0..2)
            .map(|a| {
                let mut f = Field::from_fn(shape, |i| {
                    let t: usize = i.iter().enumerate().map(|(d, &v)| (d + 2) * v).sum();
                    ((t + 7 * a) as f32 * 0.29).sin() * (2.0 + a as f32) + 0.02 * t as f32
                });
                if a == 0 {
                    let last = (slices - 1) * h * w;
                    for (j, v) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
                        .iter()
                        .enumerate()
                    {
                        f.as_mut_slice()[last + 5 * j + 3] = *v;
                    }
                }
                f
            })
            .collect()
    }

    #[test]
    fn every_worker_count_predicts_the_bits_of_one() {
        let norms = |n: usize, scale: f32| -> Vec<Normalizer> {
            (0..n)
                .map(|i| Normalizer {
                    shift: 0.125 * i as f32,
                    scale,
                })
                .collect()
        };
        let cases = [
            Shape::d3(1, 9, 21),
            Shape::d3(2, 9, 21),
            Shape::d3(4, 9, 21),
            Shape::d3(5, 9, 21),
            Shape::d2(12, 24),
        ];
        for shape in cases {
            let ndim = shape.ndim();
            let net = build_cfnn(&CfnnSpec::writer_default(ndim), 2, ndim, 17);
            let inference =
                CfnnInference::new(&net, norms(2 * ndim, 0.5), norms(ndim, 3.0)).unwrap();
            let anchors = special_anchors(shape);
            let refs: Vec<&Field> = anchors.iter().collect();
            let want = inference.predict(&refs, &mut Workspace::default());
            // two workers, three, and more than there are slices
            for extra in [1, 2, 6] {
                let mut helpers: Vec<Workspace> =
                    (0..extra).map(|_| Workspace::default()).collect();
                let got = inference.predict_on(&refs, &mut Workspace::default(), &mut helpers);
                for (axis, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.shape(), shape);
                    let same = g
                        .as_slice()
                        .iter()
                        .zip(w.as_slice())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(same, "{shape}, {} workers, axis {axis}", 1 + extra);
                }
                // a helper runs only where there is a slice for it
                let used = helpers.iter().filter(|ws| ws.growths() > 0).count();
                let (n_slices, _, _) = diffnet::slice_geometry(shape);
                assert_eq!(used, n_slices.min(1 + extra) - 1, "{shape}: helpers run");
            }
        }
    }
}
