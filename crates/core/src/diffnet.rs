//! CFNN construction (paper Fig. 4) and the difference-channel layout shared
//! by training and inference.

use cfc_nn::Sequential;
use cfc_tensor::{Field, Normalizer, Shape};

use crate::config::CfnnSpec;

/// Channel-attention bottleneck reduction: the attention block squeezes
/// `feat2` channels to `max(feat2 / 8, 1)` and back, in every CFNN.
pub const ATTENTION_REDUCTION: usize = 8;

/// Build the CFNN network (paper Fig. 4) at `spec`'s widths for
/// `n_anchors` anchors of `ndim`-D data — the anchors' `n_anchors × ndim`
/// backward differences in, the target's `ndim` out — deterministically
/// seeded.
pub fn build_cfnn(spec: &CfnnSpec, n_anchors: usize, ndim: usize, seed: u64) -> Sequential {
    Sequential::new()
        .conv(n_anchors * ndim, spec.feat1, 3, seed ^ 0x11)
        .relu()
        .depthwise(spec.feat1, 3, seed ^ 0x22)
        .conv(spec.feat1, spec.feat2, 1, seed ^ 0x33)
        .relu()
        .attention(spec.feat2, ATTENTION_REDUCTION, seed ^ 0x44)
        .conv(spec.feat2, ndim, 3, seed ^ 0x55)
}

/// Per-channel normalizers (symmetric max-abs to `[-1, 1]`) for a set of
/// difference fields. Stored in the stream so both sides normalize inference
/// inputs identically.
pub fn fit_normalizers(channels: &[Field]) -> Vec<Normalizer> {
    channels
        .iter()
        .map(|f| Normalizer::max_abs(f.as_slice(), 1.0))
        .collect()
}

/// How a field is cut into the 2-D slices the CNN processes: `(slices,
/// rows, cols)` — one slice for a 2-D field, one per step along the first
/// axis for a 3-D one.
pub fn slice_geometry(shape: Shape) -> (usize, usize, usize) {
    match *shape.dims() {
        [rows, cols] => (1, rows, cols),
        [slices, rows, cols] => (slices, rows, cols),
        _ => panic!(
            "cross-field prediction supports 2-D/3-D fields, got {}-D",
            shape.ndim()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tests::NARROW;

    #[test]
    fn cfnn_output_shape_matches_spec() {
        let net = build_cfnn(&NARROW, 2, 2, 3);
        let plan = cfc_nn::InferencePlan::compile(&net, 4).expect("the layers chain");
        assert_eq!((plan.in_channels(), plan.out_channels()), (4, 2));
    }

    #[test]
    fn cfnn_is_deterministic_per_seed() {
        let a = build_cfnn(&NARROW, 1, 2, 9).serialize();
        let b = build_cfnn(&NARROW, 1, 2, 9).serialize();
        assert_eq!(a, b);
        let c = build_cfnn(&NARROW, 1, 2, 10).serialize();
        assert_ne!(a, c);
    }

    #[test]
    fn slice_geometry_per_ndim() {
        assert_eq!(slice_geometry(Shape::d3(3, 4, 5)), (3, 4, 5));
        assert_eq!(slice_geometry(Shape::d2(4, 5)), (1, 4, 5));
    }
}
