//! CFNN construction (paper Fig. 4) and the difference-channel layout shared
//! by training and inference.

use cfc_nn::Sequential;
use cfc_tensor::{diff, Axis, Field, Normalizer};

use crate::config::CfnnSpec;

/// Build the CFNN network for a spec, deterministically seeded.
pub fn build_cfnn(spec: &CfnnSpec, seed: u64) -> Sequential {
    Sequential::new()
        .conv(spec.in_channels, spec.feat1, 3, seed ^ 0x11)
        .relu()
        .depthwise(spec.feat1, 3, seed ^ 0x22)
        .conv(spec.feat1, spec.feat2, 1, seed ^ 0x33)
        .relu()
        .attention(spec.feat2, spec.reduction, seed ^ 0x44)
        .conv(spec.feat2, spec.out_channels, 3, seed ^ 0x55)
}

/// All backward-difference planes of one field, per axis, as slice-stacks.
///
/// For a 2-D field this is simply `[d_axis0, d_axis1]` (each a 2-D field).
/// For a 3-D field each element is the full 3-D difference volume; consumers
/// slice it along axis 0 when assembling per-slice CNN inputs. The axis
/// order is fixed and shared between encoder and decoder.
pub fn difference_channels(field: &Field) -> Vec<Field> {
    diff::backward_diff_all(field)
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

/// Channel count for `n_anchors` fields of dimensionality `ndim`.
pub fn input_channel_count(n_anchors: usize, ndim: usize) -> usize {
    n_anchors * ndim
}

/// Number of 2-D processing slices for a field (1 for 2-D, depth for 3-D).
pub fn slice_count(field: &Field) -> usize {
    match field.shape().ndim() {
        2 => 1,
        3 => field.shape().dim(Axis::X),
        n => panic!("cross-field prediction supports 2-D/3-D fields, got {n}-D"),
    }
}

/// Extract processing slice `k` of a (difference) field as a 2-D field.
pub fn processing_slice(field: &Field, k: usize) -> Field {
    match field.shape().ndim() {
        2 => {
            assert_eq!(k, 0);
            field.clone()
        }
        3 => field.slice(Axis::X, k),
        _ => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfc_tensor::Shape;

    #[test]
    fn cfnn_output_shape_matches_spec() {
        let spec = CfnnSpec::compact(2, 2);
        let mut net = build_cfnn(&spec, 3);
        let input = cfc_nn::Tensor::zeros(2, spec.in_channels, 16, 16);
        let out = net.forward(&input, false);
        assert_eq!(out.dims(), (2, spec.out_channels, 16, 16));
    }

    #[test]
    fn cfnn_is_deterministic_per_seed() {
        let spec = CfnnSpec::compact(1, 2);
        let a = build_cfnn(&spec, 9).serialize();
        let b = build_cfnn(&spec, 9).serialize();
        assert_eq!(a, b);
        let c = build_cfnn(&spec, 10).serialize();
        assert_ne!(a, c);
    }

    #[test]
    fn difference_channels_per_ndim() {
        let f2 = Field::zeros(Shape::d2(4, 4));
        assert_eq!(difference_channels(&f2).len(), 2);
        let f3 = Field::zeros(Shape::d3(3, 4, 4));
        assert_eq!(difference_channels(&f3).len(), 3);
    }

    #[test]
    fn slice_helpers() {
        let f3 = Field::from_fn(Shape::d3(3, 2, 2), |i| i[0] as f32);
        assert_eq!(slice_count(&f3), 3);
        assert_eq!(processing_slice(&f3, 2).as_slice(), &[2.0; 4]);
        let f2 = Field::zeros(Shape::d2(2, 2));
        assert_eq!(slice_count(&f2), 1);
        assert_eq!(processing_slice(&f2, 0).shape(), f2.shape());
    }
}
