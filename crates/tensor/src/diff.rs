//! First-order finite differences along field axes.
//!
//! The cross-field predictor never learns raw values: it learns the
//! *first-order backward difference* of the target field from the backward
//! differences of anchor fields (paper §III-B). Backward differences are the
//! causal choice — reconstructing `f(i,j) = f(i-1,j) + dx(i,j)` only touches
//! already-decoded samples, so the cross-field predictor composes with the
//! Lorenzo decoder order (paper Figure 3). Central differences are provided
//! too, purely so the dependency conflict the paper describes can be
//! demonstrated in tests and ablations.

use crate::field::Field;
use crate::shape::Axis;
use rayon::prelude::*;

/// `d[i] = v[i] − v[i−1]` along `axis`; the first sample along the axis keeps
/// difference 0 (so the original field is recoverable via a prefix sum given
/// the same boundary convention).
pub fn backward_diff(field: &Field, axis: Axis) -> Field {
    diff_impl(field, axis, DiffKind::Backward)
}

/// `d[i] = (v[i+1] − v[i−1]) / 2` along `axis`; boundary samples fall back to
/// one-sided differences.
pub fn central_diff(field: &Field, axis: Axis) -> Field {
    diff_impl(field, axis, DiffKind::Central)
}

/// Backward differences along every axis of the field, in axis order.
pub fn backward_diff_all(field: &Field) -> Vec<Field> {
    Axis::first(field.shape().ndim())
        .iter()
        .map(|&ax| backward_diff(field, ax))
        .collect()
}

#[derive(Clone, Copy)]
enum DiffKind {
    Backward,
    Central,
}

/// Linear offsets of the first element of every 1-D lane along `axis`.
fn lane_starts(shape: crate::shape::Shape, axis: Axis) -> Vec<usize> {
    let nd = shape.ndim();
    assert!(axis.index() < nd, "axis out of range");
    let strides = shape.strides();
    let mut starts = Vec::with_capacity(shape.len() / shape.dim(axis));
    // Iterate the complementary axes.
    let mut other: Vec<(usize, usize)> = Vec::new(); // (dim, stride)
    for k in 0..nd {
        if k != axis.index() {
            other.push((shape.dims()[k], strides[k]));
        }
    }
    match other.len() {
        0 => starts.push(0),
        1 => {
            for a in 0..other[0].0 {
                starts.push(a * other[0].1);
            }
        }
        2 => {
            for a in 0..other[0].0 {
                for b in 0..other[1].0 {
                    starts.push(a * other[0].1 + b * other[1].1);
                }
            }
        }
        _ => unreachable!(),
    }
    starts
}

fn diff_impl(field: &Field, axis: Axis, kind: DiffKind) -> Field {
    let shape = field.shape();
    let stride = shape.strides()[axis.index()];
    let n = shape.dim(axis);
    let v = field.as_slice();
    let mut out = Field::zeros(shape);
    let lanes = lane_starts(shape, axis);
    // Each lane is independent; parallelize over lanes through raw chunks of
    // the output indexed via the precomputed starts.
    let results: Vec<(usize, Vec<f32>)> = lanes
        .par_iter()
        .map(|&base| {
            let mut lane = vec![0.0f32; n];
            match kind {
                DiffKind::Backward => {
                    for i in 1..n {
                        lane[i] = v[base + i * stride] - v[base + (i - 1) * stride];
                    }
                }
                DiffKind::Central => {
                    if n == 1 {
                        // single-sample lane: difference stays 0
                    } else {
                        lane[0] = v[base + stride] - v[base];
                        for i in 1..n - 1 {
                            lane[i] =
                                0.5 * (v[base + (i + 1) * stride] - v[base + (i - 1) * stride]);
                        }
                        lane[n - 1] = v[base + (n - 1) * stride] - v[base + (n - 2) * stride];
                    }
                }
            }
            (base, lane)
        })
        .collect();
    let o = out.as_mut_slice();
    for (base, lane) in results {
        for (i, val) in lane.into_iter().enumerate() {
            o[base + i * stride] = val;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;

    #[test]
    fn backward_diff_1d() {
        let f = Field::from_vec(Shape::d1(4), vec![1.0, 3.0, 6.0, 10.0]);
        let d = backward_diff(&f, Axis::X);
        assert_eq!(d.as_slice(), &[0.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn central_diff_1d() {
        let f = Field::from_vec(Shape::d1(4), vec![1.0, 3.0, 6.0, 10.0]);
        let d = central_diff(&f, Axis::X);
        assert_eq!(d.as_slice(), &[2.0, 2.5, 3.5, 4.0]);
    }

    #[test]
    fn backward_diff_2d_both_axes() {
        let f = Field::from_vec(Shape::d2(2, 3), vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0]);
        let dx = backward_diff(&f, Axis::X);
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 0.0, 7.0, 14.0, 28.0]);
        let dy = backward_diff(&f, Axis::Y);
        assert_eq!(dy.as_slice(), &[0.0, 1.0, 2.0, 0.0, 8.0, 16.0]);
    }

    #[test]
    fn diff_of_constant_field_is_zero() {
        let f = Field::full(Shape::d2(5, 5), 3.25);
        for &ax in Axis::first(2) {
            assert!(backward_diff(&f, ax).as_slice().iter().all(|&v| v == 0.0));
            assert!(central_diff(&f, ax).as_slice().iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn backward_diff_all_returns_ndim_fields() {
        let f = Field::zeros(Shape::d3(2, 2, 2));
        assert_eq!(backward_diff_all(&f).len(), 3);
        let f2 = Field::zeros(Shape::d2(2, 2));
        assert_eq!(backward_diff_all(&f2).len(), 2);
    }

    #[test]
    fn central_diff_on_linear_ramp_is_exact_slope() {
        let f = Field::from_fn(Shape::d1(9), |idx| 2.0 * idx[0] as f32);
        let d = central_diff(&f, Axis::X);
        assert!(d.as_slice().iter().all(|&v| (v - 2.0).abs() < 1e-6));
    }
}
