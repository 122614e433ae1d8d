//! Integer lattice produced by prequantization.
//!
//! After dual-quant's first step every sample is an integer multiple of
//! `2·eb`; all prediction happens on those integers, so compression and
//! decompression are bit-exact mirrors of each other.

use cfc_tensor::{Field, Shape};

/// Prequantized field: `q[i] = round(v[i] / (2·eb))` stored as `i64`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantLattice {
    shape: Shape,
    data: Vec<i64>,
}

impl QuantLattice {
    /// Prequantize a field at absolute bound `eb` (dual-quant step 1).
    ///
    /// The caller answers for the samples: every encode path takes `eb`
    /// from [`crate::ErrorBound::try_resolve_quantization`] on this field's
    /// statistics, which refuses non-finite samples and any field whose
    /// `|v| / 2eb` would reach `2⁶²`. Past that guard `as i64` below would
    /// saturate (and turn NaN into 0) without a word, in every build.
    pub fn prequantize(field: &Field, eb: f64) -> Self {
        assert!(eb > 0.0 && eb.is_finite());
        let step = 2.0 * eb;
        let data = field
            .as_slice()
            .iter()
            .map(|&v| {
                // guaranteed by `try_resolve_quantization` (see above), so
                // checked only where checks are free to be slow
                debug_assert!(v.is_finite(), "non-finite sample {v}");
                (v as f64 / step).round() as i64
            })
            .collect();
        QuantLattice {
            shape: field.shape(),
            data,
        }
    }

    /// Wrap raw integers.
    pub fn from_vec(shape: Shape, data: Vec<i64>) -> Self {
        assert_eq!(data.len(), shape.len());
        QuantLattice { shape, data }
    }

    /// Unwrap the raw integers (inverse of [`QuantLattice::from_vec`]).
    pub fn into_vec(self) -> Vec<i64> {
        self.data
    }

    /// Dequantize back to values (dual-quant reconstruction).
    pub fn reconstruct(&self, eb: f64) -> Field {
        Field::from_vec(self.shape, dequantize(&self.data, eb).collect())
    }

    /// Shape of the lattice.
    #[inline]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty (impossible by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw integers.
    #[inline]
    pub fn as_slice(&self) -> &[i64] {
        &self.data
    }

    /// Mutable raw integers.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [i64] {
        &mut self.data
    }

    /// Value at linear offset.
    #[inline]
    pub fn at(&self, offset: usize) -> i64 {
        self.data[offset]
    }

    /// 2-D accessor with zero padding outside the boundary (the SZ
    /// convention: out-of-range neighbours predict 0).
    #[inline]
    pub fn get2(&self, i: isize, j: isize) -> i64 {
        let dims = self.shape.dims();
        if i < 0 || j < 0 || i >= dims[0] as isize || j >= dims[1] as isize {
            0
        } else {
            self.data[i as usize * dims[1] + j as usize]
        }
    }

    /// 3-D accessor with zero padding outside the boundary.
    #[inline]
    pub fn get3(&self, k: isize, i: isize, j: isize) -> i64 {
        let dims = self.shape.dims();
        if k < 0
            || i < 0
            || j < 0
            || k >= dims[0] as isize
            || i >= dims[1] as isize
            || j >= dims[2] as isize
        {
            0
        } else {
            self.data[(k as usize * dims[1] + i as usize) * dims[2] + j as usize]
        }
    }

    /// 1-D accessor with zero padding.
    #[inline]
    pub fn get1(&self, i: isize) -> i64 {
        if i < 0 || i >= self.data.len() as isize {
            0
        } else {
            self.data[i as usize]
        }
    }
}

/// Dual-quant reconstruction of raw lattice integers, one sample per
/// integer: `q · 2·eb` as `f32` — collected into a fresh buffer, or written
/// into a caller's slice.
pub(crate) fn dequantize(data: &[i64], eb: f64) -> impl ExactSizeIterator<Item = f32> + '_ {
    let step = 2.0 * eb;
    data.iter().map(move |&q| (q as f64 * step) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prequant_respects_error_bound() {
        let f = Field::from_vec(Shape::d1(5), vec![0.0, 0.1234, -3.7, 88.8, 1e-6]);
        let eb = 1e-3;
        let q = QuantLattice::prequantize(&f, eb);
        let r = q.reconstruct(eb);
        for (a, b) in f.as_slice().iter().zip(r.as_slice()) {
            assert!((a - b).abs() as f64 <= eb + 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn prequant_is_idempotent_on_lattice_points() {
        let eb = 0.5;
        let f = Field::from_vec(Shape::d1(3), vec![1.0, 2.0, -4.0]);
        let q = QuantLattice::prequantize(&f, eb);
        let r = q.reconstruct(eb);
        let q2 = QuantLattice::prequantize(&r, eb);
        assert_eq!(q.as_slice(), q2.as_slice());
    }

    #[test]
    fn get2_pads_with_zero() {
        let q = QuantLattice::from_vec(Shape::d2(2, 2), vec![1, 2, 3, 4]);
        assert_eq!(q.get2(-1, 0), 0);
        assert_eq!(q.get2(0, -1), 0);
        assert_eq!(q.get2(2, 0), 0);
        assert_eq!(q.get2(1, 1), 4);
    }

    #[test]
    fn get3_pads_with_zero() {
        let q = QuantLattice::from_vec(Shape::d3(2, 2, 2), (1..=8).collect());
        assert_eq!(q.get3(-1, 0, 0), 0);
        assert_eq!(q.get3(0, 0, 0), 1);
        assert_eq!(q.get3(1, 1, 1), 8);
        assert_eq!(q.get3(0, 2, 0), 0);
    }

    #[test]
    fn reconstruct_scales_by_twice_eb() {
        let q = QuantLattice::from_vec(Shape::d1(3), vec![0, 1, -2]);
        let f = q.reconstruct(0.25);
        assert_eq!(f.as_slice(), &[0.0, 0.5, -1.0]);
    }
}
