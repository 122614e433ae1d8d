//! NCHW activation tensor.

/// A dense 4-D `batch × channels × height × width` tensor of `f32`.
#[derive(Debug, PartialEq)]
pub struct Tensor {
    /// Row-major NCHW data.
    pub data: Vec<f32>,
    /// Batch size.
    pub n: usize,
    /// Channels.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor {
            data: self.data.clone(),
            ..*self
        }
    }

    /// Copies into the existing allocation when it is large enough — the
    /// training loop re-fills the same caches every step.
    fn clone_from(&mut self, source: &Self) {
        self.data.clone_from(&source.data);
        (self.n, self.c, self.h, self.w) = source.dims();
    }
}

impl Tensor {
    /// Zero-filled tensor.
    pub fn zeros(n: usize, c: usize, h: usize, w: usize) -> Self {
        Tensor {
            data: vec![0.0; n * c * h * w],
            n,
            c,
            h,
            w,
        }
    }

    /// Wrap an existing buffer.
    pub fn from_vec(n: usize, c: usize, h: usize, w: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), n * c * h * w, "tensor buffer length mismatch");
        Tensor { data, n, c, h, w }
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `(n, c, h, w)` tuple.
    #[inline]
    pub fn dims(&self) -> (usize, usize, usize, usize) {
        (self.n, self.c, self.h, self.w)
    }

    /// Linear offset of `(n, c, y, x)`.
    #[inline]
    pub fn offset(&self, n: usize, c: usize, y: usize, x: usize) -> usize {
        ((n * self.c + c) * self.h + y) * self.w + x
    }

    /// Read one element.
    #[inline]
    pub fn at(&self, n: usize, c: usize, y: usize, x: usize) -> f32 {
        self.data[self.offset(n, c, y, x)]
    }

    /// Write one element.
    #[inline]
    pub fn set(&mut self, n: usize, c: usize, y: usize, x: usize, v: f32) {
        let off = self.offset(n, c, y, x);
        self.data[off] = v;
    }

    /// One image-plane slice `(n, c)` as a subslice.
    #[inline]
    pub fn plane(&self, n: usize, c: usize) -> &[f32] {
        let start = (n * self.c + c) * self.h * self.w;
        &self.data[start..start + self.h * self.w]
    }

    /// Mutable plane.
    #[inline]
    pub fn plane_mut(&mut self, n: usize, c: usize) -> &mut [f32] {
        let hw = self.h * self.w;
        let start = (n * self.c + c) * hw;
        &mut self.data[start..start + hw]
    }

    /// All `c` planes of sample `n`, contiguous.
    #[inline]
    pub fn sample(&self, n: usize) -> &[f32] {
        let chw = self.c * self.h * self.w;
        &self.data[n * chw..(n + 1) * chw]
    }

    /// Mutable [`Tensor::sample`].
    #[inline]
    pub fn sample_mut(&mut self, n: usize) -> &mut [f32] {
        let chw = self.c * self.h * self.w;
        &mut self.data[n * chw..(n + 1) * chw]
    }

    /// Change the batch size in place, keeping the allocation; samples
    /// beyond the old size are zero.
    pub fn set_batch(&mut self, n: usize) {
        self.data.resize(n * self.c * self.h * self.w, 0.0);
        self.n = n;
    }

    /// Same-shape zero tensor.
    pub fn zeros_like(&self) -> Tensor {
        Tensor::zeros(self.n, self.c, self.h, self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_are_nchw() {
        let t = Tensor::zeros(2, 3, 4, 5);
        assert_eq!(t.offset(0, 0, 0, 0), 0);
        assert_eq!(t.offset(0, 0, 0, 1), 1);
        assert_eq!(t.offset(0, 0, 1, 0), 5);
        assert_eq!(t.offset(0, 1, 0, 0), 20);
        assert_eq!(t.offset(1, 0, 0, 0), 60);
    }

    #[test]
    fn plane_views() {
        let mut t = Tensor::zeros(2, 2, 2, 2);
        t.plane_mut(1, 1).copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.plane(1, 1), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.at(1, 1, 1, 0), 3.0);
    }

    #[test]
    #[should_panic]
    fn from_vec_length_checked() {
        let _ = Tensor::from_vec(1, 1, 2, 2, vec![0.0; 3]);
    }
}
