//! Range and moment statistics plus normalization helpers.

use crate::field::Field;

/// Summary statistics of a field, computed in one pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldStats {
    /// Smallest sample.
    pub min: f32,
    /// Largest sample.
    pub max: f32,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
}

impl FieldStats {
    /// Compute statistics over all samples of `field`.
    pub fn of(field: &Field) -> Self {
        Self::of_slice(field.as_slice())
    }

    /// Compute statistics over a raw sample slice.
    pub fn of_slice(data: &[f32]) -> Self {
        assert!(
            !data.is_empty(),
            "statistics of an empty slice are undefined"
        );
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        for &v in data {
            min = min.min(v);
            max = max.max(v);
            sum += v as f64;
            sum_sq += (v as f64) * (v as f64);
        }
        let n = data.len() as f64;
        let mean = sum / n;
        let var = (sum_sq / n - mean * mean).max(0.0);
        FieldStats {
            min,
            max,
            mean,
            std: var.sqrt(),
        }
    }

    /// `max − min`, the value range used for relative error bounds.
    #[inline]
    pub fn range(&self) -> f32 {
        self.max - self.min
    }
}

/// An affine normalization `y = (x − shift) · scale` with its exact inverse.
///
/// The CFNN trains on normalized differences (paper §III-B: "the value range
/// of these differences is usually smaller, which helps with normalization");
/// the transform must be recorded so the decoder applies the identical
/// inverse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normalizer {
    /// Subtracted before scaling.
    pub shift: f32,
    /// Multiplied after shifting. Always finite and non-zero.
    pub scale: f32,
}

impl Normalizer {
    /// Identity transform.
    pub fn identity() -> Self {
        Normalizer {
            shift: 0.0,
            scale: 1.0,
        }
    }

    /// Map to zero mean, unit standard deviation (constant fields map to 0).
    pub fn standard(stats: &FieldStats) -> Self {
        if stats.std <= f64::EPSILON {
            Normalizer {
                shift: stats.mean as f32,
                scale: 1.0,
            }
        } else {
            Normalizer {
                shift: stats.mean as f32,
                scale: (1.0 / stats.std) as f32,
            }
        }
    }

    /// Symmetric max-abs scaling onto roughly `[-target, target]`.
    pub fn max_abs(data: &[f32], target: f32) -> Self {
        let m = data.iter().fold(0.0f32, |acc, &v| acc.max(v.abs()));
        if m <= 0.0 || !m.is_finite() {
            Normalizer::identity()
        } else {
            Normalizer {
                shift: 0.0,
                scale: target / m,
            }
        }
    }

    /// Apply the forward transform.
    #[inline]
    pub fn apply(&self, x: f32) -> f32 {
        (x - self.shift) * self.scale
    }

    /// Apply the inverse transform.
    #[inline]
    pub fn invert(&self, y: f32) -> f32 {
        y / self.scale + self.shift
    }

    /// Normalize a whole field.
    pub fn apply_field(&self, field: &Field) -> Field {
        field.map(|v| self.apply(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;

    #[test]
    fn stats_of_known_values() {
        let f = Field::from_vec(Shape::d1(4), vec![1.0, 2.0, 3.0, 4.0]);
        let s = FieldStats::of(&f);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std - 1.118033988).abs() < 1e-6);
        assert_eq!(s.range(), 3.0);
    }

    #[test]
    fn constant_field_normalizer_is_safe() {
        let f = Field::full(Shape::d1(5), 7.0);
        let s = Normalizer::standard(&FieldStats::of(&f));
        assert_eq!(s.apply(7.0), 0.0);
        assert_eq!(s.invert(0.0), 7.0);
    }

    #[test]
    fn standard_normalizer_standardizes() {
        let f = Field::from_vec(Shape::d1(4), vec![2.0, 4.0, 6.0, 8.0]);
        let n = Normalizer::standard(&FieldStats::of(&f));
        let g = n.apply_field(&f);
        let s = FieldStats::of(&g);
        assert!(s.mean.abs() < 1e-6);
        assert!((s.std - 1.0).abs() < 1e-5);
        for (a, b) in g.as_slice().iter().zip(f.as_slice()) {
            assert!((n.invert(*a) - b).abs() < 1e-4);
        }
    }

    #[test]
    fn max_abs_is_symmetric() {
        let n = Normalizer::max_abs(&[-4.0, 2.0, 1.0], 1.0);
        assert!((n.apply(-4.0) + 1.0).abs() < 1e-6);
        assert!((n.apply(2.0) - 0.5).abs() < 1e-6);
    }
}
