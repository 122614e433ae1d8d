//! Error-bound modes.

use cfc_tensor::FieldStats;

use crate::error::CfcError;

/// User-facing error-bound specification, matching SZ's two common modes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// Absolute bound: `|v − v'| ≤ eb`.
    Absolute(f64),
    /// Value-range-relative bound: `|v − v'| ≤ eb · (max − min)`.
    ///
    /// This is the mode used throughout the paper's evaluation (e.g.
    /// "relative error bound 1e-3").
    Relative(f64),
}

/// Smallest `|v / 2eb|` a field is refused for, `2⁶²`: one bit inside
/// `i64`, short of where `as i64` begins to saturate.
const MAX_LATTICE_MAGNITUDE: f64 = (1u64 << 62) as f64;

impl ErrorBound {
    /// Resolve to the absolute bound for a field with the given statistics.
    /// A non-positive or non-finite resolved bound (e.g. a relative bound
    /// on a constant or non-finite field) is a [`CfcError::InvalidInput`].
    pub fn try_resolve(&self, stats: &FieldStats) -> Result<f64, CfcError> {
        // min/max alone miss NaN samples (f32::min/max skip NaN operands),
        // but the running mean poisons on any non-finite sample — without
        // this, a hidden NaN would silently prequantize to 0
        if !stats.mean.is_finite() {
            return Err(CfcError::InvalidInput(format!(
                "field contains non-finite samples (mean {})",
                stats.mean
            )));
        }
        let eb = match *self {
            ErrorBound::Absolute(eb) => eb,
            ErrorBound::Relative(rel) => rel * stats.range() as f64,
        };
        if !(eb.is_finite() && eb > 0.0) {
            return Err(CfcError::InvalidInput(format!(
                "resolved error bound {eb} must be positive and finite ({} on range [{}, {}])",
                self.label(),
                stats.min,
                stats.max
            )));
        }
        Ok(eb)
    }

    /// Resolve to the *quantization* bound: the user-facing bound shrunk by
    /// the worst-case `f32` rounding of the reconstruction.
    ///
    /// Reconstruction computes `(q · 2eb) as f32`, which adds up to half a
    /// ULP of the value magnitude on top of the quantization error. Without
    /// this guard a sample like `1005.0` at `eb ≈ 0.07` can miss the bound
    /// by ~1e-5 (f32 ULP at 1000 is 6.1e-5). Guarding keeps the public
    /// contract `|v − v'| ≤ eb` exact.
    ///
    /// Every encode path resolves its bound here before it prequantizes, so
    /// this is also where a field whose lattice would not fit is refused:
    /// `round(v / 2eb) as i64` saturates, and a saturated point decodes to
    /// a value nowhere near its sample. `max|v| / 2eb` must stay below `2⁶²`,
    /// else [`CfcError::InvalidInput`].
    pub fn try_resolve_quantization(&self, stats: &FieldStats) -> Result<f64, CfcError> {
        let eb = self.try_resolve(stats)?;
        let max_abs = stats.min.abs().max(stats.max.abs()) as f64;
        let ulp_slack = max_abs * f32::EPSILON as f64;
        // if the requested bound is below f32 resolution it cannot be met
        // exactly anyway; keep at least half the bound rather than going ≤ 0
        let eb_q = (eb - ulp_slack).max(eb * 0.5);
        if max_abs / (2.0 * eb_q) >= MAX_LATTICE_MAGNITUDE {
            return Err(CfcError::InvalidInput(format!(
                "error bound {eb:e} is too fine for samples of magnitude {max_abs:e}: \
                 the quantization lattice would leave the 62 bits it is kept within"
            )));
        }
        Ok(eb_q)
    }

    /// The raw bound value (absolute or relative factor).
    pub fn value(&self) -> f64 {
        match *self {
            ErrorBound::Absolute(v) | ErrorBound::Relative(v) => v,
        }
    }

    /// Short label for experiment tables ("abs 1e-3" / "rel 1e-3").
    pub fn label(&self) -> String {
        match *self {
            ErrorBound::Absolute(v) => format!("abs {v:.0e}"),
            ErrorBound::Relative(v) => format!("rel {v:.0e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfc_tensor::{Field, Shape};

    fn stats(lo: f32, hi: f32) -> FieldStats {
        FieldStats::of(&Field::from_vec(Shape::d1(2), vec![lo, hi]))
    }

    #[test]
    fn absolute_passes_through() {
        let eb = ErrorBound::Absolute(0.5).try_resolve(&stats(0.0, 100.0));
        assert_eq!(eb.unwrap(), 0.5);
    }

    #[test]
    fn relative_scales_with_range() {
        let eb = ErrorBound::Relative(1e-3).try_resolve(&stats(-50.0, 50.0));
        assert!((eb.unwrap() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn zero_range_relative_bound_is_invalid_input() {
        let eb = ErrorBound::Relative(1e-3).try_resolve(&stats(3.0, 3.0));
        assert!(matches!(eb, Err(CfcError::InvalidInput(_))), "{eb:?}");
    }

    #[test]
    fn a_lattice_that_would_saturate_is_invalid_input() {
        // 1e20 / (2 · 0.5) is past i64::MAX: prequantization would clamp it
        let huge = stats(-1e20, 1e20);
        for bound in [ErrorBound::Absolute(1.0), ErrorBound::Relative(1e-21)] {
            let eb = bound.try_resolve_quantization(&huge);
            assert!(matches!(eb, Err(CfcError::InvalidInput(_))), "{eb:?}");
        }
        // the same samples at a bound their lattice fits resolve
        let eb = ErrorBound::Absolute(1e3).try_resolve_quantization(&huge);
        assert_eq!(eb.unwrap(), 500.0);
    }

    #[test]
    fn labels() {
        assert_eq!(ErrorBound::Relative(1e-3).label(), "rel 1e-3");
        assert_eq!(ErrorBound::Absolute(5e-4).label(), "abs 5e-4");
    }
}
