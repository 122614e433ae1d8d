//! Order statistics for the benchmark's own reporting: medians, and a
//! nearest-rank percentile that refuses to report a tail the sample cannot
//! support.
//!
//! An empty sample yields NaN: a window in which every operation failed
//! has no timing, and the result line says so with `null`.

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SUPPORT: usize = 10;

/// Percentiles tried, highest first, when the requested one lacks support.
const FALLBACKS: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are finite"));
    v
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest rank of percentile `p` among `n` samples, 1-based. Computed in
/// whole per-mille so that p90 of 100 samples is rank 90, not 91.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 1000.0).round() as usize;
    (n * per_mille).div_ceil(1000).clamp(1, n)
}

/// Whether `n` samples leave at least [`TAIL_SUPPORT`] beyond percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= TAIL_SUPPORT
}

/// Nearest-rank percentile `p`, lowered to the highest percentile the
/// sample supports (see [`supports`]) when `p` itself has fewer than
/// [`TAIL_SUPPORT`] samples beyond it; a sample too small for any tail
/// reports its median. Returns `(percentile actually used, value)`.
pub fn tail_percentile(values: &[f64], p: f64) -> (f64, f64) {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let v = sorted(values);
    let used = if supports(v.len(), p) {
        p
    } else {
        FALLBACKS
            .into_iter()
            .find(|&q| q < p && supports(v.len(), q))
            .unwrap_or(0.5)
    };
    (used, v[rank(v.len(), used) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), (0.99, 990.0));
        // 999 samples leave only 9 beyond p99: fall back to p95
        let (used, value) = tail_percentile(&v[..999], 0.99);
        assert_eq!(used, 0.95);
        assert_eq!(value, 950.0);
        // 100 samples support p90 exactly (10 beyond), not p95
        assert_eq!(tail_percentile(&v[..100], 0.99), (0.90, 90.0));
        assert_eq!(tail_percentile(&v[..100], 0.90), (0.90, 90.0));
        // too small for any tail: the median
        assert_eq!(tail_percentile(&v[..12], 0.99).0, 0.5);
    }

    #[test]
    fn an_empty_sample_has_no_median() {
        // every operation failed: nothing to report
        assert!(median(&[]).is_nan());
    }
}
