//! Property-based tests of the compressor's core contract: the pointwise
//! error bound holds for arbitrary finite inputs, any shape, any bound.

use proptest::prelude::*;

use cross_field_compression::sz::{
    CfcError, ErrorBound, PredictorKind, QuantizerConfig, SzCompressor,
};
use cross_field_compression::tensor::{Field, Shape};

fn compressor(abs_eb: f64, radius: u32) -> SzCompressor {
    SzCompressor {
        bound: ErrorBound::Absolute(abs_eb),
        quantizer: QuantizerConfig { radius },
        predictor: PredictorKind::Lorenzo,
    }
}

/// The contract has no magnitude at which it quietly stops holding: for
/// samples from 1 to 1e38 and bounds from 1e-3 to 1e12, `compress` either
/// refuses the field (`InvalidInput`: its lattice `round(v / 2eb)` would
/// not fit `i64`, see `ErrorBound::try_resolve_quantization`) or the decode
/// is within the bound of the original — never `Ok` and 1e20 off, which is
/// what `as i64` saturating at 1e20 / `Absolute(1.0)` and at 1e30 /
/// `Absolute(1e10)` used to give.
#[test]
fn bound_holds_or_the_field_is_refused_at_any_magnitude() {
    let (mut refused, mut accepted) = (Vec::new(), 0);
    for mag_exp in (0..=38).step_by(2) {
        for eb_exp in (-3..=12).step_by(3) {
            let (magnitude, eb) = (10f32.powi(mag_exp), 10f64.powi(eb_exp));
            let f = Field::from_fn(Shape::d2(8, 8), |i| {
                let sign = if (i[0] + i[1]) % 2 == 0 { 1.0 } else { -1.0 };
                sign * magnitude * (0.25 + (i[0] * 8 + i[1]) as f32 / 128.0)
            });
            let c = compressor(eb, 512);
            match c.compress(&f) {
                Err(CfcError::InvalidInput(_)) => refused.push((mag_exp, eb_exp)),
                Err(e) => panic!("1e{mag_exp} at 1e{eb_exp}: {e:?}"),
                Ok(stream) => {
                    accepted += 1;
                    let dec = c.decompress(&stream.bytes).unwrap();
                    for (a, b) in f.as_slice().iter().zip(dec.as_slice()) {
                        let err = (*a as f64 - *b as f64).abs();
                        assert!(
                            err <= eb,
                            "1e{mag_exp} at 1e{eb_exp}: {a} decodes {b}, off by {err:e}"
                        );
                    }
                }
            }
        }
    }
    // the two cases the saturation was seen at, and not the whole grid
    assert!(
        refused.contains(&(20, 0)) && refused.contains(&(30, 9)),
        "{refused:?}"
    );
    assert!(
        accepted > refused.len(),
        "{accepted} accepted, {refused:?} refused"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// |v − v'| ≤ eb for arbitrary 2-D data, bounds, and quantizer radii.
    #[test]
    fn absolute_bound_holds_2d(
        rows in 2usize..24,
        cols in 2usize..24,
        eb_exp in -4i32..0,
        radius in prop::sample::select(vec![4u32, 64, 512]),
        seed in 0u64..1000,
    ) {
        let eb = 10f64.powi(eb_exp);
        let mut state = seed.wrapping_add(1).wrapping_mul(0x9E3779B97F4A7C15);
        let mut next = move || {
            state ^= state >> 12; state ^= state << 25; state ^= state >> 27;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 40) as f32 / 1e4 - 0.8
        };
        let f = Field::from_fn(Shape::d2(rows, cols), |_| next() * 50.0);
        let c = compressor(eb, radius);
        let stream = c.compress(&f).unwrap();
        let dec = c.decompress(&stream.bytes).unwrap();
        for (a, b) in f.as_slice().iter().zip(dec.as_slice()) {
            prop_assert!(((a - b).abs() as f64) <= eb * (1.0 + 1e-9),
                "bound {eb} violated: {a} vs {b}");
        }
    }

    /// Same for 3-D volumes.
    #[test]
    fn absolute_bound_holds_3d(
        d0 in 2usize..6,
        d1 in 2usize..10,
        d2 in 2usize..10,
        seed in 0u64..1000,
    ) {
        let eb = 1e-2;
        let f = Field::from_fn(Shape::d3(d0, d1, d2), |idx| {
            let h = (idx[0].wrapping_mul(73856093)
                ^ idx[1].wrapping_mul(19349663)
                ^ idx[2].wrapping_mul(83492791))
                .wrapping_add(seed as usize);
            ((h % 10007) as f32) * 0.01 - 50.0
        });
        let c = compressor(eb, 512);
        let dec = c.decompress(&c.compress(&f).unwrap().bytes).unwrap();
        for (a, b) in f.as_slice().iter().zip(dec.as_slice()) {
            prop_assert!(((a - b).abs() as f64) <= eb * (1.0 + 1e-9));
        }
    }

    /// Relative bound: error ≤ rel · range(field).
    #[test]
    fn relative_bound_holds(
        rows in 3usize..20,
        cols in 3usize..20,
        rel_exp in -4i32..-1,
        scale in 1f32..1e4,
    ) {
        let rel = 10f64.powi(rel_exp);
        let f = Field::from_fn(Shape::d2(rows, cols), |idx| {
            ((idx[0] * 7 + idx[1] * 13) % 31) as f32 * scale
        });
        let c = SzCompressor::baseline(rel);
        let stream = c.compress(&f).unwrap();
        let dec = c.decompress(&stream.bytes).unwrap();
        let range = {
            let s = f.as_slice();
            let mn = s.iter().cloned().fold(f32::INFINITY, f32::min);
            let mx = s.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            (mx - mn) as f64
        };
        for (a, b) in f.as_slice().iter().zip(dec.as_slice()) {
            prop_assert!(((a - b).abs() as f64) <= rel * range * (1.0 + 1e-9));
        }
    }

    /// Compression is deterministic: same field → identical bytes.
    #[test]
    fn compression_is_deterministic(seed in 0u64..500) {
        let f = Field::from_fn(Shape::d2(16, 16), |idx| {
            ((idx[0] as u64 * 31 + idx[1] as u64 * 17 + seed) % 97) as f32
        });
        let c = SzCompressor::baseline(1e-3);
        prop_assert_eq!(c.compress(&f).unwrap().bytes, c.compress(&f).unwrap().bytes);
    }
}
