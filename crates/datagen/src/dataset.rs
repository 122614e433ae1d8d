//! Generation parameters shared by all three dataset analogues.
//!
//! The [`Dataset`] container itself now lives in `cfc-tensor`
//! ([`cfc_tensor::Dataset`]) so the archive subsystem can consume datasets
//! without depending on the synthetic generators; it is re-exported here
//! for backward compatibility.

pub use cfc_tensor::Dataset;

/// Generation parameters shared by all three dataset analogues.
#[derive(Debug, Clone, Copy)]
pub struct GenParams {
    /// RNG/noise seed; same seed ⇒ bit-identical dataset.
    pub seed: u64,
    /// Strength of the cross-field coupling in `[0, 1]`; 0 makes every field
    /// independent (cross-field prediction should then lose), 1 gives the
    /// physics-derived coupling at full strength.
    pub coupling: f32,
    /// Standard deviation of independent per-field small-scale noise,
    /// relative to each field's dynamic range.
    pub noise_floor: f32,
    /// fBm persistence (roughness) of the latent fields.
    pub roughness: f32,
}

impl Default for GenParams {
    fn default() -> Self {
        GenParams {
            seed: crate::DEFAULT_SEED,
            coupling: 1.0,
            noise_floor: 0.0005,
            roughness: 0.45,
        }
    }
}

impl GenParams {
    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style coupling override.
    pub fn with_coupling(mut self, c: f32) -> Self {
        assert!((0.0..=1.0).contains(&c), "coupling must be in [0,1]");
        self.coupling = c;
        self
    }

    /// Builder-style noise-floor override.
    pub fn with_noise_floor(mut self, n: f32) -> Self {
        assert!(n >= 0.0);
        self.noise_floor = n;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_builders_validate() {
        let p = GenParams::default().with_seed(9).with_coupling(0.5);
        assert_eq!(p.seed, 9);
        assert_eq!(p.coupling, 0.5);
    }

    #[test]
    #[should_panic]
    fn coupling_out_of_range_panics() {
        let _ = GenParams::default().with_coupling(1.5);
    }
}
