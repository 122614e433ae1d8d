//! Postquantization: mapping prediction residuals to bounded codes.
//!
//! After prediction on the prequantized lattice, the residual
//! `delta = q − pred` is an exact integer. Residuals within `±radius` map to
//! codes `0..2·radius`; anything else becomes the *escape* code `2·radius`
//! with the true lattice value stored verbatim in an outlier section (the SZ
//! "unpredictable data" path).

/// Default quantization radius (SZ3 uses a 2^16-bin quantizer by default;
/// 512 keeps the Huffman alphabet compact and matches cuSZ's default).
pub const DEFAULT_RADIUS: u32 = 512;

/// Configuration of the residual quantizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantizerConfig {
    /// Residuals `d` with `-radius < d < radius` are coded in range; `±radius`
    /// and beyond escape to the outlier section.
    pub radius: u32,
}

impl Default for QuantizerConfig {
    fn default() -> Self {
        QuantizerConfig {
            radius: DEFAULT_RADIUS,
        }
    }
}

/// Result of residual encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedResiduals {
    /// One code per sample: `0..=2·radius`, where `2·radius` is the escape.
    pub codes: Vec<u32>,
    /// Lattice values for escaped samples, in scan order.
    pub outliers: Vec<i64>,
}

impl QuantizerConfig {
    /// Number of distinct codes (including the escape symbol).
    #[inline]
    pub fn alphabet(&self) -> usize {
        2 * self.radius as usize + 1
    }

    /// The escape code.
    #[inline]
    pub fn escape(&self) -> u32 {
        2 * self.radius
    }

    /// Classify one *untrusted* code: `Ok(Some(delta))` for in-range codes,
    /// `Ok(None)` for the escape, `Err(code)` for codes outside the
    /// alphabet.
    #[inline]
    pub fn check_one(&self, code: u32) -> Result<Option<i64>, u32> {
        match code.cmp(&self.escape()) {
            std::cmp::Ordering::Less => Ok(Some(code as i64 - self.radius as i64)),
            std::cmp::Ordering::Equal => Ok(None),
            std::cmp::Ordering::Greater => Err(code),
        }
    }

    /// Map residuals to codes, and the lattice values of the escaped ones
    /// to outliers, into caller-owned buffers (cleared first), so
    /// per-block encode loops reuse steady-state capacity.
    ///
    /// The codes pass is branchless (a select per element, which LLVM
    /// vectorizes); outliers — rare by construction — are collected in a
    /// second pass only when the first saw at least one escape.
    pub fn encode_into(
        &self,
        deltas: &[i64],
        lattice: &[i64],
        codes: &mut Vec<u32>,
        outliers: &mut Vec<i64>,
    ) {
        assert_eq!(deltas.len(), lattice.len());
        codes.clear();
        outliers.clear();
        let r = self.radius as i64;
        let esc = self.escape();
        let mut escapes = 0usize;
        codes.extend(deltas.iter().map(|&d| {
            let in_range = d > -r && d < r;
            escapes += !in_range as usize;
            if in_range {
                (d + r) as u32
            } else {
                esc
            }
        }));
        if escapes > 0 {
            outliers.reserve(escapes);
            outliers.extend(
                deltas
                    .iter()
                    .zip(lattice)
                    .filter(|&(&d, _)| !(d > -r && d < r))
                    .map(|(_, &q)| q),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(q: &QuantizerConfig, deltas: &[i64], lattice: &[i64]) -> EncodedResiduals {
        let (mut codes, mut outliers) = (Vec::new(), Vec::new());
        q.encode_into(deltas, lattice, &mut codes, &mut outliers);
        EncodedResiduals { codes, outliers }
    }

    #[test]
    fn small_residuals_roundtrip() {
        let q = QuantizerConfig { radius: 8 };
        for d in -7..=7i64 {
            let enc = encode(&q, &[d], &[999]);
            assert!(enc.outliers.is_empty(), "{d} should be in-range");
            assert_eq!(q.check_one(enc.codes[0]), Ok(Some(d)));
        }
    }

    #[test]
    fn boundary_residuals_escape() {
        let q = QuantizerConfig { radius: 8 };
        for d in [-8i64, 8, 100, -1000] {
            let enc = encode(&q, &[d], &[42]);
            assert_eq!(enc.codes, vec![q.escape()]);
            assert_eq!(enc.outliers, vec![42]);
            assert_eq!(q.check_one(enc.codes[0]), Ok(None));
        }
    }

    #[test]
    fn alphabet_size() {
        let q = QuantizerConfig { radius: 512 };
        assert_eq!(q.alphabet(), 1025);
        assert_eq!(q.escape(), 1024);
    }

    #[test]
    fn stream_encode_counts_outliers() {
        let q = QuantizerConfig { radius: 4 };
        let deltas = vec![0, 3, -3, 100, -100, 2];
        let lattice = vec![10, 11, 12, 13, 14, 15];
        let enc = encode(&q, &deltas, &lattice);
        assert_eq!(enc.codes.len(), 6);
        assert_eq!(enc.outliers, vec![13, 14]);
        assert_eq!(enc.codes.iter().filter(|&&c| c == q.escape()).count(), 2);
    }

    #[test]
    fn default_radius_matches_constant() {
        assert_eq!(QuantizerConfig::default().radius, DEFAULT_RADIUS);
    }
}
