//! Compressed stream container format.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "CFSZ" | version u16 | ndim u8 | dims u64×ndim | eb f64 | radius u32
//! | n_sections u16 | { tag u8, len u64, bytes } ×n_sections
//! ```
//!
//! Section tags identify the payloads (Huffman-coded residuals, outliers,
//! predictor side info, embedded CFNN model, …). Unknown tags are preserved
//! so future extensions stay readable.
//!
//! Parsing is fully fallible: [`Container::try_from_bytes`] validates magic,
//! version, dimensionality, extents, and every section length against the
//! buffer bounds, returning [`CfcError`] on any violation — it never panics
//! or reads out of bounds on attacker-controlled input.

use bytes::BufMut;
use cfc_tensor::Shape;

use crate::error::{CfcError, Reader};

/// Stream magic bytes.
pub const MAGIC: &[u8; 4] = b"CFSZ";
/// Container version.
pub const VERSION: u16 = 1;

/// Upper bound on `shape.len()` accepted from untrusted headers.
///
/// Decode-side allocations scale with the *declared* element count (codes,
/// lattice, reconstruction), so this cap — together with the per-section
/// lossless budgets in `compressor` — bounds what a hostile stream can
/// demand. 2^28 samples = 1 GiB raw f32, comfortably above the paper's
/// largest field (98×1200×1200 ≈ 1.4×10^8 samples). Callers accepting
/// streams from the network can pre-screen further by parsing the header
/// with [`Container::try_from_bytes`] and checking `shape.len()` before
/// decoding.
pub const MAX_ELEMENTS: usize = 1 << 28;

/// Section tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SectionTag {
    /// Huffman table + coded residual codes (LZSS-wrapped).
    Residuals = 1,
    /// Outlier lattice values.
    Outliers = 2,
    /// Side information of the block-regression predictor: no longer
    /// written, and refused by [`crate::SzCompressor::decompress_with`].
    PredictorSideInfo = 3,
    /// Serialized CFNN weights (cross-field pipeline only).
    Model = 4,
    /// Hybrid-model weights (cross-field pipeline only).
    HybridWeights = 5,
    /// Cross-field metadata (anchor names, normalizers).
    CrossFieldMeta = 6,
}

impl SectionTag {
    /// Human-readable name used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            SectionTag::Residuals => "residuals",
            SectionTag::Outliers => "outliers",
            SectionTag::PredictorSideInfo => "predictor side info",
            SectionTag::Model => "model",
            SectionTag::HybridWeights => "hybrid weights",
            SectionTag::CrossFieldMeta => "cross-field metadata",
        }
    }
}

/// In-memory form of a compressed stream.
#[derive(Debug, Clone)]
pub struct Container {
    /// Shape of the encoded field.
    pub shape: Shape,
    /// Absolute error bound used.
    pub eb: f64,
    /// Quantizer radius.
    pub radius: u32,
    /// Tagged payload sections.
    pub sections: Vec<(u8, Vec<u8>)>,
}

impl Container {
    /// New empty container.
    pub fn new(shape: Shape, eb: f64, radius: u32) -> Self {
        Container {
            shape,
            eb,
            radius,
            sections: Vec::new(),
        }
    }

    /// Append a section.
    pub fn push(&mut self, tag: SectionTag, bytes: Vec<u8>) {
        self.sections.push((tag as u8, bytes));
    }

    /// Fetch a section body by tag.
    pub fn section(&self, tag: SectionTag) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag as u8)
            .map(|(_, b)| b.as_slice())
    }

    /// Fetch a section body, or a [`CfcError::MissingSection`] when absent.
    pub fn require_section(&self, tag: SectionTag) -> Result<&[u8], CfcError> {
        self.section(tag).ok_or(CfcError::MissingSection {
            tag: tag as u8,
            name: tag.name(),
        })
    }

    /// Total serialized size in bytes.
    pub fn serialized_len(&self) -> usize {
        let header = 4 + 2 + 1 + 8 * self.shape.ndim() + 8 + 4 + 2;
        header
            + self
                .sections
                .iter()
                .map(|(_, b)| 1 + 8 + b.len())
                .sum::<usize>()
    }

    /// Serialize to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_len());
        out.put_slice(MAGIC);
        out.put_u16_le(VERSION);
        out.put_u8(self.shape.ndim() as u8);
        for &d in self.shape.dims() {
            out.put_u64_le(d as u64);
        }
        out.put_f64_le(self.eb);
        out.put_u32_le(self.radius);
        out.put_u16_le(self.sections.len() as u16);
        for (tag, bytes) in &self.sections {
            out.put_u8(*tag);
            out.put_u64_le(bytes.len() as u64);
            out.put_slice(bytes);
        }
        out
    }

    /// Parse and validate from untrusted bytes.
    ///
    /// Checks, in order: magic, version, `ndim ∈ 1..=3`, non-zero extents
    /// whose product stays under [`MAX_ELEMENTS`], a finite positive error
    /// bound, a non-zero radius, and that every section length fits inside
    /// the remaining buffer. Any violation returns `Err` — this function is
    /// panic-free for arbitrary input.
    pub fn try_from_bytes(buf: &[u8]) -> Result<Self, CfcError> {
        let mut r = Reader::new(buf);
        let magic = r.bytes(4, "magic")?;
        if magic != MAGIC {
            return Err(CfcError::BadMagic {
                expected: *MAGIC,
                found: magic.to_vec(),
            });
        }
        let version = r.u16("version")?;
        if version != VERSION {
            return Err(CfcError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        let ndim = r.u8("ndim")? as usize;
        if !(1..=3).contains(&ndim) {
            return Err(CfcError::InvalidHeader(format!(
                "ndim {ndim} outside 1..=3"
            )));
        }
        let mut dims = Vec::with_capacity(ndim);
        let mut n_elems: usize = 1;
        for axis in 0..ndim {
            let d = r.u64("dims")?;
            let d = usize::try_from(d)
                .ok()
                .filter(|&d| d > 0)
                .ok_or_else(|| CfcError::InvalidHeader(format!("axis {axis} extent {d}")))?;
            n_elems = n_elems
                .checked_mul(d)
                .filter(|&n| n <= MAX_ELEMENTS)
                .ok_or_else(|| {
                    CfcError::InvalidHeader(format!("element count exceeds {MAX_ELEMENTS}"))
                })?;
            dims.push(d);
        }
        let shape = Shape::from_slice(&dims);
        let eb = r.f64("error bound")?;
        if !(eb.is_finite() && eb > 0.0) {
            return Err(CfcError::InvalidHeader(format!(
                "error bound {eb} not positive/finite"
            )));
        }
        let radius = r.u32("radius")?;
        if radius == 0 || radius > (1 << 30) {
            return Err(CfcError::InvalidHeader(format!(
                "quantizer radius {radius}"
            )));
        }
        let nsec = r.u16("section count")? as usize;
        // every section costs at least 9 header bytes, so an nsec that can't
        // fit is rejected before any allocation scales with it
        if nsec * 9 > r.remaining() {
            return Err(CfcError::Truncated {
                context: "section table",
                needed: nsec * 9,
                available: r.remaining(),
            });
        }
        let mut sections = Vec::with_capacity(nsec);
        for _ in 0..nsec {
            let tag = r.u8("section tag")?;
            let len = r.len_u64("section length")?;
            let bytes = r.bytes(len, "section body")?.to_vec();
            sections.push((tag, bytes));
        }
        Ok(Container {
            shape,
            eb,
            radius,
            sections,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_empty() {
        let c = Container::new(Shape::d2(10, 20), 1e-3, 512);
        let c2 = Container::try_from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(c2.shape, c.shape);
        assert_eq!(c2.eb, c.eb);
        assert_eq!(c2.radius, c.radius);
        assert!(c2.sections.is_empty());
    }

    #[test]
    fn roundtrip_sections() {
        let mut c = Container::new(Shape::d3(4, 5, 6), 5e-4, 256);
        c.push(SectionTag::Residuals, vec![1, 2, 3]);
        c.push(SectionTag::Outliers, vec![]);
        c.push(SectionTag::Model, vec![9; 1000]);
        let c2 = Container::try_from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(c2.section(SectionTag::Residuals), Some(&[1u8, 2, 3][..]));
        assert_eq!(c2.section(SectionTag::Outliers), Some(&[][..]));
        assert_eq!(c2.section(SectionTag::Model).unwrap().len(), 1000);
        assert!(c2.section(SectionTag::HybridWeights).is_none());
    }

    #[test]
    fn serialized_len_is_exact() {
        let mut c = Container::new(Shape::d1(100), 1e-2, 512);
        c.push(SectionTag::Residuals, vec![0; 37]);
        assert_eq!(c.serialized_len(), c.to_bytes().len());
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(
            Container::try_from_bytes(b"NOPE\x01\x00"),
            Err(CfcError::BadMagic { .. })
        ));
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = Container::new(Shape::d1(4), 1e-3, 512).to_bytes();
        bytes[4] = 99;
        assert!(matches!(
            Container::try_from_bytes(&bytes),
            Err(CfcError::UnsupportedVersion { found: 99, .. })
        ));
    }

    #[test]
    fn require_section_errors_when_absent() {
        let c = Container::new(Shape::d1(1), 1.0, 1);
        assert!(matches!(
            c.require_section(SectionTag::Model),
            Err(CfcError::MissingSection { tag: 4, .. })
        ));
    }

    #[test]
    fn truncation_at_every_prefix_is_an_error_not_a_panic() {
        let mut c = Container::new(Shape::d3(3, 4, 5), 1e-3, 512);
        c.push(SectionTag::Residuals, vec![7; 100]);
        let bytes = c.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Container::try_from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must fail"
            );
        }
        assert!(Container::try_from_bytes(&bytes).is_ok());
    }

    #[test]
    fn hostile_headers_rejected() {
        // zero extent
        let mut c = Container::new(Shape::d2(4, 4), 1e-3, 512).to_bytes();
        c[7..15].copy_from_slice(&0u64.to_le_bytes());
        assert!(Container::try_from_bytes(&c).is_err());
        // absurd element count (overflow-safe)
        let mut c = Container::new(Shape::d3(2, 2, 2), 1e-3, 512).to_bytes();
        c[7..15].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(Container::try_from_bytes(&c).is_err());
        // non-finite error bound
        let mut c = Container::new(Shape::d1(4), 1e-3, 512).to_bytes();
        let eb_off = 4 + 2 + 1 + 8;
        c[eb_off..eb_off + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(Container::try_from_bytes(&c).is_err());
        // section length pointing past the buffer
        let mut c = Container::new(Shape::d1(4), 1e-3, 512);
        c.push(SectionTag::Residuals, vec![1, 2, 3]);
        let mut bytes = c.to_bytes();
        let len_off = bytes.len() - 3 - 8;
        bytes[len_off..len_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(Container::try_from_bytes(&bytes).is_err());
    }
}
