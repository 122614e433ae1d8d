//! Top-level error-bounded compressor (the SZ3 baseline of the paper):
//! [`SzCompressor::compress`] / [`SzCompressor::decompress`], both
//! fallible, and the [`EncodedStream`] they trade in.

use cfc_tensor::{Field, FieldStats, Shape};

use crate::codec;
use crate::error::{CfcError, Reader};
use crate::error_bound::ErrorBound;
use crate::huffman::HuffmanTable;
use crate::lattice::{dequantize, QuantLattice};
use crate::lossless;
use crate::predict::{LorenzoPredictor, Predictor};
use crate::quantizer::QuantizerConfig;
use crate::scratch::{DecodeScratch, EncodeScratch};
use crate::stream::{Container, SectionTag};

/// Which local predictor the baseline pipeline uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// 1-layer Lorenzo (the paper's baseline configuration).
    Lorenzo,
}

/// A compressed field plus the bookkeeping the evaluation harness reports.
#[derive(Debug, Clone)]
pub struct EncodedStream {
    /// Serialized self-describing container (header + tagged sections).
    pub bytes: Vec<u8>,
    /// Absolute error bound the reconstruction satisfies pointwise.
    pub eb_abs: f64,
    /// Number of escaped (outlier) samples.
    pub n_outliers: usize,
}

impl EncodedStream {
    /// Compression ratio against `f32` input: `4·n_samples / stream bytes`
    /// (dimensionless; > 1 means the stream is smaller than the raw data).
    ///
    /// Returns `0.0` for an empty input (`n_samples == 0`) — there is no
    /// meaningful ratio for zero samples, and callers must not divide by it.
    pub fn ratio(&self, n_samples: usize) -> f64 {
        if n_samples == 0 || self.bytes.is_empty() {
            return 0.0;
        }
        (n_samples * 4) as f64 / self.bytes.len() as f64
    }

    /// Bit rate in **bits per sample** against `f32` input (raw data is 32
    /// bits/sample; lower is better).
    ///
    /// Returns `0.0` for an empty input (`n_samples == 0`) rather than
    /// dividing by zero.
    pub fn bit_rate(&self, n_samples: usize) -> f64 {
        if n_samples == 0 {
            return 0.0;
        }
        self.bytes.len() as f64 * 8.0 / n_samples as f64
    }
}

/// An error-bounded prediction-based lossy compressor.
#[derive(Debug, Clone, Copy)]
pub struct SzCompressor {
    /// Error-bound mode and magnitude.
    pub bound: ErrorBound,
    /// Residual quantizer configuration.
    pub quantizer: QuantizerConfig,
    /// Local predictor selection.
    pub predictor: PredictorKind,
}

impl SzCompressor {
    /// Baseline configuration used throughout the paper: Lorenzo predictor,
    /// default radius, relative error bound.
    pub fn baseline(rel_eb: f64) -> Self {
        SzCompressor {
            bound: ErrorBound::Relative(rel_eb),
            quantizer: QuantizerConfig::default(),
            predictor: PredictorKind::Lorenzo,
        }
    }

    /// Compress a prequantized lattice with an arbitrary predictor,
    /// returning the container for callers that append extra sections and
    /// the outlier count — the one encode every `SzCompressor` stream, the
    /// cross-field pipeline and the archive's block encoder in `cfc-core`
    /// go through. Residuals, codes, outliers, the staged entropy payload
    /// and the LZ matcher all live in `scratch`, so per-block encode loops
    /// stop growing their element-proportional buffers after the first
    /// block.
    pub fn compress_lattice_with(
        &self,
        lattice: &QuantLattice,
        predictor: &dyn Predictor,
        eb: f64,
        scratch: &mut EncodeScratch,
    ) -> (Container, usize) {
        let before = scratch.caps();
        // split borrows: each stage's output is the next one's input
        let EncodeScratch {
            deltas,
            codes,
            outliers,
            payload,
            lz,
            ..
        } = scratch;
        predictor.residuals_into(lattice, deltas);
        self.quantizer
            .encode_into(deltas, lattice.as_slice(), codes, outliers);
        let mut container = Container::new(lattice.shape(), eb, self.quantizer.radius);
        container.push(SectionTag::Residuals, encode_codes_into(codes, payload, lz));
        container.push(
            SectionTag::Outliers,
            encode_outliers_into(outliers, payload, lz),
        );
        let n_outliers = outliers.len();
        scratch.track(before);
        (container, n_outliers)
    }

    /// Decode a container's residual sections with an arbitrary predictor.
    ///
    /// Fully fallible, and refuses what every other decode refuses:
    /// predictor side info, missing sections, corrupt payloads, and count
    /// mismatches all return [`CfcError`]. The lossless payload, residual
    /// codes, and outliers decode into `scratch`, so repeated block decodes
    /// through one scratch allocate only the reconstructed lattice.
    pub fn decompress_lattice_with(
        &self,
        container: &Container,
        predictor: &dyn Predictor,
        scratch: &mut DecodeScratch,
    ) -> Result<QuantLattice, CfcError> {
        let mut data = Vec::new();
        let shape = decode_rows(container, predictor, usize::MAX, scratch, Some(&mut data))?;
        Ok(QuantLattice::from_vec(shape, data))
    }
}

impl SzCompressor {
    /// Compress one field into a self-describing byte stream.
    ///
    /// Fails with [`CfcError::InvalidInput`] on non-finite samples or a
    /// bound that resolves non-positive (e.g. a relative bound on a
    /// constant field) — both detected by `ErrorBound::try_resolve`.
    pub fn compress(&self, field: &Field) -> Result<EncodedStream, CfcError> {
        self.compress_with(field, &mut EncodeScratch::new())
    }

    /// Decode a stream produced by [`SzCompressor::compress`].
    ///
    /// Total over arbitrary bytes: corruption anywhere — header, section
    /// table, Huffman payloads, outlier varints, residual replay — returns
    /// `Err`, never panics.
    pub fn decompress(&self, bytes: &[u8]) -> Result<Field, CfcError> {
        self.decompress_with(bytes, &mut DecodeScratch::new())
    }

    /// [`SzCompressor::compress`] with reusable scratch buffers: residuals,
    /// codes, and outliers are staged in `scratch`, so per-block encode
    /// loops reuse the element-proportional buffers across blocks. Output
    /// bytes are identical to [`SzCompressor::compress`].
    pub fn compress_with(
        &self,
        field: &Field,
        scratch: &mut EncodeScratch,
    ) -> Result<EncodedStream, CfcError> {
        let stats = FieldStats::of(field);
        // quantize at the ULP-guarded bound so the f32 reconstruction still
        // satisfies the user-facing bound exactly; the container carries the
        // quantization bound (the decoder must scale by it), the stream
        // reports the user-facing bound
        let eb_user = self.bound.try_resolve(&stats)?;
        let eb = self.bound.try_resolve_quantization(&stats)?;
        let lattice = QuantLattice::prequantize(field, eb);
        let PredictorKind::Lorenzo = self.predictor;
        let (container, n_outliers) =
            self.compress_lattice_with(&lattice, &LorenzoPredictor, eb, scratch);
        Ok(EncodedStream {
            bytes: container.to_bytes(),
            eb_abs: eb_user,
            n_outliers,
        })
    }

    /// [`SzCompressor::decompress`] with reusable scratch buffers:
    /// [`SzCompressor::decompress_rows_with`] of every row under this
    /// compressor's own predictor.
    pub fn decompress_with(
        &self,
        bytes: &[u8],
        scratch: &mut DecodeScratch,
    ) -> Result<Field, CfcError> {
        let container = Container::try_from_bytes(bytes)?;
        let PredictorKind::Lorenzo = self.predictor;
        self.decompress_rows_with(&container, &LorenzoPredictor, usize::MAX, scratch)
    }

    /// [`SzCompressor::decompress_rows_into`] into a fresh [`Field`],
    /// allocated once the stream has decoded (and so holds that many
    /// samples) and written once.
    ///
    /// # Panics
    /// If `rows` is zero.
    pub fn decompress_rows_with(
        &self,
        container: &Container,
        predictor: &dyn Predictor,
        rows: usize,
        scratch: &mut DecodeScratch,
    ) -> Result<Field, CfcError> {
        let shape = decode_rows(container, predictor, rows, scratch, None)?;
        let samples = dequantize(&scratch.lattice, container.eb).collect();
        Ok(Field::from_vec(shape, samples))
    }

    /// Decode the leading `rows` axis-0 rows of `container` (all of them
    /// when `rows` reaches the extent) under an arbitrary predictor into
    /// `out`, and return their shape — the one decode behind every block a
    /// reader asks for, a region read that ends inside a block included.
    /// The staging buffers of [`SzCompressor::decompress_lattice_with`] and
    /// the lattice itself live in `scratch`, and the samples are
    /// dequantized straight out of it into `out`, so a steady-state decode
    /// allocates nothing that scales with the block.
    ///
    /// The rows are the whole decode's first rows bit for bit, and the
    /// call fails on exactly the streams the whole decode fails on: the
    /// entropy stage still decodes every code and outlier, and what the
    /// predictor does not walk is still checked. `out` is looked at only
    /// after all that: a destination that does not hold exactly those rows
    /// is a [`CfcError::ShapeMismatch`], and nothing is written to it.
    ///
    /// # Panics
    /// If `rows` is zero.
    pub fn decompress_rows_into(
        &self,
        container: &Container,
        predictor: &dyn Predictor,
        rows: usize,
        scratch: &mut DecodeScratch,
        out: &mut [f32],
    ) -> Result<Shape, CfcError> {
        let shape = decode_rows(container, predictor, rows, scratch, None)?;
        if out.len() != shape.len() {
            return Err(CfcError::ShapeMismatch {
                expected: format!("{shape} ({} samples)", shape.len()),
                found: format!("a destination of {} samples", out.len()),
            });
        }
        for (v, q) in out
            .iter_mut()
            .zip(dequantize(&scratch.lattice, container.eb))
        {
            *v = q;
        }
        Ok(shape)
    }
}

/// The one decode every `SzCompressor` decode runs: entropy-decode
/// `container`'s two residual sections — whole, whatever `rows` says —
/// through `scratch`'s staging buffers and rebuild the raw lattice integers
/// of the leading `rows` axis-0 rows (see [`codec::try_decode_into`]) into
/// `out`, or into `scratch.lattice` when `out` is `None`; returns their
/// shape.
fn decode_rows(
    container: &Container,
    predictor: &dyn Predictor,
    rows: usize,
    scratch: &mut DecodeScratch,
    out: Option<&mut Vec<i64>>,
) -> Result<Shape, CfcError> {
    // written by the block-regression predictor this codec once had; no
    // predictor left reads it, and replaying such a stream through
    // another would return garbage as `Ok`
    if container.section(SectionTag::PredictorSideInfo).is_some() {
        return Err(CfcError::Corrupt {
            context: "predictor side info",
            detail: "block-regression streams are not supported".into(),
        });
    }
    let before = scratch.caps();
    let mut lattice = std::mem::take(&mut scratch.lattice);
    let decoded = decode_sections(
        container,
        predictor,
        rows,
        scratch,
        out.unwrap_or(&mut lattice),
    );
    scratch.lattice = lattice;
    scratch.track(before);
    decoded
}

/// [`decode_rows`] past its checks, between its scratch bookkeeping.
fn decode_sections(
    container: &Container,
    predictor: &dyn Predictor,
    rows: usize,
    scratch: &mut DecodeScratch,
    out: &mut Vec<i64>,
) -> Result<Shape, CfcError> {
    let shape = container.shape;
    try_decode_codes_into(
        container.require_section(SectionTag::Residuals)?,
        shape.len(),
        &mut scratch.payload,
        &mut scratch.codes,
    )?;
    try_decode_outliers_bounded_into(
        container.require_section(SectionTag::Outliers)?,
        shape.len(),
        &mut scratch.payload,
        &mut scratch.outliers,
    )?;
    let quant = QuantizerConfig {
        radius: container.radius,
    };
    codec::try_decode_into(
        shape,
        rows,
        &scratch.codes,
        &scratch.outliers,
        predictor,
        &quant,
        out,
    )
}

/// The most samples one stored byte of a residual section can decode to:
/// the lossless stage makes at most `8 × MAX_MATCH` bytes of each
/// (`lossless::decode_tokens` holds a stream to one flag bit per token and
/// `MAX_MATCH` bytes per token), and Huffman at most 8 codes of each of
/// those ([`HuffmanTable::try_decode_into`] holds a count to one bit per
/// symbol), one code per sample. A decode of more samples than this many
/// times the bytes it reads fails in those checks, so a destination sized
/// from an untrusted header is allocated only below it.
pub const MAX_SAMPLES_PER_BYTE: usize = 8 * lossless::MAX_MATCH * 8;

/// Huffman + LZSS encode residual codes through caller-owned staging: the
/// Huffman table and bitstream land in `payload` (cleared first) and the
/// lossless stage reuses `lz`, so per-block encode loops allocate only the
/// output.
pub fn encode_codes_into(
    codes: &[u32],
    payload: &mut Vec<u8>,
    lz: &mut lossless::LzScratch,
) -> Vec<u8> {
    payload.clear();
    let table = HuffmanTable::from_symbols(codes);
    table.serialize_into(payload);
    table
        .try_encode_append(codes, payload)
        .expect("table was built from these symbols");
    lossless::compress_with(payload, lz)
}

/// Fallible inverse of [`encode_codes_into`] through caller-owned buffers:
/// `payload` stages the decompressed lossless bytes, `out` receives the
/// codes. Both are cleared first, so block loops reuse their steady-state
/// capacity.
///
/// `count` is the expected symbol count (the stream's declared element
/// count); it also budgets the lossless stage, since a legitimate payload
/// holds at most the serialized table (≤ 5 bytes/distinct symbol, distinct
/// symbols ≤ count) plus `count` codes of ≤ 32 bits — anything claiming
/// more is a decompression bomb and is rejected before allocation.
pub fn try_decode_codes_into(
    bytes: &[u8],
    count: usize,
    payload: &mut Vec<u8>,
    out: &mut Vec<u32>,
) -> Result<(), CfcError> {
    let budget = count.saturating_mul(4 + 5).saturating_add(1024);
    lossless::try_decompress_bounded_into(bytes, budget, payload)?;
    let (table, used) = HuffmanTable::try_deserialize(payload)?;
    table.try_decode_into(&payload[used..], count, out)
}

/// Serialize outliers (zig-zag varint) and LZSS the result, through
/// caller-owned staging (see [`encode_codes_into`]).
pub fn encode_outliers_into(
    outliers: &[i64],
    payload: &mut Vec<u8>,
    lz: &mut lossless::LzScratch,
) -> Vec<u8> {
    payload.clear();
    payload.extend_from_slice(&(outliers.len() as u64).to_le_bytes());
    for &v in outliers {
        let zz = ((v << 1) ^ (v >> 63)) as u64;
        write_varint(payload, zz);
    }
    lossless::compress_with(payload, lz)
}

/// Fallible inverse of [`encode_outliers_into`] for untrusted input,
/// through caller-owned buffers (see [`try_decode_codes_into`]).
///
/// `max_count` (the stream's declared element count — at most one outlier
/// per sample) budgets both the claimed outlier count and the lossless
/// stage (each outlier is a ≤ 10-byte varint), so a hostile stream cannot
/// demand allocations beyond what its own header already commits to.
pub fn try_decode_outliers_bounded_into(
    bytes: &[u8],
    max_count: usize,
    payload: &mut Vec<u8>,
    out: &mut Vec<i64>,
) -> Result<(), CfcError> {
    out.clear();
    let budget = max_count.saturating_mul(10).saturating_add(8);
    lossless::try_decompress_bounded_into(bytes, budget, payload)?;
    let mut r = Reader::new(payload);
    let n = r.u64("outlier count")?;
    if n > max_count as u64 {
        return Err(CfcError::Corrupt {
            context: "outlier stream",
            detail: format!("{n} outliers for at most {max_count} samples"),
        });
    }
    // every outlier occupies at least one varint byte
    if n > r.remaining() as u64 {
        return Err(CfcError::Corrupt {
            context: "outlier stream",
            detail: format!("{n} outliers claimed in {} payload bytes", r.remaining()),
        });
    }
    out.reserve(n as usize);
    for _ in 0..n {
        let zz = read_varint(&mut r)?;
        out.push(((zz >> 1) as i64) ^ -((zz & 1) as i64));
    }
    Ok(())
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(r: &mut Reader) -> Result<u64, CfcError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = r.u8("outlier varint")?;
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            break;
        }
        shift += 7;
        if shift >= 64 {
            return Err(CfcError::Corrupt {
                context: "outlier varint",
                detail: "continuation past 64 bits".into(),
            });
        }
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfc_tensor::{Axis, Shape};

    fn roundtrip(c: &SzCompressor, f: &Field) -> (EncodedStream, Field) {
        let stream = c.compress(f).expect("compress");
        let dec = c.decompress(&stream.bytes).expect("decompress");
        (stream, dec)
    }

    fn smooth_field_2d(rows: usize, cols: usize) -> Field {
        Field::from_fn(Shape::d2(rows, cols), |idx| {
            let (i, j) = (idx[0] as f32, idx[1] as f32);
            (i * 0.1).sin() * 30.0 + (j * 0.07).cos() * 20.0 + 100.0
        })
    }

    fn smooth_field_3d(d: usize, r: usize, c: usize) -> Field {
        Field::from_fn(Shape::d3(d, r, c), |idx| {
            let (k, i, j) = (idx[0] as f32, idx[1] as f32, idx[2] as f32);
            (k * 0.3).sin() * 10.0 + (i * 0.1).cos() * 25.0 + j * 0.05
        })
    }

    fn check_bound(orig: &Field, dec: &Field, eb: f64) {
        for (a, b) in orig.as_slice().iter().zip(dec.as_slice()) {
            assert!(
                ((a - b).abs() as f64) <= eb * (1.0 + 1e-9),
                "error bound violated: |{a} - {b}| > {eb}"
            );
        }
    }

    #[test]
    fn lorenzo_2d_roundtrip_respects_bound() {
        let f = smooth_field_2d(64, 64);
        for rel in [1e-2, 1e-3, 1e-4] {
            let c = SzCompressor::baseline(rel);
            let (stream, dec) = roundtrip(&c, &f);
            check_bound(&f, &dec, stream.eb_abs);
        }
    }

    #[test]
    fn lorenzo_3d_roundtrip_respects_bound() {
        let f = smooth_field_3d(8, 24, 24);
        let c = SzCompressor::baseline(1e-3);
        let (stream, dec) = roundtrip(&c, &f);
        assert_eq!(dec.shape(), f.shape());
        check_bound(&f, &dec, stream.eb_abs);
    }

    #[test]
    fn smooth_data_compresses_above_10x() {
        let f = smooth_field_2d(128, 128);
        let c = SzCompressor::baseline(1e-3);
        let stream = c.compress(&f).unwrap();
        let ratio = stream.ratio(f.len());
        assert!(ratio > 10.0, "ratio {ratio} too low for smooth data");
    }

    #[test]
    fn tighter_bound_means_lower_ratio() {
        let f = smooth_field_2d(96, 96);
        let loose = SzCompressor::baseline(1e-2).compress(&f).unwrap();
        let tight = SzCompressor::baseline(1e-4).compress(&f).unwrap();
        assert!(loose.bytes.len() < tight.bytes.len());
    }

    #[test]
    fn decompression_is_deterministic() {
        let f = smooth_field_3d(6, 20, 20);
        let c = SzCompressor::baseline(1e-3);
        let s1 = c.compress(&f).unwrap();
        let s2 = c.compress(&f).unwrap();
        assert_eq!(s1.bytes, s2.bytes);
        assert_eq!(
            c.decompress(&s1.bytes).unwrap().as_slice(),
            c.decompress(&s2.bytes).unwrap().as_slice()
        );
    }

    #[test]
    fn rough_data_still_bounded() {
        // adversarial: pseudo-random field, mostly outliers at small radius
        let f = Field::from_fn(Shape::d2(32, 32), |idx| {
            let x = (idx[0] * 7919 + idx[1] * 104729) % 1000;
            x as f32 * 3.7 - 1500.0
        });
        let c = SzCompressor {
            bound: ErrorBound::Absolute(0.5),
            quantizer: QuantizerConfig { radius: 16 },
            predictor: PredictorKind::Lorenzo,
        };
        let (stream, dec) = roundtrip(&c, &f);
        assert!(stream.n_outliers > 0);
        check_bound(&f, &dec, 0.5);
    }

    #[test]
    fn absolute_bound_mode() {
        let f = smooth_field_2d(40, 40);
        let c = SzCompressor {
            bound: ErrorBound::Absolute(0.25),
            quantizer: QuantizerConfig::default(),
            predictor: PredictorKind::Lorenzo,
        };
        let (stream, dec) = roundtrip(&c, &f);
        assert_eq!(stream.eb_abs, 0.25);
        check_bound(&f, &dec, 0.25);
    }

    #[test]
    fn slice_consistency_after_roundtrip() {
        // decompressed 3-D field slices must equal slicing the decompressed
        // volume (sanity on shape/stride handling)
        let f = smooth_field_3d(5, 16, 16);
        let c = SzCompressor::baseline(1e-3);
        let dec = c.decompress(&c.compress(&f).unwrap().bytes).unwrap();
        let s = dec.slice(Axis::X, 2);
        for i in 0..16 {
            for j in 0..16 {
                assert_eq!(s.get(&[i, j]), dec.get(&[2, i, j]));
            }
        }
    }

    #[test]
    fn a_destination_of_the_wrong_length_is_a_typed_error_and_stays_untouched() {
        let f = smooth_field_3d(6, 10, 12);
        let c = SzCompressor::baseline(1e-3);
        let container = Container::try_from_bytes(&c.compress(&f).unwrap().bytes).unwrap();
        let whole = c.decompress(&container.to_bytes()).unwrap();
        let into = |rows: usize, out: &mut [f32]| {
            let mut scratch = DecodeScratch::new();
            c.decompress_rows_into(&container, &LorenzoPredictor, rows, &mut scratch, out)
        };
        for rows in [1, 4, 6, usize::MAX] {
            let n = rows.min(6) * 10 * 12;
            for len in [0, 1, n - 1, n + 1, 2 * n] {
                let mut out = vec![f32::NAN; len];
                let got = into(rows, &mut out);
                assert!(
                    matches!(got, Err(CfcError::ShapeMismatch { .. })),
                    "{rows} rows into {len}: {got:?}"
                );
                assert!(out.iter().all(|v| v.is_nan()), "{rows} rows into {len}");
            }
            let mut out = vec![f32::NAN; n];
            let shape = into(rows, &mut out).unwrap();
            let want = whole.slab(0, rows.min(6));
            assert_eq!(shape, want.shape());
            assert!(out
                .iter()
                .zip(want.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        // a damaged stream reports the damage whatever it is handed: the
        // destination is looked at only once the stream has decoded
        let mut damaged = container.clone();
        damaged
            .sections
            .retain(|(tag, _)| *tag != SectionTag::Outliers as u8);
        let mut scratch = DecodeScratch::new();
        for len in [0, 6 * 120] {
            assert!(matches!(
                c.decompress_rows_into(
                    &damaged,
                    &LorenzoPredictor,
                    usize::MAX,
                    &mut scratch,
                    &mut vec![0.0; len]
                ),
                Err(CfcError::MissingSection { .. })
            ));
        }
    }

    #[test]
    fn varint_roundtrip() {
        let vals: Vec<i64> = vec![0, 1, -1, 63, -64, 1 << 20, -(1 << 40), i64::MAX, i64::MIN];
        let bytes = encode_outliers_into(&vals, &mut Vec::new(), &mut lossless::LzScratch::new());
        let mut out = Vec::new();
        try_decode_outliers_bounded_into(&bytes, vals.len(), &mut Vec::new(), &mut out).unwrap();
        assert_eq!(out, vals);
    }

    #[test]
    fn non_finite_samples_rejected_at_compress() {
        // NaN hidden among varied values must not silently encode as 0
        // (f32 min/max skip NaN, so only the mean check can catch it)
        let mut v: Vec<f32> = (0..64).map(|i| i as f32).collect();
        v[7] = f32::NAN;
        let f = Field::from_vec(Shape::d2(8, 8), v);
        for c in [
            SzCompressor::baseline(1e-3),
            SzCompressor {
                bound: ErrorBound::Absolute(0.5),
                ..SzCompressor::baseline(1e-3)
            },
        ] {
            assert!(matches!(c.compress(&f), Err(CfcError::InvalidInput(_))));
        }
    }

    #[test]
    fn ratio_and_bitrate_guard_zero_samples() {
        let s = EncodedStream {
            bytes: vec![0u8; 100],
            eb_abs: 1e-3,
            n_outliers: 0,
        };
        assert_eq!(s.ratio(0), 0.0);
        assert_eq!(s.bit_rate(0), 0.0);
        assert!((s.ratio(100) - 4.0).abs() < 1e-12);
        assert!((s.bit_rate(100) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_and_bitrate_are_consistent() {
        let f = smooth_field_2d(64, 64);
        let stream = SzCompressor::baseline(1e-3).compress(&f).unwrap();
        let n = f.len();
        let ratio = stream.ratio(n);
        let rate = stream.bit_rate(n);
        assert!((ratio * rate - 32.0).abs() < 1e-9);
    }
}
