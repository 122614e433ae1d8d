//! `cfc-sz` — an SZ3-style prediction-based error-bounded lossy compressor
//! with a fallible API.
//!
//! This crate is the substrate the paper's contribution plugs into. It
//! reimplements, from scratch, the full pipeline of a modern
//! prediction-based scientific compressor:
//!
//! ```text
//!   field ──► prequantize ──► predict ──► postquantize ──► Huffman ──► LZSS ──► bytes
//!            (dual-quant,      (Lorenzo /   (codes +        (canonical)  (deflate-
//!             error-bounded)    pluggable)    outliers)                    like)
//! ```
//!
//! * **Fallible API** ([`compressor`]): [`SzCompressor::compress`]
//!   `(&Field) -> Result<EncodedStream, CfcError>` and
//!   [`SzCompressor::decompress`] `(&[u8]) -> Result<Field, CfcError>`. The
//!   decode path is *total*: malformed, truncated, or adversarial bytes
//!   return [`CfcError`], never panic, so streams can be accepted from
//!   untrusted sources. The cross-field compressor and the multi-field
//!   archive in `cfc-core` build on the same pipeline through
//!   [`SzCompressor::compress_lattice_with`] and
//!   [`SzCompressor::decompress_rows_into`].
//! * **Dual quantization** (paper §III-D1, after cuSZ): values are snapped to
//!   the `2·eb` lattice *before* prediction, eliminating the read-after-write
//!   dependency of classic SZ and guaranteeing `|v − v'| ≤ eb` regardless of
//!   the predictor. Compression-side prediction is embarrassingly parallel.
//! * **Pluggable predictors** over the integer lattice ([`predict`]):
//!   Lorenzo (1/2/3-D) on row kernels, held to its per-point rule by the
//!   per-point walks [`predict::residuals_per_point`] and
//!   [`predict::reconstruct_per_point`]. The cross-field + hybrid predictor
//!   of the paper lives in `cfc-core` and implements the same
//!   [`predict::Predictor`] trait.
//! * **Entropy stage**: canonical Huffman over quantization codes
//!   ([`huffman`]), decoded through a checked bit reader ([`bitstream`]).
//! * **Lossless back-end**: an LZSS + Huffman byte compressor ([`lossless`])
//!   standing in for zstd.
//! * **Self-describing container** ([`stream`]): magic, version, shape,
//!   bound, and tagged sections, validated end to end by
//!   [`stream::Container::try_from_bytes`]. Every field this crate
//!   parses out of an untrusted byte slice is read through
//!   [`error::Reader`], which returns [`CfcError::Truncated`] instead of
//!   running past the end.

pub mod bitstream;
pub mod codec;
pub mod compressor;
pub mod crc;
pub mod error;
pub mod error_bound;
pub mod huffman;
pub mod lattice;
pub mod lossless;
pub mod predict;
pub mod quantizer;
pub mod scratch;
pub mod stream;

pub use compressor::{EncodedStream, PredictorKind, SzCompressor};
pub use crc::crc32;
pub use error::CfcError;
pub use error_bound::ErrorBound;
pub use lattice::QuantLattice;
pub use predict::{LorenzoPredictor, Predictor};
pub use quantizer::{QuantizerConfig, DEFAULT_RADIUS};
pub use scratch::{DecodeScratch, EncodeScratch, PooledScratch, ScratchPool};
