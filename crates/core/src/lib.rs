//! `cfc-core` — cross-field enhanced lossy compression (the paper's
//! contribution), from single-field pipeline to whole-snapshot archive.
//!
//! Pipeline (paper Fig. 2):
//!
//! ```text
//!  anchor fields ──► backward differences ──► CFNN ──► predicted target
//!        │                                              differences
//!        │                                                  │
//!        ▼                                                  ▼
//!   (compressed separately,            Lorenzo ──► hybrid prediction model
//!    decompressed versions feed                         │
//!    inference on BOTH sides)                           ▼
//!                                          dual-quant residuals ► Huffman ► LZSS
//! ```
//!
//! * [`diffnet`] builds the CFNN (paper Fig. 4) for a dataset configuration;
//! * [`train`] samples co-located difference patches and trains by MSE/Adam;
//! * [`predict`] runs slice-batched inference producing per-axis predicted
//!   difference fields;
//! * [`hybrid`] learns the weighted combination of the `n+1` predictors
//!   (paper §III-D3);
//! * [`predictor`] adapts everything into a causal [`cfc_sz::Predictor`];
//! * [`pipeline`] is the single-field compressor,
//!   [`CrossFieldCompressor`]: target and decompressed anchors in,
//!   error-bounded stream (with embedded model) out, and back;
//! * [`archive`] is the dataset-level entry point, layered as
//!   `archive::format` (wire structs) / `archive::writer` /
//!   `archive::reader` / `archive::store`: [`ArchiveBuilder`] →
//!   [`ArchiveWriter`] streams a whole multi-field snapshot (anchors,
//!   baselines, and cross-field targets) into one versioned,
//!   self-describing *chunked* container — every field split into
//!   independently decodable, CRC-protected blocks, encoded in parallel —
//!   that [`ArchiveReader`] opens from any positional byte source with **no
//!   out-of-band configuration**, serving whole snapshots
//!   (`decode_all`), single blocks (`decode_block`), or axis-aligned
//!   windows (`decode_region`) while reading only the bytes it needs.
//!   For concurrent serving, [`ArchiveStore`] wraps a reader in a
//!   thread-safe decoded-block LRU cache with single-flight dedup and
//!   [`StoreStats`] observability.
//!
//! Every decode path is fallible: corrupt or adversarial bytes surface as
//! [`cfc_sz::CfcError`], never a panic.

pub mod archive;
pub mod config;
pub mod diffnet;
pub mod hybrid;
pub mod pipeline;
pub mod predict;
pub mod predictor;
pub mod train;

pub use archive::{
    ArchiveBuilder, ArchiveEntry, ArchiveReader, ArchiveReport, ArchiveStore, ArchiveWriter,
    FieldInfo, FieldReport, FieldRole, StoreConfig, StoreStats,
};
pub use config::{CfnnSpec, CrossFieldConfig, TrainConfig};
pub use hybrid::HybridModel;
pub use pipeline::{CrossFieldCompressor, CrossFieldStream};
pub use train::{train_cfnn, TrainReport, TrainedCfnn};
