//! Umbrella crate re-exporting the whole cross-field compression workspace.
//!
//! Reproduction of "Enhancing Lossy Compression Through Cross-Field
//! Information for Scientific Applications" (SC 2024).
//!
//! Start with [`sz::SzCompressor`] (the baseline) and
//! [`core::CrossFieldCompressor`] (a target conditioned on its decompressed
//! anchors) for single fields, and [`core::archive`] ([`core::ArchiveBuilder`] → `ArchiveWriter` /
//! `ArchiveReader`) for whole multi-field snapshots. Every decode-path
//! failure is a typed [`CfcError`], never a panic.

pub use cfc_core as core;
pub use cfc_datagen as datagen;
pub use cfc_metrics as metrics;
pub use cfc_nn as nn;
pub use cfc_sz as sz;
pub use cfc_tensor as tensor;

pub use cfc_sz::{CfcError, EncodedStream};
