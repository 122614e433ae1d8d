//! Archive read path: lazy, stateless decode of whole snapshots, single
//! fields, single blocks, or axis-aligned regions.
//!
//! [`ArchiveReader::open`] parses and validates only the manifest; payload
//! bytes are read (and CRC-checked) when something is decoded. Every
//! decode error is wrapped with the field (and, where block random access
//! is involved, block index) it occurred in via
//! [`CfcError::in_field`] — match on
//! [`CfcError::root_cause`] when you care about the underlying failure.
//!
//! The reader is deliberately *stateless*: nothing decoded is retained
//! between calls (beyond caller-provided [`ArchiveScratch`] buffers).
//! For a serving layer that caches decoded blocks across calls and
//! threads, wrap a reader in [`super::store::ArchiveStore`].

use std::collections::HashMap;

use cfc_sz::error::Reader;
use cfc_sz::stream::Container;
use cfc_sz::{crc32, CfcError, Codec, DecodeScratch, SzCompressor};
use cfc_tensor::{Dataset, Field, Region, Shape};

use crate::hybrid::HybridModel;
use crate::pipeline::{check_model_fits, deserialize_model};
use crate::predict::CfnnInference;
use crate::predictor::{CrossFieldHybridPredictor, TemporalHybridPredictor, TEMPORAL_ARITY};

use super::damage::{DamageMap, DecodePolicy, Salvaged};
use super::format::{
    block_range, parse_entry_v1, parse_entry_v2, parse_entry_v3, slab_shape_of, ArchiveEntry,
    BlockMeta, FieldRole, TocReader, ARCHIVE_MAGIC, ARCHIVE_VERSION, MIN_SUPPORTED_VERSION,
};
use super::source::ArchiveSource;
use super::{run_parallel, run_parallel_scratch};

/// A slab of `fill` values shaped like block `idx` of a v2 entry — what a
/// salvage decode substitutes for a damaged block.
pub(crate) fn fill_slab(entry: &ArchiveEntry, idx: usize, fill: f32) -> Field {
    let shape = entry.shape.expect("v2 entries record shape");
    let (r0, r1) = block_range(shape.dims()[0], entry.chunk_slabs, idx);
    let slab = slab_shape_of(shape, r1 - r0);
    let n = slab.len();
    Field::from_vec(slab, vec![fill; n])
}

/// Record block `idx` of the (epoch-qualified) field `name` as damaged in
/// `damage`, attributing the cause: when `e` carries another field's
/// attribution (a corrupt anchor block discovered while decoding a target,
/// or a damaged chain predecessor discovered while decoding a temporal
/// delta), that field's own block is recorded as the root damage and
/// `name`'s block as cascaded from it.
pub(crate) fn record_block_damage(damage: &mut DamageMap, name: &str, idx: usize, e: &CfcError) {
    let root = e.root_cause().clone();
    if let CfcError::InField { field, block, .. } = e {
        if field != name {
            damage.record(field, block.unwrap_or(idx), None, root.clone());
            damage.record(name, idx, Some(field.clone()), root);
            return;
        }
    }
    damage.record(name, idx, None, root);
}

/// Reusable per-worker buffers for block decode: the raw (compressed)
/// block bytes, the codec-level [`DecodeScratch`] and the CFNN activation
/// workspace. One scratch per worker thread lets steady-state block decode
/// reuse its big element-proportional buffers instead of reallocating them
/// per block; only the decoded field itself (and small per-stream
/// transients) is freshly allocated.
#[derive(Debug, Default)]
pub struct ArchiveScratch {
    /// Raw block bytes read from the source (CRC-checked before decode).
    block: Vec<u8>,
    /// Codec-level reusable buffers (payload/codes/outliers).
    dec: DecodeScratch,
    /// CFNN activations: empty until the first cross-field target block,
    /// so workers that only see baseline or delta blocks never pay for it.
    nn: cfc_nn::Workspace,
    /// Times the raw block buffer had to grow.
    block_growths: usize,
}

impl ArchiveScratch {
    /// Fresh (empty) scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total capacity growths across the raw block buffer, the
    /// codec-level buffers and the CFNN activations since construction.
    /// Stable across decodes ⇔ steady-state block decode reuses the
    /// covered buffers.
    pub fn growths(&self) -> usize {
        self.block_growths + self.dec.growths() + self.nn.growths()
    }
}

/// Per-call memo of decoded anchor blocks, keyed by `(entry index, block
/// index)`. One multi-block decode call (`decode_region`, `decode_field`)
/// threads a single memo through its block loop so each anchor block is
/// decoded at most once per call — even when a target lists the same
/// anchor more than once, and even with no [`super::store::ArchiveStore`]
/// cache attached.
pub(crate) type AnchorMemo = HashMap<(usize, usize), Field>;

/// A target or temporal-delta field's parsed meta area: the embedded CFNN
/// compiled for inference (`None` for a delta, whose anchor is the previous
/// epoch) plus the fitted hybrid weights, both already checked against the
/// entry's anchors and dimensionality.
pub(crate) struct TargetMeta {
    pub(crate) model: Option<CfnnInference>,
    pub(crate) hybrid: HybridModel,
}

/// Reads archives written by [`super::ArchiveWriter`] — lazily, from any
/// positional [`ArchiveSource`] (a file, an in-memory buffer, a
/// [`super::source::SeekSource`]-wrapped stream). Only the manifest is
/// parsed up front; payload bytes are read (and CRC-checked) when a field,
/// block, or region is decoded.
///
/// Because sources are positional, concurrent block decodes never
/// serialize on a shared cursor — files go straight to `pread`, buffers
/// to a slice copy.
pub struct ArchiveReader<R> {
    name: String,
    version: u16,
    /// All entries, flat: entry `epoch × n_fields + pos` is field `pos`
    /// of `epoch`. v1/v2 archives have exactly one epoch.
    entries: Vec<ArchiveEntry>,
    n_epochs: usize,
    n_fields: usize,
    keyframe_interval: usize,
    src: R,
    src_len: u64,
}

impl ArchiveReader<std::io::Cursor<Vec<u8>>> {
    /// Parse an in-memory archive (thin wrapper over
    /// [`ArchiveReader::open`] + [`std::io::Cursor`]).
    pub fn new(bytes: &[u8]) -> Result<Self, CfcError> {
        Self::open(std::io::Cursor::new(bytes.to_vec()))
    }
}

impl<R: ArchiveSource> ArchiveReader<R> {
    /// Parse and validate the archive table of contents from a positional
    /// source. Payloads are not read yet.
    ///
    /// Total over arbitrary bytes: bad magic, future versions, truncation,
    /// block indexes pointing past EOF, duplicate or dangling names all
    /// return [`CfcError`].
    pub fn open(src: R) -> Result<Self, CfcError> {
        let src_len = src.len().map_err(|e| CfcError::io("sizing archive", &e))?;
        let mut toc = TocReader {
            src: &src,
            pos: 0,
            len: src_len,
        };

        let magic = toc.bytes(4, "archive magic")?;
        if magic != ARCHIVE_MAGIC[..] {
            return Err(CfcError::BadMagic {
                expected: *ARCHIVE_MAGIC,
                found: magic,
            });
        }
        let version = toc.u16("archive version")?;
        if !(MIN_SUPPORTED_VERSION..=ARCHIVE_VERSION).contains(&version) {
            return Err(CfcError::UnsupportedVersion {
                found: version,
                supported: ARCHIVE_VERSION,
            });
        }
        let name = toc.str("archive name")?;
        let (n_epochs, keyframe_interval) = if version >= 3 {
            let n_epochs = toc.u32("epoch count")? as usize;
            let interval = toc.u32("keyframe interval")? as usize;
            if n_epochs == 0 || interval == 0 {
                return Err(CfcError::Corrupt {
                    context: "archive",
                    detail: format!("{n_epochs} epochs at keyframe interval {interval}"),
                });
            }
            (n_epochs, interval)
        } else {
            (1, 1)
        };
        let n_fields = toc.u32("field count")? as usize;
        if n_fields == 0 {
            return Err(CfcError::Corrupt {
                context: "archive",
                detail: "zero fields".into(),
            });
        }
        // every entry needs ≥ 19 bytes of fixed headers
        let total = n_fields.checked_mul(n_epochs).ok_or(CfcError::Corrupt {
            context: "archive",
            detail: "entry count overflows".into(),
        })?;
        if (total as u64).saturating_mul(19) > toc.remaining() {
            return Err(CfcError::Truncated {
                context: "archive field table",
                needed: total * 19,
                available: toc.remaining() as usize,
            });
        }
        let mut entries = Vec::with_capacity(total);
        for epoch in 0..n_epochs {
            if version >= 3 {
                let kind = toc.u8("epoch kind")?;
                let expect = u8::from(epoch % keyframe_interval != 0);
                if kind != expect {
                    return Err(CfcError::Corrupt {
                        context: "archive",
                        detail: format!(
                            "epoch {epoch} kind byte {kind} disagrees with \
                             keyframe interval {keyframe_interval}"
                        ),
                    });
                }
            }
            for _ in 0..n_fields {
                let entry = match version {
                    1 => parse_entry_v1(&mut toc)?,
                    2 => parse_entry_v2(&mut toc)?,
                    _ => parse_entry_v3(&mut toc, epoch)?,
                };
                entries.push(entry);
            }
        }

        // referential integrity of the manifest, per epoch: names are
        // unique within an epoch, anchors resolve within the same epoch,
        // delta roles appear exactly in delta epochs
        for epoch in 0..n_epochs {
            let ep = &entries[epoch * n_fields..(epoch + 1) * n_fields];
            let delta_epoch = version >= 3 && epoch % keyframe_interval != 0;
            let names: Vec<&str> = ep.iter().map(|e| e.name.as_str()).collect();
            for (i, e) in ep.iter().enumerate() {
                if names[..i].contains(&e.name.as_str()) {
                    return Err(CfcError::Corrupt {
                        context: "archive",
                        detail: format!("duplicate field {}", e.qualified_name()),
                    });
                }
                if (e.role == FieldRole::Delta) != delta_epoch {
                    return Err(CfcError::Corrupt {
                        context: "archive",
                        detail: format!(
                            "field {} role {} in a {} epoch",
                            e.qualified_name(),
                            e.role.label(),
                            if delta_epoch { "delta" } else { "keyframe" },
                        ),
                    });
                }
                if e.role == FieldRole::Target && e.anchors.is_empty() {
                    return Err(CfcError::Corrupt {
                        context: "archive",
                        detail: format!("target {} without anchors", e.qualified_name()),
                    });
                }
                if e.role == FieldRole::Delta && !e.anchors.is_empty() {
                    return Err(CfcError::Corrupt {
                        context: "archive",
                        detail: format!(
                            "delta field {} lists anchors; its anchor is the previous epoch",
                            e.qualified_name()
                        ),
                    });
                }
                for a in &e.anchors {
                    match ep.iter().find(|o| &o.name == a) {
                        None => {
                            return Err(CfcError::Corrupt {
                                context: "archive",
                                detail: format!("field {} references unknown anchor {a}", e.name),
                            })
                        }
                        Some(o) if o.role == FieldRole::Target => {
                            return Err(CfcError::Corrupt {
                                context: "archive",
                                detail: format!("anchor {a} of {} is itself a target", e.name),
                            })
                        }
                        Some(_) => {}
                    }
                }
            }
            // every epoch must list the same fields in the same order, or
            // the flat epoch × n_fields indexing (and with it the delta
            // chain) is unsound
            if epoch > 0 {
                let first: Vec<&str> = entries[..n_fields]
                    .iter()
                    .map(|e| e.name.as_str())
                    .collect();
                if names != first {
                    return Err(CfcError::Corrupt {
                        context: "archive",
                        detail: format!("epoch {epoch} fields differ from epoch 0"),
                    });
                }
            }
        }
        // v2 manifests record geometry up front: every field (of every
        // epoch) must agree on shape and chunking, or block-level
        // cross-field and temporal decode is unsound
        if version >= 2 {
            let first = &entries[0];
            for e in &entries[1..] {
                if e.shape != first.shape || e.chunk_slabs != first.chunk_slabs {
                    return Err(CfcError::Corrupt {
                        context: "archive",
                        detail: format!(
                            "field {} disagrees with {} on shape or chunk geometry",
                            e.qualified_name(),
                            first.name
                        ),
                    });
                }
            }
        }
        Ok(ArchiveReader {
            name,
            version,
            entries,
            n_epochs,
            n_fields,
            keyframe_interval,
            src,
            src_len,
        })
    }

    /// Archive (dataset) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Container version of the parsed archive (1, 2, or 3).
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Number of epochs in the archive (1 for v1/v2).
    pub fn n_epochs(&self) -> usize {
        self.n_epochs
    }

    /// Keyframe interval recorded in the archive (1 for v1/v2): epoch `e`
    /// is a full keyframe iff `e % interval == 0`, a delta otherwise.
    pub fn keyframe_interval(&self) -> usize {
        self.keyframe_interval
    }

    /// Fields per epoch (total for v1/v2 archives, which are one epoch).
    pub fn fields_per_epoch(&self) -> usize {
        self.n_fields
    }

    /// All manifest entries, flat across epochs: entry
    /// `epoch × n_fields + pos` is field `pos` of `epoch`.
    pub fn entries(&self) -> &[ArchiveEntry] {
        &self.entries
    }

    /// Epoch-0 manifest entries in archive order.
    fn epoch0(&self) -> &[ArchiveEntry] {
        &self.entries[..self.n_fields]
    }

    /// Field names in archive order.
    pub fn field_names(&self) -> Vec<&str> {
        self.epoch0().iter().map(|e| e.name.as_str()).collect()
    }

    /// Read-only metadata views of every field, in archive order — the
    /// manifest a serving front-end exposes. Fields are uniform across
    /// epochs (same names, shape, chunking), so one epoch describes all.
    pub fn field_infos(&self) -> Vec<super::format::FieldInfo> {
        self.epoch0().iter().map(|e| e.info()).collect()
    }

    /// Metadata view of one field, `None` when the archive has no field of
    /// that name.
    pub fn field_info(&self, name: &str) -> Option<super::format::FieldInfo> {
        self.epoch0()
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.info())
    }

    pub(crate) fn entry(&self, name: &str) -> Result<&ArchiveEntry, CfcError> {
        self.epoch0()
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| CfcError::InvalidInput(format!("archive has no field {name}")))
    }

    /// Position of `name` in the manifest (the stable key block caches and
    /// anchor memos use): epoch 0's entry.
    pub(crate) fn entry_index(&self, name: &str) -> Result<usize, CfcError> {
        self.epoch0()
            .iter()
            .position(|e| e.name == name)
            .ok_or_else(|| CfcError::InvalidInput(format!("archive has no field {name}")))
    }

    /// Flat entry index of field `name` at `epoch`.
    pub(crate) fn entry_index_at(&self, name: &str, epoch: usize) -> Result<usize, CfcError> {
        if epoch >= self.n_epochs {
            return Err(CfcError::InvalidInput(format!(
                "archive has {} epochs, asked for {epoch}",
                self.n_epochs
            )));
        }
        Ok(epoch * self.n_fields + self.entry_index(name)?)
    }

    /// Read `len` bytes at absolute offset `at`.
    fn read_at(&self, at: u64, len: usize, context: &'static str) -> Result<Vec<u8>, CfcError> {
        let mut buf = Vec::new();
        self.read_at_into(at, len, context, &mut buf)?;
        Ok(buf)
    }

    /// Read `len` bytes at absolute offset `at` into a reusable buffer —
    /// one positional read, no shared cursor, safe from any thread.
    fn read_at_into(
        &self,
        at: u64,
        len: usize,
        context: &'static str,
        buf: &mut Vec<u8>,
    ) -> Result<(), CfcError> {
        buf.clear();
        buf.resize(len, 0);
        self.src.read_exact_at(at, buf).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                CfcError::Truncated {
                    context,
                    needed: len,
                    available: self.src_len.saturating_sub(at) as usize,
                }
            } else {
                CfcError::io(context, &e)
            }
        })?;
        Ok(())
    }

    /// Block index row for `idx`, or the typed out-of-range error.
    fn block_meta<'e>(
        &self,
        entry: &'e ArchiveEntry,
        idx: usize,
    ) -> Result<&'e BlockMeta, CfcError> {
        entry.blocks.get(idx).ok_or_else(|| {
            CfcError::InvalidInput(format!(
                "field {} has {} blocks, asked for {idx}",
                entry.name,
                entry.blocks.len()
            ))
        })
    }

    /// Read one block's bytes into the scratch buffer and verify its CRC.
    fn read_block_into(
        &self,
        entry: &ArchiveEntry,
        idx: usize,
        scratch: &mut ArchiveScratch,
    ) -> Result<(), CfcError> {
        let b = self.block_meta(entry, idx)?;
        let cap = scratch.block.capacity();
        self.read_at_into(
            entry.payload_base + b.rel_offset,
            b.len,
            "archive block",
            &mut scratch.block,
        )?;
        scratch.block_growths += usize::from(scratch.block.capacity() > cap);
        verify_block_crc(b, &scratch.block)
    }

    /// Read one block's raw (compressed) bytes into a fresh owned buffer
    /// and verify its CRC — the fetch half of a block decode, split out so
    /// a caching layer can retain the (typically 6–7× smaller) compressed
    /// bytes as a second cache tier once the decode succeeds. Errors carry
    /// no field context; callers wrap with [`CfcError::in_field`].
    pub(crate) fn fetch_block_bytes(
        &self,
        entry: &ArchiveEntry,
        idx: usize,
    ) -> Result<Vec<u8>, CfcError> {
        let b = self.block_meta(entry, idx)?;
        let bytes = self.read_at(entry.payload_base + b.rel_offset, b.len, "archive block")?;
        verify_block_crc(b, &bytes)?;
        Ok(bytes)
    }

    /// Read a field's meta area (embedded model + hybrid weights),
    /// verifying the manifest's meta CRC on v3 archives — meta rot
    /// surfaces as a typed checksum error, never a garbled decode.
    fn read_meta(&self, entry: &ArchiveEntry) -> Result<Vec<u8>, CfcError> {
        let meta = self.read_at(entry.payload_base, entry.meta_len, "archive field meta")?;
        if self.version >= 3 {
            let found = crc32(&meta);
            if found != entry.meta_crc {
                return Err(CfcError::ChecksumMismatch {
                    context: "archive field meta",
                    expected: entry.meta_crc,
                    found,
                });
            }
        }
        Ok(meta)
    }

    /// Parse a target or delta entry's meta area, once for all its blocks:
    /// the model is compiled here, and everything in it that could
    /// disagree with the entry is rejected here.
    fn parse_target_meta(entry: &ArchiveEntry, meta: &[u8]) -> Result<TargetMeta, CfcError> {
        let mut r = Reader::new(meta);
        let model_len = r.len_u64("embedded model length")?;
        let model_bytes = r.bytes(model_len, "embedded model")?;
        let hybrid_len = r.len_u64("hybrid weights length")?;
        let hybrid = HybridModel::try_deserialize(r.bytes(hybrid_len, "hybrid weights")?)?;
        let ndim = entry.shape.expect("v2 entries record shape").ndim();
        let (model, arity, what) = if entry.role == FieldRole::Delta {
            if !(2..=3).contains(&ndim) {
                return Err(CfcError::Corrupt {
                    context: "archive entry",
                    detail: format!("{ndim}-D temporal-delta field"),
                });
            }
            (None, TEMPORAL_ARITY, "temporal-delta")
        } else {
            let model = deserialize_model(model_bytes)?;
            check_model_fits(&model, entry.anchors.len(), ndim)?;
            (Some(model), ndim + 1, "cross-field")
        };
        if hybrid.arity() != arity {
            return Err(CfcError::Corrupt {
                context: "hybrid weights",
                detail: format!(
                    "arity {} for a {ndim}-D {what} field (expected {arity})",
                    hybrid.arity()
                ),
            });
        }
        Ok(TargetMeta { model, hybrid })
    }

    /// Decode one baseline (non-target) block to its slab field through a
    /// reusable scratch. Errors carry the field/block context.
    pub(crate) fn decode_baseline_block(
        &self,
        entry: &ArchiveEntry,
        idx: usize,
        scratch: &mut ArchiveScratch,
    ) -> Result<Field, CfcError> {
        self.decode_baseline_block_inner(entry, idx, scratch)
            .map_err(|e| e.in_field(&entry.qualified_name(), Some(idx)))
    }

    fn decode_baseline_block_inner(
        &self,
        entry: &ArchiveEntry,
        idx: usize,
        scratch: &mut ArchiveScratch,
    ) -> Result<Field, CfcError> {
        self.read_block_into(entry, idx, scratch)?;
        let ArchiveScratch { block, dec, .. } = scratch;
        self.decode_baseline_bytes_inner(entry, idx, block, dec)
    }

    /// Decode one baseline block from already-fetched, CRC-verified bytes
    /// — the pure-CPU half of [`ArchiveReader::decode_baseline_block`],
    /// used by tier-2 cache promotion (no source I/O).
    pub(crate) fn decode_baseline_block_bytes(
        &self,
        entry: &ArchiveEntry,
        idx: usize,
        bytes: &[u8],
        scratch: &mut ArchiveScratch,
    ) -> Result<Field, CfcError> {
        self.decode_baseline_bytes_inner(entry, idx, bytes, &mut scratch.dec)
            .map_err(|e| e.in_field(&entry.qualified_name(), Some(idx)))
    }

    fn decode_baseline_bytes_inner(
        &self,
        entry: &ArchiveEntry,
        idx: usize,
        bytes: &[u8],
        dec: &mut DecodeScratch,
    ) -> Result<Field, CfcError> {
        let field = baseline_decoder().decompress_with(bytes, dec)?;
        self.check_slab_shape(entry, idx, field.shape())?;
        Ok(field)
    }

    /// Decode one target block given its decoded anchor slabs and parsed
    /// meta. Errors carry the field/block context.
    pub(crate) fn decode_target_block(
        &self,
        entry: &ArchiveEntry,
        idx: usize,
        anchor_slabs: &[&Field],
        meta: &TargetMeta,
        scratch: &mut ArchiveScratch,
    ) -> Result<Field, CfcError> {
        (|| {
            self.read_block_into(entry, idx, scratch)?;
            let ArchiveScratch { block, dec, nn, .. } = scratch;
            self.decode_target_bytes_inner(entry, idx, block, anchor_slabs, meta, dec, nn)
        })()
        .map_err(|e| e.in_field(&entry.qualified_name(), Some(idx)))
    }

    /// Decode one target block from already-fetched, CRC-verified bytes
    /// given its decoded anchor slabs and parsed meta — the pure-CPU half
    /// of [`ArchiveReader::decode_target_block`], used by tier-2 cache
    /// promotion (no source I/O for the block itself).
    pub(crate) fn decode_target_block_bytes(
        &self,
        entry: &ArchiveEntry,
        idx: usize,
        bytes: &[u8],
        anchor_slabs: &[&Field],
        meta: &TargetMeta,
        scratch: &mut ArchiveScratch,
    ) -> Result<Field, CfcError> {
        let ArchiveScratch { dec, nn, .. } = scratch;
        self.decode_target_bytes_inner(entry, idx, bytes, anchor_slabs, meta, dec, nn)
            .map_err(|e| e.in_field(&entry.qualified_name(), Some(idx)))
    }

    #[allow(clippy::too_many_arguments)]
    fn decode_target_bytes_inner(
        &self,
        entry: &ArchiveEntry,
        idx: usize,
        bytes: &[u8],
        anchor_slabs: &[&Field],
        meta: &TargetMeta,
        dec: &mut DecodeScratch,
        nn: &mut cfc_nn::Workspace,
    ) -> Result<Field, CfcError> {
        let container = Container::try_from_bytes(bytes)?;
        self.check_slab_shape(entry, idx, container.shape)?;
        let model = meta.model.as_ref().expect("target meta carries a model");
        if anchor_slabs.iter().any(|a| a.shape() != container.shape) {
            return Err(CfcError::ShapeMismatch {
                expected: container.shape.to_string(),
                found: "anchor slab with a different shape".into(),
            });
        }
        let diffs = model.predict(anchor_slabs, nn);
        let predictor = CrossFieldHybridPredictor::new(&diffs, container.eb, meta.hybrid.clone());
        let lattice = baseline_decoder().decompress_lattice_with(&container, &predictor, dec)?;
        Ok(lattice.reconstruct(container.eb))
    }

    /// Decode one temporal-delta block given the decoded same-name slab of
    /// the previous epoch. Errors carry the epoch-qualified field/block
    /// context.
    pub(crate) fn decode_delta_block(
        &self,
        entry: &ArchiveEntry,
        idx: usize,
        prev_slab: &Field,
        hybrid: &HybridModel,
        scratch: &mut ArchiveScratch,
    ) -> Result<Field, CfcError> {
        (|| {
            self.read_block_into(entry, idx, scratch)?;
            let ArchiveScratch { block, dec, .. } = scratch;
            self.decode_delta_bytes_inner(entry, idx, block, prev_slab, hybrid, dec)
        })()
        .map_err(|e| e.in_field(&entry.qualified_name(), Some(idx)))
    }

    /// Decode one temporal-delta block from already-fetched, CRC-verified
    /// bytes — the pure-CPU half of [`ArchiveReader::decode_delta_block`],
    /// used by tier-2 cache promotion.
    pub(crate) fn decode_delta_block_bytes(
        &self,
        entry: &ArchiveEntry,
        idx: usize,
        bytes: &[u8],
        prev_slab: &Field,
        hybrid: &HybridModel,
        scratch: &mut ArchiveScratch,
    ) -> Result<Field, CfcError> {
        self.decode_delta_bytes_inner(entry, idx, bytes, prev_slab, hybrid, &mut scratch.dec)
            .map_err(|e| e.in_field(&entry.qualified_name(), Some(idx)))
    }

    fn decode_delta_bytes_inner(
        &self,
        entry: &ArchiveEntry,
        idx: usize,
        bytes: &[u8],
        prev_slab: &Field,
        hybrid: &HybridModel,
        dec: &mut DecodeScratch,
    ) -> Result<Field, CfcError> {
        let container = Container::try_from_bytes(bytes)?;
        self.check_slab_shape(entry, idx, container.shape)?;
        if prev_slab.shape() != container.shape {
            return Err(CfcError::ShapeMismatch {
                expected: container.shape.to_string(),
                found: "previous-epoch slab with a different shape".into(),
            });
        }
        // same prediction the writer used: the previous epoch's decoded
        // slab mixed with the Lorenzo guess by the hybrid weights shipped
        // in the meta area
        let predictor = TemporalHybridPredictor::new(prev_slab, container.eb, hybrid.clone());
        let lattice = baseline_decoder().decompress_lattice_with(&container, &predictor, dec)?;
        Ok(lattice.reconstruct(container.eb))
    }

    /// Verify a decoded block's shape against the manifest's chunk
    /// geometry (a block stream that lies about its slab is corrupt).
    fn check_slab_shape(
        &self,
        entry: &ArchiveEntry,
        idx: usize,
        found: Shape,
    ) -> Result<(), CfcError> {
        let shape = entry.shape.expect("v2 entries record shape");
        let (r0, r1) = block_range(shape.dims()[0], entry.chunk_slabs, idx);
        let expected = slab_shape_of(shape, r1 - r0);
        if found != expected {
            return Err(CfcError::ShapeMismatch {
                expected: format!("block {idx} of {}: {expected}", entry.qualified_name()),
                found: found.to_string(),
            });
        }
        Ok(())
    }

    /// Decode a single block of `field` (block `idx` along axis 0),
    /// touching only that block's bytes — plus, for a cross-field target,
    /// the same block of each anchor and the field's meta area.
    ///
    /// For v1 archives only block 0 exists and decodes the whole field.
    pub fn decode_block(&self, field: &str, idx: usize) -> Result<Field, CfcError> {
        self.decode_block_with(field, idx, &mut ArchiveScratch::new())
    }

    /// [`ArchiveReader::decode_block`] at an explicit epoch. A temporal
    /// delta decodes its chain back to the covering keyframe — at most
    /// `1 + keyframe_interval − 1` blocks of this field position.
    pub fn decode_block_at(
        &self,
        field: &str,
        idx: usize,
        epoch: usize,
    ) -> Result<Field, CfcError> {
        let entry = &self.entries[self.entry_index_at(field, epoch)?];
        let meta = self.target_meta(entry)?;
        let mut memo = AnchorMemo::new();
        self.decode_block_v2(
            entry,
            idx,
            meta.as_ref(),
            &mut ArchiveScratch::new(),
            &mut memo,
        )
    }

    /// [`ArchiveReader::decode_block`] through a caller-owned
    /// [`ArchiveScratch`], so a loop over blocks reuses one set of decode
    /// buffers instead of allocating per block.
    pub fn decode_block_with(
        &self,
        field: &str,
        idx: usize,
        scratch: &mut ArchiveScratch,
    ) -> Result<Field, CfcError> {
        let entry = self.entry(field)?;
        if self.version == 1 {
            if idx != 0 {
                return Err(CfcError::InvalidInput(format!(
                    "v1 archives hold one stream per field; block {idx} does not exist"
                ))
                .in_field(field, Some(idx)));
            }
            return self.decode_field_v1(entry);
        }
        let meta = self.target_meta(entry)?;
        let mut memo = AnchorMemo::new();
        self.decode_block_v2(entry, idx, meta.as_ref(), scratch, &mut memo)
    }

    /// Parse a target or temporal-delta entry's meta once (`None` for
    /// baseline/anchor roles) — multi-block decodes hoist this out of
    /// their block loops.
    pub(crate) fn target_meta(&self, entry: &ArchiveEntry) -> Result<Option<TargetMeta>, CfcError> {
        if entry.role != FieldRole::Target && entry.role != FieldRole::Delta {
            return Ok(None);
        }
        Self::parse_target_meta(entry, &self.read_meta(entry)?)
            .map(Some)
            .map_err(|e| e.in_field(&entry.qualified_name(), None))
    }

    /// Decode one v2 block given the field's already-parsed meta, memoizing
    /// decoded anchor blocks in `memo` so one multi-block call (or one
    /// block whose target lists an anchor twice) decodes each anchor block
    /// at most once.
    pub(crate) fn decode_block_v2(
        &self,
        entry: &ArchiveEntry,
        idx: usize,
        meta: Option<&TargetMeta>,
        scratch: &mut ArchiveScratch,
        memo: &mut AnchorMemo,
    ) -> Result<Field, CfcError> {
        if entry.role == FieldRole::Delta {
            let meta = meta.ok_or(CfcError::Corrupt {
                context: "archive entry",
                detail: "delta entry without meta".into(),
            })?;
            return self.decode_delta_chain(entry, idx, &meta.hybrid, scratch, memo);
        }
        let Some(meta) = meta else {
            return self.decode_baseline_block(entry, idx, scratch);
        };
        let mut anchor_keys = Vec::with_capacity(entry.anchors.len());
        for a in &entry.anchors {
            // manifest validation guarantees anchors exist (within the
            // entry's own epoch) and are not targets
            let ai = self
                .entry_index_at(a, entry.epoch)
                .expect("validated anchor");
            if let std::collections::hash_map::Entry::Vacant(slot) = memo.entry((ai, idx)) {
                slot.insert(self.decode_baseline_block(&self.entries[ai], idx, scratch)?);
            }
            anchor_keys.push(ai);
        }
        let slab_refs: Vec<&Field> = anchor_keys.iter().map(|&ai| &memo[&(ai, idx)]).collect();
        self.decode_target_block(entry, idx, &slab_refs, meta, scratch)
    }

    /// Decode a temporal-delta block by walking its chain back to the
    /// nearest memoized predecessor or covering keyframe, then decoding
    /// forward — iteratively, so chain length costs neither stack depth
    /// nor repeated work. Intermediate epochs land in `memo`; exactly
    /// `1 keyframe + chain` blocks of this field position are read.
    fn decode_delta_chain(
        &self,
        entry: &ArchiveEntry,
        idx: usize,
        hybrid: &HybridModel,
        scratch: &mut ArchiveScratch,
        memo: &mut AnchorMemo,
    ) -> Result<Field, CfcError> {
        let fi = self
            .entry_index_at(&entry.name, entry.epoch)
            .expect("own entry");
        // walk back over delta predecessors that are not yet decoded
        let mut stack = vec![fi];
        loop {
            let cur = *stack.last().expect("non-empty chain");
            let prev = cur - self.n_fields;
            if memo.contains_key(&(prev, idx)) {
                break;
            }
            let pe = &self.entries[prev];
            if pe.role == FieldRole::Delta {
                stack.push(prev);
                continue;
            }
            // covering keyframe: decode it (baseline or cross-field
            // target) into the memo and stop walking
            let pmeta = self.target_meta(pe)?;
            let base = self.decode_block_v2(pe, idx, pmeta.as_ref(), scratch, memo)?;
            memo.insert((prev, idx), base);
            break;
        }
        // decode forward through the chain, oldest epoch first
        while let Some(ci) = stack.pop() {
            let ce = &self.entries[ci];
            let prev_key = (ci - self.n_fields, idx);
            let owned;
            let h: &HybridModel = if ci == fi {
                hybrid
            } else {
                owned = self.target_meta(ce)?.expect("delta entries carry meta");
                &owned.hybrid
            };
            let prev_slab = memo.get(&prev_key).expect("chain predecessor decoded");
            let f = self.decode_delta_block(ce, idx, prev_slab, h, scratch)?;
            if ci == fi {
                return Ok(f);
            }
            memo.insert((ci, idx), f);
        }
        unreachable!("chain always contains the requested entry")
    }

    /// Decode an axis-aligned [`Region`] of `field`, reading only the
    /// blocks whose axis-0 slabs intersect it (plus the matching anchor
    /// blocks when the field is a cross-field target — each anchor block
    /// decoded at most once per call).
    ///
    /// On v1 archives this degrades to a whole-field decode followed by a
    /// crop — the v1 container has no random-access index.
    pub fn decode_region(&self, field: &str, region: &Region) -> Result<Field, CfcError> {
        self.decode_region_policy(field, region, DecodePolicy::Strict)
            .map(|s| s.data)
    }

    /// [`ArchiveReader::decode_region`] at an explicit epoch.
    pub fn decode_region_at(
        &self,
        field: &str,
        region: &Region,
        epoch: usize,
    ) -> Result<Field, CfcError> {
        self.decode_region_policy_at(field, region, epoch, DecodePolicy::Strict)
            .map(|s| s.data)
    }

    /// [`ArchiveReader::decode_region`] under an explicit [`DecodePolicy`].
    ///
    /// Under [`DecodePolicy::Salvage`] damaged blocks no longer fail the
    /// call: their slice of the output is filled with the policy's fill
    /// value and reported in the returned [`DamageMap`] (anchor damage
    /// cascades to its dependents, correctly attributed — see the
    /// [`super::damage`] module docs). Errors outside block payloads —
    /// unknown field, invalid region — still fail the call, as does any
    /// damage on a v1 archive, whose monolithic per-field stream leaves
    /// nothing to salvage block-wise.
    pub fn decode_region_policy(
        &self,
        field: &str,
        region: &Region,
        policy: DecodePolicy,
    ) -> Result<Salvaged<Field>, CfcError> {
        self.decode_region_policy_at(field, region, 0, policy)
    }

    /// [`ArchiveReader::decode_region_policy`] at an explicit epoch.
    /// Damage on epochs past the first is reported under the qualified
    /// name `{field}@e{epoch}`, so the same block index in different
    /// epochs never collides in the [`DamageMap`].
    pub fn decode_region_policy_at(
        &self,
        field: &str,
        region: &Region,
        epoch: usize,
        policy: DecodePolicy,
    ) -> Result<Salvaged<Field>, CfcError> {
        let entry = &self.entries[self.entry_index_at(field, epoch)?];
        if self.version == 1 {
            let full = self.decode_field_v1(entry)?;
            region
                .validate(full.shape())
                .map_err(|m| CfcError::InvalidInput(m).in_field(field, None))?;
            return Ok(Salvaged {
                data: full.crop(region),
                damage: DamageMap::new(),
            });
        }
        let shape = entry.shape.expect("v2 entries record shape");
        region
            .validate(shape)
            .map_err(|m| CfcError::InvalidInput(m).in_field(field, None))?;
        let (b_first, b_last) = region.block_cover(entry.chunk_slabs);
        let (slabs, damage) = self.decode_blocks_policy(entry, b_first, b_last, policy)?;
        let stitched = Field::concat_axis0(&slabs);
        // re-anchor the region to the stitched slab range
        Ok(Salvaged {
            data: stitched.crop(&region.rebase_axis0(b_first * entry.chunk_slabs)),
            damage,
        })
    }

    /// Decode v2 blocks `b_first..=b_last` of `entry` under `policy`,
    /// sharing one scratch, anchor memo, and parsed meta across the loop.
    /// The single implementation behind both the strict and salvage
    /// region/field decode entry points.
    fn decode_blocks_policy(
        &self,
        entry: &ArchiveEntry,
        b_first: usize,
        b_last: usize,
        policy: DecodePolicy,
    ) -> Result<(Vec<Field>, DamageMap), CfcError> {
        // A target's meta area is itself payload that can rot; under
        // Salvage a bad meta area damages every requested block of the
        // target (there is nothing to decode any block against).
        let meta: Result<Option<TargetMeta>, CfcError> = match self.target_meta(entry) {
            Ok(m) => Ok(m),
            Err(e) => match policy {
                DecodePolicy::Strict => return Err(e),
                DecodePolicy::Salvage { .. } => Err(e),
            },
        };
        let mut damage = DamageMap::new();
        let mut scratch = ArchiveScratch::new(); // shared by the block loop
        let mut memo = AnchorMemo::new(); // anchor blocks decode once per call
        let mut slabs = Vec::with_capacity(b_last - b_first + 1);
        for bi in b_first..=b_last {
            let slab = match &meta {
                Err(meta_err) => {
                    let fill = policy.fill().expect("strict meta failure returned above");
                    damage.record(
                        &entry.qualified_name(),
                        bi,
                        None,
                        meta_err.root_cause().clone(),
                    );
                    fill_slab(entry, bi, fill)
                }
                Ok(m) => {
                    match self.decode_block_v2(entry, bi, m.as_ref(), &mut scratch, &mut memo) {
                        Ok(f) => f,
                        Err(e) => match policy {
                            DecodePolicy::Strict => return Err(e),
                            DecodePolicy::Salvage { fill } => {
                                record_block_damage(&mut damage, &entry.qualified_name(), bi, &e);
                                fill_slab(entry, bi, fill)
                            }
                        },
                    }
                }
            };
            slabs.push(slab);
        }
        Ok((slabs, damage))
    }

    /// Decode every field, every block in parallel: baselines and anchors
    /// first, then the cross-field targets against the decoded anchors.
    pub fn decode_all(&self) -> Result<Dataset, CfcError> {
        self.decode_all_with_threads(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// [`ArchiveReader::decode_all`] with an explicit worker-thread cap.
    pub fn decode_all_with_threads(&self, threads: usize) -> Result<Dataset, CfcError> {
        let mut decoded: HashMap<&str, Field> = HashMap::new();

        if self.version == 1 {
            let independents: Vec<&ArchiveEntry> = self
                .epoch0()
                .iter()
                .filter(|e| e.role != FieldRole::Target)
                .collect();
            let phase1 = run_parallel(independents.len(), threads, |i| {
                self.decode_field_v1(independents[i])
            });
            for (e, res) in independents.iter().zip(phase1) {
                decoded.insert(e.name.as_str(), res?);
            }
            let targets: Vec<&ArchiveEntry> = self
                .epoch0()
                .iter()
                .filter(|e| e.role == FieldRole::Target)
                .collect();
            let phase2 = run_parallel(targets.len(), threads, |i| {
                let e = targets[i];
                let refs: Vec<&Field> = e.anchors.iter().map(|a| &decoded[a.as_str()]).collect();
                self.decode_field_v1_anchored(e, &refs)
            });
            let mut targets_dec: HashMap<&str, Field> = HashMap::new();
            for (e, res) in targets.iter().zip(phase2) {
                targets_dec.insert(e.name.as_str(), res?);
            }
            decoded.extend(targets_dec);
            return self.assemble(decoded);
        }

        // ---- v2+: flatten (field, block) and decode in parallel --------
        // Only the first epoch — it is always a keyframe, so every entry
        // here is a baseline, anchor, or same-epoch target.
        let independents: Vec<&ArchiveEntry> = self
            .epoch0()
            .iter()
            .filter(|e| e.role != FieldRole::Target)
            .collect();
        let tasks: Vec<(usize, usize)> = independents
            .iter()
            .enumerate()
            .flat_map(|(fi, e)| (0..e.blocks.len()).map(move |bi| (fi, bi)))
            .collect();
        let phase1 = run_parallel_scratch(tasks.len(), threads, ArchiveScratch::new, |s, t| {
            let (fi, bi) = tasks[t];
            self.decode_baseline_block(independents[fi], bi, s)
        });
        let mut slabs: HashMap<&str, Vec<Field>> = HashMap::new();
        for (&(fi, _), res) in tasks.iter().zip(phase1) {
            slabs
                .entry(independents[fi].name.as_str())
                .or_default()
                .push(res?);
        }
        for (name, parts) in slabs {
            decoded.insert(name, Field::concat_axis0(&parts));
        }

        let targets: Vec<&ArchiveEntry> = self
            .epoch0()
            .iter()
            .filter(|e| e.role == FieldRole::Target)
            .collect();
        let mut metas = Vec::with_capacity(targets.len());
        for e in &targets {
            metas.push(self.target_meta(e)?.expect("target entries carry meta"));
        }
        let t_tasks: Vec<(usize, usize)> = targets
            .iter()
            .enumerate()
            .flat_map(|(fi, e)| (0..e.blocks.len()).map(move |bi| (fi, bi)))
            .collect();
        let phase2 = run_parallel_scratch(t_tasks.len(), threads, ArchiveScratch::new, |s, t| {
            let (fi, bi) = t_tasks[t];
            let e = targets[fi];
            let shape = e.shape.expect("v2 shape");
            let (r0, r1) = block_range(shape.dims()[0], e.chunk_slabs, bi);
            let anchor_slabs: Vec<Field> = e
                .anchors
                .iter()
                .map(|a| decoded[a.as_str()].slab(r0, r1))
                .collect();
            let refs: Vec<&Field> = anchor_slabs.iter().collect();
            self.decode_target_block(e, bi, &refs, &metas[fi], s)
        });
        let mut t_slabs: HashMap<&str, Vec<Field>> = HashMap::new();
        for (&(fi, _), res) in t_tasks.iter().zip(phase2) {
            t_slabs
                .entry(targets[fi].name.as_str())
                .or_default()
                .push(res?);
        }
        for (name, parts) in t_slabs {
            decoded.insert(name, Field::concat_axis0(&parts));
        }
        self.assemble(decoded)
    }

    /// Assemble decoded fields into a [`Dataset`] in archive order,
    /// validating the common shape before the (panicking) `Dataset::push`
    /// can see a mismatch.
    fn assemble(&self, mut decoded: HashMap<&str, Field>) -> Result<Dataset, CfcError> {
        let first = &self.entries[0];
        let shape = decoded[first.name.as_str()].shape();
        for e in self.epoch0() {
            let found = decoded[e.name.as_str()].shape();
            if found != shape {
                return Err(CfcError::ShapeMismatch {
                    expected: shape.to_string(),
                    found: format!("{found} in field {}", e.name),
                });
            }
        }
        let mut ds = Dataset::new(self.name.clone(), shape);
        for e in self.epoch0() {
            let field = decoded
                .remove(e.name.as_str())
                .expect("every entry decoded");
            ds.push(e.name.clone(), field);
        }
        Ok(ds)
    }

    /// Decode every field of one epoch into a [`Dataset`]. Epoch 0 is
    /// [`ArchiveReader::decode_all`]; later epochs decode each field
    /// through its delta chain back to the covering keyframe.
    pub fn decode_epoch(&self, epoch: usize) -> Result<Dataset, CfcError> {
        if epoch >= self.n_epochs {
            return Err(CfcError::InvalidInput(format!(
                "archive has {} epochs, asked for {epoch}",
                self.n_epochs
            )));
        }
        if epoch == 0 {
            return self.decode_all();
        }
        let shape = self.entries[0]
            .shape
            .expect("multi-epoch archives are chunked");
        let mut ds = Dataset::new(self.name.clone(), shape);
        for pos in 0..self.n_fields {
            let name = self.entries[pos].name.clone();
            let field = self.decode_field_at(&name, epoch)?;
            ds.push(name, field);
        }
        Ok(ds)
    }

    /// Decode a single field by name (decoding its anchors first if it is
    /// a cross-field target — each anchor block decoded at most once).
    pub fn decode_field(&self, name: &str) -> Result<Field, CfcError> {
        self.decode_field_policy(name, DecodePolicy::Strict)
            .map(|s| s.data)
    }

    /// [`ArchiveReader::decode_field`] at an explicit epoch.
    pub fn decode_field_at(&self, name: &str, epoch: usize) -> Result<Field, CfcError> {
        self.decode_field_policy_at(name, epoch, DecodePolicy::Strict)
            .map(|s| s.data)
    }

    /// [`ArchiveReader::decode_field`] under an explicit [`DecodePolicy`]
    /// (same salvage semantics as
    /// [`ArchiveReader::decode_region_policy`]).
    pub fn decode_field_policy(
        &self,
        name: &str,
        policy: DecodePolicy,
    ) -> Result<Salvaged<Field>, CfcError> {
        self.decode_field_policy_at(name, 0, policy)
    }

    /// [`ArchiveReader::decode_field_policy`] at an explicit epoch.
    pub fn decode_field_policy_at(
        &self,
        name: &str,
        epoch: usize,
        policy: DecodePolicy,
    ) -> Result<Salvaged<Field>, CfcError> {
        let entry = &self.entries[self.entry_index_at(name, epoch)?];
        if self.version == 1 {
            return self.decode_field_v1(entry).map(|data| Salvaged {
                data,
                damage: DamageMap::new(),
            });
        }
        let (slabs, damage) =
            self.decode_blocks_policy(entry, 0, entry.blocks.len() - 1, policy)?;
        Ok(Salvaged {
            data: Field::concat_axis0(&slabs),
            damage,
        })
    }

    /// Decode a v1 entry's monolithic stream, decoding its anchors first
    /// when it is a target.
    pub(crate) fn decode_field_v1(&self, entry: &ArchiveEntry) -> Result<Field, CfcError> {
        if entry.role != FieldRole::Target {
            let stream = self
                .read_at(
                    entry.payload_base,
                    entry.payload_len,
                    "archive field stream",
                )
                .map_err(|e| e.in_field(&entry.name, None))?;
            return baseline_decoder()
                .decompress(&stream)
                .map_err(|e| e.in_field(&entry.name, None));
        }
        let mut anchors = Vec::with_capacity(entry.anchors.len());
        for a in &entry.anchors {
            let ae = self.entry(a).expect("validated anchor");
            anchors.push(self.decode_field_v1(ae)?);
        }
        let refs: Vec<&Field> = anchors.iter().collect();
        self.decode_field_v1_anchored(entry, &refs)
    }

    /// Decode a v1 target stream against already-decoded anchor fields
    /// (the store routes cached anchors through here).
    pub(crate) fn decode_field_v1_anchored(
        &self,
        entry: &ArchiveEntry,
        anchors: &[&Field],
    ) -> Result<Field, CfcError> {
        let stream = self
            .read_at(
                entry.payload_base,
                entry.payload_len,
                "archive field stream",
            )
            .map_err(|e| e.in_field(&entry.name, None))?;
        cross_decoder()
            .decompress(&stream, anchors)
            .map_err(|e| e.in_field(&entry.name, None))
    }
}

/// Verify a block's CRC32 against its index row.
fn verify_block_crc(b: &BlockMeta, bytes: &[u8]) -> Result<(), CfcError> {
    let found = crc32(bytes);
    if found != b.crc {
        return Err(CfcError::ChecksumMismatch {
            context: "archive block",
            expected: b.crc,
            found,
        });
    }
    Ok(())
}

/// Decoder-side baseline codec. The bound is irrelevant on decode (streams
/// carry their own), so any positive value works.
fn baseline_decoder() -> SzCompressor {
    SzCompressor::baseline(1e-3)
}

/// Decoder-side cross-field pipeline for v1 streams (same note as
/// [`baseline_decoder`]).
fn cross_decoder() -> crate::pipeline::CrossFieldCompressor {
    crate::pipeline::CrossFieldCompressor::new(1e-3)
}
