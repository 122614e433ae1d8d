//! Archive write path: role planning, parallel per-(field, block) encode,
//! and CFAR v2 serialization.
//!
//! [`ArchiveBuilder`] collects the error bound, training configuration,
//! chunking, and the paper-Table-3-style field-role plan;
//! [`ArchiveBuilder::build`] finalizes it into an [`ArchiveWriter`] whose
//! [`write_to`](ArchiveWriter::write_to) streams the whole dataset into
//! any `io::Write` sink without seeking.

use std::collections::HashMap;
use std::io::Write;

use cfc_sz::{
    CfcError, DecodeScratch, EncodeScratch, ErrorBound, QuantLattice, QuantizerConfig, ScratchPool,
    SzCompressor,
};
use cfc_tensor::{Dataset, Field, FieldStats, Shape};

use crate::config::{CfnnSpec, CrossFieldConfig, TrainConfig};
use crate::hybrid::{HybridConfig, HybridModel};
use crate::pipeline::{deserialize_model, serialize_model};
use crate::predictor::{
    sample_hybrid_training, sample_temporal_training, CrossFieldHybridPredictor,
    TemporalHybridPredictor,
};
use crate::train::train_cfnn;

use super::format::{
    block_range, chunk_slabs_for, epoch_kind, n_blocks_for, slab_shape_of, write_header,
    write_meta_area, write_row, FieldRole, RawHeader, RawRow, ARCHIVE_VERSION,
    ARCHIVE_VERSION_SNAPSHOT, DEFAULT_CHUNK_ELEMENTS, DEFAULT_KEYFRAME_INTERVAL,
};
use super::{run_parallel, run_parallel_scratch};

/// Per-target plan: which anchors condition it, and (optionally) a specific
/// CFNN architecture. When `spec` is `None` the writer picks the scaled
/// paper architecture for the dataset's dimensionality.
#[derive(Debug, Clone)]
struct TargetPlan {
    anchors: Vec<String>,
    spec: Option<CfnnSpec>,
}

/// Builder for [`ArchiveWriter`]: error bound, training configuration,
/// chunking, and the field-role plan (paper Table 3 style).
#[derive(Debug, Clone)]
pub struct ArchiveBuilder {
    bound: ErrorBound,
    quantizer: QuantizerConfig,
    hybrid: HybridConfig,
    train: TrainConfig,
    targets: Vec<(String, TargetPlan)>,
    threads: usize,
    chunk_elements: usize,
    keyframe_interval: usize,
}

impl ArchiveBuilder {
    /// Archive at the given error bound; every field baseline-compressed
    /// until roles are added.
    pub fn new(bound: ErrorBound) -> Self {
        ArchiveBuilder {
            bound,
            quantizer: QuantizerConfig::default(),
            hybrid: HybridConfig::default(),
            train: TrainConfig::default(),
            targets: Vec::new(),
            threads: 0,
            chunk_elements: DEFAULT_CHUNK_ELEMENTS,
            keyframe_interval: DEFAULT_KEYFRAME_INTERVAL,
        }
    }

    /// Convenience constructor for a value-range-relative bound.
    pub fn relative(rel_eb: f64) -> Self {
        Self::new(ErrorBound::Relative(rel_eb))
    }

    /// Override the CFNN training configuration (defaults to
    /// [`TrainConfig::default`]).
    pub fn train_config(mut self, cfg: TrainConfig) -> Self {
        self.train = cfg;
        self
    }

    /// Override the residual quantizer.
    pub fn quantizer(mut self, q: QuantizerConfig) -> Self {
        self.quantizer = q;
        self
    }

    /// Override the hybrid-model fitting configuration.
    pub fn hybrid_config(mut self, h: HybridConfig) -> Self {
        self.hybrid = h;
        self
    }

    /// Cap worker threads (0 = one per available core).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Target elements per block (default [`DEFAULT_CHUNK_ELEMENTS`]),
    /// rounded up to whole slabs along axis 0. Values ≥ the field size
    /// produce a single block; 0 is clamped to 1.
    pub fn chunk_elements(mut self, n: usize) -> Self {
        self.chunk_elements = n.max(1);
        self
    }

    /// Epochs between full keyframes in multi-epoch (v3) archives
    /// (default [`DEFAULT_KEYFRAME_INTERVAL`]). `1` makes every epoch a
    /// keyframe; larger values trade longer delta chains (more blocks to
    /// decode on random epoch access) for ratio. 0 is clamped to 1.
    /// Ignored by single-snapshot writes.
    pub fn keyframe_interval(mut self, n: usize) -> Self {
        self.keyframe_interval = n.max(1);
        self
    }

    /// Mark `target` as a cross-field target conditioned on `anchors`
    /// (paper Table 3 row), with the default architecture for the dataset's
    /// dimensionality.
    pub fn cross_field(mut self, target: &str, anchors: &[&str]) -> Self {
        self.targets.push((
            target.to_string(),
            TargetPlan {
                anchors: anchors.iter().map(|s| s.to_string()).collect(),
                spec: None,
            },
        ));
        self
    }

    /// Like [`ArchiveBuilder::cross_field`] with an explicit CFNN spec.
    pub fn cross_field_with_spec(mut self, target: &str, anchors: &[&str], spec: CfnnSpec) -> Self {
        self.targets.push((
            target.to_string(),
            TargetPlan {
                anchors: anchors.iter().map(|s| s.to_string()).collect(),
                spec: Some(spec),
            },
        ));
        self
    }

    /// Adopt experiment rows (e.g. `paper_table3()` filtered to one
    /// dataset) as the role plan.
    pub fn plan_from(mut self, rows: &[CrossFieldConfig]) -> Self {
        for row in rows {
            self.targets.push((
                row.target.to_string(),
                TargetPlan {
                    anchors: row.anchors.iter().map(|s| s.to_string()).collect(),
                    spec: Some(row.spec),
                },
            ));
        }
        self
    }

    /// Finalize into a writer.
    pub fn build(self) -> ArchiveWriter {
        ArchiveWriter { cfg: self }
    }
}

/// Writes a whole [`Dataset`] into one self-describing chunked archive.
pub struct ArchiveWriter {
    cfg: ArchiveBuilder,
}

/// Per-field outcome reported by [`ArchiveWriter::write_to`].
#[derive(Debug, Clone)]
pub struct FieldReport {
    /// Field name.
    pub name: String,
    /// Role the plan assigned.
    pub role: FieldRole,
    /// Compressed payload size in bytes (meta + all blocks).
    pub bytes: usize,
    /// Number of blocks the field was split into.
    pub n_blocks: usize,
    /// Absolute error bound the reconstruction satisfies.
    pub eb_abs: f64,
}

impl FieldReport {
    /// Compression ratio of this field against `f32` input. Returns `0.0`
    /// when the field holds no samples or no payload bytes — callers must
    /// not divide by it.
    pub fn ratio(&self, n_samples: usize) -> f64 {
        if n_samples == 0 || self.bytes == 0 {
            return 0.0;
        }
        (n_samples * 4) as f64 / self.bytes as f64
    }
}

/// Whole-archive outcome.
#[derive(Debug, Clone)]
pub struct ArchiveReport {
    /// Per-field entries in dataset order.
    pub fields: Vec<FieldReport>,
    /// Raw dataset size (4 bytes/sample).
    pub raw_bytes: usize,
    /// Final archive size.
    pub archive_bytes: usize,
}

impl ArchiveReport {
    /// End-to-end compression ratio. Returns `0.0` when either side of the
    /// division is degenerate (empty archive or zero raw bytes) so callers
    /// never see `inf`/`NaN`.
    pub fn ratio(&self) -> f64 {
        if self.archive_bytes == 0 || self.raw_bytes == 0 {
            return 0.0;
        }
        self.raw_bytes as f64 / self.archive_bytes as f64
    }
}

/// Whole-series outcome of a multi-epoch
/// ([`ArchiveWriter::write_epochs_to`]) write.
#[derive(Debug, Clone)]
pub struct TemporalReport {
    /// Per-epoch reports; the index is the epoch number.
    pub epochs: Vec<ArchiveReport>,
    /// Keyframe interval recorded in the archive.
    pub keyframe_interval: usize,
    /// Raw series size (4 bytes/sample × epochs).
    pub raw_bytes: usize,
    /// Final archive size.
    pub archive_bytes: usize,
}

impl TemporalReport {
    /// End-to-end compression ratio of the whole series. Returns `0.0`
    /// when either side of the division is degenerate.
    pub fn ratio(&self) -> f64 {
        if self.archive_bytes == 0 || self.raw_bytes == 0 {
            return 0.0;
        }
        self.raw_bytes as f64 / self.archive_bytes as f64
    }
}

/// One compressed field en route to serialization.
struct EncodedField {
    name: String,
    role: FieldRole,
    anchors: Vec<String>,
    eb_abs: f64,
    shape: Shape,
    chunk_slabs: usize,
    /// Meta payload: empty for baseline fields; `model | hybrid` (each
    /// u64-length-prefixed) for targets.
    meta: Vec<u8>,
    /// Per-block encoded streams, in axis-0 order.
    blocks: Vec<Vec<u8>>,
}

/// Encoded fields by name, plus (when requested) the decoded mirror the
/// next delta epoch conditions on.
type EncodeWithMirrorResult =
    Result<(HashMap<String, EncodedField>, HashMap<String, Field>), CfcError>;

impl EncodedField {
    fn payload_len(&self) -> usize {
        self.meta.len() + self.blocks.iter().map(Vec::len).sum::<usize>()
    }

    fn report(&self) -> FieldReport {
        FieldReport {
            name: self.name.clone(),
            role: self.role,
            bytes: self.payload_len(),
            n_blocks: self.blocks.len(),
            eb_abs: self.eb_abs,
        }
    }

    /// Serialize the field (manifest row, meta area, blocks) into `sink`,
    /// returning the bytes written. v3 rows (`with_meta_crc`) record a
    /// CRC32 over the meta area.
    fn write_to<W: Write>(&self, sink: &mut W, with_meta_crc: bool) -> Result<usize, CfcError> {
        let mut row = RawRow {
            name: self.name.clone(),
            role: self.role as u8,
            anchors: self.anchors.clone(),
            eb_abs: self.eb_abs,
            dims: self.shape.dims().iter().map(|&d| d as u64).collect(),
            chunk_slabs: self.chunk_slabs as u32,
            meta_len: self.meta.len() as u64,
            meta_crc: with_meta_crc.then(|| cfc_sz::crc32(&self.meta)),
            ..RawRow::default()
        };
        let blocks = self.blocks.iter();
        row.tile(blocks.map(|b| (b.len() as u64, cfc_sz::crc32(b))));
        let mut head = Vec::new();
        write_row(&mut head, &row);
        let mut written = 0;
        for part in [&head, &self.meta].into_iter().chain(&self.blocks) {
            sink.write_all(part).map_err(io_err)?;
            written += part.len();
        }
        Ok(written)
    }
}

fn io_err(e: std::io::Error) -> CfcError {
    CfcError::io("writing archive", &e)
}

/// Write an archive header into `sink`, returning the bytes written.
fn write_header_to<W: Write>(sink: &mut W, header: &RawHeader) -> Result<usize, CfcError> {
    let mut head = Vec::new();
    write_header(&mut head, header);
    sink.write_all(&head).map_err(io_err)?;
    Ok(head.len())
}

impl ArchiveWriter {
    /// Compress every field of `ds` and serialize the archive into a
    /// buffer (thin wrapper over [`ArchiveWriter::write_to`]).
    pub fn write(&self, ds: &Dataset) -> Result<Vec<u8>, CfcError> {
        let mut buf = Vec::new();
        self.write_to(ds, &mut buf)?;
        Ok(buf)
    }

    /// Compress every field of `ds` and stream the archive into `sink`.
    ///
    /// Blocks are written in field order as soon as the (parallel) encode
    /// completes; the sink never needs to seek, so a growing file, a socket,
    /// or a pipe all work.
    pub fn write_to<W: Write>(&self, ds: &Dataset, mut sink: W) -> Result<ArchiveReport, CfcError> {
        let encoded = self.encode(ds)?;
        let ordered: Vec<&EncodedField> = ds.iter().map(|(n, _)| &encoded[n]).collect();

        // single snapshots keep emitting the v2 layout byte-for-byte;
        // only multi-epoch writes bump to ARCHIVE_VERSION
        let header = RawHeader {
            version: ARCHIVE_VERSION_SNAPSHOT,
            name: ds.name().to_string(),
            n_epochs: 1,
            keyframe_interval: 1,
            n_fields: ordered.len() as u32,
        };
        let mut written = write_header_to(&mut sink, &header)?;

        // ---- per-field row + index + payload ---------------------------
        let mut fields = Vec::with_capacity(ordered.len());
        for e in &ordered {
            written += e.write_to(&mut sink, false)?;
            fields.push(e.report());
        }
        sink.flush().map_err(io_err)?;

        Ok(ArchiveReport {
            fields,
            raw_bytes: ds.len() * ds.shape().len() * 4,
            archive_bytes: written,
        })
    }

    /// Compress a sequence of snapshots into one multi-epoch (v3) archive
    /// (thin wrapper over [`ArchiveWriter::write_epochs_to`]).
    pub fn write_epochs(&self, snapshots: &[Dataset]) -> Result<Vec<u8>, CfcError> {
        let mut buf = Vec::new();
        self.write_epochs_to(snapshots, &mut buf)?;
        Ok(buf)
    }

    /// Compress a sequence of snapshots into one multi-epoch (v3) archive
    /// and stream it into `sink`.
    ///
    /// Epoch 0 and every `keyframe_interval`-th epoch is a full keyframe
    /// (encoded exactly like a single-snapshot archive, cross-field plan
    /// included); every other epoch stores temporal deltas conditioned on
    /// the *decoded* fields of the previous epoch, so random access to
    /// epoch `t` decodes at most one keyframe plus the delta chain back to
    /// it — never the whole series.
    pub fn write_epochs_to<W: Write>(
        &self,
        snapshots: &[Dataset],
        mut sink: W,
    ) -> Result<TemporalReport, CfcError> {
        let first = snapshots.first().ok_or_else(|| {
            CfcError::InvalidInput("cannot archive an empty epoch sequence".into())
        })?;
        if u32::try_from(snapshots.len()).is_err() {
            return Err(CfcError::InvalidInput(
                "epoch count exceeds the u32 header prefix".into(),
            ));
        }
        let shape = first.shape();
        let names: Vec<&str> = first.iter().map(|(n, _)| n).collect();
        for (e, ds) in snapshots.iter().enumerate().skip(1) {
            if ds.shape() != shape {
                return Err(CfcError::InvalidInput(format!(
                    "epoch {e} shape differs from epoch 0"
                )));
            }
            let ns: Vec<&str> = ds.iter().map(|(n, _)| n).collect();
            if ns != names {
                return Err(CfcError::InvalidInput(format!(
                    "epoch {e} fields differ from epoch 0"
                )));
            }
        }
        let interval = self.cfg.keyframe_interval;
        if shape.ndim() == 1 && snapshots.len() > 1 && interval > 1 {
            return Err(CfcError::InvalidInput(
                "temporal deltas require 2-D or 3-D datasets; \
                 use keyframe_interval(1) for 1-D series"
                    .into(),
            ));
        }

        let header = RawHeader {
            version: ARCHIVE_VERSION,
            name: first.name().to_string(),
            n_epochs: snapshots.len() as u32,
            keyframe_interval: interval as u32,
            n_fields: first.len() as u32,
        };
        let mut written = write_header_to(&mut sink, &header)?;

        let mut epochs = Vec::with_capacity(snapshots.len());
        let mut mirror: HashMap<String, Field> = HashMap::new();
        for (e, ds) in snapshots.iter().enumerate() {
            let keyframe = e % interval == 0;
            // the decoded mirror is only carried while a delta epoch follows
            let next_is_delta = e + 1 < snapshots.len() && (e + 1) % interval != 0;
            let (ordered, new_mirror) = if keyframe {
                let (mut encoded, m) = self.encode_with_mirror(ds, next_is_delta)?;
                let ordered: Vec<EncodedField> = ds
                    .iter()
                    .map(|(n, _)| encoded.remove(n).expect("encoded field"))
                    .collect();
                (ordered, m)
            } else {
                self.encode_delta_epoch(ds, &mirror, next_is_delta)?
            };
            sink.write_all(&[epoch_kind(e, interval)]).map_err(io_err)?;
            written += 1;
            let mut fields = Vec::with_capacity(ordered.len());
            let mut epoch_bytes = 1usize;
            for f in &ordered {
                let n = f.write_to(&mut sink, true)?;
                written += n;
                epoch_bytes += n;
                fields.push(f.report());
            }
            epochs.push(ArchiveReport {
                fields,
                raw_bytes: ds.len() * shape.len() * 4,
                archive_bytes: epoch_bytes,
            });
            mirror = new_mirror;
        }
        sink.flush().map_err(io_err)?;

        Ok(TemporalReport {
            epochs,
            keyframe_interval: interval,
            raw_bytes: snapshots.len() * first.len() * shape.len() * 4,
            archive_bytes: written,
        })
    }

    /// Encode one delta epoch: every field is conditioned on the decoded
    /// same-name field of the previous epoch — "previous epoch" as the
    /// anchor role. Per block, the prediction mixes the causal Lorenzo
    /// guess, the previous epoch's decoded value, and the
    /// temporally-corrected Lorenzo (see
    /// [`crate::predictor::TemporalHybridPredictor`]), weighted by a
    /// per-field hybrid fit that ships in the meta area.
    fn encode_delta_epoch(
        &self,
        ds: &Dataset,
        prev: &HashMap<String, Field>,
        want_mirror: bool,
    ) -> Result<(Vec<EncodedField>, HashMap<String, Field>), CfcError> {
        let shape = ds.shape();
        if !(2..=3).contains(&shape.ndim()) {
            return Err(CfcError::InvalidInput(
                "temporal delta epochs require 2-D or 3-D datasets".into(),
            ));
        }
        let chunk_slabs = chunk_slabs_for(shape, self.cfg.chunk_elements);
        let dim0 = shape.dims()[0];
        let n_blocks = n_blocks_for(dim0, chunk_slabs);
        let threads = self.threads();
        let enc_pool: ScratchPool<EncodeScratch> = ScratchPool::new(threads);

        let mut out = Vec::with_capacity(ds.len());
        let mut mirror = HashMap::new();
        for (name, field) in ds.iter() {
            let prev_field = prev.get(name).ok_or_else(|| {
                CfcError::InvalidInput(format!("no previous-epoch state for field {name}"))
            })?;
            let stats = FieldStats::of(field);
            let eb_user = self.cfg.bound.try_resolve(&stats)?;
            let bound = ErrorBound::Absolute(eb_user);

            // hybrid weights: fitted once per field on the whole-field
            // lattice against the previous epoch's decoded values; the
            // weights ship in the meta area, so encoder and decoder share
            // them by construction
            let eb_fit = bound.try_resolve_quantization(&stats)?;
            let lattice_fit = QuantLattice::prequantize(field, eb_fit);
            let step = 2.0 * eb_fit;
            let pq_full: Vec<f64> = prev_field
                .as_slice()
                .iter()
                .map(|&v| v as f64 / step)
                .collect();
            let (preds, targets) = sample_temporal_training(
                &lattice_fit,
                &pq_full,
                self.cfg.hybrid.n_samples,
                self.cfg.hybrid.seed,
            );
            let hybrid = HybridModel::fit_least_squares(&preds, &targets);

            let sz = SzCompressor {
                bound,
                quantizer: self.cfg.quantizer,
                predictor: cfc_sz::PredictorKind::Lorenzo,
            };
            let results = run_parallel_scratch(
                n_blocks,
                threads,
                || enc_pool.get(),
                |s, bi| {
                    let (r0, r1) = block_range(dim0, chunk_slabs, bi);
                    let slab = field.slab(r0, r1);
                    // the quantization bound is resolved from the slab's
                    // own stats, exactly like an independent encode of the
                    // same slab — this is what makes a delta-chain decode
                    // bit-identical to an independently-encoded snapshot
                    let eb_q = bound.try_resolve_quantization(&FieldStats::of(&slab))?;
                    let lattice = QuantLattice::prequantize(&slab, eb_q);
                    let prev_slab = prev_field.slab(r0, r1);
                    let predictor = TemporalHybridPredictor::new(&prev_slab, eb_q, hybrid.clone());
                    let (container, _) =
                        sz.compress_lattice_with(&lattice, &predictor, eb_q, &mut *s);
                    let decoded = want_mirror.then(|| lattice.reconstruct(eb_q));
                    Ok::<_, CfcError>((container.to_bytes(), decoded))
                },
            );
            let mut blocks = Vec::with_capacity(n_blocks);
            let mut dec_slabs = Vec::new();
            for res in results {
                let (bytes, decoded) = res?;
                blocks.push(bytes);
                if let Some(d) = decoded {
                    dec_slabs.push(d);
                }
            }
            if want_mirror {
                mirror.insert(name.to_string(), Field::concat_axis0(&dec_slabs));
            }

            out.push(EncodedField {
                name: name.to_string(),
                role: FieldRole::Delta,
                anchors: Vec::new(),
                eb_abs: eb_user,
                shape,
                chunk_slabs,
                // no embedded model: the anchor is the previous epoch itself
                meta: write_meta_area(&[], &hybrid.serialize()),
                blocks,
            });
        }
        Ok((out, mirror))
    }

    /// Validate the plan and encode every field into blocks (in parallel).
    fn encode(&self, ds: &Dataset) -> Result<HashMap<String, EncodedField>, CfcError> {
        Ok(self.encode_with_mirror(ds, false)?.0)
    }

    /// [`ArchiveWriter::encode`] plus (when `want_mirror`) the decoded
    /// view of every field — bit-identical to what a reader reconstructs
    /// from the emitted blocks. Multi-epoch writes feed this mirror to the
    /// next epoch's delta encode so writer and reader condition on exactly
    /// the same anchor values.
    fn encode_with_mirror(&self, ds: &Dataset, want_mirror: bool) -> EncodeWithMirrorResult {
        if ds.is_empty() {
            return Err(CfcError::InvalidInput(
                "cannot archive an empty dataset".into(),
            ));
        }
        for (name, _) in ds.iter() {
            // names are serialized with a u16 length prefix; `as u16` would
            // silently truncate in release builds and corrupt the archive
            if name.len() > u16::MAX as usize {
                return Err(CfcError::InvalidInput(format!(
                    "field name of {} bytes exceeds the u16 length prefix",
                    name.len()
                )));
            }
        }
        if u32::try_from(ds.len()).is_err() {
            return Err(CfcError::InvalidInput(
                "field count exceeds the u32 table prefix".into(),
            ));
        }
        let roles = self.plan_roles(ds)?;
        let shape = ds.shape();
        let ndim = shape.ndim();
        if !self.cfg.targets.is_empty() {
            // cross-field targets go through CFNN training, which asserts
            // a usable configuration and patch + 1 < slice extent — surface
            // those as plan errors instead of panics inside a worker thread
            self.cfg.train.validate().map_err(CfcError::InvalidInput)?;
            if ndim == 1 {
                return Err(CfcError::InvalidInput(
                    "cross-field targets require 2-D or 3-D datasets".into(),
                ));
            }
            let dims = shape.dims();
            let (srows, scols) = if ndim == 2 {
                (dims[0], dims[1])
            } else {
                (dims[1], dims[2])
            };
            let p = self.cfg.train.patch;
            if p + 1 >= srows || p + 1 >= scols {
                return Err(CfcError::InvalidInput(format!(
                    "training patch {p} too large for {srows}x{scols} slices; \
                     shrink TrainConfig::patch or use a larger dataset"
                )));
            }
            if self
                .cfg
                .targets
                .iter()
                .any(|(_, plan)| plan.anchors.len() > u16::MAX as usize)
            {
                return Err(CfcError::InvalidInput("more than u16::MAX anchors".into()));
            }
        }

        let chunk_slabs = chunk_slabs_for(shape, self.cfg.chunk_elements);
        let dim0 = shape.dims()[0];
        let n_blocks = n_blocks_for(dim0, chunk_slabs);
        if u32::try_from(n_blocks).is_err() || u32::try_from(chunk_slabs).is_err() {
            return Err(CfcError::InvalidInput(
                "chunk geometry exceeds the u32 index prefix".into(),
            ));
        }
        let threads = self.threads();

        // ---- phase 1: anchors + independents, parallel over blocks -----
        let independents: Vec<(&str, &Field, FieldRole)> = ds
            .iter()
            .filter_map(|(n, f)| match roles[n] {
                FieldRole::Target => None,
                role => Some((n, f, role)),
            })
            .collect();
        // resolve each field's user-facing bound once from full-field
        // statistics, then compress each block at that *absolute* bound so
        // every block independently satisfies it
        let mut field_ebs = Vec::with_capacity(independents.len());
        for (_, field, _) in &independents {
            field_ebs.push(self.cfg.bound.try_resolve(&FieldStats::of(field))?);
        }
        let tasks: Vec<(usize, usize)> = (0..independents.len())
            .flat_map(|fi| (0..n_blocks).map(move |bi| (fi, bi)))
            .collect();
        // pooled scratch: worker buffers return to the pools between
        // phases and between the sequential per-target encode loops, so
        // steady-state capacity is paid once per thread for the whole
        // archive, not once per run_parallel_scratch call
        let enc_pool: ScratchPool<EncodeScratch> = ScratchPool::new(threads);
        let dec_pool: ScratchPool<DecodeScratch> = ScratchPool::new(threads);
        let phase1 = run_parallel_scratch(
            tasks.len(),
            threads,
            || (enc_pool.get(), dec_pool.get()),
            |(enc_scratch, dec_scratch), t| {
                let (fi, bi) = tasks[t];
                let (_, field, role) = independents[fi];
                let block = SzCompressor {
                    bound: ErrorBound::Absolute(field_ebs[fi]),
                    quantizer: self.cfg.quantizer,
                    predictor: cfc_sz::PredictorKind::Lorenzo,
                };
                let (r0, r1) = block_range(dim0, chunk_slabs, bi);
                let slab = field.slab(r0, r1);
                let stream = block.compress_with(&slab, &mut *enc_scratch)?;
                // anchors are round-tripped here: the decoder's view of an
                // anchor IS the decoded block stream, so reusing these bytes
                // keeps both sides bit-identical by construction (mirror
                // requests round-trip every field the same way)
                let decoded = if role == FieldRole::Anchor || want_mirror {
                    Some(block.decompress_with(&stream.bytes, &mut *dec_scratch)?)
                } else {
                    None
                };
                Ok::<_, CfcError>((stream.bytes, decoded))
            },
        );
        let mut encoded: HashMap<String, EncodedField> = independents
            .iter()
            .enumerate()
            .map(|(fi, (name, _, role))| {
                (
                    name.to_string(),
                    EncodedField {
                        name: name.to_string(),
                        role: *role,
                        anchors: Vec::new(),
                        eb_abs: field_ebs[fi],
                        shape,
                        chunk_slabs,
                        meta: Vec::new(),
                        blocks: Vec::with_capacity(n_blocks),
                    },
                )
            })
            .collect();
        let mut decoded_slabs: HashMap<&str, Vec<Field>> = HashMap::new();
        for (t, res) in tasks.iter().zip(phase1) {
            let (fi, _) = *t;
            let (name, _, role) = independents[fi];
            let (bytes, decoded) = res?;
            encoded
                .get_mut(name)
                .expect("phase1 field")
                .blocks
                .push(bytes);
            if role == FieldRole::Anchor || want_mirror {
                decoded_slabs
                    .entry(name)
                    .or_default()
                    .push(decoded.expect("decoded block"));
            }
        }
        let anchors_dec: HashMap<&str, Field> = decoded_slabs
            .into_iter()
            .map(|(n, slabs)| (n, Field::concat_axis0(&slabs)))
            .collect();
        let mut mirror: HashMap<String, Field> = if want_mirror {
            anchors_dec
                .iter()
                .map(|(n, f)| (n.to_string(), f.clone()))
                .collect()
        } else {
            HashMap::new()
        };

        // ---- phase 2: cross-field targets ------------------------------
        // 2a: train every CFNN in parallel (training dominates the cost)
        let targets: Vec<(&str, &TargetPlan)> = self
            .cfg
            .targets
            .iter()
            .map(|(n, p)| (n.as_str(), p))
            .collect();
        let trained_models = run_parallel(targets.len(), threads, |i| {
            let (name, plan) = targets[i];
            let target = ds.expect_field(name);
            let orig_refs: Vec<&Field> = plan.anchors.iter().map(|a| ds.expect_field(a)).collect();
            let spec = plan
                .spec
                .unwrap_or_else(|| default_spec(plan.anchors.len(), ndim));
            if spec.in_channels != plan.anchors.len() * ndim || spec.out_channels != ndim {
                return Err(CfcError::InvalidInput(format!(
                    "spec for target {name} does not match {} anchors × {ndim} axes",
                    plan.anchors.len()
                )));
            }
            // trained on original data (one model serves every bound,
            // paper §III-D2); inference will see the decoded anchors,
            // exactly like the reader
            let trained = train_cfnn(&spec, &self.cfg.train, &orig_refs, target);
            Ok::<_, CfcError>(serialize_model(&trained))
        });
        // 2b: per target — blockwise inference, one hybrid fit, blockwise
        // encode (blocks in parallel, sharing one model parsed from the
        // same bytes the decoder will see)
        for ((name, plan), model_res) in targets.iter().zip(trained_models) {
            let model_bytes = model_res?;
            let target = ds.expect_field(name);
            let stats = FieldStats::of(target);
            let eb_user = self.cfg.bound.try_resolve(&stats)?;
            let eb = self.cfg.bound.try_resolve_quantization(&stats)?;
            let lattice = QuantLattice::prequantize(target, eb);
            let dec_refs: Vec<&Field> = plan
                .anchors
                .iter()
                .map(|a| &anchors_dec[a.as_str()])
                .collect();

            // blockwise inference on the decoded anchor slabs — identical
            // to what the decoder computes per block
            let model = deserialize_model(&model_bytes)?;
            let block_diffs: Vec<Vec<Field>> =
                run_parallel_scratch(n_blocks, threads, cfc_nn::Workspace::default, |ws, bi| {
                    let (r0, r1) = block_range(dim0, chunk_slabs, bi);
                    let slabs: Vec<Field> = dec_refs.iter().map(|a| a.slab(r0, r1)).collect();
                    let slab_refs: Vec<&Field> = slabs.iter().collect();
                    model.predict(&slab_refs, ws)
                });

            // hybrid fit on the whole-field view of the blockwise diffs
            let step = 2.0 * eb;
            let dq_full: Vec<Vec<f64>> = (0..ndim)
                .map(|axis| {
                    block_diffs
                        .iter()
                        .flat_map(|d| d[axis].as_slice().iter().map(|&v| v as f64 / step))
                        .collect()
                })
                .collect();
            let (preds, targets_s) = sample_hybrid_training(
                &lattice,
                &dq_full,
                self.cfg.hybrid.n_samples,
                self.cfg.hybrid.seed,
            );
            let hybrid = HybridModel::fit_least_squares(&preds, &targets_s);

            // blockwise encode with the shared hybrid weights
            let sz = SzCompressor {
                bound: ErrorBound::Absolute(eb_user),
                quantizer: self.cfg.quantizer,
                predictor: cfc_sz::PredictorKind::Lorenzo,
            };
            let blocks = run_parallel_scratch(
                n_blocks,
                threads,
                || enc_pool.get(),
                |s, bi| {
                    let (r0, r1) = block_range(dim0, chunk_slabs, bi);
                    let slab_shape = slab_shape_of(shape, r1 - r0);
                    let slab_lattice = lattice_slab(&lattice, shape, r0, r1, slab_shape);
                    let predictor =
                        CrossFieldHybridPredictor::new(&block_diffs[bi], eb, hybrid.clone());
                    let (container, _) =
                        sz.compress_lattice_with(&slab_lattice, &predictor, eb, &mut *s);
                    container.to_bytes()
                },
            );

            if want_mirror {
                // lattice coding is lossless, so the reader's per-block
                // reconstruction concatenates to exactly this field
                mirror.insert(name.to_string(), lattice.reconstruct(eb));
            }
            encoded.insert(
                name.to_string(),
                EncodedField {
                    name: name.to_string(),
                    role: FieldRole::Target,
                    anchors: plan.anchors.clone(),
                    eb_abs: eb_user,
                    shape,
                    chunk_slabs,
                    meta: write_meta_area(&model_bytes, &hybrid.serialize()),
                    blocks,
                },
            );
        }
        Ok((encoded, mirror))
    }

    fn threads(&self) -> usize {
        if self.cfg.threads > 0 {
            self.cfg.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// Resolve the role of every dataset field, validating the plan.
    fn plan_roles<'a>(&self, ds: &'a Dataset) -> Result<HashMap<&'a str, FieldRole>, CfcError> {
        let mut roles: HashMap<&str, FieldRole> = ds
            .iter()
            .map(|(n, _)| (n, FieldRole::Independent))
            .collect();
        let target_names: Vec<&str> = self.cfg.targets.iter().map(|(n, _)| n.as_str()).collect();
        for (target, plan) in &self.cfg.targets {
            let target_key = roles
                .get_key_value(target.as_str())
                .map(|(k, _)| *k)
                .ok_or_else(|| {
                    CfcError::InvalidInput(format!("plan names unknown target field {target}"))
                })?;
            if plan.anchors.is_empty() {
                return Err(CfcError::InvalidInput(format!(
                    "target {target} has no anchors"
                )));
            }
            for anchor in &plan.anchors {
                if anchor == target {
                    return Err(CfcError::InvalidInput(format!(
                        "target {target} cannot anchor itself"
                    )));
                }
                if target_names.contains(&anchor.as_str()) {
                    return Err(CfcError::InvalidInput(format!(
                        "anchor {anchor} of {target} is itself a cross-field target; \
                         anchors must decode independently"
                    )));
                }
                let key = roles
                    .get_key_value(anchor.as_str())
                    .map(|(k, _)| *k)
                    .ok_or_else(|| {
                        CfcError::InvalidInput(format!("plan names unknown anchor field {anchor}"))
                    })?;
                roles.insert(key, FieldRole::Anchor);
            }
            if roles[target_key] == FieldRole::Target {
                return Err(CfcError::InvalidInput(format!(
                    "duplicate plan for target {target}"
                )));
            }
            roles.insert(target_key, FieldRole::Target);
        }
        Ok(roles)
    }
}

/// Slab `[r0, r1)` of a prequantized lattice (contiguous row-major copy).
fn lattice_slab(
    lattice: &QuantLattice,
    shape: Shape,
    r0: usize,
    r1: usize,
    out: Shape,
) -> QuantLattice {
    let slab_len: usize = shape.dims()[1..].iter().product::<usize>().max(1);
    QuantLattice::from_vec(
        out,
        lattice.as_slice()[r0 * slab_len..r1 * slab_len].to_vec(),
    )
}

/// Default CFNN architecture by dimensionality (the scaled paper specs).
fn default_spec(n_anchors: usize, ndim: usize) -> CfnnSpec {
    match ndim {
        3 => CfnnSpec::scaled_3d(n_anchors),
        _ => CfnnSpec::scaled_2d(n_anchors),
    }
}
