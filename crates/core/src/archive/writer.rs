//! Archive write path: planning, the one block encoder, and the one
//! emitter behind every archive this crate writes — a v3 epoch series, of
//! which a snapshot is the one-epoch case.
//!
//! [`ArchiveBuilder`] collects the error bound, training configuration,
//! chunking, and the paper-Table-3-style field-role plan;
//! [`ArchiveBuilder::build`] finalizes it into an [`ArchiveWriter`] whose
//! [`write_to`](ArchiveWriter::write_to) streams one dataset, and
//! [`write_epochs_to`](ArchiveWriter::write_epochs_to) a series of them,
//! into any `io::Write` sink without seeking. v1 and v2 archives are read,
//! never written.
//!
//! ## One encode step
//!
//! The paper's encoder (Fig. 2) is one rule — prequantize, predict each
//! lattice point, entropy-code the residuals — and a `Block` is what the
//! rule takes: a lattice, the bound it was quantized at, a causal predictor.
//! `ArchiveWriter::encode_blocks` is the only place a block becomes bytes,
//! run as one `(field, block)` task list per phase over one scratch pool per
//! write. The roles differ only in where lattice and predictor come from:
//!
//! | role | lattice | predictor |
//! |---|---|---|
//! | independent, anchor | the slab, quantized at the bound its own statistics resolve | Lorenzo |
//! | target | the slab's rows of the whole-field lattice (the hybrid fit samples it whole) | Lorenzo mixed with the CFNN differences inferred from the anchors' views of that block — both out of one [`TargetFit`](crate::pipeline::TargetFit), the step `CrossFieldCompressor::compress` takes with one block. Kept only where model, hybrid weights and blocks come to fewer bytes than the field's independent encoding, which is written in its place otherwise. One that clearly loses is demoted right after training, from its meta area's size or one inferred block, before the rest is inferred |
//! | delta | the slab, quantized like an independent's | Lorenzo mixed with the previous epoch's view of that slab |
//!
//! Lattice coding is lossless: the reader rebuilds exactly the lattice that
//! went in and dequantizes it at the bound the block records, so
//! `lattice.reconstruct(eb)` *is* the reader's view of the block. That —
//! never a decode of bytes just written — is what the writer hands to
//! whatever conditions on the block: a target's inference, the next epoch's
//! deltas.

use std::borrow::Cow;
use std::io::Write;

use cfc_nn::MAX_CHANNELS;
use cfc_sz::{
    CfcError, EncodeScratch, ErrorBound, LorenzoPredictor, Predictor, PredictorKind, QuantLattice,
    QuantizerConfig, ScratchPool, SzCompressor,
};
use cfc_tensor::{Dataset, Field, FieldStats, Shape};

use crate::config::{CfnnSpec, CrossFieldConfig, TrainConfig};
use crate::hybrid::{HybridConfig, HybridModel};
use crate::pipeline::{serialize_model, TargetInference};
use crate::predictor::{sample_temporal_training_by, TemporalHybridPredictor};
use crate::train::train_cfnn;

use super::format::{
    block_range, chunk_slabs_for, epoch_kind, meta_area_len, n_blocks_for, write_header,
    write_meta_area, write_row, FieldRole, RawHeader, RawRow, ARCHIVE_VERSION,
    DEFAULT_CHUNK_ELEMENTS, DEFAULT_KEYFRAME_INTERVAL,
};
use super::{host_threads, run_parallel, run_parallel_scratch};

/// Per-target plan: which anchors condition it, and (optionally) the
/// CFNN's widths. When `spec` is `None` the writer picks
/// [`CfnnSpec::writer_default`] for the dataset's dimensionality.
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
    hybrid: HybridConfig,
    train: TrainConfig,
    targets: Vec<(String, TargetPlan)>,
    threads: usize,
    chunk_elements: usize,
    keyframe_interval: usize,
    always_cross_field: bool,
}

impl ArchiveBuilder {
    /// Archive at the given error bound; every field baseline-compressed
    /// until roles are added.
    pub fn new(bound: ErrorBound) -> Self {
        ArchiveBuilder {
            bound,
            hybrid: HybridConfig::default(),
            train: TrainConfig::default(),
            targets: Vec::new(),
            threads: 0,
            chunk_elements: DEFAULT_CHUNK_ELEMENTS,
            keyframe_interval: DEFAULT_KEYFRAME_INTERVAL,
            always_cross_field: false,
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

    /// Epochs between full keyframes (default
    /// [`DEFAULT_KEYFRAME_INTERVAL`]). `1` makes every epoch a keyframe;
    /// larger values trade longer delta chains (more blocks to decode on
    /// random epoch access) for ratio. 0 is clamped to 1. A snapshot is
    /// one keyframe whatever the interval, and records it in its header.
    pub fn keyframe_interval(mut self, n: usize) -> Self {
        self.keyframe_interval = n.max(1);
        self
    }

    /// Mark `target` as a cross-field target conditioned on `anchors`
    /// (paper Table 3 row), with the default architecture for the dataset's
    /// dimensionality.
    ///
    /// A plan row is a request. Each keyframe encodes the target both ways
    /// and keeps the cross-field row only where its meta area (model and
    /// hybrid weights) plus blocks is strictly smaller than the field's
    /// independent (Lorenzo) encoding; otherwise the field is written as an
    /// independent row, and reading it runs no CFNN. A model the writer just
    /// trained that diverged (a non-finite weight) is demoted the same way.
    /// The anchors keep their role either way.
    ///
    /// A target that clearly loses is demoted right after training, from
    /// one block, without inferring, fitting and encoding the whole field:
    /// when its meta area alone is at least the independent encoding, or
    /// when its middle axis-0 block, inferred, fitted on its own sample and
    /// encoded, puts the cross-field row more than 3 % above it. Only a
    /// target inside that margin is encoded both ways, so the bytes differ
    /// from an exact comparison only where that estimate is wrong. See
    /// [`always_cross_field`](Self::always_cross_field).
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

    /// Adopt experiment rows (e.g. `paper_table3()` filtered to one
    /// dataset) as the role plan. Each row is a request, kept per keyframe
    /// only where it is smaller — and demoted after training, from one
    /// block, where it clearly is not — as for
    /// [`cross_field`](Self::cross_field).
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

    /// Write every planned target as a cross-field row, even where the
    /// independent encoding is smaller, and fail the write on a trained
    /// model the reader would refuse instead of demoting the target. This
    /// bypasses the one-block estimate as it bypasses the guard: every
    /// target is inferred, fitted and encoded whole.
    ///
    /// For fixtures and tests whose subject is a target row. On a small
    /// field the model dominates: the golden 32×32 `RH` encodes to about
    /// 5.6 kB cross-field (4 685 B of it the model) against under 1 kB
    /// independent, so without this the golden archives would carry no
    /// target row at all.
    pub fn always_cross_field(mut self) -> Self {
        self.always_cross_field = true;
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
    /// Role the field was written with: a planned target the writer
    /// demoted is [`FieldRole::Independent`].
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

/// What the three roles hand the one block encoder: a prequantized
/// lattice, the bound it was quantized at (recorded in the block, so the
/// reader dequantizes at the same), and the causal predictor its residuals
/// are taken against.
struct Block<'a> {
    lattice: QuantLattice,
    eb: f64,
    predictor: Box<dyn Predictor + 'a>,
}

/// The block of a baseline or delta field: the slab quantized at the bound
/// resolved from the slab's own statistics, under the field's user-facing
/// bound — so every block satisfies that bound on its own, and a delta
/// block lands on the lattice an independent encode of the same slab would.
fn quantize_slab(slab: &Field, eb_user: f64) -> Result<(QuantLattice, f64), CfcError> {
    let eb = ErrorBound::Absolute(eb_user).try_resolve_quantization(&FieldStats::of(slab))?;
    Ok((QuantLattice::prequantize(slab, eb), eb))
}

/// One field out of the block encoder: its blocks in axis-0 order and,
/// where asked for, the reader's view of the field.
type FieldBlocks = (Vec<Vec<u8>>, Option<Field>);

/// How far, in percent of a target's baseline row, its [`Estimate`] may
/// exceed that row and the target still be fitted whole, for the guard to
/// judge on exact sizes. The one-block estimate is a few percent off the
/// real row either way (1.056–1.121× against 1.07–1.14× on the benchmark's
/// losing `RH`, within 0.1 % on its winning `W`), so a target inside the
/// margin may still win, and one beyond it has lost on every probe run.
const ESTIMATE_MARGIN_PERCENT: u128 = 3;

/// The block a target's estimate samples: the middle one along axis 0,
/// whatever the thread count or seed. `None` for a one-block field, whose
/// sample would be the whole fit.
fn sampled_block(n_blocks: usize) -> Option<usize> {
    (n_blocks > 1).then_some(n_blocks / 2)
}

/// What one sampled block says about a target's cross-field row, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Estimate {
    /// The block sampled ([`sampled_block`]).
    block: usize,
    /// The meta area the cross-field row would carry.
    meta: usize,
    /// The target's baseline row: every block of its independent encoding.
    baseline_row: usize,
    /// The sampled block encoded with hybrid weights fitted on it alone.
    cross_block: usize,
    /// The sampled block in the baseline row.
    baseline_block: usize,
}

impl Estimate {
    /// The estimated cross-field row — `meta + baseline_row × cross_block /
    /// baseline_block` — exceeds the baseline row by more than
    /// [`ESTIMATE_MARGIN_PERCENT`]. Integer arithmetic: the margin's
    /// boundary is exact.
    fn loses(&self) -> bool {
        let [meta, row, cross, base] = [
            self.meta,
            self.baseline_row,
            self.cross_block,
            self.baseline_block,
        ]
        .map(|n| n as u128);
        (meta * base + row * cross) * 100 > row * base * (100 + ESTIMATE_MARGIN_PERCENT)
    }
}

/// One cross-field row of the plan, resolved against the dataset.
struct TargetRow<'a> {
    /// Position of the target in the dataset.
    field: usize,
    /// Positions of its anchors, in plan order.
    anchors: Vec<usize>,
    anchor_names: &'a [String],
    spec: CfnnSpec,
}

/// What a write settles before any encode or training work: the field
/// list and chunk geometry every epoch shares, every field's role, and
/// every field's bounds in every epoch — so a plan that names a missing
/// field, a shape that cannot be chunked, or a field no bound resolves for
/// (NaN, ±Inf, a constant under a relative bound, a lattice that would
/// saturate) is refused once, up front.
struct Plan<'a> {
    names: Vec<&'a str>,
    shape: Shape,
    chunk_slabs: usize,
    n_blocks: usize,
    roles: Vec<FieldRole>,
    targets: Vec<TargetRow<'a>>,
    /// `bounds[epoch][field]`: the user-facing bound and the quantization
    /// bound of the whole field (what a target's lattice and a delta's
    /// hybrid fit are quantized at; baseline and delta blocks resolve
    /// their own, see [`quantize_slab`]).
    bounds: Vec<Vec<(f64, f64)>>,
}

impl Plan<'_> {
    /// Axis-0 rows `[r0, r1)` of block `bi`.
    fn rows(&self, bi: usize) -> (usize, usize) {
        block_range(self.shape.dims()[0], self.chunk_slabs, bi)
    }

    /// Axis-0 rows of every block, in order.
    fn blocks(&self) -> Vec<(usize, usize)> {
        (0..self.n_blocks).map(|bi| self.rows(bi)).collect()
    }
}

/// One compressed field en route to serialization.
struct EncodedField<'p> {
    role: FieldRole,
    /// Anchor names (targets only).
    anchors: &'p [String],
    eb_abs: f64,
    /// Meta payload: empty for baseline fields; `model | hybrid` (each
    /// u64-length-prefixed) for targets; an empty model and the temporal
    /// hybrid for deltas, whose anchor is the previous epoch itself.
    meta: Vec<u8>,
    /// Per-block encoded streams, in axis-0 order.
    blocks: Vec<Vec<u8>>,
    /// The reader's view of the field, kept when something conditions on it.
    view: Option<Field>,
}

impl EncodedField<'_> {
    /// Payload size: meta area and every block.
    fn bytes(&self) -> usize {
        self.meta.len() + self.blocks.iter().map(Vec::len).sum::<usize>()
    }

    fn report(&self, name: &str) -> FieldReport {
        FieldReport {
            name: name.to_string(),
            role: self.role,
            bytes: self.bytes(),
            n_blocks: self.blocks.len(),
            eb_abs: self.eb_abs,
        }
    }

    /// Serialize the field (manifest row, meta area, blocks) into `sink`,
    /// returning the bytes written. The row records a CRC32 over the meta
    /// area.
    fn write_to<W: Write>(&self, sink: &mut W, name: &str, plan: &Plan) -> Result<usize, CfcError> {
        let mut row = RawRow {
            name: name.to_string(),
            role: self.role as u8,
            anchors: self.anchors.to_vec(),
            eb_abs: self.eb_abs,
            dims: plan.shape.dims().iter().map(|&d| d as u64).collect(),
            chunk_slabs: plan.chunk_slabs as u32,
            meta_len: self.meta.len() as u64,
            meta_crc: Some(cfc_sz::crc32(&self.meta)),
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

fn invalid(why: impl Into<String>) -> CfcError {
    CfcError::InvalidInput(why.into())
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
    /// or a pipe all work. A snapshot is a one-epoch series: the same bytes
    /// [`write_epochs_to`](Self::write_epochs_to) emits for `&[ds]`.
    pub fn write_to<W: Write>(&self, ds: &Dataset, sink: W) -> Result<ArchiveReport, CfcError> {
        let mut series = self.emit(std::slice::from_ref(ds), sink)?;
        let epoch = series.epochs.pop().expect("one epoch written");
        // an epoch's report leaves out the archive header; a snapshot's counts it
        Ok(ArchiveReport {
            archive_bytes: series.archive_bytes,
            ..epoch
        })
    }

    /// Compress a sequence of snapshots into one multi-epoch archive (thin
    /// wrapper over [`ArchiveWriter::write_epochs_to`]).
    pub fn write_epochs(&self, snapshots: &[Dataset]) -> Result<Vec<u8>, CfcError> {
        let mut buf = Vec::new();
        self.write_epochs_to(snapshots, &mut buf)?;
        Ok(buf)
    }

    /// Compress a sequence of snapshots into one multi-epoch archive and
    /// stream it into `sink`.
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
        sink: W,
    ) -> Result<TemporalReport, CfcError> {
        self.emit(snapshots, sink)
    }

    /// The one emitter: plan, header, then epoch after epoch — each encoded
    /// in full, then its kind byte, rows and payloads streamed out in field
    /// order.
    fn emit<W: Write>(
        &self,
        snapshots: &[Dataset],
        mut sink: W,
    ) -> Result<TemporalReport, CfcError> {
        let plan = self.plan(snapshots)?;
        let interval = self.cfg.keyframe_interval;
        // pooled scratch: worker buffers return to the pool between phases
        // and between epochs, so steady-state capacity is paid once per
        // thread for the whole write, not once per task list
        let pool: ScratchPool<EncodeScratch> = ScratchPool::new(self.threads());

        let mut head = Vec::new();
        let header = RawHeader {
            version: ARCHIVE_VERSION,
            name: snapshots[0].name().to_string(),
            n_epochs: snapshots.len() as u32,
            keyframe_interval: interval as u32,
            n_fields: plan.names.len() as u32,
        };
        write_header(&mut head, &header);
        sink.write_all(&head).map_err(io_err)?;
        let mut written = head.len();

        let mut epochs = Vec::with_capacity(snapshots.len());
        let mut views: Vec<Option<Field>> = Vec::new();
        for (e, ds) in snapshots.iter().enumerate() {
            // the reader's view is only carried while a delta epoch follows
            let next_is_delta = e + 1 < snapshots.len() && (e + 1) % interval != 0;
            let encoded = self.encode_epoch(&plan, e, ds, &views, next_is_delta, &pool)?;
            sink.write_all(&[epoch_kind(e, interval)]).map_err(io_err)?;
            let mut epoch_bytes = 1;
            let mut fields = Vec::with_capacity(encoded.len());
            for (name, f) in plan.names.iter().zip(&encoded) {
                epoch_bytes += f.write_to(&mut sink, name, &plan)?;
                fields.push(f.report(name));
            }
            written += epoch_bytes;
            epochs.push(ArchiveReport {
                fields,
                raw_bytes: plan.names.len() * plan.shape.len() * 4,
                archive_bytes: epoch_bytes,
            });
            views = encoded.into_iter().map(|f| f.view).collect();
        }
        sink.flush().map_err(io_err)?;

        Ok(TemporalReport {
            epochs,
            keyframe_interval: interval,
            raw_bytes: snapshots.len() * plan.names.len() * plan.shape.len() * 4,
            archive_bytes: written,
        })
    }

    /// Settle everything a write can refuse before doing any work (see
    /// [`Plan`]).
    fn plan<'a>(&'a self, snapshots: &'a [Dataset]) -> Result<Plan<'a>, CfcError> {
        let first = snapshots
            .first()
            .ok_or_else(|| invalid("cannot archive an empty epoch sequence"))?;
        if u32::try_from(snapshots.len()).is_err() {
            return Err(invalid("epoch count exceeds the u32 header prefix"));
        }
        if first.is_empty() {
            return Err(invalid("cannot archive an empty dataset"));
        }
        let shape = first.shape();
        let names: Vec<&str> = first.iter().map(|(n, _)| n).collect();
        for name in &names {
            // names are serialized with a u16 length prefix; `as u16` would
            // silently truncate in release builds and corrupt the archive
            if name.len() > u16::MAX as usize {
                return Err(invalid(format!(
                    "field name of {} bytes exceeds the u16 length prefix",
                    name.len()
                )));
            }
        }
        if u32::try_from(names.len()).is_err() {
            return Err(invalid("field count exceeds the u32 table prefix"));
        }
        for (e, ds) in snapshots.iter().enumerate().skip(1) {
            if ds.shape() != shape {
                return Err(invalid(format!("epoch {e} shape differs from epoch 0")));
            }
            if !ds.iter().map(|(n, _)| n).eq(names.iter().copied()) {
                return Err(invalid(format!("epoch {e} fields differ from epoch 0")));
            }
        }
        let ndim = shape.ndim();
        if ndim == 1 && snapshots.len() > 1 && self.cfg.keyframe_interval > 1 {
            return Err(invalid(
                "temporal deltas require 2-D or 3-D datasets; \
                 use keyframe_interval(1) for 1-D series",
            ));
        }
        if !self.cfg.targets.is_empty() {
            // cross-field targets go through CFNN training, which asserts
            // a usable configuration and patch + 1 < slice extent — surface
            // those as plan errors instead of panics inside a worker thread
            self.cfg.train.validate().map_err(CfcError::InvalidInput)?;
            if ndim == 1 {
                return Err(invalid("cross-field targets require 2-D or 3-D datasets"));
            }
            let dims = shape.dims();
            let (srows, scols) = (dims[ndim - 2], dims[ndim - 1]);
            let p = self.cfg.train.patch;
            if p + 1 >= srows || p + 1 >= scols {
                return Err(invalid(format!(
                    "training patch {p} too large for {srows}x{scols} slices; \
                     shrink TrainConfig::patch or use a larger dataset"
                )));
            }
        }
        let (roles, targets) = self.plan_roles(&names, ndim)?;

        let chunk_slabs = chunk_slabs_for(shape, self.cfg.chunk_elements);
        let n_blocks = n_blocks_for(shape.dims()[0], chunk_slabs);
        if u32::try_from(n_blocks).is_err() || u32::try_from(chunk_slabs).is_err() {
            return Err(invalid("chunk geometry exceeds the u32 index prefix"));
        }

        // each field's user-facing bound comes from full-field statistics
        // and is what every one of its blocks is then held to
        let bound = self.cfg.bound;
        let bounds = snapshots
            .iter()
            .map(|ds| {
                ds.iter()
                    .map(|(_, field)| {
                        let stats = FieldStats::of(field);
                        Ok((
                            bound.try_resolve(&stats)?,
                            bound.try_resolve_quantization(&stats)?,
                        ))
                    })
                    .collect()
            })
            .collect::<Result<_, CfcError>>()?;

        Ok(Plan {
            names,
            shape,
            chunk_slabs,
            n_blocks,
            roles,
            targets,
            bounds,
        })
    }

    /// Resolve the role of every field and the plan's rows against the
    /// dataset's field `names`, validating the plan.
    fn plan_roles<'a>(
        &'a self,
        names: &[&str],
        ndim: usize,
    ) -> Result<(Vec<FieldRole>, Vec<TargetRow<'a>>), CfcError> {
        let position = |name: &str| names.iter().position(|n| *n == name);
        let mut roles = vec![FieldRole::Independent; names.len()];
        let mut rows = Vec::with_capacity(self.cfg.targets.len());
        for (target, plan) in &self.cfg.targets {
            let field = position(target)
                .ok_or_else(|| invalid(format!("plan names unknown target field {target}")))?;
            if plan.anchors.is_empty() {
                return Err(invalid(format!("target {target} has no anchors")));
            }
            if plan.anchors.len() > u16::MAX as usize {
                return Err(invalid("more than u16::MAX anchors"));
            }
            let mut anchors = Vec::with_capacity(plan.anchors.len());
            for anchor in &plan.anchors {
                if anchor == target {
                    return Err(invalid(format!("target {target} cannot anchor itself")));
                }
                if self.cfg.targets.iter().any(|(t, _)| t == anchor) {
                    return Err(invalid(format!(
                        "anchor {anchor} of {target} is itself a cross-field target; \
                         anchors must decode independently"
                    )));
                }
                let a = position(anchor)
                    .ok_or_else(|| invalid(format!("plan names unknown anchor field {anchor}")))?;
                roles[a] = FieldRole::Anchor;
                anchors.push(a);
            }
            if roles[field] == FieldRole::Target {
                return Err(invalid(format!("duplicate plan for target {target}")));
            }
            roles[field] = FieldRole::Target;
            // the channel counts follow from the anchors and the data;
            // without a spec, the default widths for its dimensionality
            let spec = plan.spec.unwrap_or(CfnnSpec::writer_default(ndim));
            if spec.feat1 == 0 || spec.feat2 == 0 {
                return Err(invalid(format!(
                    "spec for target {target} has a zero width ({} x {}); \
                     both must be at least 1",
                    spec.feat1, spec.feat2
                )));
            }
            // the widest activation, refused before its training would
            // allocate for it and the model parser refuse what it trained
            let widest = (plan.anchors.len() * ndim).max(spec.feat1).max(spec.feat2);
            if widest > MAX_CHANNELS {
                return Err(invalid(format!(
                    "the network for target {target} is {widest} channels wide \
                     ({} anchors x {ndim} axes in, {} x {} wide); at most \
                     {MAX_CHANNELS}",
                    plan.anchors.len(),
                    spec.feat1,
                    spec.feat2
                )));
            }
            rows.push(TargetRow {
                field,
                anchors,
                anchor_names: &plan.anchors,
                spec,
            });
        }
        Ok((roles, rows))
    }

    /// Encode epoch `e`: a keyframe at multiples of the keyframe interval,
    /// deltas against `prev` — the previous epoch's views — otherwise.
    /// With `want_views`, every field comes back with the reader's view of
    /// it, for the epoch that follows to condition on.
    fn encode_epoch<'p>(
        &self,
        plan: &'p Plan,
        e: usize,
        ds: &Dataset,
        prev: &[Option<Field>],
        want_views: bool,
        pool: &ScratchPool<EncodeScratch>,
    ) -> Result<Vec<EncodedField<'p>>, CfcError> {
        let fields: Vec<&Field> = ds.iter().map(|(_, f)| f).collect();
        let bounds = &plan.bounds[e];
        if e.is_multiple_of(self.cfg.keyframe_interval) {
            self.encode_keyframe(plan, &fields, bounds, want_views, pool)
        } else {
            self.encode_delta(plan, &fields, bounds, prev, want_views, pool)
        }
    }

    /// The one block encoder, run as one task list over the blocks of
    /// `n_fields` fields: `block_of(field, block, rows)` says what block
    /// `block` of field `field` — axis-0 rows `[r0, r1)` — is, and this turns it
    /// into bytes. Per field, in order: the blocks, and where
    /// `want_view(field)` the reader's view of the field — each block's
    /// lattice dequantized at the bound the block records, which is all a
    /// reader does with the lattice it decodes.
    fn encode_blocks<'b>(
        &self,
        plan: &Plan,
        pool: &ScratchPool<EncodeScratch>,
        n_fields: usize,
        want_view: impl Fn(usize) -> bool + Sync,
        block_of: impl Fn(usize, usize, (usize, usize)) -> Result<Block<'b>, CfcError> + Sync,
    ) -> Result<Vec<FieldBlocks>, CfcError> {
        let tasks: Vec<(usize, usize)> = (0..n_fields)
            .flat_map(|fi| (0..plan.n_blocks).map(move |bi| (fi, bi)))
            .collect();
        let sz = self.block_compressor();
        let done = run_parallel_scratch(
            tasks.clone(),
            self.threads(),
            || pool.get(),
            |scratch, (fi, bi)| {
                let block = block_of(fi, bi, plan.rows(bi))?;
                let (container, _) = sz.compress_lattice_with(
                    &block.lattice,
                    &*block.predictor,
                    block.eb,
                    &mut *scratch,
                );
                let view = want_view(fi).then(|| block.lattice.reconstruct(block.eb));
                Ok::<_, CfcError>((container.to_bytes(), view))
            },
        );
        let mut fields: Vec<(Vec<Vec<u8>>, Vec<Field>)> = (0..n_fields)
            .map(|_| (Vec::with_capacity(plan.n_blocks), Vec::new()))
            .collect();
        for (&(fi, _), res) in tasks.iter().zip(done) {
            let (bytes, view) = res?;
            fields[fi].0.push(bytes);
            fields[fi].1.extend(view);
        }
        Ok(fields
            .into_iter()
            .map(|(blocks, slabs)| {
                let view = (!slabs.is_empty()).then(|| Field::concat_axis0(&slabs));
                (blocks, view)
            })
            .collect())
    }

    /// Encode a keyframe: every field's independent (Lorenzo) encoding
    /// first, in one task list — a planned target's is its fallback — then
    /// every CFNN trained in parallel, then the targets one after another.
    /// Each is judged before its whole fit ([`ArchiveWriter::judge`]): one
    /// that clearly loses is left as its fallback, from its meta area's
    /// size or from one inferred block. The rest are inferred, fitted and
    /// encoded blockwise against their anchors' views, and kept only where
    /// smaller than their fallback (see [`ArchiveBuilder::cross_field`]).
    fn encode_keyframe<'p>(
        &self,
        plan: &'p Plan,
        fields: &[&Field],
        bounds: &[(f64, f64)],
        want_views: bool,
        pool: &ScratchPool<EncodeScratch>,
    ) -> Result<Vec<EncodedField<'p>>, CfcError> {
        let threads = self.threads();
        let encoded = self.encode_blocks(
            plan,
            pool,
            fields.len(),
            // a target's inference must see its anchors as the reader will
            |fi| want_views || plan.roles[fi] == FieldRole::Anchor,
            |fi, _, (r0, r1)| {
                let slab = fields[fi].slab(r0, r1);
                let (lattice, eb) = quantize_slab(&slab, bounds[fi].0)?;
                Ok(Block {
                    lattice,
                    eb,
                    predictor: Box::new(LorenzoPredictor),
                })
            },
        )?;
        let mut out: Vec<EncodedField> = encoded
            .into_iter()
            .enumerate()
            .map(|(fi, (blocks, view))| EncodedField {
                role: match plan.roles[fi] {
                    FieldRole::Target => FieldRole::Independent,
                    role => role,
                },
                anchors: &[],
                eb_abs: bounds[fi].0,
                meta: Vec::new(),
                blocks,
                view,
            })
            .collect();

        // every CFNN trains in parallel (training dominates the cost), on
        // original data: one model serves every bound (paper §III-D2)
        let models = run_parallel(plan.targets.len(), threads, |i| {
            let row = &plan.targets[i];
            let anchors: Vec<&Field> = row.anchors.iter().map(|&a| fields[a]).collect();
            let target = fields[row.field];
            serialize_model(&train_cfnn(&row.spec, &self.cfg.train, &anchors, target))
        });
        // one target after another, so that one target's differences are
        // alive at a time
        for (row, model) in plan.targets.iter().zip(models) {
            let (eb_user, eb) = bounds[row.field];
            let anchors: Vec<&Field> = row
                .anchors
                .iter()
                .map(|&a| out[a].view.as_ref())
                .collect::<Option<_>>()
                .expect("anchors keep their view");
            let target = fields[row.field];
            let inference =
                match self.judge(plan, pool, model, target, eb, &anchors, &out[row.field]) {
                    Ok(Some(inference)) => inference,
                    Ok(None) => continue,
                    // a diverged training run: the reader would refuse the model
                    Err(CfcError::Corrupt {
                        context: "embedded model",
                        ..
                    }) if !self.cfg.always_cross_field => continue,
                    Err(e) => return Err(e),
                };
            let fit = inference.fit(&anchors, &self.cfg.hybrid, threads);

            let (blocks, view) = self
                .encode_blocks(
                    plan,
                    pool,
                    1,
                    |_| want_views,
                    |_, bi, rows| {
                        Ok(Block {
                            lattice: fit.block_lattice(rows),
                            eb,
                            predictor: Box::new(fit.predictor(bi)),
                        })
                    },
                )?
                .pop()
                .expect("one field asked for");
            let cross = EncodedField {
                role: FieldRole::Target,
                anchors: row.anchor_names,
                eb_abs: eb_user,
                meta: write_meta_area(&fit.model, &fit.hybrid.serialize()),
                blocks,
                view,
            };
            if self.cfg.always_cross_field || cross.bytes() < out[row.field].bytes() {
                out[row.field] = cross;
            }
        }
        Ok(out)
    }

    /// Judge a planned target, quantized at `eb`, before its whole fit,
    /// against `baseline`, its independent encoding. `None`: it loses, and
    /// no fit is built.
    ///
    /// 1. A meta area (`model` and hybrid weights, whose length the arity
    ///    fixes) at least as large as the baseline row can only lose. This
    ///    is decided from sizes, before the model is even parsed.
    /// 2. Otherwise, with more than one block, the [`sampled_block`] alone
    ///    is inferred from `anchors` and encoded ([`Self::estimate`]); an
    ///    estimate beyond [`ESTIMATE_MARGIN_PERCENT`] loses.
    /// 3. Anything else comes back to be fitted whole, the sampled block's
    ///    inference kept, and the guard decides on exact sizes.
    ///
    /// Under `always_cross_field` every target goes straight to step 3. A
    /// model the reader would refuse is `Err(Corrupt { context: "embedded
    /// model" })`.
    #[allow(clippy::too_many_arguments)]
    fn judge(
        &self,
        plan: &Plan,
        pool: &ScratchPool<EncodeScratch>,
        model: Vec<u8>,
        target: &Field,
        eb: f64,
        anchors: &[&Field],
        baseline: &EncodedField,
    ) -> Result<Option<TargetInference>, CfcError> {
        let always = self.cfg.always_cross_field;
        let arity = plan.shape.ndim() + 1;
        let meta = meta_area_len(model.len(), HybridModel::serialized_len(arity));
        if !always && meta >= baseline.bytes() {
            return Ok(None);
        }
        let mut inference = TargetInference::new(model, target, eb, &plan.blocks())?;
        if let Some(block) = sampled_block(plan.n_blocks).filter(|_| !always) {
            let estimate = self.estimate(pool, &mut inference, block, eb, anchors, meta, baseline);
            if estimate.loses() {
                return Ok(None);
            }
        }
        Ok(Some(inference))
    }

    /// Step 2 of [`Self::judge`]: block `block` of a target inferred alone,
    /// fitted on its own sample, encoded at `eb`, and set against the same
    /// block of `baseline`.
    #[allow(clippy::too_many_arguments)]
    fn estimate(
        &self,
        pool: &ScratchPool<EncodeScratch>,
        inference: &mut TargetInference,
        block: usize,
        eb: f64,
        anchors: &[&Field],
        meta: usize,
        baseline: &EncodedField,
    ) -> Estimate {
        let (lattice, predictor) =
            inference.sample_block(block, anchors, &self.cfg.hybrid, self.threads());
        let (container, _) = self.block_compressor().compress_lattice_with(
            &lattice,
            &predictor,
            eb,
            &mut pool.get(),
        );
        Estimate {
            block,
            meta,
            baseline_row: baseline.bytes(),
            cross_block: container.to_bytes().len(),
            baseline_block: baseline.blocks[block].len(),
        }
    }

    /// Encode one delta epoch: every field is conditioned on the reader's
    /// view of the same field one epoch back — "previous epoch" as the
    /// anchor role. Per block, the prediction mixes the causal Lorenzo
    /// guess, the previous epoch's value, and the temporally-corrected
    /// Lorenzo (see [`crate::predictor::TemporalHybridPredictor`]),
    /// weighted by a per-field hybrid fit that ships in the meta area.
    fn encode_delta<'p>(
        &self,
        plan: &'p Plan,
        fields: &[&Field],
        bounds: &[(f64, f64)],
        prev: &[Option<Field>],
        want_views: bool,
        pool: &ScratchPool<EncodeScratch>,
    ) -> Result<Vec<EncodedField<'p>>, CfcError> {
        let prev: Vec<&Field> = prev
            .iter()
            .map(|view| {
                view.as_ref()
                    .expect("the epoch before a delta keeps its views")
            })
            .collect();
        // hybrid weights: fitted once per field on the whole-field lattice
        // against the previous epoch's view; the weights ship in the meta
        // area, so encoder and decoder share them by construction
        let hybrids = run_parallel(fields.len(), self.threads(), |fi| {
            let eb_fit = bounds[fi].1;
            let lattice = QuantLattice::prequantize(fields[fi], eb_fit);
            let (step, prev) = (2.0 * eb_fit, prev[fi].as_slice());
            let (preds, targets) = sample_temporal_training_by(
                &lattice,
                |off| prev[off] as f64 / step,
                self.cfg.hybrid.n_samples,
                self.cfg.hybrid.seed,
            );
            HybridModel::fit_least_squares(&preds, &targets)
        });
        let encoded = self.encode_blocks(
            plan,
            pool,
            fields.len(),
            |_| want_views,
            |fi, _, (r0, r1)| {
                let slab = fields[fi].slab(r0, r1);
                let (lattice, eb) = quantize_slab(&slab, bounds[fi].0)?;
                // the same rows of the previous epoch, lent where they lie
                let row = slab.len() / (r1 - r0);
                let prev_slab = Cow::Borrowed(&prev[fi].as_slice()[r0 * row..r1 * row]);
                let predictor = TemporalHybridPredictor::from_slab(
                    slab.shape(),
                    prev_slab,
                    eb,
                    hybrids[fi].clone(),
                );
                Ok(Block {
                    lattice,
                    eb,
                    predictor: Box::new(predictor),
                })
            },
        )?;
        Ok(encoded
            .into_iter()
            .enumerate()
            .map(|(fi, (blocks, view))| EncodedField {
                role: FieldRole::Delta,
                anchors: &[],
                eb_abs: bounds[fi].0,
                // no embedded model: the anchor is the previous epoch itself
                meta: write_meta_area(&[], &hybrids[fi].serialize()),
                blocks,
                view,
            })
            .collect())
    }

    /// The compressor every block is encoded with.
    fn block_compressor(&self) -> SzCompressor {
        SzCompressor {
            // the block carries the bound it was quantized at; this one is
            // never consulted
            bound: self.cfg.bound,
            quantizer: QuantizerConfig::default(),
            predictor: PredictorKind::Lorenzo,
        }
    }

    fn threads(&self) -> usize {
        if self.cfg.threads > 0 {
            self.cfg.threads
        } else {
            host_threads()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::ArchiveReader;
    use crate::pipeline::TargetFit;

    /// Epoch `t` of a small evolving 3-D snapshot with a cross-field pair,
    /// seven slabs deep.
    fn epoch(t: f32) -> Dataset {
        let shape = Shape::d3(7, 16, 18);
        let a = Field::from_fn(shape, |i| {
            let (k, r, c) = (i[0] as f32, i[1] as f32, i[2] as f32);
            0.7 * k + 0.03 * (r - 6.0 + 0.4 * t) * (c - 8.0) + 0.01 * ((i[1] * 5 + i[2]) % 7) as f32
        });
        let b = a.map(|v| 0.5 * v * v - 2.0 * v + 0.1 * t);
        let mut ds = Dataset::new("MIRROR", shape);
        ds.push("A", a);
        ds.push("B", b);
        ds
    }

    fn builder() -> ArchiveBuilder {
        ArchiveBuilder::relative(1e-3)
            .train_config(TrainConfig {
                patch: 6,
                n_patches: 8,
                batch: 4,
                epochs: 1,
                lr: 4e-3,
                seed: 5,
            })
            .cross_field("B", &["A"])
            .chunk_elements(3 * 16 * 18)
            .keyframe_interval(3)
            .threads(2)
    }

    /// The view an epoch hands to the next is what a reader decodes from
    /// the bytes written up to and including that epoch — for a keyframe's
    /// anchor and target (kept, and demoted to its independent encoding),
    /// for a delta on a keyframe, for a delta on a delta.
    #[test]
    fn the_view_each_epoch_hands_on_is_what_the_reader_decodes() {
        for (builder, b_role) in [
            (builder(), FieldRole::Independent),
            (builder().always_cross_field(), FieldRole::Target),
        ] {
            views_are_what_the_reader_decodes(builder.build(), b_role);
        }
    }

    fn views_are_what_the_reader_decodes(writer: ArchiveWriter, b_role: FieldRole) {
        let snaps: Vec<Dataset> = (0..5).map(|e| epoch(e as f32)).collect();
        let plan = writer.plan(&snaps).unwrap();
        let pool = ScratchPool::new(2);
        let mut views: Vec<Option<Field>> = Vec::new();
        for e in 0..snaps.len() {
            let encoded = writer
                .encode_epoch(&plan, e, &snaps[e], &views, true, &pool)
                .unwrap();
            if e % 3 == 0 {
                assert_eq!(encoded[1].role, b_role, "B@e{e}");
            }
            views = encoded.into_iter().map(|f| f.view).collect();

            let so_far = writer.write_epochs(&snaps[..=e]).unwrap();
            let decoded = ArchiveReader::new(&so_far)
                .unwrap()
                .decode_epoch(e)
                .unwrap();
            for (name, view) in plan.names.iter().zip(&views) {
                let view = view.as_ref().expect("asked for");
                let dec = decoded.expect_field(name);
                assert_eq!(view.shape(), dec.shape());
                assert!(
                    view.as_slice()
                        .iter()
                        .zip(dec.as_slice())
                        .all(|(v, d)| v.to_bits() == d.to_bits()),
                    "{name}@e{e}: the writer's view is not the reader's"
                );
            }
        }
    }

    /// A field no bound resolves for is refused by the plan — the step
    /// every encode and every training takes its bounds from — whatever
    /// its role and whichever epoch it is in.
    #[test]
    fn the_plan_refuses_a_field_no_bound_resolves_for() {
        let good = epoch(0.0);
        let bad = |name: &str, v: f32| {
            let mut ds = Dataset::new("MIRROR", good.shape());
            for (n, f) in good.iter() {
                let mut data = f.as_slice().to_vec();
                if n == name {
                    data[100] = v;
                }
                ds.push(n, Field::from_vec(f.shape(), data));
            }
            ds
        };
        let writer = builder().build();
        assert!(writer.plan(&[good.clone(), good.clone()]).is_ok());
        for name in ["A", "B"] {
            for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                for snaps in [
                    vec![bad(name, v)],
                    vec![good.clone(), bad(name, v)],
                    vec![good.clone(), good.clone(), good.clone(), bad(name, v)],
                ] {
                    let plan = writer.plan(&snaps).map(|_| ());
                    assert!(
                        matches!(plan, Err(CfcError::InvalidInput(_))),
                        "{v} in {name}, epoch {}: {plan:?}",
                        snaps.len() - 1
                    );
                }
            }
        }
    }

    /// A stand-in for the independent row a target is judged against:
    /// `n_blocks` blocks of `block` bytes. The verdict reads its sizes only.
    fn baseline_of(n_blocks: usize, block: usize) -> EncodedField<'static> {
        EncodedField {
            role: FieldRole::Independent,
            anchors: &[],
            eb_abs: 1e-3,
            meta: Vec::new(),
            blocks: vec![vec![0; block]; n_blocks],
            view: None,
        }
    }

    /// Step 1 of the verdict reads sizes alone: where the meta area a model
    /// would make is at least the baseline row, the target is demoted
    /// before the model is parsed — bytes no reader would take for a model
    /// are a demotion, not an error — and with one byte more of baseline
    /// row the same bytes go on to be parsed, and are refused. Under
    /// `always_cross_field` they are parsed whatever the sizes.
    #[test]
    fn step_one_demotes_from_sizes_alone() {
        let snaps = [epoch(0.0)];
        let (a, b) = (snaps[0].expect_field("A"), snaps[0].expect_field("B"));
        let garbage = vec![0xA5; 600];
        let meta = meta_area_len(garbage.len(), HybridModel::serialized_len(4));
        // the size step 1 reads is the meta area a kept target would carry
        let hybrid = HybridModel {
            weights: vec![0.25; 4],
            losses: Vec::new(),
        };
        assert_eq!(write_meta_area(&garbage, &hybrid.serialize()).len(), meta);
        let pool = ScratchPool::new(2);
        for (writer, always) in [
            (builder().build(), false),
            (builder().always_cross_field().build(), true),
        ] {
            let plan = writer.plan(&snaps).unwrap();
            let judge = |row: usize| {
                let mut baseline = baseline_of(plan.n_blocks, row / plan.n_blocks);
                baseline.blocks[0].resize(row - (plan.n_blocks - 1) * (row / plan.n_blocks), 0);
                assert_eq!(baseline.bytes(), row);
                let model = garbage.clone();
                writer
                    .judge(&plan, &pool, model, b, 1e-3, &[a], &baseline)
                    .map(|fit| fit.is_some())
            };
            let refused = |r| {
                matches!(
                    r,
                    Err(CfcError::Corrupt {
                        context: "embedded model",
                        ..
                    })
                )
            };
            assert_eq!(refused(judge(meta)), always, "always {always}");
            if !always {
                assert!(matches!(judge(meta), Ok(false)));
            }
            assert!(refused(judge(meta + 1)), "always {always}");
        }
    }

    /// The margin decides on both sides of its boundary, exactly: an
    /// estimate of the baseline row plus [`ESTIMATE_MARGIN_PERCENT`] is
    /// fitted whole, one byte more is demoted — whether the excess comes
    /// from the meta area or from the sampled block's ratio.
    #[test]
    fn the_margin_decides_both_sides_of_its_boundary() {
        let estimate = |meta, cross_block| Estimate {
            block: 1,
            meta,
            baseline_row: 3000,
            cross_block,
            baseline_block: 300,
        };
        // 90 + 3000 × 300 / 300 = 3090 = 3000 × 1.03
        assert!(!estimate(90, 300).loses());
        assert!(estimate(91, 300).loses());
        // 0 + 3000 × 309 / 300 = 3090, and 3100
        assert!(!estimate(0, 309).loses());
        assert!(estimate(0, 310).loses());
        // a block that beats its baseline pays for a meta area up to the
        // margin: 1090 + 3000 × 200 / 300 = 3090, and 3091
        assert!(!estimate(1090, 200).loses());
        assert!(estimate(1091, 200).loses());
    }

    /// The estimate samples the middle block whatever the thread count: at
    /// one, two and three workers it samples the same block and finds the
    /// same bytes. The inference it keeps is the one the whole fit would
    /// make — the fit built on it is a fresh one-worker fit, bit for bit.
    #[test]
    fn the_sampled_block_is_the_same_at_any_thread_count() {
        let sampled: Vec<Option<usize>> = (1..=6).map(sampled_block).collect();
        assert_eq!(sampled, [None, Some(1), Some(1), Some(2), Some(2), Some(3)]);

        let snaps = [epoch(0.0)];
        let (a, b) = (snaps[0].expect_field("A"), snaps[0].expect_field("B"));
        let spec = builder().build().plan(&snaps).unwrap().targets[0].spec;
        let model = serialize_model(&train_cfnn(&spec, &builder().train, &[a], b));
        let estimates: Vec<Estimate> = [1, 2, 3]
            .into_iter()
            .map(|threads| {
                let writer = builder().threads(threads).build();
                let plan = writer.plan(&snaps).unwrap();
                let eb = plan.bounds[0][1].1;
                let rows = plan.blocks();
                let block = sampled_block(plan.n_blocks).expect("three blocks");
                let mut inference = TargetInference::new(model.clone(), b, eb, &rows).unwrap();
                let pool = ScratchPool::new(threads);
                let baseline = baseline_of(plan.n_blocks, 400);
                let estimate =
                    writer.estimate(&pool, &mut inference, block, eb, &[a], 100, &baseline);

                let hybrid = &writer.cfg.hybrid;
                let fit = inference.fit(&[a], hybrid, threads);
                let fresh = TargetFit::new(model.clone(), b, eb, &[a], &rows, hybrid, 1).unwrap();
                assert_eq!(fit.hybrid, fresh.hybrid, "threads {threads}");
                for (bi, (got, want)) in fit.block_diffs.iter().zip(&fresh.block_diffs).enumerate()
                {
                    assert!(
                        got.iter().zip(want).all(|(g, w)| g
                            .as_slice()
                            .iter()
                            .zip(w.as_slice())
                            .all(|(g, w)| g.to_bits() == w.to_bits())),
                        "threads {threads}, block {bi}"
                    );
                }
                estimate
            })
            .collect();
        assert_eq!(estimates[0].block, 1);
        assert!(
            estimates.iter().all(|e| *e == estimates[0]),
            "{estimates:?}"
        );
    }
}
