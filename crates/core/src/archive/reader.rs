//! Archive read path: lazy decode of whole snapshots, single fields,
//! single blocks, or axis-aligned regions.
//!
//! [`ArchiveReader::open`] parses and validates only the manifest; payload
//! bytes are read (and CRC-checked) when something is decoded. Every
//! decode error is wrapped with the field (and block index) it occurred in
//! via [`CfcError::in_field`] — match on [`CfcError::root_cause`] when you
//! care about the underlying failure.
//!
//! ## One block decoder, one dependency walk
//!
//! "Decode block `idx` of entry `fi`" exists once, for every container
//! version and every caller:
//!
//! * `ArchiveReader::decode_block_bytes` is the only function that turns
//!   block bytes into samples: fetched, CRC-checked bytes + the decoded
//!   slabs the block depends on + the entry's parsed meta in, one `match`
//!   on the entry's role, the slab out to the destination it is handed —
//!   a [`Field`] of its own, or in an epoch decode its slab of the field's
//!   one buffer.
//! * `ArchiveReader::resolve_block` is the only function that knows what a
//!   block depends on — the same block of each same-epoch anchor for a
//!   cross-field target, the same block of the same field one epoch back
//!   for a temporal delta, nothing otherwise — and resolves it depth-first
//!   with an **explicit stack**: a delta chain is as long as the archive's
//!   keyframe interval says, and call-stack depth must not be a property
//!   of the file being read.
//!
//! ## A region read stops at the window's last row
//!
//! Every predictor here is causal in raster order, and the CFNN runs a 3-D
//! block one axis-0 slice at a time (slice *k* reads slices *k* and *k − 1*
//! of the anchors, the attention pool is per slice), so the first *r* rows
//! of a block decode bit-identically from the first *r* rows of what the
//! block decodes against. [`ArchiveReader::read`] knows how many rows of
//! the last block of a region's cover the window reaches and hands that one
//! number to the walk: `resolve_block` passes it on to every block it
//! resolves for that one (`ArchiveReader::dep_rows`: a target's anchors and
//! a delta's chain predecessors bring the same leading rows; a 2-D target's
//! block is one CNN plane, so its anchors come whole and only its own walk
//! stops), `BlockBackend::finish` to `decode_block_bytes`, and that to the
//! codec ([`cfc_sz::SzCompressor::decompress_rows_with`]). What stays whole: the
//! block's bytes are fetched and CRC-checked whole, its entropy sections
//! are decoded whole, and the codes and outliers past the rows are still
//! held to the alphabet and to each other — a short decode fails on exactly
//! the blocks a whole decode fails on, with the same error. And everything
//! that keeps or compares blocks — [`ArchiveReader::decode_epoch`], the
//! `decode_block*` primitives, scrub, the store's cache — asks for
//! `ALL_ROWS`: there is one read path, and a cache entry is a whole block.
//!
//! ## One request, every core
//!
//! A 3-D target block's CFNN is the slowest step of any read, and its
//! slices are independent: each reads its own slice and the one before it
//! of the anchors and writes its own planes of the prediction. How many
//! threads they run on is set by whoever owns the [`ArchiveScratch`]. The
//! entry points that run one request on a scratch of the reader's own —
//! [`ArchiveReader::read`] (so `decode_region{,_at}` and deep scrub) and
//! `decode_block{,_at}` — spread the slices over the host's cores, capped
//! at the slices the block needs. Everything that is already one worker
//! among many keeps one thread, so fan-outs never nest: the block workers
//! of [`ArchiveReader::decode_epoch`], `decode_block_with` on a caller's
//! scratch, the store (and the server over it), and the writer. Each slice
//! computes the same bits wherever it runs.
//!
//! The walk never touches bytes or caches itself; it drives a
//! `BlockBackend`, which answers "do you already have block `(fi, idx)`?"
//! and "here are its dependencies, produce it". This module's backend
//! (`Direct`) reads from the source through a caller's [`ArchiveScratch`]
//! and, inside an epoch decode, hands out slabs of the fields it already
//! has; [`super::store::ArchiveStore`]'s backend is its cache
//! (tier 1 → single-flight → tier 2 → source).
//!
//! ## One epoch decode
//!
//! "Decode every field of an epoch" exists once as well
//! ([`ArchiveReader::decode_epoch`]; [`ArchiveReader::decode_all`] is its
//! epoch 0): one `(field, block)` task list over the epoch's entries, run
//! across the worker threads through the walk above, in two phases — first
//! everything that is not a cross-field target (a delta entry resolves its
//! own chain back to the keyframe, whatever roles it passes on the way, or
//! only its own block when the call before left the previous epoch — see
//! below), then the targets against the fields the first phase decoded.
//! Before each phase fans out, the calling thread allocates every field of
//! it that has several blocks one buffer, shaped by the manifest, and cuts
//! it into its blocks' slabs; each task decodes its block straight into
//! its slab, so no block is allocated on its own or copied into its field
//! afterwards. A field of one block is its block, as a read would decode
//! it. The manifest's shape is untrusted, so a field gets a buffer only
//! when its blocks' bytes could decode to that many samples
//! ([`cfc_sz::compressor::MAX_SAMPLES_PER_BYTE`]); one claiming more gets
//! none, and its blocks fail as they would with one — a stream that
//! decodes at all decodes to the slab its own header records, and the
//! manifest is checked against that before anything is written. Results
//! come back in task order, so the error of a damaged archive is the one
//! the first failing block in `(field, block)` order raises, at any thread
//! count.
//!
//! ## What the reader keeps between calls
//!
//! Two things. The first is the scratch of its one-request reads (see
//! above): [`ArchiveReader::read`] and `decode_block{,_at}` take it, or
//! build a wide one while another call holds it, and hand it back when they
//! are done, so one scratch's buffers — stale samples never returned by
//! anything — are kept. A fresh CFNN workspace costs its 4 MB in page
//! faults on every worker, about two thirds of a 128×128 slice's inference
//! on a 2-vCPU guest; kept, each read after the first starts warm.
//!
//! The second: the fields of the last epoch [`ArchiveReader::decode_epoch`]
//! decoded, and only when the epoch after it has a temporal-delta entry.
//! A call for that next epoch starts its first phase from them — each
//! delta's predecessor is a slab of a field already in hand, the same
//! lookup the target phase makes — so an in-order pass over a keyframe
//! group decodes every block once instead of re-walking the chain at every
//! epoch. Every `decode_epoch` call replaces that one slot, and leaves it
//! empty on an error, at the end of a group, at the last epoch and for
//! every one-epoch archive (a snapshot, or v1/v2); so at most one epoch's
//! decoded fields are held. Nothing else reads it: [`ArchiveReader::read`], the
//! `decode_block*` primitives, the store and scrub decode from the source
//! every time (beyond kept or caller-provided [`ArchiveScratch`] buffers). For a
//! serving layer that caches decoded blocks across calls and threads, wrap
//! a reader in [`super::store::ArchiveStore`].

use std::borrow::{Borrow, Cow};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use cfc_sz::compressor::MAX_SAMPLES_PER_BYTE;
use cfc_sz::stream::Container;
use cfc_sz::{crc32, CfcError, DecodeScratch, LorenzoPredictor};
use cfc_tensor::{Dataset, Field, Region};

use crate::hybrid::HybridModel;
use crate::pipeline::{
    check_model_fits, decode_target_rows, deserialize_model, CrossFieldCompressor, Dest, Own,
};
use crate::predict::CfnnInference;
use crate::predictor::{TemporalHybridPredictor, TEMPORAL_ARITY};

use super::damage::{DamageMap, DecodePolicy, Salvaged};
use super::format::{
    read_manifest, read_meta_area, slab_shape_of, ArchiveEntry, BlockMeta, FieldRole, RawManifest,
};
use super::source::ArchiveSource;
use super::{host_threads, run_parallel_scratch};

/// One read, fully specified: which field, at which epoch, which part of
/// it, and what to do about damaged blocks. The argument of
/// [`ArchiveReader::read`] and [`super::ArchiveStore::read`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadRequest<'a> {
    /// Field name.
    pub field: &'a str,
    /// Epoch (0 for single-snapshot archives).
    pub epoch: usize,
    /// Axis-aligned region to cut out; `None` reads the whole field.
    pub region: Option<Region>,
    /// Fail on the first damaged block, or fill it and report it.
    pub policy: DecodePolicy,
}

impl<'a> ReadRequest<'a> {
    /// The whole of `field` at epoch 0, strictly.
    pub fn new(field: &'a str) -> Self {
        ReadRequest {
            field,
            epoch: 0,
            region: None,
            policy: DecodePolicy::Strict,
        }
    }

    /// This request at `epoch`.
    pub fn at(mut self, epoch: usize) -> Self {
        self.epoch = epoch;
        self
    }

    /// This request narrowed to `region`.
    pub fn region(mut self, region: &Region) -> Self {
        self.region = Some(*region);
        self
    }

    /// This request under `policy`.
    pub fn policy(mut self, policy: DecodePolicy) -> Self {
        self.policy = policy;
        self
    }
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
/// per block. Beyond small per-stream transients, what is freshly
/// allocated is the output: in an epoch decode each field's one buffer
/// (for a field of several blocks, allocated before the fan-out and
/// written by every block); in a read of single blocks or a region, each
/// block's own slab.
///
/// A scratch is also how wide a cross-field target block's CFNN runs. One
/// built with [`ArchiveScratch::new`] — a caller's, the store's, each of
/// an epoch decode's block workers' — runs a block's 2-D slices one after
/// another on its own thread: it is already one worker among many. The
/// reader's own scratch, which [`ArchiveReader::read`] and
/// `decode_block{,_at}` run their one request on, spreads the slices over
/// the host's cores, one extra CFNN workspace per extra worker. The output
/// is the same bits either way.
#[derive(Debug, Default)]
pub struct ArchiveScratch {
    /// Raw block bytes read from the source (CRC-checked before decode).
    block: Vec<u8>,
    /// Entropy-stage reusable buffers (payload/codes/outliers).
    dec: DecodeScratch,
    /// CFNN activations: empty until the first cross-field target block,
    /// so workers that only see baseline or delta blocks never pay for it.
    nn: cfc_nn::Workspace,
    /// One CFNN workspace per extra worker a target block's slices may
    /// spread over (none: the calling thread alone); each as lazy as `nn`.
    helpers: Vec<cfc_nn::Workspace>,
    /// Times the raw block buffer had to grow.
    block_growths: usize,
}

impl ArchiveScratch {
    /// Fresh (empty) scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch whose target blocks run their CFNN slices on up to
    /// `workers` threads, the calling one included.
    pub(crate) fn wide(workers: usize) -> Self {
        ArchiveScratch {
            helpers: (1..workers).map(|_| Default::default()).collect(),
            ..Self::default()
        }
    }

    /// Total capacity growths across the raw block buffer, the
    /// codec-level buffers and the CFNN activations since construction.
    /// Stable across decodes ⇔ steady-state block decode reuses the
    /// covered buffers.
    pub fn growths(&self) -> usize {
        let nn: usize = self.helpers.iter().map(cfc_nn::Workspace::growths).sum();
        self.block_growths + self.dec.growths() + self.nn.growths() + nn
    }
}

/// `(flat entry index, block index along axis 0)` — how the walk, its
/// backends and the store's cache tiers name a block.
pub(crate) type BlockKey = (usize, usize);

/// "Every row of the block", where a count of leading axis-0 rows is asked
/// for — what every caller but a region read's last block wants.
pub(crate) const ALL_ROWS: usize = usize::MAX;

/// A backend's answer to "do you have this block?".
pub(crate) enum Lookup<B, T> {
    /// Yes — no decode needed.
    Ready(B),
    /// No. The ticket carries whatever the backend set aside for the
    /// decode (the store: its single-flight slot and any tier-2 bytes) and
    /// comes back in [`BlockBackend::finish`] or [`BlockBackend::abandon`].
    Miss(T),
}

/// Where [`ArchiveReader::resolve_block`] gets blocks from. The walk owns
/// the dependency order; the backend owns bytes, caches and counters.
pub(crate) trait BlockBackend {
    /// Handle to a decoded block (`Field`, or `Arc<Field>` for a cache).
    type Block: Borrow<Field>;
    /// State carried from a miss to the decode that resolves it.
    type Ticket;

    /// Look `key` up; every miss is followed by exactly one `finish` or
    /// `abandon` with its ticket. `Err` is a failure to even look (the
    /// store: the decode this request coalesced onto failed).
    fn begin(&mut self, key: BlockKey) -> Result<Lookup<Self::Block, Self::Ticket>, CfcError>;

    /// Produce the leading `rows` rows of `key` given its decoded
    /// dependencies, in `ArchiveReader::block_deps` order: fetch its bytes,
    /// run `ArchiveReader::decode_block_bytes`, remember the result. A
    /// backend that keeps what it produces walks with [`ALL_ROWS`].
    fn finish(
        &mut self,
        key: BlockKey,
        ticket: Self::Ticket,
        deps: &[&Field],
        rows: usize,
    ) -> Result<Self::Block, CfcError>;

    /// A dependency of the block `ticket` was issued for failed with
    /// `err`, so it will never be finished.
    fn abandon(&mut self, _ticket: Self::Ticket, _err: &CfcError) {}
}

/// The block loop behind every multi-block read: `get` each block of
/// `first..=last`; under [`DecodePolicy::Salvage`] a failed block becomes
/// a fill slab (passed through `filled`, never cached by anyone) and an
/// entry in the returned [`DamageMap`] instead of failing the call. An
/// entry with no recorded shape (v1) has nothing to shape a fill slab
/// after, so its failures fail the call under either policy.
pub(crate) fn salvage_blocks<B>(
    entry: &ArchiveEntry,
    (first, last): (usize, usize),
    policy: DecodePolicy,
    mut get: impl FnMut(usize) -> Result<B, CfcError>,
    mut filled: impl FnMut(Field) -> B,
) -> Result<(Vec<B>, DamageMap), CfcError> {
    let mut damage = DamageMap::new();
    let mut blocks = Vec::with_capacity(last + 1 - first);
    for bi in first..=last {
        blocks.push(match get(bi) {
            Ok(block) => block,
            Err(e) => {
                let fill = policy.fill().and_then(|fill| entry.fill_slab(bi, fill));
                let Some(slab) = fill else { return Err(e) };
                record_block_damage(&mut damage, &entry.qualified_name(), bi, &e);
                filled(slab)
            }
        });
    }
    Ok((blocks, damage))
}

/// A target or temporal-delta field's parsed meta area: the embedded CFNN
/// compiled for inference (`None` for a delta, whose anchor is the previous
/// epoch) plus the fitted hybrid weights, both already checked against the
/// entry's anchors and dimensionality.
pub(crate) struct TargetMeta {
    pub(crate) model: Option<CfnnInference>,
    pub(crate) hybrid: HybridModel,
}

/// Reads archives written by [`super::ArchiveWriter`] — lazily, from any
/// positional [`ArchiveSource`] (a file, an in-memory buffer). Only the
/// manifest is
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
    /// The last epoch [`ArchiveReader::decode_epoch`] decoded, with those
    /// of its fields the next epoch's deltas decode against (see the
    /// module docs). Only [`ArchiveReader::epoch_with_threads`] reads or
    /// replaces it.
    last_epoch: Mutex<Option<Arc<EpochFields>>>,
    /// The scratch of the one-request reads, kept for the next one (see
    /// the module docs). Only [`ArchiveReader::with_scratch`] reads or
    /// replaces it.
    spare: Mutex<Option<ArchiveScratch>>,
}

/// An epoch and fields of it, by flat entry index.
type EpochFields = (usize, HashMap<usize, Field>);

impl ArchiveReader<std::io::Cursor<Vec<u8>>> {
    /// Parse an in-memory archive (thin wrapper over
    /// [`ArchiveReader::open`] + [`std::io::Cursor`]).
    pub fn new(bytes: &[u8]) -> Result<Self, CfcError> {
        Self::open(std::io::Cursor::new(bytes.to_vec()))
    }
}

impl<R: ArchiveSource> ArchiveReader<R> {
    /// Read the archive manifest from a positional source and hold it to
    /// the rule list, both through [`format`](mod@super::format). Payloads
    /// are not read yet.
    ///
    /// Total over arbitrary bytes: bad magic, future versions, truncation,
    /// block indexes pointing past EOF, duplicate or dangling names all
    /// return [`CfcError`].
    pub fn open(src: R) -> Result<Self, CfcError> {
        let src_len = src.len().map_err(|e| CfcError::io("sizing archive", &e))?;
        // the first broken rule is the error
        let RawManifest { header, rows } = read_manifest(&src, src_len, &mut |_, _, _, e| Err(e))?;
        Ok(ArchiveReader {
            entries: rows
                .into_iter()
                .map(|row| row.into_entry(header.version))
                .collect(),
            name: header.name,
            version: header.version,
            n_epochs: header.n_epochs as usize,
            n_fields: header.n_fields as usize,
            keyframe_interval: header.keyframe_interval as usize,
            src,
            src_len,
            last_epoch: Mutex::new(None),
            spare: Mutex::new(None),
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

    /// Position of `name` in the manifest (the stable key block caches and
    /// anchor memos use): epoch 0's entry.
    pub(crate) fn entry_index(&self, name: &str) -> Result<usize, CfcError> {
        self.epoch0()
            .iter()
            .position(|e| e.name == name)
            .ok_or_else(|| CfcError::InvalidInput(format!("archive has no field {name}")))
    }

    /// Flat index of the first entry of `epoch`, or the typed error for an
    /// epoch the archive does not have.
    pub(crate) fn epoch_base(&self, epoch: usize) -> Result<usize, CfcError> {
        if epoch >= self.n_epochs {
            return Err(CfcError::InvalidInput(format!(
                "archive has {} epochs, asked for {epoch}",
                self.n_epochs
            )));
        }
        Ok(epoch * self.n_fields)
    }

    /// Flat entry index of field `name` at `epoch`.
    pub(crate) fn entry_index_at(&self, name: &str, epoch: usize) -> Result<usize, CfcError> {
        Ok(self.epoch_base(epoch)? + self.entry_index(name)?)
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
        verify_crc("archive block", b.crc, &scratch.block)
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
        verify_crc("archive block", b.crc, &bytes)?;
        Ok(bytes)
    }

    /// Read a field's meta area (embedded model + hybrid weights),
    /// verifying the manifest's meta CRC where it records one (v3) — meta
    /// rot surfaces as a typed checksum error, never a garbled decode.
    fn read_meta(&self, entry: &ArchiveEntry) -> Result<Vec<u8>, CfcError> {
        let meta = self.read_at(entry.payload_base, entry.meta_len, "archive field meta")?;
        verify_crc("archive field meta", entry.meta_crc, &meta)?;
        Ok(meta)
    }

    /// Parse a target or delta entry's meta area, once for all its blocks:
    /// the model is compiled here, and everything in it that could
    /// disagree with the entry is rejected here.
    fn parse_target_meta(entry: &ArchiveEntry, meta: &[u8]) -> Result<TargetMeta, CfcError> {
        let (model_bytes, hybrid_bytes) = read_meta_area(meta)?;
        let hybrid = HybridModel::try_deserialize(hybrid_bytes)?;
        let ndim = entry
            .shape
            .ok_or(CfcError::Corrupt {
                context: "archive entry",
                detail: "meta area on an entry without a recorded shape".into(),
            })?
            .ndim();
        let model = if entry.role == FieldRole::Delta {
            if !(2..=3).contains(&ndim) {
                return Err(CfcError::Corrupt {
                    context: "archive entry",
                    detail: format!("{ndim}-D temporal-delta field"),
                });
            }
            if hybrid.arity() != TEMPORAL_ARITY {
                return Err(CfcError::Corrupt {
                    context: "hybrid weights",
                    detail: format!(
                        "arity {} for a {ndim}-D temporal-delta field (expected {TEMPORAL_ARITY})",
                        hybrid.arity()
                    ),
                });
            }
            None
        } else {
            let model = deserialize_model(model_bytes)?;
            check_model_fits(&model, &hybrid, entry.anchors.len(), ndim)?;
            Some(model)
        };
        Ok(TargetMeta { model, hybrid })
    }

    /// Parse a target or temporal-delta entry's meta once (`None` for
    /// entries without a meta area: baselines, anchors, v1 targets) —
    /// multi-block decodes hoist this out of their block loops.
    pub(crate) fn target_meta(&self, entry: &ArchiveEntry) -> Result<Option<TargetMeta>, CfcError> {
        if !entry.has_meta() {
            return Ok(None);
        }
        Self::parse_target_meta(entry, &self.read_meta(entry)?)
            .map(Some)
            .map_err(|e| e.in_field(&entry.qualified_name(), None))
    }

    /// Entry `fi`'s meta parsed ahead of a walk, in the form [`Direct`]
    /// takes it (empty for entries without a meta area).
    fn own_meta(&self, fi: usize) -> Result<Vec<(usize, TargetMeta)>, CfcError> {
        let meta = self.target_meta(&self.entries[fi])?;
        Ok(meta.map(|m| (fi, m)).into_iter().collect())
    }

    /// The one block decoder: already fetched, CRC-checked `bytes` of block
    /// `idx` of `entry`, the decoded slabs it depends on (`deps`, in
    /// [`ArchiveReader::block_deps`] order, each cut to
    /// [`ArchiveReader::dep_rows`]) and the entry's parsed meta in; the
    /// leading `rows` rows of the block's slab — all of it for [`ALL_ROWS`]
    /// — out to `out`: an epoch decode hands each block its slab of the
    /// field's one buffer, every other caller [`Own`]. The block's stream is
    /// held to the manifest's geometry and to the slabs it is predicted
    /// from before it is decoded. Pure CPU — no source I/O, no cache.
    /// Errors carry the epoch-qualified field and the block index.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn decode_block_bytes<D: Dest>(
        &self,
        entry: &ArchiveEntry,
        idx: usize,
        bytes: &[u8],
        deps: &[&Field],
        meta: Option<&TargetMeta>,
        rows: usize,
        scratch: &mut ArchiveScratch,
        out: D,
    ) -> Result<D::Out, CfcError> {
        let ArchiveScratch {
            dec, nn, helpers, ..
        } = scratch;
        // open a lattice-coded block and hold it to the manifest's geometry
        // and to the slabs it is about to be predicted from
        let open = || {
            let container = Container::try_from_bytes(bytes)?;
            entry.check_slab_shape(idx, container.shape)?;
            let whole = container.shape.dims()[0];
            let lent = slab_shape_of(container.shape, Self::dep_rows(entry, rows).min(whole));
            if deps.iter().any(|d| d.shape() != lent) {
                let what = match entry.role {
                    FieldRole::Delta => "previous-epoch",
                    _ => "anchor",
                };
                return Err(CfcError::ShapeMismatch {
                    expected: lent.to_string(),
                    found: format!("{what} slab with a different shape"),
                });
            }
            Ok(container)
        };
        let missing = |what: &str| CfcError::Corrupt {
            context: "archive entry",
            detail: format!("{} entry without {what}", entry.role.label()),
        };
        (|| match (entry.role, meta) {
            (FieldRole::Independent | FieldRole::Anchor, _) => {
                out.decode(&open()?, &LorenzoPredictor, rows, dec)
            }
            // no meta area: a v1 target, whose monolithic stream carries its
            // model and hybrid weights as sections — the one-block caller of
            // the decode below, and all the read path knows about v1
            (FieldRole::Target, None) => {
                out.whole(CrossFieldCompressor::new(1e-3).decompress(bytes, deps)?)
            }
            (FieldRole::Target, Some(meta)) => {
                let container = open()?;
                let model = meta.model.as_ref().ok_or_else(|| missing("a model"))?;
                let nn = (nn, helpers.as_mut_slice());
                decode_target_rows(&container, model, &meta.hybrid, deps, rows, nn, dec, out)
            }
            (FieldRole::Delta, Some(meta)) => {
                let container = open()?;
                let [prev] = deps else {
                    return Err(missing("its previous epoch"));
                };
                // same prediction the writer used: the previous epoch's
                // decoded slab mixed with the Lorenzo guess by the hybrid
                // weights shipped in the meta area (the weights only: a
                // model's loss history has no part in a prediction)
                let hybrid = HybridModel {
                    weights: meta.hybrid.weights.clone(),
                    losses: Vec::new(),
                };
                let prev_slab = Cow::Borrowed(prev.as_slice());
                let predictor = TemporalHybridPredictor::from_slab(
                    prev.shape(),
                    prev_slab,
                    container.eb,
                    hybrid,
                );
                out.decode(&container, &predictor, rows, dec)
            }
            (FieldRole::Delta, None) => Err(missing("meta")),
        })()
        .map_err(|e| e.in_field(&entry.qualified_name(), Some(idx)))
    }

    /// Flat indices of the entries block `idx` of entry `fi` decodes
    /// against (the same `idx` of each): the same-epoch anchors of a
    /// cross-field target in manifest order (repeats included), the same
    /// field one epoch back for a temporal delta, nothing otherwise.
    fn block_deps(&self, fi: usize) -> Vec<usize> {
        let entry = &self.entries[fi];
        match entry.role {
            // `open` checked that anchors resolve within their own epoch
            // and that delta roles appear only past epoch 0
            FieldRole::Target => entry
                .anchors
                .iter()
                .filter_map(|a| self.entry_index_at(a, entry.epoch).ok())
                .collect(),
            FieldRole::Delta => fi.checked_sub(self.n_fields).into_iter().collect(),
            FieldRole::Independent | FieldRole::Anchor => Vec::new(),
        }
    }

    /// Leading rows the blocks [`ArchiveReader::block_deps`] names must
    /// bring for `rows` of a block of `entry`. Prediction is causal in
    /// raster order and the CFNN runs a 3-D block one axis-0 slice at a
    /// time, each slice reading its own and the previous slice of the
    /// anchors, so a block's first rows need the same first rows of what it
    /// decodes against — except a 2-D target, whose block is one CNN plane:
    /// its same-padding and attention pool see every row, so its anchors
    /// come whole and only its own walk stops short.
    fn dep_rows(entry: &ArchiveEntry, rows: usize) -> usize {
        let planar = entry.role == FieldRole::Target && entry.shape.is_some_and(|s| s.ndim() == 2);
        if planar {
            ALL_ROWS
        } else {
            rows
        }
    }

    /// The one dependency walk: produce the leading `rows` rows of block
    /// `idx` of entry `fi` ([`ALL_ROWS`]: the block) out of `backend`, first
    /// producing — depth-first, dependencies before dependents, each at
    /// most once, each as far as [`ArchiveReader::dep_rows`] says — every
    /// block it decodes against that the backend does not already have.
    ///
    /// Iterative on purpose. A delta chain is as deep as the writer's
    /// keyframe interval made it, and a recursive walk turns a long (valid)
    /// chain into a stack overflow, which aborts the process past any
    /// `catch_unwind`. Pending blocks live in `stack`; a block's resolved
    /// dependencies live in `ready` only until the block itself is
    /// finished, so a chain of any length holds a bounded number of slabs.
    pub(crate) fn resolve_block<K: BlockBackend>(
        &self,
        fi: usize,
        idx: usize,
        rows: usize,
        backend: &mut K,
    ) -> Result<K::Block, CfcError> {
        struct Pending<T> {
            fi: usize,
            ticket: T,
            deps: Vec<usize>,
            rows: usize,
        }
        let mut stack: Vec<Pending<K::Ticket>> = Vec::new();
        let mut ready: Vec<(usize, K::Block)> = Vec::new();
        let mut want = fi;
        let failed = 'walk: loop {
            match backend.begin((want, idx)) {
                Ok(Lookup::Ready(block)) if stack.is_empty() => return Ok(block),
                Ok(Lookup::Ready(block)) => ready.push((want, block)),
                Ok(Lookup::Miss(ticket)) => stack.push(Pending {
                    fi: want,
                    ticket,
                    deps: self.block_deps(want),
                    // asked for by the block on top of the stack, if any
                    rows: stack
                        .last()
                        .map_or(rows, |top| Self::dep_rows(&self.entries[top.fi], top.rows)),
                }),
                Err(e) => break e,
            }
            // finish every pending block whose dependencies are all ready,
            // then ask for the first one still missing
            want = loop {
                let top = stack.last().expect("a miss is pending until finished");
                let unresolved = |d: &&usize| !ready.iter().any(|(r, _)| r == *d);
                if let Some(&dep) = top.deps.iter().find(unresolved) {
                    break dep;
                }
                let Pending {
                    fi: cur,
                    ticket,
                    deps,
                    rows,
                } = stack.pop().expect("checked above");
                let slabs: Vec<&Field> = deps
                    .iter()
                    .filter_map(|d| ready.iter().find(|(r, _)| r == d))
                    .map(|(_, block)| block.borrow())
                    .collect();
                let block = match backend.finish((cur, idx), ticket, &slabs, rows) {
                    Ok(block) => block,
                    Err(e) => break 'walk e,
                };
                if stack.is_empty() {
                    return Ok(block);
                }
                ready.retain(|(r, _)| !deps.contains(r));
                ready.push((cur, block));
            };
        };
        // every block still pending depended on the one that failed
        while let Some(p) = stack.pop() {
            backend.abandon(p.ticket, &failed);
        }
        Err(failed)
    }

    /// Block `idx` of `field` at `epoch`, through `scratch`.
    pub(crate) fn block_at(
        &self,
        field: &str,
        idx: usize,
        epoch: usize,
        scratch: &mut ArchiveScratch,
    ) -> Result<Field, CfcError> {
        let fi = self.entry_index_at(field, epoch)?;
        let entry = &self.entries[fi];
        self.block_meta(entry, idx)
            .map_err(|e| e.in_field(field, Some(idx)))?;
        let metas = self.own_meta(fi)?;
        self.resolve_block(fi, idx, ALL_ROWS, &mut Direct::new(self, scratch, &metas))
    }

    /// Decode a single block of `field` (block `idx` along axis 0),
    /// touching only that block's bytes — plus, for a cross-field target,
    /// the same block of each anchor and the field's meta area.
    ///
    /// One request on the reader's own scratch: a 3-D target block's CFNN
    /// slices run over up to all of the host's cores (capped at the
    /// block's slices), with the same bits as one worker. A v1 field is one
    /// block holding the whole field.
    pub fn decode_block(&self, field: &str, idx: usize) -> Result<Field, CfcError> {
        self.with_scratch(|s| self.block_at(field, idx, 0, s))
    }

    /// [`ArchiveReader::decode_block`] at an explicit epoch, fanned out the
    /// same way. A temporal delta decodes its chain back to the covering
    /// keyframe — at most `keyframe_interval` blocks of this field
    /// position.
    pub fn decode_block_at(
        &self,
        field: &str,
        idx: usize,
        epoch: usize,
    ) -> Result<Field, CfcError> {
        self.with_scratch(|s| self.block_at(field, idx, epoch, s))
    }

    /// [`ArchiveReader::decode_block`] through a caller-owned
    /// [`ArchiveScratch`], so a loop over blocks reuses one set of decode
    /// buffers instead of allocating per block. The caller's scratch runs
    /// a target block's CFNN on the calling thread alone: a caller that
    /// loops over blocks is usually one worker among several already.
    pub fn decode_block_with(
        &self,
        field: &str,
        idx: usize,
        scratch: &mut ArchiveScratch,
    ) -> Result<Field, CfcError> {
        self.block_at(field, idx, 0, scratch)
    }

    /// The general read: `req.region` of `req.field` at `req.epoch` (the
    /// whole field when the region is `None`), decoding only the blocks
    /// whose axis-0 slabs intersect it and, in the last of them, only the
    /// rows up to the window's end — plus what those blocks decode
    /// against, as far as they need it: the matching anchor blocks of a
    /// cross-field target, the delta chain back to the covering keyframe.
    /// Each block's bytes are still read, checksummed and entropy-decoded
    /// whole, and the part the predictor does not walk is still checked,
    /// so a window fails where the whole block would (see the module
    /// docs). The entry's meta area is parsed once for the call, and one
    /// scratch serves every block: the reader's own, kept between calls.
    /// It runs a 3-D target block's CFNN slices over up to all of the
    /// host's cores, capped at the slices the block needs (a 2-D target or
    /// a one-slice window runs on the calling thread alone), with the bits
    /// one worker computes.
    /// [`ArchiveReader::decode_region`], [`ArchiveReader::decode_region_at`]
    /// and deep scrub read through here.
    ///
    /// Under [`DecodePolicy::Strict`] the first damaged block fails the
    /// call and the returned [`DamageMap`] is always empty. Under
    /// [`DecodePolicy::Salvage`] damaged blocks are filled with the
    /// policy's fill value and reported in the map instead (damage in an
    /// anchor or chain predecessor cascades to its dependents, correctly
    /// attributed — see the [`super::damage`] module docs); epochs past
    /// the first are reported under the qualified name `{field}@e{epoch}`.
    /// Errors outside block payloads — unknown field or epoch, invalid
    /// region — still fail the call, as does any damage on a v1 archive,
    /// whose single-block fields record no shape to fill.
    pub fn read(&self, req: &ReadRequest<'_>) -> Result<Salvaged<Field>, CfcError> {
        let fi = self.entry_index_at(req.field, req.epoch)?;
        let entry = &self.entries[fi];
        let cover = entry.block_cover(req.region.as_ref())?;
        // a meta area is itself payload that can rot: every block of the
        // entry then fails the same way, which Salvage turns into one
        // damage record per requested block
        let metas = self.own_meta(fi);
        // rows of the cover's last block the region reaches
        let last_rows = match (&req.region, entry.block_rows(cover.1)) {
            (Some(region), Some((r0, _))) => region.end(0) - r0,
            _ => ALL_ROWS,
        };
        let (slabs, damage) = self.with_scratch(|scratch| {
            salvage_blocks(
                entry,
                cover,
                req.policy,
                |bi| {
                    let metas = metas.as_ref().map_err(CfcError::clone)?;
                    let rows = if bi == cover.1 { last_rows } else { ALL_ROWS };
                    self.resolve_block(fi, bi, rows, &mut Direct::new(self, scratch, metas))
                },
                |fill| fill,
            )
        })?;
        let refs: Vec<&Field> = slabs.iter().collect();
        let data = entry.cut(req.region.as_ref(), cover.0, &refs)?;
        Ok(Salvaged { data, damage })
    }

    /// Strictly decode an axis-aligned [`Region`] of `field`
    /// ([`ArchiveReader::read`] with the defaults).
    pub fn decode_region(&self, field: &str, region: &Region) -> Result<Field, CfcError> {
        self.decode_region_at(field, region, 0)
    }

    /// [`ArchiveReader::decode_region`] at an explicit epoch.
    pub fn decode_region_at(
        &self,
        field: &str,
        region: &Region,
        epoch: usize,
    ) -> Result<Field, CfcError> {
        let req = ReadRequest::new(field).at(epoch).region(region);
        self.read(&req).map(|s| s.data)
    }

    /// Decode every field of the first epoch: [`ArchiveReader::decode_epoch`]
    /// of epoch 0, which is all of a single-snapshot archive.
    pub fn decode_all(&self) -> Result<Dataset, CfcError> {
        self.decode_epoch(0)
    }

    /// [`ArchiveReader::decode_all`] with an explicit worker-thread cap.
    pub fn decode_all_with_threads(&self, threads: usize) -> Result<Dataset, CfcError> {
        self.epoch_with_threads(0, threads)
    }

    /// Decode every field of one epoch into a [`Dataset`], every block in
    /// parallel. The task list is `(field, block)` over the epoch's entries
    /// in archive order, in two fan-outs through the one walk: first every
    /// entry that is not a cross-field target — baselines, anchors, and
    /// temporal deltas, each of which resolves its own chain back to the
    /// covering keyframe — then the targets, which find their anchors among
    /// the fields the first fan-out decoded. The blocks of a field decode
    /// straight into its one buffer (see the module docs). The first error
    /// in that order is the one returned.
    ///
    /// Called right after a successful call for `epoch − 1`, the deltas
    /// decode their own blocks only: that call kept the fields they decode
    /// against. Each call keeps its own fields, for the next one, only when
    /// it succeeds and `epoch + 1` has a temporal-delta entry, and drops
    /// whatever the call before kept — so the reader holds at most one
    /// epoch's decoded fields between calls, and none after the last epoch
    /// of a keyframe group, after an error, or on a one-epoch archive. The
    /// result is the same in any call order.
    pub fn decode_epoch(&self, epoch: usize) -> Result<Dataset, CfcError> {
        self.epoch_with_threads(epoch, host_threads())
    }

    /// The one epoch decode, behind [`ArchiveReader::decode_epoch`] and
    /// [`ArchiveReader::decode_all_with_threads`].
    pub(crate) fn epoch_with_threads(
        &self,
        epoch: usize,
        threads: usize,
    ) -> Result<Dataset, CfcError> {
        let prev = self.slot().clone().filter(|kept| kept.0 + 1 == epoch);
        let decoded = self.epoch_from(epoch, threads, prev.as_deref());
        *self.slot() = decoded.as_ref().ok().and_then(|(_, kept)| kept.clone());
        decoded.map(|(ds, _)| ds)
    }

    /// `f` on the reader's spare scratch, or on a fresh wide one while
    /// another call holds it; either is handed back for the next call, so
    /// the reader keeps at most one. Wide: a target block's CFNN slices
    /// run on up to all of the host's cores.
    fn with_scratch<T>(&self, f: impl FnOnce(&mut ArchiveScratch) -> T) -> T {
        let spare = || self.spare.lock().unwrap_or_else(PoisonError::into_inner);
        let kept = spare().take();
        let mut scratch = kept.unwrap_or_else(|| ArchiveScratch::wide(host_threads()));
        let out = f(&mut scratch);
        *spare() = Some(scratch);
        out
    }

    /// The last-epoch slot, locked. Every update of it is one assignment,
    /// so even a poisoned lock guards a whole value.
    fn slot(&self) -> MutexGuard<'_, Option<Arc<EpochFields>>> {
        self.last_epoch
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// [`ArchiveReader::epoch_with_threads`] given the fields of
    /// `epoch − 1` that the call before kept, if any: the dataset, and the
    /// fields of `epoch` that `epoch + 1`'s deltas decode against (`None`
    /// when it has none).
    fn epoch_from(
        &self,
        epoch: usize,
        threads: usize,
        prev: Option<&EpochFields>,
    ) -> Result<(Dataset, Option<Arc<EpochFields>>), CfcError> {
        let first = self.epoch_base(epoch)?;
        let entries = first..first + self.n_fields;
        // whole fields by flat entry index
        let mut decoded: HashMap<usize, Field> = HashMap::new();
        let mut metas = Vec::new();
        for targets in [false, true] {
            // what the walk finds in hand: the previous epoch for the
            // first phase's deltas, this epoch's first phase for the targets
            let lent = if targets {
                Some(&decoded)
            } else {
                prev.map(|(_, fields)| fields)
            };
            let fields: Vec<usize> = entries
                .clone()
                .filter(|&fi| (self.entries[fi].role == FieldRole::Target) == targets)
                .collect();
            for &fi in &fields {
                metas.extend(self.own_meta(fi)?);
            }
            // a field of several blocks gets one buffer, allocated here on
            // the calling thread as the manifest shapes it, and each block a
            // slab of it to write — but only as large as the blocks' bytes
            // could decode to: a field claiming more gets an empty one, and
            // its blocks fail as they would with room. A field of one block
            // (every v1 field among them) has no copy to save: it is its
            // block, decoded into a field of its own as a read decodes it
            let mut buffers: Vec<Option<Vec<f32>>> = fields
                .iter()
                .map(|&fi| {
                    let entry = &self.entries[fi];
                    let stored: usize = entry.blocks.iter().map(|b| b.len).sum();
                    let held = stored.saturating_mul(MAX_SAMPLES_PER_BYTE);
                    let blocks = entry.shape.filter(|_| entry.blocks.len() > 1);
                    blocks.map(|shape| match shape.len() {
                        n if n <= held => vec![0.0; n],
                        _ => Vec::new(),
                    })
                })
                .collect();
            let mut tasks: Vec<(BlockKey, Option<&mut [f32]>)> = Vec::new();
            for (&fi, buffer) in fields.iter().zip(&mut buffers) {
                let entry = &self.entries[fi];
                let slab = entry.slab_shape(0).map_or(1, |s| s.len());
                let mut slabs = buffer.as_deref_mut().map(|b| b.chunks_mut(slab));
                for bi in 0..entry.blocks.len() {
                    let out = slabs.as_mut().map(|s| s.next().unwrap_or_default());
                    tasks.push(((fi, bi), out));
                }
            }
            let results =
                run_parallel_scratch(tasks, threads, ArchiveScratch::new, |s, (key, out)| {
                    let mut backend = Direct::new(self, s, &metas);
                    backend.decoded = lent;
                    match out {
                        Some(out) => backend.decode_into(key, out).map(|()| None),
                        None => self
                            .resolve_block(key.0, key.1, ALL_ROWS, &mut backend)
                            .map(Some),
                    }
                });
            // in task order, so the first error is the first failing block's
            let mut results = results.into_iter();
            for (fi, buffer) in fields.into_iter().zip(buffers) {
                let entry = &self.entries[fi];
                let mut block = None;
                for res in results.by_ref().take(entry.blocks.len()) {
                    block = res?;
                }
                let whole = match (entry.shape, buffer) {
                    (Some(shape), Some(buffer)) => Field::from_vec(shape, buffer),
                    _ => block.expect("a field without a buffer is one block"),
                };
                decoded.insert(fi, whole);
            }
        }

        // in archive order, validating the common shape before the
        // (panicking) `Dataset::push` can see a mismatch
        let shape = decoded[&entries.start].shape();
        let mut ds = Dataset::new(self.name.clone(), shape);
        let mut kept = HashMap::new();
        for fi in entries {
            let field = decoded.remove(&fi).expect("every entry decoded");
            let name = &self.entries[fi].name;
            if field.shape() != shape {
                return Err(CfcError::ShapeMismatch {
                    expected: shape.to_string(),
                    found: format!("{} in field {name}", field.shape()),
                });
            }
            let next = self.entries.get(fi + self.n_fields);
            if next.is_some_and(|e| e.role == FieldRole::Delta) {
                kept.insert(fi, field.clone());
            }
            ds.push(name.clone(), field);
        }
        let kept = (!kept.is_empty()).then(|| Arc::new((epoch, kept)));
        Ok((ds, kept))
    }
}

/// The reader's own [`BlockBackend`]: every block is read from the source
/// into a caller's [`ArchiveScratch`] and decoded on the spot; nothing is
/// kept beyond the walk.
struct Direct<'a, R> {
    reader: &'a ArchiveReader<R>,
    scratch: &'a mut ArchiveScratch,
    /// Metas parsed ahead of the walk, by entry index — the requested
    /// entry's, so a multi-block read parses it once. Any other entry the
    /// walk reaches (a chain link, the keyframe under it) is parsed when
    /// its block is.
    metas: &'a [(usize, TargetMeta)],
    /// Whole fields an epoch decode already has, by entry index — the
    /// previous epoch's for its first phase (when the call before kept
    /// them), its first phase's for its targets; their slabs are served
    /// without touching the source.
    decoded: Option<&'a HashMap<usize, Field>>,
}

impl<'a, R> Direct<'a, R> {
    fn new(
        reader: &'a ArchiveReader<R>,
        scratch: &'a mut ArchiveScratch,
        metas: &'a [(usize, TargetMeta)],
    ) -> Self {
        Direct {
            reader,
            scratch,
            metas,
            decoded: None,
        }
    }
}

impl<R: ArchiveSource> BlockBackend for Direct<'_, R> {
    type Block = Field;
    type Ticket = ();

    fn begin(&mut self, (fi, idx): BlockKey) -> Result<Lookup<Field, ()>, CfcError> {
        let Some(whole) = self.decoded.and_then(|d| d.get(&fi)) else {
            return Ok(Lookup::Miss(()));
        };
        Ok(Lookup::Ready(
            match self.reader.entries[fi].block_rows(idx) {
                Some((r0, r1)) => whole.slab(r0, r1),
                None => whole.clone(),
            },
        ))
    }

    fn finish(
        &mut self,
        key: BlockKey,
        (): (),
        deps: &[&Field],
        rows: usize,
    ) -> Result<Field, CfcError> {
        self.decode(key, deps, rows, Own)
    }
}

impl<R: ArchiveSource> Direct<'_, R> {
    /// Read block `(fi, idx)` into the scratch, CRC-checked, and decode its
    /// leading `rows` rows against `deps` to `out`.
    fn decode<D: Dest>(
        &mut self,
        (fi, idx): BlockKey,
        deps: &[&Field],
        rows: usize,
        out: D,
    ) -> Result<D::Out, CfcError> {
        let reader = self.reader;
        let entry = &reader.entries[fi];
        let parsed;
        let meta = match self.metas.iter().find(|(i, _)| *i == fi) {
            Some((_, meta)) => Some(meta),
            None => {
                parsed = reader.target_meta(entry)?;
                parsed.as_ref()
            }
        };
        reader
            .read_block_into(entry, idx, self.scratch)
            .map_err(|e| e.in_field(&entry.qualified_name(), Some(idx)))?;
        // lend the fetched bytes to the decoder alongside the rest of the
        // scratch, then hand the buffer back for the next block
        let bytes = std::mem::take(&mut self.scratch.block);
        let decoded =
            reader.decode_block_bytes(entry, idx, &bytes, deps, meta, rows, self.scratch, out);
        self.scratch.block = bytes;
        decoded
    }

    /// Block `(fi, idx)` whole, straight into `out` — its slab of the
    /// field's buffer in an epoch decode. What it decodes against comes out
    /// of the walk first, as it would for [`ArchiveReader::resolve_block`]
    /// of the block itself.
    fn decode_into(&mut self, (fi, idx): BlockKey, out: &mut [f32]) -> Result<(), CfcError> {
        let reader = self.reader;
        let deps = reader
            .block_deps(fi)
            .into_iter()
            .map(|d| reader.resolve_block(d, idx, ALL_ROWS, self))
            .collect::<Result<Vec<_>, _>>()?;
        let deps: Vec<&Field> = deps.iter().collect();
        self.decode((fi, idx), &deps, ALL_ROWS, out)?;
        Ok(())
    }
}

/// Verify bytes against the CRC32 the manifest records for them, where it
/// records one (v1 blocks and v1/v2 meta areas predate their checksums).
fn verify_crc(context: &'static str, expected: Option<u32>, bytes: &[u8]) -> Result<(), CfcError> {
    let Some(expected) = expected else {
        return Ok(());
    };
    let found = crc32(bytes);
    if found != expected {
        return Err(CfcError::ChecksumMismatch {
            context,
            expected,
            found,
        });
    }
    Ok(())
}

#[cfg(test)]
impl<R: ArchiveSource> ArchiveReader<R> {
    /// The epoch whose fields the last-epoch slot holds, if any.
    pub(crate) fn kept_epoch(&self) -> Option<usize> {
        self.slot().as_ref().map(|kept| kept.0)
    }

    /// [`ArchiveScratch::growths`] of the kept one-request scratch, if any.
    pub(crate) fn spare_growths(&self) -> Option<usize> {
        let spare = self.spare.lock().unwrap_or_else(PoisonError::into_inner);
        spare.as_ref().map(ArchiveScratch::growths)
    }
}
