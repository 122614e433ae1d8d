//! CFAR wire format: the one description of the container's layout, the
//! one codec that reads and writes its manifest, and the one list of rules
//! a manifest is held to.
//!
//! Everything in this module is pure structure — no compression, no
//! threading. All integers are little-endian; `str` is a `u16` length and
//! that many UTF-8 bytes; `[x]v3` is present from container version 3 on.
//!
//! ```text
//! archive := header epoch{n_epochs}
//! header  := "CFAR" version:u16 name:str
//!            [n_epochs:u32 keyframe_interval:u32]v3 n_fields:u32
//! epoch   := [kind:u8]v3 field{n_fields}     kind 0 = keyframe, 1 = delta
//! field   := row payload
//! row     := name:str role:u8 n_anchors:u16 anchor:str{n_anchors} eb_abs:f64
//!            v1:  stream_len:u64
//!            v2+: ndim:u8 dim:u64{ndim} chunk_slabs:u32 n_blocks:u32
//!                 meta_len:u64 payload_len:u64 [meta_crc:u32]v3
//!                 (offset:u64 len:u64 crc:u32){n_blocks}
//! payload := v1:  one CFSZ stream of stream_len bytes, model embedded
//!            v2+: meta, then the blocks back to back from offset meta_len,
//!                 each a self-delimiting CFSZ container
//! meta    := model_len:u64 model hybrid_len:u64 hybrid
//! ```
//!
//! The writer emits v3 only, a snapshot as one epoch; v1 and v2 archives
//! are one epoch with no kind byte, and their meta areas carry no CRC.
//! Block offsets count from the start of the payload; `crc` is the CRC32 of
//! the block's bytes, `meta_crc` of the meta area. Only cross-field targets
//! (`model` = the serialized CFNN, `hybrid` = the fitted mixing weights)
//! and temporal deltas (`model_len` 0: the anchor is the previous epoch)
//! have a meta area; for every other role `meta_len` is 0.
//!
//! ## One reader, one writer, one rule list
//!
//! `read_manifest` walks header, kind bytes and rows over any positional
//! [`ArchiveSource`]. Its `read_header` / `read_row` know the layout and
//! nothing else: they read exactly enough to find the next row and keep
//! every value as the bytes have it (`RawHeader`, `RawRow`: the role a
//! byte, extents `u64`, index rows unjudged); a payload or block index the
//! source ends inside is recorded — fewer bytes present than declared —
//! not failed on. `write_header` / `write_row` are their inverses for v2
//! and v3: the writer emits v3, and repair re-emits a v2 archive it is
//! handed as v2 (nothing writes v1).
//!
//! What a manifest must satisfy beyond being laid out readably is the rule
//! list: `check_header`, `check_row` as each row is read, `check_rows`
//! once all are. Each broken rule goes to the caller's sink with the
//! damage class a scrub report files it under, the field and block it is
//! in, and the [`CfcError`] that [`super::ArchiveReader::open`] returns for
//! it. `open`'s sink stops at the first; the scrubber's collects them all,
//! so an archive whose light scrub is clean opens by construction. The
//! rules, in order:
//!
//! * header: v3 has epochs and a keyframe interval, both non-zero; there
//!   are fields; the source has room for every row promised; each v3
//!   epoch's kind byte is the one its position implies;
//! * row: a known role byte; a finite positive error bound; v2+ 1–3
//!   non-zero extents (an `ndim` outside 1..=3 cannot even be laid out, so
//!   the reader refuses it) whose product stays under [`MAX_ELEMENTS`],
//!   non-zero chunk slabs, the block count extent and chunking imply, the
//!   meta area inside the payload, every index row inside the payload and
//!   behind the meta area; every declared length — stream, meta, payload,
//!   block index — within what the source has left;
//! * across rows, per epoch: unique names; delta roles exactly in delta
//!   epochs; a target lists anchors, a delta none; anchors resolve inside
//!   the epoch to non-targets; every epoch lists epoch 0's fields in epoch
//!   0's order; all rows agree on shape and chunking.
//!
//! Within a row, the order decides what `open` returns for a row that
//! both breaks a rule and is torn (the source ends inside it); partial
//! rows are not judged any further than this. `check_row` looks at the
//! role byte, bound, extents, chunk slabs and block count first: one of
//! them broken is that rule's `Corrupt` error, torn or not. Then the meta
//! and payload lengths against everything the source has left behind
//! them: one longer is `Truncated`, ahead of the meta-inside-payload and
//! index-row rules. Last, the payload against what is left behind the
//! block index: a payload torn only there reports a broken index row
//! first, and `Truncated` only when the index is sound. The scrubber
//! files every one of them, the tear once.
//!
//! A row that passes converts to an [`ArchiveEntry`]. That conversion is
//! the one place that knows the container versions differ: a v1 row (one
//! monolithic stream, no shape, no index, no CRC) becomes an entry with
//! exactly one block, so the read path above sees one manifest model — a
//! list of entries, each a list of blocks.

use bytes::BufMut;
use cfc_sz::stream::MAX_ELEMENTS;
use cfc_sz::CfcError;
use cfc_tensor::{Field, Region, Shape};

use super::scrub::ScrubKind;
use super::source::ArchiveSource;

/// Archive magic bytes.
pub const ARCHIVE_MAGIC: &[u8; 4] = b"CFAR";
/// The container version every archive is written in: a sequence of
/// epochs (a snapshot is one), keyframes and temporal deltas, with a CRC32
/// over every meta area.
pub const ARCHIVE_VERSION: u16 = 3;
/// Oldest container version this build still decodes (v1 and v2 are read,
/// never written).
pub const MIN_SUPPORTED_VERSION: u16 = 1;
/// Default keyframe interval for multi-epoch archives: every fourth epoch
/// is a full keyframe, the rest are deltas against the previous epoch.
pub const DEFAULT_KEYFRAME_INTERVAL: usize = 4;
/// Default chunk size: elements per block (rounded up to whole slabs along
/// axis 0). 2^20 samples ≈ 4 MiB of raw `f32` per block.
pub const DEFAULT_CHUNK_ELEMENTS: usize = 1 << 20;

/// How a field participates in the archive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FieldRole {
    /// Compressed independently; referenced by no one.
    Independent = 0,
    /// Compressed independently; conditions one or more targets.
    Anchor = 1,
    /// Compressed with the cross-field pipeline against its anchors.
    Target = 2,
    /// Compressed against the decoded same-name field of the previous
    /// epoch (v3 temporal archives; never appears in epoch 0 or any
    /// keyframe epoch).
    Delta = 3,
}

impl FieldRole {
    pub(crate) fn from_u8(v: u8) -> Option<FieldRole> {
        match v {
            0 => Some(FieldRole::Independent),
            1 => Some(FieldRole::Anchor),
            2 => Some(FieldRole::Target),
            3 => Some(FieldRole::Delta),
            _ => None,
        }
    }

    /// Short label for manifests.
    pub fn label(self) -> &'static str {
        match self {
            FieldRole::Independent => "independent",
            FieldRole::Anchor => "anchor",
            FieldRole::Target => "cross-field",
            FieldRole::Delta => "temporal-delta",
        }
    }
}

/// Slabs of axis 0 per block for a shape at a target element count.
pub(crate) fn chunk_slabs_for(shape: Shape, chunk_elements: usize) -> usize {
    let slab_len: usize = shape.dims()[1..].iter().product::<usize>().max(1);
    chunk_elements.div_ceil(slab_len).max(1)
}

/// Axis-0 slab range of block `idx` (chunk geometry is shared by every
/// field of an archive).
pub(crate) fn block_range(dim0: usize, chunk_slabs: usize, idx: usize) -> (usize, usize) {
    let r0 = idx * chunk_slabs;
    (r0, (r0 + chunk_slabs).min(dim0))
}

/// Number of blocks a field of axis-0 extent `dim0` splits into.
pub(crate) fn n_blocks_for(dim0: usize, chunk_slabs: usize) -> usize {
    dim0.div_ceil(chunk_slabs)
}

/// Shape of a slab of `rows` axis-0 rows cut from `shape`.
pub(crate) fn slab_shape_of(shape: Shape, rows: usize) -> Shape {
    let dims: Vec<usize> = std::iter::once(rows)
        .chain(shape.dims()[1..].iter().copied())
        .collect();
    Shape::from_slice(&dims)
}

/// Epoch-qualified field name used in damage reports, scrub findings and
/// errors: the plain name for epoch 0, `name@eN` otherwise.
pub(crate) fn qualified_field_name(name: &str, epoch: usize) -> String {
    if epoch == 0 {
        name.to_string()
    } else {
        format!("{name}@e{epoch}")
    }
}

/// Serialize a u16-length-prefixed string (field and archive names).
fn put_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize, "name too long");
    out.put_u16_le(s.len() as u16);
    out.put_slice(s.as_bytes());
}

/// One block's index row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockMeta {
    /// Offset of the block inside the field's payload area.
    pub(crate) rel_offset: u64,
    /// Encoded length in bytes.
    pub(crate) len: usize,
    /// CRC32 of the encoded bytes (`None` for the single block of a v1
    /// entry, whose container predates block checksums).
    pub(crate) crc: Option<u32>,
}

/// One parsed archive entry (manifest row; payloads stay on the source
/// until decoded).
#[derive(Debug, Clone)]
pub struct ArchiveEntry {
    /// Field name.
    pub name: String,
    /// Role recorded at write time.
    pub role: FieldRole,
    /// Anchor field names (empty unless `role == Target`).
    pub anchors: Vec<String>,
    /// Absolute error bound the reconstruction satisfies.
    pub eb_abs: f64,
    /// Epoch this entry belongs to (always 0 for v1/v2 archives).
    pub epoch: usize,
    /// CRC32 over the meta area (v3; `None` for v1/v2, which predate the
    /// column).
    pub(crate) meta_crc: Option<u32>,
    /// Field shape (`None` for v1 archives, whose manifests predate the
    /// shape column — the shape is learned by decoding).
    pub(crate) shape: Option<Shape>,
    /// Axis-0 slabs per block (v2; 0 for v1).
    pub(crate) chunk_slabs: usize,
    /// Absolute offset of the payload area in the source.
    pub(crate) payload_base: u64,
    /// Total payload bytes (meta + blocks for v2; the whole stream for v1).
    pub(crate) payload_len: usize,
    /// Meta-area length (embedded model + hybrid weights; v2 targets only).
    pub(crate) meta_len: usize,
    /// Block index, never empty: a v1 entry is one block spanning its
    /// whole stream.
    pub(crate) blocks: Vec<BlockMeta>,
}

impl ArchiveEntry {
    /// Compressed size of this field's payload (meta + all blocks).
    pub fn stream_len(&self) -> usize {
        self.payload_len
    }

    /// Epoch-qualified display name: the plain field name for epoch 0
    /// (so v1/v2 diagnostics are unchanged), `name@eN` for later epochs.
    pub fn qualified_name(&self) -> String {
        qualified_field_name(&self.name, self.epoch)
    }

    /// Number of independently decodable blocks (1 for v1 archives).
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Field shape, when the manifest records it (v2).
    pub fn shape(&self) -> Option<Shape> {
        self.shape
    }

    /// Meta-area bytes preceding the blocks (embedded model and/or hybrid
    /// weights; nonzero only for target and temporal-delta entries).
    pub fn meta_len(&self) -> usize {
        self.meta_len
    }

    /// Compressed size of one block.
    pub fn block_len(&self, idx: usize) -> Option<usize> {
        self.blocks.get(idx).map(|b| b.len)
    }

    /// Absolute `(offset, length)` of one block's bytes in the archive
    /// source — for integrity scrubbers and corruption tests.
    pub fn block_span(&self, idx: usize) -> Option<(u64, usize)> {
        self.blocks
            .get(idx)
            .map(|b| (self.payload_base + b.rel_offset, b.len))
    }

    /// Axis-0 slabs per block (0 for v1 archives) — block `i` covers rows
    /// `[i·slabs, (i+1)·slabs)` of axis 0, the last block possibly fewer.
    pub fn chunk_slabs(&self) -> usize {
        self.chunk_slabs
    }

    /// Axis-0 row range `[r0, r1)` block `idx` covers — `None` when the
    /// manifest records no geometry (v1: the one block is the whole field).
    pub(crate) fn block_rows(&self, idx: usize) -> Option<(usize, usize)> {
        let shape = self.shape?;
        Some(block_range(shape.dims()[0], self.chunk_slabs, idx))
    }

    /// Shape of block `idx`'s decoded slab, under the same condition as
    /// [`ArchiveEntry::block_rows`].
    pub(crate) fn slab_shape(&self, idx: usize) -> Option<Shape> {
        let (r0, r1) = self.block_rows(idx)?;
        Some(slab_shape_of(self.shape?, r1 - r0))
    }

    /// Whether the payload opens with a meta area (embedded model and/or
    /// hybrid weights) that block decodes parse first. A v1 target has
    /// none: its monolithic stream embeds its own model.
    pub(crate) fn has_meta(&self) -> bool {
        self.meta_len > 0 && matches!(self.role, FieldRole::Target | FieldRole::Delta)
    }

    /// Blocks `first..=last` a read of `region` (the whole field when
    /// `None`) has to decode, validating the region against the recorded
    /// shape. Without a recorded shape every block is needed and the
    /// region can only be checked against the decoded field
    /// ([`ArchiveEntry::cut`] does).
    pub(crate) fn block_cover(&self, region: Option<&Region>) -> Result<(usize, usize), CfcError> {
        match (region, self.shape) {
            (Some(region), Some(shape)) => {
                region
                    .validate(shape)
                    .map_err(|m| CfcError::InvalidInput(m).in_field(&self.name, None))?;
                Ok(region.block_cover(self.chunk_slabs))
            }
            _ => Ok((0, self.blocks.len().saturating_sub(1))),
        }
    }

    /// Stitch the decoded blocks `b_first..` of this entry and cut
    /// `region` (the whole field when `None`) out of them.
    pub(crate) fn cut(
        &self,
        region: Option<&Region>,
        b_first: usize,
        blocks: &[&Field],
    ) -> Result<Field, CfcError> {
        let Some(region) = region else {
            return Ok(Field::concat_axis0_refs(blocks));
        };
        // re-anchor the region to the stitched slab range
        let local = region.rebase_axis0(b_first * self.chunk_slabs);
        let stitched;
        let covered = match blocks {
            [one] => *one,
            _ => {
                stitched = Field::concat_axis0_refs(blocks);
                &stitched
            }
        };
        if self.shape.is_none() {
            local
                .validate(covered.shape())
                .map_err(|m| CfcError::InvalidInput(m).in_field(&self.name, None))?;
        }
        Ok(covered.crop(&local))
    }

    /// A slab of `fill` values shaped like block `idx` — what a salvage
    /// decode substitutes for a damaged block. `None` when the manifest
    /// records no shape to fill (v1).
    pub(crate) fn fill_slab(&self, idx: usize, fill: f32) -> Option<Field> {
        let slab = self.slab_shape(idx)?;
        Some(Field::from_vec(slab, vec![fill; slab.len()]))
    }

    /// Verify a decoded block's shape against the manifest's chunk
    /// geometry (a block stream that lies about its slab is corrupt).
    /// Entries without recorded geometry have nothing to contradict.
    pub(crate) fn check_slab_shape(&self, idx: usize, found: Shape) -> Result<(), CfcError> {
        match self.slab_shape(idx) {
            Some(expected) if found != expected => Err(CfcError::ShapeMismatch {
                expected: format!("block {idx} of {}: {expected}", self.qualified_name()),
                found: found.to_string(),
            }),
            _ => Ok(()),
        }
    }
}

/// Read-only metadata view of one archive field — everything a serving
/// front-end (manifest endpoints, capacity planners) needs to describe a
/// field without poking at reader internals or payload bytes.
///
/// Produced by [`ArchiveEntry::info`] and the `field_infos` accessors on
/// `ArchiveReader` / `ArchiveStore`.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldInfo {
    /// Field name.
    pub name: String,
    /// Role recorded at write time.
    pub role: FieldRole,
    /// Anchor field names (empty unless the field is a cross-field target).
    pub anchors: Vec<String>,
    /// Absolute error bound the reconstruction satisfies.
    pub eb_abs: f64,
    /// Field extents, outermost axis first (empty for v1 archives, whose
    /// manifests predate the shape column).
    pub dims: Vec<usize>,
    /// Independently decodable blocks (1 for v1 archives).
    pub n_blocks: usize,
    /// Axis-0 rows per block (0 for v1 archives).
    pub chunk_slabs: usize,
    /// Compressed payload bytes (meta area + all blocks).
    pub compressed_bytes: usize,
}

impl FieldInfo {
    /// Total element count (0 when the shape is unknown, i.e. v1).
    pub fn elements(&self) -> usize {
        if self.dims.is_empty() {
            0
        } else {
            self.dims.iter().product()
        }
    }

    /// Decoded (raw `f32`) byte size, `4 × elements`.
    pub fn decoded_bytes(&self) -> usize {
        self.elements() * 4
    }
}

impl ArchiveEntry {
    /// The read-only metadata view of this entry.
    pub fn info(&self) -> FieldInfo {
        FieldInfo {
            name: self.name.clone(),
            role: self.role,
            anchors: self.anchors.clone(),
            eb_abs: self.eb_abs,
            dims: self.shape.map(|s| s.dims().to_vec()).unwrap_or_default(),
            n_blocks: self.n_blocks(),
            chunk_slabs: self.chunk_slabs,
            compressed_bytes: self.payload_len,
        }
    }
}

/// Incremental reader over a positional source: tracks the absolute
/// position, bounds every read against the source length, and maps short
/// reads to [`CfcError::Truncated`].
struct TocReader<'a, S: ArchiveSource> {
    src: &'a S,
    pos: u64,
    len: u64,
}

impl<S: ArchiveSource> TocReader<'_, S> {
    fn remaining(&self) -> u64 {
        self.len - self.pos
    }

    /// Fill `buf` from the current position and step past it.
    fn fill(&mut self, buf: &mut [u8], context: &'static str) -> Result<(), CfcError> {
        if (buf.len() as u64) > self.remaining() {
            return Err(CfcError::Truncated {
                context,
                needed: buf.len(),
                available: self.remaining() as usize,
            });
        }
        self.src
            .read_exact_at(self.pos, buf)
            .map_err(|e| CfcError::io(context, &e))?;
        self.pos += buf.len() as u64;
        Ok(())
    }

    fn array<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N], CfcError> {
        let mut buf = [0u8; N];
        self.fill(&mut buf, context).map(|()| buf)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, CfcError> {
        Ok(self.array::<1>(context)?[0])
    }

    fn u16(&mut self, context: &'static str) -> Result<u16, CfcError> {
        Ok(u16::from_le_bytes(self.array(context)?))
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, CfcError> {
        Ok(u32::from_le_bytes(self.array(context)?))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, CfcError> {
        Ok(u64::from_le_bytes(self.array(context)?))
    }

    fn f64(&mut self, context: &'static str) -> Result<f64, CfcError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    fn str(&mut self, context: &'static str) -> Result<String, CfcError> {
        // a `u16` length: at most 64 KiB, whatever the bytes say
        let mut buf = vec![0u8; self.u16(context)? as usize];
        self.fill(&mut buf, context)?;
        String::from_utf8(buf).map_err(|_| CfcError::Corrupt {
            context: "archive string",
            detail: format!("{context} is not valid UTF-8"),
        })
    }
}

/// Bytes one block index row takes: offset, length, CRC32.
const INDEX_ROW_BYTES: u64 = 20;

/// The archive header as the bytes have it.
#[derive(Debug, Clone)]
pub(crate) struct RawHeader {
    pub(crate) version: u16,
    pub(crate) name: String,
    /// Epochs in the archive (1 before v3, which has no such column).
    pub(crate) n_epochs: u32,
    /// Epochs from one keyframe to the next (1 before v3).
    pub(crate) keyframe_interval: u32,
    /// Fields per epoch.
    pub(crate) n_fields: u32,
}

/// A length the manifest declares must fit `usize` and the bytes the
/// source had left behind the column that declares it (`room`).
fn check_len(declared: u64, room: u64, context: &'static str) -> Result<(), CfcError> {
    let n = usize::try_from(declared).map_err(|_| {
        CfcError::InvalidHeader(format!(
            "{context}: length {declared} does not fit in memory"
        ))
    })?;
    if declared > room {
        return Err(CfcError::Truncated {
            context,
            needed: n,
            available: room as usize,
        });
    }
    Ok(())
}

/// One block index row as the manifest records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RawBlock {
    /// Offset of the block inside the field's payload area.
    pub(crate) rel_offset: u64,
    pub(crate) len: u64,
    pub(crate) crc: u32,
}

/// One manifest row as the bytes have it: every value raw, for the rule
/// list to judge, and where the reader found the row's payload.
#[derive(Debug, Clone, Default)]
pub(crate) struct RawRow {
    /// Epoch the row belongs to (always 0 for v1/v2).
    pub(crate) epoch: usize,
    pub(crate) name: String,
    pub(crate) role: u8,
    pub(crate) anchors: Vec<String>,
    pub(crate) eb_abs: f64,
    /// Extents (v2+; a v1 row has none).
    pub(crate) dims: Vec<u64>,
    pub(crate) chunk_slabs: u32,
    /// Index rows the manifest declares; `blocks` holds fewer (none) when
    /// the source ends inside the index.
    pub(crate) n_blocks: u32,
    pub(crate) meta_len: u64,
    /// Meta area plus blocks (v1: the field's one stream).
    pub(crate) payload_len: u64,
    /// CRC32 over the meta area (v3).
    pub(crate) meta_crc: Option<u32>,
    pub(crate) blocks: Vec<RawBlock>,
    /// Absolute offset of the payload area. Filled by the reader, as is
    /// `payload_room`; the writer ignores both.
    pub(crate) payload_base: u64,
    /// Bytes the source holds from `payload_base` on.
    pub(crate) payload_room: u64,
}

impl RawRow {
    /// Epoch-qualified display name, as damage reports spell it.
    pub(crate) fn qualified_name(&self) -> String {
        qualified_field_name(&self.name, self.epoch)
    }

    /// Payload bytes physically present: fewer than declared when the
    /// source ends inside the payload.
    pub(crate) fn present(&self) -> u64 {
        self.payload_len.min(self.payload_room)
    }

    /// Whether the source ends inside this row's payload.
    pub(crate) fn is_torn(&self) -> bool {
        self.present() < self.payload_len
    }

    /// Bytes the source had left where the block index begins. An index
    /// that does not fit them was left unread: `blocks` is empty, and
    /// nothing behind it, the row's own payload included, can be located.
    fn index_room(&self) -> u64 {
        self.payload_room + self.blocks.len() as u64 * INDEX_ROW_BYTES
    }

    /// Bytes the source had left behind the payload-length column (v2+):
    /// a v3 row's meta CRC, then the index.
    fn lengths_room(&self) -> u64 {
        self.index_room() + if self.meta_crc.is_some() { 4 } else { 0 }
    }

    /// Index `blocks` (length and CRC32 each) back to back from the meta
    /// boundary, the way a payload is tiled: sets the index, the block
    /// count and the payload length.
    pub(crate) fn tile(&mut self, blocks: impl Iterator<Item = (u64, u32)>) {
        let mut rel_offset = self.meta_len;
        let mut next = |(len, crc)| {
            let block = RawBlock {
                rel_offset,
                len,
                crc,
            };
            rel_offset += len;
            block
        };
        self.blocks = blocks.map(&mut next).collect();
        self.n_blocks = self.blocks.len() as u32;
        self.payload_len = rel_offset;
    }

    /// The first block not wholly inside the present payload.
    fn first_torn_block(&self) -> Option<usize> {
        let present = self.present();
        self.blocks
            .iter()
            .position(|b| b.rel_offset.saturating_add(b.len) > present)
    }

    /// The typed entry of a row the rule list has passed. This is where a
    /// v1 row, which records no geometry, becomes one block spanning its
    /// stream.
    pub(crate) fn into_entry(self, version: u16) -> ArchiveEntry {
        let payload_len = self.payload_len as usize;
        let blocks = if version == 1 {
            vec![BlockMeta {
                rel_offset: 0,
                len: payload_len,
                crc: None,
            }]
        } else {
            let typed = |b: &RawBlock| BlockMeta {
                rel_offset: b.rel_offset,
                len: b.len as usize,
                crc: Some(b.crc),
            };
            self.blocks.iter().map(typed).collect()
        };
        let dims: Vec<usize> = self.dims.iter().map(|&d| d as usize).collect();
        ArchiveEntry {
            name: self.name,
            role: FieldRole::from_u8(self.role).expect("the rule list passed the role byte"),
            anchors: self.anchors,
            eb_abs: self.eb_abs,
            epoch: self.epoch,
            meta_crc: self.meta_crc,
            shape: (version > 1).then(|| Shape::from_slice(&dims)),
            chunk_slabs: self.chunk_slabs as usize,
            payload_base: self.payload_base,
            payload_len,
            meta_len: self.meta_len as usize,
            blocks,
        }
    }
}

/// Read the archive header. Refuses what leaves the layout unknown: other
/// magic, a container version this build has no layout for.
fn read_header<S: ArchiveSource>(toc: &mut TocReader<'_, S>) -> Result<RawHeader, CfcError> {
    let magic: [u8; 4] = toc.array("archive magic")?;
    if &magic != ARCHIVE_MAGIC {
        return Err(CfcError::BadMagic {
            expected: *ARCHIVE_MAGIC,
            found: magic.to_vec(),
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
        (toc.u32("epoch count")?, toc.u32("keyframe interval")?)
    } else {
        (1, 1)
    };
    Ok(RawHeader {
        version,
        name,
        n_epochs,
        keyframe_interval,
        n_fields: toc.u32("field count")?,
    })
}

/// Write an archive header: the inverse of `read_header` for v2 and v3.
pub(crate) fn write_header(out: &mut Vec<u8>, h: &RawHeader) {
    out.put_slice(ARCHIVE_MAGIC);
    out.put_u16_le(h.version);
    put_str(out, &h.name);
    if h.version >= 3 {
        out.put_u32_le(h.n_epochs);
        out.put_u32_le(h.keyframe_interval);
    }
    out.put_u32_le(h.n_fields);
}

/// Read one manifest row of a `version` container and step over as much
/// of its payload as the source holds. Fails only where the layout itself
/// gives out: the source ends inside the row's fixed part, a string is not
/// UTF-8, or the `ndim` byte cannot be one.
fn read_row<S: ArchiveSource>(
    toc: &mut TocReader<'_, S>,
    version: u16,
    epoch: usize,
) -> Result<RawRow, CfcError> {
    let mut row = RawRow {
        epoch,
        name: toc.str("field name")?,
        role: toc.u8("field role")?,
        ..RawRow::default()
    };
    let n_anchors = toc.u16("anchor count")? as usize;
    row.anchors.reserve(n_anchors.min(64));
    for _ in 0..n_anchors {
        row.anchors.push(toc.str("anchor name")?);
    }
    row.eb_abs = toc.f64("field error bound")?;
    if version == 1 {
        row.payload_len = toc.u64("field stream length")?;
    } else {
        let ndim = toc.u8("field ndim")?;
        if !(1..=3).contains(&ndim) {
            return Err(CfcError::Corrupt {
                context: "archive entry",
                detail: format!("ndim {ndim} outside 1..=3"),
            });
        }
        for _ in 0..ndim {
            row.dims.push(toc.u64("field dims")?);
        }
        row.chunk_slabs = toc.u32("chunk slabs")?;
        row.n_blocks = toc.u32("block count")?;
        row.meta_len = toc.u64("field meta length")?;
        row.payload_len = toc.u64("field payload length")?;
        if version >= 3 {
            row.meta_crc = Some(toc.u32("field meta crc")?);
        }
        // the one allocation sized by the manifest: an index the rest of
        // the source cannot hold is left unread, for the rule list to name
        if u64::from(row.n_blocks) * INDEX_ROW_BYTES <= toc.remaining() {
            row.blocks.reserve(row.n_blocks as usize);
            for _ in 0..row.n_blocks {
                row.blocks.push(RawBlock {
                    rel_offset: toc.u64("block offset")?,
                    len: toc.u64("block length")?,
                    crc: toc.u32("block crc")?,
                });
            }
        }
    }
    row.payload_base = toc.pos;
    row.payload_room = toc.remaining();
    toc.pos += row.present();
    Ok(row)
}

/// Write one manifest row, through its block index: the inverse of
/// `read_row` for v2 and v3 (a row carries a meta CRC exactly when it is a
/// v3 row). The payload — meta area, then the blocks — follows it.
pub(crate) fn write_row(out: &mut Vec<u8>, row: &RawRow) {
    put_str(out, &row.name);
    out.put_u8(row.role);
    out.put_u16_le(row.anchors.len() as u16);
    for a in &row.anchors {
        put_str(out, a);
    }
    out.put_f64_le(row.eb_abs);
    out.put_u8(row.dims.len() as u8);
    for &d in &row.dims {
        out.put_u64_le(d);
    }
    out.put_u32_le(row.chunk_slabs);
    out.put_u32_le(row.n_blocks);
    out.put_u64_le(row.meta_len);
    out.put_u64_le(row.payload_len);
    if let Some(crc) = row.meta_crc {
        out.put_u32_le(crc);
    }
    for b in &row.blocks {
        out.put_u64_le(b.rel_offset);
        out.put_u64_le(b.len);
        out.put_u32_le(b.crc);
    }
}

/// The kind byte that opens epoch `epoch` of a v3 archive: 0 for a
/// keyframe, 1 for a delta epoch.
pub(crate) fn epoch_kind(epoch: usize, keyframe_interval: usize) -> u8 {
    u8::from(!epoch.is_multiple_of(keyframe_interval))
}

/// Split a meta area into its embedded model (empty for a temporal delta)
/// and its hybrid weights.
pub(crate) fn read_meta_area(meta: &[u8]) -> Result<(&[u8], &[u8]), CfcError> {
    let mut r = cfc_sz::error::Reader::new(meta);
    let model_len = r.len_u64("embedded model length")?;
    let model = r.bytes(model_len, "embedded model")?;
    let hybrid_len = r.len_u64("hybrid weights length")?;
    Ok((model, r.bytes(hybrid_len, "hybrid weights")?))
}

/// Bytes of the meta area [`write_meta_area`] builds from a model and
/// hybrid weights of these lengths.
pub(crate) fn meta_area_len(model_len: usize, hybrid_len: usize) -> usize {
    16 + model_len + hybrid_len
}

/// Build a meta area: the inverse of `read_meta_area`.
pub(crate) fn write_meta_area(model: &[u8], hybrid: &[u8]) -> Vec<u8> {
    let mut meta = Vec::with_capacity(meta_area_len(model.len(), hybrid.len()));
    meta.put_u64_le(model.len() as u64);
    meta.put_slice(model);
    meta.put_u64_le(hybrid.len() as u64);
    meta.put_slice(hybrid);
    meta
}

/// Where the rule list reports a broken rule: the damage class a scrub
/// report files it under, the epoch-qualified field and the block it is in
/// (where it is in one), and the error [`super::ArchiveReader::open`]
/// returns for it. An `Err` back ends the read with that error.
pub(crate) type RuleSink<'a> =
    dyn FnMut(ScrubKind, Option<&str>, Option<usize>, CfcError) -> Result<(), CfcError> + 'a;

fn corrupt(context: &'static str, detail: String) -> CfcError {
    CfcError::Corrupt { context, detail }
}

/// Header rules. `room` is what the source holds behind the header.
fn check_header(h: &RawHeader, room: u64, sink: &mut RuleSink<'_>) -> Result<(), CfcError> {
    let mut bad = |e| sink(ScrubKind::Structure, None, None, e);
    if h.n_epochs == 0 || h.keyframe_interval == 0 {
        bad(corrupt(
            "archive",
            format!(
                "{} epochs at keyframe interval {}",
                h.n_epochs, h.keyframe_interval
            ),
        ))?;
    }
    if h.n_fields == 0 {
        bad(corrupt("archive", "zero fields".into()))?;
    }
    // every row needs ≥ 19 bytes of fixed columns
    match (h.n_fields as usize).checked_mul(h.n_epochs as usize) {
        None => bad(corrupt("archive", "entry count overflows".into()))?,
        Some(total) if (total as u64).saturating_mul(19) > room => bad(CfcError::Truncated {
            context: "archive field table",
            needed: total.saturating_mul(19),
            available: room as usize,
        })?,
        Some(_) => {}
    }
    Ok(())
}

/// Rules one row must satisfy on its own, in the order its columns are
/// laid out.
fn check_row(row: &RawRow, version: u16, sink: &mut RuleSink<'_>) -> Result<(), CfcError> {
    use ScrubKind::{IndexBounds, Structure, Truncation};
    // the field is named only once a rule is broken
    let report =
        |sink: &mut RuleSink<'_>, kind, block, e| sink(kind, Some(&row.qualified_name()), block, e);
    let entry = |detail| corrupt("archive entry", detail);
    if FieldRole::from_u8(row.role).is_none() {
        report(sink, Structure, None, entry("unknown role byte".into()))?;
    }
    if !(row.eb_abs.is_finite() && row.eb_abs > 0.0) {
        let e = entry(format!("error bound {}", row.eb_abs));
        report(sink, Structure, None, e)?;
    }
    // a row the source ends inside is torn once, however many of its
    // lengths say so
    let mut torn = false;
    let mut fits = |len, room, context, sink: &mut RuleSink<'_>| match check_len(len, room, context)
    {
        Err(e @ CfcError::Truncated { .. }) if !torn => {
            torn = true;
            report(sink, Truncation, row.first_torn_block(), e)
        }
        Err(CfcError::Truncated { .. }) | Ok(()) => Ok(()),
        Err(e) => report(sink, Structure, None, e),
    };
    let (meta_len, payload_len) = (row.meta_len, row.payload_len);
    if version == 1 {
        return fits(payload_len, row.payload_room, "field stream length", sink);
    }
    let mut n_elems = Some(1usize);
    for (axis, &d) in row.dims.iter().enumerate() {
        let extent = usize::try_from(d).ok().filter(|&d| d > 0);
        if extent.is_none() {
            let e = entry(format!("axis {axis} extent {d}"));
            report(sink, Structure, None, e)?;
        }
        // the running product stops at the first extent that broke it
        let Some((n, d)) = n_elems.zip(extent) else {
            n_elems = None;
            continue;
        };
        n_elems = n.checked_mul(d).filter(|&n| n <= MAX_ELEMENTS);
        if n_elems.is_none() {
            let e = entry(format!("element count exceeds {MAX_ELEMENTS}"));
            report(sink, Structure, None, e)?;
        }
    }
    if row.chunk_slabs == 0 {
        report(sink, Structure, None, entry("zero chunk slabs".into()))?;
    }
    // the block count follows from the first extent and the chunking;
    // where either is unusable, that is what was reported
    let dim0 = usize::try_from(row.dims[0]).unwrap_or(0);
    let chunk_slabs = row.chunk_slabs as usize;
    if dim0 > 0 && chunk_slabs > 0 && row.n_blocks as usize != n_blocks_for(dim0, chunk_slabs) {
        let e = entry(format!(
            "{} blocks for extent {dim0} at {chunk_slabs} slabs/block",
            row.n_blocks
        ));
        report(sink, Structure, None, e)?;
    }
    let room = row.lengths_room();
    fits(meta_len, room + 8, "field meta length", sink)?;
    fits(payload_len, room, "field payload length", sink)?;
    if meta_len > payload_len {
        let e = entry(format!("meta {meta_len} exceeds payload {payload_len}"));
        report(sink, Structure, None, e)?;
    }
    let index_len = u64::from(row.n_blocks) * INDEX_ROW_BYTES;
    if let Err(e) = check_len(index_len, row.index_room(), "archive block index") {
        // nothing behind an index the source ends inside can be located,
        // this row's own payload included: the manifest is unreadable
        // from here on, which is no one field's damage
        sink(Structure, None, None, e)?;
    }
    let index = |detail| corrupt("archive block index", detail);
    for (bi, b) in row.blocks.iter().enumerate() {
        let (rel_offset, len) = (b.rel_offset, b.len);
        if usize::try_from(len).is_err() {
            let e = index(format!("block {bi} length {len} does not fit in memory"));
            report(sink, IndexBounds, Some(bi), e)?;
        }
        let end = rel_offset.checked_add(len);
        if rel_offset < meta_len || end.is_none_or(|end| end > payload_len) {
            let e = index(format!(
                "block {bi} spans [{rel_offset}, {rel_offset}+{len}) \
                 outside payload of {payload_len} bytes"
            ));
            report(sink, IndexBounds, Some(bi), e)?;
        }
    }
    // the payload (and with it every block the index points at) must
    // physically exist — this is where an index pointing past EOF dies
    fits(payload_len, row.payload_room, "field payload", sink)
}

/// Rules across rows: referential integrity per epoch, then the agreement
/// between epochs and between fields that block-level decode rests on.
/// Total over a walk that ended early (the last epoch may be short).
fn check_rows(h: &RawHeader, rows: &[RawRow], sink: &mut RuleSink<'_>) -> Result<(), CfcError> {
    let archive = |detail| corrupt("archive", detail);
    let role_is = |r: &RawRow, role: FieldRole| r.role == role as u8;
    let Some(first) = rows.first() else {
        return Ok(());
    };
    let interval = h.keyframe_interval as usize;
    for (epoch, ep) in rows.chunks(h.n_fields as usize).enumerate() {
        let delta_epoch = epoch_kind(epoch, interval) != 0;
        for (i, e) in ep.iter().enumerate() {
            // named only once a rule is broken
            let field = || e.qualified_name();
            let mut bad = |kind, err| sink(kind, Some(&field()), None, err);
            if ep[..i].iter().any(|o| o.name == e.name) {
                let e = archive(format!("duplicate field {}", field()));
                bad(ScrubKind::AnchorGraph, e)?;
            }
            if role_is(e, FieldRole::Delta) != delta_epoch {
                let e = archive(format!(
                    "field {} role {} in a {} epoch",
                    field(),
                    FieldRole::from_u8(e.role).map_or("unknown", FieldRole::label),
                    if delta_epoch { "delta" } else { "keyframe" },
                ));
                bad(ScrubKind::Structure, e)?;
            }
            if role_is(e, FieldRole::Target) && e.anchors.is_empty() {
                let e = archive(format!("target {} without anchors", field()));
                bad(ScrubKind::AnchorGraph, e)?;
            }
            if role_is(e, FieldRole::Delta) && !e.anchors.is_empty() {
                let e = archive(format!(
                    "delta field {} lists anchors; its anchor is the previous epoch",
                    field()
                ));
                bad(ScrubKind::AnchorGraph, e)?;
            }
            for a in &e.anchors {
                let err = match ep.iter().find(|o| &o.name == a) {
                    None => archive(format!("field {} references unknown anchor {a}", e.name)),
                    Some(o) if role_is(o, FieldRole::Target) => {
                        archive(format!("anchor {a} of {} is itself a target", e.name))
                    }
                    Some(_) => continue,
                };
                bad(ScrubKind::AnchorGraph, err)?;
            }
        }
        // every epoch must list the same fields in the same order, or the
        // flat epoch × n_fields indexing (and with it the delta chain) is
        // unsound
        if ep.iter().zip(rows).any(|(e, e0)| e.name != e0.name) {
            let e = archive(format!("epoch {epoch} fields differ from epoch 0"));
            sink(ScrubKind::Structure, None, None, e)?;
        }
    }
    // every field (of every epoch) must agree on shape and chunking, or
    // block-level cross-field and temporal decode is unsound (v1 manifests
    // record neither, and agree on that)
    for e in &rows[1..] {
        if e.dims != first.dims || e.chunk_slabs != first.chunk_slabs {
            let field = e.qualified_name();
            let e = archive(format!(
                "field {field} disagrees with {} on shape or chunk geometry",
                first.name
            ));
            sink(ScrubKind::Structure, Some(&field), None, e)?;
        }
    }
    Ok(())
}

/// A manifest as far as its layout could be followed: with a sink that
/// stops at the first report, every row the header promises, all of them
/// within the rules; with one that collects, possibly fewer.
#[derive(Debug)]
pub(crate) struct RawManifest {
    pub(crate) header: RawHeader,
    /// Flat across epochs: row `epoch × n_fields + pos` is field `pos` of
    /// `epoch`.
    pub(crate) rows: Vec<RawRow>,
}

/// Read a whole manifest from the first `len` bytes of `src` — header, v3
/// kind bytes, rows — and hold it to the rule list, reporting into `sink`.
/// A row or kind byte the layout cannot produce is reported like a broken
/// rule and ends the walk. `Err` is the sink's, or a header that could not
/// be read at all.
pub(crate) fn read_manifest<S: ArchiveSource>(
    src: &S,
    len: u64,
    sink: &mut RuleSink<'_>,
) -> Result<RawManifest, CfcError> {
    let mut toc = TocReader { src, pos: 0, len };
    let header = read_header(&mut toc)?;
    check_header(&header, toc.remaining(), sink)?;
    let (version, interval) = (header.version, header.keyframe_interval as usize);
    // bounded by what the source could hold, whatever the header promises
    let expected = u64::from(header.n_fields) * u64::from(header.n_epochs);
    let mut rows = Vec::with_capacity(expected.min(toc.remaining() / 19) as usize);
    // without an interval no epoch can be told keyframe from delta
    let n_epochs = if interval == 0 { 0 } else { header.n_epochs };
    let unreadable = 'walk: {
        for epoch in 0..n_epochs as usize {
            if version >= 3 {
                let kind = match toc.u8("epoch kind") {
                    Ok(kind) => kind,
                    Err(e) => break 'walk Some(e),
                };
                if kind != epoch_kind(epoch, interval) {
                    let e = corrupt(
                        "archive",
                        format!(
                            "epoch {epoch} kind byte {kind} disagrees with \
                             keyframe interval {interval}"
                        ),
                    );
                    sink(ScrubKind::Structure, None, None, e)?;
                }
            }
            for _ in 0..header.n_fields {
                let row = match read_row(&mut toc, version, epoch) {
                    Ok(row) => row,
                    Err(e) => break 'walk Some(e),
                };
                check_row(&row, version, sink)?;
                if row.blocks.len() < row.n_blocks as usize {
                    break 'walk None; // reported by `check_row`
                }
                rows.push(row);
            }
        }
        None
    };
    // a kind byte or row the layout cannot produce ends the walk, and is
    // reported like a broken rule
    if let Some(e) = unreadable {
        sink(ScrubKind::Structure, None, None, e)?;
    }
    check_rows(&header, &rows, sink)?;
    Ok(RawManifest { header, rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_geometry_partitions_axis0() {
        // 2-D: 40 rows of 40 cols at 8*40 elements/block → 8 slabs/block
        let shape = Shape::d2(40, 40);
        let slabs = chunk_slabs_for(shape, 8 * 40);
        assert_eq!(slabs, 8);
        assert_eq!(n_blocks_for(40, slabs), 5);
        assert_eq!(block_range(40, slabs, 0), (0, 8));
        assert_eq!(block_range(40, slabs, 4), (32, 40));
        // partial last block
        assert_eq!(n_blocks_for(41, slabs), 6);
        assert_eq!(block_range(41, slabs, 5), (40, 41));
        // chunk larger than the field → one block
        assert_eq!(n_blocks_for(40, chunk_slabs_for(shape, 1 << 20)), 1);
    }

    #[test]
    fn slab_shape_preserves_trailing_dims() {
        assert_eq!(
            slab_shape_of(Shape::d3(10, 12, 14), 3),
            Shape::d3(3, 12, 14)
        );
        assert_eq!(slab_shape_of(Shape::d1(9), 2), Shape::d1(2));
    }

    #[test]
    fn slab_shape_of_an_entry_is_partial_at_the_end() {
        let entry = ArchiveEntry {
            name: "T".into(),
            role: FieldRole::Independent,
            anchors: Vec::new(),
            eb_abs: 1e-3,
            epoch: 0,
            meta_crc: None,
            shape: Some(Shape::d2(10, 6)),
            chunk_slabs: 4,
            payload_base: 0,
            payload_len: 0,
            meta_len: 0,
            blocks: vec![
                BlockMeta {
                    rel_offset: 0,
                    len: 1,
                    crc: None,
                },
                BlockMeta {
                    rel_offset: 1,
                    len: 1,
                    crc: None,
                },
                BlockMeta {
                    rel_offset: 2,
                    len: 1,
                    crc: None,
                },
            ],
        };
        assert_eq!(entry.slab_shape(0), Some(Shape::d2(4, 6)));
        // last block is partial: rows 8..10
        assert_eq!(entry.slab_shape(2), Some(Shape::d2(2, 6)));
    }
}
