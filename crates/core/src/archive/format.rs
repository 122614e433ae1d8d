//! CFAR wire format: constants, field roles, chunk geometry, and manifest
//! parsing for every container version.
//!
//! Everything in this module is pure structure — no compression, no
//! threading. [`super::writer`] serializes these structs, [`super::reader`]
//! and [`super::store`] consume them. The per-field manifest row is
//! [`ArchiveEntry`]; the incremental, bounds-checked parse over a
//! positional [`ArchiveSource`] is the crate-private `TocReader` plus
//! `parse_entry`.
//!
//! This is the one place that knows the container versions differ: a v1
//! row (one monolithic stream, no shape, no index, no CRC) is normalised
//! here into an entry with exactly one block, so the read path above sees
//! one manifest model — a list of entries, each a list of blocks.

use bytes::BufMut;
use cfc_sz::stream::MAX_ELEMENTS;
use cfc_sz::CfcError;
use cfc_tensor::{Field, Region, Shape};

use super::source::ArchiveSource;

/// Archive magic bytes.
pub const ARCHIVE_MAGIC: &[u8; 4] = b"CFAR";
/// Current archive container version (temporal: multi-epoch with delta
/// snapshots and CRC-protected field meta).
pub const ARCHIVE_VERSION: u16 = 3;
/// Container version emitted for single-snapshot archives. Single
/// snapshots keep the v2 layout so existing archives stay byte-identical;
/// only multi-epoch writes ([`super::ArchiveWriter::write_epochs_to`])
/// emit v3.
pub const ARCHIVE_VERSION_SNAPSHOT: u16 = 2;
/// Oldest container version this build still decodes.
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
pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
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

    /// Decoded (raw `f32`) byte size of block `idx` — what a cache entry
    /// for this block costs. `None` for v1 entries, whose manifests do not
    /// record the shape.
    pub fn block_decoded_bytes(&self, idx: usize) -> Option<usize> {
        if idx >= self.blocks.len() {
            return None;
        }
        Some(self.slab_shape(idx)?.len() * 4)
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

/// Incremental table-of-contents reader over a positional source: tracks
/// the absolute position, bounds every read against the source length, and
/// maps short reads to [`CfcError::Truncated`].
pub(crate) struct TocReader<'a, S: ArchiveSource> {
    pub(crate) src: &'a S,
    pub(crate) pos: u64,
    pub(crate) len: u64,
}

impl<S: ArchiveSource> TocReader<'_, S> {
    pub(crate) fn remaining(&self) -> u64 {
        self.len - self.pos
    }

    pub(crate) fn bytes(&mut self, n: usize, context: &'static str) -> Result<Vec<u8>, CfcError> {
        if (n as u64) > self.remaining() {
            return Err(CfcError::Truncated {
                context,
                needed: n,
                available: self.remaining() as usize,
            });
        }
        let mut buf = vec![0u8; n];
        self.src
            .read_exact_at(self.pos, &mut buf)
            .map_err(|e| CfcError::io(context, &e))?;
        self.pos += n as u64;
        Ok(buf)
    }

    pub(crate) fn skip(&mut self, n: u64, context: &'static str) -> Result<(), CfcError> {
        if n > self.remaining() {
            return Err(CfcError::Truncated {
                context,
                needed: n as usize,
                available: self.remaining() as usize,
            });
        }
        // positional source: skipping is pure arithmetic, no seek to issue
        self.pos += n;
        Ok(())
    }

    pub(crate) fn u8(&mut self, context: &'static str) -> Result<u8, CfcError> {
        Ok(self.bytes(1, context)?[0])
    }

    pub(crate) fn u16(&mut self, context: &'static str) -> Result<u16, CfcError> {
        Ok(u16::from_le_bytes(
            self.bytes(2, context)?.try_into().unwrap(),
        ))
    }

    pub(crate) fn u32(&mut self, context: &'static str) -> Result<u32, CfcError> {
        Ok(u32::from_le_bytes(
            self.bytes(4, context)?.try_into().unwrap(),
        ))
    }

    pub(crate) fn u64(&mut self, context: &'static str) -> Result<u64, CfcError> {
        Ok(u64::from_le_bytes(
            self.bytes(8, context)?.try_into().unwrap(),
        ))
    }

    pub(crate) fn f64(&mut self, context: &'static str) -> Result<f64, CfcError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// A `u64` length prefix for an in-source payload: must fit `usize`
    /// and the bytes remaining in the source.
    pub(crate) fn len_u64(&mut self, context: &'static str) -> Result<usize, CfcError> {
        let v = self.u64(context)?;
        let n = usize::try_from(v).map_err(|_| {
            CfcError::InvalidHeader(format!("{context}: length {v} does not fit in memory"))
        })?;
        if (n as u64) > self.remaining() {
            return Err(CfcError::Truncated {
                context,
                needed: n,
                available: self.remaining() as usize,
            });
        }
        Ok(n)
    }

    pub(crate) fn str(&mut self, context: &'static str) -> Result<String, CfcError> {
        let len = self.u16(context)? as usize;
        let bytes = self.bytes(len, context)?;
        String::from_utf8(bytes).map_err(|_| CfcError::Corrupt {
            context: "archive string",
            detail: format!("{context} is not valid UTF-8"),
        })
    }
}

/// Parse one manifest row of a `version` container and skip over its
/// payload, validating every length and offset against the source size.
///
/// * v1: one monolithic per-field stream — no shape, no index, no CRC. It
///   becomes an entry with exactly one block spanning the stream.
/// * v2: shape, chunk geometry, meta area, block index.
/// * v3: the v2 layout with a CRC32 over the meta area inserted between
///   the payload length and the block index.
pub(crate) fn parse_entry<S: ArchiveSource>(
    toc: &mut TocReader<'_, S>,
    version: u16,
    epoch: usize,
) -> Result<ArchiveEntry, CfcError> {
    let name = toc.str("field name")?;
    let role = FieldRole::from_u8(toc.u8("field role")?).ok_or(CfcError::Corrupt {
        context: "archive entry",
        detail: "unknown role byte".into(),
    })?;
    let n_anchors = toc.u16("anchor count")? as usize;
    let mut anchors = Vec::with_capacity(n_anchors.min(64));
    for _ in 0..n_anchors {
        anchors.push(toc.str("anchor name")?);
    }
    let eb_abs = toc.f64("field error bound")?;
    if !(eb_abs.is_finite() && eb_abs > 0.0) {
        return Err(CfcError::Corrupt {
            context: "archive entry",
            detail: format!("error bound {eb_abs}"),
        });
    }
    if version == 1 {
        let stream_len = toc.len_u64("field stream length")?;
        let payload_base = toc.pos;
        toc.skip(stream_len as u64, "field stream")?;
        return Ok(ArchiveEntry {
            name,
            role,
            anchors,
            eb_abs,
            epoch,
            meta_crc: None,
            shape: None,
            chunk_slabs: 0,
            payload_base,
            payload_len: stream_len,
            meta_len: 0,
            blocks: vec![BlockMeta {
                rel_offset: 0,
                len: stream_len,
                crc: None,
            }],
        });
    }
    let ndim = toc.u8("field ndim")? as usize;
    if !(1..=3).contains(&ndim) {
        return Err(CfcError::Corrupt {
            context: "archive entry",
            detail: format!("ndim {ndim} outside 1..=3"),
        });
    }
    let mut dims = Vec::with_capacity(ndim);
    let mut n_elems = 1usize;
    for axis in 0..ndim {
        let d = toc.u64("field dims")?;
        let d = usize::try_from(d)
            .ok()
            .filter(|&d| d > 0)
            .ok_or_else(|| CfcError::Corrupt {
                context: "archive entry",
                detail: format!("axis {axis} extent {d}"),
            })?;
        n_elems = n_elems
            .checked_mul(d)
            .filter(|&n| n <= MAX_ELEMENTS)
            .ok_or_else(|| CfcError::Corrupt {
                context: "archive entry",
                detail: format!("element count exceeds {MAX_ELEMENTS}"),
            })?;
        dims.push(d);
    }
    let shape = Shape::from_slice(&dims);
    let chunk_slabs = toc.u32("chunk slabs")? as usize;
    if chunk_slabs == 0 {
        return Err(CfcError::Corrupt {
            context: "archive entry",
            detail: "zero chunk slabs".into(),
        });
    }
    let n_blocks = toc.u32("block count")? as usize;
    if n_blocks != n_blocks_for(dims[0], chunk_slabs) {
        return Err(CfcError::Corrupt {
            context: "archive entry",
            detail: format!(
                "{n_blocks} blocks for extent {} at {chunk_slabs} slabs/block",
                dims[0]
            ),
        });
    }
    let meta_len = toc.len_u64("field meta length")?;
    let payload_len = toc.len_u64("field payload length")?;
    if meta_len > payload_len {
        return Err(CfcError::Corrupt {
            context: "archive entry",
            detail: format!("meta {meta_len} exceeds payload {payload_len}"),
        });
    }
    let meta_crc = if version >= 3 {
        Some(toc.u32("field meta crc")?)
    } else {
        None
    };
    // the index itself: 20 bytes per block
    if (n_blocks as u64).saturating_mul(20) > toc.remaining() {
        return Err(CfcError::Truncated {
            context: "archive block index",
            needed: n_blocks * 20,
            available: toc.remaining() as usize,
        });
    }
    let mut blocks = Vec::with_capacity(n_blocks);
    for bi in 0..n_blocks {
        let rel_offset = toc.u64("block offset")?;
        let len = toc.u64("block length")?;
        let crc = toc.u32("block crc")?;
        let len = usize::try_from(len).map_err(|_| CfcError::Corrupt {
            context: "archive block index",
            detail: format!("block {bi} length {len} does not fit in memory"),
        })?;
        let end = rel_offset.checked_add(len as u64);
        if rel_offset < meta_len as u64 || end.is_none() || end.unwrap() > payload_len as u64 {
            return Err(CfcError::Corrupt {
                context: "archive block index",
                detail: format!(
                    "block {bi} spans [{rel_offset}, {rel_offset}+{len}) \
                     outside payload of {payload_len} bytes"
                ),
            });
        }
        blocks.push(BlockMeta {
            rel_offset,
            len,
            crc: Some(crc),
        });
    }
    let payload_base = toc.pos;
    // the payload (and with it every block the index points at) must
    // physically exist — this is where an index pointing past EOF dies
    toc.skip(payload_len as u64, "field payload")?;
    Ok(ArchiveEntry {
        name,
        role,
        anchors,
        eb_abs,
        epoch,
        meta_crc,
        shape: Some(shape),
        chunk_slabs,
        payload_base,
        payload_len,
        meta_len,
        blocks,
    })
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
    fn block_decoded_bytes_matches_slab_size() {
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
        assert_eq!(entry.block_decoded_bytes(0), Some(4 * 6 * 4));
        // last block is partial: rows 8..10
        assert_eq!(entry.block_decoded_bytes(2), Some(2 * 6 * 4));
        assert_eq!(entry.block_decoded_bytes(3), None);
    }
}
