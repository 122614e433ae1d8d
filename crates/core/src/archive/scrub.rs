//! Archive integrity scrubbing and repair.
//!
//! [`scrub_bytes`] walks a CFAR archive and verifies everything that can
//! be verified without (or, in deep mode, with) decoding:
//!
//! * **The manifest rules** — everything [`ArchiveReader::open`] holds a
//!   header and its rows to, from the one rule list in
//!   [`format`](mod@super::format): header counts, role bytes, error
//!   bounds, geometry, index rows inside their payload, lengths inside the
//!   source, the per-epoch anchor graph, agreement between epochs and
//!   between fields.
//! * **Block index tiling** — rows ascending, adjacent, starting at the
//!   meta boundary and ending exactly at the payload end (the writer emits
//!   contiguous blocks; anything else is index rot), and no anchor list on
//!   a field that is not a target.
//! * **Checksums** — every block's bytes re-hashed against the CRC32
//!   recorded in its index row, its `CFSZ` stream magic checked, and (v3)
//!   the meta area re-hashed against the manifest's meta CRC.
//! * **Deep mode** — every block of every field actually decoded (via a
//!   salvage-policy decode, so one rotten block doesn't mask the rest);
//!   damage that the cheap checks missed surfaces as
//!   [`ScrubKind::Decode`] findings.
//!
//! The result is a machine-readable [`ScrubReport`] ([`ScrubReport::to_json`]
//! for tooling, `Display`-style text via the `cfc-fsck` binary).
//!
//! [`repair_bytes`] attempts the recoveries that need no re-encoding,
//! because the blocks of a v2 or v3 archive are self-delimiting `CFSZ`
//! containers. One rule covers both versions (a v2 archive is one epoch):
//!
//! * **Index rebuild** — when a row's index disagrees with the block
//!   boundaries found by scanning its payload (each container records its
//!   own section lengths, so the scan is exact), the index is rebuilt from
//!   the scan: offsets, lengths, and CRCs recomputed from the bytes that
//!   are actually there, in any epoch. Checksum mismatches *without* a
//!   boundary disagreement are payload rot, not index rot, and are left
//!   alone — rebuilding would bless corrupt data.
//! * **Complete epochs** — an epoch is complete when every row is there,
//!   none is torn, every block is where its (rebuilt) index says and every
//!   anchor resolves. The longest prefix of complete epochs is kept under a
//!   header that counts that many: cutting blocks of a later epoch would
//!   orphan every delta epoch chained on it.
//! * **Epoch 0 cut to a block prefix** — when not even epoch 0 is complete
//!   (a snapshot torn mid-payload, say), it is kept alone: fields whose
//!   rows, meta areas or every block are gone are dropped, then any target
//!   orphaned by a dropped anchor, and every field left is cut back to the
//!   longest common prefix of intact blocks, its rows rewritten for the
//!   reduced axis-0 extent.
//!
//! Bytes repair rewrites are read back through the manifest rules with
//! `open`'s stop-at-first sink; a rewrite that breaks one is an error, not
//! an outcome.
//!
//! Both operate on in-memory bytes: a scrubber is an offline tool and
//! archives are file-sized. Neither parses or judges a manifest itself:
//! they read it through `format::read_manifest`, as `open` does. `open`'s
//! sink ends the read at the first broken rule; the scrubber's turns each
//! into a finding and lets the read go on wherever the byte layout still
//! allows. What is left here is what only a scrubber asks (tiling,
//! checksums, block magic, the deep decode) and the repairs, which emit
//! through `format`'s writers. Hence the invariant: an archive whose light
//! scrub is clean opens, and one whose deep scrub is clean decodes.

use cfc_sz::stream::Container;
use cfc_sz::{crc32, CfcError};

use super::damage::DecodePolicy;
use super::format::{
    epoch_kind, n_blocks_for, read_manifest, write_header, write_row, FieldRole, RawBlock,
    RawHeader, RawManifest, RawRow,
};
use super::reader::{ArchiveReader, ReadRequest};

/// Options for [`scrub_bytes`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ScrubOptions {
    /// Also decode every block of every field (slow, catches rot that
    /// passes CRC — e.g. damage written before checksumming).
    pub deep: bool,
}

/// What class of damage a [`ScrubFinding`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScrubKind {
    /// Header or manifest structure: bad magic, unsupported version,
    /// unparseable rows, invalid roles/bounds/shapes, fields missing
    /// entirely, shape disagreement between fields.
    Structure,
    /// Block index rows out of bounds, out of order, overlapping, or not
    /// tiling the payload area exactly.
    IndexBounds,
    /// A block's bytes hash to a different CRC32 than its index records.
    Checksum,
    /// A block's bytes do not start a valid `CFSZ` container.
    BlockMagic,
    /// The archive ends before bytes its manifest promises (torn upload).
    Truncation,
    /// Anchor-graph violations: duplicates, dangling anchors, targets
    /// anchored on targets, targets without anchors.
    AnchorGraph,
    /// Deep mode only: a block failed to actually decode.
    Decode,
}

impl ScrubKind {
    /// Stable lower-case label used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            ScrubKind::Structure => "structure",
            ScrubKind::IndexBounds => "index-bounds",
            ScrubKind::Checksum => "checksum",
            ScrubKind::BlockMagic => "block-magic",
            ScrubKind::Truncation => "truncation",
            ScrubKind::AnchorGraph => "anchor-graph",
            ScrubKind::Decode => "decode",
        }
    }
}

/// One verified-broken thing, located as precisely as the damage allows.
#[derive(Debug, Clone)]
pub struct ScrubFinding {
    /// Damage class.
    pub kind: ScrubKind,
    /// Field the damage is in, when attributable to one.
    pub field: Option<String>,
    /// Block index within the field, when block-scoped.
    pub block: Option<usize>,
    /// Human-readable specifics.
    pub detail: String,
}

/// Machine-readable result of one [`scrub_bytes`] pass.
#[derive(Debug, Clone)]
pub struct ScrubReport {
    /// Total bytes scrubbed.
    pub archive_len: u64,
    /// Container version (0 when the header itself was unreadable).
    pub version: u16,
    /// Fields whose manifest rows were parseable.
    pub fields_checked: usize,
    /// Blocks whose bytes were CRC-verified.
    pub blocks_checked: usize,
    /// Whether deep (full-decode) verification ran.
    pub deep: bool,
    /// Everything found wrong, in walk order. Empty ⇔ healthy.
    pub findings: Vec<ScrubFinding>,
}

impl ScrubReport {
    /// No findings — the archive passed every check that ran.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Serialize as a single JSON object (stable schema:
    /// `archive_len`, `version`, `fields_checked`, `blocks_checked`,
    /// `deep`, `clean`, `findings[{kind,field,block,detail}]`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.findings.len() * 96);
        out.push_str(&format!(
            "{{\"archive_len\":{},\"version\":{},\"fields_checked\":{},\
             \"blocks_checked\":{},\"deep\":{},\"clean\":{},\"findings\":[",
            self.archive_len,
            self.version,
            self.fields_checked,
            self.blocks_checked,
            self.deep,
            self.is_clean()
        ));
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"kind\":\"{}\",", f.kind.label()));
            match &f.field {
                Some(name) => out.push_str(&format!("\"field\":\"{}\",", json_escape(name))),
                None => out.push_str("\"field\":null,"),
            }
            match f.block {
                Some(b) => out.push_str(&format!("\"block\":{b},")),
                None => out.push_str("\"block\":null,"),
            }
            out.push_str(&format!("\"detail\":\"{}\"}}", json_escape(&f.detail)));
        }
        out.push_str("]}");
        out
    }
}

/// Escape a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The findings of one pass, in walk order.
#[derive(Default)]
struct Findings(Vec<ScrubFinding>);

impl Findings {
    fn add(&mut self, kind: ScrubKind, field: Option<&str>, block: Option<usize>, detail: String) {
        self.0.push(ScrubFinding {
            kind,
            field: field.map(str::to_string),
            block,
            detail,
        });
    }
}

/// Read the manifest through the one codec, as far as its layout can be
/// followed, with every broken rule a finding. `Err` when not even the
/// header could be read.
fn walk(bytes: &[u8], findings: &mut Findings) -> Result<RawManifest, String> {
    let mut collect = |kind, field: Option<&str>, block, e: CfcError| {
        findings.add(kind, field, block, e.to_string());
        Ok(())
    };
    read_manifest(&bytes, bytes.len() as u64, &mut collect)
        .map_err(|e| format!("archive header: {e}"))
}

/// The payload slice of `e` that physically exists in `bytes`.
fn payload<'a>(e: &RawRow, bytes: &'a [u8]) -> &'a [u8] {
    let base = e.payload_base as usize;
    &bytes[base..base + e.present() as usize]
}

/// Verify an archive's integrity without modifying anything. See the
/// [module docs](self) for the checks; the result is a [`ScrubReport`]
/// whose findings are empty exactly when the archive is healthy.
pub fn scrub_bytes(bytes: &[u8], opts: &ScrubOptions) -> ScrubReport {
    let mut findings = Findings::default();
    let manifest = walk(bytes, &mut findings)
        .map_err(|detail| findings.add(ScrubKind::Structure, None, None, detail));
    let rows = manifest.as_ref().map_or(&[][..], |m| &m.rows);
    let mut blocks_checked = 0usize;

    // what the manifest rules do not cover, and only a scrubber asks
    for e in rows {
        let name = e.qualified_name();
        check_tiling(e, &name, &mut findings);
        blocks_checked += check_blocks(e, &name, bytes, &mut findings);
        check_meta_crc(e, &name, bytes, &mut findings);
        let is = |role: FieldRole| e.role == role as u8;
        if !is(FieldRole::Target) && !is(FieldRole::Delta) && !e.anchors.is_empty() {
            let detail = format!("non-target carries {} anchor reference(s)", e.anchors.len());
            findings.add(ScrubKind::AnchorGraph, Some(&name), None, detail);
        }
    }

    if opts.deep {
        deep_check(bytes, rows, &mut findings);
    }

    ScrubReport {
        archive_len: bytes.len() as u64,
        version: manifest.as_ref().map_or(0, |m| m.header.version),
        fields_checked: rows.len(),
        blocks_checked,
        deep: opts.deep,
        findings: findings.0,
    }
}

/// The writer tiles the payload with blocks: row 0 starts at the meta
/// boundary, rows are adjacent and ascending, the last row ends exactly at
/// the payload end. The manifest rules only ask that every row lie inside
/// the payload; anything short of a tiling is index rot all the same.
fn check_tiling(e: &RawRow, name: &str, findings: &mut Findings) {
    let mut bad =
        |block, detail| findings.add(ScrubKind::IndexBounds, Some(name), Some(block), detail);
    let payload_len = e.payload_len;
    let mut expected = e.meta_len;
    for (bi, row) in e.blocks.iter().enumerate() {
        if row.rel_offset != expected {
            let at = row.rel_offset;
            bad(
                bi,
                format!("row offset {at} (expected {expected} for adjacency)"),
            );
        }
        // resynchronize on the row's own claim, so one garbled row yields
        // a bounded number of findings rather than flagging every
        // successor
        expected = row.rel_offset.saturating_add(row.len).min(payload_len);
    }
    if !e.blocks.is_empty() && expected != payload_len && !e.is_torn() {
        bad(
            e.blocks.len() - 1,
            format!("index covers {expected} of {payload_len} payload bytes"),
        );
    }
}

/// CRC + stream-magic verification of every block physically present.
/// Returns how many blocks were checked.
fn check_blocks(e: &RawRow, name: &str, bytes: &[u8], findings: &mut Findings) -> usize {
    let payload = payload(e, bytes);
    let mut checked = 0usize;
    for (bi, row) in e.blocks.iter().enumerate() {
        let end = row.rel_offset.saturating_add(row.len);
        if end > payload.len() as u64 {
            continue; // torn or out-of-bounds; reported elsewhere
        }
        let block = &payload[row.rel_offset as usize..end as usize];
        checked += 1;
        let found = crc32(block);
        if found != row.crc {
            let detail = format!("recorded {:#010x}, computed {found:#010x}", row.crc);
            findings.add(ScrubKind::Checksum, Some(name), Some(bi), detail);
        }
        if block.len() < 4 || &block[..4] != b"CFSZ" {
            let detail = "block does not start a CFSZ container".into();
            findings.add(ScrubKind::BlockMagic, Some(name), Some(bi), detail);
        }
    }
    checked
}

/// v3 manifests record a CRC32 over the meta area; re-hash whatever of it
/// is physically present (a short meta is torn, reported elsewhere).
fn check_meta_crc(e: &RawRow, name: &str, bytes: &[u8], findings: &mut Findings) {
    let Some(recorded) = e.meta_crc else {
        return;
    };
    if e.present() < e.meta_len {
        return;
    }
    let found = crc32(&payload(e, bytes)[..e.meta_len as usize]);
    if found != recorded {
        let detail = format!("meta area: recorded {recorded:#010x}, computed {found:#010x}");
        findings.add(ScrubKind::Checksum, Some(name), None, detail);
    }
}

/// Deep verification: strict-open the archive and salvage-decode every
/// field, converting the damage map into findings. Damage already located
/// by the cheap checks (same field + block) is not re-reported.
fn deep_check(bytes: &[u8], rows: &[RawRow], findings: &mut Findings) {
    // `open` holds the manifest to the rules the walk just collected
    // under: whatever stops it is a finding already
    let Ok(reader) = ArchiveReader::new(bytes) else {
        return;
    };
    for e in rows {
        let req = ReadRequest::new(&e.name)
            .at(e.epoch)
            .policy(DecodePolicy::salvage());
        match reader.read(&req) {
            Ok(s) => {
                for d in &s.damage {
                    let dup = findings.0.iter().any(|f| {
                        f.field.as_deref() == Some(d.field.as_str()) && f.block == Some(d.block)
                    });
                    if dup {
                        continue;
                    }
                    let detail = match &d.cascaded_from {
                        Some(a) => format!("cascaded from anchor {a}: {}", d.error),
                        None => d.error.to_string(),
                    };
                    findings.add(ScrubKind::Decode, Some(&d.field), Some(d.block), detail);
                }
            }
            Err(err) => {
                let name = e.qualified_name();
                findings.add(ScrubKind::Decode, Some(&name), None, err.to_string());
            }
        }
    }
}

/// What [`repair_bytes`] did, and the bytes it produced.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The repaired archive.
    pub bytes: Vec<u8>,
    /// One line per repair action taken, in order. Empty means the input
    /// needed no repair (the bytes are returned unchanged).
    pub actions: Vec<String>,
}

/// Scan a payload area for self-delimiting `CFSZ` block boundaries.
/// Returns the rows recovered before the first unparseable offset (fewer
/// than expected ⇔ the tail is torn or rotten).
fn scan_blocks(payload: &[u8], meta_len: u64) -> Vec<RawBlock> {
    let mut rows = Vec::new();
    let mut pos = meta_len as usize;
    while pos < payload.len() {
        let Ok(container) = Container::try_from_bytes(&payload[pos..]) else {
            break;
        };
        let len = container.serialized_len();
        if pos + len > payload.len() {
            break; // container promises more bytes than exist: torn
        }
        rows.push(RawBlock {
            rel_offset: pos as u64,
            len: len as u64,
            crc: crc32(&payload[pos..pos + len]),
        });
        pos += len;
    }
    rows
}

fn beyond_repair(detail: String) -> CfcError {
    CfcError::Corrupt {
        context: "archive repair",
        detail,
    }
}

/// The first of `rows` (one epoch's) that names an anchor not among them.
fn orphaned(rows: &[RawRow]) -> Option<usize> {
    rows.iter()
        .position(|r| r.anchors.iter().any(|a| !rows.iter().any(|o| &o.name == a)))
}

/// Row `e` with its index pointing at the blocks repair can keep: the
/// declared rows where a boundary scan of the payload agrees with them (a
/// CRC mismatch there is payload rot, not index rot — refuse to bless it),
/// the scan where only the index is wrong, the scan's intact prefix where
/// the payload is torn. `None`, with the reason logged, for a row with no
/// block to keep; `Err` where a payload that is all there scans to another
/// block count.
fn recover(
    e: &RawRow,
    bytes: &[u8],
    actions: &mut Vec<String>,
) -> Result<Option<RawRow>, CfcError> {
    let name = e.qualified_name();
    if e.present() < e.meta_len {
        actions.push(format!("drop field {name}: meta area torn off"));
        return Ok(None);
    }
    let declared = e.blocks.len();
    let scanned = scan_blocks(payload(e, bytes), e.meta_len);
    if scanned.is_empty() {
        actions.push(format!("drop field {name}: no intact blocks found"));
        return Ok(None);
    }
    let boundaries_match = scanned.len() == declared
        && scanned
            .iter()
            .zip(&e.blocks)
            .all(|(s, d)| s.rel_offset == d.rel_offset && s.len == d.len);
    let blocks = if boundaries_match {
        e.blocks.clone()
    } else if e.is_torn() {
        scanned
    } else if scanned.len() == declared {
        actions.push(format!(
            "rebuild index of field {name}: {declared} rows recovered by boundary scan"
        ));
        scanned
    } else {
        return Err(beyond_repair(format!(
            "field {name}: boundary scan found {} blocks where the manifest \
             declares {declared}; payload is not scan-recoverable",
            scanned.len()
        )));
    };
    Ok(Some(RawRow {
        blocks,
        ..e.clone()
    }))
}

/// Epoch 0's `rows` when not even epoch 0 is complete: the fields with no
/// block left dropped, then the targets such a drop orphans, then every
/// field cut back to the longest block prefix all of them still hold
/// (fields share their geometry, so a truncation in one truncates them
/// all).
fn cut_to_common_prefix(
    rows: &[RawRow],
    bytes: &[u8],
    actions: &mut Vec<String>,
) -> Result<Vec<RawRow>, CfcError> {
    let mut kept = Vec::with_capacity(rows.len());
    for e in rows {
        kept.extend(recover(e, bytes, actions)?);
    }
    if kept.is_empty() {
        return Err(beyond_repair("no field retains any intact block".into()));
    }
    while let Some(pos) = orphaned(&kept) {
        actions.push(format!(
            "drop field {}: anchor no longer present",
            kept[pos].name
        ));
        kept.remove(pos);
        if kept.is_empty() {
            return Err(beyond_repair("every field depended on dropped data".into()));
        }
    }
    let keep = kept.iter().map(|r| r.blocks.len()).min().unwrap_or(0);
    if kept
        .iter()
        .all(|r| r.blocks.len() == keep && r.n_blocks as usize == keep)
    {
        return Ok(kept);
    }
    actions.push(format!("truncate every field to its first {keep} block(s)"));
    let chunk_slabs = kept[0].chunk_slabs as usize;
    for r in &mut kept {
        r.blocks.truncate(keep);
        let dim0 = &mut r.dims[0];
        if keep < n_blocks_for(*dim0 as usize, chunk_slabs.max(1)) {
            *dim0 = (keep * chunk_slabs) as u64;
        }
    }
    Ok(kept)
}

/// Attempt to repair an archive without re-encoding anything, by one rule
/// for v2 and v3 (see the [module docs](self)): every row's index rebuilt
/// from scanned block boundaries where only the index is wrong; the
/// longest prefix of complete epochs kept; and when not even epoch 0 is
/// complete, epoch 0 alone, cut back to the block prefix all its fields
/// still hold. Returns the repaired bytes plus a log of actions; an
/// archive that needed nothing comes back byte-identical with an empty
/// action list. Rewritten bytes always open.
///
/// Errors when the archive is beyond repair: unreadable header, v1
/// container (no block structure to recover), no field with any intact
/// block, payload rot that scanning cannot resolve, or a rewrite that
/// still breaks a manifest rule (the error `open` would give for it).
pub fn repair_bytes(bytes: &[u8]) -> Result<RepairOutcome, CfcError> {
    let m = walk(bytes, &mut Findings::default()).map_err(beyond_repair)?;
    if m.header.version == 1 {
        return Err(CfcError::InvalidInput(
            "v1 archives hold one monolithic stream per field; there is no \
             block structure to rebuild"
                .into(),
        ));
    }
    let (n_epochs, n_fields) = (m.header.n_epochs as usize, m.header.n_fields as usize);
    let mut actions = Vec::new();

    // an epoch is complete when every row is there, none is torn, every
    // block is where its index (rebuilt or not) says, and every anchor
    // resolves
    let mut kept = Vec::with_capacity(m.rows.len());
    let mut epochs = 0;
    for ep in m.rows.chunks(n_fields.max(1)) {
        if ep.len() < n_fields || ep.iter().any(RawRow::is_torn) {
            break;
        }
        let mut log = Vec::new();
        let rows: Option<Vec<RawRow>> = ep
            .iter()
            .map(|e| recover(e, bytes, &mut log))
            .collect::<Result<_, _>>()?;
        let Some(rows) = rows.filter(|rows| orphaned(rows).is_none()) else {
            break;
        };
        actions.append(&mut log);
        kept.extend(rows);
        epochs += 1;
    }
    if epochs == 0 {
        let ep0 = &m.rows[..m.rows.len().min(n_fields)];
        kept = cut_to_common_prefix(ep0, bytes, &mut actions)?;
        epochs = 1;
    }
    if epochs < n_epochs {
        actions.push(format!(
            "truncate torn tail: keep the first {epochs} of {n_epochs} epoch(s)"
        ));
    }
    if actions.is_empty() {
        return Ok(RepairOutcome {
            bytes: bytes.to_vec(),
            actions,
        });
    }

    let per_epoch = kept.len() / epochs;
    let header = RawHeader {
        n_epochs: epochs as u32,
        n_fields: per_epoch as u32,
        ..m.header.clone()
    };
    let mut out = Vec::with_capacity(bytes.len());
    write_header(&mut out, &header);
    for (epoch, rows) in kept.chunks(per_epoch).enumerate() {
        if header.version >= 3 {
            out.push(epoch_kind(epoch, header.keyframe_interval as usize));
        }
        for row in rows {
            // the row with its kept blocks re-packed adjacent from the
            // meta boundary, then the meta area and those blocks
            let mut tiled = row.clone();
            tiled.tile(row.blocks.iter().map(|b| (b.len, b.crc)));
            write_row(&mut out, &tiled);
            let payload = payload(row, bytes);
            out.extend_from_slice(&payload[..row.meta_len as usize]);
            for b in &row.blocks {
                out.extend_from_slice(&payload[b.rel_offset as usize..][..b.len as usize]);
            }
        }
    }
    // a rewrite `open` would refuse is no repair
    read_manifest(&out.as_slice(), out.len() as u64, &mut |_, _, _, e| Err(e))?;
    Ok(RepairOutcome {
        bytes: out,
        actions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::tests::assert_has_target;
    use crate::archive::writer::ArchiveBuilder;
    use crate::config::TrainConfig;
    use cfc_tensor::{Dataset, Field, Shape};

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    /// 2-field archive (anchor A, cross-field target T), 24×16, 6 rows per
    /// block → 4 blocks per field.
    fn sample_archive() -> Vec<u8> {
        let shape = Shape::d2(24, 16);
        let a = Field::from_fn(shape, |i| {
            ((i[0] as f32) * 0.2).sin() * 10.0 + i[1] as f32 * 0.1
        });
        let t = a.map(|v| 0.8 * v + 2.0);
        let mut ds = Dataset::new("SCRUB", shape);
        ds.push("A", a);
        ds.push("T", t);
        let bytes = ArchiveBuilder::relative(1e-3)
            .train_config(TrainConfig::fast())
            .cross_field("T", &["A"])
            .always_cross_field()
            .chunk_elements(6 * 16)
            .build()
            .write(&ds)
            .expect("archive write");
        assert_has_target(&bytes);
        bytes
    }

    /// `n` evolving epochs of the [`sample_archive`] structure: same two
    /// fields, phase-drifted so consecutive epochs differ smoothly.
    fn sample_epochs(n: usize) -> Vec<Dataset> {
        let shape = Shape::d2(24, 16);
        (0..n)
            .map(|e| {
                let t = e as f32;
                let a = Field::from_fn(shape, |i| {
                    ((i[0] as f32) * 0.2 + 0.05 * t).sin() * 10.0 + i[1] as f32 * 0.1 + 0.3 * t
                });
                let tf = a.map(|v| 0.8 * v + 2.0);
                let mut ds = Dataset::new("SCRUB", shape);
                ds.push("A", a);
                ds.push("T", tf);
                ds
            })
            .collect()
    }

    /// 4-epoch v3 archive at keyframe interval 2 over [`sample_epochs`]:
    /// epochs 0 and 2 are keyframes, 1 and 3 temporal deltas. Same block
    /// geometry as [`sample_archive`] (4 blocks per field per epoch).
    fn sample_temporal_archive() -> Vec<u8> {
        let bytes = ArchiveBuilder::relative(1e-3)
            .train_config(TrainConfig::fast())
            .cross_field("T", &["A"])
            .always_cross_field()
            .chunk_elements(6 * 16)
            .keyframe_interval(2)
            .build()
            .write_epochs(&sample_epochs(4))
            .expect("temporal archive write");
        assert_has_target(&bytes);
        bytes
    }

    fn find(haystack: &[u8], needle: &[u8]) -> usize {
        haystack
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("needle present")
    }

    /// Absolute offset of field `fi`, block `bi`'s 20-byte index row.
    fn index_row_pos(bytes: &[u8], fi: usize, bi: usize) -> usize {
        let reader = ArchiveReader::new(bytes).expect("open");
        let b = reader.entries()[fi].blocks[bi];
        let mut needle = Vec::with_capacity(20);
        needle.extend_from_slice(&b.rel_offset.to_le_bytes());
        needle.extend_from_slice(&(b.len as u64).to_le_bytes());
        needle.extend_from_slice(&b.crc.expect("v2+ rows record a crc").to_le_bytes());
        find(bytes, &needle)
    }

    #[test]
    fn clean_archive_scrubs_clean_even_deep() {
        let bytes = sample_archive();
        let report = scrub_bytes(&bytes, &ScrubOptions { deep: true });
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.version, 3);
        assert_eq!(report.fields_checked, 2);
        assert_eq!(report.blocks_checked, 8);
        assert!(report.to_json().contains("\"clean\":true"));
    }

    #[test]
    fn payload_flip_is_located_exactly() {
        let mut bytes = sample_archive();
        let reader = ArchiveReader::new(&bytes).expect("open");
        let (off, len) = reader.entries()[1].block_span(2).expect("span");
        bytes[off as usize + len / 2] ^= 0x10;
        let report = scrub_bytes(&bytes, &ScrubOptions::default());
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        let f = &report.findings[0];
        assert_eq!(f.kind, ScrubKind::Checksum);
        assert_eq!(f.field.as_deref(), Some("T"));
        assert_eq!(f.block, Some(2));
        assert!(report.to_json().contains("\"kind\":\"checksum\""));
    }

    #[test]
    fn garbled_index_row_is_found_and_rebuilt() {
        let clean = sample_archive();
        let want = ArchiveReader::new(&clean)
            .expect("open")
            .decode_all()
            .expect("decode");

        let mut bytes = clean.clone();
        let pos = index_row_pos(&bytes, 1, 2);
        // garble the row's offset and length: the index now lies about
        // where block 2 lives
        bytes[pos] ^= 0x5a;
        bytes[pos + 8] ^= 0x2c;
        let report = scrub_bytes(&bytes, &ScrubOptions::default());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.kind == ScrubKind::IndexBounds && f.field.as_deref() == Some("T")),
            "{:?}",
            report.findings
        );

        let fixed = repair_bytes(&bytes).expect("repairable");
        assert!(
            fixed.actions.iter().any(|a| a.contains("rebuild index")),
            "{:?}",
            fixed.actions
        );
        let report = scrub_bytes(&fixed.bytes, &ScrubOptions { deep: true });
        assert!(report.is_clean(), "{:?}", report.findings);
        let got = ArchiveReader::new(&fixed.bytes)
            .expect("open repaired")
            .decode_all()
            .expect("decode repaired");
        for name in ["A", "T"] {
            assert_eq!(
                want.expect_field(name).as_slice(),
                got.expect_field(name).as_slice(),
                "field {name} must round-trip byte-identically through repair"
            );
        }
    }

    #[test]
    fn crc_only_index_rot_is_not_blessed() {
        // boundaries agree with the payload, only the recorded CRC is off:
        // could equally be payload rot, so repair must refuse to rewrite
        let mut bytes = sample_archive();
        let pos = index_row_pos(&bytes, 0, 1);
        bytes[pos + 16] ^= 0xff; // crc field of the row
        let report = scrub_bytes(&bytes, &ScrubOptions::default());
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == ScrubKind::Checksum));
        let out = repair_bytes(&bytes).expect("walkable");
        assert!(out.actions.is_empty(), "{:?}", out.actions);
        assert_eq!(out.bytes, bytes, "ambiguous rot must not be rewritten");
    }

    #[test]
    fn torn_tail_truncates_to_common_prefix() {
        let clean = sample_archive();
        let want = ArchiveReader::new(&clean)
            .expect("open")
            .decode_all()
            .expect("decode");
        let reader = ArchiveReader::new(&clean).expect("open");
        // tear the archive inside T's final block
        let (off, len) = reader.entries()[1].block_span(3).expect("span");
        let torn = &clean[..off as usize + len / 3];
        let report = scrub_bytes(torn, &ScrubOptions::default());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.kind == ScrubKind::Truncation),
            "{:?}",
            report.findings
        );

        let fixed = repair_bytes(torn).expect("repairable");
        assert!(
            fixed.actions.iter().any(|a| a.contains("truncate")),
            "{:?}",
            fixed.actions
        );
        let report = scrub_bytes(&fixed.bytes, &ScrubOptions { deep: true });
        assert!(report.is_clean(), "{:?}", report.findings);
        let got = ArchiveReader::new(&fixed.bytes)
            .expect("open repaired")
            .decode_all()
            .expect("decode repaired");
        // 3 intact blocks × 6 rows = 18 of the original 24 rows survive,
        // byte-identical to the same prefix of the undamaged decode
        assert_eq!(got.shape().dims(), &[18, 16]);
        for name in ["A", "T"] {
            let full = want.expect_field(name);
            let kept = got.expect_field(name);
            assert_eq!(kept.as_slice(), &full.as_slice()[..18 * 16]);
        }
    }

    #[test]
    fn clean_repair_is_identity() {
        let bytes = sample_archive();
        let out = repair_bytes(&bytes).expect("clean repair");
        assert!(out.actions.is_empty());
        assert_eq!(out.bytes, bytes);
    }

    #[test]
    fn unreadable_header_reports_and_refuses_repair() {
        let report = scrub_bytes(b"not an archive at all", &ScrubOptions::default());
        assert!(!report.is_clean());
        assert_eq!(report.version, 0);
        assert_eq!(report.findings[0].kind, ScrubKind::Structure);
        assert!(repair_bytes(b"not an archive at all").is_err());
    }

    #[test]
    fn clean_temporal_archive_scrubs_clean_even_deep() {
        let bytes = sample_temporal_archive();
        let report = scrub_bytes(&bytes, &ScrubOptions { deep: true });
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.version, 3);
        assert_eq!(report.fields_checked, 8, "2 fields × 4 epochs");
        assert_eq!(report.blocks_checked, 32, "4 blocks × 2 fields × 4 epochs");
    }

    #[test]
    fn delta_meta_flip_is_a_checksum_finding() {
        let mut bytes = sample_temporal_archive();
        let reader = ArchiveReader::new(&bytes).expect("open");
        // entry 3 = field T of delta epoch 1; its meta area holds the
        // temporal hybrid weights
        let e = &reader.entries()[3];
        assert_eq!(e.qualified_name(), "T@e1");
        assert!(e.meta_len() > 0, "delta entries carry hybrid meta");
        let off = e.payload_base as usize + 2;
        drop(reader);
        bytes[off] ^= 0x40;
        let report = scrub_bytes(&bytes, &ScrubOptions::default());
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        let f = &report.findings[0];
        assert_eq!(f.kind, ScrubKind::Checksum);
        assert_eq!(f.field.as_deref(), Some("T@e1"));
        assert_eq!(f.block, None);
        assert!(f.detail.contains("meta area"), "{}", f.detail);
    }

    #[test]
    fn epoch_kind_flip_is_flagged() {
        let mut bytes = sample_temporal_archive();
        let reader = ArchiveReader::new(&bytes).expect("open");
        // epoch 1's kind byte sits right after epoch 0's last payload
        let last = &reader.entries()[1];
        let off = last.payload_base as usize + last.payload_len;
        drop(reader);
        bytes[off] ^= 1;
        let report = scrub_bytes(&bytes, &ScrubOptions::default());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.kind == ScrubKind::Structure && f.detail.contains("kind byte")),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn torn_epoch_tail_truncates_to_complete_epochs() {
        let clean = sample_temporal_archive();
        let reader = ArchiveReader::new(&clean).expect("open");
        let want0 = reader.decode_epoch(0).expect("epoch 0");
        let want1 = reader.decode_epoch(1).expect("epoch 1");
        // tear inside epoch 2's first field payload
        let e = &reader.entries()[4];
        let cut = e.payload_base as usize + e.payload_len / 2;
        drop(reader);
        let torn = &clean[..cut];

        let report = scrub_bytes(torn, &ScrubOptions::default());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.kind == ScrubKind::Truncation),
            "{:?}",
            report.findings
        );

        let fixed = repair_bytes(torn).expect("repairable");
        assert!(
            fixed
                .actions
                .iter()
                .any(|a| a.contains("truncate torn tail")),
            "{:?}",
            fixed.actions
        );
        let report = scrub_bytes(&fixed.bytes, &ScrubOptions { deep: true });
        assert!(report.is_clean(), "{:?}", report.findings);
        let got = ArchiveReader::new(&fixed.bytes).expect("open repaired");
        assert_eq!(got.n_epochs(), 2);
        for (epoch, want) in [(0, &want0), (1, &want1)] {
            let dec = got.decode_epoch(epoch).expect("decode repaired epoch");
            for name in ["A", "T"] {
                assert_eq!(
                    dec.expect_field(name).as_slice(),
                    want.expect_field(name).as_slice(),
                    "epoch {epoch} field {name} must survive repair bit-exactly"
                );
            }
        }
    }

    /// A tear inside epoch 0 leaves no complete epoch: epoch 0 is kept
    /// alone, cut back to the block prefix its present fields still hold,
    /// and the target whose row the tear took is gone with it.
    #[test]
    fn torn_first_epoch_keeps_its_intact_block_prefix() {
        let clean = sample_temporal_archive();
        let reader = ArchiveReader::new(&clean).expect("open");
        let want = reader.decode_epoch(0).expect("epoch 0");
        let e = &reader.entries()[0];
        let cut = e.payload_base as usize + e.payload_len / 2;
        drop(reader);

        let fixed = repair_bytes(&clean[..cut]).expect("repairable");
        assert!(
            fixed
                .actions
                .iter()
                .any(|a| a.contains("truncate every field")),
            "{:?}",
            fixed.actions
        );
        let report = scrub_bytes(&fixed.bytes, &ScrubOptions { deep: true });
        assert!(report.is_clean(), "{:?}", report.findings);
        let got = ArchiveReader::new(&fixed.bytes).expect("open repaired");
        assert_eq!((got.version(), got.n_epochs()), (3, 1));
        let dec = got.decode_epoch(0).expect("decode repaired");
        assert_eq!(dec.field_names(), ["A"]);
        let kept = dec.expect_field("A");
        let rows = kept.shape().dims()[0];
        assert!(
            rows > 0 && rows < 24 && rows.is_multiple_of(6),
            "{rows} rows kept"
        );
        assert_eq!(
            kept.as_slice(),
            &want.expect_field("A").as_slice()[..rows * 16],
            "the kept prefix must survive repair bit-exactly"
        );
    }

    /// An index row of a delta epoch lying about where its block lives is
    /// rebuilt from the boundary scan, and every epoch decodes as before.
    #[test]
    fn garbled_delta_index_row_is_rebuilt() {
        let clean = sample_temporal_archive();
        let reader = ArchiveReader::new(&clean).expect("open");
        let want: Vec<_> = (0..4)
            .map(|e| reader.decode_epoch(e).expect("decode clean"))
            .collect();
        // entry 3 = field T of delta epoch 1
        assert_eq!(reader.entries()[3].qualified_name(), "T@e1");
        drop(reader);
        let mut bytes = clean.clone();
        let pos = index_row_pos(&bytes, 3, 2);
        bytes[pos] ^= 0x5a;
        bytes[pos + 8] ^= 0x2c;
        let report = scrub_bytes(&bytes, &ScrubOptions::default());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.kind == ScrubKind::IndexBounds && f.field.as_deref() == Some("T@e1")),
            "{:?}",
            report.findings
        );

        let fixed = repair_bytes(&bytes).expect("repairable");
        assert_eq!(
            fixed.actions,
            ["rebuild index of field T@e1: 4 rows recovered by boundary scan"]
        );
        assert_eq!(fixed.bytes, clean, "the rebuilt index is the written one");
        let report = scrub_bytes(&fixed.bytes, &ScrubOptions { deep: true });
        assert!(report.is_clean(), "{:?}", report.findings);
        let got = ArchiveReader::new(&fixed.bytes).expect("open repaired");
        for (epoch, want) in want.iter().enumerate() {
            let dec = got.decode_epoch(epoch).expect("decode repaired epoch");
            for name in ["A", "T"] {
                assert!(
                    dec.expect_field(name)
                        .as_slice()
                        .iter()
                        .zip(want.expect_field(name).as_slice())
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "epoch {epoch} field {name} must survive repair bit-exactly"
                );
            }
        }
    }

    #[test]
    fn clean_temporal_repair_is_identity() {
        let bytes = sample_temporal_archive();
        let out = repair_bytes(&bytes).expect("clean repair");
        assert!(out.actions.is_empty());
        assert_eq!(out.bytes, bytes);
    }
}
