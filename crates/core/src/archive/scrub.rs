//! Archive integrity scrubbing and repair.
//!
//! [`scrub_bytes`] walks a CFAR archive and verifies everything that can
//! be verified without (or, in deep mode, with) decoding:
//!
//! * **Header invariants** — magic, version, role bytes, error bounds,
//!   shape/chunk-geometry agreement across fields.
//! * **Block index** — every row's span inside the payload area, rows
//!   ascending, adjacent, starting at the meta boundary and ending exactly
//!   at the payload end (the writer emits contiguous blocks; anything else
//!   is index rot).
//! * **Checksums** — every block's bytes re-hashed against the CRC32
//!   recorded in its index row, its `CFSZ` stream magic checked, and (v3)
//!   the meta area re-hashed against the manifest's meta CRC.
//! * **Anchor graph** — duplicate names, dangling anchors, targets
//!   anchored on targets, targets without anchors; on v3 archives the
//!   checks run per epoch, plus the epoch-kind rules (delta roles appear
//!   exactly in delta epochs, delta entries carry no anchor list).
//! * **Deep mode** — every block of every field actually decoded (via a
//!   salvage-policy decode, so one rotten block doesn't mask the rest);
//!   damage that the cheap checks missed surfaces as
//!   [`ScrubKind::Decode`] findings.
//!
//! The result is a machine-readable [`ScrubReport`] ([`ScrubReport::to_json`]
//! for tooling, `Display`-style text via the `cfc-fsck` binary).
//!
//! [`repair_bytes`] attempts the two recoveries that need no re-encoding,
//! because CFAR v2 blocks are self-delimiting `CFSZ` containers:
//!
//! * **Index rebuild** — when a field's index rows disagree with the block
//!   boundaries found by scanning the payload (each container records its
//!   own section lengths, so the scan is exact), the rows are rebuilt from
//!   the scan: offsets, lengths, and CRCs recomputed from the bytes that
//!   are actually there. Checksum mismatches *without* a boundary
//!   disagreement are payload rot, not index rot, and are left alone —
//!   rebuilding would bless corrupt data.
//! * **Torn-tail truncation** — when the archive ends mid-payload (a torn
//!   upload), every field is cut back to the longest common prefix of
//!   fully-present blocks, manifests rewritten for the reduced axis-0
//!   extent, and fields whose manifests or meta areas are gone (plus any
//!   targets orphaned by a dropped anchor) are dropped.
//!
//! Multi-epoch (v3) archives repair at epoch granularity instead: a torn
//! tail is cut back to the longest prefix of fully-present epochs and the
//! header's epoch count patched in place. Truncating *inside* an epoch
//! would break its intra-epoch anchor graph, and cutting a keyframe's
//! blocks would orphan every delta epoch chained on it, so no finer repair
//! is attempted.
//!
//! Both operate on in-memory bytes: a scrubber is an offline tool and
//! archives are file-sized. The walk is *lenient* — unlike
//! [`ArchiveReader::open`], which rejects a corrupt manifest at the first
//! violation, the scrub walk records a finding and keeps going wherever
//! the byte layout still lets it.

use cfc_sz::error::Reader;
use cfc_sz::stream::Container;
use cfc_sz::{crc32, CfcError};

use bytes::BufMut;

use super::damage::DecodePolicy;
use super::format::{
    n_blocks_for, put_str, qualified_field_name, FieldRole, ARCHIVE_MAGIC, ARCHIVE_VERSION,
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

fn json_escape(s: &str) -> String {
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

/// One raw index row as the manifest records it (nothing validated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RawRow {
    rel: u64,
    len: u64,
    crc: u32,
}

/// One manifest row parsed leniently: sizes trusted far enough to locate
/// the next row, every *value* kept raw for the checks to judge.
#[derive(Debug)]
struct RawEntry {
    name: String,
    role_byte: u8,
    anchors: Vec<String>,
    eb: f64,
    dims: Vec<u64>,
    chunk_slabs: u32,
    meta_len: u64,
    /// CRC32 the manifest records over the meta area (v3; 0 before).
    meta_crc: u32,
    payload_len: u64,
    rows: Vec<RawRow>,
    /// Epoch the entry belongs to (always 0 for v1/v2).
    epoch: usize,
    /// Absolute offset of the payload area (meta, then blocks).
    payload_base: u64,
    /// Payload bytes physically present (`< payload_len` when torn).
    payload_available: u64,
}

impl RawEntry {
    /// The payload slice that physically exists in `bytes`.
    fn payload<'a>(&self, bytes: &'a [u8]) -> &'a [u8] {
        let base = self.payload_base as usize;
        &bytes[base..base + self.payload_available as usize]
    }

    /// Epoch-qualified display name, matching reader damage reports.
    fn qualified(&self) -> String {
        qualified_field_name(&self.name, self.epoch)
    }
}

/// Lenient walk result: whatever was parseable, plus the structural
/// findings hit along the way.
struct Walk {
    version: u16,
    name: String,
    /// Fields *per epoch* (the header's field count).
    declared_fields: usize,
    /// Epochs the header declares (1 for v1/v2).
    n_epochs: usize,
    /// Keyframe interval the header declares (1 for v1/v2).
    keyframe_interval: usize,
    entries: Vec<RawEntry>,
    findings: Vec<ScrubFinding>,
}

fn structure(detail: String) -> ScrubFinding {
    ScrubFinding {
        kind: ScrubKind::Structure,
        field: None,
        block: None,
        detail,
    }
}

/// Read a u16-length-prefixed string.
fn read_str(r: &mut Reader<'_>, context: &'static str) -> Result<String, CfcError> {
    let len = r.u16(context)? as usize;
    let bytes = r.bytes(len, context)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| CfcError::Corrupt {
        context: "archive string",
        detail: format!("{context} is not valid UTF-8"),
    })
}

/// Walk the archive as far as the byte layout allows, recording structural
/// findings instead of failing on the first.
fn walk(bytes: &[u8]) -> Walk {
    let mut w = Walk {
        version: 0,
        name: String::new(),
        declared_fields: 0,
        n_epochs: 1,
        keyframe_interval: 1,
        entries: Vec::new(),
        findings: Vec::new(),
    };
    let mut r = Reader::new(bytes);
    let header = (|| -> Result<(), CfcError> {
        let magic = r.bytes(4, "archive magic")?;
        if magic != &ARCHIVE_MAGIC[..] {
            return Err(CfcError::BadMagic {
                expected: *ARCHIVE_MAGIC,
                found: magic.to_vec(),
            });
        }
        let version = r.u16("archive version")?;
        if !(1..=ARCHIVE_VERSION).contains(&version) {
            return Err(CfcError::UnsupportedVersion {
                found: version,
                supported: ARCHIVE_VERSION,
            });
        }
        w.version = version;
        w.name = read_str(&mut r, "archive name")?;
        if version >= 3 {
            w.n_epochs = r.u32("epoch count")? as usize;
            w.keyframe_interval = r.u32("keyframe interval")? as usize;
            if w.n_epochs == 0 || w.keyframe_interval == 0 {
                return Err(CfcError::Corrupt {
                    context: "archive",
                    detail: format!(
                        "{} epochs at keyframe interval {}",
                        w.n_epochs, w.keyframe_interval
                    ),
                });
            }
        }
        w.declared_fields = r.u32("field count")? as usize;
        Ok(())
    })();
    if let Err(e) = header {
        w.findings.push(structure(format!("archive header: {e}")));
        return w;
    }
    let total = w.declared_fields * w.n_epochs;
    'epochs: for epoch in 0..w.n_epochs {
        if w.version >= 3 {
            match r.u8("epoch kind") {
                Ok(kind) => {
                    let expect = u8::from(epoch % w.keyframe_interval != 0);
                    if kind != expect {
                        w.findings.push(structure(format!(
                            "epoch {epoch} kind byte {kind} disagrees with keyframe \
                             interval {}",
                            w.keyframe_interval
                        )));
                    }
                }
                Err(e) => {
                    w.findings
                        .push(structure(format!("epoch {epoch} kind byte: {e}")));
                    break 'epochs;
                }
            }
        }
        for fi in 0..w.declared_fields {
            match parse_raw_entry(bytes, &mut r, w.version, epoch) {
                Ok(entry) => {
                    let torn = entry.payload_available < entry.payload_len;
                    w.entries.push(entry);
                    if torn {
                        // the next manifest row would start past EOF
                        let missing = total - w.entries.len();
                        if missing > 0 {
                            w.findings.push(structure(format!(
                                "{missing} trailing field manifest(s) missing after torn payload"
                            )));
                        }
                        break 'epochs;
                    }
                }
                Err(e) => {
                    w.findings.push(structure(if w.version >= 3 {
                        format!("field manifest {fi} of epoch {epoch}: {e}")
                    } else {
                        format!("field manifest {fi}: {e}")
                    }));
                    break 'epochs;
                }
            }
        }
    }
    w
}

/// Parse one manifest row just strictly enough to locate the next one.
fn parse_raw_entry(
    bytes: &[u8],
    r: &mut Reader<'_>,
    version: u16,
    epoch: usize,
) -> Result<RawEntry, CfcError> {
    let name = read_str(r, "field name")?;
    let role_byte = r.u8("field role")?;
    let n_anchors = r.u16("anchor count")? as usize;
    let mut anchors = Vec::with_capacity(n_anchors.min(64));
    for _ in 0..n_anchors {
        anchors.push(read_str(r, "anchor name")?);
    }
    let eb = r.f64("field error bound")?;
    if version == 1 {
        let payload_len = r.u64("field stream length")?;
        let payload_base = r.position() as u64;
        let available = payload_len.min((bytes.len() as u64).saturating_sub(payload_base));
        // skip whatever of the payload exists
        let skip = available as usize;
        let _ = r.bytes(skip, "field stream")?;
        return Ok(RawEntry {
            name,
            role_byte,
            anchors,
            eb,
            dims: Vec::new(),
            chunk_slabs: 0,
            meta_len: 0,
            meta_crc: 0,
            payload_len,
            rows: Vec::new(),
            epoch,
            payload_base,
            payload_available: available,
        });
    }
    let ndim = r.u8("field ndim")? as usize;
    if ndim == 0 || ndim > 8 {
        // beyond any plausible layout we can no longer locate the next row
        return Err(CfcError::Corrupt {
            context: "archive entry",
            detail: format!("ndim {ndim} leaves the manifest unnavigable"),
        });
    }
    let mut dims = Vec::with_capacity(ndim);
    for _ in 0..ndim {
        dims.push(r.u64("field dims")?);
    }
    let chunk_slabs = r.u32("chunk slabs")?;
    let n_blocks = r.u32("block count")? as usize;
    let meta_len = r.u64("field meta length")?;
    let payload_len = r.u64("field payload length")?;
    let meta_crc = if version >= 3 {
        r.u32("field meta crc")?
    } else {
        0
    };
    if n_blocks > bytes.len() / 20 + 1 {
        return Err(CfcError::Corrupt {
            context: "archive block index",
            detail: format!("{n_blocks} declared blocks cannot fit the archive"),
        });
    }
    let mut rows = Vec::with_capacity(n_blocks);
    for _ in 0..n_blocks {
        let rel = r.u64("block offset")?;
        let len = r.u64("block length")?;
        let crc = r.u32("block crc")?;
        rows.push(RawRow { rel, len, crc });
    }
    let payload_base = r.position() as u64;
    let available = payload_len.min((bytes.len() as u64).saturating_sub(payload_base));
    let _ = r.bytes(available as usize, "field payload")?;
    Ok(RawEntry {
        name,
        role_byte,
        anchors,
        eb,
        dims,
        chunk_slabs,
        meta_len,
        meta_crc,
        payload_len,
        rows,
        epoch,
        payload_base,
        payload_available: available,
    })
}

/// Verify an archive's integrity without modifying anything. See the
/// [module docs](self) for the checks; the result is a [`ScrubReport`]
/// whose findings are empty exactly when the archive is healthy.
pub fn scrub_bytes(bytes: &[u8], opts: &ScrubOptions) -> ScrubReport {
    let mut w = walk(bytes);
    let mut findings = std::mem::take(&mut w.findings);
    let mut blocks_checked = 0usize;

    for e in &w.entries {
        check_entry_header(e, w.version, &mut findings);
        if w.version >= 2 {
            check_index(e, &mut findings);
            blocks_checked += check_blocks(e, bytes, &mut findings);
        }
        if w.version >= 3 {
            check_meta_crc(e, bytes, &mut findings);
        }
        if e.payload_available < e.payload_len {
            findings.push(ScrubFinding {
                kind: ScrubKind::Truncation,
                field: Some(e.qualified()),
                block: first_torn_block(e),
                detail: format!(
                    "payload torn: {} of {} bytes present",
                    e.payload_available, e.payload_len
                ),
            });
        }
    }
    check_anchor_graph(&w.entries, w.version, w.keyframe_interval, &mut findings);

    if opts.deep {
        deep_check(bytes, &w, &mut findings);
    }

    ScrubReport {
        archive_len: bytes.len() as u64,
        version: w.version,
        fields_checked: w.entries.len(),
        blocks_checked,
        deep: opts.deep,
        findings,
    }
}

/// Index of the first block row not fully inside the present payload.
fn first_torn_block(e: &RawEntry) -> Option<usize> {
    e.rows
        .iter()
        .position(|r| r.rel.saturating_add(r.len) > e.payload_available)
}

fn check_entry_header(e: &RawEntry, version: u16, findings: &mut Vec<ScrubFinding>) {
    let mut bad = |detail: String| {
        findings.push(ScrubFinding {
            kind: ScrubKind::Structure,
            field: Some(e.qualified()),
            block: None,
            detail,
        })
    };
    if FieldRole::from_u8(e.role_byte).is_none() {
        bad(format!("unknown role byte {}", e.role_byte));
    }
    if !(e.eb.is_finite() && e.eb > 0.0) {
        bad(format!("error bound {}", e.eb));
    }
    if version >= 2 {
        if e.dims.is_empty() || e.dims.len() > 3 {
            bad(format!("ndim {} outside 1..=3", e.dims.len()));
        }
        if e.dims.contains(&0) {
            bad("zero axis extent".into());
        }
        if e.chunk_slabs == 0 {
            bad("zero chunk slabs".into());
        }
        if e.meta_len > e.payload_len {
            bad(format!(
                "meta {} exceeds payload {}",
                e.meta_len, e.payload_len
            ));
        }
        if let (Some(&dim0), true) = (e.dims.first(), e.chunk_slabs > 0) {
            let want = n_blocks_for(dim0 as usize, e.chunk_slabs as usize);
            if e.dims.iter().all(|&d| d > 0) && e.rows.len() != want {
                bad(format!(
                    "{} index rows for extent {dim0} at {} slabs/block (want {want})",
                    e.rows.len(),
                    e.chunk_slabs
                ));
            }
        }
    }
}

/// The writer tiles the payload with blocks: row 0 starts at the meta
/// boundary, rows are adjacent and ascending, the last row ends exactly at
/// the payload end. Anything else is index rot.
fn check_index(e: &RawEntry, findings: &mut Vec<ScrubFinding>) {
    let mut bad = |block: usize, detail: String| {
        findings.push(ScrubFinding {
            kind: ScrubKind::IndexBounds,
            field: Some(e.qualified()),
            block: Some(block),
            detail,
        })
    };
    let mut expected = e.meta_len;
    for (bi, row) in e.rows.iter().enumerate() {
        if row.rel != expected {
            bad(
                bi,
                format!("row offset {} (expected {expected} for adjacency)", row.rel),
            );
        }
        let end = row.rel.saturating_add(row.len);
        if end > e.payload_len {
            bad(
                bi,
                format!(
                    "row spans [{}, {end}) outside payload of {} bytes",
                    row.rel, e.payload_len
                ),
            );
        }
        // resynchronize on the row's own claim, so one garbled row yields
        // a bounded number of findings rather than flagging every
        // successor
        expected = end.min(e.payload_len);
    }
    if !e.rows.is_empty() && expected != e.payload_len && e.payload_available == e.payload_len {
        bad(
            e.rows.len() - 1,
            format!("index covers {expected} of {} payload bytes", e.payload_len),
        );
    }
}

/// CRC + stream-magic verification of every block physically present.
/// Returns how many blocks were checked.
fn check_blocks(e: &RawEntry, bytes: &[u8], findings: &mut Vec<ScrubFinding>) -> usize {
    let payload = e.payload(bytes);
    let mut checked = 0usize;
    for (bi, row) in e.rows.iter().enumerate() {
        let end = row.rel.saturating_add(row.len);
        if end > payload.len() as u64 {
            continue; // torn or out-of-bounds; reported elsewhere
        }
        let block = &payload[row.rel as usize..end as usize];
        checked += 1;
        let found = crc32(block);
        if found != row.crc {
            findings.push(ScrubFinding {
                kind: ScrubKind::Checksum,
                field: Some(e.qualified()),
                block: Some(bi),
                detail: format!("recorded {:#010x}, computed {found:#010x}", row.crc),
            });
        }
        if block.len() < 4 || &block[..4] != b"CFSZ" {
            findings.push(ScrubFinding {
                kind: ScrubKind::BlockMagic,
                field: Some(e.qualified()),
                block: Some(bi),
                detail: "block does not start a CFSZ container".into(),
            });
        }
    }
    checked
}

/// v3 manifests record a CRC32 over the meta area; re-hash whatever of it
/// is physically present (a short meta is torn, reported elsewhere).
fn check_meta_crc(e: &RawEntry, bytes: &[u8], findings: &mut Vec<ScrubFinding>) {
    if e.payload_available < e.meta_len {
        return;
    }
    let meta = &e.payload(bytes)[..e.meta_len as usize];
    let found = crc32(meta);
    if found != e.meta_crc {
        findings.push(ScrubFinding {
            kind: ScrubKind::Checksum,
            field: Some(e.qualified()),
            block: None,
            detail: format!(
                "meta area: recorded {:#010x}, computed {found:#010x}",
                e.meta_crc
            ),
        });
    }
}

fn check_anchor_graph(
    entries: &[RawEntry],
    version: u16,
    keyframe_interval: usize,
    findings: &mut Vec<ScrubFinding>,
) {
    for (i, e) in entries.iter().enumerate() {
        let mut bad = |detail: String| {
            findings.push(ScrubFinding {
                kind: ScrubKind::AnchorGraph,
                field: Some(e.qualified()),
                block: None,
                detail,
            })
        };
        // names are scoped per epoch; anchors resolve within the epoch too
        let peers = || entries.iter().filter(|o| o.epoch == e.epoch);
        if entries[..i]
            .iter()
            .any(|o| o.epoch == e.epoch && o.name == e.name)
        {
            bad("duplicate field name".into());
        }
        let is_target = e.role_byte == FieldRole::Target as u8;
        let is_delta = e.role_byte == FieldRole::Delta as u8;
        if is_target && e.anchors.is_empty() {
            bad("target without anchors".into());
        }
        if is_delta && !e.anchors.is_empty() {
            bad(format!(
                "delta field carries {} anchor reference(s); its anchor is the \
                 previous epoch",
                e.anchors.len()
            ));
        }
        if !is_target && !is_delta && !e.anchors.is_empty() {
            bad(format!(
                "non-target carries {} anchor reference(s)",
                e.anchors.len()
            ));
        }
        for a in &e.anchors {
            match peers().find(|o| &o.name == a) {
                None => bad(format!("references unknown anchor {a}")),
                Some(o) if o.role_byte == FieldRole::Target as u8 => {
                    bad(format!("anchor {a} is itself a target"))
                }
                Some(_) => {}
            }
        }
        // v3: delta roles appear exactly in delta epochs
        if version >= 3 && keyframe_interval > 0 {
            let delta_epoch = e.epoch % keyframe_interval != 0;
            if is_delta != delta_epoch {
                findings.push(ScrubFinding {
                    kind: ScrubKind::Structure,
                    field: Some(e.qualified()),
                    block: None,
                    detail: format!(
                        "role byte {} in a {} epoch",
                        e.role_byte,
                        if delta_epoch { "delta" } else { "keyframe" },
                    ),
                });
            }
        }
        // v2+: all fields of every epoch agree on shape and chunk geometry
        if version >= 2 && i > 0 {
            let first = &entries[0];
            if e.dims != first.dims || e.chunk_slabs != first.chunk_slabs {
                findings.push(ScrubFinding {
                    kind: ScrubKind::Structure,
                    field: Some(e.qualified()),
                    block: None,
                    detail: format!("disagrees with {} on shape or chunk geometry", first.name),
                });
            }
        }
    }
}

/// Deep verification: strict-open the archive and salvage-decode every
/// field, converting the damage map into findings. Damage already located
/// by the cheap checks (same field + block) is not re-reported.
fn deep_check(bytes: &[u8], w: &Walk, findings: &mut Vec<ScrubFinding>) {
    let reader = match ArchiveReader::new(bytes) {
        Ok(r) => r,
        Err(e) => {
            // the lenient walk will usually have said why already; only
            // add a finding when it did not
            if findings.is_empty() {
                findings.push(structure(format!("strict open failed: {e}")));
            }
            return;
        }
    };
    for e in &w.entries {
        let req = ReadRequest::new(&e.name)
            .at(e.epoch)
            .policy(DecodePolicy::salvage());
        match reader.read(&req) {
            Ok(s) => {
                for d in &s.damage {
                    let dup = findings.iter().any(|f| {
                        f.field.as_deref() == Some(d.field.as_str()) && f.block == Some(d.block)
                    });
                    if dup {
                        continue;
                    }
                    findings.push(ScrubFinding {
                        kind: ScrubKind::Decode,
                        field: Some(d.field.clone()),
                        block: Some(d.block),
                        detail: match &d.cascaded_from {
                            Some(a) => format!("cascaded from anchor {a}: {}", d.error),
                            None => d.error.to_string(),
                        },
                    });
                }
            }
            Err(err) => findings.push(ScrubFinding {
                kind: ScrubKind::Decode,
                field: Some(e.qualified()),
                block: None,
                detail: err.to_string(),
            }),
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
fn scan_blocks(payload: &[u8], meta_len: u64) -> Vec<RawRow> {
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
        rows.push(RawRow {
            rel: pos as u64,
            len: len as u64,
            crc: crc32(&payload[pos..pos + len]),
        });
        pos += len;
    }
    rows
}

/// v3 repair: truncate a torn tail at an epoch boundary. Cutting blocks
/// *inside* an epoch would break its intra-epoch anchor graph, and cutting
/// a keyframe's blocks would orphan every delta epoch chained on it, so
/// the only re-encoding-free recovery is keeping the longest prefix of
/// fully-present epochs and patching the header's epoch count in place
/// (a u32 right after the archive name). Non-torn damage (payload or
/// index rot) is left untouched — rewriting it would bless corrupt data.
fn repair_v3(bytes: &[u8], w: &Walk) -> Result<RepairOutcome, CfcError> {
    let per_epoch = w.declared_fields;
    let mut complete = 0usize;
    while complete < w.n_epochs {
        let lo = complete * per_epoch;
        let hi = lo + per_epoch;
        if hi > w.entries.len()
            || w.entries[lo..hi]
                .iter()
                .any(|e| e.payload_available < e.payload_len)
        {
            break;
        }
        complete += 1;
    }
    if complete == 0 {
        return Err(CfcError::Corrupt {
            context: "archive repair",
            detail: "no complete epoch to keep".into(),
        });
    }
    if complete == w.n_epochs {
        return Ok(RepairOutcome {
            bytes: bytes.to_vec(),
            actions: Vec::new(),
        });
    }
    let last = &w.entries[complete * per_epoch - 1];
    let end = (last.payload_base + last.payload_len) as usize;
    let mut out = bytes[..end].to_vec();
    let off = 8 + w.name.len(); // magic(4) + version(2) + name length(2)
    out[off..off + 4].copy_from_slice(&(complete as u32).to_le_bytes());
    Ok(RepairOutcome {
        bytes: out,
        actions: vec![format!(
            "truncate torn tail: keep the first {complete} of {} epoch(s)",
            w.n_epochs
        )],
    })
}

/// Attempt to repair an archive without re-encoding anything. Two repairs
/// are possible (see the [module docs](self)): rebuilding index rows from
/// scanned block boundaries, and truncating a torn tail to the longest
/// fully-present block prefix. Returns the repaired bytes plus a log of
/// actions; an archive that needed neither comes back byte-identical with
/// an empty action list.
///
/// Errors when the archive is structurally beyond repair: unreadable
/// header, v1 container (no block structure to recover), no field with
/// any intact block, or payload rot that scanning cannot resolve.
pub fn repair_bytes(bytes: &[u8]) -> Result<RepairOutcome, CfcError> {
    let w = walk(bytes);
    if w.version == 0 {
        return Err(CfcError::Corrupt {
            context: "archive repair",
            detail: w
                .findings
                .first()
                .map(|f| f.detail.clone())
                .unwrap_or_else(|| "unreadable header".into()),
        });
    }
    if w.version == 1 {
        return Err(CfcError::InvalidInput(
            "v1 archives hold one monolithic stream per field; there is no \
             block structure to rebuild"
                .into(),
        ));
    }
    if w.version >= 3 {
        return repair_v3(bytes, &w);
    }
    let mut actions = Vec::new();

    // Per entry: recover rows by scanning, note how many blocks are intact.
    struct Plan<'a> {
        entry: &'a RawEntry,
        rows: Vec<RawRow>,
        intact_blocks: usize,
        declared_blocks: usize,
    }
    let mut plans = Vec::with_capacity(w.entries.len());
    for e in &w.entries {
        if e.payload_available < e.meta_len {
            actions.push(format!("drop field {}: meta area torn off", e.name));
            continue;
        }
        let declared = e.rows.len();
        let scanned = scan_blocks(e.payload(bytes), e.meta_len);
        if scanned.is_empty() {
            actions.push(format!("drop field {}: no intact blocks found", e.name));
            continue;
        }
        let torn = e.payload_available < e.payload_len;
        let boundaries_match = scanned.len() == declared
            && scanned
                .iter()
                .zip(&e.rows)
                .all(|(s, d)| s.rel == d.rel && s.len == d.len);
        let rows = if boundaries_match {
            // Index offsets agree with the payload. A CRC mismatch here is
            // payload rot, not index rot — refuse to bless it.
            e.rows.clone()
        } else if !torn && scanned.len() == declared {
            actions.push(format!(
                "rebuild index of field {}: {} rows recovered by boundary scan",
                e.name, declared
            ));
            scanned.clone()
        } else if torn {
            scanned.clone()
        } else {
            return Err(CfcError::Corrupt {
                context: "archive repair",
                detail: format!(
                    "field {}: boundary scan found {} blocks where the manifest \
                     declares {declared}; payload is not scan-recoverable",
                    e.name,
                    scanned.len()
                ),
            });
        };
        let intact = rows.len();
        plans.push(Plan {
            entry: e,
            rows,
            intact_blocks: intact,
            declared_blocks: declared,
        });
    }
    if plans.is_empty() {
        return Err(CfcError::Corrupt {
            context: "archive repair",
            detail: "no field retains any intact block".into(),
        });
    }

    // Drop targets orphaned by dropped anchors (to a fixpoint).
    loop {
        let names: Vec<String> = plans.iter().map(|p| p.entry.name.clone()).collect();
        let Some(pos) = plans
            .iter()
            .position(|p| p.entry.anchors.iter().any(|a| !names.contains(a)))
        else {
            break;
        };
        actions.push(format!(
            "drop field {}: anchor no longer present",
            plans[pos].entry.name
        ));
        plans.remove(pos);
        if plans.is_empty() {
            return Err(CfcError::Corrupt {
                context: "archive repair",
                detail: "every field depended on dropped data".into(),
            });
        }
    }

    // Common intact prefix across fields (v2 fields share shape, so a
    // truncation in one field truncates them all).
    let keep_blocks = plans.iter().map(|p| p.intact_blocks).min().unwrap_or(0);
    let full = plans
        .iter()
        .all(|p| p.intact_blocks == p.declared_blocks && keep_blocks == p.declared_blocks);
    if !full {
        actions.push(format!(
            "truncate every field to its first {keep_blocks} block(s)"
        ));
    }

    // Nothing to do and nothing dropped: return the input unchanged.
    if actions.is_empty() {
        return Ok(RepairOutcome {
            bytes: bytes.to_vec(),
            actions,
        });
    }

    // ---- emit the repaired archive --------------------------------------
    let first = &plans[0];
    let chunk_slabs = first.entry.chunk_slabs as usize;
    let new_dim0 = |orig: u64| -> u64 {
        if keep_blocks < n_blocks_for(orig as usize, chunk_slabs.max(1)) {
            (keep_blocks * chunk_slabs) as u64
        } else {
            orig
        }
    };
    let mut out = Vec::with_capacity(bytes.len());
    out.put_slice(ARCHIVE_MAGIC);
    out.put_u16_le(w.version);
    put_str(&mut out, &w.name);
    out.put_u32_le(plans.len() as u32);
    for p in &plans {
        let e = p.entry;
        put_str(&mut out, &e.name);
        out.put_u8(e.role_byte);
        out.put_u16_le(e.anchors.len() as u16);
        for a in &e.anchors {
            put_str(&mut out, a);
        }
        out.put_f64_le(e.eb);
        out.put_u8(e.dims.len() as u8);
        for (axis, &d) in e.dims.iter().enumerate() {
            out.put_u64_le(if axis == 0 { new_dim0(d) } else { d });
        }
        out.put_u32_le(e.chunk_slabs);
        let kept = &p.rows[..keep_blocks.min(p.rows.len())];
        out.put_u32_le(kept.len() as u32);
        out.put_u64_le(e.meta_len);
        let blocks_len: u64 = kept.iter().map(|r| r.len).sum();
        out.put_u64_le(e.meta_len + blocks_len);
        // rows, re-packed adjacent from the meta boundary
        let mut rel = e.meta_len;
        for row in kept {
            out.put_u64_le(rel);
            out.put_u64_le(row.len);
            out.put_u32_le(row.crc);
            rel += row.len;
        }
        // payload: meta area, then each kept block's bytes
        let payload = e.payload(bytes);
        out.put_slice(&payload[..e.meta_len as usize]);
        for row in kept {
            out.put_slice(&payload[row.rel as usize..(row.rel + row.len) as usize]);
        }
    }
    Ok(RepairOutcome {
        bytes: out,
        actions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::writer::ArchiveBuilder;
    use crate::config::TrainConfig;
    use cfc_tensor::{Dataset, Field, Shape};

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
        ArchiveBuilder::relative(1e-3)
            .train_config(TrainConfig::fast())
            .cross_field("T", &["A"])
            .chunk_elements(6 * 16)
            .build()
            .write(&ds)
            .expect("archive write")
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
        ArchiveBuilder::relative(1e-3)
            .train_config(TrainConfig::fast())
            .cross_field("T", &["A"])
            .chunk_elements(6 * 16)
            .keyframe_interval(2)
            .build()
            .write_epochs(&sample_epochs(4))
            .expect("temporal archive write")
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
        needle.extend_from_slice(&b.crc.expect("v2 rows record a crc").to_le_bytes());
        find(bytes, &needle)
    }

    #[test]
    fn clean_archive_scrubs_clean_even_deep() {
        let bytes = sample_archive();
        let report = scrub_bytes(&bytes, &ScrubOptions { deep: true });
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.version, 2);
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

    #[test]
    fn torn_first_epoch_refuses_repair() {
        let clean = sample_temporal_archive();
        let reader = ArchiveReader::new(&clean).expect("open");
        let e = &reader.entries()[0];
        let cut = e.payload_base as usize + e.payload_len / 2;
        drop(reader);
        assert!(repair_bytes(&clean[..cut]).is_err());
    }

    #[test]
    fn clean_temporal_repair_is_identity() {
        let bytes = sample_temporal_archive();
        let out = repair_bytes(&bytes).expect("clean repair");
        assert!(out.actions.is_empty());
        assert_eq!(out.bytes, bytes);
    }
}
