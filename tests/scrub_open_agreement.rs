//! The offline scrubber and the reader judge a manifest by the same rules.
//!
//! `ArchiveReader::open` and `scrub_bytes` read the CFAR manifest through
//! the one codec in `archive::format` and hold it to the one rule list
//! there; `open` stops at the first violation, scrub collects them all and
//! adds the checks only it makes (CRCs, block magic, payload tiling). So:
//!
//! * a **light-clean** archive opens;
//! * a **deep-clean** archive decodes, every epoch, under the strict policy;
//! * what `repair_bytes` rewrites opens. (Repair refuses to bless rot it
//!   cannot tell from index damage, and leaves alone what it has no repair
//!   for, so bytes it hands back unchanged may still be damaged.)
//!
//! This file holds those three to a deterministic sweep of damaged
//! archives: over each committed golden fixture every manifest byte
//! (header, rows, block index, meta areas) flipped `^ 0xFF`, a stride of
//! payload bytes flipped the same way and a stride of truncations; plus
//! three hand-patched archives that scrub used to bless and `open` refuse.
//! Nothing in the sweep may panic.
//!
//! The per-mutant verdicts are also a listing (`open` verdict, light
//! findings as sorted `(kind, field, block)`, repair verdict) whose CRC32
//! per fixture is pinned below: an edit to the manifest rules that moves
//! any verdict trips it. Print the listing with
//!
//! ```text
//! cargo test --release --test scrub_open_agreement -- --ignored --nocapture list_verdicts
//! ```
//!
//! diff it against the same run on the parent commit, and re-pin.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use cross_field_compression::core::archive::{
    repair_bytes, scrub_bytes, ArchiveBuilder, ArchiveReader, ScrubKind, ScrubOptions,
};
use cross_field_compression::sz::crc32;
use cross_field_compression::tensor::{Dataset, Field, Shape};
use cross_field_compression::CfcError;

/// Every golden fixture with the CRC32 of its verdict listing.
const FIXTURES: [(&str, u32); 6] = [
    ("small_v1.cfar", 0x6b647b55),
    ("small_v2.cfar", 0xa8354526),
    ("partial_v2.cfar", 0x0ba6e6cd),
    ("small_v3_keyframes.cfar", 0x6abab3c5),
    ("small_v3_delta.cfar", 0x3e173c83),
    ("partial_v3.cfar", 0x69c2786c),
];

/// One payload byte in this many is flipped (every manifest byte is).
const PAYLOAD_STRIDE: usize = 23;
/// The archive is cut at every multiple of this length.
const CUT_STRIDE: usize = 41;
/// One light-clean mutant in this many also gets the deep pass.
const DEEP_EVERY: usize = 40;

fn fixture(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()))
}

/// The variant of the failure underneath any field attribution.
fn variant(e: &CfcError) -> &'static str {
    match e.root_cause() {
        CfcError::BadMagic { .. } => "BadMagic",
        CfcError::UnsupportedVersion { .. } => "UnsupportedVersion",
        CfcError::InvalidHeader(_) => "InvalidHeader",
        CfcError::Truncated { .. } => "Truncated",
        CfcError::MissingSection { .. } => "MissingSection",
        CfcError::Corrupt { .. } => "Corrupt",
        CfcError::ShapeMismatch { .. } => "ShapeMismatch",
        CfcError::InvalidInput(_) => "InvalidInput",
        CfcError::ChecksumMismatch { .. } => "ChecksumMismatch",
        CfcError::Io { .. } => "Io",
        CfcError::InField { .. } => "InField",
    }
}

/// What the three entry points say about one archive.
struct Verdicts {
    open: Result<(), CfcError>,
    light: Vec<(ScrubKind, Option<String>, Option<usize>)>,
    /// `Some` when the deep pass ran: is it clean, and the first epoch
    /// that then failed to decode strictly.
    deep: Option<(bool, Option<String>)>,
    /// Action count and, where bytes were rewritten, what `open` says to
    /// them.
    repair: Result<(usize, Option<Result<(), CfcError>>), CfcError>,
}

fn probe(bytes: &[u8], want_deep: impl FnOnce(bool) -> bool) -> Verdicts {
    let open = ArchiveReader::new(bytes);
    let report = scrub_bytes(bytes, &ScrubOptions::default());
    let mut light: Vec<_> = report
        .findings
        .iter()
        .map(|f| (f.kind, f.field.clone(), f.block))
        .collect();
    light.sort_by_key(|(kind, field, block)| (kind.label(), field.clone(), *block));
    let deep = want_deep(light.is_empty()).then(|| {
        let clean = scrub_bytes(bytes, &ScrubOptions { deep: true }).is_clean();
        let failed = open.as_ref().ok().and_then(|r| {
            (0..r.n_epochs()).find_map(|e| {
                r.decode_epoch(e)
                    .err()
                    .map(|err| format!("decode_epoch({e}): {err}"))
            })
        });
        (clean, failed)
    });
    let repair = repair_bytes(bytes).map(|out| {
        let rewritten =
            (!out.actions.is_empty()).then(|| ArchiveReader::new(&out.bytes).map(|_| ()));
        (out.actions.len(), rewritten)
    });
    Verdicts {
        open: open.map(|_| ()),
        light,
        deep,
        repair,
    }
}

/// Sweep state: the listing so far and every broken promise found.
#[derive(Default)]
struct Sweep {
    listing: String,
    broken: Vec<String>,
    light_clean: usize,
}

impl Sweep {
    /// Probe one mutant, hold it to the three promises, add its line.
    fn judge(&mut self, id: &str, bytes: &[u8]) {
        let nth_clean = self.light_clean;
        let v = catch_unwind(AssertUnwindSafe(|| {
            probe(bytes, |clean| clean && nth_clean.is_multiple_of(DEEP_EVERY))
        }))
        .unwrap_or_else(|_| panic!("{id}: panicked"));
        if v.light.is_empty() {
            self.light_clean += 1;
            if let Err(e) = &v.open {
                self.broken
                    .push(format!("{id}: light scrub is clean but open says: {e}"));
            }
        }
        if let Some((true, Some(failed))) = &v.deep {
            self.broken
                .push(format!("{id}: deep scrub is clean but {failed}"));
        }
        if let Ok((_, Some(Err(e)))) = &v.repair {
            self.broken
                .push(format!("{id}: repaired bytes do not open: {e}"));
        }
        let _ = write!(self.listing, "{id} open=");
        match &v.open {
            Ok(()) => self.listing.push_str("Ok"),
            Err(e) => self.listing.push_str(variant(e)),
        }
        self.listing.push_str(" light=[");
        for (i, (kind, field, block)) in v.light.iter().enumerate() {
            let sep = if i > 0 { " " } else { "" };
            let field = field.as_deref().unwrap_or("-");
            let _ = match block {
                Some(b) => write!(self.listing, "{sep}{}:{field}:{b}", kind.label()),
                None => write!(self.listing, "{sep}{}:{field}:-", kind.label()),
            };
        }
        let _ = match &v.repair {
            Ok((actions, None)) => writeln!(self.listing, "] repair=Ok({actions})"),
            Ok((actions, Some(open))) => {
                let open = open.as_ref().map_or_else(variant, |()| "Ok");
                writeln!(self.listing, "] repair=Ok({actions})>{open}")
            }
            Err(e) => writeln!(self.listing, "] repair={}", variant(e)),
        };
    }

    /// Every mutant of one clean archive.
    fn mutants_of(&mut self, clean: &[u8]) {
        let reader = ArchiveReader::new(clean).expect("clean archive opens");
        let mut in_block = vec![false; clean.len()];
        for e in reader.entries() {
            for b in 0..e.n_blocks() {
                let (off, len) = e.block_span(b).expect("span");
                in_block[off as usize..off as usize + len].fill(true);
            }
        }
        let mut bytes = clean.to_vec();
        let mut payload_seen = 0usize;
        for pos in 0..clean.len() {
            if in_block[pos] {
                payload_seen += 1;
                if payload_seen % PAYLOAD_STRIDE != 1 {
                    continue;
                }
            }
            bytes[pos] ^= 0xFF;
            self.judge(&format!("flip@{pos}"), &bytes);
            bytes[pos] ^= 0xFF;
        }
        for cut in (0..clean.len())
            .step_by(CUT_STRIDE)
            .chain([clean.len() - 1])
        {
            self.judge(&format!("cut@{cut}"), &clean[..cut]);
        }
    }
}

fn sweep_fixture(name: &str) -> Sweep {
    let clean = fixture(name);
    let mut sweep = Sweep::default();
    sweep.judge("clean", &clean);
    sweep.mutants_of(&clean);
    sweep
}

fn check_fixture(name: &str) {
    let sweep = sweep_fixture(name);
    assert!(
        sweep.broken.is_empty(),
        "{name}: {} broken promise(s):\n{}",
        sweep.broken.len(),
        sweep.broken.join("\n")
    );
    let pinned = FIXTURES
        .iter()
        .find(|(n, _)| *n == name)
        .expect("a pinned fixture")
        .1;
    assert_eq!(
        crc32(sweep.listing.as_bytes()),
        pinned,
        "{name}: a verdict moved — print the listing (see the module docs), \
         diff it against the parent commit's, and re-pin"
    );
}

#[test]
fn small_v1_mutants_agree() {
    check_fixture("small_v1.cfar");
}

#[test]
fn small_v2_mutants_agree() {
    check_fixture("small_v2.cfar");
}

#[test]
fn partial_v2_mutants_agree() {
    check_fixture("partial_v2.cfar");
}

#[test]
fn small_v3_keyframes_mutants_agree() {
    check_fixture("small_v3_keyframes.cfar");
}

#[test]
fn small_v3_delta_mutants_agree() {
    check_fixture("small_v3_delta.cfar");
}

#[test]
fn partial_v3_mutants_agree() {
    check_fixture("partial_v3.cfar");
}

/// Two baseline fields, 12 × 8, four blocks each.
fn two_field_dataset(phase: f32) -> Dataset {
    let shape = Shape::d2(12, 8);
    let mut ds = Dataset::new("DRIFT", shape);
    for (name, scale) in [("A", 1.0f32), ("B", 3.0)] {
        ds.push(
            name,
            Field::from_fn(shape, |i| {
                scale * ((i[0] as f32) * 0.3 + phase).sin() + i[1] as f32 * 0.05
            }),
        );
    }
    ds
}

fn builder() -> ArchiveBuilder {
    ArchiveBuilder::relative(1e-3).chunk_elements(3 * 8)
}

/// Three archives the scrubber blessed while `open` refused them, each a
/// writer's output with a few bytes patched. `(what, bytes)`.
fn drift_archives() -> Vec<(&'static str, Vec<u8>)> {
    let snapshot = builder()
        .build()
        .write(&two_field_dataset(0.0))
        .expect("snapshot write");
    // header: magic(4) version(2) name(2 + 5) epoch count(4) keyframe
    // interval(4), then the u32 field count
    let count_at = 4 + 2 + 2 + "DRIFT".len() + 4 + 4;
    assert_eq!(snapshot[count_at..count_at + 4], 2u32.to_le_bytes());

    let mut zero_fields = snapshot.clone();
    zero_fields[count_at..count_at + 4].copy_from_slice(&0u32.to_le_bytes());

    // epoch 0's kind byte, then the rows. A baseline row: name(2 + 1)
    // role(1) anchor count(2) bound(8) ndim(1), then the u64 extents; its
    // meta CRC and block index follow them, and its payload (no meta area)
    // starts at block 0
    let mut huge_dims = snapshot.clone();
    let reader = ArchiveReader::new(&snapshot).expect("open");
    let mut row_at = count_at + 4 + 1;
    for e in reader.entries() {
        let dim1_at = row_at + (2 + 1) + 1 + 2 + 8 + 1 + 8;
        assert_eq!(snapshot[dim1_at..dim1_at + 8], 8u64.to_le_bytes());
        huge_dims[dim1_at..dim1_at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        row_at = e.block_span(0).expect("span").0 as usize + e.stream_len();
    }

    // two keyframe epochs; epoch 1's fields (row + payload each) swapped
    let v3 = builder()
        .keyframe_interval(1)
        .build()
        .write_epochs(&[two_field_dataset(0.0), two_field_dataset(0.2)])
        .expect("v3 write");
    let reader = ArchiveReader::new(&v3).expect("open");
    let end_of = |i: usize| {
        let e = &reader.entries()[i];
        e.block_span(0).expect("span").0 as usize + e.stream_len()
    };
    // epoch 1 opens with its kind byte, then A's row
    let (a_at, b_at, end) = (end_of(1) + 1, end_of(2), end_of(3));
    assert_eq!(end, v3.len());
    let mut swapped = v3[..a_at].to_vec();
    swapped.extend_from_slice(&v3[b_at..end]);
    swapped.extend_from_slice(&v3[a_at..b_at]);

    vec![
        ("zero-fields", zero_fields),
        ("dims-past-element-cap", huge_dims),
        ("epoch-1-fields-reordered", swapped),
    ]
}

#[test]
fn drift_archives_are_refused_by_both() {
    let mut sweep = Sweep::default();
    for (what, bytes) in drift_archives() {
        sweep.judge(what, &bytes);
        assert!(ArchiveReader::new(&bytes).is_err(), "{what}: opens");
        let report = scrub_bytes(&bytes, &ScrubOptions::default());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.kind == ScrubKind::Structure),
            "{what}: no structure finding in {:?}",
            report.findings
        );
    }
    assert!(sweep.broken.is_empty(), "{}", sweep.broken.join("\n"));
}

/// Not a test: prints every mutant's verdicts, for diffing across commits.
#[test]
#[ignore = "prints the verdict listing; run with --ignored --nocapture"]
fn list_verdicts() {
    for (name, _) in FIXTURES {
        let sweep = sweep_fixture(name);
        println!(
            "## {name} crc32={:#010x} broken={}",
            crc32(sweep.listing.as_bytes()),
            sweep.broken.len()
        );
        for line in sweep.listing.lines() {
            println!("{name} {line}");
        }
        for line in &sweep.broken {
            println!("{name} BROKEN {line}");
        }
    }
    let mut sweep = Sweep::default();
    for (what, bytes) in drift_archives() {
        sweep.judge(what, &bytes);
    }
    print!("{}", sweep.listing);
    for line in &sweep.broken {
        println!("BROKEN {line}");
    }
}
