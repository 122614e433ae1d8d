//! Golden-vector format conformance: the CFAR container layout is a
//! compatibility surface, pinned by committed fixtures under
//! `tests/golden/` (regenerate with `cargo run -p cfc-bench --bin
//! make_golden`).
//!
//! Each test decodes a committed fixture and asserts the manifest (names,
//! roles, anchors, shapes, block counts), the compression ratios, and the
//! pointwise max-error bounds — and that the current writer still
//! reproduces the v3 fixtures **byte-for-byte**, and a snapshot of each v2
//! fixture's dataset as epoch 0 of the v3 fixture of that dataset.
//! The v1 and v2 fixtures are frozen: read, never written. Any accidental
//! change to the serialized layout fails here first.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cfc_bench::golden;
use cross_field_compression::core::archive::{ArchiveReader, ArchiveSource, FieldRole};
use cross_field_compression::tensor::{Dataset, Region};

fn fixture(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()))
}

fn assert_within_bounds(orig: &Dataset, dec: &Dataset, entries: &[(String, f64)]) {
    for (name, eb) in entries {
        let o = orig.expect_field(name);
        let d = dec.expect_field(name);
        let worst = o
            .as_slice()
            .iter()
            .zip(d.as_slice())
            .map(|(a, b)| (a - b).abs() as f64)
            .fold(0.0, f64::max);
        assert!(
            worst <= eb * (1.0 + 1e-9),
            "{name}: worst error {worst} exceeds bound {eb}"
        );
    }
}

#[test]
fn v1_fixture_decodes_with_expected_manifest() {
    let bytes = fixture("small_v1.cfar");
    let reader = ArchiveReader::new(&bytes).expect("parse v1");
    assert_eq!(reader.version(), 1);
    assert_eq!(reader.name(), "GOLDEN");

    let names: Vec<&str> = reader.entries().iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, ["T", "P", "RH"]);
    let roles: Vec<FieldRole> = reader.entries().iter().map(|e| e.role).collect();
    assert_eq!(
        roles,
        [FieldRole::Anchor, FieldRole::Anchor, FieldRole::Target]
    );
    assert_eq!(reader.entries()[2].anchors, ["T", "P"]);
    for e in reader.entries() {
        assert!(e.eb_abs > 0.0 && e.eb_abs.is_finite());
        assert_eq!(e.n_blocks(), 1, "v1 entries are monolithic");
        assert_eq!(e.shape(), None, "v1 manifests predate the shape column");
        assert!(e.stream_len() > 0);
    }
    // the whole archive compresses (32*32 * 3 fields * 4 bytes raw)
    let raw = 32 * 32 * 3 * 4;
    assert!(bytes.len() < raw, "fixture must actually compress");

    let ds = golden::golden_dataset();
    let dec = reader.decode_all().expect("decode v1");
    assert_eq!(dec.field_names(), ds.field_names());
    let bounds: Vec<(String, f64)> = reader
        .entries()
        .iter()
        .map(|e| (e.name.clone(), e.eb_abs))
        .collect();
    assert_within_bounds(&ds, &dec, &bounds);
}

#[test]
fn v1_layout_is_reproducible_byte_for_byte() {
    // the frozen v1 writer must keep producing the committed bytes — this
    // is what lets `make_golden` regenerate the fixture forever
    let bytes = fixture("small_v1.cfar");
    assert_eq!(
        golden::write_v1(&golden::golden_dataset()),
        bytes,
        "write_v1 drifted from the committed v1 fixture"
    );
}

#[test]
fn v2_fixture_decodes_with_expected_manifest() {
    let bytes = fixture("small_v2.cfar");
    let reader = ArchiveReader::new(&bytes).expect("parse v2");
    assert_eq!(reader.version(), 2);
    assert_eq!(reader.name(), "GOLDEN");

    let ds = golden::golden_dataset();
    for e in reader.entries() {
        assert_eq!(e.shape(), Some(ds.shape()), "v2 manifests record shape");
        assert_eq!(e.n_blocks(), 4, "32 rows at 8 rows/block");
        let blocks: usize = (0..e.n_blocks()).filter_map(|i| e.block_len(i)).sum();
        assert!(
            e.stream_len() >= blocks,
            "payload must cover its blocks (plus meta for targets)"
        );
    }
    let rh = &reader.entries()[2];
    assert_eq!(rh.role, FieldRole::Target);
    assert_eq!(rh.anchors, ["T", "P"]);

    let dec = reader.decode_all().expect("decode v2");
    let bounds: Vec<(String, f64)> = reader
        .entries()
        .iter()
        .map(|e| (e.name.clone(), e.eb_abs))
        .collect();
    assert_within_bounds(&ds, &dec, &bounds);

    // per-field ratio sanity: baseline fields compress against raw f32;
    // the target's payload is dominated by its embedded CFNN on a field
    // this tiny (the paper's model-overhead effect), so only assert it is
    // present and bounded
    let n = ds.shape().len();
    for e in reader.entries() {
        let ratio = (n * 4) as f64 / e.stream_len() as f64;
        if e.role == FieldRole::Target {
            assert!(ratio > 0.1, "{}: ratio {ratio} implausibly low", e.name);
        } else {
            assert!(ratio > 1.0, "{}: ratio {ratio} too low", e.name);
        }
    }
}

/// `snapshot` is epoch 0 of the committed series fixture `name`, byte for
/// byte, under a header that differs from the fixture's only in its epoch
/// count and keyframe interval: a snapshot is a one-epoch series.
fn assert_snapshot_is_epoch_0_of(snapshot: &[u8], name: &str) {
    let series = fixture(name);
    let reader = ArchiveReader::new(&series).expect("parse series");
    let snap = ArchiveReader::new(snapshot).expect("parse snapshot");
    assert_eq!((snap.version(), snap.n_epochs()), (3, 1));
    // header: magic(4) version(2) name(2 + len), then n_epochs,
    // keyframe_interval and n_fields, a u32 each
    let counts_at = 4 + 2 + 2 + reader.name().len();
    let header_len = counts_at + 12;
    let last = &reader.entries()[reader.fields_per_epoch() - 1];
    let (off, len) = last.block_span(last.n_blocks() - 1).expect("span");
    let epoch0_end = off as usize + len;
    assert_eq!(
        snapshot[..counts_at],
        series[..counts_at],
        "{name}: magic, version, name"
    );
    assert_eq!(
        snapshot[counts_at + 8..header_len],
        series[counts_at + 8..header_len],
        "{name}: field count"
    );
    assert_eq!(snapshot.len(), epoch0_end, "{name}: epoch 0 length");
    assert!(
        snapshot[header_len..] == series[header_len..epoch0_end],
        "the production writer's snapshot drifted from epoch 0 of the committed {name}"
    );
}

#[test]
fn v2_writer_reproduces_fixture_byte_for_byte() {
    // the v2 fixture is frozen: the writer emits the same snapshot as a
    // one-epoch v3 archive, which is epoch 0 of the v3 keyframe fixture
    let written = golden::golden_builder()
        .chunk_elements(golden::GOLDEN_CHUNK_ELEMENTS)
        .build()
        .write(&golden::golden_dataset())
        .expect("write");
    assert_snapshot_is_epoch_0_of(&written, "small_v3_keyframes.cfar");
}

#[test]
fn partial_block_fixture_accounts_exactly() {
    let bytes = fixture("partial_v2.cfar");
    let reader = ArchiveReader::new(&bytes).expect("parse");
    assert_eq!(reader.version(), 2);
    let ds = golden::golden_dataset_3d();
    for e in reader.entries() {
        // depth 5 at 2 slabs/block → 3 blocks, last partial
        assert_eq!(e.n_blocks(), 3);
        let blocks: usize = (0..e.n_blocks()).filter_map(|i| e.block_len(i)).sum();
        assert_eq!(
            e.stream_len(),
            blocks,
            "baseline fields carry no meta; payload must equal Σ block lens"
        );
    }
    let written = golden::golden_partial_builder()
        .build()
        .write(&ds)
        .expect("write");
    assert_snapshot_is_epoch_0_of(&written, "partial_v3.cfar");

    let dec = reader.decode_all().expect("decode");
    let bounds: Vec<(String, f64)> = reader
        .entries()
        .iter()
        .map(|e| (e.name.clone(), e.eb_abs))
        .collect();
    assert_within_bounds(&ds, &dec, &bounds);
    // the partial final block decodes standalone with the right shape
    let last = reader.decode_block("U", 2).expect("partial block");
    assert_eq!(last.shape().dims(), &[1, 12, 12]);
}

#[test]
fn v3_keyframe_fixture_decodes_with_expected_manifest() {
    // keyframe_interval(1): every epoch is a keyframe, no delta entries
    let bytes = fixture("small_v3_keyframes.cfar");
    let reader = ArchiveReader::new(&bytes).expect("parse v3");
    assert_eq!(reader.version(), 3);
    assert_eq!(reader.name(), "GOLDEN");
    assert_eq!(reader.n_epochs(), 3);
    assert_eq!(reader.keyframe_interval(), 1);
    assert_eq!(reader.fields_per_epoch(), 3);
    assert_eq!(reader.entries().len(), 9, "3 epochs × 3 fields, flat");

    for (i, e) in reader.entries().iter().enumerate() {
        assert_eq!(e.epoch, i / 3, "entries are laid out epoch-major");
        assert_ne!(e.role, FieldRole::Delta, "keyframe-only archive");
        assert_eq!(e.n_blocks(), 4, "32 rows at 8 rows/block");
    }
    for epoch in 0..3 {
        let orig = golden::golden_epoch_dataset(epoch as f32);
        let dec = reader.decode_epoch(epoch).expect("decode epoch");
        let bounds: Vec<(String, f64)> = reader.entries()[epoch * 3..(epoch + 1) * 3]
            .iter()
            .map(|e| (e.name.clone(), e.eb_abs))
            .collect();
        assert_within_bounds(&orig, &dec, &bounds);
    }
}

#[test]
fn v3_delta_fixture_decodes_with_expected_manifest() {
    // interval 3 over 6 epochs: keyframes at 0 and 3, two-delta chains after
    let bytes = fixture("small_v3_delta.cfar");
    let reader = ArchiveReader::new(&bytes).expect("parse v3");
    assert_eq!(reader.version(), 3);
    assert_eq!(reader.n_epochs(), golden::GOLDEN_V3_EPOCHS);
    assert_eq!(reader.keyframe_interval(), golden::GOLDEN_KEYFRAME_INTERVAL);
    assert_eq!(reader.entries().len(), 18);

    for e in reader.entries() {
        if e.epoch % golden::GOLDEN_KEYFRAME_INTERVAL == 0 {
            assert_ne!(e.role, FieldRole::Delta, "epoch {} is a keyframe", e.epoch);
        } else {
            assert_eq!(e.role, FieldRole::Delta, "epoch {} is a delta", e.epoch);
            assert!(e.anchors.is_empty(), "the anchor is implicit (epoch−1)");
            assert!(
                e.stream_len() > 0 && e.meta_len() > 0,
                "delta entries carry hybrid weights in the meta area"
            );
        }
    }
    for epoch in 0..golden::GOLDEN_V3_EPOCHS {
        let orig = golden::golden_epoch_dataset(epoch as f32);
        let dec = reader.decode_epoch(epoch).expect("decode epoch");
        let bounds: Vec<(String, f64)> = reader.entries()[epoch * 3..(epoch + 1) * 3]
            .iter()
            .map(|e| (e.name.clone(), e.eb_abs))
            .collect();
        assert_within_bounds(&orig, &dec, &bounds);
    }
}

#[test]
fn v3_writers_reproduce_fixtures_byte_for_byte() {
    let keyframes = golden::golden_builder()
        .chunk_elements(golden::GOLDEN_CHUNK_ELEMENTS)
        .keyframe_interval(1)
        .build()
        .write_epochs(&golden::golden_epochs(3))
        .expect("write");
    assert_eq!(
        keyframes,
        fixture("small_v3_keyframes.cfar"),
        "the production writer drifted from the committed v3 keyframe \
         fixture — if the format change is intentional, bump \
         ARCHIVE_VERSION and regenerate with make_golden"
    );

    let delta = golden::golden_builder()
        .chunk_elements(golden::GOLDEN_CHUNK_ELEMENTS)
        .keyframe_interval(golden::GOLDEN_KEYFRAME_INTERVAL)
        .build()
        .write_epochs(&golden::golden_epochs(golden::GOLDEN_V3_EPOCHS))
        .expect("write");
    assert_eq!(
        delta,
        fixture("small_v3_delta.cfar"),
        "the production writer drifted from the committed v3 delta fixture"
    );
}

#[test]
fn v3_partial_block_fixture_accounts_exactly() {
    let bytes = fixture("partial_v3.cfar");
    let reader = ArchiveReader::new(&bytes).expect("parse");
    assert_eq!(reader.version(), 3);
    assert_eq!(reader.n_epochs(), 4);
    assert_eq!(reader.keyframe_interval(), 2);
    for e in reader.entries() {
        // depth 5 at 2 slabs/block → 3 blocks, last partial — in every epoch
        assert_eq!(e.n_blocks(), 3);
    }
    let written = golden::golden_partial_builder()
        .keyframe_interval(2)
        .build()
        .write_epochs(&golden::golden_epochs_3d(4))
        .expect("write");
    assert_eq!(written, bytes, "v3 partial-block fixture drifted");

    let orig = golden::golden_epochs_3d(4);
    for epoch in 0..4 {
        let dec = reader.decode_epoch(epoch).expect("decode");
        let bounds: Vec<(String, f64)> = reader.entries()[epoch * 2..(epoch + 1) * 2]
            .iter()
            .map(|e| (e.name.clone(), e.eb_abs))
            .collect();
        assert_within_bounds(&orig[epoch], &dec, &bounds);
    }
    // a partial final block of a *delta* epoch decodes standalone
    let last = reader.decode_block_at("U", 2, 3).expect("partial block");
    assert_eq!(last.shape().dims(), &[1, 12, 12]);
}

/// [`ArchiveSource`] wrapper that counts every byte actually read — the
/// instrument behind the random-access acceptance test.
struct CountingReader<R> {
    inner: R,
    read: Arc<AtomicU64>,
}

impl<R: ArchiveSource> ArchiveSource for CountingReader<R> {
    fn len(&self) -> std::io::Result<u64> {
        self.inner.len()
    }

    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        self.inner.read_exact_at(offset, buf)?;
        self.read.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }
}

#[test]
fn decode_region_reads_strictly_fewer_bytes_than_full_decode() {
    // acceptance criterion: on a multi-field dataset ≥ 4 chunks long,
    // random access must touch fewer bytes while matching decode_all
    let bytes = fixture("small_v2.cfar");

    fn count_with<T>(
        bytes: &[u8],
        f: impl FnOnce(&ArchiveReader<CountingReader<std::io::Cursor<Vec<u8>>>>) -> T,
    ) -> (T, u64, u64) {
        let read = Arc::new(AtomicU64::new(0));
        let src = CountingReader {
            inner: std::io::Cursor::new(bytes.to_vec()),
            read: Arc::clone(&read),
        };
        let reader = ArchiveReader::open(src).expect("parse");
        let parsed = read.load(Ordering::Relaxed); // TOC cost, shared by both
        let out = f(&reader);
        (out, read.load(Ordering::Relaxed), parsed)
    }

    let (full, full_bytes, _) = count_with(&bytes, |r| {
        let dec = r.decode_all().expect("decode_all");
        (
            dec.expect_field("T").clone(),
            dec.expect_field("RH").clone(),
        )
    });
    let (full_t, full_rh) = full;

    let region = Region::d2(9, 15, 4, 28); // block 1 (rows 8..16) only

    // cross-field target: reads its block + the matching anchor blocks +
    // the field meta (embedded model) — strictly fewer bytes than a full
    // decode, and the same samples
    let (rh_region, rh_bytes, _) = count_with(&bytes, |r| {
        r.decode_region("RH", &region).expect("decode_region RH")
    });
    assert!(
        rh_bytes < full_bytes,
        "target region decode read {rh_bytes} bytes, full decode {full_bytes}"
    );
    assert_eq!(
        rh_region,
        full_rh.crop(&region),
        "random-access decode must match the full decode exactly"
    );

    // baseline field: one block out of twelve, no meta — the payload
    // traffic collapses to a small fraction of the full decode
    let (t_region, t_bytes, parsed) = count_with(&bytes, |r| {
        r.decode_region("T", &region).expect("decode_region T")
    });
    assert!(
        t_bytes.saturating_sub(parsed) * 4 < full_bytes.saturating_sub(parsed),
        "baseline random access should touch well under a quarter of the \
         payload ({t_bytes} vs {full_bytes}, TOC {parsed})"
    );
    assert_eq!(t_region, full_t.crop(&region));
}
