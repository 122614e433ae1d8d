//! Unit tests for the archive subsystem: writer/reader roundtrips, plan
//! validation, corruption handling, per-call anchor dedup, and the
//! concurrent [`ArchiveStore`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cfc_sz::CfcError;
use cfc_tensor::{Dataset, Field, Region, Shape};

use super::*;
use crate::config::TrainConfig;

/// A small coupled 3-field dataset: T and P are anchors, RH is a
/// nonlinear function of both plus its own smooth structure.
fn snapshot(rows: usize, cols: usize) -> Dataset {
    let shape = Shape::d2(rows, cols);
    let t = Field::from_fn(shape, |i| {
        ((i[0] as f32) * 0.13).sin() * 15.0 + ((i[1] as f32) * 0.09).cos() * 9.0 + 280.0
    });
    let p = Field::from_fn(shape, |i| {
        1000.0 - (i[0] as f32) * 0.8 + ((i[1] as f32) * 0.05).sin() * 3.0
    });
    let rh = Field::from_vec(
        shape,
        t.as_slice()
            .iter()
            .zip(p.as_slice())
            .map(|(&tv, &pv)| 0.4 * (tv - 280.0) + 0.05 * (pv - 1000.0) + 50.0)
            .collect(),
    );
    let mut ds = Dataset::new("SNAP", shape);
    ds.push("T", t);
    ds.push("P", p);
    ds.push("RH", rh);
    ds
}

fn check_bound(orig: &Field, dec: &Field, eb: f64) {
    for (a, b) in orig.as_slice().iter().zip(dec.as_slice()) {
        assert!(
            ((a - b).abs() as f64) <= eb * (1.0 + 1e-9),
            "bound violated: |{a} − {b}| > {eb}"
        );
    }
}

fn small_train() -> TrainConfig {
    TrainConfig::fast()
}

/// `bytes` holds a cross-field target row. On fields this small the writer
/// demotes a planned target, so the tests whose subject is a target row
/// write with [`ArchiveBuilder::always_cross_field`] and check here that
/// the row is there.
pub(super) fn assert_has_target(bytes: &[u8]) {
    let reader = ArchiveReader::new(bytes).unwrap();
    assert!(
        reader.entries().iter().any(|e| e.role == FieldRole::Target),
        "the archive holds no target row"
    );
}

#[test]
fn archive_roundtrips_every_field_within_bound() {
    let ds = snapshot(40, 40);
    let mut bytes = Vec::new();
    let report = ArchiveBuilder::relative(1e-3)
        .train_config(small_train())
        .cross_field("RH", &["T", "P"])
        .always_cross_field()
        .build()
        .write_to(&ds, &mut bytes)
        .unwrap();
    assert_has_target(&bytes);
    assert_eq!(report.fields.len(), 3);
    assert!(report.ratio() > 1.0, "ratio {}", report.ratio());

    let reader = ArchiveReader::new(&bytes).unwrap();
    assert_eq!(reader.name(), "SNAP");
    // a snapshot is a one-epoch v3 archive
    assert_eq!(reader.version(), 3);
    assert_eq!(reader.n_epochs(), 1);
    let dec = reader.decode_all().unwrap();
    assert_eq!(dec.field_names(), ds.field_names());
    for fr in &report.fields {
        check_bound(
            ds.expect_field(&fr.name),
            dec.expect_field(&fr.name),
            fr.eb_abs,
        );
    }
}

#[test]
fn chunked_archive_roundtrips_and_blocks_match_slabs() {
    let ds = snapshot(40, 40);
    // 8 rows per block → 5 blocks
    let mut bytes = Vec::new();
    let report = ArchiveBuilder::relative(1e-3)
        .train_config(small_train())
        .cross_field("RH", &["T", "P"])
        .always_cross_field()
        .chunk_elements(8 * 40)
        .build()
        .write_to(&ds, &mut bytes)
        .unwrap();
    assert_has_target(&bytes);
    assert!(report.fields.iter().all(|f| f.n_blocks == 5), "{report:?}");

    let reader = ArchiveReader::new(&bytes).unwrap();
    let dec = reader.decode_all().unwrap();
    for fr in &report.fields {
        check_bound(
            ds.expect_field(&fr.name),
            dec.expect_field(&fr.name),
            fr.eb_abs,
        );
        // every block equals the matching slab of the full decode
        let full = dec.expect_field(&fr.name);
        for bi in 0..5 {
            let block = reader.decode_block(&fr.name, bi).unwrap();
            assert_eq!(
                block.as_slice(),
                full.slab(bi * 8, (bi + 1) * 8).as_slice(),
                "block {bi} of {}",
                fr.name
            );
        }
    }
}

#[test]
fn decode_region_matches_decode_all_crop() {
    let ds = snapshot(36, 24);
    let bytes = ArchiveBuilder::relative(1e-3)
        .train_config(small_train())
        .cross_field("RH", &["T", "P"])
        .always_cross_field()
        .chunk_elements(6 * 24)
        .build()
        .write(&ds)
        .unwrap();
    assert_has_target(&bytes);
    let reader = ArchiveReader::new(&bytes).unwrap();
    let dec = reader.decode_all().unwrap();
    for name in ["T", "P", "RH"] {
        for region in [
            Region::d2(0, 36, 0, 24),
            Region::d2(5, 19, 3, 20),
            Region::d2(30, 36, 0, 24),
            Region::d2(7, 8, 11, 12),
        ] {
            let got = reader.decode_region(name, &region).unwrap();
            let want = dec.expect_field(name).crop(&region);
            assert_eq!(got, want, "{name} {region}");
        }
    }
    // region outside the field is a typed error, wrapped with the field
    let err = reader
        .decode_region("T", &Region::d2(0, 37, 0, 24))
        .unwrap_err();
    assert!(
        matches!(err.root_cause(), CfcError::InvalidInput(_)),
        "{err:?}"
    );
    assert!(
        matches!(&err, CfcError::InField { field, .. } if field == "T"),
        "{err:?}"
    );
    assert!(reader
        .decode_region("missing", &Region::d2(0, 1, 0, 1))
        .is_err());
}

#[test]
fn single_partial_block_accounting_is_consistent() {
    // dim0 (9) smaller than the chunk (16 slabs) → one partial block
    let ds = snapshot(9, 40);
    let mut bytes = Vec::new();
    let report = ArchiveBuilder::relative(1e-3)
        .chunk_elements(16 * 40)
        .build()
        .write_to(&ds, &mut bytes)
        .unwrap();
    assert!(report.fields.iter().all(|f| f.n_blocks == 1));
    let reader = ArchiveReader::new(&bytes).unwrap();
    for e in reader.entries() {
        assert_eq!(e.n_blocks(), 1);
        // stream_len == meta + Σ block lens, exactly
        let blocks: usize = (0..e.n_blocks()).map(|i| e.block_len(i).unwrap()).sum();
        assert_eq!(e.stream_len(), e.meta_len + blocks);
        let fr = report.fields.iter().find(|f| f.name == e.name).unwrap();
        assert_eq!(fr.bytes, e.stream_len());
        assert!(fr.ratio(ds.shape().len()) > 0.0);
        assert_eq!(fr.ratio(0), 0.0, "zero-sample ratio must not divide");
    }
    let dec = reader.decode_all().unwrap();
    assert_eq!(dec.shape(), ds.shape());
}

#[test]
fn report_ratio_guards_degenerate_division() {
    let empty = ArchiveReport {
        fields: Vec::new(),
        raw_bytes: 0,
        archive_bytes: 0,
    };
    assert_eq!(empty.ratio(), 0.0);
    let no_raw = ArchiveReport {
        fields: Vec::new(),
        raw_bytes: 0,
        archive_bytes: 100,
    };
    assert_eq!(no_raw.ratio(), 0.0);
    let fr = FieldReport {
        name: "x".into(),
        role: FieldRole::Independent,
        bytes: 0,
        n_blocks: 1,
        eb_abs: 1e-3,
    };
    assert_eq!(fr.ratio(100), 0.0, "zero-byte payload must not divide");
}

#[test]
fn write_to_matches_write_and_streams_to_files() {
    let ds = snapshot(24, 24);
    let builder = ArchiveBuilder::relative(1e-3)
        .train_config(small_train())
        .cross_field("RH", &["T"])
        .chunk_elements(8 * 24);
    let in_memory = builder.clone().build().write(&ds).unwrap();

    let dir = std::env::temp_dir().join("cfc_archive_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snap.cfar");
    let file = std::fs::File::create(&path).unwrap();
    builder
        .build()
        .write_to(&ds, std::io::BufWriter::new(file))
        .unwrap();
    let on_disk = std::fs::read(&path).unwrap();
    assert_eq!(in_memory, on_disk, "sink choice must not change bytes");

    let reader = ArchiveReader::open(std::fs::File::open(&path).unwrap()).unwrap();
    let dec = reader.decode_all().unwrap();
    assert_eq!(dec.field_names(), ds.field_names());
    std::fs::remove_file(&path).ok();
}

#[test]
fn flipped_block_bit_is_a_checksum_error_naming_the_field() {
    let ds = snapshot(24, 24);
    let bytes = ArchiveBuilder::relative(1e-3)
        .chunk_elements(8 * 24)
        .build()
        .write(&ds)
        .unwrap();
    let reader = ArchiveReader::new(&bytes).unwrap();
    // flip one bit inside the last block payload of the last field
    // (payload areas sit at the end of each field record)
    let e = reader.entries().last().unwrap();
    let off = (e.payload_base as usize) + e.payload_len - 1;
    let mut bad = bytes.clone();
    bad[off] ^= 0x01;
    let bad_reader = ArchiveReader::new(&bad).unwrap();
    let idx = e.n_blocks() - 1;
    let name = e.name.clone();
    let err = bad_reader.decode_block(&name, idx).unwrap_err();
    assert!(
        matches!(err.root_cause(), CfcError::ChecksumMismatch { .. }),
        "{err:?}"
    );
    // the wrapper names the failing field and block
    assert!(
        matches!(
            &err,
            CfcError::InField { field, block: Some(b), .. } if *field == name && *b == idx
        ),
        "{err:?}"
    );
}

#[test]
fn roles_recorded_in_manifest() {
    let ds = snapshot(24, 24);
    let bytes = ArchiveBuilder::relative(1e-2)
        .train_config(small_train())
        .cross_field("RH", &["T"])
        .always_cross_field()
        .build()
        .write(&ds)
        .unwrap();
    let reader = ArchiveReader::new(&bytes).unwrap();
    let role_of = |n: &str| reader.entries().iter().find(|e| e.name == n).unwrap().role;
    assert_eq!(role_of("T"), FieldRole::Anchor);
    assert_eq!(role_of("P"), FieldRole::Independent);
    assert_eq!(role_of("RH"), FieldRole::Target);
    assert_eq!(
        reader
            .entries()
            .iter()
            .find(|e| e.name == "RH")
            .unwrap()
            .anchors,
        vec!["T".to_string()]
    );
    // v2 manifests also record the shape
    assert_eq!(reader.entries()[0].shape(), Some(ds.shape()));
}

#[test]
fn decode_field_reads_one_target() {
    let ds = snapshot(24, 24);
    let builder = ArchiveBuilder::relative(1e-3)
        .train_config(small_train())
        .cross_field("RH", &["T", "P"])
        .always_cross_field();
    let mut bytes = Vec::new();
    let report = builder.build().write_to(&ds, &mut bytes).unwrap();
    assert_has_target(&bytes);
    let reader = ArchiveReader::new(&bytes).unwrap();
    let rh = reader.read(&ReadRequest::new("RH")).unwrap().data;
    let eb = report
        .fields
        .iter()
        .find(|f| f.name == "RH")
        .unwrap()
        .eb_abs;
    check_bound(ds.expect_field("RH"), &rh, eb);
    assert!(reader.read(&ReadRequest::new("missing")).is_err());
}

#[test]
fn plan_validation_rejects_bad_roles() {
    let ds = snapshot(16, 16);
    // unknown target
    let e = ArchiveBuilder::relative(1e-3)
        .cross_field("NOPE", &["T"])
        .build()
        .write(&ds);
    assert!(matches!(e, Err(CfcError::InvalidInput(_))), "{e:?}");
    // unknown anchor
    let e = ArchiveBuilder::relative(1e-3)
        .cross_field("RH", &["NOPE"])
        .build()
        .write(&ds);
    assert!(matches!(e, Err(CfcError::InvalidInput(_))), "{e:?}");
    // target anchored on another target
    let e = ArchiveBuilder::relative(1e-3)
        .train_config(small_train())
        .cross_field("RH", &["T"])
        .cross_field("P", &["RH"])
        .build()
        .write(&ds);
    assert!(matches!(e, Err(CfcError::InvalidInput(_))), "{e:?}");
    // self-anchor
    let e = ArchiveBuilder::relative(1e-3)
        .cross_field("RH", &["RH"])
        .build()
        .write(&ds);
    assert!(matches!(e, Err(CfcError::InvalidInput(_))), "{e:?}");
}

#[test]
fn oversized_patch_is_a_plan_error_not_a_panic() {
    // default TrainConfig has patch 24; on a 24x24 dataset the trainer
    // would assert inside a worker thread — must surface as Err instead
    let ds = snapshot(24, 24);
    let e = ArchiveBuilder::relative(1e-3)
        .cross_field("RH", &["T"])
        .build()
        .write(&ds);
    assert!(matches!(e, Err(CfcError::InvalidInput(_))), "{e:?}");
}

#[test]
fn oversized_field_name_is_an_error() {
    let shape = Shape::d2(8, 8);
    let mut ds = Dataset::new("N", shape);
    ds.push("A".repeat(70_000), Field::zeros(shape));
    let e = ArchiveBuilder::relative(1e-3).build().write(&ds);
    assert!(matches!(e, Err(CfcError::InvalidInput(_))), "{e:?}");
}

#[test]
fn all_baseline_plan_needs_no_roles() {
    let ds = snapshot(20, 20);
    let mut bytes = Vec::new();
    let report = ArchiveBuilder::relative(1e-3)
        .build()
        .write_to(&ds, &mut bytes)
        .unwrap();
    assert!(report
        .fields
        .iter()
        .all(|f| f.role == FieldRole::Independent));
    let dec = ArchiveReader::new(&bytes).unwrap().decode_all().unwrap();
    for fr in &report.fields {
        check_bound(
            ds.expect_field(&fr.name),
            dec.expect_field(&fr.name),
            fr.eb_abs,
        );
    }
}

#[test]
fn parallel_and_serial_writes_are_bit_identical() {
    let ds = snapshot(32, 32);
    let build = |threads| {
        ArchiveBuilder::relative(1e-3)
            .train_config(small_train())
            .cross_field("RH", &["T", "P"])
            .always_cross_field()
            .chunk_elements(8 * 32)
            .threads(threads)
            .build()
            .write(&ds)
            .unwrap()
    };
    assert_has_target(&build(1));
    assert_eq!(build(1), build(4), "thread count must not change bytes");
}

#[test]
fn three_d_datasets_chunk_along_depth() {
    let shape = Shape::d3(10, 12, 12);
    let u = Field::from_fn(shape, |i| {
        (i[0] as f32) * 0.7 + ((i[1] as f32) * 0.3).sin() * 5.0 + (i[2] as f32) * 0.1
    });
    let v = u.map(|x| 0.6 * x + 2.0);
    let mut ds = Dataset::new("D3", shape);
    ds.push("U", u);
    ds.push("V", v);
    let mut bytes = Vec::new();
    let report = ArchiveBuilder::relative(1e-3)
        .chunk_elements(3 * 12 * 12)
        .build()
        .write_to(&ds, &mut bytes)
        .unwrap();
    // 10 slabs at 3/block → 4 blocks, last one partial
    assert!(report.fields.iter().all(|f| f.n_blocks == 4));
    let reader = ArchiveReader::new(&bytes).unwrap();
    let dec = reader.decode_all().unwrap();
    for fr in &report.fields {
        check_bound(
            ds.expect_field(&fr.name),
            dec.expect_field(&fr.name),
            fr.eb_abs,
        );
    }
    let block = reader.decode_block("U", 3).unwrap();
    assert_eq!(block.shape(), Shape::d3(1, 12, 12));
    assert_eq!(
        block.as_slice(),
        dec.expect_field("U").slab(9, 10).as_slice()
    );
    let region = reader
        .decode_region("V", &Region::d3(2, 7, 1, 11, 3, 9))
        .unwrap();
    assert_eq!(
        region,
        dec.expect_field("V").crop(&Region::d3(2, 7, 1, 11, 3, 9))
    );
}

#[test]
fn corrupt_archives_error_not_panic() {
    let ds = snapshot(20, 20);
    let bytes = ArchiveBuilder::relative(1e-3)
        .train_config(small_train())
        .cross_field("RH", &["T"])
        .chunk_elements(5 * 20)
        .build()
        .write(&ds)
        .unwrap();
    // wrong magic
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(
        ArchiveReader::new(&bad),
        Err(CfcError::BadMagic { .. })
    ));
    // future version
    let mut bad = bytes.clone();
    bad[4] = 0xEE;
    assert!(matches!(
        ArchiveReader::new(&bad),
        Err(CfcError::UnsupportedVersion { .. })
    ));
    // every truncation point fails cleanly at parse or decode
    for cut in (0..bytes.len()).step_by(97) {
        match ArchiveReader::new(&bytes[..cut]) {
            Err(_) => {}
            Ok(r) => {
                let _ = r.decode_all();
            }
        }
    }
}

// ---------------------------------------------------------------------
// anchor-block dedup within a single decode call
// ---------------------------------------------------------------------

/// [`ArchiveSource`] wrapper counting every byte read from the source.
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

type CountingArchiveReader = ArchiveReader<CountingReader<std::io::Cursor<Vec<u8>>>>;

fn counting_reader(bytes: &[u8]) -> (CountingArchiveReader, Arc<AtomicU64>) {
    let read = Arc::new(AtomicU64::new(0));
    let src = CountingReader {
        inner: std::io::Cursor::new(bytes.to_vec()),
        read: Arc::clone(&read),
    };
    (ArchiveReader::open(src).expect("parse"), read)
}

#[test]
fn decode_region_reads_each_anchor_block_once_even_with_duplicate_anchors() {
    let ds = snapshot(40, 40);
    // RH deliberately lists T twice: the dependency walk must resolve
    // each distinct anchor block once, not once per mention
    let bytes = ArchiveBuilder::relative(1e-3)
        .train_config(small_train())
        .cross_field("RH", &["T", "T"])
        .always_cross_field()
        .chunk_elements(8 * 40)
        .build()
        .write(&ds)
        .unwrap();
    assert_has_target(&bytes);

    let (reader, read) = counting_reader(&bytes);
    let entry = |name: &str| reader.entries()[reader.entry_index(name).unwrap()].clone();
    let (rh, t) = (entry("RH"), entry("T"));
    let region = Region::d2(5, 30, 0, 40); // blocks 0..=3
    let after_toc = read.load(Ordering::Relaxed);
    let got = reader.decode_region("RH", &region).unwrap();
    let block_bytes = read.load(Ordering::Relaxed) - after_toc;

    // exactly: RH meta + RH blocks 0..=3 + T blocks 0..=3 (each ONCE)
    let expected: usize = rh.meta_len
        + (0..=3)
            .map(|bi| rh.block_len(bi).unwrap() + t.block_len(bi).unwrap())
            .sum::<usize>();
    assert_eq!(
        block_bytes, expected as u64,
        "duplicate anchors must not re-read anchor blocks within one call"
    );

    // and the samples are right
    let full = ArchiveReader::new(&bytes).unwrap().decode_all().unwrap();
    assert_eq!(got, full.expect_field("RH").crop(&region));
}

// ---------------------------------------------------------------------
// ArchiveStore
// ---------------------------------------------------------------------

fn chunked_cross_field_archive() -> (Dataset, Vec<u8>) {
    let ds = snapshot(40, 40);
    let bytes = ArchiveBuilder::relative(1e-3)
        .train_config(small_train())
        .cross_field("RH", &["T", "P"])
        .always_cross_field()
        .chunk_elements(8 * 40)
        .build()
        .write(&ds)
        .unwrap();
    assert_has_target(&bytes);
    (ds, bytes)
}

#[test]
fn store_serves_blocks_regions_and_fields_matching_reader() {
    let (_, bytes) = chunked_cross_field_archive();
    let plain = ArchiveReader::new(&bytes).unwrap().decode_all().unwrap();
    let store = ArchiveStore::new(ArchiveReader::new(&bytes).unwrap(), StoreConfig::default());

    for name in ["T", "P", "RH"] {
        assert_eq!(
            &store.read(&ReadRequest::new(name)).unwrap().data,
            plain.expect_field(name)
        );
        for bi in 0..5 {
            assert_eq!(
                store.decode_block(name, bi).unwrap().as_slice(),
                plain
                    .expect_field(name)
                    .slab(bi * 8, (bi + 1) * 8)
                    .as_slice()
            );
        }
        for region in [
            Region::d2(0, 40, 0, 40),
            Region::d2(5, 19, 3, 20),
            Region::d2(7, 8, 11, 12),
        ] {
            assert_eq!(
                store.decode_region(name, &region).unwrap(),
                plain.expect_field(name).crop(&region),
                "{name} {region}"
            );
        }
    }
    let stats = store.snapshot();
    assert!(stats.hits > 0, "warm reads must hit: {stats:?}");
    assert!(stats.cached_bytes > 0 && stats.cached_blocks > 0);
    assert_eq!(stats.capacity_bytes, StoreConfig::default().capacity_bytes);
    assert!(stats.hit_rate() > 0.0);
}

#[test]
fn store_warm_cache_decodes_each_block_once() {
    let (_, bytes) = chunked_cross_field_archive();
    let store = ArchiveStore::new(ArchiveReader::new(&bytes).unwrap(), StoreConfig::default());
    let region = Region::d2(5, 30, 0, 40); // RH blocks 0..=3 (+ T, P anchors)
    let first = store.decode_region("RH", &region).unwrap();
    let cold = store.snapshot();
    // 4 RH blocks + 4 T blocks + 4 P blocks decoded, nothing twice
    assert_eq!(cold.misses, 12, "{cold:?}");
    assert_eq!(cold.insertions, 12, "{cold:?}");

    for _ in 0..5 {
        assert_eq!(store.decode_region("RH", &region).unwrap(), first);
    }
    let warm = store.snapshot();
    assert_eq!(warm.misses, cold.misses, "warm reads must not decode");
    assert_eq!(warm.hits, cold.hits + 5 * 4, "5 repeats × 4 target blocks");
    assert_eq!(warm.evictions, 0);
}

#[test]
fn store_respects_byte_budget_and_evicts_lru() {
    let (_, bytes) = chunked_cross_field_archive();
    // every block is 8×40 f32 = 1280 B; budget fits exactly two blocks.
    // Blocks 0..5 in order are a scan: prefetch workers would insert (and
    // evict) beside the demand reads, and the counts below are exact
    let store = ArchiveStore::new(
        ArchiveReader::new(&bytes).unwrap(),
        StoreConfig::with_capacity(2 * 8 * 40 * 4).no_prefetch(),
    );
    for bi in 0..5 {
        store.decode_block("T", bi).unwrap();
    }
    let stats = store.snapshot();
    assert!(stats.cached_bytes <= stats.capacity_bytes, "{stats:?}");
    assert_eq!(stats.cached_blocks, 2, "{stats:?}");
    assert_eq!(stats.evictions, 3, "{stats:?}");
    // most-recent blocks survive: 3 and 4 hit, 0 misses again
    store.decode_block("T", 4).unwrap();
    store.decode_block("T", 3).unwrap();
    let warm = store.snapshot();
    assert_eq!(warm.hits, stats.hits + 2);
    store.decode_block("T", 0).unwrap();
    assert_eq!(store.snapshot().misses, warm.misses + 1);
}

#[test]
fn store_with_zero_capacity_never_caches_but_matches() {
    let (_, bytes) = chunked_cross_field_archive();
    let plain = ArchiveReader::new(&bytes).unwrap().decode_all().unwrap();
    let store = ArchiveStore::new(ArchiveReader::new(&bytes).unwrap(), StoreConfig::uncached());
    let region = Region::d2(5, 30, 3, 20);
    for _ in 0..3 {
        assert_eq!(
            store.decode_region("RH", &region).unwrap(),
            plain.expect_field("RH").crop(&region)
        );
    }
    let stats = store.snapshot();
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.cached_blocks, 0);
    assert_eq!(stats.cached_bytes, 0);
    assert!(stats.misses > 0);
}

#[test]
fn store_clear_drops_blocks_but_keeps_counters() {
    let (_, bytes) = chunked_cross_field_archive();
    let store = ArchiveStore::new(ArchiveReader::new(&bytes).unwrap(), StoreConfig::default());
    store.read(&ReadRequest::new("T")).unwrap();
    let before = store.snapshot();
    assert!(before.cached_blocks > 0);
    store.purge();
    let after = store.snapshot();
    assert_eq!(after.cached_blocks, 0);
    assert_eq!(after.cached_bytes, 0);
    assert_eq!(after.misses, before.misses);
    // decoding again repopulates
    store.read(&ReadRequest::new("T")).unwrap();
    assert!(store.snapshot().cached_blocks > 0);
}

#[test]
fn store_concurrent_same_block_decodes_once() {
    let (_, bytes) = chunked_cross_field_archive();
    let store = Arc::new(ArchiveStore::new(
        ArchiveReader::new(&bytes).unwrap(),
        StoreConfig::default(),
    ));
    let n_threads = 8;
    std::thread::scope(|s| {
        for _ in 0..n_threads {
            let store = Arc::clone(&store);
            s.spawn(move || {
                for _ in 0..4 {
                    store.decode_block("RH", 2).unwrap();
                }
            });
        }
    });
    let stats = store.snapshot();
    // RH block 2 + anchors T and P block 2: exactly 3 decodes total,
    // no matter how the threads interleave (single-flight)
    assert_eq!(stats.misses, 3, "{stats:?}");
    // every other request (8 threads × 4 calls − 1 decoder) is a hit,
    // whether it waited for the in-flight decode or arrived later
    assert_eq!(stats.hits, 8 * 4 - 1, "{stats:?}");
}

#[test]
fn store_bad_requests_are_typed_errors() {
    let (_, bytes) = chunked_cross_field_archive();
    let store = ArchiveStore::new(ArchiveReader::new(&bytes).unwrap(), StoreConfig::default());
    assert!(store.decode_block("missing", 0).is_err());
    let err = store.decode_block("T", 99).unwrap_err();
    assert!(
        matches!(err.root_cause(), CfcError::InvalidInput(_)),
        "{err:?}"
    );
    assert!(store.decode_region("T", &Region::d2(0, 41, 0, 40)).is_err());
    // a corrupt block errors through the store too, naming the field
    let reader = ArchiveReader::new(&bytes).unwrap();
    let e = reader.entries().last().unwrap();
    let (off, len) = e.block_span(e.n_blocks() - 1).unwrap();
    let mut bad = bytes.clone();
    bad[off as usize + len - 1] ^= 1;
    let bad_store = ArchiveStore::new(ArchiveReader::new(&bad).unwrap(), StoreConfig::default());
    let err = bad_store
        .decode_block(&e.name, e.n_blocks() - 1)
        .unwrap_err();
    assert!(
        matches!(err.root_cause(), CfcError::ChecksumMismatch { .. }),
        "{err:?}"
    );
}

// ---------------------------------------------------------------------
// v3 temporal archives
// ---------------------------------------------------------------------

/// `n` smoothly-evolving snapshots of the 3-field dataset: the same
/// structure drifts a little each epoch, so consecutive epochs are
/// highly correlated — the case temporal deltas exist for.
fn evolving(rows: usize, cols: usize, n: usize) -> Vec<Dataset> {
    (0..n)
        .map(|e| {
            let t0 = e as f32 * 0.35;
            let shape = Shape::d2(rows, cols);
            let t = Field::from_fn(shape, |i| {
                ((i[0] as f32) * 0.13 + t0 * 0.1).sin() * 15.0
                    + ((i[1] as f32) * 0.09 - t0 * 0.07).cos() * 9.0
                    + 280.0
                    + t0
            });
            let p = Field::from_fn(shape, |i| {
                1000.0 - (i[0] as f32) * 0.8 + ((i[1] as f32) * 0.05 + t0 * 0.2).sin() * 3.0
            });
            let rh = Field::from_vec(
                shape,
                t.as_slice()
                    .iter()
                    .zip(p.as_slice())
                    .map(|(&tv, &pv)| 0.4 * (tv - 280.0) + 0.05 * (pv - 1000.0) + 50.0)
                    .collect(),
            );
            let mut ds = Dataset::new("SNAP", shape);
            ds.push("T", t);
            ds.push("P", p);
            ds.push("RH", rh);
            ds
        })
        .collect()
}

#[test]
fn temporal_archive_roundtrips_and_is_epoch_addressable() {
    let snaps = evolving(36, 30, 7);
    let mut bytes = Vec::new();
    let report = ArchiveBuilder::relative(1e-3)
        .train_config(small_train())
        .cross_field("RH", &["T", "P"])
        .always_cross_field()
        .chunk_elements(6 * 30)
        .keyframe_interval(3)
        .build()
        .write_epochs_to(&snaps, &mut bytes)
        .unwrap();
    assert_has_target(&bytes);
    assert_eq!(report.epochs.len(), 7);
    assert_eq!(report.keyframe_interval, 3);
    assert!(report.ratio() > 1.0, "ratio {}", report.ratio());

    let reader = ArchiveReader::new(&bytes).unwrap();
    assert_eq!(reader.version(), ARCHIVE_VERSION);
    assert_eq!(reader.n_epochs(), 7);
    assert_eq!(reader.keyframe_interval(), 3);
    assert_eq!(reader.field_names(), vec!["T", "P", "RH"]);

    // every epoch honours the bound its report recorded
    for (e, ds) in snaps.iter().enumerate() {
        let dec = reader.decode_epoch(e).unwrap();
        for fr in &report.epochs[e].fields {
            check_bound(
                ds.expect_field(&fr.name),
                dec.expect_field(&fr.name),
                fr.eb_abs,
            );
        }
    }

    // region decode at an epoch crops the same samples as the full decode
    let region = Region::d2(5, 17, 3, 27);
    for e in [1usize, 3, 6] {
        let full = reader.read(&ReadRequest::new("T").at(e)).unwrap().data;
        let got = reader.decode_region_at("T", &region, e).unwrap();
        assert_eq!(got, full.crop(&region), "epoch {e}");
    }

    // the store serves bit-identical data through its cache
    let store = ArchiveStore::new(ArchiveReader::new(&bytes).unwrap(), StoreConfig::default());
    assert_eq!(store.reader().n_epochs(), 7);
    assert_eq!(store.reader().keyframe_interval(), 3);
    for e in [0usize, 2, 4, 6] {
        for name in ["T", "P", "RH"] {
            let a = store.read(&ReadRequest::new(name).at(e)).unwrap().data;
            let b = reader.read(&ReadRequest::new(name).at(e)).unwrap().data;
            assert!(
                a.as_slice()
                    .iter()
                    .zip(b.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "store vs reader mismatch: {name} at epoch {e}"
            );
        }
    }

    // out-of-range epochs are typed errors everywhere
    assert!(reader.read(&ReadRequest::new("T").at(7)).is_err());
    assert!(reader.decode_epoch(7).is_err());
    assert!(store.decode_block_at("T", 0, 7).is_err());
    assert!(store.invalidate_field_at("T", 7).is_err());
}

#[test]
fn temporal_write_rejects_mismatched_snapshots() {
    let mut snaps = evolving(24, 24, 3);
    let builder = || {
        ArchiveBuilder::relative(1e-3)
            .train_config(small_train())
            .chunk_elements(6 * 24)
            .keyframe_interval(2)
            .build()
    };
    assert!(builder().write_epochs(&[]).is_err(), "empty sequence");
    // shape drift between epochs
    snaps[1] = snapshot(24, 30);
    assert!(builder().write_epochs(&snaps).is_err(), "shape drift");
}

// ---------------------------------------------------------------------
// the one epoch decode
// ---------------------------------------------------------------------

/// A committed archive from the repository's `tests/golden`.
fn golden(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()))
}

/// Five epochs of a small evolving 3-D snapshot under a cross-field plan,
/// keyframes at 0 and 3: targets at the keyframes, deltas on top of them,
/// blocks of three slabs with one slab left over.
fn series_3d() -> Vec<u8> {
    let shape = Shape::d3(7, 16, 18);
    let snaps: Vec<Dataset> = (0..5)
        .map(|e| {
            let t = e as f32;
            let a = Field::from_fn(shape, |i| {
                let (k, r, c) = (i[0] as f32, i[1] as f32, i[2] as f32);
                0.7 * k
                    + 0.03 * (r - 6.0 + 0.4 * t) * (c - 8.0)
                    + 0.01 * ((i[1] * 5 + i[2]) % 7) as f32
            });
            let b = a.map(|v| 0.5 * v * v - 2.0 * v + 0.1 * t);
            let c = a.map(|v| (0.3 * v + 0.2 * t).sin());
            let mut ds = Dataset::new("SERIES", shape);
            ds.push("A", a);
            ds.push("B", b);
            ds.push("C", c);
            ds
        })
        .collect();
    let bytes = ArchiveBuilder::relative(1e-3)
        .train_config(TrainConfig {
            patch: 6,
            n_patches: 8,
            batch: 4,
            epochs: 1,
            lr: 4e-3,
            seed: 5,
        })
        .cross_field("B", &["A"])
        .always_cross_field()
        .chunk_elements(3 * 16 * 18)
        .keyframe_interval(3)
        .build()
        .write_epochs(&snaps)
        .unwrap();
    assert_has_target(&bytes);
    bytes
}

fn same_bits(a: &Field, b: &Field) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A 3-D baseline snapshot of three fields, cut into four blocks of three
/// slabs and a last block of one.
fn baseline_3d() -> Vec<u8> {
    let shape = Shape::d3(10, 12, 14);
    let mut ds = Dataset::new("BASE3D", shape);
    for (k, name) in ["U", "V", "W"].into_iter().enumerate() {
        let s = k as f32 + 1.0;
        ds.push(
            name,
            Field::from_fn(shape, |i| {
                (i[0] as f32 * 0.7 * s).sin() * 5.0 + (i[1] as f32) * 0.3 * s - (i[2] as f32) * 0.1
            }),
        );
    }
    ArchiveBuilder::relative(1e-3)
        .chunk_elements(3 * 12 * 14)
        .build()
        .write(&ds)
        .unwrap()
}

#[test]
fn an_epoch_decodes_to_its_per_field_reads_at_any_thread_count() {
    let archives = [
        // no recorded shape: each field's one block is the field
        ("small_v1.cfar", golden("small_v1.cfar")),
        ("small_v2.cfar", golden("small_v2.cfar")),
        ("partial_v2.cfar", golden("partial_v2.cfar")),
        ("small_v3_delta.cfar", golden("small_v3_delta.cfar")),
        ("small_v3_keyframes.cfar", golden("small_v3_keyframes.cfar")),
        ("partial_v3.cfar", golden("partial_v3.cfar")),
        ("3-D series", series_3d()),
        ("3-D baseline snapshot", baseline_3d()),
    ];
    for (name, bytes) in &archives {
        let reader = ArchiveReader::new(bytes).unwrap();
        for epoch in 0..reader.n_epochs() {
            for threads in 1..=3 {
                let ds = reader.epoch_with_threads(epoch, threads).unwrap();
                assert_eq!(ds.len(), reader.fields_per_epoch());
                for field in reader.field_names() {
                    let want = reader.read(&ReadRequest::new(field).at(epoch)).unwrap();
                    assert!(
                        same_bits(ds.expect_field(field), &want.data),
                        "{name}: {field}@e{epoch}, {threads} threads"
                    );
                }
            }
        }
        // `decode_all` is epoch 0 and nothing else
        let (all, first) = (
            reader.decode_all().unwrap(),
            reader.decode_epoch(0).unwrap(),
        );
        for field in reader.field_names() {
            assert!(same_bits(
                all.expect_field(field),
                first.expect_field(field)
            ));
        }
        for epoch in [reader.n_epochs(), reader.n_epochs() + 7] {
            for result in [
                reader.decode_epoch(epoch),
                reader.epoch_with_threads(epoch, 1),
            ] {
                assert!(
                    matches!(result, Err(CfcError::InvalidInput(_))),
                    "{name}: epoch {epoch} of {}",
                    reader.n_epochs()
                );
            }
        }
    }
}

#[test]
fn a_damaged_middle_block_fails_the_epoch_decode_where_the_field_read_fails() {
    let mut bytes = baseline_3d();
    let clean = ArchiveReader::new(&bytes).unwrap();
    // the second field's second block of four: the first field's blocks,
    // and the blocks around the damaged one, are tasks that succeed
    let entry = clean.entries()[1].clone();
    assert_eq!((entry.role, entry.n_blocks()), (FieldRole::Independent, 4));
    let (at, len) = entry.block_span(1).unwrap();
    bytes[at as usize + len / 2] ^= 0x08;
    let reader = ArchiveReader::new(&bytes).unwrap();
    let want = reader.read(&ReadRequest::new(&entry.name)).unwrap_err();
    assert!(
        matches!(&want, CfcError::InField { field, block: Some(1), .. } if *field == entry.name),
        "{want}"
    );
    assert!(matches!(
        want.root_cause(),
        CfcError::ChecksumMismatch { .. }
    ));
    for threads in 1..=3 {
        assert_eq!(
            reader.epoch_with_threads(0, threads).unwrap_err(),
            want,
            "{threads} threads"
        );
    }
}

/// Three series, each with one bit flipped in the last block of the second
/// field's first delta (returned beside the bytes): fields before it in
/// archive order still decode, tasks before it still succeed.
fn damaged_chain_links() -> Vec<(&'static str, Vec<u8>, ArchiveEntry)> {
    [
        ("small_v3_delta.cfar", golden("small_v3_delta.cfar")),
        ("partial_v3.cfar", golden("partial_v3.cfar")),
        ("3-D series", series_3d()),
    ]
    .into_iter()
    .map(|(name, mut bytes)| {
        let clean = ArchiveReader::new(&bytes).unwrap();
        let (interval, n_fields) = (clean.keyframe_interval(), clean.fields_per_epoch());
        assert!(interval > 1 && n_fields > 1, "{name}: no chain to damage");
        let link = clean.entries()[n_fields + 1].clone();
        assert_eq!(link.role, FieldRole::Delta);
        let at = link.payload_base + link.blocks[link.n_blocks() - 1].rel_offset;
        bytes[at as usize + 5] ^= 0x40;
        (name, bytes, link)
    })
    .collect()
}

#[test]
fn a_damaged_chain_link_fails_every_later_epoch_of_its_group_with_the_first_fields_error() {
    for (name, bytes, link) in damaged_chain_links() {
        let idx = link.n_blocks() - 1;
        let (field, link_name) = (link.name.clone(), link.qualified_name());
        let reader = ArchiveReader::new(&bytes).unwrap();
        let interval = reader.keyframe_interval();
        for epoch in 0..reader.n_epochs() {
            let affected = (1..interval).contains(&epoch);
            let want = reader.read(&ReadRequest::new(&field).at(epoch));
            assert_eq!(want.is_err(), affected, "{name}: {field}@e{epoch}");
            for threads in 1..=3 {
                let got = reader.epoch_with_threads(epoch, threads).map(|_| ());
                assert_eq!(
                    got,
                    want.clone().map(|_| ()),
                    "{name}: epoch {epoch}, {threads} threads"
                );
                if let Err(e) = got {
                    assert!(
                        matches!(&e, CfcError::InField { field, block, .. }
                            if *field == link_name && *block == Some(idx)),
                        "{name}: {e}"
                    );
                    assert!(matches!(e.root_cause(), CfcError::ChecksumMismatch { .. }));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// the epoch decode's last-epoch slot
// ---------------------------------------------------------------------

/// Every field of `got` and `want` is the same bits.
fn same_datasets(got: &Dataset, want: &Dataset) -> bool {
    got.len() == want.len()
        && want
            .iter()
            .all(|(name, field)| same_bits(got.expect_field(name), field))
}

#[test]
fn the_epoch_decode_keeps_an_epoch_only_while_the_next_one_has_deltas() {
    // a one-epoch archive has no next epoch
    let reader = ArchiveReader::new(&golden("small_v2.cfar")).unwrap();
    reader.decode_all().unwrap();
    assert_eq!(reader.kept_epoch(), None);

    // keyframes at 0 and 3 of five epochs: mid-group epochs are kept, the
    // end of a group and the last epoch are not, and an error empties it
    let bytes = series_3d();
    let reader = ArchiveReader::new(&bytes).unwrap();
    for (epoch, kept) in [
        (0, Some(0)),
        (1, Some(1)),
        (2, None),
        (3, Some(3)),
        (4, None),
    ] {
        reader.decode_epoch(epoch).unwrap();
        assert_eq!(reader.kept_epoch(), kept, "after epoch {epoch}");
    }
    reader.decode_epoch(0).unwrap();
    assert!(reader.decode_epoch(reader.n_epochs()).is_err());
    assert_eq!(reader.kept_epoch(), None, "after an error");

    // with epoch 0 kept, every other read of epoch 1 and 2 still walks its
    // chain from the source — byte for byte what a fresh reader reads —
    // and leaves the slot alone
    type Read = fn(&CountingArchiveReader) -> Field;
    let reads: [(&str, Read); 4] = [
        ("read", |r| {
            r.read(&ReadRequest::new("B").at(1)).unwrap().data
        }),
        ("read C", |r| {
            r.read(&ReadRequest::new("C").at(2)).unwrap().data
        }),
        ("decode_region_at", |r| {
            let window = Region::d3(2, 5, 0, 16, 0, 18);
            r.decode_region_at("B", &window, 2).unwrap()
        }),
        ("decode_block_at", |r| r.decode_block_at("B", 1, 1).unwrap()),
    ];
    let (warm, warm_read) = counting_reader(&bytes);
    warm.decode_epoch(0).unwrap();
    for (what, read) in reads {
        let (cold, cold_read) = counting_reader(&bytes);
        let (before, cold_before) = (
            warm_read.load(Ordering::Relaxed),
            cold_read.load(Ordering::Relaxed),
        );
        let (got, want) = (read(&warm), read(&cold));
        assert!(same_bits(&got, &want), "{what}");
        assert_eq!(
            warm_read.load(Ordering::Relaxed) - before,
            cold_read.load(Ordering::Relaxed) - cold_before,
            "{what} read a different number of bytes with an epoch kept"
        );
        assert_eq!(warm.kept_epoch(), Some(0), "{what}");
    }
    // and so does the store over such a reader
    let store = ArchiveStore::new(warm, StoreConfig::default());
    let before = warm_read.load(Ordering::Relaxed);
    let got = store.read(&ReadRequest::new("B").at(1)).unwrap();
    let (cold, cold_read) = counting_reader(&bytes);
    let cold_before = cold_read.load(Ordering::Relaxed);
    let want = ArchiveStore::new(cold, StoreConfig::default())
        .read(&ReadRequest::new("B").at(1))
        .unwrap();
    assert!(same_bits(&got.data, &want.data));
    assert_eq!(
        warm_read.load(Ordering::Relaxed) - before,
        cold_read.load(Ordering::Relaxed) - cold_before
    );
    assert_eq!(store.reader().kept_epoch(), Some(0));
}

#[test]
fn in_order_epochs_on_a_damaged_chain_match_a_fresh_reader_per_epoch() {
    for (name, bytes, _) in damaged_chain_links() {
        let reader = ArchiveReader::new(&bytes).unwrap();
        for epoch in 0..reader.n_epochs() {
            let got = reader.decode_epoch(epoch);
            let want = ArchiveReader::new(&bytes).unwrap().decode_epoch(epoch);
            match (&got, &want) {
                (Ok(got), Ok(want)) => {
                    assert!(same_datasets(got, want), "{name}: epoch {epoch}")
                }
                _ => assert_eq!(
                    got.as_ref().err(),
                    want.as_ref().err(),
                    "{name}: epoch {epoch}"
                ),
            }
            if got.is_err() {
                assert_eq!(reader.kept_epoch(), None, "{name}: epoch {epoch}");
            }
        }
    }
}

#[test]
fn two_threads_decoding_one_reader_in_opposite_orders_get_every_epoch_right() {
    for bytes in [golden("small_v3_delta.cfar"), series_3d()] {
        let n = ArchiveReader::new(&bytes).unwrap().n_epochs();
        let want: Vec<Dataset> = (0..n)
            .map(|e| ArchiveReader::new(&bytes).unwrap().decode_epoch(e).unwrap())
            .collect();
        let reader = ArchiveReader::new(&bytes).unwrap();
        // each round starts both passes together; whatever interleaving
        // follows, every epoch must come out right
        let start = std::sync::Barrier::new(2);
        let pass = |order: &[usize]| {
            for _ in 0..3 {
                start.wait();
                for &e in order {
                    let got = reader.decode_epoch(e).unwrap();
                    assert!(same_datasets(&got, &want[e]), "epoch {e} of {order:?}");
                }
            }
        };
        let forward: Vec<usize> = (0..n).collect();
        let backward: Vec<usize> = (0..n).rev().collect();
        std::thread::scope(|s| {
            s.spawn(|| pass(&forward));
            s.spawn(|| pass(&backward));
        });
    }
}

/// Chain decodes through one caller-owned scratch: the first grows it to
/// the largest link, every later one — another block, another epoch's
/// chain of the same depth — finds it grown.
#[test]
fn chain_decodes_stop_growing_the_scratch_after_the_first() {
    let bytes = series_3d();
    let reader = ArchiveReader::new(&bytes).unwrap();
    let mut scratch = ArchiveScratch::new();
    // epoch 2 is the tail of the first group: two deltas on a target
    let first = reader.block_at("B", 0, 2, &mut scratch).unwrap();
    let warmed = scratch.growths();
    assert!(warmed > 0, "the first chain must have allocated something");
    for _ in 0..2 {
        let again = reader.block_at("B", 0, 2, &mut scratch).unwrap();
        assert!(same_bits(&again, &first));
        assert_eq!(
            scratch.growths(),
            warmed,
            "a repeated chain grew the scratch"
        );
    }
}

/// A wide scratch spreads a target block's CFNN slices over helper
/// workspaces of its own. Reused — by hand, or as the scratch the reader
/// keeps for its one-request reads — it sizes them on the first pass and
/// never again, and decodes what a one-worker scratch does, also while two
/// threads read at once (one of them on a scratch of its own).
#[test]
fn a_wide_scratch_stops_growing_after_its_first_pass() {
    let bytes = series_3d();
    let reader = ArchiveReader::new(&bytes).unwrap();
    let n_blocks = reader.field_info("B").unwrap().n_blocks;
    let (mut wide, mut narrow) = (ArchiveScratch::wide(3), ArchiveScratch::new());
    let pass = |scratch: &mut ArchiveScratch| -> Vec<Field> {
        (0..n_blocks)
            .map(|b| reader.block_at("B", b, 0, scratch).unwrap())
            .collect()
    };
    let one = pass(&mut narrow);
    let first = pass(&mut wide);
    let warmed = wide.growths();
    assert!(
        warmed > narrow.growths(),
        "three-slice blocks size the helpers too"
    );
    let second = pass(&mut wide);
    assert_eq!(
        wide.growths(),
        warmed,
        "a second pass grew the wide scratch"
    );
    for (b, ((x, y), z)) in first.iter().zip(&second).zip(&one).enumerate() {
        assert!(same_bits(x, y) && same_bits(x, z), "block {b}");
    }

    // the reader's own: kept after the first read, then never grown
    let whole = Field::concat_axis0(&one);
    let read = || reader.read(&ReadRequest::new("B")).unwrap().data;
    assert_eq!(reader.spare_growths(), None, "nothing read yet");
    assert!(same_bits(&read(), &whole));
    let kept = reader.spare_growths().expect("the read kept its scratch");
    for _ in 0..2 {
        assert!(same_bits(&read(), &whole));
        assert_eq!(reader.spare_growths(), Some(kept), "a later read grew it");
    }
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                for _ in 0..3 {
                    assert!(same_bits(&read(), &whole), "concurrent read");
                }
            });
        }
    });
}
