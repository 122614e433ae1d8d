//! Two-tier cache and prefetch behaviour of `ArchiveStore`:
//!
//! * blocks evicted from tier 1 promote back from tier-2 compressed bytes
//!   byte-exactly, without touching the source;
//! * `purge()` / `invalidate_field()` drop cached state so reads after an
//!   in-place repair of the underlying file never serve stale blocks;
//! * a sequential scan triggers speculative readahead whose blocks are
//!   byte-exact and accounted separately from demand traffic;
//! * repeated probes for an unknown field name get the same error.

mod common;

use std::sync::Arc;

use cross_field_compression::core::archive::{
    ArchiveBuilder, ArchiveReader, ArchiveStore, ReadRequest, StoreConfig,
};
use cross_field_compression::core::TrainConfig;
use cross_field_compression::tensor::{Dataset, Field, Region, Shape};

const ROWS: usize = 48;
const COLS: usize = 32;
const CHUNK_ROWS: usize = 6; // 8 blocks per field
const BLOCK_BYTES: usize = CHUNK_ROWS * COLS * 4;

/// Anchor + cross-field target so invalidation cascade is observable.
fn sample_archive() -> Vec<u8> {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES
        .get_or_init(|| {
            let shape = Shape::d2(ROWS, COLS);
            let anchor = Field::from_fn(shape, |i| {
                ((i[0] as f32) * 0.17).sin() * 9.0 + (i[1] as f32) * 0.05 + 300.0
            });
            let target = anchor.map(|v| 0.7 * v - 12.0);
            let mut ds = Dataset::new("TIERS", shape);
            ds.push("A", anchor);
            ds.push("T", target);
            let bytes = ArchiveBuilder::relative(1e-3)
                .train_config(TrainConfig::fast())
                .cross_field("T", &["A"])
                .always_cross_field()
                .chunk_elements(CHUNK_ROWS * COLS)
                .build()
                .write(&ds)
                .expect("archive write");
            common::assert_has_target(&bytes);
            bytes
        })
        .clone()
}

fn reference() -> Dataset {
    ArchiveReader::new(&sample_archive())
        .expect("parse")
        .decode_all()
        .expect("decode")
}

fn block_region(b: usize) -> Region {
    Region::d2(b * CHUNK_ROWS, (b + 1) * CHUNK_ROWS, 0, COLS)
}

#[test]
fn evicted_blocks_promote_from_tier2_byte_exactly() {
    let bytes = sample_archive();
    let want = reference();
    // tier 1 holds ~2 decoded blocks; tier 2 comfortably holds every
    // compressed payload — so a full-field sweep evicts (demoting) and the
    // second sweep re-enters via promotion, never the source
    let store = ArchiveStore::new(
        ArchiveReader::new(&bytes).unwrap(),
        StoreConfig::with_tiers(2 * BLOCK_BYTES, 1 << 20).no_prefetch(),
    );
    assert_eq!(
        store.read(&ReadRequest::new("A")).unwrap().data,
        *want.expect_field("A")
    );
    let after_first = store.snapshot();
    assert!(after_first.evictions > 0, "{after_first:?}");
    assert!(after_first.demotions > 0, "{after_first:?}");
    assert_eq!(after_first.tier2_hits, 0, "first sweep came from source");

    assert_eq!(
        store.read(&ReadRequest::new("A")).unwrap().data,
        *want.expect_field("A")
    );
    let after_second = store.snapshot();
    assert!(
        after_second.tier2_hits > 0 && after_second.promotions > 0,
        "second sweep must promote from tier 2: {after_second:?}"
    );
    assert_eq!(
        after_second.tier2_insertions, after_first.tier2_insertions,
        "promotion must not re-fetch from the source: {after_second:?}"
    );
    assert!(after_second.tier2_hits <= after_second.misses);
}

#[test]
fn zero_tier2_budget_disables_the_tier() {
    let bytes = sample_archive();
    let store = ArchiveStore::new(
        ArchiveReader::new(&bytes).unwrap(),
        StoreConfig::with_tiers(2 * BLOCK_BYTES, 0).no_prefetch(),
    );
    store.read(&ReadRequest::new("A")).unwrap();
    store.read(&ReadRequest::new("A")).unwrap();
    let s = store.snapshot();
    assert_eq!(s.tier2_insertions, 0, "{s:?}");
    assert_eq!(s.tier2_hits, 0, "{s:?}");
    assert_eq!(s.tier2_blocks, 0, "{s:?}");
}

/// The post-`cfc-fsck --repair` scenario: the archive file is rewritten
/// in place under a live store. Until `purge()` the store (correctly)
/// serves its cache; after `purge()` nothing stale survives — a strict
/// read sees exactly what is on disk now.
#[test]
fn purge_drops_stale_blocks_after_underlying_file_changes() {
    let bytes = sample_archive();
    let (off, len) = {
        let r = ArchiveReader::new(&bytes).expect("parse");
        r.entries()
            .iter()
            .find(|e| e.name == "A")
            .expect("A")
            .block_span(1)
            .expect("span")
    };
    let path = std::env::temp_dir().join(format!("cfc_store_tiers_{}.cfar", std::process::id()));
    std::fs::write(&path, &bytes).expect("write temp archive");

    let store = ArchiveStore::open(
        std::fs::File::open(&path).expect("open"),
        StoreConfig::default().no_prefetch(),
    )
    .expect("parse");
    let clean = store.decode_region("A", &block_region(1)).expect("clean");

    // corrupt the block on disk, under the live store
    let flip = |xor: u8| {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .expect("reopen");
        f.seek(SeekFrom::Start(off + len as u64 / 2)).expect("seek");
        let mut b = [0u8];
        use std::io::Read;
        f.read_exact(&mut b).expect("read byte");
        b[0] ^= xor;
        f.seek(SeekFrom::Start(off + len as u64 / 2)).expect("seek");
        f.write_all(&b).expect("write byte");
    };
    flip(0x20);

    // both cache tiers still hold the pre-corruption decode
    assert_eq!(
        store.decode_region("A", &block_region(1)).expect("cached"),
        clean,
        "before purge the cache legitimately serves the old bytes"
    );

    store.purge();
    let err = store
        .decode_region("A", &block_region(1))
        .expect_err("post-purge read must see the corrupt bytes on disk");
    assert!(err.to_string().contains('A'), "{err}");
    let s = store.snapshot();
    assert_eq!(s.cached_blocks, 0, "purge must empty tier 1: {s:?}");
    assert_eq!(s.tier2_blocks, 0, "purge must empty tier 2: {s:?}");

    // "repair" the file and purge again: reads are clean and match
    flip(0x20);
    store.purge();
    assert_eq!(
        store
            .decode_region("A", &block_region(1))
            .expect("repaired"),
        clean
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn invalidate_field_cascades_to_dependent_targets() {
    let bytes = sample_archive();
    let store = ArchiveStore::new(
        ArchiveReader::new(&bytes).unwrap(),
        StoreConfig::default().no_prefetch(),
    );
    // T is anchored on A: decoding T caches blocks of both fields
    store.decode_region("T", &block_region(0)).unwrap();
    let warm = store.snapshot();
    assert!(warm.cached_blocks >= 2, "{warm:?}");

    // invalidating the *anchor* must also drop the target's blocks, which
    // were decoded against it
    store.invalidate_field("A").unwrap();
    let s = store.snapshot();
    assert_eq!(s.cached_blocks, 0, "A and its dependent T must drop: {s:?}");
    assert_eq!(s.tier2_blocks, 0, "both tiers drop: {s:?}");

    // next read is a fresh decode, and still correct
    let misses_before = s.misses;
    let got = store.decode_region("T", &block_region(0)).unwrap();
    assert_eq!(got, reference().expect_field("T").crop(&block_region(0)));
    assert!(store.snapshot().misses > misses_before);

    assert!(store.invalidate_field("nope").is_err());
}

#[test]
fn sequential_scan_prefetches_ahead_byte_exactly() {
    let bytes = sample_archive();
    let want = reference();
    let store = Arc::new(ArchiveStore::new(
        ArchiveReader::new(&bytes).unwrap(),
        StoreConfig::default(), // prefetch on: depth 4, 2 workers
    ));
    // two consecutive single-block windows establish the scan...
    store.decode_region("A", &block_region(0)).unwrap();
    store.decode_region("A", &block_region(1)).unwrap();
    store.prefetch_quiesce();
    let s = store.snapshot();
    assert!(s.prefetch_issued > 0, "scan must trigger readahead: {s:?}");
    assert!(s.prefetched_blocks > 0, "workers must decode: {s:?}");

    // ...so the next windows are already decoded: demand reads hit
    let misses_before = s.misses;
    for b in 2..5 {
        let got = store.decode_region("A", &block_region(b)).unwrap();
        assert_eq!(
            got,
            want.expect_field("A").crop(&block_region(b)),
            "prefetched block {b} must be byte-exact"
        );
    }
    let s = store.snapshot();
    assert_eq!(s.misses, misses_before, "scan body must be all hits: {s:?}");
    assert!(s.prefetch_hits > 0, "{s:?}");
    assert!(s.prefetch_hits <= s.prefetched_blocks, "{s:?}");
    assert!(s.insertions <= s.misses + s.prefetched_blocks, "{s:?}");
}

#[test]
fn unknown_field_probes_return_the_same_error() {
    let bytes = sample_archive();
    let store = ArchiveStore::new(ArchiveReader::new(&bytes).unwrap(), StoreConfig::default());
    let e1 = store.decode_block("missing", 0).expect_err("unknown");
    let e2 = store.decode_block("missing", 0).expect_err("unknown");
    assert_eq!(e1.to_string(), e2.to_string());
}
