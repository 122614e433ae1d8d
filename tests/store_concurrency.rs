//! Concurrency and equivalence tests for `ArchiveStore`:
//!
//! * N threads hammering `decode_region` over pseudo-random regions must
//!   byte-match the single-threaded `decode_all`, under a cold cache, a
//!   warm cache, and a cache so small it thrashes;
//! * a proptest asserting cache-on and cache-off stores decode identically
//!   for arbitrary shapes, chunkings, and regions;
//! * the v1 golden fixture served through the store matches its direct
//!   reader decode.

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use cross_field_compression::core::archive::{
    ArchiveBuilder, ArchiveReader, ArchiveStore, ReadRequest, StoreConfig,
};
use cross_field_compression::core::TrainConfig;
use cross_field_compression::tensor::{Dataset, Field, Region, Shape};

/// Coupled three-field snapshot (T, P anchors; RH a cross-field target).
fn snapshot(rows: usize, cols: usize) -> Dataset {
    let shape = Shape::d2(rows, cols);
    let t = Field::from_fn(shape, |i| {
        ((i[0] as f32) * 0.11).sin() * 12.0 + ((i[1] as f32) * 0.07).cos() * 8.0 + 285.0
    });
    let p = Field::from_fn(shape, |i| {
        1013.0 - (i[0] as f32) * 0.6 + ((i[1] as f32) * 0.04).sin() * 2.5
    });
    let rh = t.zip_map(&p, |tv, pv| {
        0.5 * (tv - 285.0) + 0.04 * (pv - 1013.0) + 55.0
    });
    let mut ds = Dataset::new("CONC", shape);
    ds.push("T", t);
    ds.push("P", p);
    ds.push("RH", rh);
    ds
}

fn cross_field_archive(rows: usize, cols: usize, chunk_rows: usize) -> Vec<u8> {
    let bytes = ArchiveBuilder::relative(1e-3)
        .train_config(TrainConfig::fast())
        .cross_field("RH", &["T", "P"])
        .always_cross_field()
        .chunk_elements(chunk_rows * cols)
        .build()
        .write(&snapshot(rows, cols))
        .expect("write");
    common::assert_has_target(&bytes);
    bytes
}

use cfc_bench::rng::XorShift;

/// Hammer `store.decode_region` from `n_threads` threads with
/// pseudo-random regions over every field, asserting every result
/// byte-matches the reference decode.
fn hammer(store: &Arc<ArchiveStore<std::io::Cursor<Vec<u8>>>>, reference: &Dataset, seed: u64) {
    let shape = reference.shape();
    let (rows, cols) = (shape.dims()[0], shape.dims()[1]);
    let n_threads = 8;
    let iters = 24;
    std::thread::scope(|s| {
        for ti in 0..n_threads {
            let store = Arc::clone(store);
            s.spawn(move || {
                let mut rng = XorShift(seed ^ (0x9E37_79B9 + ti as u64));
                for it in 0..iters {
                    let name = ["T", "P", "RH"][(ti + it) % 3];
                    let (r0, r1) = rng.range(rows);
                    let (c0, c1) = rng.range(cols);
                    let region = Region::d2(r0, r1, c0, c1);
                    let got = store
                        .decode_region(name, &region)
                        .unwrap_or_else(|e| panic!("decode_region {name} {region}: {e}"));
                    let want = reference.expect_field(name).crop(&region);
                    assert_eq!(got, want, "thread {ti} iter {it}: {name} {region}");
                }
            });
        }
    });
}

#[test]
fn hammered_store_matches_decode_all_cold_and_warm() {
    let bytes = cross_field_archive(48, 32, 7);
    let reference = ArchiveReader::new(&bytes)
        .unwrap()
        .decode_all_with_threads(1)
        .unwrap();

    let store = Arc::new(ArchiveStore::new(
        ArchiveReader::new(&bytes).unwrap(),
        StoreConfig::default(),
    ));
    // cold: first pass populates the cache under contention
    hammer(&store, &reference, 1);
    let cold = store.snapshot();
    assert!(cold.misses > 0);
    // warm: the whole archive fits the default budget, so a second pass
    // must serve entirely from cache — not a single new decode
    hammer(&store, &reference, 2);
    let warm = store.snapshot();
    assert_eq!(warm.misses, cold.misses, "warm pass must not decode");
    assert!(warm.hits > cold.hits);
}

#[test]
fn hammered_store_matches_under_eviction_pressure() {
    let bytes = cross_field_archive(48, 32, 7);
    let reference = ArchiveReader::new(&bytes)
        .unwrap()
        .decode_all_with_threads(1)
        .unwrap();
    // budget of ~2 blocks (7×32 f32 = 896 B each): constant thrash, same bytes
    let store = Arc::new(ArchiveStore::new(
        ArchiveReader::new(&bytes).unwrap(),
        StoreConfig::with_capacity(2 * 7 * 32 * 4),
    ));
    hammer(&store, &reference, 3);
    let stats = store.snapshot();
    assert!(stats.evictions > 0, "tiny budget must evict: {stats:?}");
    assert!(
        stats.cached_bytes <= stats.capacity_bytes,
        "budget violated: {stats:?}"
    );
}

/// 8 threads over a working set far larger than the tier-1 budget, with
/// tier 2 and prefetch on: every decoded byte must still match the
/// reference, tier 2 must actually absorb the tier-1 churn (demotions and
/// tier-2 hits), and the cross-tier counter invariants must hold — a
/// tier-2 hit only happens on a demand miss, and speculative decodes are
/// accounted separately from demand misses.
#[test]
fn hammered_tiered_store_matches_under_eviction_pressure() {
    let bytes = cross_field_archive(48, 32, 7);
    let reference = ArchiveReader::new(&bytes)
        .unwrap()
        .decode_all_with_threads(1)
        .unwrap();
    // tier 1 holds ~2 of the 21 blocks (7×32 f32 = 896 B each); tier 2 is
    // big enough for every compressed payload, so steady state is pure
    // demote/promote traffic
    let store = Arc::new(ArchiveStore::new(
        ArchiveReader::new(&bytes).unwrap(),
        StoreConfig::with_tiers(2 * 7 * 32 * 4, 1 << 20),
    ));
    hammer(&store, &reference, 5);
    store.prefetch_quiesce();
    let stats = store.snapshot();
    assert!(stats.evictions > 0, "tiny tier 1 must evict: {stats:?}");
    assert!(
        stats.demotions > 0,
        "evictions with resident tier-2 bytes must demote: {stats:?}"
    );
    assert!(
        stats.tier2_hits > 0,
        "re-reads after eviction must hit tier 2: {stats:?}"
    );
    assert!(
        stats.tier2_hits <= stats.misses,
        "tier-2 hits only happen on demand misses: {stats:?}"
    );
    assert!(
        stats.insertions <= stats.misses + stats.prefetched_blocks,
        "inserts come only from demand misses or prefetch: {stats:?}"
    );
    assert!(
        stats.cached_bytes <= stats.capacity_bytes
            && stats.tier2_bytes <= stats.tier2_capacity_bytes,
        "budgets violated: {stats:?}"
    );
}

/// `snapshot()` must be internally consistent at every instant, even with
/// decoders racing it under eviction pressure: all counters are captured
/// under one lock, so `cached_blocks == insertions - evictions`,
/// `insertions <= misses + prefetched_blocks` (every insert comes from a
/// demand miss or a prefetch decode), `tier2_hits <= misses`, and the hit
/// rate can never exceed 1 — a half-applied update (e.g. a miss counted
/// but its insertion not yet, read through independent atomics) would
/// trip these.
#[test]
fn stats_snapshot_is_consistent_under_concurrent_load() {
    let bytes = cross_field_archive(48, 32, 7);
    // ~2-block budget: constant insert/evict churn while we snapshot
    let store = Arc::new(ArchiveStore::new(
        ArchiveReader::new(&bytes).unwrap(),
        StoreConfig::with_capacity(2 * 7 * 32 * 4),
    ));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        for ti in 0..4u64 {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut rng = XorShift(0xFEED_F00D ^ ti);
                for it in 0.. {
                    if stop.load(std::sync::atomic::Ordering::Relaxed) {
                        break;
                    }
                    let name = ["T", "P", "RH"][(it as usize + ti as usize) % 3];
                    let (r0, r1) = rng.range(48);
                    let region = Region::d2(r0, r1, 0, 32);
                    store.decode_region(name, &region).expect("decode");
                }
            });
        }
        // Poll until the workers have demonstrably churned the cache, not
        // for a fixed count: on a small host 2000 polls can finish before
        // any worker is scheduled, and the checks would see only zeros.
        for poll in 0usize.. {
            let snap = store.snapshot();
            assert_eq!(
                snap.cached_blocks as u64,
                snap.insertions - snap.evictions,
                "inconsistent snapshot: {snap:?}"
            );
            assert!(
                snap.insertions <= snap.misses + snap.prefetched_blocks,
                "insertion without a miss or prefetch: {snap:?}"
            );
            assert!(
                snap.tier2_hits <= snap.misses,
                "tier-2 hit without a demand miss: {snap:?}"
            );
            assert!(snap.hits <= snap.lookups(), "hits exceed lookups: {snap:?}");
            assert!(snap.hit_rate() <= 1.0);
            assert!(
                snap.cached_bytes <= snap.capacity_bytes,
                "tier-1 budget violated: {snap:?}"
            );
            assert!(
                snap.tier2_bytes <= snap.tier2_capacity_bytes,
                "tier-2 budget violated: {snap:?}"
            );
            if poll >= 2000 && snap.evictions > 0 {
                break;
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    let end = store.snapshot();
    assert!(end.evictions > 0, "churn expected: {end:?}");
    assert_eq!(end.cached_blocks as u64, end.insertions - end.evictions);
}

#[test]
fn store_serves_v1_golden_fixture() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join("small_v1.cfar");
    let bytes = std::fs::read(&path).expect("golden v1 fixture");
    let reference = ArchiveReader::new(&bytes).unwrap().decode_all().unwrap();
    let store = ArchiveStore::new(ArchiveReader::new(&bytes).unwrap(), StoreConfig::default());
    for e in store.reader().entries() {
        let name = e.name.clone();
        let full = store.read(&ReadRequest::new(&name)).unwrap().data;
        assert_eq!(&full, reference.expect_field(&name), "{name}");
        // v1 random access degrades to cached whole-field decode + crop
        let shape = full.shape();
        let region = Region::full(shape);
        assert_eq!(store.decode_region(&name, &region).unwrap(), full);
    }
    // second pass over every field is all cache hits
    let before = store.snapshot();
    for e in store.reader().entries() {
        store.read(&ReadRequest::new(&e.name)).unwrap();
    }
    let after = store.snapshot();
    assert_eq!(after.misses, before.misses, "v1 fields must cache too");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cache-on and cache-off stores (and the plain reader) decode the
    /// same bytes for arbitrary geometry, chunking, and regions.
    #[test]
    fn cached_and_uncached_stores_decode_identically(
        rows in 8usize..32,
        cols in 4usize..16,
        chunk_rows in 1usize..10,
        r0f in 0u32..1000, r1f in 0u32..1000,
        c0f in 0u32..1000, c1f in 0u32..1000,
        capacity_blocks in 0usize..4,
    ) {
        let shape = Shape::d2(rows, cols);
        let ds = snapshot(rows, cols);
        let bytes = ArchiveBuilder::relative(1e-3)
            .chunk_elements(chunk_rows * cols)
            .build()
            .write(&ds)
            .expect("write");

        // map fractions to a non-empty in-bounds region
        let pick = |lo: u32, hi: u32, extent: usize| {
            let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
            let s = (lo as usize * extent) / 1001;
            let e = ((hi as usize * extent) / 1001 + 1).min(extent);
            (s.min(extent - 1), e.max(s + 1))
        };
        let (r0, r1) = pick(r0f, r1f, rows);
        let (c0, c1) = pick(c0f, c1f, cols);
        let region = Region::d2(r0, r1, c0, c1);
        prop_assert!(region.validate(shape).is_ok());

        let uncached = ArchiveStore::new(
            ArchiveReader::new(&bytes).unwrap(),
            StoreConfig::uncached(),
        );
        // capacity from 0 blocks (still uncached) up to a few: eviction
        // behaviour in the middle must never change the samples
        let cached = ArchiveStore::new(
            ArchiveReader::new(&bytes).unwrap(),
            StoreConfig::with_capacity(capacity_blocks * chunk_rows * cols * 4),
        );
        let plain = ArchiveReader::new(&bytes).unwrap();

        for name in ["T", "P", "RH"] {
            let want = plain.decode_region(name, &region).expect("reader");
            // two passes over the cached store: populate, then re-serve
            for _ in 0..2 {
                prop_assert_eq!(&cached.decode_region(name, &region).expect("cached"), &want);
                prop_assert_eq!(&uncached.decode_region(name, &region).expect("uncached"), &want);
            }
        }
        prop_assert_eq!(uncached.snapshot().hits, 0);
    }
}
