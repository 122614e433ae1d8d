//! Reference-model test for `ArchiveStore`: seeded random operation
//! sequences, one thread, over a small v3 series with a kept cross-field
//! target.
//!
//! * **Data.** Every store result — strict and salvage `read` at any epoch
//!   and region, block-row scans, `decode_block_at` — is bit-equal to the same call on a
//!   fresh `ArchiveReader`, made for that one operation. The store's own
//!   reader is driven through `decode_epoch` between store calls, so the
//!   epoch that reader keeps for its next call would show here if a store
//!   read ever decoded against it.
//! * **Counters.** After every operation (prefetch quiesced):
//!   `cached_blocks == insertions − evictions`, `tier2_hits ≤ misses`,
//!   `insertions ≤ misses + prefetched_blocks`,
//!   `prefetch_hits ≤ prefetched_blocks`, and both tiers within their byte
//!   budgets. With tier 1 at budget 0 nothing is ever a hit or cached.
//! * **Invalidation.** With prefetch off, the first demand read of a block
//!   that `invalidate_field`, `invalidate_field_at` or `purge` dropped is a
//!   miss.
//! * **Retries.** Over a source whose reads of one block fail twice with a
//!   transient error, every result is still bit-equal and the store counts
//!   the retries.
//!
//! Every tier-1 budget (0, about two blocks, everything) runs with tier 2
//! off and holding everything, and with prefetch off and four blocks deep.

mod common;

use std::io::Cursor;

use cfc_bench::rng::XorShift;
use cross_field_compression::core::archive::{
    ArchiveBuilder, ArchiveReader, ArchiveSource, ArchiveStore, DecodePolicy, FaultInjectingReader,
    FaultPlan, ReadRequest, StoreConfig, StoreStats,
};
use cross_field_compression::core::TrainConfig;
use cross_field_compression::sz::CfcError;
use cross_field_compression::tensor::{Dataset, Field, Region, Shape};

const ROWS: usize = 24;
const COLS: usize = 16;
const CHUNK_ROWS: usize = 4; // 6 blocks per field
const BLOCKS: usize = ROWS / CHUNK_ROWS;
const BLOCK_BYTES: usize = CHUNK_ROWS * COLS * 4;
const EPOCHS: usize = 5;
const INTERVAL: usize = 3; // keyframes at 0 and 3
const FIELDS: [&str; 4] = ["A", "B", "T", "C"];
const OPS: usize = 80;

/// Anchors A and B, target T ← (A, B), independent C, over [`EPOCHS`]
/// epochs at keyframe interval [`INTERVAL`].
fn series() -> Vec<u8> {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES
        .get_or_init(|| {
            let shape = Shape::d2(ROWS, COLS);
            let snapshots: Vec<Dataset> = (0..EPOCHS)
                .map(|e| {
                    let t = e as f32;
                    let a = Field::from_fn(shape, |i| {
                        ((i[0] as f32) * 0.3 + 0.05 * t).sin() * 8.0 + i[1] as f32 * 0.2 + 0.3 * t
                    });
                    let b = Field::from_fn(shape, |i| {
                        ((i[1] as f32) * 0.25 - 0.04 * t).cos() * 5.0 + i[0] as f32 * 0.1
                    });
                    let target = a.zip_map(&b, |x, y| 0.6 * x - 0.3 * y + 4.0);
                    let c = Field::from_fn(shape, |i| {
                        ((i[0] * COLS + i[1]) as f32 * 0.07 + t).sin() * 3.0
                    });
                    let mut ds = Dataset::new("MODEL", shape);
                    ds.push("A", a);
                    ds.push("B", b);
                    ds.push("T", target);
                    ds.push("C", c);
                    ds
                })
                .collect();
            let bytes = ArchiveBuilder::relative(1e-3)
                .train_config(TrainConfig::fast())
                .cross_field("T", &["A", "B"])
                .always_cross_field()
                .chunk_elements(CHUNK_ROWS * COLS)
                .keyframe_interval(INTERVAL)
                .build()
                .write_epochs(&snapshots)
                .expect("series write");
            common::assert_has_target(&bytes);
            bytes
        })
        .clone()
}

fn assert_bits(got: &Field, want: &Field, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    assert!(
        got.as_slice()
            .iter()
            .zip(want.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "{what}: samples differ from a fresh reader's"
    );
}

/// A random region of the field: the whole field one time in four.
fn random_region(rng: &mut XorShift) -> Option<Region> {
    if rng.next_u64().is_multiple_of(4) {
        return None;
    }
    let (r0, r1) = rng.range(ROWS);
    let (c0, c1) = rng.range(COLS);
    Some(Region::d2(r0, r1, c0, c1))
}

fn pick(rng: &mut XorShift, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// The [`StoreStats`] invariants, and what a zero tier-1 budget implies.
fn check_counters(s: &StoreStats, what: &str) {
    assert_eq!(
        s.cached_blocks as u64,
        s.insertions - s.evictions,
        "{what}: {s:?}"
    );
    assert!(s.tier2_hits <= s.misses, "{what}: {s:?}");
    assert!(
        s.insertions <= s.misses + s.prefetched_blocks,
        "{what}: {s:?}"
    );
    assert!(s.prefetch_hits <= s.prefetched_blocks, "{what}: {s:?}");
    assert!(s.cached_bytes <= s.capacity_bytes, "{what}: {s:?}");
    assert!(s.tier2_bytes <= s.tier2_capacity_bytes, "{what}: {s:?}");
    if s.capacity_bytes == 0 {
        assert_eq!((s.hits, s.cached_blocks), (0, 0), "{what}: {s:?}");
    }
}

/// With prefetch off, a demand read of a block the store just dropped
/// decodes it again.
fn assert_dropped<R: ArchiveSource + 'static>(
    store: &ArchiveStore<R>,
    cfg: &StoreConfig,
    (name, block, epoch): (&str, usize, usize),
    what: &str,
) {
    if cfg.prefetch_depth != 0 {
        return;
    }
    let before = store.snapshot().misses;
    store
        .decode_block_at(name, block, epoch)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    let after = store.snapshot().misses;
    assert!(
        after > before,
        "{what}: {name}[{block}]@{epoch} was served from the cache"
    );
}

/// One seeded random sequence of [`OPS`] operations against `store`, each
/// held to a fresh reader over `bytes`.
fn run<R: ArchiveSource + 'static>(
    store: &ArchiveStore<R>,
    cfg: StoreConfig,
    bytes: &[u8],
    seed: u64,
) {
    let mut rng = XorShift(seed);
    for op in 0..OPS {
        let fresh = ArchiveReader::new(bytes).expect("open");
        let name = FIELDS[pick(&mut rng, FIELDS.len())];
        let epoch = pick(&mut rng, EPOCHS);
        let block = pick(&mut rng, BLOCKS);
        let what = format!("{cfg:?} seed {seed} op {op}");
        match rng.next_u64() % 32 {
            0..=9 => {
                let region = random_region(&mut rng);
                let mut req = ReadRequest::new(name).at(epoch);
                if let Some(r) = &region {
                    req = req.region(r);
                }
                let got = store.read(&req).unwrap_or_else(|e| panic!("{what}: {e}"));
                let want = fresh.read(&req).expect("fresh read");
                assert_bits(
                    &got.data,
                    &want.data,
                    &format!("{what}: read {name}@{epoch} {region:?}"),
                );
                assert!(got.damage.is_empty(), "{what}: strict read reported damage");
            }
            10..=14 => {
                let region = random_region(&mut rng);
                let mut req = ReadRequest::new(name)
                    .at(epoch)
                    .policy(DecodePolicy::salvage());
                if let Some(r) = &region {
                    req = req.region(r);
                }
                let got = store.read(&req).unwrap_or_else(|e| panic!("{what}: {e}"));
                let want = fresh.read(&req).expect("fresh salvage read");
                let what = format!("{what}: salvage {name}@{epoch} {region:?}");
                assert_bits(&got.data, &want.data, &what);
                assert_eq!(got.damage, want.damage, "{what}");
            }
            15..=20 => {
                let got = store
                    .decode_block_at(name, block, epoch)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                let want = fresh
                    .decode_block_at(name, block, epoch)
                    .expect("fresh block");
                assert_bits(
                    &got,
                    &want,
                    &format!("{what}: block {name}[{block}]@{epoch}"),
                );
            }
            21..=25 => {
                // consecutive block-row windows: an axis-0 scan, which
                // prefetch reads ahead of
                for b in block..BLOCKS.min(block + 4) {
                    let region = Region::d2(b * CHUNK_ROWS, (b + 1) * CHUNK_ROWS, 0, COLS);
                    let req = ReadRequest::new(name).at(epoch).region(&region);
                    let got = store.read(&req).unwrap_or_else(|e| panic!("{what}: {e}"));
                    let want = fresh.read(&req).expect("fresh read");
                    assert_bits(
                        &got.data,
                        &want.data,
                        &format!("{what}: scan {name}@{epoch} {region}"),
                    );
                }
            }
            26 => {
                store.invalidate_field(name).expect("invalidate_field");
                store.prefetch_quiesce();
                let key = (name, block, epoch);
                assert_dropped(store, &cfg, key, &format!("{what}: invalidate_field"));
            }
            27 => {
                store
                    .invalidate_field_at(name, epoch)
                    .expect("invalidate_field_at");
                store.prefetch_quiesce();
                let key = (name, block, epoch);
                assert_dropped(store, &cfg, key, &format!("{what}: invalidate_field_at"));
            }
            28 => {
                store.purge();
                store.prefetch_quiesce();
                let key = (name, block, epoch);
                assert_dropped(store, &cfg, key, &format!("{what}: purge"));
            }
            _ => {
                // fills the store reader's kept epoch for its next call
                let got = store.reader().decode_epoch(epoch).expect("decode_epoch");
                let want = fresh.decode_epoch(epoch).expect("fresh decode_epoch");
                for name in FIELDS {
                    let what = format!("{what}: decode_epoch({epoch}) {name}");
                    assert_bits(got.expect_field(name), want.expect_field(name), &what);
                }
            }
        }
        store.prefetch_quiesce();
        check_counters(&store.snapshot(), &what);
    }
}

fn configs() -> Vec<StoreConfig> {
    let mut out = Vec::new();
    for capacity_bytes in [0, 2 * BLOCK_BYTES, 1 << 20] {
        for tier2_capacity_bytes in [0, 1 << 20] {
            for prefetch_depth in [0, 4] {
                out.push(StoreConfig {
                    capacity_bytes,
                    tier2_capacity_bytes,
                    prefetch_depth,
                });
            }
        }
    }
    out
}

#[test]
fn store_matches_a_fresh_reader_under_every_configuration() {
    let bytes = series();
    for (i, cfg) in configs().into_iter().enumerate() {
        let store = ArchiveStore::new(ArchiveReader::new(&bytes).expect("open"), cfg);
        run(&store, cfg, &bytes, 0x5EED_0000 + i as u64);
    }
}

#[test]
fn transient_faults_stay_invisible_to_the_model() {
    let bytes = series();
    let (off, len) = ArchiveReader::new(&bytes)
        .expect("open")
        .entries()
        .iter()
        .find(|e| e.name == "A" && e.epoch == 1)
        .expect("entry")
        .block_span(2)
        .expect("span");
    let plan = FaultPlan::new().transient_at(off..off + len as u64, 2);
    let cfg = StoreConfig::with_tiers(2 * BLOCK_BYTES, 1 << 20).no_prefetch();
    let source = FaultInjectingReader::new(Cursor::new(bytes.clone()), plan.clone());
    let store = ArchiveStore::open(source, cfg).expect("manifest reads cleanly");
    // the faulted block's first reads go through the store's retries, not
    // through the store reader's own `decode_epoch`, which has none
    let got = store
        .decode_block_at("A", 2, 1)
        .expect("transient faults are retried away");
    let want = ArchiveReader::new(&bytes)
        .expect("open")
        .decode_block_at("A", 2, 1)
        .expect("fresh block");
    assert_bits(&got, &want, "faulted block");
    run(&store, cfg, &bytes, 0xFA17);
    let s = store.snapshot();
    assert!(s.retries > 0, "{s:?}");
    assert_eq!(plan.stats().transient_errors, 2);
}

/// A block on a bad sector: every read of block 2 of `A@1` fails. A strict
/// read of it is the I/O error, never retried; a salvage read of the field
/// fills and records exactly that block and returns every other block as a
/// fresh reader does.
#[test]
fn a_permanently_unreadable_block_fails_alone() {
    let bytes = series();
    let (off, len) = ArchiveReader::new(&bytes)
        .expect("open")
        .entries()
        .iter()
        .find(|e| e.name == "A" && e.epoch == 1)
        .expect("entry")
        .block_span(2)
        .expect("span");
    let plan = FaultPlan::new().unreadable_at(off..off + len as u64);
    let cfg = StoreConfig::with_tiers(2 * BLOCK_BYTES, 1 << 20).no_prefetch();
    let source = FaultInjectingReader::new(Cursor::new(bytes.clone()), plan.clone());
    let store = ArchiveStore::open(source, cfg).expect("manifest reads cleanly");

    let err = store
        .decode_block_at("A", 2, 1)
        .expect_err("an unreadable block cannot decode");
    assert!(
        matches!(err.root_cause(), CfcError::Io { .. }),
        "want the I/O error, got {err:?}"
    );
    assert_eq!(
        store.snapshot().retries,
        0,
        "a permanent error is not retried"
    );
    assert!(plan.stats().permanent_errors > 0, "{:?}", plan.stats());

    let salvage = ReadRequest::new("A").at(1).policy(DecodePolicy::salvage());
    let got = store.read(&salvage).expect("salvage read");
    let damaged: Vec<(&str, usize)> = got
        .damage
        .iter()
        .map(|d| (d.field.as_str(), d.block))
        .collect();
    assert_eq!(damaged, [("A@e1", 2)]);
    let fill = DecodePolicy::salvage().fill().expect("salvage fills");
    let want = ArchiveReader::new(&bytes)
        .expect("open")
        .read(&ReadRequest::new("A").at(1))
        .expect("fresh read")
        .data;
    let rows = got
        .data
        .as_slice()
        .chunks(COLS)
        .zip(want.as_slice().chunks(COLS));
    for (row, (g, w)) in rows.enumerate() {
        if row / CHUNK_ROWS == 2 {
            assert!(g.iter().all(|v| v.to_bits() == fill.to_bits()), "row {row}");
        } else {
            assert_bits(
                &Field::from_vec(Shape::d1(COLS), g.to_vec()),
                &Field::from_vec(Shape::d1(COLS), w.to_vec()),
                &format!("row {row}"),
            );
        }
    }
    check_counters(&store.snapshot(), "after the salvage read");
}

/// An unknown name is refused by name, ahead of any epoch check.
#[test]
fn an_unknown_name_is_refused_before_the_epoch() {
    let bytes = series();
    let store = ArchiveStore::new(
        ArchiveReader::new(&bytes).expect("open"),
        StoreConfig::default(),
    );
    let unknown = |r: Result<(), CfcError>| match r {
        Err(CfcError::InvalidInput(m)) => assert_eq!(m, "archive has no field Q"),
        other => panic!("expected the unknown-name error, got {other:?}"),
    };
    for epoch in [0, EPOCHS] {
        unknown(store.read(&ReadRequest::new("Q").at(epoch)).map(drop));
        unknown(store.decode_block_at("Q", 0, epoch).map(drop));
        unknown(store.invalidate_field_at("Q", epoch));
    }
    unknown(store.invalidate_field("Q"));
    let s = store.snapshot();
    assert_eq!(s.lookups(), 0, "{s:?}");
}
