//! End-to-end fault tolerance: deterministic fault injection against the
//! store's serving path, plus scrub/repair round-trips on damaged
//! archives.
//!
//! * transient I/O faults (timeouts) are retried with backoff and
//!   counted, invisibly to the caller;
//! * permanent corruption under [`DecodePolicy::Salvage`] fills exactly
//!   the damaged blocks, never pollutes the cache, and bumps
//!   `salvaged_blocks`;
//! * `scrub_bytes` finds injected corruption that `repair_bytes` then
//!   round-trips back to a fully decodable archive;
//! * on temporal (v3) archives, keyframe damage cascades `cascaded_from`
//!   blame through the dependent delta epochs — and stops at the next
//!   keyframe — while epoch-scoped store invalidation drops exactly the
//!   entries a torn-tail repair removed from disk.

mod common;

use std::io::Cursor;

use cross_field_compression::core::archive::{
    repair_bytes, scrub_bytes, ArchiveBuilder, ArchiveReader, ArchiveStore, DecodePolicy,
    FaultInjectingReader, FaultPlan, ReadRequest, ScrubKind, ScrubOptions, StoreConfig,
};
use cross_field_compression::core::config::TrainConfig;
use cross_field_compression::tensor::{Dataset, Field, Region, Shape};

const ROWS: usize = 24;
const COLS: usize = 24;
const ROWS_PER_BLOCK: usize = 6;

/// Anchor + cross-field target, 4 blocks per field.
fn sample_archive() -> Vec<u8> {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES
        .get_or_init(|| {
            let shape = Shape::d2(ROWS, COLS);
            let anchor = Field::from_fn(shape, |i| {
                ((i[0] as f32) * 0.2).sin() * 10.0 + i[1] as f32 * 0.1
            });
            let target = anchor.map(|v| 0.8 * v + 2.0);
            let mut ds = Dataset::new("FAULT", shape);
            ds.push("A", anchor);
            ds.push("T", target);
            let bytes = ArchiveBuilder::relative(1e-3)
                .train_config(TrainConfig::fast())
                .cross_field("T", &["A"])
                .always_cross_field()
                .chunk_elements(ROWS_PER_BLOCK * COLS)
                .build()
                .write(&ds)
                .expect("archive write");
            common::assert_has_target(&bytes);
            bytes
        })
        .clone()
}

const EPOCHS: usize = 6;
const INTERVAL: usize = 3;

/// The [`sample_archive`] structure evolved over [`EPOCHS`] epochs at
/// keyframe interval [`INTERVAL`]: keyframes at 0 and 3, each heading a
/// two-delta chain.
fn temporal_archive() -> Vec<u8> {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES
        .get_or_init(|| {
            let shape = Shape::d2(ROWS, COLS);
            let snapshots: Vec<Dataset> = (0..EPOCHS)
                .map(|e| {
                    let t = e as f32;
                    let anchor = Field::from_fn(shape, |i| {
                        ((i[0] as f32) * 0.2 + 0.04 * t).sin() * 10.0 + i[1] as f32 * 0.1 + 0.25 * t
                    });
                    let target = anchor.map(|v| 0.8 * v + 2.0);
                    let mut ds = Dataset::new("FAULT", shape);
                    ds.push("A", anchor);
                    ds.push("T", target);
                    ds
                })
                .collect();
            let bytes = ArchiveBuilder::relative(1e-3)
                .train_config(TrainConfig::fast())
                .cross_field("T", &["A"])
                .always_cross_field()
                .chunk_elements(ROWS_PER_BLOCK * COLS)
                .keyframe_interval(INTERVAL)
                .build()
                .write_epochs(&snapshots)
                .expect("temporal archive write");
            common::assert_has_target(&bytes);
            bytes
        })
        .clone()
}

/// Absolute span of one block of `field` at `epoch`.
fn block_span_at(bytes: &[u8], field: &str, epoch: usize, block: usize) -> (u64, usize) {
    let reader = ArchiveReader::new(bytes).expect("parse");
    reader
        .entries()
        .iter()
        .find(|e| e.name == field && e.epoch == epoch)
        .expect("entry")
        .block_span(block)
        .expect("span")
}

fn block_span(bytes: &[u8], field: &str, block: usize) -> (u64, usize) {
    let reader = ArchiveReader::new(bytes).expect("parse");
    reader
        .entries()
        .iter()
        .find(|e| e.name == field)
        .expect("field")
        .block_span(block)
        .expect("span")
}

fn faulty_store(
    bytes: Vec<u8>,
    plan: FaultPlan,
    config: StoreConfig,
) -> ArchiveStore<FaultInjectingReader<Cursor<Vec<u8>>>> {
    ArchiveStore::open(FaultInjectingReader::new(Cursor::new(bytes), plan), config)
        .expect("manifest reads cleanly")
}

#[test]
fn transient_faults_are_retried_invisibly() {
    let bytes = sample_archive();
    let (off, len) = block_span(&bytes, "A", 1);
    // the first two reads of A[1] time out; the third succeeds
    let plan = FaultPlan::new().transient_at(off..off + len as u64, 2);
    let clean = ArchiveReader::new(&bytes)
        .expect("parse")
        .read(&ReadRequest::new("A"))
        .expect("clean decode")
        .data;

    let store = faulty_store(bytes, plan.clone(), StoreConfig::default());
    let region = Region::d2(ROWS_PER_BLOCK, 2 * ROWS_PER_BLOCK, 0, COLS);
    let got = store
        .decode_region("A", &region)
        .expect("transient faults must be retried away");
    let lo = ROWS_PER_BLOCK * COLS;
    assert!(
        got.as_slice()
            .iter()
            .zip(&clean.as_slice()[lo..2 * lo])
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "retried decode must be byte-identical"
    );
    let stats = store.snapshot();
    assert_eq!(stats.retries, 2, "{stats:?}");
    assert_eq!(stats.salvaged_blocks, 0);
    assert_eq!(plan.stats().transient_errors, 2);
}

#[test]
fn exhausted_retries_surface_as_transient_errors() {
    let bytes = sample_archive();
    let (off, len) = block_span(&bytes, "A", 0);
    // effectively never clears within this test's handful of attempts
    let plan = FaultPlan::new().transient_at(off..off + len as u64, 1_000);
    let store = faulty_store(bytes, plan, StoreConfig::default());

    let err = store
        .decode_block("A", 0)
        .expect_err("fault never clears, so retries must exhaust");
    assert!(err.is_transient(), "{err}");
    assert_eq!(
        store.snapshot().retries,
        2,
        "the store's two retries, then give up"
    );

    // salvage turns the same exhaustion into fill + damage
    let s = store
        .read(
            &ReadRequest::new("A")
                .region(&Region::d2(0, 2 * ROWS_PER_BLOCK, 0, COLS))
                .policy(DecodePolicy::salvage()),
        )
        .expect("salvage survives a permanently-failing block");
    assert_eq!(s.damage.blocks_of("A"), vec![0]);
    assert_eq!(store.snapshot().salvaged_blocks, 1);
}

#[test]
fn salvage_fill_is_never_cached() {
    let mut bytes = sample_archive();
    let (off, len) = block_span(&bytes, "T", 1);
    bytes[off as usize + len / 2] ^= 0x04; // permanent payload rot

    // readahead off: the tier-2 purity counts below are exact, and a
    // speculative decode of T[2]/T[3] would add its own tier-2 entries
    let store = ArchiveStore::open(Cursor::new(bytes), StoreConfig::default().no_prefetch())
        .expect("parse");
    let region = Region::d2(0, 2 * ROWS_PER_BLOCK, 0, COLS);

    // strict: typed failure naming the block
    let err = store.decode_region("T", &region).expect_err("strict fails");
    assert!(err.to_string().contains('T'), "{err}");

    // salvage twice: the fill is rebuilt each time (cache never holds it)
    for round in 1..=2u64 {
        let s = store
            .read(
                &ReadRequest::new("T")
                    .region(&region)
                    .policy(DecodePolicy::Salvage { fill: -3.0 }),
            )
            .expect("salvage");
        assert_eq!(s.damage.blocks_of("T"), vec![1], "round {round}");
        let span = ROWS_PER_BLOCK * COLS;
        assert!(
            s.data.as_slice()[span..2 * span].iter().all(|v| *v == -3.0),
            "round {round}: damaged block must be fill"
        );
        assert_eq!(store.snapshot().salvaged_blocks, round);
    }

    // and a strict read afterwards still reports the corruption — it was
    // never served fill out of the cache
    assert!(store.decode_block("T", 1).is_err());

    // tier-2 purity: the compressed-bytes tier must hold exactly the
    // blocks whose decode fully succeeded — T[0] plus the anchor blocks
    // A[0] and A[1] — and never the CRC-failed bytes of T[1], even though
    // they were fetched on every attempt
    let s = store.snapshot();
    assert_eq!(
        s.tier2_blocks, 3,
        "tier 2 must hold T[0], A[0], A[1] and nothing else"
    );
    assert_eq!(
        s.tier2_insertions, 3,
        "the damaged block's bytes must never have entered tier 2"
    );
}

#[test]
fn scrub_finds_injected_corruption_and_repair_roundtrips() {
    let clean = sample_archive();
    assert!(
        scrub_bytes(&clean, &ScrubOptions { deep: true }).is_clean(),
        "pristine archive must scrub clean"
    );
    let want = ArchiveReader::new(&clean)
        .expect("parse")
        .decode_all()
        .expect("decode");

    // payload rot is found and located
    let (off, len) = block_span(&clean, "T", 3);
    let mut bad = clean.clone();
    bad[off as usize + len / 2] ^= 0x80;
    let report = scrub_bytes(&bad, &ScrubOptions::default());
    assert!(report.findings.iter().any(|f| f.kind == ScrubKind::Checksum
        && f.field.as_deref() == Some("T")
        && f.block == Some(3)));

    // a torn tail is truncated back to a fully decodable archive
    let torn = &clean[..off as usize + len / 2];
    assert!(!scrub_bytes(torn, &ScrubOptions::default()).is_clean());
    let fixed = repair_bytes(torn).expect("scan-recoverable");
    assert!(!fixed.actions.is_empty());
    let report = scrub_bytes(&fixed.bytes, &ScrubOptions { deep: true });
    assert!(report.is_clean(), "{:?}", report.findings);
    let got = ArchiveReader::new(&fixed.bytes)
        .expect("parse repaired")
        .decode_all()
        .expect("decode repaired");
    // 3 intact blocks survive, byte-identical to the clean decode's prefix
    let keep = 3 * ROWS_PER_BLOCK * COLS;
    for name in ["A", "T"] {
        assert!(
            got.expect_field(name).as_slice()[..keep]
                .iter()
                .zip(&want.expect_field(name).as_slice()[..keep])
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "{name}: repaired prefix must match the clean decode"
        );
    }
}

/// Damage in a keyframe block is blamed causally through every epoch that
/// decodes against it: the same-epoch cross-field target, and the delta
/// chain hanging off the keyframe — until the next keyframe breaks the
/// chain and epochs decode clean again.
#[test]
fn keyframe_damage_cascades_blame_through_delta_epochs() {
    let mut bytes = temporal_archive();
    let (off, len) = block_span_at(&bytes, "A", 0, 2);
    bytes[off as usize + len / 2] ^= 0x08; // rot inside keyframe block A[2]
    let reader = ArchiveReader::new(&bytes).expect("parse v3");

    // epoch 0: the target cascades off its damaged anchor block
    let s = reader
        .read(&ReadRequest::new("T").policy(DecodePolicy::salvage()))
        .expect("salvage epoch 0");
    assert_eq!(s.damage.blocks_of("A"), vec![2]);
    assert_eq!(s.damage.blocks_of("T"), vec![2]);
    let root = s.damage.iter().find(|d| d.field == "A").expect("root");
    assert_eq!(root.cascaded_from, None, "the anchor block carries the rot");
    let t0 = s.damage.iter().find(|d| d.field == "T").expect("target");
    assert_eq!(t0.cascaded_from.as_deref(), Some("A"));

    // delta epochs 1 and 2 chain on the damaged data: blame propagates
    // with `cascaded_from` naming the chain predecessor, never the epoch's
    // own (healthy) bytes
    for epoch in [1usize, 2] {
        let s = reader
            .read(
                &ReadRequest::new("T")
                    .at(epoch)
                    .policy(DecodePolicy::salvage()),
            )
            .expect("salvage delta epoch");
        let name = format!("T@e{epoch}");
        assert_eq!(s.damage.blocks_of(&name), vec![2], "{}", s.damage.summary());
        let d = s.damage.iter().find(|d| d.field == name).expect("entry");
        let from = d.cascaded_from.as_deref().expect("cascaded damage");
        assert!(
            from.starts_with('T') || from.starts_with('A'),
            "blame must point into the chain, got {from}"
        );
    }

    // the next keyframe (epoch 3) breaks the chain: it and its deltas
    // decode strictly clean
    for epoch in 3..EPOCHS {
        for field in ["A", "T"] {
            let s = reader
                .read(
                    &ReadRequest::new(field)
                        .at(epoch)
                        .policy(DecodePolicy::salvage()),
                )
                .expect("decode past next keyframe");
            assert!(
                s.damage.is_empty(),
                "epoch {epoch} field {field} must be clean: {}",
                s.damage.summary()
            );
        }
    }
}

/// The post-`cfc-fsck --repair` workflow on a temporal archive: a torn
/// tail is truncated back to the last complete epoch boundary on disk,
/// and epoch-scoped invalidation then drops exactly the store entries the
/// repair removed — earlier epochs keep serving from cache.
#[test]
fn repair_truncation_plus_epoch_invalidation_drops_stale_entries() {
    let bytes = temporal_archive();
    let path = std::env::temp_dir().join(format!("cfc_fault_v3_{}.cfar", std::process::id()));
    std::fs::write(&path, &bytes).expect("write temp archive");

    let store = ArchiveStore::open(
        std::fs::File::open(&path).expect("open"),
        StoreConfig::default().no_prefetch(),
    )
    .expect("parse");
    // warm epoch 0 and the whole second chain (keyframe 3 + deltas 4, 5)
    let a_at = |epoch| store.read(&ReadRequest::new("A").at(epoch)).map(|s| s.data);
    let e3 = a_at(3).expect("epoch 3");
    for epoch in [0usize, 4, 5] {
        a_at(epoch).expect("warm");
    }

    // the file is torn inside epoch 4 and repaired in place: cfc-fsck
    // truncates to the 4 complete epochs and patches the epoch count
    let (off, len) = block_span_at(&bytes, "A", 4, 1);
    let torn = &bytes[..off as usize + len / 2];
    assert!(!scrub_bytes(torn, &ScrubOptions::default()).is_clean());
    let fixed = repair_bytes(torn).expect("torn tail is repairable");
    assert!(
        fixed
            .actions
            .iter()
            .any(|a| a.contains("truncate torn tail")),
        "{:?}",
        fixed.actions
    );
    assert_eq!(
        ArchiveReader::new(&fixed.bytes).expect("parse").n_epochs(),
        4
    );
    std::fs::write(&path, &fixed.bytes).expect("rewrite repaired archive");

    // purge the epochs the repair dropped, for both fields
    for field in ["A", "T"] {
        store.invalidate_field_at(field, 4).expect("invalidate");
    }

    // the surviving chain still serves from cache (no new misses)...
    let misses = store.snapshot().misses;
    assert_eq!(a_at(3).expect("cached epoch 3"), e3);
    assert_eq!(store.snapshot().misses, misses, "epoch 3 must stay cached");

    // ...while the dropped epochs are gone: nothing stale is served, the
    // read goes to disk and finds the bytes missing
    assert!(
        a_at(4).is_err(),
        "epoch 4 must not be served from a stale cache after invalidation"
    );
    let _ = std::fs::remove_file(&path);
}
