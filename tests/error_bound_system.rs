//! The error bound as a property of the system, not of one decode path:
//! `|v − v'| ≤ eb` against the **original** samples, for every field of a
//! `datagen` snapshot and of a 4-epoch series, through each way a caller
//! can get values back — `ArchiveReader::read` (whole field, and windows
//! that end at every row of a block, which decode that block only so far:
//! the cross-field target and the deltas at the end of their chain
//! included), `decode_all` / `decode_epoch`, and for the baseline-coded
//! fields `ArchiveStore::read` cold and again after the blocks
//! were evicted to tier 2 and promoted back. The other
//! read-path suites compare decode paths with each other; if all of them
//! drifted together, only a comparison with the input would notice.

use cross_field_compression::core::archive::{
    ArchiveBuilder, ArchiveReader, ArchiveStore, FieldRole, ReadRequest, StoreConfig,
};
use cross_field_compression::core::TrainConfig;
use cross_field_compression::datagen::{self, GenParams};
use cross_field_compression::tensor::{Dataset, Field, Region, Shape};

/// `|v − v'| ≤ eb` pointwise, `got` against the same window of `orig`.
fn assert_within(orig: &Field, got: &Field, eb: f64, what: &str) {
    assert_eq!(got.shape(), orig.shape(), "{what}: shape");
    for (off, (&a, &b)) in orig.as_slice().iter().zip(got.as_slice()).enumerate() {
        let err = (a as f64 - b as f64).abs();
        assert!(err <= eb, "{what}: |{a} − {b}| = {err} > {eb} at {off}");
    }
}

/// Every read path over one archive, against the snapshots it was written
/// from. `chunk_slabs` is the writer's block height, used to pick a region
/// that crosses a block boundary. Returns how many fields it checked.
fn check_every_path(bytes: &[u8], snapshots: &[Dataset], chunk_slabs: usize) -> usize {
    let reader = ArchiveReader::new(bytes).expect("open");
    assert_eq!(reader.n_epochs(), snapshots.len());
    let shape = snapshots[0].shape();
    // interior window straddling the first block boundary
    let mut ranges: Vec<(usize, usize)> = shape.dims().iter().map(|&d| (1, d - 1)).collect();
    ranges[0] = (chunk_slabs - 1, chunk_slabs + 1);
    let window = Region::from_ranges(&ranges);
    let decoded_bytes = shape.len() * 4;
    // tier 1 holds half a field, tier 2 every compressed block: reading a
    // whole field evicts its own first blocks, reading it again promotes
    let store = ArchiveStore::new(
        ArchiveReader::new(bytes).expect("open"),
        StoreConfig::with_tiers(decoded_bytes / 2, 1 << 24).no_prefetch(),
    );

    let mut checked = 0;
    for (epoch, ds) in snapshots.iter().enumerate() {
        let all = if reader.n_epochs() == 1 {
            reader.decode_all().expect("decode_all")
        } else {
            reader.decode_epoch(epoch).expect("decode_epoch")
        };
        for (name, orig) in ds.iter() {
            let entry = reader
                .entries()
                .iter()
                .find(|e| e.name == name && e.epoch == epoch)
                .expect("entry");
            let eb = entry.eb_abs;
            let what = |path: &str| format!("{name}@e{epoch} ({:?}) via {path}", entry.role);
            assert_within(orig, all.expect_field(name), eb, &what("decode_all"));
            checked += 1;
            let whole = ReadRequest::new(name).at(epoch);
            let part = whole.region(&window);

            let got = reader.read(&whole).expect("reader whole");
            assert!(got.damage.is_empty());
            assert_within(orig, &got.data, eb, &what("ArchiveReader::read"));
            // from the last row of block 0 to every row of block 1: the
            // read decodes block 1, and what it decodes against, that far
            for r1 in chunk_slabs + 1..=(2 * chunk_slabs).min(shape.dims()[0]) {
                ranges[0] = (chunk_slabs - 1, r1);
                let rows = Region::from_ranges(&ranges);
                let got = reader.read(&whole.region(&rows)).expect("reader region");
                assert_within(&orig.crop(&rows), &got.data, eb, &what("region read"));
            }
            // the store decodes whole blocks through the same decoder; a
            // target is held to the bound on the reader's paths above, not
            // once per tier (each read of it re-runs CFNN inference, which
            // a debug build makes slow)
            if entry.role == FieldRole::Target {
                continue;
            }

            let before = store.snapshot();
            let got = store.read(&whole).expect("store cold");
            assert_within(orig, &got.data, eb, &what("ArchiveStore::read cold"));
            let cold = store.snapshot();
            assert!(cold.demotions > before.demotions, "{cold:?}");
            let got = store.read(&whole).expect("store promoted");
            assert_within(orig, &got.data, eb, &what("ArchiveStore::read promoted"));
            let got = store.read(&part).expect("store region");
            assert_within(&orig.crop(&window), &got.data, eb, &what("store region"));
            let warm = store.snapshot();
            assert!(
                warm.promotions > cold.promotions && warm.tier2_hits > cold.tier2_hits,
                "second read must come back through tier 2: {warm:?}"
            );
        }
    }
    checked
}

#[test]
fn snapshot_holds_the_bound_against_the_original_on_every_read_path() {
    // SCALE analogue, 8 slabs in 4 blocks; one cross-field row so T, QV and
    // PRES are anchors (baseline-coded, decoded again under the target). The
    // target is there for the roles, so its network is barely trained.
    let ds = datagen::scale::generate(Shape::d3(8, 24, 24), GenParams::default().with_seed(7));
    let barely = TrainConfig {
        epochs: 1,
        n_patches: 8,
        ..TrainConfig::fast()
    };
    let bytes = ArchiveBuilder::relative(1e-3)
        .train_config(barely)
        .cross_field("RH", &["T", "QV", "PRES"])
        .chunk_elements(2 * 24 * 24)
        .build()
        .write(&ds)
        .expect("write");
    let reader = ArchiveReader::new(&bytes).expect("open");
    let roles = |role: FieldRole| reader.entries().iter().filter(|e| e.role == role).count();
    assert_eq!(roles(FieldRole::Anchor), 3);
    assert_eq!(roles(FieldRole::Target), 1);
    assert_eq!(roles(FieldRole::Independent), ds.len() - 4);
    assert_eq!(
        check_every_path(&bytes, std::slice::from_ref(&ds), 2),
        ds.len()
    );
}

#[test]
fn series_holds_the_bound_against_the_original_on_every_read_path() {
    // keyframes at epochs 0 and 2, deltas (temporal predictor) at 1 and 3
    let snapshots = datagen::temporal::generate(Shape::d2(48, 40), 4, GenParams::default());
    let bytes = ArchiveBuilder::relative(1e-3)
        .chunk_elements(12 * 40)
        .keyframe_interval(2)
        .build()
        .write_epochs(&snapshots)
        .expect("write_epochs");
    let fields = snapshots[0].len();
    assert_eq!(check_every_path(&bytes, &snapshots, 12), 4 * fields);
}
