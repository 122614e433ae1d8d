//! The error bound as a property of the system, not of one decode path:
//! `|v − v'| ≤ eb` against the **original** samples, for every field of a
//! `datagen` snapshot, of a 4-epoch series and of the committed v1 fixture,
//! the cross-field targets and the deltas at the end of their chain
//! included, through each way a caller can get values back —
//! `ArchiveReader::read` (whole field, and windows that end at every row of
//! a block, which decode that block only so far), `decode_all` /
//! `decode_epoch`, and `ArchiveStore::read` cold and again out of tier 2.
//! The other read-path suites compare decode paths with each other; if all
//! of them drifted together, only a comparison with the input would notice.
//!
//! A snapshot's meta areas are under the same contract: every bit of a
//! target's embedded model and hybrid weights, flipped, is a checksum
//! error, never a decode — of a field that would miss the bound. A v2 meta
//! area has no checksum; there a NaN written over a model weight is a
//! corrupt model, refused when the model is parsed.
//!
//! And the two callers of the one cross-field encode step against each
//! other: `CrossFieldCompressor::compress` and a one-block `ArchiveWriter`
//! target reconstruct the same field bit for bit, and `decompress` and the
//! reader refuse the same wrong-arity hybrid weights with the same error.
//!
//! And the writer's guard: a planned target whose cross-field encoding is
//! not smaller than its independent one — or whose freshly trained model
//! diverged — is written as the row a baseline-only write holds, which
//! opens, scrubs clean, needs no repair and holds the bound; each keyframe
//! of a series decides on its own. The same holds for a target demoted
//! before its whole fit, from its meta area's size or from the estimate
//! one inferred block gives.

use cfc_bench::golden;
use cross_field_compression::core::archive::{
    repair_bytes, scrub_bytes, ArchiveBuilder, ArchiveEntry, ArchiveReader, ArchiveStore,
    FieldRole, ReadRequest, ScrubOptions, StoreConfig,
};
use cross_field_compression::core::{
    train_cfnn, CfnnSpec, CrossFieldCompressor, HybridModel, TrainConfig,
};
use cross_field_compression::datagen::{self, GenParams};
use cross_field_compression::sz::stream::{Container, SectionTag};
use cross_field_compression::tensor::{Dataset, Field, Region, Shape};
use cross_field_compression::CfcError;

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
/// that crosses a block boundary (for a one-block v1 field: any row its
/// windows may turn on). Returns how many fields it checked.
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

            let before = store.snapshot();
            let got = store.read(&whole).expect("store cold");
            assert_within(orig, &got.data, eb, &what("ArchiveStore::read cold"));
            let cold = store.snapshot();
            // a one-block (v1) field is bigger than tier 1: served without
            // being kept, nothing to evict — its second read comes out of
            // tier 2 all the same
            assert!(
                cold.demotions > before.demotions || entry.n_blocks() == 1,
                "{cold:?}"
            );
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
        .always_cross_field()
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

fn v1_fixture() -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/small_v1.cfar");
    std::fs::read(&path).expect("golden v1 fixture")
}

/// The committed v1 fixture — one monolithic stream per field, the target's
/// model and hybrid weights inside its stream — against the dataset it was
/// written from.
#[test]
fn v1_fixture_holds_the_bound_against_the_original_on_every_read_path() {
    let bytes = v1_fixture();
    let reader = ArchiveReader::new(&bytes).expect("open");
    assert_eq!(reader.version(), 1);
    let roles: Vec<FieldRole> = reader.entries().iter().map(|e| e.role).collect();
    assert_eq!(
        roles,
        [FieldRole::Anchor, FieldRole::Anchor, FieldRole::Target]
    );
    let ds = golden::golden_dataset();
    assert_eq!(
        check_every_path(&bytes, std::slice::from_ref(&ds), 16),
        ds.len()
    );
}

/// Dual quantization: the lattice is fixed by the field and the bound, so
/// whichever caller of the encode step wrote the target, and however well
/// its predictor did, the reader gets the same samples back.
#[test]
fn compress_and_a_one_block_writer_target_reconstruct_the_same_field() {
    let ds = golden::golden_dataset();
    let target = ds.expect_field("RH");
    let originals = [ds.expect_field("T"), ds.expect_field("P")];
    // the bits do not depend on the model, so neither is trained for long
    let barely = TrainConfig {
        epochs: 1,
        n_patches: 8,
        ..TrainConfig::fast()
    };
    let comp = CrossFieldCompressor::new(golden::GOLDEN_REL_EB);
    let anchors_dec = originals.map(|a| comp.roundtrip_anchor(a).expect("anchor"));
    let refs: Vec<&Field> = anchors_dec.iter().collect();
    let trained = train_cfnn(&CfnnSpec::writer_default(2), &barely, &originals, target);
    let stream = comp.compress(&trained, target, &refs).expect("compress");
    let from_stream = comp.decompress(&stream.bytes, &refs).expect("decompress");
    assert_within(target, &from_stream, stream.eb_abs, "decompress");

    // the default chunk holds a 32×32 field whole: one block
    let archive = ArchiveBuilder::relative(golden::GOLDEN_REL_EB)
        .train_config(barely)
        .cross_field("RH", &["T", "P"])
        .always_cross_field()
        .build()
        .write(&ds)
        .expect("write");
    let reader = ArchiveReader::new(&archive).expect("open");
    let entry = reader.entries().iter().find(|e| e.name == "RH").unwrap();
    assert_eq!((entry.role, entry.n_blocks()), (FieldRole::Target, 1));
    assert_eq!(entry.eb_abs, stream.eb_abs);
    let from_archive = reader.read(&ReadRequest::new("RH")).expect("read").data;
    assert_eq!(from_archive.shape(), from_stream.shape());
    assert!(
        from_archive
            .as_slice()
            .iter()
            .zip(from_stream.as_slice())
            .all(|(a, s)| a.to_bits() == s.to_bits()),
        "the two callers of the encode step reconstruct different fields"
    );
}

/// The one rule about hybrid arity refuses the same weights with the same
/// error on both decode entries: the v1 fixture's target stream, its hybrid
/// section swapped for one of the wrong arity, through
/// `CrossFieldCompressor::decompress` and — patched back into the
/// fixture — through the reader.
#[test]
fn a_wrong_arity_hybrid_is_the_same_error_through_decompress_and_the_reader() {
    let v1 = v1_fixture();
    let reader = ArchiveReader::new(&v1).expect("open");
    let entry = reader.entries().last().expect("entries");
    assert_eq!((entry.name.as_str(), entry.role), ("RH", FieldRole::Target));
    let (off, len) = entry.block_span(0).expect("a v1 field is one block");
    let off = off as usize;
    assert_eq!(off + len, v1.len(), "the target is last");

    let old = Container::try_from_bytes(&v1[off..]).expect("fixture stream");
    let mut bad = Container::new(old.shape, old.eb, old.radius);
    for tag in [
        SectionTag::Residuals,
        SectionTag::Outliers,
        SectionTag::Model,
    ] {
        bad.push(tag, old.require_section(tag).expect("section").to_vec());
    }
    // Lorenzo + one weight per axis is arity 3 in 2-D; ship 4
    let four = HybridModel {
        weights: vec![0.25; 4],
        losses: vec![],
    };
    bad.push(SectionTag::HybridWeights, four.serialize());
    let bad = bad.to_bytes();

    let anchors = [
        reader.read(&ReadRequest::new("T")).unwrap().data,
        reader.read(&ReadRequest::new("P")).unwrap().data,
    ];
    let direct = CrossFieldCompressor::new(golden::GOLDEN_REL_EB)
        .decompress(&bad, &anchors.iter().collect::<Vec<_>>())
        .unwrap_err();
    assert!(
        matches!(&direct, CfcError::Corrupt { context, .. } if *context == "hybrid weights"),
        "{direct:?}"
    );

    // a v1 row ends `stream_len u64 | stream`
    let mut patched = v1[..off - 8].to_vec();
    patched.extend_from_slice(&(bad.len() as u64).to_le_bytes());
    patched.extend_from_slice(&bad);
    let through_reader = ArchiveReader::new(&patched)
        .expect("open")
        .read(&ReadRequest::new("RH"))
        .unwrap_err();
    assert_eq!(through_reader.root_cause(), &direct);
}

/// The frozen v2 fixture with one weight of its embedded model (the first
/// of the 4→12 convolution) overwritten by NaN. A v2 meta area carries no
/// CRC, so only the model parser stands between that byte and a garbled
/// target: the target's read is a corrupt model, `decode_all` fails, and
/// the anchors read as they always did.
#[test]
fn a_nan_model_weight_in_a_v2_meta_area_is_a_corrupt_model() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/small_v2.cfar");
    let clean = std::fs::read(&path).expect("golden v2 fixture");
    // tag 1 (conv), in 4, out 12, kernel 3, 432 weights — then the weights
    let mut header = vec![1u8];
    for v in [4u32, 12, 3, 432] {
        header.extend_from_slice(&v.to_le_bytes());
    }
    assert_eq!(&clean[2249..2266], &header[..], "the conv layer has moved");
    let mut bad = clean.clone();
    bad[2266..2270].copy_from_slice(&f32::NAN.to_le_bytes());

    let (clean, bad) = (
        ArchiveReader::new(&clean).expect("open clean"),
        ArchiveReader::new(&bad).expect("a v2 manifest does not cover its meta areas"),
    );
    assert_eq!(bad.version(), 2);
    let rh = bad.read(&ReadRequest::new("RH")).map(|_| ()).unwrap_err();
    assert!(
        matches!(rh.root_cause(), CfcError::Corrupt { context, .. } if *context == "embedded model"),
        "{rh:?}"
    );
    assert!(bad.decode_all().is_err());
    for anchor in ["T", "P"] {
        let want = clean.read(&ReadRequest::new(anchor)).expect("clean anchor");
        let got = bad.read(&ReadRequest::new(anchor)).expect("anchor");
        assert_eq!(got.data.shape(), want.data.shape());
        assert!(
            got.data
                .as_slice()
                .iter()
                .zip(want.data.as_slice())
                .all(|(g, w)| g.to_bits() == w.to_bits()),
            "{anchor} differs"
        );
    }
}

/// Each bit of every target's meta area (embedded CFNN and hybrid weights)
/// of a golden-plan snapshot, flipped one at a time: the read of that
/// target is a typed checksum error, never `Ok`.
#[test]
fn every_flipped_bit_of_a_snapshot_meta_area_is_a_checksum_error() {
    let clean = golden::golden_builder()
        .chunk_elements(golden::GOLDEN_CHUNK_ELEMENTS)
        .build()
        .write(&golden::golden_dataset())
        .expect("write");
    let reader = ArchiveReader::new(&clean).expect("open");
    // a meta area ends where block 0 begins
    let metas: Vec<(String, usize, usize)> = reader
        .entries()
        .iter()
        .filter(|e| e.role == FieldRole::Target)
        .map(|e| {
            let block0 = e.block_span(0).expect("span").0 as usize;
            (e.name.clone(), block0 - e.meta_len(), e.meta_len())
        })
        .collect();
    assert_eq!(metas.len(), 1, "the golden plan has one target");
    drop(reader);

    let mut bytes = clean.clone();
    let mut flips = 0;
    for (name, start, len) in &metas {
        for bit in 0..len * 8 {
            let (at, mask) = (start + bit / 8, 1u8 << (bit % 8));
            bytes[at] ^= mask;
            let read = ArchiveReader::new(&bytes)
                .and_then(|r| r.read(&ReadRequest::new(name)).map(|_| ()));
            match read {
                Err(e) if matches!(e.root_cause(), CfcError::ChecksumMismatch { .. }) => {}
                other => panic!("{name}: meta bit {bit} flipped reads {other:?}"),
            }
            bytes[at] ^= mask;
            flips += 1;
        }
    }
    assert!(
        flips > 8 * 1000,
        "{flips} flips: the model is in the meta area"
    );
}

/// The golden plan under the default builder: on 32×32 fields the model
/// alone outweighs `RH`'s independent encoding, so the writer demotes `RH`
/// to the row a baseline-only write holds — same bytes, same samples, no
/// anchors, no meta area — while `T` and `P` stay anchors. That archive
/// opens, scrubs clean light and deep, is left as it is by `repair_bytes`,
/// and holds the bound on every read path.
#[test]
fn a_planned_target_that_loses_is_written_as_its_baseline_row() {
    let ds = golden::golden_dataset();
    let write = |builder: ArchiveBuilder| {
        let mut bytes = Vec::new();
        let report = builder
            .chunk_elements(golden::GOLDEN_CHUNK_ELEMENTS)
            .build()
            .write_to(&ds, &mut bytes)
            .expect("write");
        let rh = report.fields.into_iter().find(|f| f.name == "RH");
        (bytes, rh.expect("RH reported"))
    };
    let (guarded, rh) = write(
        ArchiveBuilder::relative(golden::GOLDEN_REL_EB)
            .train_config(golden::golden_train_config())
            .cross_field("RH", &["T", "P"]),
    );
    let (baseline, baseline_rh) = write(ArchiveBuilder::relative(golden::GOLDEN_REL_EB));
    assert_eq!(rh.role, FieldRole::Independent);
    assert_eq!(rh.bytes, baseline_rh.bytes);

    let reader = ArchiveReader::new(&guarded).expect("open");
    let roles: Vec<(&str, FieldRole)> = reader
        .entries()
        .iter()
        .map(|e| (e.name.as_str(), e.role))
        .collect();
    use FieldRole::{Anchor, Independent};
    assert_eq!(roles, [("T", Anchor), ("P", Anchor), ("RH", Independent)]);
    let entry = reader.entries().iter().find(|e| e.name == "RH").unwrap();
    assert!(entry.anchors.is_empty() && entry.meta_len() == 0);
    let want = ArchiveReader::new(&baseline)
        .and_then(|r| r.read(&ReadRequest::new("RH")))
        .expect("baseline RH")
        .data;
    let got = reader.read(&ReadRequest::new("RH")).expect("RH").data;
    assert!(
        same_bits(&got, &want),
        "RH differs from its baseline decode"
    );

    for deep in [false, true] {
        let scrub = scrub_bytes(&guarded, &ScrubOptions { deep });
        assert!(scrub.is_clean(), "deep {deep}: {:?}", scrub.findings);
    }
    let repaired = repair_bytes(&guarded).expect("repair");
    assert!(repaired.actions.is_empty(), "{:?}", repaired.actions);
    assert!(repaired.bytes == guarded, "repair rewrote a clean archive");
    assert_eq!(
        check_every_path(&guarded, std::slice::from_ref(&ds), 8),
        ds.len()
    );
}

/// Each keyframe of a series with a plan decides its targets on its own:
/// its rows and payloads are the ones a snapshot of that epoch alone
/// writes. And the delta chain still decodes bit-equal to snapshots
/// written with no plan.
#[test]
fn each_keyframe_of_a_series_decides_on_its_own() {
    let snaps = golden::golden_epochs(golden::GOLDEN_V3_EPOCHS);
    let plain = || {
        ArchiveBuilder::relative(golden::GOLDEN_REL_EB)
            .chunk_elements(golden::GOLDEN_CHUNK_ELEMENTS)
    };
    let planned = || {
        plain()
            .train_config(golden::golden_train_config())
            .cross_field("RH", &["T", "P"])
            .keyframe_interval(golden::GOLDEN_KEYFRAME_INTERVAL)
    };
    let series = planned()
        .build()
        .write_epochs(&snaps)
        .expect("write_epochs");
    let reader = ArchiveReader::new(&series).expect("open");
    for (epoch, ds) in snaps.iter().enumerate() {
        if epoch % golden::GOLDEN_KEYFRAME_INTERVAL == 0 {
            let alone = planned().build().write(ds).expect("write");
            let alone_reader = ArchiveReader::new(&alone).expect("open");
            for e in reader.entries().iter().filter(|e| e.epoch == epoch) {
                let a = alone_reader.entries().iter().find(|a| a.name == e.name);
                let a = a.expect("same fields");
                assert_eq!(
                    (e.role, e.meta_len()),
                    (a.role, a.meta_len()),
                    "{}@e{epoch}",
                    e.name
                );
                assert!(
                    payload(&series, e) == payload(&alone, a),
                    "{}@e{epoch}: the keyframe is not the snapshot's",
                    e.name
                );
            }
        }
        let want = plain().build().write(ds).expect("write");
        let want = ArchiveReader::new(&want)
            .and_then(|r| r.decode_all())
            .expect("decode");
        let got = reader.decode_epoch(epoch).expect("decode_epoch");
        for (name, w) in want.iter() {
            assert!(same_bits(got.expect_field(name), w), "{name}@e{epoch}");
        }
    }
}

/// A training run that diverges: at a learning rate of 1e30 the weights
/// leave the finite range within a few steps (asserted below). That model
/// is one the reader refuses, and under the default
/// builder it is not a failed write: the target is written as its
/// independent encoding, within its bound. Under `always_cross_field` it
/// stops the write, as a corrupt embedded model.
#[test]
fn a_diverged_training_run_demotes_the_target_instead_of_failing_the_write() {
    let ds = golden::golden_dataset();
    let diverged = TrainConfig {
        lr: 1e30,
        ..golden::golden_train_config()
    };
    let anchors = [ds.expect_field("T"), ds.expect_field("P")];
    // the model the writer trains: same spec, same data, same seed
    let mut trained = train_cfnn(
        &CfnnSpec::writer_default(2),
        &diverged,
        &anchors,
        ds.expect_field("RH"),
    );
    let params = trained.net.params();
    assert!(
        params
            .iter()
            .any(|p| p.values.iter().any(|v| !v.is_finite())),
        "the training run did not diverge"
    );
    let builder = || {
        ArchiveBuilder::relative(golden::GOLDEN_REL_EB)
            .train_config(diverged)
            .cross_field("RH", &["T", "P"])
            .chunk_elements(golden::GOLDEN_CHUNK_ELEMENTS)
    };
    let bytes = builder()
        .build()
        .write(&ds)
        .expect("a diverged model demotes");
    let reader = ArchiveReader::new(&bytes).expect("open");
    let rh = reader.entries().iter().find(|e| e.name == "RH").unwrap();
    assert_eq!(rh.role, FieldRole::Independent);
    assert_eq!(
        check_every_path(&bytes, std::slice::from_ref(&ds), 8),
        ds.len()
    );
    let refused = builder().always_cross_field().build().write(&ds);
    assert!(
        matches!(&refused, Err(CfcError::Corrupt { context, .. }) if *context == "embedded model"),
        "{:?}",
        refused.map(|b| b.len())
    );
}

/// A 2-D snapshot of 96×96 whose `N` is noise its anchors `T` and `P` know
/// nothing of: a SplitMix64 hash of the sample's position over a shallow
/// trend, so `N`'s baseline row (about 20 kB) outweighs a 2-D model's meta
/// area (under 5 kB) and nothing but the hybrid's own mixing of neighbours
/// can help its cross-field row.
fn unpredicted_dataset() -> Dataset {
    let shape = Shape::d2(96, 96);
    let hash = |i: &[usize]| {
        let mut x = (i[0] * 65536 + i[1]) as u64;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x >> 40) as f32 / (1u64 << 24) as f32
    };
    let mut ds = Dataset::new("UNPREDICTED", shape);
    ds.push(
        "T",
        Field::from_fn(shape, |i| {
            280.0 + 0.2 * i[0] as f32 - 0.001 * (i[1] as f32 - 40.0).powi(2)
        }),
    );
    ds.push(
        "P",
        Field::from_fn(shape, |i| 1000.0 - 0.5 * i[0] as f32 + 0.03 * i[1] as f32),
    );
    ds.push(
        "N",
        Field::from_fn(shape, |i| 0.01 * i[0] as f32 + 10.0 * hash(i)),
    );
    ds
}

/// A target that only the one-block estimate can demote: its meta area is
/// smaller than its baseline row (so the size check lets it through), it
/// has three blocks (so there is a block to sample), and its anchors do
/// not predict it (so its cross-field row loses — the guard would demote
/// it too). It is written as the row a baseline-only write holds: same
/// bytes, no anchors, no meta area. That archive holds the bound on every
/// read path and scrubs clean light and deep.
#[test]
fn a_target_the_estimate_demotes_is_written_as_its_baseline_row() {
    let ds = unpredicted_dataset();
    let chunk_rows = 32;
    let builder = || ArchiveBuilder::relative(1e-3).chunk_elements(chunk_rows * 96);
    let planned = || {
        builder()
            .train_config(golden::golden_train_config())
            .cross_field("N", &["T", "P"])
    };
    let write = |b: ArchiveBuilder| b.build().write(&ds).expect("write");
    let (guarded, forced, baseline) = (
        write(planned()),
        write(planned().always_cross_field()),
        write(builder()),
    );
    let entry = |bytes: &[u8]| {
        let reader = ArchiveReader::new(bytes).expect("open");
        let n = reader.entries().iter().find(|e| e.name == "N").cloned();
        n.expect("N")
    };
    let row_bytes = |e: &ArchiveEntry| {
        let blocks: usize = (0..e.n_blocks())
            .map(|b| e.block_span(b).expect("span").1)
            .sum();
        e.meta_len() + blocks
    };

    // the premises
    let (cross, plain) = (entry(&forced), entry(&baseline));
    assert_eq!(cross.role, FieldRole::Target);
    assert_eq!(cross.n_blocks(), 3);
    assert!(
        cross.meta_len() < row_bytes(&plain),
        "meta area {} against a baseline row of {}: the size check alone demotes",
        cross.meta_len(),
        row_bytes(&plain)
    );
    assert!(
        row_bytes(&cross) > row_bytes(&plain),
        "the cross-field row ({} B) wins against {} B",
        row_bytes(&cross),
        row_bytes(&plain)
    );

    let got = entry(&guarded);
    assert_eq!(got.role, FieldRole::Independent);
    assert!(got.anchors.is_empty() && got.meta_len() == 0);
    assert!(
        payload(&guarded, &got) == payload(&baseline, &plain),
        "N is not the row a baseline-only write holds"
    );
    let roles: Vec<(String, FieldRole)> = ArchiveReader::new(&guarded)
        .expect("open")
        .entries()
        .iter()
        .map(|e| (e.name.clone(), e.role))
        .collect();
    assert_eq!(
        roles,
        [
            ("T".to_string(), FieldRole::Anchor),
            ("P".to_string(), FieldRole::Anchor),
            ("N".to_string(), FieldRole::Independent)
        ]
    );
    assert_eq!(
        check_every_path(&guarded, std::slice::from_ref(&ds), chunk_rows),
        ds.len()
    );
    for deep in [false, true] {
        let scrub = scrub_bytes(&guarded, &ScrubOptions { deep });
        assert!(scrub.is_clean(), "deep {deep}: {:?}", scrub.findings);
    }
}

/// A field's meta area and blocks, as they lie in `bytes`.
fn payload(bytes: &[u8], e: &ArchiveEntry) -> Vec<u8> {
    let block0 = e.block_span(0).expect("span").0 as usize;
    let (off, len) = e.block_span(e.n_blocks() - 1).expect("span");
    bytes[block0 - e.meta_len()..off as usize + len].to_vec()
}

fn same_bits(a: &Field, b: &Field) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}
