//! Every way of asking for the same samples gives the same bits.
//!
//! The archive layer has one block decoder and one dependency walk
//! (`ArchiveReader::resolve_block`); the reader, the store and
//! `decode_all` differ only in where the walk gets its blocks. These
//! tests pin what that buys:
//!
//! * over every committed golden fixture — v1, v2 and v3, whole and
//!   partial last blocks, keyframes and delta chains — `read`, the
//!   `decode_*` conveniences, the block primitive and `decode_epoch`
//!   agree bit for bit, through the reader and through the store, cold
//!   and warm, strict and salvage;
//! * a region read, which decodes the last block of its cover only as far
//!   as the window's last row, returns the crop of the whole decode for
//!   every row range — in 2-D and 3-D, for targets, anchors, independents
//!   and deltas at the tail of their chain;
//! * the store resolves a delta chain with the same constant stack the
//!   reader does, however long the chain is.

mod common;

use std::io::Cursor;

use cross_field_compression::core::archive::{
    ArchiveBuilder, ArchiveReader, ArchiveScratch, ArchiveStore, DecodePolicy, ReadRequest,
    StoreConfig,
};
use cross_field_compression::core::hybrid::HybridConfig;
use cross_field_compression::core::TrainConfig;
use cross_field_compression::datagen::{self, GenParams};
use cross_field_compression::tensor::{Dataset, Field, Region, Shape};

/// Every committed archive: v1, v2 and v3, whole and partial last blocks,
/// keyframes only and delta chains.
const FIXTURES: [&str; 6] = [
    "small_v1.cfar",
    "small_v2.cfar",
    "partial_v2.cfar",
    "small_v3_keyframes.cfar",
    "small_v3_delta.cfar",
    "partial_v3.cfar",
];

fn fixture(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()))
}

fn assert_same_bits(got: &Field, want: &Field, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    assert!(
        got.as_slice()
            .iter()
            .zip(want.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "{what}: samples differ"
    );
}

/// The middle half of every axis: crosses block boundaries wherever the
/// field has more than two blocks, and never touches an edge.
fn interior(shape: Shape) -> Region {
    let ranges: Vec<(usize, usize)> = shape
        .dims()
        .iter()
        .map(|&d| (d / 4, (3 * d / 4).max(d / 4 + 1)))
        .collect();
    Region::from_ranges(&ranges)
}

#[test]
fn every_read_entry_point_agrees_on_every_golden_fixture() {
    for name in FIXTURES {
        let bytes = fixture(name);
        let reader = ArchiveReader::new(&bytes).expect("open");
        let store =
            ArchiveStore::open(Cursor::new(bytes.clone()), StoreConfig::default()).expect("open");
        for epoch in 0..reader.n_epochs() {
            let whole_epoch = reader.decode_epoch(epoch).expect("decode_epoch");
            for info in reader.field_infos() {
                let field = info.name.as_str();
                let at = format!("{name} {field}@e{epoch}");
                let whole = ReadRequest::new(field).at(epoch);

                // the reference: a strict whole-field read through the reader
                let want = reader.read(&whole).expect("reader.read");
                assert!(want.damage.is_empty(), "{at}: strict read reports damage");
                let want = want.data;

                // salvage on an undamaged archive: same data, nothing to report
                let salvage = whole.policy(DecodePolicy::Salvage { fill: f32::NAN });
                for (s, path) in [
                    (reader.read(&salvage), "reader salvage"),
                    (store.read(&salvage), "store salvage"),
                ] {
                    let s = s.expect(path);
                    assert!(s.damage.is_empty(), "{at}: {path} reports damage");
                    assert_same_bits(&s.data, &want, &format!("{at}: {path}"));
                }

                // the store, cold (first touch of this epoch's blocks was the
                // salvage read above, so go around the cache once) and warm
                store.purge();
                for pass in ["cold", "warm"] {
                    let got = store.read(&whole).expect("store.read");
                    assert!(got.damage.is_empty(), "{at}: store {pass} reports damage");
                    assert_same_bits(&got.data, &want, &format!("{at}: store {pass}"));
                }

                // the block primitive, every block, on both layers
                let entry = reader
                    .entries()
                    .iter()
                    .find(|e| e.name == field && e.epoch == epoch)
                    .expect("entry");
                assert_eq!(entry.n_blocks(), info.n_blocks, "{at}: block count");
                let from_reader: Vec<Field> = (0..entry.n_blocks())
                    .map(|b| reader.decode_block_at(field, b, epoch).expect("block"))
                    .collect();
                assert_same_bits(
                    &Field::concat_axis0(&from_reader),
                    &want,
                    &format!("{at}: reader blocks"),
                );
                let from_store: Vec<_> = (0..entry.n_blocks())
                    .map(|b| store.decode_block_at(field, b, epoch).expect("block"))
                    .collect();
                let refs: Vec<&Field> = from_store.iter().map(|b| b.as_ref()).collect();
                assert_same_bits(
                    &Field::concat_axis0_refs(&refs),
                    &want,
                    &format!("{at}: store blocks"),
                );
                if epoch == 0 {
                    assert_same_bits(
                        &reader.decode_block(field, 0).expect("decode_block"),
                        &from_reader[0],
                        &format!("{at}: decode_block"),
                    );
                }
                assert!(
                    reader
                        .decode_block_at(field, entry.n_blocks(), epoch)
                        .is_err()
                        && store
                            .decode_block_at(field, entry.n_blocks(), epoch)
                            .is_err(),
                    "{at}: a block past the end is an error"
                );

                // the whole-epoch decode holds the same field
                assert_same_bits(
                    whole_epoch.expect_field(field),
                    &want,
                    &format!("{at}: decode_epoch"),
                );

                // a sub-region is the crop of the whole, on both layers
                let region = interior(want.shape());
                let crop = want.crop(&region);
                let sub = whole.region(&region);
                assert_same_bits(
                    &reader.read(&sub).expect("region").data,
                    &crop,
                    &format!("{at}: reader region"),
                );
                assert_same_bits(
                    &store.read(&sub).expect("region").data,
                    &crop,
                    &format!("{at}: store region"),
                );
                assert_same_bits(
                    &reader
                        .decode_region_at(field, &region, epoch)
                        .expect("decode_region_at"),
                    &crop,
                    &format!("{at}: reader.decode_region_at"),
                );
                if epoch == 0 {
                    assert_same_bits(
                        &store.decode_region(field, &region).expect("decode_region"),
                        &crop,
                        &format!("{at}: store.decode_region"),
                    );
                }
                // and a region that does not fit is a typed error everywhere
                let too_big = Region::from_ranges(
                    &want
                        .shape()
                        .dims()
                        .iter()
                        .map(|&d| (0, d + 1))
                        .collect::<Vec<_>>(),
                );
                assert!(
                    reader.read(&whole.region(&too_big)).is_err()
                        && store.read(&whole.region(&too_big)).is_err(),
                    "{at}: an out-of-bounds region is an error"
                );
            }
        }
    }
}

/// Axis-0 windows `[r0, r1)` of `rows` rows in blocks of `chunk`: all of
/// them when the field is short; otherwise, for every end row, the starts
/// that put the window inside one block, on that block's edge, across the
/// edge before it and at the top of the field.
fn row_windows(rows: usize, chunk: usize) -> Vec<(usize, usize)> {
    let mut windows = Vec::new();
    for r1 in 1..=rows {
        if rows <= 12 {
            windows.extend((0..r1).map(|r0| (r0, r1)));
            continue;
        }
        let edge = (r1 - 1) / chunk.max(1) * chunk;
        let mut starts = vec![0, edge.saturating_sub(1), edge, r1 - 1];
        starts.dedup();
        windows.extend(starts.into_iter().map(|r0| (r0, r1)));
    }
    windows
}

/// Every field at epoch 0 and at the tail of the first delta chain, every
/// window of [`row_windows`] with the other axes cropped to their middle
/// half: `read(region)`, strict and salvage, is the crop of the whole
/// field. Returns the windows compared.
fn check_row_windows(bytes: &[u8], what: &str) -> usize {
    let reader = ArchiveReader::new(bytes).expect("open");
    let mut compared = 0;
    // a keyframe, and the last delta before the next one: the longest chain
    let tail = (reader.keyframe_interval() - 1).min(reader.n_epochs() - 1);
    let mut epochs = vec![0, tail];
    epochs.dedup();
    for epoch in epochs {
        for info in reader.field_infos() {
            let whole = ReadRequest::new(&info.name).at(epoch);
            let want = reader.read(&whole).expect("whole read").data;
            let middle = interior(want.shape());
            let mut ranges: Vec<(usize, usize)> = (0..middle.ndim())
                .map(|axis| (middle.start(axis), middle.end(axis)))
                .collect();
            for window in row_windows(want.shape().dims()[0], info.chunk_slabs) {
                ranges[0] = window;
                let region = Region::from_ranges(&ranges);
                let crop = want.crop(&region);
                for policy in [
                    DecodePolicy::Strict,
                    DecodePolicy::Salvage { fill: f32::NAN },
                ] {
                    let at = format!("{what} {}@e{epoch} {region} {policy:?}", info.name);
                    let got = reader
                        .read(&whole.region(&region).policy(policy))
                        .unwrap_or_else(|e| panic!("{at}: {e}"));
                    assert!(got.damage.is_empty(), "{at}: reports damage");
                    assert_same_bits(&got.data, &crop, &at);
                }
                compared += 1;
            }
        }
    }
    compared
}

#[test]
fn a_window_is_the_crop_of_the_whole_on_every_row_range() {
    // the bits must agree whatever the model predicts: train it briefly
    let barely = TrainConfig {
        epochs: 1,
        n_patches: 8,
        ..TrainConfig::fast()
    };
    // 3-D cross-field plan: 10 slabs at 4 a block, so three blocks and a
    // two-slab tail; target, three anchors, three independents
    let ds = datagen::scale::generate(Shape::d3(10, 16, 16), GenParams::default().with_seed(3));
    let volume = ArchiveBuilder::relative(1e-3)
        .train_config(barely)
        .cross_field("RH", &["T", "QV", "PRES"])
        .always_cross_field()
        .chunk_elements(4 * 16 * 16)
        .build()
        .write(&ds)
        .expect("write");
    common::assert_has_target(&volume);
    // a target block of four slices: the windows that end in it hand the
    // CFNN one, two, three and four slices, so a read fans its slices out
    // over one worker, two, and as many as the host has with a remainder
    let reader = ArchiveReader::new(&volume).expect("open");
    let rh = reader.field_info("RH").expect("RH");
    assert_eq!(
        (rh.chunk_slabs, rh.n_blocks),
        (4, 3),
        "target block geometry"
    );
    // and a fanned-out read is the one-worker decode: decode_all runs one
    // worker per block, decode_block_with one on the caller's scratch
    let whole = reader.read(&ReadRequest::new("RH")).expect("read").data;
    let all = reader.decode_all().expect("decode_all");
    assert_same_bits(&whole, all.expect_field("RH"), "RH read vs decode_all");
    let mut scratch = ArchiveScratch::new();
    for b in 0..rh.n_blocks {
        let block = reader.decode_block("RH", b).expect("decode_block");
        let one = reader
            .decode_block_with("RH", b, &mut scratch)
            .expect("decode_block_with");
        let at = format!("RH block {b}");
        assert_same_bits(&block, &one, &at);
        assert_same_bits(&block, &whole.slab(4 * b, (4 * b + 4).min(10)), &at);
    }
    assert_eq!(check_row_windows(&volume, "3-D snapshot"), 55 * ds.len());

    // 2-D cross-field plan in three blocks of eight rows — a block is one
    // CNN plane, so the anchors of a short target block come whole — as a
    // snapshot and as a series whose deltas at epoch 2 end a chain that
    // starts at that target
    let epochs = datagen::temporal::generate(Shape::d2(24, 32), 4, GenParams::default());
    let planar = || {
        ArchiveBuilder::relative(1e-3)
            .train_config(barely)
            .cross_field("RH", &["TS", "PS"])
            .always_cross_field()
            .chunk_elements(8 * 32)
            .keyframe_interval(3)
            .build()
    };
    let snapshot = planar().write(&epochs[0]).expect("write");
    common::assert_has_target(&snapshot);
    let per_field = row_windows(24, 8).len();
    assert_eq!(
        check_row_windows(&snapshot, "2-D snapshot"),
        per_field * epochs[0].len()
    );
    let series = planar().write_epochs(&epochs).expect("write_epochs");
    common::assert_has_target(&series);
    assert_eq!(
        check_row_windows(&series, "2-D series"),
        per_field * epochs[0].len() * 2
    );

    for name in FIXTURES {
        assert!(check_row_windows(&fixture(name), name) > 0);
    }
}

/// A delta chain is as long as the writer's keyframe interval made it.
/// Reading its tail must not spend call stack per link: a recursive walk
/// overflows — and a stack overflow aborts the process, past any
/// `catch_unwind` — on archives our own writer produces.
#[test]
fn store_reads_the_tail_of_a_long_delta_chain_on_a_small_stack() {
    const EPOCHS: usize = 3_000;
    let shape = Shape::d2(8, 8);
    let snapshots: Vec<Dataset> = (0..EPOCHS)
        .map(|e| {
            let t = e as f32 * 0.01;
            let mut ds = Dataset::new("CHAIN", shape);
            ds.push(
                "X",
                Field::from_fn(shape, |i| {
                    ((i[0] as f32) * 0.4 + t).sin() + (i[1] as f32) * 0.1 + t
                }),
            );
            ds
        })
        .collect();
    let bytes = ArchiveBuilder::relative(1e-3)
        // one fit sample per element: the default 4096 would spend the
        // test fitting 64-element fields
        .hybrid_config(HybridConfig {
            n_samples: 64,
            ..HybridConfig::default()
        })
        .keyframe_interval(EPOCHS)
        .build()
        .write_epochs(&snapshots)
        .expect("write");
    let last = EPOCHS - 1;
    let want = ArchiveReader::new(&bytes)
        .expect("open")
        .read(&ReadRequest::new("X").at(last))
        .expect("reader decodes the tail")
        .data;

    // 256 KiB is an eighth of the stack a `cfc-serve` worker gets
    let got = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || {
            [StoreConfig::default(), StoreConfig::uncached()].map(|config| {
                ArchiveStore::open(Cursor::new(bytes.clone()), config)
                    .expect("open")
                    .read(&ReadRequest::new("X").at(last))
                    .expect("store decodes the tail")
                    .data
            })
        })
        .expect("spawn")
        .join()
        .expect("the walk must not overflow a small stack");
    for (got, config) in got.iter().zip(["default", "uncached"]) {
        assert_same_bits(got, &want, &format!("{config} store"));
    }
}
