//! Pins the archive writer's bytes where the golden fixtures do not reach.
//!
//! `tests/golden/*.cfar` hold cross-field targets in 2-D only (the 3-D
//! fixtures are baseline plans), and `cfc-core`'s unit tests assert
//! thread-count independence for `write` alone. This pins a 3-D cross-field
//! plan whose depth is not a multiple of the chunk (7 slabs at 3 a block:
//! two full blocks and a one-slab tail), as a snapshot and as a five-epoch
//! series at `keyframe_interval(3)` — keyframe, delta, delta, keyframe,
//! delta, so a delta epoch conditions on a keyframe's mirror and on another
//! delta's — each written at one, two and three worker threads.
//!
//! The series constants were captured at commit 93f3550 (the parent of the one
//! block-encode step, where anchors were still decoded back from the bytes
//! just written and the three roles had a block loop each): this file was
//! dropped into a `git clone` of that commit with every constant zeroed,
//! `cargo test --release --test writer_pin` run there, and the values copied
//! from the failure message, which prints them as Rust literals. The
//! snapshot constants were captured the same way when a snapshot became a
//! one-epoch v3 archive, and the series test holds a snapshot's bytes
//! behind its header to the pinned series' epoch 0. The dataset uses no
//! transcendental function, so the bytes depend on nothing but this
//! repository's arithmetic.
//!
//! Every pin above writes with `always_cross_field`, which fits each target
//! whole. Under the default builder the writer first estimates a target
//! from one inferred block, and the whole fit of a target the estimate lets
//! through reuses that block's inference. The last test writes such a
//! target and holds it to the bytes `always_cross_field` writes.

use cross_field_compression::core::archive::{ArchiveBuilder, ArchiveReader, FieldRole};
use cross_field_compression::core::config::TrainConfig;
use cross_field_compression::datagen::{self, GenParams};
use cross_field_compression::sz::crc32;
use cross_field_compression::tensor::{Dataset, Field, Shape};

const SNAPSHOT_LEN: usize = 23514;
const SNAPSHOT_CRC32: u32 = 0xd6556d1a;
const SERIES_LEN: usize = 61617;
const SERIES_CRC32: u32 = 0xe80b1849;

const DEPTH: usize = 7;
const ROWS: usize = 20;
const COLS: usize = 24;
const EPOCHS: usize = 5;

/// Epoch `e` of a deterministic evolving 3-D snapshot: two anchors, a
/// target that is a smooth nonlinear function of both, and a bystander,
/// each with a fine texture so no block is trivially empty.
fn epoch(e: usize) -> Dataset {
    let shape = Shape::d3(DEPTH, ROWS, COLS);
    let t = e as f32;
    let grain = |i: &[usize], m: usize| ((i[0] * 31 + i[1] * 17 + i[2] * 7) % m) as f32;
    let u = Field::from_fn(shape, |i| {
        let (k, r, c) = (i[0] as f32, i[1] as f32, i[2] as f32);
        0.8 * k + 0.02 * (r - 9.0 + 0.3 * t) * (c - 11.0) + 0.004 * r * r + 0.01 * grain(i, 13)
    });
    let v = Field::from_fn(shape, |i| {
        let (k, r, c) = (i[0] as f32, i[1] as f32, i[2] as f32);
        3.0 - 0.5 * k + 0.05 * r - 0.003 * (c - 6.0 - 0.2 * t) * (c - 6.0) + 0.02 * grain(i, 11)
    });
    let w = Field::from_vec(
        shape,
        u.as_slice()
            .iter()
            .zip(v.as_slice())
            .map(|(&a, &b)| 0.6 * a - 0.9 * b + 0.03 * a * b + 0.05 * t)
            .collect(),
    );
    let p = Field::from_fn(shape, |i| {
        1000.0 - 12.0 * i[0] as f32 + 0.1 * i[1] as f32 + 0.4 * t + 0.05 * grain(i, 7)
    });
    let mut ds = Dataset::new("PIN3D", shape);
    ds.push("U", u);
    ds.push("V", v);
    ds.push("W", w);
    ds.push("P", p);
    ds
}

fn builder(threads: usize) -> ArchiveBuilder {
    ArchiveBuilder::relative(1e-3)
        .train_config(TrainConfig {
            patch: 8,
            n_patches: 16,
            batch: 8,
            epochs: 2,
            lr: 4e-3,
            seed: 3,
        })
        .cross_field("W", &["U", "V"])
        .always_cross_field()
        .chunk_elements(3 * ROWS * COLS)
        .keyframe_interval(3)
        .threads(threads)
}

fn assert_pinned(what: &str, threads: usize, bytes: &[u8], len: usize, crc: u32) {
    assert!(
        bytes.len() == len && crc32(bytes) == crc,
        "{what} at threads({threads}) no longer writes the pinned bytes; this run gives\n\
         const {what}_LEN: usize = {};\nconst {what}_CRC32: u32 = {:#010x};",
        bytes.len(),
        crc32(bytes),
    );
}

#[test]
fn three_d_cross_field_snapshot_writes_the_pinned_bytes_at_any_thread_count() {
    let ds = epoch(0);
    for threads in [1, 2, 3] {
        let bytes = builder(threads).build().write(&ds).expect("write");
        assert_pinned("SNAPSHOT", threads, &bytes, SNAPSHOT_LEN, SNAPSHOT_CRC32);
    }
    // the pin is of a plan that does what it says: three blocks a field,
    // the target a target
    let bytes = builder(1).build().write(&ds).expect("write");
    let reader = ArchiveReader::new(&bytes).expect("open");
    let shape: Vec<(FieldRole, usize)> = reader
        .entries()
        .iter()
        .map(|e| (e.role, e.n_blocks()))
        .collect();
    use FieldRole::{Anchor, Independent, Target};
    assert_eq!(
        shape,
        [(Anchor, 3), (Anchor, 3), (Target, 3), (Independent, 3)]
    );
}

#[test]
fn three_d_cross_field_series_writes_the_pinned_bytes_at_any_thread_count() {
    let snaps: Vec<Dataset> = (0..EPOCHS).map(epoch).collect();
    for threads in [1, 2, 3] {
        let bytes = builder(threads)
            .build()
            .write_epochs(&snaps)
            .expect("write_epochs");
        assert_pinned("SERIES", threads, &bytes, SERIES_LEN, SERIES_CRC32);
    }
    let bytes = builder(1).build().write_epochs(&snaps).expect("write");
    let reader = ArchiveReader::new(&bytes).expect("open");
    let deltas: Vec<bool> = (0..EPOCHS)
        .map(|e| reader.entries()[e * 4].role == FieldRole::Delta)
        .collect();
    assert_eq!(deltas, [false, true, true, false, true]);

    // a snapshot is a one-epoch series: behind its header (magic, version,
    // name, epoch count, keyframe interval, field count) are the bytes of
    // the pinned series' epoch 0
    let header_len = 4 + 2 + 2 + "PIN3D".len() + 3 * 4;
    let snapshot = builder(1).build().write(&snaps[0]).expect("write");
    assert!(
        snapshot.len() > header_len && snapshot[header_len..] == bytes[header_len..snapshot.len()],
        "the snapshot is not the series' epoch 0"
    );
}

/// A target the one-block estimate lets through and the guard keeps: the
/// SCALE analogue at 8×128×128 in four blocks of two slabs, `W` on `U`,
/// `V` and `PRES` (its cross-field row about 4 % under its baseline row,
/// as the estimate from block 2 also finds). Under the default builder the
/// whole fit reuses block 2's inference instead of running it again, and
/// the archive is byte for byte the one `always_cross_field` writes, which
/// skips the estimate — at one, two and three threads.
#[test]
fn a_kept_target_reuses_its_sampled_block_and_writes_the_same_bytes() {
    let ds = datagen::scale::generate(Shape::d3(8, 128, 128), GenParams::default());
    let write = |builder: ArchiveBuilder, threads: usize| {
        builder
            .train_config(TrainConfig {
                patch: 8,
                n_patches: 16,
                batch: 8,
                epochs: 2,
                lr: 4e-3,
                seed: 7,
            })
            .cross_field("W", &["U", "V", "PRES"])
            .chunk_elements(2 * 128 * 128)
            .threads(threads)
            .build()
            .write(&ds)
            .expect("write")
    };
    let forced = write(ArchiveBuilder::relative(1e-3).always_cross_field(), 1);
    for threads in [1, 2, 3] {
        let bytes = write(ArchiveBuilder::relative(1e-3), threads);
        let reader = ArchiveReader::new(&bytes).expect("open");
        let w = reader.entries().iter().find(|e| e.name == "W").expect("W");
        assert_eq!(
            (w.role, w.n_blocks()),
            (FieldRole::Target, 4),
            "threads({threads}): the premise is a kept target of four blocks"
        );
        assert!(
            bytes == forced,
            "threads({threads}): the kept target is not the row always_cross_field writes"
        );
    }
}
