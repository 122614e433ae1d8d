//! Regenerate the committed golden fixtures under `tests/golden/`.
//!
//! ```sh
//! cargo run --release -p cfc-bench --bin make_golden
//! ```
//!
//! Four fixtures are produced, all deterministic (fixed seeds, fixed
//! shapes, thread-count-independent encoding):
//!
//! * `small_v1.cfar` — the frozen CFAR **v1** layout (one monolithic
//!   stream per field), via [`cfc_bench::golden::write_v1`]. Proves v1
//!   archives written before the chunked container still decode.
//! * `small_v3_keyframes.cfar` — a 3-epoch **v3** temporal archive with
//!   `keyframe_interval(1)`: every epoch a keyframe, no delta chains. Its
//!   epoch 0 is what the writer emits as a snapshot of the 2-D dataset.
//! * `small_v3_delta.cfar` — 6 epochs at interval 3: two keyframes, each
//!   heading a two-delta chain.
//! * `partial_v3.cfar` — the evolving 3-D dataset, 4 epochs at interval 2,
//!   pinning partial-final-block accounting inside delta epochs; its epoch
//!   0 is the writer's snapshot of the 3-D dataset.
//!
//! `small_v2.cfar` and `partial_v2.cfar` are frozen: the chunked
//! single-snapshot container the writer emitted before a snapshot became a
//! one-epoch v3 archive. Nothing writes v2 any more, so they are never
//! regenerated; they keep proving that v2 archives decode.
//!
//! `tests/format_conformance.rs` asserts the production writer still
//! reproduces the v3 fixtures byte-for-byte, and a snapshot as their epoch
//! 0, and that all six decode with the expected manifests, ratios, and
//! error bounds.

use cfc_bench::golden;

fn main() {
    let dir = std::path::Path::new("tests/golden");
    std::fs::create_dir_all(dir).expect("create tests/golden");

    let v1 = golden::write_v1(&golden::golden_dataset());
    std::fs::write(dir.join("small_v1.cfar"), &v1).expect("write v1 fixture");
    println!("small_v1.cfar:   {} bytes", v1.len());

    let v3k = golden::golden_builder()
        .chunk_elements(golden::GOLDEN_CHUNK_ELEMENTS)
        .keyframe_interval(1)
        .build()
        .write_epochs(&golden::golden_epochs(3))
        .expect("write v3 keyframes");
    std::fs::write(dir.join("small_v3_keyframes.cfar"), &v3k).expect("write v3 keyframe fixture");
    println!("small_v3_keyframes.cfar: {} bytes", v3k.len());

    let v3d = golden::golden_builder()
        .chunk_elements(golden::GOLDEN_CHUNK_ELEMENTS)
        .keyframe_interval(golden::GOLDEN_KEYFRAME_INTERVAL)
        .build()
        .write_epochs(&golden::golden_epochs(golden::GOLDEN_V3_EPOCHS))
        .expect("write v3 delta");
    std::fs::write(dir.join("small_v3_delta.cfar"), &v3d).expect("write v3 delta fixture");
    println!("small_v3_delta.cfar: {} bytes", v3d.len());

    let v3p = golden::golden_partial_builder()
        .keyframe_interval(2)
        .build()
        .write_epochs(&golden::golden_epochs_3d(4))
        .expect("write partial v3");
    std::fs::write(dir.join("partial_v3.cfar"), &v3p).expect("write partial v3 fixture");
    println!("partial_v3.cfar: {} bytes", v3p.len());
}
