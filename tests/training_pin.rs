//! Pins 3-D CFNN training end to end.
//!
//! The golden archives embed a trained model, but only the 2-D
//! `CfnnSpec::writer_default(2)` net at two anchors (4 → 12 → 16 → 2). This
//! pins the 3-D net the archive writer trains for a plan entry without a
//! spec — `CfnnSpec::writer_default(3)` at three anchors: 9 → 24 → 32 → 3,
//! in-channels off the gradient kernels' lane width, three outputs
//! (Table III's rows ship narrower, measured widths) — so that a change to the
//! patch sampler, the normalizers, the forward or backward kernels, the
//! loss or the optimizer that moves a single bit of the trained model
//! fails here by name.
//!
//! The constants were captured at commit 0cd31ba (the parent of the tiled
//! backward pass, where every gradient still came from the scalar
//! plane-per-tap loops that now live on as the oracle in
//! `tests/cfnn_equivalence.rs`): this file was dropped into a `git clone`
//! of that commit with every constant zeroed, `cargo test --release --test
//! training_pin` run there, and the values copied from the failure
//! message, which prints them as Rust literals. `train_cfnn` runs
//! `Kernel::detect()`; agreement of the other kernels is the gradient
//! oracle's job.

use cross_field_compression::core::config::{CfnnSpec, TrainConfig};
use cross_field_compression::core::train::train_cfnn;
use cross_field_compression::datagen::{scale, GenParams};
use cross_field_compression::sz::crc32;
use cross_field_compression::tensor::{Normalizer, Shape};

const MODEL_LEN: usize = 16625;
const MODEL_CRC32: u32 = 0x501369a0;
const LOSS_BITS: [u32; 8] = [
    0x3dac3f77, 0x3d773127, 0x3d62c478, 0x3d537b9c, 0x3d44bea4, 0x3d36747f, 0x3d2896bb, 0x3d1cb036,
];
/// Scale bits, anchor-major then axis; max-abs normalizers never shift.
const INPUT_SCALE_BITS: [u32; 9] = [
    0x3cf21d63, 0x3e2826be, 0x3e2d242a, 0x3feb41b4, 0x40d9fcc9, 0x410bda36, 0x3b98f1c4, 0x3cea113e,
    0x3d06c26c,
];
const TARGET_SCALE_BITS: [u32; 3] = [0x3c841a03, 0x3d0bfd61, 0x3d44d5b8];

fn scale_bits(norms: &[Normalizer]) -> Vec<u32> {
    assert!(norms.iter().all(|n| n.shift.to_bits() == 0), "{norms:?}");
    norms.iter().map(|n| n.scale.to_bits()).collect()
}

fn literal(bits: &[u32]) -> String {
    let words: Vec<String> = bits.iter().map(|b| format!("{b:#010x}")).collect();
    format!("[{}]", words.join(", "))
}

#[test]
fn writer_default_3d_training_reproduces_the_pinned_model() {
    let ds = scale::generate(Shape::d3(6, 32, 32), GenParams::default().with_seed(1));
    let anchors = ["T", "QV", "PRES"].map(|name| ds.expect_field(name));
    let trained = train_cfnn(
        &CfnnSpec::writer_default(3),
        &TrainConfig::fast(),
        &anchors,
        ds.expect_field("RH"),
    );
    let model = trained.net.serialize();
    let losses: Vec<u32> = trained.report.losses.iter().map(|l| l.to_bits()).collect();
    let (input, target) = (
        scale_bits(&trained.input_norms),
        scale_bits(&trained.target_norms),
    );
    let got = format!(
        "const MODEL_LEN: usize = {};\nconst MODEL_CRC32: u32 = {:#010x};\n\
         const LOSS_BITS: [u32; 8] = {};\nconst INPUT_SCALE_BITS: [u32; 9] = {};\n\
         const TARGET_SCALE_BITS: [u32; 3] = {};",
        model.len(),
        crc32(&model),
        literal(&losses),
        literal(&input),
        literal(&target),
    );
    assert!(
        model.len() == MODEL_LEN
            && crc32(&model) == MODEL_CRC32
            && losses == LOSS_BITS
            && input == INPUT_SCALE_BITS
            && target == TARGET_SCALE_BITS,
        "training no longer reproduces the pinned model; this run gives\n{got}"
    );
    assert_eq!(trained.report.n_patches, TrainConfig::fast().n_patches);
}
