//! Cross-crate integration tests: the full paper pipeline on the synthetic
//! datasets, spanning `cfc-datagen → cfc-core → cfc-sz → cfc-metrics`.

mod common;

use cross_field_compression::core::archive::{ArchiveBuilder, ArchiveReader};
use cross_field_compression::core::config::TrainConfig;
use cross_field_compression::core::pipeline::CrossFieldCompressor;
use cross_field_compression::core::train::train_cfnn;
use cross_field_compression::datagen::{self, GenParams};
use cross_field_compression::metrics::{max_abs_error, psnr, ssim_field};
use cross_field_compression::sz::{CfcError, SzCompressor};
use cross_field_compression::tensor::{Field, FieldStats, Shape};

fn small_params() -> GenParams {
    GenParams::default()
}

#[test]
fn every_dataset_field_roundtrips_within_bound() {
    // all fields of all three (shrunken) datasets through the baseline
    let datasets = [
        datagen::scale::generate(Shape::d3(6, 40, 40), small_params()),
        datagen::cesm::generate(Shape::d2(48, 64), small_params()),
        datagen::hurricane::generate(Shape::d3(6, 40, 40), small_params()),
    ];
    for ds in &datasets {
        for (name, field) in ds.iter() {
            let c = SzCompressor::baseline(1e-3);
            let stream = c.compress(field).expect("compress");
            let dec = c.decompress(&stream.bytes).expect("decompress");
            let err = max_abs_error(field, &dec);
            assert!(
                err <= stream.eb_abs * (1.0 + 1e-9),
                "{}:{name} bound violated: {err} > {}",
                ds.name(),
                stream.eb_abs
            );
            assert!(
                psnr(field, &dec) > 40.0,
                "{}:{name} PSNR too low",
                ds.name()
            );
        }
    }
}

#[test]
fn cross_field_pipeline_roundtrips_on_hurricane() {
    let ds = datagen::hurricane::generate(Shape::d3(8, 48, 48), small_params());
    let target = ds.expect_field("Wf");
    let anchors: Vec<&Field> = ["Uf", "Vf", "Pf"]
        .iter()
        .map(|a| ds.expect_field(a))
        .collect();
    let comp = CrossFieldCompressor::new(1e-3);
    let anchors_dec: Vec<Field> = anchors
        .iter()
        .map(|a| comp.roundtrip_anchor(a).unwrap())
        .collect();
    let refs: Vec<&Field> = anchors_dec.iter().collect();
    let trained = train_cfnn(&common::NARROW_CFNN, &TrainConfig::fast(), &anchors, target);
    let stream = comp.compress(&trained, target, &refs).unwrap();
    let dec = comp.decompress(&stream.bytes, &refs).unwrap();
    assert!(max_abs_error(target, &dec) <= stream.eb_abs * (1.0 + 1e-9));
    assert!(ssim_field(target, &dec) > 0.9);
    // stream self-describes: decoding twice gives identical fields
    let dec2 = comp.decompress(&stream.bytes, &refs).unwrap();
    assert_eq!(dec.as_slice(), dec2.as_slice());
}

#[test]
fn cross_field_beats_baseline_on_strongly_coupled_pair() {
    // the headline claim, on data where the cross-field signal dominates:
    // the target's fine structure is carried by the anchor
    let (rows, cols) = (256usize, 256usize);
    let shape = Shape::d2(rows, cols);
    let rough = datagen::FractalNoise::new(5)
        .with_base_freq(14.0)
        .with_persistence(0.65);
    let smooth = datagen::FractalNoise::new(6)
        .with_base_freq(2.0)
        .with_persistence(0.3)
        .with_octaves(3);
    let shared = rough.grid2(rows, cols, 0.2);
    let anchor = Field::from_vec(shape, shared.iter().map(|&b| 10.0 * b).collect());
    let target = Field::from_vec(
        shape,
        smooth
            .grid2(rows, cols, 0.8)
            .iter()
            .zip(&shared)
            .map(|(&a, &b)| 20.0 * a + 12.0 * b)
            .collect(),
    );
    let comp = CrossFieldCompressor::new(5e-4);
    let anchor_dec = comp.roundtrip_anchor(&anchor).unwrap();
    let cfg = TrainConfig {
        epochs: 16,
        n_patches: 128,
        ..TrainConfig::fast()
    };
    let trained = train_cfnn(&common::NARROW_CFNN, &cfg, &[&anchor], &target);
    let ours = comp.compress(&trained, &target, &[&anchor_dec]).unwrap();
    let base = comp.baseline().compress(&target).unwrap();
    let n = target.len();
    assert!(
        ours.ratio(n) > base.ratio(n),
        "cross-field {:.2}x should beat baseline {:.2}x on coupled data",
        ours.ratio(n),
        base.ratio(n)
    );
}

#[test]
fn psnr_identical_between_methods_at_same_bound() {
    // dual quantization ⇒ reconstruction depends only on the prequant
    // lattice, not the predictor: both methods give identical PSNR
    let ds = datagen::cesm::generate(Shape::d2(48, 64), small_params());
    let target = ds.expect_field("FLUT");
    let anchors: Vec<&Field> = ["FLNT"].iter().map(|a| ds.expect_field(a)).collect();
    let comp = CrossFieldCompressor::new(1e-3);
    let anchor_dec = comp.roundtrip_anchor(anchors[0]).unwrap();
    let trained = train_cfnn(&common::NARROW_CFNN, &TrainConfig::fast(), &anchors, target);
    let ours = comp.compress(&trained, target, &[&anchor_dec]).unwrap();
    let ours_rec = comp.decompress(&ours.bytes, &[&anchor_dec]).unwrap();
    let base = comp.baseline();
    let base_rec = base
        .decompress(&base.compress(target).unwrap().bytes)
        .unwrap();
    let p_ours = psnr(target, &ours_rec);
    let p_base = psnr(target, &base_rec);
    assert!(
        (p_ours - p_base).abs() < 1e-9,
        "PSNR must match exactly: {p_ours} vs {p_base}"
    );
}

#[test]
fn model_rides_in_stream_and_decoder_needs_no_training() {
    // the decoder reconstructs using only (bytes, decompressed anchors)
    let ds = datagen::cesm::generate(Shape::d2(40, 56), small_params());
    let target = ds.expect_field("LWCF");
    let anchors: Vec<&Field> = ["FLUTC", "FLNT"]
        .iter()
        .map(|a| ds.expect_field(a))
        .collect();
    let comp = CrossFieldCompressor::new(2e-3);
    let anchors_dec: Vec<Field> = anchors
        .iter()
        .map(|a| comp.roundtrip_anchor(a).unwrap())
        .collect();
    let refs: Vec<&Field> = anchors_dec.iter().collect();
    let trained = train_cfnn(&common::NARROW_CFNN, &TrainConfig::fast(), &anchors, target);
    let stream = comp.compress(&trained, target, &refs).unwrap();
    drop(trained); // decoder must not need it
    let dec = comp.decompress(&stream.bytes, &refs).unwrap();
    assert!(max_abs_error(target, &dec) <= stream.eb_abs * (1.0 + 1e-9));
}

#[test]
fn coupling_zero_removes_cross_field_advantage() {
    // with independent fields the hybrid should lean on Lorenzo and the
    // stream should cost at most ~model-overhead more than baseline
    let params = GenParams::default().with_coupling(0.0);
    let ds = datagen::hurricane::generate(Shape::d3(6, 40, 40), params);
    let target = ds.expect_field("Wf");
    let anchors: Vec<&Field> = ["Uf", "Vf", "Pf"]
        .iter()
        .map(|a| ds.expect_field(a))
        .collect();
    let comp = CrossFieldCompressor::new(1e-3);
    let anchors_dec: Vec<Field> = anchors
        .iter()
        .map(|a| comp.roundtrip_anchor(a).unwrap())
        .collect();
    let refs: Vec<&Field> = anchors_dec.iter().collect();
    let trained = train_cfnn(&common::NARROW_CFNN, &TrainConfig::fast(), &anchors, target);
    let ours = comp.compress(&trained, target, &refs).unwrap();
    let base = comp.baseline().compress(target).unwrap();
    // the learned model discovered the anchors carry nothing: Lorenzo gets
    // the single largest weight (axis predictors collapse toward plain
    // previous-neighbour predictors, which keep some smoothing value)
    let w = &ours.hybrid.weights;
    assert!(
        w[0] >= w[1..].iter().cloned().fold(f64::MIN, f64::max) - 1e-9,
        "Lorenzo should carry the largest weight on uncoupled data: {w:?}"
    );
    // and the total overhead stays bounded by the model + slack
    assert!(ours.bytes.len() <= base.bytes.len() + ours.model_bytes + base.bytes.len() / 4);
}

#[test]
fn dataset_stats_are_stable_for_seeded_generation() {
    let a = datagen::scale::generate(Shape::d3(4, 24, 24), small_params());
    let b = datagen::scale::generate(Shape::d3(4, 24, 24), small_params());
    for (name, f) in a.iter() {
        let g = b.expect_field(name);
        assert_eq!(f.as_slice(), g.as_slice(), "{name} differs across runs");
        let s = FieldStats::of(f);
        assert!(s.std.is_finite() && s.std > 0.0, "{name} degenerate");
    }
}

#[test]
fn a_bad_train_config_is_a_typed_error_and_an_untrained_net_is_a_model() {
    // Err: used to panic inside a writer worker (`chunks(0)`, a zero-sized
    // pooling window) or, for a NaN rate, to write an all-NaN model.
    // Ok: zero patches or epochs leave the network at its initialization —
    // useless as a predictor, valid as a model: the hybrid fit leans on
    // Lorenzo and the archive decodes within its bound.
    let fast = TrainConfig::fast();
    let table: [(&str, TrainConfig, Option<&str>); 8] = [
        ("patch 0", TrainConfig { patch: 0, ..fast }, Some("patch")),
        ("batch 0", TrainConfig { batch: 0, ..fast }, Some("batch")),
        (
            "lr NaN",
            TrainConfig {
                lr: f32::NAN,
                ..fast
            },
            Some("lr"),
        ),
        (
            "lr inf",
            TrainConfig {
                lr: f32::INFINITY,
                ..fast
            },
            Some("lr"),
        ),
        ("lr 0", TrainConfig { lr: 0.0, ..fast }, Some("lr")),
        ("lr < 0", TrainConfig { lr: -1e-3, ..fast }, Some("lr")),
        (
            "no patches",
            TrainConfig {
                n_patches: 0,
                ..fast
            },
            None,
        ),
        ("no epochs", TrainConfig { epochs: 0, ..fast }, None),
    ];
    let ds = datagen::scale::generate(Shape::d3(4, 24, 24), small_params());
    for (what, cfg, rejected) in table {
        let written = ArchiveBuilder::relative(1e-3)
            .train_config(cfg)
            .cross_field("RH", &["T", "QV", "PRES"])
            .always_cross_field()
            .build()
            .write(&ds);
        match (written, rejected) {
            (Err(CfcError::InvalidInput(why)), Some(field)) => {
                assert!(why.contains(field), "{what}: {why}");
            }
            (Ok(bytes), None) => {
                common::assert_has_target(&bytes);
                let reader = ArchiveReader::new(&bytes).expect("parse");
                let dec = reader.decode_all().expect("decode");
                for e in reader.entries() {
                    let err = max_abs_error(ds.expect_field(&e.name), dec.expect_field(&e.name));
                    assert!(
                        err <= e.eb_abs * (1.0 + 1e-9),
                        "{what}: {} off by {err}, bound {}",
                        e.name,
                        e.eb_abs
                    );
                }
            }
            (other, _) => panic!("{what}: {:?}", other.map(|bytes| bytes.len())),
        }
    }
}
