//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Hybrid vs single predictors** — compress Hurricane Wf with
//!    Lorenzo-only, cross-field-only, and the learned hybrid (paper §III-C's
//!    motivation for combining).
//! 2. **Difference CNN vs direct-value CNN** — the paper's §III-B argument
//!    that predicting raw values "rarely performs well".
//! 3. **Causality** — the central-difference predictor's encode/decode
//!    mismatch (paper Fig. 3).
//! 4. **Coupling sweep** — cross-field gains as a function of the actual
//!    cross-field information content (0 → independent fields).
//! 5. **Model size** — compact / scaled / paper-parity CFNNs on one field,
//!    showing the overhead-vs-accuracy trade.

use cfc_core::config::{paper_table3, CfnnSpec, TrainConfig};
use cfc_core::diffnet::slice_geometry;
use cfc_core::hybrid::HybridModel;
use cfc_core::pipeline::CrossFieldCompressor;
use cfc_core::predict::predict_differences;
use cfc_core::predictor::{sample_hybrid_training, CrossFieldHybridPredictor};
use cfc_core::train::{fit_patches, train_cfnn};
use cfc_datagen::{paper_catalog, GenParams};
use cfc_sz::Codec;
use cfc_sz::{codec, CentralDiffPredictor, ErrorBound, QuantLattice, QuantizerConfig};
use cfc_tensor::{Field, FieldStats, Normalizer};

fn main() {
    hybrid_vs_single();
    value_vs_difference_cnn();
    causality_demo();
    coupling_sweep();
    model_size_sweep();
}

/// 1. Lorenzo-only vs cross-only vs learned hybrid on Hurricane Wf.
fn hybrid_vs_single() {
    println!("== Ablation 1: hybrid vs single predictors (Hurricane Wf, rel 1e-3) ==");
    let row = paper_table3()
        .into_iter()
        .find(|r| r.target == "Wf")
        .unwrap();
    let info = paper_catalog()
        .into_iter()
        .find(|d| d.name == "Hurricane")
        .unwrap();
    let ds = info.generate_default(GenParams::default());
    let target = ds.expect_field("Wf");
    let anchors: Vec<&Field> = row.anchors.iter().map(|a| ds.expect_field(a)).collect();
    let comp = CrossFieldCompressor::new(1e-3);
    let anchors_dec: Vec<Field> = anchors
        .iter()
        .map(|a| comp.roundtrip_anchor(a).expect("anchor roundtrip"))
        .collect();
    let dec_refs: Vec<&Field> = anchors_dec.iter().collect();
    let mut trained = train_cfnn(&row.spec, &TrainConfig::default(), &anchors, target);
    let diffs = predict_differences(&mut trained, &dec_refs);

    let eb = ErrorBound::Relative(1e-3).resolve_quantization(&FieldStats::of(target));
    let lattice = QuantLattice::prequantize(target, eb);
    let quant = QuantizerConfig::default();
    let n = target.len() as f64;

    let measure = |weights: Vec<f64>| -> f64 {
        let model = HybridModel {
            weights,
            losses: vec![],
        };
        let pred = CrossFieldHybridPredictor::new(&diffs, eb, model);
        let enc = codec::encode(&lattice, &pred, &quant);
        let bytes = cfc_sz::compressor::encode_codes(&enc.codes).len()
            + cfc_sz::compressor::encode_outliers(&enc.outliers).len();
        n * 4.0 / bytes as f64
    };

    let lorenzo = measure(vec![1.0, 0.0, 0.0, 0.0]);
    let cross = measure(vec![0.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]);
    let step = 2.0 * eb;
    let dq: Vec<Vec<f64>> = diffs
        .iter()
        .map(|f| f.as_slice().iter().map(|&v| v as f64 / step).collect())
        .collect();
    let (preds, targets) = sample_hybrid_training(&lattice, &dq, 4096, 11);
    let learned = HybridModel::fit_least_squares(&preds, &targets);
    let hybrid = measure(learned.weights.clone());
    println!("  Lorenzo only      : {lorenzo:.2}x  (residual stream only)");
    println!("  cross-field only  : {cross:.2}x");
    println!(
        "  learned hybrid    : {hybrid:.2}x  weights {:?}",
        learned.weights
    );
    println!(
        "  hybrid beats both : {}\n",
        hybrid >= lorenzo.max(cross) * 0.999
    );
}

/// 2. The paper's §III-B claim: direct value prediction underperforms
///    difference prediction. Both nets share the architecture; only the
///    target/input representation changes.
fn value_vs_difference_cnn() {
    println!("== Ablation 2: direct-value CNN vs difference CNN (Hurricane Wf) ==");
    let row = paper_table3()
        .into_iter()
        .find(|r| r.target == "Wf")
        .unwrap();
    let info = paper_catalog()
        .into_iter()
        .find(|d| d.name == "Hurricane")
        .unwrap();
    let ds = info.generate_default(GenParams::default());
    let target = ds.expect_field("Wf");
    let anchors: Vec<&Field> = row.anchors.iter().map(|a| ds.expect_field(a)).collect();

    // difference CNN: reuse the standard trainer, evaluate prediction NRMSE
    // on the difference representation mapped back to values via one step
    let mut trained = train_cfnn(&row.spec, &TrainConfig::default(), &anchors, target);
    let refs: Vec<&Field> = anchors.to_vec();
    let diffs = predict_differences(&mut trained, &refs);
    let truth = cfc_tensor::diff::backward_diff_all(target);
    let diff_mse: f64 = diffs
        .iter()
        .zip(&truth)
        .map(|(p, t)| cfc_metrics::mse(p, t))
        .sum::<f64>()
        / diffs.len() as f64;
    // normalize by the difference variance → relative error of the diff net
    let dvar: f64 = truth
        .iter()
        .map(|t| {
            let s = FieldStats::of(t);
            s.std * s.std
        })
        .sum::<f64>()
        / truth.len() as f64;
    let diff_rel = diff_mse / dvar.max(1e-30);

    // value CNN: same architecture trained on normalized raw values
    let value_rel = train_value_cnn(&anchors, target, &row.spec);
    println!("  difference CNN relative MSE : {diff_rel:.4}");
    println!("  value CNN relative MSE      : {value_rel:.4}");
    println!(
        "  differences easier to learn : {} (paper §III-B)\n",
        diff_rel < value_rel
    );
}

/// Train the same architecture on raw (normalized) values through the
/// standard training loop; returns MSE relative to target variance.
fn train_value_cnn(anchors: &[&Field], target: &Field, spec: &CfnnSpec) -> f64 {
    let shape = target.shape();
    let ndim = shape.ndim();
    let (_, rows, cols) = slice_geometry(shape);
    let normalized = |f: &Field| Normalizer::max_abs(f.as_slice(), 1.0).apply_field(f);
    let x_fields: Vec<Field> = anchors.iter().map(|a| normalized(a)).collect();
    let y_field = normalized(target);

    let cfg = TrainConfig::default();
    let p = cfg.patch;
    let window = |f: &Field, k: usize, r0: usize, c0: usize, plane: &mut [f32]| {
        let slice = &f.as_slice()[k * rows * cols..][..rows * cols];
        for (i, row) in plane.chunks_exact_mut(p).enumerate() {
            row.copy_from_slice(&slice[(r0 + i) * cols + c0..][..p]);
        }
    };
    let (_, report) = fit_patches(spec, &cfg, shape, |k, r0, c0, x, y| {
        // every field's values replicated per axis, so the architecture
        // (and parameter count) is identical to the difference net
        for (ci, plane) in x.chunks_exact_mut(p * p).enumerate() {
            window(&x_fields[ci / ndim], k, r0, c0, plane);
        }
        for plane in y.chunks_exact_mut(p * p) {
            window(&y_field, k, r0, c0, plane);
        }
    });
    let final_loss = report.losses.last().copied().unwrap_or(f32::INFINITY);
    // relative to the normalized target variance
    let s = FieldStats::of(&y_field);
    (final_loss as f64) / (s.std * s.std).max(1e-30)
}

/// 3. Central differences are non-causal: the decoder diverges (paper Fig. 3).
fn causality_demo() {
    println!("== Ablation 3: causality (paper Fig. 3) ==");
    let f = Field::from_fn(cfc_tensor::Shape::d2(64, 64), |i| {
        ((i[0] as f32) * 0.23).sin() * 12.0 + ((i[1] as f32) * 0.31).cos() * 9.0
    });
    let eb = 1e-3 * FieldStats::of(&f).range() as f64;
    let lattice = QuantLattice::prequantize(&f, eb);
    let quant = QuantizerConfig::default();
    let enc = codec::encode(&lattice, &CentralDiffPredictor, &quant);
    let dec = codec::decode(
        lattice.shape(),
        &enc.codes,
        &enc.outliers,
        &CentralDiffPredictor,
        &quant,
    );
    let mismatches = dec
        .as_slice()
        .iter()
        .zip(lattice.as_slice())
        .filter(|(a, b)| a != b)
        .count();
    println!(
        "  central-difference round-trip mismatches: {mismatches}/{} lattice points",
        lattice.len()
    );
    println!("  (Lorenzo and the cross-field backward-difference predictor give 0)\n");
}

/// 4. Gains vs cross-field coupling strength.
fn coupling_sweep() {
    println!("== Ablation 4: coupling sweep (Hurricane Wf, rel 1e-3) ==");
    let row = paper_table3()
        .into_iter()
        .find(|r| r.target == "Wf")
        .unwrap();
    let info = paper_catalog()
        .into_iter()
        .find(|d| d.name == "Hurricane")
        .unwrap();
    for coupling in [0.0f32, 0.5, 1.0] {
        let params = GenParams::default().with_coupling(coupling);
        let ds = info.generate_default(params);
        let target = ds.expect_field("Wf");
        let anchors: Vec<&Field> = row.anchors.iter().map(|a| ds.expect_field(a)).collect();
        let comp = CrossFieldCompressor::new(1e-3);
        let anchors_dec: Vec<Field> = anchors
            .iter()
            .map(|a| comp.roundtrip_anchor(a).expect("anchor roundtrip"))
            .collect();
        let refs: Vec<&Field> = anchors_dec.iter().collect();
        let mut trained = train_cfnn(&row.spec, &TrainConfig::default(), &anchors, target);
        let ours = comp
            .compress(&mut trained, target, &refs)
            .expect("compress");
        let base = comp.baseline().compress(target).expect("compress");
        let n = target.len();
        println!(
            "  coupling {coupling:.1}: baseline {:6.2}x  ours {:6.2}x  ({:+.2}%)",
            base.ratio(n),
            ours.ratio(n),
            (ours.ratio(n) / base.ratio(n) - 1.0) * 100.0
        );
    }
    println!("  (gains should grow with coupling; at 0 the model is pure overhead)\n");
}

/// 5. Model-size sweep on one field.
fn model_size_sweep() {
    println!("== Ablation 5: CFNN size (Hurricane Wf, rel 1e-3) ==");
    let row = paper_table3()
        .into_iter()
        .find(|r| r.target == "Wf")
        .unwrap();
    let info = paper_catalog()
        .into_iter()
        .find(|d| d.name == "Hurricane")
        .unwrap();
    let ds = info.generate_default(GenParams::default());
    let target = ds.expect_field("Wf");
    let anchors: Vec<&Field> = row.anchors.iter().map(|a| ds.expect_field(a)).collect();
    let comp = CrossFieldCompressor::new(1e-3);
    let anchors_dec: Vec<Field> = anchors
        .iter()
        .map(|a| comp.roundtrip_anchor(a).expect("anchor roundtrip"))
        .collect();
    let refs: Vec<&Field> = anchors_dec.iter().collect();
    let base = comp
        .baseline()
        .compress(target)
        .expect("compress")
        .ratio(target.len());
    for (name, spec) in [
        ("compact", CfnnSpec::compact(3, 3)),
        ("scaled (default)", CfnnSpec::scaled_3d(3)),
        ("paper-parity", CfnnSpec::paper_3d(3)),
    ] {
        let mut trained = train_cfnn(&spec, &TrainConfig::default(), &anchors, target);
        let ours = comp
            .compress(&mut trained, target, &refs)
            .expect("compress");
        println!(
            "  {name:<18} {:>7} params  model {:>7} B  ours {:6.2}x  ({:+.2}% vs baseline {:.2}x)",
            spec.num_params(),
            ours.model_bytes,
            ours.ratio(target.len()),
            (ours.ratio(target.len()) / base - 1.0) * 100.0,
            base,
        );
    }
    println!("  (bigger nets must pay for themselves; on scaled grids they cannot)");
}
