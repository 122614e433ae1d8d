//! Domain scenario: choosing anchor fields for a new dataset.
//!
//! The paper selects anchors by physical intuition and leaves automatic
//! selection to future work (§IV-C). This example shows the workflow a
//! practitioner would use today: score candidate anchors by (a) raw-value
//! correlation, (b) difference-activity correlation, and (c) an actual
//! small-scale compression trial, then compare the chosen combination
//! against the paper's configuration on the Hurricane dataset.
//!
//! ```sh
//! cargo run --release --example anchor_selection
//! ```

use cross_field_compression::core::config::{CfnnSpec, TrainConfig};
use cross_field_compression::core::pipeline::CrossFieldCompressor;
use cross_field_compression::core::train::train_cfnn;
use cross_field_compression::datagen::{paper_catalog, GenParams};
use cross_field_compression::metrics::pearson;
use cross_field_compression::tensor::{diff, Axis, Field};

fn main() {
    let info = paper_catalog()
        .into_iter()
        .find(|d| d.name == "Hurricane")
        .unwrap();
    let ds = info.generate_default(GenParams::default());
    let target_name = "Wf";
    let target = ds.expect_field(target_name);
    let candidates: Vec<&str> = ds
        .field_names()
        .into_iter()
        .filter(|n| *n != target_name)
        .collect();

    println!("Scoring candidate anchors for target {target_name}:");
    println!("{:<6}{:>12}{:>16}", "field", "value r", "activity r");
    let t_act = activity(target);
    let mut scored: Vec<(&str, f64)> = Vec::new();
    for name in &candidates {
        let f = ds.expect_field(name);
        let r_val = pearson(f.as_slice(), target.as_slice()).abs();
        let r_act = pearson(activity(f).as_slice(), t_act.as_slice()).abs();
        println!("{name:<6}{r_val:>12.3}{r_act:>16.3}");
        scored.push((name, r_val.max(r_act)));
    }
    scored.sort_by(|a, b| b.1.total_cmp(&a.1));

    // trial-compress with top-1, top-2, top-3 anchor sets
    let rel_eb = 1e-3;
    let comp = CrossFieldCompressor::new(rel_eb);
    let baseline_ratio = {
        let s = comp.baseline().compress(target).expect("baseline compress");
        s.ratio(target.len())
    };
    println!("\nbaseline (no anchors): {baseline_ratio:.2}x");
    for k in 1..=scored.len().min(3) {
        let chosen: Vec<&str> = scored[..k].iter().map(|(n, _)| *n).collect();
        let anchors: Vec<&Field> = chosen.iter().map(|n| ds.expect_field(n)).collect();
        let spec = CfnnSpec::writer_default(target.shape().ndim());
        let trained = train_cfnn(&spec, &TrainConfig::default(), &anchors, target);
        let anchors_dec: Vec<Field> = anchors
            .iter()
            .map(|a| comp.roundtrip_anchor(a).expect("anchor roundtrip"))
            .collect();
        let refs: Vec<&Field> = anchors_dec.iter().collect();
        let stream = comp.compress(&trained, target, &refs).expect("compress");
        println!(
            "anchors {:<18} → {:.2}x ({:+.2}% vs baseline)",
            chosen.join("+"),
            stream.ratio(target.len()),
            (stream.ratio(target.len()) / baseline_ratio - 1.0) * 100.0
        );
    }
    println!("\n(paper's hand-picked configuration for Wf is Uf+Vf+Pf — compare above)");
}

/// Difference-activity map: smoothed |∇| over the first two axes, a cheap
/// proxy for "where is this field busy".
fn activity(f: &Field) -> Field {
    let d0 = diff::backward_diff(f, Axis::X);
    let d1 = diff::backward_diff(f, Axis::Y);
    d0.zip_map(&d1, |a, b| (a * a + b * b).sqrt())
}
