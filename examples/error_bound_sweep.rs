//! Domain scenario: picking an error bound for post-hoc analysis.
//!
//! Scientists choose the loosest bound whose reconstruction still preserves
//! the analysis they care about. This example sweeps bounds on the CESM
//! LWCF field, reporting ratio, PSNR, SSIM, and a domain-style derived
//! quantity (global mean cloud forcing) so the trade-off is visible end to
//! end — and shows where cross-field compression shifts the frontier.
//!
//! ```sh
//! cargo run --release --example error_bound_sweep
//! ```

use cross_field_compression::core::config::{paper_table3, TrainConfig};
use cross_field_compression::core::pipeline::CrossFieldCompressor;
use cross_field_compression::core::train::train_cfnn;
use cross_field_compression::datagen::{paper_catalog, GenParams};
use cross_field_compression::metrics::{psnr, ssim_field};
use cross_field_compression::tensor::{Field, FieldStats};

fn main() {
    let info = paper_catalog()
        .into_iter()
        .find(|d| d.name == "CESM-ATM")
        .unwrap();
    let ds = info.generate_default(GenParams::default());
    let row = paper_table3()
        .into_iter()
        .find(|r| r.target == "LWCF")
        .unwrap();
    let target = ds.expect_field("LWCF");
    let anchors: Vec<&Field> = row.anchors.iter().map(|a| ds.expect_field(a)).collect();
    let true_mean = FieldStats::of(target).mean;

    // one model serves every bound (trained on original data, §III-D2)
    let trained = train_cfnn(&row.spec, &TrainConfig::default(), &anchors, target);

    println!("LWCF error-bound sweep (global mean cloud forcing: {true_mean:.4} W/m²)\n");
    println!(
        "{:>9}{:>11}{:>11}{:>10}{:>9}{:>16}",
        "rel_eb", "base x", "ours x", "PSNR dB", "SSIM", "mean drift"
    );
    for rel_eb in [5e-3, 2e-3, 1e-3, 5e-4, 2e-4] {
        let comp = CrossFieldCompressor::new(rel_eb);
        let base = comp.baseline().compress(target).expect("baseline compress");
        let anchors_dec: Vec<Field> = anchors
            .iter()
            .map(|a| comp.roundtrip_anchor(a).expect("anchor roundtrip"))
            .collect();
        let refs: Vec<&Field> = anchors_dec.iter().collect();
        let stream = comp.compress(&trained, target, &refs).expect("compress");
        let rec = comp.decompress(&stream.bytes, &refs).expect("decompress");
        let drift = (FieldStats::of(&rec).mean - true_mean).abs();
        println!(
            "{:>9.0e}{:>11.2}{:>11.2}{:>10.2}{:>9.4}{:>16.3e}",
            rel_eb,
            base.ratio(target.len()),
            stream.ratio(target.len()),
            psnr(target, &rec),
            ssim_field(target, &rec),
            drift
        );
    }
    println!(
        "\nReading: pick the loosest bound whose PSNR/SSIM/mean-drift is acceptable;\n\
         the 'ours' column shows the extra headroom cross-field prediction buys\n\
         at tight bounds, where archives are largest."
    );
}
