//! Quickstart: one field, two compressors.
//!
//! The SZ-style baseline is `SzCompressor::{compress, decompress}`; the
//! cross-field compressor is `CrossFieldCompressor::{compress, decompress}`,
//! which also take the decompressed anchors the target is predicted from.
//! Both are fallible: a bad input or corrupt bytes are a `CfcError`, never
//! a panic. This example compresses one field both ways and verifies the
//! error bound.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cross_field_compression::core::archive::{ArchiveBuilder, ArchiveReader};
use cross_field_compression::core::config::{CfnnSpec, TrainConfig};
use cross_field_compression::core::pipeline::CrossFieldCompressor;
use cross_field_compression::core::train::train_cfnn;
use cross_field_compression::datagen::FractalNoise;
use cross_field_compression::metrics::{psnr, ssim_field};
use cross_field_compression::tensor::{Dataset, Field, Region, Shape};

fn main() {
    // 1. Make a pair of correlated fields (in practice: two variables of one
    //    simulation snapshot). The anchor carries fine-scale structure; the
    //    target is a nonlinear function of it — locally rough (hard for a
    //    Lorenzo predictor) but cross-field predictable.
    let (rows, cols) = (384usize, 384usize);
    let shape = Shape::d2(rows, cols);
    let smooth_a = FractalNoise::new(1)
        .with_base_freq(3.0)
        .with_persistence(0.35);
    let smooth_t = FractalNoise::new(9)
        .with_base_freq(2.5)
        .with_persistence(0.3)
        .with_octaves(3);
    let rough = FractalNoise::new(2)
        .with_base_freq(12.0)
        .with_persistence(0.6);
    let shared = rough.grid2(rows, cols, 0.7);
    let anchor = Field::from_vec(
        shape,
        smooth_a
            .grid2(rows, cols, 0.1)
            .iter()
            .zip(&shared)
            .map(|(&a, &b)| 4.0 * a + 9.0 * b)
            .collect(),
    );
    // target: its own large-scale structure (Lorenzo's home turf) plus the
    // anchor's fine-scale texture (CFNN's home turf)
    let target = Field::from_vec(
        shape,
        smooth_t
            .grid2(rows, cols, 0.4)
            .iter()
            .zip(&shared)
            .map(|(&a, &b)| 30.0 * a + 8.0 * b)
            .collect(),
    );

    // 2. Baseline: error-bounded SZ-style compression (Lorenzo + dual-quant).
    let rel_eb = 2e-4;
    let comp = CrossFieldCompressor::new(rel_eb);
    let baseline = comp.baseline();
    let base_stream = baseline.compress(&target).expect("baseline compress");
    let base_rec = baseline
        .decompress(&base_stream.bytes)
        .expect("baseline decompress");
    println!(
        "baseline     : {:.2}x  ({:.3} bits/value, PSNR {:.2} dB, SSIM {:.4})",
        base_stream.ratio(target.len()),
        base_stream.bit_rate(target.len()),
        psnr(&target, &base_rec),
        ssim_field(&target, &base_rec),
    );

    // 3. Cross-field: train a CFNN once (on original data — one model serves
    //    every error bound), then compress against the anchor as the decoder
    //    will have it; the model rides in the stream, the anchor does not.
    let spec = CfnnSpec {
        feat1: 16,
        feat2: 24,
    };
    let trained = train_cfnn(&spec, &TrainConfig::default(), &[&anchor], &target);
    let anchor_dec = comp.roundtrip_anchor(&anchor).expect("anchor roundtrip");
    let anchors = [&anchor_dec];
    let stream = comp
        .compress(&trained, &target, &anchors)
        .expect("cross-field compress");
    let rec = comp
        .decompress(&stream.bytes, &anchors)
        .expect("cross-field decompress");
    println!(
        "cross-field  : {:.2}x  ({:.3} bits/value, PSNR {:.2} dB, SSIM {:.4})",
        stream.ratio(target.len()),
        stream.bit_rate(target.len()),
        psnr(&target, &rec),
        ssim_field(&target, &rec),
    );

    // 4. Malformed bytes are an Err, never a panic — the decode path is
    //    total over arbitrary input.
    let mut corrupt = stream.bytes.clone();
    corrupt[0] ^= 0xFF;
    let err = comp.decompress(&corrupt, &anchors).unwrap_err();
    println!("corrupt bytes: {err}");

    // 5. The error bound holds pointwise.
    let eb = stream.eb_abs;
    let worst = target
        .as_slice()
        .iter()
        .zip(rec.as_slice())
        .map(|(a, b)| (a - b).abs() as f64)
        .fold(0.0, f64::max);
    println!("error bound {eb:.6} — worst reconstruction error {worst:.6} (must be ≤)");
    assert!(worst <= eb * (1.0 + 1e-9));
    println!("✓ error bound verified");

    // 6. Layer 2 in one breath: the same pair as a chunked streaming
    //    archive. `write_to` streams blocks into any `io::Write`;
    //    `ArchiveReader::open` parses only the manifest; `decode_region`
    //    reads just the blocks that cover a window.
    let mut ds = Dataset::new("QUICK", shape);
    ds.push("anchor", anchor);
    ds.push("target", target.clone());
    let mut sink = Vec::new(); // any io::Write — a File works the same way
    let report = ArchiveBuilder::relative(1e-3)
        .cross_field("target", &["anchor"])
        .train_config(TrainConfig::fast()) // quick demo-scale training
        .chunk_elements(64 * cols) // 64 rows per block → 6 blocks
        .build()
        .write_to(&ds, &mut sink)
        .expect("archive write");
    let reader = ArchiveReader::new(&sink).expect("archive parse");
    let window = reader
        .decode_region("target", &Region::d2(100, 140, 200, 260))
        .expect("region decode");
    println!(
        "\narchive: {} fields, {:.2}x, {} blocks/field — decoded a {} window \
         from {} of {} blocks",
        report.fields.len(),
        report.ratio(),
        report.fields[0].n_blocks,
        window.shape(),
        2, // rows 100..140 span blocks 1 and 2 at 64 rows/block
        report.fields[0].n_blocks,
    );
}
