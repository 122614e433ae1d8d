//! Shared experiment runner: dataset generation, model training (cached per
//! target field), and baseline/cross-field compression at a sweep of error
//! bounds — the machinery behind Table II, Figure 8, and the ablations.
//!
//! Baseline measurements go through the unified [`Codec`] trait, so any
//! codec implementing it can be benchmarked with [`run_codec`].

use std::collections::HashMap;

use cfc_core::config::{paper_table3, CrossFieldConfig, TrainConfig};
use cfc_core::pipeline::{CrossFieldCompressor, CrossFieldStream};
use cfc_core::train::{train_cfnn, TrainedCfnn};
use cfc_datagen::{paper_catalog, Dataset, GenParams};
use cfc_sz::{Codec, EncodedStream, SzCompressor};
use cfc_tensor::Field;

/// Round-trip `field` through any [`Codec`], returning the stream and the
/// reconstruction. Experiment inputs are trusted, so failures panic with
/// the codec's diagnostic.
pub fn run_codec<C: Codec>(codec: &C, field: &Field) -> (EncodedStream, Field) {
    let stream = codec
        .compress(field)
        .unwrap_or_else(|e| panic!("{} compress failed: {e}", codec.name()));
    let recon = codec
        .decompress(&stream.bytes)
        .unwrap_or_else(|e| panic!("{} decompress failed: {e}", codec.name()));
    (stream, recon)
}

/// The relative error bounds of the paper's Table II, largest to smallest.
pub const PAPER_ERROR_BOUNDS: [f64; 5] = [5e-3, 2e-3, 1e-3, 5e-4, 2e-4];

/// One (dataset, target, error-bound) measurement.
#[derive(Debug, Clone)]
pub struct FieldResult {
    /// Dataset name.
    pub dataset: String,
    /// Target field name.
    pub field: String,
    /// Relative error bound.
    pub rel_eb: f64,
    /// Baseline (SZ Lorenzo + dual-quant) compression ratio.
    pub baseline_ratio: f64,
    /// Cross-field compression ratio (model bytes included).
    pub ours_ratio: f64,
    /// Baseline bit rate.
    pub baseline_bitrate: f64,
    /// Cross-field bit rate.
    pub ours_bitrate: f64,
    /// PSNR of the (shared) reconstruction at this bound.
    pub psnr: f64,
    /// Hybrid weights fitted at this bound (Lorenzo first).
    pub hybrid_weights: Vec<f64>,
    /// Bytes spent on the embedded model.
    pub model_bytes: usize,
}

impl FieldResult {
    /// Percentage improvement of ours over baseline (positive = better).
    pub fn improvement_pct(&self) -> f64 {
        (self.ours_ratio / self.baseline_ratio - 1.0) * 100.0
    }
}

/// Generated datasets + trained models, reused across experiments.
pub struct ExperimentContext {
    /// Generation parameters used.
    pub params: GenParams,
    /// Training configuration used for every CFNN.
    pub train_cfg: TrainConfig,
    datasets: HashMap<String, Dataset>,
    models: HashMap<String, TrainedCfnn>,
}

impl ExperimentContext {
    /// Generate all three datasets at their default (scaled) shapes.
    pub fn new(params: GenParams, train_cfg: TrainConfig) -> Self {
        let mut datasets = HashMap::new();
        for info in paper_catalog() {
            datasets.insert(info.name.to_string(), info.generate_default(params));
        }
        ExperimentContext {
            params,
            train_cfg,
            datasets,
            models: HashMap::new(),
        }
    }

    /// Context with a scale factor < 1 shrinking every dataset (for smoke
    /// tests and CI); 1.0 = default experiment shapes.
    pub fn new_scaled(params: GenParams, train_cfg: TrainConfig, scale: f64) -> Self {
        let mut datasets = HashMap::new();
        for info in paper_catalog() {
            let dims: Vec<usize> = info
                .default_dims
                .dims()
                .iter()
                .map(|&d| ((d as f64 * scale) as usize).max(12))
                .collect();
            let shape = cfc_tensor::Shape::from_slice(&dims);
            datasets.insert(info.name.to_string(), info.generate(shape, params));
        }
        ExperimentContext {
            params,
            train_cfg,
            datasets,
            models: HashMap::new(),
        }
    }

    /// Access a generated dataset.
    pub fn dataset(&self, name: &str) -> &Dataset {
        &self.datasets[name]
    }

    /// The paper's experiment rows (Table III).
    pub fn configs(&self) -> Vec<CrossFieldConfig> {
        paper_table3()
    }

    /// Train (or fetch the cached) CFNN for one experiment row.
    pub fn model(&mut self, cfg: &CrossFieldConfig) -> &mut TrainedCfnn {
        let key = format!("{}:{}", cfg.dataset, cfg.target);
        if !self.models.contains_key(&key) {
            let ds = &self.datasets[cfg.dataset];
            let target = ds.expect_field(cfg.target);
            let anchors: Vec<&Field> = cfg.anchors.iter().map(|a| ds.expect_field(a)).collect();
            let trained = train_cfnn(&cfg.spec, &self.train_cfg, &anchors, target);
            self.models.insert(key.clone(), trained);
        }
        self.models.get_mut(&key).unwrap()
    }

    /// Decompressed anchors for one experiment row at one error bound.
    pub fn anchors_dec(&self, cfg: &CrossFieldConfig, rel_eb: f64) -> Vec<Field> {
        let comp = CrossFieldCompressor::new(rel_eb);
        let ds = &self.datasets[cfg.dataset];
        cfg.anchors
            .iter()
            .map(|a| {
                comp.roundtrip_anchor(ds.expect_field(a))
                    .unwrap_or_else(|e| panic!("anchor {a} roundtrip failed: {e}"))
            })
            .collect()
    }

    /// Run baseline + cross-field compression for one row at one bound.
    pub fn run(&mut self, cfg: &CrossFieldConfig, rel_eb: f64) -> FieldResult {
        let comp = CrossFieldCompressor::new(rel_eb);
        let target = self.datasets[cfg.dataset].expect_field(cfg.target).clone();
        let n = target.len();

        // baseline, through the unified Codec trait
        let (baseline, recon) = run_codec(&comp.baseline(), &target);
        let psnr = cfc_metrics::psnr(&target, &recon);

        // ours
        let anchors_dec = self.anchors_dec(cfg, rel_eb);
        let anchor_refs: Vec<&Field> = anchors_dec.iter().collect();
        let trained = self.model(cfg);
        let ours: CrossFieldStream = comp
            .compress(trained, &target, &anchor_refs)
            .unwrap_or_else(|e| panic!("cross-field compress of {} failed: {e}", cfg.target));

        FieldResult {
            dataset: cfg.dataset.to_string(),
            field: cfg.target.to_string(),
            rel_eb,
            baseline_ratio: baseline.ratio(n),
            ours_ratio: ours.ratio(n),
            baseline_bitrate: baseline.bit_rate(n),
            ours_bitrate: ours.bit_rate(n),
            psnr,
            hybrid_weights: ours.hybrid.weights.clone(),
            model_bytes: ours.model_bytes,
        }
    }
}

/// One field's chunked-archive measurement: block geometry, sizes, and
/// encode/decode throughput at block granularity.
#[derive(Debug, Clone)]
pub struct BlockThroughput {
    /// Field name.
    pub field: String,
    /// Role label from the manifest.
    pub role: String,
    /// Number of blocks the field was split into.
    pub n_blocks: usize,
    /// Compressed payload bytes (meta + blocks).
    pub payload_bytes: usize,
    /// Mean compressed block size in bytes.
    pub mean_block_bytes: f64,
    /// Raw MB/s for a full-field decode through the block path.
    pub decode_mb_s: f64,
    /// Raw MB/s for decoding one middle block alone (random access).
    pub block_decode_mb_s: f64,
}

/// Measurement of one chunked-archive write + decode cycle.
#[derive(Debug, Clone)]
pub struct ArchiveBench {
    /// Whole-archive compression ratio.
    pub ratio: f64,
    /// Raw MB/s of the (parallel, per-block) archive write.
    pub write_mb_s: f64,
    /// Raw MB/s of the (parallel, per-block) full decode.
    pub decode_all_mb_s: f64,
    /// Per-field block statistics.
    pub fields: Vec<BlockThroughput>,
}

/// Write `ds` as a chunked archive and measure per-block encode/decode
/// throughput (raw-dataset MB per wall-clock second).
pub fn bench_archive(builder: cfc_core::archive::ArchiveBuilder, ds: &Dataset) -> ArchiveBench {
    use cfc_core::archive::ArchiveReader;
    use std::time::Instant;

    let raw_mb = (ds.len() * ds.shape().len() * 4) as f64 / 1e6;
    let field_mb = (ds.shape().len() * 4) as f64 / 1e6;

    let t0 = Instant::now();
    let mut bytes = Vec::new();
    let report = builder
        .build()
        .write_to(ds, &mut bytes)
        .expect("archive write");
    let write_s = t0.elapsed().as_secs_f64();

    let reader = ArchiveReader::new(&bytes).expect("archive parse");
    let t1 = Instant::now();
    let _ = reader.decode_all().expect("archive decode");
    let decode_s = t1.elapsed().as_secs_f64();

    let fields = reader
        .entries()
        .iter()
        .map(|e| {
            let n_blocks = e.n_blocks();
            let t = Instant::now();
            let _ = reader.decode_field(&e.name).expect("field decode");
            let field_s = t.elapsed().as_secs_f64();
            let mid = n_blocks / 2;
            let t = Instant::now();
            let block = reader.decode_block(&e.name, mid).expect("block decode");
            let block_s = t.elapsed().as_secs_f64();
            let block_mb = (block.len() * 4) as f64 / 1e6;
            BlockThroughput {
                field: e.name.clone(),
                role: e.role.label().to_string(),
                n_blocks,
                payload_bytes: e.stream_len(),
                mean_block_bytes: e.stream_len() as f64 / n_blocks as f64,
                decode_mb_s: field_mb / field_s.max(1e-9),
                block_decode_mb_s: block_mb / block_s.max(1e-9),
            }
        })
        .collect();

    ArchiveBench {
        ratio: report.ratio(),
        write_mb_s: raw_mb / write_s.max(1e-9),
        decode_all_mb_s: raw_mb / decode_s.max(1e-9),
        fields,
    }
}

/// Format a ratio improvement like the paper: `26.72(+3.76%)`.
pub fn fmt_ours(result: &FieldResult) -> String {
    format!(
        "{:.2}({:+.2}%)",
        result.ours_ratio,
        result.improvement_pct()
    )
}

/// Resolve the baseline compressor used everywhere in the harness.
pub fn baseline_at(rel_eb: f64) -> SzCompressor {
    SzCompressor::baseline(rel_eb)
}
