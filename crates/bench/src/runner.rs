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
use cfc_sz::{Codec, EncodedStream};
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
