//! What every experiment of the `experiments` binary starts from: the
//! generated datasets, one trained CFNN per Table III row, and — for one
//! row at one error bound — either the measured round-trip
//! ([`ExperimentContext::run`], the cell of Table II and the point of
//! Figure 8) or the quantities the encoder computes on the way there
//! ([`ExperimentContext::case`], what Figures 5 and 6 and the ablations
//! look inside).
//!
//! A target's encode set-up — inference with the model that ships, the
//! hybrid fit — is one step in `cfc-core` ([`TargetFit`]) with two callers:
//! the archive writer, block by block, and [`CrossFieldCompressor`], whose
//! one block is the whole field. Measurements here go through the latter
//! with one model per target serving every bound, which is the paper's
//! protocol; the writer retrains on every write and is measured by
//! `benchmark/`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

use cfc_core::config::{paper_table3, CfnnSpec, CrossFieldConfig, TrainConfig};
use cfc_core::diffnet::build_cfnn;
use cfc_core::pipeline::{CrossFieldCompressor, CrossFieldStream, TargetFit};
use cfc_core::train::{train_cfnn, TrainedCfnn};
use cfc_datagen::{Dataset, GenParams};
use cfc_metrics::{max_abs_error, psnr};
use cfc_sz::EncodedStream;
use cfc_tensor::{Field, Shape};

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
    /// PSNR of the decoded cross-field stream, which [`ExperimentContext::run`]
    /// has checked to be the baseline's reconstruction bit for bit.
    pub psnr: f64,
    /// Bytes spent on the embedded model.
    pub model_bytes: usize,
}

impl FieldResult {
    /// Percentage improvement of ours over baseline (positive = better).
    pub fn improvement_pct(&self) -> f64 {
        (self.ours_ratio / self.baseline_ratio - 1.0) * 100.0
    }
}

/// Header of [`write_csv`], the layout of `tests/golden/table2_*.csv`.
pub const CSV_HEADER: &str = "dataset,field,rel_eb,baseline_ratio,ours_ratio,improvement_pct,\
                              baseline_bitrate,ours_bitrate,psnr,model_bytes";

/// Write measurements as CSV, one row each under [`CSV_HEADER`].
pub fn write_csv(path: &Path, results: &[FieldResult]) -> std::io::Result<()> {
    let mut csv = format!("{CSV_HEADER}\n");
    for r in results {
        let _ = writeln!(
            csv,
            "{},{},{:e},{:.4},{:.4},{:.3},{:.4},{:.4},{:.3},{}",
            r.dataset,
            r.field,
            r.rel_eb,
            r.baseline_ratio,
            r.ours_ratio,
            r.improvement_pct(),
            r.baseline_bitrate,
            r.ours_bitrate,
            r.psnr,
            r.model_bytes
        );
    }
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, csv)
}

/// One cross-field encode of a Table III row at one bound, stopped before
/// the residual stage.
pub struct Case<'a> {
    /// The original target field.
    pub target: &'a Field,
    /// The original anchor fields (the CFNN's training inputs).
    pub anchors: Vec<&'a Field>,
    /// The row's CFNN, trained on the originals.
    pub trained: &'a TrainedCfnn,
    /// Everything `CrossFieldCompressor::compress` computes on the way to
    /// the residual stage, from the anchors as the decoder will have them
    /// (round-tripped at this bound): one block, the whole field.
    pub fit: TargetFit,
}

/// The Table III row of one target field.
pub fn table3_row(target: &str) -> CrossFieldConfig {
    paper_table3()
        .into_iter()
        .find(|r| r.target == target)
        .unwrap_or_else(|| panic!("Table III has no target {target}"))
}

/// The dimensionality of `row`'s dataset: with the row's anchors it fixes
/// the CFNN's channel counts.
pub fn row_ndim(row: &CrossFieldConfig) -> usize {
    cfc_datagen::catalog::find(row.dataset)
        .unwrap_or_else(|| panic!("unknown dataset {}", row.dataset))
        .default_dims
        .ndim()
}

/// Learnable parameters of the CFNN at `spec`'s widths on `row`'s data.
pub fn cfnn_params(row: &CrossFieldConfig, spec: &CfnnSpec) -> usize {
    build_cfnn(spec, row.anchors.len(), row_ndim(row), 0).num_params()
}

/// Generated datasets + trained models, reused across experiments.
pub struct ExperimentContext {
    /// The reduced size: every grid extent × 0.4 and `TrainConfig::fast()`
    /// in place of the catalog's default shapes and `TrainConfig::default()`.
    pub quick: bool,
    params: GenParams,
    datasets: HashMap<&'static str, Dataset>,
    models: HashMap<(&'static str, &'static str, CfnnSpec), TrainedCfnn>,
}

impl ExperimentContext {
    /// An empty context: datasets are generated and models trained when an
    /// experiment first asks for them.
    pub fn new(params: GenParams, quick: bool) -> Self {
        ExperimentContext {
            quick,
            params,
            datasets: HashMap::new(),
            models: HashMap::new(),
        }
    }

    /// Training configuration used for every CFNN.
    pub fn train_config(&self) -> TrainConfig {
        if self.quick {
            TrainConfig::fast()
        } else {
            TrainConfig::default()
        }
    }

    /// One of the paper's datasets (by catalog name) at this context's size.
    pub fn dataset(&mut self, name: &str) -> &Dataset {
        let info =
            cfc_datagen::catalog::find(name).unwrap_or_else(|| panic!("unknown dataset {name}"));
        let scale = if self.quick { 0.4 } else { 1.0 };
        self.datasets.entry(info.name).or_insert_with(|| {
            let dims: Vec<usize> = info
                .default_dims
                .dims()
                .iter()
                .map(|&d| ((d as f64 * scale) as usize).max(12))
                .collect();
            info.generate(Shape::from_slice(&dims), self.params)
        })
    }

    /// `row` against this context: its target, its anchors, and its CFNN,
    /// trained on those originals when first asked for and kept.
    fn resolve(&mut self, row: &CrossFieldConfig) -> (&Field, Vec<&Field>, &TrainedCfnn) {
        self.dataset(row.dataset);
        let ds = &self.datasets[row.dataset];
        let target = ds.expect_field(row.target);
        let anchors: Vec<&Field> = row.anchors.iter().map(|a| ds.expect_field(a)).collect();
        let cfg = self.train_config();
        // keyed by spec too: the model-size ablation trains one row at several
        let trained = self
            .models
            .entry((row.dataset, row.target, row.spec))
            .or_insert_with(|| train_cfnn(&row.spec, &cfg, &anchors, target));
        (target, anchors, trained)
    }

    /// The set-up of one cross-field encode: anchors round-tripped at
    /// `rel_eb`, and [`CrossFieldCompressor::fit`] of the target on them.
    pub fn case(&mut self, row: &CrossFieldConfig, rel_eb: f64) -> Case<'_> {
        let comp = CrossFieldCompressor::new(rel_eb);
        let (target, anchors, trained) = self.resolve(row);
        let anchors_dec = roundtrip_anchors(&comp, &anchors);
        let fit = comp
            .fit(trained, target, &anchors_dec.iter().collect::<Vec<_>>())
            .expect("a generated field has a positive finite range");
        Case {
            target,
            anchors,
            trained,
            fit,
        }
    }

    /// The baseline stream of `row`'s target at `rel_eb` and its decode.
    pub fn baseline_roundtrip(
        &mut self,
        row: &CrossFieldConfig,
        rel_eb: f64,
    ) -> (EncodedStream, Field) {
        let target = self.dataset(row.dataset).expect_field(row.target);
        let codec = CrossFieldCompressor::new(rel_eb).baseline();
        let stream = codec.compress(target).expect("baseline compress");
        let recon = codec
            .decompress(&stream.bytes)
            .expect("baseline decompress");
        (stream, recon)
    }

    /// The cross-field stream of `row`'s target at `rel_eb` and its decode
    /// against the same round-tripped anchors, held to the bound pointwise.
    pub fn cross_field_roundtrip(
        &mut self,
        row: &CrossFieldConfig,
        rel_eb: f64,
    ) -> (CrossFieldStream, Field) {
        let comp = CrossFieldCompressor::new(rel_eb);
        let (target, anchors, trained) = self.resolve(row);
        let anchors_dec = roundtrip_anchors(&comp, &anchors);
        let refs: Vec<&Field> = anchors_dec.iter().collect();
        let stream = comp
            .compress(trained, target, &refs)
            .expect("cross-field compress");
        let recon = comp
            .decompress(&stream.bytes, &refs)
            .expect("cross-field decompress");
        let worst = max_abs_error(target, &recon);
        assert!(
            worst <= stream.eb_abs,
            "{} @ {rel_eb:e}: decoded cross-field stream is off by {worst:e}, bound {:e}",
            row.target,
            stream.eb_abs
        );
        (stream, recon)
    }

    /// Run baseline + cross-field compression for one row at one bound.
    pub fn run(&mut self, row: &CrossFieldConfig, rel_eb: f64) -> FieldResult {
        let (baseline, baseline_recon) = self.baseline_roundtrip(row, rel_eb);
        let (ours, recon) = self.cross_field_roundtrip(row, rel_eb);
        // dual quantization: both methods prequantize the same lattice at
        // the same bound, so they differ in bit-rate and nothing else
        assert!(
            recon
                .as_slice()
                .iter()
                .zip(baseline_recon.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "{} @ {rel_eb:e}: cross-field and baseline reconstructions differ",
            row.target
        );
        let target = self.dataset(row.dataset).expect_field(row.target);
        let n = target.len();
        FieldResult {
            dataset: row.dataset.to_string(),
            field: row.target.to_string(),
            rel_eb,
            baseline_ratio: baseline.ratio(n),
            ours_ratio: ours.ratio(n),
            baseline_bitrate: baseline.bit_rate(n),
            ours_bitrate: ours.bit_rate(n),
            psnr: psnr(target, &recon),
            model_bytes: ours.model_bytes,
        }
    }

    /// Every cell of Table II: each Table III row at each of
    /// [`PAPER_ERROR_BOUNDS`], row-major.
    pub fn table2(&mut self) -> Vec<FieldResult> {
        let mut results = Vec::new();
        for row in paper_table3() {
            for eb in PAPER_ERROR_BOUNDS {
                eprintln!("running {} {} @ {eb:.0e}…", row.dataset, row.target);
                results.push(self.run(&row, eb));
            }
        }
        results
    }
}

/// What the decoder will have for each anchor at `comp`'s bound.
fn roundtrip_anchors(comp: &CrossFieldCompressor, anchors: &[&Field]) -> Vec<Field> {
    anchors
        .iter()
        .map(|a| comp.roundtrip_anchor(a).expect("anchor round-trip"))
        .collect()
}
