//! The end-to-end cross-field compression pipeline (paper Fig. 2).
//!
//! Encoder:
//! 1. anchors are compressed with the baseline compressor and *decompressed
//!    again* — CFNN inference must see exactly what the decoder will see;
//! 2. the CFNN (trained once per target field on original data) is
//!    serialized, and the model *parsed back from those bytes* — the one the
//!    decoder will rebuild, never the in-memory training result — predicts
//!    the target's backward differences from the decompressed anchors, one
//!    axis-0 block at a time;
//! 3. the hybrid model is fitted on sampled lattice points (per error
//!    bound — it is 4–5 parameters, so this is microseconds);
//! 4. each block of the target lattice is encoded with the hybrid predictor;
//!    residuals go through the shared Huffman + LZSS stages;
//! 5. CFNN weights, normalizers, and hybrid weights ride in the stream and
//!    are **counted in the compressed size**, reproducing the paper's
//!    model-overhead effect at high compression ratios.
//!
//! Steps 2 and 3 are [`TargetFit`], built in one place for every encoder:
//! the archive writer hands it a field's chunk geometry, and
//! [`CrossFieldCompressor`] is its one-block caller — one block, the whole
//! field, model and weights as sections of the stream instead of a meta area.
//! The writer builds it through a `TargetInference`, which can run steps 2
//! and 3 on one block first, for the writer to judge the target on, and
//! keeps that block's inference for the whole fit.
//!
//! Decoder: rebuild the CFNN from the stream, rerun inference on the same
//! decompressed anchors, replay the hybrid predictions sequentially —
//! `decode_target_rows`, the one cross-field block decode behind both
//! [`CrossFieldCompressor::decompress`] and the archive reader. The whole
//! decode path is fallible — corrupt or adversarial streams return
//! [`CfcError`], never panic.
//!
//! [`CrossFieldCompressor::compress`] and
//! [`CrossFieldCompressor::decompress`] take the decompressed anchors
//! explicitly: they are the one cross-field call for a single target.

use bytes::BufMut;
use cfc_nn::MAX_CHANNELS;
use cfc_sz::error::Reader;
use cfc_sz::stream::{Container, SectionTag};
use cfc_sz::{
    CfcError, DecodeScratch, EncodeScratch, ErrorBound, Predictor, QuantLattice, QuantizerConfig,
    SzCompressor,
};
use cfc_tensor::{Field, FieldStats, Normalizer, Shape};

use crate::archive::run_parallel_scratch;
use crate::diffnet::ATTENTION_REDUCTION;
use crate::hybrid::{HybridConfig, HybridModel};
use crate::predict::CfnnInference;
use crate::predictor::{sample_hybrid_training_by, CrossFieldHybridPredictor};
use crate::train::TrainedCfnn;

/// One cross-field target at one bound, set up as far as the residual
/// stage (paper Fig. 2, §III-B and §III-D3): the lattice, the differences
/// the *shipped* model predicts for each axis-0 block from the anchors as
/// the decoder will have them, and the hybrid weights fitted on both.
pub struct TargetFit {
    /// The whole target prequantized at `eb`.
    pub lattice: QuantLattice,
    /// The absolute bound the lattice is quantized at.
    pub eb: f64,
    /// `block_diffs[b][axis]`: the predicted backward differences of the
    /// `b`-th block (physical units), exactly what a reader infers for it.
    pub block_diffs: Vec<Vec<Field>>,
    /// The hybrid model's training sample: candidate predictions (Lorenzo
    /// first) and true values at sampled lattice points, in lattice units.
    pub samples: (Vec<Vec<f64>>, Vec<f64>),
    /// The least-squares fit on `samples` — the weights that ship. Closed
    /// form is the converged SGD solution (the SGD trainer exists for the
    /// Fig. 5 loss curve; at 4–5 parameters the normal equations are exact).
    pub hybrid: HybridModel,
    /// The serialized model inference ran on — the bytes that ship.
    pub model: Vec<u8>,
}

impl TargetFit {
    /// Fit `target`, quantized at `eb`, against `anchors` — the decoder's
    /// view of them, same shape as the target — in axis-0 blocks of rows
    /// `[r0, r1)`. `model` is parsed as a reader would parse it and run
    /// block by block on up to `threads` workers; the hybrid sample is
    /// drawn from the whole lattice. The caller has matched the model's
    /// channels to the anchors.
    pub(crate) fn new(
        model: Vec<u8>,
        target: &Field,
        eb: f64,
        anchors: &[&Field],
        blocks: &[(usize, usize)],
        cfg: &HybridConfig,
        threads: usize,
    ) -> Result<Self, CfcError> {
        Ok(TargetInference::new(model, target, eb, blocks)?.fit(anchors, cfg, threads))
    }

    /// The causal predictor block `block`'s residuals are taken against,
    /// on the block's differences where they lie.
    pub fn predictor(&self, block: usize) -> CrossFieldHybridPredictor<'_> {
        CrossFieldHybridPredictor::from_planes(
            &self.block_diffs[block],
            self.eb,
            self.hybrid.clone(),
        )
    }

    /// The lattice of block `[r0, r1)`: its rows of the whole-field lattice.
    pub(crate) fn block_lattice(&self, (r0, r1): (usize, usize)) -> QuantLattice {
        lattice_rows(&self.lattice, r0, r1)
    }
}

/// A [`TargetFit`] on its way: the model parsed as a reader parses it, the
/// lattice quantized, and the blocks inferred so far. The archive writer
/// holds one while it judges a target on a single block
/// ([`sample_block`](Self::sample_block)), and the [`fit`](Self::fit) it
/// then builds infers only the blocks not inferred yet.
pub(crate) struct TargetInference {
    model: Vec<u8>,
    inference: CfnnInference,
    lattice: QuantLattice,
    eb: f64,
    blocks: Vec<(usize, usize)>,
    block_diffs: Vec<Option<Vec<Field>>>,
}

impl TargetInference {
    /// Parse `model` (a diverged or damaged one is `Corrupt { context:
    /// "embedded model" }`) and quantize `target` at `eb`, to be fitted in
    /// axis-0 blocks of rows `[r0, r1)`.
    pub(crate) fn new(
        model: Vec<u8>,
        target: &Field,
        eb: f64,
        blocks: &[(usize, usize)],
    ) -> Result<Self, CfcError> {
        Ok(TargetInference {
            inference: deserialize_model(&model)?,
            model,
            lattice: QuantLattice::prequantize(target, eb),
            eb,
            blocks: blocks.to_vec(),
            block_diffs: vec![None; blocks.len()],
        })
    }

    /// Block `block` on its own: its lattice, and the predictor it would be
    /// encoded with if the hybrid weights were fitted on a sample of that
    /// block alone. Its slices are inferred on up to `threads` workers —
    /// the same bits at any count — and kept for [`fit`](Self::fit).
    pub(crate) fn sample_block(
        &mut self,
        block: usize,
        anchors: &[&Field],
        cfg: &HybridConfig,
        threads: usize,
    ) -> (QuantLattice, CrossFieldHybridPredictor<'_>) {
        let (r0, r1) = self.blocks[block];
        let mut helpers: Vec<cfc_nn::Workspace> =
            (1..threads).map(|_| cfc_nn::Workspace::default()).collect();
        let mut ws = cfc_nn::Workspace::default();
        let diffs = infer_rows(&self.inference, anchors, (r0, r1), &mut ws, &mut helpers);
        let lattice = lattice_rows(&self.lattice, r0, r1);
        let (_, hybrid) = fit_hybrid(&lattice, &[&diffs], self.eb, cfg);
        let diffs = &*self.block_diffs[block].insert(diffs);
        (
            lattice,
            CrossFieldHybridPredictor::from_planes(diffs, self.eb, hybrid),
        )
    }

    /// The whole fit: every block not inferred yet, on up to `threads`
    /// workers, then the hybrid weights fitted on a sample of the whole
    /// lattice against `anchors`.
    pub(crate) fn fit(self, anchors: &[&Field], cfg: &HybridConfig, threads: usize) -> TargetFit {
        let TargetInference {
            model,
            inference,
            lattice,
            eb,
            blocks,
            block_diffs,
        } = self;
        let mut inferred = run_parallel_scratch(
            blocks
                .iter()
                .zip(&block_diffs)
                .filter(|(_, d)| d.is_none())
                .map(|(&rows, _)| rows)
                .collect(),
            threads,
            cfc_nn::Workspace::default,
            |ws, rows| infer_rows(&inference, anchors, rows, ws, &mut []),
        )
        .into_iter();
        let block_diffs: Vec<Vec<Field>> = block_diffs
            .into_iter()
            .map(|d| d.unwrap_or_else(|| inferred.next().expect("one inference per block")))
            .collect();
        let (samples, hybrid) = fit_hybrid(&lattice, &block_diffs, eb, cfg);
        TargetFit {
            lattice,
            eb,
            block_diffs,
            samples,
            hybrid,
            model,
        }
    }
}

/// The differences `inference` predicts for axis-0 rows `[r0, r1)` from
/// `anchors`, the block's slices spread over `ws` and `helpers`.
fn infer_rows(
    inference: &CfnnInference,
    anchors: &[&Field],
    (r0, r1): (usize, usize),
    ws: &mut cfc_nn::Workspace,
    helpers: &mut [cfc_nn::Workspace],
) -> Vec<Field> {
    let slabs: Vec<Field> = anchors.iter().map(|a| a.slab(r0, r1)).collect();
    inference.predict_on(&slabs.iter().collect::<Vec<_>>(), ws, helpers)
}

/// Rows `[r0, r1)` of `lattice` along axis 0.
fn lattice_rows(lattice: &QuantLattice, r0: usize, r1: usize) -> QuantLattice {
    let shape = lattice.shape();
    let slab_len: usize = shape.dims()[1..].iter().product();
    let mut dims = shape.dims().to_vec();
    dims[0] = r1 - r0;
    QuantLattice::from_vec(
        Shape::from_slice(&dims),
        lattice.as_slice()[r0 * slab_len..r1 * slab_len].to_vec(),
    )
}

/// The hybrid weights for `lattice`, quantized at `eb`, under the backward
/// differences predicted for its axis-0 blocks in order (`block_diffs[b]
/// [axis]`, physical units): least squares on `cfg.n_samples` sampled
/// points, returned with that sample. A sampled point's difference is
/// looked up in its block's plane and converted to lattice units there.
fn fit_hybrid<D: AsRef<[Field]>>(
    lattice: &QuantLattice,
    block_diffs: &[D],
    eb: f64,
    cfg: &HybridConfig,
) -> ((Vec<Vec<f64>>, Vec<f64>), HybridModel) {
    let step = 2.0 * eb;
    // the whole-field offset each block's planes start at
    let starts: Vec<usize> = block_diffs
        .iter()
        .scan(0, |at, d| {
            let start = *at;
            *at += d.as_ref()[0].len();
            Some(start)
        })
        .collect();
    let dq = |axis: usize, off: usize| {
        let b = starts.partition_point(|&start| start <= off) - 1;
        block_diffs[b].as_ref()[axis].as_slice()[off - starts[b]] as f64 / step
    };
    let samples = sample_hybrid_training_by(lattice, dq, cfg.n_samples, cfg.seed);
    let hybrid = HybridModel::fit_least_squares(&samples.0, &samples.1);
    (samples, hybrid)
}

/// The one cross-field block decode: the leading `rows` axis-0 rows of
/// `container` (all of them past its extent) to `out`, predicted from
/// `anchors` — already held to the shape of the rows they are needed for —
/// by `model` and `hybrid`, which [`check_model_fits`] has passed. `nn` is
/// the calling thread's CFNN workspace and one per extra worker the
/// block's slices may spread over (`CfnnInference::predict_on`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn decode_target_rows<D: Dest>(
    container: &Container,
    model: &CfnnInference,
    hybrid: &HybridModel,
    anchors: &[&Field],
    rows: usize,
    (nn, helpers): (&mut cfc_nn::Workspace, &mut [cfc_nn::Workspace]),
    dec: &mut DecodeScratch,
    out: D,
) -> Result<D::Out, CfcError> {
    // one slice per task for a 3-D block, so only the slices the anchors
    // were cut to; a 2-D block is one plane
    let diffs = model.predict_on(anchors, nn, helpers);
    let predictor = CrossFieldHybridPredictor::from_planes(diffs, container.eb, hybrid.clone());
    out.decode(container, &predictor, rows, dec)
}

/// Where a block decode puts its samples: into a slab of a buffer
/// allocated before the decode (`&mut [f32]`: an epoch decode's field
/// buffer; the slab's shape out), or into a [`Field`] of its own,
/// allocated once the stream has decoded ([`Own`]).
pub(crate) trait Dest {
    type Out;

    /// The leading `rows` axis-0 rows of `container` under `predictor`.
    fn decode(
        self,
        container: &Container,
        predictor: &dyn Predictor,
        rows: usize,
        dec: &mut DecodeScratch,
    ) -> Result<Self::Out, CfcError>;

    /// A block another decode made whole (a v1 target's stream).
    fn whole(self, block: Field) -> Result<Self::Out, CfcError>;
}

impl Dest for &mut [f32] {
    type Out = Shape;

    fn decode(
        self,
        container: &Container,
        predictor: &dyn Predictor,
        rows: usize,
        dec: &mut DecodeScratch,
    ) -> Result<Shape, CfcError> {
        // the bound is irrelevant on decode (streams carry their own)
        SzCompressor::baseline(1e-3).decompress_rows_into(container, predictor, rows, dec, self)
    }

    fn whole(self, block: Field) -> Result<Shape, CfcError> {
        if block.len() != self.len() {
            return Err(CfcError::ShapeMismatch {
                expected: format!("a slab of {} samples", self.len()),
                found: block.shape().to_string(),
            });
        }
        self.copy_from_slice(block.as_slice());
        Ok(block.shape())
    }
}

/// A block decoded into a [`Field`] of its own.
pub(crate) struct Own;

impl Dest for Own {
    type Out = Field;

    fn decode(
        self,
        container: &Container,
        predictor: &dyn Predictor,
        rows: usize,
        dec: &mut DecodeScratch,
    ) -> Result<Field, CfcError> {
        SzCompressor::baseline(1e-3).decompress_rows_with(container, predictor, rows, dec)
    }

    fn whole(self, block: Field) -> Result<Field, CfcError> {
        Ok(block)
    }
}

/// Cross-field enhanced error-bounded compressor.
#[derive(Debug, Clone, Copy)]
pub struct CrossFieldCompressor {
    /// Error-bound mode (the paper sweeps relative bounds 5e-3 … 2e-4).
    pub bound: ErrorBound,
    /// Residual quantizer.
    pub quantizer: QuantizerConfig,
    /// Hybrid-model fitting configuration.
    pub hybrid: HybridConfig,
}

impl CrossFieldCompressor {
    /// Default configuration at a relative error bound.
    pub fn new(rel_eb: f64) -> Self {
        CrossFieldCompressor {
            bound: ErrorBound::Relative(rel_eb),
            quantizer: QuantizerConfig::default(),
            hybrid: HybridConfig::default(),
        }
    }

    /// The equivalent baseline (used for anchors and comparisons).
    pub fn baseline(&self) -> SzCompressor {
        SzCompressor {
            bound: self.bound,
            quantizer: self.quantizer,
            predictor: cfc_sz::compressor::PredictorKind::Lorenzo,
        }
    }

    /// Round-trip a field through the baseline compressor (what the decoder
    /// will have for each anchor).
    pub fn roundtrip_anchor(&self, anchor: &Field) -> Result<Field, CfcError> {
        let baseline = self.baseline();
        baseline.decompress(&baseline.compress(anchor)?.bytes)
    }

    /// [`CrossFieldCompressor::compress`] stopped before the residual
    /// stage: the target's [`TargetFit`] as one block, the whole field.
    ///
    /// Fails with [`CfcError::InvalidInput`] when the anchors disagree with
    /// the target shape or the trained model's channel layout.
    pub fn fit(
        &self,
        trained: &TrainedCfnn,
        target: &Field,
        anchors_dec: &[&Field],
    ) -> Result<TargetFit, CfcError> {
        let shape = target.shape();
        let ndim = shape.ndim();
        if anchors_dec.iter().any(|a| a.shape() != shape) {
            return Err(CfcError::InvalidInput(format!(
                "anchor shapes must match target shape {shape}"
            )));
        }
        if trained.input_norms.len() != anchors_dec.len() * ndim {
            return Err(CfcError::InvalidInput(format!(
                "model expects {} input channels, {} anchors × {ndim} axes provide {}",
                trained.input_norms.len(),
                anchors_dec.len(),
                anchors_dec.len() * ndim
            )));
        }
        // quantize at the ULP-guarded bound (see
        // `ErrorBound::try_resolve_quantization`)
        let eb = self
            .bound
            .try_resolve_quantization(&FieldStats::of(target))?;
        let whole = [(0, shape.dims()[0])];
        let model = serialize_model(trained);
        TargetFit::new(model, target, eb, anchors_dec, &whole, &self.hybrid, 1)
    }

    /// Compress `target` using a trained CFNN and the decompressed anchors.
    ///
    /// Fails with [`CfcError::InvalidInput`] when the anchors disagree with
    /// the target shape or the trained model's channel layout.
    pub fn compress(
        &self,
        trained: &TrainedCfnn,
        target: &Field,
        anchors_dec: &[&Field],
    ) -> Result<CrossFieldStream, CfcError> {
        let fit = self.fit(trained, target, anchors_dec)?;
        let (mut container, n_outliers) = self.baseline().compress_lattice_with(
            &fit.lattice,
            &fit.predictor(0),
            fit.eb,
            &mut EncodeScratch::new(),
        );
        let model_bytes = fit.model.len();
        container.push(SectionTag::Model, fit.model);
        container.push(SectionTag::HybridWeights, fit.hybrid.serialize());

        Ok(CrossFieldStream {
            bytes: container.to_bytes(),
            // the stream reports the user-facing bound, not the one it
            // quantized at
            eb_abs: self.bound.try_resolve(&FieldStats::of(target))?,
            model_bytes,
            hybrid: fit.hybrid,
            n_outliers,
        })
    }

    /// Decompress a cross-field stream given the same decompressed anchors.
    ///
    /// Total over arbitrary bytes: header, model, hybrid weights, and
    /// residual corruption — plus anchors that disagree with the embedded
    /// model — all return `Err`.
    pub fn decompress(&self, bytes: &[u8], anchors_dec: &[&Field]) -> Result<Field, CfcError> {
        let container = Container::try_from_bytes(bytes)?;
        let shape = container.shape;
        let model = deserialize_model(container.require_section(SectionTag::Model)?)?;
        let hybrid =
            HybridModel::try_deserialize(container.require_section(SectionTag::HybridWeights)?)?;
        check_model_fits(&model, &hybrid, anchors_dec.len(), shape.ndim())?;
        if anchors_dec.iter().any(|a| a.shape() != shape) {
            return Err(CfcError::ShapeMismatch {
                expected: shape.to_string(),
                found: "anchor with a different shape".into(),
            });
        }
        decode_target_rows(
            &container,
            &model,
            &hybrid,
            anchors_dec,
            usize::MAX,
            (&mut cfc_nn::Workspace::default(), &mut []),
            &mut DecodeScratch::new(),
            Own,
        )
    }
}

/// A compressed cross-field stream with evaluation bookkeeping.
#[derive(Debug, Clone)]
pub struct CrossFieldStream {
    /// Serialized container (model included).
    pub bytes: Vec<u8>,
    /// Absolute error bound applied.
    pub eb_abs: f64,
    /// Bytes spent on the embedded CFNN + normalizers.
    pub model_bytes: usize,
    /// The fitted hybrid model (weights are reported in the paper's §IV-B).
    pub hybrid: HybridModel,
    /// Escaped samples.
    pub n_outliers: usize,
}

impl CrossFieldStream {
    /// Compression ratio against `f32` input: `4·n_samples / stream bytes`
    /// (dimensionless). Returns `0.0` when `n_samples == 0` instead of
    /// dividing by zero.
    pub fn ratio(&self, n_samples: usize) -> f64 {
        if n_samples == 0 || self.bytes.is_empty() {
            return 0.0;
        }
        (n_samples * 4) as f64 / self.bytes.len() as f64
    }

    /// Bit rate in **bits per sample** against `f32` input (raw data is 32
    /// bits/sample). Returns `0.0` when `n_samples == 0`.
    pub fn bit_rate(&self, n_samples: usize) -> f64 {
        if n_samples == 0 {
            return 0.0;
        }
        self.bytes.len() as f64 * 8.0 / n_samples as f64
    }
}

/// Model section layout: in channels, out channels, `feat1`, `feat2`,
/// attention reduction (5×u32) | input norms | target norms | net.
/// Crate-visible: the chunked archive stores one copy per target field (in
/// the field's meta area) instead of one per stream.
pub(crate) fn serialize_model(trained: &TrainedCfnn) -> Vec<u8> {
    let mut out = Vec::new();
    out.put_u32_le(trained.input_norms.len() as u32);
    out.put_u32_le(trained.target_norms.len() as u32);
    out.put_u32_le(trained.spec.feat1 as u32);
    out.put_u32_le(trained.spec.feat2 as u32);
    out.put_u32_le(ATTENTION_REDUCTION as u32);
    put_norms(&mut out, &trained.input_norms);
    put_norms(&mut out, &trained.target_norms);
    let net = trained.net.serialize();
    out.put_u64_le(net.len() as u64);
    out.extend_from_slice(&net);
    out
}

/// A model's channel counts, and the arity of the hybrid that mixes its
/// outputs with Lorenzo, against the anchors and dimensionality they are
/// about to be run on.
pub(crate) fn check_model_fits(
    model: &CfnnInference,
    hybrid: &HybridModel,
    n_anchors: usize,
    ndim: usize,
) -> Result<(), CfcError> {
    if model.in_channels() != n_anchors * ndim {
        return Err(CfcError::ShapeMismatch {
            expected: format!("{} input channels", model.in_channels()),
            found: format!("{n_anchors} anchors × {ndim} axes"),
        });
    }
    if model.out_channels() != ndim {
        return Err(CfcError::Corrupt {
            context: "embedded model",
            detail: format!("{} output channels for {ndim}-D data", model.out_channels()),
        });
    }
    if hybrid.arity() != ndim + 1 {
        return Err(CfcError::Corrupt {
            context: "hybrid weights",
            detail: format!(
                "arity {} for a {ndim}-D cross-field target (expected {})",
                hybrid.arity(),
                ndim + 1
            ),
        });
    }
    Ok(())
}

/// Fallible inverse of [`serialize_model`] for untrusted bytes, straight to
/// the inference-only form: validates the spec, normalizer counts, and —
/// critically — that the embedded network's layers chain with compatible
/// channel counts from the header's in channels to its out channels, so
/// inference cannot hit a shape assert later.
pub(crate) fn deserialize_model(buf: &[u8]) -> Result<CfnnInference, CfcError> {
    let corrupt = |detail: String| CfcError::Corrupt {
        context: "embedded model",
        detail,
    };
    let mut r = Reader::new(buf);
    let dim = |r: &mut Reader, what: &'static str| -> Result<usize, CfcError> {
        let v = r.u32(what)? as usize;
        // channel counts, and the attention reduction, which is 8
        if v == 0 || v > MAX_CHANNELS {
            return Err(corrupt(format!("{what} {v} outside 1..={MAX_CHANNELS}")));
        }
        Ok(v)
    };
    let in_channels = dim(&mut r, "model in_channels")?;
    let out_channels = dim(&mut r, "model out_channels")?;
    // the layers themselves carry these; only their range is checked
    for what in ["model feat1", "model feat2", "model reduction"] {
        dim(&mut r, what)?;
    }
    let input_norms = get_norms(&mut r)?;
    let target_norms = get_norms(&mut r)?;
    if input_norms.len() != in_channels {
        return Err(corrupt(format!(
            "{} input normalizers for {in_channels} channels",
            input_norms.len()
        )));
    }
    if target_norms.len() != out_channels {
        return Err(corrupt(format!(
            "{} target normalizers for {out_channels} channels",
            target_norms.len()
        )));
    }
    if input_norms
        .iter()
        .chain(&target_norms)
        .any(|n| !n.shift.is_finite() || !n.scale.is_finite())
    {
        return Err(corrupt("non-finite normalizer".into()));
    }
    let net_len = r.len_u64("model net length")?;
    let net_bytes = r.bytes(net_len, "model net")?;
    let net = cfc_nn::Sequential::try_deserialize(net_bytes)
        .map_err(|e| corrupt(format!("network: {e}")))?;
    CfnnInference::new(&net, input_norms, target_norms).map_err(corrupt)
}

fn put_norms(out: &mut Vec<u8>, norms: &[Normalizer]) {
    out.put_u16_le(norms.len() as u16);
    for n in norms {
        out.put_f32_le(n.shift);
        out.put_f32_le(n.scale);
    }
}

fn get_norms(r: &mut Reader) -> Result<Vec<Normalizer>, CfcError> {
    let n = r.u16("normalizer count")? as usize;
    (0..n)
        .map(|_| {
            Ok(Normalizer {
                shift: r.f32("normalizer shift")?,
                scale: r.f32("normalizer scale")?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tests::NARROW;
    use crate::config::TrainConfig;
    use crate::train::train_cfnn;
    use cfc_tensor::Shape;

    /// Strongly coupled 2-D pair: target differences are a fixed nonlinear
    /// but smooth function of the anchor.
    fn coupled_2d(rows: usize, cols: usize) -> (Field, Field) {
        let anchor = Field::from_fn(Shape::d2(rows, cols), |i| {
            ((i[0] as f32) * 0.11).sin() * 20.0 + ((i[1] as f32) * 0.07).cos() * 12.0
        });
        let target = anchor.map(|v| 0.9 * v + 0.002 * v * v + 5.0);
        (anchor, target)
    }

    fn check_bound(orig: &Field, dec: &Field, eb: f64) {
        for (a, b) in orig.as_slice().iter().zip(dec.as_slice()) {
            assert!(
                ((a - b).abs() as f64) <= eb * (1.0 + 1e-9),
                "bound violated: |{a} − {b}| > {eb}"
            );
        }
    }

    #[test]
    fn roundtrip_respects_error_bound_2d() {
        let (anchor, target) = coupled_2d(48, 48);
        let comp = CrossFieldCompressor::new(1e-3);
        let anchor_dec = comp.roundtrip_anchor(&anchor).unwrap();
        let trained = train_cfnn(&NARROW, &TrainConfig::fast(), &[&anchor], &target);
        let stream = comp.compress(&trained, &target, &[&anchor_dec]).unwrap();
        let dec = comp.decompress(&stream.bytes, &[&anchor_dec]).unwrap();
        check_bound(&target, &dec, stream.eb_abs);
    }

    #[test]
    fn roundtrip_respects_error_bound_3d() {
        let shape = Shape::d3(6, 24, 24);
        let anchor = Field::from_fn(shape, |i| {
            (i[0] as f32) * 0.4
                + ((i[1] as f32) * 0.2).sin() * 6.0
                + ((i[2] as f32) * 0.15).cos() * 4.0
        });
        let target = anchor.map(|v| 1.3 * v - 2.0);
        let comp = CrossFieldCompressor::new(1e-3);
        let anchor_dec = comp.roundtrip_anchor(&anchor).unwrap();
        let cfg = TrainConfig {
            patch: 10,
            n_patches: 40,
            batch: 10,
            epochs: 6,
            lr: 4e-3,
            seed: 3,
        };
        let trained = train_cfnn(&NARROW, &cfg, &[&anchor], &target);
        let stream = comp.compress(&trained, &target, &[&anchor_dec]).unwrap();
        let dec = comp.decompress(&stream.bytes, &[&anchor_dec]).unwrap();
        check_bound(&target, &dec, stream.eb_abs);
    }

    #[test]
    fn decoder_is_bit_identical_to_encoder_reconstruction() {
        // both sides must land on the exact same lattice
        let (anchor, target) = coupled_2d(40, 40);
        let comp = CrossFieldCompressor::new(5e-4);
        let anchor_dec = comp.roundtrip_anchor(&anchor).unwrap();
        let trained = train_cfnn(&NARROW, &TrainConfig::fast(), &[&anchor], &target);
        let stream = comp.compress(&trained, &target, &[&anchor_dec]).unwrap();
        let a = comp.decompress(&stream.bytes, &[&anchor_dec]).unwrap();
        let b = comp.decompress(&stream.bytes, &[&anchor_dec]).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn model_bytes_are_accounted() {
        let (anchor, target) = coupled_2d(32, 32);
        let comp = CrossFieldCompressor::new(1e-3);
        let anchor_dec = comp.roundtrip_anchor(&anchor).unwrap();
        let trained = train_cfnn(&NARROW, &TrainConfig::fast(), &[&anchor], &target);
        let stream = comp.compress(&trained, &target, &[&anchor_dec]).unwrap();
        assert!(stream.model_bytes > 0);
        assert!(stream.bytes.len() > stream.model_bytes);
        // model ≈ 4 bytes/param + arch overhead
        let params = crate::diffnet::build_cfnn(&NARROW, 1, 2, 0).num_params();
        assert!(stream.model_bytes >= params * 4);
        assert!(stream.model_bytes < params * 5 + 1024);
    }

    #[test]
    fn hybrid_weights_sum_to_one() {
        let (anchor, target) = coupled_2d(32, 32);
        let comp = CrossFieldCompressor::new(1e-3);
        let anchor_dec = comp.roundtrip_anchor(&anchor).unwrap();
        let trained = train_cfnn(&NARROW, &TrainConfig::fast(), &[&anchor], &target);
        let stream = comp.compress(&trained, &target, &[&anchor_dec]).unwrap();
        let sum: f64 = stream.hybrid.weights.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "weights {:?}",
            stream.hybrid.weights
        );
    }

    #[test]
    fn wrong_anchor_count_is_an_error_not_a_panic() {
        let (anchor, target) = coupled_2d(32, 32);
        let comp = CrossFieldCompressor::new(1e-3);
        let anchor_dec = comp.roundtrip_anchor(&anchor).unwrap();
        let trained = train_cfnn(&NARROW, &TrainConfig::fast(), &[&anchor], &target);
        let two = [&anchor_dec, &anchor_dec];
        // the write side: a model trained on one anchor, given two
        let res = comp.compress(&trained, &target, &two);
        assert!(
            matches!(res, Err(CfcError::InvalidInput(_))),
            "{:?}",
            res.err()
        );
        let stream = comp.compress(&trained, &target, &[&anchor_dec]).unwrap();
        let res = comp.decompress(&stream.bytes, &two);
        assert!(
            matches!(res, Err(CfcError::ShapeMismatch { .. })),
            "{res:?}"
        );
    }

    #[test]
    fn a_model_with_a_non_finite_weight_stops_the_writer() {
        // a diverged training run: the model the writer would ship is one
        // the reader refuses, so the fit that parses it fails first
        let (anchor, target) = coupled_2d(24, 24);
        let untrained = TrainConfig {
            epochs: 0,
            ..TrainConfig::fast()
        };
        for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut trained = train_cfnn(&NARROW, &untrained, &[&anchor], &target);
            trained.net.params()[0].values[0] = v;
            let fit = TargetFit::new(
                serialize_model(&trained),
                &target,
                1e-3,
                &[&anchor],
                &[(0, 24)],
                &HybridConfig::default(),
                1,
            );
            match fit {
                Err(CfcError::Corrupt { context, detail }) => {
                    assert_eq!(context, "embedded model");
                    assert!(detail.contains(&v.to_string()), "{detail}");
                }
                Err(e) => panic!("{v}: {e:?}"),
                Ok(_) => panic!("{v}: a non-finite weight was fitted"),
            }
        }
    }

    #[test]
    fn corrupt_model_section_is_an_error() {
        let (anchor, target) = coupled_2d(32, 32);
        let comp = CrossFieldCompressor::new(1e-3);
        let anchor_dec = comp.roundtrip_anchor(&anchor).unwrap();
        let trained = train_cfnn(&NARROW, &TrainConfig::fast(), &[&anchor], &target);
        let stream = comp.compress(&trained, &target, &[&anchor_dec]).unwrap();
        // find and corrupt bytes inside the model section payload
        let len = stream.bytes.len();
        for cut in [len / 2, len - stream.model_bytes / 2] {
            let mut bad = stream.bytes.clone();
            bad[cut] ^= 0xFF;
            let res = comp.decompress(&bad, &[&anchor_dec]);
            // either a detected corruption or (rarely) a benign flip — but
            // never a panic
            let _ = res;
        }
    }
}
