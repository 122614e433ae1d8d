//! The cross-field hybrid predictor: a causal [`cfc_sz::Predictor`] that
//! fuses Lorenzo with CFNN-predicted backward differences (paper §III-C),
//! and its temporal counterpart for delta epochs. Both run on row kernels
//! (SZ3's split of a predictor into a row stage and the per-point model it
//! is held to); `predict` is each one's per-point specification, and the
//! candidate rules below are the one place each float order is written.

use std::borrow::Cow;
use std::convert::Infallible;

use cfc_sz::predict::ResidualStream;
use cfc_sz::{CfcError, Predictor, QuantLattice, QuantizerConfig};
use cfc_tensor::{Field, Shape};

use crate::hybrid::HybridModel;

/// The cross-field candidates at `idx` (Lorenzo first, then one per axis)
/// of a `dims` grid, given its samples `q` by multi-index (zero padding
/// outside the grid) and the CFNN difference along an axis `dq` by offset,
/// both in one unit. The order of the float operations here — `(a + b) − c`
/// and its seven-term 3-D form, `neighbour + dq` per axis — is the contract
/// the row kernels of [`CrossFieldHybridPredictor`] reproduce; the hybrid
/// fit samples it on the lattice, and Figure 6's one-step predictions
/// (`crate::predict`) take it on the original field.
#[inline]
pub(crate) fn cross_field_candidates(
    dims: &[usize],
    q: impl Fn(&[isize]) -> f64,
    dq: impl Fn(usize, usize) -> f64,
    idx: &[usize],
    out: &mut [f64],
) {
    match *idx {
        [i, j] => {
            let (ii, jj) = (i as isize, j as isize);
            let a = q(&[ii - 1, jj]);
            let b = q(&[ii, jj - 1]);
            let c = q(&[ii - 1, jj - 1]);
            let off = i * dims[1] + j;
            out[0] = a + b - c; // Lorenzo
            out[1] = a + dq(0, off); // axis-0 difference
            out[2] = b + dq(1, off); // axis-1 difference
        }
        [k, i, j] => {
            let (kk, ii, jj) = (k as isize, i as isize, j as isize);
            let pk = q(&[kk - 1, ii, jj]);
            let pi = q(&[kk, ii - 1, jj]);
            let pj = q(&[kk, ii, jj - 1]);
            let lorenzo = pk + pi + pj
                - q(&[kk - 1, ii - 1, jj])
                - q(&[kk - 1, ii, jj - 1])
                - q(&[kk, ii - 1, jj - 1])
                + q(&[kk - 1, ii - 1, jj - 1]);
            let off = (k * dims[1] + i) * dims[2] + j;
            out[0] = lorenzo;
            out[1] = pk + dq(0, off);
            out[2] = pi + dq(1, off);
            out[3] = pj + dq(2, off);
        }
        _ => unreachable!("cross-field prediction is 2-D/3-D"),
    }
}

/// A lattice's samples as `f64` by multi-index, zero outside it: the `q`
/// of [`cross_field_candidates`].
fn lattice_f64(lattice: &QuantLattice) -> impl Fn(&[isize]) -> f64 + '_ {
    move |at| match *at {
        [i, j] => lattice.get2(i, j) as f64,
        [k, i, j] => lattice.get3(k, i, j) as f64,
        _ => unreachable!("cross-field prediction is 2-D/3-D"),
    }
}

/// Causal hybrid predictor over the prequantized lattice.
///
/// The CFNN-predicted backward difference along each axis is converted to
/// lattice units (`value / (2·eb)`) where a prediction needs it; both sides
/// compute it from the *decompressed* anchors, so predictions agree
/// exactly. [`new`](Self::new) copies the planes; the writer lends its
/// fit's and a reader hands its inference over, so no target path copies
/// one.
///
/// The float-order contract is the temporal hybrid's (see
/// [`TemporalHybridPredictor`]): [`cross_field_candidates`] then
/// [`HybridModel::combine`] (`0.0 + w₀·l + w₁·c₁ + …`), then `f64::round`,
/// then a saturating `as i64`. [`Predictor::predict`] spells it out per
/// point and is the oracle; the bulk methods are row kernels held to it bit
/// for bit (`tests/cross_field_kernel.rs`).
pub struct CrossFieldHybridPredictor<'a> {
    /// `diffs[axis]`: the predicted backward differences, physical units.
    diffs: Cow<'a, [Field]>,
    /// The lattice step, `2·eb`.
    step: f64,
    model: HybridModel,
}

impl<'a> CrossFieldHybridPredictor<'a> {
    /// Build from predicted difference fields (physical units) and the
    /// absolute error bound of the target stream, on a copy of the fields.
    pub fn new(predicted_diffs: &[Field], eb: f64, model: HybridModel) -> Self {
        Self::from_planes(predicted_diffs.to_vec(), eb, model)
    }

    /// [`new`](Self::new) on planes handed over by value or lent.
    pub(crate) fn from_planes(
        predicted_diffs: impl Into<Cow<'a, [Field]>>,
        eb: f64,
        model: HybridModel,
    ) -> Self {
        let diffs = predicted_diffs.into();
        let ndim = diffs.len();
        assert!(ndim == 2 || ndim == 3);
        assert_eq!(model.arity(), ndim + 1, "hybrid arity must be ndim+1");
        CrossFieldHybridPredictor {
            diffs,
            step: 2.0 * eb,
            model,
        }
    }

    /// The predicted difference along `axis` at `off`, in lattice units.
    #[inline]
    fn dq(&self, axis: usize, off: usize) -> f64 {
        self.diffs[axis].as_slice()[off] as f64 / self.step
    }
}

impl Predictor for CrossFieldHybridPredictor<'_> {
    #[inline]
    fn predict(&self, lattice: &QuantLattice, idx: &[usize]) -> i64 {
        let arity = self.model.arity();
        let mut preds = [0.0f64; 4];
        cross_field_candidates(
            lattice.shape().dims(),
            lattice_f64(lattice),
            |axis, off| self.dq(axis, off),
            idx,
            &mut preds[..arity],
        );
        self.model.combine(&preds[..arity]).round() as i64
    }

    fn residuals_into(&self, lattice: &QuantLattice, out: &mut Vec<i64>) {
        residuals_by_rows(CrossFieldRows::new(self, lattice.shape()), lattice, out)
    }

    fn reconstruct_into(
        &self,
        shape: Shape,
        codes: &[u32],
        outliers: &[i64],
        quant: &QuantizerConfig,
        out: &mut Vec<i64>,
    ) -> Result<(), CfcError> {
        let rows = CrossFieldRows::new(self, shape);
        reconstruct_by_rows(rows, shape, codes, outliers, quant, out)
    }
}

/// The row-at-a-time walk behind both bulk methods of
/// [`CrossFieldHybridPredictor`]: the [`LatticeRows`], and the walked row
/// of each CFNN plane in lattice units, converted a row at a time with the
/// expression [`predict`](Predictor::predict) uses.
struct CrossFieldRows<'p> {
    planes: &'p [Field],
    step: f64,
    /// The hybrid weights, Lorenzo first; a 2-D walk uses three.
    weights: [f64; 4],
    lattice: LatticeRows,
    dq: [Vec<f64>; 3],
}

impl<'p> CrossFieldRows<'p> {
    /// A walk over a lattice of `shape`, which may have fewer axis-0 rows
    /// than the CFNN planes (a decode of a block's leading rows).
    fn new(predictor: &'p CrossFieldHybridPredictor<'_>, shape: Shape) -> Self {
        let lattice = LatticeRows::new(shape);
        let mut weights = [0.0f64; 4];
        weights[..predictor.model.arity()].copy_from_slice(&predictor.model.weights);
        CrossFieldRows {
            planes: &predictor.diffs,
            step: predictor.step,
            weights,
            dq: std::array::from_fn(|_| vec![0.0f64; lattice.n2]),
            lattice,
        }
    }
}

impl RowWalk for CrossFieldRows<'_> {
    fn row_len(&self) -> usize {
        self.lattice.n2
    }

    #[inline]
    fn walk<E>(
        &mut self,
        r: usize,
        done: &[i64],
        mut value_at: impl FnMut(usize, i64) -> Result<i64, E>,
    ) -> Result<(), E> {
        self.lattice.advance(r, done);
        let n2 = self.lattice.n2;
        let step = self.step;
        for (row, plane) in self.dq.iter_mut().zip(self.planes) {
            for (o, &v) in row.iter_mut().zip(&plane.as_slice()[r * n2..][..n2]) {
                *o = v as f64 / step;
            }
        }
        let [qc, qi, qk, qa] = &mut self.lattice.q;
        let [d0, d1, d2] = &self.dq;
        let [w0, w1, w2, w3] = self.weights;
        // the one in-row dependency: the left neighbour, zero at column −1
        let mut left = 0.0f64;
        if self.lattice.three_d {
            for j in 0..n2 {
                let (pk, pi) = (qk[j + 1], qi[j + 1]);
                // float operations in exactly `cross_field_candidates` order
                let lorenzo = pk + pi + left - qa[j + 1] - qk[j] - qi[j] + qa[j];
                let (c0, c1, c2) = (pk + d0[j], pi + d1[j], left + d2[j]);
                // … and in `HybridModel::combine` order
                let mix = 0.0 + w0 * lorenzo + w1 * c0 + w2 * c1 + w3 * c2;
                left = value_at(j, round_to_i64(mix))? as f64;
                qc[j + 1] = left;
            }
        } else {
            for j in 0..n2 {
                let a = qi[j + 1];
                let lorenzo = a + left - qi[j];
                let (c0, c1) = (a + d0[j], left + d1[j]);
                let mix = 0.0 + w0 * lorenzo + w1 * c0 + w2 * c1;
                left = value_at(j, round_to_i64(mix))? as f64;
                qc[j + 1] = left;
            }
        }
        Ok(())
    }
}

/// Arity of the temporal hybrid: Lorenzo, previous-epoch value, and the
/// temporally-corrected Lorenzo, independent of dimensionality.
pub const TEMPORAL_ARITY: usize = 3;

/// The temporal candidates at `idx` (see [`TemporalHybridPredictor`]),
/// given the previous epoch `pq` by offset in *current* lattice units;
/// `out` holds [`TEMPORAL_ARITY`] slots. The order of the float operations
/// here — `(a + b) − c` and its seven-term 3-D form, `p + (lorenzo −
/// p_lorenzo)` — is the contract the row kernels of
/// [`TemporalHybridPredictor`] reproduce.
#[inline]
fn temporal_candidates(
    lattice: &QuantLattice,
    pq: impl Fn(usize) -> f64,
    idx: &[usize],
    out: &mut [f64],
) {
    let shape = lattice.shape();
    let dims = shape.dims();
    // zero-padded lookup into the fully-known previous-epoch plane
    let pq_at = |coords: &[isize]| -> f64 {
        let mut off = 0usize;
        for (k, &c) in coords.iter().enumerate() {
            if c < 0 || c as usize >= dims[k] {
                return 0.0;
            }
            off = off * dims[k] + c as usize;
        }
        pq(off)
    };
    match *idx {
        [i, j] => {
            let (ii, jj) = (i as isize, j as isize);
            let lorenzo = lattice.get2(ii - 1, jj) as f64 + lattice.get2(ii, jj - 1) as f64
                - lattice.get2(ii - 1, jj - 1) as f64;
            let p = pq_at(&[ii, jj]);
            let p_lorenzo = pq_at(&[ii - 1, jj]) + pq_at(&[ii, jj - 1]) - pq_at(&[ii - 1, jj - 1]);
            out[0] = lorenzo;
            out[1] = p;
            // spatial Lorenzo of the *increment*: exact for any increment
            // that is locally affine, and exactly `p` for a static field
            out[2] = p + (lorenzo - p_lorenzo);
        }
        [k, i, j] => {
            let (kk, ii, jj) = (k as isize, i as isize, j as isize);
            let lorenzo = lattice.get3(kk - 1, ii, jj) as f64
                + lattice.get3(kk, ii - 1, jj) as f64
                + lattice.get3(kk, ii, jj - 1) as f64
                - lattice.get3(kk - 1, ii - 1, jj) as f64
                - lattice.get3(kk - 1, ii, jj - 1) as f64
                - lattice.get3(kk, ii - 1, jj - 1) as f64
                + lattice.get3(kk - 1, ii - 1, jj - 1) as f64;
            let p = pq_at(&[kk, ii, jj]);
            let p_lorenzo =
                pq_at(&[kk - 1, ii, jj]) + pq_at(&[kk, ii - 1, jj]) + pq_at(&[kk, ii, jj - 1])
                    - pq_at(&[kk - 1, ii - 1, jj])
                    - pq_at(&[kk - 1, ii, jj - 1])
                    - pq_at(&[kk, ii - 1, jj - 1])
                    + pq_at(&[kk - 1, ii - 1, jj - 1]);
            out[0] = lorenzo;
            out[1] = p;
            out[2] = p + (lorenzo - p_lorenzo);
        }
        _ => unreachable!("temporal prediction is 2-D/3-D"),
    }
}

/// `x.round() as i64`, inline. `f64::round` (half away from zero) is a
/// libm call on the baseline x86-64 target, and it sits on the decoder's
/// critical path: sample `j + 1` cannot be predicted before sample `j` is
/// rounded. Below 2⁵² the truncation `x as i64` is exact and so is the
/// fraction `x − trunc(x)`, so comparing it with ±0.5 decides the rounding
/// exactly; from 2⁵² on every `f64` is already an integer, and those, NaN
/// and ±∞ go through the same saturating `as` the rounded value would.
#[inline(always)]
fn round_to_i64(x: f64) -> i64 {
    const ALL_INTEGERS_FROM: f64 = (1u64 << 52) as f64;
    if x.abs() < ALL_INTEGERS_FROM {
        let whole = x as i64;
        let frac = x - whole as f64;
        whole + i64::from(frac >= 0.5) - i64::from(frac <= -0.5)
    } else {
        // NaN compares false and lands here too
        x as i64
    }
}

/// Causal temporal hybrid predictor for delta epochs.
///
/// Candidates per point (mixed by a fitted [`HybridModel`] of arity
/// [`TEMPORAL_ARITY`]):
///
/// 1. **Lorenzo** over the current lattice — ignores the previous epoch
///    entirely (best when the field decorrelated);
/// 2. **previous value** — the same point of the previous epoch's decoded
///    slab, converted to current lattice units (best for static or
///    noise-dominated content: one quantization error, not three);
/// 3. **temporal Lorenzo** — previous value plus the spatial Lorenzo
///    residual of the increment plane (exact when the epoch-to-epoch
///    increment is locally affine, e.g. smooth advection).
///
/// Both sides convert the *decoded* previous epoch to lattice units with
/// the same expression, so encoder and decoder predictions agree exactly.
///
/// ## The float-order contract
///
/// A prediction is a handful of `f64` operations rounded to the lattice,
/// and encoder and decoder — possibly different builds on different
/// machines — must round the same way, so the order of those operations is
/// part of the format: [`temporal_candidates`] then
/// [`HybridModel::combine`] (`0.0 + w₀·l + w₁·p + w₂·t`), then
/// `f64::round`, then a saturating `as i64`. [`Predictor::predict`] spells
/// that out per point and is the oracle (and what
/// [`sample_temporal_training`] samples). The bulk methods are row kernels
/// held to it bit for bit (`tests/temporal_kernel.rs`): they keep the
/// neighbouring rows as `f64`, converted once, so that only the
/// left-neighbour recurrence is left in the inner loop — but they may not
/// reassociate, fuse a multiply-add, or round differently (`round_to_i64`).
pub struct TemporalHybridPredictor<'a> {
    /// The shape of the previous epoch's decoded slab, and its samples in
    /// physical units: a row is converted to lattice units (`v / step`)
    /// when a prediction needs it.
    shape: Shape,
    prev: Cow<'a, [f32]>,
    /// The lattice step, `2·eb`.
    step: f64,
    model: HybridModel,
}

impl<'a> TemporalHybridPredictor<'a> {
    /// Build from the previous epoch's decoded slab (physical units) and
    /// the absolute error bound of the current block's lattice, on a copy
    /// of the slab.
    pub fn new(prev_slab: &Field, eb: f64, model: HybridModel) -> Self {
        let prev = Cow::Owned(prev_slab.as_slice().to_vec());
        Self::from_slab(prev_slab.shape(), prev, eb, model)
    }

    /// [`new`](Self::new) on the samples of a slab of `shape`, lent or
    /// handed over: the writer lends each block's rows of the previous
    /// epoch, a reader its decoded slab.
    pub(crate) fn from_slab(
        shape: Shape,
        prev: Cow<'a, [f32]>,
        eb: f64,
        model: HybridModel,
    ) -> Self {
        let ndim = shape.ndim();
        assert!(ndim == 2 || ndim == 3);
        assert_eq!(prev.len(), shape.len(), "previous slab size");
        assert_eq!(
            model.arity(),
            TEMPORAL_ARITY,
            "temporal hybrid arity is fixed"
        );
        TemporalHybridPredictor {
            shape,
            prev,
            step: 2.0 * eb,
            model,
        }
    }

    /// The previous epoch at `off`, in current lattice units.
    #[inline]
    fn pq(&self, off: usize) -> f64 {
        self.prev[off] as f64 / self.step
    }
}

/// The row-at-a-time walk behind both bulk methods of
/// [`TemporalHybridPredictor`]: the [`LatticeRows`], and the same four
/// rows of the previous epoch in lattice units.
struct TemporalRows<'p> {
    prev: &'p [f32],
    step: f64,
    weights: [f64; TEMPORAL_ARITY],
    lattice: LatticeRows,
    p: [Vec<f64>; 4],
}

impl<'p> TemporalRows<'p> {
    /// A walk over a lattice of `shape`, which may have fewer axis-0 rows
    /// than the previous epoch's slab (a decode of a block's leading rows).
    fn new(predictor: &'p TemporalHybridPredictor<'_>, shape: Shape) -> Self {
        let lattice = LatticeRows::new(shape);
        TemporalRows {
            prev: &predictor.prev,
            step: predictor.step,
            weights: predictor.model.weights[..]
                .try_into()
                .expect("arity checked at construction"),
            p: padded_rows(lattice.n2),
            lattice,
        }
    }
}

impl RowWalk for TemporalRows<'_> {
    fn row_len(&self) -> usize {
        self.lattice.n2
    }

    #[inline]
    fn walk<E>(
        &mut self,
        r: usize,
        done: &[i64],
        mut value_at: impl FnMut(usize, i64) -> Result<i64, E>,
    ) -> Result<(), E> {
        let (n1, n2) = (self.lattice.n1, self.lattice.n2);
        let (k, i) = self.lattice.advance(r, done);
        rotate(&mut self.p, i);
        let (prev, step) = (self.prev, self.step);
        let prev_row = |r: usize, out: &mut [f64]| {
            for (o, &v) in out[1..].iter_mut().zip(&prev[r * n2..][..n2]) {
                *o = v as f64 / step;
            }
        };
        prev_row(r, &mut self.p[0]);
        if k > 0 {
            prev_row(r - n1, &mut self.p[2]);
        }
        let [w0, w1, w2] = self.weights;
        let [qc, qi, qk, qa] = &mut self.lattice.q;
        let [pc, pi, pk, pa] = &self.p;
        // the one in-row dependency: the left neighbour, zero at column −1
        let mut left = 0.0f64;
        for j in 0..n2 {
            // float operations in exactly `temporal_candidates` order
            let (lorenzo, p_lorenzo) = if self.lattice.three_d {
                (
                    qk[j + 1] + qi[j + 1] + left - qa[j + 1] - qk[j] - qi[j] + qa[j],
                    pk[j + 1] + pi[j + 1] + pc[j] - pa[j + 1] - pk[j] - pi[j] + pa[j],
                )
            } else {
                (qi[j + 1] + left - qi[j], pi[j + 1] + pc[j] - pi[j])
            };
            let p = pc[j + 1];
            let t = p + (lorenzo - p_lorenzo);
            // … and in `HybridModel::combine` order
            let value = value_at(j, round_to_i64(0.0 + w0 * lorenzo + w1 * p + w2 * t))?;
            left = value as f64;
            qc[j + 1] = left;
        }
        Ok(())
    }
}

impl Predictor for TemporalHybridPredictor<'_> {
    #[inline]
    fn predict(&self, lattice: &QuantLattice, idx: &[usize]) -> i64 {
        debug_assert_eq!(idx.len(), self.shape.ndim());
        let mut preds = [0.0f64; TEMPORAL_ARITY];
        temporal_candidates(lattice, |off| self.pq(off), idx, &mut preds);
        self.model.combine(&preds).round() as i64
    }

    fn residuals_into(&self, lattice: &QuantLattice, out: &mut Vec<i64>) {
        residuals_by_rows(TemporalRows::new(self, lattice.shape()), lattice, out)
    }

    fn reconstruct_into(
        &self,
        shape: Shape,
        codes: &[u32],
        outliers: &[i64],
        quant: &QuantizerConfig,
        out: &mut Vec<i64>,
    ) -> Result<(), CfcError> {
        let rows = TemporalRows::new(self, shape);
        reconstruct_by_rows(rows, shape, codes, outliers, quant, out)
    }
}

/// Four rows of a lattice-shaped plane as `f64`, each `n2 + 1` long with
/// the zero padding of column −1 in front: `[0]` the row being walked,
/// `[1]` the row before it in its plane (`i − 1`), `[2]` the same row one
/// plane back (`k − 1`), `[3]` that one's predecessor. A row that does not
/// exist is zero padding all the way, so an edge row runs the same
/// operations on the same zeros as the per-point walk.
fn padded_rows(n2: usize) -> [Vec<f64>; 4] {
    std::array::from_fn(|_| vec![0.0f64; n2 + 1])
}

/// Move [`padded_rows`] on to in-plane row `i`: the walked row and its twin
/// one plane back become the rows before them, and at `i == 0` there are
/// none.
#[inline]
fn rotate(rows: &mut [Vec<f64>; 4], i: usize) {
    rows.swap(0, 1);
    rows.swap(2, 3);
    if i == 0 {
        rows[1].fill(0.0);
        rows[3].fill(0.0);
    }
}

/// What both hybrids' row walks share: the geometry, and the lattice's
/// [`padded_rows`], each value converted once, when it is produced (the
/// walked row, by the walk) or passed (the row one plane back, here).
struct LatticeRows {
    three_d: bool,
    /// Rows to a plane (a 2-D lattice is one plane) and samples to a row.
    n1: usize,
    n2: usize,
    q: [Vec<f64>; 4],
}

impl LatticeRows {
    fn new(shape: Shape) -> Self {
        let d = shape.dims();
        let n2 = d[d.len() - 1];
        LatticeRows {
            three_d: d.len() == 3,
            n1: d[d.len() - 2],
            n2,
            q: padded_rows(n2),
        }
    }

    /// Move on to row `r` (counted across planes), given the rows before
    /// it (`done`); returns its plane and its row in the plane, `(k, i)`.
    #[inline]
    fn advance(&mut self, r: usize, done: &[i64]) -> (usize, usize) {
        let (n1, n2) = (self.n1, self.n2);
        let (k, i) = (r / n1, r % n1);
        rotate(&mut self.q, i);
        if k > 0 {
            for (o, &v) in self.q[2][1..].iter_mut().zip(&done[(r - n1) * n2..][..n2]) {
                *o = v as f64;
            }
        }
        (k, i)
    }
}

/// A hybrid's row walk, the one part its two row kernels do not share.
trait RowWalk {
    /// Samples to a row.
    fn row_len(&self) -> usize;

    /// Walk row `r` (counted across planes; call with `r = 0, 1, …`), given
    /// the rows before it (`done`). `value_at(j, prediction)` is handed each
    /// sample's prediction in order and returns the sample's value — which
    /// the encoder knows and the decoder has just read off the stream — or
    /// the error that stops the walk.
    fn walk<E>(
        &mut self,
        r: usize,
        done: &[i64],
        value_at: impl FnMut(usize, i64) -> Result<i64, E>,
    ) -> Result<(), E>;
}

/// [`Predictor::residuals_into`] by rows: with the whole lattice known, a
/// row's predictions depend on nothing the walk produces.
fn residuals_by_rows(mut rows: impl RowWalk, lattice: &QuantLattice, out: &mut Vec<i64>) {
    let data = lattice.as_slice();
    out.clear();
    out.reserve(data.len());
    for (r, cur) in data.chunks_exact(rows.row_len()).enumerate() {
        let Ok(()) = rows.walk(r, data, |j, prediction| {
            out.push(cur[j].wrapping_sub(prediction));
            Ok::<_, Infallible>(cur[j])
        });
    }
}

/// [`Predictor::reconstruct_into`] by rows: the decode-side twin, with the
/// left neighbour the only thing a sample waits for. Codes and outliers are
/// untrusted and read through one [`ResidualStream`], so the walk stops at
/// the first malformed element in scan order with its error.
fn reconstruct_by_rows(
    mut rows: impl RowWalk,
    shape: Shape,
    codes: &[u32],
    outliers: &[i64],
    quant: &QuantizerConfig,
    out: &mut Vec<i64>,
) -> Result<(), CfcError> {
    assert_eq!(codes.len(), shape.len(), "one code per sample");
    out.clear();
    out.resize(shape.len(), 0);
    let n2 = rows.row_len();
    let mut stream = ResidualStream::new(quant, outliers);
    for (r, codes) in codes.chunks_exact(n2).enumerate() {
        let (done, rest) = out.split_at_mut(r * n2);
        let cur = &mut rest[..n2];
        rows.walk(r, done, |j, prediction| {
            cur[j] = stream.value(codes[j], prediction)?;
            Ok(cur[j])
        })?;
    }
    stream.finish()
}

/// The one sampler behind both hybrid fits: `n` deterministic interior
/// points of the true lattice (encoder side), each with the `arity`
/// candidate predictions `candidates` fills in and the value they aim at.
fn sample_training(
    lattice: &QuantLattice,
    arity: usize,
    n: usize,
    seed: u64,
    candidates: impl Fn(&[usize], &mut [f64]),
) -> (Vec<Vec<f64>>, Vec<f64>) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let shape = lattice.shape();
    let dims = shape.dims();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut preds = Vec::with_capacity(n);
    let mut targets = Vec::with_capacity(n);
    for _ in 0..n {
        let idx: Vec<usize> = dims
            .iter()
            .map(|&d| if d > 1 { rng.random_range(1..d) } else { 0 })
            .collect();
        let mut p = vec![0.0f64; arity];
        candidates(&idx, &mut p);
        let off = idx.iter().zip(dims).fold(0, |off, (&i, &d)| off * d + i);
        preds.push(p);
        targets.push(lattice.at(off) as f64);
    }
    (preds, targets)
}

/// Sample temporal-hybrid training data from the true lattice (encoder
/// side): `(candidates, targets)` at `n` deterministic interior
/// points. `pq` is the previous epoch in current lattice units.
pub fn sample_temporal_training(
    lattice: &QuantLattice,
    pq: &[f64],
    n: usize,
    seed: u64,
) -> (Vec<Vec<f64>>, Vec<f64>) {
    sample_temporal_training_by(lattice, |off| pq[off], n, seed)
}

/// [`sample_temporal_training`] over any way of looking the previous epoch
/// up by offset, in current lattice units — the same sample, drawn without
/// a whole-field copy of the previous epoch.
pub(crate) fn sample_temporal_training_by(
    lattice: &QuantLattice,
    pq: impl Fn(usize) -> f64,
    n: usize,
    seed: u64,
) -> (Vec<Vec<f64>>, Vec<f64>) {
    sample_training(lattice, TEMPORAL_ARITY, n, seed, |idx, out| {
        temporal_candidates(lattice, &pq, idx, out)
    })
}

/// Sample hybrid-model training data from the true lattice (encoder side):
/// returns `(candidates, targets)` at `n` deterministic interior
/// points.
pub fn sample_hybrid_training(
    lattice: &QuantLattice,
    dq: &[Vec<f64>],
    n: usize,
    seed: u64,
) -> (Vec<Vec<f64>>, Vec<f64>) {
    sample_hybrid_training_by(lattice, |axis, off| dq[axis][off], n, seed)
}

/// [`sample_hybrid_training`] over any way of looking the predicted
/// difference along an axis up by offset, in lattice units — the same
/// sample, drawn without a whole-field copy of the differences.
pub(crate) fn sample_hybrid_training_by(
    lattice: &QuantLattice,
    dq: impl Fn(usize, usize) -> f64,
    n: usize,
    seed: u64,
) -> (Vec<Vec<f64>>, Vec<f64>) {
    let shape = lattice.shape();
    sample_training(lattice, shape.ndim() + 1, n, seed, |idx, out| {
        cross_field_candidates(shape.dims(), lattice_f64(lattice), &dq, idx, out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfc_sz::{codec, QuantizerConfig};
    use cfc_tensor::Shape;

    fn lattice2(rows: usize, cols: usize, f: impl Fn(usize, usize) -> i64) -> QuantLattice {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        QuantLattice::from_vec(Shape::d2(rows, cols), data)
    }

    fn exact_dq_2d(lat: &QuantLattice) -> Vec<Vec<f64>> {
        // true backward differences of the lattice, in lattice units
        let shape = lat.shape();
        let (rows, cols) = (shape.dims()[0], shape.dims()[1]);
        let mut d0 = vec![0.0f64; rows * cols];
        let mut d1 = vec![0.0f64; rows * cols];
        for i in 0..rows {
            for j in 0..cols {
                let q = lat.get2(i as isize, j as isize) as f64;
                d0[i * cols + j] = q - lat.get2(i as isize - 1, j as isize) as f64;
                d1[i * cols + j] = q - lat.get2(i as isize, j as isize - 1) as f64;
            }
        }
        vec![d0, d1]
    }

    /// A cross-field predictor whose differences are `dq` (small integers,
    /// exact as `f32`) at a lattice step of one.
    fn cross_field(
        shape: Shape,
        dq: &[Vec<f64>],
        model: HybridModel,
    ) -> CrossFieldHybridPredictor<'static> {
        let planes: Vec<Field> = dq
            .iter()
            .map(|plane| Field::from_vec(shape, plane.iter().map(|&v| v as f32).collect()))
            .collect();
        CrossFieldHybridPredictor::from_planes(planes, 0.5, model)
    }

    #[test]
    fn perfect_differences_give_perfect_prediction() {
        let lat = lattice2(12, 12, |i, j| (i * i) as i64 + 3 * j as i64);
        let dq = exact_dq_2d(&lat);
        // pure axis-0 weighting
        let model = HybridModel {
            weights: vec![0.0, 1.0, 0.0],
            losses: vec![],
        };
        let pred = cross_field(lat.shape(), &dq, model);
        for i in 1..12 {
            for j in 1..12 {
                assert_eq!(
                    pred.predict(&lat, &[i, j]),
                    lat.get2(i as isize, j as isize),
                    "at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn hybrid_roundtrips_through_codec() {
        let lat = lattice2(20, 20, |i, j| {
            ((i * 13 + j * 7) % 91) as i64 + i as i64 * 50
        });
        let dq = exact_dq_2d(&lat);
        let (preds, targets) = sample_hybrid_training(&lat, &dq, 500, 3);
        let model = HybridModel::fit_least_squares(&preds, &targets);
        let predictor = cross_field(lat.shape(), &dq, model);
        let quant = QuantizerConfig { radius: 512 };
        let enc = codec::encode(&lat, &predictor, &quant);
        let dec =
            codec::try_decode(lat.shape(), &enc.codes, &enc.outliers, &predictor, &quant).unwrap();
        assert_eq!(dec.as_slice(), lat.as_slice());
    }

    #[test]
    fn noisy_dq_still_roundtrips() {
        // dq wrong by ±3 lattice steps: residuals bigger but still lossless
        let lat = lattice2(16, 16, |i, j| (i * 4 + j) as i64);
        let mut dq = exact_dq_2d(&lat);
        for (k, plane) in dq.iter_mut().enumerate() {
            for (o, v) in plane.iter_mut().enumerate() {
                *v += ((o + k) % 7) as f64 - 3.0;
            }
        }
        let model = HybridModel {
            weights: vec![0.4, 0.3, 0.3],
            losses: vec![],
        };
        let predictor = cross_field(lat.shape(), &dq, model);
        let quant = QuantizerConfig { radius: 512 };
        let enc = codec::encode(&lat, &predictor, &quant);
        let dec =
            codec::try_decode(lat.shape(), &enc.codes, &enc.outliers, &predictor, &quant).unwrap();
        assert_eq!(dec.as_slice(), lat.as_slice());
    }

    #[test]
    fn predictor_3d_roundtrips() {
        let shape = Shape::d3(5, 8, 8);
        let mut data = Vec::new();
        for k in 0..5i64 {
            for i in 0..8i64 {
                for j in 0..8i64 {
                    data.push(k * 9 + i * 2 - j + ((k + i * j) % 4));
                }
            }
        }
        let lat = QuantLattice::from_vec(shape, data);
        let dq: Vec<Vec<f64>> = (0..3).map(|_| vec![0.0f64; shape.len()]).collect();
        let model = HybridModel {
            weights: vec![1.0, 0.0, 0.0, 0.0],
            losses: vec![],
        };
        let predictor = cross_field(shape, &dq, model);
        let quant = QuantizerConfig { radius: 512 };
        let enc = codec::encode(&lat, &predictor, &quant);
        let dec = codec::try_decode(shape, &enc.codes, &enc.outliers, &predictor, &quant).unwrap();
        assert_eq!(dec.as_slice(), lat.as_slice());
    }

    #[test]
    fn sampling_avoids_borders() {
        let lat = lattice2(10, 10, |i, j| (i + j) as i64);
        let dq = exact_dq_2d(&lat);
        let (preds, targets) = sample_hybrid_training(&lat, &dq, 200, 1);
        assert_eq!(preds.len(), 200);
        assert_eq!(targets.len(), 200);
        // with exact dq, axis predictors equal the target at interior points
        for (p, &t) in preds.iter().zip(&targets) {
            assert_eq!(p[1], t);
            assert_eq!(p[2], t);
        }
    }

    /// A temporal predictor whose previous epoch is `prev`'s lattice values
    /// (small integers, exact as `f32`) at a lattice step of one.
    fn temporal(prev: &QuantLattice, weights: [f64; 3]) -> TemporalHybridPredictor<'static> {
        let samples = prev.as_slice().iter().map(|&v| v as f32).collect();
        let model = HybridModel {
            weights: weights.to_vec(),
            losses: vec![],
        };
        TemporalHybridPredictor::new(&Field::from_vec(prev.shape(), samples), 0.5, model)
    }

    #[test]
    fn temporal_previous_value_candidate_is_exact_on_static_fields() {
        // identical epochs: the previous-value candidate alone reproduces
        // the lattice exactly at every point, border included
        let lat = lattice2(10, 12, |i, j| ((i * 31 + j * 17) % 57) as i64 - 20);
        let pred = temporal(&lat, [0.0, 1.0, 0.0]);
        for i in 0..10 {
            for j in 0..12 {
                assert_eq!(
                    pred.predict(&lat, &[i, j]),
                    lat.get2(i as isize, j as isize),
                    "at ({i},{j})"
                );
            }
        }
        // the temporal-Lorenzo candidate is exact too when the increment
        // is zero (interior and borders share the zero-padding convention)
        let pred = temporal(&lat, [0.0, 0.0, 1.0]);
        for i in 0..10 {
            for j in 0..12 {
                assert_eq!(
                    pred.predict(&lat, &[i, j]),
                    lat.get2(i as isize, j as isize)
                );
            }
        }
    }

    #[test]
    fn temporal_lorenzo_candidate_absorbs_affine_increments() {
        // previous epoch rough, current = previous + affine ramp: the
        // temporal-Lorenzo candidate is exact on interior points
        let prev = lattice2(9, 9, |i, j| ((i * 13 + j * 29) % 83) as i64);
        let cur = lattice2(9, 9, |i, j| {
            prev.get2(i as isize, j as isize) + 4 * i as i64 + 7 * j as i64 + 3
        });
        let pred = temporal(&prev, [0.0, 0.0, 1.0]);
        for i in 1..9 {
            for j in 1..9 {
                assert_eq!(
                    pred.predict(&cur, &[i, j]),
                    cur.get2(i as isize, j as isize),
                    "at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn temporal_hybrid_roundtrips_through_codec() {
        let prev = lattice2(20, 20, |i, j| ((i * 7 + j * 11) % 63) as i64 + i as i64);
        let cur = lattice2(20, 20, |i, j| {
            prev.get2(i as isize, j as isize) + ((i + 2 * j) % 5) as i64
        });
        let pq: Vec<f64> = prev.as_slice().iter().map(|&v| v as f64).collect();
        let (preds, targets) = sample_temporal_training(&cur, &pq, 400, 9);
        let model = HybridModel::fit_least_squares(&preds, &targets);
        assert_eq!(model.arity(), TEMPORAL_ARITY);
        let predictor = temporal(&prev, model.weights[..].try_into().unwrap());
        let quant = QuantizerConfig { radius: 512 };
        let enc = codec::encode(&cur, &predictor, &quant);
        let dec =
            codec::try_decode(cur.shape(), &enc.codes, &enc.outliers, &predictor, &quant).unwrap();
        assert_eq!(dec.as_slice(), cur.as_slice());
    }

    #[test]
    fn temporal_3d_roundtrips() {
        let shape = Shape::d3(4, 6, 6);
        let prev_data: Vec<i64> = (0..shape.len()).map(|o| ((o * 37) % 101) as i64).collect();
        let cur_data: Vec<i64> = prev_data.iter().map(|&v| v + 2).collect();
        let prev = QuantLattice::from_vec(shape, prev_data);
        let cur = QuantLattice::from_vec(shape, cur_data);
        let predictor = temporal(&prev, [0.1, 0.6, 0.3]);
        let quant = QuantizerConfig { radius: 512 };
        let enc = codec::encode(&cur, &predictor, &quant);
        let dec = codec::try_decode(shape, &enc.codes, &enc.outliers, &predictor, &quant).unwrap();
        assert_eq!(dec.as_slice(), cur.as_slice());
    }

    #[test]
    fn inline_rounding_is_round_then_cast_on_every_double() {
        let same = |x: f64| {
            assert_eq!(
                round_to_i64(x),
                x.round() as i64,
                "{x:e} ({:#x})",
                x.to_bits()
            )
        };
        let mut edges = vec![
            0.0,
            f64::NAN,
            f64::INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
            5e-324,
        ];
        // powers of two around where the fraction bits run out (2^52),
        // where `i64` does (2^63), and a step either side of each
        for e in [-1, 0, 1, 23, 24, 31, 32, 51, 52, 53, 54, 62, 63, 64, 100] {
            let p = 2f64.powi(e);
            edges.extend([p, p - 0.5, p + 0.5, p - 1.0, p + 1.0]);
        }
        // half-integers: ties round away from zero
        for k in [
            0u64,
            1,
            2,
            3,
            1022,
            1023,
            (1 << 31) - 1,
            (1 << 51) - 1,
            (1 << 52) - 1,
        ] {
            edges.push(k as f64 + 0.5);
        }
        for x in edges {
            // the value and its neighbours an ulp away, both signs
            for bits in [x.to_bits().wrapping_sub(1), x.to_bits(), x.to_bits() + 1] {
                same(f64::from_bits(bits));
                same(-f64::from_bits(bits));
            }
        }
        // xorshift doubles: any bit pattern (NaNs, infinities, subnormals
        // and huge values included), then the range predictions live in
        // with every fraction bit in play
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2_000_000 {
            same(f64::from_bits(next()));
            let exponent = 1021 + next() % 56; // 2^-2 ..= 2^53
            same(f64::from_bits((next() & !(0x7FF << 52)) | (exponent << 52)));
        }
    }

    #[test]
    fn temporal_new_converts_units() {
        let f = Field::from_vec(Shape::d2(2, 2), vec![0.2, 0.4, -0.2, 0.0]);
        let model = HybridModel {
            weights: vec![0.2, 0.5, 0.3],
            losses: vec![],
        };
        let p = TemporalHybridPredictor::new(&f, 0.1, model);
        for (off, want) in [1.0, 2.0, -1.0, 0.0].into_iter().enumerate() {
            assert!((p.pq(off) - want).abs() < 1e-6, "{} vs {want}", p.pq(off));
        }
        assert_eq!(p.model.arity(), 3);
    }

    #[test]
    fn new_converts_units() {
        let f = Field::from_vec(Shape::d2(2, 2), vec![0.2, 0.4, -0.2, 0.0]);
        let g = Field::zeros(Shape::d2(2, 2));
        let model = HybridModel {
            weights: vec![0.5, 0.25, 0.25],
            losses: vec![],
        };
        let p = CrossFieldHybridPredictor::new(&[f, g], 0.1, model);
        for (off, want) in [1.0, 2.0, -1.0, 0.0].into_iter().enumerate() {
            let got = p.dq(0, off);
            assert!((got - want).abs() < 1e-6, "{got} vs {want}"); // v / (2·0.1)
            assert_eq!(p.dq(1, off), 0.0);
        }
    }
}
