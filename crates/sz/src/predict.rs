//! Lattice predictors.
//!
//! A [`Predictor`] maps a point's already-known neighbourhood to a predicted
//! lattice value. With dual quantization the *encoder* sees the full
//! prequantized lattice and computes every residual independently
//! ([`Predictor::residuals_into`]); the *decoder* rebuilds the lattice in
//! row-major order from those residuals ([`Predictor::reconstruct_into`]),
//! each value a neighbour of later ones. A predictor is only **causal**
//! (usable) if every neighbour it touches precedes the current point in
//! row-major order — the paper's Figure 3 argument. [`CentralDiffPredictor`]
//! is intentionally non-causal and exists to demonstrate the resulting
//! encode/decode mismatch in tests and ablations.

use cfc_tensor::Shape;

use crate::error::CfcError;
use crate::lattice::QuantLattice;
use crate::quantizer::QuantizerConfig;

/// A prediction model over the prequantized integer lattice.
///
/// An implementation supplies [`Predictor::predict`], the per-point model:
/// `idx` is the current point's multi-index (length = ndim of the lattice),
/// and the result must be deterministic and, for correct codecs, causal in
/// row-major order. The codec never calls `predict` itself — it asks for a
/// whole lattice at a time through the two bulk methods, whose defaults
/// walk the points through `predict` and define what an override has to
/// reproduce bit for bit, wrapping arithmetic included:
///
/// * [`Predictor::residuals_into`] (encoder): `q[t] − predict(q, t)` for
///   every point of a fully known lattice, in any order;
/// * [`Predictor::reconstruct_into`] (decoder): the lattice back from
///   residual codes and outliers, in row-major order, with the same typed
///   error for the first malformed element the walk would meet.
pub trait Predictor: Sync {
    /// Predicted lattice value at `idx` given the (partially) known lattice.
    fn predict(&self, lattice: &QuantLattice, idx: &[usize]) -> i64;

    /// Whether the predictor only reads row-major-preceding points.
    fn is_causal(&self) -> bool {
        true
    }

    /// Bulk encoder-side residuals: `out[t] = q[t] − predict(q, t)` for
    /// every point in row-major order, wrapping exactly like
    /// [`Predictor::predict`]-based loops. `out` is cleared first.
    ///
    /// The default walks the lattice point by point through `predict`;
    /// predictors with exploitable structure override it with row-sliced
    /// kernels: Lorenzo here (integer rows LLVM autovectorizes), both
    /// hybrids in `cfc-core` (`f64` rows converted once).
    fn residuals_into(&self, lattice: &QuantLattice, out: &mut Vec<i64>) {
        let shape = lattice.shape();
        out.clear();
        out.reserve(shape.len());
        match shape.ndim() {
            1 => {
                for i in 0..shape.dims()[0] {
                    out.push(lattice.at(i).wrapping_sub(self.predict(lattice, &[i])));
                }
            }
            2 => {
                let (rows, cols) = (shape.dims()[0], shape.dims()[1]);
                for i in 0..rows {
                    for j in 0..cols {
                        out.push(
                            lattice
                                .at(i * cols + j)
                                .wrapping_sub(self.predict(lattice, &[i, j])),
                        );
                    }
                }
            }
            3 => {
                let d = shape.dims();
                for k in 0..d[0] {
                    for i in 0..d[1] {
                        for j in 0..d[2] {
                            out.push(
                                lattice
                                    .at((k * d[1] + i) * d[2] + j)
                                    .wrapping_sub(self.predict(lattice, &[k, i, j])),
                            );
                        }
                    }
                }
            }
            _ => unreachable!("lattices are 1-3 dimensional"),
        }
    }

    /// Bulk decoder-side reconstruction, the inverse of
    /// [`Predictor::residuals_into`] followed by the residual quantizer:
    /// rebuild the `shape` lattice into `out` (cleared first) from one code
    /// per sample and the escaped values in scan order.
    ///
    /// Points are visited in exactly the row-major order the encoder's
    /// causality contract assumes; an in-range code adds its residual to
    /// the prediction (wrapping — a corrupt outlier can leave an
    /// `i64::MAX`-scale neighbour in the lattice, and decode must never
    /// panic), the escape code takes the next outlier verbatim. `codes`
    /// and `outliers` are untrusted: the first out-of-alphabet code or
    /// exhausted outlier stream in scan order, or outliers left over at the
    /// end, return [`CfcError::Corrupt`]; `out` then holds nothing usable.
    ///
    /// `shape` may have fewer axis-0 rows than the lattice the codes were
    /// written for: a decode of a block's leading rows passes the shorter
    /// shape with the codes and outliers of those rows, and must get the
    /// whole decode's first rows — which causality gives, as long as a
    /// prediction does not look at how many rows follow.
    ///
    /// The default is the per-point walk — monomorphised per predictor, so
    /// `predict` inlines into it — and the reference the overrides are
    /// tested against: Lorenzo's row kernels (`tests/lorenzo_kernel.rs`)
    /// and, in `cfc-core`, both hybrids', where the left neighbour is the
    /// only thing a sample waits for (`tests/temporal_kernel.rs`,
    /// `tests/cross_field_kernel.rs`).
    ///
    /// # Panics
    /// If `codes.len() != shape.len()`; [`crate::codec::try_decode`] checks
    /// that on untrusted streams first.
    fn reconstruct_into(
        &self,
        shape: Shape,
        codes: &[u32],
        outliers: &[i64],
        quant: &QuantizerConfig,
        out: &mut Vec<i64>,
    ) -> Result<(), CfcError> {
        assert_eq!(codes.len(), shape.len(), "one code per sample");
        out.clear();
        out.resize(shape.len(), 0);
        // `predict` reads a lattice: lend it `out`'s buffer for the walk
        let mut lattice = QuantLattice::from_vec(shape, std::mem::take(out));
        let mut pending = outliers.iter();
        let mut step = |off: usize, idx: &[usize]| -> Result<(), CfcError> {
            let value = match quant.check_one(codes[off]) {
                Ok(Some(delta)) => self.predict(&lattice, idx).wrapping_add(delta),
                Ok(None) => *pending.next().ok_or_else(outliers_exhausted)?,
                Err(code) => return Err(outside_alphabet(code, quant)),
            };
            lattice.as_mut_slice()[off] = value;
            Ok(())
        };
        let d = shape.dims();
        match shape.ndim() {
            1 => {
                for i in 0..d[0] {
                    step(i, &[i])?;
                }
            }
            2 => {
                for i in 0..d[0] {
                    for j in 0..d[1] {
                        step(i * d[1] + j, &[i, j])?;
                    }
                }
            }
            3 => {
                for k in 0..d[0] {
                    for i in 0..d[1] {
                        for j in 0..d[2] {
                            step((k * d[1] + i) * d[2] + j, &[k, i, j])?;
                        }
                    }
                }
            }
            _ => unreachable!("lattices are 1-3 dimensional"),
        }
        *out = lattice.into_vec();
        outliers_consumed(pending)
    }

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

fn outliers_exhausted() -> CfcError {
    CfcError::Corrupt {
        context: "residual stream",
        detail: "outlier stream exhausted".into(),
    }
}

fn outside_alphabet(code: u32, quant: &QuantizerConfig) -> CfcError {
    CfcError::Corrupt {
        context: "residual stream",
        detail: format!("code {code} outside alphabet of radius {}", quant.radius),
    }
}

/// The end-of-walk check: every outlier must have been claimed by an escape.
fn outliers_consumed(mut pending: std::slice::Iter<'_, i64>) -> Result<(), CfcError> {
    match pending.next() {
        None => Ok(()),
        Some(_) => Err(CfcError::Corrupt {
            context: "residual stream",
            detail: "outlier stream not fully consumed".into(),
        }),
    }
}

/// What a decode that stops early still owes the rest of an untrusted
/// stream: the codes it did not walk and the outliers left for them, held
/// to what [`Predictor::reconstruct_into`] would have refused on the way —
/// the first out-of-alphabet code or escape without an outlier in scan
/// order, then outliers nobody claimed.
pub(crate) fn check_unwalked(
    codes: &[u32],
    outliers: &[i64],
    quant: &QuantizerConfig,
) -> Result<(), CfcError> {
    let mut pending = outliers.iter();
    if codes.iter().fold(0, |m, &c| m.max(c)) < quant.escape() {
        // every code is a residual, as in `row_rec`
        return outliers_consumed(pending);
    }
    for &code in codes {
        match quant.check_one(code) {
            Ok(Some(_)) => {}
            Ok(None) => {
                pending.next().ok_or_else(outliers_exhausted)?;
            }
            Err(code) => return Err(outside_alphabet(code, quant)),
        }
    }
    outliers_consumed(pending)
}

/// `out[j] = cur[j] − cur[j−1]` with `cur[−1] = 0`: the 1-D Lorenzo row,
/// and the first row of every higher-dimensional Lorenzo slab.
#[inline]
fn row_res_1d(cur: &[i64], out: &mut Vec<i64>) {
    let Some(&first) = cur.first() else { return };
    out.push(first);
    out.extend(cur.windows(2).map(|w| w[1].wrapping_sub(w[0])));
}

/// 2-D Lorenzo residual row given the previous row (`prev`), with implicit
/// zero padding at `j = −1`.
#[inline]
fn row_res_2d(cur: &[i64], prev: &[i64], out: &mut Vec<i64>) {
    let Some(&first) = cur.first() else { return };
    out.push(first.wrapping_sub(prev[0]));
    out.extend((1..cur.len()).map(|j| {
        cur[j]
            .wrapping_sub(cur[j - 1])
            .wrapping_sub(prev[j])
            .wrapping_add(prev[j - 1])
    }));
}

/// 3-D Lorenzo residual row from the three neighbouring rows: `p` at
/// `(k, i−1)`, `b` at `(k−1, i)`, and `o` at `(k−1, i−1)`.
#[inline]
fn row_res_3d(c: &[i64], p: &[i64], b: &[i64], o: &[i64], out: &mut Vec<i64>) {
    let Some(&first) = c.first() else { return };
    out.push(
        first
            .wrapping_sub(p[0])
            .wrapping_sub(b[0])
            .wrapping_add(o[0]),
    );
    out.extend((1..c.len()).map(|j| {
        c[j].wrapping_sub(c[j - 1])
            .wrapping_sub(p[j])
            .wrapping_add(p[j - 1])
            .wrapping_sub(b[j])
            .wrapping_add(b[j - 1])
            .wrapping_add(o[j])
            .wrapping_sub(o[j - 1])
    }));
}

/// Inverse Lorenzo along one row. On entry `row[j]` holds `s[j]`, the part
/// of the prediction that lies outside the row (`b[j] + p[j] − o[j]` in
/// 3-D, the previous row in 2-D, zero in 1-D); since the prediction is
/// `c[j−1] + s[j] − s[j−1]`, the value is `c[j] = s[j] + acc[j]` with
/// `acc[j] = acc[j−1] + delta[j]` — a wrapping prefix sum of the residuals,
/// restarted at `c[j] − s[j]` after an outlier.
#[inline]
fn row_rec(
    codes: &[u32],
    row: &mut [i64],
    quant: &QuantizerConfig,
    pending: &mut std::slice::Iter<'_, i64>,
) -> Result<(), CfcError> {
    let radius = quant.radius as i64;
    let mut acc = 0i64;
    if codes.iter().fold(0, |m, &c| m.max(c)) < quant.escape() {
        // every code is a residual: nothing to pop, nothing to refuse
        for (v, &code) in row.iter_mut().zip(codes) {
            acc = acc.wrapping_add(code as i64 - radius);
            *v = v.wrapping_add(acc);
        }
        return Ok(());
    }
    for (v, &code) in row.iter_mut().zip(codes) {
        match quant.check_one(code) {
            Ok(Some(delta)) => {
                acc = acc.wrapping_add(delta);
                *v = v.wrapping_add(acc);
            }
            Ok(None) => {
                let q = *pending.next().ok_or_else(outliers_exhausted)?;
                acc = q.wrapping_sub(*v);
                *v = q;
            }
            Err(code) => return Err(outside_alphabet(code, quant)),
        }
    }
    Ok(())
}

/// The classic Lorenzo predictor (1-layer), dimension-dispatching.
///
/// * 1-D: `q(i−1)`
/// * 2-D: `q(i−1,j) + q(i,j−1) − q(i−1,j−1)`
/// * 3-D: 7-term inclusion–exclusion over the preceding corner cube.
#[derive(Debug, Clone, Copy, Default)]
pub struct LorenzoPredictor;

impl Predictor for LorenzoPredictor {
    #[inline]
    fn predict(&self, lattice: &QuantLattice, idx: &[usize]) -> i64 {
        // wrapping arithmetic: corrupt streams can plant i64::MAX-scale
        // outliers in the lattice, and the decode contract is Err-not-panic;
        // encoder and decoder wrap identically, so round-trips are unaffected
        match *idx {
            [i] => lattice.get1(i as isize - 1),
            [i, j] => {
                let (i, j) = (i as isize, j as isize);
                lattice
                    .get2(i - 1, j)
                    .wrapping_add(lattice.get2(i, j - 1))
                    .wrapping_sub(lattice.get2(i - 1, j - 1))
            }
            [k, i, j] => {
                let (k, i, j) = (k as isize, i as isize, j as isize);
                lattice
                    .get3(k - 1, i, j)
                    .wrapping_add(lattice.get3(k, i - 1, j))
                    .wrapping_add(lattice.get3(k, i, j - 1))
                    .wrapping_sub(lattice.get3(k - 1, i - 1, j))
                    .wrapping_sub(lattice.get3(k - 1, i, j - 1))
                    .wrapping_sub(lattice.get3(k, i - 1, j - 1))
                    .wrapping_add(lattice.get3(k - 1, i - 1, j - 1))
            }
            _ => unreachable!("lattices are 1-3 dimensional"),
        }
    }

    /// Row-sliced bulk residuals. The boundary cases fall out of the
    /// inclusion–exclusion structure instead of needing padded copies: with
    /// zero padding, the `k = 0` plane of 3-D Lorenzo *is* 2-D Lorenzo and
    /// the `i = 0` row of 2-D Lorenzo *is* the 1-D difference, so every row
    /// reduces to one of three branch-free kernels over contiguous slices.
    fn residuals_into(&self, lattice: &QuantLattice, out: &mut Vec<i64>) {
        let shape = lattice.shape();
        let data = lattice.as_slice();
        out.clear();
        out.reserve(shape.len());
        match shape.ndim() {
            1 => row_res_1d(data, out),
            2 => {
                let cols = shape.dims()[1];
                if cols == 0 {
                    return;
                }
                for (i, cur) in data.chunks_exact(cols).enumerate() {
                    if i == 0 {
                        row_res_1d(cur, out);
                    } else {
                        row_res_2d(cur, &data[(i - 1) * cols..i * cols], out);
                    }
                }
            }
            3 => {
                let d = shape.dims();
                let (n1, n2) = (d[1], d[2]);
                if n1 == 0 || n2 == 0 {
                    return;
                }
                let row = |k: usize, i: usize| &data[(k * n1 + i) * n2..(k * n1 + i + 1) * n2];
                for k in 0..d[0] {
                    for i in 0..n1 {
                        let cur = row(k, i);
                        match (k, i) {
                            (0, 0) => row_res_1d(cur, out),
                            (0, i) => row_res_2d(cur, row(0, i - 1), out),
                            (k, 0) => row_res_2d(cur, row(k - 1, 0), out),
                            (k, i) => row_res_3d(
                                cur,
                                row(k, i - 1),
                                row(k - 1, i),
                                row(k - 1, i - 1),
                                out,
                            ),
                        }
                    }
                }
            }
            _ => unreachable!("lattices are 1-3 dimensional"),
        }
    }

    /// Row kernels, the decode-side twin of [`Predictor::residuals_into`]
    /// above: per row, gather what the prediction takes from the three
    /// neighbouring rows (the `k = 0` plane and the `i = 0` row reduce to
    /// the 2-D and 1-D cases exactly as on the encode side), then
    /// `row_rec` runs the in-row recurrence over contiguous slices.
    fn reconstruct_into(
        &self,
        shape: Shape,
        codes: &[u32],
        outliers: &[i64],
        quant: &QuantizerConfig,
        out: &mut Vec<i64>,
    ) -> Result<(), CfcError> {
        assert_eq!(codes.len(), shape.len(), "one code per sample");
        out.clear();
        out.resize(shape.len(), 0);
        let d = shape.dims();
        // rows of `n2` samples, `n1` of them to a plane: a 2-D lattice is
        // one plane, a 1-D lattice one row
        let n2 = d[d.len() - 1];
        let n1 = if d.len() >= 2 { d[d.len() - 2] } else { 1 };
        let mut pending = outliers.iter();
        for (r, row_codes) in codes.chunks_exact(n2).enumerate() {
            let (done, rest) = out.split_at_mut(r * n2);
            let cur = &mut rest[..n2];
            let above = |rows: usize| &done[(r - rows) * n2..][..n2];
            match (r / n1, r % n1) {
                (0, 0) => {}
                (0, _) => cur.copy_from_slice(above(1)),
                (_, 0) => cur.copy_from_slice(above(n1)),
                _ => {
                    let (p, b, o) = (above(1), above(n1), above(n1 + 1));
                    for j in 0..n2 {
                        cur[j] = b[j].wrapping_add(p[j]).wrapping_sub(o[j]);
                    }
                }
            }
            row_rec(row_codes, cur, quant, &mut pending)?;
        }
        outliers_consumed(pending)
    }

    fn name(&self) -> &'static str {
        "lorenzo"
    }
}

/// Central-difference predictor: `(q(i−1) + q(i+1)) / 2` along the last axis.
///
/// **Non-causal**: it reads `q(i+1)`, which the row-major decoder has not
/// reconstructed yet. Kept to reproduce the paper's Figure 3 discussion —
/// round-tripping with this predictor demonstrably diverges.
#[derive(Debug, Clone, Copy, Default)]
pub struct CentralDiffPredictor;

impl Predictor for CentralDiffPredictor {
    #[inline]
    fn predict(&self, lattice: &QuantLattice, idx: &[usize]) -> i64 {
        match *idx {
            [i] => {
                let i = i as isize;
                lattice.get1(i - 1).wrapping_add(lattice.get1(i + 1)) / 2
            }
            [i, j] => {
                let (i, j) = (i as isize, j as isize);
                lattice.get2(i, j - 1).wrapping_add(lattice.get2(i, j + 1)) / 2
            }
            [k, i, j] => {
                let (k, i, j) = (k as isize, i as isize, j as isize);
                lattice
                    .get3(k, i, j - 1)
                    .wrapping_add(lattice.get3(k, i, j + 1))
                    / 2
            }
            _ => unreachable!(),
        }
    }

    fn is_causal(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "central-diff"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfc_tensor::Shape;

    #[test]
    fn lorenzo_2d_on_linear_field_is_exact() {
        // On affine data the 2-D Lorenzo prediction is exact away from borders.
        let dims = (8usize, 8usize);
        let data: Vec<i64> = (0..dims.0 as i64 * dims.1 as i64)
            .map(|o| {
                let (i, j) = (o / dims.1 as i64, o % dims.1 as i64);
                3 * i + 2 * j + 5
            })
            .collect();
        let lat = QuantLattice::from_vec(Shape::d2(dims.0, dims.1), data);
        let p = LorenzoPredictor;
        for i in 1..dims.0 {
            for j in 1..dims.1 {
                let expect = 3 * i as i64 + 2 * j as i64 + 5;
                assert_eq!(p.predict(&lat, &[i, j]), expect);
            }
        }
    }

    #[test]
    fn lorenzo_3d_on_linear_field_is_exact() {
        let (n0, n1, n2) = (5usize, 6usize, 7usize);
        let mut data = Vec::new();
        for k in 0..n0 as i64 {
            for i in 0..n1 as i64 {
                for j in 0..n2 as i64 {
                    data.push(4 * k - 2 * i + j + 9);
                }
            }
        }
        let lat = QuantLattice::from_vec(Shape::d3(n0, n1, n2), data);
        let p = LorenzoPredictor;
        for k in 1..n0 {
            for i in 1..n1 {
                for j in 1..n2 {
                    let expect = 4 * k as i64 - 2 * i as i64 + j as i64 + 9;
                    assert_eq!(p.predict(&lat, &[k, i, j]), expect);
                }
            }
        }
    }

    #[test]
    fn lorenzo_border_uses_zero_padding() {
        let lat = QuantLattice::from_vec(Shape::d2(2, 2), vec![10, 20, 30, 40]);
        let p = LorenzoPredictor;
        assert_eq!(p.predict(&lat, &[0, 0]), 0);
        assert_eq!(p.predict(&lat, &[0, 1]), 10);
        assert_eq!(p.predict(&lat, &[1, 0]), 10);
    }

    #[test]
    fn central_is_flagged_non_causal() {
        assert!(!CentralDiffPredictor.is_causal());
        assert!(LorenzoPredictor.is_causal());
    }

    /// Per-point reference for the bulk kernels, straight off `predict`.
    fn residuals_reference(p: &dyn Predictor, lat: &QuantLattice) -> Vec<i64> {
        let shape = lat.shape();
        let mut out = Vec::with_capacity(shape.len());
        match shape.ndim() {
            1 => {
                for i in 0..shape.dims()[0] {
                    out.push(lat.at(i).wrapping_sub(p.predict(lat, &[i])));
                }
            }
            2 => {
                let (r, c) = (shape.dims()[0], shape.dims()[1]);
                for i in 0..r {
                    for j in 0..c {
                        out.push(lat.at(i * c + j).wrapping_sub(p.predict(lat, &[i, j])));
                    }
                }
            }
            3 => {
                let d = shape.dims();
                for k in 0..d[0] {
                    for i in 0..d[1] {
                        for j in 0..d[2] {
                            out.push(
                                lat.at((k * d[1] + i) * d[2] + j)
                                    .wrapping_sub(p.predict(lat, &[k, i, j])),
                            );
                        }
                    }
                }
            }
            _ => unreachable!(),
        }
        out
    }

    fn pseudo_values(n: usize, seed: u64) -> Vec<i64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // mix of small values and i64-scale extremes to exercise wrapping
                if x.is_multiple_of(97) {
                    i64::MAX - (x % 5) as i64
                } else {
                    (x % 2048) as i64 - 1024
                }
            })
            .collect()
    }

    #[test]
    fn lorenzo_bulk_residuals_match_per_point_1d() {
        let lat = QuantLattice::from_vec(Shape::d1(257), pseudo_values(257, 0xA5));
        let mut bulk = Vec::new();
        LorenzoPredictor.residuals_into(&lat, &mut bulk);
        assert_eq!(bulk, residuals_reference(&LorenzoPredictor, &lat));
    }

    #[test]
    fn lorenzo_bulk_residuals_match_per_point_2d() {
        for (r, c) in [(1usize, 1usize), (1, 9), (9, 1), (13, 17), (32, 5)] {
            let lat = QuantLattice::from_vec(Shape::d2(r, c), pseudo_values(r * c, 0xB7));
            let mut bulk = Vec::new();
            LorenzoPredictor.residuals_into(&lat, &mut bulk);
            assert_eq!(
                bulk,
                residuals_reference(&LorenzoPredictor, &lat),
                "shape {r}x{c}"
            );
        }
    }

    #[test]
    fn lorenzo_bulk_residuals_match_per_point_3d() {
        for (a, b, c) in [
            (1usize, 1usize, 1usize),
            (1, 5, 7),
            (4, 1, 6),
            (5, 6, 1),
            (4, 5, 6),
        ] {
            let lat = QuantLattice::from_vec(Shape::d3(a, b, c), pseudo_values(a * b * c, 0xC9));
            let mut bulk = Vec::new();
            LorenzoPredictor.residuals_into(&lat, &mut bulk);
            assert_eq!(
                bulk,
                residuals_reference(&LorenzoPredictor, &lat),
                "shape {a}x{b}x{c}"
            );
        }
    }

    #[test]
    fn default_bulk_residuals_match_per_point() {
        // the trait's default implementation (exercised via a predictor
        // without an override) agrees with the explicit reference loop
        let lat = QuantLattice::from_vec(Shape::d2(12, 11), pseudo_values(132, 0xD1));
        let mut bulk = Vec::new();
        CentralDiffPredictor.residuals_into(&lat, &mut bulk);
        assert_eq!(bulk, residuals_reference(&CentralDiffPredictor, &lat));
    }
}
