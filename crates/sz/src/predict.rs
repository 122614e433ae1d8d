//! Lattice predictors.
//!
//! A [`Predictor`] maps a point's already-known neighbourhood to a predicted
//! lattice value. With dual quantization the *encoder* sees the full
//! prequantized lattice and computes every residual independently
//! ([`Predictor::residuals_into`]); the *decoder* rebuilds the lattice in
//! row-major order from those residuals ([`Predictor::reconstruct_into`]),
//! each value a neighbour of later ones. A predictor is only usable if
//! every neighbour it touches precedes the current point in row-major order
//! — the paper's Figure 3 argument, which `cfc-bench`'s causality ablation
//! checks on a central-difference rule.
//!
//! Every predictor runs on row kernels (Lorenzo here, both hybrids in
//! `cfc-core`), and its per-point rule, [`Predictor::predict`], is the
//! specification they are held to bit for bit. The per-point walks over a
//! rule, [`residuals_per_point`] and [`reconstruct_per_point`], are that one
//! oracle: tests and the ablation call them, the codec never does. A row
//! kernel reads its untrusted codes and outliers through a
//! [`ResidualStream`], which words the three ways such a stream can be
//! malformed.

use cfc_tensor::Shape;

use crate::error::CfcError;
use crate::lattice::QuantLattice;
use crate::quantizer::QuantizerConfig;

/// A prediction model over the prequantized integer lattice, as the codec
/// uses it: a whole lattice at a time, through the two bulk methods, which
/// reproduce [`Predictor::predict`] bit for bit, wrapping arithmetic
/// included.
pub trait Predictor: Sync {
    /// Predicted lattice value at `idx`, the current point's multi-index
    /// (length = ndim of the lattice), given the (partially) known lattice:
    /// deterministic, and causal in row-major order. The per-point
    /// specification of the bulk methods below — what [`residuals_per_point`]
    /// and [`reconstruct_per_point`] walk.
    fn predict(&self, lattice: &QuantLattice, idx: &[usize]) -> i64;

    /// Bulk encoder-side residuals: `out[t] = q[t] − predict(q, t)` for
    /// every point of a fully known lattice in row-major order, wrapping.
    /// `out` is cleared first.
    fn residuals_into(&self, lattice: &QuantLattice, out: &mut Vec<i64>);

    /// Bulk decoder-side reconstruction, the inverse of
    /// [`Predictor::residuals_into`] followed by the residual quantizer:
    /// rebuild the `shape` lattice into `out` (cleared first) from one code
    /// per sample and the escaped values in scan order.
    ///
    /// Points come back in row-major order; an in-range code adds its
    /// residual to the prediction (wrapping — a corrupt outlier can leave
    /// an `i64::MAX`-scale neighbour in the lattice, and decode must never
    /// panic), the escape code takes the next outlier verbatim. `codes` and
    /// `outliers` are untrusted and read through a [`ResidualStream`]: the
    /// first out-of-alphabet code or exhausted outlier stream in scan
    /// order, or outliers left over at the end, return its
    /// [`CfcError::Corrupt`]; `out` then holds nothing usable.
    ///
    /// `shape` may have fewer axis-0 rows than the lattice the codes were
    /// written for: a decode of a block's leading rows passes the shorter
    /// shape with the codes and outliers of those rows, and must get the
    /// whole decode's first rows — which causality gives, as long as a
    /// prediction does not look at how many rows follow.
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
    ) -> Result<(), CfcError>;
}

/// The multi-indices of `shape` in row-major order, each in the first
/// `ndim` slots of an array.
fn indices(shape: Shape) -> impl Iterator<Item = [usize; 3]> {
    (0..shape.len()).map(move |off| {
        let (mut idx, mut rest) = ([0usize; 3], off);
        for (i, &d) in idx.iter_mut().zip(shape.dims()).rev() {
            *i = rest % d;
            rest /= d;
        }
        idx
    })
}

/// The oracle's encode: `out[t] = q[t] − predict(q, t)`, point by point in
/// row-major order, wrapping. `out` is cleared first.
pub fn residuals_per_point(
    predict: impl Fn(&QuantLattice, &[usize]) -> i64,
    lattice: &QuantLattice,
    out: &mut Vec<i64>,
) {
    let ndim = lattice.shape().ndim();
    out.clear();
    out.extend(
        indices(lattice.shape())
            .enumerate()
            .map(|(off, idx)| lattice.at(off).wrapping_sub(predict(lattice, &idx[..ndim]))),
    );
}

/// The oracle's decode: [`Predictor::reconstruct_into`]'s contract, point
/// by point in row-major order through `predict`, which reads the lattice
/// as far as it is rebuilt. It classifies the codes itself and shares only
/// the wording of its errors with [`ResidualStream`], so a row kernel is
/// held to an independent reading of the stream.
///
/// # Panics
/// If `codes.len() != shape.len()`.
pub fn reconstruct_per_point(
    predict: impl Fn(&QuantLattice, &[usize]) -> i64,
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
    for (off, idx) in indices(shape).enumerate() {
        let value = match quant.check_one(codes[off]) {
            Ok(Some(delta)) => predict(&lattice, &idx[..shape.ndim()]).wrapping_add(delta),
            Ok(None) => *pending.next().ok_or_else(outliers_exhausted)?,
            Err(code) => return Err(outside_alphabet(code, quant)),
        };
        lattice.as_mut_slice()[off] = value;
    }
    *out = lattice.into_vec();
    match pending.next() {
        None => Ok(()),
        Some(_) => Err(outliers_left()),
    }
}

#[cold]
fn outliers_exhausted() -> CfcError {
    CfcError::Corrupt {
        context: "residual stream",
        detail: "outlier stream exhausted".into(),
    }
}

#[cold]
fn outside_alphabet(code: u32, quant: &QuantizerConfig) -> CfcError {
    CfcError::Corrupt {
        context: "residual stream",
        detail: format!("code {code} outside alphabet of radius {}", quant.radius),
    }
}

#[cold]
fn outliers_left() -> CfcError {
    CfcError::Corrupt {
        context: "residual stream",
        detail: "outlier stream not fully consumed".into(),
    }
}

/// An untrusted residual stream as a decode reads it, in scan order: what
/// each code stands for, the outlier each escape takes, and the three ways
/// the stream can be malformed — a code outside the alphabet, an escape
/// with no outlier left ([`value`](Self::value)), and outliers no escape took
/// ([`finish`](Self::finish)). Every decode reads its codes through one:
/// Lorenzo's row kernels, both hybrids' in `cfc-core`, and the check of the
/// codes a decode of leading rows does not walk.
pub struct ResidualStream<'a> {
    quant: QuantizerConfig,
    outliers: std::slice::Iter<'a, i64>,
}

impl<'a> ResidualStream<'a> {
    pub fn new(quant: &QuantizerConfig, outliers: &'a [i64]) -> Self {
        ResidualStream {
            quant: *quant,
            outliers: outliers.iter(),
        }
    }

    /// The residuals of `codes` when every one is a residual — nothing to
    /// pop, nothing to refuse: a row kernel's fast path — else `None`.
    #[inline]
    pub fn residuals<'c>(&self, codes: &'c [u32]) -> Option<impl Iterator<Item = i64> + 'c> {
        let radius = self.quant.radius as i64;
        (codes.iter().fold(0, |m, &c| m.max(c)) < self.quant.escape())
            .then(|| codes.iter().map(move |&code| code as i64 - radius))
    }

    /// The sample the next code, `code`, stands for, given its prediction:
    /// the prediction plus a residual, wrapping, or for the escape the
    /// next outlier.
    #[inline]
    pub fn value(&mut self, code: u32, prediction: i64) -> Result<i64, CfcError> {
        match self.quant.check_one(code) {
            Ok(Some(delta)) => Ok(prediction.wrapping_add(delta)),
            Ok(None) => self.outliers.next().copied().ok_or_else(outliers_exhausted),
            Err(code) => Err(outside_alphabet(code, &self.quant)),
        }
    }

    /// Read `codes` with no lattice to rebuild: what a decode that stops
    /// early still owes the rest of the stream.
    pub fn skip(&mut self, codes: &[u32]) -> Result<(), CfcError> {
        if self.residuals(codes).is_some() {
            return Ok(());
        }
        codes
            .iter()
            .try_for_each(|&code| self.value(code, 0).map(drop))
    }

    /// The end of the stream: every outlier must have been taken.
    pub fn finish(mut self) -> Result<(), CfcError> {
        match self.outliers.next() {
            None => Ok(()),
            Some(_) => Err(outliers_left()),
        }
    }
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
    stream: &mut ResidualStream<'_>,
) -> Result<(), CfcError> {
    let mut acc = 0i64;
    if let Some(deltas) = stream.residuals(codes) {
        for (v, delta) in row.iter_mut().zip(deltas) {
            acc = acc.wrapping_add(delta);
            *v = v.wrapping_add(acc);
        }
        return Ok(());
    }
    for (v, &code) in row.iter_mut().zip(codes) {
        // the prediction is `s[j] + acc[j−1]`; what the code makes of it
        // restarts the sum at `c[j] − s[j]`
        let value = stream.value(code, v.wrapping_add(acc))?;
        acc = value.wrapping_sub(*v);
        *v = value;
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
        let mut stream = ResidualStream::new(quant, outliers);
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
            row_rec(row_codes, cur, &mut stream)?;
        }
        stream.finish()
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

    /// The oracle's residuals of `lat` under Lorenzo's rule.
    fn oracle_residuals(lat: &QuantLattice) -> Vec<i64> {
        let mut out = vec![7; 3];
        residuals_per_point(|l, i| LorenzoPredictor.predict(l, i), lat, &mut out);
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
        assert_eq!(bulk, oracle_residuals(&lat));
    }

    #[test]
    fn lorenzo_bulk_residuals_match_per_point_2d() {
        for (r, c) in [(1usize, 1usize), (1, 9), (9, 1), (13, 17), (32, 5)] {
            let lat = QuantLattice::from_vec(Shape::d2(r, c), pseudo_values(r * c, 0xB7));
            let mut bulk = Vec::new();
            LorenzoPredictor.residuals_into(&lat, &mut bulk);
            assert_eq!(bulk, oracle_residuals(&lat), "shape {r}x{c}");
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
            assert_eq!(bulk, oracle_residuals(&lat), "shape {a}x{b}x{c}");
        }
    }
}
