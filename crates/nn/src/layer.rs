//! The layer abstraction and trivial layers.

use crate::tensor::Tensor;

/// One learnable parameter block: values and their accumulated gradients.
///
/// Returned by [`Layer::params`] so optimizers can update in place without
/// knowing layer internals. Block order is stable across calls — optimizer
/// state (Adam moments) is keyed by position.
pub struct ParamSet<'a> {
    /// Parameter values.
    pub values: &'a mut [f32],
    /// Gradient accumulator (same length).
    pub grads: &'a mut [f32],
}

/// A differentiable layer.
///
/// The forward pass caches whatever the backward pass needs; backward
/// consumes the output gradient, accumulates parameter gradients, and —
/// only when asked — computes the input gradient. The layer at the bottom
/// of a stack is never asked: nothing reads the gradient of the data, and
/// for a convolution it costs as much as the forward pass.
pub trait Layer: Send {
    /// Forward pass. `train` enables caching for backward.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Backward pass; must follow a `forward(_, true)`. Returns the input
    /// gradient exactly when `want_input` is set.
    fn backward(&mut self, grad_out: &Tensor, want_input: bool) -> Option<Tensor>;

    /// Learnable parameter blocks (empty for stateless layers).
    fn params(&mut self) -> Vec<ParamSet<'_>> {
        Vec::new()
    }

    /// Zero all gradient accumulators.
    fn zero_grad(&mut self) {
        for p in self.params() {
            p.grads.fill(0.0);
        }
    }

    /// Total learnable parameter count.
    fn num_params(&mut self) -> usize {
        self.params().iter().map(|p| p.values.len()).sum()
    }

    /// Layer name for debugging/architecture dumps.
    fn name(&self) -> &'static str;
}

/// A copy of `input` for the backward pass, in the allocation the previous
/// training step's copy (if there was one) used.
pub(crate) fn keep(previous: Option<Tensor>, input: &Tensor) -> Tensor {
    match previous {
        Some(mut kept) => {
            kept.clone_from(input);
            kept
        }
        None => input.clone(),
    }
}

/// Rectified linear unit.
#[derive(Debug, Default)]
pub struct ReLU {
    mask: Vec<bool>,
}

impl ReLU {
    /// New ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

/// ReLU in place. A comparison, not `max`: NaN and `-0.0` pass through
/// unchanged, and inference must reproduce that bit for bit. Every element
/// is stored, so the comparison compiles to a select rather than a branch
/// that activations of mixed sign mispredict half the time.
pub(crate) fn relu_in_place(data: &mut [f32]) {
    for v in data {
        *v = if *v < 0.0 { 0.0 } else { *v };
    }
}

impl Layer for ReLU {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut out = input.clone();
        if train {
            self.mask.clear();
            self.mask.extend(input.data.iter().map(|&v| v > 0.0));
        }
        relu_in_place(&mut out.data);
        out
    }

    fn backward(&mut self, grad_out: &Tensor, want_input: bool) -> Option<Tensor> {
        assert_eq!(self.mask.len(), grad_out.len(), "backward without forward");
        want_input.then(|| {
            let mut g = grad_out.clone();
            for (v, &keep) in g.data.iter_mut().zip(&self.mask) {
                *v = if keep { *v } else { 0.0 };
            }
            g
        })
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut l = ReLU::new();
        let t = Tensor::from_vec(1, 1, 1, 4, vec![-1.0, 0.0, 2.0, -3.0]);
        let out = l.forward(&t, true);
        assert_eq!(out.data, vec![0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn relu_backward_masks() {
        let mut l = ReLU::new();
        let t = Tensor::from_vec(1, 1, 1, 4, vec![-1.0, 0.5, 2.0, -3.0]);
        let _ = l.forward(&t, true);
        let ones = Tensor::from_vec(1, 1, 1, 4, vec![1.0; 4]);
        let g = l
            .backward(&ones, true)
            .expect("asked for the input gradient");
        assert_eq!(g.data, vec![0.0, 1.0, 1.0, 0.0]);
        assert!(l.backward(&ones, false).is_none());
    }

    #[test]
    fn sigmoid_is_stable_and_bounded() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(100.0) <= 1.0);
        assert!(sigmoid(-100.0) >= 0.0);
        assert!(sigmoid(-100.0) < 1e-20);
    }

    #[test]
    fn relu_has_no_params() {
        let mut l = ReLU::new();
        assert_eq!(l.num_params(), 0);
    }
}
