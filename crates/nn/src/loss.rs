//! The training loss.

use crate::tensor::Tensor;

/// Mean-squared error over all elements.
///
/// Returns `(loss, d loss / d pred)` — the gradient tensor feeds straight
/// into the last layer's backward pass.
pub fn mse_loss(pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
    assert_eq!(pred.dims(), target.dims(), "loss shape mismatch");
    let n = pred.len() as f32;
    let mut grad = pred.zeros_like();
    let mut loss = 0.0f64;
    for i in 0..pred.len() {
        let d = pred.data[i] - target.data[i];
        loss += (d as f64) * (d as f64);
        grad.data[i] = 2.0 * d / n;
    }
    ((loss / n as f64) as f32, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_loss_for_identical() {
        let t = Tensor::from_vec(1, 1, 1, 3, vec![1.0, 2.0, 3.0]);
        let (l, g) = mse_loss(&t, &t);
        assert_eq!(l, 0.0);
        assert!(g.data.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn known_value() {
        let p = Tensor::from_vec(1, 1, 1, 2, vec![1.0, 3.0]);
        let t = Tensor::from_vec(1, 1, 1, 2, vec![0.0, 0.0]);
        let (l, g) = mse_loss(&p, &t);
        assert!((l - 5.0).abs() < 1e-6); // (1 + 9) / 2
        assert_eq!(g.data, vec![1.0, 3.0]); // 2·d/n
    }

    #[test]
    fn gradient_direction_reduces_loss() {
        let p = Tensor::from_vec(1, 1, 1, 2, vec![2.0, -1.0]);
        let t = Tensor::from_vec(1, 1, 1, 2, vec![0.0, 0.0]);
        let (l0, g) = mse_loss(&p, &t);
        let stepped = Tensor::from_vec(
            1,
            1,
            1,
            2,
            p.data
                .iter()
                .zip(&g.data)
                .map(|(&v, &gr)| v - 0.1 * gr)
                .collect(),
        );
        let (l1, _) = mse_loss(&stepped, &t);
        assert!(l1 < l0);
    }
}
