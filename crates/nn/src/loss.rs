//! The training loss.

/// Mean-squared error of `pred` against `target`, over all elements.
///
/// Returns the loss and writes `d loss / d pred` into `grad` — what the
/// network's backward pass starts from.
pub fn mse_loss(pred: &[f32], target: &[f32], grad: &mut [f32]) -> f32 {
    assert_eq!(pred.len(), target.len(), "loss shape mismatch");
    assert_eq!(grad.len(), pred.len(), "loss gradient length");
    let n = pred.len() as f32;
    let mut loss = 0.0f64;
    for ((g, &p), &t) in grad.iter_mut().zip(pred).zip(target) {
        let d = p - t;
        loss += (d as f64) * (d as f64);
        *g = 2.0 * d / n;
    }
    (loss / n as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_loss_for_identical() {
        let t = [1.0, 2.0, 3.0];
        let mut g = [f32::NAN; 3];
        assert_eq!(mse_loss(&t, &t, &mut g), 0.0);
        assert!(g.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn known_value() {
        let mut g = [0.0; 2];
        let l = mse_loss(&[1.0, 3.0], &[0.0, 0.0], &mut g);
        assert!((l - 5.0).abs() < 1e-6); // (1 + 9) / 2
        assert_eq!(g, [1.0, 3.0]); // 2·d/n
    }

    #[test]
    fn gradient_direction_reduces_loss() {
        let (p, t) = ([2.0f32, -1.0], [0.0, 0.0]);
        let mut g = [0.0; 2];
        let l0 = mse_loss(&p, &t, &mut g);
        let stepped = [p[0] - 0.1 * g[0], p[1] - 0.1 * g[1]];
        let l1 = mse_loss(&stepped, &t, &mut g);
        assert!(l1 < l0);
    }
}
