//! The optimizer CFNN training steps with.

use crate::layer::ParamSet;

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical epsilon.
    pub eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Adam with standard hyperparameters and the given learning rate.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Apply one update step to all parameter blocks. Blocks must be passed
    /// in a stable order across steps (state is positional).
    pub fn step(&mut self, params: &mut [ParamSet<'_>]) {
        if self.m.len() != params.len() {
            self.m = params.iter().map(|p| vec![0.0; p.values.len()]).collect();
            self.v = params.iter().map(|p| vec![0.0; p.values.len()]).collect();
        }
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for ((p, m), v) in params.iter_mut().zip(&mut self.m).zip(&mut self.v) {
            assert_eq!(p.values.len(), m.len(), "parameter block shape changed");
            for i in 0..p.values.len() {
                let g = p.grads[i];
                m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * g;
                v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * g * g;
                let mhat = m[i] / b1t;
                let vhat = v[i] / b2t;
                p.values[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = (x − 3)² with Adam.
    fn minimize(opt: &mut Adam, steps: usize) -> f32 {
        let mut x = vec![0.0f32];
        let mut g = vec![0.0f32];
        for _ in 0..steps {
            g[0] = 2.0 * (x[0] - 3.0);
            let mut params = [ParamSet {
                values: &mut x,
                grads: &mut g,
            }];
            opt.step(&mut params);
        }
        x[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::new(0.3);
        let x = minimize(&mut adam, 300);
        assert!((x - 3.0).abs() < 1e-2, "x = {x}");
    }

    #[test]
    fn adam_bias_correction_gives_large_first_step() {
        // with bias correction the very first Adam step ≈ lr (direction of g)
        let mut adam = Adam::new(0.1);
        let mut x = vec![0.0f32];
        let mut g = vec![1.0f32];
        let mut params = [ParamSet {
            values: &mut x,
            grads: &mut g,
        }];
        adam.step(&mut params);
        assert!((x[0] + 0.1).abs() < 1e-3, "first step {}", x[0]);
    }
}
