//! The optimizer CFNN training steps with.

/// One learnable parameter block: values and their accumulated gradients.
///
/// Returned by [`crate::Sequential::params`] so the optimizer can update in
/// place without knowing layer internals. Block order is stable across
/// calls — optimizer state (Adam moments) is keyed by position.
pub struct ParamSet<'a> {
    /// Parameter values.
    pub values: &'a mut [f32],
    /// Gradient accumulator (same length).
    pub grads: &'a mut [f32],
}

/// `values` with the accumulator `grads`, which starts at zeros the first
/// time it is asked for.
pub(crate) fn param_set<'a>(values: &'a mut [f32], grads: &'a mut Vec<f32>) -> ParamSet<'a> {
    grads.resize(values.len(), 0.0);
    ParamSet { values, grads }
}

/// First-moment decay.
const BETA1: f32 = 0.9;
/// Second-moment decay.
const BETA2: f32 = 0.999;
/// Numerical epsilon.
const EPS: f32 = 1e-8;

/// Adam (Kingma & Ba) with bias correction and the standard decays.
#[derive(Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Adam with standard hyperparameters and the given learning rate.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
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
        let b1t = 1.0 - BETA1.powi(self.t as i32);
        let b2t = 1.0 - BETA2.powi(self.t as i32);
        for ((p, m), v) in params.iter_mut().zip(&mut self.m).zip(&mut self.v) {
            assert_eq!(p.values.len(), m.len(), "parameter block shape changed");
            for i in 0..p.values.len() {
                let g = p.grads[i];
                m[i] = BETA1 * m[i] + (1.0 - BETA1) * g;
                v[i] = BETA2 * v[i] + (1.0 - BETA2) * g * g;
                let mhat = m[i] / b1t;
                let vhat = v[i] / b2t;
                p.values[i] -= self.lr * mhat / (vhat.sqrt() + EPS);
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
