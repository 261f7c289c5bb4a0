//! First-order optimizers: SGD with momentum and Adam.
//!
//! Optimizers are stateful per parameter tensor; tensors are identified by
//! a caller-assigned `param_id` (the network uses `2*layer` for weights and
//! `2*layer + 1` for biases). This keeps the optimizer decoupled from the
//! network structure.

use std::collections::HashMap;

/// A first-order gradient-descent optimizer.
///
/// Implementations update `params` in place from `grads`; both slices must
/// have the same length for a given `param_id` across all calls.
pub trait Optimizer {
    /// Applies one update step to the tensor identified by `param_id`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `params.len() != grads.len()` or if the
    /// tensor size changes between calls with the same id.
    fn step(&mut self, param_id: usize, params: &mut [f32], grads: &[f32]);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Replaces the learning rate (for schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Stochastic gradient descent with classical momentum.
///
/// `v ← μ·v + g; p ← p − lr·v`
///
/// # Examples
///
/// ```
/// use klinq_nn::optim::{Optimizer, Sgd};
/// let mut opt = Sgd::new(0.1).with_momentum(0.9);
/// let mut p = [1.0f32];
/// opt.step(0, &mut p, &[1.0]);
/// assert!((p[0] - 0.9).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: HashMap<usize, Vec<f32>>,
}

impl Sgd {
    /// Creates plain SGD with the given learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive and finite.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        Self {
            lr,
            momentum: 0.0,
            velocity: HashMap::new(),
        }
    }

    /// Adds classical momentum.
    ///
    /// # Panics
    ///
    /// Panics if `momentum ∉ [0, 1)`.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        self.momentum = momentum;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, param_id: usize, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
        if self.momentum == 0.0 {
            for (p, &g) in params.iter_mut().zip(grads) {
                *p -= self.lr * g;
            }
            return;
        }
        let v = self
            .velocity
            .entry(param_id)
            .or_insert_with(|| vec![0.0; params.len()]);
        assert_eq!(v.len(), params.len(), "tensor size changed for param_id {param_id}");
        for ((p, &g), vi) in params.iter_mut().zip(grads).zip(v.iter_mut()) {
            *vi = self.momentum * *vi + g;
            *p -= self.lr * *vi;
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    state: HashMap<usize, AdamState>,
}

#[derive(Debug, Clone)]
struct AdamState {
    m: Vec<f32>,
    v: Vec<f32>,
    t: u32,
}

impl Adam {
    /// Creates Adam with the given learning rate and standard defaults
    /// (`β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`).
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive and finite.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            state: HashMap::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, param_id: usize, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
        let st = self.state.entry(param_id).or_insert_with(|| AdamState {
            m: vec![0.0; params.len()],
            v: vec![0.0; params.len()],
            t: 0,
        });
        assert_eq!(st.m.len(), params.len(), "tensor size changed for param_id {param_id}");
        st.t += 1;
        let bc1 = 1.0 - self.beta1.powi(st.t as i32);
        let bc2 = 1.0 - self.beta2.powi(st.t as i32);
        for (((p, &g), m), v) in params
            .iter_mut()
            .zip(grads)
            .zip(st.m.iter_mut())
            .zip(st.v.iter_mut())
        {
            *m = self.beta1 * *m + (1.0 - self.beta1) * g;
            *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *p -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(p) = (p − 3)² with gradient 2(p − 3).
    fn converges_to_three(opt: &mut dyn Optimizer, iters: usize) -> f32 {
        let mut p = [0.0f32];
        for _ in 0..iters {
            let g = [2.0 * (p[0] - 3.0)];
            opt.step(0, &mut p, &g);
        }
        p[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        let p = converges_to_three(&mut opt, 200);
        assert!((p - 3.0).abs() < 1e-3, "p = {p}");
    }

    #[test]
    fn sgd_momentum_converges_faster() {
        let mut plain = Sgd::new(0.02);
        let mut mom = Sgd::new(0.02).with_momentum(0.9);
        let p_plain = converges_to_three(&mut plain, 40);
        let p_mom = converges_to_three(&mut mom, 40);
        assert!((p_mom - 3.0).abs() < (p_plain - 3.0).abs());
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.3);
        let p = converges_to_three(&mut opt, 300);
        assert!((p - 3.0).abs() < 1e-2, "p = {p}");
    }

    #[test]
    fn adam_first_step_has_unit_scale() {
        // With bias correction, the first Adam step is ≈ lr·sign(g).
        let mut opt = Adam::new(0.5);
        let mut p = [0.0f32];
        opt.step(0, &mut p, &[7.3]);
        assert!((p[0] + 0.5).abs() < 1e-4, "p = {}", p[0]);
    }

    #[test]
    fn per_tensor_state_is_independent() {
        let mut opt = Sgd::new(0.1).with_momentum(0.9);
        let mut a = [0.0f32];
        let mut b = [0.0f32; 2];
        opt.step(0, &mut a, &[1.0]);
        opt.step(1, &mut b, &[1.0, 2.0]); // different size, different id: fine
        opt.step(0, &mut a, &[1.0]);
        assert!(a[0] < -0.2); // momentum accumulated on id 0 only
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn step_rejects_mismatched_grads() {
        let mut opt = Sgd::new(0.1);
        let mut p = [0.0f32];
        opt.step(0, &mut p, &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "tensor size changed")]
    fn step_rejects_resized_tensor() {
        let mut opt = Adam::new(0.1);
        let mut p = [0.0f32; 2];
        opt.step(0, &mut p, &[1.0, 1.0]);
        let mut q = [0.0f32; 3];
        opt.step(0, &mut q, &[1.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn bad_lr_rejected() {
        let _ = Sgd::new(-0.1);
    }

    #[test]
    fn lr_schedule_hooks() {
        let mut opt = Adam::new(0.1);
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }

    #[test]
    #[should_panic(expected = "momentum must be in")]
    fn bad_momentum_rejected() {
        let _ = Sgd::new(0.1).with_momentum(1.0);
    }
}
