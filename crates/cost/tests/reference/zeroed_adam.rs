//! The Adam update on stored, zero-initialised moments: the reference the
//! training step's update is held to byte for byte.
//!
//! Every step reads both moments of every parameter back from its buffer
//! and writes them again, whether or not a later step reads them. This is
//! how training updated its weights before one-step calls stopped keeping
//! moments, and it exists only to check that update against. The crate's
//! unit tests include this file by `#[path]`; it writes the model's private
//! weights, so no other target can.

use crate::Mlp;

/// Adam state with a zeroed moment pair for every parameter.
pub struct ZeroedAdam {
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl ZeroedAdam {
    /// Zeroed moments sized for `mlp`.
    pub fn for_model(mlp: &Mlp) -> Self {
        let n = mlp.num_params();
        ZeroedAdam { m: vec![0.0; n], v: vec![0.0; n], t: 0 }
    }

    /// One Adam step (β1 = 0.9, β2 = 0.999, ε = 1e-8) over the weights
    /// then the biases of each layer, in the model's parameter order.
    pub fn step(&mut self, mlp: &mut Mlp, gw: &[Vec<f32>], gb: &[Vec<f32>], lr: f32) {
        let (beta1, beta2, eps) = (0.9f32, 0.999f32, 1e-8f32);
        self.t += 1;
        let t = self.t as f32;
        let bc1 = 1.0 - beta1.powf(t);
        let bc2 = 1.0 - beta2.powf(t);
        let mut idx = 0usize;
        let mut update = |p: &mut f32, g: f32| {
            let m = &mut self.m[idx];
            let v = &mut self.v[idx];
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            let mhat = *m / bc1;
            let vhat = *v / bc2;
            *p -= lr * mhat / (vhat.sqrt() + eps);
            idx += 1;
        };
        for li in 0..mlp.w.len() {
            for (p, &g) in mlp.w[li].iter_mut().zip(&gw[li]) {
                update(p, g);
            }
            for (p, &g) in mlp.b[li].iter_mut().zip(&gb[li]) {
                update(p, g);
            }
        }
    }
}
