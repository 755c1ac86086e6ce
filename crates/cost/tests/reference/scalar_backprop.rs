//! The per-sample scalar backward pass: the reference the batched training
//! step is held to byte for byte.
//!
//! One sample at a time, from its output seed down to layer 0: gate by the
//! ReLU (`act > 0`), skip every zero-gated output row, add the live rows
//! into the weight and bias gradients, then push the gradient one layer
//! down, one fused multiply-add per term as in the product's kernels. This
//! is how training ran before its batched backward, and it exists only to
//! check that kernel against. The crate's unit tests include this file by
//! `#[path]`; it reads the model's private weights, so no other target can.

use crate::Mlp;

/// Per-layer weight and bias gradients, shaped like the parameters.
pub type ParamGrads = (Vec<Vec<f32>>, Vec<Vec<f32>>);

/// Backpropagates per-sample output seeds into parameter gradients, from
/// the sample-major activations (`acts[layer][s * dim + i]`) a forward pass
/// kept. A zero seed (either sign) skips its sample entirely.
pub fn backprop_with_seeds(mlp: &Mlp, acts: &[Vec<f32>], seeds: &[f32]) -> ParamGrads {
    let mut gw: Vec<Vec<f32>> = mlp.w.iter().map(|w| vec![0.0; w.len()]).collect();
    let mut gb: Vec<Vec<f32>> = mlp.b.iter().map(|b| vec![0.0; b.len()]).collect();
    let n_layers = mlp.w.len();
    for (s, &seed) in seeds.iter().enumerate() {
        if seed == 0.0 {
            continue;
        }
        let mut grad = vec![seed];
        for li in (0..n_layers).rev() {
            let out_dim = mlp.b[li].len();
            let in_dim = mlp.w[li].len() / out_dim;
            let inp = &acts[li][s * in_dim..(s + 1) * in_dim];
            let out = &acts[li + 1][s * out_dim..(s + 1) * out_dim];
            let gated: Vec<f32> = if li + 1 < n_layers {
                (0..out_dim)
                    .map(|o| if out[o] > 0.0 { grad[o] } else { 0.0 })
                    .collect()
            } else {
                grad.clone()
            };
            for o in 0..out_dim {
                if gated[o] == 0.0 {
                    continue;
                }
                gb[li][o] += gated[o];
                let row = &mut gw[li][o * in_dim..(o + 1) * in_dim];
                for i in 0..in_dim {
                    row[i] = gated[o].mul_add(inp[i], row[i]);
                }
            }
            let w = &mlp.w[li];
            let mut gin = vec![0.0f32; in_dim];
            for o in 0..out_dim {
                if gated[o] == 0.0 {
                    continue;
                }
                let row = &w[o * in_dim..(o + 1) * in_dim];
                for i in 0..in_dim {
                    gin[i] = gated[o].mul_add(row[i], gin[i]);
                }
            }
            grad = gin;
        }
    }
    (gw, gb)
}

/// Sample-major activations of `rows` from one scalar forward per sample:
/// `acts[layer][s * dim + i]`, layer 0 the normalized inputs.
pub fn scalar_acts(mlp: &Mlp, rows: &[&[f64]]) -> Vec<Vec<f32>> {
    let mut acts = vec![Vec::new(); crate::LAYER_SIZES.len()];
    for x in rows {
        let (a, _) = mlp.forward_cached(&mlp.normalize(x));
        for (dst, layer) in acts.iter_mut().zip(&a) {
            dst.extend_from_slice(layer);
        }
    }
    acts
}
