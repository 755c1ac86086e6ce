//! Single-point conveniences over [`CompiledGradTape`]'s batched passes: a
//! batch of one lane, so tests can set one point beside the pool-walking
//! reference (`pool_grad.rs`). Test targets include this file by `#[path]`.

use felix_expr::{CompiledGradTape, GradError};

/// Evaluates every root at one point into a fresh vector.
pub fn eval(tape: &CompiledGradTape, var_values: &[f64]) -> Vec<f64> {
    let mut vals = Vec::new();
    tape.forward_batch(var_values, 1, &mut vals);
    (0..tape.n_roots())
        .map(|k| root_value(tape, &vals, 1, k, 0))
        .collect()
}

/// Seeds every root at one point and returns the per-variable gradient
/// (`n_vars` entries).
///
/// # Errors
///
/// Returns [`GradError`] as [`CompiledGradTape::backward_batch`] does.
pub fn grad(
    tape: &CompiledGradTape,
    seeds: &[f64],
    var_values: &[f64],
    n_vars: usize,
    subgradient: bool,
) -> Result<Vec<f64>, GradError> {
    let mut vals = Vec::new();
    tape.forward_batch(var_values, 1, &mut vals);
    let (mut adj, mut grad) = (Vec::new(), Vec::new());
    tape.backward_batch(seeds, &vals, n_vars, &mut adj, &mut grad, subgradient)?;
    Ok(grad)
}

/// Value of root `k` in lane `lane` of a [`CompiledGradTape::forward_batch`]
/// result.
pub fn root_value(
    tape: &CompiledGradTape,
    vals: &[f64],
    batch: usize,
    k: usize,
    lane: usize,
) -> f64 {
    tape.root_row(vals, batch, k)[lane]
}
