//! The pool-walking objective: the reference `SketchObjective`'s tape path
//! is held to bit for bit.
//!
//! It evaluates the *entire* expression pool forward, then runs the
//! pool-walking reverse mode (`felix-expr`'s `tests/reference/pool_grad.rs`)
//! back over it, with the same `y` clamp, penalty clamp and seed order as
//! the tape path. Test targets include this file by `#[path]`; it names
//! `felix` by its external path, so the crate's own unit tests can include
//! it too.

use felix::objective::{SketchObjective, PENALTY_CLAMP, Y_CLAMP};
use felix_cost::Mlp;
use felix_expr::ExprId;
use pool_grad::GradOptions;

#[allow(dead_code)] // the objective uses `grad_multi_with_values` only
#[path = "../../../expr/tests/reference/pool_grad.rs"]
mod pool_grad;

/// The full variable-value vector for pool evaluation: every `y` clamped
/// exactly as `SketchObjective::set_lane` clamps it, every other variable 1.
pub fn full_values(obj: &SketchObjective, y: &[f64]) -> Vec<f64> {
    let mut vals = vec![1.0; obj.program.vars.len()];
    for (i, &yv) in obj.y_vars.iter().enumerate() {
        vals[yv.index()] = y[i].clamp(-Y_CLAMP, Y_CLAMP);
    }
    vals
}

/// Stage 1: one forward sweep of the entire pool. Returns every node's
/// value plus the log-feature vector (the MLP input).
pub fn eval_feats_pool(obj: &SketchObjective, y: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let vals = full_values(obj, y);
    let node_vals = obj.program.pool.eval_all(&vals);
    let feats: Vec<f64> = obj
        .log_feat_roots
        .iter()
        .map(|e| node_vals[e.index()])
        .collect();
    (node_vals, feats)
}

/// Stage 2: given the pool values from [`eval_feats_pool`] and the MLP's
/// `(score, ∂C/∂feat)` at this point, applies the penalty terms and runs
/// the reverse sweep over the full pool. Returns
/// `(objective, predicted_score, gradient)`.
pub fn grad_from_dscore_pool(
    obj: &SketchObjective,
    node_vals: &[f64],
    score: f64,
    dscore: &[f64],
    lambda: f64,
) -> (f64, f64, Vec<f64>) {
    // Seeds: features get −∂C/∂feat; penalties get λ·2·max(g,0)
    // (the analytic derivative of max(g,0)², which is differentiable).
    let mut seeds: Vec<(ExprId, f64)> = obj
        .log_feat_roots
        .iter()
        .zip(dscore)
        .map(|(&e, &d)| (e, -d))
        .collect();
    let mut penalty_val = 0.0;
    for &g in &obj.penalty_roots {
        let gv = node_vals[g.index()].min(PENALTY_CLAMP);
        if gv > 0.0 {
            penalty_val += lambda * gv * gv;
            seeds.push((g, lambda * 2.0 * gv));
        }
    }
    let grads = pool_grad::grad_multi_with_values(
        &obj.program.pool,
        &seeds,
        node_vals,
        obj.program.vars.len(),
        GradOptions {
            subgradient: !obj.pipeline.smoothing,
        },
    )
    .expect("objective DAG is smooth by construction");
    let grad: Vec<f64> = obj.y_vars.iter().map(|&v| grads.var(v)).collect();
    let objective = -score + penalty_val;
    (objective, score, grad)
}

/// `SketchObjective::cost_and_grad` by pool walk: `(objective,
/// predicted_score, gradient)`.
pub fn cost_and_grad_pool(
    obj: &SketchObjective,
    model: &Mlp,
    lambda: f64,
    y: &[f64],
) -> (f64, f64, Vec<f64>) {
    let (node_vals, feats) = eval_feats_pool(obj, y);
    let (score, dscore) = model.input_gradient(&feats);
    grad_from_dscore_pool(obj, &node_vals, score, &dscore, lambda)
}
