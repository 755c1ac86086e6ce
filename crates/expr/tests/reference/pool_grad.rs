//! The pool-walking reverse mode: the reference the compiled tape is held
//! to bit for bit.
//!
//! Given adjoint seeds on a set of output expressions, one reverse sweep
//! over the whole [`ExprPool`], in reverse construction order, accumulates
//! the gradient of every variable. The tape compiles the same sweep; this
//! walk pays for every pool node, live or not, and exists only to check
//! the tape against. Test targets include this file by `#[path]`; it names
//! `felix_expr` by its external path, so the crate's own unit tests can
//! include it too.

use felix_expr::{BinOp, ENode, ExprId, ExprPool, GradError, UnOp, VarId};

/// Result of a reverse sweep: per-variable gradients.
#[derive(Clone, Debug)]
pub struct Gradients {
    /// `∂(Σ seeded outputs)/∂var`, indexed by [`VarId::index`].
    pub wrt_var: Vec<f64>,
}

impl Gradients {
    /// Gradient with respect to one variable.
    pub fn var(&self, v: VarId) -> f64 {
        self.wrt_var[v.index()]
    }
}

/// Options controlling differentiation of non-smooth operators.
#[derive(Clone, Copy, Debug, Default)]
pub struct GradOptions {
    /// If true, `min`/`max`/`abs`/`select` use sub-gradients (route to the
    /// active branch) and comparisons have zero gradient. If false (the
    /// default, matching the paper's pipeline where smoothing runs first),
    /// such operators produce a [`GradError`].
    pub subgradient: bool,
}

/// Reverse-mode gradients of a single output with seed 1.
///
/// # Errors
///
/// Returns [`GradError`] if the reachable DAG contains a non-differentiable
/// operator and `opts.subgradient` is false.
pub fn grad(
    pool: &ExprPool,
    output: ExprId,
    var_values: &[f64],
    n_vars: usize,
    opts: GradOptions,
) -> Result<Gradients, GradError> {
    grad_multi(pool, &[(output, 1.0)], var_values, n_vars, opts)
}

/// Reverse-mode gradients of a weighted sum of outputs.
///
/// `outputs` pairs each output expression with its adjoint seed; the result
/// is the gradient of `Σ_k seed_k · out_k` with respect to every variable:
/// seed feature `k` with `∂C/∂feature_k` to get `∂C/∂x` in one sweep.
///
/// # Errors
///
/// As [`grad`].
pub fn grad_multi(
    pool: &ExprPool,
    outputs: &[(ExprId, f64)],
    var_values: &[f64],
    n_vars: usize,
    opts: GradOptions,
) -> Result<Gradients, GradError> {
    let values = pool.eval_all(var_values);
    grad_multi_with_values(pool, outputs, &values, n_vars, opts)
}

/// [`grad_multi`] over an existing [`ExprPool::eval_all`] result.
///
/// # Errors
///
/// As [`grad`].
pub fn grad_multi_with_values(
    pool: &ExprPool,
    outputs: &[(ExprId, f64)],
    values: &[f64],
    n_vars: usize,
    opts: GradOptions,
) -> Result<Gradients, GradError> {
    let mut adjoint = vec![0.0f64; pool.len()];
    for &(out, seed) in outputs {
        adjoint[out.index()] += seed;
    }
    let mut wrt_var = vec![0.0f64; n_vars];
    // Reverse topological order = reverse construction order.
    for idx in (0..pool.len()).rev() {
        let a_out = adjoint[idx];
        if a_out == 0.0 {
            continue;
        }
        match pool.nodes()[idx] {
            ENode::Const(_) => {}
            ENode::Var(v) => {
                wrt_var[v.index()] += a_out;
            }
            ENode::Un(op, a) => {
                let va = values[a.index()];
                let d = match op {
                    UnOp::Neg => -1.0,
                    UnOp::Log => 1.0 / va,
                    UnOp::Exp => values[idx],
                    UnOp::Sqrt => 0.5 / values[idx],
                    UnOp::Abs => {
                        if !opts.subgradient {
                            return Err(GradError {
                                node: pool.nodes()[idx],
                            });
                        }
                        if va >= 0.0 {
                            1.0
                        } else {
                            -1.0
                        }
                    }
                };
                adjoint[a.index()] += a_out * d;
            }
            ENode::Bin(op, a, b) => {
                let (va, vb) = (values[a.index()], values[b.index()]);
                let (da, db) = match op {
                    BinOp::Add => (1.0, 1.0),
                    BinOp::Sub => (1.0, -1.0),
                    BinOp::Mul => (vb, va),
                    BinOp::Div => (1.0 / vb, -va / (vb * vb)),
                    BinOp::Pow => {
                        // d/da a^b = b a^(b-1); d/db a^b = a^b ln a.
                        let v = values[idx];
                        let da = if va == 0.0 { 0.0 } else { vb * v / va };
                        let db = if va > 0.0 { v * va.ln() } else { 0.0 };
                        (da, db)
                    }
                    BinOp::Min | BinOp::Max => {
                        if !opts.subgradient {
                            return Err(GradError {
                                node: pool.nodes()[idx],
                            });
                        }
                        let a_active = match op {
                            BinOp::Min => va <= vb,
                            _ => va >= vb,
                        };
                        if a_active {
                            (1.0, 0.0)
                        } else {
                            (0.0, 1.0)
                        }
                    }
                };
                adjoint[a.index()] += a_out * da;
                adjoint[b.index()] += a_out * db;
            }
            ENode::Cmp(..) => {
                if !opts.subgradient {
                    return Err(GradError {
                        node: pool.nodes()[idx],
                    });
                }
                // Piecewise-constant: zero gradient everywhere it exists.
            }
            ENode::Select(c, t, e) => {
                if !opts.subgradient {
                    return Err(GradError {
                        node: pool.nodes()[idx],
                    });
                }
                if values[c.index()] != 0.0 {
                    adjoint[t.index()] += a_out;
                } else {
                    adjoint[e.index()] += a_out;
                }
            }
        }
    }
    Ok(Gradients { wrt_var })
}

/// Central finite-difference gradient of `output`, for checking the
/// analytic sweep.
pub fn grad_numeric(pool: &ExprPool, output: ExprId, var_values: &[f64], eps: f64) -> Vec<f64> {
    let mut out = vec![0.0; var_values.len()];
    let mut vals = var_values.to_vec();
    for i in 0..var_values.len() {
        let orig = vals[i];
        vals[i] = orig + eps;
        let hi = pool.eval(output, &vals);
        vals[i] = orig - eps;
        let lo = pool.eval(output, &vals);
        vals[i] = orig;
        out[i] = (hi - lo) / (2.0 * eps);
    }
    out
}
