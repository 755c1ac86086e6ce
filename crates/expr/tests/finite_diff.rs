//! Tests of the pool-walking reverse mode in `reference/pool_grad.rs`, the
//! reference the compiled tape is held to: hand-checked gradients, and on
//! seeded random expression trees, agreement with central differences.
//! Random cases come from fixed `StdRng` streams (no external
//! property-testing crate), so every run checks the identical case set.

use felix_expr::{ExprId, ExprPool, VarId, VarTable};
use pool_grad::{grad, grad_multi, grad_numeric, GradOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "reference/pool_grad.rs"]
mod pool_grad;

const N_VARS: usize = 3;

/// Builds a random smooth expression tree over `N_VARS` variables, keeping a
/// worklist of subtrees so the tree gets genuinely bushy (shared subtrees
/// make it a DAG — exactly what the pool-order reverse sweep must handle).
fn random_smooth_tree(p: &mut ExprPool, rng: &mut StdRng, n_ops: usize) -> ExprId {
    let mut vars = VarTable::new();
    let mut nodes: Vec<ExprId> = (0..N_VARS)
        .map(|i| {
            let v = vars.fresh(format!("v{i}"));
            p.var(v)
        })
        .collect();
    for _ in 0..n_ops {
        let a = nodes[rng.gen_range(0..nodes.len())];
        let b = nodes[rng.gen_range(0..nodes.len())];
        let node = match rng.gen_range(0u8..9) {
            0 => p.add(a, b),
            1 => p.sub(a, b),
            2 => p.mul(a, b),
            3 => {
                // Keep denominators away from zero: divide by 1.5 + b².
                let c = p.constf(1.5);
                let sq = p.mul(b, b);
                let denom = p.add(c, sq);
                p.div(a, denom)
            }
            4 => {
                // log of a strictly positive argument: log(1.1 + a²).
                let c = p.constf(1.1);
                let sq = p.mul(a, a);
                let arg = p.add(c, sq);
                p.log(arg)
            }
            5 => {
                // exp of a damped argument so values stay in range.
                let s = p.constf(0.05);
                let t = p.mul(a, s);
                p.exp(t)
            }
            6 => {
                let c = p.constf(2.0);
                let sq = p.mul(a, a);
                let arg = p.add(c, sq);
                p.sqrt(arg)
            }
            7 => p.neg(a),
            _ => {
                // a^c with positive base: (1.2 + a²)^1.7.
                let c = p.constf(1.2);
                let sq = p.mul(a, a);
                let base = p.add(c, sq);
                let e = p.constf(1.7);
                p.pow(base, e)
            }
        };
        nodes.push(node);
    }
    *nodes.last().expect("non-empty")
}

fn assert_grad_close(ad: f64, fd: f64, ctx: &str) {
    let tol = 1e-4 * (1.0 + fd.abs());
    assert!(
        (ad - fd).abs() <= tol,
        "{ctx}: analytic {ad} vs central-difference {fd}"
    );
}

#[test]
fn analytic_gradient_matches_central_differences_on_random_trees() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0001);
    let mut checked = 0usize;
    for case in 0..256 {
        let mut p = ExprPool::new();
        let n_ops = rng.gen_range(2usize..24);
        let root = random_smooth_tree(&mut p, &mut rng, n_ops);
        let at: Vec<f64> = (0..N_VARS).map(|_| rng.gen_range(-3.0f64..3.0)).collect();
        let val = p.eval(root, &at);
        if !val.is_finite() || val.abs() > 1e7 {
            continue; // deep exp/pow chains can overflow; skip those draws
        }
        let g = grad(&p, root, &at, N_VARS, GradOptions::default())
            .expect("smooth tree must differentiate without subgradients");
        let fd = grad_numeric(&p, root, &at, 1e-5);
        for (i, &d) in fd.iter().enumerate() {
            if d.abs() > 1e5 {
                continue; // FD itself is unreliable at steep points
            }
            assert_grad_close(g.wrt_var[i], d, &format!("case {case} var {i}"));
            checked += 1;
        }
    }
    assert!(checked > 600, "only {checked} comparisons ran");
}

#[test]
fn weighted_multi_output_gradient_matches_sum_of_parts() {
    // grad_multi of seeded outputs must equal the FD gradient of the
    // weighted sum — the contraction Felix uses to push ∂C/∂feature_k
    // through the feature formulas in one sweep.
    let mut rng = StdRng::seed_from_u64(0xD1FF_0002);
    for case in 0..64 {
        let mut p = ExprPool::new();
        let ops_a = rng.gen_range(2usize..12);
        let ops_b = rng.gen_range(2usize..12);
        let out_a = random_smooth_tree(&mut p, &mut rng, ops_a);
        let out_b = random_smooth_tree(&mut p, &mut rng, ops_b);
        let (sa, sb) = (rng.gen_range(-2.0f64..2.0), rng.gen_range(-2.0f64..2.0));
        let at: Vec<f64> = (0..N_VARS).map(|_| rng.gen_range(-2.0f64..2.0)).collect();
        let combined = {
            let ca = p.constf(sa);
            let cb = p.constf(sb);
            let ta = p.mul(ca, out_a);
            let tb = p.mul(cb, out_b);
            p.add(ta, tb)
        };
        if !p.eval(combined, &at).is_finite() {
            continue;
        }
        let g = grad_multi(
            &p,
            &[(out_a, sa), (out_b, sb)],
            &at,
            N_VARS,
            GradOptions::default(),
        )
        .expect("smooth");
        let fd = grad_numeric(&p, combined, &at, 1e-5);
        for (i, &d) in fd.iter().enumerate() {
            if d.abs() > 1e5 {
                continue;
            }
            assert_grad_close(g.wrt_var[i], d, &format!("case {case} var {i}"));
        }
    }
}

#[test]
fn subgradients_match_central_differences_away_from_breakpoints() {
    // min/max/abs/select are piecewise-smooth; where the active branch is
    // locally stable (arguments well separated), the subgradient equals the
    // true derivative, so FD must agree there.
    let mut rng = StdRng::seed_from_u64(0xD1FF_0003);
    let opts = GradOptions { subgradient: true };
    for case in 0..128 {
        let mut vars = VarTable::new();
        let vx = vars.fresh("x");
        let vy = vars.fresh("y");
        let mut p = ExprPool::new();
        let x = p.var(vx);
        let y = p.var(vy);
        // Draw points separated from every breakpoint of the tree below:
        // |x - y| (min/max), x = 0 (abs), x < 1 (select).
        let (a, b) = loop {
            let a = rng.gen_range(-4.0f64..4.0);
            let b = rng.gen_range(-4.0f64..4.0);
            if (a - b).abs() > 0.1 && a.abs() > 0.1 && (a - 1.0).abs() > 0.1 {
                break (a, b);
            }
        };
        let root = {
            let m = p.max(x, y);
            let n = p.min(x, y);
            let ab = p.abs(x);
            let one = p.constf(1.0);
            let cond = p.cmp(felix_expr::CmpOp::Lt, x, one);
            let sel = p.select(cond, m, n);
            let t = p.mul(sel, ab);
            p.add(t, n)
        };
        let at = [a, b];
        let g = grad(&p, root, &at, 2, opts).expect("subgradients enabled");
        let fd = grad_numeric(&p, root, &at, 1e-6);
        for (i, &d) in fd.iter().enumerate() {
            assert_grad_close(g.wrt_var[i], d, &format!("case {case} var {i}"));
        }
    }
}

#[test]
fn non_smooth_operators_error_without_subgradients() {
    let mut vars = VarTable::new();
    let vx = vars.fresh("x");
    let mut p = ExprPool::new();
    let x = p.var(vx);
    let c = p.constf(2.0);
    let m = p.max(x, c);
    assert!(grad(&p, m, &[1.0], 1, GradOptions::default()).is_err());
    assert!(grad(&p, m, &[1.0], 1, GradOptions { subgradient: true }).is_ok());
}

fn setup2() -> (ExprPool, VarId, VarId) {
    let mut vars = VarTable::new();
    let vx = vars.fresh("x");
    let vy = vars.fresh("y");
    (ExprPool::new(), vx, vy)
}

#[test]
fn grad_of_product() {
    let (mut p, vx, vy) = setup2();
    let x = p.var(vx);
    let y = p.var(vy);
    let f = p.mul(x, y);
    let g = grad(&p, f, &[3.0, 5.0], 2, GradOptions::default()).unwrap();
    assert_eq!(g.var(vx), 5.0);
    assert_eq!(g.var(vy), 3.0);
}

#[test]
fn grad_matches_numeric_composite() {
    // f = log(x*y + 1) + sqrt(x) * exp(y / 3)
    let (mut p, vx, vy) = setup2();
    let x = p.var(vx);
    let y = p.var(vy);
    let xy = p.mul(x, y);
    let l = p.log1p(xy);
    let sx = p.sqrt(x);
    let c3 = p.constf(3.0);
    let y3 = p.div(y, c3);
    let ey = p.exp(y3);
    let t = p.mul(sx, ey);
    let f = p.add(l, t);
    let at = [2.0, 1.5];
    let g = grad(&p, f, &at, 2, GradOptions::default()).unwrap();
    let num = grad_numeric(&p, f, &at, 1e-6);
    assert!((g.var(vx) - num[0]).abs() < 1e-5, "{} vs {}", g.var(vx), num[0]);
    assert!((g.var(vy) - num[1]).abs() < 1e-5, "{} vs {}", g.var(vy), num[1]);
}

#[test]
fn grad_pow_both_args() {
    let (mut p, vx, vy) = setup2();
    let x = p.var(vx);
    let y = p.var(vy);
    let f = p.pow(x, y);
    let at = [2.0, 3.0];
    let g = grad(&p, f, &at, 2, GradOptions::default()).unwrap();
    let num = grad_numeric(&p, f, &at, 1e-6);
    assert!((g.var(vx) - num[0]).abs() < 1e-4);
    assert!((g.var(vy) - num[1]).abs() < 1e-4);
}

#[test]
fn grad_shared_subexpression() {
    // f = (x + y)^2 computed as t*t with shared t: checks adjoint
    // accumulation through a shared node.
    let (mut p, vx, vy) = setup2();
    let x = p.var(vx);
    let y = p.var(vy);
    let t = p.add(x, y);
    let f = p.mul(t, t);
    let g = grad(&p, f, &[1.0, 2.0], 2, GradOptions::default()).unwrap();
    assert_eq!(g.var(vx), 6.0); // 2 (x+y)
    assert_eq!(g.var(vy), 6.0);
}

#[test]
fn nondifferentiable_errors_without_subgradient() {
    let (mut p, vx, _vy) = setup2();
    let x = p.var(vx);
    let c = p.constf(0.0);
    let f = p.max(x, c);
    let err = grad(&p, f, &[1.0, 0.0], 2, GradOptions::default());
    assert!(err.is_err());
    let msg = format!("{}", err.unwrap_err());
    assert!(msg.contains("non-differentiable"));
}

#[test]
fn subgradient_routes_max() {
    let (mut p, vx, _vy) = setup2();
    let x = p.var(vx);
    let c = p.constf(0.0);
    let f = p.max(x, c);
    let opts = GradOptions { subgradient: true };
    let g = grad(&p, f, &[2.0, 0.0], 2, opts).unwrap();
    assert_eq!(g.var(vx), 1.0);
    let g = grad(&p, f, &[-2.0, 0.0], 2, opts).unwrap();
    assert_eq!(g.var(vx), 0.0);
}

#[test]
fn multi_output_seeding_is_linear() {
    // grad of 2*f + 3*g via seeds equals 2*grad(f) + 3*grad(g).
    let (mut p, vx, vy) = setup2();
    let x = p.var(vx);
    let y = p.var(vy);
    let f = p.mul(x, y);
    let g_expr = p.add(x, y);
    let at = [4.0, 7.0];
    let combined = grad_multi(
        &p,
        &[(f, 2.0), (g_expr, 3.0)],
        &at,
        2,
        GradOptions::default(),
    )
    .unwrap();
    let gf = grad(&p, f, &at, 2, GradOptions::default()).unwrap();
    let gg = grad(&p, g_expr, &at, 2, GradOptions::default()).unwrap();
    for v in [vx, vy] {
        let expect = 2.0 * gf.var(v) + 3.0 * gg.var(v);
        assert!((combined.var(v) - expect).abs() < 1e-12);
    }
}

#[test]
fn unreached_nodes_do_not_contribute() {
    let (mut p, vx, vy) = setup2();
    let x = p.var(vx);
    let y = p.var(vy);
    let _dead = p.exp(y); // never part of the output
    let f = p.mul(x, x);
    let g = grad(&p, f, &[3.0, 100.0], 2, GradOptions::default()).unwrap();
    assert_eq!(g.var(vy), 0.0);
    assert_eq!(g.var(vx), 6.0);
}
