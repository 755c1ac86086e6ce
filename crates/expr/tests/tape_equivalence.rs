//! Property tests: the compiled gradient tape is bit-identical to the
//! pool-walking reference (`eval_all` + `grad_multi_with_values`) on seeded
//! random expression DAGs at batch 1 and lane by lane at every batch width,
//! the batched structure-of-arrays mode matches the single-lane mode
//! bitwise, and tape gradients agree with central finite differences on
//! smooth DAGs.

use felix_expr::autodiff::GradOptions;
use felix_expr::{CompiledGradTape, ExprId, ExprPool, VarTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random DAG through the pool's smart constructors and returns a
/// few roots. `smooth_only` restricts to differentiable operators with
/// well-behaved magnitudes (for finite-difference checks); otherwise min /
/// max / abs / cmp / select are in play too (subgradient mode).
fn random_dag(
    rng: &mut StdRng,
    n_vars: usize,
    n_ops: usize,
    smooth_only: bool,
) -> (ExprPool, Vec<ExprId>) {
    let mut vars = VarTable::new();
    let mut p = ExprPool::new();
    let mut nodes: Vec<ExprId> = (0..n_vars)
        .map(|i| {
            let v = vars.fresh(format!("v{i}"));
            p.var(v)
        })
        .collect();
    for _ in 0..3 {
        let c = rng.gen_range(0.25..3.0);
        nodes.push(p.constf(c));
    }
    for _ in 0..n_ops {
        let a = nodes[rng.gen_range(0..nodes.len())];
        let b = nodes[rng.gen_range(0..nodes.len())];
        let choice = if smooth_only { rng.gen_range(0..7) } else { rng.gen_range(0..11) };
        let next = match choice {
            0 => p.add(a, b),
            1 => p.sub(a, b),
            2 => p.mul(a, b),
            3 => {
                // Keep denominators away from zero: b² + 1.
                let b2 = p.mul(b, b);
                let one = p.constf(1.0);
                let den = p.add(b2, one);
                p.div(a, den)
            }
            4 => {
                // exp of a damped argument to keep magnitudes sane.
                let k = p.constf(0.05);
                let damped = p.mul(a, k);
                p.exp(damped)
            }
            5 => {
                // log1p of a square keeps the argument > -1.
                let sq = p.mul(a, a);
                p.log1p(sq)
            }
            6 => {
                // sqrt of a positive expression: a² + 1.
                let sq = p.mul(a, a);
                let one = p.constf(1.0);
                let arg = p.add(sq, one);
                p.sqrt(arg)
            }
            7 => p.min(a, b),
            8 => p.max(a, b),
            9 => p.abs(a),
            _ => {
                let c = p.cmp(felix_expr::CmpOp::Gt, a, b);
                p.select(c, a, b)
            }
        };
        nodes.push(next);
    }
    // A few distinct roots from the most recently built (deepest) nodes.
    let n_roots = rng.gen_range(1..=3.min(nodes.len()));
    let roots = nodes[nodes.len() - n_roots..].to_vec();
    (p, roots)
}

fn random_point(rng: &mut StdRng, n_vars: usize) -> Vec<f64> {
    (0..n_vars).map(|_| rng.gen_range(0.3..2.5)).collect()
}

#[test]
fn tape_matches_pool_bitwise_on_random_dags() {
    let mut rng = StdRng::seed_from_u64(0xF311C5);
    for case in 0..60 {
        let n_vars = rng.gen_range(1..6);
        let n_ops = rng.gen_range(4..60);
        let (p, roots) = random_dag(&mut rng, n_vars, n_ops, false);
        let tape = CompiledGradTape::compile(&p, &roots);
        assert!(tape.len() <= p.len(), "case {case}: tape larger than pool");
        let seeds: Vec<f64> = (0..roots.len()).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let outputs: Vec<(ExprId, f64)> =
            roots.iter().copied().zip(seeds.iter().copied()).collect();
        for _ in 0..4 {
            let at = random_point(&mut rng, n_vars);
            // Values: every root bit-identical to the full-pool sweep.
            let full = p.eval_all(&at);
            let fast = tape.eval(&at);
            for (k, &r) in roots.iter().enumerate() {
                assert_eq!(
                    fast[k].to_bits(),
                    full[r.index()].to_bits(),
                    "case {case}: value of root {k} diverged"
                );
            }
            // Gradients: bit-identical to grad_multi_with_values.
            let reference = p
                .grad_multi_with_values(
                    &outputs,
                    full,
                    n_vars,
                    GradOptions { subgradient: true },
                )
                .expect("subgradient mode never errors");
            let grad = tape.grad(&seeds, &at, n_vars, true).expect("tape grad");
            for (v, (g, r)) in grad.iter().zip(&reference.wrt_var).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    r.to_bits(),
                    "case {case}: gradient wrt var {v} diverged"
                );
            }
        }
    }
}

#[test]
fn batched_soa_matches_single_lane_bitwise() {
    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    for case in 0..30 {
        let n_vars = rng.gen_range(1..5);
        let n_ops = rng.gen_range(4..40);
        let (p, roots) = random_dag(&mut rng, n_vars, n_ops, false);
        let tape = CompiledGradTape::compile(&p, &roots);
        let batch = rng.gen_range(2..9);
        let points: Vec<Vec<f64>> =
            (0..batch).map(|_| random_point(&mut rng, n_vars)).collect();
        let mut vars_soa = vec![0.0; n_vars * batch];
        for (lane, pt) in points.iter().enumerate() {
            for (v, &x) in pt.iter().enumerate() {
                vars_soa[v * batch + lane] = x;
            }
        }
        let mut seeds_soa = vec![0.0; roots.len() * batch];
        let per_lane_seeds: Vec<Vec<f64>> = (0..batch)
            .map(|lane| {
                (0..roots.len())
                    .map(|k| {
                        let s = rng.gen_range(-2.0..2.0);
                        seeds_soa[k * batch + lane] = s;
                        s
                    })
                    .collect()
            })
            .collect();
        let mut vals = Vec::new();
        tape.forward_batch(&vars_soa, batch, &mut vals);
        let (mut adj, mut grad) = (Vec::new(), Vec::new());
        tape.backward_batch(&seeds_soa, batch, &vals, n_vars, &mut adj, &mut grad, true)
            .expect("batched grad");
        for (lane, pt) in points.iter().enumerate() {
            let single = tape.eval(pt);
            for (k, sv) in single.iter().enumerate() {
                assert_eq!(
                    tape.root_value(&vals, batch, k, lane).to_bits(),
                    sv.to_bits(),
                    "case {case}: batched value diverged in lane {lane}"
                );
            }
            let single_grad = tape
                .grad(&per_lane_seeds[lane], pt, n_vars, true)
                .expect("single grad");
            for (v, sg) in single_grad.iter().enumerate() {
                assert_eq!(
                    grad[v * batch + lane].to_bits(),
                    sg.to_bits(),
                    "case {case}: batched gradient diverged in lane {lane}"
                );
            }
        }
    }
}

/// A hand-built DAG holding every operator whose backward rule has a shape
/// of its own: both operands one slot (`x+x`, `x·x`), `pow` in both
/// arguments, and the non-smooth `min`/`max`/`abs`/`cmp`/`select`. (The
/// smart constructors fold `x−x`, `x/x` and `min(x,x)` away; the tape's
/// unit tests intern those directly.) Every root depends on both variables.
fn alias_and_nonsmooth_dag() -> (ExprPool, Vec<ExprId>, usize) {
    let mut vars = VarTable::new();
    let mut p = ExprPool::new();
    let x = p.var(vars.fresh("x"));
    let y = p.var(vars.fresh("y"));
    let xx_add = p.add(x, x);
    let xx_mul = p.mul(x, x);
    let pw = p.pow(x, y);
    let lo = p.min(xx_mul, y);
    let hi = p.max(xx_add, pw);
    let gt = p.cmp(felix_expr::CmpOp::Gt, x, y);
    let sel = p.select(gt, lo, hi);
    let neg = p.neg(sel);
    let ab = p.abs(neg);
    let quot = p.div(xx_add, y);
    let r0 = p.add(ab, quot);
    let r1 = p.mul(quot, xx_mul);
    let r2 = p.sub(pw, lo);
    (p, vec![r0, r1, r2], vars.len())
}

#[test]
fn every_width_matches_the_pool_oracle_lane_by_lane() {
    // One kernel body serves every batch width — compile-time lane counts at
    // 2/4/8/16, a run-time count everywhere else — so the only independent
    // reference is the pool walker (`eval_all` + `grad_multi_with_values`).
    // Every width 1..=17 and 33 is checked against it lane by lane, on the
    // alias/non-smooth DAG and on random DAGs, under two seedings that
    // share one adjoint scratch (so the second sweep re-enters on what the
    // first left behind):
    // - zero-free seeds: adjoint rows are dense (or all-zero where a root
    //   does not reach), the branchless path;
    // - "dead" lanes (every root's seed exactly 0, every variable 0, so the
    //   lane's values are full of 0/0 and 1/0), further exact zeros
    //   scattered per root, and on odd cases an all-zero root row: rows
    //   with zeros in some lanes only, where a lane that is not skipped
    //   turns `0 · ∞` into NaN.
    let mut rng = StdRng::seed_from_u64(0x4EA1);
    let mut dags = vec![alias_and_nonsmooth_dag()];
    for _ in 0..5 {
        let n_vars = rng.gen_range(1..5);
        let n_ops = rng.gen_range(8..48);
        let (p, roots) = random_dag(&mut rng, n_vars, n_ops, false);
        dags.push((p, roots, n_vars));
    }
    for (case, (p, roots, n_vars)) in dags.iter().enumerate() {
        let n_vars = *n_vars;
        let tape = CompiledGradTape::compile(p, roots);
        let (mut vals, mut adj, mut grad) = (Vec::new(), Vec::new(), Vec::new());
        for batch in (1..=17).chain([33]) {
            for with_zeros in [false, true] {
                let dead = |lane: usize| with_zeros && (lane + batch).is_multiple_of(3);
                let points: Vec<Vec<f64>> = (0..batch)
                    .map(|lane| {
                        let pt = random_point(&mut rng, n_vars);
                        if dead(lane) { vec![0.0; n_vars] } else { pt }
                    })
                    .collect();
                let mut vars_soa = vec![0.0; n_vars * batch];
                for (lane, pt) in points.iter().enumerate() {
                    for (v, &x) in pt.iter().enumerate() {
                        vars_soa[v * batch + lane] = x;
                    }
                }
                let mut seeds_soa = vec![0.0; roots.len() * batch];
                for k in 0..roots.len() {
                    for lane in 0..batch {
                        let s: f64 = rng.gen_range(0.25..2.0);
                        let zero = with_zeros
                            && (dead(lane) || (lane + k).is_multiple_of(5) || (k == 0 && case % 2 == 1));
                        seeds_soa[k * batch + lane] = if zero { 0.0 } else { s };
                    }
                }
                tape.forward_batch(&vars_soa, batch, &mut vals);
                tape.backward_batch(&seeds_soa, batch, &vals, n_vars, &mut adj, &mut grad, true)
                    .expect("batched grad");
                let at = format!("case {case} batch {batch} zeros {with_zeros}");
                for (lane, pt) in points.iter().enumerate() {
                    let full = p.eval_all(pt);
                    for (k, &r) in roots.iter().enumerate() {
                        assert_eq!(
                            tape.root_value(&vals, batch, k, lane).to_bits(),
                            full[r.index()].to_bits(),
                            "{at}: value of root {k} diverged in lane {lane}"
                        );
                    }
                    let outputs: Vec<(ExprId, f64)> = roots
                        .iter()
                        .enumerate()
                        .map(|(k, &r)| (r, seeds_soa[k * batch + lane]))
                        .collect();
                    let reference = p
                        .grad_multi_with_values(
                            &outputs,
                            full,
                            n_vars,
                            GradOptions { subgradient: true },
                        )
                        .expect("subgradient mode never errors");
                    for (v, r) in reference.wrt_var.iter().enumerate() {
                        assert_eq!(
                            grad[v * batch + lane].to_bits(),
                            r.to_bits(),
                            "{at}: gradient wrt var {v} diverged in lane {lane}"
                        );
                    }
                }
                // `lane_roots_finite` on the last lane must report the
                // oracle's verdict.
                let last = batch - 1;
                let full = p.eval_all(&points[last]);
                assert_eq!(
                    tape.lane_roots_finite(&vals, batch, last),
                    roots.iter().all(|r| full[r.index()].is_finite()),
                    "{at}: lane_roots_finite diverged on last lane"
                );
            }
        }
    }
}

#[test]
fn tape_gradients_match_finite_differences() {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let mut checked = 0usize;
    for _ in 0..40 {
        let n_vars = rng.gen_range(1..4);
        let n_ops = rng.gen_range(4..24);
        let (p, roots) = random_dag(&mut rng, n_vars, n_ops, true);
        let tape = CompiledGradTape::compile(&p, &roots);
        let seeds: Vec<f64> = (0..roots.len()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let at = random_point(&mut rng, n_vars);
        // Skip degenerate draws where the combined output is enormous (the
        // finite difference itself becomes meaningless there).
        let combined = |pt: &[f64]| -> f64 {
            tape.eval(pt).iter().zip(&seeds).map(|(v, s)| v * s).sum()
        };
        if !combined(&at).is_finite() || combined(&at).abs() > 1e8 {
            continue;
        }
        let grad = tape.grad(&seeds, &at, n_vars, false).expect("smooth DAG");
        let eps = 1e-6;
        for v in 0..n_vars {
            let mut hi = at.clone();
            hi[v] += eps;
            let mut lo = at.clone();
            lo[v] -= eps;
            let num = (combined(&hi) - combined(&lo)) / (2.0 * eps);
            let tol = 1e-4 + 1e-4 * num.abs().max(grad[v].abs());
            assert!(
                (grad[v] - num).abs() <= tol,
                "var {v}: tape {} vs numeric {num} (tol {tol})",
                grad[v]
            );
            checked += 1;
        }
    }
    assert!(checked >= 20, "too few finite-difference checks ran: {checked}");
}
