//! Property-based tests of the core invariants the search correctness
//! rests on, spanning multiple crates. Cases are generated from seeded
//! `StdRng` streams (no external property-testing dependency), so every
//! run covers the identical case set.

use felix_repro::cost::random_schedule;
use felix_repro::expr::factor::factors;
use felix_repro::expr::{smooth_expr, ExprPool, VarTable};
use felix_repro::features::extract_features;
use felix_repro::graph::lower::lower_subgraph;
use felix_repro::graph::{Op, Subgraph};
use felix_repro::sim::{DeviceConfig, Simulator};
use felix_repro::tir::sketch::{
    generate_sketches, round_to_valid, HardwareParams, RoundingPlan, SchedVarKind,
};
use felix_repro::tir::Program;
use pool_grad::GradOptions;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

#[allow(dead_code)] // this target calls `grad` and `grad_numeric` only
#[path = "../crates/expr/tests/reference/pool_grad.rs"]
mod pool_grad;

#[test]
fn factors_divide_and_cover() {
    let mut rng = StdRng::seed_from_u64(0xFAC70);
    let cases = (1u64..=64).chain((0..256).map(|_| rng.gen_range(1u64..10_000)));
    for n in cases {
        let fs = factors(n);
        assert!(fs.contains(&1), "n={n}");
        assert!(fs.contains(&n), "n={n}");
        for f in &fs {
            assert_eq!(n % f, 0, "n={n} f={f}");
        }
        // Sorted strictly ascending (no duplicates).
        assert!(fs.windows(2).all(|w| w[0] < w[1]), "n={n} {fs:?}");
    }
}

/// The sketches of seeded dense ops with arbitrary extents (primes and
/// highly composite numbers alike), each with its rounding plan.
fn dense_sketch_plans(rng: &mut StdRng, n_ops: usize) -> Vec<(Program, RoundingPlan)> {
    let hw = HardwareParams::default();
    let mut out = Vec::new();
    for _ in 0..n_ops {
        let [m, k, n] = [0; 3].map(|_| rng.gen_range(1i64..5_000));
        let p0 = lower_subgraph(&Subgraph { ops: vec![Op::Dense { m, k, n }] });
        for sk in generate_sketches(&p0, &hw) {
            let plan = RoundingPlan::new(&sk.program);
            out.push((sk.program, plan));
        }
    }
    out
}

/// `n` raw values: mostly log-uniform over (e^-3, 1e6), sometimes NaN, ±∞
/// or non-positive.
fn raw_point(rng: &mut StdRng, n: usize) -> Vec<f64> {
    const EDGES: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -10.0];
    (0..n)
        .map(|_| match rng.gen_range(0..8) {
            0 => EDGES[rng.gen_range(0..EDGES.len())],
            _ => rng.gen_range(-3.0f64..1e6f64.ln()).exp(),
        })
        .collect()
}

#[test]
fn rounding_always_yields_a_factor() {
    // Every split variable rounds to a factor of its axis extent, every
    // unroll variable to a power of two within its cap.
    let mut rng = StdRng::seed_from_u64(0xFAC71);
    for (program, plan) in dense_sketch_plans(&mut rng, 32) {
        for _ in 0..16 {
            let raw = raw_point(&mut rng, program.vars.len());
            let rounded = plan.round(&raw);
            for sv in &program.sched_vars {
                let v = rounded[sv.var.index()];
                assert!(v >= 1.0 && v.fract() == 0.0, "{:?} -> {v}, raw {raw:?}", sv.kind);
                match sv.kind {
                    SchedVarKind::Split { extent, .. } => {
                        assert_eq!(extent % v as i64, 0, "split {v} of {extent}, raw {raw:?}");
                    }
                    SchedVarKind::Unroll { max } => {
                        assert!((v as u64).is_power_of_two() && v as i64 <= max, "unroll {v}");
                    }
                }
            }
        }
    }
}

#[test]
fn round_split_product_divides() {
    // Greedy level-by-level rounding keeps each split group's product a
    // divisor of its extent, whatever the raw candidates.
    let mut rng = StdRng::seed_from_u64(0xFAC72);
    for (program, plan) in dense_sketch_plans(&mut rng, 32) {
        for _ in 0..16 {
            let raw = raw_point(&mut rng, program.vars.len());
            let rounded = plan.round(&raw);
            let mut groups: BTreeMap<(usize, u32), (i64, i64)> = BTreeMap::new();
            for sv in &program.sched_vars {
                if let SchedVarKind::Split { stage, axis, extent, .. } = sv.kind {
                    let group = groups.entry((stage, axis.0)).or_insert((extent, 1));
                    group.1 *= rounded[sv.var.index()] as i64;
                }
            }
            assert!(!groups.is_empty());
            for ((stage, axis), (extent, prod)) in groups {
                assert_eq!(extent % prod, 0, "stage {stage} axis {axis}: {prod} ∤ {extent}");
            }
        }
    }
}

#[test]
fn smoothing_preserves_values_away_from_breakpoints() {
    // max(x, c) and its smooth version agree within 0.5 everywhere and
    // within 0.05 when |x - c| > 5.
    let mut rng = StdRng::seed_from_u64(0xFAC73);
    for _ in 0..512 {
        let a = rng.gen_range(-40.0f64..40.0);
        let b = rng.gen_range(-40.0f64..40.0);
        let mut vars = VarTable::new();
        let vx = vars.fresh("x");
        let mut p = ExprPool::new();
        let x = p.var(vx);
        let c = p.constf(b);
        let m = p.max(x, c);
        let sm = smooth_expr(&mut p, m);
        let exact = p.eval(m, &[a]);
        let smooth = p.eval(sm, &[a]);
        assert!((smooth - exact).abs() <= 0.5 + 1e-12, "a={a} b={b}");
        if (a - b).abs() > 5.0 {
            assert!((smooth - exact).abs() < 0.05, "a={a} b={b}");
        }
        // The smooth version is differentiable everywhere.
        let g = pool_grad::grad(&p, sm, &[a], 1, GradOptions::default());
        assert!(g.is_ok(), "a={a} b={b}");
    }
}

#[test]
fn autodiff_matches_numeric_on_random_smooth_exprs() {
    let mut rng = StdRng::seed_from_u64(0xFAC74);
    let mut checked = 0;
    for _ in 0..512 {
        let x0 = rng.gen_range(0.2f64..5.0);
        let x1 = rng.gen_range(0.2f64..5.0);
        let n_ops = rng.gen_range(1usize..12);
        // Build a random smooth expression tree over two variables.
        let mut vars = VarTable::new();
        let v0 = vars.fresh("a");
        let v1 = vars.fresh("b");
        let mut p = ExprPool::new();
        let mut cur = p.var(v0);
        let other = p.var(v1);
        for i in 0..n_ops {
            cur = match rng.gen_range(0u8..6) {
                0 => p.add(cur, other),
                1 => p.mul(cur, other),
                2 => {
                    let c = p.constf(1.5 + i as f64);
                    p.div(cur, c)
                }
                3 => p.log1p(cur),
                4 => {
                    let s = p.constf(0.1);
                    let t = p.mul(cur, s);
                    p.exp(t)
                }
                _ => {
                    let one = p.constf(1.0);
                    let t = p.add(cur, one);
                    p.sqrt(t)
                }
            };
        }
        let at = [x0, x1];
        let val = p.eval(cur, &at);
        if !(val.is_finite() && val.abs() < 1e8) {
            continue;
        }
        let g = pool_grad::grad(&p, cur, &at, 2, GradOptions::default()).unwrap();
        let num = pool_grad::grad_numeric(&p, cur, &at, 1e-6);
        for (i, &nd) in num.iter().enumerate() {
            if nd.abs() >= 1e6 {
                continue;
            }
            assert!(
                (g.wrt_var[i] - nd).abs() <= 1e-4 * (1.0 + nd.abs()),
                "ad {} vs numeric {nd}",
                g.wrt_var[i],
            );
            checked += 1;
        }
    }
    assert!(checked > 500, "only {checked} gradient comparisons ran");
}

#[test]
fn random_schedules_are_valid_and_measurable() {
    let mut rng = StdRng::seed_from_u64(0xFAC75);
    let sim = Simulator::new(DeviceConfig::a5000());
    let hw = HardwareParams::default();
    for case in 0..12 {
        let m = rng.gen_range(8i64..512);
        let k = rng.gen_range(8i64..512);
        let n = rng.gen_range(8i64..512);
        let sg = Subgraph { ops: vec![Op::Dense { m, k, n }] };
        let p0 = lower_subgraph(&sg);
        for sk in generate_sketches(&p0, &hw) {
            let mut program = sk.program;
            let fs = extract_features(&mut program);
            let plan = RoundingPlan::new(&program);
            let vals = random_schedule(&program, &plan, &mut rng, 256);
            // Awkward (e.g. prime) extents may admit no fully-valid
            // schedule within the sampling budget; the sampler then returns
            // its least-violating draw and the tuner's own validity check
            // filters it before measurement. Divisibility must hold either
            // way: rounding the sample is a no-op.
            let rounded = round_to_valid(&program, &vals);
            assert_eq!(rounded, vals, "case {case} ({m}x{k}x{n})");
            // The simulator gives a finite positive latency.
            let lat = sim.latency_ms(&program, &fs, &vals);
            assert!(lat.is_finite() && lat > 0.0, "latency {lat}");
            // Features are finite and non-negative where they should be.
            let raw = fs.eval(&program, &vals);
            assert!(raw.iter().all(|x| x.is_finite()));
        }
    }
}

#[test]
fn relaxed_points_round_to_valid_schedules() {
    // Arbitrary positive reals round to a valid schedule for the
    // multi-level tiling sketch of a dense op.
    let mut rng = StdRng::seed_from_u64(0xFAC76);
    let hw = HardwareParams::default();
    for case in 0..12 {
        let m = rng.gen_range(16i64..256);
        let k = rng.gen_range(16i64..256);
        let sg = Subgraph { ops: vec![Op::Dense { m, k, n: 128 }] };
        let p0 = lower_subgraph(&sg);
        let sketches = generate_sketches(&p0, &hw);
        let program = &sketches.last().unwrap().program;
        let mut raw = vec![1.0; program.vars.len()];
        for r in raw.iter_mut().take(8) {
            *r = rng.gen_range(0.2f64..50.0);
        }
        let rounded = round_to_valid(program, &raw);
        // All split groups divide their extents (range constraints may
        // still fail — e.g. threads cap — but divisibility must hold).
        for sv in &program.sched_vars {
            if let SchedVarKind::Split { extent, .. } = sv.kind {
                let v = rounded[sv.var.index()];
                assert_eq!(v.fract(), 0.0, "case {case}");
                assert!(v >= 1.0 && v <= extent as f64, "case {case}");
            }
        }
    }
}

#[test]
fn simulator_is_deterministic_across_calls() {
    let sg = Subgraph {
        ops: vec![Op::Conv2d { n: 1, c: 64, k: 64, h: 28, r: 3, stride: 1, pad: 1, groups: 1 }],
    };
    let p0 = lower_subgraph(&sg);
    let hw = HardwareParams::default();
    let sim = Simulator::new(DeviceConfig::a10g());
    let mut rng = StdRng::seed_from_u64(5);
    for sk in generate_sketches(&p0, &hw) {
        let mut program = sk.program;
        let fs = extract_features(&mut program);
        let vals = random_schedule(&program, &RoundingPlan::new(&program), &mut rng, 64);
        let a = sim.latency_ms(&program, &fs, &vals);
        let b = sim.latency_ms(&program, &fs, &vals);
        assert_eq!(a, b);
    }
}
