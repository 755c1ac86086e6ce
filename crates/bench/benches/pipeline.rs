//! Microbenchmarks of the primitives every experiment rests on:
//! the symbolic pipeline (Fig. 2's boxes) and both search kernels.

use felix::objective::SketchObjective;
use felix_bench::harness::BenchGroup;
use felix_cost::{AdamOpt, Mlp};
use felix_expr::{smooth_all, ExprPool, VarTable};
use felix_features::extract_features;
use felix_graph::lower::lower_subgraph;
use felix_graph::{Op, Subgraph};
use felix_sim::{DeviceConfig, Simulator};
use felix_tir::sketch::{
    generate_sketches, multi_level_tiling_sketch, round_to_valid, HardwareParams,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn conv_subgraph() -> Subgraph {
    Subgraph {
        ops: vec![Op::Conv2d { n: 1, c: 128, k: 128, h: 28, r: 3, stride: 1, pad: 1, groups: 1 }],
    }
}

fn bench_symbolic_pipeline() {
    let g = BenchGroup::new("symbolic_pipeline");
    let p0 = lower_subgraph(&conv_subgraph());
    let hw = HardwareParams::default();

    g.bench("sketch_generation", || black_box(generate_sketches(&p0, &hw)));

    let sk = multi_level_tiling_sketch(&p0, &hw);
    g.bench("feature_extraction", || {
        let mut p = sk.program.clone();
        black_box(extract_features(&mut p))
    });

    let mut program = sk.program.clone();
    let fs = extract_features(&mut program);
    g.bench("objective_build_smooth_subst_simplify", || {
        black_box(SketchObjective::build(&program, &fs.exprs))
    });

    let vals = round_to_valid(&program, &vec![2.0; program.vars.len()]);
    g.bench("feature_eval_concrete", || black_box(fs.eval(&program, &vals)));
    let raw = vec![3.7; program.vars.len()];
    g.bench("round_to_valid", || black_box(round_to_valid(&program, &raw)));
}

fn bench_expr_kernels() {
    let g = BenchGroup::new("expr_kernels");
    // A mid-sized smooth DAG: the smoothed log-features of the conv sketch.
    let p0 = lower_subgraph(&conv_subgraph());
    let sk = multi_level_tiling_sketch(&p0, &HardwareParams::default());
    let mut program = sk.program;
    let fs = extract_features(&mut program);
    let logf: Vec<_> = fs.exprs.iter().map(|&e| program.pool.log1p(e)).collect();
    let roots = smooth_all(&mut program.pool, &logf);
    let values = vec![2.0; program.vars.len()];

    g.bench("eval_all_pool", || black_box(program.pool.eval_all(&values)));
    let seeds: Vec<_> = roots.iter().map(|&r| (r, 1.0)).collect();
    g.bench("reverse_ad_sweep", || {
        black_box(
            program
                .pool
                .grad_multi(&seeds, &values, program.vars.len(), Default::default())
                .unwrap(),
        )
    });
    g.bench("smoothing_pass", || {
        let mut p = ExprPool::new();
        let mut vars = VarTable::new();
        let v = vars.fresh("x");
        let x = p.var(v);
        let zero = p.constf(0.0);
        let mut acc = p.constf(0.0);
        for i in 0..50 {
            let ci = p.constf(i as f64);
            let xi = p.add(x, ci);
            let m = p.max(xi, zero);
            acc = p.add(acc, m);
        }
        black_box(smooth_all(&mut p, &[acc]))
    });
}

fn bench_search_kernels() {
    let g = BenchGroup::new("search_kernels").max_iters(200);
    let p0 = lower_subgraph(&conv_subgraph());
    let sk = multi_level_tiling_sketch(&p0, &HardwareParams::default());
    let mut program = sk.program;
    let fs = extract_features(&mut program);
    let obj = SketchObjective::build(&program, &fs.exprs);
    let mut rng = StdRng::seed_from_u64(0);
    let model = Mlp::new(&mut rng);
    let y0 = vec![1.0; obj.n_vars()];

    g.bench("gradient_step_one_seed", || black_box(obj.cost_and_grad(&model, 1.0, &y0)));
    g.bench("adam_200_steps_one_seed", || {
        let mut y = y0.clone();
        let mut opt = AdamOpt::new(y.len(), 0.08);
        for _ in 0..200 {
            let (_, _, grad) = obj.cost_and_grad(&model, 1.0, &y);
            opt.step(&mut y, &grad);
        }
        black_box(y)
    });
    let vals = round_to_valid(&program, &vec![2.0; program.vars.len()]);
    let raw = fs.eval(&program, &vals);
    let lf = felix_cost::log_transform(&raw);
    g.bench("mlp_predict", || black_box(model.predict(&lf)));
    g.bench("mlp_input_gradient", || black_box(model.input_gradient(&lf)));
    // Feature-major batch of 8 (`feats_t[k * 8 + s]`), as descent feeds it.
    let feats_t: Vec<f64> = lf.iter().flat_map(|&v| [v; 8]).collect();
    let packed = model.pack();
    let mut scratch = felix_cost::MlpScratch::default();
    let (mut scores, mut grads_t) = (Vec::new(), Vec::new());
    g.bench("mlp_input_gradient_batch8", || {
        packed.input_gradient_batch_cols(&feats_t, 8, &mut scratch, &mut scores, &mut grads_t);
        black_box(grads_t.len())
    });
    let sim = Simulator::new(DeviceConfig::a5000());
    g.bench("simulator_measure", || black_box(sim.latency_ms(&program, &fs, &vals)));
    let base = felix_cost::random_schedule(&program, &mut rng, 64);
    let mut r = StdRng::seed_from_u64(1);
    g.bench("evolution_mutation", || {
        black_box(felix_cost::mutate_schedule(&program, &base, &mut r, 8))
    });
}

fn main() {
    bench_symbolic_pipeline();
    bench_expr_kernels();
    bench_search_kernels();
}
