//! The compiled tape against the pool-walking oracle over every distinct
//! sketch of the six batch-1 networks: the default objective's tape path
//! must reproduce the pool walk in `reference/objective_pool.rs` bit for
//! bit, batch-of-one and lane by lane at batch widths 1, 7, 8, 9, 16 and
//! 17 — the compile-time lane
//! counts 8 and 16, the run-time ones around them, and one full chunk plus
//! a partial one. No `log∘exp` or `exp∘log` pair may be reachable from a
//! root: with no simplifier in the pipeline, nothing later would cancel it.

use felix::extract_subgraphs;
use felix::objective::{EvalScratch, SketchObjective};
use felix_ansor::SearchTask;
use felix_cost::Mlp;
use felix_expr::{ENode, ExprId, ExprPool, UnOp};
use felix_graph::models::all_models;
use felix_sim::{DeviceConfig, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

#[path = "reference/objective_pool.rs"]
mod objective_pool;

/// Batch widths checked lane by lane against the pool oracle.
const WIDTHS: [usize; 6] = [1, 7, 8, 9, 16, 17];
const LAMBDA: f64 = 1.0;

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Panics if any `log(exp a)` or `exp(log a)` is reachable from `roots`.
fn assert_no_log_exp_pairs(pool: &ExprPool, roots: &[ExprId], sketch: &str) {
    let mut seen = HashSet::new();
    let mut stack = roots.to_vec();
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        let node = pool.node(id);
        if let ENode::Un(outer @ (UnOp::Log | UnOp::Exp), a) = node {
            let inverse = if outer == UnOp::Log {
                UnOp::Exp
            } else {
                UnOp::Log
            };
            assert!(
                !matches!(pool.node(a), ENode::Un(inner, _) if inner == inverse),
                "{sketch}: {outer:?}({inverse:?}(..)) reachable from a root"
            );
        }
        stack.extend(node.children());
    }
}

/// One batch of `points.len()` lanes through the batched calls the descent
/// loop makes; every lane, and the batch-of-one `cost_and_grad` at its
/// point, must equal the pool oracle there.
fn assert_lanes_match_pool(obj: &SketchObjective, model: &Mlp, points: &[Vec<f64>], sketch: &str) {
    let cols: Vec<usize> = (0..points.len()).collect();
    let mut scratch = EvalScratch::default();
    obj.begin_batch(&mut scratch, points.len());
    for (lane, y) in points.iter().enumerate() {
        obj.set_lane(&mut scratch, lane, y);
    }
    obj.forward_batch(&mut scratch);
    let nf = obj.n_feats();
    let mut feats_t = vec![0.0; nf * points.len()];
    obj.write_feats_cols(&mut scratch, &cols, points.len(), &mut feats_t, |_, _| {});
    let mut grads_t = vec![0.0; nf * points.len()];
    let mut scores = vec![0.0; points.len()];
    for lane in 0..points.len() {
        let feats: Vec<f64> = (0..nf).map(|k| feats_t[k * points.len() + lane]).collect();
        let (score, dscore) = model.input_gradient(&feats);
        scores[lane] = score;
        for (k, d) in dscore.iter().enumerate() {
            grads_t[k * points.len() + lane] = *d;
        }
    }
    obj.seed_feats_cols(&mut scratch, &cols, points.len(), &grads_t);
    let mut penalties = vec![0.0; points.len()];
    obj.seed_penalties_all(&mut scratch, LAMBDA, |lane, p, _| penalties[lane] = p);
    obj.backward_batch(&mut scratch);
    let mut grad = Vec::new();
    for (lane, y) in points.iter().enumerate() {
        obj.grad_lane(&scratch, lane, &mut grad);
        let (c_pool, s_pool, g_pool) = objective_pool::cost_and_grad_pool(obj, model, LAMBDA, y);
        let (c_one, s_one, g_one) = obj.cost_and_grad(model, LAMBDA, y);
        assert_eq!(c_one.to_bits(), c_pool.to_bits(), "{sketch}: batch-of-one objective");
        assert_eq!(s_one.to_bits(), s_pool.to_bits(), "{sketch}: batch-of-one score");
        assert_eq!(bits(&g_one), bits(&g_pool), "{sketch}: batch-of-one gradient");
        let c_tape = -scores[lane] + penalties[lane];
        assert_eq!(
            scores[lane].to_bits(),
            s_pool.to_bits(),
            "{sketch}: lane {lane} score"
        );
        assert_eq!(
            c_tape.to_bits(),
            c_pool.to_bits(),
            "{sketch}: lane {lane} objective"
        );
        assert_eq!(bits(&grad), bits(&g_pool), "{sketch}: lane {lane} gradient");
    }
}

#[test]
fn tape_matches_pool_oracle_on_every_sketch_of_all_six_networks() {
    let sim = Simulator::new(DeviceConfig::a5000());
    let model = Mlp::new(&mut StdRng::seed_from_u64(11));
    let mut rng = StdRng::seed_from_u64(12);
    let widest = *WIDTHS.iter().max().expect("at least one width");
    let mut seen_tasks = HashSet::new();
    let mut n_sketches = 0;
    for graph in all_models(1) {
        for task in extract_subgraphs(&graph) {
            if !seen_tasks.insert(task.subgraph.workload_key()) {
                continue;
            }
            let search = SearchTask::from_task(&task, &sim);
            for sk in &search.sketches {
                let label = format!("{} / {}", search.name, sk.name);
                let obj = SketchObjective::build(&sk.program, &sk.features.exprs);
                let roots = [obj.log_feat_roots.clone(), obj.penalty_roots.clone()].concat();
                assert_no_log_exp_pairs(&obj.program.pool, &roots, &label);

                // Log-space points spanning tile sizes 1..e^5, so both
                // feasible and penalty-active schedules are covered; one per
                // lane of the widest batch, narrower batches take a prefix.
                let points: Vec<Vec<f64>> = (0..widest)
                    .map(|_| (0..obj.n_vars()).map(|_| rng.gen_range(0.0..5.0)).collect())
                    .collect();
                for width in WIDTHS {
                    assert_lanes_match_pool(&obj, &model, &points[..width], &label);
                }
                n_sketches += 1;
            }
        }
    }
    assert!(
        n_sketches >= 100,
        "only {n_sketches} distinct sketches covered"
    );
}
