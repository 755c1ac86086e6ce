//! A walkthrough of the paper's Fig. 3: symbolic schedules and symbolic
//! programs for a Dense-Add subgraph, the feature formulas extracted from
//! them (including a non-differentiable `select`), and the smoothing /
//! log-space pipeline that makes them differentiable.
//!
//! ```sh
//! cargo run --release --example symbolic_schedules
//! ```

use felix::SketchObjective;
use felix_expr::is_smooth;
use felix_features::{extract_features, FEATURE_NAMES};
use felix_graph::lower::lower_subgraph;
use felix_graph::{EwKind, Op, Subgraph};
use felix_sim::vendor::hardware_params;
use felix_sim::DeviceConfig;
use felix_tir::sketch::generate_sketches;

fn main() {
    // The Dense-Add graph of Fig. 3: E[i,j] = sum_k A[i,k] B[k,j] + C[j].
    let subgraph = Subgraph {
        ops: vec![
            Op::Dense { m: 512, k: 512, n: 512 },
            Op::Elementwise { kind: EwKind::BiasAdd, shape: vec![512, 512] },
        ],
    };
    let p0 = lower_subgraph(&subgraph);
    println!("=== initial program p0 (naive 1:1 lowering) ===");
    println!("{}", p0.pretty(None));

    let hw = hardware_params(&DeviceConfig::a5000());
    let sketches = generate_sketches(&p0, &hw);
    for sk in &sketches {
        println!("=== symbolic schedule s* ({}) ===", sk.name);
        for step in sk.steps.iter().take(12) {
            println!("  {step:?}");
        }
        if sk.steps.len() > 12 {
            println!("  ... ({} more steps)", sk.steps.len() - 12);
        }
        println!("\n=== symbolic program p* = T(p0, s*) ===");
        println!("{}", sk.program.pretty(None));
        println!(
            "schedule variables: {:?}",
            sk.program.vars.iter().map(|(_, n)| n).collect::<Vec<_>>()
        );
        println!(
            "constraints: {:?}\n",
            sk.program
                .constraints
                .iter()
                .map(|c| c.desc.as_str())
                .collect::<Vec<_>>()
        );
    }

    // Feature formulas of the multi-level-tiling sketch.
    let mut program = sketches.last().expect("sketches").program.clone();
    let features = extract_features(&mut program);
    println!("=== feature formulas (selection of the 82) ===");
    for name in ["float_add_total", "threads_per_block", "shared_tile_elems", "loop_overhead_iops"] {
        let idx = felix_features::feature_index(name);
        let expr = features.exprs[idx];
        let rendered = format!("{}", program.pool.display(expr, &program.vars));
        let shown: String = rendered.chars().take(110).collect();
        println!(
            "  {name:24} = {}{}",
            shown,
            if rendered.len() > 110 { " ..." } else { "" }
        );
        println!(
            "    differentiable as extracted? {}",
            is_smooth(&program.pool, expr)
        );
    }

    // The full differentiable pipeline: log -> smooth -> x = e^y -> tape compile.
    let objective = SketchObjective::build(&program, &features.exprs);
    let all_smooth = objective
        .log_feat_roots
        .iter()
        .all(|&r| is_smooth(&objective.program.pool, r));
    println!("\n=== after Felix's rewriting pipeline ===");
    println!("all {} features smooth & differentiable: {all_smooth}", FEATURE_NAMES.len());
    println!(
        "optimization variables (y = ln x): {:?}",
        objective
            .y_vars
            .iter()
            .map(|&y| objective.program.vars.name(y))
            .collect::<Vec<_>>()
    );
    // Evaluate the objective and its gradient at a schedule (needs a model).
    let model = felix::pretrained_cost_model(&DeviceConfig::a5000(), felix::ModelQuality::Fast);
    let y: Vec<f64> = vec![2.0f64.ln(), 16.0f64.ln(), 4.0f64.ln(), 2.0f64.ln(),
                           16.0f64.ln(), 4.0f64.ln(), 8.0f64.ln(), 64.0f64.ln()];
    let (obj, score, grad) = objective.cost_and_grad(&model, 1.0, &y);
    println!("\nobjective O(y) = {obj:.4} (predicted score {score:.4})");
    println!(
        "gradient dO/dy = {:?}",
        grad.iter().map(|g| (g * 1000.0).round() / 1000.0).collect::<Vec<_>>()
    );
}
