//! Ablation study of Felix's design choices (DESIGN.md §5): disable one
//! pipeline stage or search setting at a time and measure the best latency
//! achieved on three representative subgraphs within a fixed round budget.
//!
//! Variants:
//! - `full`           — the complete system (paper defaults)
//! - `no-smoothing`   — subgradients through raw `select`/`min`/`max`
//! - `no-exp-subst`   — optimize `x` directly instead of `y = ln x`
//! - `no-fine-tune`   — never update the cost model with measurements
//! - `seeds-1/seeds-16`, `steps-50/steps-400` — search-budget sweeps

use felix::objective::PipelineOptions;
use felix::{FelixOptions, GradientProposer};
use felix_ansor::{tune_task_round, SearchTask, TuneOptions};
use felix_bench::{cached_model, write_result, Scale};
use felix_graph::{Op, Subgraph, Task};
use felix_sim::clock::ClockCosts;
use felix_sim::{DeviceConfig, Simulator, TuningClock};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Variant {
    name: &'static str,
    options: FelixOptions,
    update_model: bool,
}

fn variants() -> Vec<Variant> {
    let base = FelixOptions::default();
    vec![
        Variant { name: "full", options: base, update_model: true },
        Variant {
            name: "no-smoothing",
            options: FelixOptions {
                pipeline: PipelineOptions { smoothing: false, ..Default::default() },
                ..base
            },
            update_model: true,
        },
        Variant {
            name: "no-exp-subst",
            options: FelixOptions {
                pipeline: PipelineOptions { exp_substitution: false, ..Default::default() },
                ..base
            },
            update_model: true,
        },
        Variant { name: "no-fine-tune", options: base, update_model: false },
        Variant { name: "seeds-1", options: FelixOptions { n_seeds: 1, ..base }, update_model: true },
        Variant { name: "seeds-16", options: FelixOptions { n_seeds: 16, ..base }, update_model: true },
        Variant { name: "steps-50", options: FelixOptions { n_steps: 50, ..base }, update_model: true },
        Variant { name: "steps-400", options: FelixOptions { n_steps: 400, ..base }, update_model: true },
    ]
}

fn main() {
    felix_bench::out_dir_from_args();
    let scale = Scale::from_env();
    let dev = DeviceConfig::a5000();
    let model0 = cached_model(&dev, scale);
    let sim = Simulator::new(dev);
    let workloads = [
        (
            "conv2d",
            Subgraph {
                ops: vec![Op::Conv2d { n: 1, c: 128, k: 128, h: 28, r: 3, stride: 1, pad: 1, groups: 1 }],
            },
        ),
        ("dense", Subgraph { ops: vec![Op::Dense { m: 256, k: 1024, n: 1024 }] }),
        ("bmm", Subgraph { ops: vec![Op::BatchMatmul { b: 12, m: 50, k: 64, n: 50 }] }),
    ];
    let rounds = if scale == Scale::Fast { 2 } else { 5 };
    let costs = ClockCosts::default();

    println!("Ablations: best latency (ms) after {rounds} rounds x 16 measurements, A5000");
    print!("{:<14}", "variant");
    for (name, _) in &workloads {
        print!(" {name:>10}");
    }
    println!("  {:>9}", "search_s");
    let mut csv = String::from("variant,workload,latency_ms,search_time_s\n");
    for v in variants() {
        print!("{:<14}", v.name);
        let mut total_search = 0.0;
        for (wname, sg) in &workloads {
            let task0 = Task { subgraph: sg.clone(), weight: 1 };
            let mut task = SearchTask::from_task(&task0, &sim);
            let mut model = model0.clone();
            let mut prop = GradientProposer::new(v.options);
            let mut clock = TuningClock::new();
            let opts = TuneOptions {
                measurements_per_round: 16,
                update_model: v.update_model,
                ..Default::default()
            };
            let mut rng = StdRng::seed_from_u64(42);
            for _ in 0..rounds {
                tune_task_round(
                    &mut task, &mut prop, &mut model, &sim, &mut clock, &costs, &opts,
                    &mut rng,
                );
            }
            print!(" {:>10.5}", task.best_latency_ms);
            csv.push_str(&format!(
                "{},{},{:.6},{:.2}\n",
                v.name, wname, task.best_latency_ms, clock.now_s()
            ));
            total_search += clock.now_s();
        }
        println!("  {total_search:>9.0}");
    }
    write_result("ablations.csv", &csv);
    println!("\n(lower is better; `full` should win or tie on each workload)");
}
