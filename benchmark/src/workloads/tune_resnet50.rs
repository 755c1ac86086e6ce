//! `tune_resnet50`: the paper's headline scenario (Fig. 7). ResNet-50
//! batch 1 on the RTX A5000 with the `ModelQuality::Fast` cost model at
//! paper defaults — 16 seeds x 200 steps, 16 measurements per round —
//! driven one round at a time through `tune_network_with_sink` and a
//! `GradientProposer`, storeless. One operation is one tuning round.

use super::{check_tuned_task, tuned_state, TunedState};
use crate::harness::{
    cost_model_matches_library, ms_since, pretrain_fast_model, timed_setups, us_since, Calibrator,
    Checks, EndToEndSamples, Layers, RunConfig, RunOutput, Window,
};
use crate::probes::{
    descent_shape, finish_hit_rates, note_counted_prefix, note_propose, replay_descent_step,
    replay_objective_build, replay_rank_leafs, replay_round_tail, replay_task_build,
    warn_if_stages_drifted, CountingSink, Probe, ProbedProposer, ProposeSpans, RankCost, StepCost,
};
use crate::trace::Recorder;
use felix::{FelixOptions, GradientProposer, Optimizer};
use felix_ansor::{
    network_latency, select_next_task, tune_network_with_sink, Proposer, SearchTask, TuneOptions,
};
use felix_cost::Mlp;
use felix_graph::{models, partition, Task};
use felix_sim::clock::ClockCosts;
use felix_sim::{DeviceConfig, Simulator, TuningClock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;

/// The seed `Optimizer` hard-wires; the driver must reproduce it bit for
/// bit when given the same one.
const OPTIMIZER_SEED: u64 = 0xF311;

struct Setup {
    model: Mlp,
    tasks: Vec<Task>,
    search: Vec<SearchTask>,
    partition_us: f64,
}

fn setup(sim: &Simulator) -> Setup {
    let model = pretrain_fast_model(&sim.device);
    let graph = models::resnet50(1);
    let t = Instant::now();
    let tasks = partition(&graph);
    let partition_us = us_since(t);
    let search = tasks
        .iter()
        .map(|t| SearchTask::from_task(t, sim))
        .collect();
    Setup {
        model,
        tasks,
        search,
        partition_us,
    }
}

/// Runs `rounds` rounds of the benchmark's own driver loop from a fresh
/// state and returns the state it ends in.
fn driver_prefix(
    tasks: &[Task],
    model: &Mlp,
    sim: &Simulator,
    options: FelixOptions,
    opts: &TuneOptions,
    seed: u64,
    rounds: usize,
) -> TunedState {
    let mut search: Vec<SearchTask> = tasks
        .iter()
        .map(|t| SearchTask::from_task(t, sim))
        .collect();
    let mut prop = ProbedProposer::new(GradientProposer::new(options));
    let mut model = model.clone();
    let mut clock = TuningClock::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sink = CountingSink::default();
    for _ in 0..rounds {
        tune_network_with_sink(
            &mut search,
            &mut prop,
            &mut model,
            sim,
            &mut clock,
            &ClockCosts::default(),
            opts,
            1,
            &mut rng,
            Some(&mut sink),
        );
    }
    tuned_state(&search, rng.state(), clock.now_s())
}

pub fn run(cfg: &RunConfig) -> RunOutput {
    let sim = Simulator::new(DeviceConfig::a5000());
    let options = FelixOptions {
        n_seeds: cfg.pick(16, 4),
        n_steps: cfg.pick(200, 20),
        ..FelixOptions::default()
    };
    let opts = TuneOptions {
        measurements_per_round: cfg.pick(16, 4),
        ..TuneOptions::default()
    };
    let mut checks = Checks::default();
    let mut layers = Layers::default();
    let mut rec = Recorder::new(cfg.trace);

    let (set, setup_samples) = timed_setups(|_| setup(&sim));
    let Setup {
        mut model,
        tasks,
        mut search,
        partition_us,
    } = set;
    let model0 = model.clone();
    layers.sample("graph.partition_us", partition_us);

    let mut prop = ProbedProposer::new(GradientProposer::new(options));
    let mut sink = CountingSink::default();
    let mut clock = TuningClock::new();
    let costs = ClockCosts::default();
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let (workers, chunk_width) = descent_shape(&options);
    let mut step_costs: BTreeMap<usize, StepCost> = BTreeMap::new();
    let (mut stages_ms, mut builds_ms) = (0.0, 0.0);

    let window = Window::open(cfg.seconds, cfg.pick(12, 2));
    let mut op_ms = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut calib = Calibrator::default();
    let mut rss_counted = 0.0;
    let mut op = 0usize;
    while window.more(op) {
        calib.before_op(op_ms.last().copied());
        let t = Instant::now();
        let next = select_next_task(&search);
        let select_us = us_since(t);
        let round = rec.begin("ansor.round", op as u64);
        let t = Instant::now();
        let res = tune_network_with_sink(
            &mut search,
            &mut prop,
            &mut model,
            &sim,
            &mut clock,
            &costs,
            &opts,
            1,
            &mut rng,
            Some(&mut sink),
        );
        let ms = ms_since(t);
        rec.end(round);
        op_ms.push(ms);
        attempted += 1;
        let report = &res.round_reports[0];
        if !check_tuned_task(&search[next], &sim, &mut checks) {
            failed += 1;
        }
        let stats = prop.take_stats();
        let propose = prop.take_last_propose();
        if cfg.trace {
            let task = &search[next];
            let mut probe = Probe {
                layers: &mut layers,
                rec: &mut rec,
                op: op as u64,
                counted: window.counted(op),
            };
            probe.layers.sample("ansor.round_ms", ms);
            probe.layers.sample("ansor.select_next_task_us", select_us);
            let stats = stats.first().copied().unwrap_or_default();
            let propose = propose.expect("the round called propose");
            let ProposeSpans {
                propose: p_span,
                descent: d_span,
            } = note_propose(&stats, propose, round, &mut probe);

            // First visit: the proposer just built this task's objectives.
            if stats.cache_misses > 0 {
                replay_task_build(&tasks[next], &sim, &mut probe, None);
                let lanes = (chunk_width / task.sketches.len()).max(1);
                let mut cost = StepCost::default();
                for sketch in &task.sketches {
                    let b = replay_objective_build(sketch, options.pipeline, &mut probe, p_span);
                    stages_ms += b.stages_ms;
                    builds_ms += b.build_ms;
                    let c =
                        replay_descent_step(&b.objective, &model, lanes, chunk_width, &mut probe);
                    cost.tape_us_per_seed += c.tape_us_per_seed / task.sketches.len() as f64;
                    cost.mlp_us_per_seed = c.mlp_us_per_seed;
                }
                step_costs.insert(next, cost);
            }
            // Descent's two halves, from the per-seed step costs measured
            // on this task's own objectives: each worker walks its chunk.
            if let Some(cost) = step_costs.get(&next) {
                let steps_per_worker = stats.grad_steps as f64 / workers as f64;
                let tape_ns = cost.tape_us_per_seed * steps_per_worker * 1e3;
                let mlp_ns = cost.mlp_us_per_seed * steps_per_worker * 1e3;
                probe
                    .rec
                    .replayed("expr.tape_fwd_bwd", op as u64, d_span, tape_ns as u64);
                probe
                    .rec
                    .replayed("cost.mlp_input_grad", op as u64, d_span, mlp_ns as u64);
            }
            let RankCost {
                round_to_valid_us,
                feature_eval_us,
                predict_us_per_row,
            } = replay_rank_leafs(task, &model, &mut probe);
            let survivors = stats.candidates as f64
                * (1.0 - stats.penalty_violation_rate - stats.rounding_rejection_rate).max(0.0);
            for (name, ns) in [
                (
                    "tir.round_to_valid",
                    round_to_valid_us * stats.candidates as f64 * 1e3,
                ),
                (
                    "features.eval",
                    feature_eval_us * survivors * 1e3 / workers as f64,
                ),
                (
                    "cost.predict_batch",
                    predict_us_per_row * survivors * 1e3 / workers as f64,
                ),
            ] {
                probe.rec.replayed(name, op as u64, p_span, ns as u64);
            }
            replay_round_tail(task, &model, &sim, &opts, report, &mut probe, round);
        }
        op += 1;
        if op == window.min_ops {
            rss_counted = crate::stats::peak_rss_mb();
            // The deterministic fingerprint of the counted prefix.
            let tuned: Vec<&SearchTask> = search
                .iter()
                .filter(|t| t.best_latency_ms.is_finite())
                .collect();
            let sum: f64 = tuned
                .iter()
                .map(|t| t.weight as f64 * t.best_latency_ms)
                .sum();
            layers.set("ansor.final_latency_ms", sum);
            let requested = op * opts.measurements_per_round;
            note_counted_prefix(&mut layers, clock.now_s(), &sink, requested);
        }
    }
    let e2e = EndToEndSamples::of_loop(setup_samples, op_ms, &window, calib, rss_counted);

    checks.record(
        "unmeasured_tasks_zero",
        search
            .iter()
            .all(|t| t.rounds == 0 || t.best_latency_ms.is_finite()),
        || format!("network latency {}", network_latency(&search)),
    );
    if cfg.trace {
        finish_hit_rates(&mut layers);
        let self_ms: Vec<f64> = rec
            .spans()
            .iter()
            .zip(rec.self_times_ns())
            .filter(|(s, _)| s.name == "ansor.round")
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect();
        layers.set("ansor.round_self_ms", crate::stats::median(&self_ms));
        warn_if_stages_drifted(stages_ms, builds_ms);
    } else {
        parity_checks(&tasks, &model0, &sim, options, &opts, &mut checks);
    }
    RunOutput {
        attempted,
        failed,
        checks,
        e2e,
        layers,
        recorder: rec,
    }
}

/// The determinism contracts, on a two-task slice of the network so they
/// cost seconds: the driver at `threads: 1` equals the driver at
/// `threads: 0`, and the driver seeded like `Optimizer` equals
/// `Optimizer::optimize_all` — both bit for bit (proves the benchmark
/// drives the same program users run).
fn parity_checks(
    tasks: &[Task],
    model0: &Mlp,
    sim: &Simulator,
    options: FelixOptions,
    opts: &TuneOptions,
    checks: &mut Checks,
) {
    checks.record(
        "cost_model_recipe_matches_library",
        cost_model_matches_library(model0, &sim.device),
        || "pretrain_fast_model no longer reproduces pretrained_cost_model(Fast)".to_string(),
    );
    let slice = &tasks[2..4];
    let rounds = 2;
    let wide = driver_prefix(slice, model0, sim, options, opts, OPTIMIZER_SEED, rounds);
    let serial = driver_prefix(
        slice,
        model0,
        sim,
        FelixOptions {
            threads: 1,
            ..options
        },
        opts,
        OPTIMIZER_SEED,
        rounds,
    );
    checks.record("threads_1_equals_threads_0", wide == serial, || {
        format!("threads 0 {wide:?} vs threads 1 {serial:?}")
    });
    let mut opt = Optimizer::with_options(slice.to_vec(), model0.clone(), sim.device, options);
    opt.optimize_all(rounds, opts.measurements_per_round);
    let library = tuned_state(opt.tasks(), opt.rng_state(), opt.tuning_time_s());
    checks.record("driver_equals_optimize_all", wide == library, || {
        format!("driver {wide:?} vs Optimizer {library:?}")
    });
}
