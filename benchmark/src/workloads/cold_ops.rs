//! `cold_ops`: a seeded stream of single-operator tasks, each taken
//! `partition -> SearchTask::from_task -> one tune_task_round` with a small
//! budget (4 seeds x 50 steps, 8 measurements) through one long-lived
//! `GradientProposer` sharing one `TapeCache`. Per-task fixed costs —
//! lowering, sketch generation, feature extraction, smoothing,
//! substitution, e-graph simplification, tape compile — are a material
//! share here and long-descent throughput is not. One operation is one
//! task, timed from the `Graph` going in to its first measured schedule
//! coming out.

use super::{check_tuned_task, tuned_state, TunedState};
use crate::gen::{OpShape, OpStream};
use crate::harness::{
    ms_since, pretrain_fast_model, timed_setups, us_since, Calibrator, Checks, EndToEndSamples,
    Layers, RunConfig, RunOutput, Window,
};
use crate::probes::{
    descent_shape, finish_hit_rates, note_counted_prefix, note_propose, replay_descent_step,
    replay_objective_build, replay_rank_leafs, replay_round_tail, replay_task_build,
    warn_if_stages_drifted, CountingSink, Probe, ProbedProposer,
};
use crate::trace::Recorder;
use felix::{FelixOptions, GradientProposer, TapeCache};
use felix_ansor::{tune_task_round_with_sink, Proposer, SearchTask, TuneOptions};
use felix_cost::Mlp;
use felix_graph::partition;
use felix_sim::clock::ClockCosts;
use felix_sim::{DeviceConfig, Simulator, TuningClock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Shapes drawn ahead of the window (more are drawn if it outruns them).
const PREDRAWN: usize = 1024;

fn proposer(options: FelixOptions) -> ProbedProposer {
    ProbedProposer::new(
        GradientProposer::new(options).with_shared_tape_cache(Arc::new(TapeCache::new())),
    )
}

/// One cold task end to end; returns the tuned task and its round report.
#[allow(clippy::too_many_arguments)]
fn tune_cold(
    shape: &OpShape,
    prop: &mut ProbedProposer,
    model: &mut Mlp,
    sim: &Simulator,
    clock: &mut TuningClock,
    opts: &TuneOptions,
    rng: &mut StdRng,
    sink: &mut CountingSink,
) -> (SearchTask, felix_ansor::RoundReport) {
    let graph = shape.graph();
    let tasks = partition(&graph);
    let mut task = SearchTask::from_task(&tasks[0], sim);
    let report = tune_task_round_with_sink(
        &mut task,
        prop,
        model,
        sim,
        clock,
        &ClockCosts::default(),
        opts,
        rng,
        Some(sink),
    );
    (task, report)
}

/// The first `n` tasks of a stream, tuned from a fresh state.
fn prefix_state(
    shapes: &[OpShape],
    model0: &Mlp,
    sim: &Simulator,
    options: FelixOptions,
    opts: &TuneOptions,
    seed: u64,
) -> TunedState {
    let mut prop = proposer(options);
    let mut model = model0.clone();
    let mut clock = TuningClock::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sink = CountingSink::default();
    let tuned: Vec<SearchTask> = shapes
        .iter()
        .map(|s| {
            tune_cold(
                s, &mut prop, &mut model, sim, &mut clock, opts, &mut rng, &mut sink,
            )
            .0
        })
        .collect();
    tuned_state(&tuned, rng.state(), clock.now_s())
}

pub fn run(cfg: &RunConfig) -> RunOutput {
    let sim = Simulator::new(DeviceConfig::a5000());
    let options = FelixOptions {
        n_seeds: cfg.pick(4, 2),
        n_steps: cfg.pick(50, 20),
        ..FelixOptions::default()
    };
    let opts = TuneOptions {
        measurements_per_round: cfg.pick(8, 4),
        ..TuneOptions::default()
    };
    let mut checks = Checks::default();
    let mut layers = Layers::default();
    let mut rec = Recorder::new(cfg.trace);

    let ((model0, mut stream, shapes), setup_samples) = timed_setups(|_| {
        let model = pretrain_fast_model(&sim.device);
        let mut stream = OpStream::new(cfg.seed);
        let shapes: Vec<OpShape> = stream.by_ref().take(PREDRAWN).collect();
        (model, stream, shapes)
    });
    let mut model = model0.clone();
    let mut shapes = shapes;

    let mut prop = proposer(options);
    let mut sink = CountingSink::default();
    let mut clock = TuningClock::new();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (_, chunk_width) = descent_shape(&options);
    let (mut stages_ms, mut builds_ms) = (0.0, 0.0);

    let window = Window::open(cfg.seconds, cfg.pick(48, 6));
    let mut op_ms = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut calib = Calibrator::default();
    let mut rss_counted = 0.0;
    let mut op = 0usize;
    while window.more(op) {
        calib.before_op(op_ms.last().copied());
        if op == shapes.len() {
            shapes.extend(stream.by_ref().take(PREDRAWN));
        }
        let shape = &shapes[op];
        let span = rec.begin("cold.task", op as u64);
        let t = Instant::now();
        let (task, report) = tune_cold(
            shape, &mut prop, &mut model, &sim, &mut clock, &opts, &mut rng, &mut sink,
        );
        let ms = ms_since(t);
        rec.end(span);
        op_ms.push(ms);
        attempted += 1;
        if !check_tuned_task(&task, &sim, &mut checks) {
            failed += 1;
        }
        let stats = prop.take_stats();
        let propose = prop.take_last_propose();
        if cfg.trace {
            let counted = window.counted(op);
            let mut probe = Probe {
                layers: &mut layers,
                rec: &mut rec,
                op: op as u64,
                counted,
            };
            let stats = stats.first().copied().unwrap_or_default();
            let propose = propose.expect("the round called propose");
            let p_span = note_propose(&stats, propose, span, &mut probe).propose;
            probe.layers.sample("ansor.round_ms", ms);

            let graph = shape.graph();
            let t = Instant::now();
            let tasks = partition(&graph);
            let partition_us = us_since(t);
            probe.layers.sample("graph.partition_us", partition_us);
            probe.rec.replayed(
                "graph.partition",
                op as u64,
                span,
                (partition_us * 1e3) as u64,
            );
            replay_task_build(&tasks[0], &sim, &mut probe, span);
            if stats.cache_misses > 0 {
                // The proposer built (or fetched from the tape cache) this
                // task's objectives; replay the build of the share that
                // missed the tape cache, and time a descent step on it.
                let built = stats.cache_misses - stats.tape_cache_hits;
                let lanes = (chunk_width / task.sketches.len()).max(1);
                for sketch in task.sketches.iter().take(built) {
                    let b = replay_objective_build(sketch, options.pipeline, &mut probe, p_span);
                    stages_ms += b.stages_ms;
                    builds_ms += b.build_ms;
                    replay_descent_step(&b.objective, &model, lanes, chunk_width, &mut probe);
                }
            }
            replay_rank_leafs(&task, &model, &mut probe);
            replay_round_tail(&task, &model, &sim, &opts, &report, &mut probe, span);
        }
        op += 1;
        if op == window.min_ops {
            rss_counted = crate::stats::peak_rss_mb();
            let requested = op * opts.measurements_per_round;
            note_counted_prefix(&mut layers, clock.now_s(), &sink, requested);
        }
    }
    let e2e = EndToEndSamples::of_loop(setup_samples, op_ms, &window, calib, rss_counted);

    if cfg.trace {
        finish_hit_rates(&mut layers);
        warn_if_stages_drifted(stages_ms, builds_ms);
    } else {
        // A three-task prefix at `threads: 1` must equal `threads: 0`, bit
        // for bit.
        let prefix = &shapes[..3];
        let wide = prefix_state(prefix, &model0, &sim, options, &opts, cfg.seed);
        let serial = prefix_state(
            prefix,
            &model0,
            &sim,
            FelixOptions {
                threads: 1,
                ..options
            },
            &opts,
            cfg.seed,
        );
        checks.record("threads_1_equals_threads_0", wide == serial, || {
            format!("threads 0 {wide:?} vs threads 1 {serial:?}")
        });
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
