//! Observation from outside: decorators around the public extension points
//! (`Proposer`, `MeasurementSink`) and *replayed* leaf calls — layers that
//! run deep inside `tune_task_round` are called again here, through their
//! public functions, on copies of the inputs the operation just used.
//! Replays run only in the traced run and always after the operation they
//! stand in for, never inside its timed span.

use crate::harness::{ms_since, us_since, Layers};
use crate::trace::{Recorder, SpanId};
use felix::objective::PipelineOptions;
use felix::{EvalScratch, GradientProposer, SketchObjective};
use felix_ansor::{
    HealthEvent, HealthReport, MeasurementEvent, MeasurementSink, Proposer, RoundReport,
    SearchTask, SketchState, TuneOptions, TunerStats,
};
use felix_cost::{fine_tune, log_transform, Mlp, MlpScratch};
use felix_egraph::RunnerLimits;
use felix_expr::rewrite::simplify_with_limits;
use felix_expr::subst::exp_substitution;
use felix_expr::{smooth_all, CompiledGradTape, ExprId, VarId};
use felix_features::{extract_features, FEATURE_COUNT};
use felix_graph::lower::lower_subgraph;
use felix_graph::Task;
use felix_sim::clock::ClockCosts;
use felix_sim::vendor::hardware_params;
use felix_sim::{candidate_key, Simulator, TuningClock};
use felix_tir::sketch::{generate_sketches, round_to_valid};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// A [`Proposer`] decorator around [`GradientProposer`]: delegates every
/// trait method and remembers when the last `propose` call started and
/// ended.
pub struct ProbedProposer {
    inner: GradientProposer,
    last: Option<(Instant, Instant)>,
}

impl ProbedProposer {
    pub fn new(inner: GradientProposer) -> ProbedProposer {
        ProbedProposer { inner, last: None }
    }

    /// Start and end of the last `propose` call, drained on read.
    pub fn take_last_propose(&mut self) -> Option<(Instant, Instant)> {
        self.last.take()
    }
}

impl Proposer for ProbedProposer {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn take_stats(&mut self) -> Vec<TunerStats> {
        self.inner.take_stats()
    }

    fn propose(
        &mut self,
        task: &SearchTask,
        model: &Mlp,
        n: usize,
        clock: &mut TuningClock,
        costs: &ClockCosts,
        rng: &mut StdRng,
    ) -> Vec<(usize, Vec<f64>)> {
        let start = Instant::now();
        let out = self.inner.propose(task, model, n, clock, costs, rng);
        self.last = Some((start, Instant::now()));
        out
    }

    fn take_prediction_trace(&mut self) -> Vec<f64> {
        self.inner.take_prediction_trace()
    }

    fn take_health(&mut self) -> HealthReport {
        self.inner.take_health()
    }

    fn note_measurement(&mut self, report: &RoundReport) {
        self.inner.note_measurement(report);
    }
}

/// A [`MeasurementSink`] that only counts — it stays a pure observer.
#[derive(Clone, Copy, Debug, Default)]
pub struct CountingSink {
    pub measured: usize,
    pub failed: usize,
}

impl MeasurementSink for CountingSink {
    fn record(&mut self, event: &MeasurementEvent<'_>) {
        match event.outcome {
            Ok(_) => self.measured += 1,
            Err(_) => self.failed += 1,
        }
    }

    fn record_health(&mut self, _event: &HealthEvent<'_>) {}
}

/// Where a replay reports: the sample sink, the span log, and the span the
/// stand-ins attach to.
pub struct Probe<'a> {
    pub layers: &'a mut Layers,
    pub rec: &'a mut Recorder,
    pub op: u64,
    /// Whether this operation is inside the counted prefix (count-type
    /// metrics only accumulate there, so they repeat exactly).
    pub counted: bool,
}

impl Probe<'_> {
    fn count(&mut self, name: &'static str, by: f64) {
        if self.counted {
            self.layers.add(name, by);
        }
    }
}

/// Replays what `SearchTask::from_task` does for one task — lowering,
/// sketch generation, feature extraction — timing each public call.
pub fn replay_task_build(
    task: &Task,
    sim: &Simulator,
    probe: &mut Probe<'_>,
    parent: Option<SpanId>,
) {
    let hw = hardware_params(&sim.device);
    let t = Instant::now();
    let p0 = lower_subgraph(&task.subgraph);
    let lower_us = us_since(t);
    probe.layers.sample("graph.lower_us", lower_us);
    let t = Instant::now();
    let sketches = generate_sketches(&p0, &hw);
    let gen_us = us_since(t);
    probe.layers.sample("tir.sketch_gen_us", gen_us);
    probe.count("tir.sketches", sketches.len() as f64);
    let mut extract_us = 0.0;
    for sk in sketches {
        let mut program = sk.program;
        let t = Instant::now();
        let features = extract_features(&mut program);
        let us = us_since(t);
        std::hint::black_box(&features);
        probe.layers.sample("features.extract_us", us);
        extract_us += us;
    }
    probe
        .rec
        .replayed("graph.lower", probe.op, parent, (lower_us * 1e3) as u64);
    probe
        .rec
        .replayed("tir.sketch_gen", probe.op, parent, (gen_us * 1e3) as u64);
    probe.rec.replayed(
        "features.extract",
        probe.op,
        parent,
        (extract_us * 1e3) as u64,
    );
}

/// What one replayed objective build measured.
pub struct BuildReplay {
    pub objective: SketchObjective,
    /// Sum of the separately timed pipeline stages, milliseconds.
    pub stages_ms: f64,
    /// One whole `SketchObjective::build_with` call, milliseconds.
    pub build_ms: f64,
}

/// Replays one sketch's objective build twice: once stage by stage —
/// `smooth_all`, `exp_substitution`, `simplify_with_limits` (same
/// `RunnerLimits`), `CompiledGradTape::compile`, in `build_with`'s order —
/// and once as the single `SketchObjective::build_with` call the proposer
/// makes, so the stage sum can be held against the real thing.
pub fn replay_objective_build(
    sketch: &SketchState,
    pipeline: PipelineOptions,
    probe: &mut Probe<'_>,
    parent: Option<SpanId>,
) -> BuildReplay {
    let mut program = sketch.program.clone();
    let logfeats: Vec<ExprId> = sketch
        .features
        .exprs
        .iter()
        .map(|&f| program.pool.log1p(f))
        .collect();
    let mut roots = logfeats;
    roots.extend(program.constraints.iter().map(|c| c.expr));

    let t = Instant::now();
    let smoothed = smooth_all(&mut program.pool, &roots);
    let smooth_ms = ms_since(t);

    let xs: Vec<VarId> = program.sched_vars.iter().map(|sv| sv.var).collect();
    let t = Instant::now();
    let mut vars = std::mem::take(&mut program.vars);
    let (substituted, _) = exp_substitution(&mut program.pool, &mut vars, &smoothed, &xs);
    program.vars = vars;
    let subst_ms = ms_since(t);

    let nodes_in = program.pool.reachable_count(&substituted);
    let t = Instant::now();
    let limits = RunnerLimits {
        max_iters: 12,
        max_nodes: 80_000,
    };
    let simplified = simplify_with_limits(&mut program.pool, &substituted, limits);
    let simplify_ms = ms_since(t);
    let nodes_out = program.pool.reachable_count(&simplified);

    let t = Instant::now();
    let tape = CompiledGradTape::compile(&program.pool, &simplified);
    let compile_ms = ms_since(t);

    let t = Instant::now();
    let objective = SketchObjective::build_with(&sketch.program, &sketch.features.exprs, pipeline);
    let build_ms = ms_since(t);

    let l = &mut *probe.layers;
    l.sample("expr.smooth_ms", smooth_ms);
    l.sample("expr.exp_subst_ms", subst_ms);
    l.sample("egraph.simplify_ms", simplify_ms);
    l.sample("expr.tape_compile_ms", compile_ms);
    l.sample("core.objective_build_ms", build_ms);
    probe.count("egraph.nodes_in", nodes_in as f64);
    probe.count("egraph.nodes_out", nodes_out as f64);
    probe.count("expr.pool_nodes", objective.program.pool.len() as f64);
    probe.count("expr.tape_nodes", tape.len() as f64);

    let build = probe.rec.replayed(
        "core.objective_build",
        probe.op,
        parent,
        (build_ms * 1e6) as u64,
    );
    for (name, ms) in [
        ("expr.smooth", smooth_ms),
        ("expr.exp_subst", subst_ms),
        ("egraph.simplify", simplify_ms),
        ("expr.tape_compile", compile_ms),
    ] {
        probe.rec.replayed(name, probe.op, build, (ms * 1e6) as u64);
    }
    BuildReplay {
        objective,
        stages_ms: smooth_ms + subst_ms + simplify_ms + compile_ms,
        build_ms,
    }
}

/// Warns when the separately timed pipeline stages and the whole
/// `build_with` calls they stand for are more than 15 % apart over a run —
/// the stage recipe has then drifted from what `build_with` does.
pub fn warn_if_stages_drifted(stages_ms: f64, builds_ms: f64) {
    if builds_ms > 0.0 && (stages_ms / builds_ms - 1.0).abs() > 0.15 {
        eprintln!(
            "[felix-benchmark] replayed pipeline stages sum to {stages_ms:.1} ms but build_with took {builds_ms:.1} ms (>15% apart)"
        );
    }
}

/// Per-seed cost of one descent step's two halves, microseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepCost {
    pub tape_us_per_seed: f64,
    pub mlp_us_per_seed: f64,
}

/// Times one Adam step's expression half (the `tuner_bench` tape recipe:
/// batched forward, transposed feature extraction and seeding, batched
/// penalty seeding, reverse sweep, per-lane gradients) at `lanes` seeds per
/// sketch group, and its cost-model half (`Mlp::input_gradient_batch_cols`)
/// at `chunk_width` seeds per worker chunk — the shapes this workload's
/// descent really produces.
pub fn replay_descent_step(
    obj: &SketchObjective,
    model: &Mlp,
    lanes: usize,
    chunk_width: usize,
    probe: &mut Probe<'_>,
) -> StepCost {
    const REPS: usize = 10;
    let mut rng = StdRng::seed_from_u64(0x7A9E);
    let points: Vec<Vec<f64>> = (0..lanes)
        .map(|_| (0..obj.n_vars()).map(|_| rng.gen_range(0.3..3.5)).collect())
        .collect();
    let cols: Vec<usize> = (0..lanes).collect();
    let mut scratch = EvalScratch::default();
    let mut feats_t = vec![0.0; obj.n_feats() * lanes];
    let mut grad = Vec::new();
    let dscore_t = vec![1e-3; obj.n_feats() * lanes];
    let mut tape_us = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        obj.begin_batch(&mut scratch, lanes);
        for (lane, y) in points.iter().enumerate() {
            obj.set_lane(&mut scratch, lane, y);
        }
        obj.forward_batch(&mut scratch);
        obj.write_feats_cols(&mut scratch, &cols, lanes, &mut feats_t, |_, ok| {
            std::hint::black_box(ok);
        });
        obj.seed_feats_cols(&mut scratch, &cols, lanes, &dscore_t);
        obj.seed_penalties_all(&mut scratch, 1.0, |_, p, _| {
            std::hint::black_box(p);
        });
        obj.backward_batch(&mut scratch);
        for lane in 0..lanes {
            obj.grad_lane(&scratch, lane, &mut grad);
            std::hint::black_box(&grad);
        }
        tape_us.push(us_since(t) / lanes as f64);
    }

    // The MLP sees the whole worker chunk at once, whatever the sketch
    // grouping; fill its feature-major input from the tape's real features.
    let mut chunk_t = vec![0.0; FEATURE_COUNT * chunk_width];
    for k in 0..FEATURE_COUNT.min(obj.n_feats()) {
        for s in 0..chunk_width {
            chunk_t[k * chunk_width + s] = feats_t[k * lanes + s % lanes];
        }
    }
    let mut mlp_scratch = MlpScratch::default();
    let (mut scores, mut grads) = (Vec::new(), Vec::new());
    let mut mlp_us = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        model.input_gradient_batch_cols(
            &chunk_t,
            chunk_width,
            &mut mlp_scratch,
            &mut scores,
            &mut grads,
        );
        std::hint::black_box(&grads);
        mlp_us.push(us_since(t) / chunk_width as f64);
    }
    let cost = StepCost {
        tape_us_per_seed: crate::stats::median(&tape_us),
        mlp_us_per_seed: crate::stats::median(&mlp_us),
    };
    probe
        .layers
        .sample("expr.tape_fwd_bwd_us_per_seed", cost.tape_us_per_seed);
    probe
        .layers
        .sample("cost.mlp_input_grad_us_per_seed", cost.mlp_us_per_seed);
    probe.layers.sample("expr.tape_lanes", lanes as f64);
    probe
        .layers
        .sample("cost.mlp_chunk_width", chunk_width as f64);
    cost
}

/// Per-call cost of the leaf calls candidate ranking makes, microseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct RankCost {
    pub round_to_valid_us: f64,
    pub feature_eval_us: f64,
    pub predict_us_per_row: f64,
}

/// Replays ranking's leaf calls on the task's most recently measured
/// schedules: `round_to_valid` on relaxed (jittered) copies, then
/// `SketchState::eval_features_into` and one `Mlp::predict_batch`.
pub fn replay_rank_leafs(task: &SearchTask, model: &Mlp, probe: &mut Probe<'_>) -> RankCost {
    let recent: Vec<&(usize, Vec<f64>, f64)> = task.measured.iter().rev().take(32).collect();
    if recent.is_empty() {
        return RankCost::default();
    }
    let mut rng = StdRng::seed_from_u64(0x2A11D);
    let mut r2v = Vec::with_capacity(recent.len());
    let mut eval = Vec::with_capacity(recent.len());
    let mut rows = Vec::with_capacity(recent.len());
    let (mut scratch, mut raw) = (Vec::new(), Vec::new());
    for (sk, vals, _) in &recent {
        let st = &task.sketches[*sk];
        let relaxed: Vec<f64> = vals.iter().map(|v| v * rng.gen_range(0.8..1.25)).collect();
        let t = Instant::now();
        std::hint::black_box(round_to_valid(&st.program, &relaxed));
        r2v.push(us_since(t));
        let t = Instant::now();
        st.eval_features_into(vals, &mut scratch, &mut raw);
        eval.push(us_since(t));
        rows.push(log_transform(&raw));
    }
    let t = Instant::now();
    std::hint::black_box(model.predict_batch(&rows));
    let predict_us_per_row = us_since(t) / rows.len() as f64;
    let cost = RankCost {
        round_to_valid_us: crate::stats::median(&r2v),
        feature_eval_us: crate::stats::median(&eval),
        predict_us_per_row,
    };
    probe
        .layers
        .sample("tir.round_to_valid_us", cost.round_to_valid_us);
    probe
        .layers
        .sample("features.eval_us", cost.feature_eval_us);
    probe
        .layers
        .sample("cost.predict_batch_us_per_row", predict_us_per_row);
    cost
}

/// Replays what `tune_task_round` did after `propose`: the simulator
/// measurements (with a throw-away RNG) and the cost-model `fine_tune` (on
/// a clone, with the round's own sample window and epoch rule). Attaches
/// both as stand-ins under the round's span.
pub fn replay_round_tail(
    task: &SearchTask,
    model: &Mlp,
    sim: &Simulator,
    opts: &TuneOptions,
    report: &RoundReport,
    probe: &mut Probe<'_>,
    round: Option<SpanId>,
) {
    let mut rng = StdRng::seed_from_u64(0xD15CA2D);
    let mut total_us = 0.0;
    for (sk, vals, _) in task.measured.iter().rev().take(report.measured) {
        let st = &task.sketches[*sk];
        let key = candidate_key(*sk, vals);
        let t = Instant::now();
        std::hint::black_box(sim.measure_outcome(
            &st.program,
            &st.features,
            vals,
            &mut rng,
            &opts.fault_plan,
            key,
            0,
        ));
        let us = us_since(t);
        probe.layers.sample("sim.measure_us", us);
        total_us += us;
    }
    probe
        .rec
        .replayed("sim.measure", probe.op, round, (total_us * 1e3) as u64);
    if opts.update_model && report.measured > 0 {
        let mut clone = model.clone();
        let start = task.samples.len().saturating_sub(192);
        let epochs = (opts.fine_tune_epochs * report.measured)
            .div_ceil(64)
            .max(1);
        let t = Instant::now();
        std::hint::black_box(fine_tune(
            &mut clone,
            &task.samples[start..],
            epochs,
            opts.fine_tune_lr,
        ));
        let ms = ms_since(t);
        probe.layers.sample("cost.fine_tune_ms", ms);
        probe.count("cost.fine_tune_calls", 1.0);
        probe
            .rec
            .replayed("cost.fine_tune", probe.op, round, (ms * 1e6) as u64);
    }
}

/// Workers descent runs on and seeds per worker chunk, as `propose` splits
/// them — the shapes the replayed descent step must be timed at.
pub fn descent_shape(options: &felix::FelixOptions) -> (usize, usize) {
    let workers = felix::parallel::effective_threads(options.threads)
        .min(options.n_seeds)
        .max(1);
    (workers, options.n_seeds.div_ceil(workers))
}

/// The `propose` call of one round, as seen from outside.
pub struct ProposeSpans {
    pub propose: Option<SpanId>,
    pub descent: Option<SpanId>,
}

/// Records one round's `propose` call under `round`: its span from the
/// decorator's timestamps, descent inside it as a stand-in whose duration
/// the proposer's own [`TunerStats`] report, and the `core.*` metrics. On
/// rounds whose objectives were memoized, propose minus descent is seed
/// initialisation, rounding, dedup, ranking and selection: `core.rank_ms`.
pub fn note_propose(
    stats: &TunerStats,
    (start, end): (Instant, Instant),
    round: Option<SpanId>,
    probe: &mut Probe<'_>,
) -> ProposeSpans {
    let descent_ms = note_tuner_stats(stats, probe);
    let propose_ms = end.duration_since(start).as_secs_f64() * 1e3;
    probe.layers.sample("core.propose_ms", propose_ms);
    if stats.cache_misses == 0 {
        probe.layers.sample("core.rank_ms", propose_ms - descent_ms);
    }
    let propose = probe
        .rec
        .span_at("core.propose", probe.op, round, start, end);
    let descent = probe
        .rec
        .replayed("core.descent", probe.op, propose, (descent_ms * 1e6) as u64);
    ProposeSpans { propose, descent }
}

/// Folds one round's [`TunerStats`] into the `core.*` layer metrics and
/// returns the descent wall time in milliseconds.
fn note_tuner_stats(stats: &TunerStats, probe: &mut Probe<'_>) -> f64 {
    let descent_ms = if stats.steps_per_sec > 0.0 {
        stats.grad_steps as f64 / stats.steps_per_sec * 1e3
    } else {
        0.0
    };
    let l = &mut *probe.layers;
    l.sample("core.descent_ms", descent_ms);
    l.sample("core.descent_steps_per_s", stats.steps_per_sec);
    l.sample("core.penalty_violation_rate", stats.penalty_violation_rate);
    l.sample(
        "core.rounding_rejection_rate",
        stats.rounding_rejection_rate,
    );
    if probe.counted {
        l.add("core.candidates", stats.candidates as f64);
        l.add("core.seed_restarts", stats.seed_restarts as f64);
        l.add("core.nonfinite_events", stats.nonfinite_events as f64);
        l.add("probe.memo_hits", stats.cache_hits as f64);
        l.add(
            "probe.memo_lookups",
            (stats.cache_hits + stats.cache_misses) as f64,
        );
        l.add("probe.tape_cache_hits", stats.tape_cache_hits as f64);
        l.add("probe.tape_cache_lookups", stats.cache_misses as f64);
    }
    descent_ms
}

/// The deterministic fingerprint of the counted prefix: simulated tuning
/// clock, measurements taken and lost, and the share of the requested
/// measurement budget that was spent.
pub fn note_counted_prefix(
    layers: &mut Layers,
    clock_s: f64,
    sink: &CountingSink,
    requested: usize,
) {
    layers.set("sim.tuning_clock_s", clock_s);
    layers.set("sim.measurements", sink.measured as f64);
    layers.set("sim.measure_failures", sink.failed as f64);
    layers.set(
        "ansor.measured_per_requested",
        sink.measured as f64 / requested as f64,
    );
}

/// Turns the hit/lookup counters of [`note_tuner_stats`] into rates.
pub fn finish_hit_rates(layers: &mut Layers) {
    let rate = |l: &Layers, hits: &str, lookups: &str| {
        let n = l.counter(lookups);
        if n > 0.0 {
            l.counter(hits) / n
        } else {
            0.0
        }
    };
    let memo = rate(layers, "probe.memo_hits", "probe.memo_lookups");
    let tape = rate(layers, "probe.tape_cache_hits", "probe.tape_cache_lookups");
    layers.set("core.objective_memo_hit_rate", memo);
    layers.set("core.tape_cache_hit_rate", tape);
}
