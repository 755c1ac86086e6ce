//! The Ansor-TenSet baseline: evolutionary schedule search plus the
//! round-based multi-task tuning loop (paper §5, Zheng et al. OSDI '20).
//!
//! This crate also hosts the *shared* tuning infrastructure — [`SearchTask`]
//! states over shared [`SearchSpace`]s, the [`Proposer`] abstraction,
//! per-round measurement/fine-tuning, and the task scheduler — because the
//! paper keeps everything except the candidate-proposal algorithm identical
//! between Ansor and Felix for a fair comparison (§3.5: Felix adopts Ansor's
//! round-based tuning and task scheduler).

pub mod evolution;

pub use evolution::EvolutionaryProposer;

use felix_cost::{fine_tune, ingest_sample, log_transform, Mlp, PackedMlp, Sample};
use felix_features::{extract_features, FeatureSet};
use felix_graph::lower::lower_subgraph;
use felix_graph::Task;
use felix_sim::clock::ClockCosts;
use felix_sim::vendor::hardware_params;
use felix_sim::{candidate_key, FaultKind, FaultPlan, MeasureOutcome, Simulator, TuningClock};
use felix_tir::sketch::{generate_sketches, generator_hash, HardwareParams, RoundingPlan};
use felix_tir::Program;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;
use std::ops::Deref;
use std::sync::Arc;

/// One symbolic sketch of a task, with its extracted feature formulas.
#[derive(Clone, Debug)]
pub struct SketchState {
    /// Sketch label.
    pub name: &'static str,
    /// The symbolic program; its pool holds the feature formulas.
    pub program: Program,
    /// The 82 feature formulas over this sketch's schedule variables.
    pub features: FeatureSet,
    /// The program's rounding plan: every relaxed point a proposer rounds
    /// back to a valid schedule goes through it.
    pub rounding: RoundingPlan,
}

impl SketchState {
    /// Raw feature values of a concrete schedule, by one walk of the sketch
    /// pool into `scratch` ([`FeatureSet::eval_into`]); with both buffers
    /// reused, scoring loops allocate nothing per candidate.
    pub fn eval_features_into(
        &self,
        values: &[f64],
        scratch: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) {
        self.features.eval_into(&self.program, values, scratch, out);
    }
}

/// Which proposal algorithm a sketch is currently tuned with — the rungs of
/// the supervisor's degradation ladder. Every sketch starts at
/// [`SketchMode::Gradient`]. The descent supervisor (the `felix` crate's
/// `health` module, the one place the ladder policy lives) decides each
/// sketch's rung for the next round and hands it over in
/// [`HealthReport::modes`]; [`SketchMode::Evolutionary`] is sticky, since
/// the discrete proposer cannot diverge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SketchMode {
    /// Full-speed gradient descent (the healthy default).
    #[default]
    Gradient,
    /// Gradient descent with a tight gradient-norm clip (first rung of
    /// degradation; recoverable).
    ClippedGradient,
    /// The evolutionary fallback proposer (final rung; sticky).
    Evolutionary,
}

impl SketchMode {
    /// Stable wire label (persisted in health records).
    pub fn label(self) -> &'static str {
        match self {
            SketchMode::Gradient => "gd",
            SketchMode::ClippedGradient => "gd-clipped",
            SketchMode::Evolutionary => "evo",
        }
    }

    /// Parses a [`Self::label`] string.
    pub fn from_label(label: &str) -> Option<SketchMode> {
        match label {
            "gd" => Some(SketchMode::Gradient),
            "gd-clipped" => Some(SketchMode::ClippedGradient),
            "evo" => Some(SketchMode::Evolutionary),
            _ => None,
        }
    }

    /// Whether this mode still runs gradient descent.
    pub fn uses_gradient(self) -> bool {
        self != SketchMode::Evolutionary
    }
}

/// What the descent supervisor observed during one `propose` call — five
/// numeric failure counters — and what it decided: every sketch's
/// [`SketchMode`] for the next round. The counters of a healthy round are
/// all zero, the invariant behind the healthy-run bit-parity guarantee.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HealthReport {
    /// NaN/Inf/overflow events (objective, gradient, or feature outputs).
    pub nonfinite_events: usize,
    /// Monotone-divergence events over the supervisor's sliding window.
    pub divergence_events: usize,
    /// Seeds restarted from their dedicated RNG substreams.
    pub seed_restarts: usize,
    /// Gradient-norm clips applied.
    pub grad_clips: usize,
    /// Sketches poisoned by a caught panic (one each, however many of
    /// their work items panicked; the process lives on).
    pub panics_caught: usize,
    /// Every sketch's mode for the next round, as the supervisor decided
    /// it — exactly what a health record persists. Empty when nothing
    /// decided (proposers without a descent phase): the task's modes stay.
    pub modes: Vec<SketchMode>,
}

impl HealthReport {
    /// True when every counter is zero. (Whether the modes changed is a
    /// question for the task: see [`SearchTask::apply_health`].)
    pub fn is_clean(&self) -> bool {
        self.nonfinite_events == 0
            && self.divergence_events == 0
            && self.seed_restarts == 0
            && self.grad_clips == 0
            && self.panics_caught == 0
    }

    /// Folds another report into this one: counters add, and the other
    /// report's modes, when it has any, replace these (the later decision
    /// wins).
    pub fn merge(&mut self, other: &HealthReport) {
        self.nonfinite_events += other.nonfinite_events;
        self.divergence_events += other.divergence_events;
        self.seed_restarts += other.seed_restarts;
        self.grad_clips += other.grad_clips;
        self.panics_caught += other.panics_caught;
        if !other.modes.is_empty() {
            self.modes.clone_from(&other.modes);
        }
    }
}

/// Dedup identity of a candidate: its sketch and the bit patterns of its
/// values, see [`schedule_key`].
pub type ScheduleKey = (usize, Vec<u64>);

/// The [`ScheduleKey`] of `(sketch, vals)`. Every NaN maps to one bit
/// pattern, so two candidates share a key exactly when their
/// `format!("{sketch}:{vals:?}")` renderings are equal: `Debug` prints every
/// NaN as `NaN` and every other distinct bit pattern differently.
pub fn schedule_key(sketch: usize, vals: &[f64]) -> ScheduleKey {
    let bits = vals
        .iter()
        .map(|v| if v.is_nan() { f64::NAN.to_bits() } else { v.to_bits() })
        .collect();
    (sketch, bits)
}

/// What a [`SearchSpace`] is a pure function of: the workload, the
/// device's hardware limits and the sketch generator. Two tasks with equal
/// keys have equal spaces, so a process memo may hand them one.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpaceKey {
    /// [`felix_graph::Subgraph::workload_key`] of the task.
    pub workload_key: String,
    /// The device's hardware limits, which shape the sketches.
    pub hardware: HardwareParams,
    /// [`felix_tir::sketch::generator_hash`] of the generator that built it.
    pub generator: u64,
}

impl SpaceKey {
    /// The key of `task`'s space on a device with `hardware` limits.
    pub fn new(task: &Task, hardware: HardwareParams) -> SpaceKey {
        SpaceKey {
            workload_key: task.subgraph.workload_key(),
            hardware,
            generator: generator_hash(),
        }
    }
}

/// The immutable half of a task's search: every sketch's program, symbolic
/// features and rounding plan. Built once per [`SpaceKey`] and shared
/// behind an `Arc` by every task, optimizer and proposer that tunes the
/// workload; what a tune accumulates lives in its [`SearchTask`].
#[derive(Debug)]
pub struct SearchSpace {
    /// What the space was built from.
    pub key: SpaceKey,
    /// The generated sketches.
    pub sketches: Vec<SketchState>,
}

impl SearchSpace {
    /// Lowers `task`, generates its sketches for `key.hardware` and
    /// extracts each sketch's features and rounding plan.
    pub fn build(task: &Task, key: SpaceKey) -> SearchSpace {
        let p0 = lower_subgraph(&task.subgraph);
        let sketches = generate_sketches(&p0, &key.hardware)
            .into_iter()
            .map(|sk| {
                let mut program = sk.program;
                let features = extract_features(&mut program);
                let rounding = RoundingPlan::new(&program);
                SketchState { name: sk.name, program, features, rounding }
            })
            .collect();
        SearchSpace { key, sketches }
    }
}

/// A task's sketches: a shared handle on its [`SearchSpace`] that reads as
/// a slice of [`SketchState`]s. Cloning it clones the `Arc`.
#[derive(Clone, Debug)]
pub struct Sketches(Arc<SearchSpace>);

impl Sketches {
    /// The space the sketches belong to.
    pub fn space(&self) -> &SearchSpace {
        &self.0
    }
}

impl Deref for Sketches {
    type Target = [SketchState];

    fn deref(&self) -> &[SketchState] {
        &self.0.sketches
    }
}

impl<'a> IntoIterator for &'a Sketches {
    type Item = &'a SketchState;
    type IntoIter = std::slice::Iter<'a, SketchState>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.sketches.iter()
    }
}

/// Search state of one tuning task (fused subgraph): a shared
/// [`SearchSpace`] plus what this tune has accumulated on it. Cloning a
/// task copies its progress and shares its space.
#[derive(Clone, Debug)]
pub struct SearchTask {
    /// Display name.
    pub name: String,
    /// Stable workload identity ([`felix_graph::Subgraph::workload_key`]):
    /// unique per deduplicated subgraph, unlike `name`, and therefore the
    /// key under which this task's measurements are persisted and matched
    /// on replay.
    pub workload_key: String,
    /// Occurrences in the network.
    pub weight: usize,
    /// The generated sketches, shared with every task of the same
    /// [`SpaceKey`] that was given the same space.
    pub sketches: Sketches,
    /// Best measured latency so far (ms), `INFINITY` before any measurement.
    pub best_latency_ms: f64,
    /// Best (sketch, values) found.
    pub best_schedule: Option<(usize, Vec<f64>)>,
    /// All measurements `(sketch, values, latency_ms)`.
    pub measured: Vec<(usize, Vec<f64>, f64)>,
    /// Training samples of every measurement (replay buffer for the
    /// cost-model updates). Failed measurements never enter this buffer.
    pub samples: Vec<Sample>,
    /// Candidates whose measurement failed after exhausting retries:
    /// `(sketch, values, fault kind)`. They count as "measured" for dedup
    /// so the proposer never re-spends budget on them; the per-kind fault
    /// counts are this list's histogram.
    pub failed: Vec<(usize, Vec<f64>, FaultKind)>,
    /// Measurement retries spent on this task's candidates, including
    /// retries of candidates that later succeeded.
    pub retries: usize,
    /// Dedup set of measured candidates.
    measured_keys: HashSet<ScheduleKey>,
    /// Consecutive failed candidates per sketch (reset by any success); a
    /// streak of [`SearchTask::QUARANTINE_STREAK`] quarantines the sketch.
    fail_streak: Vec<usize>,
    /// Per-sketch degradation-ladder rung, updated by
    /// [`SearchTask::apply_health`] (all-[`SketchMode::Gradient`] until the
    /// supervisor reports trouble).
    sketch_modes: Vec<SketchMode>,
    /// Cached warm-start hints `(sketch, values)` — schedules transferred
    /// from a structurally identical task in a schedule store. Proposers
    /// may seed descent from them; they are never measured directly and an
    /// empty list leaves every proposer byte-identical to a hint-free run.
    pub warm_hints: Vec<(usize, Vec<f64>)>,
    /// Rounds spent on this task.
    pub rounds: usize,
}

impl SearchTask {
    /// Builds the search state for a fused subgraph on a device, with a
    /// space of its own ([`SearchSpace::build`]). The `felix` optimizer
    /// takes its spaces from a process memo instead, through
    /// [`SearchTask::new`].
    pub fn from_task(task: &Task, sim: &Simulator) -> Self {
        let key = SpaceKey::new(task, hardware_params(&sim.device));
        SearchTask::new(task, Arc::new(SearchSpace::build(task, key)))
    }

    /// A fresh tune of `task` over `space`, which must be `task`'s space
    /// (built under its [`SpaceKey`]).
    pub fn new(task: &Task, space: Arc<SearchSpace>) -> Self {
        let n_sketches = space.sketches.len();
        SearchTask {
            name: task.subgraph.name(),
            workload_key: space.key.workload_key.clone(),
            weight: task.weight,
            sketches: Sketches(space),
            best_latency_ms: f64::INFINITY,
            best_schedule: None,
            measured: Vec::new(),
            samples: Vec::new(),
            failed: Vec::new(),
            retries: 0,
            measured_keys: HashSet::new(),
            fail_streak: vec![0; n_sketches],
            sketch_modes: vec![SketchMode::Gradient; n_sketches],
            warm_hints: Vec::new(),
            rounds: 0,
        }
    }

    /// Consecutive candidate failures on one sketch that trigger
    /// quarantine.
    pub const QUARANTINE_STREAK: usize = 6;

    /// Predicted scores of `(sketch, values)` candidates: each one's
    /// features are evaluated and log-transformed, then all rows go through
    /// one [`PackedMlp::predict_batch`] call. Row `i` is bit-identical to
    /// `Mlp::predict` on candidate `i`, so how callers cut a candidate list
    /// into calls never changes a score. Both the gradient and the
    /// evolutionary proposer score every candidate through here.
    pub fn score_candidates(&self, model: &PackedMlp, cands: &[(usize, Vec<f64>)]) -> Vec<f64> {
        let (mut nodes, mut raw) = (Vec::new(), Vec::new());
        let rows: Vec<Vec<f64>> = cands
            .iter()
            .map(|(sk, vals)| {
                self.sketches[*sk].eval_features_into(vals, &mut nodes, &mut raw);
                log_transform(&raw)
            })
            .collect();
        model.predict_batch(&rows)
    }

    /// Whether a candidate has already been measured.
    pub fn already_measured(&self, sketch: usize, vals: &[f64]) -> bool {
        self.measured_keys.contains(&schedule_key(sketch, vals))
    }

    /// Whether `(sketch, vals)` is a valid schedule of this task: the
    /// sketch exists, `vals` assigns each of its variables, and the
    /// assignment satisfies its constraints. The one check a schedule
    /// passes before it is measured, recorded from a schedule store, or
    /// descended from as a warm hint —
    /// `Program::constraints_ok` alone panics on a short slice.
    pub fn fits(&self, sketch: usize, vals: &[f64]) -> bool {
        self.sketches.get(sketch).is_some_and(|st| {
            st.program.vars.len() == vals.len() && st.program.constraints_ok(vals, 1e-9)
        })
    }

    /// Records a measurement, updating the incumbent: a latency strictly
    /// below the best so far takes over (ties keep the earlier schedule;
    /// NaN never wins). A success also clears the sketch's failure streak,
    /// lifting any quarantine (the fault was evidently transient).
    pub fn record(&mut self, sketch: usize, vals: Vec<f64>, latency_ms: f64) {
        self.measured_keys.insert(schedule_key(sketch, &vals));
        if latency_ms < self.best_latency_ms {
            self.best_latency_ms = latency_ms;
            self.best_schedule = Some((sketch, vals.clone()));
        }
        if let Some(streak) = self.fail_streak.get_mut(sketch) {
            *streak = 0;
        }
        self.measured.push((sketch, vals, latency_ms));
    }

    /// Records a candidate whose measurement failed after exhausting its
    /// retry budget. The candidate joins the dedup set (never re-proposed)
    /// and the sketch's failure streak grows; at
    /// [`Self::QUARANTINE_STREAK`] the sketch is quarantined.
    pub fn record_failure(&mut self, sketch: usize, vals: Vec<f64>, kind: FaultKind) {
        self.measured_keys.insert(schedule_key(sketch, &vals));
        if let Some(streak) = self.fail_streak.get_mut(sketch) {
            *streak += 1;
        }
        self.failed.push((sketch, vals, kind));
    }

    /// Measurement-budget attempts wasted on faults: failed candidates
    /// plus retries.
    pub fn wasted_attempts(&self) -> usize {
        self.failed.len() + self.retries
    }

    /// Whether a sketch is currently quarantined: its last
    /// [`Self::QUARANTINE_STREAK`] candidates (or more) all failed.
    pub fn is_quarantined(&self, sketch: usize) -> bool {
        self.fail_streak.get(sketch).is_some_and(|&s| s >= Self::QUARANTINE_STREAK)
    }

    /// Indices of sketches proposers should draw from: every
    /// non-quarantined sketch, or all sketches when everything is
    /// quarantined (so a fully-faulted task still probes for recovery).
    pub fn active_sketches(&self) -> Vec<usize> {
        let active: Vec<usize> = (0..self.sketches.len())
            .filter(|&i| !self.is_quarantined(i))
            .collect();
        if active.is_empty() {
            (0..self.sketches.len()).collect()
        } else {
            active
        }
    }

    /// Per-sketch degradation-ladder rungs.
    pub fn sketch_modes(&self) -> &[SketchMode] {
        &self.sketch_modes
    }

    /// Overwrites the per-sketch modes — the replay path, where a persisted
    /// health record (not a fresh supervisor decision) is authoritative.
    ///
    /// # Panics
    ///
    /// Panics if `modes` does not have one entry per sketch.
    pub fn set_sketch_modes(&mut self, modes: &[SketchMode]) {
        assert_eq!(modes.len(), self.sketches.len(), "sketch count changed");
        self.sketch_modes.copy_from_slice(modes);
    }

    /// Adopts the supervisor's modes for the next round (a report without
    /// modes leaves them as they are). Returns whether any mode changed.
    pub fn apply_health(&mut self, report: &HealthReport) -> bool {
        let changed = !report.modes.is_empty() && report.modes != self.sketch_modes;
        if changed {
            self.set_sketch_modes(&report.modes);
        }
        changed
    }
}

/// Per-round observability counters of a proposer, drained via
/// [`Proposer::take_stats`]. One entry is recorded per `propose` call.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TunerStats {
    /// Gradient-descent steps executed this round (seeds × steps for the
    /// gradient proposer; zero for proposers without a descent phase).
    pub grad_steps: usize,
    /// Wall-clock descent throughput, in steps per second.
    pub steps_per_sec: f64,
    /// Rounded trajectory points examined this round.
    pub candidates: usize,
    /// Distinct schedules among this round's rounded points: each one's
    /// constraint and already-measured checks run once.
    pub distinct_candidates: usize,
    /// Fraction of rounded points rejected because a validity constraint
    /// was violated (the penalty terms failed to keep the seed feasible).
    pub penalty_violation_rate: f64,
    /// Fraction of rounded points rejected as duplicates of an earlier
    /// point or of an already-measured schedule (rounding collapsed distinct
    /// relaxed points onto one lattice point).
    pub rounding_rejection_rate: f64,
    /// Compiled-objective memo hits: sketch objectives reused from the
    /// process memo, built by an earlier round of any task or optimizer
    /// on the same space.
    pub cache_hits: usize,
    /// Compiled-objective memo misses (objectives built this round).
    pub cache_misses: usize,
    /// Worker threads the round ran on (1 = serial).
    pub threads: usize,
    /// Total expression-pool nodes across this round's sketch objectives
    /// (what a full pool sweep would walk per evaluation).
    pub pool_nodes: usize,
    /// Total compiled-tape instructions across this round's sketch
    /// objectives (what the fused forward+reverse passes actually touch).
    pub tape_nodes: usize,
    /// Seconds spent compiling the gradient tapes behind this round's
    /// objectives (paid once at objective build time; later rounds report
    /// the same amortized figure for cached objectives).
    pub tape_compile_s: f64,
    /// Candidates lost to measurement faults this round (after retries).
    pub measure_failures: usize,
    /// Measurement retry attempts spent this round.
    pub measure_retries: usize,
    /// Seeds the descent supervisor restarted this round.
    pub seed_restarts: usize,
    /// Non-finite objective/gradient/feature events this round.
    pub nonfinite_events: usize,
    /// Sketches poisoned by a caught panic this round.
    pub panics_caught: usize,
    /// Sketches running degraded (below [`SketchMode::Gradient`]) after
    /// this round: the supervisor's [`HealthReport::modes`] for the next.
    pub degraded_sketches: usize,
    /// Always 0: this counter's cache is gone (the objective memo reports
    /// in [`Self::cache_hits`]). Pinned by the frozen ledger: `benchmark/`
    /// reads it until ROADMAP item 1 step B deletes it there.
    pub tape_cache_hits: usize,
}

impl TunerStats {
    /// One-line human-readable rendering for bench binaries and logs.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "steps {} ({:.0}/s, {} thr) cand {} ({} distinct) viol {:.0}% dup {:.0}% cache {}/{} tape {}/{} nodes ({:.1} ms compile) fail {} retry {}",
            self.grad_steps,
            self.steps_per_sec,
            self.threads,
            self.candidates,
            self.distinct_candidates,
            self.penalty_violation_rate * 100.0,
            self.rounding_rejection_rate * 100.0,
            self.cache_hits,
            self.cache_hits + self.cache_misses,
            self.tape_nodes,
            self.pool_nodes,
            self.tape_compile_s * 1e3,
            self.measure_failures,
            self.measure_retries,
        );
        if self.seed_restarts > 0
            || self.nonfinite_events > 0
            || self.panics_caught > 0
            || self.degraded_sketches > 0
        {
            line.push_str(&format!(
                " health[restart {} nonfinite {} panic {} degraded {}]",
                self.seed_restarts,
                self.nonfinite_events,
                self.panics_caught,
                self.degraded_sketches,
            ));
        }
        line
    }
}

/// A candidate-proposal algorithm: the only part that differs between Ansor
/// (evolutionary) and Felix (gradient descent).
pub trait Proposer {
    /// Algorithm name for reports.
    fn name(&self) -> &'static str;

    /// Per-round observability counters since the last drain (empty for
    /// proposers that do not record any).
    fn take_stats(&mut self) -> Vec<TunerStats> {
        Vec::new()
    }

    /// Proposes up to `n` unmeasured candidates `(sketch_idx, values)` for
    /// one round, charging its own search time to `clock`. `_costs` carries
    /// nothing (see [`ClockCosts`]).
    fn propose(
        &mut self,
        task: &SearchTask,
        model: &Mlp,
        n: usize,
        clock: &mut TuningClock,
        _costs: &ClockCosts,
        rng: &mut StdRng,
    ) -> Vec<(usize, Vec<f64>)>;

    /// Chronological predicted scores of every candidate examined since the
    /// last drain, across however many `propose` calls (the paper's Fig. 8
    /// reads one whole tuning run at once); drained on read.
    fn take_prediction_trace(&mut self) -> Vec<f64> {
        Vec::new()
    }

    /// Drains the supervisor health report of the last `propose` call.
    /// Default: a clean report (proposers without a descent phase cannot
    /// diverge).
    fn take_health(&mut self) -> HealthReport {
        HealthReport::default()
    }

    /// Informs the proposer how the measurement of its last `propose` batch
    /// went, so failure/retry counters can land in the same per-round stats
    /// record as the search counters. Default: ignored.
    fn note_measurement(&mut self, _report: &RoundReport) {}
}

/// One finished measurement (success, or failure after exhausting retries),
/// as delivered to a [`MeasurementSink`] the moment the tuner records it.
#[derive(Clone, Copy, Debug)]
pub struct MeasurementEvent<'a> {
    /// The task's stable workload key ([`SearchTask::workload_key`]).
    pub workload_key: &'a str,
    /// The task's display name.
    pub task_name: &'a str,
    /// Sketch index of the candidate.
    pub sketch: usize,
    /// Sketch label (validates sketch identity on replay).
    pub sketch_name: &'static str,
    /// The concrete schedule-variable assignment.
    pub values: &'a [f64],
    /// Measured latency (ms) or the final fault.
    pub outcome: Result<f64, FaultKind>,
    /// Retry attempts this candidate consumed.
    pub retries: usize,
    /// Simulated tuning-clock time when the measurement completed.
    pub time_s: f64,
}

/// One round's supervisor health report the moment its degradation
/// decisions were applied to the task, as delivered to a
/// [`MeasurementSink`].
#[derive(Clone, Debug)]
pub struct HealthEvent<'a> {
    /// The task's stable workload key ([`SearchTask::workload_key`]).
    pub workload_key: &'a str,
    /// The task's display name.
    pub task_name: &'a str,
    /// Tuning round (0-based) whose descent produced the report.
    pub round: usize,
    /// The supervisor's counters and its modes for the next round — the
    /// authoritative state a replay restores.
    pub report: &'a HealthReport,
    /// Simulated tuning-clock time when the report was recorded.
    pub time_s: f64,
}

/// A consumer of measurement events — the hook a durable record log (or any
/// other observer) attaches to the tuning loop. Sinks only *observe*: they
/// must not touch the RNG or the clock, so a run with a sink attached stays
/// bit-identical to one without.
pub trait MeasurementSink {
    /// Called once per finished measurement, in execution order.
    fn record(&mut self, event: &MeasurementEvent<'_>);

    /// Called once per round whose health report is non-clean or changed a
    /// sketch mode (fault-free rounds emit nothing). Default: ignored.
    fn record_health(&mut self, _event: &HealthEvent<'_>) {}
}

/// Retries per failed candidate after its first attempt. Timeouts and
/// device errors are retried; build errors never are (rebuilding the same
/// kernel cannot succeed). Every retry and its backoff are charged to the
/// tuning clock, as a flaky device costs real tuning time in
/// AutoTVM/MetaSchedule.
pub const MAX_RETRIES: usize = 2;

/// What one call of [`tune_task_round_with_sink`] did with its measurement
/// budget, plus the descent supervisor's health report for the round.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoundReport {
    /// Candidates measured successfully.
    pub measured: usize,
    /// Candidates lost to faults after exhausting retries.
    pub failed: usize,
    /// Retry attempts spent (including retries that eventually succeeded).
    pub retries: usize,
    /// The proposer's supervisor report (clean for proposers without a
    /// descent phase and for healthy rounds).
    pub health: HealthReport,
}

/// Options of the round-based tuner.
#[derive(Clone, Copy, Debug)]
pub struct TuneOptions {
    /// Hardware measurements per round (Felix 16, Ansor 64; §5).
    pub measurements_per_round: usize,
    /// Whether to fine-tune the cost model on each round's measurements.
    pub update_model: bool,
    /// Fine-tuning epochs.
    pub fine_tune_epochs: usize,
    /// Fine-tuning learning rate.
    pub fine_tune_lr: f32,
    /// Fault injection applied to measurements (zero by default; with the
    /// zero plan the whole pipeline is byte-identical to one without the
    /// fault layer).
    pub fault_plan: FaultPlan,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            measurements_per_round: 16,
            update_model: true,
            fine_tune_epochs: 5,
            fine_tune_lr: 4e-4,
            fault_plan: FaultPlan::none(),
        }
    }
}

/// Runs one tuning round on a task: propose → measure (with retry/backoff
/// on transient faults) → update model (Algorithm 1). Returns what happened
/// to the measurement budget. `sink`, when attached, receives every finished
/// measurement; it is a pure observer, so the search state, RNG stream and
/// clock evolve identically with or without it. `_costs` carries nothing
/// (see [`ClockCosts`]).
#[allow(clippy::too_many_arguments)]
pub fn tune_task_round_with_sink(
    task: &mut SearchTask,
    proposer: &mut dyn Proposer,
    model: &mut Mlp,
    sim: &Simulator,
    clock: &mut TuningClock,
    _costs: &ClockCosts,
    opts: &TuneOptions,
    rng: &mut StdRng,
    mut sink: Option<&mut (dyn MeasurementSink + '_)>,
) -> RoundReport {
    let n = opts.measurements_per_round;
    let candidates = proposer.propose(task, model, n, clock, &ClockCosts, rng);
    // Adopt the supervisor's modes before anything else consumes the
    // round: degradation takes effect from the next propose call, and the
    // decision is what the record log persists (so a replay restores the
    // exact same ladder moves).
    let health = proposer.take_health();
    let modes_changed = task.apply_health(&health);
    if modes_changed || !health.is_clean() {
        if let Some(s) = sink.as_deref_mut() {
            s.record_health(&HealthEvent {
                workload_key: &task.workload_key,
                task_name: &task.name,
                round: task.rounds,
                report: &health,
                time_s: clock.now_s(),
            });
        }
    }
    let mut new_samples = Vec::new();
    let mut report = RoundReport { health, ..RoundReport::default() };
    for (sketch, vals) in candidates {
        if task.already_measured(sketch, &vals) {
            continue;
        }
        if !task.fits(sketch, &vals) {
            continue;
        }
        let st = &task.sketches[sketch];
        // Attempt loop: transient faults (timeouts, device errors) are
        // retried up to MAX_RETRIES times with exponential backoff; build
        // errors are deterministic and fail immediately. Every attempt —
        // successful, failed, or retried — is charged to the tuning clock.
        // With a zero-rate plan this loop runs exactly one iteration and
        // consumes the measurement RNG and clock identically to the
        // fault-free pipeline.
        let key = candidate_key(sketch, &vals);
        let mut attempt = 0u32;
        let fate = loop {
            let outcome = sim.measure_outcome(
                &st.program,
                &st.features,
                &vals,
                rng,
                &opts.fault_plan,
                key,
                attempt,
            );
            clock.charge_measurement(outcome, sim.device.rpc);
            match outcome {
                MeasureOutcome::Ok(latency) => break Ok(latency),
                MeasureOutcome::Fail(kind) => {
                    let retries_spent = attempt as usize;
                    if kind.retryable() && retries_spent < MAX_RETRIES {
                        clock.charge_retry_backoff(retries_spent);
                        report.retries += 1;
                        task.retries += 1;
                        attempt += 1;
                        continue;
                    }
                    break Err(kind);
                }
            }
        };
        if let Some(s) = sink.as_deref_mut() {
            s.record(&MeasurementEvent {
                workload_key: &task.workload_key,
                task_name: &task.name,
                sketch,
                sketch_name: st.name,
                values: &vals,
                outcome: fate,
                retries: attempt as usize,
                time_s: clock.now_s(),
            });
        }
        match fate {
            Ok(latency) => {
                new_samples.push(ingest_sample(&st.program, &st.features, &vals, latency));
                task.record(sketch, vals, latency);
                report.measured += 1;
            }
            Err(kind) => {
                task.record_failure(sketch, vals, kind);
                report.failed += 1;
            }
        }
    }
    if opts.update_model && !new_samples.is_empty() {
        let n_new = new_samples.len();
        task.samples.extend(new_samples);
        fine_tune_on_new_samples(model, &task.samples, n_new, opts);
        clock.charge_model_update();
    }
    task.rounds += 1;
    proposer.note_measurement(&report);
    report
}

/// The cost-model update after `n_new` samples joined the end of `samples`
/// — a live round's measurements, or a record log's replayed ones (the one
/// rule both apply, so warm-start replay cannot drift from live tuning).
/// Fine-tunes on a replay buffer (the new samples plus a window of history)
/// so repeated tiny updates don't drift the model, with the epoch count
/// scaled to the amount of new data so tools with different
/// measurements-per-round apply the same total update strength per
/// measurement.
pub fn fine_tune_on_new_samples(
    model: &mut Mlp,
    samples: &[Sample],
    n_new: usize,
    opts: &TuneOptions,
) {
    const REPLAY_WINDOW: usize = 192;
    let start = samples.len().saturating_sub(REPLAY_WINDOW);
    let epochs = ((opts.fine_tune_epochs * n_new).div_ceil(64)).max(1);
    fine_tune(model, &samples[start..], epochs, opts.fine_tune_lr);
}

/// A point on a tuning curve: simulated seconds vs. network latency in ms.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CurvePoint {
    /// Simulated tuning time in seconds.
    pub time_s: f64,
    /// End-to-end network latency estimate at that time (ms).
    pub latency_ms: f64,
}

/// Result of tuning a whole network.
#[derive(Clone, Debug)]
pub struct NetworkTuneResult {
    /// Best-latency-so-far curve: one point per round that ended with every
    /// task measured.
    pub curve: Vec<CurvePoint>,
    /// Final end-to-end latency (ms).
    pub final_latency_ms: f64,
    /// Per-round measurement reports, in execution order.
    pub round_reports: Vec<RoundReport>,
    /// Tasks that ended the run without a single successful measurement
    /// (their best latency is still infinite, so `final_latency_ms` is too).
    pub unmeasured_tasks: usize,
}

impl NetworkTuneResult {
    /// The result of zero rounds over `tasks`: no curve, no reports, and the
    /// tasks' latency as it stands.
    pub fn new(tasks: &[SearchTask]) -> Self {
        NetworkTuneResult {
            curve: Vec::new(),
            final_latency_ms: network_latency(tasks),
            round_reports: Vec::new(),
            unmeasured_tasks: tasks.iter().filter(|t| t.best_latency_ms.is_infinite()).count(),
        }
    }

    /// Appends a later result over the same tasks: its curve and reports
    /// follow this one's, and its final state replaces this one's.
    pub fn append(&mut self, later: NetworkTuneResult) {
        self.curve.extend(later.curve);
        self.round_reports.extend(later.round_reports);
        self.final_latency_ms = later.final_latency_ms;
        self.unmeasured_tasks = later.unmeasured_tasks;
    }
}

/// End-to-end latency = Σ weight × best task latency (+ launch gaps folded
/// into the per-kernel launch overhead already).
pub fn network_latency(tasks: &[SearchTask]) -> f64 {
    tasks
        .iter()
        .map(|t| t.weight as f64 * t.best_latency_ms)
        .sum()
}

/// Rounds of bounded immediate retry granted to a task that has never
/// produced a successful measurement, before [`select_next_task`] demotes it
/// below every healthy task.
pub const SEED_RETRY_ROUNDS: usize = 3;

/// One task's marginal-benefit score in the gradient-allocation scheduler:
/// its weighted latency headroom, decayed by rounds already spent and by
/// the fraction of measurement attempts it wastes on faults. Tasks still
/// without any measurement score below every healthy task (healthy scores
/// are positive), ordered by fewest rounds first.
///
/// This is the exact scoring expression [`select_next_task`] applies (same
/// floating-point operations, same order), extracted so higher layers —
/// the serving tier's cross-tenant job ranking — can rank *groups* of
/// tasks by the same yardstick the in-process scheduler uses.
pub fn task_priority(t: &SearchTask) -> f64 {
    if t.best_latency_ms.is_infinite() {
        -(t.rounds as f64)
    } else {
        let wasted = t.wasted_attempts() as f64;
        let fault_penalty = 1.0 + wasted / (t.measured.len() as f64 + 1.0);
        t.weight as f64 * t.best_latency_ms / (t.rounds as f64).sqrt() / fault_penalty
    }
}

/// The marginal benefit of granting one more round to a whole *job* (a set
/// of tasks tuned together): infinite while any task is still unseeded or
/// inside its bounded [`SEED_RETRY_ROUNDS`] retries — mirroring the
/// seeding precedence of [`select_next_task`] — and otherwise the best
/// [`task_priority`] across the job's tasks (the next round goes to the
/// highest-priority task, so that task's score *is* the round's payoff).
pub fn job_priority(tasks: &[SearchTask]) -> f64 {
    if tasks.iter().any(|t| {
        t.rounds == 0 || (t.best_latency_ms.is_infinite() && t.rounds < SEED_RETRY_ROUNDS)
    }) {
        return f64::INFINITY;
    }
    tasks.iter().map(task_priority).fold(f64::NEG_INFINITY, f64::max)
}

/// Ansor's task scheduler (simplified gradient allocation): after seeding
/// every task once, repeatedly picks the task with the largest weighted
/// latency headroom.
pub fn select_next_task(tasks: &[SearchTask]) -> usize {
    // First: any never-tuned task, in order.
    if let Some(i) = tasks.iter().position(|t| t.rounds == 0) {
        return i;
    }
    // A task whose incumbent is still infinite gets a few bounded retry
    // rounds (its first round may have lost every candidate to faults), but
    // only a few: an infinite `best_latency_ms` would otherwise make its
    // headroom score infinite and the scheduler would pick it forever,
    // starving every healthy task.
    if let Some(i) = tasks
        .iter()
        .position(|t| t.best_latency_ms.is_infinite() && t.rounds < SEED_RETRY_ROUNDS)
    {
        return i;
    }
    // Then: the task with the biggest expected payoff — see
    // [`task_priority`]. A fault-free task divides by exactly 1.0, keeping
    // the schedule byte-identical to the fault-unaware scheduler.
    let mut best = 0;
    let mut best_score = f64::NEG_INFINITY;
    for (i, t) in tasks.iter().enumerate() {
        let score = task_priority(t);
        if score > best_score {
            best_score = score;
            best = i;
        }
    }
    best
}

/// Tunes a whole network for `n_rounds` rounds (Algorithm 2), producing the
/// time-vs-latency curve. `sink`, when attached, observes every measurement
/// across all tasks, in execution order. `_costs` carries nothing (see
/// [`ClockCosts`]).
#[allow(clippy::too_many_arguments)]
pub fn tune_network_with_sink(
    tasks: &mut [SearchTask],
    proposer: &mut dyn Proposer,
    model: &mut Mlp,
    sim: &Simulator,
    clock: &mut TuningClock,
    _costs: &ClockCosts,
    opts: &TuneOptions,
    n_rounds: usize,
    rng: &mut StdRng,
    mut sink: Option<&mut (dyn MeasurementSink + '_)>,
) -> NetworkTuneResult {
    let mut result = NetworkTuneResult::new(tasks);
    for _ in 0..n_rounds {
        let next = select_next_task(tasks);
        let report = tune_task_round_with_sink(
            &mut tasks[next],
            proposer,
            model,
            sim,
            clock,
            &ClockCosts,
            opts,
            rng,
            sink.as_deref_mut(),
        );
        // The tasks as they stand after the round; a curve point once every
        // task is measured.
        let now = NetworkTuneResult::new(tasks);
        if now.unmeasured_tasks == 0 {
            let point = CurvePoint { time_s: clock.now_s(), latency_ms: now.final_latency_ms };
            result.curve.push(point);
        }
        result.round_reports.push(report);
        result.append(now);
    }
    result
}

/// A trivial proposer measuring random valid schedules (sanity baseline and
/// ablation).
#[derive(Debug, Default)]
pub struct RandomProposer;

impl Proposer for RandomProposer {
    fn name(&self) -> &'static str {
        "random"
    }

    fn propose(
        &mut self,
        task: &SearchTask,
        _model: &Mlp,
        n: usize,
        _clock: &mut TuningClock,
        _costs: &ClockCosts,
        rng: &mut StdRng,
    ) -> Vec<(usize, Vec<f64>)> {
        // Draw sketches from the non-quarantined set. With nothing
        // quarantined `active` is the identity list, so the RNG stream is
        // exactly the fault-free one.
        let active = task.active_sketches();
        (0..n)
            .map(|_| {
                let sk = active[rng.gen_range(0..active.len())];
                let st = &task.sketches[sk];
                (sk, felix_cost::random_schedule(&st.program, &st.rounding, rng, 64))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use felix_graph::{Op, Subgraph};
    use felix_sim::DeviceConfig;
    use rand::SeedableRng;

    fn dense_task() -> Task {
        Task {
            subgraph: Subgraph { ops: vec![Op::Dense { m: 256, k: 512, n: 512 }] },
            weight: 2,
        }
    }

    fn quick_model() -> Mlp {
        let mut rng = StdRng::seed_from_u64(0);
        let ds = felix_cost::generate_dataset(&DeviceConfig::a5000(), 6, 12, 3);
        let mut mlp = Mlp::new(&mut rng);
        felix_cost::pretrain(
            &mut mlp,
            &ds.samples,
            &felix_cost::TrainConfig { epochs: 10, batch_size: 64, lr: 1e-3, seed: 0, ..Default::default() },
        );
        mlp
    }

    #[test]
    fn search_task_builds_sketches() {
        let sim = Simulator::new(DeviceConfig::a5000());
        let st = SearchTask::from_task(&dense_task(), &sim);
        assert_eq!(st.sketches.len(), 2);
        assert!(st.best_latency_ms.is_infinite());
    }

    #[test]
    fn random_rounds_improve_best() {
        let sim = Simulator::new(DeviceConfig::a5000());
        let mut task = SearchTask::from_task(&dense_task(), &sim);
        let mut model = quick_model();
        let mut clock = TuningClock::new();
        let opts = TuneOptions { measurements_per_round: 8, update_model: false, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(1);
        let mut proposer = RandomProposer;
        tune_task_round_with_sink(
            &mut task, &mut proposer, &mut model, &sim, &mut clock, &ClockCosts,
            &opts, &mut rng, None,
        );
        let after_one = task.best_latency_ms;
        assert!(after_one.is_finite());
        for _ in 0..5 {
            tune_task_round_with_sink(
                &mut task, &mut proposer, &mut model, &sim, &mut clock, &ClockCosts,
                &opts, &mut rng, None,
            );
        }
        assert!(task.best_latency_ms <= after_one);
        assert!(clock.now_s() > 0.0);
        assert!(task.measured.len() > 8);
    }

    #[test]
    fn record_tracks_incumbent_and_dedup() {
        let sim = Simulator::new(DeviceConfig::a5000());
        let mut task = SearchTask::from_task(&dense_task(), &sim);
        task.record(0, vec![1.0, 2.0], 5.0);
        task.record(0, vec![1.0, 3.0], 3.0);
        task.record(0, vec![1.0, 4.0], 9.0);
        assert_eq!(task.best_latency_ms, 3.0);
        assert!(task.already_measured(0, &[1.0, 2.0]));
        assert!(!task.already_measured(1, &[1.0, 2.0]));
    }

    #[test]
    fn scheduler_seeds_all_tasks_first() {
        let sim = Simulator::new(DeviceConfig::a5000());
        let mut tasks = vec![
            SearchTask::from_task(&dense_task(), &sim),
            SearchTask::from_task(&dense_task(), &sim),
        ];
        assert_eq!(select_next_task(&tasks), 0);
        tasks[0].rounds = 1;
        tasks[0].best_latency_ms = 1.0;
        assert_eq!(select_next_task(&tasks), 1);
        tasks[1].rounds = 1;
        tasks[1].best_latency_ms = 50.0;
        // Both seeded: pick the one with more headroom (task 1).
        assert_eq!(select_next_task(&tasks), 1);
    }

    #[test]
    fn network_latency_weights_tasks() {
        let sim = Simulator::new(DeviceConfig::a5000());
        let mut tasks = vec![SearchTask::from_task(&dense_task(), &sim)];
        tasks[0].best_latency_ms = 2.0;
        assert_eq!(network_latency(&tasks), 4.0); // weight 2
    }

    #[test]
    fn scheduler_does_not_starve_on_persistent_faults() {
        let sim = Simulator::new(DeviceConfig::a5000());
        let mut tasks = vec![
            SearchTask::from_task(&dense_task(), &sim),
            SearchTask::from_task(&dense_task(), &sim),
        ];
        // Task 0 was seeded but lost every candidate to faults: its
        // incumbent is still infinite. Task 1 is healthy.
        tasks[0].rounds = 1;
        for i in 0..16 {
            tasks[0].record_failure(0, vec![f64::from(i); 2], FaultKind::BuildError);
        }
        tasks[1].rounds = 1;
        tasks[1].best_latency_ms = 5.0;
        let mut picks = [0usize; 2];
        for _ in 0..10 {
            let i = select_next_task(&tasks);
            picks[i] += 1;
            tasks[i].rounds += 1;
        }
        // An infinite incumbent must not win the headroom score forever:
        // the failing task gets its bounded retries, the healthy task gets
        // every remaining round.
        assert!(picks[1] > 0, "healthy task starved: picks {picks:?}");
        assert!(
            picks[0] <= SEED_RETRY_ROUNDS,
            "failing task must be retry-bounded: picks {picks:?}"
        );
    }

    #[test]
    fn scheduler_round_robins_when_every_task_is_failing() {
        let sim = Simulator::new(DeviceConfig::a5000());
        let mut tasks = vec![
            SearchTask::from_task(&dense_task(), &sim),
            SearchTask::from_task(&dense_task(), &sim),
        ];
        tasks[0].rounds = SEED_RETRY_ROUNDS;
        tasks[1].rounds = SEED_RETRY_ROUNDS;
        for _ in 0..6 {
            let i = select_next_task(&tasks);
            tasks[i].rounds += 1;
        }
        // Fewest-rounds-first keeps all-failing tasks within one round of
        // each other instead of hammering one.
        assert_eq!(tasks[0].rounds, tasks[1].rounds);
    }

    #[test]
    fn sink_observes_measurements_without_perturbing_the_search() {
        #[derive(Default)]
        struct Capture(Vec<(String, usize, Result<f64, FaultKind>, f64)>);
        impl MeasurementSink for Capture {
            fn record(&mut self, event: &MeasurementEvent<'_>) {
                self.0.push((
                    event.workload_key.to_string(),
                    event.sketch,
                    event.outcome,
                    event.time_s,
                ));
            }
        }

        let sim = Simulator::new(DeviceConfig::a5000());
        let mut model = quick_model();
        let mut clock = TuningClock::new();
        let opts = TuneOptions { measurements_per_round: 6, update_model: false, ..Default::default() };

        let mut with_sink = SearchTask::from_task(&dense_task(), &sim);
        let mut capture = Capture::default();
        let mut rng = StdRng::seed_from_u64(3);
        let report = tune_task_round_with_sink(
            &mut with_sink, &mut RandomProposer, &mut model, &sim, &mut clock, &ClockCosts,
            &opts, &mut rng, Some(&mut capture),
        );
        assert_eq!(capture.0.len(), report.measured + report.failed);
        assert!(capture.0.iter().all(|(wk, _, _, _)| wk == &with_sink.workload_key));
        // Events arrive in measurement order with nondecreasing clock times.
        assert!(capture.0.windows(2).all(|w| w[0].3 <= w[1].3));

        // The identical run without a sink produces the identical state.
        let mut without = SearchTask::from_task(&dense_task(), &sim);
        let mut clock2 = TuningClock::new();
        let mut rng2 = StdRng::seed_from_u64(3);
        tune_task_round_with_sink(
            &mut without, &mut RandomProposer, &mut model, &sim, &mut clock2, &ClockCosts,
            &opts, &mut rng2, None,
        );
        assert_eq!(without.measured, with_sink.measured);
        assert_eq!(without.best_latency_ms.to_bits(), with_sink.best_latency_ms.to_bits());
        assert_eq!(clock2.now_s().to_bits(), clock.now_s().to_bits());
    }

    #[test]
    fn sketch_mode_labels_round_trip() {
        for mode in [SketchMode::Gradient, SketchMode::ClippedGradient, SketchMode::Evolutionary] {
            assert_eq!(SketchMode::from_label(mode.label()), Some(mode));
        }
        assert_eq!(SketchMode::from_label("warp-drive"), None);
    }

    #[test]
    fn apply_health_adopts_the_reported_modes() {
        let sim = Simulator::new(DeviceConfig::a5000());
        let mut task = SearchTask::from_task(&dense_task(), &sim);
        assert!(task.sketch_modes().iter().all(|&m| m == SketchMode::Gradient));
        // A report without modes (no descent phase) decides nothing.
        assert!(!task.apply_health(&HealthReport { seed_restarts: 3, ..Default::default() }));
        let modes = vec![SketchMode::ClippedGradient, SketchMode::Evolutionary];
        let report = HealthReport { modes: modes.clone(), ..Default::default() };
        assert!(task.apply_health(&report));
        assert_eq!(task.sketch_modes(), &modes[..]);
        assert!(!task.apply_health(&report), "the same modes again change nothing");
    }

    #[test]
    fn health_report_merge_and_cleanliness() {
        let evo = vec![SketchMode::Evolutionary, SketchMode::Gradient];
        let mut a = HealthReport { seed_restarts: 2, modes: evo.clone(), ..Default::default() };
        let b = HealthReport { seed_restarts: 1, nonfinite_events: 4, ..Default::default() };
        assert!(HealthReport::default().is_clean());
        assert!(HealthReport { modes: evo.clone(), ..Default::default() }.is_clean());
        assert!(!a.is_clean());
        a.merge(&b);
        assert_eq!(a.seed_restarts, 3);
        assert_eq!(a.nonfinite_events, 4);
        assert_eq!(a.modes, evo, "a report without modes keeps the decision");
        let clipped = vec![SketchMode::ClippedGradient; 2];
        a.merge(&HealthReport { modes: clipped.clone(), ..Default::default() });
        assert_eq!(a.modes, clipped, "the later decision wins");
    }
}
