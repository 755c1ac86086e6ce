//! The user-facing programming interface, mirroring the paper's Fig. 5.

use crate::cache::{CacheOutcome, ScheduleCache};
use crate::gd::{FelixOptions, GradientProposer};
use crate::persist::{self, AttachedState, CheckpointState, RecordLogSink};
use crate::spaces::{Memo, SPACES};
use felix_ansor::{
    fine_tune_on_new_samples, select_next_task, tune_network_with_sink, CurvePoint,
    MeasurementSink, NetworkTuneResult, Proposer, SearchTask, TuneOptions, TunerStats,
};
use felix_cost::{pretrain_for_device, Mlp, COST_MATH_VERSION};
use felix_graph::{partition, Graph, Task};
use felix_records::{fnv1a, task_key, LogLine, FNV_OFFSET};
use felix_sim::clock::ClockCosts;
use felix_sim::vendor::hardware_params;
use felix_sim::{DeviceConfig, Simulator, TuningClock};
use felix_tir::sketch::{generator_hash, generator_is_current};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// How thoroughly to pretrain the cost model. Pinned by the frozen ledger:
/// `benchmark/` names `ModelQuality::Fast`, the one setting, until ROADMAP
/// item 1 step B deletes the type there.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ModelQuality {
    /// Small corpus, few epochs — seconds.
    Fast,
}

/// Extracts the tuning tasks (fused subgraphs) from a network, as
/// `felix.extract_subgraphs` does in Fig. 5.
pub fn extract_subgraphs(graph: &Graph) -> Vec<Task> {
    partition(graph)
}

/// Returns a cost model pretrained for the target device, as
/// `felix.pretrained_cost_model` does in Fig. 5. Training is deterministic
/// per device, and the result is memoized per device within a process —
/// repeated calls (test suites, examples looping over devices) pay the
/// pretraining cost once.
pub fn pretrained_cost_model(device: &DeviceConfig, _quality: ModelQuality) -> Mlp {
    pretrained_base(device).model.clone()
}

/// A device's pretrained cost model and the FNV-1a hash of its saved
/// bytes, the name a checkpoint gives it instead of a copy.
struct PretrainedBase {
    model: Mlp,
    /// Computed on first use, so callers that never checkpoint a
    /// pretrained base never pay for it.
    hash: OnceLock<u64>,
}

impl PretrainedBase {
    fn hash(&self) -> u64 {
        *self.hash.get_or_init(|| model_hash(&self.model))
    }
}

/// The memo behind [`pretrained_cost_model`]: one cell per device name,
/// whose model is pretrained, and whose hash computed, at most once per
/// process. A caller that finds its device's cell being built waits for it
/// instead of pretraining again, while other devices' cells build in
/// parallel. Its capacity is unbounded, so it never evicts a base: it holds
/// one per device a process targets.
static BASES: Memo<&'static str, OnceLock<Arc<PretrainedBase>>> = Memo::new(usize::MAX);

/// `device`'s pretrained base, from [`BASES`].
fn pretrained_base(device: &DeviceConfig) -> Arc<PretrainedBase> {
    let cell = BASES.cell(&device.name);
    Arc::clone(cell.get_or_init(|| {
        // 6 workloads x 12 schedules, 10 epochs: seconds, not minutes.
        let (model, _) = pretrain_for_device(device, 6, 12, 10);
        Arc::new(PretrainedBase { model, hash: OnceLock::new() })
    }))
}

/// FNV-1a over the model's saved bytes.
fn model_hash(model: &Mlp) -> u64 {
    let mut bytes = Vec::new();
    model.save(&mut bytes).expect("serialize a model to memory");
    fnv1a(FNV_OFFSET, &bytes)
}

/// The Felix optimizer: owns the tasks, cost model, simulator, and tuning
/// clock, and runs the full-graph tuning loop (Fig. 5 / Algorithm 2).
pub struct Optimizer {
    tasks: Vec<SearchTask>,
    model: Mlp,
    sim: Simulator,
    clock: TuningClock,
    proposer: GradientProposer,
    rng: StdRng,
    sink: Option<RecordLogSink>,
    schedule_store: Option<ScheduleCache>,
    /// What each task got from the schedule store when it was attached.
    attached: Vec<AttachedState>,
    /// Where the first round writes the checkpoint's base, until it does.
    checkpoint_dir: Option<PathBuf>,
    /// The hash of the pretrained model this optimizer started from
    /// ([`Optimizer::pretrained`]), while its model is still that one: a
    /// checkpoint then names the base instead of writing a copy.
    base_hash: Option<u64>,
    /// Whether each round commits to the record log.
    committing: bool,
    rounds_done: usize,
    /// Curve of (time, latency) across all rounds run so far.
    pub history: Vec<CurvePoint>,
    /// Per-round tuner observability records, accumulated across all
    /// `optimize_all` calls (one entry per `propose` round).
    pub stats: Vec<TunerStats>,
}

impl Optimizer {
    /// Sets up the search space and objective for every subgraph.
    pub fn new(graphs: Vec<Task>, cost_model: Mlp, device: DeviceConfig) -> Self {
        Self::with_options(graphs, cost_model, device, FelixOptions::default())
    }

    /// [`Optimizer::new`] with explicit search hyperparameters. Each
    /// task's search space comes from the process memo, which builds a
    /// workload's space once for the device's hardware limits and shares
    /// it, with its compiled objectives, with every later optimizer.
    pub fn with_options(
        graphs: Vec<Task>,
        cost_model: Mlp,
        device: DeviceConfig,
        options: FelixOptions,
    ) -> Self {
        let sim = Simulator::new(device);
        let hardware = hardware_params(&sim.device);
        let tasks: Vec<_> =
            graphs.iter().map(|t| SearchTask::new(t, SPACES.space(t, hardware))).collect();
        Optimizer {
            attached: vec![AttachedState::default(); tasks.len()],
            tasks,
            model: cost_model,
            sim,
            clock: TuningClock::new(),
            proposer: GradientProposer::new(options),
            rng: StdRng::seed_from_u64(0xF311),
            sink: None,
            schedule_store: None,
            checkpoint_dir: None,
            base_hash: None,
            committing: false,
            rounds_done: 0,
            history: Vec::new(),
            stats: Vec::new(),
        }
    }

    /// [`Optimizer::with_options`] starting from
    /// [`pretrained_cost_model`]`(&device, ModelQuality::Fast)`, the
    /// Fig. 5 flow. A checkpoint of this optimizer holds no model file: its
    /// header records the pretrained model's hash, and
    /// [`Optimizer::resume_from_checkpoint`] rebuilds the model through
    /// the same memo and verifies it.
    pub fn pretrained(graphs: Vec<Task>, device: DeviceConfig, options: FelixOptions) -> Self {
        let base = pretrained_base(&device);
        let mut opt = Self::with_options(graphs, base.model.clone(), device, options);
        opt.base_hash = Some(base.hash());
        opt
    }

    /// Attaches a durable tuning-record log at `path`. Existing records
    /// matching this optimizer's tasks (by workload key + device) are
    /// replayed into the search state first — rebuilding each task's
    /// incumbent, dedup set, fault statistics, supervision modes, and
    /// replay buffer — and the cost model is warm-started on the replayed
    /// measurements with the same fine-tuning hyperparameters a live round
    /// uses. New measurements and supervisor decisions are then appended to
    /// the log as they finish, and, with [`Optimizer::with_checkpointing`],
    /// each round's commit after them: the log is the run's durable history.
    ///
    /// Replay touches neither the tuning clock nor the master RNG, and the
    /// attached sink is a pure observer, so with an *empty* log this is
    /// bit-identical to a run without persistence. Attach the log before
    /// the first round: a checkpoint records where its run starts in it.
    /// A warm start that fine-tunes leaves a model no pretraining
    /// reproduces, so a checkpoint of an [`Optimizer::pretrained`]
    /// optimizer then writes the model file after all.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from reading or opening the log.
    pub fn with_record_log(mut self, path: impl AsRef<Path>) -> std::io::Result<Self> {
        let device = self.sim.device.name;
        let (sink, lines) = RecordLogSink::replay(path, device)?;
        let records: Vec<_> = lines.into_iter().filter_map(LogLine::into_record).collect();
        for task in &mut self.tasks {
            let n_new = persist::replay_records(task, &records, device);
            if n_new > 0 {
                fine_tune_on_new_samples(
                    &mut self.model,
                    &task.samples,
                    n_new,
                    &TuneOptions::default(),
                );
                // No longer the pretrained model: a checkpoint copies it.
                self.base_hash = None;
            }
        }
        self.sink = Some(sink);
        Ok(self)
    }

    /// Attaches the global schedule store at `path` and applies it to every
    /// task that has no search state yet:
    ///
    /// - an **exact hit** (same workload key + device, schedule still valid
    ///   for the live sketches) is recorded as the task's incumbent —
    ///   serving a tuned schedule with *zero* measurement budget, RNG
    ///   draws, or clock advancement;
    /// - a **structural near-miss** (same [`crate::cache::structure_hash`],
    ///   different extents) becomes a warm-start hint, seeding descent from
    ///   the cached optimum while leaving every RNG substream untouched;
    /// - tuning rounds publish each task's incumbent back to the store.
    ///
    /// The store is Fig. 5's `save_res` / `configs_file` pair: a later
    /// optimizer attached to the same file compiles the saved schedules
    /// without re-tuning. Entries written by a different sketch-generator
    /// version (a stale fingerprint — see
    /// `felix_tir::sketch::generator_hash`) are rejected as clean misses and
    /// counted, never served.
    ///
    /// The hit, warm-start and stale counts live on the cache itself
    /// ([`Optimizer::schedule_cache`]).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from opening or replaying the store.
    pub fn with_schedule_store(mut self, path: impl AsRef<Path>) -> std::io::Result<Self> {
        let mut cache = ScheduleCache::open(path)?;
        let device = self.sim.device.name;
        for (task, attached) in self.tasks.iter_mut().zip(&mut self.attached) {
            let hit = cache.apply(task, device) == CacheOutcome::Hit;
            attached.hit = if hit { task.measured.last().cloned() } else { None };
            attached.warm_hints.clone_from(&task.warm_hints);
        }
        self.schedule_store = Some(cache);
        Ok(self)
    }

    /// Enables checkpointing under `dir`: the first round writes a small
    /// header ([`persist::STATE_FILE`]) there, once, with the base cost
    /// model beside it ([`persist::MODEL_FILE`]) unless the header can name
    /// it (an [`Optimizer::pretrained`] model no warm start changed), and
    /// every round then commits
    /// by appending one round record to the record log after its own lines
    /// (to [`persist::LOG_FILE`] in `dir` if no log is attached).
    /// [`Optimizer::resume_from_checkpoint`] continues the run
    /// byte-identically from the last commit. Enable it before the first
    /// round. The round count is ignored, since every round commits.
    /// Pinned by the frozen ledger: `benchmark/` passes that count.
    pub fn with_checkpointing(mut self, dir: impl AsRef<Path>, _every_rounds: usize) -> Self {
        self.checkpoint_dir = Some(dir.as_ref().to_path_buf());
        self
    }

    /// Writes the checkpoint's header and, unless the header names a
    /// pretrained base, its base model, opening the directory's own log if
    /// none is attached.
    fn write_checkpoint_base(&mut self, dir: &Path) -> std::io::Result<()> {
        if self.rounds_done > 0 {
            return Err(std::io::Error::other("checkpointing must start before the first round"));
        }
        std::fs::create_dir_all(dir)?;
        if self.base_hash.is_none() {
            let mut model_bytes = Vec::new();
            self.model.save(&mut model_bytes)?;
            felix_records::write_atomic(dir.join(persist::MODEL_FILE), &model_bytes)?;
        }
        let record_log = self.sink.as_ref().map(|s| s.path().display().to_string());
        let sink = match self.sink.take() {
            Some(sink) => sink,
            // Opened without reading it, so it must hold no other run's lines.
            None if std::fs::metadata(dir.join(persist::LOG_FILE)).is_ok_and(|m| m.len() > 0) => {
                return Err(std::io::Error::other("the checkpoint directory holds another log"));
            }
            None => RecordLogSink::open(dir.join(persist::LOG_FILE), self.sim.device.name)?,
        };
        let state = CheckpointState {
            device_name: self.sim.device.name.to_string(),
            generator: generator_hash(),
            math: COST_MATH_VERSION.to_string(),
            base: self.base_hash,
            record_log,
            log_start: sink.start,
            schedule_store: self.schedule_store.as_ref().map(|c| c.path().display().to_string()),
            tasks: self.attached.clone(),
        };
        self.sink = Some(sink);
        felix_records::write_document(dir.join(persist::STATE_FILE), &state.to_json())
    }

    /// A no-op when every round run so far is committed — each round
    /// commits itself — and without [`Optimizer::with_checkpointing`].
    ///
    /// # Errors
    ///
    /// Returns an error when a failed record-log append stopped the
    /// commits, so later rounds would not survive a restart.
    pub fn save_checkpoint(&self) -> std::io::Result<()> {
        match &self.sink {
            Some(sink) if self.committing && sink.failed => {
                Err(std::io::Error::other("a record-log append failed; later rounds are lost"))
            }
            _ => Ok(()),
        }
    }

    /// Rebuilds an optimizer from a checkpoint directory written under
    /// [`Optimizer::with_checkpointing`]: takes the base model from
    /// [`persist::MODEL_FILE`], or, when the header names a pretrained
    /// base, from [`pretrained_cost_model`]'s memo (pretraining it in a
    /// fresh process) after checking its hash, then reapplies
    /// the header's schedule-store hits and warm hints, replays the log's
    /// lines before the run's start as [`Optimizer::with_record_log`] did,
    /// then replays each committed round in order — its lines through the
    /// [`persist::replay_records`] fold, then its fine-tune — and takes the
    /// RNG, clock and curve from the commits. Lines no commit claims (a
    /// killed round's, a torn tail) are skipped. Continuing with
    /// `optimize_all` reproduces the uninterrupted run byte for byte.
    ///
    /// `graphs`, `device` and `options` must be the ones the checkpointed
    /// run used (the options carry the search knobs and the fault plan).
    /// The log is reattached for appending and the store for publishing.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on a header of another version, device,
    /// generator, cost-model arithmetic, pretrained-base hash or task
    /// count, or a log whose commits do not fit the rebuilt tasks, plus any
    /// underlying I/O error.
    pub fn resume_from_checkpoint(
        graphs: Vec<Task>,
        device: DeviceConfig,
        options: FelixOptions,
        dir: impl AsRef<Path>,
    ) -> std::io::Result<Optimizer> {
        let dir = dir.as_ref();
        let doc = felix_records::read_document(dir.join(persist::STATE_FILE))?;
        let state = CheckpointState::from_json(&doc)
            .map_err(|e| invalid(&format!("malformed or incompatible checkpoint header: {e}")))?;
        if state.device_name != device.name {
            return Err(invalid("checkpoint was written for a different device"));
        }
        if !generator_is_current(state.generator) {
            return Err(invalid("checkpoint was written by a different sketch generator"));
        }
        if state.math != COST_MATH_VERSION {
            return Err(invalid("checkpoint's fine-tunes ran under other cost-model arithmetic"));
        }
        let model = match state.base {
            Some(hash) => {
                let base = pretrained_base(&device);
                if base.hash() != hash {
                    return Err(invalid("checkpoint names another pretrained base model"));
                }
                base.model.clone()
            }
            None => Mlp::load(std::io::BufReader::new(std::fs::File::open(
                dir.join(persist::MODEL_FILE),
            )?))?,
        };
        let mut opt = Optimizer::with_options(graphs, model, device, options);
        if state.tasks.len() != opt.tasks.len() {
            return Err(invalid("checkpoint task count does not match the network"));
        }
        // Hits go in before the warm-start prefix: the store serves only
        // tasks the log left empty, so this rebuilds either attach order.
        for (task, attached) in opt.tasks.iter_mut().zip(&state.tasks) {
            if let Some((sk, vals, latency)) = &attached.hit {
                if !task.fits(*sk, vals) {
                    return Err(invalid("checkpoint schedule does not fit the task's sketches"));
                }
                task.record(*sk, vals.clone(), *latency);
            }
            task.warm_hints.clone_from(&attached.warm_hints);
        }
        let log_path =
            state.record_log.as_ref().map_or_else(|| dir.join(persist::LOG_FILE), PathBuf::from);
        let (sink, lines) = RecordLogSink::replay(log_path, device.name)?;
        let (prefix, run) = lines
            .split_at_checked(state.log_start)
            .ok_or_else(|| invalid("the record log ends before the checkpointed run starts"))?;
        if state.record_log.is_some() {
            let records: Vec<_> = prefix.iter().cloned().filter_map(LogLine::into_record).collect();
            for task in &mut opt.tasks {
                persist::replay_records(task, &records, device.name);
            }
        }
        opt.replay_commits(run)?;
        opt.attached = state.tasks;
        opt.sink = Some(sink);
        opt.committing = true;
        if let Some(store_path) = state.schedule_store {
            // Reattached for publishing only: hits and warm hints came from
            // the header above.
            opt.schedule_store = Some(ScheduleCache::open(store_path)?);
        }
        Ok(opt)
    }

    /// Replays the round commits among `lines` in order: each commit's
    /// claimed lines apply to its task, then the round's fine-tune re-runs
    /// and the round counter, RNG, clock and curve point follow. Lines no
    /// commit claims are skipped.
    fn replay_commits(&mut self, lines: &[LogLine]) -> std::io::Result<()> {
        let mut uncommitted = Vec::new();
        for line in lines {
            let LogLine::Round(round) = line else {
                uncommitted.push(line);
                continue;
            };
            if round.round != self.rounds_done {
                return Err(invalid("the record log's round commits are out of sequence"));
            }
            let from = uncommitted.len().checked_sub(round.lines);
            let (Some(from), Some(task)) = (from, self.tasks.get_mut(round.task)) else {
                return Err(invalid("a round commit claims unwritten lines or a missing task"));
            };
            let key = task_key(&task.workload_key, self.sim.device.name);
            let n_before = task.measured.len();
            for line in uncommitted.drain(..).skip(from) {
                match line {
                    LogLine::Record(record) if persist::apply_record(task, record, key) => {}
                    _ => return Err(invalid("a committed line does not fit its task")),
                }
            }
            let n_new = persist::push_samples(task, n_before);
            if n_new > 0 {
                let opts = TuneOptions::default();
                fine_tune_on_new_samples(&mut self.model, &task.samples, n_new, &opts);
            }
            task.rounds += 1;
            self.history.extend(NetworkTuneResult::new(&self.tasks).curve_point(round.clock_s));
            // `new() + advance(x)` is `0.0 + x`, which is bit-exact.
            self.clock = TuningClock::new();
            self.clock.advance(round.clock_s);
            self.rng = StdRng::from_state(round.rng);
            self.rounds_done += 1;
        }
        Ok(())
    }

    /// Total tuning rounds completed (across resumes).
    pub fn rounds_done(&self) -> usize {
        self.rounds_done
    }

    /// The tuning tasks.
    pub fn tasks(&self) -> &[SearchTask] {
        &self.tasks
    }

    /// Simulated tuning time spent so far, in seconds.
    pub fn tuning_time_s(&self) -> f64 {
        self.clock.now_s()
    }

    /// The master RNG's current position. Lets callers assert that pure
    /// state restoration (cache hits, config loads, checkpoint replays)
    /// consumed zero randomness.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// The cost model as the last fine-tune left it.
    pub fn cost_model(&self) -> &Mlp {
        &self.model
    }

    /// The attached schedule cache, if any.
    pub fn schedule_cache(&self) -> Option<&ScheduleCache> {
        self.schedule_store.as_ref()
    }

    /// Runs `n_total_rounds` rounds of tuning with `measure_per_round`
    /// hardware measurements each (Fig. 5's `optimize_all`).
    ///
    /// The rounds run one at a time (the scheduler and round pipeline carry
    /// no cross-call state), so with checkpointing enabled every publish
    /// and commit lands on a round boundary.
    pub fn optimize_all(
        &mut self,
        n_total_rounds: usize,
        measure_per_round: usize,
    ) -> NetworkTuneResult {
        let opts = TuneOptions {
            measurements_per_round: measure_per_round,
            fault_plan: self.proposer.options.fault_plan,
            ..Default::default()
        };
        if let Some(dir) = self.checkpoint_dir.take() {
            match self.write_checkpoint_base(&dir) {
                Ok(()) => self.committing = true,
                Err(e) => eprintln!("[felix] checkpoint write failed: {e}; checkpointing is off"),
            }
        }
        let mut res = NetworkTuneResult::new(&self.tasks);
        for _ in 0..n_total_rounds {
            let task = select_next_task(&self.tasks);
            let round = tune_network_with_sink(
                &mut self.tasks,
                &mut self.proposer,
                &mut self.model,
                &self.sim,
                &mut self.clock,
                &ClockCosts,
                &opts,
                1,
                &mut self.rng,
                self.sink.as_mut().map(|s| s as &mut dyn MeasurementSink),
            );
            self.history.extend(round.curve.iter().copied());
            res.append(round);
            if self.committing {
                // Publish on the commit boundary so a killed run leaves its
                // incumbents in the store.
                if let Some(cache) = &mut self.schedule_store {
                    cache.publish(&self.tasks, self.sim.device.name);
                }
                if let Some(sink) = &mut self.sink {
                    sink.commit(self.rounds_done, task, self.rng.state(), self.clock.now_s());
                }
            }
            self.rounds_done += 1;
        }
        self.stats.extend(self.proposer.take_stats());
        // Nothing here reads the Fig. 8 trace; draining it keeps a long job
        // from holding every examined score until it ends.
        self.proposer.take_prediction_trace();
        if let Some(cache) = &mut self.schedule_store {
            cache.publish(&self.tasks, self.sim.device.name);
        }
        res
    }

    /// Runs exactly one tuning round — the building block for an external
    /// job loop (the serving tier's worker shards), which interleaves
    /// rounds of *different* optimizers under its own scheduling policy.
    ///
    /// Identical to `optimize_all(1, measure_per_round)`: the per-round
    /// loop evolves the search state exactly as one longer call would
    /// (the scheduler and round pipeline carry no cross-call state), so
    /// `n` ticks ≡ `optimize_all(n, m)` byte for byte, however the ticks
    /// are interleaved with other optimizers' work.
    pub fn tick(&mut self, measure_per_round: usize) -> NetworkTuneResult {
        self.optimize_all(1, measure_per_round)
    }

    /// Applies the best schedule found for each subgraph and produces a
    /// compiled module (Fig. 5's `compile_with_best_configs`).
    ///
    /// # Panics
    ///
    /// Panics if called before any tuning round measured every task.
    pub fn compile_with_best_configs(&self) -> CompiledModule {
        let mut kernels = Vec::with_capacity(self.tasks.len());
        for t in &self.tasks {
            let (sketch, vals) = t
                .best_schedule
                .clone()
                .expect("optimize_all must run (and measure every task) before compiling");
            kernels.push(CompiledKernel {
                task_name: t.name.clone(),
                sketch_name: t.sketches[sketch].name,
                sketch,
                values: vals,
                weight: t.weight,
                latency_ms: t.best_latency_ms,
            });
        }
        CompiledModule { device: self.sim.device, kernels }
    }
}

/// An `InvalidData` error: a checkpoint that does not fit what resumes it.
fn invalid(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

/// One tuned kernel of a compiled module.
#[derive(Clone, Debug)]
pub struct CompiledKernel {
    /// Subgraph name.
    pub task_name: String,
    /// Which sketch won.
    pub sketch_name: &'static str,
    /// Sketch index.
    pub sketch: usize,
    /// The concrete schedule-variable assignment.
    pub values: Vec<f64>,
    /// Occurrences in the network.
    pub weight: usize,
    /// Measured kernel latency (ms).
    pub latency_ms: f64,
}

/// A "compiled" network: the best schedule per subgraph plus the device it
/// was tuned for. `run` replays an inference through the simulator.
#[derive(Clone, Debug)]
pub struct CompiledModule {
    /// The target device.
    pub device: DeviceConfig,
    /// Tuned kernels in task order.
    pub kernels: Vec<CompiledKernel>,
}

impl CompiledModule {
    /// End-to-end latency estimate in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.kernels.iter().map(|k| k.weight as f64 * k.latency_ms).sum()
    }

    /// Simulates one inference, returning a noisy end-to-end latency.
    pub fn run(&self, rng: &mut impl rand::Rng) -> f64 {
        self.kernels
            .iter()
            .map(|k| {
                k.weight as f64 * k.latency_ms * felix_sim::lognormal(rng, 0.02)
            })
            .sum()
    }

    /// A human-readable summary table.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "compiled for {}: {:.4} ms", self.device.name, self.latency_ms());
        for k in &self.kernels {
            let _ = writeln!(
                out,
                "  {:40} x{:<3} {:>10.4} ms  [{}]",
                k.task_name, k.weight, k.latency_ms, k.sketch_name
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use felix_graph::models;

    #[test]
    fn fig5_workflow_end_to_end() {
        // The paper's Fig. 5 flow on a scaled-down LLaMA so the test is fast.
        let device = DeviceConfig::a5000();
        let dnn = models::llama_with_config(1, 32, 256, 4, 688, 2);
        let graphs = extract_subgraphs(&dnn);
        assert!(graphs.len() >= 5);
        let cost_model = pretrained_cost_model(&device, ModelQuality::Fast);
        let mut opt = Optimizer::with_options(
            graphs,
            cost_model,
            device,
            FelixOptions { n_seeds: 2, n_steps: 20, ..Default::default() },
        );
        let n_tasks = opt.tasks().len();
        let res = opt.optimize_all(n_tasks + 2, 4);
        assert!(res.final_latency_ms.is_finite());
        assert!(opt.tuning_time_s() > 0.0);
        let module = opt.compile_with_best_configs();
        assert_eq!(module.kernels.len(), n_tasks);
        assert!((module.latency_ms() - res.final_latency_ms).abs() < 1e-9);
        let mut rng = StdRng::seed_from_u64(0);
        let sample = module.run(&mut rng);
        assert!((sample / module.latency_ms() - 1.0).abs() < 0.3);
        assert!(module.summary().contains("compiled for"));
        // One stats record per proposer round, drained from the proposer.
        assert_eq!(opt.stats.len(), n_tasks + 2);
        assert!(opt.stats.iter().all(|s| s.grad_steps > 0 && s.threads >= 1));
    }

    #[test]
    fn optimize_all_leaves_the_prediction_trace_empty() {
        let device = DeviceConfig::a5000();
        let graphs = extract_subgraphs(&models::dcgan(1));
        let cost_model = pretrained_cost_model(&device, ModelQuality::Fast);
        let mut opt = Optimizer::with_options(
            graphs,
            cost_model,
            device,
            FelixOptions { n_seeds: 2, n_steps: 5, ..Default::default() },
        );
        opt.optimize_all(2, 2);
        assert!(opt.stats.iter().all(|s| s.grad_steps > 0), "the rounds descended");
        assert!(opt.proposer.take_prediction_trace().is_empty());
    }

    #[test]
    fn concurrent_callers_share_one_pretrained_base() {
        let device = DeviceConfig::a5000();
        let bases: Vec<Arc<PretrainedBase>> = std::thread::scope(|s| {
            let calls: Vec<_> = (0..4).map(|_| s.spawn(|| pretrained_base(&device))).collect();
            calls.into_iter().map(|c| c.join().expect("memo call")).collect()
        });
        assert!(bases.iter().all(|b| Arc::ptr_eq(b, &bases[0])), "one memo entry per device");
        let model = pretrained_cost_model(&device, ModelQuality::Fast);
        assert_eq!(bases[0].hash(), model_hash(&model));
    }

    #[test]
    fn tuning_improves_over_rounds() {
        let device = DeviceConfig::a5000();
        let dnn = models::dcgan(1);
        let graphs = extract_subgraphs(&dnn);
        let cost_model = pretrained_cost_model(&device, ModelQuality::Fast);
        let mut opt = Optimizer::with_options(
            graphs,
            cost_model,
            device,
            FelixOptions { n_seeds: 2, n_steps: 25, ..Default::default() },
        );
        let n_tasks = opt.tasks().len();
        let res = opt.optimize_all(n_tasks * 2, 6);
        let first = res.curve.first().expect("curve").latency_ms;
        let last = res.curve.last().expect("curve").latency_ms;
        assert!(last <= first, "latency must not regress: {first} -> {last}");
    }
}
