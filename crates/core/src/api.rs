//! The user-facing programming interface, mirroring the paper's Fig. 5.

use crate::cache::ScheduleCache;
use crate::gd::{FelixOptions, GradientProposer};
use crate::persist::{self, CheckpointState, RecordLogSink};
use felix_ansor::{
    fine_tune_on_new_samples, tune_network_with_sink, MeasurementSink, NetworkTuneResult,
    Proposer, SearchTask, TuneOptions, TunerStats,
};
use felix_cost::{pretrain_for_device, Mlp};
use felix_graph::{partition, Graph, Task};
use felix_sim::clock::ClockCosts;
use felix_sim::{DeviceConfig, Simulator, TuningClock};
use felix_tir::sketch::{generator_hash, generator_is_current};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

/// How thoroughly to pretrain the cost model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ModelQuality {
    /// Small corpus, few epochs — seconds; fine for tests and examples.
    Fast,
    /// TenSet-scale corpus and epochs — the experiment-harness setting.
    Full,
}

/// Extracts the tuning tasks (fused subgraphs) from a network, as
/// `felix.extract_subgraphs` does in Fig. 5.
pub fn extract_subgraphs(graph: &Graph) -> Vec<Task> {
    partition(graph)
}

/// Returns a cost model pretrained for the target device, as
/// `felix.pretrained_cost_model` does in Fig. 5. Training is deterministic
/// per device + quality, and the result is memoized per (device, quality)
/// within a process — repeated calls (test suites, examples looping over
/// devices) pay the pretraining cost once.
pub fn pretrained_cost_model(device: &DeviceConfig, quality: ModelQuality) -> Mlp {
    use std::sync::Mutex;
    static CACHE: Mutex<Vec<((&'static str, ModelQuality), Mlp)>> = Mutex::new(Vec::new());
    let key = (device.name, quality);
    if let Some((_, m)) = CACHE.lock().expect("model cache").iter().find(|(k, _)| *k == key) {
        return m.clone();
    }
    let (n_workloads, schedules, epochs) = match quality {
        ModelQuality::Fast => (6, 12, 10),
        ModelQuality::Full => (120, 96, 40),
    };
    let (mlp, _) = pretrain_for_device(device, n_workloads, schedules, epochs);
    CACHE.lock().expect("model cache").push((key, mlp.clone()));
    mlp
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
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: usize,
    rounds_done: usize,
    /// Curve of (time, latency) across all rounds run so far.
    pub history: Vec<felix_ansor::CurvePoint>,
    /// Per-round tuner observability records, accumulated across all
    /// `optimize_all` calls (one entry per `propose` round).
    pub stats: Vec<TunerStats>,
}

impl Optimizer {
    /// Sets up the search space and objective for every subgraph.
    pub fn new(graphs: Vec<Task>, cost_model: Mlp, device: DeviceConfig) -> Self {
        Self::with_options(graphs, cost_model, device, FelixOptions::default())
    }

    /// [`Optimizer::new`] with explicit search hyperparameters.
    pub fn with_options(
        graphs: Vec<Task>,
        cost_model: Mlp,
        device: DeviceConfig,
        options: FelixOptions,
    ) -> Self {
        let sim = Simulator::new(device);
        let tasks = graphs.iter().map(|t| SearchTask::from_task(t, &sim)).collect();
        Optimizer {
            tasks,
            model: cost_model,
            sim,
            clock: TuningClock::new(),
            proposer: GradientProposer::new(options),
            rng: StdRng::seed_from_u64(0xF311),
            sink: None,
            schedule_store: None,
            checkpoint_dir: None,
            checkpoint_every: 1,
            rounds_done: 0,
            history: Vec::new(),
            stats: Vec::new(),
        }
    }

    /// Attaches a durable tuning-record log at `path`. Existing records
    /// matching this optimizer's tasks (by workload key + device) are
    /// replayed into the search state first — rebuilding each task's
    /// incumbent, dedup set, fault statistics, supervision modes, and
    /// replay buffer — and the
    /// cost model is warm-started on the replayed measurements with the same
    /// fine-tuning hyperparameters a live round uses. New measurements are
    /// then appended to the log as they finish.
    ///
    /// Replay touches neither the tuning clock nor the master RNG, and the
    /// attached sink is a pure observer, so with an *empty* log this is
    /// bit-identical to a run without persistence.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from reading or opening the log.
    pub fn with_record_log(mut self, path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref();
        let records = felix_records::read_all_records(path)?;
        let device = self.sim.device.name;
        for task in &mut self.tasks {
            let n_new = persist::replay_records(task, &records, device);
            if n_new > 0 {
                fine_tune_on_new_samples(
                    &mut self.model,
                    &task.samples,
                    n_new,
                    &TuneOptions::default(),
                );
            }
        }
        self.sink = Some(RecordLogSink::open(path, device)?);
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
    pub fn with_schedule_store(self, path: impl AsRef<Path>) -> std::io::Result<Self> {
        self.with_schedule_store_namespaced(path, "")
    }

    /// [`Optimizer::with_schedule_store`] scoped to tenant namespace `ns`
    /// (empty = the unscoped global namespace): lookups and publishes are
    /// keyed under the namespace, so tenants sharing a store file can
    /// neither hit nor warm-start from each other's schedules. The serving
    /// tier uses this for per-tenant isolation.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from opening or replaying the store.
    pub fn with_schedule_store_namespaced(
        mut self,
        path: impl AsRef<Path>,
        ns: &str,
    ) -> std::io::Result<Self> {
        let mut cache = ScheduleCache::open(path)?.with_namespace(ns);
        let device = self.sim.device.name;
        for task in &mut self.tasks {
            cache.apply(task, device);
        }
        self.schedule_store = Some(cache);
        Ok(self)
    }

    /// Enables checkpointing: after every `every_rounds` tuning rounds (and
    /// at the end of each `optimize_all` call) the full tuner state — task
    /// snapshots, cost-model weights, clock, and RNG position — is written
    /// atomically under `dir`. [`Optimizer::resume_from_checkpoint`] then
    /// continues the run byte-identically.
    pub fn with_checkpointing(mut self, dir: impl AsRef<Path>, every_rounds: usize) -> Self {
        self.checkpoint_dir = Some(dir.as_ref().to_path_buf());
        self.checkpoint_every = every_rounds.max(1);
        self
    }

    /// Writes a checkpoint now (no-op without [`Optimizer::with_checkpointing`]).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing the state or model files.
    pub fn save_checkpoint(&self) -> std::io::Result<()> {
        let Some(dir) = &self.checkpoint_dir else { return Ok(()) };
        std::fs::create_dir_all(dir)?;
        let mut model_bytes = Vec::new();
        self.model.save(&mut model_bytes)?;
        felix_records::write_atomic(dir.join(persist::MODEL_FILE), &model_bytes)?;
        let state = CheckpointState {
            device_name: self.sim.device.name.to_string(),
            generator: generator_hash(),
            clock_s: self.clock.now_s(),
            rng_state: self.rng.state(),
            rounds_done: self.rounds_done,
            checkpoint_every: self.checkpoint_every,
            record_log: self.sink.as_ref().map(|s| s.path().display().to_string()),
            schedule_store: self
                .schedule_store
                .as_ref()
                .map(|s| s.path().display().to_string()),
            schedule_ns: self
                .schedule_store
                .as_ref()
                .and_then(|s| s.namespace().map(str::to_string)),
            history: self.history.clone(),
            tasks: self.tasks.iter().map(SearchTask::snapshot).collect(),
        };
        felix_records::write_document(
            dir.join(persist::STATE_FILE),
            &persist::checkpoint_to_json(&state),
        )
    }

    /// Rebuilds an optimizer from a checkpoint directory written by
    /// [`Optimizer::save_checkpoint`], restoring the cost model, every
    /// task's search state, the tuning clock, and the master RNG position.
    /// Continuing with `optimize_all` reproduces the exact time-vs-latency
    /// curve the uninterrupted run would have produced, byte for byte.
    ///
    /// `graphs`, `device` and `options` must be the ones the checkpointed
    /// run used (the tasks are rebuilt and each snapshot is checked against
    /// its task before it is restored; the options carry the search knobs
    /// and the fault plan). A record log attached to the original run is
    /// reattached for appending; re-run rounds may append duplicate records,
    /// which replay skips.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on a malformed or mismatched checkpoint —
    /// including a parseable one whose snapshots name sketches or carry
    /// schedules the rebuilt tasks do not have — plus any underlying I/O
    /// error.
    pub fn resume_from_checkpoint(
        graphs: Vec<Task>,
        device: DeviceConfig,
        options: FelixOptions,
        dir: impl AsRef<Path>,
    ) -> std::io::Result<Optimizer> {
        use std::io::{Error, ErrorKind};
        let bad = |msg: &str| Error::new(ErrorKind::InvalidData, msg.to_string());
        let dir = dir.as_ref();
        let doc = felix_records::read_document(dir.join(persist::STATE_FILE))?;
        let state = persist::checkpoint_from_json(&doc)
            .ok_or_else(|| bad("malformed or incompatible checkpoint document"))?;
        if state.device_name != device.name {
            return Err(bad("checkpoint was written for a different device"));
        }
        if !generator_is_current(state.generator) {
            return Err(bad("checkpoint was written by a different sketch generator"));
        }
        let model = Mlp::load(std::io::BufReader::new(std::fs::File::open(
            dir.join(persist::MODEL_FILE),
        )?))?;
        let mut opt = Optimizer::with_options(graphs, model, device, options);
        if state.tasks.len() != opt.tasks.len() {
            return Err(bad("checkpoint task count does not match the network"));
        }
        for (task, snap) in opt.tasks.iter_mut().zip(state.tasks) {
            task.restore(snap).map_err(bad)?;
        }
        // `new() + advance(x)` is `0.0 + x`, which is bit-exact.
        opt.clock.advance(state.clock_s);
        opt.rng = StdRng::from_state(state.rng_state);
        opt.rounds_done = state.rounds_done;
        opt.history = state.history;
        opt.checkpoint_dir = Some(dir.to_path_buf());
        opt.checkpoint_every = state.checkpoint_every;
        if let Some(log_path) = state.record_log {
            opt.sink = Some(RecordLogSink::open(log_path, device.name)?);
        }
        if let Some(store_path) = state.schedule_store {
            // Reattached for publishing only: every task carries restored
            // state, so `apply` would skip it anyway, and warm hints travel
            // in the task snapshots.
            let cache = ScheduleCache::open(store_path)?
                .with_namespace(state.schedule_ns.as_deref().unwrap_or(""));
            opt.schedule_store = Some(cache);
        }
        Ok(opt)
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

    /// The attached schedule cache, if any.
    pub fn schedule_cache(&self) -> Option<&ScheduleCache> {
        self.schedule_store.as_ref()
    }

    /// Runs `n_total_rounds` rounds of tuning with `measure_per_round`
    /// hardware measurements each (Fig. 5's `optimize_all`).
    ///
    /// The rounds run one at a time (the scheduler and round pipeline carry
    /// no cross-call state), so with checkpointing enabled every publish
    /// and checkpoint lands on a round boundary.
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
        let mut res = NetworkTuneResult::new(&self.tasks);
        for i in 0..n_total_rounds {
            let round = tune_network_with_sink(
                &mut self.tasks,
                &mut self.proposer,
                &mut self.model,
                &self.sim,
                &mut self.clock,
                &ClockCosts::default(),
                &opts,
                1,
                &mut self.rng,
                self.sink.as_mut().map(|s| s as &mut dyn MeasurementSink),
            );
            self.history.extend(round.curve.iter().copied());
            res.append(round);
            self.rounds_done += 1;
            // Publish on the same boundary as the checkpoint so a killed
            // run leaves its incumbents in the store.
            if let (Some(_), Some(cache)) = (&self.checkpoint_dir, &mut self.schedule_store) {
                cache.publish(&self.tasks, self.sim.device.name);
            }
            // (`save_checkpoint` is a no-op without `with_checkpointing`.)
            if (i + 1) % self.checkpoint_every == 0 || i + 1 == n_total_rounds {
                if let Err(e) = self.save_checkpoint() {
                    eprintln!("[felix] checkpoint write failed: {e}");
                }
            }
        }
        self.stats.extend(self.proposer.take_stats());
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
