//! Job specs: what a tenant asks the service to tune.
//!
//! A spec names a model (by the evaluation-network catalog in
//! `felix_graph::models`), a target device, and the tuning budget. It
//! round-trips through the wire codec losslessly (every field is an
//! integer, string, or bool, and [`JobSpec::validate`] keeps every number
//! below 2^53) and is validated *before* the job is acknowledged, so the
//! WAL only ever holds runnable jobs.

use felix_graph::{models, Graph};
use felix_records::schema;
use felix_records::schema::{Flag, List, Num, Omit, OrNull, Text};
use felix_sim::DeviceConfig;

/// Upper bounds on what one spec may ask for. A spec is outside input and
/// sizes allocations (the descent reserves `n_seeds · n_steps` trajectory
/// entries, the model parameters size the graph): unbounded, one accepted
/// submit could abort the daemon on allocation failure — not a panic, so
/// the quarantine never counts it — and again on every restart. Each is
/// far above anything the evaluation uses (16 seeds × 200 steps, 16–64
/// measurements, llama's 11008-wide FFN).
pub const MAX_ROUNDS: usize = 100_000;
/// See [`MAX_ROUNDS`].
pub const MAX_MEASURES: usize = 1_024;
/// See [`MAX_ROUNDS`].
pub const MAX_SEEDS: usize = 256;
/// See [`MAX_ROUNDS`].
pub const MAX_STEPS: usize = 4_096;
/// See [`MAX_ROUNDS`]; applies to every entry of [`JobSpec::params`].
pub const MAX_PARAM: i64 = 65_536;
/// See [`MAX_ROUNDS`]; bounds [`JobSpec::deadline_ms`] to a year, far below
/// 2^53, so the deadline survives the wire's JSON number exactly.
pub const MAX_DEADLINE_MS: u64 = 365 * 24 * 3_600_000;

/// A catalog entry: the model's name, the parameter lists it takes (one
/// per accepted length) and its builder.
type Model = (&'static str, &'static [&'static str], fn(&[i64]) -> Graph);

const BATCH: &[&str] = &["[batch]"];

/// The models a spec can name: what [`JobSpec::validate`] checks and
/// [`JobSpec::resolve_graph`] builds.
static MODELS: [Model; 6] = [
    ("llama", &["[batch]", "[batch, seq, hidden, heads, ffn, layers]"], |p| match *p {
        [b, seq, hidden, heads, ffn, layers] => {
            models::llama_with_config(b, seq, hidden, heads, ffn, layers as usize)
        }
        _ => models::llama(p[0]),
    }),
    ("resnet50", BATCH, |p| models::resnet50(p[0])),
    ("mobilenet_v2", BATCH, |p| models::mobilenet_v2(p[0])),
    ("r3d18", BATCH, |p| models::r3d18(p[0])),
    ("dcgan", BATCH, |p| models::dcgan(p[0])),
    ("vit_b32", BATCH, |p| models::vit_b32(p[0])),
];

/// A validated tuning-job specification.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Model name: `"llama"`, `"resnet50"`, `"mobilenet_v2"`, `"r3d18"`,
    /// `"dcgan"`, or `"vit_b32"`.
    pub model: String,
    /// Model parameters. Every model takes `[batch]`; `"llama"` also
    /// accepts `[batch, seq, hidden, heads, ffn, layers]` for scaled-down
    /// configurations.
    pub params: Vec<i64>,
    /// Target device name, matching a `DeviceConfig::all()` entry
    /// (e.g. `"RTX A5000"`).
    pub device: String,
    /// Tuning rounds to run.
    pub rounds: usize,
    /// Hardware measurements per round.
    pub measures: usize,
    /// Gradient-descent seeds per round.
    pub n_seeds: usize,
    /// Gradient-descent steps per round.
    pub n_steps: usize,
    /// Opt-in: warm-start from the tenant's schedule store at job start.
    /// Off by default because warm-cached jobs trade the
    /// byte-identical-under-crash guarantee for faster convergence: a job
    /// killed before its checkpoint header lands restarts from scratch and
    /// re-reads the store, which may since hold what the tenant's other
    /// jobs published after the first adoption. The killed attempt itself
    /// published nothing (it publishes only after a round), and a job
    /// killed later resumes with the hits and hints its header recorded.
    pub warm_cache: bool,
    /// Optional wall-clock budget in milliseconds, measured from the
    /// durable submission timestamp (so it keeps counting across daemon
    /// restarts). A job past its deadline is finalized `expired` with its
    /// partial result from the last round boundary. `None` = no deadline.
    pub deadline_ms: Option<u64>,
    /// Chaos-testing hook: the worker panics when it is about to tick
    /// this round (0-based), simulating a poison job that crashes its
    /// worker deterministically — the same philosophy as `felix_sim`'s
    /// seeded fault plans. `None` (the only sensible production value)
    /// never panics.
    pub fault_panic_round: Option<usize>,
}

/// The `deadline_ms` row, which the scheduler also reads on its own.
pub(crate) const DEADLINE: (&str, Omit<OrNull<Num>>) = ("deadline_ms", Omit(OrNull(Num)));

// The lifecycle options are left out when unset, so specs that set none
// keep the bytes they had before those options existed.
schema!(struct JobSpec, checked by JobSpec::validate {
    ("model", Text) => model, ("params", List(Num)) => params, ("device", Text) => device,
    ("rounds", Num) => rounds, ("measures", Num) => measures, ("n_seeds", Num) => n_seeds,
    ("n_steps", Num) => n_steps, ("warm_cache", Flag) => warm_cache, DEADLINE => deadline_ms,
    ("fault_panic_round", Omit(OrNull(Num))) => fault_panic_round,
});

impl JobSpec {
    /// A small, fast default spec for `model` on `device` — the knobs the
    /// tests and the README example use.
    pub fn quick(model: &str, params: Vec<i64>, device: &str, rounds: usize) -> JobSpec {
        JobSpec {
            model: model.to_string(),
            params,
            device: device.to_string(),
            rounds,
            measures: 4,
            n_seeds: 2,
            n_steps: 15,
            warm_cache: false,
            deadline_ms: None,
            fault_panic_round: None,
        }
    }

    /// Checks the spec is runnable: known model, right parameter arity,
    /// known device, every budget, search knob and model parameter between
    /// 1 and its `MAX_*` bound, and the deadline and panic round under
    /// theirs. [`JobSpec::from_json`] runs it on every decoded spec.
    pub fn validate(&self) -> Result<(), String> {
        let (_, takes, _) = self.catalog_entry()?;
        if !takes.iter().any(|list| list.split(',').count() == self.params.len()) {
            return Err(format!(
                "model {:?} takes {} — got {} params",
                self.model,
                takes.join(" or "),
                self.params.len()
            ));
        }
        if self.params.iter().any(|p| !(1..=MAX_PARAM).contains(p)) {
            return Err(format!("every model parameter must be in 1..={MAX_PARAM}"));
        }
        self.resolve_device()?;
        for (name, value, max) in [
            ("rounds", self.rounds, MAX_ROUNDS),
            ("measures", self.measures, MAX_MEASURES),
            ("n_seeds", self.n_seeds, MAX_SEEDS),
            ("n_steps", self.n_steps, MAX_STEPS),
        ] {
            if !(1..=max).contains(&value) {
                return Err(format!("\"{name}\" must be in 1..={max}, got {value}"));
            }
        }
        if self.deadline_ms.is_some_and(|d| d > MAX_DEADLINE_MS) {
            return Err(format!("\"deadline_ms\" must be at most {MAX_DEADLINE_MS}"));
        }
        if self.fault_panic_round.is_some_and(|r| r >= MAX_ROUNDS) {
            return Err(format!("\"fault_panic_round\" must be below {MAX_ROUNDS}"));
        }
        Ok(())
    }

    /// The tuning options this spec asks for — everything the optimizer
    /// is built (or resumed) with. One thread: a job's rounds interleave
    /// with other jobs' on the shard's own thread.
    pub fn felix_options(&self) -> felix::FelixOptions {
        felix::FelixOptions {
            n_seeds: self.n_seeds,
            n_steps: self.n_steps,
            threads: 1,
            ..Default::default()
        }
    }

    /// Builds the model graph.
    ///
    /// # Errors
    ///
    /// Returns the [`JobSpec::validate`] error for an unrunnable spec.
    pub fn resolve_graph(&self) -> Result<Graph, String> {
        self.validate()?;
        Ok((self.catalog_entry()?.2)(&self.params))
    }

    /// The spec's model in the catalog.
    fn catalog_entry(&self) -> Result<&'static Model, String> {
        MODELS
            .iter()
            .find(|(name, ..)| *name == self.model)
            .ok_or_else(|| format!("unknown model {:?}", self.model))
    }

    /// Looks up the target device.
    ///
    /// # Errors
    ///
    /// Returns a client-facing message naming the known devices.
    pub fn resolve_device(&self) -> Result<DeviceConfig, String> {
        DeviceConfig::all()
            .into_iter()
            .find(|d| d.name == self.device)
            .ok_or_else(|| {
                let known: Vec<&str> =
                    DeviceConfig::all().iter().map(|d| d.name).collect();
                format!("unknown device {:?} (known: {})", self.device, known.join(", "))
            })
    }
}
