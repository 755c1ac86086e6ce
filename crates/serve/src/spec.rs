//! Job specs: what a tenant asks the service to tune.
//!
//! A spec names a model (by the evaluation-network catalog in
//! `felix_graph::models`), a target device, and the tuning budget. It
//! round-trips through the wire codec losslessly (every field is an
//! integer, string, or bool) and is validated *before* the job is
//! acknowledged, so the WAL only ever holds runnable jobs.

use felix_records::Json;
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

    /// Serializes the spec as a JSON document. The optional lifecycle
    /// fields are omitted when unset, so pre-lifecycle specs keep their
    /// exact wire bytes.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("model", Json::Str(self.model.clone())),
            (
                "params",
                Json::Arr(self.params.iter().map(|&p| Json::Num(p as f64)).collect()),
            ),
            ("device", Json::Str(self.device.clone())),
            ("rounds", Json::Num(self.rounds as f64)),
            ("measures", Json::Num(self.measures as f64)),
            ("n_seeds", Json::Num(self.n_seeds as f64)),
            ("n_steps", Json::Num(self.n_steps as f64)),
            ("warm_cache", Json::Bool(self.warm_cache)),
        ];
        if let Some(d) = self.deadline_ms {
            fields.push(("deadline_ms", Json::Num(d as f64)));
        }
        if let Some(r) = self.fault_panic_round {
            fields.push(("fault_panic_round", Json::Num(r as f64)));
        }
        Json::obj(fields)
    }

    /// Decodes and validates a spec document; `Err` carries the
    /// client-facing reason.
    pub fn from_json(doc: &Json) -> Result<JobSpec, String> {
        let str_field = |name: &str| {
            doc.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("spec needs a string \"{name}\""))
        };
        let usize_field = |name: &str| {
            doc.get(name)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("spec needs a non-negative integer \"{name}\""))
        };
        let params = doc
            .get("params")
            .and_then(Json::as_arr)
            .ok_or("spec needs a \"params\" array")?
            .iter()
            .map(|p| {
                p.as_f64()
                    .filter(|v| v.fract() == 0.0 && v.abs() < 2f64.powi(53))
                    .map(|v| v as i64)
            })
            .collect::<Option<Vec<i64>>>()
            .ok_or("\"params\" must hold integers")?;
        let spec = JobSpec {
            model: str_field("model")?,
            params,
            device: str_field("device")?,
            rounds: usize_field("rounds")?,
            measures: usize_field("measures")?,
            n_seeds: usize_field("n_seeds")?,
            n_steps: usize_field("n_steps")?,
            warm_cache: doc
                .get("warm_cache")
                .and_then(Json::as_bool)
                .ok_or("spec needs a bool \"warm_cache\"")?,
            deadline_ms: match doc.get("deadline_ms") {
                None | Some(Json::Null) => None,
                Some(d) => Some(
                    d.as_usize()
                        .ok_or("\"deadline_ms\" must be a non-negative integer")?
                        as u64,
                ),
            },
            fault_panic_round: match doc.get("fault_panic_round") {
                None | Some(Json::Null) => None,
                Some(r) => Some(
                    r.as_usize()
                        .ok_or("\"fault_panic_round\" must be a non-negative integer")?,
                ),
            },
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Checks the spec is runnable: known model, right parameter arity,
    /// known device, and every budget, search knob and model parameter
    /// between 1 and its `MAX_*` bound.
    pub fn validate(&self) -> Result<(), String> {
        let arity_ok = match self.model.as_str() {
            "llama" => self.params.len() == 1 || self.params.len() == 6,
            "resnet50" | "mobilenet_v2" | "r3d18" | "dcgan" | "vit_b32" => {
                self.params.len() == 1
            }
            other => return Err(format!("unknown model {other:?}")),
        };
        if !arity_ok {
            return Err(format!(
                "model {:?} takes [batch]{} — got {} params",
                self.model,
                if self.model == "llama" { " or [batch, seq, hidden, heads, ffn, layers]" } else { "" },
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
    pub fn resolve_graph(&self) -> Result<felix_graph::Graph, String> {
        self.validate()?;
        use felix_graph::models;
        let p = &self.params;
        Ok(match self.model.as_str() {
            "llama" if p.len() == 6 => {
                models::llama_with_config(p[0], p[1], p[2], p[3], p[4], p[5] as usize)
            }
            "llama" => models::llama(p[0]),
            "resnet50" => models::resnet50(p[0]),
            "mobilenet_v2" => models::mobilenet_v2(p[0]),
            "r3d18" => models::r3d18(p[0]),
            "dcgan" => models::dcgan(p[0]),
            "vit_b32" => models::vit_b32(p[0]),
            other => return Err(format!("unknown model {other:?}")),
        })
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
