//! What every workload shares: the run configuration, the measured window,
//! the per-layer sample sink, output checks and the temp-dir guard.

use crate::stats;
use crate::trace::Recorder;
use felix_cost::{generate_dataset, pretrain, Mlp, TrainConfig};
use felix_sim::DeviceConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How many times a workload sets itself up; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// One run's knobs, from the command line.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub workload: String,
    /// Draws operator shapes, job mixes and the tuner RNG; the program
    /// under test only ever sees the generated inputs.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// The traced run: span recorder on, leaf calls replayed, per-layer
    /// metrics reported instead of end-to-end ones.
    pub trace: bool,
    /// CI-sized budgets and operation counts.
    pub smoke: bool,
}

impl RunConfig {
    /// `full` normally, `smoke` under `--smoke`.
    pub fn pick<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// The measured window: operations run until the time is up *and* at least
/// `min_ops` finished. Count-type layer metrics cover exactly the first
/// `min_ops` operations, so they repeat exactly however fast the machine
/// is; timings cover every operation in the window.
#[derive(Debug)]
pub struct Window {
    start: Instant,
    length: Duration,
    pub min_ops: usize,
    cpu_start_ms: f64,
}

impl Window {
    pub fn open(seconds: f64, min_ops: usize) -> Window {
        Window {
            start: Instant::now(),
            length: Duration::from_secs_f64(seconds),
            min_ops,
            cpu_start_ms: stats::process_cpu_ms(),
        }
    }

    /// Whether another operation should start after `done` finished ones.
    pub fn more(&self, done: usize) -> bool {
        done < self.min_ops || !self.time_up()
    }

    /// Whether the clock alone says stop (for loops with work in flight).
    pub fn time_up(&self) -> bool {
        self.start.elapsed() >= self.length
    }

    /// Whether operation number `op` (0-based) is inside the counted prefix.
    pub fn counted(&self, op: usize) -> bool {
        op < self.min_ops
    }

    pub fn cpu_ms(&self) -> f64 {
        stats::process_cpu_ms() - self.cpu_start_ms
    }
}

/// What the calibration kernel takes on this sandbox's CPU when nothing
/// disturbs it, microseconds: the reference speed reported times are
/// scaled to.
pub const CALIB_REF_US: f64 = 25.0;

/// A fixed compute kernel of the benchmark's own — eight independent
/// fused-multiply-add chains over L1-resident data — run for about 1 % of
/// the time, between operations. It never changes with the code under
/// test, so its duration tracks only how fast the machine is running right
/// now. The sandbox's host swings between phases that differ by 1.5x in
/// sustained speed for minutes at a time; scaling every reported time by
/// [`machine_speed`] takes that swing out (see README, "Machine-speed
/// normalisation").
#[derive(Debug)]
pub struct Calibrator {
    a: Vec<f32>,
    b: Vec<f32>,
    pub samples_us: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            a: (0..2048).map(|i| (i as f32).sin()).collect(),
            b: (0..2048).map(|i| (i as f32).cos()).collect(),
            samples_us: Vec::new(),
        }
    }
}

impl Calibrator {
    /// Spends about 1 % of the previous operation's duration on the kernel
    /// (100 us before the first operation).
    pub fn before_op(&mut self, previous_op_ms: Option<f64>) {
        self.burst(previous_op_ms.map_or(100.0, |ms| ms * 1e3 / 100.0));
    }

    /// Runs the kernel back to back for about `budget_us` microseconds (at
    /// least once), recording each run.
    pub fn burst(&mut self, budget_us: f64) {
        let t = Instant::now();
        loop {
            self.sample();
            if us_since(t) >= budget_us {
                break;
            }
        }
    }

    /// Runs the kernel once and records how long it took.
    pub fn sample(&mut self) {
        let t = Instant::now();
        let mut acc = [0f32; 8];
        for _ in 0..32 {
            for (x, y) in self.a.chunks_exact(8).zip(self.b.chunks_exact(8)) {
                for k in 0..8 {
                    acc[k] = x[k].mul_add(y[k], acc[k] * 0.999);
                }
            }
            std::hint::black_box(&mut acc);
        }
        self.b[0] += acc.iter().sum::<f32>() * 1e-30;
        self.samples_us.push(us_since(t));
    }
}

/// How fast the machine ran while `calib_us` was sampled, relative to the
/// reference: below 1 when it was slowed down. 1 without samples.
pub fn machine_speed(calib_us: &[f64]) -> f64 {
    match stats::mean_without_top_2pct(calib_us) {
        mean if mean > 0.0 => CALIB_REF_US / mean,
        _ => 1.0,
    }
}

/// What the untraced run reports.
#[derive(Clone, Debug, Default)]
pub struct EndToEndSamples {
    /// One duration per full set-up.
    pub setup_s: Vec<f64>,
    /// Wall clock of every operation in the window, milliseconds.
    pub op_ms: Vec<f64>,
    /// Wall clock spent inside operations (`serve_mixed`: first submit to
    /// last terminal state).
    pub window_s: f64,
    /// Process CPU over the same interval.
    pub cpu_ms: f64,
    /// `VmHWM` when the first `min_ops` operations had finished — a fixed
    /// amount of work, so it does not grow with how fast the machine is.
    pub peak_rss_mb: f64,
    /// Durations of the calibration kernel sampled through the window,
    /// microseconds.
    pub calib_us: Vec<f64>,
    /// The same, sampled around the set-ups.
    pub setup_calib_us: Vec<f64>,
}

impl EndToEndSamples {
    /// The samples of a single-caller loop: the window's time is the time
    /// spent inside operations, so per-operation checks, calibration bursts
    /// and traced replays between operations do not dilute the throughput.
    pub fn of_loop(
        setup: SetupSamples,
        op_ms: Vec<f64>,
        window: &Window,
        calib: Calibrator,
        peak_rss_mb: f64,
    ) -> EndToEndSamples {
        EndToEndSamples {
            setup_s: setup.seconds,
            setup_calib_us: setup.calib_us,
            window_s: op_ms.iter().sum::<f64>() / 1e3,
            op_ms,
            cpu_ms: window.cpu_ms(),
            peak_rss_mb,
            calib_us: calib.samples_us,
        }
    }
}

/// Per-layer samples and counters of the traced run.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// One timing sample; the metric reports the median.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Adds to a counter.
    pub fn add(&mut self, name: &'static str, by: f64) {
        *self.values.entry(name).or_insert(0.0) += by;
    }

    /// Sets a computed value (a ratio, a size).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Folds another thread's samples and counters into this one.
    pub fn merge(&mut self, other: Layers) {
        for (name, mut samples) in other.samples {
            self.samples.entry(name).or_default().append(&mut samples);
        }
        for (name, by) in other.values {
            self.add(name, by);
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.explicit(name).unwrap_or(0.0)
    }

    pub fn samples_of(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// A counter or computed value, if one was set.
    pub fn explicit(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// One output check: the run is incorrect if any is false.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Collects checks; a failed per-operation check also counts the operation
/// as failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub list: Vec<Check>,
}

impl Checks {
    /// Records a check once per name, keeping the first failure's detail.
    pub fn record(&mut self, name: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        match self.list.iter_mut().find(|c| c.name == name) {
            Some(c) if c.ok && !ok => {
                c.ok = false;
                c.detail = detail();
            }
            Some(_) => {}
            None => self.list.push(Check {
                name,
                ok,
                detail: if ok { String::new() } else { detail() },
            }),
        }
    }

    pub fn all_ok(&self) -> bool {
        self.list.iter().all(|c| c.ok)
    }
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    pub e2e: EndToEndSamples,
    pub layers: Layers,
    pub recorder: Recorder,
}

/// A directory under `benchmark/out/` that is removed when the guard
/// drops — on normal exit, on a failed check, and while unwinding.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    pub fn create(out_dir: &Path, tag: &str) -> std::io::Result<TempDir> {
        let path = out_dir.join(format!("tmp-{}-{tag}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// A fresh, empty subdirectory.
    pub fn sub(&self, name: &str) -> PathBuf {
        let p = self.path.join(name);
        std::fs::create_dir_all(&p).expect("create temp subdirectory");
        p
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Drop must not panic; a leftover directory is only litter.
        drop(std::fs::remove_dir_all(&self.path));
    }
}

/// What [`timed_setups`] measured: one duration per set-up, and the
/// calibration samples taken around them.
#[derive(Clone, Debug, Default)]
pub struct SetupSamples {
    pub seconds: Vec<f64>,
    pub calib_us: Vec<f64>,
}

/// Runs `setup` [`SETUP_REPS`] times, timing each; returns the last
/// product, every duration in seconds, and the calibration samples taken
/// around the repetitions.
pub fn timed_setups<T>(mut setup: impl FnMut(usize) -> T) -> (T, SetupSamples) {
    let mut durations = Vec::with_capacity(SETUP_REPS);
    let mut calib = Calibrator::default();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        // Drop the previous product first: two live copies would double
        // the set-up's memory high-water mark.
        drop(last.take());
        calib.burst(3000.0);
        let t = Instant::now();
        last = Some(setup(rep));
        durations.push(t.elapsed().as_secs_f64());
    }
    calib.burst(3000.0);
    let samples = SetupSamples {
        seconds: durations,
        calib_us: calib.samples_us,
    };
    (last.expect("SETUP_REPS >= 1"), samples)
}

/// `felix::pretrained_cost_model(device, ModelQuality::Fast)` without its
/// per-process memo, so every set-up repetition pays for pretraining. The
/// recipe is checked against the memoized original by
/// [`cost_model_matches_library`].
pub fn pretrain_fast_model(device: &DeviceConfig) -> Mlp {
    let ds = generate_dataset(device, 6, 12, 0xFE11C5);
    let mut rng = StdRng::seed_from_u64(0xC0571);
    let mut mlp = Mlp::new(&mut rng);
    let (train, _) = ds.split(0);
    pretrain(
        &mut mlp,
        &train,
        &TrainConfig {
            epochs: 10,
            batch_size: 128,
            lr: 7e-4,
            seed: 1,
            ..Default::default()
        },
    );
    mlp
}

/// Whether [`pretrain_fast_model`] still reproduces the library's model
/// byte for byte.
pub fn cost_model_matches_library(model: &Mlp, device: &DeviceConfig) -> bool {
    let bytes = |m: &Mlp| {
        let mut out = Vec::new();
        m.save(&mut out).expect("serialize model to memory");
        out
    };
    bytes(model)
        == bytes(&felix::pretrained_cost_model(
            device,
            felix::ModelQuality::Fast,
        ))
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Microseconds since `t`.
pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}
