//! Shared infrastructure for the experiment harness.
//!
//! Each table and figure of the paper's evaluation has a binary under
//! `src/bin/` (see DESIGN.md's experiment index); this library provides the
//! pieces they share: per-device cost-model caching, network tuning runners
//! for Felix and Ansor-TenSet, milestone computation, and result-file I/O.
//!
//! Scale control: set `FELIX_FAST=1` for smoke-test scale, or
//! `FELIX_FULL=1` for the heaviest (multi-seed band) runs. The default is a
//! faithful but single-seed configuration.

pub mod plot;

use felix::{FelixOptions, GradientProposer};
use felix_ansor::evolution::EvolutionConfig;
use felix_ansor::{
    tune_network_with_sink, tune_task_round_with_sink, CurvePoint, EvolutionaryProposer,
    NetworkTuneResult, Proposer, SearchTask, TuneOptions,
};
use felix_cost::{pretrain_for_device, Mlp};
use felix_graph::{models, partition, Graph, Task};
use felix_sim::clock::ClockCosts;
use felix_sim::{DeviceConfig, Simulator, TuningClock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// Experiment scale, selected by environment variables.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Smoke-test scale (CI-sized).
    Fast,
    /// Default scale: faithful settings, single seed.
    Default,
    /// Full scale: adds the multi-seed variance band of Fig. 7a.
    Full,
}

impl Scale {
    /// Reads the scale from the environment.
    pub fn from_env() -> Scale {
        if std::env::var("FELIX_FAST").is_ok() {
            Scale::Fast
        } else if std::env::var("FELIX_FULL").is_ok() {
            Scale::Full
        } else {
            Scale::Default
        }
    }

    /// Evolutionary population (paper: 2048).
    pub fn ansor_population(self) -> usize {
        match self {
            Scale::Fast => 192,
            Scale::Default => 1024,
            Scale::Full => 2048,
        }
    }

    /// Rounds budget per network, as a multiple of the task count.
    pub fn rounds_factor(self) -> usize {
        match self {
            Scale::Fast => 1,
            _ => 3,
        }
    }

    /// Felix gradient-descent settings: [`FelixOptions::default`] (16
    /// seeds, 200 steps), cut to 4 seeds × 50 steps at [`Scale::Fast`].
    pub fn felix_options(self) -> FelixOptions {
        match self {
            Scale::Fast => FelixOptions { n_seeds: 4, n_steps: 50, ..Default::default() },
            _ => FelixOptions::default(),
        }
    }

    /// Cost-model dataset size `(workloads, schedules/workload, epochs)`.
    pub fn model_config(self) -> (usize, usize, usize) {
        match self {
            Scale::Fast => (16, 24, 15),
            _ => (100, 72, 35),
        }
    }
}

/// Directory for cached models and experiment outputs.
///
/// Defaults to `results/` under the current working directory, resolved
/// when the binary runs, so the repository's `results/` when run from its
/// root; override with the `--out-dir <path>` flag (every harness binary
/// parses it via [`out_dir_from_args`]).
pub fn results_dir() -> PathBuf {
    let root = OUT_DIR.get().cloned().unwrap_or_else(|| PathBuf::from("results"));
    std::fs::create_dir_all(&root).expect("create results dir");
    root.canonicalize().expect("canonical results dir")
}

/// Selects the output directory for [`results_dir`] programmatically.
/// First setter wins.
pub fn set_out_dir(path: impl Into<PathBuf>) {
    let _ = OUT_DIR.set(path.into());
}

/// Parses `--out-dir <path>` from the process arguments; every harness
/// binary calls this at the top of `main` so result files land in one
/// configurable place.
pub fn out_dir_from_args() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--out-dir") {
        let path = args.get(i + 1).expect("--out-dir requires a path");
        set_out_dir(path.clone());
    }
}

static OUT_DIR: std::sync::OnceLock<PathBuf> = std::sync::OnceLock::new();

/// Loads (or trains and caches) the pretrained cost model for a device.
pub fn cached_model(device: &DeviceConfig, scale: Scale) -> Mlp {
    let (n_workloads, schedules, epochs) = scale.model_config();
    let path = results_dir().join(format!(
        "model-{}-{n_workloads}x{schedules}.bin",
        device.name.replace(' ', "_")
    ));
    if let Ok(f) = std::fs::File::open(&path) {
        if let Ok(m) = Mlp::load(std::io::BufReader::new(f)) {
            return m;
        }
    }
    eprintln!("[cost-model] training for {} ({n_workloads} workloads x {schedules})...", device.name);
    let (mlp, val) = pretrain_for_device(device, n_workloads, schedules, epochs);
    let rho = felix_cost::trainer::rank_correlation(&mlp, &val);
    eprintln!("[cost-model] {}: validation rank correlation {rho:.3}", device.name);
    let f = std::fs::File::create(&path).expect("create model cache");
    mlp.save(std::io::BufWriter::new(f)).expect("save model cache");
    mlp
}

/// The six evaluation networks at a batch size (paper §5).
pub fn networks(batch: i64) -> Vec<Graph> {
    models::all_models(batch)
}

/// The five networks that fit on Xavier NX / in batch-16 memory.
pub fn networks_no_llama(batch: i64) -> Vec<Graph> {
    networks(batch).into_iter().filter(|g| !g.name.starts_with("llama")).collect()
}

/// Human-readable final latency of a run: the measured figure, or — when
/// some tasks never produced a measurement and the sum would print as `inf`
/// — how many tasks are missing.
pub fn final_latency_label(run: &NetworkTuneResult) -> String {
    if run.unmeasured_tasks > 0 {
        format!("{} tasks unmeasured", run.unmeasured_tasks)
    } else {
        format!("{:.4} ms", run.final_latency_ms)
    }
}

/// Felix's proposer at `scale` and its round options (16 measurements per
/// round, §5).
pub fn felix_tool(scale: Scale) -> (GradientProposer, TuneOptions) {
    let opts = TuneOptions { measurements_per_round: 16, ..Default::default() };
    (GradientProposer::new(scale.felix_options()), opts)
}

/// Ansor-TenSet's evolutionary proposer with `population` schedules and its
/// round options (64 measurements per round, §5).
pub fn ansor_tool(population: usize) -> (EvolutionaryProposer, TuneOptions) {
    let opts = TuneOptions { measurements_per_round: 64, ..Default::default() };
    (EvolutionaryProposer::new(EvolutionConfig { population, generations: 4 }), opts)
}

fn run_with_proposer(
    graph: &Graph,
    device: &DeviceConfig,
    model: &Mlp,
    proposer: &mut dyn Proposer,
    opts: &TuneOptions,
    rounds_factor: usize,
    seed: u64,
) -> NetworkTuneResult {
    let sim = Simulator::new(*device);
    let mut search: Vec<SearchTask> =
        partition(graph).iter().map(|t| SearchTask::from_task(t, &sim)).collect();
    // The paper compares tools at equal *tuning time*, so the budget is a
    // wall-clock target: roughly `rounds_factor` Ansor-sized rounds per task
    // (one Ansor round ≈ 64 measurements ≈ 55 s). Felix fits ~4x more of
    // its cheaper rounds into the same budget, exactly as in Fig. 7.
    let budget_s = (search.len() * rounds_factor) as f64 * 56.0;
    let round_cap = search.len() * rounds_factor * 8 + 16;
    let mut model = model.clone();
    let mut clock = TuningClock::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut result = NetworkTuneResult::new(&search);
    while clock.now_s() < budget_s && result.round_reports.len() < round_cap {
        result.append(tune_network_with_sink(
            &mut search,
            proposer,
            &mut model,
            &sim,
            &mut clock,
            &ClockCosts,
            opts,
            1,
            &mut rng,
            None,
        ));
    }
    result
}

/// Tunes a network with Felix (gradient descent; 16 measurements/round).
pub fn run_felix(
    graph: &Graph,
    device: &DeviceConfig,
    model: &Mlp,
    scale: Scale,
    seed: u64,
) -> NetworkTuneResult {
    let (mut proposer, opts) = felix_tool(scale);
    run_with_proposer(graph, device, model, &mut proposer, &opts, scale.rounds_factor(), seed)
}

/// Tunes a network with Ansor-TenSet (evolutionary; 64 measurements/round).
pub fn run_ansor(
    graph: &Graph,
    device: &DeviceConfig,
    model: &Mlp,
    scale: Scale,
    seed: u64,
) -> NetworkTuneResult {
    let (mut proposer, opts) = ansor_tool(scale.ansor_population());
    run_with_proposer(graph, device, model, &mut proposer, &opts, scale.rounds_factor(), seed)
}

/// Outcome of tuning one subgraph in isolation (for Figs. 8 and 9).
pub struct SingleTaskRun {
    /// Final search state (best schedule, measurements).
    pub task: SearchTask,
    /// Chronological cost-model predictions of every candidate the search
    /// examined (Fig. 8's x-axis is this sequence's index).
    pub prediction_trace: Vec<f64>,
    /// Simulated tuning seconds spent.
    pub time_s: f64,
}

/// Tunes a single subgraph for `rounds` rounds with the given proposer and
/// round options.
pub fn tune_single_task(
    task: &Task,
    device: &DeviceConfig,
    model: &Mlp,
    proposer: &mut dyn Proposer,
    opts: &TuneOptions,
    rounds: usize,
    seed: u64,
) -> SingleTaskRun {
    let sim = Simulator::new(*device);
    let mut search = SearchTask::from_task(task, &sim);
    let mut model = model.clone();
    let mut clock = TuningClock::new();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..rounds {
        tune_task_round_with_sink(
            &mut search,
            proposer,
            &mut model,
            &sim,
            &mut clock,
            &ClockCosts,
            opts,
            &mut rng,
            None,
        );
    }
    let prediction_trace = proposer.take_prediction_trace();
    SingleTaskRun { task: search, prediction_trace, time_s: clock.now_s() }
}

/// First time (seconds) at which a curve reaches a latency `<= target`.
pub fn time_to_reach(curve: &[CurvePoint], target_ms: f64) -> Option<f64> {
    curve.iter().find(|p| p.latency_ms <= target_ms).map(|p| p.time_s)
}

/// Tuning speedups of Felix over Ansor at `pct`% of Ansor's best performance
/// (paper Table 2 definition): `target = best_ansor / (pct/100)`.
pub fn milestone_speedup(
    felix: &[CurvePoint],
    ansor: &[CurvePoint],
    ansor_best_ms: f64,
    pct: f64,
) -> Option<f64> {
    let target = ansor_best_ms / (pct / 100.0);
    let tf = time_to_reach(felix, target)?;
    let ta = time_to_reach(ansor, target)?;
    Some(ta / tf.max(1e-9))
}

/// One network's Table 2 row: Felix's speedup over Ansor at 90/95/99% of
/// Ansor's best performance, as printed (`—` where a curve never gets
/// there). Each reached speedup is also pushed onto its milestone's list in
/// `reached`, for [`geomean_cells`].
pub fn milestone_cells(
    felix: &[CurvePoint],
    ansor: &[CurvePoint],
    reached: &mut [Vec<f64>; 3],
) -> Vec<String> {
    let ansor_best = ansor.iter().map(|p| p.latency_ms).fold(f64::INFINITY, f64::min);
    [90.0, 95.0, 99.0]
        .into_iter()
        .zip(reached.iter_mut())
        .map(|(pct, reached)| match milestone_speedup(felix, ansor, ansor_best, pct) {
            Some(s) => {
                reached.push(s);
                format!("{s:>6.1}x")
            }
            None => "     —".to_string(),
        })
        .collect()
}

/// Table 2's geometric-mean row over the speedups [`milestone_cells`]
/// reached.
pub fn geomean_cells(reached: &[Vec<f64>; 3]) -> Vec<String> {
    reached
        .iter()
        .map(|v| geomean(v).map_or_else(|| "     —".to_string(), |g| format!("{g:>6.1}x")))
        .collect()
}

/// Geometric mean of positive values; `None` when empty.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// Writes an experiment output under `results/` and echoes the path.
pub fn write_result(name: &str, content: &str) {
    let path = results_dir().join(name);
    std::fs::write(&path, content).expect("write result file");
    eprintln!("[results] wrote {}", path.display());
}

/// Reads a previously written result file, if present.
pub fn read_result(name: &str) -> Option<String> {
    std::fs::read_to_string(results_dir().join(name)).ok()
}

/// Serializes curves in a simple CSV: `device,network,tool,seed,time_s,latency_ms`.
pub fn curves_to_csv(
    rows: &[(String, String, String, u64, Vec<CurvePoint>)],
) -> String {
    let mut out = String::from("device,network,tool,seed,time_s,latency_ms\n");
    for (dev, net, tool, seed, curve) in rows {
        for p in curve {
            out.push_str(&format!(
                "{dev},{net},{tool},{seed},{:.3},{:.6}\n",
                p.time_s, p.latency_ms
            ));
        }
    }
    out
}

/// Parses the CSV produced by [`curves_to_csv`].
#[allow(clippy::type_complexity)]
pub fn curves_from_csv(
    csv: &str,
) -> Vec<(String, String, String, u64, Vec<CurvePoint>)> {
    let mut out: Vec<(String, String, String, u64, Vec<CurvePoint>)> = Vec::new();
    for line in csv.lines().skip(1) {
        let parts: Vec<&str> = line.split(',').collect();
        if parts.len() != 6 {
            continue;
        }
        let key = (
            parts[0].to_string(),
            parts[1].to_string(),
            parts[2].to_string(),
            parts[3].parse::<u64>().unwrap_or(0),
        );
        let point = CurvePoint {
            time_s: parts[4].parse().unwrap_or(0.0),
            latency_ms: parts[5].parse().unwrap_or(f64::NAN),
        };
        match out.iter_mut().find(|(d, n, t, s, _)| {
            (*d == key.0) && (*n == key.1) && (*t == key.2) && (*s == key.3)
        }) {
            Some((_, _, _, _, c)) => c.push(point),
            None => out.push((key.0, key.1, key.2, key.3, vec![point])),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn milestone_math() {
        let felix = vec![
            CurvePoint { time_s: 10.0, latency_ms: 2.0 },
            CurvePoint { time_s: 20.0, latency_ms: 1.0 },
        ];
        let ansor = vec![
            CurvePoint { time_s: 30.0, latency_ms: 2.5 },
            CurvePoint { time_s: 60.0, latency_ms: 1.0 },
        ];
        // 90% of best (1.0) => target 1.111; felix reaches at 20, ansor at 60.
        let s = milestone_speedup(&felix, &ansor, 1.0, 90.0).expect("reachable");
        assert!((s - 3.0).abs() < 1e-9);
    }

    #[test]
    fn csv_round_trips() {
        let rows = vec![(
            "A5000".to_string(),
            "resnet50-b1".to_string(),
            "Felix".to_string(),
            7u64,
            vec![
                CurvePoint { time_s: 1.0, latency_ms: 5.0 },
                CurvePoint { time_s: 2.0, latency_ms: 4.0 },
            ],
        )];
        let csv = curves_to_csv(&rows);
        let parsed = curves_from_csv(&csv);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].4.len(), 2);
        assert_eq!(parsed[0].1, "resnet50-b1");
        assert_eq!(parsed[0].4[1].latency_ms, 4.0);
    }

    #[test]
    fn geomean_sane() {
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!(geomean(&[]).is_none());
    }
}
