//! The experiment harness: [`experiments`] is the table of the paper's
//! tables and figures behind `felix-bench <experiment>`; this library holds
//! what they share: per-device cost-model caching, the Felix and
//! Ansor-TenSet runners, milestone math and result-file I/O, all against an
//! output directory the caller names.
//!
//! Scale control: set `FELIX_FAST=1` for smoke-test scale, or
//! `FELIX_FULL=1` for the heaviest (multi-seed band) runs. The default is a
//! faithful but single-seed configuration; `0` is the same as unset, and
//! any other value, or both set to `1`, is an error.

pub mod experiments;
pub mod plot;

use felix::{FelixOptions, GradientProposer};
use felix_ansor::evolution::EvolutionConfig;
use felix_ansor::{
    tune_network_with_sink, tune_task_round_with_sink, CurvePoint, EvolutionaryProposer,
    NetworkTuneResult, Proposer, SearchTask, TuneOptions,
};
use felix_cost::{pretrain_for_device, Mlp, COST_MATH_VERSION};
use felix_graph::{models, partition, Graph, Task};
use felix_sim::clock::{ClockCosts, RPC_S};
use felix_sim::{DeviceConfig, Simulator, TuningClock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

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
    /// Reads the scale from `FELIX_FAST` and `FELIX_FULL`: `1` selects that
    /// scale, `0` or unset does not.
    ///
    /// # Errors
    ///
    /// Either variable set to anything but `0` or `1`, or both set to `1`.
    pub fn from_env() -> Result<Scale, String> {
        let var = |name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
        Scale::from_values(var("FELIX_FAST").as_deref(), var("FELIX_FULL").as_deref())
    }

    /// [`Scale::from_env`] over the two variables' values.
    fn from_values(fast: Option<&str>, full: Option<&str>) -> Result<Scale, String> {
        let on = |name: &str, value: Option<&str>| match value {
            None | Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(other) => Err(format!("{name}={other:?}: expected 1 or 0")),
        };
        match (on("FELIX_FAST", fast)?, on("FELIX_FULL", full)?) {
            (true, true) => Err("FELIX_FAST=1 and FELIX_FULL=1 select two scales".to_string()),
            (true, false) => Ok(Scale::Fast),
            (false, true) => Ok(Scale::Full),
            (false, false) => Ok(Scale::Default),
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

/// Loads (or trains and caches in `out`) the pretrained cost model for a
/// device. The file name carries the cost model's arithmetic, so a model
/// trained by a build that computed differently is retrained, not loaded.
pub fn cached_model(out: &Path, device: &DeviceConfig, scale: Scale) -> Mlp {
    let (n_workloads, schedules, epochs) = scale.model_config();
    let path = out.join(format!(
        "model-{}-{n_workloads}x{schedules}-{}.bin",
        device.name.replace(' ', "_"),
        COST_MATH_VERSION
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

/// The evaluation networks (paper §5) tuned at `batch` on `device`: all
/// six, less LLaMA where it does not fit, at batch 16 and on the RPC device
/// (Xavier NX).
pub fn networks(batch: i64, device: &DeviceConfig) -> Vec<Graph> {
    let fits = |g: &Graph| (batch == 1 && !device.rpc) || !g.name.starts_with("llama");
    models::all_models(batch).into_iter().filter(fits).collect()
}

/// The two tuners the evaluation compares.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tool {
    /// Felix: gradient descent, 16 measurements per round (§5).
    Felix,
    /// Ansor-TenSet: evolutionary search, 64 measurements per round (§5).
    Ansor,
}

impl Tool {
    /// Both tools, in the order every experiment runs them.
    pub const BOTH: [Tool; 2] = [Tool::Felix, Tool::Ansor];

    /// The tool's name in the curve CSVs.
    pub fn name(self) -> &'static str {
        match self {
            Tool::Felix => "Felix",
            Tool::Ansor => "Ansor-TenSet",
        }
    }

    /// The tool's proposer at `scale`, Ansor's population capped at
    /// `max_population`, and its round options.
    pub fn proposer(
        self,
        scale: Scale,
        max_population: usize,
    ) -> (Box<dyn Proposer>, TuneOptions) {
        let (proposer, measurements_per_round): (Box<dyn Proposer>, _) = match self {
            Tool::Felix => (Box::new(GradientProposer::new(scale.felix_options())), 16),
            Tool::Ansor => {
                let population = scale.ansor_population().min(max_population);
                let config = EvolutionConfig { population, generations: 4 };
                (Box::new(EvolutionaryProposer::new(config)), 64)
            }
        };
        (proposer, TuneOptions { measurements_per_round, ..Default::default() })
    }
}

/// Tunes a network with `tool` from `seed`, for as long as
/// [`Scale::rounds_factor`] Ansor rounds per task take.
pub fn run_network(
    tool: Tool,
    graph: &Graph,
    device: &DeviceConfig,
    model: &Mlp,
    scale: Scale,
    seed: u64,
) -> NetworkTuneResult {
    let (mut proposer, opts) = tool.proposer(scale, usize::MAX);
    let rounds_factor = scale.rounds_factor();
    let sim = Simulator::new(*device);
    let mut search: Vec<SearchTask> =
        partition(graph).iter().map(|t| SearchTask::from_task(t, &sim)).collect();
    // The paper compares tools at equal *tuning time*, so the budget is a
    // wall-clock target: roughly `rounds_factor` Ansor-sized rounds per task
    // (one Ansor round ≈ 64 measurements ≈ 55 s, plus 64 RPC round trips
    // on an RPC device). Felix fits ~4x more of its cheaper rounds into the
    // same budget, exactly as in Fig. 7.
    let round_s = if device.rpc { 56.0 + 64.0 * RPC_S } else { 56.0 };
    let budget_s = (search.len() * rounds_factor) as f64 * round_s;
    let round_cap = search.len() * rounds_factor * 8 + 16;
    let mut model = model.clone();
    let mut clock = TuningClock::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut result = NetworkTuneResult::new(&search);
    while clock.now_s() < budget_s && result.round_reports.len() < round_cap {
        result.append(tune_network_with_sink(
            &mut search,
            proposer.as_mut(),
            &mut model,
            &sim,
            &mut clock,
            &ClockCosts,
            &opts,
            1,
            &mut rng,
            None,
        ));
    }
    result
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
        .map(|(pct, reached)| {
            let s = milestone_speedup(felix, ansor, ansor_best, pct);
            reached.extend(s);
            speedup_cell(s)
        })
        .collect()
}

/// A speedup as a table cell: `—` where none was reached.
fn speedup_cell(s: Option<f64>) -> String {
    s.map_or_else(|| "     —".to_string(), |s| format!("{s:>6.1}x"))
}

/// Table 2's geometric-mean row over the speedups [`milestone_cells`]
/// reached.
pub fn geomean_cells(reached: &[Vec<f64>; 3]) -> Vec<String> {
    reached.iter().map(|v| speedup_cell(geomean(v))).collect()
}

/// Geometric mean of positive values; `None` when empty.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// Writes an experiment output into `out` and echoes the path.
pub fn write_result(out: &Path, name: &str, content: &str) {
    let path = out.join(name);
    std::fs::write(&path, content).expect("write result file");
    eprintln!("[results] wrote {}", path.display());
}

/// One tuning curve of a curve CSV: a tool's best latency so far against
/// simulated tuning time, for one device, network and seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Curve {
    /// Device name, as in [`DeviceConfig::name`].
    pub device: String,
    /// Network name, as in [`Graph::name`].
    pub network: String,
    /// The tool, written as its [`Tool::name`].
    pub tool: Tool,
    /// Seed of the tuning run.
    pub seed: u64,
    /// The curve, in time order.
    pub points: Vec<CurvePoint>,
}

impl Curve {
    /// A curve of `tool`'s run on device `dev` and network `net` from `seed`.
    pub fn new(dev: &str, net: &str, tool: Tool, seed: u64, points: Vec<CurvePoint>) -> Self {
        Curve { device: dev.into(), network: net.into(), tool, seed, points }
    }
}

const CURVE_HEADER: &str = "device,network,tool,seed,time_s,latency_ms";

/// The curve of `tool` on `device` and `network` at seed 1: the run every
/// table and chart reads (further seeds only form Fig. 7a's band).
pub fn seed_one<'a>(
    curves: &'a [Curve],
    device: &str,
    network: &str,
    tool: Tool,
) -> Option<&'a [CurvePoint]> {
    curves
        .iter()
        .filter(|c| c.device == device && c.network == network)
        .find(|c| c.tool == tool && c.seed == 1)
        .map(|c| c.points.as_slice())
}

/// Serializes curves in a simple CSV: `device,network,tool,seed,time_s,latency_ms`.
pub fn curves_to_csv(curves: &[Curve]) -> String {
    let mut out = format!("{CURVE_HEADER}\n");
    for c in curves {
        for p in &c.points {
            out.push_str(&format!(
                "{},{},{},{},{:.3},{:.6}\n",
                c.device, c.network, c.tool.name(), c.seed, p.time_s, p.latency_ms
            ));
        }
    }
    out
}

/// Parses the CSV produced by [`curves_to_csv`], read from `path`. A wrong
/// header, a row without six fields or a malformed row (an unknown tool, a
/// seed that is not an integer, a time that is not finite and non-negative,
/// a latency that is NaN or not positive) is an error naming the file and
/// line.
pub fn curves_from_csv(csv: &str, path: &Path) -> Result<Vec<Curve>, String> {
    let mut lines = csv.lines().zip(1..);
    let bad = |line: usize, what: String| format!("{}:{line}: {what}", path.display());
    if lines.next().map(|(header, _)| header) != Some(CURVE_HEADER) {
        return Err(bad(1, format!("expected the header {CURVE_HEADER:?}")));
    }
    let mut out: Vec<Curve> = Vec::new();
    for (line, n) in lines {
        let fields: Vec<&str> = line.split(',').collect();
        let [device, network, tool, seed, time_s, latency_ms] = fields[..] else {
            return Err(bad(n, format!("expected 6 fields, found {}", fields.len())));
        };
        let tool = Tool::BOTH.into_iter().find(|t| t.name() == tool);
        let (tool, seed, point) = match (tool, seed.parse(), time_s.parse(), latency_ms.parse()) {
            (Some(tool), Ok(seed), Ok(t), Ok(l)) if f64::is_finite(t) && t >= 0.0 && l > 0.0 => {
                (tool, seed, CurvePoint { time_s: t, latency_ms: l })
            }
            _ => return Err(bad(n, format!("malformed row {line:?}"))),
        };
        match out.iter_mut().find(|c| {
            c.device == device && c.network == network && c.tool == tool && c.seed == seed
        }) {
            Some(c) => c.points.push(point),
            None => out.push(Curve::new(device, network, tool, seed, vec![point])),
        }
    }
    Ok(out)
}

/// Loads the curves that experiment `writer` left in `out/<file>`; an
/// absent file is an error that names the experiment to run first.
pub fn read_curves(out: &Path, file: &str, writer: &str) -> Result<Vec<Curve>, String> {
    let path = out.join(file);
    let csv = std::fs::read_to_string(&path).map_err(|e| {
        format!("cannot read {} ({e}) — run `felix-bench {writer}` first", path.display())
    })?;
    curves_from_csv(&csv, &path)
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
        let points = vec![
            CurvePoint { time_s: 1.0, latency_ms: 5.0 },
            CurvePoint { time_s: 2.0, latency_ms: 4.0 },
        ];
        let curves = vec![Curve::new("A5000", "resnet50-b1", Tool::Felix, 7, points)];
        let csv = curves_to_csv(&curves);
        assert_eq!(curves_from_csv(&csv, Path::new("c.csv")), Ok(curves));
    }

    /// A corrupt row is refused with its file and line, not read as a
    /// time-0 point, a seed-0 curve or a NaN latency.
    #[test]
    fn csv_refuses_bad_rows() {
        let good = "A5000,resnet50-b1,Felix,1,1.000,5.000000";
        for (row, what) in [
            ("A5000,resnet50-b1,Felix,1,1.000", "expected 6 fields, found 5"),
            ("A5000,resnet50-b1,Ansor,1,1.000,5.000000", "malformed row"),
            ("A5000,resnet50-b1,Felix,x,1.000,5.000000", "malformed row"),
            ("A5000,resnet50-b1,Felix,-1,1.000,5.000000", "malformed row"),
            ("A5000,resnet50-b1,Felix,1,,5.000000", "malformed row"),
            ("A5000,resnet50-b1,Felix,1,-1.000,5.000000", "malformed row"),
            ("A5000,resnet50-b1,Felix,1,inf,5.000000", "malformed row"),
            ("A5000,resnet50-b1,Felix,1,2.000,NaN", "malformed row"),
            ("A5000,resnet50-b1,Felix,1,2.000,0.000000", "malformed row"),
            ("A5000,resnet50-b1,Felix,1,2.000,abc", "malformed row"),
        ] {
            let csv = format!("{CURVE_HEADER}\n{good}\n{row}\n");
            let err = curves_from_csv(&csv, Path::new("r/c.csv")).expect_err(row);
            assert!(err.starts_with("r/c.csv:3: ") && err.contains(what), "{row}: {err}");
        }
        let err = curves_from_csv(&format!("{good}\n"), Path::new("c.csv")).unwrap_err();
        assert!(err.starts_with("c.csv:1: expected the header"), "{err}");
        let err = read_curves(Path::new("/nonexistent-dir"), "f.csv", "fig7").unwrap_err();
        assert!(err.contains("/nonexistent-dir/f.csv"), "{err}");
        assert!(err.ends_with("run `felix-bench fig7` first"), "{err}");
    }

    #[test]
    fn scale_reads_one_or_zero_and_refuses_anything_else() {
        for (fast, full, want) in [
            (None, None, Scale::Default),
            (Some("0"), Some("0"), Scale::Default),
            (Some("1"), None, Scale::Fast),
            (Some("1"), Some("0"), Scale::Fast),
            (Some("0"), Some("1"), Scale::Full),
            (None, Some("1"), Scale::Full),
        ] {
            assert_eq!(Scale::from_values(fast, full), Ok(want), "{fast:?} {full:?}");
        }
        for (fast, full, want) in [
            (Some("yes"), None, "FELIX_FAST=\"yes\": expected 1 or 0"),
            (Some(""), None, "FELIX_FAST=\"\": expected 1 or 0"),
            (None, Some("2"), "FELIX_FULL=\"2\": expected 1 or 0"),
            (Some("1"), Some("true"), "FELIX_FULL=\"true\": expected 1 or 0"),
            (Some("1"), Some("1"), "FELIX_FAST=1 and FELIX_FULL=1 select two scales"),
        ] {
            assert_eq!(Scale::from_values(fast, full), Err(want.to_string()), "{fast:?} {full:?}");
        }
    }

    #[test]
    fn geomean_sane() {
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!(geomean(&[]).is_none());
    }

    /// The equal-time budget fits one Ansor round per task on the RPC
    /// device too, where every measurement also pays the RPC round trip:
    /// both tools end with every MobileNet-V2 task measured.
    #[test]
    fn rpc_budget_measures_every_task() {
        let nx = DeviceConfig::all().into_iter().find(|d| d.rpc).expect("an RPC device");
        let model = felix::pretrained_cost_model(&nx, felix::ModelQuality::Fast);
        let graph = models::mobilenet_v2(1);
        assert!(partition(&graph).len() >= 6);
        let run = |tool| run_network(tool, &graph, &nx, &model, Scale::Fast, 1);
        let unmeasured = Tool::BOTH.map(|tool| run(tool).unmeasured_tasks);
        assert_eq!(unmeasured, [0, 0], "tasks left unmeasured (Felix, Ansor)");
    }
}
