//! The experiments of the paper's evaluation (DESIGN.md §5), one function
//! each, and the command line that picks one:
//!
//! ```sh
//! felix-bench <experiment> [arg] [--out-dir DIR]
//! ```
//!
//! Every experiment reads its inputs from and writes its outputs to the
//! output directory it is given: `--out-dir`, or `results/` under the
//! working directory when the program runs. `table1`, `table2` and `fig6`
//! read the curves `fig7` wrote there; `plot [fig7|fig10]` charts the
//! curves of either.

use crate::plot::{render, Series};
use crate::{
    cached_model, curves_to_csv, geomean, geomean_cells, milestone_cells, networks, read_curves,
    run_network, seed_one, time_to_reach, tune_single_task, write_result, Curve, Scale,
    SingleTaskRun, Tool,
};
use felix::objective::PipelineOptions;
use felix::{FelixOptions, GradientProposer};
use felix_ansor::{NetworkTuneResult, TuneOptions};
use felix_cost::Mlp;
use felix_expr::smooth::{smooth_relu, smooth_select};
use felix_expr::{smooth_expr, CmpOp, ExprPool, VarTable};
use felix_graph::{models, partition, Op, Subgraph, Task};
use felix_sim::vendor::{vendor_network_latency, vendor_task_latency, Vendor};
use felix_sim::DeviceConfig;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// One experiment: its name on the command line, the values its optional
/// argument may take (none: it takes no argument), and its body, which
/// gets the output directory and the argument; its `Err` names what is
/// missing or malformed.
pub struct Experiment {
    name: &'static str,
    args: &'static [&'static str],
    run: fn(&Path, Option<&str>) -> Result<(), String>,
}

/// Every experiment, in the order the evaluation is best regenerated:
/// `fig7` writes the curves `table1`, `table2` and `fig6` read.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "fig4", args: &[], run: fig4 },
    Experiment { name: "fig7", args: &[], run: fig7 },
    Experiment { name: "table1", args: &[], run: table1 },
    Experiment { name: "table2", args: &[], run: table2 },
    Experiment { name: "fig6", args: &[], run: fig6 },
    Experiment { name: "fig8", args: &[], run: fig8 },
    Experiment { name: "fig9", args: &[], run: fig9 },
    Experiment { name: "fig10", args: &[], run: fig10 },
    Experiment { name: "ablations", args: &[], run: ablations },
    Experiment { name: "plot", args: &["fig7", "fig10"], run: plot },
];

/// A parsed command line: an experiment, its argument and the output
/// directory.
pub struct Invocation {
    experiment: &'static Experiment,
    arg: Option<String>,
    out_dir: PathBuf,
}

impl Invocation {
    /// Creates the output directory and runs the experiment in it.
    pub fn run(&self) -> Result<(), String> {
        let out = std::fs::create_dir_all(&self.out_dir).and_then(|()| self.out_dir.canonicalize());
        let out = out.map_err(|e| format!("output directory {}: {e}", self.out_dir.display()))?;
        (self.experiment.run)(&out, self.arg.as_deref())
    }
}

/// Parses the arguments after the program name. Refuses an unknown
/// experiment, option or argument, and `--out-dir` without a value; of two
/// `--out-dir`s the last wins.
pub fn parse_args(args: &[String]) -> Result<Invocation, String> {
    let mut positional = Vec::new();
    let mut out_dir = None;
    let mut args = args.iter();
    while let Some(a) = args.next() {
        if a == "--out-dir" {
            let dir = args.next().filter(|d| !d.starts_with('-'));
            out_dir = Some(PathBuf::from(dir.ok_or("--out-dir needs a directory")?));
        } else if a.starts_with('-') {
            return Err(format!("unknown option {a:?}"));
        } else {
            positional.push(a.as_str());
        }
    }
    let (&name, rest) = positional.split_first().ok_or("no experiment named")?;
    let experiment = EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .ok_or_else(|| format!("unknown experiment {name:?}"))?;
    let arg = match rest {
        [] => None,
        [a] if experiment.args.contains(a) => Some(a.to_string()),
        _ => return Err(format!("{name} does not take {:?}", rest.join(" "))),
    };
    let out_dir = out_dir.unwrap_or_else(|| PathBuf::from("results"));
    Ok(Invocation { experiment, arg, out_dir })
}

/// The usage line, listing every experiment and its arguments.
pub fn usage() -> String {
    let names: Vec<String> = EXPERIMENTS
        .iter()
        .map(|e| match e.args {
            [] => e.name.to_string(),
            args => format!("{} [{}]", e.name, args.join("|")),
        })
        .collect();
    format!("usage: felix-bench <experiment> [--out-dir DIR]\nexperiments: {}", names.join(", "))
}

/// The batch-1 curves `fig7` writes.
const FIG7_CSV: &str = "fig7_batch1.csv";
/// The batch-16 curves `fig10` writes.
const FIG10_CSV: &str = "fig10_batch16.csv";

/// The curves of one Felix and Ansor-TenSet run pair, in the CSV's order.
fn curve_pair(device: &str, network: &str, seed: u64, runs: [NetworkTuneResult; 2]) -> [Curve; 2] {
    let [felix, ansor] = runs;
    [(Tool::Felix, felix), (Tool::Ansor, ansor)]
        .map(|(tool, run)| Curve::new(device, network, tool, seed, run.curve))
}

/// A row of milestone cells as CSV fields.
fn csv_cells(cells: &[String]) -> String {
    cells.iter().map(|c| c.trim()).collect::<Vec<_>>().join(",")
}

// Subgraphs shared by Figs. 8 and 9 and the ablations.
const CONV2D_128X28: Op =
    Op::Conv2d { n: 1, c: 128, k: 128, h: 28, r: 3, stride: 1, pad: 1, groups: 1 };
const DENSE_256X1024: Op = Op::Dense { m: 256, k: 1024, n: 1024 };
const BMM_12X50X64: Op = Op::BatchMatmul { b: 12, m: 50, k: 64, n: 50 };

/// A one-operator task.
fn task(op: Op) -> Task {
    Task { subgraph: Subgraph { ops: vec![op] }, weight: 1 }
}

/// One subgraph tuned on the A5000 (`model` is its cost model) by both
/// tools, Ansor's population capped at 1024, `rounds` rounds each from
/// `seed`.
fn tune_both(
    task: &Task,
    model: &Mlp,
    scale: Scale,
    rounds: usize,
    seed: u64,
) -> [SingleTaskRun; 2] {
    let dev = DeviceConfig::a5000();
    Tool::BOTH.map(|tool| {
        let (mut proposer, opts) = tool.proposer(scale, 1024);
        tune_single_task(task, &dev, model, proposer.as_mut(), &opts, rounds, seed)
    })
}

/// Figure 4: non-differentiable functions vs. their smooth approximations.
/// Both panels as CSV series: `select(x > 0, 5, 2)` (left) and `max(x, 0)`
/// (right), each alongside the smooth version Felix substitutes.
fn fig4(out: &Path, _: Option<&str>) -> Result<(), String> {
    // Build the exact Fig. 4 expressions symbolically and smooth them with
    // the production rewriter, then sample both paths.
    let mut vars = VarTable::new();
    let vx = vars.fresh("x");
    let mut p = ExprPool::new();
    let x = p.var(vx);
    let [zero, five, two] = [0.0, 5.0, 2.0].map(|c| p.constf(c));
    let cond = p.cmp(CmpOp::Gt, x, zero);
    let sel = p.select(cond, five, two);
    let sel_smooth = smooth_expr(&mut p, sel);
    let mx = p.max(x, zero);
    let mx_smooth = smooth_expr(&mut p, mx);
    let at = |xv: f64| {
        let vals = p.eval_all(&[xv]);
        [sel, sel_smooth, mx, mx_smooth].map(|e| vals[e.index()])
    };

    let mut csv = String::from("x,select,select_smooth,max,max_smooth\n");
    let n = 101;
    for i in 0..n {
        let xv = -5.0 + 10.0 * i as f64 / (n - 1) as f64;
        let [s, ss, m, ms] = at(xv);
        // Cross-check the rewriter output against the closed forms.
        assert!((ss - smooth_select(xv, 5.0, 2.0)).abs() < 1e-9);
        assert!((ms - smooth_relu(xv)).abs() < 1e-9);
        csv.push_str(&format!("{xv:.2},{s},{ss:.6},{m},{ms:.6}\n"));
    }
    write_result(out, "fig4_smoothing.csv", &csv);
    println!("Figure 4: smoothing of non-differentiable operators");
    println!("  x     select  smooth   max    smooth");
    for xv in [-4.0, -2.0, -0.5, 0.0, 0.5, 2.0, 4.0] {
        let [s, ss, m, ms] = at(xv);
        println!("  {xv:>4.1}  {s:>6.2}  {ss:>6.3}  {m:>5.2}  {ms:>6.3}");
    }
    Ok(())
}

/// Figure 7 (a/b/c): best network latency vs. tuning time for Felix and
/// Ansor-TenSet on RTX A5000, A10G, and Xavier NX at batch size 1. Writes
/// the curves `table1`, `table2` and `fig6` read and prints a per-network
/// summary. `FELIX_FULL=1` adds the 5-seed min/max band of Fig. 7a on the
/// A5000.
fn fig7(out: &Path, _: Option<&str>) -> Result<(), String> {
    let scale = Scale::from_env()?;
    let mut curves = Vec::new();
    println!("Figure 7: Felix vs Ansor-TenSet tuning curves (batch 1)");
    for dev in DeviceConfig::all() {
        let model = cached_model(out, &dev, scale);
        let seeds = if scale == Scale::Full && dev.name == "RTX A5000" { 5 } else { 1 };
        for g in networks(1, &dev) {
            for seed in 1..=seeds {
                let runs = Tool::BOTH.map(|tool| run_network(tool, &g, &dev, &model, scale, seed));
                // A run with tasks that never got a measurement sums to `inf`,
                // so it reads as the count of those tasks instead.
                let [f, a] = runs.each_ref().map(|run| {
                    let end_s = run.curve.last().map(|p| p.time_s).unwrap_or(0.0);
                    let latency = match run.unmeasured_tasks {
                        0 => format!("{:.4} ms", run.final_latency_ms),
                        n => format!("{n} tasks unmeasured"),
                    };
                    format!("{latency:>12} in {end_s:>7.0} s")
                });
                println!("  {:<10} {:<18} seed {seed}: Felix {f} | Ansor {a}", dev.name, g.name);
                curves.extend(curve_pair(dev.name, &g.name, seed, runs));
            }
        }
    }
    write_result(out, FIG7_CSV, &curves_to_csv(&curves));
    Ok(())
}

/// Table 1: tuning time (seconds) Felix needs to exceed the best vendor
/// library, per network and device (batch 1), from the `fig7` curves. The
/// paper's table covers ResNet-50, MobileNet-v2, DCGAN, ViT, and LLaMA
/// (R3D-18 is excluded because Felix does not beat the 3-D-conv libraries).
fn table1(out: &Path, _: Option<&str>) -> Result<(), String> {
    let curves = read_curves(out, FIG7_CSV, "fig7")?;
    let nets = [models::resnet50, models::mobilenet_v2, models::dcgan, models::vit_b32, models::llama];
    let mut csv = String::from("network,device,best_vendor_ms,felix_time_s\n");
    println!("Table 1: seconds for Felix to exceed the best vendor library (batch 1)");
    println!("{:<18} {:>12} {:>12} {:>12}", "network", "RTX A5000", "A10G", "Xavier NX");
    for g in nets.map(|net| net(1)) {
        let tasks = partition(&g);
        let mut cells = Vec::new();
        for dev in DeviceConfig::all() {
            let mut vendors: Vec<f64> = Vendor::all()
                .iter()
                .filter_map(|&v| vendor_network_latency(&g.name, &tasks, v, &dev))
                .collect();
            vendors.sort_by(felix_cost::total_cmp_nan_last);
            let vendor_best = vendors.first().copied().unwrap_or(f64::INFINITY);
            let felix = seed_one(&curves, dev.name, &g.name, Tool::Felix);
            let reach = |target: f64| Some((target, time_to_reach(felix?, target)?));
            let (cell, fields) = if !vendor_best.is_finite() {
                ("      —".to_string(), "NA,NA".to_string())
            } else if let Some((_, t)) = reach(vendor_best) {
                (format!("{t:>6.0} s"), format!("{vendor_best:.6},{t:.1}"))
            } else if let Some((th, t)) = vendors.get(1).and_then(|&th| reach(th)) {
                // The time to exceed the *second-best* vendor, as the paper
                // gives for the starred Xavier NX entries.
                (format!("{t:>5.0} s*"), format!("{th:.6},{t:.1}*"))
            } else {
                ("  not reached".to_string(), format!("{vendor_best:.6},unreached"))
            };
            cells.push(cell);
            csv.push_str(&format!("{},{},{fields}\n", g.name, dev.name));
        }
        println!("{:<18} {:>12} {:>12} {:>12}", g.name, cells[0], cells[1], cells[2]);
    }
    println!("(* = time to exceed the second-best vendor, as in the paper's starred entries)");
    write_result(out, "table1_time_to_beat_vendors.csv", &csv);
    Ok(())
}

/// Table 2a: tuning speedup of Felix over Ansor-TenSet, the ratio of times
/// needed to converge to 90%/95%/99% of the best Ansor performance (batch
/// 1), from the `fig7` curves.
fn table2(out: &Path, _: Option<&str>) -> Result<(), String> {
    let curves = read_curves(out, FIG7_CSV, "fig7")?;
    let mut csv = String::from("device,network,s90,s95,s99\n");
    println!("Table 2a: Felix tuning speedup over Ansor-TenSet (batch 1)");
    println!("{:<11} {:<18} {:>7} {:>7} {:>7}", "device", "network", "90%", "95%", "99%");
    for dev in DeviceConfig::all().iter().map(|d| d.name) {
        let mut reached = Default::default();
        let nets: BTreeSet<&str> =
            curves.iter().filter(|c| c.device == dev && c.seed == 1).map(|c| &*c.network).collect();
        for net in nets {
            let [Some(f), Some(a)] = Tool::BOTH.map(|tool| seed_one(&curves, dev, net, tool)) else {
                continue;
            };
            let cells = milestone_cells(f, a, &mut reached);
            println!("{dev:<11} {net:<18} {}", cells.join(" "));
            csv.push_str(&format!("{dev},{net},{}\n", csv_cells(&cells)));
        }
        let gm = geomean_cells(&reached);
        println!("{dev:<11} {:<18} {}", "GEOMEAN", gm.join(" "));
        csv.push_str(&format!("{dev},GEOMEAN,{}\n", csv_cells(&gm)));
    }
    write_result(out, "table2a_speedups.csv", &csv);
    Ok(())
}

/// Fig. 6's Felix latency for a device and network: the best point of the
/// seed-1 `fig7` curve, the run the tables read too.
fn felix_final(curves: &[Curve], device: &str, network: &str) -> Option<f64> {
    seed_one(curves, device, network, Tool::Felix)?.iter().map(|p| p.latency_ms).reduce(f64::min)
}

/// Figure 6: normalized inference performance of PyTorch, TensorFlow,
/// TensorRT, and Felix on six DNNs × three GPUs (batch 1). Felix latencies
/// come from the `fig7` curves when present (so the two figures agree);
/// otherwise Felix is tuned on the spot, pretraining the device's model
/// only then. Vendor latencies come from the expert-schedule baselines. The
/// paper's y-axis is performance normalized to the best framework per
/// network.
fn fig6(out: &Path, _: Option<&str>) -> Result<(), String> {
    let scale = Scale::from_env()?;
    let curves =
        if out.join(FIG7_CSV).exists() { read_curves(out, FIG7_CSV, "fig7")? } else { Vec::new() };
    let mut csv = String::from("device,network,pytorch_ms,tensorflow_ms,tensorrt_ms,felix_ms\n");
    println!("Figure 6: normalized performance vs off-the-shelf frameworks (batch 1)");
    for dev in DeviceConfig::all() {
        let mut model = None;
        println!("\n== {} ==", dev.name);
        println!(
            "{:<18} {:>11} {:>11} {:>11} {:>11}   normalized perf (best = 1.00)",
            "network", "PyTorch", "TensorFlow", "TensorRT", "Felix"
        );
        let mut speedups: [Vec<f64>; 3] = Default::default();
        for g in networks(1, &dev) {
            let tasks = partition(&g);
            let felix_ms = match felix_final(&curves, dev.name, &g.name) {
                Some(l) => l,
                None => {
                    let model = model.get_or_insert_with(|| cached_model(out, &dev, scale));
                    let run = run_network(Tool::Felix, &g, &dev, model, scale, 1);
                    if run.unmeasured_tasks > 0 {
                        eprintln!(
                            "  [fig6] {} on {}: {} tasks unmeasured — skipping",
                            g.name, dev.name, run.unmeasured_tasks
                        );
                        continue;
                    }
                    run.final_latency_ms
                }
            };
            let vend = Vendor::all().map(|v| vendor_network_latency(&g.name, &tasks, v, &dev));
            let best = vend.into_iter().flatten().fold(felix_ms, f64::min);
            let all = [vend[0], vend[1], vend[2], Some(felix_ms)];
            let ms = all.map(|l| l.map_or(format!("{:>11}", "—"), |l| format!("{l:>9.3}ms")));
            let norm = all.map(|l| l.map_or("—".to_string(), |l| format!("{:.2}", best / l)));
            println!("{:<18} {}   [{}]", g.name, ms.join(" "), norm.join(" "));
            for (list, l) in speedups.iter_mut().zip(vend) {
                list.extend(l.map(|l| l / felix_ms));
            }
            let na = |l: Option<f64>| l.map_or(String::from("NA"), |l| format!("{l:.6}"));
            let [pt, tf, trt] = vend.map(na);
            csv.push_str(&format!("{},{},{pt},{tf},{trt},{felix_ms:.6}\n", dev.name, g.name));
        }
        for (v, list) in Vendor::all().iter().zip(&speedups) {
            if let Some(g) = geomean(list) {
                println!("  Felix speedup vs {:<11}: {g:.2}x (geomean)", v.name());
            }
        }
    }
    write_result(out, "fig6_frameworks.csv", &csv);
    Ok(())
}

/// `(n, best, 64th best)` of a prediction trace, sampled every 64
/// schedules and at its end.
fn running_stats(trace: &[f64]) -> Vec<(usize, f64, f64)> {
    let mut sorted: Vec<f64> = Vec::new();
    let mut out = Vec::new();
    for (i, &p) in trace.iter().enumerate() {
        sorted.insert(sorted.partition_point(|&v| v < p), p);
        if (i + 1) % 64 == 0 || i + 1 == trace.len() {
            // Fewer than 64 so far: the worst stands in for the 64th best.
            let p64 = sorted[sorted.len().saturating_sub(64)];
            out.push((i + 1, sorted[sorted.len() - 1], p64));
        }
    }
    out
}

/// Figure 8: predicted performance of the candidate-schedule population as
/// the search progresses, Felix (gradient) vs Ansor (evolutionary), on
/// Conv2d, Conv3d and Dense subgraphs. Each tool's cost-model prediction
/// of every schedule it examines is recorded; the plotted series are the
/// running best and the running 64th-best prediction vs. the number of
/// schedules searched.
fn fig8(out: &Path, _: Option<&str>) -> Result<(), String> {
    let scale = Scale::from_env()?;
    let dev = DeviceConfig::a5000();
    let model = cached_model(out, &dev, scale);
    let conv3d = Op::Conv3d { n: 1, c: 64, k: 64, d: 8, h: 28, r: 3, stride: 1, pad: 1 };
    let rounds = if scale == Scale::Fast { 2 } else { 5 };
    let mut csv = String::from("op,tool,n_searched,best_pred,p64_pred\n");
    println!("Figure 8: predicted performance of the search population (A5000)");
    for (name, op) in [("Conv2d", CONV2D_128X28), ("Conv3d", conv3d), ("Dense", DENSE_256X1024)] {
        let [frun, arun] = tune_both(&task(op), &model, scale, rounds, 11);
        for (tool, run) in [("Felix", &frun), ("Ansor", &arun)] {
            for (n, best, p64) in running_stats(&run.prediction_trace) {
                csv.push_str(&format!("{name},{tool},{n},{best:.5},{p64:.5}\n"));
            }
        }
        // Console summary: population quality after ~512 schedules and at
        // the end (the paper's top/bottom rows).
        let summarize = |run: &SingleTaskRun| {
            let stats = running_stats(&run.prediction_trace);
            let none = (0, f64::NAN, f64::NAN);
            let early = stats.iter().find(|(n, _, _)| *n >= 512).or_else(|| stats.last()).copied();
            (early.unwrap_or(none), stats.last().copied().unwrap_or(none))
        };
        let [(fe, fl), (ae, al)] = [&frun, &arun].map(summarize);
        println!("\n  {name}:");
        println!("    early (n≈512):  Felix best {:.3} / p64 {:.3}   Ansor best {:.3} / p64 {:.3}", fe.1, fe.2, ae.1, ae.2);
        println!("    final (n={:>5}): Felix best {:.3} / p64 {:.3}", fl.0, fl.1, fl.2);
        println!("    final (n={:>5}): Ansor best {:.3} / p64 {:.3}", al.0, al.1, al.2);
        // The paper compares the populations at equal search effort, so the
        // spread is taken with both traces cut to the shorter one's length.
        let n_eq = frun.prediction_trace.len().min(arun.prediction_trace.len());
        let spread = |run: &SingleTaskRun| {
            running_stats(&run.prediction_trace[..n_eq])
                .last()
                .map_or(f64::NAN, |&(_, best, p64)| best - p64)
        };
        println!(
            "    spread (best − p64) at equal n={n_eq}: Felix {:.3} vs Ansor {:.3}  (smaller = tighter population)",
            spread(&frun),
            spread(&arun)
        );
    }
    write_result(out, "fig8_population.csv", &csv);
    Ok(())
}

/// Figure 9: single-operator performance of Felix, Ansor, PyTorch, and
/// TensorFlow on RTX A5000, normalized to the best framework per operator.
/// The operators come from the evaluated networks.
fn fig9(out: &Path, _: Option<&str>) -> Result<(), String> {
    let scale = Scale::from_env()?;
    let dev = DeviceConfig::a5000();
    let model = cached_model(out, &dev, scale);
    let ops = [
        // A late ResNet-50 stage-3 convolution.
        ("Conv2d", Op::Conv2d { n: 1, c: 256, k: 256, h: 16, r: 3, stride: 1, pad: 1, groups: 1 }),
        ("TConv2d", Op::ConvTranspose2d { n: 1, c: 256, k: 128, h: 8, r: 4, stride: 2, pad: 1 }),
        ("Conv3d", Op::Conv3d { n: 1, c: 64, k: 128, d: 8, h: 28, r: 3, stride: 2, pad: 1 }),
        // The ResNet-50 classifier head (batch-1 GEMV, library-unfriendly).
        ("Dense", Op::Dense { m: 1, k: 2048, n: 1000 }),
        ("BatchMatmul", BMM_12X50X64),
        ("Softmax", Op::Softmax { rows: 600, cols: 50 }),
        ("MaxPool", Op::MaxPool2d { n: 1, c: 64, h: 112, r: 3, stride: 2, pad: 1 }),
    ];
    let rounds = if scale == Scale::Fast { 2 } else { 12 };
    let mut csv = String::from("op,pytorch_ms,tensorflow_ms,felix_ms,ansor_ms\n");
    println!("Figure 9: single-operator performance on RTX A5000 (normalized, best = 1.00)");
    println!(
        "{:<12} {:>9} {:>10} {:>9} {:>9}    normalized",
        "operator", "PyTorch", "TensorFlow", "Felix", "Ansor"
    );
    let mut felix_wins = 0usize;
    for (name, op) in &ops {
        let task = task(op.clone());
        let vendor = |v| vendor_task_latency(&task.subgraph, v, &dev);
        let (pt, tf) = (vendor(Vendor::PyTorch), vendor(Vendor::TensorFlow));
        let runs = tune_both(&task, &model, scale, rounds, 21);
        let [felix, ansor] = runs.map(|run| run.task.best_latency_ms);
        let best = pt.min(tf).min(felix).min(ansor);
        println!(
            "{:<12} {:>8.4}  {:>8.4}  {:>8.4}  {:>8.4}    [{:.2} {:.2} {:.2} {:.2}]",
            name, pt, tf, felix, ansor,
            best / pt, best / tf, best / felix, best / ansor
        );
        felix_wins += usize::from(felix <= pt && felix <= tf);
        csv.push_str(&format!("{name},{pt:.6},{tf:.6},{felix:.6},{ansor:.6}\n"));
    }
    println!("\nFelix beats both kernel libraries on {felix_wins}/{} operator types", ops.len());
    println!("(paper: 7/8, with Conv3d as the exception)");
    write_result(out, "fig9_operators.csv", &csv);
    Ok(())
}

/// Figure 10 + Table 2b: Felix vs Ansor-TenSet at input batch size 16 on
/// RTX A5000 (LLaMA excluded — it does not fit at batch 16, §6.4). Writes
/// the curves and the Table 2b milestone speedups.
fn fig10(out: &Path, _: Option<&str>) -> Result<(), String> {
    let scale = Scale::from_env()?;
    let dev = DeviceConfig::a5000();
    let model = cached_model(out, &dev, scale);
    let mut curves = Vec::new();
    let mut speedups = Default::default();
    println!("Figure 10 / Table 2b: batch size 16 on RTX A5000");
    println!("{:<18} {:>7} {:>7} {:>7}", "network", "90%", "95%", "99%");
    let mut table = String::from("network,s90,s95,s99\n");
    for g in networks(16, &dev) {
        let runs = Tool::BOTH.map(|tool| run_network(tool, &g, &dev, &model, scale, 1));
        let cells = milestone_cells(&runs[0].curve, &runs[1].curve, &mut speedups);
        println!("{:<18} {}", g.name, cells.join(" "));
        table.push_str(&format!("{},{}\n", g.name, csv_cells(&cells)));
        curves.extend(curve_pair(dev.name, &g.name, 1, runs));
    }
    let gm = geomean_cells(&speedups);
    println!("{:<18} {}", "GEOMEAN", gm.join(" "));
    table.push_str(&format!("GEOMEAN,{}\n", csv_cells(&gm)));
    write_result(out, FIG10_CSV, &curves_to_csv(&curves));
    write_result(out, "table2b_speedups.csv", &table);
    Ok(())
}

/// Ablation study of Felix's design choices (DESIGN.md §5): disable one
/// pipeline stage or search setting at a time and measure the best latency
/// achieved on three representative subgraphs within a fixed round budget.
/// Variants: `full` (paper defaults); `no-smoothing` (subgradients through
/// raw `select`/`min`/`max`); `no-exp-subst` (optimize `x` directly instead
/// of `y = ln x`); `no-fine-tune` (never update the cost model with
/// measurements); `seeds-1`/`seeds-16` and `steps-50`/`steps-400`
/// (search-budget sweeps).
fn ablations(out: &Path, _: Option<&str>) -> Result<(), String> {
    let scale = Scale::from_env()?;
    let dev = DeviceConfig::a5000();
    let model = cached_model(out, &dev, scale);
    let base = FelixOptions::default();
    let pipeline = |pipeline| FelixOptions { pipeline, ..base };
    let variants = [
        ("full", base, true),
        ("no-smoothing", pipeline(PipelineOptions { smoothing: false, ..Default::default() }), true),
        ("no-exp-subst", pipeline(PipelineOptions { exp_substitution: false, ..Default::default() }), true),
        ("no-fine-tune", base, false),
        ("seeds-1", FelixOptions { n_seeds: 1, ..base }, true),
        ("seeds-16", FelixOptions { n_seeds: 16, ..base }, true),
        ("steps-50", FelixOptions { n_steps: 50, ..base }, true),
        ("steps-400", FelixOptions { n_steps: 400, ..base }, true),
    ];
    let workloads = [("conv2d", CONV2D_128X28), ("dense", DENSE_256X1024), ("bmm", BMM_12X50X64)];
    let rounds = if scale == Scale::Fast { 2 } else { 5 };

    println!("Ablations: best latency (ms) after {rounds} rounds x 16 measurements, A5000");
    let names: String = workloads.iter().map(|(name, _)| format!(" {name:>10}")).collect();
    println!("{:<14}{names}  {:>9}", "variant", "search_s");
    let mut csv = String::from("variant,workload,latency_ms,search_time_s\n");
    for (variant, options, update_model) in variants {
        print!("{variant:<14}");
        let mut total_search = 0.0;
        let opts = TuneOptions { measurements_per_round: 16, update_model, ..Default::default() };
        for (wname, op) in workloads.clone() {
            let mut prop = GradientProposer::new(options);
            let run = tune_single_task(&task(op), &dev, &model, &mut prop, &opts, rounds, 42);
            let (best, search_s) = (run.task.best_latency_ms, run.time_s);
            print!(" {best:>10.5}");
            csv.push_str(&format!("{variant},{wname},{best:.6},{search_s:.2}\n"));
            total_search += search_s;
        }
        println!("  {total_search:>9.0}");
    }
    write_result(out, "ablations.csv", &csv);
    println!("\n(lower is better; `full` should win or tie on each workload)");
    Ok(())
}

/// Renders the `fig7` (default) or `fig10` curves as ASCII charts, one
/// panel per (device, network), each tool's seed-1 run: a terminal
/// rendition of the paper's Figs. 7 and 10.
fn plot(out: &Path, which: Option<&str>) -> Result<(), String> {
    let (file, writer) = match which {
        Some("fig10") => (FIG10_CSV, "fig10"),
        _ => (FIG7_CSV, "fig7"),
    };
    let curves = read_curves(out, file, writer)?;
    let panels: BTreeSet<(&str, &str)> =
        curves.iter().map(|c| (c.device.as_str(), c.network.as_str())).collect();
    for (dev, net) in panels {
        let series: Vec<Series> = [(Tool::Felix, 'f'), (Tool::Ansor, 'a')]
            .into_iter()
            .filter_map(|(tool, glyph)| {
                let points = seed_one(&curves, dev, net, tool)?.to_vec();
                Some(Series { name: tool.name().to_string(), points, glyph })
            })
            .collect();
        println!("{}", render(&format!("{net} on {dev} (latency ms vs tuning s, log y)"), &series, 68, 14));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use felix_ansor::CurvePoint;

    fn parse(args: &str) -> Result<Invocation, String> {
        parse_args(&args.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parser_accepts_every_experiment_and_plots_argument() {
        for e in EXPERIMENTS {
            let inv = parse(e.name).expect(e.name);
            assert_eq!((inv.experiment.name, inv.arg, inv.out_dir), (e.name, None, "results".into()));
        }
        let inv = parse("plot --out-dir o fig10").unwrap();
        assert_eq!((inv.experiment.name, inv.arg.as_deref()), ("plot", Some("fig10")));
        assert_eq!(inv.out_dir, PathBuf::from("o"));
        assert_eq!(parse("--out-dir o fig7").unwrap().experiment.name, "fig7");
    }

    #[test]
    fn parser_refuses_bad_command_lines() {
        for (args, why) in [
            ("", "no experiment named"),
            ("fig5", "unknown experiment \"fig5\""),
            ("plot fig9", "plot does not take \"fig9\""),
            ("plot fig7 fig10", "plot does not take \"fig7 fig10\""),
            ("fig4 fig7", "fig4 does not take \"fig7\""),
            ("fig4 --out-dir", "--out-dir needs a directory"),
            ("fig4 --out-dir --fast", "--out-dir needs a directory"),
            ("fig4 --fast", "unknown option \"--fast\""),
        ] {
            assert_eq!(parse(args).err().as_deref(), Some(why), "{args:?}");
        }
        let usage = usage();
        assert!(EXPERIMENTS.iter().all(|e| usage.contains(e.name)));
        assert!(usage.contains("plot [fig7|fig10]"), "{usage}");
    }

    /// Fig. 6 reads the seed-1 curve, as the tables do, even when another
    /// seed (`FELIX_FULL=1`'s band) went faster.
    #[test]
    fn fig6_reads_seed_one() {
        let curve = |seed, tool: Tool, latency_ms| {
            let points = vec![CurvePoint { time_s: 1.0, latency_ms }];
            Curve::new("RTX A5000", "dcgan-b1", tool, seed, points)
        };
        let curves = [
            curve(1, Tool::Felix, 3.0),
            curve(2, Tool::Felix, 2.0),
            curve(1, Tool::Ansor, 1.0),
            curve(3, Tool::Felix, 0.5),
        ];
        assert_eq!(felix_final(&curves, "RTX A5000", "dcgan-b1"), Some(3.0));
        assert_eq!(felix_final(&curves, "A10G", "dcgan-b1"), None);
    }
}
