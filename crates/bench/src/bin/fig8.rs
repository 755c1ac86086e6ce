//! Figure 8: predicted performance of the candidate-schedule population as
//! the search progresses, Felix (gradient) vs Ansor (evolutionary), on
//! three representative subgraphs: Conv2d, Conv3d, Dense.
//!
//! For each tool we record the cost-model prediction of every schedule the
//! search examines; the plotted series are the running best and the running
//! 64th-best prediction vs. the number of schedules searched.

use felix_bench::{ansor_tool, cached_model, felix_tool, tune_single_task, write_result, Scale};
use felix_graph::{Op, Subgraph, Task};
use felix_sim::DeviceConfig;

fn running_stats(trace: &[f64]) -> Vec<(usize, f64, f64)> {
    // (n, best, 64th best) sampled every 64 schedules.
    let mut sorted: Vec<f64> = Vec::new();
    let mut out = Vec::new();
    for (i, &p) in trace.iter().enumerate() {
        let pos = sorted.partition_point(|&v| v < p);
        sorted.insert(pos, p);
        if (i + 1) % 64 == 0 || i + 1 == trace.len() {
            let best = sorted.last().copied().unwrap_or(f64::NAN);
            let p64 = if sorted.len() >= 64 {
                sorted[sorted.len() - 64]
            } else {
                *sorted.first().expect("non-empty")
            };
            out.push((i + 1, best, p64));
        }
    }
    out
}

fn main() {
    felix_bench::out_dir_from_args();
    let scale = Scale::from_env();
    let dev = DeviceConfig::a5000();
    let model = cached_model(&dev, scale);
    let subgraphs = [
        (
            "Conv2d",
            Subgraph {
                ops: vec![Op::Conv2d { n: 1, c: 128, k: 128, h: 28, r: 3, stride: 1, pad: 1, groups: 1 }],
            },
        ),
        (
            "Conv3d",
            Subgraph {
                ops: vec![Op::Conv3d { n: 1, c: 64, k: 64, d: 8, h: 28, r: 3, stride: 1, pad: 1 }],
            },
        ),
        ("Dense", Subgraph { ops: vec![Op::Dense { m: 256, k: 1024, n: 1024 }] }),
    ];
    let rounds = if scale == Scale::Fast { 2 } else { 5 };
    let mut csv = String::from("op,tool,n_searched,best_pred,p64_pred\n");
    println!("Figure 8: predicted performance of the search population (A5000)");
    for (name, sg) in subgraphs {
        let task = Task { subgraph: sg, weight: 1 };
        let (mut felix, felix_opts) = felix_tool(scale);
        let frun = tune_single_task(&task, &dev, &model, &mut felix, &felix_opts, rounds, 11);
        let (mut ansor, ansor_opts) = ansor_tool(scale.ansor_population().min(1024));
        let arun = tune_single_task(&task, &dev, &model, &mut ansor, &ansor_opts, rounds, 11);
        for (tool, run) in [("Felix", &frun), ("Ansor", &arun)] {
            for (n, best, p64) in running_stats(&run.prediction_trace) {
                csv.push_str(&format!("{name},{tool},{n},{best:.5},{p64:.5}\n"));
            }
        }
        // Console summary: population quality after ~1000 schedules and at
        // the end (the paper's top/bottom rows).
        let summarize = |run: &felix_bench::SingleTaskRun| {
            let stats = running_stats(&run.prediction_trace);
            let early = stats
                .iter()
                .find(|(n, _, _)| *n >= 512)
                .or_else(|| stats.last())
                .copied()
                .unwrap_or((0, f64::NAN, f64::NAN));
            let last = stats.last().copied().unwrap_or((0, f64::NAN, f64::NAN));
            (early, last)
        };
        let (fe, fl) = summarize(&frun);
        let (ae, al) = summarize(&arun);
        println!("\n  {name}:");
        println!("    early (n≈512):  Felix best {:.3} / p64 {:.3}   Ansor best {:.3} / p64 {:.3}", fe.1, fe.2, ae.1, ae.2);
        println!("    final (n={:>5}): Felix best {:.3} / p64 {:.3}", fl.0, fl.1, fl.2);
        println!("    final (n={:>5}): Ansor best {:.3} / p64 {:.3}", al.0, al.1, al.2);
        // The paper compares the populations at equal search effort, so the
        // spread is taken with both traces cut to the shorter one's length.
        let n_eq = frun.prediction_trace.len().min(arun.prediction_trace.len());
        let spread = |run: &felix_bench::SingleTaskRun| {
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
    write_result("fig8_population.csv", &csv);
}
