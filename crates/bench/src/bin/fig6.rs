//! Figure 6: normalized inference performance of PyTorch, TensorFlow,
//! TensorRT, and Felix on six DNNs × three GPUs (batch 1).
//!
//! Felix latencies come from the `fig7` curves when available (so the two
//! figures stay consistent); otherwise Felix is tuned on the spot. Vendor
//! latencies come from the expert-schedule baselines. The y-axis of the
//! paper's plot is performance normalized to the best framework per network.

use felix_bench::{
    cached_model, curves_from_csv, final_latency_label, geomean, networks, networks_no_llama,
    read_result, run_felix, write_result, Scale,
};
use felix_graph::partition;
use felix_sim::vendor::{vendor_network_latency, Vendor};
use felix_sim::DeviceConfig;

fn felix_final(dev: &str, net: &str) -> Option<f64> {
    let csv = read_result("fig7_batch1.csv")?;
    let curves = curves_from_csv(&csv);
    curves
        .iter()
        .filter(|(d, n, t, _, _)| d == dev && n == net && t == "Felix")
        .flat_map(|(_, _, _, _, c)| c.iter().map(|p| p.latency_ms))
        .fold(None, |acc: Option<f64>, x| Some(acc.map_or(x, |a| a.min(x))))
}

fn main() {
    felix_bench::out_dir_from_args();
    let scale = Scale::from_env();
    let mut out = String::from(
        "device,network,pytorch_ms,tensorflow_ms,tensorrt_ms,felix_ms\n",
    );
    println!("Figure 6: normalized performance vs off-the-shelf frameworks (batch 1)");
    for dev in DeviceConfig::all() {
        let nets = if dev.rpc { networks_no_llama(1) } else { networks(1) };
        let model = cached_model(&dev, scale);
        println!("\n== {} ==", dev.name);
        println!(
            "{:<18} {:>11} {:>11} {:>11} {:>11}   normalized perf (best = 1.00)",
            "network", "PyTorch", "TensorFlow", "TensorRT", "Felix"
        );
        let mut speedups: Vec<(Vendor, Vec<f64>)> =
            Vendor::all().iter().map(|&v| (v, Vec::new())).collect();
        for g in nets {
            let tasks = partition(&g);
            let felix_ms = match felix_final(dev.name, &g.name) {
                Some(l) => l,
                None => {
                    let run = run_felix(&g, &dev, &model, scale, 1);
                    if run.unmeasured_tasks > 0 {
                        eprintln!(
                            "  [fig6] {} on {}: {} — skipping",
                            g.name,
                            dev.name,
                            final_latency_label(&run)
                        );
                        continue;
                    }
                    run.final_latency_ms
                }
            };
            let vend: Vec<Option<f64>> = Vendor::all()
                .iter()
                .map(|&v| vendor_network_latency(&g.name, &tasks, v, &dev))
                .collect();
            let best = vend
                .iter()
                .flatten()
                .copied()
                .chain([felix_ms])
                .fold(f64::INFINITY, f64::min);
            let fmt = |l: Option<f64>| match l {
                Some(l) => format!("{l:>8.3}ms"),
                None => "       —".to_string(),
            };
            let norm = |l: Option<f64>| match l {
                Some(l) => format!("{:.2}", best / l),
                None => "—".to_string(),
            };
            println!(
                "{:<18} {:>11} {:>11} {:>11} {:>11}   [{} {} {} {}]",
                g.name,
                fmt(vend[0]),
                fmt(vend[1]),
                fmt(vend[2]),
                fmt(Some(felix_ms)),
                norm(vend[0]),
                norm(vend[1]),
                norm(vend[2]),
                norm(Some(felix_ms)),
            );
            for (i, (_, list)) in speedups.iter_mut().enumerate() {
                if let Some(l) = vend[i] {
                    list.push(l / felix_ms);
                }
            }
            out.push_str(&format!(
                "{},{},{},{},{},{:.6}\n",
                dev.name,
                g.name,
                vend[0].map_or(String::from("NA"), |l| format!("{l:.6}")),
                vend[1].map_or(String::from("NA"), |l| format!("{l:.6}")),
                vend[2].map_or(String::from("NA"), |l| format!("{l:.6}")),
                felix_ms
            ));
        }
        for (v, list) in &speedups {
            if let Some(g) = geomean(list) {
                println!("  Felix speedup vs {:<11}: {g:.2}x (geomean)", v.name());
            }
        }
    }
    write_result("fig6_frameworks.csv", &out);
}
