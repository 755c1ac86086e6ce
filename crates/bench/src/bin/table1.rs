//! Table 1: tuning time (seconds) Felix needs to exceed the performance of
//! the best-performing vendor library, per network and device (batch 1).
//!
//! Uses the Felix curves from the `fig7` binary and the vendor baselines.
//! The paper's table covers ResNet-50, MobileNet-v2, DCGAN, ViT, and LLaMA
//! (R3D-18 is excluded because Felix does not beat the 3-D-conv libraries).

use felix_bench::{curves_from_csv, read_result, results_dir, time_to_reach, write_result};
use felix_graph::{models, partition};
use felix_sim::vendor::{vendor_network_latency, Vendor};
use felix_sim::DeviceConfig;

fn main() {
    felix_bench::out_dir_from_args();
    let Some(csv) = read_result("fig7_batch1.csv") else {
        let path = results_dir().join("fig7_batch1.csv");
        eprintln!("{} missing — run the fig7 binary first", path.display());
        std::process::exit(1);
    };
    let curves = curves_from_csv(&csv);
    let nets = [
        models::resnet50(1),
        models::mobilenet_v2(1),
        models::dcgan(1),
        models::vit_b32(1),
        models::llama(1),
    ];
    let mut out = String::from("network,device,best_vendor_ms,felix_time_s\n");
    println!("Table 1: seconds for Felix to exceed the best vendor library (batch 1)");
    println!("{:<18} {:>12} {:>12} {:>12}", "network", "RTX A5000", "A10G", "Xavier NX");
    for g in &nets {
        let mut cells = Vec::new();
        for dev in DeviceConfig::all() {
            let tasks = partition(g);
            let vendor_best = Vendor::all()
                .iter()
                .filter_map(|&v| vendor_network_latency(&g.name, &tasks, v, &dev))
                .fold(f64::INFINITY, f64::min);
            if !vendor_best.is_finite() {
                cells.push("      —".to_string());
                out.push_str(&format!("{},{},NA,NA\n", g.name, dev.name));
                continue;
            }
            let felix = curves
                .iter()
                .find(|(d, n, t, s, _)| d == dev.name && n == &g.name && t == "Felix" && *s == 1);
            match felix.and_then(|(_, _, _, _, c)| time_to_reach(c, vendor_best)) {
                Some(t) => {
                    cells.push(format!("{t:>6.0} s"));
                    out.push_str(&format!(
                        "{},{},{vendor_best:.6},{t:.1}\n",
                        g.name, dev.name
                    ));
                }
                None => {
                    // Compare against the *second-best* vendor, as the paper
                    // does for the starred Xavier NX entries.
                    let mut vendors: Vec<f64> = Vendor::all()
                        .iter()
                        .filter_map(|&v| vendor_network_latency(&g.name, &tasks, v, &dev))
                        .collect();
                    vendors.sort_by(felix_cost::total_cmp_nan_last);
                    let second = vendors.get(1).copied();
                    match (felix, second) {
                        (Some((_, _, _, _, c)), Some(th)) => {
                            match time_to_reach(c, th) {
                                Some(t) => {
                                    cells.push(format!("{t:>5.0} s*"));
                                    out.push_str(&format!(
                                        "{},{},{th:.6},{t:.1}*\n",
                                        g.name, dev.name
                                    ));
                                }
                                None => {
                                    cells.push("  not reached".to_string());
                                    out.push_str(&format!("{},{},{vendor_best:.6},unreached\n", g.name, dev.name));
                                }
                            }
                        }
                        _ => {
                            cells.push("  not reached".to_string());
                            out.push_str(&format!("{},{},{vendor_best:.6},unreached\n", g.name, dev.name));
                        }
                    }
                }
            }
        }
        println!("{:<18} {:>12} {:>12} {:>12}", g.name, cells[0], cells[1], cells[2]);
    }
    println!("(* = time to exceed the second-best vendor, as in the paper's starred entries)");
    write_result("table1_time_to_beat_vendors.csv", &out);
}
