//! Figure 7 (a/b/c): best network latency vs. tuning time for Felix and
//! Ansor-TenSet on RTX A5000, A10G, and Xavier NX at batch size 1.
//!
//! Writes the full curves to `fig7_batch1.csv` in the results directory
//! (consumed by the `table1`, `table2`, and `fig6` binaries) and prints a
//! per-network summary. `FELIX_FULL=1` adds the 5-seed min/max band of
//! Fig. 7a on the A5000.

use felix_bench::{
    cached_model, curves_to_csv, final_latency_label, networks, networks_no_llama, run_ansor,
    run_felix, write_result, Scale,
};
use felix_sim::DeviceConfig;

fn main() {
    felix_bench::out_dir_from_args();
    let scale = Scale::from_env();
    let mut rows = Vec::new();
    println!("Figure 7: Felix vs Ansor-TenSet tuning curves (batch 1)");
    for dev in DeviceConfig::all() {
        let model = cached_model(&dev, scale);
        let nets = if dev.rpc { networks_no_llama(1) } else { networks(1) };
        for g in nets {
            let band_seeds: Vec<u64> =
                if scale == Scale::Full && dev.name == "RTX A5000" {
                    vec![1, 2, 3, 4, 5]
                } else {
                    vec![1]
                };
            for &seed in &band_seeds {
                let f = run_felix(&g, &dev, &model, scale, seed);
                let a = run_ansor(&g, &dev, &model, scale, seed);
                println!(
                    "  {:<10} {:<18} seed {seed}: Felix {:>12} in {:>7.0} s | Ansor {:>12} in {:>7.0} s",
                    dev.name,
                    g.name,
                    final_latency_label(&f),
                    f.curve.last().map(|p| p.time_s).unwrap_or(0.0),
                    final_latency_label(&a),
                    a.curve.last().map(|p| p.time_s).unwrap_or(0.0),
                );
                rows.push((dev.name.to_string(), g.name.clone(), "Felix".to_string(), seed, f.curve));
                rows.push((dev.name.to_string(), g.name.clone(), "Ansor-TenSet".to_string(), seed, a.curve));
            }
        }
    }
    write_result("fig7_batch1.csv", &curves_to_csv(&rows));
}
