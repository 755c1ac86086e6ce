//! Figure 10 + Table 2b: Felix vs Ansor-TenSet at input batch size 16 on
//! RTX A5000 (LLaMA excluded — it does not fit at batch 16, §6.4).
//!
//! Writes curves to `results/fig10_batch16.csv` and prints the Table 2b
//! milestone speedups.

use felix_bench::{
    cached_model, curves_to_csv, geomean_cells, milestone_cells, networks_no_llama, run_ansor,
    run_felix, write_result, Scale,
};
use felix_sim::DeviceConfig;

fn main() {
    felix_bench::out_dir_from_args();
    let scale = Scale::from_env();
    let dev = DeviceConfig::a5000();
    let model = cached_model(&dev, scale);
    let mut rows = Vec::new();
    let mut speedups: [Vec<f64>; 3] = Default::default();
    println!("Figure 10 / Table 2b: batch size 16 on RTX A5000");
    println!("{:<18} {:>7} {:>7} {:>7}", "network", "90%", "95%", "99%");
    let mut table = String::from("network,s90,s95,s99\n");
    for g in networks_no_llama(16) {
        let f = run_felix(&g, &dev, &model, scale, 1);
        let a = run_ansor(&g, &dev, &model, scale, 1);
        let cells = milestone_cells(&f.curve, &a.curve, &mut speedups);
        println!("{:<18} {}", g.name, cells.join(" "));
        table.push_str(&format!(
            "{},{}\n",
            g.name,
            cells.iter().map(|c| c.trim().to_string()).collect::<Vec<_>>().join(",")
        ));
        rows.push((dev.name.to_string(), g.name.clone(), "Felix".to_string(), 1u64, f.curve));
        rows.push((dev.name.to_string(), g.name.clone(), "Ansor-TenSet".to_string(), 1u64, a.curve));
    }
    let gm = geomean_cells(&speedups);
    println!("{:<18} {}", "GEOMEAN", gm.join(" "));
    table.push_str(&format!("GEOMEAN,{}\n", gm.join(",").replace(' ', "")));
    write_result("fig10_batch16.csv", &curves_to_csv(&rows));
    write_result("table2b_speedups.csv", &table);
}
