//! Table 2a: tuning speedup of Felix over Ansor-TenSet, measured as the
//! ratio of times needed to converge to 90%/95%/99% of the best Ansor
//! performance (batch 1). Reads the curves produced by the `fig7` binary.

use felix_bench::{
    curves_from_csv, geomean_cells, milestone_cells, read_result, results_dir, write_result,
};

fn main() {
    felix_bench::out_dir_from_args();
    let Some(csv) = read_result("fig7_batch1.csv") else {
        let path = results_dir().join("fig7_batch1.csv");
        eprintln!("{} missing — run the fig7 binary first", path.display());
        std::process::exit(1);
    };
    let curves = curves_from_csv(&csv);
    let devices = ["RTX A5000", "A10G", "Xavier NX"];
    let mut out = String::from("device,network,s90,s95,s99\n");
    println!("Table 2a: Felix tuning speedup over Ansor-TenSet (batch 1)");
    println!("{:<11} {:<18} {:>7} {:>7} {:>7}", "device", "network", "90%", "95%", "99%");
    for dev in devices {
        let mut per_pct: [Vec<f64>; 3] = Default::default();
        let nets: Vec<String> = {
            let mut v: Vec<String> = curves
                .iter()
                .filter(|(d, _, _, s, _)| d == dev && *s == 1)
                .map(|(_, n, _, _, _)| n.clone())
                .collect();
            v.sort();
            v.dedup();
            v
        };
        for net in &nets {
            let felix = curves
                .iter()
                .find(|(d, n, t, s, _)| d == dev && n == net && t == "Felix" && *s == 1);
            let ansor = curves
                .iter()
                .find(|(d, n, t, s, _)| d == dev && n == net && t == "Ansor-TenSet" && *s == 1);
            let (Some(f), Some(a)) = (felix, ansor) else { continue };
            let cells = milestone_cells(&f.4, &a.4, &mut per_pct);
            println!("{dev:<11} {net:<18} {}", cells.join(" "));
            out.push_str(&format!(
                "{dev},{net},{}\n",
                cells.iter().map(|c| c.trim().to_string()).collect::<Vec<_>>().join(",")
            ));
        }
        let gm = geomean_cells(&per_pct);
        println!("{dev:<11} {:<18} {}", "GEOMEAN", gm.join(" "));
        out.push_str(&format!("{dev},GEOMEAN,{}\n", gm.join(",").replace(' ', "")));
    }
    write_result("table2a_speedups.csv", &out);
}
