//! Renders the tuning-curve CSVs (from the `fig7` / `fig10` binaries) as
//! ASCII charts, one panel per (device, network) — a terminal rendition of
//! the paper's Figs. 7 and 10.
//!
//! ```sh
//! cargo run -p felix-bench --release --bin plot            # fig7 curves
//! cargo run -p felix-bench --release --bin plot fig10      # batch-16 curves
//! ```

use felix_bench::plot::{render, Series};
use felix_bench::{curves_from_csv, read_result, results_dir};

fn main() {
    felix_bench::out_dir_from_args();
    let which = std::env::args().nth(1).unwrap_or_else(|| "fig7".into());
    let (file, bin) = match which.as_str() {
        "fig10" => ("fig10_batch16.csv", "fig10"),
        _ => ("fig7_batch1.csv", "fig7"),
    };
    let Some(csv) = read_result(file) else {
        let path = results_dir().join(file);
        eprintln!("{} missing — run the {bin} binary first", path.display());
        std::process::exit(1);
    };
    let curves = curves_from_csv(&csv);
    // Group by (device, network); plot the first seed of each tool.
    let mut panels: Vec<(String, String)> = curves
        .iter()
        .map(|(d, n, _, _, _)| (d.clone(), n.clone()))
        .collect();
    panels.sort();
    panels.dedup();
    for (dev, net) in panels {
        let mut series = Vec::new();
        for (tool, glyph) in [("Felix", 'f'), ("Ansor-TenSet", 'a')] {
            if let Some((_, _, _, _, c)) = curves
                .iter()
                .find(|(d, n, t, s, _)| *d == dev && *n == net && t == tool && *s == 1)
            {
                series.push(Series {
                    name: tool.to_string(),
                    points: c.clone(),
                    glyph,
                });
            }
        }
        println!("{}", render(&format!("{net} on {dev} (latency ms vs tuning s, log y)"), &series, 68, 14));
    }
}
