//! `felix-bench <experiment> [arg] [--out-dir DIR]`: regenerates one table
//! or figure of the paper's evaluation (see [`felix_bench::experiments`]).

use felix_bench::experiments::{parse_args, usage};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let inv = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("felix-bench: {e}\n{}", usage());
        std::process::exit(2)
    });
    if let Err(e) = inv.run() {
        eprintln!("felix-bench {}: {e}", args.join(" "));
        std::process::exit(1)
    }
}
