//! `felix-benchmark`: runs one workload per process (so the cost-model
//! memo, allocator high-water marks and `peak_rss_mb` never leak between
//! workloads), or compares two sets of runs.

use felix_benchmark::harness::{RunConfig, TempDir};
use felix_benchmark::report::{self, Meta};
use felix_benchmark::{compare, spec, workloads};
use felix_records::Json;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  felix-benchmark --workload <name> [--seed <u64>] [--seconds <s>] [--trace [0|1]] [--smoke] [--out-dir <dir>]
  felix-benchmark compare <A.jsonl> <B.jsonl>
  felix-benchmark manifest";

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

struct Args {
    cfg: RunConfig,
    out_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut cfg = RunConfig {
        workload: String::new(),
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
    };
    let mut seconds_given = false;
    let mut out_dir = Path::new(spec::BENCH_DIR).join("out");
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => cfg.workload = value("--workload")?.clone(),
            "--seed" => {
                let v = value("--seed")?;
                cfg.seed = parse_u64(v).ok_or_else(|| format!("--seed: not a u64: {v}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                cfg.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("--seconds: not a positive number of seconds: {v}"))?;
                seconds_given = true;
            }
            // `--trace 0|1` for the driver, bare `--trace` for people.
            "--trace" => {
                cfg.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => cfg.smoke = true,
            "--out-dir" => out_dir = PathBuf::from(value("--out-dir")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if spec::workload(&cfg.workload).is_none() {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    if cfg.smoke && !seconds_given {
        cfg.seconds = 1.0;
    }
    Ok(Args { cfg, out_dir })
}

fn write_text(path: &Path, text: &str) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(text.as_bytes())?;
    f.write_all(b"\n")
}

fn run_workload(args: &Args) -> std::io::Result<()> {
    let Args { cfg, out_dir } = args;
    std::fs::create_dir_all(out_dir)?;
    let meta = Meta::from_env();
    let out = {
        // The guard removes the data directory on every way out of this
        // block, a failed check and a panic included.
        let tmp = TempDir::create(out_dir, &cfg.workload)?;
        workloads::run(cfg, &tmp).expect("the workload name was validated")
    };
    let metrics = if cfg.trace {
        report::per_layer_metrics(&out, report::untraced_ops_per_s(cfg, out_dir))
    } else {
        report::end_to_end_metrics(&out)
    };
    let suffix = if cfg.trace { ".trace.json" } else { ".json" };
    let document = report::run_document(cfg, &meta, &out, &metrics);
    write_text(
        &out_dir.join(format!("{}{suffix}", cfg.workload)),
        &document.write(),
    )?;
    if cfg.trace {
        let spans = out.recorder.to_json();
        write_text(
            &out_dir.join(format!("trace_{}.json", cfg.workload)),
            &spans.write(),
        )?;
    }
    let history = out_dir.parent().unwrap_or(out_dir).join("history.jsonl");
    let mut log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(history)?;
    writeln!(
        log,
        "{}",
        report::history_line(cfg, &meta, &out, &metrics).write()
    )?;

    let mut stdout = std::io::stdout().lock();
    write!(
        stdout,
        "{}",
        report::human_table(cfg, &meta, &out, &metrics)
    )?;
    // The driver reads the last line of standard output.
    writeln!(stdout, "{}", report::contract_line(&out, &metrics).write())?;
    stdout.flush()
}

fn run_compare(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| compare::parse_set(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (table, breached) = compare::compare(&read(a)?, &read(b)?);
    print!("{table}");
    Ok(breached)
}

/// `BENCHMARK.json`, one entry per line so diffs stay readable.
fn manifest_text() -> String {
    let Json::Obj(fields) = spec::manifest() else {
        unreachable!("the manifest is an object")
    };
    let mut out = String::from("{\n");
    for (i, (key, value)) in fields.iter().enumerate() {
        let comma = if i + 1 < fields.len() { "," } else { "" };
        match value {
            Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let sep = if j + 1 < items.len() { "," } else { "" };
                    out.push_str(&format!("    {}{sep}\n", item.write()));
                }
                out.push_str(&format!("  ]{comma}\n"));
            }
            other => out.push_str(&format!("  \"{key}\": {}{comma}\n", other.write())),
        }
    }
    out.push_str("}\n");
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => match run_compare(&args[1], &args[2]) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::from(1),
            Err(e) => {
                eprintln!("felix-benchmark compare: {e}");
                ExitCode::from(2)
            }
        },
        Some("manifest") if args.len() == 1 => {
            print!("{}", manifest_text());
            ExitCode::SUCCESS
        }
        Some(_) => match parse_args(&args) {
            Ok(parsed) => match run_workload(&parsed) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("felix-benchmark: {e}");
                    ExitCode::from(2)
                }
            },
            Err(e) => {
                eprintln!("felix-benchmark: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
