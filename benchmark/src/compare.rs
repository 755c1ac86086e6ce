//! `felix-benchmark compare A B`: two sets of runs of the ledger, held
//! against each other per workload and end-to-end metric. A file holds one
//! run document per line (what `run.sh` collects into `out/set_*.jsonl`);
//! several runs of one workload in a file are repeats.

use crate::spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;
use felix_records::Json;
use std::collections::BTreeMap;

/// Units whose traced values must repeat exactly between two runs of one
/// commit and seed on the in-process workloads.
const EXACT_UNITS: [&str; 4] = ["count", "nodes", "sim_ms", "sim_s"];

/// `serve_mixed` counts depend on cancel and poll timing.
const TIMING_DEPENDENT_WORKLOAD: &str = "serve_mixed";

/// `(workload, traced, metric) -> values`, one per run.
type Samples = BTreeMap<(String, bool, String), Vec<f64>>;

/// The verdict on one workload x metric pairing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the bound allows.
    Breach,
    /// The run-to-run spread exceeds the bound, so neither "unchanged" nor
    /// "worse" can be told.
    Unresolved,
}

/// Parses a run-set file's text into per-metric samples.
pub fn parse_set(text: &str) -> Result<Samples, String> {
    let mut samples = Samples::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let field = |k: &str| {
            doc.get(k)
                .ok_or_else(|| format!("line {}: no \"{k}\"", i + 1))
        };
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let traced = field("trace")?.as_bool().unwrap_or(false);
        let Json::Obj(metrics) = field("metrics")? else {
            return Err(format!("line {}: \"metrics\" is not an object", i + 1));
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                samples
                    .entry((workload.clone(), traced, name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(samples)
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        0.0
    } else {
        delta / a.abs()
    }
}

/// Judges one pairing from both sides' run values.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, Option<f64>, Verdict) {
    let worse = worsening(stats::median(a), stats::median(b), better);
    let spread = [stats::iqr_share(a), stats::iqr_share(b)]
        .into_iter()
        .flatten()
        .reduce(f64::max);
    let b_always_better = a
        .iter()
        .all(|&x| b.iter().all(|&y| worsening(x, y, better) < 0.0));
    let verdict = match spread {
        Some(s) if s > bound && !b_always_better => Verdict::Unresolved,
        _ if worse > bound => Verdict::Breach,
        _ => Verdict::Ok,
    };
    (worse, spread, verdict)
}

/// Compares two run sets; returns the printable table and whether any
/// pairing breached its bound.
pub fn compare(a: &Samples, b: &Samples) -> (String, bool) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut breached = false;
    let _ = writeln!(
        out,
        "{:<14} {:<16} {:>12} {:>12} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound", "spread"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let key = (w.name.to_string(), false, m.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (worse, spread, verdict) = judge(va, vb, m.better, m.bound);
            breached |= verdict == Verdict::Breach;
            let _ = writeln!(
                out,
                "{:<14} {:<16} {:>12.4} {:>12.4} {:>8.1}% {:>6.0}% {:>8}  {}",
                w.name,
                m.name,
                stats::median(va),
                stats::median(vb),
                worse * 100.0,
                m.bound * 100.0,
                spread.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0)),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Breach => "BREACH",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    // Traced runs: counts and simulated quantities repeat exactly.
    for w in WORKLOADS
        .iter()
        .filter(|w| w.name != TIMING_DEPENDENT_WORKLOAD)
    {
        for m in PER_LAYER
            .iter()
            .filter(|m| EXACT_UNITS.contains(&m.unit) && !m.name.starts_with("trace."))
        {
            let key = (w.name.to_string(), true, m.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            if va.iter().chain(vb).any(|v| v.to_bits() != va[0].to_bits()) {
                breached = true;
                let _ = writeln!(
                    out,
                    "{:<14} {:<32} does not repeat exactly: {va:?} vs {vb:?}  BREACH",
                    w.name, m.name
                );
            }
        }
    }
    (out, breached)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_flags_breach_ok_and_unresolved() {
        // 5% worse against a 10% bound: ok.
        assert_eq!(
            judge(&[100.0], &[105.0], Better::Lower, 0.10).2,
            Verdict::Ok
        );
        // 20% worse: breach, in the metric's own direction.
        assert_eq!(
            judge(&[100.0], &[120.0], Better::Lower, 0.10).2,
            Verdict::Breach
        );
        assert_eq!(
            judge(&[100.0], &[80.0], Better::Higher, 0.10).2,
            Verdict::Breach
        );
        assert_eq!(judge(&[100.0], &[80.0], Better::Lower, 0.10).2, Verdict::Ok);
        // Spread wider than the bound: unresolved, unless B always wins.
        let noisy = [80.0, 100.0, 120.0, 140.0];
        assert_eq!(
            judge(&noisy, &[125.0, 130.0, 150.0, 90.0], Better::Lower, 0.10).2,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &[50.0, 60.0, 70.0, 75.0], Better::Lower, 0.10).2,
            Verdict::Ok
        );
    }

    #[test]
    fn compare_reads_run_sets_and_reports_breaches() {
        let line = |ops: f64| {
            format!(
                "{{\"workload\":\"cold_ops\",\"trace\":false,\"metrics\":{{\"ops_per_s\":{{\"value\":{ops},\"unit\":\"1/s\"}}}}}}"
            )
        };
        let a = parse_set(&format!("{}\n{}\n", line(10.0), line(10.2))).expect("set A");
        let same = parse_set(&line(9.9)).expect("set B");
        let slow = parse_set(&line(5.0)).expect("set C");
        let (table, breached) = compare(&a, &same);
        assert!(!breached, "{table}");
        assert!(table.contains("cold_ops") && table.contains("ops_per_s"));
        let (table, breached) = compare(&a, &slow);
        assert!(breached && table.contains("BREACH"), "{table}");
        assert!(parse_set("not json").is_err());
    }

    #[test]
    fn traced_counts_must_repeat_exactly() {
        let line = |n: f64| {
            format!(
                "{{\"workload\":\"cold_ops\",\"trace\":true,\"metrics\":{{\"tir.sketches\":{{\"value\":{n},\"unit\":\"count\"}}}}}}"
            )
        };
        let a = parse_set(&line(96.0)).expect("set A");
        assert!(!compare(&a, &parse_set(&line(96.0)).expect("same")).1);
        assert!(compare(&a, &parse_set(&line(97.0)).expect("off by one")).1);
    }
}
