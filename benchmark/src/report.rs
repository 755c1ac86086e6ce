//! Turns a [`RunOutput`] into the result line the driver reads, the fuller
//! document `compare` reads, and the table a person reads.

use crate::harness::{machine_speed, RunConfig, RunOutput};
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::stats;
use felix_records::Json;
use std::path::Path;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value.
    pub samples: usize,
    /// Informational companions, never gated: the figure before
    /// machine-speed scaling (`raw`), the plain median (`p50`), and the
    /// highest percentile with at least ten samples beyond it (`p90`, ...).
    pub notes: Vec<(String, f64)>,
}

/// Where a run happened.
#[derive(Clone, Debug)]
pub struct Meta {
    pub commit: String,
    pub date: String,
    pub nproc: usize,
}

impl Meta {
    /// `FELIX_BENCH_COMMIT` / `FELIX_BENCH_DATE` as `run.sh` exports them.
    pub fn from_env() -> Meta {
        let var = |k: &str| std::env::var(k).ok().filter(|v| !v.is_empty());
        Meta {
            commit: var("FELIX_BENCH_COMMIT").unwrap_or_else(|| "unknown".to_string()),
            date: var("FELIX_BENCH_DATE").unwrap_or_else(|| "unknown".to_string()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// `("p90", value)` for the highest percentile of `samples` that still has
/// ten samples beyond it.
fn tail_note(samples: &[f64]) -> Option<(String, f64)> {
    stats::tail_percentile(samples.len()).map(|p| (format!("p{p}"), stats::percentile(samples, p)))
}

/// The end-to-end metrics of an untraced run, in `END_TO_END` order. Every
/// time is scaled to the calibration kernel's reference speed: multiplied
/// by the machine speed measured in the same phase of the run.
pub fn end_to_end_metrics(out: &RunOutput) -> Vec<Metric> {
    let e = &out.e2e;
    let ops = e.op_ms.len();
    let speed = machine_speed(&e.calib_us);
    END_TO_END
        .iter()
        .map(|m| {
            let (raw, scale, samples) = match m.name {
                "setup_s" => (
                    stats::median(&e.setup_s),
                    machine_speed(&e.setup_calib_us),
                    e.setup_s.len(),
                ),
                "ops_per_s" => (ops as f64 / e.window_s, 1.0 / speed, ops),
                "op_ms_mid" => (stats::midmean(&e.op_ms), speed, ops),
                "cpu_ms_per_op" => (e.cpu_ms / ops as f64, speed, ops),
                "peak_rss_mb" => (e.peak_rss_mb, 1.0, 1),
                other => unreachable!("end-to-end metric {other} has no formula"),
            };
            let mut notes = Vec::new();
            if scale != 1.0 {
                notes.push(("raw".to_string(), finite(raw)));
            }
            if m.name == "op_ms_mid" {
                notes.push(("raw_p50".to_string(), stats::median(&e.op_ms)));
                // Below forty samples the tail percentile is the median itself.
                notes.extend(
                    tail_note(&e.op_ms)
                        .filter(|(p, _)| p != "p50")
                        .map(|(p, v)| (format!("raw_{p}"), v)),
                );
            }
            Metric {
                name: m.name,
                unit: m.unit,
                value: finite(raw * scale),
                samples,
                notes,
            }
        })
        .collect()
}

/// The per-layer metrics of a traced run, in `PER_LAYER` order, as
/// measured (not speed-scaled; the run document carries the machine speed).
/// `untraced_ops_per_s` is the same workload's untraced throughput, when a
/// result file of it is at hand.
pub fn per_layer_metrics(out: &RunOutput, untraced_ops_per_s: Option<f64>) -> Vec<Metric> {
    let ops = out.e2e.op_ms.len();
    // Scaled like the untraced figure it is compared with.
    let traced_ops_per_s = finite(ops as f64 / out.e2e.window_s / machine_speed(&out.e2e.calib_us));
    PER_LAYER
        .iter()
        .map(|m| {
            let samples = out.layers.samples_of(m.name);
            let mut notes = Vec::new();
            let (value, n) = match m.name {
                "trace.ops" => (ops as f64, 1),
                "trace.spans" => (out.recorder.spans().len() as f64, 1),
                "trace.ops_per_s" => (traced_ops_per_s, ops),
                // Positive when tracing costs throughput.
                "trace.overhead_frac" => match untraced_ops_per_s {
                    Some(u) if traced_ops_per_s > 0.0 => (u / traced_ops_per_s - 1.0, 1),
                    _ => (0.0, 0),
                },
                "trace.self_time_coverage" => (out.recorder.self_time_coverage(), 1),
                // A counter or computed value wins; else the median of the
                // samples; else 0 (layer not exercised here).
                name => match out.layers.explicit(name) {
                    Some(v) => (v, 1),
                    None => {
                        notes.extend(tail_note(samples));
                        (stats::median(samples), samples.len())
                    }
                },
            };
            Metric {
                name: m.name,
                unit: m.unit,
                value: finite(value),
                samples: n,
                notes,
            }
        })
        .collect()
}

fn metrics_json(metrics: &[Metric], full: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.to_string())),
                ];
                if full {
                    fields.push(("samples", Json::Num(m.samples as f64)));
                    fields.extend(
                        m.notes
                            .iter()
                            .map(|(k, v)| (k.as_str(), Json::Num(finite(*v)))),
                    );
                }
                (m.name.to_string(), Json::obj(fields))
            })
            .collect(),
    )
}

/// Whether the run's outputs were correct: every check held and no
/// operation failed.
pub fn correct(out: &RunOutput) -> bool {
    out.checks.all_ok() && out.failed == 0 && out.attempted > 0
}

/// The one-line result the driver reads: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
pub fn contract_line(out: &RunOutput, metrics: &[Metric]) -> Json {
    Json::obj(vec![
        ("correct", Json::Bool(correct(out))),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics_json(metrics, false)),
    ])
}

/// The full run document: the result line's content plus where and how the
/// run happened, every check, and each metric's sample count and tail.
pub fn run_document(cfg: &RunConfig, meta: &Meta, out: &RunOutput, metrics: &[Metric]) -> Json {
    let checks = out
        .checks
        .list
        .iter()
        .map(|c| {
            Json::obj(vec![
                ("name", Json::Str(c.name.to_string())),
                ("ok", Json::Bool(c.ok)),
                ("detail", Json::Str(c.detail.clone())),
            ])
        })
        .collect();
    Json::obj(vec![
        ("workload", Json::Str(cfg.workload.clone())),
        ("commit", Json::Str(meta.commit.clone())),
        ("date", Json::Str(meta.date.clone())),
        ("seed", Json::u64_hex(cfg.seed)),
        ("seconds", Json::Num(cfg.seconds)),
        ("nproc", Json::Num(meta.nproc as f64)),
        ("smoke", Json::Bool(cfg.smoke)),
        ("trace", Json::Bool(cfg.trace)),
        ("correct", Json::Bool(correct(out))),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        (
            "failed_ops_frac",
            Json::Num(out.failed as f64 / out.attempted.max(1) as f64),
        ),
        ("machine_speed", Json::Num(machine_speed(&out.e2e.calib_us))),
        (
            "machine_speed_setup",
            Json::Num(machine_speed(&out.e2e.setup_calib_us)),
        ),
        ("calib_samples", Json::Num(out.e2e.calib_us.len() as f64)),
        ("checks", Json::Arr(checks)),
        ("metrics", metrics_json(metrics, true)),
    ])
}

/// The line appended to `history.jsonl`: who, when, what, and the headline
/// numbers, so the trajectory is data.
pub fn history_line(cfg: &RunConfig, meta: &Meta, out: &RunOutput, metrics: &[Metric]) -> Json {
    let headline = metrics
        .iter()
        .filter(|m| spec::end_to_end(m.name).is_some())
        .map(|m| (m.name.to_string(), Json::Num(m.value)))
        .collect();
    Json::obj(vec![
        ("commit", Json::Str(meta.commit.clone())),
        ("date", Json::Str(meta.date.clone())),
        ("seed", Json::u64_hex(cfg.seed)),
        ("nproc", Json::Num(meta.nproc as f64)),
        ("smoke", Json::Bool(cfg.smoke)),
        ("workload", Json::Str(cfg.workload.clone())),
        ("trace", Json::Bool(cfg.trace)),
        ("seconds", Json::Num(cfg.seconds)),
        ("correct", Json::Bool(correct(out))),
        ("metrics", Json::Obj(headline)),
    ])
}

/// Every metric by name with its unit, the checks, and (traced) the
/// per-phase self-time table.
pub fn human_table(cfg: &RunConfig, meta: &Meta, out: &RunOutput, metrics: &[Metric]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== {} seed {:#x} {}s trace {} smoke {} nproc {} machine speed {:.3} (set-up {:.3}) ==",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        cfg.smoke,
        meta.nproc,
        machine_speed(&out.e2e.calib_us),
        machine_speed(&out.e2e.setup_calib_us),
    );
    for m in metrics {
        let _ = write!(
            s,
            "{:<36} {:>16.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
        for (k, v) in &m.notes {
            let _ = write!(s, "  {k}={v:.4}");
        }
        s.push('\n');
    }
    let _ = writeln!(
        s,
        "operations: {} attempted, {} failed (failed_ops_frac {})",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for c in &out.checks.list {
        let _ = writeln!(
            s,
            "check {:<44} {}{}",
            c.name,
            if c.ok { "ok" } else { "FAILED " },
            c.detail
        );
    }
    if cfg.trace {
        let _ = writeln!(
            s,
            "{:<28} {:>8} {:>12} {:>12}",
            "phase", "count", "total_ms", "self_ms"
        );
        for (name, t) in out.recorder.phase_table() {
            let _ = writeln!(
                s,
                "{:<28} {:>8} {:>12.3} {:>12.3}",
                name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    s
}

/// `ops_per_s` of the untraced result file of `cfg`'s workload, if one with
/// the same seed, length and size sits in `out_dir`.
pub fn untraced_ops_per_s(cfg: &RunConfig, out_dir: &Path) -> Option<f64> {
    let text = std::fs::read_to_string(out_dir.join(format!("{}.json", cfg.workload))).ok()?;
    let doc = Json::parse(&text).ok()?;
    let same = doc.get("seed")?.as_u64_hex()? == cfg.seed
        && doc.get("seconds")?.as_f64()? == cfg.seconds
        && doc.get("smoke")?.as_bool()? == cfg.smoke;
    same.then(|| doc.get("metrics")?.get("ops_per_s")?.get("value")?.as_f64())
        .flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Checks, EndToEndSamples, Layers};
    use crate::trace::Recorder;

    fn sample_run(trace: bool) -> (RunConfig, RunOutput) {
        let cfg = RunConfig {
            workload: "cold_ops".to_string(),
            seed: 0xFE11C5,
            seconds: 15.0,
            trace,
            smoke: false,
        };
        let mut layers = Layers::default();
        for v in 0..40 {
            layers.sample("graph.lower_us", f64::from(v));
        }
        layers.set("tir.sketches", 96.0);
        let mut checks = Checks::default();
        checks.record("every_task_measured", true, String::new);
        let out = RunOutput {
            attempted: 30,
            failed: 0,
            checks,
            e2e: EndToEndSamples {
                setup_s: vec![0.4, 0.3, 0.5],
                op_ms: (1..=30).map(f64::from).collect(),
                window_s: 0.465,
                cpu_ms: 900.0,
                peak_rss_mb: 33.5,
                // The machine ran at half the reference speed in the window
                // and at reference speed during set-up.
                calib_us: vec![50.0, 50.0],
                setup_calib_us: vec![25.0],
            },
            layers,
            recorder: Recorder::new(trace),
        };
        (cfg, out)
    }

    #[test]
    fn result_line_reparses_with_exactly_the_contract_keys() {
        let (_, out) = sample_run(false);
        let metrics = end_to_end_metrics(&out);
        let line = contract_line(&out, &metrics).write();
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).expect("result line parses");
        let Json::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Obj(reported)) = doc.get("metrics") else {
            panic!("no metrics")
        };
        let names: Vec<&str> = reported.iter().map(|(k, _)| k.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expected, "every end-to-end metric, nothing else");
        for (name, m) in reported {
            assert!(
                m.get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(|v| v > 0.0),
                "{name}"
            );
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                spec::end_to_end(name).map(|e| e.unit)
            );
        }
        let value = |n: &str| {
            doc.get("metrics")
                .and_then(|m| m.get(n)?.get("value")?.as_f64())
        };
        assert_eq!(value("setup_s"), Some(0.4));
        assert_eq!(
            value("op_ms_mid"),
            Some(15.5 / 2.0),
            "scaled to the reference speed"
        );
        assert_eq!(value("cpu_ms_per_op"), Some(30.0 / 2.0));
        assert_eq!(value("ops_per_s"), Some(30.0 / 0.465 * 2.0));
        assert_eq!(value("peak_rss_mb"), Some(33.5), "memory is not a time");
    }

    #[test]
    fn traced_line_holds_every_per_layer_metric() {
        let (cfg, out) = sample_run(true);
        let metrics = per_layer_metrics(&out, Some(70.0));
        let doc = Json::parse(&contract_line(&out, &metrics).write()).expect("parses");
        let Some(Json::Obj(reported)) = doc.get("metrics") else {
            panic!("no metrics")
        };
        let names: Vec<&str> = reported.iter().map(|(k, _)| k.as_str()).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        let lower = metrics
            .iter()
            .find(|m| m.name == "graph.lower_us")
            .expect("present");
        assert_eq!((lower.value, lower.samples), (19.5, 40));
        assert_eq!(lower.notes[0].0, "p75", "40 samples: p75 has ten beyond it");
        let unexercised = metrics
            .iter()
            .find(|m| m.name == "serve.shard_step_ms")
            .expect("present");
        assert_eq!(unexercised.value, 0.0);
        let full = run_document(
            &cfg,
            &Meta {
                commit: "abc".into(),
                date: "d".into(),
                nproc: 2,
            },
            &out,
            &metrics,
        );
        assert_eq!(
            Json::parse(&full.write()).expect("run document parses"),
            full
        );
        let history = history_line(&cfg, &Meta::from_env(), &out, &metrics).write();
        assert!(Json::parse(&history).is_ok() && !history.contains('\n'));
    }

    #[test]
    fn a_failed_check_or_operation_makes_the_run_incorrect() {
        let (_, mut out) = sample_run(false);
        assert!(correct(&out));
        out.failed = 1;
        assert!(!correct(&out));
        out.failed = 0;
        out.checks
            .record("every_task_measured", false, || "boom".to_string());
        assert!(!correct(&out));
    }
}
