//! The benchmark's vocabulary: workload names, end-to-end metrics (with
//! their regression bounds) and per-layer metrics. `BENCHMARK.json` at the
//! repo root is generated from these tables (`felix-benchmark manifest`)
//! and a unit test keeps the two identical.

use felix_records::Json;

/// Default workload seed (`--seed`).
pub const DEFAULT_SEED: u64 = 0xFE11C5;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// The benchmark's directory, relative to the repo root.
pub const BENCH_DIR: &str = "benchmark";

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: its name and the one-line reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tune_resnet50",
        why: "ResNet-50 b1 on RTX A5000 at paper defaults (16 seeds x 200 steps, 16 measurements): long descents, so core::gd and the cost MLP do nearly all the work; op = one tuning round",
    },
    Workload {
        name: "cold_ops",
        why: "seeded stream of single-operator tasks (25% repeats), one small round each through one proposer and tape cache: per-task lowering, sketches, e-graph, tape compile dominate; op = one task",
    },
    Workload {
        name: "persist_cycle",
        why: "8 seeded tasks tuned a round each with record log, schedule store and checkpoints, then resumed, replayed and served from the store: writes beside reads on records/persist/cache; op = one cycle",
    },
    Workload {
        name: "serve_mixed",
        why: "in-process felix-served daemon, closed loop of 2 connections x 4 outstanding jobs, 3 skewed tenants, cancels and lists: wire codec, admission, WAL, scheduler; descent is tiny; op = one job",
    },
];

/// An end-to-end metric: reported by every workload in the untraced run.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// All bounds sit at the contract's ceiling: the sandbox is a shared 2-vCPU
/// host, and even after machine-speed normalisation ten seeds of one
/// commit spread by up to a fifth (README, "Measured repeatability").
/// Times are scaled to the calibration kernel's reference speed.
///
/// - `setup_s`: median of three full set-ups (cost-model pretrain, input
///   generation, task or daemon construction, warm-up).
/// - `ops_per_s`: operations per second spent inside operations (rounds,
///   tasks, cycles or jobs).
/// - `op_ms_mid`: interquartile mean of one operation's wall clock (round /
///   Task in -> first measured schedule out / cycle / submit -> terminal).
/// - `cpu_ms_per_op`: process user+sys CPU over the window per operation.
/// - `peak_rss_mb`: `VmHWM` once the first `min_ops` operations finished.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_mid",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: reported by every workload in the traced run. A
/// layer a workload does not exercise (or cannot observe from outside)
/// reads 0 there.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 79] = [
    lo("graph.partition_us", "us"),
    lo("graph.lower_us", "us"),
    lo("tir.sketch_gen_us", "us"),
    lo("tir.sketches", "count"),
    lo("tir.round_to_valid_us", "us"),
    lo("features.extract_us", "us"),
    lo("features.eval_us", "us"),
    lo("expr.smooth_ms", "ms"),
    lo("expr.exp_subst_ms", "ms"),
    lo("expr.tape_compile_ms", "ms"),
    lo("expr.pool_nodes", "nodes"),
    lo("expr.tape_nodes", "nodes"),
    lo("expr.tape_fwd_bwd_us_per_seed", "us"),
    lo("expr.tape_lanes", "count"),
    lo("egraph.simplify_ms", "ms"),
    lo("egraph.nodes_in", "nodes"),
    lo("egraph.nodes_out", "nodes"),
    lo("cost.mlp_input_grad_us_per_seed", "us"),
    lo("cost.mlp_chunk_width", "count"),
    lo("cost.predict_batch_us_per_row", "us"),
    lo("cost.fine_tune_ms", "ms"),
    lo("cost.fine_tune_calls", "count"),
    lo("sim.measure_us", "us"),
    hi("sim.measurements", "count"),
    lo("sim.measure_failures", "count"),
    lo("sim.tuning_clock_s", "sim_s"),
    lo("ansor.round_ms", "ms"),
    lo("ansor.round_self_ms", "ms"),
    lo("ansor.select_next_task_us", "us"),
    hi("ansor.measured_per_requested", "frac"),
    lo("ansor.final_latency_ms", "sim_ms"),
    lo("core.propose_ms", "ms"),
    lo("core.objective_build_ms", "ms"),
    lo("core.descent_ms", "ms"),
    hi("core.descent_steps_per_s", "1/s"),
    lo("core.rank_ms", "ms"),
    hi("core.candidates", "count"),
    lo("core.penalty_violation_rate", "frac"),
    lo("core.rounding_rejection_rate", "frac"),
    hi("core.objective_memo_hit_rate", "frac"),
    hi("core.tape_cache_hit_rate", "frac"),
    lo("core.seed_restarts", "count"),
    lo("core.nonfinite_events", "count"),
    lo("core.cache_apply_us", "us"),
    lo("core.cache_publish_ms", "ms"),
    lo("core.checkpoint_save_ms", "ms"),
    lo("core.checkpoint_bytes", "bytes"),
    lo("core.resume_ms", "ms"),
    lo("core.replay_records_ms", "ms"),
    lo("core.hit_serve_ms", "ms"),
    lo("core.persist_tax_ms_per_round", "ms"),
    lo("records.log_append_us", "us"),
    lo("records.log_bytes_per_round", "bytes"),
    lo("records.store_open_ms", "ms"),
    lo("records.store_insert_us", "us"),
    lo("records.store_bytes", "bytes"),
    lo("records.wal_append_us", "us"),
    lo("records.wal_bytes_per_job", "bytes"),
    lo("records.wal_replay_ms", "ms"),
    lo("records.wal_compact_ms", "ms"),
    hi("records.json_write_mb_per_s", "MB/s"),
    hi("records.json_parse_mb_per_s", "MB/s"),
    lo("serve.submit_ack_us_p50", "us"),
    lo("serve.submit_ack_us_p99", "us"),
    lo("serve.submit_done_ms_p50", "ms"),
    lo("serve.status_rtt_us_p50", "us"),
    lo("serve.result_rtt_us_p50", "us"),
    lo("serve.queue_wait_ms_p50", "ms"),
    lo("serve.shard_adopt_ms", "ms"),
    lo("serve.shard_step_ms", "ms"),
    lo("serve.shard_dispose_ms", "ms"),
    lo("serve.frame_codec_us", "us"),
    lo("serve.rejected", "count"),
    lo("serve.jobs_failed", "count"),
    hi("trace.ops", "count"),
    hi("trace.spans", "count"),
    hi("trace.ops_per_s", "1/s"),
    lo("trace.overhead_frac", "frac"),
    hi("trace.self_time_coverage", "frac"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The `BENCHMARK.json` document these tables describe.
pub fn manifest() -> Json {
    let s = |v: &str| Json::Str(v.to_string());
    Json::obj(vec![
        ("command", Json::Arr(vec![s("bash"), s("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![s(BENCH_DIR)])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.label())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !s.is_empty()
            && s.len() <= 64
            && s.chars().all(ok)
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn is_unit(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
    }

    #[test]
    fn names_units_and_limits_fit_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(is_name(n), "bad name {n:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(is_unit(u), "bad unit {u:?}");
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why too long",
                w.name
            );
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for m in &END_TO_END {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{}: bound {}",
                m.name,
                m.bound
            );
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s takes the largest bound");
    }

    #[test]
    fn benchmark_json_matches_the_tables_exactly() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `felix-benchmark manifest > BENCHMARK.json`"
        );
        let Json::Obj(fields) = &on_disk else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
