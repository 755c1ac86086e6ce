//! One pinned tuning run. Two small tasks tune for three rounds at
//! `FELIX_FAST`-like settings, with a record log and a schedule store
//! attached (the store seeded with one exact hit and one warm-start
//! donor), checkpointed every round and resumed after round two, at 1 and
//! 2 tuner threads. The donor's unroll values sit exactly midway, in f64
//! log space, between the powers of two 8 and 16, so the rounding's tie
//! rule decides the warm-start hint. The results fold into one FNV-1a hash per part, held
//! to pinned constants, so a change that moves any bit of the tuner's
//! output fails here and names the part that moved.
//!
//! A change that means to move a part re-pins its constant and says why
//! in CHANGES.md; a cost-math or search-policy change also bumps the
//! version stamp next to `felix_tir::sketch::generator_hash` (the cost
//! model's is `felix_cost::COST_MATH_VERSION`).
//! `scripts/same_program.sh` stays the wide check over ledger quantities
//! and figure CSVs.
//!
//! A seventh part pins a degraded run of the same two tasks: chaos
//! measurement faults quarantine at least one sketch, and an injected
//! descent panic sends sketch 0 down to the evolutionary fallback, so the
//! descent's routing of quarantined, degraded and gradient sketches is
//! held to one constant too.

use felix_repro::ansor::{SearchTask, SketchMode};
use felix_repro::felix::{
    pretrained_cost_model, FelixOptions, ModelQuality, Optimizer, ScheduleCache,
};
use felix_repro::graph::{Op, Subgraph, Task};
use felix_repro::records::{fnv1a, read_log, LogLine, Record, FNV_OFFSET};
use felix_repro::sim::{DeviceConfig, FaultPlan, Simulator};
use rand::rngs::StdRng;
use felix_repro::tir::sketch::SchedVarKind;
use rand::SeedableRng;
use std::f64::consts::SQRT_2;
use std::path::{Path, PathBuf};

/// The pinned hash of each part, in the order [`golden_run`] returns them.
const PINNED: [(&str, u64); 6] = [
    ("candidates", 0xc5a3_a01c_924d_51cd),
    ("tuning_clock_s", 0x42ec_6689_ec1b_ef89),
    ("best_latency_ms", 0x147b_1b8d_adec_4384),
    ("record_log", 0xe91c_3956_059c_80de),
    ("model", 0xa513_e83f_c7d2_f1b8),
    ("schedule_store", 0x408b_139e_29b7_2ab6),
];

/// The pinned hash of the degraded run's measured candidates, clock and
/// health lines, at every thread count.
const PINNED_DEGRADED: u64 = 0xa95f_e0f3_e1e2_4a24;

const ROUNDS: usize = 3;
const RESUME_AFTER: usize = 2;
const MEASUREMENTS: usize = 4;
const DEGRADED_MEASUREMENTS: usize = 16;
const DEGRADED_FAULT_SEED: u64 = 0x6011_de17;
/// Twice the nominal ceiling, so persistent faults (build errors and a
/// quarter of the run-time ones) fail most candidates outright and the
/// dense task quarantines a sketch in its first round, which its second
/// round then routes around.
const DEGRADED_FAULT_RATE: f64 = 2.0;

fn dense() -> Op {
    Op::Dense { m: 64, k: 256, n: 256 }
}

fn batch_matmul() -> Op {
    Op::BatchMatmul { b: 4, m: 64, k: 64, n: 64 }
}

fn tasks() -> Vec<Task> {
    [dense(), batch_matmul()].map(|op| Task { subgraph: Subgraph { ops: vec![op] }, weight: 1 }).into()
}

fn options(threads: usize) -> FelixOptions {
    FelixOptions { n_seeds: 4, n_steps: 50, threads, ..Default::default() }
}

/// Publishes one drawn schedule of `op` at `latency_ms` to the store, its
/// unroll values replaced by `unroll` when given.
fn seed_store(store: &Path, op: Op, latency_ms: f64, seed: u64, unroll: Option<f64>) {
    let device = DeviceConfig::a5000();
    let task = Task { subgraph: Subgraph { ops: vec![op] }, weight: 1 };
    let mut task = SearchTask::from_task(&task, &Simulator::new(device));
    let st = &task.sketches[0];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut values = felix_repro::cost::random_schedule(&st.program, &st.rounding, &mut rng, 64);
    if let Some(u) = unroll {
        for sv in &st.program.sched_vars {
            if matches!(sv.kind, SchedVarKind::Unroll { .. }) {
                values[sv.var.index()] = u;
            }
        }
    }
    task.record(0, values, latency_ms);
    ScheduleCache::open(store).expect("open store").publish(&[task], device.name);
}

/// The run at `threads` tuner threads, in `dir`: each part's hash.
fn golden_run(dir: &Path, threads: usize) -> [u64; 6] {
    let device = DeviceConfig::a5000();
    let (log, store, checkpoint) =
        (dir.join("records.jsonl"), dir.join("schedules.jsonl"), dir.join("checkpoint"));
    // The batch matmul hits exactly; the dense task warm-starts from the
    // same operator class at other extents.
    seed_store(&store, batch_matmul(), 0.25, 1, None);
    seed_store(&store, Op::Dense { m: 32, k: 128, n: 256 }, 1.5, 2, Some(8.0 * SQRT_2));
    {
        let model = pretrained_cost_model(&device, ModelQuality::Fast);
        let mut first = Optimizer::with_options(tasks(), model, device, options(threads))
            .with_record_log(&log)
            .and_then(|o| o.with_schedule_store(&store))
            .expect("attach log and store")
            .with_checkpointing(&checkpoint, 1);
        let cache = first.schedule_cache().expect("store attached");
        assert_eq!((cache.hits, cache.warm_starts), (1, 1), "the seeded store went unused");
        first.optimize_all(RESUME_AFTER, MEASUREMENTS);
    }
    let mut opt =
        Optimizer::resume_from_checkpoint(tasks(), device, options(threads), &checkpoint)
            .expect("resume");
    opt.optimize_all(ROUNDS - RESUME_AFTER, MEASUREMENTS);
    assert_eq!(opt.rounds_done(), ROUNDS);

    let candidates = measured_candidates(&log);
    let mut latency = FNV_OFFSET;
    for task in opt.tasks() {
        latency = fnv1a(latency, &task.best_latency_ms.to_bits().to_le_bytes());
    }
    let mut model = Vec::new();
    opt.cost_model().save(&mut model).expect("save model");
    let file = |path: &Path| fnv1a(FNV_OFFSET, &std::fs::read(path).expect("read file"));
    [
        candidates,
        fnv1a(FNV_OFFSET, &opt.tuning_time_s().to_bits().to_le_bytes()),
        latency,
        file(&log),
        fnv1a(FNV_OFFSET, &model),
        file(&store),
    ]
}

/// The hash of every measurement line's task, sketch and values in `log`.
fn measured_candidates(log: &Path) -> u64 {
    let mut hash = FNV_OFFSET;
    for line in read_log(log).expect("read log") {
        if let LogLine::Record(Record::Measurement(r)) = line {
            hash = fnv1a(hash, &r.task_key.to_le_bytes());
            hash = fnv1a(hash, &(r.sketch as u64).to_le_bytes());
            for v in &r.values {
                hash = fnv1a(hash, &v.to_bits().to_le_bytes());
            }
        }
    }
    hash
}

/// The degraded run at `threads` tuner threads, in `dir`: chaos faults at
/// [`DEGRADED_FAULT_RATE`] and a panic injected into sketch 0's descent.
/// Asserts that some sketch ends the run quarantined and that sketch 0
/// fell to the evolutionary fallback, then hashes the measured candidates,
/// the clock and the log's health lines into one value.
fn degraded_run(dir: &Path, threads: usize) -> u64 {
    let device = DeviceConfig::a5000();
    let log = dir.join("degraded.jsonl");
    let options = FelixOptions {
        fault_plan: FaultPlan::chaos(DEGRADED_FAULT_SEED, DEGRADED_FAULT_RATE),
        inject_panic_sketch: Some(0),
        ..options(threads)
    };
    let model = pretrained_cost_model(&device, ModelQuality::Fast);
    let mut opt = Optimizer::with_options(tasks(), model, device, options)
        .with_record_log(&log)
        .expect("attach log");
    opt.optimize_all(ROUNDS, DEGRADED_MEASUREMENTS);
    let quarantined = opt
        .tasks()
        .iter()
        .map(|t| (0..t.sketches.len()).filter(|&s| t.is_quarantined(s)).count())
        .sum::<usize>();
    assert!(quarantined > 0, "the chaos run quarantined no sketch");
    assert!(
        opt.tasks().iter().any(|t| t.sketch_modes()[0] == SketchMode::Evolutionary),
        "the injected panic degraded no sketch 0"
    );
    let mut health = FNV_OFFSET;
    for line in read_log(&log).expect("read log") {
        if let LogLine::Record(Record::Health(h)) = line {
            health = fnv1a(health, format!("{h:?}").as_bytes());
        }
    }
    let mut hash = fnv1a(FNV_OFFSET, &measured_candidates(&log).to_le_bytes());
    hash = fnv1a(hash, &opt.tuning_time_s().to_bits().to_le_bytes());
    fnv1a(hash, &health.to_le_bytes())
}

/// A fresh scratch directory, removed by the caller once the run passes.
fn fresh_dir(threads: usize) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("felix-golden-run-{}-{threads}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir(&dir).expect("create scratch dir");
    dir
}

#[test]
fn golden_run_matches_its_pinned_hashes() {
    for threads in [1usize, 2] {
        let dir = fresh_dir(threads);
        let got = golden_run(&dir, threads);
        let moved: Vec<String> = got
            .iter()
            .zip(PINNED)
            .filter(|(g, (_, p))| *g != p)
            .map(|(g, (part, p))| format!("{part}: {g:#018x} (pinned {p:#018x})"))
            .collect();
        assert!(moved.is_empty(), "at {threads} threads these parts moved:\n{}", moved.join("\n"));
        let degraded = degraded_run(&dir, threads);
        assert_eq!(
            degraded, PINNED_DEGRADED,
            "at {threads} threads the degraded run moved: {degraded:#018x} (pinned {PINNED_DEGRADED:#018x})"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
