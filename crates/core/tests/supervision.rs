//! End-to-end tests of the self-healing descent runtime: supervision
//! trips nothing on healthy runs (at every thread count), contains NaN
//! cost models and panicking sketch objectives without losing the run,
//! degrades only the affected sketches to the evolutionary fallback —
//! identically at every thread count — and persists its degradation
//! decisions so killed runs resume byte-identically.

mod common;

use common::{assert_tasks_bit_identical, history_bits, quick_options, tiny_network, tmp_dir};
use felix::{pretrained_cost_model, FelixOptions, ModelQuality, Optimizer};
use felix_ansor::{SketchMode, TunerStats};
use felix_cost::Mlp;
use felix_records::Record;
use felix_sim::DeviceConfig;

/// Byte-patches the (private) output-layer bias of a model to NaN through
/// its serialized form, so every prediction — and every gradient the
/// descent consumes — is NaN. Hidden-layer NaNs never reach the output
/// because the ReLU's `f32::max` swallows them.
fn nan_model(base: &Mlp) -> Mlp {
    let mut bytes = Vec::new();
    base.save(&mut bytes).expect("save");
    let d = base.input_mean.len();
    let off = bytes.len() - 2 * (8 + 4 * d) - 4;
    bytes[off..off + 4].copy_from_slice(&f32::NAN.to_le_bytes());
    Mlp::load(bytes.as_slice()).expect("load")
}

#[test]
fn healthy_run_trips_nothing_at_any_thread_count() {
    // With a healthy model the supervisor only observes: no restarts, no
    // non-finite events, no caught panics, nothing degraded, every sketch
    // still in `Gradient` mode — and, like the rest of the search, the run
    // is bit-identical at 1, 2 and 4 threads.
    let device = DeviceConfig::a5000();
    let model = pretrained_cost_model(&device, ModelQuality::Fast);
    let run = |threads: usize| {
        let mut opt =
            Optimizer::with_options(tiny_network(), model.clone(), device, quick_options(threads));
        let n_rounds = opt.tasks().len() + 2;
        opt.optimize_all(n_rounds, 4);
        opt
    };
    let runs = [1usize, 2, 4].map(run);
    let serial = &runs[0];
    for (opt, threads) in runs.iter().zip([1, 2, 4]) {
        assert_eq!(history_bits(opt), history_bits(serial), "{threads} threads");
        assert_eq!(opt.tuning_time_s().to_bits(), serial.tuning_time_s().to_bits());
        assert_tasks_bit_identical(serial, opt);
        for s in &opt.stats {
            assert_eq!(s.seed_restarts, 0, "healthy run must not restart seeds");
            assert_eq!(s.nonfinite_events, 0);
            assert_eq!(s.panics_caught, 0);
            assert_eq!(s.degraded_sketches, 0);
        }
        for t in opt.tasks() {
            assert!(t.sketch_modes().iter().all(|m| *m == SketchMode::Gradient));
        }
    }
}

#[test]
fn nan_cost_model_run_degrades_and_completes() {
    // NaN-chaos: a cost model whose every prediction is NaN floods the
    // descent with non-finite objectives. The supervisor must restart the
    // seeds from their dedicated substreams, freeze them when the budget
    // runs out, walk the affected sketches down the degradation ladder,
    // and still finish every round with real (finite) measurements from
    // the evolutionary fallback.
    let device = DeviceConfig::a5000();
    let base = pretrained_cost_model(&device, ModelQuality::Fast);
    let mut opt =
        Optimizer::with_options(tiny_network(), nan_model(&base), device, quick_options(1));
    let n_rounds = opt.tasks().len() * 3;
    opt.optimize_all(n_rounds, 4);

    assert!(!opt.history.is_empty(), "NaN model must not stall the curve");
    for p in &opt.history {
        assert!(p.latency_ms.is_finite(), "measured latency stays finite");
        assert!(p.time_s.is_finite());
    }
    let restarts: usize = opt.stats.iter().map(|s| s.seed_restarts).sum();
    let nonfinite: usize = opt.stats.iter().map(|s| s.nonfinite_events).sum();
    assert!(restarts > 0, "NaN objectives must trigger seed restarts");
    assert!(nonfinite > 0, "NaN objectives must be detected, not laundered");
    // Exhausted sketches walked down the ladder.
    let degraded: usize = opt
        .tasks()
        .iter()
        .flat_map(|t| t.sketch_modes())
        .filter(|m| **m != SketchMode::Gradient)
        .count();
    assert!(degraded > 0, "persistent NaN must degrade sketches off gradient mode");
    for t in opt.tasks() {
        if t.rounds > 0 {
            assert!(!t.measured.is_empty(), "every tuned task still gets measurements");
            assert!(t.best_latency_ms.is_finite());
        }
    }
}

#[test]
fn injected_panic_poisons_only_that_sketch() {
    // Panic isolation: a sketch whose descent panics (injected via the
    // deterministic test hook) is caught at the per-sketch boundary,
    // quarantined to the evolutionary fallback, and the rest of the round
    // — other sketches, other tasks, measurements — proceeds untouched.
    let device = DeviceConfig::a5000();
    let model = pretrained_cost_model(&device, ModelQuality::Fast);
    let opts = FelixOptions { inject_panic_sketch: Some(0), ..quick_options(1) };
    let mut opt = Optimizer::with_options(tiny_network(), model, device, opts);
    let n_rounds = opt.tasks().len() + 2;
    opt.optimize_all(n_rounds, 4);

    let panics: usize = opt.stats.iter().map(|s| s.panics_caught).sum();
    assert!(panics > 0, "the injected panic must be caught, not propagated");
    for t in opt.tasks() {
        if t.rounds == 0 {
            continue;
        }
        assert_eq!(
            t.sketch_modes()[0],
            SketchMode::Evolutionary,
            "panicking sketch degrades straight to the evolutionary rung"
        );
        for (i, m) in t.sketch_modes().iter().enumerate().skip(1) {
            assert_eq!(*m, SketchMode::Gradient, "sketch {i} must stay healthy");
        }
        assert!(!t.measured.is_empty(), "the round still measures candidates");
    }
}

/// Every `TunerStats` counter of a run, with the timing fields (and the
/// thread count itself) zeroed. The objective memo is the process's, so
/// whether a lookup hit depends on what ran before in the process: only
/// the number of lookups is the run's own.
fn counters(opt: &Optimizer) -> Vec<TunerStats> {
    let untimed = |s: &TunerStats| TunerStats {
        steps_per_sec: 0.0,
        tape_compile_s: 0.0,
        threads: 0,
        cache_hits: s.cache_hits + s.cache_misses,
        cache_misses: 0,
        ..*s
    };
    opt.stats.iter().map(untimed).collect()
}

/// Runs `options` with a record log at 1, 2, 3 and 4 threads and asserts
/// the history, task state, record-log bytes and stats counters repeat.
/// With 4 seeds a sketch's seeds are cut into several work items at the
/// higher thread counts.
fn assert_degraded_run_thread_parity(tag: &str, model: &Mlp, options: FelixOptions) {
    let device = DeviceConfig::a5000();
    let dir = tmp_dir(tag);
    let run = |threads: usize| {
        let log = dir.join(format!("records-{threads}.jsonl"));
        let mut opt = Optimizer::with_options(
            tiny_network(),
            model.clone(),
            device,
            FelixOptions { threads, ..options },
        )
        .with_record_log(&log)
        .expect("open record log");
        let n_rounds = opt.tasks().len() + 2;
        opt.optimize_all(n_rounds, 4);
        let bytes = std::fs::read(&log).expect("read record log");
        (opt, bytes)
    };
    let runs = [1usize, 2, 3, 4].map(run);
    let (serial, serial_log) = &runs[0];
    assert!(
        counters(serial).iter().any(|s| s.panics_caught + s.nonfinite_events > 0),
        "the scenario must actually trip the supervisor"
    );
    for ((opt, log), threads) in runs.iter().zip([1, 2, 3, 4]) {
        assert_eq!(history_bits(opt), history_bits(serial), "{threads} threads");
        assert_tasks_bit_identical(serial, opt);
        assert!(log == serial_log, "record log differs at {threads} threads");
        assert_eq!(counters(opt), counters(serial), "stats differ at {threads} threads");
    }
}

#[test]
fn injected_panic_run_is_identical_at_every_thread_count() {
    let model = pretrained_cost_model(&DeviceConfig::a5000(), ModelQuality::Fast);
    let options = FelixOptions { n_seeds: 4, inject_panic_sketch: Some(0), ..quick_options(1) };
    assert_degraded_run_thread_parity("panic-parity", &model, options);
}

#[test]
fn nan_model_run_is_identical_at_every_thread_count() {
    let base = pretrained_cost_model(&DeviceConfig::a5000(), ModelQuality::Fast);
    let options = FelixOptions { n_seeds: 4, ..quick_options(1) };
    assert_degraded_run_thread_parity("nan-parity", &nan_model(&base), options);
}

#[test]
fn zero_measurement_round_after_a_degraded_round_proposes_nothing() {
    // A degraded sketch gets a slice of the measurement budget; with no
    // budget there is no slice to give, and the round must not panic.
    let device = DeviceConfig::a5000();
    let model = pretrained_cost_model(&device, ModelQuality::Fast);
    let opts = FelixOptions { inject_panic_sketch: Some(0), ..quick_options(1) };
    let mut opt = Optimizer::with_options(tiny_network(), model, device, opts);
    let n_tasks = opt.tasks().len();
    opt.optimize_all(n_tasks, 4);
    assert!(opt.tasks().iter().all(|t| t.sketch_modes()[0] == SketchMode::Evolutionary));
    let measured: usize = opt.tasks().iter().map(|t| t.measured.len()).sum();
    opt.optimize_all(1, 0);
    assert_eq!(opt.tasks().iter().map(|t| t.measured.len()).sum::<usize>(), measured);
}

#[test]
fn killed_degraded_run_resumes_byte_identically() {
    // Crash mid-degradation: checkpoint every round under the NaN model,
    // kill halfway, resume. The restored run must replay the same
    // degradation decisions (sketch modes come back from the snapshot) and
    // reproduce the uninterrupted curve byte for byte.
    let device = DeviceConfig::a5000();
    let base = pretrained_cost_model(&device, ModelQuality::Fast);
    let mut uninterrupted =
        Optimizer::with_options(tiny_network(), nan_model(&base), device, quick_options(1));
    let n_rounds = uninterrupted.tasks().len() * 2;
    uninterrupted.optimize_all(n_rounds, 4);
    assert!(
        uninterrupted
            .tasks()
            .iter()
            .flat_map(|t| t.sketch_modes())
            .any(|m| *m != SketchMode::Gradient),
        "the scenario must actually degrade something"
    );

    let dir = tmp_dir("degraded-resume");
    let m = n_rounds / 2;
    {
        let mut first =
            Optimizer::with_options(tiny_network(), nan_model(&base), device, quick_options(1))
                .with_checkpointing(&dir, 1);
        first.optimize_all(m, 4);
        // Dropped here: the "crash", mid-degradation.
    }
    let mut resumed =
        Optimizer::resume_from_checkpoint(tiny_network(), device, quick_options(1), &dir)
            .expect("resume from checkpoint");
    assert_eq!(resumed.rounds_done(), m);
    resumed.optimize_all(n_rounds - m, 4);

    assert_eq!(history_bits(&resumed), history_bits(&uninterrupted));
    assert_eq!(
        resumed.tuning_time_s().to_bits(),
        uninterrupted.tuning_time_s().to_bits()
    );
    assert_tasks_bit_identical(&uninterrupted, &resumed);
}

#[test]
fn health_records_replay_restores_degradation_state() {
    // The record log captures health lines alongside measurements; a fresh
    // optimizer replaying the log must come back with the same per-sketch
    // modes the degraded run ended with.
    let device = DeviceConfig::a5000();
    let base = pretrained_cost_model(&device, ModelQuality::Fast);
    let dir = tmp_dir("health-replay");
    let log = dir.join("records.jsonl");
    let mut tuned =
        Optimizer::with_options(tiny_network(), nan_model(&base), device, quick_options(1))
            .with_record_log(&log)
            .expect("open record log");
    let n_rounds = tuned.tasks().len() * 2;
    tuned.optimize_all(n_rounds, 4);
    assert!(
        tuned
            .tasks()
            .iter()
            .flat_map(|t| t.sketch_modes())
            .any(|m| *m != SketchMode::Gradient),
        "the scenario must actually degrade something"
    );
    let records = felix_records::read_all_records(&log).expect("read log");
    assert!(
        records.iter().any(|r| matches!(r, Record::Health(_))),
        "degraded rounds must append health records"
    );

    let replayed =
        Optimizer::with_options(tiny_network(), nan_model(&base), device, quick_options(1))
            .with_record_log(&log)
            .expect("replay record log");
    for (ta, tb) in tuned.tasks().iter().zip(replayed.tasks()) {
        assert_eq!(ta.sketch_modes(), tb.sketch_modes(), "modes replay from the log");
    }
}
