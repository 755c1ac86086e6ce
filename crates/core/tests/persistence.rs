//! End-to-end tests of the durable tuning-record store and crash-safe
//! checkpoint/resume: resuming a killed run reproduces the uninterrupted
//! time-vs-latency curve byte for byte, replaying a record log warm-starts
//! a fresh optimizer, and — with the store disabled or the log empty — the
//! persistence layer perturbs nothing at any thread count.

mod common;

use common::{assert_tasks_bit_identical, history_bits, quick_options, tiny_network, tmp_dir};
use felix::{extract_subgraphs, pretrained_cost_model, FelixOptions, ModelQuality, Optimizer};
use felix_ansor::SearchTask;
use felix_graph::models;
use felix_records::Json;
use felix_sim::{DeviceConfig, FaultPlan};

#[test]
fn resume_from_checkpoint_matches_uninterrupted_curve() {
    // The tentpole acceptance bar: checkpoint every round, kill the run
    // halfway (drop the optimizer), resume from disk, and finish. The
    // concatenated time-vs-latency curve — and the final task states —
    // must be byte-identical to a run that was never interrupted (and
    // never persisted anything), at 1 and 4 tuner threads.
    for threads in [1usize, 4] {
        let device = DeviceConfig::a5000();
        let model = pretrained_cost_model(&device, ModelQuality::Fast);
        let mut base =
            Optimizer::with_options(tiny_network(), model.clone(), device, quick_options(threads));
        let n_rounds = base.tasks().len() + 2;
        base.optimize_all(n_rounds, 4);

        let dir = tmp_dir("resume");
        let m = n_rounds / 2;
        {
            let mut first =
                Optimizer::with_options(tiny_network(), model.clone(), device, quick_options(threads))
                    .with_checkpointing(&dir, 1);
            first.optimize_all(m, 4);
            assert_eq!(first.rounds_done(), m);
            // Dropped here: the "crash".
        }
        let mut resumed =
            Optimizer::resume_from_checkpoint(tiny_network(), device, quick_options(threads), &dir)
                .expect("resume from checkpoint");
        assert_eq!(resumed.rounds_done(), m);
        resumed.optimize_all(n_rounds - m, 4);

        assert_eq!(history_bits(&resumed), history_bits(&base), "{threads} threads");
        assert_eq!(resumed.tuning_time_s().to_bits(), base.tuning_time_s().to_bits());
        assert_tasks_bit_identical(&base, &resumed);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn resume_rejects_mismatched_checkpoints() {
    let device = DeviceConfig::a5000();
    let model = pretrained_cost_model(&device, ModelQuality::Fast);
    let dir = tmp_dir("mismatch");
    let mut opt = Optimizer::with_options(tiny_network(), model, device, quick_options(1))
        .with_checkpointing(&dir, 1);
    opt.optimize_all(1, 4);
    // Wrong device.
    let err = Optimizer::resume_from_checkpoint(
        tiny_network(),
        DeviceConfig::xavier_nx(),
        quick_options(1),
        &dir,
    );
    assert!(err.is_err(), "device mismatch must be rejected");
    // Wrong network (different task set).
    let other = extract_subgraphs(&models::dcgan(1));
    let err = Optimizer::resume_from_checkpoint(other, device, quick_options(1), &dir);
    assert!(err.is_err(), "network mismatch must be rejected");
    // Wrong sketch generator: the snapshots' sketch indices and variable
    // vectors mean nothing under a generator that numbers sketches anew.
    let state = dir.join(felix::persist::STATE_FILE);
    let live = felix_tir::sketch::generator_hash();
    let text = std::fs::read_to_string(&state).expect("read state");
    let stale = text.replace(
        &format!("\"gen\":\"{live:016x}\""),
        &format!("\"gen\":\"{:016x}\"", !live),
    );
    assert!(text != stale, "the checkpoint carries the live generator stamp");
    std::fs::write(&state, stale).expect("rewrite state");
    let err = Optimizer::resume_from_checkpoint(tiny_network(), device, quick_options(1), &dir)
        .err()
        .expect("generator mismatch must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    // Parseable checkpoints that do not fit the rebuilt tasks: a sketch
    // index past the sketch count, a short `modes` array, a schedule one
    // value short. Each is an error result, not a panic in the restore.
    let doc = Json::parse(text.trim_end()).expect("parse state");
    let good = felix::persist::checkpoint_from_json(&doc).expect("decode state");
    let tuned = good.tasks.iter().position(|t| !t.measured.is_empty()).expect("a measured task");
    let mut corrupt = [good.clone(), good.clone(), good];
    corrupt[0].tasks[tuned].measured[0].0 = 99;
    corrupt[1].tasks[tuned].sketch_modes.pop();
    corrupt[2].tasks[tuned].measured[0].1.pop();
    for state_doc in &corrupt {
        let json = felix::persist::checkpoint_to_json(state_doc);
        felix_records::write_document(&state, &json).expect("rewrite state");
        let err = Optimizer::resume_from_checkpoint(tiny_network(), device, quick_options(1), &dir)
            .err()
            .expect("an ill-fitting checkpoint must be rejected");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
    // A version-5 document: this state plus the per-task fields version 6
    // recomputes on restore instead of storing. Refused, not half-read.
    let Json::Obj(mut fields) = doc else { panic!("state is an object") };
    for (key, value) in &mut fields {
        match (key.as_str(), value) {
            ("version", value) => *value = Json::Num(5.0),
            ("tasks", Json::Arr(tasks)) => {
                for task in tasks {
                    let Json::Obj(task) = task else { panic!("task is an object") };
                    let counts = ["build_errors", "timeouts", "device_errors", "retries"]
                        .map(|k| (k, Json::Num(0.0)));
                    task.extend([
                        ("best_latency_ms".into(), Json::f64_bits(f64::INFINITY)),
                        ("best_schedule".into(), Json::Null),
                        ("fault_stats".into(), Json::obj(counts.to_vec())),
                        ("quarantined".into(), Json::Arr(Vec::new())),
                    ]);
                }
            }
            _ => {}
        }
    }
    felix_records::write_document(&state, &Json::Obj(fields)).expect("write v5 state");
    let err = Optimizer::resume_from_checkpoint(tiny_network(), device, quick_options(1), &dir)
        .err()
        .expect("a version-5 checkpoint must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    std::fs::write(&state, text).expect("restore state");
    Optimizer::resume_from_checkpoint(tiny_network(), device, quick_options(1), &dir)
        .expect("the untouched checkpoint resumes");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_record_log_is_bit_identical_at_every_thread_count() {
    // Store-disabled parity: attaching a record log that starts empty must
    // not perturb a single bit of the run — the sink is a pure observer
    // and replaying zero records touches neither the clock nor the RNG.
    for threads in [1usize, 2, 4] {
        let device = DeviceConfig::a5000();
        let model = pretrained_cost_model(&device, ModelQuality::Fast);
        let mut plain =
            Optimizer::with_options(tiny_network(), model.clone(), device, quick_options(threads));
        let n_rounds = plain.tasks().len() + 1;
        plain.optimize_all(n_rounds, 4);

        let dir = tmp_dir("empty-log");
        let log = dir.join("records.jsonl");
        let mut logged =
            Optimizer::with_options(tiny_network(), model, device, quick_options(threads))
                .with_record_log(&log)
                .expect("open record log");
        logged.optimize_all(n_rounds, 4);

        assert_eq!(history_bits(&plain), history_bits(&logged), "{threads} threads");
        assert_eq!(plain.tuning_time_s().to_bits(), logged.tuning_time_s().to_bits());
        assert_tasks_bit_identical(&plain, &logged);
        // And the log actually captured every measurement outcome.
        let records = felix_records::read_all_records(&log).expect("read log");
        let measurements =
            records.iter().filter(|r| matches!(r, felix_records::Record::Measurement(_))).count();
        let outcomes: usize =
            logged.tasks().iter().map(|t| t.measured.len() + t.failed.len()).sum();
        assert_eq!(measurements, outcomes);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn record_log_replay_warm_starts_a_fresh_optimizer() {
    // Startup replay: a fresh optimizer pointed at an existing log rebuilds
    // every task's incumbent, dedup set, replay buffer, and fault stats
    // bit-for-bit from the records alone.
    let device = DeviceConfig::a5000();
    let model = pretrained_cost_model(&device, ModelQuality::Fast);
    let dir = tmp_dir("warm-start");
    let log = dir.join("records.jsonl");
    let mut tuned = Optimizer::with_options(tiny_network(), model.clone(), device, quick_options(1))
        .with_record_log(&log)
        .expect("open record log");
    let n_rounds = tuned.tasks().len() + 1;
    tuned.optimize_all(n_rounds, 4);
    assert!(tuned.tasks().iter().all(|t| !t.measured.is_empty()));

    let replayed = Optimizer::with_options(tiny_network(), model, device, quick_options(1))
        .with_record_log(&log)
        .expect("replay record log");
    assert_tasks_bit_identical(&tuned, &replayed);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_record_log_replay_restores_fault_state() {
    // Replay under injected faults: failures, retry counters, and sketch
    // quarantine flags all come back from the log exactly as the live run
    // left them.
    let device = DeviceConfig::a5000();
    let model = pretrained_cost_model(&device, ModelQuality::Fast);
    let dir = tmp_dir("chaos-replay");
    let log = dir.join("records.jsonl");
    let chaos = FelixOptions { fault_plan: FaultPlan::chaos(0x7A5, 0.3), ..quick_options(1) };
    let mut tuned = Optimizer::with_options(tiny_network(), model.clone(), device, chaos)
        .with_record_log(&log)
        .expect("open record log");
    let n_rounds = tuned.tasks().len() * 2;
    tuned.optimize_all(n_rounds, 6);
    let wasted: usize = tuned.tasks().iter().map(SearchTask::wasted_attempts).sum();
    assert!(wasted > 0, "chaos must actually inject faults");

    let replayed = Optimizer::with_options(tiny_network(), model, device, quick_options(1))
        .with_record_log(&log)
        .expect("replay record log");
    assert_tasks_bit_identical(&tuned, &replayed);
    for (ta, tb) in tuned.tasks().iter().zip(replayed.tasks()) {
        for sketch in 0..ta.sketches.len() {
            assert_eq!(ta.is_quarantined(sketch), tb.is_quarantined(sketch));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
