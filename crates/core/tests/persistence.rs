//! End-to-end tests of the durable tuning-record store and crash-safe
//! checkpoint/resume: resuming a killed run reproduces the uninterrupted
//! time-vs-latency curve byte for byte — from a clean round boundary, from
//! a log cut inside a round or its commit, and from a log whose appends
//! started failing — replaying a record log warm-starts a fresh optimizer,
//! and — with the store disabled or the log empty — the persistence layer
//! perturbs nothing at any thread count.

mod common;

use common::{assert_tasks_bit_identical, history_bits, quick_options, tiny_network, tmp_dir};
use felix::{extract_subgraphs, pretrained_cost_model, FelixOptions, ModelQuality, Optimizer};
use felix_ansor::SearchTask;
use felix_graph::models;
use felix_records::Json;
use felix_sim::{DeviceConfig, FaultPlan};
use std::path::Path;

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
    }
}

/// A checkpointed optimizer over the tiny network, not yet run.
fn checkpointed(dir: &Path, threads: usize) -> Optimizer {
    let device = DeviceConfig::a5000();
    let model = pretrained_cost_model(&device, ModelQuality::Fast);
    Optimizer::with_options(tiny_network(), model, device, quick_options(threads))
        .with_checkpointing(dir, 1)
}

fn resume(dir: &Path, threads: usize) -> std::io::Result<Optimizer> {
    let device = DeviceConfig::a5000();
    Optimizer::resume_from_checkpoint(tiny_network(), device, quick_options(threads), dir)
}

/// Resumes from `dir`, checks the resume stands at round `at`, finishes the
/// run to `base`'s length and holds it to `base` bit for bit.
fn assert_resumes_at(dir: &Path, at: usize, base: &Optimizer, threads: usize) {
    let mut resumed = resume(dir, threads).expect("resume from checkpoint");
    assert_eq!(resumed.rounds_done(), at);
    resumed.optimize_all(base.rounds_done() - at, 4);
    assert_eq!(history_bits(&resumed), history_bits(base), "{threads} threads");
    assert_eq!(resumed.tuning_time_s().to_bits(), base.tuning_time_s().to_bits());
    assert_eq!(resumed.rng_state(), base.rng_state());
    assert_tasks_bit_identical(base, &resumed);
}

/// An uninterrupted run without persistence: the reference of every resume.
fn uninterrupted(threads: usize) -> Optimizer {
    let device = DeviceConfig::a5000();
    let model = pretrained_cost_model(&device, ModelQuality::Fast);
    let mut base = Optimizer::with_options(tiny_network(), model, device, quick_options(threads));
    base.optimize_all(base.tasks().len() + 2, 4);
    base
}

/// The line `line` (one JSON document) with `edit` applied to its field
/// `key`.
fn edit_field(line: &str, key: &str, edit: impl FnOnce(&mut Json)) -> String {
    let Json::Obj(mut fields) = Json::parse(line).expect("parse line") else {
        panic!("a log line is an object")
    };
    edit(&mut fields.iter_mut().find(|(k, _)| k == key).expect("field present").1);
    Json::Obj(fields).write()
}

fn is_commit(line: &str) -> bool {
    line.contains("\"kind\":\"round\"")
}

#[test]
fn resume_rejects_mismatched_checkpoints() {
    let dir = tmp_dir("mismatch");
    checkpointed(&dir, 1).optimize_all(2, 4);
    let device = DeviceConfig::a5000();
    let refused = |what: &str| {
        let err = resume(&dir, 1).err().unwrap_or_else(|| panic!("{what} must be refused"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}");
    };
    // Wrong device.
    let err = Optimizer::resume_from_checkpoint(
        tiny_network(),
        DeviceConfig::xavier_nx(),
        quick_options(1),
        &*dir,
    );
    assert!(err.is_err(), "device mismatch must be rejected");
    // Wrong network (different task set).
    let other = extract_subgraphs(&models::dcgan(1));
    let err = Optimizer::resume_from_checkpoint(other, device, quick_options(1), &*dir);
    assert!(err.is_err(), "network mismatch must be rejected");
    // Wrong sketch generator: the log's sketch indices and variable
    // vectors mean nothing under a generator that numbers sketches anew.
    let state = dir.join(felix::persist::STATE_FILE);
    let live = felix_tir::sketch::generator_hash();
    let text = std::fs::read_to_string(&state).expect("read state");
    let stale = text.replace(
        &format!("\"gen\":\"{live:016x}\""),
        &format!("\"gen\":\"{:016x}\"", !live),
    );
    assert!(text != stale, "the header carries the live generator stamp");
    std::fs::write(&state, stale).expect("rewrite state");
    refused("a generator mismatch");
    // A version-6 document, whatever it holds, is refused, not half-read.
    let v6 = edit_field(text.trim_end(), "version", |v| *v = Json::Num(6.0));
    std::fs::write(&state, v6).expect("write v6 state");
    refused("a version-6 checkpoint");
    std::fs::write(&state, &text).expect("restore state");

    // Logs whose commits do not fit the rebuilt tasks: a round naming a
    // task the network does not have, and a committed measurement one
    // value short of its sketch. Each is an error result, not a panic in
    // the replay.
    let log = dir.join(felix::persist::LOG_FILE);
    let good = std::fs::read_to_string(&log).expect("read log");
    let lines: Vec<&str> = good.lines().collect();
    let commit = lines.iter().position(|l| is_commit(l)).expect("a committed round");
    assert!(commit > 0, "round 0 measured something");
    let corrupt = [
        (commit, edit_field(lines[commit], "task", |t| *t = Json::Num(99.0))),
        (commit - 1, edit_field(lines[commit - 1], "values", |v| {
            let Json::Arr(values) = v else { panic!("values is an array") };
            values.pop();
        })),
    ];
    for (at, line) in corrupt {
        let mut bad = lines.clone();
        bad[at] = &line;
        std::fs::write(&log, bad.join("\n") + "\n").expect("rewrite log");
        refused(&format!("a corrupt line {at}"));
    }
    std::fs::write(&log, &good).expect("restore log");
    resume(&dir, 1).expect("the untouched checkpoint resumes");
}

#[test]
fn model_file_is_the_base_model_written_once() {
    let dir = tmp_dir("model-once");
    let device = DeviceConfig::a5000();
    let mut base_bytes = Vec::new();
    pretrained_cost_model(&device, ModelQuality::Fast).save(&mut base_bytes).expect("save");
    let mut opt = checkpointed(&dir, 1);
    let model_file = dir.join(felix::persist::MODEL_FILE);
    opt.optimize_all(1, 4);
    assert_eq!(std::fs::read(&model_file).expect("read model"), base_bytes);
    let modified = std::fs::metadata(&model_file).and_then(|m| m.modified()).expect("mtime");
    opt.optimize_all(opt.tasks().len() + 1, 4);
    assert_eq!(std::fs::read(&model_file).expect("read model"), base_bytes);
    assert_eq!(std::fs::metadata(&model_file).and_then(|m| m.modified()).expect("mtime"), modified);
    opt.save_checkpoint().expect("every round is committed: a no-op");
}

#[test]
fn uncommitted_and_torn_rounds_resume_to_the_last_commit() {
    // The kill windows, made deterministic: a log ending in a round's
    // lines without their commit, and one ending in half a commit. Each
    // resumes to the round before, continues byte-identically, and leaves
    // the dropped lines in the log, where a second resume skips them.
    let threads = 2;
    let base = uninterrupted(threads);
    let m = base.rounds_done() / 2;
    for torn in [false, true] {
        let dir = tmp_dir("kill-window");
        checkpointed(&dir, threads).optimize_all(m + 1, 4);
        let log = dir.join(felix::persist::LOG_FILE);
        let bytes = std::fs::read(&log).expect("read log");
        let text = String::from_utf8(bytes.clone()).expect("utf-8 log");
        let lines: Vec<&str> = text.lines().collect();
        assert!(is_commit(lines[lines.len() - 1]) && !is_commit(lines[lines.len() - 2]));
        let commit_start = bytes.len() - lines[lines.len() - 1].len() - 1;
        let cut = if torn { commit_start + lines[lines.len() - 1].len() / 2 } else { commit_start };
        std::fs::write(&log, &bytes[..cut]).expect("cut the log");
        assert_resumes_at(&dir, m, &base, threads);
        let after = std::fs::read(&log).expect("read log");
        assert_eq!(&after[..cut], &bytes[..cut], "the log is only ever appended to");
        assert_resumes_at(&dir, base.rounds_done(), &base, threads);
    }
}

#[cfg(target_os = "linux")]
#[test]
fn failed_append_resumes_to_the_last_round_whose_lines_landed() {
    // The log is a FIFO whose reader keeps what lands, then closes its end
    // after round m's commit: every later append fails with `EPIPE`. The
    // run goes on unperturbed but commits nothing more, and the landed
    // lines resume to round m.
    use std::io::{BufRead, Write};
    let threads = 1;
    let base = uninterrupted(threads);
    let m = base.rounds_done() / 2;
    let dir = tmp_dir("closed-fifo");
    let log = dir.join(felix::persist::LOG_FILE);
    let landed = dir.join("landed.jsonl");
    let made = std::process::Command::new("mkfifo").arg(&log).status().expect("run mkfifo");
    assert!(made.success());
    let reader = {
        let (log, landed) = (log.clone(), landed.clone());
        std::thread::spawn(move || {
            let fifo = std::io::BufReader::new(std::fs::File::open(log).expect("open read end"));
            let mut out = std::fs::File::create(landed).expect("create copy");
            let mut commits = 0;
            for line in fifo.lines() {
                let line = line.expect("read fifo");
                writeln!(out, "{line}").expect("copy line");
                commits += usize::from(is_commit(&line));
                if commits == m {
                    break;
                }
            }
        })
    };
    let mut opt = checkpointed(&dir, threads);
    opt.optimize_all(m, 4);
    reader.join().expect("reader thread");
    opt.save_checkpoint().expect("every round so far is committed");
    opt.optimize_all(base.rounds_done() - m, 4);
    assert!(opt.save_checkpoint().is_err(), "the failed append is reported");
    assert_eq!(history_bits(&opt), history_bits(&base), "a failed log perturbs nothing");
    assert_tasks_bit_identical(&base, &opt);
    std::fs::rename(&landed, &log).expect("the landed lines become the log");
    assert_resumes_at(&dir, m, &base, threads);
}

#[test]
fn resume_replays_the_warm_start_prefix() {
    // A checkpointed run that started from an existing log: resume replays
    // the lines before the run's start as the warm start did, then the
    // run's own commits.
    let device = DeviceConfig::a5000();
    let model = pretrained_cost_model(&device, ModelQuality::Fast);
    let dir = tmp_dir("warm-prefix");
    let log = dir.join("shared.jsonl");
    let mut earlier =
        Optimizer::with_options(tiny_network(), model.clone(), device, quick_options(1))
            .with_record_log(&log)
            .expect("open record log");
    earlier.optimize_all(3, 4);
    let mut warm = Optimizer::with_options(tiny_network(), model, device, quick_options(1))
        .with_record_log(&log)
        .expect("replay record log")
        .with_checkpointing(dir.join("ckpt"), 1);
    warm.optimize_all(4, 4);
    let resumed = resume(&dir.join("ckpt"), 1).expect("resume from checkpoint");
    assert_eq!(resumed.rounds_done(), 4);
    assert_eq!(history_bits(&resumed), history_bits(&warm));
    assert_eq!(resumed.rng_state(), warm.rng_state());
    assert_eq!(resumed.tuning_time_s().to_bits(), warm.tuning_time_s().to_bits());
    assert_tasks_bit_identical(&warm, &resumed);
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
}
