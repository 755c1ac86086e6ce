//! End-to-end tests of the durable tuning-record store and crash-safe
//! checkpoint/resume: resuming a killed run reproduces the uninterrupted
//! time-vs-latency curve byte for byte — from a clean round boundary, from
//! a log cut inside a round or its commit, and from a log whose appends
//! started failing, whether the checkpoint copies its base model or names
//! the pretrained one — replaying a record log warm-starts a fresh optimizer,
//! and — with the store disabled or the log empty — the persistence layer
//! perturbs nothing at any thread count.

mod common;
#[path = "../../records/tests/support/wire.rs"]
mod wire;

use common::{assert_tasks_bit_identical, history_bits, quick_options, tiny_network, tmp_dir};
use felix::persist::{AttachedState, CheckpointState, LOG_FILE, MODEL_FILE, STATE_FILE};
use felix::{extract_subgraphs, pretrained_cost_model, FelixOptions, ModelQuality, Optimizer};
use felix_ansor::SearchTask;
use felix_cost::COST_MATH_VERSION;
use felix_graph::models;
use felix_records::{fnv1a, Json, FNV_OFFSET};
use felix_sim::{DeviceConfig, FaultPlan};
use std::path::Path;

#[test]
fn resume_from_checkpoint_matches_uninterrupted_curve() {
    // The tentpole acceptance bar: checkpoint every round, kill the run
    // halfway (drop the optimizer), resume from disk, and finish. The
    // concatenated time-vs-latency curve — and the final task states —
    // must be byte-identical to a run that was never interrupted (and
    // never persisted anything), at 1, 2 and 4 tuner threads, from either
    // kind of base model.
    for threads in [1usize, 2, 4] {
        let base = uninterrupted(threads);
        let m = base.rounds_done() / 2;
        for kind in BASES {
            let dir = tmp_dir("resume");
            {
                let mut first = checkpointed(&dir, threads, kind);
                first.optimize_all(m, 4);
                assert_eq!(first.rounds_done(), m);
                // Dropped here: the "crash".
            }
            assert_resumes_at(&dir, m, &base, threads);
        }
    }
}

/// Where a checkpoint's base model comes from.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Base {
    /// A caller's model (`Optimizer::with_options`), copied into
    /// `MODEL_FILE`.
    Supplied,
    /// `Optimizer::pretrained`, named in the header by its hash.
    Pretrained,
}

const BASES: [Base; 2] = [Base::Supplied, Base::Pretrained];

/// An optimizer over the tiny network from `kind` of base, not yet run.
/// Both kinds start from the same model bytes.
fn fresh(kind: Base, threads: usize) -> Optimizer {
    let device = DeviceConfig::a5000();
    match kind {
        Base::Supplied => {
            let model = pretrained_cost_model(&device, ModelQuality::Fast);
            Optimizer::with_options(tiny_network(), model, device, quick_options(threads))
        }
        Base::Pretrained => Optimizer::pretrained(tiny_network(), device, quick_options(threads)),
    }
}

/// A checkpointed optimizer over the tiny network, not yet run.
fn checkpointed(dir: &Path, threads: usize, kind: Base) -> Optimizer {
    fresh(kind, threads).with_checkpointing(dir, 1)
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
    let mut base = fresh(Base::Supplied, threads);
    base.optimize_all(base.tasks().len() + 2, 4);
    base
}

/// The checkpoint header in `dir`.
fn header(dir: &Path) -> CheckpointState {
    let doc = felix_records::read_document(dir.join(STATE_FILE)).expect("read header");
    CheckpointState::from_json(&doc).expect("decode header")
}

/// FNV-1a over the saved bytes of the device's pretrained model.
fn pretrained_hash() -> u64 {
    let mut bytes = Vec::new();
    let model = pretrained_cost_model(&DeviceConfig::a5000(), ModelQuality::Fast);
    model.save(&mut bytes).expect("save");
    fnv1a(FNV_OFFSET, &bytes)
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

/// The header round-trips through its wire table bit for bit over seeded
/// values, and a header missing any key is refused with an error naming it.
#[test]
fn checkpoint_header_round_trips_and_names_a_missing_field() {
    let mut rng = wire::Rng(0x5eed_0005);
    let path = |rng: &mut wire::Rng| rng.next().is_multiple_of(2).then(|| rng.text());
    for _ in 0..300 {
        let state = CheckpointState {
            device_name: rng.text(),
            generator: rng.hex(),
            math: rng.text(),
            base: rng.next().is_multiple_of(2).then(|| rng.hex()),
            record_log: path(&mut rng),
            log_start: rng.count(),
            schedule_store: path(&mut rng),
            tasks: rng.list(|r| AttachedState {
                hit: r
                    .next()
                    .is_multiple_of(2)
                    .then(|| (r.count(), r.list(wire::Rng::bits), r.bits())),
                warm_hints: r.list(|r| (r.count(), r.list(wire::Rng::bits))),
            }),
        };
        let to_json = CheckpointState::to_json;
        for (key, err) in wire::round_trips(&state, to_json, CheckpointState::from_json, &[]) {
            assert!(err.contains(&format!("{key:?}")), "removing {key:?} gave {err:?}");
        }
    }
}

#[test]
fn resume_rejects_mismatched_checkpoints() {
    let dir = tmp_dir("mismatch");
    checkpointed(&dir, 1, Base::Pretrained).optimize_all(2, 4);
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
    let state = dir.join(STATE_FILE);
    let live = felix_tir::sketch::generator_hash();
    let text = std::fs::read_to_string(&state).expect("read state");
    let stale = text.replace(
        &format!("\"gen\":\"{live:016x}\""),
        &format!("\"gen\":\"{:016x}\"", !live),
    );
    assert!(text != stale, "the header carries the live generator stamp");
    std::fs::write(&state, stale).expect("rewrite state");
    refused("a generator mismatch");
    // A version-6, -7 or -8 document, whatever it holds, is refused, not
    // half-read.
    for version in [6.0, 7.0, 8.0] {
        let old = edit_field(text.trim_end(), "version", |v| *v = Json::Num(version));
        std::fs::write(&state, old).expect("write an old state");
        refused(&format!("a version-{version} checkpoint"));
    }
    // A header naming another pretrained base: the model this build
    // pretrains is not the one the run started from.
    std::fs::write(&state, &text).expect("restore state");
    let live = pretrained_hash();
    assert_eq!(header(&dir).base, Some(live), "the header names the pretrained base");
    let other = edit_field(text.trim_end(), "base", |b| *b = Json::u64_hex(live ^ 1));
    std::fs::write(&state, other).expect("write another base's state");
    refused("another pretrained base");
    std::fs::write(&state, &text).expect("restore state");
    // Other cost-model arithmetic: replaying the run's fine-tunes would
    // resume into other weights. A version-9 header is what builds that
    // multiplied then added wrote, with no arithmetic named at all.
    assert_eq!(header(&dir).math, COST_MATH_VERSION, "the header names the live arithmetic");
    let other_math = edit_field(text.trim_end(), "math", |m| *m = Json::Str("unfused".into()));
    std::fs::write(&state, other_math).expect("write another arithmetic's state");
    refused("another cost-model arithmetic");
    let Json::Obj(mut fields) = Json::parse(text.trim_end()).expect("parse header") else {
        panic!("the header is an object")
    };
    fields.retain(|(k, _)| k != "math");
    fields[0].1 = Json::Num(9.0);
    std::fs::write(&state, Json::Obj(fields).write()).expect("write an unfused-build state");
    refused("a checkpoint written under the unfused arithmetic");
    std::fs::write(&state, &text).expect("restore state");

    // Logs whose commits do not fit the rebuilt tasks: a round naming a
    // task the network does not have, and a committed measurement one
    // value short of its sketch. Each is an error result, not a panic in
    // the replay.
    let log = dir.join(LOG_FILE);
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
    // A supplied base is copied into `MODEL_FILE` once, before the first
    // round; a pretrained one is named in the header and never copied.
    let device = DeviceConfig::a5000();
    let mut base_bytes = Vec::new();
    pretrained_cost_model(&device, ModelQuality::Fast).save(&mut base_bytes).expect("save");
    for kind in BASES {
        let dir = tmp_dir("model-once");
        let mut opt = checkpointed(&dir, 1, kind);
        let model_file = dir.join(MODEL_FILE);
        opt.optimize_all(1, 4);
        if kind == Base::Pretrained {
            assert!(!model_file.exists(), "a pretrained base was copied");
            assert_eq!(header(&dir).base, Some(fnv1a(FNV_OFFSET, &base_bytes)));
            opt.optimize_all(opt.tasks().len() + 1, 4);
            assert!(!model_file.exists(), "a later round copied the base");
        } else {
            assert_eq!(header(&dir).base, None);
            assert_eq!(std::fs::read(&model_file).expect("read model"), base_bytes);
            let modified = std::fs::metadata(&model_file).and_then(|m| m.modified());
            opt.optimize_all(opt.tasks().len() + 1, 4);
            assert_eq!(std::fs::read(&model_file).expect("read model"), base_bytes);
            let again = std::fs::metadata(&model_file).and_then(|m| m.modified());
            assert_eq!(again.expect("mtime"), modified.expect("mtime"));
        }
        opt.save_checkpoint().expect("every round is committed: a no-op");
    }
}

#[test]
fn uncommitted_and_torn_rounds_resume_to_the_last_commit() {
    // The kill windows, made deterministic: a log ending in a round's
    // lines without their commit, and one ending in half a commit. Each
    // resumes to the round before, continues byte-identically, and leaves
    // the dropped lines in the log, where a second resume skips them.
    for threads in [1, 2] {
        let base = uninterrupted(threads);
        let m = base.rounds_done() / 2;
        for (kind, torn) in BASES.into_iter().flat_map(|kind| [(kind, false), (kind, true)]) {
            let dir = tmp_dir("kill-window");
            checkpointed(&dir, threads, kind).optimize_all(m + 1, 4);
            let log = dir.join(LOG_FILE);
            let bytes = std::fs::read(&log).expect("read log");
            let text = String::from_utf8(bytes.clone()).expect("utf-8 log");
            let lines: Vec<&str> = text.lines().collect();
            assert!(is_commit(lines[lines.len() - 1]) && !is_commit(lines[lines.len() - 2]));
            let commit = lines[lines.len() - 1].len();
            let commit_start = bytes.len() - commit - 1;
            let cut = if torn { commit_start + commit / 2 } else { commit_start };
            std::fs::write(&log, &bytes[..cut]).expect("cut the log");
            assert_resumes_at(&dir, m, &base, threads);
            let after = std::fs::read(&log).expect("read log");
            assert_eq!(&after[..cut], &bytes[..cut], "the log is only ever appended to");
            assert_resumes_at(&dir, base.rounds_done(), &base, threads);
        }
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
    for kind in BASES {
        let dir = tmp_dir("closed-fifo");
        let log = dir.join(LOG_FILE);
        let landed = dir.join("landed.jsonl");
        let made = std::process::Command::new("mkfifo").arg(&log).status().expect("run mkfifo");
        assert!(made.success());
        let reader = {
            let (log, landed) = (log.clone(), landed.clone());
            std::thread::spawn(move || {
                let fifo = std::fs::File::open(log).expect("open read end");
                let fifo = std::io::BufReader::new(fifo);
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
        let mut opt = checkpointed(&dir, threads, kind);
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
}

#[test]
fn resume_replays_the_warm_start_prefix() {
    // A checkpointed run that started from an existing log: resume replays
    // the lines before the run's start as the warm start did, then the
    // run's own commits. The warm start fine-tuned the model, so the
    // checkpoint copies it whichever kind of base the run started from.
    let device = DeviceConfig::a5000();
    let model = pretrained_cost_model(&device, ModelQuality::Fast);
    let dir = tmp_dir("warm-prefix");
    let log = dir.join("shared.jsonl");
    let mut earlier = Optimizer::with_options(tiny_network(), model, device, quick_options(1))
        .with_record_log(&log)
        .expect("open record log");
    earlier.optimize_all(3, 4);
    for kind in BASES {
        let ckpt = dir.join(format!("ckpt-{kind:?}"));
        let mut warm = fresh(kind, 1)
            .with_record_log(&log)
            .expect("replay record log")
            .with_checkpointing(&ckpt, 1);
        warm.optimize_all(4, 4);
        assert!(ckpt.join(MODEL_FILE).exists(), "{kind:?}: a fine-tuned base was not copied");
        assert_eq!(header(&ckpt).base, None);
        let resumed = resume(&ckpt, 1).expect("resume from checkpoint");
        assert_eq!(resumed.rounds_done(), 4);
        assert_eq!(history_bits(&resumed), history_bits(&warm));
        assert_eq!(resumed.rng_state(), warm.rng_state());
        assert_eq!(resumed.tuning_time_s().to_bits(), warm.tuning_time_s().to_bits());
        assert_tasks_bit_identical(&warm, &resumed);
    }
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
