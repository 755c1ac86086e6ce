//! Durable tuning persistence: the record-log sink, record replay, and the
//! checkpoint header.
//!
//! - [`RecordLogSink`] attaches a [`felix_records::RecordLog`] to the tuning
//!   loop as a [`MeasurementSink`]: every finished measurement and every
//!   supervisor decision is appended (and flushed) as one JSONL line. The
//!   sink is a pure observer — it never touches the RNG or the tuning
//!   clock — so a run with the log enabled is bit-identical to one without.
//!   A checkpointed run also commits each round through it, as one
//!   [`RoundRecord`] claiming the round's lines.
//! - [`replay_records`] rebuilds a fresh [`SearchTask`]'s search state from
//!   matching log records (warm start): incumbent, dedup set, fault history,
//!   failure streaks, and replay-buffer samples are reproduced exactly as a
//!   live run would have built them, because records apply through the same
//!   `record`/`record_failure` path in log order.
//! - A checkpoint directory holds a header ([`STATE_FILE`], a
//!   [`CheckpointState`]) written once before the first round, and the
//!   run's base model beside it ([`MODEL_FILE`]) unless the header names
//!   the device's pretrained model by hash (`Optimizer::pretrained`, what
//!   every serve job starts from). The rest of the run is its log's round
//!   commits, which a resume replays round by round onto that base.

use felix_ansor::{HealthEvent, MeasurementEvent, MeasurementSink, SearchTask, SketchMode};
use felix_records::schema::{Bits, Codec, Hex, List, Num, OrNull, Tag, Text};
use felix_records::{
    schema, task_key, HealthRecord, Json, LogLine, Record, RecordLog, RecordOutcome, RoundRecord,
    TuningRecord,
};
use felix_sim::FaultKind;
use std::path::Path;

/// Checkpoint header version, bumped on incompatible format changes.
/// Version 7 cut the header down to what precedes the run's first round;
/// the task states, weights, clock, RNG and curve of earlier versions are
/// now the record log's round commits. Version 8 dropped the store's
/// tenant namespace: a tenant is its own store file. Version 9 added the
/// pretrained base's hash, which replaces [`MODEL_FILE`] when present.
/// Version 10 added the cost model's arithmetic
/// ([`felix_cost::COST_MATH_VERSION`]): a version-9 run's fine-tunes
/// multiplied then added, and replaying them fused would resume into other
/// weights. Other versions are refused.
const CHECKPOINT_VERSION: usize = 10;

/// A [`MeasurementSink`] appending every measurement to a durable
/// [`RecordLog`]. Write errors are reported once to stderr and then disable
/// the sink for the rest of the run — persistence failure must never abort
/// (or perturb) the tuning run itself — so no round commits after one.
#[derive(Debug)]
pub struct RecordLogSink {
    log: RecordLog,
    device_name: String,
    pub(crate) failed: bool,
    /// Intact lines the log held when it was replayed (none when opened).
    pub(crate) start: usize,
    /// Lines appended since the last round commit.
    uncommitted: usize,
}

impl RecordLogSink {
    /// Opens (creating if needed) the log at `path` for appending.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from opening the file.
    pub fn open(path: impl AsRef<Path>, device_name: &str) -> std::io::Result<RecordLogSink> {
        Ok(RecordLogSink::new(RecordLog::open(path)?, device_name, 0))
    }

    /// Reads every intact line of the log at `path`, then opens it for
    /// appending.
    pub(crate) fn replay(
        path: impl AsRef<Path>,
        device_name: &str,
    ) -> std::io::Result<(RecordLogSink, Vec<LogLine>)> {
        let lines = felix_records::read_log(&path)?;
        let log = RecordLog::open(path)?;
        Ok((RecordLogSink::new(log, device_name, lines.len()), lines))
    }

    fn new(log: RecordLog, device_name: &str, start: usize) -> RecordLogSink {
        let device_name = device_name.to_string();
        RecordLogSink { log, device_name, failed: false, start, uncommitted: 0 }
    }

    /// The underlying log path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Commits round `round`, which tuned task `task` and left the RNG
    /// and clock at `rng` and `clock_s`: appends its [`RoundRecord`],
    /// claiming the lines appended since the last commit. Appends nothing
    /// once any append has failed.
    pub(crate) fn commit(&mut self, round: usize, task: usize, rng: [u64; 4], clock_s: f64) {
        if !self.failed {
            let record = RoundRecord { round, task, lines: self.uncommitted, rng, clock_s };
            let appended = self.log.append_round(&record);
            self.landed("round", appended);
            self.uncommitted = 0;
        }
    }

    /// Counts a line that landed; reports the first failure and disables
    /// the sink.
    fn landed(&mut self, what: &str, appended: std::io::Result<()>) {
        match appended {
            Ok(()) => self.uncommitted += 1,
            Err(e) => {
                eprintln!(
                    "[felix] {what}-record append to {} failed ({e}); persistence disabled for the rest of this run",
                    self.log.path().display()
                );
                self.failed = true;
            }
        }
    }
}

impl MeasurementSink for RecordLogSink {
    fn record(&mut self, event: &MeasurementEvent<'_>) {
        if self.failed {
            return;
        }
        let record = TuningRecord {
            task_key: task_key(event.workload_key, &self.device_name),
            task_name: event.task_name.to_string(),
            sketch: event.sketch,
            sketch_name: event.sketch_name.to_string(),
            values: event.values.to_vec(),
            outcome: match event.outcome {
                Ok(latency) => RecordOutcome::Ok(latency),
                Err(kind) => RecordOutcome::Fault(kind.label().to_string()),
            },
            retries: event.retries,
            time_s: event.time_s,
        };
        let appended = self.log.append(&record);
        self.landed("tuning", appended);
    }

    fn record_health(&mut self, event: &HealthEvent<'_>) {
        if self.failed {
            return;
        }
        let record = HealthRecord {
            task_key: task_key(event.workload_key, &self.device_name),
            round: event.round,
            nonfinite_events: event.report.nonfinite_events,
            divergence_events: event.report.divergence_events,
            seed_restarts: event.report.seed_restarts,
            grad_clips: event.report.grad_clips,
            panics_caught: event.report.panics_caught,
            modes: event.report.modes.iter().map(|m| m.label().to_string()).collect(),
            time_s: event.time_s,
        };
        let appended = self.log.append_health(&record);
        self.landed("health", appended);
    }
}

/// Applies one record to `task` if it is the task's and fits it (see
/// [`replay_records`]); returns whether it applied.
pub(crate) fn apply_record(task: &mut SearchTask, record: &Record, key: u64) -> bool {
    match record {
        Record::Measurement(rec) => {
            let shaped = task.sketches.get(rec.sketch).is_some_and(|st| {
                st.name == rec.sketch_name && st.program.vars.len() == rec.values.len()
            });
            if rec.task_key != key || !shaped || task.already_measured(rec.sketch, &rec.values) {
                return false;
            }
            match &rec.outcome {
                RecordOutcome::Ok(latency) => task.record(rec.sketch, rec.values.clone(), *latency),
                RecordOutcome::Fault(label) => {
                    let Some(kind) = FaultKind::from_label(label) else { return false };
                    task.record_failure(rec.sketch, rec.values.clone(), kind);
                }
            }
            task.retries += rec.retries;
            true
        }
        Record::Health(rec) => {
            if rec.task_key != key || rec.modes.len() != task.sketches.len() {
                return false;
            }
            let modes = rec.modes.iter().map(|l| SketchMode::from_label(l));
            let Some(modes) = modes.collect::<Option<Vec<_>>>() else { return false };
            task.set_sketch_modes(&modes);
            true
        }
    }
}

/// Rebuilds the replay-buffer samples of `task.measured[from..]` by
/// re-evaluating the closed-form features, bit for bit, and returns how
/// many there were.
pub(crate) fn push_samples(task: &mut SearchTask, from: usize) -> usize {
    for i in from..task.measured.len() {
        let (sk, vals, latency) = &task.measured[i];
        let st = &task.sketches[*sk];
        let sample = felix_cost::ingest_sample(&st.program, &st.features, vals, *latency);
        task.samples.push(sample);
    }
    task.measured.len() - from
}

/// Replays every record matching `task` (by [`task_key`] of its workload key
/// and the device) into its search state, in log order, and returns the
/// number of *successful* measurements replayed.
///
/// Measurement records apply through [`SearchTask::record`] /
/// `record_failure`, so the incumbent, dedup set, fault history and
/// failure streaks (hence quarantine) come out exactly as the original
/// run left them (the log preserves the success/failure interleaving the
/// streak logic depends on). Health records restore the per-sketch
/// supervision modes (each overwrites the last, so the final record wins —
/// a resumed run replays the same degradation decisions instead of
/// re-deriving them). Replay-buffer samples are rebuilt by re-evaluating the
/// closed-form features, reproducing them bit for bit. Records are skipped
/// defensively — stale sketch index or name, wrong value count, unknown
/// fault or mode label, wrong mode count, or already-measured candidate
/// (idempotent re-replay) — rather than trusted.
pub fn replay_records(task: &mut SearchTask, records: &[Record], device_name: &str) -> usize {
    let key = task_key(&task.workload_key, device_name);
    let n_before = task.measured.len();
    for record in records {
        apply_record(task, record, key);
    }
    push_samples(task, n_before)
}

/// What a task got from the schedule store when it was attached, which no
/// log line carries.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AttachedState {
    /// The exact hit `(sketch, values, latency_ms)`, if any.
    pub hit: Option<(usize, Vec<f64>, f64)>,
    /// Warm-start hints `(sketch, values)`.
    pub warm_hints: Vec<(usize, Vec<f64>)>,
}

/// A checkpoint directory's header ([`STATE_FILE`]), written once before
/// the first round: what the run started from and where its history is.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointState {
    /// Device the run targets, verified on resume.
    pub device_name: String,
    /// Fingerprint of the sketch generator that numbered the sketches the
    /// log's records refer to (`felix_tir::sketch::generator_hash`),
    /// verified on resume.
    pub generator: u64,
    /// The cost model's arithmetic the run's fine-tunes ran under
    /// ([`felix_cost::COST_MATH_VERSION`]), verified on resume, since a
    /// resume replays them.
    pub math: String,
    /// The FNV-1a hash of the saved bytes of the device's pretrained model
    /// when the run started from it unchanged: resume rebuilds that model
    /// and checks the hash, and the directory holds no [`MODEL_FILE`].
    /// `None` when [`MODEL_FILE`] holds the base.
    pub base: Option<u64>,
    /// The log attached with `with_record_log`, whose lines before
    /// `log_start` were replayed into the tasks; `None` when checkpointing
    /// opened [`LOG_FILE`] in the checkpoint directory.
    pub record_log: Option<String>,
    /// Intact lines in the log before this run's first line.
    pub log_start: usize,
    /// The attached schedule store, if any, reattached on resume for
    /// publishing only.
    pub schedule_store: Option<String>,
    /// Per-task schedule-store state, in task order.
    pub tasks: Vec<AttachedState>,
}

schema!(struct CheckpointState {
    ("version", Tag(CHECKPOINT_VERSION)), ("device", Text) => device_name,
    ("gen", Hex) => generator, ("math", Text) => math, ("base", OrNull(Hex)) => base,
    ("record_log", OrNull(Text)) => record_log, ("log_start", Num) => log_start,
    ("schedule_store", OrNull(Text)) => schedule_store, ("tasks", List(Attached)) => tasks,
});

/// An [`AttachedState`] as the array `[hit, hints]`: the hit is `null` or
/// `[sketch, values, latency_ms]`, a hint `[sketch, values]`, floats as bits.
struct Attached;

impl Codec<AttachedState> for Attached {
    fn enc(&self, task: &AttachedState) -> Json {
        let values = |vals: &Vec<f64>| List(Bits).enc(vals);
        let hit = task.hit.as_ref().map_or(Json::Null, |(sk, vals, latency)| {
            Json::Arr(vec![Num.enc(sk), values(vals), Bits.enc(latency)])
        });
        let hint = |(sk, vals): &(usize, Vec<f64>)| Json::Arr(vec![Num.enc(sk), values(vals)]);
        Json::Arr(vec![hit, Json::Arr(task.warm_hints.iter().map(hint).collect())])
    }
    fn dec(&self, node: &Json) -> Option<AttachedState> {
        let [hit, hints] = node.as_arr()? else { return None };
        let hit = match (hit, hit.as_arr()) {
            (Json::Null, _) => None,
            (_, Some([sk, vals, l])) => Some((Num.dec(sk)?, List(Bits).dec(vals)?, Bits.dec(l)?)),
            _ => return None,
        };
        let hint = |hint: &Json| match hint.as_arr()? {
            [sk, vals] => Some((Num.dec(sk)?, List(Bits).dec(vals)?)),
            _ => None,
        };
        let warm_hints = hints.as_arr()?.iter().map(hint).collect::<Option<_>>()?;
        Some(AttachedState { hit, warm_hints })
    }
}

/// Header filename inside a checkpoint directory.
pub const STATE_FILE: &str = "state.json";
/// Base cost-model filename inside a checkpoint directory. Absent when
/// the header names a pretrained base ([`CheckpointState::base`]).
pub const MODEL_FILE: &str = "model.bin";
/// Record-log filename inside a checkpoint directory, used when no log is
/// attached.
pub const LOG_FILE: &str = "records.jsonl";

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> CheckpointState {
        CheckpointState {
            device_name: "RTX A5000".to_string(),
            generator: 0x5EED_FACE,
            math: felix_cost::COST_MATH_VERSION.to_string(),
            base: Some(0xBA5E_F00D_0000_0001),
            record_log: Some("/tmp/records.jsonl".to_string()),
            log_start: 12,
            schedule_store: Some("/tmp/schedules.jsonl".to_string()),
            tasks: vec![
                AttachedState {
                    hit: Some((1, vec![2.0, 16.0, -0.0], f64::INFINITY)),
                    warm_hints: Vec::new(),
                },
                AttachedState { hit: None, warm_hints: vec![(0, vec![2.0, 8.0, 0.1 + 0.2])] },
            ],
        }
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly() {
        let state = sample_state();
        let text = state.to_json().write();
        let back = CheckpointState::from_json(&Json::parse(&text).expect("parse")).expect("decode");
        assert_eq!(back, state);
        let (_, vals, latency) = back.tasks[0].hit.as_ref().expect("hit");
        assert_eq!(latency.to_bits(), f64::INFINITY.to_bits(), "non-finite latency survives");
        assert_eq!(vals[2].to_bits(), (-0.0f64).to_bits(), "-0.0 preserved");
    }

    #[test]
    fn checkpoint_rejects_other_versions() {
        for version in [6.0, 7.0, 8.0, 9.0, 99.0] {
            let mut doc = sample_state().to_json();
            let Json::Obj(fields) = &mut doc else { panic!("obj") };
            fields[0].1 = Json::Num(version);
            assert!(CheckpointState::from_json(&doc).is_err(), "version {version}");
        }
    }

    #[test]
    fn absent_paths_round_trip_as_null() {
        let mut state = sample_state();
        state.base = None;
        state.record_log = None;
        state.schedule_store = None;
        let back = CheckpointState::from_json(&state.to_json()).expect("decode");
        assert_eq!(back, state);
    }
}
