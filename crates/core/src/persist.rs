//! Durable tuning persistence: the record-log sink, record replay, and the
//! checkpoint document format.
//!
//! Three layers, all built on `felix-records`:
//!
//! - [`RecordLogSink`] attaches a [`felix_records::RecordLog`] to the tuning
//!   loop as a [`MeasurementSink`]: every finished measurement is appended
//!   (and flushed) as one JSONL line. The sink is a pure observer — it never
//!   touches the RNG or the tuning clock — so a run with the log enabled is
//!   bit-identical to one without.
//! - [`replay_records`] rebuilds a fresh [`SearchTask`]'s search state from
//!   matching log records (warm start): incumbent, dedup set, fault history,
//!   failure streaks, and replay-buffer samples are reproduced exactly as a
//!   live run would have built them, because records apply through the same
//!   `record`/`record_failure` path in log order.
//! - [`checkpoint_to_json`] / [`checkpoint_from_json`] serialize the tuner
//!   state restore cannot recompute (task snapshots, clock, RNG position,
//!   history curve) with every float as an exact bit pattern, so a resumed
//!   run continues the time-vs-latency curve byte-identically.

use felix_ansor::{
    CurvePoint, HealthEvent, MeasurementEvent, MeasurementSink, SearchTask, SketchMode,
    TaskSnapshot,
};
use felix_records::{
    task_key, HealthRecord, Json, Record, RecordLog, RecordOutcome, TuningRecord,
    HEALTH_RECORD_VERSION,
};
use felix_sim::FaultKind;
use std::path::Path;

/// Checkpoint document version, bumped on incompatible format changes.
/// Version 2.0 added per-sketch supervision modes to task snapshots;
/// version 3.0 added schedule-store attachment and per-task warm hints;
/// version 4.0 added the schedule-store tenant namespace; version 5.0
/// added the sketch-generator stamp; version 6.0 dropped what restore
/// recomputes (the incumbent, per-kind fault counts, quarantine flags),
/// keeping `retries` as the one stored fault counter.
const CHECKPOINT_VERSION: f64 = 6.0;

/// A [`MeasurementSink`] appending every measurement to a durable
/// [`RecordLog`]. Write errors are reported once to stderr and then disable
/// the sink for the rest of the run — persistence failure must never abort
/// (or perturb) the tuning run itself.
#[derive(Debug)]
pub struct RecordLogSink {
    log: RecordLog,
    device_name: String,
    failed: bool,
}

impl RecordLogSink {
    /// Opens (creating if needed) the log at `path` for appending.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from opening the file.
    pub fn open(path: impl AsRef<Path>, device_name: &str) -> std::io::Result<RecordLogSink> {
        Ok(RecordLogSink {
            log: RecordLog::open(path)?,
            device_name: device_name.to_string(),
            failed: false,
        })
    }

    /// The underlying log path.
    pub fn path(&self) -> &Path {
        self.log.path()
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
        if let Err(e) = self.log.append(&record) {
            eprintln!(
                "[felix] tuning-record append to {} failed ({e}); persistence disabled for the rest of this run",
                self.log.path().display()
            );
            self.failed = true;
        }
    }

    fn record_health(&mut self, event: &HealthEvent<'_>) {
        if self.failed {
            return;
        }
        let record = HealthRecord {
            version: HEALTH_RECORD_VERSION,
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
        if let Err(e) = self.log.append_health(&record) {
            eprintln!(
                "[felix] health-record append to {} failed ({e}); persistence disabled for the rest of this run",
                self.log.path().display()
            );
            self.failed = true;
        }
    }
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
        match record {
            Record::Measurement(rec) => {
                if rec.task_key != key {
                    continue;
                }
                let Some(st) = task.sketches.get(rec.sketch) else { continue };
                if st.name != rec.sketch_name || rec.values.len() != st.program.vars.len() {
                    continue;
                }
                if task.already_measured(rec.sketch, &rec.values) {
                    continue;
                }
                match &rec.outcome {
                    RecordOutcome::Ok(latency) => {
                        task.record(rec.sketch, rec.values.clone(), *latency);
                    }
                    RecordOutcome::Fault(label) => {
                        let Some(kind) = FaultKind::from_label(label) else { continue };
                        task.record_failure(rec.sketch, rec.values.clone(), kind);
                    }
                }
                task.retries += rec.retries;
            }
            Record::Health(rec) => {
                if rec.task_key != key || rec.modes.len() != task.sketches.len() {
                    continue;
                }
                let Some(modes) = rec
                    .modes
                    .iter()
                    .map(|l| SketchMode::from_label(l))
                    .collect::<Option<Vec<SketchMode>>>()
                else {
                    continue;
                };
                task.set_sketch_modes(&modes);
            }
        }
    }
    for i in n_before..task.measured.len() {
        let (sk, vals, latency) = &task.measured[i];
        let st = &task.sketches[*sk];
        let sample = felix_cost::ingest_sample(&st.program, &st.features, vals, *latency);
        task.samples.push(sample);
    }
    task.measured.len() - n_before
}

/// The tuner state a checkpoint persists (everything restore cannot
/// recompute, except the cost-model weights, which live in a sibling
/// binary file).
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointState {
    /// Device the run targets, verified on resume.
    pub device_name: String,
    /// Fingerprint of the sketch generator that numbered the sketches the
    /// task snapshots refer to (`felix_tir::sketch::generator_hash`),
    /// verified on resume.
    pub generator: u64,
    /// Simulated tuning-clock position in seconds.
    pub clock_s: f64,
    /// Master RNG state (xoshiro256++ words).
    pub rng_state: [u64; 4],
    /// Tuning rounds completed so far.
    pub rounds_done: usize,
    /// Checkpoint cadence (rounds between checkpoints).
    pub checkpoint_every: usize,
    /// Path of the attached record log, if any, so resume reattaches it.
    pub record_log: Option<String>,
    /// Path of the attached schedule store, if any, so resume reattaches
    /// it (for best-schedule publication only — hits and warm hints are
    /// applied once at attach time, never re-derived on resume).
    pub schedule_store: Option<String>,
    /// Tenant namespace the schedule store was attached under, if any, so
    /// resume republishes into the same namespace.
    pub schedule_ns: Option<String>,
    /// The time-vs-latency curve accumulated so far.
    pub history: Vec<CurvePoint>,
    /// Per-task search-state snapshots, in task order.
    pub tasks: Vec<TaskSnapshot>,
}

fn values_to_json(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::f64_bits(v)).collect())
}

fn values_from_json(node: &Json) -> Option<Vec<f64>> {
    node.as_arr()?.iter().map(Json::as_f64_bits).collect()
}

fn snapshot_to_json(snap: &TaskSnapshot) -> Json {
    Json::obj(vec![
        ("workload_key", Json::Str(snap.workload_key.clone())),
        (
            "measured",
            Json::Arr(
                snap.measured
                    .iter()
                    .map(|(sk, vals, latency)| {
                        Json::Arr(vec![
                            Json::Num(*sk as f64),
                            values_to_json(vals),
                            Json::f64_bits(*latency),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "failed",
            Json::Arr(
                snap.failed
                    .iter()
                    .map(|(sk, vals, kind)| {
                        Json::Arr(vec![
                            Json::Num(*sk as f64),
                            values_to_json(vals),
                            Json::Str(kind.label().to_string()),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("retries", Json::Num(snap.retries as f64)),
        (
            "fail_streak",
            Json::Arr(snap.fail_streak.iter().map(|&s| Json::Num(s as f64)).collect()),
        ),
        (
            "modes",
            Json::Arr(
                snap.sketch_modes
                    .iter()
                    .map(|m| Json::Str(m.label().to_string()))
                    .collect(),
            ),
        ),
        (
            "warm_hints",
            Json::Arr(
                snap.warm_hints
                    .iter()
                    .map(|(sk, vals)| {
                        Json::Arr(vec![Json::Num(*sk as f64), values_to_json(vals)])
                    })
                    .collect(),
            ),
        ),
        ("rounds", Json::Num(snap.rounds as f64)),
    ])
}

fn snapshot_from_json(doc: &Json) -> Option<TaskSnapshot> {
    let mut snap = TaskSnapshot {
        workload_key: doc.get("workload_key")?.as_str()?.to_string(),
        measured: Vec::new(),
        failed: Vec::new(),
        retries: doc.get("retries")?.as_usize()?,
        fail_streak: doc
            .get("fail_streak")?
            .as_arr()?
            .iter()
            .map(Json::as_usize)
            .collect::<Option<Vec<usize>>>()?,
        sketch_modes: doc
            .get("modes")?
            .as_arr()?
            .iter()
            .map(|m| SketchMode::from_label(m.as_str()?))
            .collect::<Option<Vec<SketchMode>>>()?,
        warm_hints: Vec::new(),
        rounds: doc.get("rounds")?.as_usize()?,
    };
    for entry in doc.get("warm_hints")?.as_arr()? {
        let [sk, vals] = entry.as_arr()? else { return None };
        snap.warm_hints.push((sk.as_usize()?, values_from_json(vals)?));
    }
    for entry in doc.get("measured")?.as_arr()? {
        let [sk, vals, latency] = entry.as_arr()? else { return None };
        snap.measured.push((sk.as_usize()?, values_from_json(vals)?, latency.as_f64_bits()?));
    }
    for entry in doc.get("failed")?.as_arr()? {
        let [sk, vals, label] = entry.as_arr()? else { return None };
        snap.failed.push((
            sk.as_usize()?,
            values_from_json(vals)?,
            FaultKind::from_label(label.as_str()?)?,
        ));
    }
    Some(snap)
}

/// Serializes the checkpoint state as one JSON document. Every float is a
/// bit-pattern string ([`Json::f64_bits`]), so the document survives
/// non-finite incumbents and round-trips every value exactly.
pub fn checkpoint_to_json(state: &CheckpointState) -> Json {
    Json::obj(vec![
        ("version", Json::Num(CHECKPOINT_VERSION)),
        ("device", Json::Str(state.device_name.clone())),
        ("gen", Json::u64_hex(state.generator)),
        ("clock_s", Json::f64_bits(state.clock_s)),
        (
            "rng",
            Json::Arr(state.rng_state.iter().map(|&w| Json::u64_hex(w)).collect()),
        ),
        ("rounds_done", Json::Num(state.rounds_done as f64)),
        ("checkpoint_every", Json::Num(state.checkpoint_every as f64)),
        (
            "record_log",
            match &state.record_log {
                Some(p) => Json::Str(p.clone()),
                None => Json::Null,
            },
        ),
        (
            "schedule_store",
            match &state.schedule_store {
                Some(p) => Json::Str(p.clone()),
                None => Json::Null,
            },
        ),
        (
            "schedule_ns",
            match &state.schedule_ns {
                Some(ns) => Json::Str(ns.clone()),
                None => Json::Null,
            },
        ),
        (
            "history",
            Json::Arr(
                state
                    .history
                    .iter()
                    .map(|p| {
                        Json::Arr(vec![Json::f64_bits(p.time_s), Json::f64_bits(p.latency_ms)])
                    })
                    .collect(),
            ),
        ),
        ("tasks", Json::Arr(state.tasks.iter().map(snapshot_to_json).collect())),
    ])
}

/// Decodes a checkpoint document; `None` on any structural mismatch
/// (including an unknown version).
pub fn checkpoint_from_json(doc: &Json) -> Option<CheckpointState> {
    if doc.get("version")?.as_f64()? != CHECKPOINT_VERSION {
        return None;
    }
    let rng_words = doc
        .get("rng")?
        .as_arr()?
        .iter()
        .map(Json::as_u64_hex)
        .collect::<Option<Vec<u64>>>()?;
    let mut history = Vec::new();
    for entry in doc.get("history")?.as_arr()? {
        let [time_s, latency_ms] = entry.as_arr()? else { return None };
        history.push(CurvePoint {
            time_s: time_s.as_f64_bits()?,
            latency_ms: latency_ms.as_f64_bits()?,
        });
    }
    Some(CheckpointState {
        device_name: doc.get("device")?.as_str()?.to_string(),
        generator: doc.get("gen")?.as_u64_hex()?,
        clock_s: doc.get("clock_s")?.as_f64_bits()?,
        rng_state: rng_words.try_into().ok()?,
        rounds_done: doc.get("rounds_done")?.as_usize()?,
        checkpoint_every: doc.get("checkpoint_every")?.as_usize()?,
        record_log: match doc.get("record_log")? {
            Json::Null => None,
            node => Some(node.as_str()?.to_string()),
        },
        schedule_store: match doc.get("schedule_store")? {
            Json::Null => None,
            node => Some(node.as_str()?.to_string()),
        },
        schedule_ns: match doc.get("schedule_ns")? {
            Json::Null => None,
            node => Some(node.as_str()?.to_string()),
        },
        history,
        tasks: doc
            .get("tasks")?
            .as_arr()?
            .iter()
            .map(snapshot_from_json)
            .collect::<Option<Vec<TaskSnapshot>>>()?,
    })
}

/// State-document filename inside a checkpoint directory.
pub const STATE_FILE: &str = "state.json";
/// Cost-model filename inside a checkpoint directory.
pub const MODEL_FILE: &str = "model.bin";

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> CheckpointState {
        CheckpointState {
            device_name: "RTX A5000".to_string(),
            generator: 0x5EED_FACE,
            clock_s: 0.1 + 0.2,
            rng_state: [1, u64::MAX, 0xDEAD_BEEF, 42],
            rounds_done: 7,
            checkpoint_every: 2,
            record_log: Some("/tmp/records.jsonl".to_string()),
            schedule_store: Some("/tmp/schedules.jsonl".to_string()),
            schedule_ns: Some("tenant-a".to_string()),
            history: vec![
                CurvePoint { time_s: 1.5, latency_ms: 10.25 },
                CurvePoint { time_s: 3.0, latency_ms: 1.0 / 3.0 },
            ],
            // One consistent history: sketch 0 has two variables and
            // sketch 1 three; sketch 1's failure came after its success,
            // so its streak is 1.
            tasks: vec![TaskSnapshot {
                workload_key: "[Dense { m: 256, k: 512, n: 512 }]".to_string(),
                measured: vec![
                    (0, vec![4.0, 8.0], 1.125),
                    (1, vec![2.0, 16.0, -0.0], f64::INFINITY),
                ],
                failed: vec![(1, vec![2.0, 2.0, 4.0], FaultKind::Timeout)],
                retries: 2,
                fail_streak: vec![0, 1],
                sketch_modes: vec![SketchMode::ClippedGradient, SketchMode::Evolutionary],
                warm_hints: vec![(0, vec![2.0, 8.0, 0.1 + 0.2])],
                rounds: 4,
            }],
        }
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly() {
        let state = sample_state();
        let doc = checkpoint_to_json(&state);
        let text = doc.write();
        let back = checkpoint_from_json(&Json::parse(&text).expect("parse")).expect("decode");
        assert_eq!(back, state);
        assert_eq!(back.clock_s.to_bits(), state.clock_s.to_bits());
        let (_, vals, latency) = &back.tasks[0].measured[1];
        assert_eq!(latency.to_bits(), f64::INFINITY.to_bits(), "non-finite latency survives");
        assert_eq!(vals[2].to_bits(), (-0.0f64).to_bits(), "-0.0 preserved");
    }

    #[test]
    fn checkpoint_rejects_unknown_version() {
        let mut doc = checkpoint_to_json(&sample_state());
        let Json::Obj(fields) = &mut doc else { panic!("obj") };
        fields[0].1 = Json::Num(99.0);
        assert!(checkpoint_from_json(&doc).is_none());
    }

    #[test]
    fn no_record_log_round_trips_as_null() {
        let mut state = sample_state();
        state.record_log = None;
        state.schedule_store = None;
        state.schedule_ns = None;
        let back =
            checkpoint_from_json(&checkpoint_to_json(&state)).expect("decode");
        assert_eq!(back.record_log, None);
        assert_eq!(back.schedule_store, None);
        assert_eq!(back.schedule_ns, None);
    }
}
