//! The durable tuning-record store.
//!
//! Real autotuners treat measurement records as the durable asset: Ansor
//! replays its JSON log files to warm-start search, and TenSet is built
//! entirely out of persisted records. This crate gives the reproduction the
//! same property with two primitives:
//!
//! - [`RecordLog`] — an append-only JSONL log of every hardware measurement
//!   (one [`TuningRecord`] per line), supervisor decision ([`HealthRecord`])
//!   and, for a checkpointed run, round commit ([`RoundRecord`]). A crash
//!   loses at most the record being written; the reader recovers the
//!   intact prefix of a truncated log without error.
//! - [`write_document`] / [`read_document`] — crash-safe whole-document
//!   persistence for a checkpoint's header: the document is written to a
//!   temporary file, fsynced, and renamed into place, so a reader never
//!   observes a torn one.
//!
//! [`RecordLog`], [`ScheduleStore`] and [`JobWal`]/[`JobQueue`] are typed
//! faces over one private JSONL engine (`log.rs`), which alone knows the
//! torn-tail rule and the atomic rewrite; each store's state is the fold of
//! its log through one transition function.
//!
//! Everything is dependency-free; JSON comes from the in-crate [`json`]
//! module, whose number formatting round-trips every finite `f64`
//! bit-exactly (the foundation of the byte-identical resume guarantee).

pub mod jobs;
pub mod json;
mod log;
pub mod schema;
pub mod store;

pub use jobs::{
    read_job_records, JobOutcome, JobQueue, JobRecord, JobWal, QueueState, SubmittedJob,
    TerminalJob, JOB_RECORD_VERSION,
};
pub use json::Json;
pub use log::write_atomic;
pub use store::{ScheduleStore, StoredSchedule, SCHEDULE_STORE_VERSION};

use log::Log;
use schema::{Bits, Codec, Hex, List, Num, Tag, Text};
use std::path::Path;

/// How a logged measurement ended.
#[derive(Clone, Debug, PartialEq)]
pub enum RecordOutcome {
    /// The measurement succeeded with this latency in milliseconds.
    Ok(f64),
    /// The measurement failed after exhausting retries; the payload is the
    /// fault label (e.g. `"timeout"` — see `felix_sim::FaultKind::label`).
    Fault(String),
}

impl RecordOutcome {
    /// The latency if the measurement succeeded.
    pub fn latency_ms(&self) -> Option<f64> {
        match self {
            RecordOutcome::Ok(l) => Some(*l),
            RecordOutcome::Fault(_) => None,
        }
    }
}

/// One persisted measurement: everything needed to replay it into a fresh
/// search state (and to audit a tuning run after the fact).
#[derive(Clone, Debug, PartialEq)]
pub struct TuningRecord {
    /// Canonical task identity: [`task_key`] of the workload key + device.
    pub task_key: u64,
    /// Human-readable task name (display only; matching uses `task_key`).
    pub task_name: String,
    /// Sketch index within the task.
    pub sketch: usize,
    /// Sketch name, validated on replay so records from a stale sketch
    /// generator are skipped instead of corrupting the search state.
    pub sketch_name: String,
    /// The concrete schedule-variable assignment.
    pub values: Vec<f64>,
    /// Measured latency or fault label.
    pub outcome: RecordOutcome,
    /// Retry attempts this candidate consumed before its final outcome.
    pub retries: usize,
    /// Simulated tuning-clock time when the measurement completed.
    pub time_s: f64,
}

// Measurement lines carry no kind and no version: they predate both, and
// `LogLine::decode` reads every line without a kind as one.
schema!(struct TuningRecord {
    ("task", Hex) => task_key, ("name", Text) => task_name, ("sketch", Num) => sketch,
    ("sketch_name", Text) => sketch_name, ("values", List(Num)) => values,
    ("latency_ms", Outcome) => outcome, ("retries", Num) => retries, ("time_s", Num) => time_s,
});

/// A measurement's outcome: its latency under the row's key (`null` on a
/// fault) and, beside it, the fault label under `fault` (`null` on success).
struct Outcome;

impl Codec<RecordOutcome> for Outcome {
    fn enc(&self, v: &RecordOutcome) -> Json {
        v.latency_ms().map_or(Json::Null, Json::Num)
    }
    fn dec(&self, node: &Json) -> Option<RecordOutcome> {
        node.as_f64().map(RecordOutcome::Ok)
    }
    fn put(&self, key: &str, v: &RecordOutcome, out: &mut Vec<(String, Json)>) {
        let fault = match v {
            RecordOutcome::Fault(kind) => Json::Str(kind.clone()),
            RecordOutcome::Ok(_) => Json::Null,
        };
        out.extend([(key.to_string(), self.enc(v)), ("fault".to_string(), fault)]);
    }
    fn take(&self, doc: &Json, key: &str) -> Option<RecordOutcome> {
        let fault = || Some(RecordOutcome::Fault(doc.get("fault")?.as_str()?.to_string()));
        doc.get(key).and_then(|node| self.dec(node)).or_else(fault)
    }
}

/// Version of the health-record wire format. Bumped whenever a field is
/// added, removed, or re-encoded; readers skip lines of any other version
/// instead of guessing at their meaning. Version 2 dropped `overrun_s`.
pub const HEALTH_RECORD_VERSION: usize = 2;

/// One persisted descent-supervisor report: the health counters of a tuning
/// round plus the authoritative per-sketch proposer modes *after* the
/// round's degradation/recovery decisions were applied. Replaying these
/// lines restores the degradation state of a resumed run, so it keeps
/// making the same proposer choices as the run that wrote the log.
#[derive(Clone, Debug, PartialEq)]
pub struct HealthRecord {
    /// Canonical task identity: [`task_key`] of the workload key + device.
    pub task_key: u64,
    /// Tuning round (0-based) whose descent produced this report.
    pub round: usize,
    /// Non-finite objective/gradient/feature events observed.
    pub nonfinite_events: usize,
    /// Monotone-divergence events observed.
    pub divergence_events: usize,
    /// Seed restarts performed (from dedicated RNG substreams).
    pub seed_restarts: usize,
    /// Gradient-norm clips applied.
    pub grad_clips: usize,
    /// Worker panics caught and quarantined.
    pub panics_caught: usize,
    /// Per-sketch proposer-mode labels after applying this report (see
    /// `felix_ansor::SketchMode::label`); the authoritative replay state.
    pub modes: Vec<String>,
    /// Simulated tuning-clock time when the report was recorded.
    pub time_s: f64,
}

schema!(struct HealthRecord {
    ("kind", Tag("health")), ("v", Tag(HEALTH_RECORD_VERSION)), ("task", Hex) => task_key,
    ("round", Num) => round, ("nonfinite", Num) => nonfinite_events,
    ("divergence", Num) => divergence_events, ("restarts", Num) => seed_restarts,
    ("grad_clips", Num) => grad_clips, ("panics", Num) => panics_caught,
    ("modes", List(Text)) => modes, ("time_s", Num) => time_s,
});

/// One line of a mixed record log: either a hardware measurement or a
/// descent-supervisor health report.
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// A measurement line (no `kind` field — the original wire format).
    Measurement(TuningRecord),
    /// A `"kind":"health"` supervisor line.
    Health(HealthRecord),
}

/// Version of the round-record wire format; readers skip other versions.
pub const ROUND_RECORD_VERSION: usize = 1;

/// A checkpointed run's commit of one tuning round, appended after the
/// round's lines: it claims the `lines` intact lines right before it, and
/// carries the RNG and clock the lines cannot. Lines no commit claims (a
/// killed round's, a torn tail) are not part of the run.
#[derive(Clone, Debug, PartialEq)]
pub struct RoundRecord {
    /// Round number, 0-based across resumes.
    pub round: usize,
    /// Index of the task the round tuned.
    pub task: usize,
    /// Lines the round appended before this one.
    pub lines: usize,
    /// Master RNG state after the round (xoshiro256++ words).
    pub rng: [u64; 4],
    /// Simulated tuning-clock seconds after the round.
    pub clock_s: f64,
}

schema!(struct RoundRecord {
    ("kind", Tag("round")), ("v", Tag(ROUND_RECORD_VERSION)), ("round", Num) => round,
    ("task", Num) => task, ("lines", Num) => lines, ("rng", List(Hex)) => rng,
    ("clock_s", Bits) => clock_s,
});

/// One intact line of a record log. Every line counts toward a round
/// commit's claim, whatever it holds.
#[derive(Clone, Debug, PartialEq)]
pub enum LogLine {
    /// A measurement or health line.
    Record(Record),
    /// A round commit.
    Round(RoundRecord),
    /// A line of no known kind or version.
    Unknown,
}

impl LogLine {
    /// Measurement lines carry no `kind` field; any line *with* a kind is
    /// dispatched on it, so a future kind is skipped rather than misparsed
    /// as a measurement.
    fn decode(doc: &Json) -> LogLine {
        let line = match doc.get("kind").map(Json::as_str) {
            None => TuningRecord::from_json(doc).map(|r| LogLine::Record(Record::Measurement(r))),
            Some(Some("round")) => RoundRecord::from_json(doc).map(LogLine::Round),
            Some(_) => HealthRecord::from_json(doc).map(|r| LogLine::Record(Record::Health(r))),
        };
        line.unwrap_or(LogLine::Unknown)
    }

    /// The measurement or health record on this line, if any.
    pub fn into_record(self) -> Option<Record> {
        match self {
            LogLine::Record(record) => Some(record),
            LogLine::Round(_) | LogLine::Unknown => None,
        }
    }
}

/// The 64-bit FNV-1a offset basis: the `h` a fresh [`fnv1a`] hash starts
/// from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the running 64-bit FNV-1a hash `h`: the hash behind
/// the record log's task keys, the fingerprints of schedule-store entries
/// and of a checkpoint's pretrained base, the descent's RNG substream salts
/// and the serving tier's per-tenant store file names. Chain calls to hash
/// several fields. Two hashes keep code of their own:
/// `felix_tir::sketch::generator_hash`, the same FNV-1a in a crate this
/// one does not depend on, and `felix_sim::candidate_key`, which folds
/// whole 64-bit words instead of bytes.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

/// Canonical task identity: an FNV-1a hash over the workload key (the
/// subgraph's stable dedup key) and the device name, so a log can hold
/// records for many networks and devices and each task replays only its
/// own.
pub fn task_key(workload_key: &str, device_name: &str) -> u64 {
    let h = fnv1a(FNV_OFFSET, workload_key.as_bytes());
    fnv1a(fnv1a(h, b"\x00"), device_name.as_bytes())
}

/// An append-only JSONL measurement log.
///
/// Every append reaches the OS before it returns, so an interrupted run
/// loses at most the line being written when the process died.
/// [`read_all_records`] tolerates exactly that failure mode: a record counts
/// only if its line is newline-terminated and parses, so a truncated tail is
/// skipped silently and every intact record before it is recovered.
#[derive(Debug)]
pub struct RecordLog {
    log: Log,
}

impl RecordLog {
    /// Opens (creating if needed) a log at `path` for appending.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from opening the file.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<RecordLog> {
        Ok(RecordLog { log: Log::open(path.as_ref())? })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Appends one record. After `append` returns, a crash of this process
    /// can no longer lose the record.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing.
    pub fn append(&mut self, record: &TuningRecord) -> std::io::Result<()> {
        self.log.append(&record.to_json())
    }

    /// Appends one supervisor health report, with the same durability as
    /// [`RecordLog::append`].
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing.
    pub fn append_health(&mut self, record: &HealthRecord) -> std::io::Result<()> {
        self.log.append(&record.to_json())
    }

    /// Appends one round commit, with the same durability as
    /// [`RecordLog::append`].
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing.
    pub fn append_round(&mut self, record: &RoundRecord) -> std::io::Result<()> {
        self.log.append(&record.to_json())
    }
}

/// Reads every intact line of a mixed log at `path` — measurements and
/// health reports, in append order, including lines appended by earlier
/// processes. A missing file reads as an empty log. A truncated or corrupt
/// tail is ignored; torn middle lines (e.g. from concurrent writers),
/// round commits and unknown-kind lines are skipped line-wise the same way.
///
/// # Errors
///
/// Returns I/O errors other than the file not existing.
pub fn read_all_records(path: impl AsRef<Path>) -> std::io::Result<Vec<Record>> {
    Ok(read_log(path)?.into_iter().filter_map(LogLine::into_record).collect())
}

/// Reads every intact line of the log at `path` in append order, by
/// [`read_all_records`]' rules, each decoded as a [`LogLine`].
///
/// # Errors
///
/// Returns I/O errors other than the file not existing.
pub fn read_log(path: impl AsRef<Path>) -> std::io::Result<Vec<LogLine>> {
    let mut out = Vec::new();
    log::read(path.as_ref(), |doc| out.push(LogLine::decode(doc)))?;
    Ok(out)
}

/// Atomically persists a JSON document at `path`: the bytes are written to
/// a sibling temporary file, fsynced, and renamed over the target, so a
/// concurrent or post-crash reader sees either the old document or the new
/// one — never a torn mix.
///
/// # Errors
///
/// Returns any I/O error from writing, syncing, or renaming.
pub fn write_document(path: impl AsRef<Path>, doc: &Json) -> std::io::Result<()> {
    let mut text = doc.write();
    text.push('\n');
    write_atomic(path, text.as_bytes())
}

/// Reads a JSON document written by [`write_document`].
///
/// # Errors
///
/// Returns the underlying I/O error, or `InvalidData` on malformed JSON.
pub fn read_document(path: impl AsRef<Path>) -> std::io::Result<Json> {
    let text = std::fs::read_to_string(path)?;
    Json::parse(text.trim_end_matches('\n'))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::tests::{every_truncation_recovers_the_intact_prefix, tmp_path};
    use std::fs::OpenOptions;
    use std::io::Write;

    fn sample_record(i: usize) -> TuningRecord {
        TuningRecord {
            task_key: task_key("dense[256]", "RTX A5000"),
            task_name: "dense[256, 512]".to_string(),
            sketch: i % 2,
            sketch_name: "multi-level-tiling".to_string(),
            values: vec![2.0, 16.0, 4.0, i as f64],
            outcome: if i.is_multiple_of(3) {
                RecordOutcome::Fault("timeout".to_string())
            } else {
                RecordOutcome::Ok(1.25 + i as f64 * 0.1)
            },
            retries: i % 2,
            time_s: 3.5 * i as f64 + 0.125,
        }
    }

    #[test]
    fn append_and_read_round_trips() {
        let path = tmp_path("roundtrip");
        let mut log = RecordLog::open(&path).expect("open");
        let records: Vec<TuningRecord> = (0..10).map(sample_record).collect();
        for r in &records {
            log.append(r).expect("append");
        }
        let want: Vec<Record> = records.into_iter().map(Record::Measurement).collect();
        assert_eq!(read_all_records(&path).expect("read"), want);
        // Reopening appends rather than truncating.
        drop(log);
        let mut log = RecordLog::open(&path).expect("reopen");
        log.append(&sample_record(10)).expect("append");
        assert_eq!(read_all_records(&path).expect("read").len(), 11);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn latencies_round_trip_bit_exactly() {
        let path = tmp_path("bits");
        let mut log = RecordLog::open(&path).expect("open");
        let noisy = 1.234_567_890_123_456_7 * (1.0 + 1e-15);
        let mut rec = sample_record(1);
        rec.outcome = RecordOutcome::Ok(noisy);
        rec.time_s = 0.1 + 0.2; // classic non-representable sum
        log.append(&rec).expect("append");
        let Record::Measurement(back) = read_all_records(&path).expect("read").remove(0) else {
            panic!("measurement record")
        };
        let RecordOutcome::Ok(l) = back.outcome else { panic!("ok record") };
        assert_eq!(l.to_bits(), noisy.to_bits());
        assert_eq!(back.time_s.to_bits(), rec.time_s.to_bits());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_log_reads_empty() {
        assert!(read_all_records(tmp_path("missing")).expect("read").is_empty());
    }

    fn sample_health(round: usize) -> HealthRecord {
        HealthRecord {
            task_key: task_key("dense[256]", "RTX A5000"),
            round,
            nonfinite_events: 3 * round,
            divergence_events: round,
            seed_restarts: 2 * round + 1,
            grad_clips: round,
            panics_caught: round % 2,
            modes: vec!["gd".to_string(), "evo".to_string()],
            time_s: 12.5 * round as f64,
        }
    }

    fn sample_round(round: usize) -> RoundRecord {
        RoundRecord {
            round,
            task: round % 3,
            lines: round + 1,
            rng: [1, u64::MAX, 0xDEAD_BEEF, round as u64],
            clock_s: 0.1 + 0.2 * round as f64,
        }
    }

    #[test]
    fn record_log_recovers_the_intact_prefix_at_every_truncation() {
        let lines: Vec<LogLine> = (0..9)
            .map(|i| match i % 3 {
                0 => LogLine::Record(Record::Measurement(sample_record(i))),
                1 => LogLine::Record(Record::Health(sample_health(i))),
                _ => LogLine::Round(sample_round(i)),
            })
            .collect();
        every_truncation_recovers_the_intact_prefix(
            8,
            |path, i| {
                let mut log = RecordLog::open(path).expect("open");
                match &lines[i] {
                    LogLine::Record(Record::Measurement(m)) => log.append(m),
                    LogLine::Record(Record::Health(h)) => log.append_health(h),
                    LogLine::Round(r) => log.append_round(r),
                    LogLine::Unknown => unreachable!("no unknown lines are written"),
                }
                .expect("append");
            },
            |path| read_log(path).expect("read"),
            |survivors| survivors.iter().map(|&i| lines[i].clone()).collect(),
        );
    }

    #[test]
    fn round_records_round_trip_bit_exactly_and_stay_out_of_the_records() {
        let path = tmp_path("rounds");
        let mut log = RecordLog::open(&path).expect("open");
        log.append(&sample_record(1)).expect("append");
        log.append_round(&sample_round(0)).expect("append");
        log.append_round(&sample_round(1)).expect("append");
        let mut other = sample_round(2).to_json();
        let Json::Obj(fields) = &mut other else { panic!("obj") };
        fields[1].1 = Json::Num((ROUND_RECORD_VERSION + 1) as f64);
        log.log.append(&other).expect("append");
        assert_eq!(
            read_log(&path).expect("read"),
            vec![
                LogLine::Record(Record::Measurement(sample_record(1))),
                LogLine::Round(sample_round(0)),
                LogLine::Round(sample_round(1)),
                LogLine::Unknown,
            ]
        );
        assert_eq!(
            read_all_records(&path).expect("read"),
            vec![Record::Measurement(sample_record(1))]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mixed_log_preserves_append_order() {
        let path = tmp_path("mixed");
        let mut log = RecordLog::open(&path).expect("open");
        log.append(&sample_record(1)).expect("append");
        log.append_health(&sample_health(0)).expect("append");
        log.append(&sample_record(2)).expect("append");
        let all = read_all_records(&path).expect("read all");
        assert_eq!(
            all,
            vec![
                Record::Measurement(sample_record(1)),
                Record::Health(sample_health(0)),
                Record::Measurement(sample_record(2)),
            ]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn newer_version_and_unknown_kind_lines_are_skipped() {
        let path = tmp_path("future");
        let mut log = RecordLog::open(&path).expect("open");
        for version in [HEALTH_RECORD_VERSION - 1, HEALTH_RECORD_VERSION + 1] {
            let mut other = sample_health(1).to_json();
            let Json::Obj(fields) = &mut other else { panic!("obj") };
            fields[1].1 = Json::Num(version as f64);
            log.log.append(&other).expect("append");
        }
        drop(log);
        let mut f = OpenOptions::new().append(true).open(&path).expect("open");
        writeln!(f, "{{\"kind\":\"telemetry\",\"x\":1}}").expect("write");
        writeln!(f, "{}", sample_record(4).to_json().write()).expect("write");
        drop(f);
        assert_eq!(
            read_all_records(&path).expect("read"),
            vec![Record::Measurement(sample_record(4))]
        );
        std::fs::remove_file(&path).ok();
    }

    /// Published FNV-1a test vectors plus one key computed by the
    /// hand-copied loops this function replaced: every on-disk key, cache
    /// fingerprint and RNG substream salt in the workspace hangs off these
    /// constants and this byte order.
    #[test]
    fn fnv1a_matches_fixed_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"), fnv1a(FNV_OFFSET, b"foobar"));
        assert_eq!(task_key("dense[256]", "RTX A5000"), 0x9284_3d3f_1978_b009);
    }

    #[test]
    fn task_key_separates_workloads_and_devices() {
        let a = task_key("dense[256]", "RTX A5000");
        assert_eq!(a, task_key("dense[256]", "RTX A5000"));
        assert_ne!(a, task_key("dense[512]", "RTX A5000"));
        assert_ne!(a, task_key("dense[256]", "A10G"));
        // The separator prevents boundary ambiguity.
        assert_ne!(task_key("ab", "c"), task_key("a", "bc"));
    }

    #[test]
    fn document_write_is_atomic_and_round_trips() {
        let path = tmp_path("doc");
        let doc = Json::obj(vec![
            ("clock", Json::f64_bits(123.456)),
            ("round", Json::Num(7.0)),
        ]);
        write_document(&path, &doc).expect("write");
        assert_eq!(read_document(&path).expect("read"), doc);
        // Overwrite goes through the same tmp+rename path.
        let doc2 = Json::obj(vec![("round", Json::Num(8.0))]);
        write_document(&path, &doc2).expect("rewrite");
        assert_eq!(read_document(&path).expect("read"), doc2);
        assert!(!path.with_extension("tmp").exists(), "tmp file renamed away");
        std::fs::remove_file(&path).ok();
    }
}
