//! Durable job-queue records for the tuning service.
//!
//! The serving tier (`felix-serve`) fronts the tuner with a write-ahead
//! log: every submitted job is appended here *before* the client sees an
//! acknowledgment, and every terminal transition is appended with the
//! job's result document inside it. Because the WAL is the only
//! authority on queue membership, a worker killed at any instant recovers
//! the exact queue by replaying the log: a job that was running when the
//! worker died has no terminal line, so it is simply still pending.
//! Which shard runs a job is not durable state and is not logged.
//!
//! ## Job lifecycle
//!
//! Every job walks a durable state machine:
//!
//! ```text
//! submitted ──────────────► done         (job-done)
//!     │      run to budget
//!     ├─────────────────────► cancelled   (job-cancel … job-cancelled)
//!     │      cancel honored between ticks
//!     ├─────────────────────► expired     (job-expired, deadline hit)
//!     │
//!     └─────────────────────► quarantined (job-crash ×N … job-quarantined)
//!            worker panics/dies N times
//! ```
//!
//! The four terminal states are each proven by their own WAL line, which
//! carries the job's (possibly partial) result — the only copy, and the
//! one a `result` request serves.
//! `job-cancel` records the *request* (durable before the cancel is
//! acknowledged); the matching `job-cancelled` terminal line lands when a
//! worker honors it between tuning rounds. `job-crash` persists a
//! cumulative per-job crash counter so a poison job is parked as
//! `quarantined` on replay instead of crash-looping the daemon forever.
//!
//! ## State is a fold of the log
//!
//! [`QueueState::apply`] is the queue's one transition function.
//! [`QueueState::replay`] folds it over a record sequence, and a live
//! [`JobQueue`] changes only through [`JobQueue::commit`]: append the
//! record, *then* apply it. A failed append returns the error and leaves
//! the state untouched, so memory always equals the replay of the file.
//!
//! The wire format follows the crate's house rules: JSONL with one record
//! per line, an append is in the OS before it returns, torn tails are
//! skipped on read, and every fractional number is encoded as a
//! 16-hex-digit bit pattern so replay is bit-exact. A line of an unknown
//! `job-*` kind (such as the `job-claim` lines older daemons wrote) is
//! skipped like a foreign one. Compaction atomically rewrites the log to
//! its canonical minimal form: per job, one submit line, then either its
//! terminal line or its standing cancel request and crash count. A
//! terminal line thus supersedes the job's cancel and crash lines, and
//! duplicates collapse, so finished jobs stop costing startup time and
//! disk.

use crate::log::{self, Log};
use crate::schema::{Bits, Codec, Hex, Num, Raw, Tag, Text};
use crate::{schema, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// Version of the job-record wire format. Bumped whenever a field is
/// added, removed, or re-encoded; readers skip lines of any other version
/// instead of guessing at their meaning.
pub const JOB_RECORD_VERSION: usize = 2;

/// How a job left the queue — the four terminal states of the lifecycle
/// state machine. Exactly one terminal WAL line exists per finished job
/// (duplicates from idempotent re-finalization keep the first).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// Ran its full round budget.
    Done,
    /// A durable cancel request was honored between tuning rounds; the
    /// result document holds the partial state at the last round boundary.
    Cancelled,
    /// The job's wall-clock deadline elapsed before its budget did; the
    /// result document holds the partial state at the last round boundary.
    Expired,
    /// The job crashed its worker too many times and is parked; the result
    /// document is an error report.
    Quarantined,
}

impl JobOutcome {
    /// Every terminal state.
    pub const ALL: [JobOutcome; 4] =
        [JobOutcome::Done, JobOutcome::Cancelled, JobOutcome::Expired, JobOutcome::Quarantined];

    /// The WAL line kind for this terminal state.
    pub fn kind(self) -> &'static str {
        match self {
            JobOutcome::Done => "job-done",
            JobOutcome::Cancelled => "job-cancelled",
            JobOutcome::Expired => "job-expired",
            JobOutcome::Quarantined => "job-quarantined",
        }
    }

    /// The client-facing state string (`"done"`, `"cancelled"`,
    /// `"expired"`, `"quarantined"`): the kind without its `job-` prefix.
    pub fn state(self) -> &'static str {
        &self.kind()["job-".len()..]
    }
}

/// One line of the job WAL.
///
/// The job spec and result travel as opaque [`Json`] documents: the WAL
/// layer guarantees durability and ordering, while the serving tier owns
/// the schema — so a spec-format change never forces a WAL-format bump.
#[derive(Clone, Debug, PartialEq)]
pub enum JobRecord {
    /// A job entered the queue. Appended (and flushed) before the client
    /// is acknowledged, so an acked job can never be lost.
    Submitted {
        /// Queue-wide job identity, assigned by the frontend.
        job_id: u64,
        /// Owning tenant: names its schedule-store file and its fairness
        /// share.
        tenant: String,
        /// Opaque job spec, interpreted by the serving tier.
        spec: Json,
        /// Wall-clock submission time (Unix milliseconds). Anchors the
        /// job's deadline across restarts. Observability and deadline
        /// arithmetic only — it never feeds the deterministic tuning state.
        submitted_at_ms: u64,
    },
    /// A cancel request was durably accepted. The job stays pending until
    /// a worker honors the request between ticks and appends the
    /// [`JobOutcome::Cancelled`] terminal line; a crash in between leaves
    /// the request standing, so the cancel is honored on replay.
    CancelRequested {
        /// The job to cancel.
        job_id: u64,
    },
    /// The job's worker crashed (panicked or died) while running it.
    /// `count` is cumulative, so replay takes the maximum and duplicate
    /// lines are harmless. At the quarantine threshold the next
    /// adoption parks the job instead of running it.
    CrashCounted {
        /// The crashing job.
        job_id: u64,
        /// Total crashes attributed to this job so far.
        count: u32,
    },
    /// The job reached a terminal state. The line carries the result
    /// document, so a terminal line is the servable result.
    Finished {
        /// The finished job.
        job_id: u64,
        /// Which terminal state.
        outcome: JobOutcome,
        /// Tuning rounds the job consumed.
        rounds: usize,
        /// Best end-to-end latency achieved (milliseconds; bit-exact on
        /// the wire; `inf` when nothing was measured).
        latency_ms: f64,
        /// Opaque result summary, interpreted by the serving tier.
        result: Json,
    },
}

impl JobRecord {
    /// The record's job id.
    pub fn job_id(&self) -> u64 {
        match *self {
            JobRecord::Submitted { job_id, .. }
            | JobRecord::CancelRequested { job_id }
            | JobRecord::CrashCounted { job_id, .. }
            | JobRecord::Finished { job_id, .. } => job_id,
        }
    }
}

/// The `v` row every job line carries.
const V: (&str, Tag<usize>) = ("v", Tag(JOB_RECORD_VERSION));

// A terminal line's kind is its outcome's (`JobOutcome::kind`); a line of
// any other `job-*` kind, or of another version, does not decode and is
// skipped.
schema!(enum JobRecord {
    Submitted {
        ("kind", Tag("job-submit")), V, ("job", Hex) => job_id, ("tenant", Text) => tenant,
        ("spec", Raw) => spec, ("at_ms", Hex) => submitted_at_ms,
    },
    CancelRequested { ("kind", Tag("job-cancel")), V, ("job", Hex) => job_id },
    CrashCounted { ("kind", Tag("job-crash")), V, ("job", Hex) => job_id, ("count", Num) => count },
    Finished {
        ("kind", Terminal) => outcome, V, ("job", Hex) => job_id, ("rounds", Num) => rounds,
        ("latency_ms", Bits) => latency_ms, ("result", Raw) => result,
    },
});

/// A terminal state as its line kind, [`JobOutcome::kind`].
struct Terminal;

impl Codec<JobOutcome> for Terminal {
    fn enc(&self, v: &JobOutcome) -> Json {
        Json::Str(v.kind().to_string())
    }
    fn dec(&self, node: &Json) -> Option<JobOutcome> {
        JobOutcome::ALL.into_iter().find(|o| node.as_str() == Some(o.kind()))
    }
}

/// The append side of the job WAL: once `append` returns the record
/// survives any crash of this process.
#[derive(Debug)]
pub struct JobWal {
    log: Log,
}

impl JobWal {
    /// Opens (creating if needed) the WAL at `path` for appending.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from opening the file.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<JobWal> {
        Ok(JobWal { log: Log::open(path.as_ref())? })
    }

    /// The WAL's path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing.
    pub fn append(&mut self, record: &JobRecord) -> std::io::Result<()> {
        self.log.append(&record.to_json())
    }

    /// Atomically rewrites the WAL to the canonical record sequence of
    /// `state` (see [`QueueState::canonical_records`]): a reader (or a
    /// crash) concurrent with the compaction sees either the old log or
    /// the compacted one, never a torn mix, and both replay to the same
    /// state. Duplicate lines collapse to one, and a terminal line
    /// supersedes the job's cancel request and crash count.
    /// Returns the number of lines written.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing, syncing, renaming, or reopening
    /// the append handle.
    pub fn compact(&mut self, state: &QueueState) -> std::io::Result<usize> {
        self.log.rewrite(state.canonical_records().iter().map(JobRecord::to_json))
    }
}

/// Reads the intact job records of a WAL at `path`, in append order. A
/// missing file reads as an empty log; torn, corrupt, non-job, or
/// other-version lines are skipped with the same rules as
/// [`crate::read_all_records`].
///
/// # Errors
///
/// Returns I/O errors other than the file not existing.
pub fn read_job_records(path: impl AsRef<Path>) -> std::io::Result<Vec<JobRecord>> {
    let mut out = Vec::new();
    log::read(path.as_ref(), |doc| out.extend(JobRecord::from_json(doc)))?;
    Ok(out)
}

/// A job still in the queue (submitted, not yet terminal).
#[derive(Clone, Debug, PartialEq)]
pub struct SubmittedJob {
    /// Queue-wide job identity.
    pub job_id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Opaque job spec as submitted.
    pub spec: Json,
    /// Wall-clock submission time (Unix milliseconds). Anchors the job's
    /// deadline across restarts.
    pub submitted_at_ms: u64,
}

/// A job in a terminal state, as proven by its terminal WAL line.
#[derive(Clone, Debug, PartialEq)]
pub struct TerminalJob {
    /// Which terminal state the job reached.
    pub outcome: JobOutcome,
    /// Tuning rounds the job consumed.
    pub rounds: usize,
    /// Best end-to-end latency achieved (milliseconds; `inf` when nothing
    /// was measured).
    pub latency_ms: f64,
    /// Opaque result summary (partial for cancelled/expired jobs, an
    /// error report for quarantined ones).
    pub result: Json,
}

/// A live job's standing requests, as its WAL lines left them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LiveJob {
    /// A cancel request stands: the worker honors it between ticks (or at
    /// adoption after a restart).
    pub cancel_requested: bool,
    /// The cumulative crash count, once a crash line names the job
    /// (duplicate lines merge by maximum).
    pub crash_count: Option<u32>,
}

impl LiveJob {
    /// Crashes attributed to the job so far.
    pub fn crashes(&self) -> u32 {
        self.crash_count.unwrap_or(0)
    }
}

/// The queue state a WAL replays to. Deterministic: the same record
/// sequence always yields the same state. The fields are readable by
/// anyone; the only writers are [`QueueState::apply`] and, for a live
/// daemon, [`JobQueue`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueueState {
    /// Every submitted job, in WAL (= acknowledgment) order, including
    /// terminal ones. Duplicate submit lines for one id keep the first.
    pub submitted: Vec<SubmittedJob>,
    /// Submitted, non-terminal jobs by id, each with its standing cancel
    /// request and crash count. A job's terminal line moves it from here to
    /// `terminal`, so only a live job holds either.
    pub live_jobs: BTreeMap<u64, LiveJob>,
    /// Finished jobs by id, whatever their terminal state. Duplicate
    /// terminal lines for one id keep the first (re-finalization after a
    /// crash re-appends identically).
    pub terminal: BTreeMap<u64, TerminalJob>,
}

impl QueueState {
    /// The queue's one transition function: folds one record into the
    /// state. Replay and the live daemon both go through here, which is
    /// what keeps memory equal to the replay of the file. A request or a
    /// terminal line for a job that is not live (a duplicate, or a job
    /// never submitted) changes nothing, so replaying a log and replaying
    /// its [`QueueState::canonical_records`] compaction yield the same
    /// state.
    pub fn apply(&mut self, record: &JobRecord) {
        let id = record.job_id();
        match record {
            JobRecord::Submitted { tenant, spec, submitted_at_ms, .. } => {
                if !self.live_jobs.contains_key(&id) && !self.terminal.contains_key(&id) {
                    self.submitted.push(SubmittedJob {
                        job_id: id,
                        tenant: tenant.clone(),
                        spec: spec.clone(),
                        submitted_at_ms: *submitted_at_ms,
                    });
                    self.live_jobs.insert(id, LiveJob::default());
                }
            }
            JobRecord::CancelRequested { .. } => {
                if let Some(live) = self.live_jobs.get_mut(&id) {
                    live.cancel_requested = true;
                }
            }
            JobRecord::CrashCounted { count, .. } => {
                if let Some(live) = self.live_jobs.get_mut(&id) {
                    live.crash_count = Some(live.crashes().max(*count));
                }
            }
            JobRecord::Finished { outcome, rounds, latency_ms, result, .. } => {
                if self.live_jobs.remove(&id).is_some() {
                    self.terminal.insert(
                        id,
                        TerminalJob {
                            outcome: *outcome,
                            rounds: *rounds,
                            latency_ms: *latency_ms,
                            result: result.clone(),
                        },
                    );
                }
            }
        }
    }

    /// Replays a record sequence (as read by [`read_job_records`]) into
    /// the queue state: [`QueueState::apply`] folded over it.
    pub fn replay(records: &[JobRecord]) -> QueueState {
        let mut state = QueueState::default();
        for record in records {
            state.apply(record);
        }
        state
    }

    /// Jobs submitted but not yet terminal, in submission order. A job
    /// with a standing cancel request is still pending: a worker must
    /// adopt it to checkpoint its partial result and write the terminal
    /// line.
    pub fn pending(&self) -> Vec<&SubmittedJob> {
        self.submitted.iter().filter(|j| self.live_jobs.contains_key(&j.job_id)).collect()
    }

    /// Number of live (non-terminal) jobs — the quantity admission
    /// control bounds.
    pub fn live(&self) -> usize {
        self.live_jobs.len()
    }

    /// Number of live (non-terminal) jobs owned by `tenant` — the
    /// quantity the per-tenant quota bounds.
    pub fn tenant_live(&self, tenant: &str) -> usize {
        self.submitted
            .iter()
            .filter(|j| j.tenant == tenant && self.live_jobs.contains_key(&j.job_id))
            .count()
    }

    /// The submitted job with this id, if any.
    pub fn job(&self, job_id: u64) -> Option<&SubmittedJob> {
        self.submitted.iter().find(|j| j.job_id == job_id)
    }

    /// The smallest id strictly greater than every submitted job's —
    /// what the frontend assigns to the next submission.
    pub fn next_job_id(&self) -> u64 {
        self.submitted.iter().map(|j| j.job_id + 1).max().unwrap_or(0)
    }

    /// The canonical minimal record sequence that replays to this state:
    /// per job, in submission order — its submit line, then (live jobs
    /// only) its cancel request and crash count if any, then its terminal
    /// line if any. This is what [`JobWal::compact`] writes.
    pub fn canonical_records(&self) -> Vec<JobRecord> {
        let mut out = Vec::new();
        for job in &self.submitted {
            out.push(JobRecord::Submitted {
                job_id: job.job_id,
                tenant: job.tenant.clone(),
                spec: job.spec.clone(),
                submitted_at_ms: job.submitted_at_ms,
            });
            if let Some(done) = self.terminal.get(&job.job_id) {
                out.push(JobRecord::Finished {
                    job_id: job.job_id,
                    outcome: done.outcome,
                    rounds: done.rounds,
                    latency_ms: done.latency_ms,
                    result: done.result.clone(),
                });
            } else if let Some(live) = self.live_jobs.get(&job.job_id) {
                if live.cancel_requested {
                    out.push(JobRecord::CancelRequested { job_id: job.job_id });
                }
                if let Some(count) = live.crash_count {
                    out.push(JobRecord::CrashCounted { job_id: job.job_id, count });
                }
            }
        }
        out
    }

    /// Number of lines [`QueueState::canonical_records`] would write —
    /// the lower bound a size-triggered compaction compares the actual
    /// line count against.
    pub fn canonical_len(&self) -> usize {
        let lines = |l: &LiveJob| usize::from(l.cancel_requested) + usize::from(l.crash_count.is_some());
        self.submitted.len() + self.terminal.len() + self.live_jobs.values().map(lines).sum::<usize>()
    }
}

/// A live durable queue: the WAL and the state it replays to, changed
/// only through [`JobQueue::commit`] so the two cannot drift apart.
#[derive(Debug)]
pub struct JobQueue {
    wal: JobWal,
    state: QueueState,
}

impl JobQueue {
    /// Opens (creating if needed) the WAL at `path` and replays it.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from reading or opening the file.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<JobQueue> {
        let mut state = QueueState::default();
        let log = Log::replay(path.as_ref(), |doc| {
            if let Ok(record) = JobRecord::from_json(doc) {
                state.apply(&record);
            }
        })?;
        Ok(JobQueue { wal: JobWal { log }, state })
    }

    /// The current queue state (read-only; see [`JobQueue::commit`]).
    pub fn state(&self) -> &QueueState {
        &self.state
    }

    /// Intact lines currently in the WAL file — what a size-triggered
    /// compaction compares against [`QueueState::canonical_len`].
    pub fn wal_lines(&self) -> usize {
        self.wal.log.lines()
    }

    /// The only way a live queue changes: appends `record` to the WAL,
    /// then applies it to the state.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from appending. The state is then exactly
    /// what it was, and still equals the replay of the file.
    pub fn commit(&mut self, record: &JobRecord) -> std::io::Result<()> {
        self.wal.append(record)?;
        self.state.apply(record);
        Ok(())
    }

    /// Compacts the WAL to the state's canonical records (see
    /// [`JobWal::compact`]); the state already equals their replay.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the rewrite.
    pub fn compact(&mut self) -> std::io::Result<()> {
        self.wal.compact(&self.state).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::tests::{every_truncation_recovers_the_intact_prefix, tmp_path};
    use std::fs::OpenOptions;
    use std::io::Write;

    fn sample_records() -> Vec<JobRecord> {
        vec![
            JobRecord::Submitted {
                job_id: 0,
                tenant: "acme".to_string(),
                spec: Json::obj(vec![("model", Json::Str("dcgan".to_string()))]),
                submitted_at_ms: 1_700_000_000_123,
            },
            JobRecord::Submitted {
                job_id: 1,
                tenant: "globex".to_string(),
                spec: Json::obj(vec![("rounds", Json::Num(3.0))]),
                submitted_at_ms: 1_700_000_000_456,
            },
            JobRecord::Finished {
                job_id: 0,
                outcome: JobOutcome::Done,
                rounds: 3,
                latency_ms: 0.1 + 0.2, // non-representable sum
                result: Json::obj(vec![("best", Json::f64_bits(1.25))]),
            },
        ]
    }

    /// One record of every lifecycle kind, exercising every terminal
    /// outcome plus the request/counter lines.
    fn lifecycle_records() -> Vec<JobRecord> {
        let mut records = sample_records();
        records.extend([
            JobRecord::Submitted {
                job_id: 2,
                tenant: "initech".to_string(),
                spec: Json::obj(vec![("deadline_ms", Json::Num(0.0))]),
                submitted_at_ms: 1_700_000_001_000,
            },
            JobRecord::Submitted {
                job_id: 3,
                tenant: "initech".to_string(),
                spec: Json::Null,
                submitted_at_ms: 1_700_000_002_000,
            },
            JobRecord::Submitted {
                job_id: 4,
                tenant: "hooli".to_string(),
                spec: Json::Null,
                submitted_at_ms: 1_700_000_003_000,
            },
            JobRecord::Submitted {
                job_id: 5,
                tenant: "hooli".to_string(),
                spec: Json::Null,
                submitted_at_ms: 1_700_000_004_000,
            },
            JobRecord::CancelRequested { job_id: 1 },
            JobRecord::Finished {
                job_id: 1,
                outcome: JobOutcome::Cancelled,
                rounds: 1,
                latency_ms: f64::INFINITY,
                result: Json::obj(vec![("state", Json::Str("cancelled".to_string()))]),
            },
            JobRecord::Finished {
                job_id: 2,
                outcome: JobOutcome::Expired,
                rounds: 0,
                latency_ms: f64::INFINITY,
                result: Json::obj(vec![("state", Json::Str("expired".to_string()))]),
            },
            JobRecord::CrashCounted { job_id: 3, count: 1 },
            JobRecord::CrashCounted { job_id: 3, count: 2 },
            JobRecord::CrashCounted { job_id: 4, count: 3 },
            JobRecord::Finished {
                job_id: 4,
                outcome: JobOutcome::Quarantined,
                rounds: 1,
                latency_ms: f64::INFINITY,
                result: Json::obj(vec![("error", Json::Str("quarantined".to_string()))]),
            },
            JobRecord::CancelRequested { job_id: 5 },
        ]);
        records
    }

    #[test]
    fn replay_orders_pending() {
        let state = QueueState::replay(&sample_records());
        assert_eq!(state.submitted.len(), 2);
        assert!(state.terminal.contains_key(&0));
        let pending = state.pending();
        assert_eq!(pending.len(), 1, "a job without a terminal line stays pending");
        assert_eq!(pending[0].job_id, 1);
        assert_eq!(pending[0].tenant, "globex");
        assert_eq!(state.next_job_id(), 2);
        assert_eq!(state.live(), 1);
        assert_eq!(state.tenant_live("acme"), 0);
        assert_eq!(state.tenant_live("globex"), 1);
    }

    #[test]
    fn replay_folds_the_full_lifecycle() {
        let state = QueueState::replay(&lifecycle_records());
        assert_eq!(state.submitted.len(), 6);
        // Terminal states land with their outcomes; first line wins.
        assert_eq!(state.terminal[&0].outcome, JobOutcome::Done);
        assert_eq!(state.terminal[&1].outcome, JobOutcome::Cancelled);
        assert_eq!(state.terminal[&2].outcome, JobOutcome::Expired);
        assert_eq!(state.terminal[&4].outcome, JobOutcome::Quarantined);
        // A terminal job is not live, so its cancel and crash lines are
        // gone with it…
        assert!(!state.live_jobs.contains_key(&1) && !state.live_jobs.contains_key(&4));
        // …but they stand on live jobs (counts merge by maximum).
        assert_eq!(state.live_jobs[&5], LiveJob { cancel_requested: true, crash_count: None });
        assert_eq!(state.live_jobs[&3], LiveJob { cancel_requested: false, crash_count: Some(2) });
        // Pending = the two live jobs, in order; one is cancel-requested.
        let pending: Vec<u64> = state.pending().iter().map(|j| j.job_id).collect();
        assert_eq!(pending, vec![3, 5]);
        assert_eq!(state.live(), 2);
        assert_eq!(state.tenant_live("hooli"), 1);
    }

    #[test]
    fn replay_is_idempotent_under_duplicates() {
        let mut records = lifecycle_records();
        // A crash between finalizing and the terminal append re-finalizes:
        // the WAL can hold the same terminal (and cancel, crash) line
        // twice.
        records.push(records[2].clone());
        records.push(records[0].clone());
        records.push(JobRecord::CancelRequested { job_id: 5 });
        records.push(JobRecord::CrashCounted { job_id: 3, count: 1 });
        assert_eq!(
            QueueState::replay(&records),
            QueueState::replay(&lifecycle_records())
        );
    }

    #[test]
    fn torn_tail_foreign_and_other_version_lines_are_skipped() {
        let path = tmp_path("torn");
        let mut wal = JobWal::open(&path).expect("open");
        for r in sample_records() {
            wal.append(&r).expect("append");
        }
        drop(wal);
        let mut f = OpenOptions::new().append(true).open(&path).expect("open");
        // A foreign (non-job) line, a newer- and an older-version job line
        // (the latter without the `at_ms` stamp version 2 requires), then a
        // torn tail with no newline.
        writeln!(f, "{{\"kind\":\"health\",\"v\":1}}").expect("write");
        for version in [JOB_RECORD_VERSION + 1, JOB_RECORD_VERSION - 1] {
            writeln!(
                f,
                "{{\"kind\":\"job-submit\",\"v\":{version},\"job\":\"0000000000000007\",\
                 \"tenant\":\"acme\",\"spec\":null}}"
            )
            .expect("write");
        }
        write!(f, "{{\"kind\":\"job-submit\",\"v\":2,\"job\":\"00").expect("write");
        drop(f);
        assert_eq!(read_job_records(&path).expect("read"), sample_records());
        std::fs::remove_file(&path).ok();
    }

    /// Every record kind and terminal outcome, as the torn tail and as part
    /// of the surviving prefix; the last cut is the bit-exact round trip.
    #[test]
    fn wal_recovers_the_intact_prefix_at_every_truncation_of_every_line_kind() {
        let mut records = lifecycle_records();
        let n = records.len();
        records.push(records[0].clone());
        every_truncation_recovers_the_intact_prefix(
            n,
            |path, i| JobWal::open(path).expect("open").append(&records[i]).expect("append"),
            |path| read_job_records(path).expect("read"),
            |survivors| survivors.iter().map(|&i| records[i].clone()).collect(),
        );
    }

    #[test]
    fn compaction_is_idempotent() {
        let path = tmp_path("compact-idem");
        let mut wal = JobWal::open(&path).expect("open");
        let records = lifecycle_records();
        for r in &records {
            wal.append(r).expect("append");
        }
        let state = QueueState::replay(&read_job_records(&path).expect("read"));
        // The first rewrite runs: job 1's cancel request, job 3's first
        // crash count and job 4's count are superseded.
        assert_eq!(wal.compact(&state).expect("compact"), records.len() - 3);
        let once = std::fs::read(&path).expect("read");
        let state = QueueState::replay(&read_job_records(&path).expect("read"));
        wal.compact(&state).expect("compact again");
        assert_eq!(std::fs::read(&path).expect("read"), once, "second compact is a no-op");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_wal_reads_empty() {
        assert!(read_job_records(tmp_path("missing")).expect("read").is_empty());
        let state = QueueState::replay(&[]);
        assert!(state.pending().is_empty());
        assert_eq!(state.next_job_id(), 0);
        assert_eq!(state.live(), 0);
    }

    /// Seeded random lifecycle traffic over a handful of job ids, in any
    /// order — so duplicates, zero counts and requests against finished or
    /// unknown jobs all occur.
    fn random_record(next: &mut impl FnMut() -> u64) -> JobRecord {
        let job_id = next() % 6;
        let outcomes =
            [JobOutcome::Done, JobOutcome::Cancelled, JobOutcome::Expired, JobOutcome::Quarantined];
        match next() % 8 {
            0 | 1 => JobRecord::Submitted {
                job_id,
                tenant: format!("t{}", next() % 3),
                spec: Json::Num((next() % 4) as f64),
                submitted_at_ms: 1_700_000_000_000 + next() % 1000,
            },
            2 | 3 => JobRecord::CancelRequested { job_id },
            4 | 5 => JobRecord::CrashCounted { job_id, count: (next() % 4) as u32 },
            _ => JobRecord::Finished {
                job_id,
                outcome: outcomes[(next() % 4) as usize],
                rounds: (next() % 5) as usize,
                latency_ms: 0.1 + 0.2,
                result: Json::Num((next() % 9) as f64),
            },
        }
    }

    /// The rule the queue exists under: memory is the fold of the file.
    /// After every commit and every compaction of a live [`JobQueue`],
    /// replaying the WAL from disk yields exactly the in-memory state —
    /// which fails if `commit` applies before it appends or applies what
    /// replay would not, or if compaction keeps what the file dropped.
    #[test]
    fn replay_of_the_file_equals_live_state_after_every_commit_and_compact() {
        let mut rng = 0x5EED_1E55_F01D_AB1Eu64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut dropped = 0;
        for case in 0..8 {
            let path = tmp_path("fold");
            let mut queue = JobQueue::open(&path).expect("open");
            for step in 0..60 {
                queue.commit(&random_record(&mut next)).expect("commit");
                if next().is_multiple_of(10) {
                    // Compaction keeps the state and leaves the canonical
                    // log.
                    let kept = queue.state().clone();
                    let before = queue.wal_lines();
                    queue.compact().expect("compact");
                    assert_eq!(queue.state(), &kept);
                    assert_eq!(queue.wal_lines(), kept.canonical_len());
                    dropped += before - queue.wal_lines();
                    assert!(!path.with_extension("tmp").exists(), "tmp renamed away");
                }
                let records = read_job_records(&path).expect("read");
                assert_eq!(records.len(), queue.wal_lines(), "case {case} step {step}");
                assert_eq!(&QueueState::replay(&records), queue.state(), "case {case} step {step}");
                assert_eq!(queue.state().live(), queue.state().pending().len());
            }
            let reopened = JobQueue::open(&path).expect("reopen");
            assert_eq!(reopened.state(), queue.state());
            assert_eq!(reopened.wal_lines(), queue.wal_lines());
            std::fs::remove_file(&path).ok();
        }
        assert!(dropped > 0, "no compaction had a superseded line to drop");
    }

    /// A WAL as older daemons wrote it, with a `job-claim` line each time
    /// a shard adopted a job: before job 0 finished, before each of job
    /// 3's crashes, and for job 5, still pending. Replay skips them as an
    /// unknown kind, so the log reads as if they were never written, and
    /// the first compaction drops them.
    #[test]
    fn claim_lines_from_older_daemons_are_skipped_and_compacted_away() {
        let claim = |job_id: u64| {
            Json::obj(vec![
                ("kind", Json::Str("job-claim".to_string())),
                ("v", Json::Num(JOB_RECORD_VERSION as f64)),
                ("job", Json::u64_hex(job_id)),
                ("shard", Json::Num(0.0)),
            ])
        };
        let records = lifecycle_records();
        let mut lines = Vec::new();
        for record in &records {
            if matches!(
                record,
                JobRecord::Finished { job_id: 0, .. } | JobRecord::CrashCounted { job_id: 3, .. }
            ) {
                lines.push(claim(record.job_id()));
            }
            lines.push(record.to_json());
        }
        lines.push(claim(5));
        assert_eq!(lines.len() - records.len(), 4);
        let path = tmp_path("claims");
        let text: String = lines.iter().map(|doc| doc.write() + "\n").collect();
        std::fs::write(&path, text).expect("write");

        let without = QueueState::replay(&records);
        assert_eq!(QueueState::replay(&read_job_records(&path).expect("read")), without);
        let mut queue = JobQueue::open(&path).expect("open");
        assert_eq!(queue.state(), &without);
        assert_eq!(queue.wal_lines(), lines.len(), "claim lines are intact lines");
        queue.compact().expect("compact");
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(!text.contains("job-claim"), "compaction kept a claim line:\n{text}");
        assert_eq!(queue.wal_lines(), without.canonical_len());
        assert_eq!(QueueState::replay(&read_job_records(&path).expect("read")), without);
        std::fs::remove_file(&path).ok();
    }

    /// The append-failure half of the rule: a commit whose append fails
    /// (ENOSPC from `/dev/full`) returns the error and changes nothing,
    /// whatever the record kind — the job stays exactly where it was.
    #[cfg(target_os = "linux")]
    #[test]
    fn failed_commit_leaves_state_untouched_and_equal_to_replay() {
        let path = tmp_path("full");
        let mut queue = JobQueue::open(&path).expect("open");
        for r in lifecycle_records() {
            queue.commit(&r).expect("commit");
        }
        let before = queue.state().clone();
        queue.wal.log.redirect_appends("/dev/full");
        let live = before.pending()[0].job_id;
        for record in [
            JobRecord::Submitted {
                job_id: before.next_job_id(),
                tenant: "acme".to_string(),
                spec: Json::Null,
                submitted_at_ms: 1,
            },
            JobRecord::CancelRequested { job_id: live },
            JobRecord::CrashCounted { job_id: live, count: 9 },
            JobRecord::Finished {
                job_id: live,
                outcome: JobOutcome::Done,
                rounds: 1,
                latency_ms: 1.0,
                result: Json::Null,
            },
        ] {
            assert!(queue.commit(&record).is_err(), "ENOSPC must surface: {record:?}");
            assert_eq!(queue.state(), &before, "state advanced past a failed append");
        }
        let replayed = QueueState::replay(&read_job_records(&path).expect("read"));
        assert_eq!(&replayed, queue.state());
        // A failed append may have left any prefix of its line behind, so
        // the next one to succeed starts on a line of its own.
        let len_before = std::fs::metadata(&path).expect("stat").len() as usize;
        queue.wal.log.redirect_appends(path.to_str().expect("utf-8 path"));
        queue.commit(&JobRecord::CancelRequested { job_id: live }).expect("commit");
        let bytes = std::fs::read(&path).expect("read");
        assert!(bytes[len_before..].starts_with(b"#\n{"), "fenced off the unknown tail");
        let replayed = QueueState::replay(&read_job_records(&path).expect("read"));
        assert_eq!(&replayed, queue.state());
        std::fs::remove_file(&path).ok();
    }
}
