//! Worker shards: the compute side of the daemon.
//!
//! Each shard owns the jobs whose id hashes to it (`job_id % n_shards`),
//! holds one live [`Optimizer`] per active job, and advances them one
//! tuning round at a time under a deterministic cross-tenant fairness
//! policy. Jobs never share tuning state while running: a `warm_cache`
//! job reads its tenant's schedule store once, when it first starts, and
//! never again. Stores are written at finalize, and a `warm_cache` job
//! also publishes at the end of every round (its optimizer carries the
//! store, and `Optimizer::optimize_all` publishes on each round commit),
//! but no running job reads those writes. So each job's result depends on
//! its spec and its start alone — never on how ticks interleave. That
//! independence, plus the WAL'd pending set and each job's checkpoint, is
//! why a shard killed at any instant finishes every job byte-identically
//! after restart, whatever the scheduler did around the kill. A job's
//! checkpoint is its directory's record log: every round ends with a
//! commit line, and a restart replays the committed rounds onto the base
//! model, dropping the lines of a round the kill cut short. Every job
//! starts from the device's pretrained model ([`Optimizer::pretrained`]),
//! so the header written before the first round names that model by hash
//! and the directory holds no copy of it: a restart rebuilds it through
//! the process's memo and checks the hash. Jobs share what is immutable,
//! though: every optimizer, fresh or resumed, takes its tasks' search
//! spaces and compiled objectives from the `felix` crate's process memo,
//! so only the first job on a workload builds them, and a job's result is
//! the same whether it found the memo cold or warm.
//!
//! ## Fairness
//!
//! Each scheduling step picks the *tenant* this shard has served the
//! fewest rounds (ties break on tenant name), then that tenant's job
//! with the highest marginal benefit per [`felix_ansor::job_priority`] —
//! the same gradient-allocation yardstick the in-process task scheduler
//! uses — with ties on the lower job id. A tenant with one job therefore
//! waits at most `T − 1` rounds between its own rounds against `T`
//! active tenants, however many jobs the others queued; and a shard
//! whose whole queue is one job ticks it back-to-back, which is
//! bit-identical to calling `optimize_all` once. The served counters are
//! re-seeded from checkpointed progress on adoption, so a restarted
//! shard keeps roughly the same balance it had at the kill.

use crate::spec::JobSpec;
use felix::cache::ScheduleCache;
use felix::persist::STATE_FILE;
use felix::{extract_subgraphs, Optimizer};
use felix_ansor::{job_priority, network_latency};
use felix_records::jobs::{JobOutcome, SubmittedJob};
use felix_records::{fnv1a, JobRecord, Json, FNV_OFFSET};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// WAL filename under the data directory.
pub const WAL_FILE: &str = "wal.jsonl";

/// How many worker crashes a job may cause before it is quarantined.
/// Counted durably in the WAL (`job-crash` lines, caught panics only —
/// a SIGKILL of the whole daemon is never attributed to a job), so the
/// count accumulates across restarts and a poison job is parked on
/// replay instead of crash-looping the daemon forever.
pub const QUARANTINE_CRASHES: u32 = 3;

/// The per-job state directory (its checkpoint). The daemon removes it
/// once the job's terminal WAL line has landed.
pub fn job_dir(data_dir: &Path, job_id: u64) -> PathBuf {
    data_dir.join("jobs").join(format!("{job_id:016x}"))
}

/// The tenant rule, which admission checks and [`store_path`] keeps: 1 to
/// `MAX_TENANT_LEN` bytes, each one that [`is_tenant_char`] accepts.
pub(crate) const MAX_TENANT_LEN: usize = 32;

/// The tenant charset, `[A-Za-z0-9_-]` (see [`MAX_TENANT_LEN`]).
pub(crate) fn is_tenant_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-'
}

/// The tenant's schedule-store file: the name's first `MAX_TENANT_LEN`
/// characters, each outside the tenant charset (`is_tenant_char`) replaced
/// by `_`, and an FNV-1a hash of the whole name. An admitted name passes
/// through whole, so each admitted tenant has a file of its own.
pub fn store_path(data_dir: &Path, tenant: &str) -> PathBuf {
    let h = fnv1a(FNV_OFFSET, tenant.as_bytes());
    let prefix: String = tenant
        .chars()
        .map(|c| if is_tenant_char(c) { c } else { '_' })
        .take(MAX_TENANT_LEN)
        .collect();
    data_dir.join("schedules").join(format!("{prefix}-{h:016x}.jsonl"))
}

struct ActiveJob {
    job_id: u64,
    tenant: String,
    spec: JobSpec,
    opt: Optimizer,
}

/// What one scheduling step did.
#[derive(Debug)]
pub enum StepOutcome {
    /// Ran one tuning round of this job.
    Ticked(u64),
    /// The job finished: this terminal record, which carries the result
    /// document, is ready for the WAL.
    Finished(JobRecord),
    /// The job's tick panicked. The job was dropped from the shard (its
    /// in-memory optimizer state is suspect; the rounds its log committed
    /// are not) and stays pending — the caller
    /// must count the crash durably so a repeat offender quarantines.
    Crashed(u64),
}

/// One worker shard (see the module docs).
pub struct Shard {
    /// This shard's index in `0..n_shards`.
    pub index: usize,
    n_shards: usize,
    data_dir: PathBuf,
    active: Vec<ActiveJob>,
    /// Rounds served per tenant, the fairness deficit. Counts finished
    /// jobs too (a tenant can't reset its deficit by queueing one-round
    /// jobs); re-seeded from checkpointed progress on adoption.
    served: BTreeMap<String, usize>,
}

impl Shard {
    /// A shard with no active jobs.
    pub fn new(index: usize, n_shards: usize, data_dir: impl AsRef<Path>) -> Shard {
        Shard {
            index,
            n_shards,
            data_dir: data_dir.as_ref().to_path_buf(),
            active: Vec::new(),
            served: BTreeMap::new(),
        }
    }

    /// Whether this shard is responsible for a job.
    pub fn owns(&self, job_id: u64) -> bool {
        job_id % self.n_shards as u64 == self.index as u64
    }

    /// Whether any adopted job is still running.
    pub fn has_active(&self) -> bool {
        !self.active.is_empty()
    }

    /// Number of adopted jobs still running (what the per-shard
    /// concurrency bound compares against).
    pub fn active_len(&self) -> usize {
        self.active.len()
    }

    /// Whether this shard currently holds the job's live optimizer.
    pub fn is_active(&self, job_id: u64) -> bool {
        self.active.iter().any(|j| j.job_id == job_id)
    }

    /// Takes responsibility for a pending job: builds (or, when a
    /// checkpoint exists, resumes) its optimizer. Returns a completion
    /// record immediately when the job needs no more rounds — a job
    /// killed after its last round but before its completion line lands
    /// here and re-finalizes, byte-identically — or when the job cannot
    /// run at all (its error becomes the result, so a poisoned WAL line
    /// can never wedge the queue).
    pub fn adopt(&mut self, job: &SubmittedJob) -> Option<JobRecord> {
        match self.try_adopt(job) {
            Ok(done) => done,
            Err(msg) => Some(self.finalize_error(JobOutcome::Done, job, &msg)),
        }
    }

    fn try_adopt(&mut self, job: &SubmittedJob) -> Result<Option<JobRecord>, String> {
        let mut active = self.open_job(job, true)?;
        *self.served.entry(active.tenant.clone()).or_insert(0) += active.opt.rounds_done();
        if active.opt.rounds_done() >= active.spec.rounds {
            return Ok(Some(self.finalize_with(JobOutcome::Done, &mut active)));
        }
        self.active.push(active);
        Ok(None)
    }

    /// Builds a job's optimizer at its last durable round boundary: the
    /// checkpoint resumed if one exists, a fresh optimizer otherwise.
    /// `to_run` says the job is about to tick, so a fresh optimizer gets
    /// checkpointing (every round commits) and (for `warm_cache` specs) the
    /// tenant's schedule store; without it the optimizer is only read for
    /// its result document, which must depend on the checkpoint alone.
    fn open_job(&self, job: &SubmittedJob, to_run: bool) -> Result<ActiveJob, String> {
        let spec = JobSpec::from_json(&job.spec)?;
        let device = spec.resolve_device()?;
        let graphs = extract_subgraphs(&spec.resolve_graph()?);
        let options = spec.felix_options();
        let dir = job_dir(&self.data_dir, job.job_id);
        let opt = if dir.join(STATE_FILE).exists() {
            Optimizer::resume_from_checkpoint(graphs, device, options, &dir)
                .map_err(|e| format!("resume failed: {e}"))?
        } else {
            let mut opt = Optimizer::pretrained(graphs, device, options);
            if to_run {
                std::fs::create_dir_all(&dir).map_err(|e| format!("job dir: {e}"))?;
                if spec.warm_cache {
                    opt = opt
                        .with_schedule_store(ensure_store(&self.data_dir, &job.tenant)?)
                        .map_err(|e| format!("schedule store: {e}"))?;
                }
                opt = opt.with_checkpointing(&dir, 1);
            }
            opt
        };
        Ok(ActiveJob { job_id: job.job_id, tenant: job.tenant.clone(), spec, opt })
    }

    /// Finalizes a pending (not adopted) job into a non-`Done` terminal
    /// state without running it:
    ///
    /// - [`JobOutcome::Quarantined`] yields an error-report result and
    ///   never touches the job's optimizer or checkpoint — the whole
    ///   point is that building or ticking this job crashes workers.
    /// - [`JobOutcome::Cancelled`] / [`JobOutcome::Expired`] checkpoint
    ///   the partial result: when a checkpoint exists the optimizer is
    ///   resumed (never ticked) and its last round boundary becomes the
    ///   result document; a never-started job yields the deterministic
    ///   zero-round document. The schedule store is not attached, so the
    ///   document depends on the checkpoint alone.
    ///
    /// Idempotent and deterministic in the durable state, like
    /// [`Shard::adopt`]'s re-finalization path: a crash before the WAL
    /// line lands replays to the same bytes.
    pub fn dispose(&mut self, job: &SubmittedJob, outcome: JobOutcome, crashes: u32) -> JobRecord {
        if outcome == JobOutcome::Quarantined {
            let message = format!(
                "quarantined after {crashes} worker crashes (threshold {QUARANTINE_CRASHES})"
            );
            return self.finalize_error(JobOutcome::Quarantined, job, &message);
        }
        match self.open_job(job, false) {
            Ok(mut active) => self.finalize_with(outcome, &mut active),
            Err(msg) => self.finalize_error(outcome, job, &msg),
        }
    }

    /// Finalizes any active jobs named in `verdicts` (cancel/expire,
    /// honored between ticks) from their current in-memory state — which
    /// equals their checkpoint, since every round commits.
    /// Returns the terminal records, in active (adoption) order.
    pub fn sweep_active(&mut self, verdicts: &BTreeMap<u64, JobOutcome>) -> Vec<JobRecord> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.active.len() {
            match verdicts.get(&self.active[i].job_id) {
                Some(&outcome) => {
                    let mut job = self.active.remove(i);
                    out.push(self.finalize_with(outcome, &mut job));
                }
                None => i += 1,
            }
        }
        out
    }

    /// Runs one scheduling step: fairness-picks a job, ticks it one
    /// round, finalizes it if that was its last. A panicking tick is
    /// caught and reported as [`StepOutcome::Crashed`] with the job
    /// removed, so one poison job never takes the shard's other tenants
    /// down with it (the same isolation the descent supervisor applies
    /// per seed). `None` when idle.
    pub fn step(&mut self) -> Option<StepOutcome> {
        let i = self.pick()?;
        let job = &mut self.active[i];
        let measures = job.spec.measures;
        let fault_round = job.spec.fault_panic_round;
        let ticked = catch_unwind(AssertUnwindSafe(|| {
            if fault_round == Some(job.opt.rounds_done()) {
                panic!("fault_panic_round {} injected", job.opt.rounds_done());
            }
            job.opt.tick(measures);
        }));
        if ticked.is_err() {
            let job = self.active.remove(i);
            eprintln!(
                "[felix-serve] shard {}: job {:016x} crashed its tick",
                self.index, job.job_id
            );
            return Some(StepOutcome::Crashed(job.job_id));
        }
        let tenant = self.active[i].tenant.clone();
        *self.served.entry(tenant).or_insert(0) += 1;
        let job = &mut self.active[i];
        if job.opt.rounds_done() >= job.spec.rounds {
            let mut job = self.active.remove(i);
            let record = self.finalize_with(JobOutcome::Done, &mut job);
            return Some(StepOutcome::Finished(record));
        }
        Some(StepOutcome::Ticked(self.active[i].job_id))
    }

    /// The fairness policy (see the module docs): least-served tenant
    /// first, then highest [`job_priority`] within the tenant.
    fn pick(&self) -> Option<usize> {
        let mut tenant_rounds: BTreeMap<&str, usize> = BTreeMap::new();
        for job in &self.active {
            let served = self.served.get(job.tenant.as_str()).copied().unwrap_or(0);
            tenant_rounds.entry(job.tenant.as_str()).or_insert(served);
        }
        // BTreeMap iterates tenants in name order, so the first minimum
        // is the deterministic tie-break.
        let (tenant, _) = tenant_rounds.iter().min_by_key(|(_, r)| **r)?;
        let mut best: Option<(usize, f64)> = None;
        for (i, job) in self.active.iter().enumerate() {
            if job.tenant != *tenant {
                continue;
            }
            let p = job_priority(job.opt.tasks());
            // Strict `>` keeps the earliest (lowest-id) job on ties:
            // `active` holds jobs in adoption order, which follows WAL
            // submission order within a tenant.
            if best.is_none_or(|(_, bp)| p > bp) {
                best = Some((i, p));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Publishes the job's incumbents to the tenant's schedule store and
    /// builds the terminal record for `outcome`, result document included.
    /// Deterministic in the optimizer state alone, so re-finalizing after a
    /// crash reproduces the record byte for byte (and re-publishing is a
    /// no-op on the store). A cancelled/expired job's partial incumbents
    /// publish too — they are real measured schedules, as
    /// warm-start-worthy as a full run's.
    fn finalize_with(&self, outcome: JobOutcome, job: &mut ActiveJob) -> JobRecord {
        let latency_ms = network_latency(job.opt.tasks());
        let result = result_document(job);
        match ensure_store(&self.data_dir, &job.tenant)
            .map_err(std::io::Error::other)
            .and_then(ScheduleCache::open)
        {
            Ok(mut cache) => cache.publish(job.opt.tasks(), &job.spec.device),
            Err(e) => eprintln!("[felix-serve] schedule store publish failed: {e}"),
        }
        JobRecord::Finished {
            job_id: job.job_id,
            outcome,
            rounds: job.opt.rounds_done(),
            latency_ms,
            result,
        }
    }

    /// The terminal record for `outcome` with an error report as its
    /// result document, built without touching the job's optimizer. An
    /// unrunnable job completes this way as [`JobOutcome::Done`].
    fn finalize_error(&self, outcome: JobOutcome, job: &SubmittedJob, message: &str) -> JobRecord {
        JobRecord::Finished {
            job_id: job.job_id,
            outcome,
            rounds: 0,
            latency_ms: f64::INFINITY,
            result: Json::obj(vec![("error", Json::Str(message.to_string()))]),
        }
    }
}

fn ensure_store(data_dir: &Path, tenant: &str) -> Result<PathBuf, String> {
    let path = store_path(data_dir, tenant);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("store dir: {e}"))?;
    }
    Ok(path)
}

/// The finished-job result document: end-to-end latency plus one entry
/// per kernel, every float as an exact bit pattern. Built purely from the
/// final task states, so two runs that end in the same state produce the
/// same bytes.
fn result_document(job: &ActiveJob) -> Json {
    let kernels = job
        .opt
        .tasks()
        .iter()
        .map(|t| {
            let (sketch, values) = match &t.best_schedule {
                Some((sk, vals)) => (
                    Json::Num(*sk as f64),
                    Json::Arr(vals.iter().map(|&v| Json::f64_bits(v)).collect()),
                ),
                None => (Json::Null, Json::Null),
            };
            Json::obj(vec![
                ("task", Json::Str(t.name.clone())),
                ("weight", Json::Num(t.weight as f64)),
                ("latency_ms", Json::f64_bits(t.best_latency_ms)),
                ("sketch", sketch),
                ("values", values),
            ])
        })
        .collect();
    Json::obj(vec![
        ("model", Json::Str(job.spec.model.clone())),
        ("device", Json::Str(job.spec.device.clone())),
        ("tenant", Json::Str(job.tenant.clone())),
        ("rounds", Json::Num(job.opt.rounds_done() as f64)),
        ("latency_ms", Json::f64_bits(network_latency(job.opt.tasks()))),
        ("kernels", Json::Arr(kernels)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The store filename is an on-disk key: it must not move.
    #[test]
    fn store_path_is_stable() {
        assert_eq!(
            store_path(Path::new("/d"), "ac/me"),
            PathBuf::from("/d/schedules/ac_me-008bd1380e923dcc.jsonl")
        );
    }
}
