//! The daemon: TCP frontend, durable queue, worker pool.
//!
//! Thread layout:
//!
//! - an **accept loop** takes connections and spawns one handler thread
//!   per client (the protocol is synchronous request/response, so a slow
//!   client costs one parked thread and nothing else);
//! - `n_shards` **worker threads** each run a [`Shard`]: claim pending
//!   jobs by `job_id % n_shards`, tick them under the fairness policy,
//!   honor cancels/deadlines between ticks, and append terminal records;
//! - all durable state funnels through one mutex-guarded `State`,
//!   whose [`JobQueue`] is the WAL plus the state it replays to. The only
//!   way to change that state is to `commit` a record — append first,
//!   apply second — so memory always equals the replay of the file.
//!
//! ## Durability protocol
//!
//! Submit: WAL line flushed **before** the `ack` response — an acked job
//! survives any crash. Cancel: the request line is flushed before the
//! client hears `cancelling`, so a cancel survives any crash too. Every
//! terminal transition (`done`, `cancelled`, `expired`, `quarantined`):
//! the result document is written atomically **before** the terminal
//! line — a terminal line proves the result is servable. Claims are
//! logged for observability only. Workers killed mid-job restart from
//! the per-job checkpoints; see [`crate::worker`] for why the replay is
//! byte-identical.
//!
//! A commit whose append fails (full disk) changes nothing: a submit or
//! cancel answers the client with the error; a claim, terminal or
//! crash-count record leaves the job pending — the idempotent
//! re-finalization path picks it up after a restart — and starts a drain,
//! so a daemon that can no longer log admits and runs nothing more.
//!
//! ## Admission control
//!
//! Rejected submissions ([`Response::Busy`], [`Response::QuotaExceeded`],
//! [`Response::Draining`]) write **nothing** to the WAL — backpressure
//! that grew the log would be no backpressure at all. The WAL itself is
//! bounded by compaction: at startup (always, when it saves lines) and
//! whenever the live log exceeds its canonical size by the configured
//! slack.

use crate::protocol::{read_frame, write_frame, FrameError, JobRow, Request, Response};
use crate::spec::JobSpec;
use crate::worker::{Shard, StepOutcome, QUARANTINE_CRASHES, WAL_FILE};
use felix_records::jobs::{JobOutcome, SubmittedJob};
use felix_records::{JobQueue, JobRecord, QueueState};
use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Daemon configuration. Build with [`ServeConfig::new`] and override the
/// bounds you care about; the defaults keep the pre-lifecycle behavior
/// (effectively unbounded admission, modest compaction slack).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address, e.g. `"127.0.0.1:0"` (port 0 = ephemeral).
    pub addr: String,
    /// Root of all durable state: WAL, per-job checkpoints and results,
    /// per-tenant schedule stores.
    pub data_dir: PathBuf,
    /// Worker shards (jobs are partitioned by `job_id % shards`).
    pub shards: usize,
    /// Global bound on live (non-terminal) jobs; submissions past it get
    /// [`Response::Busy`].
    pub max_queue_depth: usize,
    /// Per-tenant bound on live jobs; submissions past it get
    /// [`Response::QuotaExceeded`].
    pub tenant_quota: usize,
    /// Bound on concurrently adopted jobs per shard. Beyond it, pending
    /// jobs wait (cancels/expiries/quarantines are still honored while
    /// they wait — they never occupy a slot).
    pub max_active_per_shard: usize,
    /// Runtime compaction trigger: compact when the WAL holds this many
    /// lines more than its canonical replay would.
    pub compact_slack: usize,
}

impl ServeConfig {
    /// A config with the given placement knobs and default lifecycle
    /// bounds.
    pub fn new(addr: impl Into<String>, data_dir: impl Into<PathBuf>, shards: usize) -> ServeConfig {
        ServeConfig {
            addr: addr.into(),
            data_dir: data_dir.into(),
            shards,
            max_queue_depth: 1024,
            tenant_quota: 256,
            max_active_per_shard: usize::MAX,
            compact_slack: 64,
        }
    }
}

struct State {
    queue: JobQueue,
    /// Jobs a shard adopted in this process (status display only; a
    /// crash resets this, and the replayed queue makes them pending
    /// again, which is exactly their recovery state).
    running: std::collections::BTreeSet<u64>,
    /// Drain flag: set by a `shutdown` request, SIGTERM, or a failed
    /// worker-side commit. Submissions are answered
    /// [`Response::Draining`], workers exit after their current step
    /// (checkpoints are per-round, so nothing is lost), and the accept
    /// loop stops.
    draining: bool,
}

impl State {
    /// Compacts the WAL when it exceeds its canonical size by more than
    /// `slack` lines.
    fn compact_if_oversized(&mut self, slack: usize) {
        if self.queue.wal_lines() <= self.queue.state().canonical_len() + slack {
            return;
        }
        if let Err(e) = self.queue.compact() {
            eprintln!("[felix-serve] WAL compaction failed: {e}");
        }
    }
}

struct Shared {
    state: Mutex<State>,
    work: Condvar,
    data_dir: PathBuf,
    n_shards: usize,
    addr: SocketAddr,
    max_queue_depth: usize,
    tenant_quota: usize,
    max_active_per_shard: usize,
    compact_slack: usize,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("server state poisoned")
    }
}

/// A handle that can ask a running [`Server`] to drain from another
/// thread — e.g. a SIGTERM watcher — while `Server::wait` blocks.
#[derive(Clone)]
pub struct DrainHandle {
    shared: Arc<Shared>,
}

impl DrainHandle {
    /// Starts a graceful drain: stop admitting, let workers finish their
    /// current step (every completed round is checkpointed), then exit.
    pub fn drain(&self) {
        request_shutdown(&self.shared);
    }
}

/// A running daemon (see the module docs).
pub struct Server {
    /// The bound listen address (with the ephemeral port resolved).
    pub addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Recovers durable state from `data_dir`, binds the listener, and
    /// starts the worker pool. Pending jobs from a previous process are
    /// picked up immediately; a pending job whose crash count reached the
    /// quarantine threshold is parked `quarantined` instead of re-run.
    /// The WAL is compacted on replay whenever that saves lines.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the data directory, WAL, or socket.
    pub fn start(config: &ServeConfig) -> std::io::Result<Server> {
        std::fs::create_dir_all(&config.data_dir)?;
        let queue = JobQueue::open(config.data_dir.join(WAL_FILE))?;
        let mut state =
            State { queue, running: std::collections::BTreeSet::new(), draining: false };
        // Startup compaction: replay already paid the cost of the stale
        // lines; rewrite so the next startup doesn't. Atomic, so a crash
        // mid-compaction leaves either log, both replaying identically.
        state.compact_if_oversized(0);
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            state: Mutex::new(state),
            work: Condvar::new(),
            data_dir: config.data_dir.clone(),
            n_shards: config.shards.max(1),
            addr,
            max_queue_depth: config.max_queue_depth,
            tenant_quota: config.tenant_quota,
            max_active_per_shard: config.max_active_per_shard.max(1),
            compact_slack: config.compact_slack,
        });
        let mut threads = Vec::new();
        for index in 0..shared.n_shards {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || worker_loop(&shared, index)));
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || accept_loop(&shared, &listener)));
        }
        Ok(Server { addr, shared, threads })
    }

    /// Blocks until the daemon drains (via a `shutdown` request or a
    /// [`DrainHandle`]).
    pub fn wait(self) {
        for t in self.threads {
            t.join().expect("server thread panicked");
        }
    }

    /// A handle for triggering a drain from another thread.
    pub fn drain_handle(&self) -> DrainHandle {
        DrainHandle { shared: Arc::clone(&self.shared) }
    }

    /// Asks the daemon to drain, as the `shutdown` request does, and
    /// blocks until every thread exits.
    pub fn shutdown_and_wait(self) {
        request_shutdown(&self.shared);
        self.wait();
    }
}

fn request_shutdown(shared: &Shared) {
    shared.lock().draining = true;
    wake_all(shared);
}

/// Gets every thread to look at the drain flag: parked workers off the
/// condvar, the accept loop out of `accept()` with a throwaway connection.
fn wake_all(shared: &Shared) {
    shared.work.notify_all();
    drop(TcpStream::connect(shared.addr));
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if shared.lock().draining {
            return;
        }
        let Ok(stream) = stream else { continue };
        // Handler threads are detached: they exit when the client hangs
        // up, and the process only ends after the joined workers drain.
        let shared = Arc::clone(shared);
        std::thread::spawn(move || handle_conn(&shared, stream));
    }
}

/// Wall-clock now in Unix milliseconds — deadline arithmetic and
/// observability only; never part of the deterministic tuning state.
fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// A pending job's deadline in milliseconds, read straight off the spec
/// document (validated at submit time).
fn job_deadline_ms(job: &SubmittedJob) -> Option<u64> {
    job.spec.get("deadline_ms")?.as_usize().map(|d| d as u64)
}

/// Why a pending job must be finalized instead of (or before) running.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Disposal {
    /// Crash count at threshold: park it without touching its optimizer.
    Quarantine(u32),
    /// A durable cancel request stands.
    Cancel,
    /// Its wall-clock deadline elapsed.
    Expire,
}

/// The lifecycle verdict for a non-terminal job, from durable state plus
/// the clock. Quarantine outranks cancel — both are terminal, and the
/// quarantine path is the only one guaranteed never to touch the job's
/// crash-prone optimizer.
fn disposal_for(queue: &QueueState, job: &SubmittedJob, now_ms: u64) -> Option<Disposal> {
    if let Some(&crashes) = queue.crash_counts.get(&job.job_id) {
        if crashes >= QUARANTINE_CRASHES {
            return Some(Disposal::Quarantine(crashes));
        }
    }
    if queue.cancel_requested.contains(&job.job_id) {
        return Some(Disposal::Cancel);
    }
    let deadline = job_deadline_ms(job)?;
    if now_ms.saturating_sub(job.submitted_at_ms) >= deadline {
        return Some(Disposal::Expire);
    }
    None
}

/// One iteration's marching orders for a shard, computed under the state
/// lock and executed outside it.
struct Plan {
    /// Fresh pending jobs to adopt (capacity-gated, claims logged).
    adopt: Vec<SubmittedJob>,
    /// Pending jobs to finalize without running.
    dispose: Vec<(SubmittedJob, Disposal)>,
    /// Active jobs to finalize between ticks (cancel/expire only).
    sweep: BTreeMap<u64, JobOutcome>,
}

fn worker_loop(shared: &Arc<Shared>, index: usize) {
    let mut shard = Shard::new(index, shared.n_shards, &shared.data_dir);
    loop {
        let plan = {
            let mut st = shared.lock();
            loop {
                if st.draining {
                    return;
                }
                let now = now_ms();
                let mut capacity =
                    shared.max_active_per_shard.saturating_sub(shard.active_len());
                let mut plan = Plan {
                    adopt: Vec::new(),
                    dispose: Vec::new(),
                    sweep: BTreeMap::new(),
                };
                let mut watch_deadline = false;
                let queue = st.queue.state();
                for job in queue.pending() {
                    if !shard.owns(job.job_id) {
                        continue;
                    }
                    watch_deadline |= job_deadline_ms(job).is_some();
                    if shard.is_active(job.job_id) {
                        match disposal_for(queue, job, now) {
                            Some(Disposal::Cancel) => {
                                plan.sweep.insert(job.job_id, JobOutcome::Cancelled);
                            }
                            Some(Disposal::Expire) => {
                                plan.sweep.insert(job.job_id, JobOutcome::Expired);
                            }
                            // An active job cannot be at the quarantine
                            // threshold: its last crash removed it.
                            _ => {}
                        }
                        continue;
                    }
                    if st.running.contains(&job.job_id) {
                        continue;
                    }
                    match disposal_for(queue, job, now) {
                        Some(d) => plan.dispose.push((job.clone(), d)),
                        None if capacity > 0 => {
                            capacity -= 1;
                            plan.adopt.push(job.clone());
                        }
                        None => {}
                    }
                }
                let busy = !plan.adopt.is_empty()
                    || !plan.dispose.is_empty()
                    || !plan.sweep.is_empty()
                    || shard.has_active();
                if busy {
                    // An unclaimed job is not adopted: it stays pending.
                    plan.adopt.retain(|job| {
                        let claim = JobRecord::Claimed { job_id: job.job_id, shard: index };
                        let claimed = commit_or_drain(shared, &mut st, "claim", &claim);
                        if claimed {
                            st.running.insert(job.job_id);
                        }
                        claimed
                    });
                    break plan;
                }
                // Park. Deadlines expire on the clock, not on a condvar
                // signal, so poll while any owned pending job has one.
                if watch_deadline {
                    let (guard, _) = shared
                        .work
                        .wait_timeout(st, Duration::from_millis(200))
                        .expect("server state poisoned");
                    st = guard;
                } else {
                    st = shared.work.wait(st).expect("server state poisoned");
                }
            }
        };
        for (job, disposal) in &plan.dispose {
            let (outcome, crashes) = match disposal {
                Disposal::Quarantine(n) => (JobOutcome::Quarantined, *n),
                Disposal::Cancel => (JobOutcome::Cancelled, 0),
                Disposal::Expire => (JobOutcome::Expired, 0),
            };
            match catch_unwind(AssertUnwindSafe(|| shard.dispose(job, outcome, crashes))) {
                Ok(record) => complete(shared, record),
                Err(_) => record_crash(shared, job.job_id),
            }
        }
        for record in shard.sweep_active(&plan.sweep) {
            complete(shared, record);
        }
        for job in &plan.adopt {
            match catch_unwind(AssertUnwindSafe(|| shard.adopt(job))) {
                Ok(Some(record)) => complete(shared, record),
                Ok(None) => {}
                Err(_) => record_crash(shared, job.job_id),
            }
        }
        match shard.step() {
            Some(StepOutcome::Finished(record)) => complete(shared, record),
            Some(StepOutcome::Crashed(job_id)) => record_crash(shared, job_id),
            Some(StepOutcome::Ticked(_)) | None => {}
        }
    }
}

/// Commits a worker-side transition (claim, terminal, crash count).
/// There is no client to hand a failure to, so the append-failure policy
/// lives here: report it, leave the job where it was, and start a drain —
/// a daemon that cannot log must not admit or run anything more. Returns
/// whether the record landed.
fn commit_or_drain(shared: &Shared, st: &mut State, what: &str, record: &JobRecord) -> bool {
    let Err(e) = st.queue.commit(record) else { return true };
    eprintln!(
        "[felix-serve] {what} append for job {:016x} failed, draining: {e}",
        record.job_id()
    );
    st.draining = true;
    wake_all(shared);
    false
}

/// Commits a terminal record (the result document is already durable) and
/// compacts the WAL if it has grown past its slack.
fn complete(shared: &Shared, record: JobRecord) {
    let mut st = shared.lock();
    commit_or_drain(shared, &mut st, "terminal", &record);
    st.running.remove(&record.job_id());
    st.compact_if_oversized(shared.compact_slack);
}

/// Durably attributes one worker crash to a job: the cumulative count is
/// WAL-logged, so it survives restarts and the replay parks the job once
/// it reaches the quarantine threshold.
fn record_crash(shared: &Shared, job_id: u64) {
    let mut st = shared.lock();
    let count = st.queue.state().crash_counts.get(&job_id).copied().unwrap_or(0) + 1;
    let record = JobRecord::CrashCounted { job_id, count };
    if commit_or_drain(shared, &mut st, "crash-count", &record) {
        eprintln!(
            "[felix-serve] job {job_id:016x} crash {count}/{QUARANTINE_CRASHES} recorded"
        );
    }
    st.running.remove(&job_id);
}

fn handle_conn(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    loop {
        let doc = match read_frame(&mut reader) {
            Ok(doc) => doc,
            Err(FrameError::Closed) => return,
            Err(e @ (FrameError::Oversized | FrameError::TimedOut)) => {
                // The rest of the line is unread garbage; answer and drop
                // the connection rather than resynchronize.
                let resp = Response::Error { message: e.to_string() };
                drop(write_frame(&mut writer, &resp.to_json()));
                return;
            }
            Err(e @ FrameError::Malformed(_)) => {
                let resp = Response::Error { message: e.to_string() };
                if write_frame(&mut writer, &resp.to_json()).is_err() {
                    return;
                }
                continue;
            }
        };
        let response = match Request::from_json(&doc) {
            Err(message) => Response::Error { message },
            Ok(request) => {
                let is_shutdown = request == Request::Shutdown;
                let response = handle_request(shared, request);
                if is_shutdown {
                    drop(write_frame(&mut writer, &response.to_json()));
                    request_shutdown(shared);
                    return;
                }
                response
            }
        };
        if write_frame(&mut writer, &response.to_json()).is_err() {
            return;
        }
    }
}

fn handle_request(shared: &Shared, request: Request) -> Response {
    match request {
        Request::Ping => Response::Pong,
        Request::Shutdown => Response::Bye,
        Request::Submit { tenant, spec } => {
            // Validate before acknowledging: the WAL only holds specs the
            // current build can run.
            if let Err(message) = JobSpec::from_json(&spec) {
                return Response::Error { message };
            }
            let mut st = shared.lock();
            // Admission control: every rejection leaves the WAL untouched.
            if st.draining {
                return Response::Draining;
            }
            let queue = st.queue.state();
            let live = queue.live();
            if live >= shared.max_queue_depth {
                return Response::Busy {
                    live: live as u64,
                    limit: shared.max_queue_depth as u64,
                };
            }
            let tenant_live = queue.tenant_live(&tenant);
            if tenant_live >= shared.tenant_quota {
                return Response::QuotaExceeded {
                    tenant,
                    live: tenant_live as u64,
                    limit: shared.tenant_quota as u64,
                };
            }
            let job_id = queue.next_job_id();
            let record = JobRecord::Submitted { job_id, tenant, spec, submitted_at_ms: now_ms() };
            // Durability before acknowledgment: the line is in the WAL
            // when `commit` returns; only then does the client hear `ack`.
            if let Err(e) = st.queue.commit(&record) {
                return Response::Error { message: format!("queue append failed: {e}") };
            }
            drop(st);
            shared.work.notify_all();
            Response::Ack { job_id }
        }
        Request::Status { job_id } => {
            let st = shared.lock();
            let Some(job) = st.queue.state().job(job_id) else {
                return Response::Error { message: format!("unknown job {job_id:016x}") };
            };
            Response::JobStatus {
                job_id,
                tenant: job.tenant.clone(),
                state: job_state(&st, job_id).to_string(),
            }
        }
        Request::Cancel { job_id } => {
            let mut st = shared.lock();
            let queue = st.queue.state();
            let Some(job) = queue.job(job_id) else {
                return Response::Error { message: format!("unknown job {job_id:016x}") };
            };
            let tenant = job.tenant.clone();
            // Idempotent: already-terminal and already-cancelling jobs
            // just report their state; only the first request hits the
            // WAL. Durability before acknowledgment, like submit.
            if !queue.terminal.contains_key(&job_id) && !queue.cancel_requested.contains(&job_id)
            {
                if let Err(e) = st.queue.commit(&JobRecord::CancelRequested { job_id }) {
                    return Response::Error {
                        message: format!("cancel append failed: {e}"),
                    };
                }
            }
            let state = job_state(&st, job_id).to_string();
            drop(st);
            shared.work.notify_all();
            Response::JobStatus { job_id, tenant, state }
        }
        Request::Result { job_id } => {
            let st = shared.lock();
            let queue = st.queue.state();
            if queue.job(job_id).is_none() {
                return Response::Error { message: format!("unknown job {job_id:016x}") };
            }
            match queue.terminal.get(&job_id) {
                Some(done) => Response::JobResult { job_id, result: done.result.clone() },
                None => Response::Error { message: format!("job {job_id:016x} not finished") },
            }
        }
        Request::List => {
            let st = shared.lock();
            let jobs = st
                .queue
                .state()
                .submitted
                .iter()
                .map(|j| JobRow {
                    job_id: j.job_id,
                    tenant: j.tenant.clone(),
                    state: job_state(&st, j.job_id).to_string(),
                })
                .collect();
            Response::Jobs { jobs }
        }
    }
}

fn job_state(st: &State, job_id: u64) -> &'static str {
    let queue = st.queue.state();
    if let Some(done) = queue.terminal.get(&job_id) {
        done.outcome.state()
    } else if queue.cancel_requested.contains(&job_id) {
        "cancelling"
    } else if st.running.contains(&job_id) {
        "running"
    } else {
        "pending"
    }
}
