//! Job-lifecycle end-to-end tests: cancellation, deadlines, admission
//! control, poison-job quarantine, graceful drain, WAL compaction, job
//! directories that hold no model file, and the removal of finished jobs'
//! directories —
//! each exercised under the same SIGKILL chaos the crash_resume suite
//! applies to plain completion.
//!
//! The heart is the **chaos sweep**: one uninterrupted reference run and
//! five seeded chaos runs of the same three-job scenario (one job that
//! completes, one that is cancelled before it ever runs, one that
//! expires on a zero deadline), each chaos run SIGKILLed twice at
//! seeded-random instants — including immediately after a restart's
//! listening banner, which prints once `Server::start` has returned, so
//! after the startup WAL compaction and replay, while the first jobs are
//! being adopted and resumed. Every run must reach the same terminal
//! states with **byte-identical** result documents.
//!
//! Unix-only, like crash_resume.

#![cfg(unix)]

mod common;

use common::{tmp_dir, Daemon};
use felix::persist::{MODEL_FILE, STATE_FILE};
use felix_records::{read_job_records, JobOutcome, JobRecord, JobWal, Json, QueueState};
use felix_serve::{job_dir, Client, ClientError, JobSpec};
use std::path::Path;
use std::time::{Duration, Instant};

const DEVICE: &str = "RTX A5000";
const LLAMA_TINY: [i64; 6] = [1, 16, 128, 4, 344, 2];
const WAIT: Duration = Duration::from_secs(120);

fn tiny_spec(rounds: usize) -> JobSpec {
    JobSpec::quick("llama", LLAMA_TINY.to_vec(), DEVICE, rounds)
}

/// Seeded splitmix-style mixer, so chaos instants are reproducible from
/// the printed seed.
fn mix(seed: u64) -> u64 {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h
}

/// What one [`lifecycle_run`] left behind.
struct LifecycleRun {
    jobs: Vec<u64>,
    states: Vec<String>,
    /// Each job's terminal WAL document — what a `result` request serves.
    result_bytes: Vec<String>,
    /// Kills that left a WAL longer than its canonical form, which the
    /// restart's startup compaction must rewrite.
    oversized_kills: usize,
    /// Whether the final WAL is in canonical form.
    canonical: bool,
}

/// Whether the WAL's line count exceeds that of the canonical log its
/// replay compacts to.
fn wal_oversized(dir: &Path) -> bool {
    let records = read_job_records(dir.join("wal.jsonl")).expect("read wal");
    records.len() > QueueState::replay(&records).canonical_len()
}

/// One lifecycle scenario run: job A completes (3 rounds), job B is
/// cancelled before it ever runs (the `--max-active 1` gate keeps it
/// queued behind A), job C expires on a zero deadline.
fn lifecycle_run(dir: &Path, kill_delays_ms: &[u64]) -> LifecycleRun {
    let extra = &["--max-active", "1"];
    let daemon = Daemon::spawn(dir, extra);
    let jobs = {
        let mut client = daemon.client();
        let job_a = client.submit("tenant-a", &tiny_spec(3)).expect("submit a");
        let job_b = client.submit("tenant-b", &tiny_spec(3)).expect("submit b");
        let mut expiring = tiny_spec(3);
        expiring.deadline_ms = Some(0);
        let job_c = client.submit("tenant-c", &expiring).expect("submit c");
        // Cancel B before any chaos: the request is durable once acked,
        // so every run (killed or not) sees the same standing cancel.
        let state = client.cancel(job_b).expect("cancel b");
        assert!(
            state == "cancelling" || state == "cancelled",
            "cancel answered {state:?}"
        );
        vec![job_a, job_b, job_c]
    };

    let mut daemon = daemon;
    let mut oversized_kills = 0;
    for &delay_ms in kill_delays_ms {
        std::thread::sleep(Duration::from_millis(delay_ms));
        daemon.kill();
        oversized_kills += usize::from(wal_oversized(dir));
        daemon = Daemon::spawn(dir, extra);
    }

    let mut client = daemon.client();
    let mut states = Vec::new();
    for &job in &jobs {
        let (state, _) = client.wait_done(job, WAIT).expect("terminal state");
        states.push(state);
    }
    daemon.shutdown();
    let queue = QueueState::replay(&read_job_records(dir.join("wal.jsonl")).expect("read wal"));
    let result_bytes = jobs.iter().map(|j| queue.terminal[j].result.write()).collect();
    let canonical = !wal_oversized(dir);
    LifecycleRun { jobs, states, result_bytes, oversized_kills, canonical }
}

#[test]
fn chaos_sweep_cancel_expiry_and_completion_are_byte_deterministic() {
    let seed: u64 = std::env::var("FELIX_CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xfe11);

    let ref_dir = tmp_dir("sweep-ref");
    let reference = lifecycle_run(&ref_dir, &[]);
    assert_eq!(reference.states, ["done", "cancelled", "expired"]);
    // B's terminal line supersedes its cancel request, and no restart
    // compacted the reference's log: it keeps the superseded line.
    assert!(!reference.canonical, "the reference WAL has no superseded line");

    for round in 0..5u64 {
        // Two kills per run: one at a seeded instant mid-scenario, one
        // shortly after the restart — inside the startup replay/compaction
        // window, the other place the WAL is rewritten.
        let h = mix(seed.wrapping_add(round));
        let delays = [30 + h % 300, 10 + (h >> 16) % 60];
        eprintln!(
            "chaos round {round}: kills after {delays:?}ms (FELIX_CRASH_SEED={seed})"
        );
        let dir = tmp_dir(&format!("sweep-{round}"));
        let run = lifecycle_run(&dir, &delays);
        let jobs = run.jobs;
        assert_eq!(jobs, reference.jobs, "job ids must line up for the comparison");
        assert_eq!(
            run.states, reference.states,
            "terminal states diverged in round {round} (FELIX_CRASH_SEED={seed})"
        );
        assert_eq!(
            run.result_bytes, reference.result_bytes,
            "result bytes diverged in round {round} (FELIX_CRASH_SEED={seed})"
        );
        // A kill after B's terminal line landed leaves B's cancel request
        // superseded; the restart's startup compaction drops it, and
        // nothing later supersedes a line. So the final log is canonical
        // exactly when some kill left a log to rewrite.
        eprintln!(
            "chaos round {round}: {} of 2 kills left a log to rewrite",
            run.oversized_kills
        );
        assert_eq!(
            run.canonical,
            run.oversized_kills > 0,
            "startup compaction did not rewrite an oversized WAL in round {round}"
        );

        // The surviving WAL replays to the same terminal picture.
        let queue =
            QueueState::replay(&read_job_records(dir.join("wal.jsonl")).expect("read wal"));
        assert_eq!(queue.pending().len(), 0);
        let outcomes: Vec<JobOutcome> =
            jobs.iter().map(|j| queue.terminal[j].outcome).collect();
        assert_eq!(
            outcomes,
            [JobOutcome::Done, JobOutcome::Cancelled, JobOutcome::Expired]
        );
        assert_eq!(queue.terminal[&jobs[0]].rounds, 3);
        assert_eq!(queue.terminal[&jobs[1]].rounds, 0, "cancelled job ran anyway");
        assert_eq!(queue.terminal[&jobs[2]].rounds, 0, "expired job ran anyway");
    }
}

#[test]
fn poison_jobs_are_quarantined_while_healthy_tenants_keep_running() {
    let dir = tmp_dir("quarantine");
    // Pre-seed the WAL with a job whose crash counter already sits at the
    // threshold — as if a previous daemon died three times running it.
    // The replay must park it without ever touching an optimizer.
    let parked_id = 7u64;
    {
        let mut wal = JobWal::open(dir.join("wal.jsonl")).expect("open wal");
        wal.append(&JobRecord::Submitted {
            job_id: parked_id,
            tenant: "poison".to_string(),
            spec: tiny_spec(2).to_json(),
            submitted_at_ms: 1,
        })
        .expect("seed submit");
        wal.append(&JobRecord::CrashCounted { job_id: parked_id, count: 3 })
            .expect("seed crash count");
    }

    let daemon = Daemon::spawn(&dir, &[]);
    let mut client = daemon.client();
    let healthy = client.submit("healthy", &tiny_spec(1)).expect("submit healthy");
    // A live poison job: panics the worker every time round 0 ticks.
    let mut poison_spec = tiny_spec(2);
    poison_spec.fault_panic_round = Some(0);
    let poison = client.submit("poison", &poison_spec).expect("submit poison");

    let (state, result) = client.wait_done(parked_id, WAIT).expect("parked job");
    assert_eq!(state, "quarantined", "pre-crashed job was not parked on replay");
    assert!(
        result.get("error").and_then(Json::as_str).is_some(),
        "quarantined result carries no error report: {}",
        result.write()
    );
    let (state, _) = client.wait_done(healthy, WAIT).expect("healthy job");
    assert_eq!(state, "done", "healthy tenant starved by the poison job");
    let (state, result) = client.wait_done(poison, WAIT).expect("poison job");
    assert_eq!(state, "quarantined", "crash-looping job was not quarantined");
    let report = result.get("error").and_then(Json::as_str).unwrap_or_default();
    assert!(
        report.contains("3 worker crashes"),
        "quarantine report does not count the crashes: {report:?}"
    );
    daemon.shutdown();

    // Quarantine is terminal and durable: a restarted daemon serves the
    // verdicts from the WAL without re-running anything.
    let queue = QueueState::replay(&read_job_records(dir.join("wal.jsonl")).expect("read wal"));
    assert_eq!(queue.terminal[&parked_id].outcome, JobOutcome::Quarantined);
    assert_eq!(queue.terminal[&poison].outcome, JobOutcome::Quarantined);
    assert_eq!(queue.terminal[&healthy].outcome, JobOutcome::Done);
    let daemon = Daemon::spawn(&dir, &[]);
    let mut client = daemon.client();
    assert_eq!(client.status(poison).expect("status"), "quarantined");
    assert_eq!(client.status(parked_id).expect("status"), "quarantined");
    daemon.shutdown();
}

#[test]
fn admission_control_rejects_without_touching_the_wal() {
    let dir = tmp_dir("backpressure");
    let daemon = Daemon::spawn(&dir, &["--max-queue", "2", "--tenant-quota", "1"]);
    let mut client = daemon.client();
    // Far longer than the test: both accepted jobs must still be live
    // while the rejections and the bounded wait below are provoked, however
    // fast the daemon runs.
    let spec = tiny_spec(10_000);
    let first = client.submit("tenant-a", &spec).expect("first submit");

    // Per-tenant quota: tenant-a already has one live job.
    match client.submit("tenant-a", &spec) {
        Err(ClientError::QuotaExceeded { tenant, live, limit }) => {
            assert_eq!((tenant.as_str(), live, limit), ("tenant-a", 1, 1));
        }
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }

    let second = client.submit("tenant-b", &spec).expect("second submit");

    // Global depth: two live jobs fill the queue for every tenant.
    match client.submit("tenant-c", &spec) {
        Err(ClientError::Busy { live, limit }) => assert_eq!((live, limit), (2, 2)),
        other => panic!("expected Busy, got {other:?}"),
    }

    // A bounded wait on a job that cannot finish yet times out cleanly
    // instead of hanging (the stalled-caller half of the timeout story).
    assert_eq!(
        client.wait_done(first, Duration::from_millis(120)),
        Err(ClientError::Timeout)
    );

    // Nothing about the rejected submissions reached the WAL: every
    // record mentions only the two accepted jobs.
    let records = read_job_records(dir.join("wal.jsonl")).expect("read wal");
    let submits: Vec<u64> = records
        .iter()
        .filter(|r| matches!(r, JobRecord::Submitted { .. }))
        .map(|r| r.job_id())
        .collect();
    assert_eq!(submits, [first, second], "rejections left submit lines in the WAL");
    assert!(
        records.iter().all(|r| r.job_id() == first || r.job_id() == second),
        "rejections left records in the WAL: {records:?}"
    );
    daemon.kill();
}

#[test]
fn sigterm_drains_gracefully_and_loses_no_accepted_job() {
    let dir = tmp_dir("drain");
    let daemon = Daemon::spawn(&dir, &[]);
    let job = {
        let mut client = daemon.client();
        client.submit("tenant-a", &tiny_spec(3)).expect("submit")
    };
    // Let the job get adopted and (likely) mid-round before the signal.
    std::thread::sleep(Duration::from_millis(150));
    let status = daemon.sigterm_and_wait();
    assert!(status.success(), "drain exited {status:?}, expected 0");

    // The accepted job survived the drain: still replayable, and a
    // restarted daemon finishes it with the full round count.
    let queue = QueueState::replay(&read_job_records(dir.join("wal.jsonl")).expect("read wal"));
    assert!(queue.job(job).is_some(), "accepted job lost in the drain");
    let daemon = Daemon::spawn(&dir, &[]);
    let (state, result) = daemon.client().wait_done(job, WAIT).expect("resumed job");
    assert_eq!(state, "done");
    assert_eq!(result.get("rounds").and_then(Json::as_usize), Some(3));
    daemon.shutdown();
}

#[test]
fn compaction_shrinks_the_wal_to_canonical_form_and_keeps_results_served() {
    let dir = tmp_dir("compact");
    // Slack 0: compact whenever the log exceeds its canonical size. The
    // poison job crashes its worker three times and is quarantined, so its
    // terminal line supersedes three crash-count lines.
    let daemon = Daemon::spawn(&dir, &["--compact-slack", "0"]);
    let mut client = daemon.client();
    let mut poison = tiny_spec(1);
    poison.fault_panic_round = Some(0);
    let jobs = [
        client.submit("tenant-a", &tiny_spec(1)).expect("submit 1"),
        client.submit("tenant-b", &poison).expect("submit 2"),
    ];
    let mut results = Vec::new();
    for (&job, expected) in jobs.iter().zip(["done", "quarantined"]) {
        let (state, result) = client.wait_done(job, WAIT).expect("job terminal");
        assert_eq!(state, expected);
        results.push(result);
    }
    daemon.shutdown();

    // Seven lines were appended: two submits, three crash counts and two
    // terminal lines. The rewrites left the four canonical ones.
    let records = read_job_records(dir.join("wal.jsonl")).expect("read wal");
    let queue = QueueState::replay(&records);
    assert_eq!(queue.canonical_len(), 4);
    assert_eq!(
        records.len(),
        queue.canonical_len(),
        "WAL kept superseded lines past the zero-slack trigger: {records:?}"
    );
    assert!(
        records
            .iter()
            .all(|r| matches!(r, JobRecord::Submitted { .. } | JobRecord::Finished { .. })),
        "compaction left crash-count lines behind: {records:?}"
    );

    // A restart on the compacted log serves the same results.
    let daemon = Daemon::spawn(&dir, &[]);
    let mut client = daemon.client();
    for ((&job, expected), state) in jobs.iter().zip(&results).zip(["done", "quarantined"]) {
        assert_eq!(client.status(job).expect("status"), state);
        let served = client.result(job).expect("result");
        assert_eq!(served.write(), expected.write(), "result changed across compaction");
    }
    daemon.shutdown();
}

#[test]
fn terminal_jobs_leave_no_directory_behind() {
    let dir = tmp_dir("job-dirs");
    let daemon = Daemon::spawn(&dir, &[]);
    let mut client = daemon.client();
    // Every job but the completing one has a checkpoint on disk before it
    // ends: the long job is cancelled once its first round is committed,
    // the expiring one runs until its deadline, and the poison job commits
    // round 0 and then crashes on round 1 until it is quarantined.
    let cancelled = client.submit("tenant-a", &tiny_spec(10_000)).expect("submit cancelled");
    let mut expiring = tiny_spec(10_000);
    expiring.deadline_ms = Some(1_000);
    let expired = client.submit("tenant-b", &expiring).expect("submit expiring");
    let mut poison = tiny_spec(3);
    poison.fault_panic_round = Some(1);
    let quarantined = client.submit("tenant-c", &poison).expect("submit poison");
    let done = client.submit("tenant-d", &tiny_spec(2)).expect("submit done");
    let deadline = Instant::now() + WAIT;
    while !job_dir(&dir, cancelled).join(STATE_FILE).exists() {
        assert!(Instant::now() < deadline, "the long job never checkpointed");
        std::thread::sleep(Duration::from_millis(10));
    }
    // The header names the pretrained base model; no copy is written.
    assert!(!job_dir(&dir, cancelled).join(MODEL_FILE).exists(), "a job wrote its base model");
    client.cancel(cancelled).expect("cancel");
    let jobs = [cancelled, expired, quarantined, done];
    for (&job, expected) in jobs.iter().zip(["cancelled", "expired", "quarantined", "done"]) {
        let (state, _) = client.wait_done(job, WAIT).expect("terminal state");
        assert_eq!(state, expected);
    }
    daemon.shutdown();
    for job in jobs {
        assert!(!job_dir(&dir, job).exists(), "job {job:016x} left its directory behind");
    }

    // A kill between a terminal line and the removal leaves the directory
    // behind; the next start removes it.
    let planted = job_dir(&dir, done);
    std::fs::create_dir_all(&planted).expect("plant a job directory");
    std::fs::write(planted.join("records.jsonl"), "{}\n").expect("plant a record log");
    Daemon::spawn(&dir, &[]).shutdown();
    assert!(!planted.exists(), "a restart kept a terminal job's directory");
}

#[test]
fn a_stalled_server_times_out_instead_of_hanging_the_client() {
    // A listener that accepts bytes but never answers: the kernel
    // completes the TCP handshake from the backlog, the request is
    // written, and the read must hit the client's timeout rather than
    // block forever. (No daemon involved, so no chaos skip.)
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind stall listener");
    let addr = listener.local_addr().expect("stall addr");
    let mut client = Client::connect_with_timeouts(
        addr,
        Duration::from_secs(2),
        Some(Duration::from_millis(200)),
    )
    .expect("connect to stalled listener");
    let start = Instant::now();
    assert_eq!(client.ping(), Err(ClientError::Timeout));
    let elapsed = start.elapsed();
    assert!(
        elapsed >= Duration::from_millis(150) && elapsed < Duration::from_secs(5),
        "timeout fired after {elapsed:?}, expected ~200ms"
    );
    drop(listener);
}
