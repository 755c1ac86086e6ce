//! `serve_mixed`: the daemon's users. An in-process `Server::start` with
//! `max(1, nproc-1)` shards is driven **closed loop** by two client
//! connections, each holding at most four jobs outstanding: a seeded mix of
//! tiny-llama and dcgan `JobSpec::quick` specs with 1/2/4 rounds from three
//! tenants (60/30/10), one job in ten cancelled right after its ack, a
//! `list` every twentieth submission, status polled every 2 ms. Descent is
//! tiny here; the wire codec, admission, WAL flush-before-ack, the deficit
//! scheduler, per-round checkpoints and result documents are not. One
//! operation is one job, submit to terminal state.

use crate::gen::{JobPlan, JobStream, LLAMA_TINY, SERVE_DEVICE};
use crate::harness::{
    ms_since, timed_setups, us_since, Calibrator, Checks, EndToEndSamples, Layers, RunConfig,
    RunOutput, TempDir, Window,
};
use crate::trace::{Recorder, SpanId};
use felix_records::jobs::{JobOutcome, SubmittedJob};
use felix_records::{read_job_records, JobWal, Json, QueueState};
use felix_serve::{
    read_frame, write_frame, Client, ClientError, JobSpec, Request, ServeConfig, Server, Shard,
    StepOutcome, WAL_FILE,
};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Client connections of the load generator (no more than `nproc`).
const CONNECTIONS: usize = 2;
/// Jobs one connection keeps in flight.
const OUTSTANDING: usize = 4;
const POLL: Duration = Duration::from_millis(2);
/// Grace, past the window, for in-flight jobs to go terminal before they
/// count as failed.
const DRAIN_GRACE: Duration = Duration::from_secs(60);

/// A running daemon that drains when dropped, so a repeated set-up, a
/// failed check or a panic never leaves server threads behind.
struct Daemon {
    server: Option<Server>,
    addr: SocketAddr,
    data_dir: PathBuf,
}

impl Daemon {
    fn stop(&mut self) {
        if let Some(server) = self.server.take() {
            // `Server::wait` panics if a server thread panicked; that must
            // not escape a `Drop`.
            drop(std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                || {
                    server.shutdown_and_wait();
                },
            )));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

fn is_terminal(state: &str) -> bool {
    matches!(state, "done" | "cancelled" | "expired" | "quarantined")
}

/// Starts a daemon on a fresh data directory and runs one two-round job of
/// each model to completion, so the cost-model memo, the listener and the
/// worker are warm before anything is timed.
fn start_daemon(data_dir: PathBuf, shards: usize) -> Daemon {
    let config = ServeConfig::new("127.0.0.1:0", &data_dir, shards);
    let server = Server::start(&config).expect("start in-process daemon");
    let addr = server.addr;
    let daemon = Daemon {
        server: Some(server),
        addr,
        data_dir,
    };
    let mut client = Client::connect(addr).expect("connect warm-up client");
    for spec in [
        JobSpec::quick("llama", LLAMA_TINY.to_vec(), SERVE_DEVICE, 2),
        JobSpec::quick("dcgan", vec![1], SERVE_DEVICE, 2),
    ] {
        let id = client.submit("warmup", &spec).expect("submit warm-up job");
        while !is_terminal(&client.status(id).expect("poll warm-up job")) {
            std::thread::sleep(POLL);
        }
    }
    daemon
}

struct InFlight {
    job_id: u64,
    plan: JobPlan,
    submitted: Instant,
    acked: Instant,
    seen_running: bool,
    span: Option<SpanId>,
    op: u64,
}

/// What one client connection measured.
struct ClientOutput {
    attempted: u64,
    failed: u64,
    done_ms: Vec<f64>,
    first_submit: Option<Instant>,
    last_terminal: Option<Instant>,
    layers: Layers,
    rec: Recorder,
    checks: Checks,
    calib: Calibrator,
    /// `VmHWM` when this connection's share of `min_ops` jobs had finished.
    rss_counted: f64,
}

/// Whether a terminal job ended the way its script says it must.
fn job_ended_as_scripted(plan: &JobPlan, state: &str, result: &Json) -> bool {
    let rounds = result.get("rounds").and_then(Json::as_usize);
    let well_formed = result.get("model").and_then(Json::as_str) == Some(plan.spec.model.as_str())
        && result.get("tenant").and_then(Json::as_str) == Some(plan.tenant)
        && result
            .get("latency_ms")
            .and_then(Json::as_f64_bits)
            .is_some()
        && result
            .get("kernels")
            .and_then(Json::as_arr)
            .is_some_and(|k| !k.is_empty());
    let ran_to_budget = state == "done" && rounds == Some(plan.spec.rounds);
    // A cancel may lose the race against a short job's last round.
    let cancelled =
        plan.cancel && state == "cancelled" && rounds.is_some_and(|r| r <= plan.spec.rounds);
    well_formed && (ran_to_budget || cancelled)
}

#[allow(clippy::too_many_lines)]
fn client_loop(addr: SocketAddr, cfg: &RunConfig, lane: usize, window: &Window) -> ClientOutput {
    let mut client = Client::connect(addr).expect("connect load-generator client");
    let mut stream = JobStream::new(cfg.seed, lane as u64);
    let mut out = ClientOutput {
        attempted: 0,
        failed: 0,
        done_ms: Vec::new(),
        first_submit: None,
        last_terminal: None,
        layers: Layers::default(),
        rec: Recorder::new(cfg.trace),
        checks: Checks::default(),
        calib: Calibrator::default(),
        rss_counted: 0.0,
    };
    let min_jobs = window.min_ops.div_ceil(CONNECTIONS);
    let mut in_flight: Vec<InFlight> = Vec::new();
    let mut submissions = 0usize;
    let mut give_up: Option<Instant> = None;
    loop {
        // One connection runs the calibration kernel once per poll (about
        // 1 % of one core).
        if lane == 0 {
            out.calib.sample();
        }
        let submitting = submissions < min_jobs || !window.time_up();
        while submitting && in_flight.len() < OUTSTANDING {
            let plan = stream.next().expect("the job script is endless");
            let op = (submissions * CONNECTIONS + lane) as u64;
            submissions += 1;
            out.attempted += 1;
            if submissions.is_multiple_of(20) {
                let listed = client.list();
                out.checks
                    .record("list_answers", listed.is_ok(), || format!("{listed:?}"));
            }
            let submitted = Instant::now();
            out.first_submit.get_or_insert(submitted);
            let ack = client.submit(plan.tenant, &plan.spec);
            let acked = Instant::now();
            let job_id = match ack {
                Ok(id) => id,
                Err(e) => {
                    // A refused job counts as failed, whatever the reason.
                    if matches!(
                        e,
                        ClientError::Busy { .. }
                            | ClientError::QuotaExceeded { .. }
                            | ClientError::Draining
                    ) {
                        out.layers.add("serve.rejected", 1.0);
                    }
                    out.checks
                        .record("every_submit_is_acked", false, || e.to_string());
                    out.failed += 1;
                    continue;
                }
            };
            out.layers.sample(
                "serve.submit_ack_us",
                acked.duration_since(submitted).as_secs_f64() * 1e6,
            );
            let span = out.rec.span_at("serve.job", op, None, submitted, acked);
            out.rec.span_at("serve.submit", op, span, submitted, acked);
            if plan.cancel {
                let t = Instant::now();
                let cancelled = client.cancel(job_id);
                out.rec.span_at("serve.cancel", op, span, t, Instant::now());
                out.checks.record("cancel_answers", cancelled.is_ok(), || {
                    format!("{cancelled:?}")
                });
            }
            in_flight.push(InFlight {
                job_id,
                plan,
                submitted,
                acked,
                seen_running: false,
                span,
                op,
            });
        }

        let mut i = 0;
        while i < in_flight.len() {
            let t = Instant::now();
            let state = client.status(in_flight[i].job_id);
            let now = Instant::now();
            out.layers.sample(
                "serve.status_rtt_us",
                now.duration_since(t).as_secs_f64() * 1e6,
            );
            let Ok(state) = state else {
                out.checks
                    .record("status_answers", false, || format!("{state:?}"));
                out.failed += 1;
                in_flight.swap_remove(i);
                continue;
            };
            let job = &mut in_flight[i];
            if !job.seen_running && (state == "running" || is_terminal(&state)) {
                job.seen_running = true;
                out.layers.sample(
                    "serve.queue_wait_ms",
                    now.duration_since(job.acked).as_secs_f64() * 1e3,
                );
            }
            if !is_terminal(&state) {
                i += 1;
                continue;
            }
            let t = Instant::now();
            let result = client.result(job.job_id);
            let end = Instant::now();
            out.layers.sample(
                "serve.result_rtt_us",
                end.duration_since(t).as_secs_f64() * 1e6,
            );
            out.rec.span_at("serve.result", job.op, job.span, t, end);
            out.rec.close_at(job.span, end);
            let ok = result
                .as_ref()
                .is_ok_and(|r| job_ended_as_scripted(&job.plan, &state, r));
            out.checks.record("jobs_end_as_scripted", ok, || {
                format!(
                    "job {:016x} ({:?}) ended {state} with {result:?}",
                    job.job_id, job.plan
                )
            });
            out.failed += u64::from(!ok);
            out.done_ms
                .push(end.duration_since(job.submitted).as_secs_f64() * 1e3);
            out.last_terminal = Some(end);
            if out.done_ms.len() == min_jobs {
                out.rss_counted = crate::stats::peak_rss_mb();
            }
            in_flight.swap_remove(i);
        }

        if !submitting {
            if in_flight.is_empty() {
                break;
            }
            // A job that never goes terminal must not hang the run.
            if Instant::now() > *give_up.get_or_insert(Instant::now() + DRAIN_GRACE) {
                out.checks.record("jobs_end_as_scripted", false, || {
                    format!(
                        "{} jobs still live {DRAIN_GRACE:?} after the window",
                        in_flight.len()
                    )
                });
                out.failed += in_flight.len() as u64;
                break;
            }
        }
        std::thread::sleep(POLL);
    }
    out
}

pub fn run(cfg: &RunConfig, tmp: &TempDir) -> RunOutput {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shards = nproc.saturating_sub(1).max(1);
    let mut checks = Checks::default();
    let mut layers = Layers::default();
    let mut rec = Recorder::new(cfg.trace);

    let (mut daemon, setup) =
        timed_setups(|rep| start_daemon(tmp.sub(&format!("serve-{rep}")), shards));
    let addr = daemon.addr;

    let window = Window::open(cfg.seconds, cfg.pick(40, 6));
    let outputs: Vec<ClientOutput> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|lane| {
                let window = &window;
                s.spawn(move || client_loop(addr, cfg, lane, window))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let cpu_ms = window.cpu_ms();

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut op_ms = Vec::new();
    let mut first: Option<Instant> = None;
    let mut last: Option<Instant> = None;
    let mut calib_us = Vec::new();
    let mut peak_rss_mb = 0.0f64;
    for out in outputs {
        peak_rss_mb = peak_rss_mb.max(out.rss_counted);
        calib_us.extend(out.calib.samples_us);
        attempted += out.attempted;
        failed += out.failed;
        op_ms.extend(out.done_ms);
        first = [first, out.first_submit].into_iter().flatten().min();
        last = [last, out.last_terminal].into_iter().flatten().max();
        layers.merge(out.layers);
        rec.merge(out.rec);
        for c in out.checks.list {
            checks.record(c.name, c.ok, || c.detail);
        }
    }
    let window_s = match (first, last) {
        (Some(a), Some(b)) => b.duration_since(a).as_secs_f64(),
        _ => 0.0,
    };
    let e2e = EndToEndSamples {
        setup_s: setup.seconds,
        setup_calib_us: setup.calib_us,
        op_ms,
        window_s,
        cpu_ms,
        peak_rss_mb,
        calib_us,
    };

    // After a drain the WAL must replay to a queue with nothing live.
    daemon.stop();
    let wal_path = daemon.data_dir.join(WAL_FILE);
    let records = read_job_records(&wal_path).expect("read the daemon's WAL");
    let queue = QueueState::replay(&records);
    checks.record("wal_replays_to_zero_live_jobs", queue.live() == 0, || {
        format!("{} jobs live after shutdown", queue.live())
    });
    // Warm-up jobs are in the WAL too; refused submissions are not.
    let acked = attempted - layers.counter("serve.rejected") as u64 + 2;
    checks.record(
        "wal_holds_every_acked_job",
        queue.submitted.len() as u64 >= acked.min(attempted),
        || {
            format!(
                "{} submitted in the WAL, {acked} acked",
                queue.submitted.len()
            )
        },
    );

    if cfg.trace {
        let ack = layers.samples_of("serve.submit_ack_us").to_vec();
        layers.set(
            "serve.submit_ack_us_p50",
            crate::stats::percentile(&ack, 50.0),
        );
        layers.set(
            "serve.submit_ack_us_p99",
            crate::stats::percentile(&ack, 99.0),
        );
        for (from, to) in [
            ("serve.status_rtt_us", "serve.status_rtt_us_p50"),
            ("serve.result_rtt_us", "serve.result_rtt_us_p50"),
            ("serve.queue_wait_ms", "serve.queue_wait_ms_p50"),
        ] {
            let v = crate::stats::median(layers.samples_of(from));
            layers.set(to, v);
        }
        layers.set("serve.submit_done_ms_p50", crate::stats::median(&e2e.op_ms));
        layers.set("serve.jobs_failed", failed as f64);
        let jobs = queue.submitted.len().max(1) as f64;
        let wal_bytes = std::fs::metadata(&wal_path).map_or(0.0, |m| m.len() as f64);
        layers.set("records.wal_bytes_per_job", wal_bytes / jobs);
        wal_probes(&records, &queue, tmp, &mut layers, &mut rec);
        shard_probes(cfg, tmp, &mut layers, &mut rec);
    }
    RunOutput {
        attempted,
        failed,
        checks,
        e2e,
        layers,
        recorder: rec,
    }
}

/// The WAL and the wire codec one call at a time, fed with the run's own
/// records.
fn wal_probes(
    records: &[felix_records::JobRecord],
    queue: &QueueState,
    tmp: &TempDir,
    layers: &mut Layers,
    rec: &mut Recorder,
) {
    let scratch = tmp.sub("serve-probes");
    let mut wal = JobWal::open(scratch.join(WAL_FILE)).expect("open scratch WAL");
    for r in records.iter().take(256) {
        let t = Instant::now();
        wal.append(r).expect("append to scratch WAL");
        let us = us_since(t);
        layers.sample("records.wal_append_us", us);
        rec.replayed("records.wal_append", 0, None, (us * 1e3) as u64);
    }
    for _ in 0..5 {
        let t = Instant::now();
        std::hint::black_box(QueueState::replay(records));
        let ms = ms_since(t);
        layers.sample("records.wal_replay_ms", ms);
        rec.replayed("records.wal_replay", 0, None, (ms * 1e6) as u64);
    }
    let t = Instant::now();
    wal.compact(queue).expect("compact scratch WAL");
    let ms = ms_since(t);
    layers.sample("records.wal_compact_ms", ms);
    rec.replayed("records.wal_compact", 0, None, (ms * 1e6) as u64);

    // One request and one result document through write_frame/read_frame.
    let plan = JobStream::new(0, 0)
        .next()
        .expect("the job script is endless");
    let request = Request::Submit {
        tenant: plan.tenant.to_string(),
        spec: plan.spec.to_json(),
    }
    .to_json();
    let result = queue.terminal.values().next().map(|t| t.result.clone());
    for doc in std::iter::once(&request)
        .chain(result.as_ref())
        .cycle()
        .take(64)
    {
        let mut wire = Vec::new();
        let t = Instant::now();
        write_frame(&mut wire, doc).expect("write frame to memory");
        let back = read_frame(&mut wire.as_slice());
        let us = us_since(t);
        assert!(
            back.is_ok_and(|b| b == *doc),
            "frame codec round trip changed the document"
        );
        layers.sample("serve.frame_codec_us", us);
        rec.replayed("serve.frame_codec", 0, None, (us * 1e3) as u64);
    }
}

/// `Shard::adopt` / `step` / `dispose` driven in process over a scripted
/// job list, as `tests/fairness.rs` does.
fn shard_probes(cfg: &RunConfig, tmp: &TempDir, layers: &mut Layers, rec: &mut Recorder) {
    let dir: &Path = &tmp.sub("serve-shard");
    let mut shard = Shard::new(0, 1, dir);
    let jobs: Vec<SubmittedJob> = JobStream::new(cfg.seed, 7)
        .take(cfg.pick(12, 4))
        .enumerate()
        .map(|(i, plan)| SubmittedJob {
            job_id: i as u64,
            tenant: plan.tenant.to_string(),
            spec: plan.spec.to_json(),
            submitted_at_ms: 0,
        })
        .collect();
    let (run, dispose) = jobs.split_at(jobs.len() - jobs.len() / 4);
    for job in run {
        let t = Instant::now();
        let finished = shard.adopt(job);
        let ms = ms_since(t);
        assert!(finished.is_none(), "a fresh job finished at adoption");
        layers.sample("serve.shard_adopt_ms", ms);
        rec.replayed("serve.shard_adopt", job.job_id, None, (ms * 1e6) as u64);
    }
    loop {
        let t = Instant::now();
        let Some(outcome) = shard.step() else { break };
        let ms = ms_since(t);
        assert!(
            !matches!(outcome, StepOutcome::Crashed(_)),
            "a scripted job crashed its tick"
        );
        layers.sample("serve.shard_step_ms", ms);
        rec.replayed("serve.shard_step", 0, None, (ms * 1e6) as u64);
    }
    for job in dispose {
        let t = Instant::now();
        std::hint::black_box(shard.dispose(job, JobOutcome::Cancelled, 0));
        let ms = ms_since(t);
        layers.sample("serve.shard_dispose_ms", ms);
        rec.replayed("serve.shard_dispose", job.job_id, None, (ms * 1e6) as u64);
    }
}
