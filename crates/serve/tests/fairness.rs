//! Cross-tenant fairness: a tenant with one job is never starved by a
//! tenant with many, and a shard serving a single job is bit-identical
//! to calling the in-process `optimize_all` path directly.

use felix::{extract_subgraphs, pretrained_cost_model, FelixOptions, ModelQuality, Optimizer};
use felix_ansor::network_latency;
use felix_graph::models;
use felix_records::jobs::SubmittedJob;
use felix_records::{read_job_records, JobRecord, JobWal, Json, QueueState};
use felix_serve::{JobSpec, Shard, StepOutcome, WAL_FILE};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const DEVICE: &str = "RTX A5000";
const LLAMA_TINY: [i64; 6] = [1, 16, 128, 4, 344, 2];

fn tmp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "felix-serve-fair-{}-{}-{tag}",
        std::process::id(),
        n
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn submitted(job_id: u64, tenant: &str, rounds: usize) -> SubmittedJob {
    SubmittedJob {
        job_id,
        tenant: tenant.to_string(),
        spec: JobSpec::quick("llama", LLAMA_TINY.to_vec(), DEVICE, rounds).to_json(),
        submitted_at_ms: 0,
    }
}

/// Logs the jobs and the shard's terminal records to a WAL under `dir` as
/// the daemon does, and returns the queue that WAL replays to — whose
/// terminal results are what a `result` request serves.
fn served(dir: &Path, jobs: &[SubmittedJob], finished: &[JobRecord]) -> QueueState {
    let path = dir.join(WAL_FILE);
    let mut wal = JobWal::open(&path).expect("open wal");
    for job in jobs {
        let submit = JobRecord::Submitted {
            job_id: job.job_id,
            tenant: job.tenant.clone(),
            spec: job.spec.clone(),
            submitted_at_ms: job.submitted_at_ms,
        };
        wal.append(&submit).expect("append submit");
    }
    for record in finished {
        wal.append(record).expect("append terminal");
    }
    QueueState::replay(&read_job_records(&path).expect("read wal"))
}

#[test]
fn lone_tenant_is_not_starved_by_a_crowd() {
    // Tenant "crowd" floods the shard with 10 one-round jobs; tenant
    // "lone" queues a single 3-round job. Deficit scheduling alternates
    // tenants, so while the lone job is active it waits at most
    // T − 1 = 1 foreign tick between its own ticks.
    let dir = tmp_dir("starvation");
    let mut shard = Shard::new(0, 1, &dir);
    let mut jobs: Vec<SubmittedJob> = (0..10u64).map(|id| submitted(id, "crowd", 1)).collect();
    jobs.push(submitted(10, "lone", 3));
    for job in &jobs {
        assert!(shard.adopt(job).is_none());
    }

    let tenant_of = |job_id: u64| if job_id == 10 { "lone" } else { "crowd" };
    let mut ticks: Vec<&str> = Vec::new();
    let mut lone_done_at = None;
    let mut finished = Vec::new();
    while let Some(outcome) = shard.step() {
        let job_id = match outcome {
            StepOutcome::Ticked(id) => id,
            StepOutcome::Finished(record) => {
                let id = record.job_id();
                if id == 10 {
                    lone_done_at = Some(ticks.len());
                }
                finished.push(record);
                id
            }
            StepOutcome::Crashed(id) => panic!("job {id} crashed without a fault plan"),
        };
        ticks.push(tenant_of(job_id));
        assert!(ticks.len() < 100, "scheduler failed to drain the queue");
    }
    assert_eq!(ticks.len(), 13, "10 crowd rounds + 3 lone rounds");
    let lone_done_at = lone_done_at.expect("lone job finished");

    // Bounded wait: up to the lone job's completion, never two
    // consecutive crowd ticks.
    let active = &ticks[..=lone_done_at];
    for window in active.windows(2) {
        assert!(
            window.contains(&"lone"),
            "lone tenant starved: saw consecutive crowd ticks in {ticks:?}"
        );
    }
    // And the crowd still progresses: it owns every remaining tick.
    assert!(ticks[lone_done_at + 1..].iter().all(|&t| t == "crowd"));
    // Everyone finished: the WAL serves all eleven result documents.
    let queue = served(&dir, &jobs, &finished);
    for id in 0..=10u64 {
        let done = queue.terminal.get(&id).unwrap_or_else(|| panic!("no result for job {id}"));
        assert!(done.result.get("kernels").is_some(), "job {id} result: {:?}", done.result);
    }
}

#[test]
fn single_job_serving_is_bit_identical_to_optimize_all() {
    // A shard whose whole queue is one job must tick it back-to-back,
    // which the worker promises is bit-identical to one `optimize_all`
    // call. Compare the result document the WAL serves against a
    // directly-driven optimizer, field by field, at the bit level.
    let rounds = 3usize;
    let measures = 4usize;

    let dir = tmp_dir("equivalence");
    let mut shard = Shard::new(0, 1, &dir);
    let job = submitted(0, "solo", rounds);
    assert!(shard.adopt(&job).is_none());
    let record = loop {
        match shard.step().expect("queue drained early") {
            StepOutcome::Ticked(_) => {}
            StepOutcome::Finished(record) => break record,
            StepOutcome::Crashed(id) => panic!("job {id} crashed without a fault plan"),
        }
    };
    assert_eq!(record.job_id(), 0);
    let queue = served(&dir, &[job], &[record]);
    let doc = &queue.terminal[&0].result;

    // The reference: the same spec run through the library path the rest
    // of the workspace tests (same options the served job derives).
    let device = felix_sim::DeviceConfig::all()
        .into_iter()
        .find(|d| d.name == DEVICE)
        .unwrap();
    let graphs = extract_subgraphs(&models::llama_with_config(
        LLAMA_TINY[0],
        LLAMA_TINY[1],
        LLAMA_TINY[2],
        LLAMA_TINY[3],
        LLAMA_TINY[4],
        LLAMA_TINY[5] as usize,
    ));
    let model = pretrained_cost_model(&device, ModelQuality::Fast);
    let options = FelixOptions { n_seeds: 2, n_steps: 15, threads: 1, ..Default::default() };
    let mut reference = Optimizer::with_options(graphs, model, device, options);
    reference.optimize_all(rounds, measures);

    assert_eq!(doc.get("rounds").and_then(Json::as_usize), Some(rounds));
    let served_latency = doc.get("latency_ms").and_then(Json::as_f64_bits).unwrap();
    let reference_latency = network_latency(reference.tasks());
    assert_eq!(
        served_latency.to_bits(),
        reference_latency.to_bits(),
        "end-to-end latency diverged from the optimize_all path"
    );

    let kernels = doc.get("kernels").and_then(Json::as_arr).unwrap();
    assert_eq!(kernels.len(), reference.tasks().len());
    for (kernel, task) in kernels.iter().zip(reference.tasks()) {
        assert_eq!(kernel.get("task").and_then(Json::as_str), Some(task.name.as_str()));
        let served = kernel.get("latency_ms").and_then(Json::as_f64_bits).unwrap();
        assert_eq!(
            served.to_bits(),
            task.best_latency_ms.to_bits(),
            "kernel {} latency diverged",
            task.name
        );
        match &task.best_schedule {
            Some((sketch, values)) => {
                assert_eq!(kernel.get("sketch").and_then(Json::as_usize), Some(*sketch));
                let served: Vec<u64> = kernel
                    .get("values")
                    .and_then(Json::as_arr)
                    .unwrap()
                    .iter()
                    .map(|v| v.as_f64_bits().unwrap().to_bits())
                    .collect();
                let expected: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
                assert_eq!(served, expected, "kernel {} schedule diverged", task.name);
            }
            None => {
                assert_eq!(kernel.get("sketch"), Some(&Json::Null));
            }
        }
    }
}
