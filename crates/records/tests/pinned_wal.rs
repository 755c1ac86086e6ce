//! The job WAL's bytes, pinned across commits. A fixed sequence of records
//! is appended through `JobWal::append`, and the file hashes (FNV-1a over
//! its bytes) to a pinned constant; the log is then compacted to the
//! canonical records of the state it replays to, and that file hashes to a
//! second constant.
//!
//! The sequence holds every `JobRecord` kind and all four terminal
//! outcomes, ids and submission times past 2^53, NaN and ±∞ latencies, and
//! nested spec and result documents. A WAL written by an older build must
//! replay on a newer one, so a change that moves any of these bytes (a key,
//! an encoding, the canonical order) fails here. A change that means to
//! move them bumps `JOB_RECORD_VERSION`, re-pins both constants and says
//! why in CHANGES.md.

use felix_records::jobs::JobOutcome;
use felix_records::{fnv1a, read_job_records, JobRecord, JobWal, Json, QueueState, FNV_OFFSET};
use std::path::Path;

const APPENDED: u64 = 0x60f6_a4da_782e_b6b8;
const COMPACTED: u64 = 0x1076_760a_c189_fb55;

/// Past 2^53, so a hex field decoded as a JSON number would lose bits.
const BIG: u64 = (1 << 53) + 0x1235;

fn records() -> Vec<JobRecord> {
    let spec = Json::obj(vec![
        ("model", Json::Str("llama".to_string())),
        ("params", Json::Arr(vec![Json::Num(1.0), Json::Num(16.0), Json::Num(128.0)])),
        ("deadline_ms", Json::Null),
        ("warm_cache", Json::Bool(true)),
        ("note", Json::Str("tab\t\"quoted\" \\ é \u{1}".to_string())),
        ("nested", Json::obj(vec![("depth", Json::Arr(vec![Json::obj(vec![])]))])),
    ]);
    let result = |state: &str, best: f64| {
        Json::obj(vec![
            ("state", Json::Str(state.to_string())),
            ("best_ms", Json::f64_bits(best)),
            ("kernels", Json::Arr(vec![Json::obj(vec![("ms", Json::Num(0.1 + 0.2))])])),
        ])
    };
    let submit = |job_id: u64, tenant: &str, submitted_at_ms: u64| JobRecord::Submitted {
        job_id,
        tenant: tenant.to_string(),
        spec: spec.clone(),
        submitted_at_ms,
    };
    let finish = |job_id: u64, outcome: JobOutcome, rounds: usize, latency_ms: f64| {
        JobRecord::Finished {
            job_id,
            outcome,
            rounds,
            latency_ms,
            result: result(outcome.state(), latency_ms),
        }
    };
    vec![
        submit(0, "acme", 1_700_000_000_123),
        submit(BIG, "globex", BIG + 7),
        submit(2, "initech", u64::MAX),
        submit(3, "hooli", 0),
        submit(4, "acme", 1_700_000_000_999),
        submit(5, "umbrella", 1_700_000_001_000),
        JobRecord::CancelRequested { job_id: BIG },
        JobRecord::CrashCounted { job_id: 3, count: 1 },
        finish(0, JobOutcome::Done, 3, 0.1 + 0.2),
        finish(BIG, JobOutcome::Cancelled, 1, f64::INFINITY),
        finish(2, JobOutcome::Expired, 0, f64::NEG_INFINITY),
        JobRecord::CrashCounted { job_id: 3, count: 3 },
        finish(3, JobOutcome::Quarantined, 1, f64::NAN),
        finish(0, JobOutcome::Expired, 9, 1.0),
        JobRecord::CancelRequested { job_id: 4 },
        JobRecord::CrashCounted { job_id: 4, count: 2 },
        JobRecord::CrashCounted { job_id: 4, count: 1 },
        JobRecord::CrashCounted { job_id: 5, count: u32::MAX },
        finish(6, JobOutcome::Done, 1, f64::from_bits(0x7ff8_0000_dead_beef)),
        submit(0, "acme", 1),
    ]
}

fn hash(path: &Path) -> u64 {
    fnv1a(FNV_OFFSET, &std::fs::read(path).expect("read the WAL"))
}

#[test]
fn wal_bytes_match_their_pinned_hashes() {
    let path = std::env::temp_dir().join(format!("felix-pinned-wal-{}.jsonl", std::process::id()));
    std::fs::remove_file(&path).ok();
    let mut wal = JobWal::open(&path).expect("open");
    for record in records() {
        wal.append(&record).expect("append");
    }
    let appended = hash(&path);
    let state = QueueState::replay(&read_job_records(&path).expect("read"));
    wal.compact(&state).expect("compact");
    let compacted = hash(&path);
    let text = std::fs::read_to_string(&path).expect("read");
    std::fs::remove_file(&path).ok();
    assert_eq!(
        (appended, compacted),
        (APPENDED, COMPACTED),
        "the job WAL's bytes moved (appended {appended:#018x}, compacted {compacted:#018x}); \
         compacted log:\n{text}"
    );
}
