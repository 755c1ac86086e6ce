//! Append-failure policy, end to end: a daemon whose WAL stops accepting
//! appends must not "log and advance". A worker-side commit that fails is
//! reported and drains the daemon, which exits on its own. (That the failed
//! commit left the queue state untouched is `felix-records`' `/dev/full`
//! test.) The failure is real, not injected: the WAL path is a FIFO whose
//! read end the test closes, so every append fails with `EPIPE`.

#![cfg(target_os = "linux")]

mod common;

use common::tmp_dir;
use felix_records::JobRecord;
use felix_serve::JobSpec;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn failed_worker_commit_is_reported_and_drains_the_daemon() {
    if std::env::var("FELIX_SKIP_CRASH_TESTS").is_ok() {
        return;
    }
    let dir = tmp_dir("epipe");
    let wal = dir.join("wal.jsonl");
    assert!(Command::new("mkfifo").arg(&wal).status().expect("run mkfifo").success());
    let mut child = Command::new(env!("CARGO_BIN_EXE_felix-served"))
        .arg("--data-dir")
        .arg(&*dir)
        .args(["--addr", "127.0.0.1:0", "--shards", "1"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn felix-served");

    // Each open rendezvouses with the daemon's matching one: its replay
    // reads this one pending job to EOF, then its append handle opens
    // against a read end that is gone before the first commit.
    let submit = JobRecord::Submitted {
        job_id: 0,
        tenant: "acme".to_string(),
        spec: JobSpec::quick("llama", vec![1, 16, 128, 4, 344, 2], "RTX A5000", 1).to_json(),
        submitted_at_ms: 1,
    };
    let mut replayed = OpenOptions::new().write(true).open(&wal).expect("open fifo for replay");
    writeln!(replayed, "{}", submit.to_json().write()).expect("play the WAL");
    drop(replayed);
    drop(File::open(&wal).expect("open fifo read end"));

    let deadline = Instant::now() + Duration::from_secs(120);
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait daemon") {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("daemon kept running on a WAL it cannot append to");
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    let mut log = String::new();
    child.stderr.take().expect("child stderr").read_to_string(&mut log).expect("read stderr");
    assert!(status.success(), "drain must be a clean exit: {status:?}\n{log}");
    assert!(log.contains("append for job 0000000000000000 failed, draining"), "{log}");
}
