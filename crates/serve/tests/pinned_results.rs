//! The daemon's results, pinned across commits. A fixed set of
//! `JobSpec::quick` jobs (tiny llama and dcgan, one and two rounds, no
//! schedule store, no cancels) runs through an in-process `Server`, and
//! each job's result document hashes (FNV-1a over its bytes) to a pinned
//! constant. A change that moves any byte a finished job serves fails here
//! and names the job that moved.
//!
//! The four jobs then run a second time in the same process, where the
//! process memo already holds their search spaces and compiled objectives,
//! and must serve the same bytes: a warm memo changes no result.
//!
//! A change that means to move a result re-pins its constant and says why
//! in CHANGES.md, as with `tests/golden_run.rs` at the workspace root.

mod common;

use common::tmp_dir;
use felix_records::{fnv1a, FNV_OFFSET};
use felix_serve::{Client, JobSpec, ServeConfig, Server};
use std::time::Duration;

const DEVICE: &str = "RTX A5000";
const LLAMA_TINY: [i64; 6] = [1, 16, 128, 4, 344, 2];

/// Each job's name, spec and the pinned hash of its result document.
fn jobs() -> [(&'static str, JobSpec, u64); 4] {
    let llama = |rounds| JobSpec::quick("llama", LLAMA_TINY.to_vec(), DEVICE, rounds);
    let dcgan = |rounds| JobSpec::quick("dcgan", vec![1], DEVICE, rounds);
    [
        ("llama, 1 round", llama(1), 0x9042_61f9_53ca_dcea),
        ("llama, 2 rounds", llama(2), 0x0137_e6d3_6368_1fdf),
        ("dcgan, 1 round", dcgan(1), 0x27f4_8144_08e4_de9f),
        ("dcgan, 2 rounds", dcgan(2), 0xf989_4461_ef48_4ce0),
    ]
}

#[test]
fn served_results_match_their_pinned_hashes() {
    let dir = tmp_dir("pinned-results");
    let server = Server::start(&ServeConfig::new("127.0.0.1:0", &*dir, 2)).expect("start");
    let mut client = Client::connect(server.addr).expect("connect");
    let jobs = jobs();
    let mut moved = Vec::new();
    for pass in ["first run", "rerun on a warm memo"] {
        let ids: Vec<u64> = jobs
            .iter()
            .map(|(_, spec, _)| client.submit("pinned", spec).expect("submit"))
            .collect();
        for ((name, _, pinned), id) in jobs.iter().zip(ids) {
            let (state, result) = client.wait_done(id, Duration::from_secs(120)).expect("result");
            assert_eq!(state, "done", "{name}, {pass}: {}", result.write());
            let got = fnv1a(FNV_OFFSET, result.write().as_bytes());
            if got != *pinned {
                moved.push(format!("{name}, {pass}: {got:#018x} (pinned {pinned:#018x})"));
            }
        }
    }
    server.shutdown_and_wait();
    assert!(moved.is_empty(), "these jobs' results moved:\n{}", moved.join("\n"));
}
