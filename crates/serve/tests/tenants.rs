//! The tenant boundary: admission refuses a tenant that is not 1 to 32
//! bytes of `[A-Za-z0-9_-]` and writes nothing for it, and each admitted
//! tenant's schedules live in its own store file, which no other tenant's
//! jobs read.

mod common;

use common::tmp_dir;
use felix::cache::{CacheOutcome, ScheduleCache};
use felix_ansor::SearchTask;
use felix_serve::{store_path, Client, ClientError, JobSpec, ServeConfig, Server, WAL_FILE};
use felix_sim::Simulator;
use std::time::Duration;

const DEVICE: &str = "RTX A5000";

fn tiny_spec() -> JobSpec {
    JobSpec::quick("llama", vec![1, 16, 128, 4, 344, 2], DEVICE, 1)
}

#[test]
fn admission_refuses_tenants_outside_the_rule_and_leaves_the_wal_alone() {
    let dir = tmp_dir("tenant-rule");
    let server = Server::start(&ServeConfig::new("127.0.0.1:0", &*dir, 1)).expect("start");
    let mut client = Client::connect(server.addr).expect("connect");
    let wal = || std::fs::read(dir.join(WAL_FILE)).expect("read wal");
    let before = wal();
    let too_long = "a".repeat(33);
    for tenant in ["", too_long.as_str(), "ac/me", "ac.me", "ac me", "ac\u{1f}me"] {
        match client.submit(tenant, &tiny_spec()) {
            Err(ClientError::Server(message)) => assert!(message.contains("tenant"), "{message}"),
            other => panic!("tenant {tenant:?} was answered {other:?}"),
        }
        assert_eq!(wal(), before, "refusing tenant {tenant:?} wrote to the WAL");
    }
    let longest = "Tenant_-0123456789abcdefghijklmn";
    assert_eq!(longest.len(), 32);
    client.submit(longest, &tiny_spec()).expect("a 32-byte tenant is admitted");
    server.shutdown_and_wait();
}

#[test]
fn a_tenants_schedules_serve_only_from_its_own_store_file() {
    let dir = tmp_dir("tenant-stores");
    let server = Server::start(&ServeConfig::new("127.0.0.1:0", &*dir, 1)).expect("start");
    let mut client = Client::connect(server.addr).expect("connect");
    let job = client.submit("tenant-a", &tiny_spec()).expect("submit");
    let (state, _) = client.wait_done(job, Duration::from_secs(120)).expect("job result");
    assert_eq!(state, "done");
    server.shutdown_and_wait();

    let spec = tiny_spec();
    let sim = Simulator::new(spec.resolve_device().expect("device"));
    let graph = spec.resolve_graph().expect("graph");
    let tasks: Vec<SearchTask> =
        felix::extract_subgraphs(&graph).iter().map(|t| SearchTask::from_task(t, &sim)).collect();
    let outcomes = |tenant: &str| -> Vec<CacheOutcome> {
        let mut cache = ScheduleCache::open(store_path(&dir, tenant)).expect("open store");
        tasks.iter().map(|t| cache.apply(&mut t.clone(), DEVICE)).collect()
    };
    assert!(outcomes("tenant-a").contains(&CacheOutcome::Hit), "tenant-a's own store misses");
    assert!(
        outcomes("tenant-b").iter().all(|o| *o == CacheOutcome::Miss),
        "tenant-b's store serves tenant-a's schedules"
    );
}
