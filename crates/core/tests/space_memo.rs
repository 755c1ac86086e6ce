//! The process memo of search spaces against fresh builds. An optimizer
//! takes each task's space from the memo, keyed by (workload key, hardware
//! limits, generator hash); a key that two different workloads shared
//! would hand one task another's sketches. So for every task of the six
//! networks at batch 1 and 16, on each of the three devices, the space an
//! optimizer holds must print (`Debug`, folded into FNV-1a) exactly as a
//! fresh `SearchTask::from_task` build of that task does.

use felix::{FelixOptions, Optimizer};
use felix_ansor::{SearchSpace, SearchTask};
use felix_cost::Mlp;
use felix_graph::{models, partition, Graph};
use felix_records::{fnv1a, FNV_OFFSET};
use felix_sim::{DeviceConfig, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn space_hash(space: &SearchSpace) -> u64 {
    fnv1a(FNV_OFFSET, format!("{space:?}").as_bytes())
}

#[test]
fn memoized_spaces_equal_fresh_builds() {
    let model = Mlp::new(&mut StdRng::seed_from_u64(0));
    let graphs: Vec<Graph> = [1, 16].into_iter().flat_map(models::all_models).collect();
    let mut checked = 0;
    for device in DeviceConfig::all() {
        let sim = Simulator::new(device);
        // Every network's optimizer first, so a later network's lookups
        // meet the spaces earlier networks (and devices) put in the memo.
        let opts: Vec<Optimizer> = graphs
            .iter()
            .map(|g| {
                Optimizer::with_options(
                    partition(g),
                    model.clone(),
                    device,
                    FelixOptions::default(),
                )
            })
            .collect();
        for (graph, opt) in graphs.iter().zip(&opts) {
            for (task, held) in partition(graph).iter().zip(opt.tasks()) {
                let fresh = SearchTask::from_task(task, &sim);
                assert_eq!(
                    space_hash(held.sketches.space()),
                    space_hash(fresh.sketches.space()),
                    "{} of {} on {}",
                    held.name,
                    graph.name,
                    device.name
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 3 * 204, "every task on every device");
}
