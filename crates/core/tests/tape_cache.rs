//! End-to-end tests of the shared objective cache: tuning with the cache
//! attached is bit-identical to tuning without it at every thread count, a
//! second optimizer over the same workloads reuses every compiled
//! objective, and different extents never share a tape.

mod common;

use common::{
    assert_tasks_bit_identical, history_bits, quick_options, scaled_network, tiny_network,
};
use felix::{pretrained_cost_model, ModelQuality, Optimizer, TapeCache};
use felix_sim::DeviceConfig;
use std::sync::Arc;

fn tape_cache_hits(opt: &Optimizer) -> usize {
    opt.stats.iter().map(|s| s.tape_cache_hits).sum()
}

#[test]
fn tape_cache_is_bit_identical_at_every_thread_count() {
    // The cache may only skip redundant compiles, never change a result:
    // at each thread count, a cache-backed run must reproduce the plain
    // run's curve, task states, and RNG position bit for bit — and a
    // second optimizer over the same workloads must serve every objective
    // from the cache and still match.
    for threads in [1usize, 2, 4] {
        let device = DeviceConfig::a5000();
        let model = pretrained_cost_model(&device, ModelQuality::Fast);
        let mut plain =
            Optimizer::with_options(tiny_network(), model.clone(), device, quick_options(threads));
        let n_rounds = plain.tasks().len() + 1;
        plain.optimize_all(n_rounds, 4);

        let cache = Arc::new(TapeCache::new());
        let mut first =
            Optimizer::with_options(tiny_network(), model.clone(), device, quick_options(threads))
                .with_shared_tape_cache(cache.clone());
        first.optimize_all(n_rounds, 4);
        assert_eq!(history_bits(&plain), history_bits(&first), "{threads} threads, cold cache");
        assert_tasks_bit_identical(&plain, &first);
        assert_eq!(plain.rng_state(), first.rng_state());
        let cold_entries = cache.entries();
        assert!(cold_entries > 0, "cold run must populate the cache");
        assert_eq!(tape_cache_hits(&first), 0, "nothing to hit on a cold cache");

        // Second optimizer, same workloads, same cache: every sketch
        // objective is served from the cache (one hit per sketch) and the
        // run is still bit-identical.
        let mut second =
            Optimizer::with_options(tiny_network(), model, device, quick_options(threads))
                .with_shared_tape_cache(cache.clone());
        second.optimize_all(n_rounds, 4);
        assert_eq!(history_bits(&plain), history_bits(&second), "{threads} threads, warm cache");
        assert_tasks_bit_identical(&plain, &second);
        assert_eq!(plain.rng_state(), second.rng_state());
        assert_eq!(cache.entries(), cold_entries, "warm run must not add entries");
        let total_sketches: usize = second.tasks().iter().map(|t| t.sketches.len()).sum();
        assert_eq!(tape_cache_hits(&second), total_sketches, "every objective served from cache");
    }
}

#[test]
fn different_extents_never_share_a_tape() {
    // The fingerprint includes every pool constant, and constants carry the
    // loop extents — so the scaled network, structurally identical to the
    // tiny one, must miss.
    let device = DeviceConfig::a5000();
    let model = pretrained_cost_model(&device, ModelQuality::Fast);
    let cache = Arc::new(TapeCache::new());
    let mut tiny = Optimizer::with_options(tiny_network(), model.clone(), device, quick_options(1))
        .with_shared_tape_cache(cache.clone());
    tiny.optimize_all(1, 2);
    let after_tiny = cache.entries();

    let mut plain =
        Optimizer::with_options(scaled_network(), model.clone(), device, quick_options(1));
    plain.optimize_all(1, 2);
    let mut scaled = Optimizer::with_options(scaled_network(), model, device, quick_options(1))
        .with_shared_tape_cache(cache.clone());
    scaled.optimize_all(1, 2);
    assert_eq!(tape_cache_hits(&scaled), 0, "no cross-extent hits");
    assert!(cache.entries() > after_tiny, "scaled entries added");
    assert_eq!(history_bits(&plain), history_bits(&scaled));
    assert_tasks_bit_identical(&plain, &scaled);
}
