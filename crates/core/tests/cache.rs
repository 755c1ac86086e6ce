//! End-to-end tests of the global schedule cache: an empty store perturbs
//! nothing at any thread count, an exact hit serves a tuned schedule
//! without touching the RNG or the tuning clock, structural warm starts
//! are deterministic, and kill-and-resume with a store attached stays
//! byte-identical to the uninterrupted run.

mod common;

use common::{
    assert_tasks_bit_identical, history_bits, quick_options, scaled_network, tiny_network, tmp_dir,
};
use felix::{pretrained_cost_model, ModelQuality, Optimizer};
use felix_sim::DeviceConfig;

#[test]
fn empty_schedule_store_is_bit_identical_at_every_thread_count() {
    // Parity bar: attaching a store that starts empty serves no hits and no
    // warm starts, so the run — curve, clock, RNG consumption, task states,
    // and stats — must match a storeless run bit for bit.
    for threads in [1usize, 2, 4] {
        let device = DeviceConfig::a5000();
        let model = pretrained_cost_model(&device, ModelQuality::Fast);
        let mut plain =
            Optimizer::with_options(tiny_network(), model.clone(), device, quick_options(threads));
        let n_rounds = plain.tasks().len() + 1;
        plain.optimize_all(n_rounds, 4);

        let dir = tmp_dir("empty-store");
        let mut cached =
            Optimizer::with_options(tiny_network(), model, device, quick_options(threads))
                .with_schedule_store(dir.join("schedules.jsonl"))
                .expect("open schedule store");
        cached.optimize_all(n_rounds, 4);

        assert_eq!(history_bits(&plain), history_bits(&cached), "{threads} threads");
        assert_eq!(plain.tuning_time_s().to_bits(), cached.tuning_time_s().to_bits());
        assert_eq!(plain.rng_state(), cached.rng_state(), "{threads} threads");
        // Same proposer rounds, and no cache activity. (Whole-struct
        // equality would also compare wall-clock throughput fields, which
        // legitimately differ.)
        assert_eq!(plain.stats.len(), cached.stats.len());
        for (sp, sc) in plain.stats.iter().zip(&cached.stats) {
            assert_eq!(sp.grad_steps, sc.grad_steps);
            assert_eq!(sp.candidates, sc.candidates);
            assert_eq!(sp.threads, sc.threads);
        }
        let cache = cached.schedule_cache().expect("store attached");
        assert_eq!((cache.hits, cache.warm_starts, cache.stale), (0, 0, 0));
        assert_tasks_bit_identical(&plain, &cached);
        // The run still published its incumbents for future sessions.
        assert_eq!(cache.store().len(), cached.tasks().len());
    }
}

#[test]
fn exact_hit_serves_schedule_without_rng_or_clock() {
    // Tune once against a store, then point a *fresh* optimizer at the same
    // store: every task must come back as an exact hit — incumbent restored
    // in microseconds with zero measurement budget spent, zero master-RNG
    // draws, and zero clock advancement — and compile immediately.
    let device = DeviceConfig::a5000();
    let model = pretrained_cost_model(&device, ModelQuality::Fast);
    let dir = tmp_dir("exact-hit");
    let store = dir.join("schedules.jsonl");

    let mut tuned = Optimizer::with_options(tiny_network(), model.clone(), device, quick_options(1))
        .with_schedule_store(&store)
        .expect("open schedule store");
    let n_tasks = tuned.tasks().len();
    tuned.optimize_all(n_tasks + 1, 4);
    assert!(tuned.tasks().iter().all(|t| t.best_schedule.is_some()));

    let baseline = Optimizer::with_options(tiny_network(), model.clone(), device, quick_options(1));
    let virgin_rng = baseline.rng_state();

    let hit = Optimizer::with_options(tiny_network(), model, device, quick_options(1))
        .with_schedule_store(&store)
        .expect("reopen schedule store");
    assert_eq!(hit.rng_state(), virgin_rng, "cache hits must not draw randomness");
    assert_eq!(hit.tuning_time_s().to_bits(), 0.0f64.to_bits(), "zero budget spent");
    assert!(hit.tasks().iter().all(|t| t.best_schedule.is_some()), "every task served");
    let cache = hit.schedule_cache().expect("store attached");
    assert_eq!(cache.hits, n_tasks);
    assert_eq!(cache.warm_starts, 0);
    // Serving from the store ran no proposer round.
    assert!(hit.stats.is_empty());
    // The served schedules are the tuned run's incumbents, bit for bit.
    for (ta, tb) in tuned.tasks().iter().zip(hit.tasks()) {
        assert_eq!(ta.best_latency_ms.to_bits(), tb.best_latency_ms.to_bits());
        assert_eq!(ta.best_schedule, tb.best_schedule);
    }
    let module = hit.compile_with_best_configs();
    assert_eq!(module.kernels.len(), n_tasks);
    assert!((module.latency_ms() - tuned.compile_with_best_configs().latency_ms()).abs() < 1e-12);
}

#[test]
fn warm_start_from_structural_near_miss_is_deterministic() {
    // Populate the store from one network, then tune the same architecture
    // at different extents: no workload key matches, but the structure
    // hashes do, so tasks warm-start from the donor's schedule. Two
    // identical warm runs must agree bit for bit (the hint machinery stays
    // on deterministic RNG substreams), and the warm run must still
    // converge to a finite network latency.
    let device = DeviceConfig::a5000();
    let model = pretrained_cost_model(&device, ModelQuality::Fast);
    let dir = tmp_dir("warm");
    let store = dir.join("schedules.jsonl");

    let mut donor = Optimizer::with_options(tiny_network(), model.clone(), device, quick_options(1))
        .with_schedule_store(&store)
        .expect("open schedule store");
    donor.optimize_all(donor.tasks().len() + 1, 4);

    // Each run gets its own copy of the donor store: a warm run publishes
    // its own incumbents back, which would turn the second run's near-misses
    // into exact hits.
    let run = |tag: &str| {
        let copy = dir.join(format!("store-{tag}.jsonl"));
        std::fs::copy(&store, &copy).expect("copy donor store");
        let mut opt = Optimizer::with_options(
            scaled_network(),
            pretrained_cost_model(&DeviceConfig::a5000(), ModelQuality::Fast),
            DeviceConfig::a5000(),
            quick_options(1),
        )
        .with_schedule_store(&copy)
        .expect("open schedule store");
        let warm = opt.schedule_cache().expect("attached").warm_starts;
        let hits = opt.schedule_cache().expect("attached").hits;
        let n = opt.tasks().len();
        opt.optimize_all(n + 1, 4);
        (opt, warm, hits)
    };
    let (a, warm_a, hits_a) = run("a");
    let (b, warm_b, _) = run("b");
    assert_eq!(hits_a, 0, "different extents must not be exact hits");
    assert!(warm_a > 0, "structural near-miss must warm-start");
    assert_eq!(warm_a, warm_b);
    assert_eq!(history_bits(&a), history_bits(&b));
    assert_eq!(a.rng_state(), b.rng_state());
    assert_tasks_bit_identical(&a, &b);
    assert!(felix_ansor::network_latency(a.tasks()).is_finite());
}

#[test]
fn stale_generator_entries_are_clean_misses_and_retuned() {
    // Regression for the ROADMAP "stale cache" gap: entries written by a
    // different sketch-generator version must be skipped-and-counted, not
    // served. Tune once (publishing entries stamped with the live
    // generator fingerprint), flip every stored fingerprint on disk, and
    // reattach: every lookup must come back a clean miss with the stale
    // counter raised, and re-tuning must proceed bit-identically to a run
    // against no store at all.
    let device = DeviceConfig::a5000();
    let model = pretrained_cost_model(&device, ModelQuality::Fast);
    let dir = tmp_dir("stale");
    let store = dir.join("schedules.jsonl");

    let mut tuned = Optimizer::with_options(tiny_network(), model.clone(), device, quick_options(1))
        .with_schedule_store(&store)
        .expect("open schedule store");
    let n_tasks = tuned.tasks().len();
    let n_rounds = n_tasks + 1;
    tuned.optimize_all(n_rounds, 4);

    // Flip the generator fingerprint of every entry, simulating a store
    // written by an older sketch generator.
    let live = felix_tir::sketch::generator_hash();
    let flipped = live ^ 0xFFFF_FFFF_FFFF_FFFF;
    let text = std::fs::read_to_string(&store).expect("read store");
    let stale_text = text.replace(
        &format!("\"gen\":\"{live:016x}\""),
        &format!("\"gen\":\"{flipped:016x}\""),
    );
    assert_ne!(text, stale_text, "store entries carry the live fingerprint");
    std::fs::write(&store, stale_text).expect("rewrite store");

    let mut stale_run =
        Optimizer::with_options(tiny_network(), model.clone(), device, quick_options(1))
            .with_schedule_store(&store)
            .expect("reopen schedule store");
    {
        let cache = stale_run.schedule_cache().expect("store attached");
        assert_eq!(cache.hits, 0, "stale entries must not be served");
        assert_eq!(cache.warm_starts, 0, "stale entries must not warm-start");
        assert_eq!(cache.stale, n_tasks, "every rejection is counted");
    }
    assert!(stale_run.stats.is_empty(), "attaching ran no proposer round");

    // The re-tune is bit-identical to a storeless run: a stale store
    // degrades cleanly to a cold start, perturbing nothing.
    let mut plain = Optimizer::with_options(tiny_network(), model, device, quick_options(1));
    plain.optimize_all(n_rounds, 4);
    stale_run.optimize_all(n_rounds, 4);
    assert_eq!(history_bits(&plain), history_bits(&stale_run));
    assert_eq!(plain.rng_state(), stale_run.rng_state());
    assert_tasks_bit_identical(&plain, &stale_run);
    // Publishing replaced the stale entries with freshly stamped ones
    // (strictly better or equal latencies re-tuned from scratch), so a
    // third attach hits again.
    let third = Optimizer::with_options(
        tiny_network(),
        pretrained_cost_model(&DeviceConfig::a5000(), ModelQuality::Fast),
        DeviceConfig::a5000(),
        quick_options(1),
    )
    .with_schedule_store(&store)
    .expect("third attach");
    let cache = third.schedule_cache().expect("attached");
    assert!(cache.hits > 0, "re-published entries serve again");
    assert_eq!(cache.stale, 0);
}

#[test]
fn tenant_namespaces_isolate_schedule_lookups() {
    // Two tenants share one store file: tenant A tunes and publishes;
    // tenant B attaching the same file must see neither exact hits nor
    // warm starts from A's entries, while A re-attaching sees full hits.
    // The unscoped global namespace is likewise invisible to both.
    let device = DeviceConfig::a5000();
    let model = pretrained_cost_model(&device, ModelQuality::Fast);
    let dir = tmp_dir("ns");
    let store = dir.join("schedules.jsonl");

    let mut tenant_a =
        Optimizer::with_options(tiny_network(), model.clone(), device, quick_options(1))
            .with_schedule_store_namespaced(&store, "tenant-a")
            .expect("open store");
    let n_tasks = tenant_a.tasks().len();
    tenant_a.optimize_all(n_tasks + 1, 4);

    let tenant_b = Optimizer::with_options(tiny_network(), model.clone(), device, quick_options(1))
        .with_schedule_store_namespaced(&store, "tenant-b")
        .expect("open store as tenant-b");
    let cache_b = tenant_b.schedule_cache().expect("attached");
    assert_eq!(cache_b.hits, 0, "cross-tenant exact hits forbidden");
    assert_eq!(cache_b.warm_starts, 0, "cross-tenant warm starts forbidden");
    assert_eq!(cache_b.stale, 0);

    let global = Optimizer::with_options(tiny_network(), model.clone(), device, quick_options(1))
        .with_schedule_store(&store)
        .expect("open store unscoped");
    let cache_g = global.schedule_cache().expect("attached");
    assert_eq!(cache_g.hits + cache_g.warm_starts, 0, "scoped entries invisible globally");

    let again = Optimizer::with_options(tiny_network(), model, device, quick_options(1))
        .with_schedule_store_namespaced(&store, "tenant-a")
        .expect("reopen store as tenant-a");
    assert_eq!(again.schedule_cache().expect("attached").hits, n_tasks);
}

#[test]
fn kill_and_resume_with_store_attached_stays_byte_identical() {
    // The store composes with checkpointing: checkpoint every round, kill
    // halfway, resume (which reattaches the store for publishing), finish.
    // Curve and task states must match an uninterrupted run that kept its
    // own (equally empty at start) store attached throughout.
    let device = DeviceConfig::a5000();
    let model = pretrained_cost_model(&device, ModelQuality::Fast);
    let base_dir = tmp_dir("base");
    let mut base = Optimizer::with_options(tiny_network(), model.clone(), device, quick_options(2))
        .with_schedule_store(base_dir.join("schedules.jsonl"))
        .expect("open store");
    let n_rounds = base.tasks().len() + 2;
    base.optimize_all(n_rounds, 4);

    let dir = tmp_dir("resume");
    let m = n_rounds / 2;
    {
        let mut first =
            Optimizer::with_options(tiny_network(), model.clone(), device, quick_options(2))
                .with_schedule_store(dir.join("schedules.jsonl"))
                .expect("open store")
                .with_checkpointing(&dir, 1);
        first.optimize_all(m, 4);
        // Dropped here: the "crash".
    }
    let mut resumed =
        Optimizer::resume_from_checkpoint(tiny_network(), device, quick_options(2), &dir)
            .expect("resume from checkpoint");
    assert!(resumed.schedule_cache().is_some(), "store reattached from checkpoint");
    resumed.optimize_all(n_rounds - m, 4);

    assert_eq!(history_bits(&resumed), history_bits(&base));
    assert_eq!(resumed.tuning_time_s().to_bits(), base.tuning_time_s().to_bits());
    assert_tasks_bit_identical(&base, &resumed);
    // Both stores converge on the same incumbents. (The files themselves
    // differ in append history: the checkpointed run publishes on every
    // round boundary, the uninterrupted one only at the end.)
    let entries = |opt: &Optimizer| {
        opt.schedule_cache()
            .expect("store attached")
            .store()
            .entries()
            .map(|e| {
                (
                    e.task_key,
                    e.sketch,
                    e.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    e.latency_ms.to_bits(),
                )
            })
            .collect::<Vec<_>>()
    };
    let base_entries = entries(&base);
    assert_eq!(base_entries.len(), base.tasks().len());
    assert_eq!(base_entries, entries(&resumed));
}
