//! `persist_cycle`: writes beside reads on `records`, `core::persist` and
//! `core::cache`. One operation is one cycle on a fresh data directory:
//! eight seeded single-operator tasks are tuned through `Optimizer`
//! (4 seeds x 50 steps, 8 measurements) for eight rounds — one per task —
//! with a record log, a schedule store and per-round checkpoints attached
//! (the write side); then one `Optimizer::resume_from_checkpoint`, one
//! `with_record_log` replay on a fresh optimizer, and three fresh
//! optimizers served whole from the schedule store (the read side, all
//! exact hits). Every cycle does the same work, so the samples are
//! stationary. A cheaper append that makes replay, resume or hit-serving
//! slower — or the reverse — moves the cycle and shows in the per-layer
//! split.

use super::{tuned_state, TunedState};
use crate::gen::distinct_shapes;
use crate::harness::{
    ms_since, pretrain_fast_model, timed_setups, us_since, Calibrator, Checks, EndToEndSamples,
    Layers, RunConfig, RunOutput, TempDir, Window,
};
use crate::probes::finish_hit_rates;
use crate::trace::Recorder;
use felix::persist::{MODEL_FILE, STATE_FILE};
use felix::{replay_records, FelixOptions, Optimizer, ScheduleCache};
use felix_ansor::{network_latency, SearchTask, TunerStats};
use felix_cost::Mlp;
use felix_graph::{partition, Graph, Task};
use felix_records::{read_all_records, Json, Record, RecordLog, ScheduleStore};
use felix_sim::{DeviceConfig, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::Instant;

struct Paths {
    dir: PathBuf,
    log: PathBuf,
    store: PathBuf,
    ckpt: PathBuf,
}

impl Paths {
    fn under(dir: PathBuf) -> Paths {
        Paths {
            log: dir.join("records.jsonl"),
            store: dir.join("schedules.jsonl"),
            ckpt: dir.join("ckpt"),
            dir,
        }
    }
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

fn final_state(opt: &Optimizer) -> TunedState {
    tuned_state(opt.tasks(), opt.rng_state(), opt.tuning_time_s())
}

#[allow(clippy::too_many_lines)]
pub fn run(cfg: &RunConfig, tmp: &TempDir) -> RunOutput {
    let device = DeviceConfig::a5000();
    let sim = Simulator::new(device);
    let options = FelixOptions {
        n_seeds: cfg.pick(4, 2),
        n_steps: cfg.pick(50, 20),
        ..FelixOptions::default()
    };
    let measures = cfg.pick(8, 4);
    let n_tasks = cfg.pick(8, 3);
    let hits_per_cycle = cfg.pick(3, 1);
    let mut checks = Checks::default();
    let mut layers = Layers::default();
    let mut rec = Recorder::new(cfg.trace);
    let fresh = |tasks: &[Task], model: &Mlp| {
        Optimizer::with_options(tasks.to_vec(), model.clone(), device, options)
    };

    let ((model0, tasks), setup_samples) = timed_setups(|_| {
        let model0 = pretrain_fast_model(&device);
        let mut graph = Graph::new("persist-pool");
        for shape in distinct_shapes(cfg.seed, n_tasks) {
            shape.push_into(&mut graph);
        }
        (model0, partition(&graph))
    });
    // `Optimizer` seeds its own RNG; a store-served one must leave it here.
    let untouched_rng = StdRng::seed_from_u64(0xF311).state();

    let window = Window::open(cfg.seconds, cfg.pick(4, 1));
    let mut op_ms = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    // The last cycle's optimizer and directory outlive the loop for the
    // resume-then-continue check and the storage probes.
    let mut last: Option<(Optimizer, Paths)> = None;
    let mut calib = Calibrator::default();
    let mut rss_counted = 0.0;
    let mut op = 0usize;
    while window.more(op) {
        calib.before_op(op_ms.last().copied());
        let id = op as u64;
        if let Some((_, old)) = last.take() {
            drop(std::fs::remove_dir_all(&old.dir));
        }
        let paths = Paths::under(tmp.sub(&format!("cycle-{op}")));
        let mut ok = true;
        let mut round_ms = Vec::with_capacity(tasks.len());
        let cycle = rec.begin("persist.cycle", id);
        let t_cycle = Instant::now();
        let mut opt = fresh(&tasks, &model0)
            .with_record_log(&paths.log)
            .and_then(|o| o.with_schedule_store(&paths.store))
            .expect("attach record log and schedule store")
            .with_checkpointing(&paths.ckpt, 1);
        for _ in 0..tasks.len() {
            let span = rec.begin("persist.round", id);
            let t = Instant::now();
            opt.tick(measures);
            round_ms.push(ms_since(t));
            rec.end(span);
        }
        let every_task = opt.tasks().iter().all(|t| t.best_latency_ms.is_finite());
        checks.record("unmeasured_tasks_zero", every_task, || {
            "one round per task left a task unmeasured".into()
        });
        ok &= every_task;
        let live_latency = network_latency(opt.tasks());

        let span = rec.begin("core.resume", id);
        let t = Instant::now();
        let resumed =
            Optimizer::resume_from_checkpoint(tasks.clone(), device, options, &paths.ckpt);
        let resume_ms = ms_since(t);
        rec.end(span);
        let same = resumed
            .as_ref()
            .is_ok_and(|r| final_state(r) == final_state(&opt));
        checks.record("resume_restores_the_live_state", same, || {
            format!(
                "resume gave {:?}",
                resumed
                    .as_ref()
                    .map(final_state)
                    .map_err(ToString::to_string)
            )
        });
        ok &= same;
        drop(resumed);

        let span = rec.begin("core.with_record_log", id);
        let t = Instant::now();
        let replayed = fresh(&tasks, &model0).with_record_log(&paths.log);
        let replay_ms = ms_since(t);
        rec.end(span);
        let same = replayed
            .as_ref()
            .is_ok_and(|r| network_latency(r.tasks()).to_bits() == live_latency.to_bits());
        checks.record("log_replay_rebuilds_the_incumbents", same, || {
            "with_record_log on a fresh optimizer disagrees with the live one".into()
        });
        ok &= same;
        drop(replayed);

        let mut hit_ms = Vec::with_capacity(hits_per_cycle);
        for _ in 0..hits_per_cycle {
            let span = rec.begin("core.hit_serve", id);
            let t = Instant::now();
            let served = fresh(&tasks, &model0).with_schedule_store(&paths.store);
            let module = served.as_ref().ok().and_then(|s| {
                s.tasks()
                    .iter()
                    .all(|t| t.best_schedule.is_some())
                    .then(|| s.compile_with_best_configs())
            });
            hit_ms.push(ms_since(t));
            rec.end(span);
            let exact = served.as_ref().is_ok_and(|s| {
                s.schedule_cache().is_some_and(|c| c.hits == tasks.len())
                    && s.rng_state() == untouched_rng
                    && s.tuning_time_s() == 0.0
            }) && module
                .is_some_and(|m| m.latency_ms().to_bits() == live_latency.to_bits());
            checks.record("store_serves_exact_hits_for_free", exact, || {
                "a store-served optimizer missed a task, spent RNG or clock, or served another latency"
                    .into()
            });
            ok &= exact;
        }
        let ms = ms_since(t_cycle);
        rec.end(cycle);
        op_ms.push(ms);
        attempted += 1;
        failed += u64::from(!ok);

        if cfg.trace {
            for &r in &round_ms {
                layers.sample("ansor.round_ms", r);
            }
            layers.sample("core.resume_ms", resume_ms);
            layers.sample("core.replay_records_ms", replay_ms);
            for &h in &hit_ms {
                layers.sample("core.hit_serve_ms", h);
            }
            // The store-less twin: same tasks, same rounds, nothing
            // attached. Sinks and stores are pure observers, so it does
            // identical work and the difference is the persistence tax.
            let mut twin = fresh(&tasks, &model0);
            for &persisted in &round_ms {
                let t = Instant::now();
                twin.tick(measures);
                let bare = ms_since(t);
                layers.sample("core.persist_tax_ms_per_round", persisted - bare);
                rec.replayed("persist.twin_round", id, None, (bare * 1e6) as u64);
            }
            let pure = final_state(&twin) == final_state(&opt);
            checks.record("persistence_is_a_pure_observer", pure, || {
                "the store-less twin diverged from the persisted run".into()
            });
            let t = Instant::now();
            opt.save_checkpoint().expect("write checkpoint");
            let save_ms = ms_since(t);
            layers.sample("core.checkpoint_save_ms", save_ms);
            rec.replayed("core.checkpoint_save", id, None, (save_ms * 1e6) as u64);
            if window.counted(op) {
                note_stats(&opt.stats, &mut layers);
                let measured: usize = opt.tasks().iter().map(|t| t.measured.len()).sum();
                layers.add("sim.measurements", measured as f64);
            }
        }
        op += 1;
        if op == window.min_ops {
            rss_counted = crate::stats::peak_rss_mb();
            layers.set("ansor.final_latency_ms", live_latency);
            layers.set("sim.tuning_clock_s", opt.tuning_time_s());
            layers.set(
                "core.checkpoint_bytes",
                file_len(&paths.ckpt.join(STATE_FILE)) + file_len(&paths.ckpt.join(MODEL_FILE)),
            );
            layers.set("records.store_bytes", file_len(&paths.store));
            layers.set(
                "records.log_bytes_per_round",
                file_len(&paths.log) / tasks.len() as f64,
            );
        }
        last = Some((opt, paths));
    }
    let e2e = EndToEndSamples::of_loop(setup_samples, op_ms, &window, calib, rss_counted);

    let (mut opt, paths) = last.expect("the window ran at least one cycle");
    if cfg.trace {
        finish_hit_rates(&mut layers);
        storage_probes(&opt, &tasks, &paths, tmp, &sim, &mut layers, &mut rec);
    } else {
        // Resume, then two rounds, must equal the uninterrupted
        // continuation in every bit: latencies, schedules, RNG, clock.
        let resumed =
            Optimizer::resume_from_checkpoint(tasks.clone(), device, options, &paths.ckpt);
        let same = resumed.is_ok_and(|mut r| {
            r.optimize_all(2, measures);
            opt.optimize_all(2, measures);
            final_state(&r) == final_state(&opt)
        });
        checks.record("resume_then_rounds_equals_uninterrupted", same, || {
            "two rounds after resume differ from two rounds without the restart".into()
        });
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

/// `core.*` search counters from the optimizer's own per-round stats (the
/// optimizer owns its proposer, so there is no decorator here).
fn note_stats(stats: &[TunerStats], layers: &mut Layers) {
    for s in stats.iter().filter(|s| s.grad_steps > 0) {
        layers.sample("core.descent_steps_per_s", s.steps_per_sec);
        layers.sample(
            "core.descent_ms",
            s.grad_steps as f64 / s.steps_per_sec * 1e3,
        );
        layers.sample("core.penalty_violation_rate", s.penalty_violation_rate);
        layers.sample("core.rounding_rejection_rate", s.rounding_rejection_rate);
        layers.add("core.candidates", s.candidates as f64);
        layers.add("core.seed_restarts", s.seed_restarts as f64);
        layers.add("core.nonfinite_events", s.nonfinite_events as f64);
        layers.add("probe.memo_hits", s.cache_hits as f64);
        layers.add("probe.memo_lookups", (s.cache_hits + s.cache_misses) as f64);
        layers.add("sim.measure_failures", s.measure_failures as f64);
    }
}

/// The storage layers one call at a time, on scratch copies fed with the
/// last cycle's own records, store entries and checkpoint document.
fn storage_probes(
    opt: &Optimizer,
    tasks: &[Task],
    paths: &Paths,
    tmp: &TempDir,
    sim: &Simulator,
    layers: &mut Layers,
    rec: &mut Recorder,
) {
    let device = sim.device.name;
    let scratch = tmp.sub("persist-probes");
    let mut probe = |name: &'static str, metric: &'static str, value: f64, ns: f64| {
        layers.sample(metric, value);
        rec.replayed(name, 0, None, ns as u64);
    };

    // Record log: append the cycle's records to a scratch log.
    let records = read_all_records(&paths.log).expect("read record log");
    let mut log = RecordLog::open(scratch.join("log.jsonl")).expect("open scratch log");
    let measurements = records.iter().filter_map(|r| match r {
        Record::Measurement(m) => Some(m),
        Record::Health(_) => None,
    });
    for r in measurements {
        let t = Instant::now();
        log.append(r).expect("append to scratch log");
        let us = us_since(t);
        probe("records.log_append", "records.log_append_us", us, us * 1e3);
    }

    // Schedule store: open the real one, insert its entries into an empty
    // scratch store, publish and apply through the cache layer.
    for _ in 0..8 {
        let t = Instant::now();
        std::hint::black_box(ScheduleStore::open(&paths.store).expect("open schedule store"));
        let ms = ms_since(t);
        probe("records.store_open", "records.store_open_ms", ms, ms * 1e6);
    }
    let real = ScheduleStore::open(&paths.store).expect("open schedule store");
    let mut empty = ScheduleStore::open(scratch.join("insert.jsonl")).expect("open scratch store");
    for entry in real.entries() {
        let t = Instant::now();
        empty
            .insert(entry.clone())
            .expect("insert into scratch store");
        let us = us_since(t);
        probe(
            "records.store_insert",
            "records.store_insert_us",
            us,
            us * 1e3,
        );
    }
    let mut cache = ScheduleCache::open(scratch.join("publish.jsonl")).expect("open scratch cache");
    let t = Instant::now();
    cache.publish(opt.tasks(), device);
    let ms = ms_since(t);
    probe("core.cache_publish", "core.cache_publish_ms", ms, ms * 1e6);
    for task in tasks {
        let mut search = SearchTask::from_task(task, sim);
        let t = Instant::now();
        std::hint::black_box(cache.apply(&mut search, device));
        let us = us_since(t);
        probe("core.cache_apply", "core.cache_apply_us", us, us * 1e3);
    }

    // The checkpoint document through the JSON codec, both directions.
    let text = std::fs::read_to_string(paths.ckpt.join(STATE_FILE)).expect("read checkpoint");
    let mb = text.len() as f64 / 1e6;
    for _ in 0..5 {
        let t = Instant::now();
        let doc = Json::parse(&text).expect("checkpoint parses");
        let parse_s = t.elapsed().as_secs_f64();
        probe(
            "records.json_parse",
            "records.json_parse_mb_per_s",
            mb / parse_s,
            parse_s * 1e9,
        );
        let t = Instant::now();
        std::hint::black_box(doc.write());
        let write_s = t.elapsed().as_secs_f64();
        probe(
            "records.json_write",
            "records.json_write_mb_per_s",
            mb / write_s,
            write_s * 1e9,
        );
    }

    // `replay_records` alone — what `with_record_log` spends rebuilding
    // search state, without the file read and the warm-start `fine_tune` —
    // as a phase-table row beside the whole-call `core.with_record_log`.
    let mut replay_us = 0.0;
    for task in tasks {
        let mut search = SearchTask::from_task(task, sim);
        let t = Instant::now();
        std::hint::black_box(replay_records(&mut search, &records, device));
        replay_us += us_since(t);
    }
    rec.replayed("core.replay_records", 0, None, (replay_us * 1e3) as u64);
}
