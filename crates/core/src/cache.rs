//! The tuner-facing schedule-cache layer over
//! [`felix_records::ScheduleStore`].
//!
//! The store is a dumb persistent map; this module supplies the tuning
//! semantics:
//!
//! - **Exact hit** — the store holds a schedule for this very task
//!   (same workload key and device). The schedule is validated against the
//!   live task's sketches and, if sound, recorded as a measurement —
//!   serving a tuned schedule in microseconds with *zero* measurement
//!   budget, RNG draws, or clock advancement.
//! - **Structural near-miss** — no exact entry, but some entry on the same
//!   device shares the task's [`structure_hash`] (same sketch names and
//!   variable counts — the same operator class at different extents). Its
//!   schedule values are rounded onto this task's valid lattice and handed
//!   to the proposer as a warm-start hint: descent seeds from the cached
//!   optimum instead of a random draw, while every RNG draw stays on the
//!   existing deterministic substreams (hints fill seed slots *before* the
//!   exploration slots draw, so a hint-free task is byte-identical to a
//!   storeless run).
//! - **Miss** — cold tuning, exactly as without a store.
//!
//! After tuning rounds, [`ScheduleCache::publish`] writes each task's
//! incumbent back as a strict improvement, so stores accumulate
//! monotonically and concurrent histories merge cleanly.

use felix_ansor::SearchTask;
use felix_records::{fnv1a, task_key, ScheduleStore, StoredSchedule, FNV_OFFSET};
use felix_tir::sketch::{generator_hash, generator_is_current, round_to_valid};
use std::path::Path;

/// Hash of a task's sketch *structure*: the sketch names and schedule
/// variable counts, in order — deliberately excluding loop extents, so two
/// instances of the same operator class at different sizes collide (that
/// collision is the warm-start transfer opportunity). FNV-1a, like
/// [`felix_records::task_key`].
pub fn structure_hash(task: &SearchTask) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, &(task.sketches.len() as u64).to_le_bytes());
    for st in &task.sketches {
        h = fnv1a(h, st.name.as_bytes());
        h = fnv1a(h, b"\x00");
        h = fnv1a(h, &(st.program.vars.len() as u64).to_le_bytes());
    }
    h
}

/// What the cache did for one task at attach time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Exact entry served as a finished schedule.
    Hit,
    /// Structural near-miss seeded as a warm-start hint.
    WarmStart,
    /// Nothing usable in the store.
    Miss,
}

/// A [`ScheduleStore`] plus hit/warm-start accounting, attached to an
/// optimizer via [`crate::Optimizer::with_schedule_store`].
#[derive(Debug)]
pub struct ScheduleCache {
    store: ScheduleStore,
    /// Tasks served an exact cached schedule at attach time.
    pub hits: usize,
    /// Tasks seeded with a structural warm-start hint at attach time.
    pub warm_starts: usize,
    /// Tasks whose exact or donor entry was rejected because it was
    /// written by a different sketch-generator version — a clean miss
    /// instead of a silently degraded schedule.
    pub stale: usize,
}

impl ScheduleCache {
    /// Opens (creating if needed) the store at `path`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from opening the store.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<ScheduleCache> {
        Ok(ScheduleCache {
            store: ScheduleStore::open(path)?,
            hits: 0,
            warm_starts: 0,
            stale: 0,
        })
    }

    /// The store's path.
    pub fn path(&self) -> &Path {
        self.store.path()
    }

    /// The underlying store.
    pub fn store(&self) -> &ScheduleStore {
        &self.store
    }

    /// Applies the store to one *fresh* task (no measurements yet): exact
    /// hit → record the cached schedule; structural near-miss → set warm
    /// hints. Tasks that already carry state (a replayed log) are left
    /// untouched — their own history dominates anything the cache could
    /// add. A resume never calls this: the checkpoint header carries what
    /// it applied.
    ///
    /// This touches neither any RNG nor the tuning clock.
    pub fn apply(&mut self, task: &mut SearchTask, device_name: &str) -> CacheOutcome {
        if !task.measured.is_empty() || !task.failed.is_empty() {
            return CacheOutcome::Miss;
        }
        let key = task_key(&task.workload_key, device_name);
        // At most one stale increment per task: the counter means "this
        // task missed cleanly because of a generator mismatch", however
        // many individual entries were rejected along the way.
        let mut saw_stale = false;
        if let Some(entry) = self.store.get(key) {
            if entry.workload_key == task.workload_key
                && entry.device == device_name
                && task.sketches.get(entry.sketch).is_some_and(|st| st.name == entry.sketch_name)
                && task.fits(entry.sketch, &entry.values)
            {
                // An entry from an older (or unknown) sketch generator may
                // still pass the structural validity check by accident;
                // refuse it loudly instead of serving a degraded schedule.
                if !generator_is_current(entry.generator) {
                    saw_stale = true;
                } else {
                    task.record(entry.sketch, entry.values.clone(), entry.latency_ms);
                    self.hits += 1;
                    return CacheOutcome::Hit;
                }
            }
        }
        let hash = structure_hash(task);
        // The donor scan: lowest latency, ties toward the smaller task key
        // (the store iterates in key order), filtered by generator
        // fingerprint — tuning semantics the dumb store layer deliberately
        // doesn't know about.
        let mut donor: Option<&StoredSchedule> = None;
        for entry in self.store.entries() {
            if entry.structure_hash != hash
                || entry.device != device_name
                || entry.task_key == key
                || !entry.latency_ms.is_finite()
            {
                continue;
            }
            if !generator_is_current(entry.generator) {
                saw_stale = true;
                continue;
            }
            if donor.is_none_or(|b| entry.latency_ms < b.latency_ms) {
                donor = Some(entry);
            }
        }
        // Exact fresh hits return above without reaching here, so any
        // surviving `saw_stale` means staleness degraded this task's
        // outcome (hit → warm start, or anything → miss).
        if saw_stale {
            self.stale += 1;
        }
        if let Some(donor) = donor {
            let Some(st) = task.sketches.get(donor.sketch) else {
                return CacheOutcome::Miss;
            };
            if st.name != donor.sketch_name
                || donor.values.len() != st.program.vars.len()
            {
                return CacheOutcome::Miss;
            }
            // The donor's extents differ, so its optimum may sit off this
            // task's lattice; round onto it and re-validate.
            let vals = round_to_valid(&st.program, &donor.values);
            if st.program.constraints_ok(&vals, 1e-9) {
                task.warm_hints = vec![(donor.sketch, vals)];
                self.warm_starts += 1;
                return CacheOutcome::WarmStart;
            }
        }
        CacheOutcome::Miss
    }

    /// Publishes each task's incumbent to the store (strict improvements
    /// only — everything else is a byte-identical no-op on disk). Write
    /// errors are swallowed: the store is an observer and must never abort
    /// a tuning run.
    pub fn publish(&mut self, tasks: &[SearchTask], device_name: &str) {
        for task in tasks {
            let Some((sketch, vals)) = &task.best_schedule else { continue };
            let Some(st) = task.sketches.get(*sketch) else { continue };
            let entry = StoredSchedule {
                task_key: task_key(&task.workload_key, device_name),
                workload_key: task.workload_key.clone(),
                device: device_name.to_string(),
                structure_hash: structure_hash(task),
                sketch: *sketch,
                sketch_name: st.name.to_string(),
                values: vals.clone(),
                latency_ms: task.best_latency_ms,
                generator: generator_hash(),
            };
            if let Err(e) = self.store.insert(entry) {
                eprintln!(
                    "[felix] schedule-store append to {} failed ({e}); entry dropped",
                    self.store.path().display()
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use felix_graph::{Op, Subgraph, Task};
    use felix_sim::{DeviceConfig, Simulator};
    use rand::{rngs::StdRng, SeedableRng};

    fn task_for(sg: Subgraph) -> SearchTask {
        let sim = Simulator::new(DeviceConfig::a5000());
        SearchTask::from_task(&Task { subgraph: sg, weight: 1 }, &sim)
    }

    #[test]
    fn structure_hash_ignores_extents_but_not_structure() {
        let a = task_for(Subgraph { ops: vec![Op::Dense { m: 16, k: 64, n: 64 }] });
        let b = task_for(Subgraph { ops: vec![Op::Dense { m: 32, k: 128, n: 256 }] });
        let c = task_for(Subgraph { ops: vec![Op::Softmax { rows: 64, cols: 64 }] });
        assert_eq!(
            structure_hash(&a),
            structure_hash(&b),
            "same op class, different extents"
        );
        assert_ne!(structure_hash(&a), structure_hash(&c), "different op class");
    }

    #[test]
    fn apply_skips_tasks_with_history() {
        let dir = std::env::temp_dir().join(format!(
            "felix-cache-skip-{}.jsonl",
            std::process::id()
        ));
        std::fs::remove_file(&dir).ok();
        let mut cache = ScheduleCache::open(&dir).expect("open");
        let mut task = task_for(Subgraph { ops: vec![Op::Dense { m: 16, k: 64, n: 64 }] });
        // Seed the store with an entry for this exact task...
        cache.publish(
            &[{
                let mut t = task.clone();
                let vals = felix_cost::random_schedule(
                    &t.sketches[0].program,
                    &t.sketches[0].rounding,
                    &mut StdRng::seed_from_u64(1),
                    64,
                );
                t.record(0, vals, 1.5);
                t
            }],
            "RTX A5000",
        );
        // ...but a task that already has measurements is left untouched.
        let vals = felix_cost::random_schedule(
            &task.sketches[0].program,
            &task.sketches[0].rounding,
            &mut StdRng::seed_from_u64(2),
            64,
        );
        task.record(0, vals, 9.0);
        assert_eq!(cache.apply(&mut task, "RTX A5000"), CacheOutcome::Miss);
        assert_eq!(cache.hits, 0);
        assert!(task.warm_hints.is_empty());
        std::fs::remove_file(&dir).ok();
    }
}
