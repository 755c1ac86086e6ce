//! The persistent best-schedule store.
//!
//! Where [`crate::RecordLog`] remembers every measurement, the
//! [`ScheduleStore`] remembers only the *answer*: the best known schedule
//! per task, keyed by the same FNV-1a [`crate::task_key`] the record log
//! uses. A tuner that finds its task in the store can serve the cached
//! schedule in microseconds instead of re-tuning; a tuner that finds a
//! *structurally identical* task at different extents (matched by
//! [`StoredSchedule::structure_hash`]) can warm-start its descent from the
//! cached optimum's values.
//!
//! On disk the store is an append-only JSONL improvement log over the same
//! engine, and so the same durability contract, as the record log: an
//! insert is in the OS before it returns, only newline-terminated lines
//! count on read, and a torn tail is skipped rather than rejected. The
//! in-memory index is the fold of those lines through one transition
//! function (`merge_entry`) — at open over the file, and on every insert
//! *after* its line is appended, so the index always equals what a reopen
//! would replay. Replaying the improvement lines keeps the best entry per
//! key, so concurrent histories merge to the same state regardless of
//! interleaving. [`ScheduleStore::compact`] atomically rewrites the file to
//! one line per key, in deterministic (ascending task-key) order.
//!
//! All floats — schedule values and the latency incumbent — are encoded as
//! 16-hex-digit bit patterns ([`schema::Bits`]), so a schedule read back
//! from the store is bit-identical to the one the tuner measured. That is
//! what lets a cache hit feed directly into the bit-reproducible search
//! state without perturbing it.

use crate::log::Log;
use crate::schema;
use crate::schema::{Bits, Hex, List, Num, Tag, Text};
use std::collections::BTreeMap;
use std::path::Path;

/// Version of the schedule-store wire format. Bumped whenever a field is
/// added, removed, or re-encoded; readers skip lines of any other version
/// instead of guessing at their meaning.
pub const SCHEDULE_STORE_VERSION: usize = 1;

/// One cached optimum: the best known schedule for a task, plus the
/// identity needed to validate it against a live search task before use.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredSchedule {
    /// Canonical task identity: [`crate::task_key`] of workload key + device.
    pub task_key: u64,
    /// The subgraph's stable dedup key (display/debugging; matching uses
    /// `task_key`).
    pub workload_key: String,
    /// Device the schedule was tuned for.
    pub device: String,
    /// Hash of the task's sketch *structure* (sketch names and variable
    /// counts, not extents). Two tasks that share it are the same operator
    /// shape at different sizes, so one's optimum is a sensible warm start
    /// for the other. Collisions are harmless: cached values are always
    /// re-validated against the live task's constraints before use.
    pub structure_hash: u64,
    /// Sketch index within the task.
    pub sketch: usize,
    /// Sketch name, validated on use so entries from a stale sketch
    /// generator are ignored instead of corrupting the search state.
    pub sketch_name: String,
    /// Fingerprint of the sketch generator that produced this schedule
    /// (`felix_tir::sketch::generator_hash` in the tuner). An entry whose
    /// fingerprint differs from the live generator's is *stale*: its sketch
    /// index and variable vector may no longer mean what they did, so cache
    /// layers skip it (and count the skip) instead of trusting name/arity
    /// validation to catch the drift.
    pub generator: u64,
    /// The schedule-variable assignment (bit-exact).
    pub values: Vec<f64>,
    /// The measured latency of this schedule in milliseconds (bit-exact).
    pub latency_ms: f64,
}

schema!(struct StoredSchedule {
    ("kind", Tag("schedule")), ("v", Tag(SCHEDULE_STORE_VERSION)), ("task", Hex) => task_key,
    ("workload", Text) => workload_key, ("device", Text) => device,
    ("structure", Hex) => structure_hash, ("sketch", Num) => sketch,
    ("sketch_name", Text) => sketch_name, ("gen", Hex) => generator,
    ("values", List(Bits)) => values, ("latency_ms", Bits) => latency_ms,
});

/// A persistent map from task key to best known schedule.
///
/// Inserts append one improvement line (a crash loses at most the line
/// being written); reads replay the intact prefix and keep the best entry
/// per key. The in-memory index is a `BTreeMap`, so every iteration order
/// exposed by the store is deterministic.
#[derive(Debug)]
pub struct ScheduleStore {
    log: Log,
    entries: BTreeMap<u64, StoredSchedule>,
}

impl ScheduleStore {
    /// Opens (creating if needed) a store at `path`, replaying any existing
    /// improvement lines. Torn, corrupt, or other-version lines are skipped
    /// exactly like in [`crate::read_all_records`].
    ///
    /// # Errors
    ///
    /// Returns any I/O error from reading or opening the file.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<ScheduleStore> {
        let mut entries = BTreeMap::new();
        let log = Log::replay(path.as_ref(), |doc| {
            if let Ok(entry) = StoredSchedule::from_json(doc) {
                merge_entry(&mut entries, entry);
            }
        })?;
        Ok(ScheduleStore { log, entries })
    }

    /// The store's path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Number of distinct tasks with a cached schedule.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The best known schedule for a task, if any.
    pub fn get(&self, task_key: u64) -> Option<&StoredSchedule> {
        self.entries.get(&task_key)
    }

    /// All entries in ascending task-key order.
    pub fn entries(&self) -> impl Iterator<Item = &StoredSchedule> {
        self.entries.values()
    }

    /// Records `entry` if it strictly improves on the stored schedule for
    /// its task (or the task is new). An equal-or-worse entry is a no-op
    /// that leaves the file byte-identical; a non-finite latency is always
    /// rejected. Returns whether the entry was written.
    ///
    /// Exception: an entry whose `generator` fingerprint differs from the
    /// stored one always supersedes it, whatever the latencies — inserts
    /// come from live tuning runs, so the incoming fingerprint is the
    /// current one and the stored entry is stale (its latency belongs to a
    /// schedule the current generator may not even produce).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from appending; the index is then unchanged.
    pub fn insert(&mut self, entry: StoredSchedule) -> std::io::Result<bool> {
        if !improves(&self.entries, &entry) {
            return Ok(false);
        }
        self.log.append(&entry.to_json())?;
        Ok(merge_entry(&mut self.entries, entry))
    }

    /// Atomically rewrites the file to exactly one line per task, in
    /// ascending task-key order — a reader concurrent with a compaction
    /// sees either the old improvement log or the compacted one, never a
    /// torn mix. The index is untouched: both files replay to it.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing, syncing, renaming, or reopening
    /// the append handle.
    pub fn compact(&mut self) -> std::io::Result<()> {
        self.log.rewrite(self.entries.values().map(StoredSchedule::to_json))?;
        Ok(())
    }
}

/// Whether `entry` would land: better-only within one generator
/// fingerprint, while a line with a *different* fingerprint supersedes
/// unconditionally; a non-finite latency never lands.
fn improves(entries: &BTreeMap<u64, StoredSchedule>, entry: &StoredSchedule) -> bool {
    entry.latency_ms.is_finite()
        && !entries.get(&entry.task_key).is_some_and(|existing| {
            existing.generator == entry.generator && existing.latency_ms <= entry.latency_ms
        })
}

/// The store's one transition function, folded over the file at open and
/// applied to each insert after its line is appended. Replaying
/// same-fingerprint lines in any order converges to the same per-key
/// minimum; in append order the latest generation's improvement log wins.
/// Returns whether the entry landed.
fn merge_entry(entries: &mut BTreeMap<u64, StoredSchedule>, entry: StoredSchedule) -> bool {
    let lands = improves(entries, &entry);
    if lands {
        entries.insert(entry.task_key, entry);
    }
    lands
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::tests::{every_truncation_recovers_the_intact_prefix, tmp_path};
    use crate::{task_key, Json};
    use std::fs::OpenOptions;
    use std::io::Write;

    fn sample_entry(i: usize) -> StoredSchedule {
        let workload = format!("dense[{}]", 256 << i);
        StoredSchedule {
            task_key: task_key(&workload, "RTX A5000"),
            workload_key: workload,
            device: "RTX A5000".to_string(),
            structure_hash: 0xABCD_0000 + (i as u64 % 2),
            sketch: i % 2,
            sketch_name: "multi-level-tiling".to_string(),
            generator: 0x5EED_FACE,
            values: vec![2.0, 16.0, 4.0 + i as f64, 0.1 + 0.2],
            latency_ms: 1.25 + i as f64 * 0.1,
        }
    }

    #[test]
    fn round_trips_awkward_floats_bit_exactly() {
        let path = tmp_path("bits");
        let mut store = ScheduleStore::open(&path).expect("open");
        let mut entry = sample_entry(0);
        entry.values = vec![
            0.1 + 0.2,
            1.234_567_890_123_456_7 * (1.0 + 1e-15),
            -0.0,
            f64::MIN_POSITIVE,
            2.225_073_858_507_201e-308,
            std::f64::consts::PI,
        ];
        entry.latency_ms = 1.0 / 3.0;
        assert!(store.insert(entry.clone()).expect("insert"));
        drop(store);
        let store = ScheduleStore::open(&path).expect("reopen");
        let back = store.get(entry.task_key).expect("entry");
        assert_eq!(back, &entry);
        for (a, b) in back.values.iter().zip(&entry.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(back.latency_ms.to_bits(), entry.latency_ms.to_bits());
        // The wire format stores every float as a 16-hex-digit bit pattern,
        // never as a decimal number.
        let text = std::fs::read_to_string(&path).expect("read");
        let doc = Json::parse(text.trim_end()).expect("parse");
        for v in doc.get("values").unwrap().as_arr().unwrap() {
            assert!(matches!(v, Json::Str(s) if s.len() == 16), "{v:?}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn store_recovers_the_intact_prefix_at_every_truncation() {
        every_truncation_recovers_the_intact_prefix(
            4,
            |path, i| {
                let mut store = ScheduleStore::open(path).expect("open");
                assert!(store.insert(sample_entry(i)).expect("insert"));
            },
            |path| snapshot(&ScheduleStore::open(path).expect("open truncated")),
            |survivors| {
                let mut entries: Vec<StoredSchedule> =
                    survivors.iter().map(|&i| sample_entry(i)).collect();
                entries.sort_by_key(|e| e.task_key); // entries() iterates in key order
                entries
            },
        );
    }

    #[test]
    fn equal_or_worse_reinsert_leaves_file_byte_identical() {
        let path = tmp_path("idem");
        let mut store = ScheduleStore::open(&path).expect("open");
        let entry = sample_entry(0);
        assert!(store.insert(entry.clone()).expect("insert"));
        let before = std::fs::read(&path).expect("read");
        // Bit-identical re-insert: no-op.
        assert!(!store.insert(entry.clone()).expect("reinsert"));
        // Strictly worse: no-op.
        let mut worse = entry.clone();
        worse.latency_ms = entry.latency_ms + 0.5;
        assert!(!store.insert(worse).expect("worse"));
        // Non-finite: always rejected.
        let mut bad = entry.clone();
        bad.latency_ms = f64::NAN;
        assert!(!store.insert(bad).expect("nan"));
        assert_eq!(std::fs::read(&path).expect("read"), before);
        assert_eq!(store.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn improvements_append_and_replay_keeps_best() {
        let path = tmp_path("improve");
        let mut store = ScheduleStore::open(&path).expect("open");
        let mut entry = sample_entry(0);
        entry.latency_ms = 2.0;
        assert!(store.insert(entry.clone()).expect("insert"));
        entry.latency_ms = 1.5;
        entry.values[0] = 4.0;
        assert!(store.insert(entry.clone()).expect("improve"));
        drop(store);
        // Both lines are on disk; replay keeps the improvement.
        let lines = std::fs::read_to_string(&path).expect("read");
        assert_eq!(lines.lines().count(), 2);
        let store = ScheduleStore::open(&path).expect("reopen");
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(entry.task_key), Some(&entry));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn other_version_and_fingerprint_less_lines_are_skipped() {
        let path = tmp_path("future");
        let mut store = ScheduleStore::open(&path).expect("open");
        assert!(store.insert(sample_entry(0)).expect("insert"));
        drop(store);
        let mut f = OpenOptions::new().append(true).open(&path).expect("open");
        for version in [SCHEDULE_STORE_VERSION + 1, SCHEDULE_STORE_VERSION - 1] {
            let mut doc = sample_entry(1).to_json();
            let Json::Obj(fields) = &mut doc else { panic!("obj") };
            fields[1].1 = Json::Num(version as f64);
            writeln!(f, "{}", doc.write()).expect("write");
        }
        let mut doc = sample_entry(2).to_json();
        let Json::Obj(fields) = &mut doc else { panic!("obj") };
        fields.retain(|(k, _)| k != "gen");
        assert_eq!(
            StoredSchedule::from_json(&doc),
            Err("\"gen\" is missing or malformed".to_string()),
            "no fingerprint: rejected"
        );
        drop(f);
        let store = ScheduleStore::open(&path).expect("reopen");
        assert_eq!(store.entries().cloned().collect::<Vec<_>>(), vec![sample_entry(0)]);
        std::fs::remove_file(&path).ok();
    }

    fn snapshot(store: &ScheduleStore) -> Vec<StoredSchedule> {
        store.entries().cloned().collect()
    }

    /// The rule the store exists under: the index is the fold of the file.
    /// Over seeded random insert sequences (improvements, regressions,
    /// duplicates, generator changes, non-finite latencies) a store
    /// reopened from the file equals the live one after every insert and
    /// after every compaction — which leaves one line per task, no `.tmp`,
    /// and the append handle on the new file.
    #[test]
    fn reopened_store_equals_live_store_after_every_insert_and_compact() {
        let mut rng = 0x00C0_FFEE_D00D_5EEDu64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let path = tmp_path("fold");
        let mut store = ScheduleStore::open(&path).expect("open");
        for step in 0..300 {
            let mut entry = sample_entry(next() as usize % 5);
            entry.latency_ms = match next() % 16 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                n => 0.25 + (n % 6) as f64 / 4.0,
            };
            entry.generator += next() % 2;
            entry.values[0] = (next() % 64) as f64;
            let before = snapshot(&store);
            let landed = store.insert(entry).expect("insert");
            assert_eq!(landed, snapshot(&store) != before, "step {step}");
            if next().is_multiple_of(8) {
                store.compact().expect("compact");
                assert!(!path.with_extension("tmp").exists(), "tmp renamed away");
                let text = std::fs::read_to_string(&path).expect("read");
                assert_eq!(text.lines().count(), store.len(), "one line per task");
            }
            let reopened = ScheduleStore::open(&path).expect("reopen");
            assert_eq!(snapshot(&reopened), snapshot(&store), "step {step}");
        }
        std::fs::remove_file(&path).ok();
    }

    /// A failed append is an error, not an insert: the index keeps its old
    /// entry and still equals the replay of the file.
    #[cfg(target_os = "linux")]
    #[test]
    fn failed_append_leaves_the_index_untouched() {
        let path = tmp_path("full");
        let mut store = ScheduleStore::open(&path).expect("open");
        assert!(store.insert(sample_entry(0)).expect("insert"));
        store.log.redirect_appends("/dev/full");
        let mut better = sample_entry(0);
        better.latency_ms -= 1.0;
        assert!(store.insert(better).is_err(), "ENOSPC must surface");
        assert!(store.insert(sample_entry(1)).is_err(), "ENOSPC must surface");
        assert_eq!(snapshot(&store), vec![sample_entry(0)]);
        let reopened = ScheduleStore::open(&path).expect("reopen");
        assert_eq!(snapshot(&reopened), snapshot(&store));
        std::fs::remove_file(&path).ok();
    }
}
