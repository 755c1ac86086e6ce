//! The process memo: everything a process builds once per key.
//!
//! [`Memo`] is a bounded map from a key to one shared cell, least recently
//! used out first. A cell's parts are `OnceLock`s, so concurrent callers
//! build a key's part once and wait for each other, while other keys build
//! in parallel. It is the one memo implementation under `crates/`: the
//! pretrained-base memo (`api.rs`) is a [`Memo`] per device name that never
//! evicts, and this module's [`SPACES`] is one per search space.
//!
//! A task's [`SearchSpace`] (sketch programs, symbolic features, rounding
//! plans) and its sketches' compiled [`SketchObjective`]s are pure
//! functions of its [`SpaceKey`] and the [`PipelineOptions`]. Every
//! [`crate::Optimizer`] takes its spaces from [`SpaceMemo::space`], and
//! every [`crate::GradientProposer`] its objectives from
//! [`SpaceMemo::objectives`], so the serving daemon's jobs, a resumed job
//! and a repeated cold task reuse the bytes an earlier one built instead of
//! rebuilding them.
//!
//! [`SPACES`] holds at most [`SPACE_MEMO_CAPACITY`] keys and drops the
//! least recently used past that. Eviction never shows in results: a task
//! keeps its own `Arc` on its space, and an evicted key's objectives are
//! rebuilt, deterministically, on the next descent.

use crate::objective::{PipelineOptions, SketchObjective};
use crate::parallel::parallel_map;
use felix_ansor::{SearchSpace, SpaceKey};
use felix_graph::Task;
use felix_tir::sketch::HardwareParams;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Keys [`SPACES`] holds before it evicts the least recently used.
/// Above the 4 480 distinct single-operator shapes the ledger's `cold_ops`
/// stream can draw, so that stream never evicts however fast it runs;
/// DESIGN.md gives the bytes per entry and the worst case.
pub(crate) const SPACE_MEMO_CAPACITY: usize = 4608;

/// The memo every optimizer and proposer of the process shares.
pub(crate) static SPACES: SpaceMemo = Memo::new(SPACE_MEMO_CAPACITY);

/// The memo of search spaces and their compiled objectives.
pub(crate) type SpaceMemo = Memo<SpaceKey, SpaceCell>;

/// One space key's cell: its space, and its objectives per pipeline value.
#[derive(Default)]
pub(crate) struct SpaceCell {
    space: OnceLock<Arc<SearchSpace>>,
    /// Indexed by [`pipeline_slot`].
    objectives: [OnceLock<Arc<[SketchObjective]>>; 4],
}

/// The slot of `pipeline`'s objectives in a [`SpaceCell`].
fn pipeline_slot(pipeline: PipelineOptions) -> usize {
    usize::from(pipeline.smoothing) * 2 + usize::from(pipeline.exp_substitution)
}

/// A memo's table: each key's cell with the lookup count at its last use,
/// and the lookup count so far.
struct Cells<K, C> {
    lookups: u64,
    by_key: BTreeMap<K, (u64, Arc<C>)>,
}

/// A bounded map from a key to one cell each, least recently used out
/// first.
pub(crate) struct Memo<K, C> {
    capacity: usize,
    cells: Mutex<Cells<K, C>>,
}

impl<K: Ord + Clone, C: Default> Memo<K, C> {
    /// An empty memo of at most `capacity` keys.
    pub(crate) const fn new(capacity: usize) -> Self {
        Memo { capacity, cells: Mutex::new(Cells { lookups: 0, by_key: BTreeMap::new() }) }
    }

    /// `key`'s cell, created (evicting the least recently used key when
    /// full) if the memo has none.
    pub(crate) fn cell(&self, key: &K) -> Arc<C> {
        let mut cells = self.cells.lock().expect("process memo");
        cells.lookups += 1;
        let now = cells.lookups;
        if let Some((used, cell)) = cells.by_key.get_mut(key) {
            *used = now;
            return Arc::clone(cell);
        }
        if cells.by_key.len() >= self.capacity {
            let oldest = cells.by_key.iter().min_by_key(|(_, (used, _))| *used);
            if let Some(oldest) = oldest.map(|(k, _)| k.clone()) {
                cells.by_key.remove(&oldest);
            }
        }
        let cell = Arc::new(C::default());
        cells.by_key.insert(key.clone(), (now, Arc::clone(&cell)));
        cell
    }
}

impl SpaceMemo {
    /// `task`'s space on a device with `hardware` limits, built on the
    /// key's first lookup.
    pub(crate) fn space(&self, task: &Task, hardware: HardwareParams) -> Arc<SearchSpace> {
        let key = SpaceKey::new(task, hardware);
        let cell = self.cell(&key);
        Arc::clone(cell.space.get_or_init(|| Arc::new(SearchSpace::build(task, key))))
    }

    /// The compiled objectives of `space`'s sketches under `pipeline`, and
    /// whether this call built them (in parallel over sketches on
    /// `threads` workers). A space built outside the memo
    /// (`SearchTask::from_task`) gets a cell for its objectives only: the
    /// memo keeps no copy of a space nothing asked it for.
    pub(crate) fn objectives(
        &self,
        space: &SearchSpace,
        pipeline: PipelineOptions,
        threads: usize,
    ) -> (Arc<[SketchObjective]>, bool) {
        let cell = self.cell(&space.key);
        let mut built = false;
        let objectives = cell.objectives[pipeline_slot(pipeline)].get_or_init(|| {
            built = true;
            parallel_map(space.sketches.len(), threads, |i| {
                let sk = &space.sketches[i];
                SketchObjective::build_with(&sk.program, &sk.features.exprs, pipeline)
            })
            .into()
        });
        (Arc::clone(objectives), built)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_memo_evicts_the_least_recently_used_key() {
        let memo: Memo<char, OnceLock<char>> = Memo::new(2);
        let a = memo.cell(&'a');
        a.set('a').expect("a fresh cell");
        memo.cell(&'b').set('b').expect("a fresh cell");
        // Touching `a` again makes `b` the least recently used key, so `c`
        // evicts `b` where first-in-first-out would evict `a`.
        assert!(Arc::ptr_eq(&memo.cell(&'a'), &a));
        memo.cell(&'c');
        assert!(Arc::ptr_eq(&memo.cell(&'a'), &a), "the recently used key keeps its cell");
        assert_eq!(memo.cell(&'b').get(), None, "the least recently used key was evicted");
    }
}
