//! Schedule transformation steps — the `T(p0, s)` pipeline of the paper.
//!
//! A schedule is a sequence of [`Step`]s whose parameters may be symbolic
//! expressions (schedule variables), making the transformed program a
//! *symbolic program* in the paper's sense. [`apply`] runs a step against a
//! [`Program`].

use crate::{
    AccessKind, AxisId, AxisKind, CacheReadInfo, Loop, LoopKind, MemScope, Program,
    Stage, StageKind,
};
use felix_expr::ExprId;

/// One schedule transformation with (possibly symbolic) parameters.
#[derive(Clone, Debug)]
pub enum Step {
    /// Splits the loop of `axis` into `1 + factors.len()` nested loops; the
    /// derived outer extent is `extent / Π factors` and `factors` are listed
    /// outer → inner.
    Tile {
        /// Target stage.
        stage: usize,
        /// Axis whose (single) loop is split.
        axis: AxisId,
        /// Inner level extents, outer → inner.
        factors: Vec<ExprId>,
    },
    /// Permutes the loop nest: `order[i]` is the old position of the loop
    /// that moves to position `i`.
    Reorder {
        /// Target stage.
        stage: usize,
        /// Permutation of current loop positions.
        order: Vec<usize>,
    },
    /// Sets the binding/annotation of the loop at `pos`.
    Bind {
        /// Target stage.
        stage: usize,
        /// Loop position.
        pos: usize,
        /// New binding.
        kind: LoopKind,
    },
    /// Annotates the stage with an auto-unroll pragma of `max_step`.
    UnrollPragma {
        /// Target stage.
        stage: usize,
        /// Maximum unroll step (usually a schedule variable).
        max_step: ExprId,
    },
    /// Computes `stage` inside `target`'s nest right after loop `pos`
    /// (operator fusion); the stage's nest is rebuilt to cover the target's
    /// inner spatial tile.
    ComputeAt {
        /// The stage being moved.
        stage: usize,
        /// The stage whose nest hosts it.
        target: usize,
        /// Loop position in `target` after which `stage` runs.
        pos: usize,
    },
    /// Inserts a `cache_read` staging stage copying `access_idx` of
    /// `consumer` from global to shared memory.
    CacheRead {
        /// The consuming stage.
        consumer: usize,
        /// Index of the (read) access being staged.
        access_idx: usize,
        /// Elements per reload round per block (symbolic).
        tile_elems: ExprId,
        /// Reload rounds per block (symbolic).
        rounds: ExprId,
    },
}

/// Applies one step to the program.
///
/// # Panics
///
/// Panics on malformed steps (axis already tiled, bad positions, non-read
/// access for `CacheRead`, mismatched spatial ranks for `ComputeAt`). Sketch
/// generation only emits well-formed steps.
pub fn apply(p: &mut Program, step: &Step) {
    match step {
        Step::Tile { stage, axis, factors } => tile(p, *stage, *axis, factors),
        Step::Reorder { stage, order } => reorder(p, *stage, order),
        Step::Bind { stage, pos, kind } => {
            p.stages[*stage].loops[*pos].kind = *kind;
        }
        Step::UnrollPragma { stage, max_step } => {
            p.stages[*stage].unroll_max_step = Some(*max_step);
        }
        Step::ComputeAt { stage, target, pos } => compute_at(p, *stage, *target, *pos),
        Step::CacheRead { consumer, access_idx, tile_elems, rounds } => {
            cache_read(p, *consumer, *access_idx, *tile_elems, *rounds);
        }
    }
}

fn tile(p: &mut Program, stage: usize, axis: AxisId, factors: &[ExprId]) {
    let pos = {
        let st = &p.stages[stage];
        let positions: Vec<usize> = st
            .loops
            .iter()
            .enumerate()
            .filter(|(_, l)| l.axis == axis)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(positions.len(), 1, "tile requires exactly one loop for the axis");
        positions[0]
    };
    let axis_extent = p.stages[stage].axis(axis).extent;
    let axis_name = p.stages[stage].axis(axis).name.clone();
    let total = p.pool.consti(axis_extent);
    let inner_prod = p.pool.product(factors);
    let outer_extent = p.pool.div(total, inner_prod);
    let one = p.pool.constf(1.0);

    let mut new_loops = Vec::with_capacity(factors.len() + 1);
    // Outer derived level: multiplier = product of all inner factors.
    new_loops.push(Loop {
        axis,
        extent: outer_extent,
        mult: inner_prod,
        kind: LoopKind::Serial,
        name: format!("{axis_name}.0"),
    });
    for (i, &f) in factors.iter().enumerate() {
        // Multiplier of level i = product of the levels inside it.
        let inner: Vec<ExprId> = factors[i + 1..].to_vec();
        let mult = if inner.is_empty() { one } else { p.pool.product(&inner) };
        new_loops.push(Loop {
            axis,
            extent: f,
            mult,
            kind: LoopKind::Serial,
            name: format!("{axis_name}.{}", i + 1),
        });
    }
    p.stages[stage].loops.splice(pos..=pos, new_loops);
}

fn reorder(p: &mut Program, stage: usize, order: &[usize]) {
    let st = &mut p.stages[stage];
    assert_eq!(order.len(), st.loops.len(), "reorder must list every loop");
    let mut seen = vec![false; order.len()];
    for &o in order {
        assert!(!seen[o], "reorder order must be a permutation");
        seen[o] = true;
    }
    let old = st.loops.clone();
    st.loops = order.iter().map(|&i| old[i].clone()).collect();
}

fn compute_at(p: &mut Program, stage: usize, target: usize, pos: usize) {
    assert_ne!(stage, target, "cannot compute a stage at itself");
    // Map the target's spatial axes (in declaration order) to the stage's.
    let target_spatial: Vec<AxisId> = p.stages[target]
        .axes
        .iter()
        .filter(|a| a.kind == AxisKind::Spatial)
        .map(|a| a.id)
        .collect();
    let stage_spatial: Vec<AxisId> = p.stages[stage]
        .axes
        .iter()
        .filter(|a| a.kind == AxisKind::Spatial)
        .map(|a| a.id)
        .collect();
    assert_eq!(
        target_spatial.len(),
        stage_spatial.len(),
        "compute_at requires matching spatial ranks"
    );
    let map_axis = |a: AxisId| {
        target_spatial
            .iter()
            .position(|&t| t == a)
            .map(|i| stage_spatial[i])
    };
    // The fused stage iterates the spatial portion of the target's nest
    // inner to `pos` (the per-thread output tile), serially.
    let mut new_loops = Vec::new();
    for l in p.stages[target].loops[pos + 1..].iter() {
        let is_spatial =
            p.stages[target].axis(l.axis).kind == AxisKind::Spatial && !l.kind.is_gpu_binding();
        if is_spatial {
            if let Some(mapped) = map_axis(l.axis) {
                new_loops.push(Loop {
                    axis: mapped,
                    extent: l.extent,
                    mult: l.mult,
                    kind: LoopKind::Serial,
                    name: l.name.clone(),
                });
            }
        }
    }
    let st = &mut p.stages[stage];
    st.loops = new_loops;
    st.compute_at = Some((target, pos));
}

fn cache_read(
    p: &mut Program,
    consumer: usize,
    access_idx: usize,
    tile_elems: ExprId,
    rounds: ExprId,
) -> usize {
    let (src, dtype_bytes) = {
        let acc = &p.stages[consumer].accesses[access_idx];
        assert_eq!(acc.kind, AccessKind::Read, "cache_read stages a read access");
        let buf = &p.buffers[acc.buffer.0 as usize];
        (acc.buffer, buf.dtype_bytes)
    };
    let src_name = p.buffers[src.0 as usize].name.clone();
    let shared = p.add_buffer(
        format!("{src_name}.shared"),
        vec![],
        dtype_bytes,
        MemScope::Shared,
    );
    // Repoint the consumer's access at the shared copy.
    p.stages[consumer].accesses[access_idx].buffer = shared;
    let stage = Stage {
        name: format!("{src_name}.shared.load"),
        axes: vec![],
        loops: vec![],
        accesses: vec![],
        op_counts: crate::OpCounts::default(),
        kind: StageKind::CacheRead,
        compute_at: Some((consumer, 0)),
        unroll_max_step: None,
        cache: Some(CacheReadInfo { src, shared, tile_elems, rounds }),
    };
    // Insert before the consumer so stage order stays execution order.
    p.stages.insert(consumer, stage);
    // Fix up stage indices that shifted.
    let fix = |idx: &mut usize| {
        if *idx >= consumer {
            *idx += 1;
        }
    };
    for (i, st) in p.stages.iter_mut().enumerate() {
        if i == consumer {
            continue; // the new cache stage itself: points at old `consumer`
        }
        if let Some((t, _)) = &mut st.compute_at {
            fix(t);
        }
    }
    for sv in &mut p.sched_vars {
        if let crate::sketch::SchedVarKind::Split { stage, .. } = &mut sv.kind {
            fix(stage);
        }
    }
    // The cache stage's own compute_at must point at the shifted consumer.
    p.stages[consumer].compute_at = Some((consumer + 1, 0));
    consumer
}

/// Helper: positions of the loops of `axis` in a stage, outer → inner.
pub fn axis_loop_positions(stage: &Stage, axis: AxisId) -> Vec<usize> {
    stage
        .loops
        .iter()
        .enumerate()
        .filter(|(_, l)| l.axis == axis)
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessPattern, OpCounts};

    fn dense(n: i64, m: i64, k: i64) -> Program {
        let mut p = Program::new();
        let a = p.add_buffer("A", vec![n, k], 4, MemScope::Global);
        let b = p.add_buffer("B", vec![k, m], 4, MemScope::Global);
        let d = p.add_buffer("D", vec![n, m], 4, MemScope::Global);
        let (ai, aj, ak) = (AxisId(0), AxisId(1), AxisId(2));
        p.add_stage(
            "dense",
            vec![
                ("i".into(), n, AxisKind::Spatial),
                ("j".into(), m, AxisKind::Spatial),
                ("k".into(), k, AxisKind::Reduction),
            ],
            vec![
                AccessPattern { buffer: a, kind: AccessKind::Read, dims: vec![vec![(ai, 1)], vec![(ak, 1)]] },
                AccessPattern { buffer: b, kind: AccessKind::Read, dims: vec![vec![(ak, 1)], vec![(aj, 1)]] },
                AccessPattern { buffer: d, kind: AccessKind::Write, dims: vec![vec![(ai, 1)], vec![(aj, 1)]] },
            ],
            OpCounts { fadd: 1.0, fmul: 1.0, ..OpCounts::default() },
        );
        p
    }

    #[test]
    fn tile_splits_extents_and_mults() {
        let mut p = dense(64, 128, 256);
        let t1 = p.vars.fresh("T1");
        let t2 = p.vars.fresh("T2");
        let (x1, x2) = (p.pool.var(t1), p.pool.var(t2));
        apply(&mut p, &Step::Tile { stage: 0, axis: AxisId(0), factors: vec![x1, x2] });
        let st = &p.stages[0];
        assert_eq!(st.loops.len(), 5); // i.0 i.1 i.2 j k
        let vals = p.pool.eval_all(&[4.0, 2.0]);
        // i.0 extent = 64 / (4*2) = 8, mult = 8.
        assert_eq!(vals[st.loops[0].extent.index()], 8.0);
        assert_eq!(vals[st.loops[0].mult.index()], 8.0);
        // i.1 extent 4, mult 2; i.2 extent 2, mult 1.
        assert_eq!(vals[st.loops[1].extent.index()], 4.0);
        assert_eq!(vals[st.loops[1].mult.index()], 2.0);
        assert_eq!(vals[st.loops[2].extent.index()], 2.0);
        assert_eq!(vals[st.loops[2].mult.index()], 1.0);
        assert_eq!(st.loops[0].name, "i.0");
        assert_eq!(st.loops[2].name, "i.2");
    }

    #[test]
    fn tile_preserves_total_iterations() {
        let mut p = dense(64, 128, 256);
        let t1 = p.vars.fresh("T1");
        let x1 = p.pool.var(t1);
        apply(&mut p, &Step::Tile { stage: 0, axis: AxisId(2), factors: vec![x1] });
        let total = p.loop_product(0, &|_, _, _| true);
        // For any divisor value the total iteration count is unchanged.
        for v in [1.0, 4.0, 16.0, 256.0] {
            assert_eq!(p.pool.eval(total, &[v]), (64 * 128 * 256) as f64);
        }
    }

    #[test]
    fn reorder_permutes() {
        let mut p = dense(8, 8, 8);
        apply(&mut p, &Step::Reorder { stage: 0, order: vec![2, 0, 1] });
        let names: Vec<&str> = p.stages[0].loops.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, vec!["k", "i", "j"]);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn reorder_rejects_duplicates() {
        let mut p = dense(8, 8, 8);
        apply(&mut p, &Step::Reorder { stage: 0, order: vec![0, 0, 1] });
    }

    #[test]
    fn bind_and_unroll() {
        let mut p = dense(8, 8, 8);
        apply(&mut p, &Step::Bind { stage: 0, pos: 0, kind: LoopKind::BlockIdx });
        let u = p.vars.fresh("UNROLL0");
        let ue = p.pool.var(u);
        apply(&mut p, &Step::UnrollPragma { stage: 0, max_step: ue });
        assert_eq!(p.stages[0].loops[0].kind, LoopKind::BlockIdx);
        assert!(p.stages[0].unroll_max_step.is_some());
    }

    #[test]
    fn footprint_shrinks_with_tiling() {
        // After tiling j, the A-tile within the inner loops is smaller.
        let mut p = dense(64, 128, 256);
        let t = p.vars.fresh("TJ");
        let x = p.pool.var(t);
        apply(&mut p, &Step::Tile { stage: 0, axis: AxisId(1), factors: vec![x] });
        // loops now: i, j.0, j.1, k. Footprint of B (access 1) over {j.1, k}:
        let fp = p.footprint_elems(0, 1, &|pos, _| pos >= 2);
        // B tile = K x TJ = 256 * TJ.
        assert_eq!(p.pool.eval(fp, &[4.0]), 1024.0);
        assert_eq!(p.pool.eval(fp, &[16.0]), 4096.0);
    }

    #[test]
    fn compute_at_copies_inner_spatial_tile() {
        let mut p = dense(64, 128, 256);
        // Epilogue stage: E[i,j] = D[i,j] + C[j] (bias add).
        let c = p.add_buffer("C", vec![128], 4, MemScope::Global);
        let e = p.add_buffer("E", vec![64, 128], 4, MemScope::Global);
        let (ei, ej) = (AxisId(0), AxisId(1));
        let epi = p.add_stage(
            "bias_add",
            vec![("i".into(), 64, AxisKind::Spatial), ("j".into(), 128, AxisKind::Spatial)],
            vec![
                AccessPattern { buffer: c, kind: AccessKind::Read, dims: vec![vec![(ej, 1)]] },
                AccessPattern { buffer: e, kind: AccessKind::Write, dims: vec![vec![(ei, 1)], vec![(ej, 1)]] },
            ],
            OpCounts { fadd: 1.0, ..OpCounts::default() },
        );
        // Tile anchor's i and j, bind outers, then fuse epilogue at pos 1.
        let t = p.vars.fresh("TI1");
        let x = p.pool.var(t);
        apply(&mut p, &Step::Tile { stage: 0, axis: AxisId(0), factors: vec![x] });
        // anchor loops: i.0 i.1 j k
        apply(&mut p, &Step::ComputeAt { stage: epi, target: 0, pos: 1 });
        let st = &p.stages[epi];
        assert_eq!(st.compute_at, Some((0, 1)));
        // Inner spatial loops of target after pos 1: j (extent 128).
        assert_eq!(st.loops.len(), 1);
        assert_eq!(p.pool.eval(st.loops[0].extent, &[4.0]), 128.0);
    }

    #[test]
    fn cache_read_inserts_stage_and_repoints() {
        let mut p = dense(64, 128, 256);
        let te = p.pool.consti(512);
        let r = p.pool.consti(16);
        apply(
            &mut p,
            &Step::CacheRead { consumer: 0, access_idx: 0, tile_elems: te, rounds: r },
        );
        assert_eq!(p.stages.len(), 2);
        assert_eq!(p.stages[0].kind, StageKind::CacheRead);
        let info = p.stages[0].cache.expect("cache info");
        assert_eq!(p.buffers[info.shared.0 as usize].scope, MemScope::Shared);
        // The consumer (now stage 1) reads the shared buffer.
        assert_eq!(p.stages[1].accesses[0].buffer, info.shared);
        assert_eq!(p.stages[0].compute_at, Some((1, 0)));
    }

    #[test]
    fn two_cache_reads_keep_indices_consistent() {
        let mut p = dense(64, 128, 256);
        let te = p.pool.consti(512);
        let r = p.pool.consti(16);
        apply(&mut p, &Step::CacheRead { consumer: 0, access_idx: 0, tile_elems: te, rounds: r });
        apply(&mut p, &Step::CacheRead { consumer: 1, access_idx: 1, tile_elems: te, rounds: r });
        assert_eq!(p.stages.len(), 3);
        // Final order: A-load, B-load, dense. Both loads point at the anchor.
        assert_eq!(p.stages[0].kind, StageKind::CacheRead);
        assert_eq!(p.stages[1].kind, StageKind::CacheRead);
        assert_eq!(p.stages[2].kind, StageKind::Compute);
        assert_eq!(p.stages[0].compute_at, Some((2, 0)));
        assert_eq!(p.stages[1].compute_at, Some((2, 0)));
        // Consumer's two read accesses now hit two distinct shared buffers.
        let b0 = p.stages[2].accesses[0].buffer;
        let b1 = p.stages[2].accesses[1].buffer;
        assert_ne!(b0, b1);
        assert_eq!(p.buffers[b0.0 as usize].scope, MemScope::Shared);
        assert_eq!(p.buffers[b1.0 as usize].scope, MemScope::Shared);
    }
}
