//! Ansor-style sketch generation, extended with symbolic annotation
//! (paper §3.2).
//!
//! A *sketch* is a structure of transformations with unfilled tunable
//! parameters. Where Ansor fills the parameters with concrete integers,
//! Felix fills them with fresh *schedule variables*, producing a symbolic
//! schedule whose application yields a symbolic program. Both tools share
//! the search space defined here (the paper keeps the dimensions identical
//! for a fair comparison).
//!
//! Two sketch kinds are generated per subgraph:
//!
//! - **Thread-bind** (always): spatial loops bound to `blockIdx`, the
//!   innermost spatial axis split into `threadIdx` × `vectorize` levels plus
//!   an unroll pragma — the shape of the paper's schedule `s*₁`.
//! - **Multi-level tiling** (for compute-intensive reductions): the
//!   SSSRRSRS structure with per-spatial-axis `vthread`/`threadIdx`/inner
//!   tiles, two-level reduction tiling, `cache_read` staging of inputs into
//!   shared memory, fused epilogues, and an unroll pragma — the shape of the
//!   paper's schedule `s*₂` (Fig. 3).

use crate::steps::{apply, axis_loop_positions, Step};
use crate::{
    AccessKind, AxisId, AxisKind, Constraint, LoopKind, MemScope, Program, Stage, StageKind,
};
use felix_expr::{ExprId, VarId};

/// Hardware limits that shape the search space and its constraints.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HardwareParams {
    /// Maximum threads per block (CUDA limit, typically 1024).
    pub max_threads_per_block: i64,
    /// Shared memory per block in bytes.
    pub max_shared_bytes: i64,
    /// Maximum virtual threads per axis.
    pub max_vthread: i64,
    /// Maximum auto-unroll step.
    pub max_unroll: i64,
    /// Maximum vectorization lanes.
    pub max_vector_lanes: i64,
}

impl Default for HardwareParams {
    fn default() -> Self {
        HardwareParams {
            max_threads_per_block: 1024,
            max_shared_bytes: 48 * 1024,
            max_vthread: 8,
            max_unroll: 512,
            max_vector_lanes: 4,
        }
    }
}

/// What a schedule variable parameterizes — needed for sampling initial
/// values and for rounding relaxed values back to valid integers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedVarKind {
    /// A tile-split level of `axis` in `stage`; the product of all split
    /// variables of the same `(stage, axis)` must divide `extent`.
    Split {
        /// Stage the split belongs to.
        stage: usize,
        /// Axis id within that stage.
        axis: AxisId,
        /// The axis extent being split.
        extent: i64,
        /// Level index among this axis's split variables (outer → inner).
        level: u32,
    },
    /// An auto-unroll max step in `[1, max]`, rounded to a power of two.
    Unroll {
        /// Upper bound.
        max: i64,
    },
}

/// Metadata for one schedule variable.
#[derive(Clone, Copy, Debug)]
pub struct SchedVarInfo {
    /// The variable.
    pub var: VarId,
    /// Its role.
    pub kind: SchedVarKind,
}

/// A generated symbolic schedule: the transformed symbolic program plus the
/// step list that produced it (kept for inspection / printing).
#[derive(Clone, Debug)]
pub struct Sketch {
    /// Short label (`thread-bind`, `multi-level-tiling`).
    pub name: &'static str,
    /// The transformed symbolic program (`p* = T(p0, s*)`).
    pub program: Program,
    /// The steps of the symbolic schedule `s*`.
    pub steps: Vec<Step>,
}

/// Applies `step` to `p` and records it in the sketch's step list.
fn record(p: &mut Program, steps: &mut Vec<Step>, step: Step) {
    apply(p, &step);
    steps.push(step);
}

/// Records the validity constraint `a <= b` as `a - b <= 0`.
fn at_most(p: &mut Program, a: ExprId, b: ExprId, desc: String) {
    let expr = p.pool.sub(a, b);
    p.constraints.push(Constraint { expr, desc });
}

/// A fresh schedule variable of `kind` with its range constraints
/// `1 <= x <= max`, `max` being the split axis's extent or the unroll bound.
fn fresh_var(p: &mut Program, name: String, kind: SchedVarKind) -> ExprId {
    let v = p.vars.fresh(name);
    p.sched_vars.push(SchedVarInfo { var: v, kind });
    let x = p.pool.var(v);
    let max = match kind {
        SchedVarKind::Split { extent, .. } => extent,
        SchedVarKind::Unroll { max } => max,
    };
    let vname = p.vars.name(v).to_owned();
    let one = p.pool.constf(1.0);
    at_most(p, one, x, format!("1 <= {vname}"));
    let max_e = p.pool.consti(max);
    at_most(p, x, max_e, format!("{vname} <= {max}"));
    x
}

/// Rounds a relaxed (real-valued) schedule-variable assignment to a valid
/// integer one (paper §3.3/§3.4):
///
/// - split variables of the same `(stage, axis)` are rounded greedily in
///   level order to factors of the remaining quotient, so their product
///   always divides the axis extent;
/// - unroll variables are rounded to the nearest power of two within range.
///
/// `raw` is indexed by [`felix_expr::VarId`]; entries for non-schedule
/// variables are passed through unchanged.
///
/// Builds a [`RoundingPlan`] per call; callers rounding many points of one
/// program build the plan once and call [`RoundingPlan::round`].
pub fn round_to_valid(program: &Program, raw: &[f64]) -> Vec<f64> {
    RoundingPlan::new(program).round(raw)
}

/// Candidates of one rounding decision: each value with its `ln`, ascending.
type LogLattice = Vec<(u64, f64)>;

/// The split variables of one `(stage, axis)`: their indices in level order
/// and every factor of the axis extent with its `ln`, ascending.
#[derive(Clone, Debug)]
struct SplitGroup {
    vars: Vec<usize>,
    factors: LogLattice,
}

/// Everything [`round_to_valid`] derives from the program alone, computed
/// once: split groups in `(stage, axis)` order with their factor lattices,
/// and each unroll variable's powers of two. Rounding a point is then one
/// pass of compares against precomputed logarithms.
#[derive(Clone, Debug)]
pub struct RoundingPlan {
    splits: Vec<SplitGroup>,
    unrolls: Vec<(usize, LogLattice)>,
}

impl RoundingPlan {
    /// The plan of `program`'s schedule variables.
    pub fn new(program: &Program) -> Self {
        let mut groups: std::collections::BTreeMap<(usize, u32), Vec<(u32, usize)>> =
            std::collections::BTreeMap::new();
        let mut unrolls = Vec::new();
        for sv in &program.sched_vars {
            match sv.kind {
                SchedVarKind::Split { stage, axis, level, .. } => {
                    groups.entry((stage, axis.0)).or_default().push((level, sv.var.index()));
                }
                SchedVarKind::Unroll { max } => {
                    let pows = std::iter::successors(Some(1i64), |p| p.checked_mul(2))
                        .take_while(|&p| p <= max)
                        .map(|p| (p as u64, (p as f64).ln()))
                        .collect();
                    unrolls.push((sv.var.index(), pows));
                }
            }
        }
        let splits = groups
            .into_iter()
            .map(|((stage, axis), mut vars)| {
                vars.sort_by_key(|&(level, _)| level);
                let extent = program.stages[stage].axis(AxisId(axis)).extent as u64;
                SplitGroup {
                    vars: vars.into_iter().map(|(_, v)| v).collect(),
                    factors: felix_expr::factor::factors(extent.max(1))
                        .into_iter()
                        .map(|f| (f, (f as f64).ln()))
                        .collect(),
                }
            })
            .collect();
        RoundingPlan { splits, unrolls }
    }

    /// [`round_to_valid`] of `raw` under this plan's program.
    pub fn round(&self, raw: &[f64]) -> Vec<f64> {
        let mut out = raw.to_vec();
        self.round_in_place(&mut out);
        out
    }

    /// [`RoundingPlan::round`] overwriting `vals`: each schedule variable's
    /// raw value is read before it is written, so rounding in place is the
    /// same as rounding a copy.
    pub fn round_in_place(&self, vals: &mut [f64]) {
        for (v, pows) in &self.unrolls {
            let lx = vals[*v].max(1.0).ln();
            vals[*v] = nearest_in_log(pows.iter().copied(), lx) as f64;
        }
        for group in &self.splits {
            // Greedy in level order: each level takes the factor of the
            // remaining quotient nearest in log space; the factors of `rem`
            // are exactly the extent's factors dividing it, in the same
            // ascending order.
            let mut rem = group.factors.last().map_or(1, |&(f, _)| f);
            for &v in &group.vars {
                let x = vals[v];
                let f = if !x.is_finite() || x <= 1.0 {
                    1
                } else {
                    let fits = group.factors.iter().copied().filter(|&(f, _)| rem % f == 0);
                    nearest_in_log(fits, x.ln())
                };
                vals[v] = f as f64;
                rem /= f;
            }
        }
    }
}

/// The first candidate whose `ln` is nearest `lx` (strict `<`, so ties keep
/// the smaller value); 1 when there is no candidate or every distance is
/// non-finite.
fn nearest_in_log(cands: impl Iterator<Item = (u64, f64)>, lx: f64) -> u64 {
    let mut best = 1;
    let mut best_d = f64::INFINITY;
    for (c, lc) in cands {
        let d = (lc - lx).abs();
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

/// Index of the anchor stage: the root compute stage (not `compute_at`
/// another) with the most work.
pub fn anchor_stage(p: &Program) -> usize {
    let mut best = 0;
    let mut best_work = -1.0;
    for (i, st) in p.stages.iter().enumerate() {
        if st.kind != StageKind::Compute || st.compute_at.is_some() {
            continue;
        }
        let iters: f64 = st.axes.iter().map(|a| a.extent as f64).product();
        let work = iters * st.op_counts.flops().max(0.5);
        if work > best_work {
            best_work = work;
            best = i;
        }
    }
    best
}

/// Total floating-point work of the naive program (constant).
pub fn total_flops(p: &Program) -> f64 {
    p.stages
        .iter()
        .map(|st| {
            let iters: f64 = st.axes.iter().map(|a| a.extent as f64).product();
            iters * st.op_counts.flops()
        })
        .sum()
}

/// Version tag of the sketch generator. Bump this string whenever sketch
/// generation changes shape — new rules, renamed sketches, different
/// variable counts or orderings — so persisted schedules tuned under the
/// old generator are detected as stale instead of silently misapplied.
pub const SKETCH_GENERATOR_VERSION: &str = "thread-bind+multi-level-tiling v1";

/// FNV-1a hash of [`SKETCH_GENERATOR_VERSION`] plus the sketch rule names:
/// the fingerprint a schedule store stamps on every entry. Two processes
/// agree on the hash iff they run the same sketch generator, which is what
/// makes a cached schedule's (sketch index, variable vector) meaningful.
/// Never zero, so a store entry without a fingerprint (written before
/// versioning existed) cannot masquerade as current.
pub fn generator_hash() -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    mix(SKETCH_GENERATOR_VERSION.as_bytes());
    mix(b"\x00");
    mix(b"thread-bind");
    mix(b"\x00");
    mix(b"multi-level-tiling");
    if h == 0 {
        h = 1;
    }
    h
}

/// Whether an artifact stamped `stamp` — a schedule-store entry, a
/// checkpoint — was written under the sketch generator this process runs.
/// The one place the comparison is made; a stale artifact's (sketch index,
/// variable vector) pairs refer to sketches that may since have been
/// renumbered, so callers skip or refuse it.
pub fn generator_is_current(stamp: u64) -> bool {
    stamp == generator_hash()
}

/// Generates the symbolic sketches for an initial (naive) program.
///
/// Mirrors Ansor's sketch rules for GPU: every subgraph gets the thread-bind
/// sketch; compute-intensive subgraphs with a reduction also get the
/// multi-level-tiling sketch.
pub fn generate_sketches(init: &Program, hw: &HardwareParams) -> Vec<Sketch> {
    let mut out = vec![thread_bind_sketch(init, hw)];
    let anchor = anchor_stage(init);
    let anchor_work: f64 = {
        let st = &init.stages[anchor];
        let iters: f64 = st.axes.iter().map(|a| a.extent as f64).product();
        iters * st.op_counts.flops().max(1.0)
    };
    if init.stages[anchor].has_reduction() && anchor_work >= (1 << 16) as f64 {
        out.push(multi_level_tiling_sketch(init, hw));
    }
    out
}

/// The ids of a stage's axes of `kind`, in declaration order.
fn axes_of(st: &Stage, kind: AxisKind) -> Vec<AxisId> {
    st.axes.iter().filter(|a| a.kind == kind).map(|a| a.id).collect()
}

/// Splits the loop of `axis` into a derived outer loop and one level per
/// name (outer → inner), each a fresh split variable.
fn tile(p: &mut Program, steps: &mut Vec<Step>, stage: usize, axis: AxisId, names: Vec<String>) {
    let extent = p.stages[stage].axis(axis).extent;
    let factors = (0..)
        .zip(names)
        .map(|(level, name)| fresh_var(p, name, SchedVarKind::Split { stage, axis, extent, level }))
        .collect();
    record(p, steps, Step::Tile { stage, axis, factors });
}

/// Tiles every `kind` axis of `stage` with extent at least `min_extent`
/// into `levels` named levels (`TI1`, `TI2`, ... for axis `i`); returns how
/// many axes it tiled.
fn tile_axes(
    p: &mut Program,
    steps: &mut Vec<Step>,
    stage: usize,
    kind: AxisKind,
    min_extent: i64,
    levels: u32,
) -> usize {
    let mut tiled = 0;
    for axis in axes_of(&p.stages[stage], kind) {
        let ax = p.stages[stage].axis(axis);
        if ax.extent < min_extent {
            continue;
        }
        let name = ax.name.to_uppercase();
        tile(p, steps, stage, axis, (1..=levels).map(|l| format!("T{name}{l}")).collect());
        tiled += 1;
    }
    tiled
}

/// The rules every sketch ends with: an unroll pragma on the anchor, the
/// epilogues fused at loop `fuse_pos` of it, and the per-block thread
/// limit. Returns the threads-per-block expression.
fn finish(
    p: &mut Program,
    steps: &mut Vec<Step>,
    anchor: usize,
    fuse_pos: usize,
    hw: &HardwareParams,
) -> ExprId {
    let max_step = fresh_var(p, "UNROLL0".into(), SchedVarKind::Unroll { max: hw.max_unroll });
    record(p, steps, Step::UnrollPragma { stage: anchor, max_step });
    fuse_epilogues(p, steps, anchor, fuse_pos);
    let threads = p.loop_product(anchor, &|_, l, _| l.kind == LoopKind::ThreadIdx);
    let max = p.pool.consti(hw.max_threads_per_block);
    at_most(p, threads, max, format!("threads <= {}", hw.max_threads_per_block));
    threads
}

/// The simple sketch: bind spatial loops to the GPU grid, split the
/// innermost spatial axis into thread/vector levels, unroll pragma.
pub fn thread_bind_sketch(init: &Program, hw: &HardwareParams) -> Sketch {
    let mut p = init.clone();
    let mut steps = Vec::new();
    let anchor = anchor_stage(&p);

    // Split the last spatial axis (typically the contiguous one) into
    // [thread, vector] levels.
    let last = *axes_of(&p.stages[anchor], AxisKind::Spatial)
        .last()
        .expect("stage must have a spatial axis");
    tile(&mut p, &mut steps, anchor, last, vec!["TILE0".into(), "VEC0".into()]);

    // Bind: all spatial loops except the two new inner levels → blockIdx;
    // the thread level → threadIdx; the vector level → vectorize.
    let positions = axis_loop_positions(&p.stages[anchor], last);
    let (thread_pos, vec_pos) = (positions[1], positions[2]);
    for pos in 0..p.stages[anchor].loops.len() {
        let st = &p.stages[anchor];
        if st.axis(st.loops[pos].axis).kind != AxisKind::Spatial {
            continue;
        }
        let kind = if pos == thread_pos {
            LoopKind::ThreadIdx
        } else if pos == vec_pos {
            LoopKind::Vectorize
        } else {
            LoopKind::BlockIdx
        };
        record(&mut p, &mut steps, Step::Bind { stage: anchor, pos, kind });
    }

    // Unroll the remaining serial (reduction) loops, fuse the epilogues at
    // the thread level, and bound the vector width.
    finish(&mut p, &mut steps, anchor, thread_pos, hw);
    let lanes = p.loop_product(anchor, &|_, l, _| l.kind == LoopKind::Vectorize);
    let max = p.pool.consti(hw.max_vector_lanes);
    at_most(&mut p, lanes, max, format!("vector lanes <= {}", hw.max_vector_lanes));

    Sketch { name: "thread-bind", program: p, steps }
}

/// The SSSRRSRS multi-level tiling sketch with shared-memory staging.
pub fn multi_level_tiling_sketch(init: &Program, hw: &HardwareParams) -> Sketch {
    let mut p = init.clone();
    let mut steps = Vec::new();
    let anchor = anchor_stage(&p);

    // Spatial axes get [vthread, thread, inner] levels (size-1 axes stay
    // whole); sizeable reduction axes get one inner level.
    let n_spatial = axes_of(&p.stages[anchor], AxisKind::Spatial).len();
    let n_tiled = tile_axes(&mut p, &mut steps, anchor, AxisKind::Spatial, 2, 3);
    let n_r0 = tile_axes(&mut p, &mut steps, anchor, AxisKind::Reduction, 4, 1);

    // Reorder into S0 S1 S2 R0 R1 S3: spatial levels 0-2, the outer
    // (level-0) reduction loops, the inner reduction levels, the innermost
    // spatial level. The sort is stable, so each bucket keeps nest order.
    let st = &p.stages[anchor];
    let bucket = |pos: usize| {
        let l = &st.loops[pos];
        let level = st.loops[..pos].iter().filter(|m| m.axis == l.axis).count();
        match (st.axis(l.axis).kind, level) {
            (AxisKind::Spatial, 0..=2) => level,
            (AxisKind::Reduction, 0) => 3,
            (AxisKind::Reduction, _) => 4,
            (AxisKind::Spatial, _) => 5,
        }
    };
    let mut order: Vec<usize> = (0..st.loops.len()).collect();
    order.sort_by_key(|&pos| bucket(pos));
    record(&mut p, &mut steps, Step::Reorder { stage: anchor, order });

    // Bind levels: S0 → blockIdx, S1 → vthread, S2 → threadIdx.
    let mut pos = 0;
    let levels = [
        (n_spatial, LoopKind::BlockIdx),
        (n_tiled, LoopKind::VThread),
        (n_tiled, LoopKind::ThreadIdx),
    ];
    for (count, kind) in levels {
        for _ in 0..count {
            record(&mut p, &mut steps, Step::Bind { stage: anchor, pos, kind });
            pos += 1;
        }
    }
    let last_thread_pos = pos - 1;

    // Cache-read staging of the anchor's global reads into shared memory.
    // Reload rounds = product of the R0 extents; the staged tile covers
    // every non-block loop except those R0 loops.
    let r0 = pos..pos + n_r0;
    let rounds = p.loop_product(anchor, &|q, _, _| r0.contains(&q));
    let reads: Vec<usize> = (0..p.stages[anchor].accesses.len())
        .filter(|&a| {
            let acc = &p.stages[anchor].accesses[a];
            let scope = p.buffers[acc.buffer.0 as usize].scope;
            acc.kind == AccessKind::Read && scope == MemScope::Global
        })
        .collect();
    let mut shared_tiles = Vec::new();
    for (inserted, access_idx) in reads.into_iter().enumerate() {
        // Each insertion shifts the anchor index by one.
        let consumer = anchor + inserted;
        let tile_elems = p.footprint_elems(consumer, access_idx, &|q, l| {
            l.kind != LoopKind::BlockIdx && !r0.contains(&q)
        });
        shared_tiles.push(tile_elems);
        record(&mut p, &mut steps, Step::CacheRead { consumer, access_idx, tile_elems, rounds });
    }
    let anchor = anchor + shared_tiles.len();

    // Unroll pragma, epilogues fused at the last threadIdx loop, and the
    // limits: threads per block within [16, max], vthreads, shared memory.
    let threads = finish(&mut p, &mut steps, anchor, last_thread_pos, hw);
    let min = p.pool.consti(16);
    at_most(&mut p, min, threads, "threads >= 16".into());
    let vthreads = p.loop_product(anchor, &|_, l, _| l.kind == LoopKind::VThread);
    let max = p.pool.consti(hw.max_vthread * hw.max_vthread.max(1));
    at_most(&mut p, vthreads, max, format!("vthreads <= {}", hw.max_vthread * hw.max_vthread));
    if !shared_tiles.is_empty() {
        let total_tiles = p.pool.sum(&shared_tiles);
        let dtype = p.pool.consti(4);
        let bytes = p.pool.mul(total_tiles, dtype);
        let max = p.pool.consti(hw.max_shared_bytes);
        at_most(&mut p, bytes, max, format!("shared memory <= {}", hw.max_shared_bytes));
    }

    Sketch { name: "multi-level-tiling", program: p, steps }
}

/// Computes every other root compute stage with as many spatial axes as
/// the anchor at loop `pos` of the anchor (greedy epilogue fusion, as
/// Ansor/TVM apply it).
fn fuse_epilogues(p: &mut Program, steps: &mut Vec<Step>, anchor: usize, pos: usize) {
    let n_spatial = axes_of(&p.stages[anchor], AxisKind::Spatial).len();
    for s in 0..p.stages.len() {
        let st = &p.stages[s];
        if s != anchor
            && st.kind == StageKind::Compute
            && st.compute_at.is_none()
            && axes_of(st, AxisKind::Spatial).len() == n_spatial
        {
            record(p, steps, Step::ComputeAt { stage: s, target: anchor, pos });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessPattern, AxisId, OpCounts};

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

    fn relu(n: i64, m: i64) -> Program {
        let mut p = Program::new();
        let a = p.add_buffer("X", vec![n, m], 4, MemScope::Global);
        let b = p.add_buffer("Y", vec![n, m], 4, MemScope::Global);
        let (ai, aj) = (AxisId(0), AxisId(1));
        p.add_stage(
            "relu",
            vec![("i".into(), n, AxisKind::Spatial), ("j".into(), m, AxisKind::Spatial)],
            vec![
                AccessPattern { buffer: a, kind: AccessKind::Read, dims: vec![vec![(ai, 1)], vec![(aj, 1)]] },
                AccessPattern { buffer: b, kind: AccessKind::Write, dims: vec![vec![(ai, 1)], vec![(aj, 1)]] },
            ],
            OpCounts { fcmp: 1.0, ..OpCounts::default() },
        );
        p
    }

    #[test]
    fn dense_gets_both_sketches() {
        let p = dense(512, 512, 512);
        let sketches = generate_sketches(&p, &HardwareParams::default());
        assert_eq!(sketches.len(), 2);
        assert_eq!(sketches[0].name, "thread-bind");
        assert_eq!(sketches[1].name, "multi-level-tiling");
    }

    #[test]
    fn elementwise_gets_only_thread_bind() {
        let p = relu(64, 1024);
        let sketches = generate_sketches(&p, &HardwareParams::default());
        assert_eq!(sketches.len(), 1);
        assert_eq!(sketches[0].name, "thread-bind");
    }

    #[test]
    fn thread_bind_sketch_shape() {
        let p = relu(64, 1024);
        let s = thread_bind_sketch(&p, &HardwareParams::default());
        let st = &s.program.stages[0];
        // Loops: i (blockIdx), j.0 (blockIdx), j.1 (threadIdx), j.2 (vec).
        assert_eq!(st.loops.len(), 4);
        assert_eq!(st.loops_of_kind(LoopKind::BlockIdx).len(), 2);
        assert_eq!(st.loops_of_kind(LoopKind::ThreadIdx).len(), 1);
        assert_eq!(st.loops_of_kind(LoopKind::Vectorize).len(), 1);
        // Two schedule vars: TILE0, VEC0, plus UNROLL0 = 3.
        assert_eq!(s.program.sched_vars.len(), 3);
        assert!(st.unroll_max_step.is_some());
    }

    #[test]
    fn multi_level_tiling_shape() {
        let p = dense(512, 512, 512);
        let s = multi_level_tiling_sketch(&p, &HardwareParams::default());
        let anchor = s
            .program
            .stages
            .iter()
            .position(|st| st.kind == StageKind::Compute)
            .expect("anchor");
        let st = &s.program.stages[anchor];
        // i: 4 levels, j: 4 levels, k: 2 levels = 10 loops.
        assert_eq!(st.loops.len(), 10);
        assert_eq!(st.loops_of_kind(LoopKind::BlockIdx).len(), 2);
        assert_eq!(st.loops_of_kind(LoopKind::VThread).len(), 2);
        assert_eq!(st.loops_of_kind(LoopKind::ThreadIdx).len(), 2);
        // 2 cache-read stages (A and B).
        let caches = s
            .program
            .stages
            .iter()
            .filter(|st| st.kind == StageKind::CacheRead)
            .count();
        assert_eq!(caches, 2);
        // Vars: 3 per spatial axis * 2 + 1 reduction + unroll = 8.
        assert_eq!(s.program.sched_vars.len(), 8);
        // Constraint list non-trivial (ranges + threads + shared mem).
        assert!(s.program.constraints.len() >= 8);
    }

    #[test]
    fn sketch_order_is_sssrrs() {
        let p = dense(256, 256, 256);
        let s = multi_level_tiling_sketch(&p, &HardwareParams::default());
        let anchor = s
            .program
            .stages
            .iter()
            .position(|st| st.kind == StageKind::Compute)
            .expect("anchor");
        let kinds: Vec<LoopKind> =
            s.program.stages[anchor].loops.iter().map(|l| l.kind).collect();
        assert_eq!(
            kinds,
            vec![
                LoopKind::BlockIdx,
                LoopKind::BlockIdx,
                LoopKind::VThread,
                LoopKind::VThread,
                LoopKind::ThreadIdx,
                LoopKind::ThreadIdx,
                LoopKind::Serial, // k.0
                LoopKind::Serial, // k.1
                LoopKind::Serial, // i.3
                LoopKind::Serial, // j.3
            ]
        );
    }

    #[test]
    fn constraints_reject_oversized_threads() {
        let p = dense(512, 512, 512);
        let s = multi_level_tiling_sketch(&p, &HardwareParams::default());
        let nv = s.program.vars.len();
        // All vars 1 → threads = 1 < 16: violates the lower bound.
        let vals = vec![1.0; nv];
        assert!(!s.program.constraints_ok(&vals, 0.0));
        // Reasonable point: vthread 1/1, threads 16x16, inner 2x2, k 8, u 16.
        // Var order: TI1,TI2,TI3, TJ1,TJ2,TJ3, TK1, UNROLL0.
        let vals = vec![1.0, 16.0, 2.0, 1.0, 16.0, 2.0, 8.0, 16.0];
        assert!(
            s.program.constraints_ok(&vals, 0.0),
            "violations: {:?}",
            s.program.violated_constraints(&vals, 0.0)
        );
        // 64x64 threads = 4096 > 1024: violates the upper bound.
        let vals = vec![1.0, 64.0, 2.0, 1.0, 64.0, 2.0, 8.0, 16.0];
        assert!(!s.program.constraints_ok(&vals, 0.0));
    }

    #[test]
    fn fused_epilogue_is_computed_at() {
        // Dense + bias-add epilogue.
        let mut p = dense(256, 256, 256);
        let c = p.add_buffer("C", vec![256], 4, MemScope::Global);
        let e = p.add_buffer("E", vec![256, 256], 4, MemScope::Global);
        let (ei, ej) = (AxisId(0), AxisId(1));
        p.add_stage(
            "bias",
            vec![("i".into(), 256, AxisKind::Spatial), ("j".into(), 256, AxisKind::Spatial)],
            vec![
                AccessPattern { buffer: c, kind: AccessKind::Read, dims: vec![vec![(ej, 1)]] },
                AccessPattern { buffer: e, kind: AccessKind::Write, dims: vec![vec![(ei, 1)], vec![(ej, 1)]] },
            ],
            OpCounts { fadd: 1.0, ..OpCounts::default() },
        );
        let s = multi_level_tiling_sketch(&p, &HardwareParams::default());
        let bias = s
            .program
            .stages
            .iter()
            .find(|st| st.name == "bias")
            .expect("bias stage");
        assert!(bias.compute_at.is_some());
    }

    #[test]
    fn rounding_yields_valid_divisible_schedule() {
        let p = dense(512, 384, 96);
        let s = multi_level_tiling_sketch(&p, &HardwareParams::default());
        // Perturbed, non-integral candidates.
        let raw = vec![1.3, 13.2, 2.7, 0.9, 17.5, 3.3, 7.2, 47.0];
        let rounded = round_to_valid(&s.program, &raw);
        // Split groups multiply to divisors of their extents.
        let i_prod = rounded[0] * rounded[1] * rounded[2];
        assert_eq!(512.0 % i_prod, 0.0, "i split {i_prod}");
        let j_prod = rounded[3] * rounded[4] * rounded[5];
        assert_eq!(384.0 % j_prod, 0.0, "j split {j_prod}");
        assert_eq!(96.0 % rounded[6], 0.0, "k split {}", rounded[6]);
        // Unroll is a power of two.
        let u = rounded[7] as i64;
        assert_eq!(u & (u - 1), 0, "unroll {u} must be a power of two");
        assert!((1..=512).contains(&u));
    }

    #[test]
    fn rounding_is_idempotent() {
        let p = dense(256, 256, 256);
        let s = multi_level_tiling_sketch(&p, &HardwareParams::default());
        let raw = vec![2.0, 8.0, 4.0, 2.0, 8.0, 4.0, 8.0, 64.0];
        let once = round_to_valid(&s.program, &raw);
        let twice = round_to_valid(&s.program, &once);
        assert_eq!(once, twice);
        assert_eq!(once, raw, "already-valid schedules are fixed points");
    }

    #[test]
    fn single_split_rounds_to_log_space_nearest_factor() {
        // The k axis of the tiling sketch has exactly one split variable
        // (var index 6, extent 96 here), so its rounding is one search over
        // the extent's factors; check it against a brute-force search for
        // the factor nearest in log space.
        let p = dense(512, 384, 96);
        let s = multi_level_tiling_sketch(&p, &HardwareParams::default());
        let fs = felix_expr::factor::factors(96);
        for i in 0..60 {
            let x: f64 = 0.3 * 1.12f64.powi(i); // 0.3 .. ~170
            let mut raw = vec![2.0, 8.0, 4.0, 2.0, 8.0, 4.0, 0.0, 64.0];
            raw[6] = x;
            let rounded = round_to_valid(&s.program, &raw);
            let got = rounded[6] as u64;
            let dist = |f: u64| ((f as f64).ln() - x.max(1.0).ln()).abs();
            let best = fs.iter().copied().map(dist).fold(f64::INFINITY, f64::min);
            assert!(fs.contains(&got), "x={x} got={got}");
            assert!(
                (dist(got) - best).abs() < 1e-12,
                "x={x}: got factor {got} (log-dist {}), nearest is {best}",
                dist(got)
            );
        }
    }

    #[test]
    fn unroll_rounds_to_log_space_nearest_power_of_two() {
        let p = dense(256, 256, 256);
        let s = multi_level_tiling_sketch(&p, &HardwareParams::default());
        let pows: Vec<u64> = (0..10).map(|e| 1u64 << e).collect(); // 1..512
        for i in 0..50 {
            let x: f64 = 0.5 * 1.18f64.powi(i); // 0.5 .. ~2000 (past the cap)
            let mut raw = vec![2.0, 8.0, 4.0, 2.0, 8.0, 4.0, 8.0, 0.0];
            raw[7] = x;
            let rounded = round_to_valid(&s.program, &raw);
            let got = rounded[7] as u64;
            let dist = |f: u64| ((f as f64).ln() - x.max(1.0).ln()).abs();
            let best = pows.iter().copied().map(dist).fold(f64::INFINITY, f64::min);
            assert!(pows.contains(&got), "x={x} got={got}");
            assert!(
                (dist(got) - best).abs() < 1e-12,
                "x={x}: got {got}, log-dist {} vs best {best}",
                dist(got)
            );
        }
    }

    #[test]
    fn rounding_is_idempotent_on_random_points() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x2071D);
        for (m, k, n) in [(512, 384, 96), (96, 60, 210), (256, 256, 256)] {
            let p = dense(m, n, k);
            let s = multi_level_tiling_sketch(&p, &HardwareParams::default());
            let nv = s.program.vars.len();
            for _ in 0..64 {
                let raw: Vec<f64> = (0..nv).map(|_| rng.gen_range(-2.0f64..80.0)).collect();
                let once = round_to_valid(&s.program, &raw);
                let twice = round_to_valid(&s.program, &once);
                assert_eq!(once, twice, "raw {raw:?}");
                // Every rounded schedule variable is integral and in range.
                for sv in &s.program.sched_vars {
                    let v = once[sv.var.index()];
                    assert_eq!(v.fract(), 0.0);
                    let max = match sv.kind {
                        SchedVarKind::Split { extent, .. } => extent,
                        SchedVarKind::Unroll { max } => max,
                    };
                    assert!(v >= 1.0 && v <= max as f64);
                }
            }
        }
    }

    #[test]
    fn sched_var_metadata_round_trips() {
        let p = dense(512, 256, 128);
        let s = multi_level_tiling_sketch(&p, &HardwareParams::default());
        for sv in &s.program.sched_vars {
            match sv.kind {
                SchedVarKind::Split { extent, .. } => {
                    assert!([512, 256, 128].contains(&extent))
                }
                SchedVarKind::Unroll { max } => assert_eq!(max, 512),
            }
        }
    }
}
