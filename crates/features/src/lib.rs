//! The program feature extractor (paper §3.3).
//!
//! Runs as an analysis over a (symbolic) [`Program`] and produces
//! [`FEATURE_COUNT`] = 82 program features *as expressions of the schedule
//! variables*: operation counts, parallelism structure, global/shared/local
//! memory traffic, per-access tile and reuse statistics, and smooth-able
//! discrete proxies (which deliberately contain `select`, exercising the
//! smoothing pipeline exactly as the paper's `int_add` example does).
//!
//! The same formulas serve both tools: Felix differentiates them after
//! smoothing; Ansor evaluates them at integer points to feed its cost model.
//!
//! Five columns repeat another column's formula by construction, so the
//! cost model sees 77 distinct formulas. They stay: dropping a column
//! changes the model's input, which is a cost-math change.
//!
//! | Column | Same formula as |
//! |---|---|
//! | `work_per_thread` | `flops_per_thread` |
//! | `launch_overhead_const` | `num_stages` |
//! | `sync_points_est` | `shared_load_rounds` |
//! | `local_acc_elems_per_thread` | `thread_tile_spatial` |
//! | `epilogue_stage_count` | `num_fused_epilogues` |

use felix_expr::{CmpOp, ExprId};
use felix_tir::{
    AccessKind, AccessPattern, AxisId, AxisKind, Loop, LoopKind, MemScope, Program, StageKind,
};

/// Number of features extracted per program.
pub const FEATURE_COUNT: usize = 82;

/// The names of all extracted features, index-aligned with
/// [`FeatureSet::exprs`].
pub const FEATURE_NAMES: [&str; FEATURE_COUNT] = [
    // A: arithmetic totals
    "float_add_total",
    "float_mul_total",
    "float_div_total",
    "float_special_total",
    "float_cmp_total",
    "int_ops_total",
    "flops_total",
    // B: intensity
    "flops_per_block",
    "flops_per_thread",
    "arithmetic_intensity",
    // C: parallelism
    "num_blocks",
    "threads_per_block",
    "vthreads",
    "total_threads",
    "total_parallelism",
    "warps_per_block",
    "work_per_thread",
    "serial_iters_per_thread",
    "innermost_serial_extent",
    "unroll_max_step",
    "unrolled_iters",
    "vector_lanes",
    // D: structure
    "loop_depth",
    "num_stages",
    "num_cache_stages",
    "num_fused_epilogues",
    "n_reduction_axes",
    "n_spatial_axes",
    "reduction_iters",
    "spatial_iters",
    "k_outer_iters",
    "k_inner_iters",
    // E: global memory
    "global_read_transactions",
    "global_write_transactions",
    "global_read_bytes",
    "global_write_bytes",
    "global_read_unique_bytes",
    "global_write_unique_bytes",
    "read_reuse",
    "write_reuse",
    "bytes_per_thread",
    "bytes_per_block",
    "traffic_total_bytes",
    "traffic_per_flop",
    // F: shared memory
    "shared_bytes_per_block",
    "shared_load_rounds",
    "shared_tile_elems",
    "shared_traffic_bytes",
    "shared_read_elems",
    "shared_per_thread",
    "sync_points_est",
    // G: local / registers
    "local_acc_elems_per_thread",
    "local_traffic_elems",
    "reg_pressure_est",
    "thread_tile_spatial",
    "block_tile_spatial",
    // H: anchor access detail
    "read0_tile_per_thread",
    "read0_reuse_dist",
    "read0_innermost_stride",
    "read1_tile_per_thread",
    "read1_reuse_dist",
    "read1_innermost_stride",
    "write_tile_per_thread",
    "unique_per_block",
    // I: epilogues
    "epilogue_iters",
    "epilogue_global_read_elems",
    "epilogue_flops",
    "epilogue_param_bytes",
    "epilogue_stage_count",
    // J: discrete proxies (contain select; smoothed by Felix)
    "loop_overhead_iops",
    "branch_select_ops",
    "warp_util_proxy",
    "occupancy_proxy",
    "tail_effect_proxy",
    "coalescing_proxy",
    "launch_overhead_const",
    "unroll_benefit_proxy",
    // K: extent statistics
    "max_loop_extent",
    "geo_mean_extent",
    "num_loops_total",
    "num_serial_loops",
    "num_bound_loops",
];

/// Index of a feature by name.
///
/// # Panics
///
/// Panics if the name is not in [`FEATURE_NAMES`].
pub fn feature_index(name: &str) -> usize {
    FEATURE_NAMES
        .iter()
        .position(|&n| n == name)
        .unwrap_or_else(|| panic!("unknown feature {name}"))
}

/// The extracted feature formulas of a program.
#[derive(Clone, Debug)]
pub struct FeatureSet {
    /// One expression per feature, aligned with [`FEATURE_NAMES`].
    pub exprs: Vec<ExprId>,
}

impl FeatureSet {
    /// Evaluates the raw feature values at a variable assignment.
    pub fn eval(&self, p: &Program, values: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.exprs.len());
        self.eval_into(p, values, &mut Vec::with_capacity(p.pool.len()), &mut out);
        out
    }

    /// [`FeatureSet::eval`] into caller-owned buffers (both cleared first):
    /// `nodes` takes every pool node's value, `out` the feature values.
    /// With both reused, a scoring loop allocates nothing per schedule.
    pub fn eval_into(
        &self,
        p: &Program,
        values: &[f64],
        nodes: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) {
        p.pool.eval_all_into(values, nodes);
        out.clear();
        out.extend(self.exprs.iter().map(|e| nodes[e.index()]));
    }
}

/// Iteration count contributed by the nests enclosing a `compute_at` stage.
fn enclosing_iters(p: &mut Program, stage: usize) -> ExprId {
    match p.stages[stage].compute_at {
        None => p.pool.constf(1.0),
        Some((target, pos)) => {
            let outer = enclosing_iters(p, target);
            let prod = p.loop_product(target, &|q, _, _| q <= pos);
            p.pool.mul(outer, prod)
        }
    }
}

/// Executions of a stage's innermost body: its own loops times the nests
/// enclosing it.
fn executions(p: &mut Program, stage: usize) -> ExprId {
    let enc = enclosing_iters(p, stage);
    let own = p.loop_product(stage, &|_, _, _| true);
    p.pool.mul(enc, own)
}

/// The root (grid-launching) stage of a `compute_at` chain.
fn root_of(p: &Program, mut stage: usize) -> usize {
    while let Some((t, _)) = p.stages[stage].compute_at {
        stage = t;
    }
    stage
}

/// Serially iterated loops (not bound to the GPU or parallelized).
fn is_serial(l: &Loop) -> bool {
    matches!(l.kind, LoopKind::Serial | LoopKind::Unroll | LoopKind::Vectorize)
}

/// The axes that index an access.
fn indexing_axes(access: &AccessPattern) -> Vec<AxisId> {
    access.dims.iter().flatten().map(|&(a, _)| a).collect()
}

/// `(stage, access, kind)` of every access of `stages` to a buffer in
/// `scope`, in program order.
fn accesses(p: &Program, stages: &[usize], scope: MemScope) -> Vec<(usize, usize, AccessKind)> {
    let mut out = Vec::new();
    for &s in stages {
        for (a, acc) in p.stages[s].accesses.iter().enumerate() {
            if p.buffers[acc.buffer.0 as usize].scope == scope {
                out.push((s, a, acc.kind));
            }
        }
    }
    out
}

/// Memory operations *issued* by one access over a stage's execution.
///
/// A loop multiplies the issue count when it indexes the access, or when it
/// is a parallel lane (block/thread/vthread): redundant reads across serial
/// inner loops are register-hoisted by the compiler, but every parallel lane
/// issues its own load even when the address repeats across lanes. This
/// distinction is what makes untiled schedules pay for their lack of reuse.
fn access_transactions(p: &mut Program, stage: usize, access_idx: usize) -> ExprId {
    let enc = enclosing_iters(p, stage);
    let access = &p.stages[stage].accesses[access_idx];
    let axes = indexing_axes(access);
    let is_read = access.kind == AccessKind::Read;
    let own = p.loop_product(stage, &|_, l, _| {
        axes.contains(&l.axis)
            || (is_read && (l.kind.is_gpu_binding() || l.kind == LoopKind::Parallel))
    });
    p.pool.mul(enc, own)
}

/// Σ [`access_transactions`] over the accesses of `stages` to `scope`.
fn transactions(p: &mut Program, stages: &[usize], scope: MemScope) -> ExprId {
    let mut total = p.pool.constf(0.0);
    for (s, a, _) in accesses(p, stages, scope) {
        let tx = access_transactions(p, s, a);
        total = p.pool.add(total, tx);
    }
    total
}

/// `num / (den + c)`: a ratio kept finite where `den` reaches zero.
fn ratio(p: &mut Program, num: ExprId, den: ExprId, c: f64) -> ExprId {
    let c = p.pool.constf(c);
    let d = p.pool.add(den, c);
    p.pool.div(num, d)
}

/// Tile, reuse distance and coalescing stride of read access `a` of the
/// anchor (features `read{0,1}_*`).
fn read_detail(p: &mut Program, anchor: usize, a: usize) -> [ExprId; 3] {
    let tile = p.footprint_elems(anchor, a, &|_, l| is_serial(l));
    // Reuse distance: iterations between consecutive touches of the same
    // element ≈ the serial iterations not indexed by this access.
    let axes = indexing_axes(&p.stages[anchor].accesses[a]);
    let reuse = p.loop_product(anchor, &|_, l, _| is_serial(l) && !axes.contains(&l.axis));
    // Coalescing: stride of the innermost thread loop in the access's last
    // dimension; 0 (a broadcast, the best case) when it does not index it.
    let st = &p.stages[anchor];
    let thread = st.loops.iter().rev().find(|l| l.kind == LoopKind::ThreadIdx).map(|l| {
        let last_dim = st.accesses[a].dims.last().into_iter().flatten();
        let contrib: i64 = last_dim.filter(|(ax, _)| *ax == l.axis).map(|(_, s)| s.abs()).sum();
        (l.mult, contrib)
    });
    let stride = match thread {
        None => p.pool.constf(1.0),
        Some((_, 0)) => p.pool.constf(0.0),
        Some((mult, contrib)) => {
            let c = p.pool.consti(contrib);
            p.pool.mul(mult, c)
        }
    };
    [tile, reuse, stride]
}

/// Extracts the 82 feature formulas from a (symbolic) program.
///
/// # Panics
///
/// Panics if the program has no compute stage.
pub fn extract_features(p: &mut Program) -> FeatureSet {
    assert!(
        p.stages.iter().any(|s| s.kind == StageKind::Compute),
        "program must have a compute stage"
    );
    let anchor = felix_tir::sketch::anchor_stage(p);
    let one = p.pool.constf(1.0);
    let zero = p.pool.constf(0.0);
    let compute: Vec<usize> =
        (0..p.stages.len()).filter(|&s| p.stages[s].kind == StageKind::Compute).collect();
    let epilogues: Vec<usize> =
        compute.iter().copied().filter(|&s| p.stages[s].compute_at.is_some()).collect();

    // ---- Arithmetic totals over all compute stages -------------------
    let mut ops = [zero; 6];
    for &s in &compute {
        let execs = executions(p, s);
        let oc = p.stages[s].op_counts;
        let counts = [oc.fadd, oc.fmul, oc.fdiv, oc.fspecial, oc.fcmp, oc.iops];
        for (count, total) in counts.into_iter().zip(&mut ops) {
            if count != 0.0 {
                let c = p.pool.constf(count);
                let t = p.pool.mul(execs, c);
                *total = p.pool.add(*total, t);
            }
        }
    }
    let [fadd, fmul, fdiv, fspecial, fcmp, iops] = ops;
    let flops = p.pool.sum(&[fadd, fmul, fdiv, fspecial, fcmp]);

    // ---- Parallelism structure of the anchor -------------------------
    let blocks = p.loop_product(anchor, &|_, l, _| l.kind == LoopKind::BlockIdx);
    let threads = p.loop_product(anchor, &|_, l, _| l.kind == LoopKind::ThreadIdx);
    let vthreads = p.loop_product(anchor, &|_, l, _| l.kind == LoopKind::VThread);
    let total_threads = p.pool.mul(blocks, threads);
    let total_par = p.pool.mul(total_threads, vthreads);
    let c32 = p.pool.constf(32.0);
    let warps = p.pool.div(threads, c32);
    let flops_per_block = p.pool.div(flops, blocks);
    let flops_per_thread = p.pool.div(flops, total_threads);
    let serial_iters = p.loop_product(anchor, &|_, l, _| is_serial(l));
    let innermost = p.stages[anchor].loops.last().map_or(one, |l| l.extent);
    let unroll = p.stages[anchor].unroll_max_step.unwrap_or(one);
    let unrolled_iters = p.pool.min(serial_iters, unroll);
    let vec_lanes = p.loop_product(anchor, &|_, l, _| l.kind == LoopKind::Vectorize);

    // ---- Structure ----------------------------------------------------
    let loop_depth = p.pool.consti(p.stages[anchor].loops.len() as i64);
    let num_stages = p.pool.consti(p.stages.len() as i64);
    let n_cache = p.stages.iter().filter(|s| s.kind == StageKind::CacheRead).count();
    let num_cache = p.pool.consti(n_cache as i64);
    let num_epilogues = p.pool.consti(epilogues.len() as i64);
    let n_red = p.stages[anchor].axes.iter().filter(|a| a.kind == AxisKind::Reduction).count();
    let n_spa = p.stages[anchor].axes.len() - n_red;
    let n_red_e = p.pool.consti(n_red as i64);
    let n_spa_e = p.pool.consti(n_spa as i64);
    let reduction_iters = p.loop_product(anchor, &|_, _, a| a == AxisKind::Reduction);
    let spatial_iters = p.loop_product(anchor, &|_, _, a| a == AxisKind::Spatial);
    // Outer reduction levels have a non-unit (symbolic) multiplier; the
    // pool interns constants, so "is the constant 1" is `== one`.
    let k_outer = p.loop_product(anchor, &|_, l, a| a == AxisKind::Reduction && l.mult != one);
    let k_inner = p.pool.div(reduction_iters, k_outer);

    // ---- Global memory -------------------------------------------------
    let (mut g_read_tx, mut g_write_tx) = (zero, zero);
    let (mut g_read_unique, mut g_write_unique) = (zero, zero);
    for (s, a, kind) in accesses(p, &compute, MemScope::Global) {
        let tx = access_transactions(p, s, a);
        let enc = enclosing_iters(p, s);
        let fp = p.footprint_elems(s, a, &|_, _| true);
        let unique = p.pool.mul(enc, fp);
        let (tx_total, unique_total) = match kind {
            AccessKind::Read => (&mut g_read_tx, &mut g_read_unique),
            AccessKind::Write => (&mut g_write_tx, &mut g_write_unique),
        };
        *tx_total = p.pool.add(*tx_total, tx);
        *unique_total = p.pool.add(*unique_total, unique);
    }
    // Cache-read staging traffic (global → shared).
    let (mut shared_tile, mut shared_rounds, mut shared_traffic_elems) = (zero, zero, zero);
    for s in 0..p.stages.len() {
        let Some(info) = p.stages[s].cache else { continue };
        let root_blocks = p.loop_product(root_of(p, s), &|_, l, _| l.kind == LoopKind::BlockIdx);
        let per_block = p.pool.mul(info.tile_elems, info.rounds);
        let total = p.pool.mul(per_block, root_blocks);
        shared_traffic_elems = p.pool.add(shared_traffic_elems, total);
        shared_tile = p.pool.add(shared_tile, info.tile_elems);
        shared_rounds = p.pool.add(shared_rounds, info.rounds);
        g_read_tx = p.pool.add(g_read_tx, total);
        g_read_unique = p.pool.add(g_read_unique, total);
    }
    let four = p.pool.constf(4.0);
    let g_read_bytes = p.pool.mul(g_read_tx, four);
    let g_write_bytes = p.pool.mul(g_write_tx, four);
    let g_read_unique_bytes = p.pool.mul(g_read_unique, four);
    let g_write_unique_bytes = p.pool.mul(g_write_unique, four);
    let read_reuse = ratio(p, g_read_tx, g_read_unique, 1.0);
    let write_reuse = ratio(p, g_write_tx, g_write_unique, 1.0);
    let traffic = p.pool.add(g_read_bytes, g_write_bytes);
    let bytes_per_thread = p.pool.div(traffic, total_threads);
    let bytes_per_block = p.pool.div(traffic, blocks);
    let traffic_per_flop = ratio(p, traffic, flops, 1.0);
    let arith_intensity = ratio(p, flops, traffic, 1.0);

    // ---- Shared memory --------------------------------------------------
    let shared_bytes_per_block = p.pool.mul(shared_tile, four);
    let shared_traffic_bytes = p.pool.mul(shared_traffic_elems, four);
    let shared_read_elems = transactions(p, &compute, MemScope::Shared);
    let shared_per_thread = ratio(p, shared_bytes_per_block, threads, 1.0);

    // ---- Local / register tiles ----------------------------------------
    let thread_tile_spatial =
        p.loop_product(anchor, &|_, l, a| is_serial(l) && a == AxisKind::Spatial);
    let block_tile_spatial = {
        let t = p.pool.mul(thread_tile_spatial, threads);
        p.pool.mul(t, vthreads)
    };
    let local_traffic = transactions(p, &compute, MemScope::Local);
    // Register pressure: accumulator tile + one register per staged operand.
    let reads: Vec<usize> = (0..p.stages[anchor].accesses.len())
        .filter(|&a| p.stages[anchor].accesses[a].kind == AccessKind::Read)
        .collect();
    let n_reads = p.pool.consti(reads.len() as i64);
    let extra = p.pool.mul(n_reads, innermost);
    let reg_pressure = p.pool.add(thread_tile_spatial, extra);

    // ---- Anchor access detail -------------------------------------------
    let [read0, read1] = [0, 1].map(|slot| match reads.get(slot) {
        Some(&a) => read_detail(p, anchor, a),
        None => [zero, one, zero],
    });
    let write = p.stages[anchor].accesses.iter().position(|a| a.kind == AccessKind::Write);
    let write_tile = match write {
        Some(a) => p.footprint_elems(anchor, a, &|_, l| is_serial(l)),
        None => one,
    };
    let mut unique_per_block = zero;
    for a in 0..p.stages[anchor].accesses.len() {
        let fp = p.footprint_elems(anchor, a, &|_, l| l.kind != LoopKind::BlockIdx);
        unique_per_block = p.pool.add(unique_per_block, fp);
    }

    // ---- Epilogues --------------------------------------------------------
    let (mut epi_iters, mut epi_reads, mut epi_flops) = (zero, zero, zero);
    let mut epi_param_bytes = zero;
    for &s in &epilogues {
        let execs = executions(p, s);
        epi_iters = p.pool.add(epi_iters, execs);
        let fl = p.pool.constf(p.stages[s].op_counts.flops());
        let f = p.pool.mul(execs, fl);
        epi_flops = p.pool.add(epi_flops, f);
        for (_, a, kind) in accesses(p, &[s], MemScope::Global) {
            if kind != AccessKind::Read {
                continue;
            }
            let tx = access_transactions(p, s, a);
            epi_reads = p.pool.add(epi_reads, tx);
            let buf = &p.buffers[p.stages[s].accesses[a].buffer.0 as usize];
            if buf.dims.len() == 1 {
                let b = p.pool.consti(buf.bytes());
                epi_param_bytes = p.pool.add(epi_param_bytes, b);
            }
        }
    }

    // ---- Discrete proxies (contain select; smoothed downstream) -----------
    let mut loop_overhead = zero;
    let mut cum = one;
    for l in p.stages[anchor].loops.clone() {
        cum = p.pool.mul(cum, l.extent);
        if l.kind.is_gpu_binding() {
            continue;
        }
        let two = p.pool.constf(2.0);
        let half = p.pool.constf(0.5);
        let cond = p.pool.cmp(CmpOp::Gt, l.extent, one);
        let cost = p.pool.select(cond, two, half);
        let term = p.pool.mul(cum, cost);
        loop_overhead = p.pool.add(loop_overhead, term);
    }
    let branch_selects = {
        let cond = p.pool.cmp(CmpOp::Gt, k_inner, one);
        p.pool.select(cond, reduction_iters, one)
    };
    let warp_util = ratio(p, threads, threads, 16.0);
    let occupancy = ratio(p, total_threads, total_threads, 4096.0);
    let tail = ratio(p, blocks, blocks, 80.0);
    let two = p.pool.constf(2.0);
    let strides_sum = {
        let s = p.pool.add(read0[2], read1[2]);
        p.pool.add(two, s)
    };
    let coalescing = p.pool.div(two, strides_sum);
    let unroll_benefit = ratio(p, unrolled_iters, serial_iters, 1.0);

    // ---- Extent statistics --------------------------------------------------
    let mut max_extent = one;
    for l in p.stages[anchor].loops.clone() {
        max_extent = p.pool.max(max_extent, l.extent);
    }
    let total_iters = p.loop_product(anchor, &|_, _, _| true);
    let nl = p.stages[anchor].loops.len().max(1);
    let inv = p.pool.constf(1.0 / nl as f64);
    let geo_mean = p.pool.pow(total_iters, inv);
    let num_loops = p.pool.consti(nl as i64);
    let loops = &p.stages[anchor].loops;
    let n_serial = loops.iter().filter(|l| is_serial(l)).count();
    let n_bound = loops.iter().filter(|l| l.kind.is_gpu_binding()).count();
    let num_serial = p.pool.consti(n_serial as i64);
    let num_bound = p.pool.consti(n_bound as i64);

    // The repeated entries are the aliases of the module docs.
    let exprs = vec![
        // A
        fadd, fmul, fdiv, fspecial, fcmp, iops, flops,
        // B
        flops_per_block, flops_per_thread, arith_intensity,
        // C
        blocks, threads, vthreads, total_threads, total_par, warps,
        flops_per_thread, serial_iters, innermost, unroll, unrolled_iters,
        vec_lanes,
        // D
        loop_depth, num_stages, num_cache, num_epilogues, n_red_e, n_spa_e,
        reduction_iters, spatial_iters, k_outer, k_inner,
        // E
        g_read_tx, g_write_tx, g_read_bytes, g_write_bytes,
        g_read_unique_bytes, g_write_unique_bytes, read_reuse, write_reuse,
        bytes_per_thread, bytes_per_block, traffic, traffic_per_flop,
        // F
        shared_bytes_per_block, shared_rounds, shared_tile,
        shared_traffic_bytes, shared_read_elems, shared_per_thread,
        shared_rounds,
        // G
        thread_tile_spatial, local_traffic, reg_pressure, thread_tile_spatial,
        block_tile_spatial,
        // H
        read0[0], read0[1], read0[2], read1[0], read1[1], read1[2],
        write_tile, unique_per_block,
        // I
        epi_iters, epi_reads, epi_flops, epi_param_bytes, num_epilogues,
        // J
        loop_overhead, branch_selects, warp_util, occupancy, tail,
        coalescing, num_stages, unroll_benefit,
        // K
        max_extent, geo_mean, num_loops, num_serial, num_bound,
    ];
    assert_eq!(exprs.len(), FEATURE_COUNT, "feature count drifted");
    FeatureSet { exprs }
}

#[cfg(test)]
#[path = "../../expr/tests/reference/free_vars.rs"]
mod free_vars;

#[cfg(test)]
mod tests {
    use super::*;
    use felix_tir::sketch::{
        generate_sketches, multi_level_tiling_sketch, HardwareParams,
    };
    use felix_tir::{AccessPattern, AxisId, Program};

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
            felix_tir::OpCounts { fadd: 1.0, fmul: 1.0, ..Default::default() },
        );
        p
    }

    fn idx(name: &str) -> usize {
        FEATURE_NAMES.iter().position(|&n| n == name).expect("known feature")
    }

    #[test]
    fn names_are_unique_and_82() {
        let mut names = FEATURE_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FEATURE_COUNT);
    }

    #[test]
    fn documented_aliases_repeat_their_formula() {
        let aliases = [
            ("work_per_thread", "flops_per_thread"),
            ("launch_overhead_const", "num_stages"),
            ("sync_points_est", "shared_load_rounds"),
            ("local_acc_elems_per_thread", "thread_tile_spatial"),
            ("epilogue_stage_count", "num_fused_epilogues"),
        ];
        let p0 = dense(256, 256, 256);
        for sk in generate_sketches(&p0, &HardwareParams::default()) {
            let mut p = sk.program;
            let fs = extract_features(&mut p);
            for (alias, of) in aliases {
                assert_eq!(fs.exprs[feature_index(alias)], fs.exprs[feature_index(of)], "{alias}");
            }
        }
    }

    #[test]
    fn naive_dense_features() {
        let mut p = dense(64, 128, 256);
        let fs = extract_features(&mut p);
        let v = fs.eval(&p, &[]);
        let total = (64 * 128 * 256) as f64;
        assert_eq!(v[idx("float_add_total")], total);
        assert_eq!(v[idx("float_mul_total")], total);
        assert_eq!(v[idx("flops_total")], 2.0 * total);
        // Naive program: no GPU bindings.
        assert_eq!(v[idx("num_blocks")], 1.0);
        assert_eq!(v[idx("threads_per_block")], 1.0);
        assert_eq!(v[idx("reduction_iters")], 256.0);
        assert_eq!(v[idx("spatial_iters")], (64 * 128) as f64);
    }

    #[test]
    fn sketch_features_respond_to_schedule_vars() {
        let p0 = dense(512, 512, 512);
        let sk = multi_level_tiling_sketch(&p0, &HardwareParams::default());
        let mut p = sk.program;
        let fs = extract_features(&mut p);
        // Vars: TI1,TI2,TI3, TJ1,TJ2,TJ3, TK1, UNROLL0.
        let a = fs.eval(&p, &[1.0, 16.0, 2.0, 1.0, 16.0, 2.0, 8.0, 16.0]);
        let b = fs.eval(&p, &[1.0, 8.0, 4.0, 1.0, 8.0, 4.0, 8.0, 16.0]);
        // threads: 16*16=256 vs 8*8=64.
        assert_eq!(a[idx("threads_per_block")], 256.0);
        assert_eq!(b[idx("threads_per_block")], 64.0);
        // Larger serial tiles -> bigger per-thread register tile.
        assert!(b[idx("thread_tile_spatial")] > a[idx("thread_tile_spatial")]);
        // flops are schedule-invariant.
        assert_eq!(a[idx("flops_total")], b[idx("flops_total")]);
        assert_eq!(a[idx("flops_total")], 2.0 * 512.0 * 512.0 * 512.0);
    }

    #[test]
    fn shared_memory_features_track_tiles() {
        let p0 = dense(512, 512, 512);
        let sk = multi_level_tiling_sketch(&p0, &HardwareParams::default());
        let mut p = sk.program;
        let fs = extract_features(&mut p);
        let v = fs.eval(&p, &[1.0, 16.0, 2.0, 1.0, 16.0, 2.0, 8.0, 16.0]);
        // Block spatial tile: i covers 16*2=32 rows, j covers 32 cols;
        // k1 = 8. A-tile = 32x8, B-tile = 8x32 => 256 + 256 elems.
        assert_eq!(v[idx("shared_tile_elems")], 512.0);
        assert_eq!(v[idx("shared_bytes_per_block")], 2048.0);
        // Rounds = K / TK1 = 64, summed over both cache stages.
        assert_eq!(v[idx("shared_load_rounds")], 128.0);
    }

    #[test]
    fn traffic_decreases_with_bigger_k_tile() {
        // Bigger TK1 -> fewer reload rounds but bigger tiles; per-block
        // traffic = rounds * (a_tile + b_tile) shrinks as spatial tiles grow.
        let p0 = dense(512, 512, 512);
        let sk = multi_level_tiling_sketch(&p0, &HardwareParams::default());
        let mut p = sk.program;
        let fs = extract_features(&mut p);
        let small_tiles = fs.eval(&p, &[1.0, 8.0, 1.0, 1.0, 8.0, 1.0, 8.0, 16.0]);
        let big_tiles = fs.eval(&p, &[1.0, 8.0, 8.0, 1.0, 8.0, 8.0, 8.0, 16.0]);
        assert!(
            big_tiles[idx("global_read_bytes")] < small_tiles[idx("global_read_bytes")],
            "bigger spatial tiles reuse more: {} vs {}",
            big_tiles[idx("global_read_bytes")],
            small_tiles[idx("global_read_bytes")]
        );
    }

    #[test]
    fn features_are_symbolic_in_sched_vars() {
        let p0 = dense(256, 256, 256);
        let sk = multi_level_tiling_sketch(&p0, &HardwareParams::default());
        let mut p = sk.program;
        let fs = extract_features(&mut p);
        let free = crate::free_vars::free_vars(&p.pool, &fs.exprs);
        assert!(
            free.len() >= 6,
            "features must depend on schedule variables, got {free:?}"
        );
    }

    #[test]
    fn all_sketches_of_all_shapes_extract() {
        for (n, m, k) in [(1, 1000, 2048), (64, 64, 64), (1024, 32, 128)] {
            let p0 = dense(n, m, k);
            for sk in generate_sketches(&p0, &HardwareParams::default()) {
                let mut p = sk.program;
                let fs = extract_features(&mut p);
                let nvars = p.vars.len();
                let v = fs.eval(&p, &vec![2.0; nvars]);
                assert_eq!(v.len(), FEATURE_COUNT);
                assert!(
                    v.iter().all(|x| x.is_finite()),
                    "non-finite feature for {n}x{m}x{k} {}",
                    sk.name
                );
            }
        }
    }

    #[test]
    fn proxies_contain_select_for_smoothing() {
        // The paper's int_add example: features must contain select() so the
        // smoothing pipeline has something to do.
        let p0 = dense(256, 256, 256);
        let sk = multi_level_tiling_sketch(&p0, &HardwareParams::default());
        let mut p = sk.program;
        let fs = extract_features(&mut p);
        let smooth_already = fs
            .exprs
            .iter()
            .all(|&e| felix_expr::is_smooth(&p.pool, e));
        assert!(!smooth_already, "expected non-smooth operators in features");
    }
}
