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

use felix_expr::{CmpOp, ExprId};
use felix_tir::{AccessKind, AxisKind, LoopKind, MemScope, Program, StageKind};

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
            let exts: Vec<ExprId> = p.stages[target].loops[..=pos.min(p.stages[target].loops.len().saturating_sub(1))]
                .iter()
                .map(|l| l.extent)
                .collect();
            let prod = p.pool.product(&exts);
            p.pool.mul(outer, prod)
        }
    }
}

/// The root (grid-launching) stage of a `compute_at` chain.
fn root_of(p: &Program, mut stage: usize) -> usize {
    while let Some((t, _)) = p.stages[stage].compute_at {
        stage = t;
    }
    stage
}

/// Index of the anchor: the root compute stage with the most work.
fn anchor_of(p: &Program) -> usize {
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

/// Memory operations *issued* by one access over a stage's execution.
///
/// A loop multiplies the issue count when it indexes the access, or when it
/// is a parallel lane (block/thread/vthread): redundant reads across serial
/// inner loops are register-hoisted by the compiler, but every parallel lane
/// issues its own load even when the address repeats across lanes. This
/// distinction is what makes untiled schedules pay for their lack of reuse.
fn access_transactions(p: &mut Program, stage: usize, access_idx: usize) -> ExprId {
    let enc = enclosing_iters(p, stage);
    let access_axes: Vec<felix_tir::AxisId> = p.stages[stage].accesses[access_idx]
        .dims
        .iter()
        .flatten()
        .map(|&(a, _)| a)
        .collect();
    let is_read = p.stages[stage].accesses[access_idx].kind == AccessKind::Read;
    let exts: Vec<ExprId> = p.stages[stage]
        .loops
        .iter()
        .filter(|l| {
            access_axes.contains(&l.axis)
                || (is_read
                    && (l.kind.is_gpu_binding() || l.kind == LoopKind::Parallel))
        })
        .map(|l| l.extent)
        .collect();
    let own = p.pool.product(&exts);
    p.pool.mul(enc, own)
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
    let anchor = anchor_of(p);
    let one = p.pool.constf(1.0);

    // ---- Arithmetic totals over all compute stages -------------------
    let mut fadd = p.pool.constf(0.0);
    let mut fmul = p.pool.constf(0.0);
    let mut fdiv = p.pool.constf(0.0);
    let mut fspecial = p.pool.constf(0.0);
    let mut fcmp = p.pool.constf(0.0);
    let mut iops = p.pool.constf(0.0);
    for s in 0..p.stages.len() {
        if p.stages[s].kind != StageKind::Compute {
            continue;
        }
        let enc = enclosing_iters(p, s);
        let own = {
            let exts: Vec<ExprId> = p.stages[s].loops.iter().map(|l| l.extent).collect();
            p.pool.product(&exts)
        };
        let execs = p.pool.mul(enc, own);
        let oc = p.stages[s].op_counts;
        let terms = [
            (oc.fadd, &mut fadd),
            (oc.fmul, &mut fmul),
            (oc.fdiv, &mut fdiv),
            (oc.fspecial, &mut fspecial),
            (oc.fcmp, &mut fcmp),
            (oc.iops, &mut iops),
        ];
        for (count, acc) in terms {
            if count != 0.0 {
                let c = p.pool.constf(count);
                let t = p.pool.mul(execs, c);
                *acc = p.pool.add(*acc, t);
            }
        }
    }
    let mut flops = p.pool.add(fadd, fmul);
    flops = p.pool.add(flops, fdiv);
    flops = p.pool.add(flops, fspecial);
    flops = p.pool.add(flops, fcmp);

    // ---- Parallelism structure of the anchor -------------------------
    let blocks = p.extent_product(anchor, LoopKind::BlockIdx);
    let threads = p.extent_product(anchor, LoopKind::ThreadIdx);
    let vthreads = p.extent_product(anchor, LoopKind::VThread);
    let total_threads = p.pool.mul(blocks, threads);
    let total_par = p.pool.mul(total_threads, vthreads);
    let c32 = p.pool.constf(32.0);
    let warps = p.pool.div(threads, c32);
    let flops_per_block = p.pool.div(flops, blocks);
    let flops_per_thread = p.pool.div(flops, total_threads);
    let serial_kinds = [LoopKind::Serial, LoopKind::Unroll, LoopKind::Vectorize];
    let serial_exts: Vec<ExprId> = p.stages[anchor]
        .loops
        .iter()
        .filter(|l| serial_kinds.contains(&l.kind))
        .map(|l| l.extent)
        .collect();
    let serial_iters = p.pool.product(&serial_exts);
    let innermost = p.stages[anchor]
        .loops
        .last()
        .map(|l| l.extent)
        .unwrap_or(one);
    let unroll = p.stages[anchor].unroll_max_step.unwrap_or(one);
    let unrolled_iters = p.pool.min(serial_iters, unroll);
    let vec_lanes = p.extent_product(anchor, LoopKind::Vectorize);

    // ---- Structure ----------------------------------------------------
    let loop_depth = p.pool.consti(p.stages[anchor].loops.len() as i64);
    let num_stages = p.pool.consti(p.stages.len() as i64);
    let n_cache = p
        .stages
        .iter()
        .filter(|s| s.kind == StageKind::CacheRead)
        .count();
    let num_cache = p.pool.consti(n_cache as i64);
    let n_epilogues = p
        .stages
        .iter()
        .filter(|s| s.kind == StageKind::Compute && s.compute_at.is_some())
        .count();
    let num_epilogues = p.pool.consti(n_epilogues as i64);
    let n_red = p.stages[anchor]
        .axes
        .iter()
        .filter(|a| a.kind == AxisKind::Reduction)
        .count();
    let n_spa = p.stages[anchor].axes.len() - n_red;
    let n_red_e = p.pool.consti(n_red as i64);
    let n_spa_e = p.pool.consti(n_spa as i64);
    let red_exts: Vec<ExprId> = p.stages[anchor]
        .loops
        .iter()
        .filter(|l| p.stages[anchor].axis(l.axis).kind == AxisKind::Reduction)
        .map(|l| l.extent)
        .collect();
    let reduction_iters = p.pool.product(&red_exts);
    let spa_exts: Vec<ExprId> = p.stages[anchor]
        .loops
        .iter()
        .filter(|l| p.stages[anchor].axis(l.axis).kind == AxisKind::Spatial)
        .map(|l| l.extent)
        .collect();
    let spatial_iters = p.pool.product(&spa_exts);
    // Outer reduction levels have a non-unit (symbolic) multiplier.
    let kout_exts: Vec<ExprId> = p.stages[anchor]
        .loops
        .iter()
        .filter(|l| {
            p.stages[anchor].axis(l.axis).kind == AxisKind::Reduction
                && p.pool.as_const(l.mult) != Some(1.0)
        })
        .map(|l| l.extent)
        .collect();
    let k_outer = p.pool.product(&kout_exts);
    let k_inner = p.pool.div(reduction_iters, k_outer);

    // ---- Global memory -------------------------------------------------
    let mut g_read_tx = p.pool.constf(0.0);
    let mut g_write_tx = p.pool.constf(0.0);
    let mut g_read_unique = p.pool.constf(0.0);
    let mut g_write_unique = p.pool.constf(0.0);
    for s in 0..p.stages.len() {
        if p.stages[s].kind != StageKind::Compute {
            continue;
        }
        for a in 0..p.stages[s].accesses.len() {
            let buf = p.stages[s].accesses[a].buffer;
            if p.buffers[buf.0 as usize].scope != MemScope::Global {
                continue;
            }
            let tx = access_transactions(p, s, a);
            let enc = enclosing_iters(p, s);
            let fp = p.footprint_elems(s, a, &|_, _| true);
            let unique = p.pool.mul(enc, fp);
            match p.stages[s].accesses[a].kind {
                AccessKind::Read => {
                    g_read_tx = p.pool.add(g_read_tx, tx);
                    g_read_unique = p.pool.add(g_read_unique, unique);
                }
                AccessKind::Write => {
                    g_write_tx = p.pool.add(g_write_tx, tx);
                    g_write_unique = p.pool.add(g_write_unique, unique);
                }
            }
        }
    }
    // Cache-read staging traffic (global → shared).
    let mut shared_tile = p.pool.constf(0.0);
    let mut shared_rounds = p.pool.constf(0.0);
    let mut shared_traffic_elems = p.pool.constf(0.0);
    for s in 0..p.stages.len() {
        let Some(info) = p.stages[s].cache else { continue };
        let root = root_of(p, s);
        let root_blocks = p.extent_product(root, LoopKind::BlockIdx);
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
    let ru_den = p.pool.add(g_read_unique, one);
    let read_reuse = p.pool.div(g_read_tx, ru_den);
    let wu_den = p.pool.add(g_write_unique, one);
    let write_reuse = p.pool.div(g_write_tx, wu_den);
    let traffic = p.pool.add(g_read_bytes, g_write_bytes);
    let bytes_per_thread = p.pool.div(traffic, total_threads);
    let bytes_per_block = p.pool.div(traffic, blocks);
    let fl_den = p.pool.add(flops, one);
    let traffic_per_flop = p.pool.div(traffic, fl_den);
    let tr_den = p.pool.add(traffic, one);
    let arith_intensity = p.pool.div(flops, tr_den);

    // ---- Shared memory --------------------------------------------------
    let shared_bytes_per_block = p.pool.mul(shared_tile, four);
    let shared_traffic_bytes = p.pool.mul(shared_traffic_elems, four);
    let mut shared_read_elems = p.pool.constf(0.0);
    for s in 0..p.stages.len() {
        if p.stages[s].kind != StageKind::Compute {
            continue;
        }
        for a in 0..p.stages[s].accesses.len() {
            let buf = p.stages[s].accesses[a].buffer;
            if p.buffers[buf.0 as usize].scope != MemScope::Shared {
                continue;
            }
            let tx = access_transactions(p, s, a);
            shared_read_elems = p.pool.add(shared_read_elems, tx);
        }
    }
    let th_den = p.pool.add(threads, one);
    let shared_per_thread = p.pool.div(shared_bytes_per_block, th_den);
    let sync_points = shared_rounds;

    // ---- Local / register tiles ----------------------------------------
    let serial_spatial_exts: Vec<ExprId> = p.stages[anchor]
        .loops
        .iter()
        .filter(|l| {
            serial_kinds.contains(&l.kind)
                && p.stages[anchor].axis(l.axis).kind == AxisKind::Spatial
        })
        .map(|l| l.extent)
        .collect();
    let thread_tile_spatial = p.pool.product(&serial_spatial_exts);
    let block_tile_spatial = {
        let t = p.pool.mul(thread_tile_spatial, threads);
        p.pool.mul(t, vthreads)
    };
    let mut local_traffic = p.pool.constf(0.0);
    for s in 0..p.stages.len() {
        if p.stages[s].kind != StageKind::Compute {
            continue;
        }
        for a in 0..p.stages[s].accesses.len() {
            let buf = p.stages[s].accesses[a].buffer;
            if p.buffers[buf.0 as usize].scope != MemScope::Local {
                continue;
            }
            let tx = access_transactions(p, s, a);
            local_traffic = p.pool.add(local_traffic, tx);
        }
    }
    let local_acc = thread_tile_spatial;
    // Register pressure: accumulator tile + one register per staged operand.
    let n_reads = p.pool.consti(
        p.stages[anchor]
            .accesses
            .iter()
            .filter(|a| a.kind == AccessKind::Read)
            .count() as i64,
    );
    let extra = p.pool.mul(n_reads, innermost);
    let reg_pressure = p.pool.add(local_acc, extra);

    // ---- Anchor access detail -------------------------------------------
    let serial_filter = |_: usize, l: &felix_tir::Loop| {
        matches!(l.kind, LoopKind::Serial | LoopKind::Unroll | LoopKind::Vectorize)
    };
    let read_idxs: Vec<usize> = p.stages[anchor]
        .accesses
        .iter()
        .enumerate()
        .filter(|(_, a)| a.kind == AccessKind::Read)
        .map(|(i, _)| i)
        .collect();
    let mut read_stats = Vec::new();
    for slot in 0..2usize {
        match read_idxs.get(slot) {
            Some(&a) => {
                let tile = p.footprint_elems(anchor, a, &serial_filter);
                // Reuse distance: iterations between consecutive touches of
                // the same element ≈ the serial iterations not indexed by
                // this access.
                let tx_axes: Vec<felix_tir::AxisId> = p.stages[anchor].accesses[a]
                    .dims
                    .iter()
                    .flatten()
                    .map(|&(ax, _)| ax)
                    .collect();
                let non_contrib: Vec<ExprId> = p.stages[anchor]
                    .loops
                    .iter()
                    .filter(|l| {
                        serial_kinds.contains(&l.kind) && !tx_axes.contains(&l.axis)
                    })
                    .map(|l| l.extent)
                    .collect();
                let reuse = p.pool.product(&non_contrib);
                // Coalescing: stride of the innermost thread loop in the
                // access's last dimension.
                let stride = {
                    let tpos = p.stages[anchor].loops_of_kind(LoopKind::ThreadIdx);
                    match tpos.last() {
                        Some(&tp) => {
                            let l = p.stages[anchor].loops[tp].clone();
                            let last_dim = p.stages[anchor].accesses[a]
                                .dims
                                .last()
                                .cloned()
                                .unwrap_or_default();
                            let contrib: i64 = last_dim
                                .iter()
                                .filter(|(ax, _)| *ax == l.axis)
                                .map(|(_, s)| s.abs())
                                .sum();
                            if contrib == 0 {
                                // Not indexed by the thread: broadcast (good).
                                p.pool.constf(0.0)
                            } else {
                                let c = p.pool.consti(contrib);
                                p.pool.mul(l.mult, c)
                            }
                        }
                        None => one,
                    }
                };
                read_stats.push((tile, reuse, stride));
            }
            None => {
                let zero = p.pool.constf(0.0);
                read_stats.push((zero, one, zero));
            }
        }
    }
    let write_idx = p.stages[anchor]
        .accesses
        .iter()
        .position(|a| a.kind == AccessKind::Write);
    let write_tile = match write_idx {
        Some(a) => p.footprint_elems(anchor, a, &serial_filter),
        None => one,
    };
    let block_filter =
        |_: usize, l: &felix_tir::Loop| l.kind != LoopKind::BlockIdx;
    let mut unique_per_block = p.pool.constf(0.0);
    for a in 0..p.stages[anchor].accesses.len() {
        let fp = p.footprint_elems(anchor, a, &block_filter);
        unique_per_block = p.pool.add(unique_per_block, fp);
    }

    // ---- Epilogues --------------------------------------------------------
    let mut epi_iters = p.pool.constf(0.0);
    let mut epi_reads = p.pool.constf(0.0);
    let mut epi_flops = p.pool.constf(0.0);
    let mut epi_param_bytes = p.pool.constf(0.0);
    for s in 0..p.stages.len() {
        if p.stages[s].kind != StageKind::Compute || p.stages[s].compute_at.is_none() {
            continue;
        }
        let enc = enclosing_iters(p, s);
        let exts: Vec<ExprId> = p.stages[s].loops.iter().map(|l| l.extent).collect();
        let own = p.pool.product(&exts);
        let execs = p.pool.mul(enc, own);
        epi_iters = p.pool.add(epi_iters, execs);
        let fl = p.pool.constf(p.stages[s].op_counts.flops());
        let f = p.pool.mul(execs, fl);
        epi_flops = p.pool.add(epi_flops, f);
        for a in 0..p.stages[s].accesses.len() {
            let acc_kind = p.stages[s].accesses[a].kind;
            let buf_id = p.stages[s].accesses[a].buffer.0 as usize;
            let (scope, ndims, bytes) = {
                let buf = &p.buffers[buf_id];
                (buf.scope, buf.dims.len(), buf.bytes())
            };
            if acc_kind == AccessKind::Read && scope == MemScope::Global {
                let tx = access_transactions(p, s, a);
                epi_reads = p.pool.add(epi_reads, tx);
                if ndims == 1 {
                    let b = p.pool.consti(bytes);
                    epi_param_bytes = p.pool.add(epi_param_bytes, b);
                }
            }
        }
    }
    let epi_count = num_epilogues;

    // ---- Discrete proxies (contain select; smoothed downstream) -----------
    let mut loop_overhead = p.pool.constf(0.0);
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
        let t = reduction_iters;
        p.pool.select(cond, t, one)
    };
    let c16 = p.pool.constf(16.0);
    let wu_d = p.pool.add(threads, c16);
    let warp_util = p.pool.div(threads, wu_d);
    let c4096 = p.pool.constf(4096.0);
    let oc_d = p.pool.add(total_threads, c4096);
    let occupancy = p.pool.div(total_threads, oc_d);
    let c80 = p.pool.constf(80.0);
    let te_d = p.pool.add(blocks, c80);
    let tail = p.pool.div(blocks, te_d);
    let two = p.pool.constf(2.0);
    let strides_sum = {
        let s = p.pool.add(read_stats[0].2, read_stats[1].2);
        p.pool.add(two, s)
    };
    let coalescing = p.pool.div(two, strides_sum);
    let launch_overhead = num_stages;
    let ub_d = p.pool.add(serial_iters, one);
    let unroll_benefit = p.pool.div(unrolled_iters, ub_d);

    // ---- Extent statistics --------------------------------------------------
    let mut max_extent = one;
    for l in p.stages[anchor].loops.clone() {
        max_extent = p.pool.max(max_extent, l.extent);
    }
    let total_iters = p.total_iters(anchor);
    let nl = p.stages[anchor].loops.len().max(1);
    let inv = p.pool.constf(1.0 / nl as f64);
    let geo_mean = p.pool.pow(total_iters, inv);
    let num_loops = p.pool.consti(nl as i64);
    let num_serial = p.pool.consti(
        p.stages[anchor]
            .loops
            .iter()
            .filter(|l| serial_kinds.contains(&l.kind))
            .count() as i64,
    );
    let num_bound = p.pool.consti(
        p.stages[anchor]
            .loops
            .iter()
            .filter(|l| l.kind.is_gpu_binding())
            .count() as i64,
    );

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
        sync_points,
        // G
        local_acc, local_traffic, reg_pressure, thread_tile_spatial,
        block_tile_spatial,
        // H
        read_stats[0].0, read_stats[0].1, read_stats[0].2,
        read_stats[1].0, read_stats[1].1, read_stats[1].2,
        write_tile, unique_per_block,
        // I
        epi_iters, epi_reads, epi_flops, epi_param_bytes, epi_count,
        // J
        loop_overhead, branch_selects, warp_util, occupancy, tail,
        coalescing, launch_overhead, unroll_benefit,
        // K
        max_extent, geo_mean, num_loops, num_serial, num_bound,
    ];
    assert_eq!(exprs.len(), FEATURE_COUNT, "feature count drifted");
    FeatureSet { exprs }
}

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
        let free = p.pool.free_vars(&fs.exprs);
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
