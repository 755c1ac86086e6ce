//! A compiled forward+reverse gradient tape over an [`ExprPool`] sub-DAG.
//!
//! The gradient-descent tuner evaluates `O(y)` and `∂O/∂y` for every seed on
//! every Adam step, so the per-step cost of one forward sweep plus one
//! reverse adjoint sweep is the throughput bottleneck of the whole search
//! (paper §3.4, Algorithm 1). Walking the full [`ExprPool`] pays for the
//! entire rewrite history — log1p, smoothing and exp-substitution all leave
//! dead intermediate sub-DAGs behind — while only
//! the final feature and penalty roots are live.
//!
//! [`CompiledGradTape`] compiles exactly the sub-DAG reachable from a fixed
//! set of roots (dead-code elimination), one instruction per pool node, in
//! pool order. It needs no folding or sharing pass of its own: the pool's
//! smart constructors already fold all-constant operands and hash-cons
//! identical nodes.
//!
//! The tape then supports a fused forward-value pass and a reverse adjoint
//! pass, both in a **batched structure-of-arrays mode**: values are laid
//! out `[slot][lane]` so one pass sweeps every live seed of a sketch
//! through the tape with unit-stride inner loops.
//!
//! An instruction is its pool node with tape slots for operands. The
//! forward kernel takes each operator's value from the operator's `apply`,
//! as folding and [`ExprPool::eval_all`] do, inside one monomorphic closure
//! per opcode; the backward kernel holds the crate's only derivative rules,
//! and refuses a nonzero adjoint to a node that `ENode::is_smooth` rejects
//! unless subgradients are on.
//!
//! # Determinism contract
//!
//! Tape slots preserve the pool's topological construction order, lanes are
//! fully independent, and a lane's adjoint contributions accumulate in
//! reverse slot order, exactly as a reverse sweep over the whole pool would
//! visit them. Zero adjoints are skipped per lane (as that sweep skips
//! zero-adjoint nodes), so no `0 · ∞ → NaN` artifacts appear in batched
//! mode either. Consequently every value and gradient is **bit-identical**
//! to the pool-walking reverse mode (kept as a test reference in
//! `crates/expr/tests/reference/pool_grad.rs`) and independent of the
//! batch width — batch 1 and batch 64 produce the same bits per lane.

use crate::{BinOp, CmpOp, ENode, ExprId, ExprPool, UnOp};
use std::fmt;

/// Error returned when a non-differentiable operator receives a nonzero
/// adjoint and subgradients are not enabled.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GradError {
    /// The offending node. From the tape, its operands are tape slots, not
    /// pool ids.
    pub node: ENode,
}

impl fmt::Display for GradError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "expression contains non-differentiable operator {:?}; run the smoothing pass first or enable subgradients",
            self.node
        )
    }
}

impl std::error::Error for GradError {}

/// Lane count of one batched sweep, for a kernel instantiated at `W`. The
/// widths the descent loop hands the tape most often (a segment of 2, 4,
/// 8 or 16 seeds of one sketch) are compile-time constants, so the kernels'
/// per-row lane loops unroll into packed vector code; `W = 0` reads the
/// count from `batch` at run time and serves every other width, 1 included,
/// through the *same* kernel bodies. Lanes run across *samples* of the SoA
/// batch, never within one sample's accumulation order, so the lane count
/// can never change a result bit.
#[inline(always)]
fn lane_count<const W: usize>(batch: usize) -> usize {
    if W == 0 {
        batch
    } else {
        debug_assert_eq!(batch, W);
        W
    }
}

/// Small dense opcode tag of a tape instruction (operation identity
/// without operands): what both kernels dispatch on, and what groups the
/// forward stream into same-opcode runs.
fn opcode_tag(instr: &ENode) -> u8 {
    match *instr {
        ENode::Const(_) => T_CONST,
        ENode::Var(_) => T_VAR,
        ENode::Un(op, _) => 2 + op as u8,
        ENode::Bin(op, _, _) => 8 + op as u8,
        ENode::Cmp(..) => T_CMP,
        ENode::Select(..) => T_SELECT,
    }
}

/// The instruction at `slot` as a packed `[out, a, b, c]` stream row:
/// operand slots in `a`/`b` (`Select`: cond/then/else in `a`/`b`/`c`), the
/// variable index in `a` for `Var`, the comparison op in `c` for `Cmp`.
fn packed(instr: &ENode, slot: u32) -> [u32; 4] {
    match *instr {
        ENode::Const(_) => [slot, 0, 0, 0],
        ENode::Var(v) => [slot, v.0, 0, 0],
        ENode::Un(_, a) => [slot, a.0, 0, 0],
        ENode::Bin(_, a, b) => [slot, a.0, b.0, 0],
        ENode::Cmp(op, a, b) => [slot, a.0, b.0, op as u32],
        ENode::Select(c, t, e) => [slot, c.0, t.0, e.0],
    }
}

/// A compact forward+reverse evaluation tape for a fixed set of roots.
///
/// See the [module docs](self) for what compilation does and the
/// determinism contract the passes uphold.
#[derive(Clone, Debug)]
pub struct CompiledGradTape {
    /// One instruction per live pool node, in pool order: the node with
    /// tape slots standing in for its children's pool ids.
    instrs: Vec<ENode>,
    roots: Vec<u32>,
    /// 1 + the highest variable index read by any `Var` instruction.
    min_var_values: usize,
    /// Forward schedule: compute instructions regrouped by (DAG level,
    /// opcode), as [`packed`] rows. Per-slot values are independent
    /// of execution order (each slot is written once from already-final
    /// operands), so any topological order is bit-identical — grouping by
    /// opcode hoists the interpreter dispatch out of the per-instruction
    /// loop. The *backward* pass keeps original slot order: its adjoint
    /// accumulation order is part of the bit-identity contract.
    fwd_ops: Vec<[u32; 4]>,
    /// Same-opcode runs over `fwd_ops`: (opcode tag, exclusive end index).
    fwd_runs: Vec<(u8, u32)>,
    /// Constant fills (slot, value), hoisted out of the scheduled stream.
    fwd_consts: Vec<(u32, f64)>,
    /// Var loads (slot, var index), hoisted out of the scheduled stream.
    fwd_vars: Vec<(u32, u32)>,
    /// Backward stream: every instruction's opcode tag in original reverse
    /// slot order (adjoint accumulation order is the bit-identity contract,
    /// so no regrouping here). Constants stay in the stream although their
    /// backward rule is a no-op: their adjoint rows *receive* operand
    /// accumulations (`x * c` writes into `c`'s row), and the end-of-turn
    /// re-zero is what returns those rows to zero for the next sweep.
    bwd_tags: Vec<u8>,
    /// [`packed`] rows for `bwd_tags`.
    bwd_ops: Vec<[u32; 4]>,
}

// Dense opcode tags (see `opcode_tag`), named so the kernels can
// match on them as patterns.
const T_CONST: u8 = 0;
const T_VAR: u8 = 1;
const T_NEG: u8 = 2 + UnOp::Neg as u8;
const T_LOG: u8 = 2 + UnOp::Log as u8;
const T_EXP: u8 = 2 + UnOp::Exp as u8;
const T_SQRT: u8 = 2 + UnOp::Sqrt as u8;
const T_ABS: u8 = 2 + UnOp::Abs as u8;
const T_ADD: u8 = 8 + BinOp::Add as u8;
const T_SUB: u8 = 8 + BinOp::Sub as u8;
const T_MUL: u8 = 8 + BinOp::Mul as u8;
const T_DIV: u8 = 8 + BinOp::Div as u8;
const T_POW: u8 = 8 + BinOp::Pow as u8;
const T_MIN: u8 = 8 + BinOp::Min as u8;
const T_MAX: u8 = 8 + BinOp::Max as u8;
const T_CMP: u8 = 16;
const T_SELECT: u8 = 17;

/// Row `slot` of a `[slot][lane]` buffer of `n`-lane rows.
///
/// # Safety
///
/// `base` must point at a live buffer of at least `(slot + 1) * n` values,
/// and no `&mut` to any part of the row may be live while the result is.
#[inline(always)]
unsafe fn row<'a>(base: *const f64, slot: u32, n: usize) -> &'a [f64] {
    unsafe { std::slice::from_raw_parts(base.add(slot as usize * n), n) }
}

/// Mutable [`row`].
///
/// # Safety
///
/// As [`row`], and no other reference to any part of the row may be live
/// while the result is.
#[inline(always)]
unsafe fn row_mut<'a>(base: *mut f64, slot: u32, n: usize) -> &'a mut [f64] {
    unsafe { std::slice::from_raw_parts_mut(base.add(slot as usize * n), n) }
}

/// `(any_zero, all_zero)` over an adjoint row, where "zero" means
/// `x == 0.0` (so `±0.0` counts and `NaN` does not) — the reference's
/// per-lane skip predicate. On AVX targets whole quads run as a packed
/// compare + movemask (`_CMP_EQ_OQ` has exactly the `== 0.0` semantics);
/// the scalar loop takes the remainder (or the whole row elsewhere) and
/// computes the identical flags.
#[inline(always)]
fn row_zero_flags(row: &[f64]) -> (bool, bool) {
    let (mut any, mut all) = (false, true);
    #[cfg(all(target_arch = "x86_64", target_feature = "avx"))]
    let row = {
        use core::arch::x86_64::{
            _mm256_cmp_pd, _mm256_loadu_pd, _mm256_movemask_pd, _mm256_setzero_pd,
            _CMP_EQ_OQ,
        };
        let (quads, rest) = row.as_chunks::<4>();
        for q in quads {
            // SAFETY: `q` is 4 f64s and AVX is compiled in (cfg above);
            // unaligned load.
            let m = unsafe {
                let v = _mm256_loadu_pd(q.as_ptr());
                _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_EQ_OQ>(v, _mm256_setzero_pd()))
            };
            any |= m != 0;
            all &= m == 0xF;
        }
        rest
    };
    for &x in row {
        any |= x == 0.0;
        all &= x == 0.0;
    }
    (any, all)
}

/// `out[l] = f(a[l])` over one row.
#[inline(always)]
fn map1(out: &mut [f64], a: &[f64], f: impl Fn(f64) -> f64) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o = f(x);
    }
}

/// `out[l] = f(a[l], b[l])` over one row.
#[inline(always)]
fn map2(out: &mut [f64], a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
}

/// The multiplying chain rule `dst[l] += adj[l] · d(l)` over one row: on
/// every lane when the adjoint row is `dense` (no zero lane — a branchless
/// loop that lowers to packed vector ops), otherwise only where the adjoint
/// is nonzero. Skipping a zero-adjoint lane is what keeps `0 · ∞ → NaN` out
/// of untouched lanes, and an `adj == 0` lane is the only case where skip
/// and accumulate can differ — so the dense path is bit-identical to the
/// reference's per-lane skip exactly when it is taken.
#[inline(always)]
fn chain(dst: &mut [f64], adj: &[f64], dense: bool, d: impl Fn(usize) -> f64) {
    if dense {
        for (l, (dst, &a)) in dst.iter_mut().zip(adj).enumerate() {
            *dst += a * d(l);
        }
    } else {
        for (l, (dst, &a)) in dst.iter_mut().zip(adj).enumerate() {
            if a != 0.0 {
                *dst += a * d(l);
            }
        }
    }
}

/// The non-multiplying rules `dst[l] += adj[l]` (`Var`, `Add`, `Sub`,
/// `Select`) / `dst[l] -= adj[l]` (`Sub`, `Neg`) over one row. They run
/// on every lane without a zero scan: accumulating a `±0.0` adjoint with
/// `+=`/`-=` is a bitwise no-op (accumulators start at `+0.0`, and IEEE
/// round-to-nearest sums from there can never produce `-0.0`), so this is
/// bit-identical to the reference's per-lane zero skip.
#[inline(always)]
fn add_rows(dst: &mut [f64], adj: &[f64]) {
    for (dst, &a) in dst.iter_mut().zip(adj) {
        *dst += a;
    }
}

/// See [`add_rows`].
#[inline(always)]
fn sub_rows(dst: &mut [f64], adj: &[f64]) {
    for (dst, &a) in dst.iter_mut().zip(adj) {
        *dst -= a;
    }
}

impl CompiledGradTape {
    /// Compiles the sub-DAG reachable from `roots` out of `pool`: one
    /// instruction per reachable node, in pool order.
    pub fn compile(pool: &ExprPool, roots: &[ExprId]) -> Self {
        // DCE: only the nodes the roots reach.
        let needed = pool.reachable(roots);
        // Emit in pool (topological) order so children precede parents and
        // the tape's reverse order matches the pool's reverse sweep.
        let mut remap = vec![u32::MAX; pool.len()];
        let mut instrs: Vec<ENode> = Vec::new();
        let mut min_var_values = 0usize;
        for (idx, node) in pool.nodes().iter().enumerate() {
            if !needed[idx] {
                continue;
            }
            if let ENode::Var(v) = node {
                min_var_values = min_var_values.max(v.index() + 1);
            }
            let instr = node.map(|e| ExprId(remap[e.index()]));
            remap[idx] = instrs.len() as u32;
            instrs.push(instr);
        }
        let roots: Vec<u32> = roots.iter().map(|r| remap[r.index()]).collect();
        // Validate the slot invariants the unchecked SIMD kernels rely on:
        // every operand references a strictly earlier slot, every Var index
        // fits `min_var_values`, and every root is a live slot. These hold
        // by construction (topological emission); the check makes the
        // unsafe blocks below locally auditable.
        for (i, instr) in instrs.iter().enumerate() {
            let ok = match *instr {
                ENode::Var(v) => v.index() < min_var_values,
                _ => instr.children().all(|s| s.index() < i),
            };
            assert!(ok, "tape slot invariant violated at instruction {i}");
        }
        assert!(
            roots.iter().all(|&r| (r as usize) < instrs.len()),
            "tape root out of range"
        );
        // ---- Forward schedule ----
        // Regroup compute instructions by (ASAP level, opcode): still
        // topological (operands live on strictly lower levels), so per-slot
        // forward values are bit-identical to in-order execution, but the
        // kernels dispatch once per same-opcode run instead of once per
        // instruction. Constants and Var loads hoist into dedicated
        // pre-loops. The sort is stable by slot, so the schedule is a
        // deterministic function of the instruction stream.
        let n = instrs.len();
        let mut level = vec![0u32; n];
        let mut fwd_consts = Vec::new();
        let mut fwd_vars = Vec::new();
        let mut compute: Vec<u32> = Vec::new();
        for (i, instr) in instrs.iter().enumerate() {
            match *instr {
                ENode::Const(c) => fwd_consts.push((i as u32, f64::from_bits(c))),
                ENode::Var(v) => fwd_vars.push((i as u32, v.0)),
                _ => {
                    level[i] = instr.children().map(|s| level[s.index()]).max().unwrap_or(0) + 1;
                    compute.push(i as u32);
                }
            }
        }
        compute.sort_by_key(|&i| (level[i as usize], opcode_tag(&instrs[i as usize]), i));
        let mut fwd_ops: Vec<[u32; 4]> = Vec::with_capacity(compute.len());
        let mut fwd_runs: Vec<(u8, u32)> = Vec::new();
        for &i in &compute {
            let instr = &instrs[i as usize];
            fwd_ops.push(packed(instr, i));
            let tag = opcode_tag(instr);
            match fwd_runs.last_mut() {
                Some((t, end)) if *t == tag => *end = fwd_ops.len() as u32,
                _ => fwd_runs.push((tag, fwd_ops.len() as u32)),
            }
        }
        // Validate the schedule is topological: every operand of a scheduled
        // instruction executes strictly before it (consts/vars run in the
        // pre-loops, position 0). The unchecked kernels rely on this.
        let mut pos = vec![0u32; n];
        for (k, &i) in compute.iter().enumerate() {
            pos[i as usize] = k as u32 + 1;
        }
        for &i in &compute {
            let p = pos[i as usize];
            let ok = instrs[i as usize].children().all(|s| pos[s.index()] < p);
            assert!(ok, "forward schedule not topological at slot {i}");
        }
        // ---- Backward stream ----
        // Reverse slot order, verbatim (see the field docs).
        let (bwd_tags, bwd_ops) = instrs
            .iter()
            .enumerate()
            .rev()
            .map(|(i, instr)| (opcode_tag(instr), packed(instr, i as u32)))
            .unzip();
        CompiledGradTape {
            instrs,
            roots,
            min_var_values,
            fwd_ops,
            fwd_runs,
            fwd_consts,
            fwd_vars,
            bwd_tags,
            bwd_ops,
        }
    }

    /// Number of tape instructions: the nodes reachable from the roots.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True when the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Number of roots the tape evaluates.
    pub fn n_roots(&self) -> usize {
        self.roots.len()
    }

    /// Minimum length the variable-value vector must have.
    pub fn min_var_values(&self) -> usize {
        self.min_var_values
    }

    /// Forward pass over a batch of `batch` lanes in structure-of-arrays
    /// layout. `vars` holds variable values variable-major
    /// (`vars[v * batch + lane]`); `vals` is resized to
    /// `len() * batch` and filled slot-major (`vals[slot * batch + lane]`).
    ///
    /// # Panics
    ///
    /// Panics if `vars` is shorter than `min_var_values() * batch` or
    /// `batch` is zero with a non-empty tape.
    pub fn forward_batch(&self, vars: &[f64], batch: usize, vals: &mut Vec<f64>) {
        assert!(
            vars.len() >= self.min_var_values * batch,
            "need {} var lanes, got {}",
            self.min_var_values * batch,
            vars.len()
        );
        // Every slot below is written (`=`, never `+=`) before it is read,
        // so a correctly-sized buffer needs no clearing — skipping the
        // memset keeps the hot loop's setup out of the per-sweep cost.
        let need = self.instrs.len() * batch;
        if vals.len() != need {
            vals.clear();
            vals.resize(need, 0.0);
        }
        match batch {
            2 => self.forward_lanes::<2>(batch, vars, vals),
            4 => self.forward_lanes::<4>(batch, vars, vals),
            8 => self.forward_lanes::<8>(batch, vars, vals),
            16 => self.forward_lanes::<16>(batch, vars, vals),
            _ => self.forward_lanes::<0>(batch, vars, vals),
        }
    }

    /// The forward kernel, over the (level, opcode)-grouped schedule: the
    /// opcode dispatch runs once per same-opcode run instead of once per
    /// instruction, and every row is a bounds-check-free `n`-lane slice, so
    /// with a compile-time lane count the cheap ops lower to packed vector
    /// code. `ln`/`exp`/`powf` have no packed hardware form and stay scalar
    /// libm calls per lane (vector math approximations would change bits);
    /// `min`/`max` keep Rust's NaN-propagating semantics, not raw
    /// `minpd`/`maxpd`. Per-slot values are bit-identical to
    /// [`ExprPool::eval_all`].
    fn forward_lanes<const W: usize>(&self, batch: usize, vars: &[f64], vals: &mut [f64]) {
        let n = lane_count::<W>(batch);
        debug_assert_eq!(vals.len(), self.instrs.len() * n);
        let base = vals.as_mut_ptr();
        // SAFETY (whole function): `compile` validates that every operand
        // slot is strictly smaller than its instruction's slot (so the
        // `out` row is disjoint from every operand row), that every Var
        // index fits `min_var_values`, and that the forward schedule is
        // topological; `forward_batch` asserts the buffer sizes. The
        // unchecked rows below therefore cannot alias mutably or overrun.
        let out = |slot: u32| unsafe { row_mut(base, slot, n) };
        let arg = |slot: u32| unsafe { row(base, slot, n) };
        for &(slot, c) in &self.fwd_consts {
            out(slot).fill(c);
        }
        for &(slot, v) in &self.fwd_vars {
            out(slot).copy_from_slice(unsafe { row(vars.as_ptr(), v, n) });
        }
        let mut start = 0usize;
        for &(tag, end) in &self.fwd_runs {
            let ops = &self.fwd_ops[start..end as usize];
            start = end as usize;
            // Each run applies one operator, a constant in its closure, so
            // its value rule inlines into a monomorphic lane loop.
            macro_rules! un_run {
                ($op:expr) => {
                    for &[o, a, _, _] in ops {
                        map1(out(o), arg(a), |x| $op.apply(x));
                    }
                };
            }
            macro_rules! bin_run {
                ($op:expr) => {
                    for &[o, a, b, _] in ops {
                        map2(out(o), arg(a), arg(b), |x, y| $op.apply(x, y));
                    }
                };
            }
            match tag {
                T_NEG => un_run!(UnOp::Neg),
                T_LOG => un_run!(UnOp::Log),
                T_EXP => un_run!(UnOp::Exp),
                T_SQRT => un_run!(UnOp::Sqrt),
                T_ABS => un_run!(UnOp::Abs),
                T_ADD => bin_run!(BinOp::Add),
                T_SUB => bin_run!(BinOp::Sub),
                T_MUL => bin_run!(BinOp::Mul),
                T_DIV => bin_run!(BinOp::Div),
                T_POW => bin_run!(BinOp::Pow),
                T_MIN => bin_run!(BinOp::Min),
                T_MAX => bin_run!(BinOp::Max),
                T_CMP => {
                    for &[o, a, b, op] in ops {
                        let op = CmpOp::ALL[op as usize];
                        map2(out(o), arg(a), arg(b), |x, y| op.apply(x, y));
                    }
                }
                T_SELECT => {
                    for &[o, c, t, e] in ops {
                        let (c, t, e) = (arg(c), arg(t), arg(e));
                        for (l, o) in out(o).iter_mut().enumerate() {
                            *o = if c[l] != 0.0 { t[l] } else { e[l] };
                        }
                    }
                }
                _ => unreachable!("const/var tags never enter the scheduled stream"),
            }
        }
    }

    /// One root's value row — all lanes of root `k`, contiguous — in a
    /// [`Self::forward_batch`] result. Lets batched consumers walk roots
    /// outer and lanes inner (sequential reads) instead of per-lane strided
    /// access.
    pub fn root_row<'a>(&self, vals: &'a [f64], batch: usize, k: usize) -> &'a [f64] {
        let r = self.roots[k] as usize;
        &vals[r * batch..(r + 1) * batch]
    }

    /// True when every root of `lane` in a [`Self::forward_batch`] result
    /// is finite. The descent supervisor calls this per seed per step to
    /// catch NaN/Inf at the tape level — before a poisoned feature vector
    /// reaches the cost model or the adjoint pass.
    pub fn lane_roots_finite(&self, vals: &[f64], batch: usize, lane: usize) -> bool {
        self.roots
            .iter()
            .all(|&r| vals[r as usize * batch + lane].is_finite())
    }

    /// Reverse adjoint pass over a [`Self::forward_batch`] result `vals`,
    /// whose length fixes the lane count `batch` (`vals.len() / self.len()`;
    /// an empty tape has no lanes).
    ///
    /// `seeds` holds the adjoint seed of every root, root-major
    /// (`seeds[k * batch + lane]`); `grad` is resized to
    /// `n_vars * batch` (variable-major) and accumulates
    /// `∂(Σ_k seed_k · root_k)/∂var` per lane. `adj` is scratch, reused
    /// across calls without reallocation.
    ///
    /// Per lane, adjoints accumulate in reverse slot order with zero
    /// adjoints skipped — bit-identical to the pool-walking reference (see
    /// the [module docs](self)) and independent of `batch`.
    ///
    /// # Errors
    ///
    /// Returns [`GradError`] when a non-smooth instruction receives a
    /// nonzero adjoint and `subgradient` is false (matching the pool
    /// sweep's behaviour exactly).
    pub fn backward_batch(
        &self,
        seeds: &[f64],
        vals: &[f64],
        n_vars: usize,
        adj: &mut Vec<f64>,
        grad: &mut Vec<f64>,
        subgradient: bool,
    ) -> Result<(), GradError> {
        let batch = vals.len().checked_div(self.instrs.len()).unwrap_or(0);
        assert_eq!(vals.len(), self.instrs.len() * batch, "stale forward values");
        assert!(
            seeds.len() >= self.roots.len() * batch,
            "need {} seed lanes, got {}",
            self.roots.len() * batch,
            seeds.len()
        );
        assert!(
            n_vars >= self.min_var_values,
            "need {} grad vars, got {n_vars}",
            self.min_var_values
        );
        // The sweep returns every adjoint row to zero as it consumes it
        // (rows it skips were zero already), so a correctly-sized buffer
        // from a previous call needs no memset — which would otherwise be
        // the single largest fixed cost of the pass. Only a fresh or
        // resized buffer is zeroed wholesale.
        let need = self.instrs.len() * batch;
        if adj.len() != need {
            adj.clear();
            adj.resize(need, 0.0);
        }
        debug_assert!(
            adj.iter().all(|&a| a == 0.0),
            "adjoint scratch must re-enter the sweep zeroed"
        );
        grad.clear();
        grad.resize(n_vars * batch, 0.0);
        let res = match batch {
            2 => self.backward_lanes::<2>(batch, seeds, vals, adj, grad, subgradient),
            4 => self.backward_lanes::<4>(batch, seeds, vals, adj, grad, subgradient),
            8 => self.backward_lanes::<8>(batch, seeds, vals, adj, grad, subgradient),
            16 => self.backward_lanes::<16>(batch, seeds, vals, adj, grad, subgradient),
            _ => self.backward_lanes::<0>(batch, seeds, vals, adj, grad, subgradient),
        };
        if res.is_err() {
            // An error aborts the sweep mid-way, stranding partially
            // accumulated rows; dropping the buffer forces the next call
            // to re-zero it wholesale.
            adj.clear();
        }
        res
    }

    /// The adjoint kernel, in reverse slot order. One scan classifies each
    /// instruction's adjoint row: all-zero rows are skipped whole (the
    /// common case for the penalty sub-DAG when no constraint is active),
    /// the non-multiplying rules run unconditionally ([`add_rows`]), and
    /// the multiplying ones go through [`chain`] — branchless when the row
    /// has no zero lane, per-lane skip otherwise. A binary rule is two row
    /// passes, first operand then second, so per lane the two accumulations
    /// land in the reference's order even when both operands are one slot
    /// (`x * x`).
    fn backward_lanes<const W: usize>(
        &self,
        batch: usize,
        seeds: &[f64],
        vals: &[f64],
        adj: &mut [f64],
        grad: &mut [f64],
        subgradient: bool,
    ) -> Result<(), GradError> {
        let n = lane_count::<W>(batch);
        for (k, &r) in self.roots.iter().enumerate() {
            add_rows(&mut adj[r as usize * n..][..n], &seeds[k * n..][..n]);
        }
        let (abase, vbase) = (adj.as_mut_ptr(), vals.as_ptr());
        // SAFETY (whole loop): the backward stream is derived in `compile`
        // from validated instructions — operand slots are strictly smaller
        // than their instruction's slot and roots are in range;
        // `backward_batch` asserts the buffer sizes. So the unchecked rows
        // below cannot overrun, the `&mut` operand rows `acc` hands out
        // (slots < i, one live at a time) never overlap `a_out` (slot i),
        // and `val` rows live in a different buffer.
        let acc = |slot: u32| unsafe { row_mut(abase, slot, n) };
        let val = |slot: u32| unsafe { row(vbase, slot, n) };
        for (&tag, &[i, a, b, c]) in self.bwd_tags.iter().zip(&self.bwd_ops) {
            // Row `i` is consumed exactly once, at this turn: scan it, skip
            // it whole when all-zero (bit-identical to the reference's
            // per-lane skip — see `add_rows`), and otherwise return it to
            // zero once its rule has run. Skipped rows were zero already,
            // so the whole buffer re-enters the next call zeroed (see
            // `backward_batch`) without a memset.
            let a_out = unsafe { row(abase, i, n) };
            let (any_zero, all_zero) = row_zero_flags(a_out);
            if all_zero {
                continue;
            }
            let dense = !any_zero;
            if !subgradient && !self.instrs[i as usize].is_smooth() {
                return Err(GradError { node: self.instrs[i as usize] });
            }
            match tag {
                // No backward rule; the turn exists so the re-zero below
                // clears the operand accumulations the slot absorbed.
                T_CONST => {}
                // `a` is the variable index (validated `< min_var_values`,
                // and `backward_batch` asserts `n_vars` covers it).
                T_VAR => add_rows(&mut grad[a as usize * n..][..n], a_out),
                T_NEG => sub_rows(acc(a), a_out),
                T_LOG => {
                    let va = val(a);
                    chain(acc(a), a_out, dense, |l| 1.0 / va[l]);
                }
                T_EXP => {
                    let vo = val(i);
                    chain(acc(a), a_out, dense, |l| vo[l]);
                }
                T_SQRT => {
                    let vo = val(i);
                    chain(acc(a), a_out, dense, |l| 0.5 / vo[l]);
                }
                T_ABS => {
                    let va = val(a);
                    chain(acc(a), a_out, dense, |l| if va[l] >= 0.0 { 1.0 } else { -1.0 });
                }
                T_ADD => {
                    add_rows(acc(a), a_out);
                    add_rows(acc(b), a_out);
                }
                T_SUB => {
                    add_rows(acc(a), a_out);
                    sub_rows(acc(b), a_out);
                }
                T_MUL => {
                    let (va, vb) = (val(a), val(b));
                    chain(acc(a), a_out, dense, |l| vb[l]);
                    chain(acc(b), a_out, dense, |l| va[l]);
                }
                T_DIV => {
                    let (va, vb) = (val(a), val(b));
                    chain(acc(a), a_out, dense, |l| 1.0 / vb[l]);
                    chain(acc(b), a_out, dense, |l| -va[l] / (vb[l] * vb[l]));
                }
                T_POW => {
                    // d/da a^b = b a^(b-1); d/db a^b = a^b ln a.
                    let (va, vb, vo) = (val(a), val(b), val(i));
                    chain(acc(a), a_out, dense, |l| {
                        if va[l] == 0.0 { 0.0 } else { vb[l] * vo[l] / va[l] }
                    });
                    chain(acc(b), a_out, dense, |l| {
                        if va[l] > 0.0 { vo[l] * va[l].ln() } else { 0.0 }
                    });
                }
                T_MIN | T_MAX => {
                    let (va, vb) = (val(a), val(b));
                    let a_active =
                        |l: usize| if tag == T_MIN { va[l] <= vb[l] } else { va[l] >= vb[l] };
                    chain(acc(a), a_out, dense, |l| if a_active(l) { 1.0 } else { 0.0 });
                    chain(acc(b), a_out, dense, |l| if a_active(l) { 0.0 } else { 1.0 });
                }
                // Piecewise-constant: zero gradient everywhere it exists.
                T_CMP => {}
                T_SELECT => {
                    // Each lane's adjoint goes to the branch its condition
                    // picked: a non-multiplying rule, one lane at a time.
                    for (l, (&x, &cond)) in a_out.iter().zip(val(a)).enumerate() {
                        let dst = if cond != 0.0 { b } else { c };
                        acc(dst)[l] += x;
                    }
                }
                _ => unreachable!("opcode tags are dense in 0..=T_SELECT"),
            }
            acc(i).fill(0.0);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool_grad::{self, GradOptions};
    use crate::{tape_point, VarTable};

    fn example_pool() -> (ExprPool, Vec<ExprId>, usize) {
        // f0 = log1p(x*y), f1 = sqrt(x) * exp(y/3), shared subterm x*y.
        let mut vars = VarTable::new();
        let vx = vars.fresh("x");
        let vy = vars.fresh("y");
        let mut p = ExprPool::new();
        let x = p.var(vx);
        let y = p.var(vy);
        let xy = p.mul(x, y);
        let f0 = p.log1p(xy);
        let sx = p.sqrt(x);
        let c3 = p.constf(3.0);
        let y3 = p.div(y, c3);
        let ey = p.exp(y3);
        let f1 = p.mul(sx, ey);
        let shared = p.add(f0, f1);
        (p, vec![f0, f1, shared], vars.len())
    }

    #[test]
    fn forward_matches_pool_bitwise() {
        let (p, roots, _) = example_pool();
        let tape = CompiledGradTape::compile(&p, &roots);
        for at in [[2.0, 3.0], [0.5, 7.0], [9.0, 0.25]] {
            let full = p.eval_all(&at);
            let out = tape_point::eval(&tape, &at);
            assert_eq!(out.len(), roots.len());
            for (k, &r) in roots.iter().enumerate() {
                assert_eq!(out[k].to_bits(), full[r.index()].to_bits());
            }
        }
    }

    #[test]
    fn lane_roots_finite_flags_only_poisoned_lanes() {
        let (p, roots, n_vars) = example_pool();
        let tape = CompiledGradTape::compile(&p, &roots);
        // lane 0 healthy; lane 1 overflows exp(y/3); lane 2 NaN via sqrt(x<0).
        let points = [[2.0, 3.0], [1.0, 3000.0], [-1.0, 1.0]];
        let batch = points.len();
        let mut vars_soa = vec![0.0; n_vars * batch];
        for (lane, pt) in points.iter().enumerate() {
            for (v, &x) in pt.iter().enumerate() {
                vars_soa[v * batch + lane] = x;
            }
        }
        let mut vals = Vec::new();
        tape.forward_batch(&vars_soa, batch, &mut vals);
        assert!(tape.lane_roots_finite(&vals, batch, 0));
        assert!(!tape.lane_roots_finite(&vals, batch, 1));
        assert!(!tape.lane_roots_finite(&vals, batch, 2));
    }

    #[test]
    fn backward_matches_pool_bitwise() {
        let (p, roots, n_vars) = example_pool();
        let tape = CompiledGradTape::compile(&p, &roots);
        let at = [2.0, 3.0];
        let seeds = [0.7, -1.3, 0.25];
        let outputs: Vec<(ExprId, f64)> =
            roots.iter().copied().zip(seeds.iter().copied()).collect();
        let reference =
            pool_grad::grad_multi(&p, &outputs, &at, n_vars, GradOptions::default()).unwrap();
        let grad = tape_point::grad(&tape, &seeds, &at, n_vars, false).unwrap();
        for (g, r) in grad.iter().zip(&reference.wrt_var) {
            assert_eq!(g.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn operands_sharing_a_slot_match_pool_at_every_width() {
        // `x−x`, `x/x`, `min(x,x)`, `max(x,x)`: the smart constructors fold
        // these away, so they are interned directly. Both accumulations of
        // a binary rule then land in one adjoint row, and must do so in the
        // pool sweep's order, at compile-time and run-time lane counts, on
        // dense and on partly-zero adjoint rows.
        let mut vars = VarTable::new();
        let mut p = ExprPool::new();
        let x = p.var(vars.fresh("x"));
        let y = p.var(vars.fresh("y"));
        let roots: Vec<ExprId> = [BinOp::Sub, BinOp::Div, BinOp::Min, BinOp::Max]
            .into_iter()
            .map(|op| {
                let same = p.intern(ENode::Bin(op, x, x));
                p.mul(same, y)
            })
            .collect();
        let tape = CompiledGradTape::compile(&p, &roots);
        let (mut vals, mut adj, mut grad) = (Vec::new(), Vec::new(), Vec::new());
        for batch in (1..=17).chain([33]) {
            for zero_every in [usize::MAX, 3] {
                let point = |lane: usize| [0.5 + lane as f64, 2.0 - 0.1 * lane as f64];
                let seed = |k: usize, lane: usize| {
                    if (lane + k).is_multiple_of(zero_every) { 0.0 } else { 0.3 * (k + 1) as f64 }
                };
                let mut vars_soa = vec![0.0; 2 * batch];
                let mut seeds = vec![0.0; roots.len() * batch];
                for lane in 0..batch {
                    for (v, x) in point(lane).into_iter().enumerate() {
                        vars_soa[v * batch + lane] = x;
                    }
                    for k in 0..roots.len() {
                        seeds[k * batch + lane] = seed(k, lane);
                    }
                }
                tape.forward_batch(&vars_soa, batch, &mut vals);
                tape.backward_batch(&seeds, &vals, 2, &mut adj, &mut grad, true)
                    .unwrap();
                for lane in 0..batch {
                    let outputs: Vec<(ExprId, f64)> =
                        roots.iter().enumerate().map(|(k, &r)| (r, seed(k, lane))).collect();
                    let full = p.eval_all(&point(lane));
                    for (k, &r) in roots.iter().enumerate() {
                        let v = tape_point::root_value(&tape, &vals, batch, k, lane);
                        assert_eq!(v.to_bits(), full[r.index()].to_bits());
                    }
                    let opts = GradOptions { subgradient: true };
                    let reference =
                        pool_grad::grad_multi_with_values(&p, &outputs, &full, 2, opts).unwrap();
                    for (v, r) in reference.wrt_var.iter().enumerate() {
                        assert_eq!(
                            grad[v * batch + lane].to_bits(),
                            r.to_bits(),
                            "batch {batch} lane {lane} var {v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dce_compiles_exactly_the_reachable_nodes() {
        let mut vars = VarTable::new();
        let vx = vars.fresh("x");
        let mut p = ExprPool::new();
        let x = p.var(vx);
        let mut dead = x;
        for i in 0..200 {
            let c = p.constf(2.0 + i as f64);
            dead = p.mul(dead, c);
        }
        let live = p.mul(x, x);
        let tape = CompiledGradTape::compile(&p, &[live]);
        assert!(p.len() > 200);
        assert_eq!(tape.len(), 2, "x and x·x");
        assert_eq!(tape.len(), p.reachable_count(&[live]));
        assert_eq!(tape_point::eval(&tape, &[3.0]), vec![9.0]);

        // A subterm shared by two roots is one instruction — x, exp, add,
        // mul — because the pool hash-conses it into one node: building it
        // again returns the same id, and the tape compiles node by node.
        let e = p.exp(x);
        assert_eq!(p.exp(x), e);
        let (a, b) = (p.add(e, e), p.mul(e, e));
        let tape = CompiledGradTape::compile(&p, &[a, b]);
        assert_eq!(tape.len(), 4);
        assert_eq!(tape.len(), p.reachable_count(&[a, b]));
        assert_eq!(tape_point::eval(&tape, &[0.0]), vec![2.0, 1.0]);
    }

    #[test]
    fn nonsmooth_errors_only_with_live_adjoint() {
        let mut vars = VarTable::new();
        let vx = vars.fresh("x");
        let mut p = ExprPool::new();
        let x = p.var(vx);
        let c = p.constf(0.0);
        let m = p.max(x, c);
        let sq = p.mul(x, x);
        let tape = CompiledGradTape::compile(&p, &[m, sq]);
        // Seeding only the smooth root succeeds (max's adjoint stays zero)…
        let g = tape_point::grad(&tape, &[0.0, 1.0], &[3.0], 1, false).unwrap();
        assert_eq!(g[0], 6.0);
        // …while seeding the max errors without subgradients,
        let err = tape_point::grad(&tape, &[1.0, 0.0], &[3.0], 1, false);
        assert!(format!("{}", err.unwrap_err()).contains("non-differentiable"));
        // and routes to the active branch with them.
        let g = tape_point::grad(&tape, &[1.0, 0.0], &[3.0], 1, true).unwrap();
        assert_eq!(g[0], 1.0);
        let g = tape_point::grad(&tape, &[1.0, 0.0], &[-3.0], 1, true).unwrap();
        assert_eq!(g[0], 0.0);
    }

    #[test]
    fn duplicate_roots_accumulate_seeds() {
        let mut vars = VarTable::new();
        let vx = vars.fresh("x");
        let mut p = ExprPool::new();
        let x = p.var(vx);
        let sq = p.mul(x, x);
        let tape = CompiledGradTape::compile(&p, &[sq, sq]);
        assert_eq!(tape.n_roots(), 2);
        let g = tape_point::grad(&tape, &[1.0, 2.0], &[5.0], 1, false).unwrap();
        assert_eq!(g[0], 30.0); // (1+2) * 2x
    }

    #[test]
    fn min_var_values_tracks_highest_var() {
        let mut vars = VarTable::new();
        let _v0 = vars.fresh("a");
        let _v1 = vars.fresh("b");
        let v2 = vars.fresh("c");
        let mut p = ExprPool::new();
        let x = p.var(v2);
        let f = p.mul(x, x);
        let tape = CompiledGradTape::compile(&p, &[f]);
        assert_eq!(tape.min_var_values(), 3);
        assert_eq!(tape_point::eval(&tape, &[0.0, 0.0, 4.0]), vec![16.0]);
    }
}
