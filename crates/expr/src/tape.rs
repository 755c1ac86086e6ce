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
//! [`CompiledGradTape`] extracts the sub-DAG reachable from a fixed set of
//! roots into a compact instruction tape:
//!
//! - **dead-code elimination**: only nodes reachable from the roots are
//!   compiled (the pool's rewrite debris is skipped entirely),
//! - **constant folding**: an instruction whose operands are all constants
//!   is evaluated at compile time (a no-op for pools built through the
//!   smart constructors, which already fold — kept as a guard for directly
//!   interned nodes),
//! - **hash-cons CSE**: structurally identical instructions are merged
//!   (again a no-op for hash-consed pools; folding can create new
//!   duplicates).
//!
//! The tape then supports a fused forward-value pass and a reverse adjoint
//! pass, both in a **batched structure-of-arrays mode**: values are laid
//! out `[slot][lane]` so one pass sweeps every live seed of a sketch
//! through the tape with unit-stride inner loops.
//!
//! # Determinism contract
//!
//! Tape slots preserve the pool's topological construction order, lanes are
//! fully independent, and a lane's adjoint contributions accumulate in
//! reverse slot order exactly like [`ExprPool::grad_multi_with_values`]
//! walks the pool. Zero adjoints are skipped per lane (as the pool sweep
//! skips zero-adjoint nodes), so no `0 · ∞ → NaN` artifacts appear in
//! batched mode either. Consequently every value and gradient is
//! **bit-identical** to the pool-walking reference and independent of the
//! batch width — batch 1 and batch 64 produce the same bits per lane.

use crate::autodiff::GradError;
use crate::{BinOp, CmpOp, ENode, ExprId, ExprPool, UnOp, VarId};

/// Lane count of one batched sweep, for a kernel instantiated at `W`. The
/// widths the descent loop hands the tape most often (a work item of 2, 4,
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

/// One tape instruction; operands are tape slot indices.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Instr {
    /// A constant value.
    Const(f64),
    /// Read of a schedule variable (index into the caller's value vector).
    Var(u32),
    /// Unary application.
    Un(UnOp, u32),
    /// Binary application.
    Bin(BinOp, u32, u32),
    /// Comparison producing 0/1.
    Cmp(CmpOp, u32, u32),
    /// `select(cond, then, else)`.
    Select(u32, u32, u32),
}

/// Hashable identity of an instruction (constants compare by bit pattern),
/// used for compile-time common-subexpression elimination.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum InstrKey {
    Const(u64),
    Var(u32),
    Un(UnOp, u32),
    Bin(BinOp, u32, u32),
    Cmp(CmpOp, u32, u32),
    Select(u32, u32, u32),
}

impl Instr {
    fn key(&self) -> InstrKey {
        match *self {
            Instr::Const(c) => InstrKey::Const(c.to_bits()),
            Instr::Var(v) => InstrKey::Var(v),
            Instr::Un(op, a) => InstrKey::Un(op, a),
            Instr::Bin(op, a, b) => InstrKey::Bin(op, a, b),
            Instr::Cmp(op, a, b) => InstrKey::Cmp(op, a, b),
            Instr::Select(c, t, e) => InstrKey::Select(c, t, e),
        }
    }

    /// Small dense opcode tag (operation identity without operands): what
    /// both kernels dispatch on, and what groups the forward stream into
    /// same-opcode runs.
    fn opcode_tag(&self) -> u8 {
        match *self {
            Instr::Const(_) => T_CONST,
            Instr::Var(_) => T_VAR,
            Instr::Un(op, _) => 2 + op as u8,
            Instr::Bin(op, _, _) => 8 + op as u8,
            Instr::Cmp(..) => T_CMP,
            Instr::Select(..) => T_SELECT,
        }
    }

    /// The instruction at `slot` as a packed `[out, a, b, c]` stream row:
    /// operand slots in `a`/`b` (`Select`: cond/then/else in `a`/`b`/`c`),
    /// the variable index in `a` for `Var`, the comparison op in `c` for
    /// `Cmp`.
    fn packed(&self, slot: u32) -> [u32; 4] {
        match *self {
            Instr::Const(_) => [slot, 0, 0, 0],
            Instr::Var(v) => [slot, v, 0, 0],
            Instr::Un(_, a) => [slot, a, 0, 0],
            Instr::Bin(_, a, b) => [slot, a, b, 0],
            Instr::Cmp(op, a, b) => [slot, a, b, op as u32],
            Instr::Select(c, t, e) => [slot, c, t, e],
        }
    }

    /// Reconstructs an [`ENode`] (with tape slots standing in for pool ids)
    /// for error reporting.
    fn as_enode(&self) -> ENode {
        let e = |s: u32| ExprId(s);
        match *self {
            Instr::Const(c) => ENode::Const(c.to_bits()),
            Instr::Var(v) => ENode::Var(VarId(v)),
            Instr::Un(op, a) => ENode::Un(op, e(a)),
            Instr::Bin(op, a, b) => ENode::Bin(op, e(a), e(b)),
            Instr::Cmp(op, a, b) => ENode::Cmp(op, e(a), e(b)),
            Instr::Select(c, t, el) => ENode::Select(e(c), e(t), e(el)),
        }
    }
}

/// A compact forward+reverse evaluation tape for a fixed set of roots.
///
/// See the [module docs](self) for what compilation does and the
/// determinism contract the passes uphold.
#[derive(Clone, Debug)]
pub struct CompiledGradTape {
    instrs: Vec<Instr>,
    roots: Vec<u32>,
    /// Number of pool nodes that were reachable before folding/CSE.
    source_nodes: usize,
    /// 1 + the highest variable index read by any `Var` instruction.
    min_var_values: usize,
    /// Forward schedule: compute instructions regrouped by (DAG level,
    /// opcode), as [`Instr::packed`] rows. Per-slot values are independent
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
    /// [`Instr::packed`] rows for `bwd_tags`.
    bwd_ops: Vec<[u32; 4]>,
}

// Dense opcode tags (see `Instr::opcode_tag`), named so the kernels can
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

fn cmp_op_from_u32(v: u32) -> CmpOp {
    match v {
        0 => CmpOp::Lt,
        1 => CmpOp::Le,
        2 => CmpOp::Gt,
        3 => CmpOp::Ge,
        _ => CmpOp::Eq,
    }
}

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
    /// Compiles the sub-DAG reachable from `roots` out of `pool`, applying
    /// dead-code elimination, constant folding, and hash-cons CSE.
    pub fn compile(pool: &ExprPool, roots: &[ExprId]) -> Self {
        // DCE: mark the nodes reachable from the roots.
        let mut needed = vec![false; pool.len()];
        let mut stack: Vec<ExprId> = roots.to_vec();
        while let Some(id) = stack.pop() {
            if needed[id.index()] {
                continue;
            }
            needed[id.index()] = true;
            stack.extend(pool.node(id).children());
        }
        // Emit in pool (topological) order so children precede parents and
        // the tape's reverse order matches the pool's reverse sweep.
        let mut remap = vec![u32::MAX; pool.len()];
        let mut instrs: Vec<Instr> = Vec::new();
        let mut memo: std::collections::HashMap<InstrKey, u32> =
            std::collections::HashMap::new();
        let mut source_nodes = 0usize;
        let mut min_var_values = 0usize;
        let mut intern = |instrs: &mut Vec<Instr>, instr: Instr| -> u32 {
            // Constant folding: all-constant operands evaluate now. The
            // arithmetic is the same f64 operation the forward pass would
            // run, so folded values are bit-identical.
            let cv = |s: u32| match instrs[s as usize] {
                Instr::Const(c) => Some(c),
                _ => None,
            };
            let folded = match instr {
                Instr::Un(op, a) => cv(a).map(|a| eval_un(op, a)),
                Instr::Bin(op, a, b) => {
                    cv(a).zip(cv(b)).map(|(a, b)| eval_bin(op, a, b))
                }
                Instr::Cmp(op, a, b) => {
                    cv(a).zip(cv(b)).map(|(a, b)| eval_cmp(op, a, b))
                }
                Instr::Select(c, t, e) => {
                    cv(c).map(|c| if c != 0.0 { t } else { e }).and_then(cv)
                }
                Instr::Const(_) | Instr::Var(_) => None,
            };
            let instr = folded.map_or(instr, Instr::Const);
            // Hash-cons CSE: reuse an existing slot for identical instrs.
            *memo.entry(instr.key()).or_insert_with(|| {
                instrs.push(instr);
                (instrs.len() - 1) as u32
            })
        };
        for (idx, node) in pool.nodes().iter().enumerate() {
            if !needed[idx] {
                continue;
            }
            source_nodes += 1;
            let r = |e: ExprId| remap[e.index()];
            let instr = match *node {
                ENode::Const(b) => Instr::Const(f64::from_bits(b)),
                ENode::Var(v) => {
                    min_var_values = min_var_values.max(v.index() + 1);
                    Instr::Var(v.0)
                }
                ENode::Un(op, a) => Instr::Un(op, r(a)),
                ENode::Bin(op, a, b) => Instr::Bin(op, r(a), r(b)),
                ENode::Cmp(op, a, b) => Instr::Cmp(op, r(a), r(b)),
                ENode::Select(c, t, e) => Instr::Select(r(c), r(t), r(e)),
            };
            remap[idx] = intern(&mut instrs, instr);
        }
        let roots: Vec<u32> = roots.iter().map(|r| remap[r.index()]).collect();
        // Validate the slot invariants the unchecked SIMD kernels rely on:
        // every operand references a strictly earlier slot, every Var index
        // fits `min_var_values`, and every root is a live slot. These hold
        // by construction (topological emission + CSE returning earlier
        // slots); the check makes the unsafe blocks below locally auditable.
        for (i, instr) in instrs.iter().enumerate() {
            let lt = |s: u32| (s as usize) < i;
            let ok = match *instr {
                Instr::Const(_) => true,
                Instr::Var(v) => (v as usize) < min_var_values,
                Instr::Un(_, a) => lt(a),
                Instr::Bin(_, a, b) | Instr::Cmp(_, a, b) => lt(a) && lt(b),
                Instr::Select(c, t, e) => lt(c) && lt(t) && lt(e),
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
            let l = |s: u32| level[s as usize];
            match *instr {
                Instr::Const(c) => fwd_consts.push((i as u32, c)),
                Instr::Var(v) => fwd_vars.push((i as u32, v)),
                Instr::Un(_, a) => {
                    level[i] = l(a) + 1;
                    compute.push(i as u32);
                }
                Instr::Bin(_, a, b) | Instr::Cmp(_, a, b) => {
                    level[i] = l(a).max(l(b)) + 1;
                    compute.push(i as u32);
                }
                Instr::Select(c, t, e) => {
                    level[i] = l(c).max(l(t)).max(l(e)) + 1;
                    compute.push(i as u32);
                }
            }
        }
        compute.sort_by_key(|&i| {
            (level[i as usize], instrs[i as usize].opcode_tag(), i)
        });
        let mut fwd_ops: Vec<[u32; 4]> = Vec::with_capacity(compute.len());
        let mut fwd_runs: Vec<(u8, u32)> = Vec::new();
        for &i in &compute {
            let instr = instrs[i as usize];
            fwd_ops.push(instr.packed(i));
            let tag = instr.opcode_tag();
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
            let before = |s: u32| pos[s as usize] < p;
            let ok = match instrs[i as usize] {
                Instr::Un(_, a) => before(a),
                Instr::Bin(_, a, b) | Instr::Cmp(_, a, b) => before(a) && before(b),
                Instr::Select(c, t, e) => before(c) && before(t) && before(e),
                Instr::Const(_) | Instr::Var(_) => false,
            };
            assert!(ok, "forward schedule not topological at slot {i}");
        }
        // ---- Backward stream ----
        // Reverse slot order, verbatim (see the field docs).
        let (bwd_tags, bwd_ops) = instrs
            .iter()
            .enumerate()
            .rev()
            .map(|(i, instr)| (instr.opcode_tag(), instr.packed(i as u32)))
            .unzip();
        CompiledGradTape {
            instrs,
            roots,
            source_nodes,
            min_var_values,
            fwd_ops,
            fwd_runs,
            fwd_consts,
            fwd_vars,
            bwd_tags,
            bwd_ops,
        }
    }

    /// Number of tape instructions after folding and CSE.
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

    /// Reachable pool nodes before folding/CSE (for observability).
    pub fn source_nodes(&self) -> usize {
        self.source_nodes
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
            macro_rules! un_run {
                ($f:expr) => {
                    for &[o, a, _, _] in ops {
                        map1(out(o), arg(a), $f);
                    }
                };
            }
            macro_rules! bin_run {
                ($f:expr) => {
                    for &[o, a, b, _] in ops {
                        map2(out(o), arg(a), arg(b), $f);
                    }
                };
            }
            match tag {
                T_NEG => un_run!(|x: f64| -x),
                T_LOG => un_run!(f64::ln),
                T_EXP => un_run!(f64::exp),
                T_SQRT => un_run!(f64::sqrt),
                T_ABS => un_run!(f64::abs),
                T_ADD => bin_run!(|x: f64, y: f64| x + y),
                T_SUB => bin_run!(|x: f64, y: f64| x - y),
                T_MUL => bin_run!(|x: f64, y: f64| x * y),
                T_DIV => bin_run!(|x: f64, y: f64| x / y),
                T_POW => bin_run!(f64::powf),
                T_MIN => bin_run!(f64::min),
                T_MAX => bin_run!(f64::max),
                T_CMP => {
                    for &[o, a, b, op] in ops {
                        let op = cmp_op_from_u32(op);
                        map2(out(o), arg(a), arg(b), |x, y| eval_cmp(op, x, y));
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

    /// Value of root `k` in lane `lane` of a [`Self::forward_batch`] result.
    pub fn root_value(&self, vals: &[f64], batch: usize, k: usize, lane: usize) -> f64 {
        vals[self.roots[k] as usize * batch + lane]
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

    /// Reverse adjoint pass over a [`Self::forward_batch`] result.
    ///
    /// `seeds` holds the adjoint seed of every root, root-major
    /// (`seeds[k * batch + lane]`); `grad` is resized to
    /// `n_vars * batch` (variable-major) and accumulates
    /// `∂(Σ_k seed_k · root_k)/∂var` per lane. `adj` is scratch, reused
    /// across calls without reallocation.
    ///
    /// Per lane, adjoints accumulate in reverse slot order with zero
    /// adjoints skipped — bit-identical to
    /// [`ExprPool::grad_multi_with_values`] and independent of `batch`.
    ///
    /// # Errors
    ///
    /// Returns [`GradError`] when a non-smooth instruction receives a
    /// nonzero adjoint and `subgradient` is false (matching the pool
    /// sweep's behaviour exactly).
    #[allow(clippy::too_many_arguments)]
    pub fn backward_batch(
        &self,
        seeds: &[f64],
        batch: usize,
        vals: &[f64],
        n_vars: usize,
        adj: &mut Vec<f64>,
        grad: &mut Vec<f64>,
        subgradient: bool,
    ) -> Result<(), GradError> {
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
            let nonsmooth = matches!(tag, T_ABS | T_MIN | T_MAX | T_CMP | T_SELECT);
            if nonsmooth && !subgradient {
                return Err(GradError { node: self.instrs[i as usize].as_enode() });
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

    /// Single-point convenience: evaluates all roots into a fresh vector.
    pub fn eval(&self, var_values: &[f64]) -> Vec<f64> {
        let mut vals = Vec::new();
        self.forward_batch(var_values, 1, &mut vals);
        self.roots.iter().map(|&r| vals[r as usize]).collect()
    }

    /// Single-point gradient convenience: seeds every root and returns the
    /// per-variable gradient (`n_vars` entries).
    ///
    /// # Errors
    ///
    /// Returns [`GradError`] as described on [`Self::backward_batch`].
    pub fn grad(
        &self,
        seeds: &[f64],
        var_values: &[f64],
        n_vars: usize,
        subgradient: bool,
    ) -> Result<Vec<f64>, GradError> {
        let mut vals = Vec::new();
        self.forward_batch(var_values, 1, &mut vals);
        let (mut adj, mut grad) = (Vec::new(), Vec::new());
        self.backward_batch(seeds, 1, &vals, n_vars, &mut adj, &mut grad, subgradient)?;
        Ok(grad)
    }
}

fn eval_un(op: UnOp, a: f64) -> f64 {
    match op {
        UnOp::Neg => -a,
        UnOp::Log => a.ln(),
        UnOp::Exp => a.exp(),
        UnOp::Sqrt => a.sqrt(),
        UnOp::Abs => a.abs(),
    }
}

fn eval_bin(op: BinOp, a: f64, b: f64) -> f64 {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::Pow => a.powf(b),
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
    }
}

fn eval_cmp(op: CmpOp, a: f64, b: f64) -> f64 {
    let r = match op {
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
        CmpOp::Eq => a == b,
    };
    if r {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autodiff::GradOptions;
    use crate::VarTable;

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
            let out = tape.eval(&at);
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
        let reference = p
            .grad_multi(&outputs, &at, n_vars, GradOptions::default())
            .unwrap();
        let grad = tape.grad(&seeds, &at, n_vars, false).unwrap();
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
                tape.backward_batch(&seeds, batch, &vals, 2, &mut adj, &mut grad, true)
                    .unwrap();
                for lane in 0..batch {
                    let outputs: Vec<(ExprId, f64)> =
                        roots.iter().enumerate().map(|(k, &r)| (r, seed(k, lane))).collect();
                    let full = p.eval_all(&point(lane));
                    for (k, &r) in roots.iter().enumerate() {
                        let v = tape.root_value(&vals, batch, k, lane);
                        assert_eq!(v.to_bits(), full[r.index()].to_bits());
                    }
                    let reference = p
                        .grad_multi_with_values(&outputs, full, 2, GradOptions { subgradient: true })
                        .unwrap();
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
    fn dce_and_cse_shrink_the_tape() {
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
        assert!(tape.len() <= 2, "tape kept {} instrs", tape.len());
        assert_eq!(tape.source_nodes(), tape.len());
        assert!(p.len() > 200);
        assert_eq!(tape.eval(&[3.0]), vec![9.0]);

        // A subterm shared by two roots is one instruction: x, exp, add,
        // mul.
        let e = p.exp(x);
        let (a, b) = (p.add(e, e), p.mul(e, e));
        let tape = CompiledGradTape::compile(&p, &[a, b]);
        assert_eq!(tape.len(), 4);
        assert_eq!(tape.eval(&[0.0]), vec![2.0, 1.0]);
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
        let g = tape.grad(&[0.0, 1.0], &[3.0], 1, false).unwrap();
        assert_eq!(g[0], 6.0);
        // …while seeding the max errors without subgradients,
        let err = tape.grad(&[1.0, 0.0], &[3.0], 1, false);
        assert!(format!("{}", err.unwrap_err()).contains("non-differentiable"));
        // and routes to the active branch with them.
        let g = tape.grad(&[1.0, 0.0], &[3.0], 1, true).unwrap();
        assert_eq!(g[0], 1.0);
        let g = tape.grad(&[1.0, 0.0], &[-3.0], 1, true).unwrap();
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
        let g = tape.grad(&[1.0, 2.0], &[5.0], 1, false).unwrap();
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
        assert_eq!(tape.eval(&[0.0, 0.0, 4.0]), vec![16.0]);
    }
}
