//! A compiled forward+reverse gradient tape over an [`ExprPool`] sub-DAG.
//!
//! The gradient-descent tuner evaluates `O(y)` and `∂O/∂y` for every seed on
//! every Adam step, so the per-step cost of one forward sweep plus one
//! reverse adjoint sweep is the throughput bottleneck of the whole search
//! (paper §3.4, Algorithm 1). Walking the full [`ExprPool`] pays for the
//! entire rewrite history — log1p, smoothing, exp-substitution and e-graph
//! simplification all leave dead intermediate sub-DAGs behind — while only
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

/// Primary SIMD lane width of the batched kernels: the default seed-group
/// width of the descent loop, and one AVX-512 vector (or two AVX2 ops) of
/// f64. Batches of exactly this width (and the other widths in
/// [`WIDE_BATCH_WIDTHS`]) run monomorphized kernels whose rows are
/// `[f64; W]` arrays — no per-lane bounds checks or index arithmetic, so
/// the cheap ops lower to packed vector code. Lanes run across *samples*
/// of the SoA batch, never within one sample's accumulation order, so the
/// kernel width can never change a result bit: every other batch size
/// falls back to the scalar-loop reference path, which computes the same
/// per-lane expressions in the same order.
pub const SIMD_LANES: usize = 8;

/// Batch widths with a dedicated monomorphized SIMD kernel; all other
/// widths use the scalar-loop reference kernels (bit-identical per lane).
pub const WIDE_BATCH_WIDTHS: [usize; 4] = [2, 4, 8, 16];

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

    /// Small dense opcode tag (operation identity without operands), used
    /// for grouping the instruction stream into same-opcode dispatch runs.
    fn opcode_tag(&self) -> u8 {
        match *self {
            Instr::Const(_) => 0,
            Instr::Var(_) => 1,
            Instr::Un(op, _) => 2 + op as u8,
            Instr::Bin(op, _, _) => 8 + op as u8,
            Instr::Cmp(..) => 16,
            Instr::Select(..) => 17,
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
    /// opcode), packed as `[out, a, b, c]` slot rows (`c` doubles as the
    /// comparison op for `Cmp`). Per-slot values are independent of
    /// execution order (each slot is written once from already-final
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
    /// Backward stream: the reverse sweep in original reverse slot order
    /// (adjoint accumulation order is the bit-identity contract, so no
    /// regrouping here), with constants filtered out (their backward is a
    /// no-op) and alias / fast-track classification pre-resolved into the
    /// tag so the kernel dispatches on a dense `u8` instead of re-deriving
    /// it per instruction per sweep.
    bwd_tags: Vec<u8>,
    /// Packed operand rows for `bwd_tags`: `[out, a, b, c]` slot indices
    /// (`B_VAR` stores the variable index in `a`; `B_SELECT` stores
    /// cond/then/else in `a`/`b`/`c`).
    bwd_ops: Vec<[u32; 4]>,
}

// Dense opcode tags (see `Instr::opcode_tag`), named so the scheduled
// forward kernels can match on them as patterns.
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

// Backward stream tags. Tags below `B_NEG` are the scan-free tracks:
// Var/Add/Sub backward rules only ever `±=` the raw adjoint, and
// accumulating a `±0.0` adjoint with `+=`/`-=` is a bitwise no-op
// (accumulators start at `+0.0` and IEEE round-to-nearest sums from there
// can never produce `-0.0`), so they run unconditionally — bit-identical
// to the reference's zero-skip with no per-row scan. Every other rule
// multiplies the adjoint (`0.0 · Inf → NaN` differs from skipping), so
// tags at or above `B_SCANNED` keep the reference's per-row zero scan.
const B_VAR: u8 = 0;
const B_ADD: u8 = 1; // operands distinct
const B_SUB: u8 = 2; // operands distinct
const B_ADD_ALIAS: u8 = 3; // x + x
const B_SUB_ALIAS: u8 = 4; // x - x
const B_NEG: u8 = 5;
const B_LOG: u8 = 6;
const B_EXP: u8 = 7;
const B_SQRT: u8 = 8;
const B_ABS: u8 = 9;
const B_MUL: u8 = 10; // operands distinct
const B_DIV: u8 = 11; // operands distinct
const B_MIN: u8 = 12; // operands distinct
const B_MAX: u8 = 13; // operands distinct
const B_CMP: u8 = 14;
const B_SELECT: u8 = 15;
/// Per-lane catch-all: `Pow`, and aliased `Mul`/`Div`/`Min`/`Max`.
const B_GEN: u8 = 16;
/// Constant slot: its backward rule is a no-op, but the slot still
/// *receives* operand accumulations from the rules above, so it stays in
/// the stream purely so the shared end-of-turn re-zero restores the
/// zeroed-buffer invariant `backward_batch` relies on.
const B_CONST: u8 = 17;

fn cmp_op_from_u32(v: u32) -> CmpOp {
    match v {
        0 => CmpOp::Lt,
        1 => CmpOp::Le,
        2 => CmpOp::Gt,
        3 => CmpOp::Ge,
        _ => CmpOp::Eq,
    }
}

/// `(any_zero, all_zero)` over an adjoint row, where "zero" means
/// `x == 0.0` (so `±0.0` counts and `NaN` does not) — the reference's
/// per-lane skip predicate. On AVX targets with `W % 4 == 0` this runs
/// as packed compares + movemask (`_CMP_EQ_OQ` has exactly the `== 0.0`
/// semantics); the scalar loop is the portable fallback and computes the
/// identical flags.
#[inline(always)]
fn row_zero_flags<const W: usize>(row: &[f64; W]) -> (bool, bool) {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx"))]
    if W.is_multiple_of(4) {
        use core::arch::x86_64::{
            _mm256_cmp_pd, _mm256_loadu_pd, _mm256_movemask_pd, _mm256_setzero_pd,
            _CMP_EQ_OQ,
        };
        let mut any = false;
        let mut all = true;
        for ch in row.chunks_exact(4) {
            // SAFETY: the chunk is 4 f64s and AVX is compiled in (cfg
            // above); unaligned load.
            let m = unsafe {
                let v = _mm256_loadu_pd(ch.as_ptr());
                _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_EQ_OQ>(v, _mm256_setzero_pd()))
            };
            any |= m != 0;
            all &= m == 0xF;
        }
        return (any, all);
    }
    let mut any = false;
    let mut all = true;
    for &x in row {
        if x == 0.0 {
            any = true;
        } else {
            all = false;
        }
    }
    (any, all)
}

/// Per-lane reference fallback for binary backward rules: aliased
/// operands (`ai == bi`), mixed-zero adjoint rows, and `Pow` (whose
/// derivative needs `ln` and value-dependent branches). Zero lanes are
/// skipped and each accumulation resolves one `&mut` lane at a time, so
/// aliased operands stay ordered exactly like the scalar reference.
///
/// # Safety
///
/// `ai`, `bi` and `i` must be in-bounds row indices for `vrows`/`abase`,
/// with `ai < i` and `bi < i` (so the operand rows are disjoint from
/// `a_out`, the row at slot `i`). Callers pass slots validated by
/// `compile`.
#[inline(always)]
unsafe fn bin_lanes_w<const W: usize>(
    op: BinOp,
    i: usize,
    ai: usize,
    bi: usize,
    a_out: &[f64; W],
    vrows: &[[f64; W]],
    abase: *mut [f64; W],
) {
    let va = unsafe { vrows.get_unchecked(ai) };
    let vb = unsafe { vrows.get_unchecked(bi) };
    let vo = unsafe { vrows.get_unchecked(i) };
    let row = |s: usize, l: usize| -> &mut f64 { unsafe { &mut (*abase.add(s))[l] } };
    for l in 0..W {
        let a = a_out[l];
        if a == 0.0 {
            continue;
        }
        match op {
            BinOp::Add => {
                *row(ai, l) += a;
                *row(bi, l) += a;
            }
            BinOp::Sub => {
                *row(ai, l) += a;
                *row(bi, l) -= a;
            }
            BinOp::Mul => {
                *row(ai, l) += a * vb[l];
                *row(bi, l) += a * va[l];
            }
            BinOp::Div => {
                *row(ai, l) += a * (1.0 / vb[l]);
                *row(bi, l) += a * (-va[l] / (vb[l] * vb[l]));
            }
            BinOp::Pow => {
                // d/da a^b = b a^(b-1); d/db a^b = a^b ln a.
                let v = vo[l];
                let da = if va[l] == 0.0 { 0.0 } else { vb[l] * v / va[l] };
                let db = if va[l] > 0.0 { v * va[l].ln() } else { 0.0 };
                *row(ai, l) += a * da;
                *row(bi, l) += a * db;
            }
            BinOp::Min | BinOp::Max => {
                let a_active = match op {
                    BinOp::Min => va[l] <= vb[l],
                    _ => va[l] >= vb[l],
                };
                let (da, db) = if a_active { (1.0, 0.0) } else { (0.0, 1.0) };
                *row(ai, l) += a * da;
                *row(bi, l) += a * db;
            }
        }
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
            let row = match instr {
                Instr::Un(_, a) => [i, a, 0, 0],
                Instr::Bin(_, a, b) => [i, a, b, 0],
                Instr::Cmp(op, a, b) => [i, a, b, op as u32],
                Instr::Select(c, t, e) => [i, c, t, e],
                Instr::Const(_) | Instr::Var(_) => unreachable!(),
            };
            fwd_ops.push(row);
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
        // Reverse slot order, verbatim: unlike the forward schedule, the
        // reverse sweep must NOT be regrouped — adjoint accumulation order
        // is part of the bit-identity contract with the pool reference.
        // Constants keep a slot in the stream even though their backward
        // rule is a no-op: their adjoint rows receive operand
        // accumulations (e.g. `x * c` writes into `c`'s row), and the
        // end-of-turn re-zero is what returns those rows to zero for the
        // next sweep. The alias/fast-track classification is resolved
        // here, once, instead of per instruction per sweep.
        let mut bwd_tags: Vec<u8> = Vec::with_capacity(n);
        let mut bwd_ops: Vec<[u32; 4]> = Vec::with_capacity(n);
        for (i, instr) in instrs.iter().enumerate().rev() {
            let o = i as u32;
            let (tag, row) = match *instr {
                Instr::Const(_) => (B_CONST, [o, 0, 0, 0]),
                Instr::Var(v) => (B_VAR, [o, v, 0, 0]),
                Instr::Un(op, a) => (
                    match op {
                        UnOp::Neg => B_NEG,
                        UnOp::Log => B_LOG,
                        UnOp::Exp => B_EXP,
                        UnOp::Sqrt => B_SQRT,
                        UnOp::Abs => B_ABS,
                    },
                    [o, a, 0, 0],
                ),
                Instr::Bin(op, a, b) => {
                    let alias = a == b;
                    let tag = match op {
                        BinOp::Add if !alias => B_ADD,
                        BinOp::Sub if !alias => B_SUB,
                        BinOp::Add => B_ADD_ALIAS,
                        BinOp::Sub => B_SUB_ALIAS,
                        BinOp::Mul if !alias => B_MUL,
                        BinOp::Div if !alias => B_DIV,
                        BinOp::Min if !alias => B_MIN,
                        BinOp::Max if !alias => B_MAX,
                        _ => B_GEN,
                    };
                    (tag, [o, a, b, 0])
                }
                Instr::Cmp(..) => (B_CMP, [o, 0, 0, 0]),
                Instr::Select(c, t, e) => (B_SELECT, [o, c, t, e]),
            };
            bwd_tags.push(tag);
            bwd_ops.push(row);
        }
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
        // Batches of a supported SIMD width run a kernel monomorphized on
        // the lane count; everything else takes the scalar-loop reference
        // kernel. Both compute the same per-lane expressions in the same
        // order, so the choice never changes a bit (asserted exhaustively
        // by the remainder tests below).
        match batch {
            2 => self.forward_w::<2>(vars, vals),
            4 => self.forward_w::<4>(vars, vals),
            8 => self.forward_w::<8>(vars, vals),
            16 => self.forward_w::<16>(vars, vals),
            _ => self.forward_generic(vars, batch, vals),
        }
    }

    /// Scalar-loop reference forward kernel for arbitrary batch widths.
    /// This is the semantic definition of the forward pass; the `W`-wide
    /// kernels must match it bit-for-bit.
    fn forward_generic(&self, vars: &[f64], batch: usize, vals: &mut [f64]) {
        macro_rules! map1 {
            ($out:expr, $a:expr, $f:expr) => {
                for (o, &x) in $out.iter_mut().zip($a) {
                    *o = $f(x);
                }
            };
        }
        macro_rules! map2 {
            ($out:expr, $a:expr, $b:expr, $f:expr) => {
                for ((o, &x), &y) in $out.iter_mut().zip($a).zip($b) {
                    *o = $f(x, y);
                }
            };
        }
        for (i, instr) in self.instrs.iter().enumerate() {
            // Children always precede parents: slot i only reads slots < i.
            let (head, tail) = vals.split_at_mut(i * batch);
            let out = &mut tail[..batch];
            let arg = |s: u32| &head[s as usize * batch..s as usize * batch + batch];
            match *instr {
                Instr::Const(c) => out.fill(c),
                Instr::Var(v) => {
                    out.copy_from_slice(&vars[v as usize * batch..][..batch]);
                }
                Instr::Un(op, a) => {
                    let a = arg(a);
                    match op {
                        UnOp::Neg => map1!(out, a, |x: f64| -x),
                        UnOp::Log => map1!(out, a, f64::ln),
                        UnOp::Exp => map1!(out, a, f64::exp),
                        UnOp::Sqrt => map1!(out, a, f64::sqrt),
                        UnOp::Abs => map1!(out, a, f64::abs),
                    }
                }
                Instr::Bin(op, a, b) => {
                    let (a, b) = (arg(a), arg(b));
                    match op {
                        BinOp::Add => map2!(out, a, b, |x, y| x + y),
                        BinOp::Sub => map2!(out, a, b, |x, y| x - y),
                        BinOp::Mul => map2!(out, a, b, |x, y| x * y),
                        BinOp::Div => map2!(out, a, b, |x, y| x / y),
                        BinOp::Pow => map2!(out, a, b, f64::powf),
                        BinOp::Min => map2!(out, a, b, f64::min),
                        BinOp::Max => map2!(out, a, b, f64::max),
                    }
                }
                Instr::Cmp(op, a, b) => {
                    let (a, b) = (arg(a), arg(b));
                    for ((o, &a), &b) in out.iter_mut().zip(a).zip(b) {
                        *o = eval_cmp(op, a, b);
                    }
                }
                Instr::Select(c, t, e) => {
                    let (c, t, e) = (arg(c), arg(t), arg(e));
                    for (l, o) in out.iter_mut().enumerate() {
                        *o = if c[l] != 0.0 { t[l] } else { e[l] };
                    }
                }
            }
        }
    }

    /// Monomorphized SIMD forward kernel over the (level, opcode)-grouped
    /// schedule: every buffer is viewed as rows of `[f64; W]`, so slot
    /// access is a single array index and the fixed `0..W` loops lower to
    /// packed vector ops with no bounds checks; the opcode dispatch runs
    /// once per same-opcode run instead of once per instruction.
    /// `ln`/`exp`/`powf` have no packed hardware form and stay scalar libm
    /// calls per lane (vector math approximations would change bits);
    /// `min`/`max` keep Rust's NaN-propagating semantics, not raw
    /// `minpd`/`maxpd`.
    #[allow(clippy::needless_range_loop)]
    fn forward_w<const W: usize>(&self, vars: &[f64], vals: &mut [f64]) {
        let (rows, rest) = vals.as_chunks_mut::<W>();
        debug_assert!(rest.is_empty());
        debug_assert_eq!(rows.len(), self.instrs.len());
        let (var_rows, _) = vars.as_chunks::<W>();
        let base = rows.as_mut_ptr();
        // SAFETY (whole function): `compile` validates that every operand
        // slot is strictly smaller than its instruction's slot (so the
        // `out` row is disjoint from every operand row), that every Var
        // index fits `min_var_values`, and that the forward schedule is
        // topological; `forward_batch` asserts the buffer sizes. The
        // unchecked row accesses below therefore cannot alias or overrun.
        for &(slot, c) in &self.fwd_consts {
            let out: &mut [f64; W] = unsafe { &mut *base.add(slot as usize) };
            *out = [c; W];
        }
        for &(slot, v) in &self.fwd_vars {
            let out: &mut [f64; W] = unsafe { &mut *base.add(slot as usize) };
            *out = *unsafe { var_rows.get_unchecked(v as usize) };
        }
        let mut start = 0usize;
        for &(tag, end) in &self.fwd_runs {
            let ops = &self.fwd_ops[start..end as usize];
            start = end as usize;
            macro_rules! un_run {
                ($f:expr) => {
                    for &[o, a, _, _] in ops {
                        let out: &mut [f64; W] = unsafe { &mut *base.add(o as usize) };
                        let a: &[f64; W] = unsafe { &*base.add(a as usize) };
                        for l in 0..W {
                            out[l] = $f(a[l]);
                        }
                    }
                };
            }
            macro_rules! bin_run {
                ($f:expr) => {
                    for &[o, a, b, _] in ops {
                        let out: &mut [f64; W] = unsafe { &mut *base.add(o as usize) };
                        let a: &[f64; W] = unsafe { &*base.add(a as usize) };
                        let b: &[f64; W] = unsafe { &*base.add(b as usize) };
                        for l in 0..W {
                            out[l] = $f(a[l], b[l]);
                        }
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
                        let out: &mut [f64; W] = unsafe { &mut *base.add(o as usize) };
                        let a: &[f64; W] = unsafe { &*base.add(a as usize) };
                        let b: &[f64; W] = unsafe { &*base.add(b as usize) };
                        let op = cmp_op_from_u32(op);
                        for l in 0..W {
                            out[l] = eval_cmp(op, a[l], b[l]);
                        }
                    }
                }
                T_SELECT => {
                    for &[o, c, t, e] in ops {
                        let out: &mut [f64; W] = unsafe { &mut *base.add(o as usize) };
                        let c: &[f64; W] = unsafe { &*base.add(c as usize) };
                        let t: &[f64; W] = unsafe { &*base.add(t as usize) };
                        let e: &[f64; W] = unsafe { &*base.add(e as usize) };
                        for l in 0..W {
                            out[l] = if c[l] != 0.0 { t[l] } else { e[l] };
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

    /// Copies one lane's root values (in root order) into `out`.
    pub fn write_roots(&self, vals: &[f64], batch: usize, lane: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.roots.iter().map(|&r| vals[r as usize * batch + lane]));
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
        // Same dispatch rule as the forward pass: supported SIMD widths run
        // the monomorphized kernel, everything else the scalar-loop
        // reference. Per-lane arithmetic is identical either way.
        let res = match batch {
            2 => self.backward_w::<2>(seeds, vals, adj, grad, subgradient),
            4 => self.backward_w::<4>(seeds, vals, adj, grad, subgradient),
            8 => self.backward_w::<8>(seeds, vals, adj, grad, subgradient),
            16 => self.backward_w::<16>(seeds, vals, adj, grad, subgradient),
            _ => self.backward_generic(seeds, batch, vals, adj, grad, subgradient),
        };
        if res.is_err() {
            // An error aborts the sweep mid-way, stranding partially
            // accumulated rows; dropping the buffer forces the next call
            // to re-zero it wholesale.
            adj.clear();
        }
        res
    }

    /// Scalar-loop reference adjoint kernel for arbitrary batch widths.
    /// This is the semantic definition of the reverse sweep — zero
    /// adjoints are skipped per lane exactly like the pool reference — and
    /// the `W`-wide kernels must match it bit-for-bit.
    fn backward_generic(
        &self,
        seeds: &[f64],
        batch: usize,
        vals: &[f64],
        adj: &mut [f64],
        grad: &mut [f64],
        subgradient: bool,
    ) -> Result<(), GradError> {
        for (k, &r) in self.roots.iter().enumerate() {
            let seed = &seeds[k * batch..k * batch + batch];
            let a = &mut adj[r as usize * batch..r as usize * batch + batch];
            for (a, &s) in a.iter_mut().zip(seed) {
                *a += s;
            }
        }
        for (i, instr) in self.instrs.iter().enumerate().rev() {
            let (head, tail) = adj.split_at_mut(i * batch);
            let a_out = &tail[..batch];
            // Skip instructions whose adjoint is zero in every lane (the
            // common case for the penalty sub-DAG when no constraint is
            // active); per-lane zeros are skipped inside the loops below.
            // A skipped row is already zero, and every non-skipped row is
            // re-zeroed at the bottom of this loop body, so the whole
            // buffer re-enters the next call zeroed (see `backward_batch`).
            if a_out.iter().all(|&a| a == 0.0) {
                continue;
            }
            let val = |s: usize, l: usize| vals[s * batch + l];
            // Per-op lane loops with pre-sliced value rows. Accumulation is
            // expression-for-expression what the pool sweep computes (e.g.
            // `-=` for a `+= a·(−1)` term), so results stay bit-identical.
            match *instr {
                Instr::Const(_) => {}
                Instr::Var(v) => {
                    let g = &mut grad[v as usize * batch..v as usize * batch + batch];
                    for (g, &a) in g.iter_mut().zip(a_out) {
                        if a != 0.0 {
                            *g += a;
                        }
                    }
                }
                Instr::Un(op, ai) => {
                    if op == UnOp::Abs && !subgradient {
                        return Err(GradError { node: instr.as_enode() });
                    }
                    let s = ai as usize;
                    let vc = &vals[s * batch..s * batch + batch];
                    let vo = &vals[i * batch..i * batch + batch];
                    let aa = &mut head[s * batch..s * batch + batch];
                    macro_rules! acc1 {
                        ($v:expr, $d:expr) => {
                            for ((aa, &a), &v) in aa.iter_mut().zip(a_out).zip($v) {
                                if a != 0.0 {
                                    *aa += a * $d(v);
                                }
                            }
                        };
                    }
                    match op {
                        UnOp::Neg => {
                            for (aa, &a) in aa.iter_mut().zip(a_out) {
                                if a != 0.0 {
                                    *aa -= a;
                                }
                            }
                        }
                        UnOp::Log => acc1!(vc, |v: f64| 1.0 / v),
                        UnOp::Exp => acc1!(vo, |v: f64| v),
                        UnOp::Sqrt => acc1!(vo, |v: f64| 0.5 / v),
                        UnOp::Abs => {
                            acc1!(vc, |v: f64| if v >= 0.0 { 1.0 } else { -1.0 })
                        }
                    }
                }
                Instr::Bin(op, ai, bi) => {
                    if matches!(op, BinOp::Min | BinOp::Max) && !subgradient {
                        return Err(GradError { node: instr.as_enode() });
                    }
                    let (ai, bi) = (ai as usize, bi as usize);
                    let va = &vals[ai * batch..ai * batch + batch];
                    let vb = &vals[bi * batch..bi * batch + batch];
                    let vo = &vals[i * batch..i * batch + batch];
                    macro_rules! acc2 {
                        (|$l:ident, $a:ident| $body:block) => {
                            for ($l, &$a) in a_out.iter().enumerate() {
                                if $a == 0.0 {
                                    continue;
                                }
                                $body
                            }
                        };
                    }
                    match op {
                        BinOp::Add => acc2!(|l, a| {
                            head[ai * batch + l] += a;
                            head[bi * batch + l] += a;
                        }),
                        BinOp::Sub => acc2!(|l, a| {
                            head[ai * batch + l] += a;
                            head[bi * batch + l] -= a;
                        }),
                        BinOp::Mul => acc2!(|l, a| {
                            head[ai * batch + l] += a * vb[l];
                            head[bi * batch + l] += a * va[l];
                        }),
                        BinOp::Div => acc2!(|l, a| {
                            head[ai * batch + l] += a * (1.0 / vb[l]);
                            head[bi * batch + l] += a * (-va[l] / (vb[l] * vb[l]));
                        }),
                        BinOp::Pow => acc2!(|l, a| {
                            // d/da a^b = b a^(b-1); d/db a^b = a^b ln a.
                            let v = vo[l];
                            let da =
                                if va[l] == 0.0 { 0.0 } else { vb[l] * v / va[l] };
                            let db = if va[l] > 0.0 { v * va[l].ln() } else { 0.0 };
                            head[ai * batch + l] += a * da;
                            head[bi * batch + l] += a * db;
                        }),
                        BinOp::Min | BinOp::Max => acc2!(|l, a| {
                            let a_active = match op {
                                BinOp::Min => va[l] <= vb[l],
                                _ => va[l] >= vb[l],
                            };
                            let (da, db) =
                                if a_active { (1.0, 0.0) } else { (0.0, 1.0) };
                            head[ai * batch + l] += a * da;
                            head[bi * batch + l] += a * db;
                        }),
                    }
                }
                Instr::Cmp(..) => {
                    if !subgradient {
                        return Err(GradError { node: instr.as_enode() });
                    }
                    // Piecewise-constant: zero gradient everywhere it exists.
                }
                Instr::Select(c, t, e) => {
                    if !subgradient {
                        return Err(GradError { node: instr.as_enode() });
                    }
                    let (c, t, e) = (c as usize, t as usize, e as usize);
                    for (l, &a_out) in a_out.iter().enumerate() {
                        if a_out == 0.0 {
                            continue;
                        }
                        if val(c, l) != 0.0 {
                            head[t * batch + l] += a_out;
                        } else {
                            head[e * batch + l] += a_out;
                        }
                    }
                }
            }
            // Row `i` is fully consumed at this turn — return it to zero
            // for the next sweep.
            tail[..batch].fill(0.0);
        }
        Ok(())
    }

    /// Monomorphized SIMD adjoint kernel. One scan classifies each
    /// instruction's adjoint row: all-zero rows are skipped whole (the
    /// common case for the penalty sub-DAG when no constraint is active),
    /// rows with **no** zero lane take branchless fixed-width loops that
    /// lower to packed vector ops, and rows with a mix keep the per-lane
    /// skip loop. Skipping a zero-adjoint lane is what keeps `0 · ∞ → NaN`
    /// out of untouched lanes, and an `a == 0` lane is the only case where
    /// skip and accumulate can differ — so the branchless path is
    /// bit-identical to the reference exactly when it is taken.
    #[allow(clippy::needless_range_loop)]
    fn backward_w<const W: usize>(
        &self,
        seeds: &[f64],
        vals: &[f64],
        adj: &mut [f64],
        grad: &mut [f64],
        subgradient: bool,
    ) -> Result<(), GradError> {
        let (arows, arest) = adj.as_chunks_mut::<W>();
        debug_assert!(arest.is_empty());
        debug_assert_eq!(arows.len(), self.instrs.len());
        let (grows, _) = grad.as_chunks_mut::<W>();
        let (vrows, _) = vals.as_chunks::<W>();
        let (srows, _) = seeds.as_chunks::<W>();
        // SAFETY: `compile` validates every root slot; `backward_batch`
        // asserts `seeds.len() >= n_roots * batch`, so both unchecked rows
        // are in bounds.
        for (k, &r) in self.roots.iter().enumerate() {
            let s = unsafe { srows.get_unchecked(k) };
            let a = unsafe { arows.get_unchecked_mut(r as usize) };
            for l in 0..W {
                a[l] += s[l];
            }
        }
        // SAFETY (whole loop): the backward stream is derived in `compile`
        // from validated instructions — operand slots are strictly smaller
        // than their instruction's slot, Var indices fit `min_var_values`,
        // and roots are in range; `backward_batch` asserts
        // `n_vars >= min_var_values` and the buffer sizes. Rows accessed
        // through `abase` at operand slots (< i) are disjoint from the row
        // at slot i, so the unchecked row accesses below cannot overrun,
        // and aliased operands are pre-classified into their own tags (or
        // `B_GEN`, which touches one `&mut` lane at a time).
        let abase = arows.as_mut_ptr();
        for (t, op_row) in self.bwd_tags.iter().zip(&self.bwd_ops) {
            let &[o, a, b, c] = op_row;
            let (i, ai, bi) = (o as usize, a as usize, b as usize);
            // Row `i` is consumed exactly once, at this turn: scan it, skip
            // it whole when all-zero (bit-identical to the reference's
            // per-lane skip — an accumulator row can never hold `-0.0`, so
            // adding a `±0.0` adjoint could not have changed any bit), and
            // otherwise copy it out and return it to zero in place. Skipped
            // rows were zero already, so the whole buffer re-enters the
            // next call zeroed (see `backward_batch`) without a memset.
            // Shared ref, not a copy: row `i` is never an operand row of
            // instruction `i` (operands are validated `< i`), so the `&mut`
            // rows taken below never alias it.
            let a_out: &[f64; W] = unsafe { &*abase.add(i) };
            let (any_zero, all_zero) = row_zero_flags(a_out);
            if all_zero {
                continue;
            }
            // `fast` (no zero lanes) selects the branchless fixed-width
            // loops for the multiplying rules (see the tag docs).
            macro_rules! scan {
                () => {{
                    !any_zero
                }};
            }
            // Unary chain rule `adj_child += adj_out * d(value)`, dense
            // rows vectorized, mixed-zero rows skipped per lane.
            macro_rules! acc1 {
                ($src:expr, $fast:expr, $d:expr) => {{
                    let v = unsafe { vrows.get_unchecked($src) };
                    let aa = unsafe { &mut *abase.add(ai) };
                    if $fast {
                        for l in 0..W {
                            aa[l] += a_out[l] * $d(v[l]);
                        }
                    } else {
                        for l in 0..W {
                            if a_out[l] != 0.0 {
                                aa[l] += a_out[l] * $d(v[l]);
                            }
                        }
                    }
                }};
            }
            match *t {
                B_VAR => {
                    let g = unsafe { grows.get_unchecked_mut(ai) };
                    for l in 0..W {
                        g[l] += a_out[l];
                    }
                }
                B_ADD | B_SUB => {
                    // SAFETY: operands distinct by tag, both < i.
                    let ra = unsafe { &mut *abase.add(ai) };
                    let rb = unsafe { &mut *abase.add(bi) };
                    if *t == B_ADD {
                        for l in 0..W {
                            ra[l] += a_out[l];
                            rb[l] += a_out[l];
                        }
                    } else {
                        for l in 0..W {
                            ra[l] += a_out[l];
                            rb[l] -= a_out[l];
                        }
                    }
                }
                B_ADD_ALIAS | B_SUB_ALIAS => {
                    // `x + x` / `x - x`: both accumulations hit one row;
                    // two row passes are per-lane identical to the
                    // reference's in-lane pair.
                    let ra = unsafe { &mut *abase.add(ai) };
                    for l in 0..W {
                        ra[l] += a_out[l];
                    }
                    if *t == B_ADD_ALIAS {
                        for l in 0..W {
                            ra[l] += a_out[l];
                        }
                    } else {
                        for l in 0..W {
                            ra[l] -= a_out[l];
                        }
                    }
                }
                B_NEG => {
                    let fast = scan!();
                    let aa = unsafe { &mut *abase.add(ai) };
                    if fast {
                        for l in 0..W {
                            aa[l] -= a_out[l];
                        }
                    } else {
                        for l in 0..W {
                            if a_out[l] != 0.0 {
                                aa[l] -= a_out[l];
                            }
                        }
                    }
                }
                B_LOG => {
                    let fast = scan!();
                    acc1!(ai, fast, |v: f64| 1.0 / v);
                }
                B_EXP => {
                    let fast = scan!();
                    acc1!(i, fast, |v: f64| v);
                }
                B_SQRT => {
                    let fast = scan!();
                    acc1!(i, fast, |v: f64| 0.5 / v);
                }
                B_ABS => {
                    let fast = scan!();
                    if !subgradient {
                        return Err(GradError { node: self.instrs[i].as_enode() });
                    }
                    acc1!(ai, fast, |v: f64| if v >= 0.0 { 1.0 } else { -1.0 });
                }
                B_MUL => {
                    let fast = scan!();
                    let va = unsafe { vrows.get_unchecked(ai) };
                    let vb = unsafe { vrows.get_unchecked(bi) };
                    if fast {
                        // SAFETY: operands distinct by tag, both < i.
                        let ra = unsafe { &mut *abase.add(ai) };
                        let rb = unsafe { &mut *abase.add(bi) };
                        for l in 0..W {
                            ra[l] += a_out[l] * vb[l];
                            rb[l] += a_out[l] * va[l];
                        }
                    } else {
                        unsafe {
                            bin_lanes_w::<W>(BinOp::Mul, i, ai, bi, a_out, vrows, abase);
                        }
                    }
                }
                B_DIV => {
                    let fast = scan!();
                    let va = unsafe { vrows.get_unchecked(ai) };
                    let vb = unsafe { vrows.get_unchecked(bi) };
                    if fast {
                        // SAFETY: operands distinct by tag, both < i.
                        let ra = unsafe { &mut *abase.add(ai) };
                        let rb = unsafe { &mut *abase.add(bi) };
                        for l in 0..W {
                            ra[l] += a_out[l] * (1.0 / vb[l]);
                            rb[l] += a_out[l] * (-va[l] / (vb[l] * vb[l]));
                        }
                    } else {
                        unsafe {
                            bin_lanes_w::<W>(BinOp::Div, i, ai, bi, a_out, vrows, abase);
                        }
                    }
                }
                B_MIN | B_MAX => {
                    let fast = scan!();
                    if !subgradient {
                        return Err(GradError { node: self.instrs[i].as_enode() });
                    }
                    let is_min = *t == B_MIN;
                    if fast {
                        let va = unsafe { vrows.get_unchecked(ai) };
                        let vb = unsafe { vrows.get_unchecked(bi) };
                        // SAFETY: operands distinct by tag, both < i.
                        let ra = unsafe { &mut *abase.add(ai) };
                        let rb = unsafe { &mut *abase.add(bi) };
                        for l in 0..W {
                            let a_active = if is_min {
                                va[l] <= vb[l]
                            } else {
                                va[l] >= vb[l]
                            };
                            let (da, db) = if a_active { (1.0, 0.0) } else { (0.0, 1.0) };
                            ra[l] += a_out[l] * da;
                            rb[l] += a_out[l] * db;
                        }
                    } else {
                        let op = if is_min { BinOp::Min } else { BinOp::Max };
                        unsafe {
                            bin_lanes_w::<W>(op, i, ai, bi, a_out, vrows, abase);
                        }
                    }
                }
                B_CMP => {
                    let _fast = scan!();
                    if !subgradient {
                        return Err(GradError { node: self.instrs[i].as_enode() });
                    }
                    // Piecewise-constant: zero gradient everywhere it exists.
                }
                B_SELECT => {
                    let _fast = scan!();
                    if !subgradient {
                        return Err(GradError { node: self.instrs[i].as_enode() });
                    }
                    let (ci, ti, ei) = (ai, bi, c as usize);
                    // SAFETY: `ci`/`ti`/`ei` < i, in bounds; one &mut at a
                    // time.
                    for l in 0..W {
                        let av = a_out[l];
                        if av == 0.0 {
                            continue;
                        }
                        let dst = if unsafe { vrows.get_unchecked(ci) }[l] != 0.0 {
                            ti
                        } else {
                            ei
                        };
                        unsafe { (*abase.add(dst))[l] += av };
                    }
                }
                B_CONST => {
                    // No backward rule and nothing downstream reads this
                    // adjoint; the turn exists only so the epilogue below
                    // re-zeroes the operand accumulations it absorbed.
                }
                _ => {
                    // B_GEN: Pow, or aliased Mul/Div/Min/Max.
                    let _fast = scan!();
                    let Instr::Bin(op, ..) = self.instrs[i] else {
                        unreachable!("B_GEN only tags Bin instructions")
                    };
                    if matches!(op, BinOp::Min | BinOp::Max) && !subgradient {
                        return Err(GradError { node: self.instrs[i].as_enode() });
                    }
                    unsafe {
                        bin_lanes_w::<W>(op, i, ai, bi, a_out, vrows, abase);
                    }
                }
            }
            // Row `i` is fully consumed — return it to zero for the next
            // sweep while its lines are still L1-hot. SAFETY: `a_out`'s
            // last read precedes this store, and in bounds as above.
            unsafe { *abase.add(i) = [0.0; W] };
        }
        Ok(())
    }

    /// Single-point forward pass (batch of one): writes every slot value
    /// into `vals` and returns nothing; read roots with
    /// [`Self::write_roots`] or [`Self::root_value`].
    pub fn forward(&self, var_values: &[f64], vals: &mut Vec<f64>) {
        self.forward_batch(var_values, 1, vals);
    }

    /// Single-point convenience: evaluates all roots into a fresh vector.
    pub fn eval(&self, var_values: &[f64]) -> Vec<f64> {
        let mut vals = Vec::new();
        self.forward(var_values, &mut vals);
        let mut out = Vec::with_capacity(self.roots.len());
        self.write_roots(&vals, 1, 0, &mut out);
        out
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
        self.forward(var_values, &mut vals);
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
            let fast = tape.eval(&at);
            for (k, &r) in roots.iter().enumerate() {
                assert_eq!(fast[k].to_bits(), full[r.index()].to_bits());
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
    fn batched_lanes_match_single_bitwise() {
        let (p, roots, n_vars) = example_pool();
        let tape = CompiledGradTape::compile(&p, &roots);
        let points = [[2.0, 3.0], [0.5, 7.0], [9.0, 0.25], [1.0, 1.0]];
        let batch = points.len();
        // vars_soa[v * batch + lane]
        let mut vars_soa = vec![0.0; n_vars * batch];
        for (lane, pt) in points.iter().enumerate() {
            for (v, &x) in pt.iter().enumerate() {
                vars_soa[v * batch + lane] = x;
            }
        }
        let mut vals = Vec::new();
        tape.forward_batch(&vars_soa, batch, &mut vals);
        let seeds_one = [0.7, -1.3, 0.25];
        let mut seeds = vec![0.0; roots.len() * batch];
        for (k, &s) in seeds_one.iter().enumerate() {
            for lane in 0..batch {
                seeds[k * batch + lane] = s;
            }
        }
        let (mut adj, mut grad) = (Vec::new(), Vec::new());
        tape.backward_batch(&seeds, batch, &vals, n_vars, &mut adj, &mut grad, false)
            .unwrap();
        for (lane, pt) in points.iter().enumerate() {
            let single_vals = tape.eval(pt);
            let single_grad = tape.grad(&seeds_one, pt, n_vars, false).unwrap();
            for (k, sv) in single_vals.iter().enumerate() {
                assert_eq!(
                    tape.root_value(&vals, batch, k, lane).to_bits(),
                    sv.to_bits()
                );
            }
            for (v, sg) in single_grad.iter().enumerate() {
                assert_eq!(grad[v * batch + lane].to_bits(), sg.to_bits());
            }
        }
    }

    #[test]
    fn dce_drops_rewrite_debris() {
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
