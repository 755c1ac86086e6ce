//! Symbolic scalar expressions over schedule variables.
//!
//! Felix derives *program features as closed-form expressions of schedule
//! variables* (paper §3.3). This crate provides the expression machinery that
//! the feature extractor, the constraint system, and the gradient-descent
//! tuner are built on:
//!
//! - [`ExprPool`]: a hash-consed expression DAG with smart constructors that
//!   fold constants and algebraic identities on the fly,
//! - evaluation of the whole pool in one pass ([`ExprPool::eval_all`]),
//! - smoothing of non-differentiable operators ([`smooth`], paper Fig. 4),
//! - variable substitution, used for the `x = e^y` stabilization ([`subst`]),
//! - reverse-mode automatic differentiation through compiled
//!   forward+reverse gradient tapes over the live sub-DAG ([`tape`]),
//! - integer factor utilities for rounding tile sizes ([`factor`]).
//!
//! There is no separate rewriting pass: the smart constructors are the only
//! simplifier, and the tape compiler only drops what the roots do not reach
//! (`rewrite` keeps an identity shim).
//!
//! Each operator rule is stated once:
//!
//! - its value and printed name on the operator (`apply` and `name` of
//!   [`UnOp`], [`BinOp`] and [`CmpOp`]), read by constant folding,
//!   [`ExprPool::eval_all`], the tape's forward kernel and [`display`];
//! - its folding in the constructor of its node kind ([`ExprPool::un`],
//!   [`ExprPool::bin`], [`ExprPool::cmp`], [`ExprPool::select`]);
//! - whether it is smooth in `ENode::is_smooth`, read by [`is_smooth`]
//!   and the tape's subgradient check; its smooth replacement in
//!   [`smooth`];
//! - how to rebuild a node a rewrite leaves alone in `ExprPool::build`,
//!   shared by [`subst`] and [`smooth`];
//! - its derivative only in the tape's backward kernel ([`tape`]).
//!
//! # Example
//!
//! ```
//! use felix_expr::{ExprPool, VarTable};
//!
//! let mut vars = VarTable::new();
//! let n = vars.fresh("TILE0");
//! let mut p = ExprPool::new();
//! let x = p.var(n);
//! let c = p.constf(4.0);
//! let f = p.mul(x, c); // 4 * TILE0
//! let vals = p.eval_all(&[8.0]);
//! assert_eq!(vals[f.index()], 32.0);
//! ```

pub mod display;
pub mod factor;
pub mod rewrite;
pub mod smooth;
pub mod subst;
pub mod tape;

pub use tape::{CompiledGradTape, GradError};
pub use display::DisplayExpr;
pub use factor::factors;
pub use smooth::{is_smooth, smooth_all, smooth_expr};
pub use subst::substitute;

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// The hasher of the crate's memo tables (the pool's hash-consing map and
/// the smooth/subst rewrite memos): FxHash's rotate-xor-multiply per
/// written word, deterministic and far cheaper than SipHash on keys of one
/// to four words. `finish` folds the high half of a wide product into the
/// low one, since the `f64` bit patterns of small-integer constants differ
/// only in their high bits and a table picks buckets by the low ones. No
/// memo is iterated, so the order this hasher gives a table never shows.
/// Keys are nodes the program builds; outside input reaches them only as
/// the constants of a workload's shape.
#[derive(Clone, Copy, Default)]
pub(crate) struct MemoHasher(u64);

impl MemoHasher {
    const MUL: u64 = 0x517c_c1b7_2722_0a95;
    const FOLD: u64 = 0x9e37_79b9_7f4a_7c15;
}

impl Hasher for MemoHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(Self::MUL);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        let wide = u128::from(self.0) * u128::from(Self::FOLD);
        wide as u64 ^ (wide >> 64) as u64
    }
}

/// A memo table hashed by [`MemoHasher`].
pub(crate) type Memo<K, V> = HashMap<K, V, BuildHasherDefault<MemoHasher>>;

/// Index of an expression node inside an [`ExprPool`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExprId(u32);

impl ExprId {
    /// The index of this node in its pool (usable with [`ExprPool::eval_all`]).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ExprId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A schedule variable identifier; names live in a [`VarTable`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl VarId {
    /// The index of this variable (usable to index value slices).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Registry of schedule variables and their names.
#[derive(Clone, Debug, Default)]
pub struct VarTable {
    names: Vec<String>,
}

impl VarTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a fresh variable with the given name.
    pub fn fresh(&mut self, name: impl Into<String>) -> VarId {
        let id = VarId(self.names.len() as u32);
        self.names.push(name.into());
        id
    }

    /// The name of a variable.
    pub fn name(&self, v: VarId) -> &str {
        &self.names[v.index()]
    }

    /// Number of variables registered.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no variables are registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(VarId, name)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (VarId(i as u32), n.as_str()))
    }
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum UnOp {
    /// `-x`
    Neg,
    /// Natural logarithm.
    Log,
    /// Natural exponential.
    Exp,
    /// Square root.
    Sqrt,
    /// Absolute value (non-smooth; see [`smooth`]).
    Abs,
}

impl UnOp {
    /// The operator's value: the one statement that constant folding,
    /// [`ExprPool::eval_all`] and the tape's forward kernel all read.
    #[inline(always)]
    pub(crate) fn apply(self, a: f64) -> f64 {
        match self {
            UnOp::Neg => -a,
            UnOp::Log => a.ln(),
            UnOp::Exp => a.exp(),
            UnOp::Sqrt => a.sqrt(),
            UnOp::Abs => a.abs(),
        }
    }

    /// The operator's name as [`DisplayExpr`] writes it.
    pub(crate) fn name(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Log => "log",
            UnOp::Exp => "exp",
            UnOp::Sqrt => "sqrt",
            UnOp::Abs => "abs",
        }
    }
}

/// Binary operators.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Power `a^b`.
    Pow,
    /// Minimum (non-smooth; see [`smooth`]).
    Min,
    /// Maximum (non-smooth; see [`smooth`]).
    Max,
}

impl BinOp {
    /// The operator's value (see [`UnOp::apply`]).
    #[inline(always)]
    pub(crate) fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Pow => a.powf(b),
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
        }
    }

    /// The operator's name as [`DisplayExpr`] writes it: an infix symbol
    /// with its spacing, or a function name for `min`/`max`.
    pub(crate) fn name(self) -> &'static str {
        match self {
            BinOp::Add => " + ",
            BinOp::Sub => " - ",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Pow => "^",
            BinOp::Min => "min",
            BinOp::Max => "max",
        }
    }
}

/// Comparison operators, evaluating to `1.0` (true) or `0.0` (false).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CmpOp {
    /// `a < b`
    Lt,
    /// `a <= b`
    Le,
    /// `a > b`
    Gt,
    /// `a >= b`
    Ge,
    /// `a == b`
    Eq,
}

impl CmpOp {
    /// Every comparison, in declaration order: `ALL[op as usize] == op`.
    pub(crate) const ALL: [CmpOp; 5] = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq];

    /// The comparison's value, `1.0` or `0.0` (see [`UnOp::apply`]).
    #[inline(always)]
    pub(crate) fn apply(self, a: f64, b: f64) -> f64 {
        let holds = match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
        };
        if holds {
            1.0
        } else {
            0.0
        }
    }

    /// The comparison's infix symbol, with its spacing, as [`DisplayExpr`]
    /// writes it.
    pub(crate) fn name(self) -> &'static str {
        match self {
            CmpOp::Lt => " < ",
            CmpOp::Le => " <= ",
            CmpOp::Gt => " > ",
            CmpOp::Ge => " >= ",
            CmpOp::Eq => " == ",
        }
    }
}

/// An expression node. Children are [`ExprId`]s into the same pool.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ENode {
    /// A floating-point constant (stored as bits for hashing).
    Const(u64),
    /// A schedule variable.
    Var(VarId),
    /// Unary application.
    Un(UnOp, ExprId),
    /// Binary application.
    Bin(BinOp, ExprId, ExprId),
    /// Comparison producing 0/1 (non-smooth; see [`smooth`]).
    Cmp(CmpOp, ExprId, ExprId),
    /// `select(cond, then, else)`: `then` if `cond != 0` (non-smooth).
    Select(ExprId, ExprId, ExprId),
}

impl ENode {
    /// Children of this node in evaluation order.
    pub fn children(&self) -> impl Iterator<Item = ExprId> {
        let (n, ids) = match *self {
            ENode::Const(_) | ENode::Var(_) => (0, [ExprId(0); 3]),
            ENode::Un(_, a) => (1, [a; 3]),
            ENode::Bin(_, a, b) | ENode::Cmp(_, a, b) => (2, [a, b, b]),
            ENode::Select(c, t, e) => (3, [c, t, e]),
        };
        ids.into_iter().take(n)
    }

    /// The same operator over `f` of each child, called in evaluation
    /// order.
    pub(crate) fn map(self, mut f: impl FnMut(ExprId) -> ExprId) -> ENode {
        // Call arguments evaluate left to right.
        match self {
            ENode::Const(_) | ENode::Var(_) => self,
            ENode::Un(op, a) => ENode::Un(op, f(a)),
            ENode::Bin(op, a, b) => ENode::Bin(op, f(a), f(b)),
            ENode::Cmp(op, a, b) => ENode::Cmp(op, f(a), f(b)),
            ENode::Select(c, t, e) => ENode::Select(f(c), f(t), f(e)),
        }
    }

    /// False for the operators without a derivative everywhere: `abs`,
    /// `min`, `max`, comparisons and `select`. The one statement of the
    /// non-smooth set: [`smooth`] rewrites exactly these, [`is_smooth`]
    /// checks for them, and the tape's backward sweep refuses them a
    /// nonzero adjoint unless subgradients are on.
    pub(crate) fn is_smooth(&self) -> bool {
        !matches!(
            self,
            ENode::Un(UnOp::Abs, _)
                | ENode::Bin(BinOp::Min | BinOp::Max, ..)
                | ENode::Cmp(..)
                | ENode::Select(..)
        )
    }
}

/// A hash-consed expression DAG.
///
/// Nodes are created through smart constructors ([`ExprPool::un`],
/// [`ExprPool::bin`], [`ExprPool::cmp`], [`ExprPool::select`] and the named
/// one-line forms [`ExprPool::add`], [`ExprPool::mul`], ...) which fold
/// constants (`2+3 → 5`, `exp 0 → 1`) and algebraic identities
/// (`x*1 → x`, `x+0 → x`, `x-x → 0`, ...). Node order is topological by construction:
/// children always precede parents, which makes single-pass evaluation and
/// reverse-mode AD straightforward.
#[derive(Clone, Debug, Default)]
pub struct ExprPool {
    nodes: Vec<ENode>,
    memo: Memo<ENode, ExprId>,
}

impl ExprPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes in the pool.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the pool has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node behind an id.
    pub fn node(&self, id: ExprId) -> ENode {
        self.nodes[id.index()]
    }

    /// All nodes in topological (construction) order.
    pub fn nodes(&self) -> &[ENode] {
        &self.nodes
    }

    fn intern(&mut self, node: ENode) -> ExprId {
        let nodes = &mut self.nodes;
        *self.memo.entry(node).or_insert_with(|| {
            let id = ExprId(nodes.len() as u32);
            nodes.push(node);
            id
        })
    }

    /// Constant value of a node, if it is a constant.
    pub fn as_const(&self, id: ExprId) -> Option<f64> {
        match self.node(id) {
            ENode::Const(b) => Some(f64::from_bits(b)),
            _ => None,
        }
    }

    /// A floating-point constant.
    pub fn constf(&mut self, v: f64) -> ExprId {
        // Normalize -0.0 to 0.0 so hashing is stable.
        let v = if v == 0.0 { 0.0 } else { v };
        self.intern(ENode::Const(v.to_bits()))
    }

    /// An integer constant.
    pub fn consti(&mut self, v: i64) -> ExprId {
        self.constf(v as f64)
    }

    /// A schedule variable reference.
    pub fn var(&mut self, v: VarId) -> ExprId {
        self.intern(ENode::Var(v))
    }

    /// `op(a)`, folded: a constant operand folds to its value.
    pub fn un(&mut self, op: UnOp, a: ExprId) -> ExprId {
        match self.as_const(a) {
            Some(x) => self.constf(op.apply(x)),
            None => self.intern(ENode::Un(op, a)),
        }
    }

    /// `op(a, b)`, folded: `x - x → 0`, `x / x → 1` and `min`/`max(x, x) → x`
    /// first, then two constants fold to their value, then the identities
    /// of one constant operand: `0 + x`, `x + 0`, `x - 0`, `1 * x`, `x * 1`,
    /// `x / 1`, `x ^ 1 → x`; `0 * x`, `x * 0`, `0 / x → 0`; `x ^ 0 → 1`.
    // Inlined into each named constructor, which then tests only its own
    // operator's rules, as a hand-written one would.
    #[inline(always)]
    pub fn bin(&mut self, op: BinOp, a: ExprId, b: ExprId) -> ExprId {
        use BinOp::*;
        if a == b {
            match op {
                Sub => return self.constf(0.0),
                Div => return self.constf(1.0),
                Min | Max => return a,
                Add | Mul | Pow => {}
            }
        }
        match (op, self.as_const(a), self.as_const(b)) {
            (_, Some(x), Some(y)) => self.constf(op.apply(x, y)),
            (Add, Some(0.0), _) | (Mul, Some(1.0), _) => b,
            (Add | Sub, _, Some(0.0)) | (Mul | Div | Pow, _, Some(1.0)) => a,
            (Mul, Some(0.0), _) | (Mul, _, Some(0.0)) | (Div, Some(0.0), _) => self.constf(0.0),
            (Pow, _, Some(0.0)) => self.constf(1.0),
            _ => self.intern(ENode::Bin(op, a, b)),
        }
    }

    /// `a + b` (see [`ExprPool::bin`]).
    pub fn add(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.bin(BinOp::Add, a, b)
    }

    /// `a - b` (see [`ExprPool::bin`]).
    pub fn sub(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.bin(BinOp::Sub, a, b)
    }

    /// `a * b` (see [`ExprPool::bin`]).
    pub fn mul(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.bin(BinOp::Mul, a, b)
    }

    /// `a / b` (see [`ExprPool::bin`]).
    pub fn div(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.bin(BinOp::Div, a, b)
    }

    /// `a ^ b` (see [`ExprPool::bin`]).
    pub fn pow(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.bin(BinOp::Pow, a, b)
    }

    /// `min(a, b)`, non-smooth (see [`ExprPool::bin`]).
    pub fn min(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.bin(BinOp::Min, a, b)
    }

    /// `max(a, b)`, non-smooth (see [`ExprPool::bin`]).
    pub fn max(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.bin(BinOp::Max, a, b)
    }

    /// `-a` (see [`ExprPool::un`]).
    pub fn neg(&mut self, a: ExprId) -> ExprId {
        self.un(UnOp::Neg, a)
    }

    /// `ln(a)` (see [`ExprPool::un`]).
    pub fn log(&mut self, a: ExprId) -> ExprId {
        self.un(UnOp::Log, a)
    }

    /// `exp(a)` (see [`ExprPool::un`]).
    pub fn exp(&mut self, a: ExprId) -> ExprId {
        self.un(UnOp::Exp, a)
    }

    /// `sqrt(a)` (see [`ExprPool::un`]).
    pub fn sqrt(&mut self, a: ExprId) -> ExprId {
        self.un(UnOp::Sqrt, a)
    }

    /// `|a|`, non-smooth (see [`ExprPool::un`]).
    pub fn abs(&mut self, a: ExprId) -> ExprId {
        self.un(UnOp::Abs, a)
    }

    /// Comparison producing 0/1 (non-smooth); two constants fold to their
    /// value.
    pub fn cmp(&mut self, op: CmpOp, a: ExprId, b: ExprId) -> ExprId {
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => self.constf(op.apply(x, y)),
            _ => self.intern(ENode::Cmp(op, a, b)),
        }
    }

    /// `select(cond, then, else)` (non-smooth); equal branches fold to the
    /// branch, and a constant condition picks its branch.
    pub fn select(&mut self, cond: ExprId, then: ExprId, els: ExprId) -> ExprId {
        if then == els {
            return then;
        }
        match self.as_const(cond) {
            Some(c) if c != 0.0 => then,
            Some(_) => els,
            None => self.intern(ENode::Select(cond, then, els)),
        }
    }

    /// `node` through its constructor, with that constructor's folding: the
    /// one dispatch by which substitution and smoothing rebuild every node
    /// they do not rewrite.
    pub(crate) fn build(&mut self, node: ENode) -> ExprId {
        match node {
            ENode::Const(_) | ENode::Var(_) => self.intern(node),
            ENode::Un(op, a) => self.un(op, a),
            ENode::Bin(op, a, b) => self.bin(op, a, b),
            ENode::Cmp(op, a, b) => self.cmp(op, a, b),
            ENode::Select(c, t, e) => self.select(c, t, e),
        }
    }

    /// `log(1 + a)`, used when log-transforming feature values.
    pub fn log1p(&mut self, a: ExprId) -> ExprId {
        let one = self.constf(1.0);
        let s = self.add(one, a);
        self.log(s)
    }

    /// Product of a list of expressions (`1.0` for an empty list).
    pub fn product(&mut self, items: &[ExprId]) -> ExprId {
        let mut acc = self.constf(1.0);
        for &x in items {
            acc = self.mul(acc, x);
        }
        acc
    }

    /// Sum of a list of expressions (`0.0` for an empty list).
    pub fn sum(&mut self, items: &[ExprId]) -> ExprId {
        let mut acc = self.constf(0.0);
        for &x in items {
            acc = self.add(acc, x);
        }
        acc
    }

    /// Evaluates the value of *every* node given variable values indexed by
    /// [`VarId`]. The result vector is indexed by [`ExprId::index`].
    ///
    /// # Panics
    ///
    /// Panics if a variable's index is out of bounds of `var_values`.
    pub fn eval_all(&self, var_values: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.nodes.len());
        self.eval_all_into(var_values, &mut out);
        out
    }

    /// [`ExprPool::eval_all`] into a caller-owned buffer (cleared first), so
    /// a loop over many points allocates nothing per point.
    ///
    /// # Panics
    ///
    /// Panics if a variable's index is out of bounds of `var_values`.
    pub fn eval_all_into(&self, var_values: &[f64], out: &mut Vec<f64>) {
        out.clear();
        for node in &self.nodes {
            let v = match *node {
                ENode::Const(b) => f64::from_bits(b),
                ENode::Var(v) => var_values[v.index()],
                ENode::Un(op, a) => op.apply(out[a.index()]),
                ENode::Bin(op, a, b) => op.apply(out[a.index()], out[b.index()]),
                ENode::Cmp(op, a, b) => op.apply(out[a.index()], out[b.index()]),
                ENode::Select(c, t, e) => {
                    if out[c.index()] != 0.0 {
                        out[t.index()]
                    } else {
                        out[e.index()]
                    }
                }
            };
            out.push(v);
        }
    }

    /// Evaluates a single root expression (convenience over
    /// [`ExprPool::eval_all`]).
    pub fn eval(&self, root: ExprId, var_values: &[f64]) -> f64 {
        self.eval_all(var_values)[root.index()]
    }

    /// Which nodes `roots` reach, indexed by [`ExprId::index`].
    pub(crate) fn reachable(&self, roots: &[ExprId]) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<ExprId> = roots.to_vec();
        while let Some(id) = stack.pop() {
            if !std::mem::replace(&mut seen[id.index()], true) {
                stack.extend(self.node(id).children());
            }
        }
        seen
    }

    /// Number of nodes reachable from `roots`.
    pub fn reachable_count(&self, roots: &[ExprId]) -> usize {
        self.reachable(roots).into_iter().filter(|&r| r).count()
    }
}

// The test-only references under `tests/reference/` name this crate by its
// external path, so the unit tests include them as well.
#[cfg(test)]
extern crate self as felix_expr;
#[cfg(test)]
#[path = "../tests/reference/free_vars.rs"]
mod free_vars;
#[cfg(test)]
#[path = "../tests/reference/pool_grad.rs"]
mod pool_grad;
#[cfg(test)]
#[path = "../tests/reference/tape_point.rs"]
mod tape_point;

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_with_var() -> (ExprPool, VarTable, VarId) {
        let mut vars = VarTable::new();
        let v = vars.fresh("x");
        (ExprPool::new(), vars, v)
    }

    #[test]
    fn constants_fold() {
        // Every constructor folds all-constant operands to a `Const`, so no
        // pool node has only constant operands. The tape compiler relies on
        // this: it runs no folding of its own.
        let mut p = ExprPool::new();
        let a = p.constf(2.0);
        let b = p.constf(3.0);
        type Bin = fn(&mut ExprPool, ExprId, ExprId) -> ExprId;
        let binary: [(Bin, f64); 7] = [
            (ExprPool::add, 5.0),
            (ExprPool::sub, -1.0),
            (ExprPool::mul, 6.0),
            (ExprPool::div, 2.0 / 3.0),
            (ExprPool::pow, 8.0),
            (ExprPool::min, 2.0),
            (ExprPool::max, 3.0),
        ];
        for (op, want) in binary {
            let e = op(&mut p, a, b);
            assert_eq!(p.as_const(e), Some(want));
        }
        let m = p.constf(-2.0);
        type Un = fn(&mut ExprPool, ExprId) -> ExprId;
        let unary: [(Un, ExprId, f64); 6] = [
            (ExprPool::neg, a, -2.0),
            (ExprPool::log, a, 2f64.ln()),
            (ExprPool::exp, a, 2f64.exp()),
            (ExprPool::sqrt, a, 2f64.sqrt()),
            (ExprPool::abs, m, 2.0),
            (ExprPool::abs, a, 2.0),
        ];
        for (op, x, want) in unary {
            let e = op(&mut p, x);
            assert_eq!(p.as_const(e), Some(want));
        }
        // (op, 2 op 3, 2 op 2)
        let cmps = [
            (CmpOp::Lt, 1.0, 0.0),
            (CmpOp::Le, 1.0, 1.0),
            (CmpOp::Gt, 0.0, 0.0),
            (CmpOp::Ge, 0.0, 1.0),
            (CmpOp::Eq, 0.0, 1.0),
        ];
        for (op, a_b, a_a) in cmps {
            let e = p.cmp(op, a, b);
            assert_eq!(p.as_const(e), Some(a_b), "{op:?}");
            let e = p.cmp(op, a, a);
            assert_eq!(p.as_const(e), Some(a_a), "{op:?}");
        }
        let (one, zero) = (p.constf(1.0), p.constf(0.0));
        let e = p.select(one, a, b);
        assert_eq!(p.as_const(e), Some(2.0));
        let e = p.select(zero, a, b);
        assert_eq!(p.as_const(e), Some(3.0));
        assert!(
            p.nodes().iter().all(|n| matches!(n, ENode::Const(_))),
            "a constant-only expression left a non-constant node"
        );
        // A constant condition picks its branch outright, constant or not.
        let mut vars = VarTable::new();
        let x = p.var(vars.fresh("x"));
        let y = p.var(vars.fresh("y"));
        assert_eq!(p.select(one, x, y), x);
        assert_eq!(p.select(zero, x, y), y);
    }

    #[test]
    fn identities_fold() {
        let (mut p, _vars, v) = pool_with_var();
        let x = p.var(v);
        let zero = p.constf(0.0);
        let one = p.constf(1.0);
        assert_eq!(p.add(x, zero), x);
        assert_eq!(p.mul(x, one), x);
        assert_eq!(p.mul(one, x), x);
        assert_eq!(p.div(x, one), x);
        assert_eq!(p.pow(x, one), x);
        let s = p.sub(x, x);
        assert_eq!(p.as_const(s), Some(0.0));
        let d = p.div(x, x);
        assert_eq!(p.as_const(d), Some(1.0));
        let m = p.mul(x, zero);
        assert_eq!(p.as_const(m), Some(0.0));
    }

    #[test]
    fn hash_consing_dedups() {
        let (mut p, _vars, v) = pool_with_var();
        let x = p.var(v);
        let a = p.add(x, x);
        let b = p.add(x, x);
        assert_eq!(a, b);
        let before = p.len();
        let _c = p.add(x, x);
        assert_eq!(p.len(), before);
    }

    #[test]
    fn memo_hasher_spreads_small_integer_constants_over_low_bits() {
        // 0.0..4096.0 differ only in the high bits of their f64 patterns.
        // A table holding 4096 keys has 8192 buckets, picked by the low 13
        // bits of the hash: a uniformly random hash fills ≈ 3223 of them,
        // the multiply without the fold fills one.
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<MemoHasher>::default();
        let buckets: std::collections::HashSet<u64> =
            (0..4096).map(|i| build.hash_one(ENode::Const((i as f64).to_bits())) & 0x1fff).collect();
        assert!(buckets.len() > 2800, "{} of 8192 buckets used", buckets.len());
    }

    #[test]
    fn eval_matches_hand_computation() {
        let mut vars = VarTable::new();
        let vx = vars.fresh("x");
        let vy = vars.fresh("y");
        let mut p = ExprPool::new();
        let x = p.var(vx);
        let y = p.var(vy);
        let t1 = p.mul(x, y);
        let c = p.constf(3.0);
        let t2 = p.add(t1, c);
        let f = p.sqrt(t2); // sqrt(x*y + 3)
        assert!((p.eval(f, &[2.0, 3.0]) - 3.0).abs() < 1e-12);
        assert!((p.eval(f, &[1.0, 6.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn eval_select_and_cmp() {
        let (mut p, _vars, v) = pool_with_var();
        let x = p.var(v);
        let one = p.constf(1.0);
        let five = p.constf(5.0);
        let two = p.constf(2.0);
        let c = p.cmp(CmpOp::Gt, x, one);
        let s = p.select(c, five, two); // select(x > 1, 5, 2)
        assert_eq!(p.eval(s, &[3.0]), 5.0);
        assert_eq!(p.eval(s, &[0.5]), 2.0);
        assert_eq!(p.eval(s, &[1.0]), 2.0);
    }

    #[test]
    fn eval_min_max() {
        let (mut p, _vars, v) = pool_with_var();
        let x = p.var(v);
        let c = p.constf(4.0);
        let mn = p.min(x, c);
        let mx = p.max(x, c);
        assert_eq!(p.eval(mn, &[7.0]), 4.0);
        assert_eq!(p.eval(mx, &[7.0]), 7.0);
        assert_eq!(p.eval(mn, &[1.0]), 1.0);
        assert_eq!(p.eval(mx, &[1.0]), 4.0);
    }

    #[test]
    fn free_vars_reachability() {
        let mut vars = VarTable::new();
        let vx = vars.fresh("x");
        let vy = vars.fresh("y");
        let vz = vars.fresh("z");
        let mut p = ExprPool::new();
        let x = p.var(vx);
        let y = p.var(vy);
        let _z = p.var(vz);
        let f = p.add(x, y);
        assert_eq!(crate::free_vars::free_vars(&p, &[f]), vec![vx, vy]);
    }

    #[test]
    fn product_and_sum_helpers() {
        let (mut p, _vars, v) = pool_with_var();
        let x = p.var(v);
        let c2 = p.constf(2.0);
        let c3 = p.constf(3.0);
        let pr = p.product(&[x, c2, c3]);
        let sm = p.sum(&[x, c2, c3]);
        assert_eq!(p.eval(pr, &[4.0]), 24.0);
        assert_eq!(p.eval(sm, &[4.0]), 9.0);
        let empty_p = p.product(&[]);
        assert_eq!(p.as_const(empty_p), Some(1.0));
        let empty_s = p.sum(&[]);
        assert_eq!(p.as_const(empty_s), Some(0.0));
    }

    #[test]
    fn select_same_branches_folds() {
        let (mut p, _vars, v) = pool_with_var();
        let x = p.var(v);
        let one = p.constf(1.0);
        let c = p.cmp(CmpOp::Gt, x, one);
        assert_eq!(p.select(c, x, x), x);
    }

    #[test]
    fn log1p_value() {
        let (mut p, _vars, v) = pool_with_var();
        let x = p.var(v);
        let f = p.log1p(x);
        assert!((p.eval(f, &[std::f64::consts::E - 1.0]) - 1.0).abs() < 1e-12);
    }
}
