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
//! - reverse-mode automatic differentiation ([`autodiff`]),
//! - smoothing of non-differentiable operators ([`smooth`], paper Fig. 4),
//! - variable substitution, used for the `x = e^y` stabilization ([`subst`]),
//! - compiled forward+reverse gradient tapes with dead-code elimination,
//!   constant folding and common-subexpression sharing ([`tape`]),
//! - integer factor utilities for rounding tile sizes ([`factor`]).
//!
//! There is no separate rewriting pass: the smart constructors and the tape
//! compiler are the only simplifiers (`rewrite` keeps an identity shim).
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

pub mod autodiff;
pub mod display;
pub mod factor;
pub mod rewrite;
pub mod smooth;
pub mod subst;
pub mod tape;

pub use autodiff::{GradError, Gradients};
pub use tape::CompiledGradTape;
pub use display::DisplayExpr;
pub use factor::factors;
pub use smooth::{is_smooth, smooth_all, smooth_expr};
pub use subst::substitute;

use std::collections::HashMap;
use std::fmt;

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
    pub fn children(&self) -> Vec<ExprId> {
        match *self {
            ENode::Const(_) | ENode::Var(_) => vec![],
            ENode::Un(_, a) => vec![a],
            ENode::Bin(_, a, b) | ENode::Cmp(_, a, b) => vec![a, b],
            ENode::Select(c, t, e) => vec![c, t, e],
        }
    }
}

/// A hash-consed expression DAG.
///
/// Nodes are created through smart constructors ([`ExprPool::add`],
/// [`ExprPool::mul`], ...) which fold constants (`2+3 → 5`) and algebraic
/// identities (`x*1 → x`, `x+0 → x`, `log(exp x) → x`, ...). Node order is
/// topological by construction: children always precede parents, which makes
/// single-pass evaluation and reverse-mode AD straightforward.
#[derive(Clone, Debug, Default)]
pub struct ExprPool {
    nodes: Vec<ENode>,
    memo: HashMap<ENode, ExprId>,
}

const fn bits(x: f64) -> u64 {
    x.to_bits()
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
        if let Some(&id) = self.memo.get(&node) {
            return id;
        }
        let id = ExprId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.memo.insert(node, id);
        id
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
        self.intern(ENode::Const(bits(v)))
    }

    /// An integer constant.
    pub fn consti(&mut self, v: i64) -> ExprId {
        self.constf(v as f64)
    }

    /// A schedule variable reference.
    pub fn var(&mut self, v: VarId) -> ExprId {
        self.intern(ENode::Var(v))
    }

    /// `a + b` with folding (`0 + x → x`, const-const folds).
    pub fn add(&mut self, a: ExprId, b: ExprId) -> ExprId {
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => self.constf(x + y),
            (Some(0.0), None) => b,
            (None, Some(0.0)) => a,
            _ => self.intern(ENode::Bin(BinOp::Add, a, b)),
        }
    }

    /// `a - b` with folding (`x - 0 → x`, `x - x → 0`).
    pub fn sub(&mut self, a: ExprId, b: ExprId) -> ExprId {
        if a == b {
            return self.constf(0.0);
        }
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => self.constf(x - y),
            (None, Some(0.0)) => a,
            _ => self.intern(ENode::Bin(BinOp::Sub, a, b)),
        }
    }

    /// `a * b` with folding (`1 * x → x`, `0 * x → 0`).
    pub fn mul(&mut self, a: ExprId, b: ExprId) -> ExprId {
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => self.constf(x * y),
            (Some(1.0), None) => b,
            (Some(0.0), None) => self.constf(0.0),
            (None, Some(1.0)) => a,
            (None, Some(0.0)) => self.constf(0.0),
            _ => self.intern(ENode::Bin(BinOp::Mul, a, b)),
        }
    }

    /// `a / b` with folding (`x / 1 → x`, `x / x → 1`).
    pub fn div(&mut self, a: ExprId, b: ExprId) -> ExprId {
        if a == b {
            return self.constf(1.0);
        }
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => self.constf(x / y),
            (None, Some(1.0)) => a,
            (Some(0.0), None) => self.constf(0.0),
            _ => self.intern(ENode::Bin(BinOp::Div, a, b)),
        }
    }

    /// `a ^ b` with folding (`x^1 → x`, `x^0 → 1`).
    pub fn pow(&mut self, a: ExprId, b: ExprId) -> ExprId {
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => self.constf(x.powf(y)),
            (None, Some(1.0)) => a,
            (None, Some(0.0)) => self.constf(1.0),
            _ => self.intern(ENode::Bin(BinOp::Pow, a, b)),
        }
    }

    /// `min(a, b)` (non-smooth) with const folding.
    pub fn min(&mut self, a: ExprId, b: ExprId) -> ExprId {
        if a == b {
            return a;
        }
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => self.constf(x.min(y)),
            _ => self.intern(ENode::Bin(BinOp::Min, a, b)),
        }
    }

    /// `max(a, b)` (non-smooth) with const folding.
    pub fn max(&mut self, a: ExprId, b: ExprId) -> ExprId {
        if a == b {
            return a;
        }
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => self.constf(x.max(y)),
            _ => self.intern(ENode::Bin(BinOp::Max, a, b)),
        }
    }

    /// `-a` with folding.
    pub fn neg(&mut self, a: ExprId) -> ExprId {
        match self.as_const(a) {
            Some(x) => self.constf(-x),
            None => self.intern(ENode::Un(UnOp::Neg, a)),
        }
    }

    /// `ln(a)` with folding; `log(exp x) → x`.
    pub fn log(&mut self, a: ExprId) -> ExprId {
        if let Some(x) = self.as_const(a) {
            return self.constf(x.ln());
        }
        if let ENode::Un(UnOp::Exp, inner) = self.node(a) {
            return inner;
        }
        self.intern(ENode::Un(UnOp::Log, a))
    }

    /// `exp(a)` with folding; `exp(log x) → x`.
    pub fn exp(&mut self, a: ExprId) -> ExprId {
        if let Some(x) = self.as_const(a) {
            return self.constf(x.exp());
        }
        if let ENode::Un(UnOp::Log, inner) = self.node(a) {
            return inner;
        }
        self.intern(ENode::Un(UnOp::Exp, a))
    }

    /// `sqrt(a)` with folding.
    pub fn sqrt(&mut self, a: ExprId) -> ExprId {
        match self.as_const(a) {
            Some(x) => self.constf(x.sqrt()),
            None => self.intern(ENode::Un(UnOp::Sqrt, a)),
        }
    }

    /// `|a|` (non-smooth) with folding.
    pub fn abs(&mut self, a: ExprId) -> ExprId {
        match self.as_const(a) {
            Some(x) => self.constf(x.abs()),
            None => self.intern(ENode::Un(UnOp::Abs, a)),
        }
    }

    /// Comparison producing 0/1 (non-smooth) with const folding.
    pub fn cmp(&mut self, op: CmpOp, a: ExprId, b: ExprId) -> ExprId {
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            let r = match op {
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
                CmpOp::Eq => x == y,
            };
            return self.constf(if r { 1.0 } else { 0.0 });
        }
        self.intern(ENode::Cmp(op, a, b))
    }

    /// `select(cond, then, else)` (non-smooth) with const folding.
    pub fn select(&mut self, cond: ExprId, then: ExprId, els: ExprId) -> ExprId {
        if then == els {
            return then;
        }
        match self.as_const(cond) {
            Some(c) => {
                if c != 0.0 {
                    then
                } else {
                    els
                }
            }
            None => self.intern(ENode::Select(cond, then, els)),
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
                ENode::Un(op, a) => {
                    let a = out[a.index()];
                    match op {
                        UnOp::Neg => -a,
                        UnOp::Log => a.ln(),
                        UnOp::Exp => a.exp(),
                        UnOp::Sqrt => a.sqrt(),
                        UnOp::Abs => a.abs(),
                    }
                }
                ENode::Bin(op, a, b) => {
                    let (a, b) = (out[a.index()], out[b.index()]);
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
                ENode::Cmp(op, a, b) => {
                    let (a, b) = (out[a.index()], out[b.index()]);
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

    /// The set of variables reachable from `roots`, sorted.
    pub fn free_vars(&self, roots: &[ExprId]) -> Vec<VarId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<ExprId> = roots.to_vec();
        let mut vars = Vec::new();
        while let Some(id) = stack.pop() {
            if seen[id.index()] {
                continue;
            }
            seen[id.index()] = true;
            match self.node(id) {
                ENode::Var(v) => vars.push(v),
                n => stack.extend(n.children()),
            }
        }
        vars.sort();
        vars.dedup();
        vars
    }

    /// Number of nodes reachable from `roots`.
    pub fn reachable_count(&self, roots: &[ExprId]) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<ExprId> = roots.to_vec();
        let mut count = 0;
        while let Some(id) = stack.pop() {
            if seen[id.index()] {
                continue;
            }
            seen[id.index()] = true;
            count += 1;
            stack.extend(self.node(id).children());
        }
        count
    }
}

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
        let mut p = ExprPool::new();
        let a = p.constf(2.0);
        let b = p.constf(3.0);
        let c = p.add(a, b);
        assert_eq!(p.as_const(c), Some(5.0));
        let d = p.mul(a, b);
        assert_eq!(p.as_const(d), Some(6.0));
        let e = p.pow(a, b);
        assert_eq!(p.as_const(e), Some(8.0));
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
    fn log_exp_cancel() {
        let (mut p, _vars, v) = pool_with_var();
        let x = p.var(v);
        let e = p.exp(x);
        let l = p.log(e);
        assert_eq!(l, x);
        let l2 = p.log(x);
        let e2 = p.exp(l2);
        assert_eq!(e2, x);
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
        assert_eq!(p.free_vars(&[f]), vec![vx, vy]);
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
