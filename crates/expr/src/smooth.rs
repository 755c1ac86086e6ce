//! Smoothing of non-differentiable operators (paper §3.3, Fig. 4).
//!
//! Felix convolves each non-differentiable operator with the kernel
//! `φ(t) = 1/√(1+t²)`, yielding an algebraic (hyperbolic) family of smooth
//! approximations with numerically stable gradients:
//!
//! - `max(a,b) → (a + b + √((a−b)² + 1)) / 2`
//! - `min(a,b) → (a + b − √((a−b)² + 1)) / 2`
//! - `|a| → √(a² + 1/4)` (i.e. smooth `max(a, −a)`)
//! - `step(z) → (1 + z/√(1+z²)) / 2` for `select` over an inequality
//! - `eq(z) → 1/(1+z²)` for `select` over an equality
//!
//! [`smooth_expr`] structurally rewrites an expression so the result contains
//! only differentiable primitives; [`is_smooth`] checks the invariant that
//! the gradient tape ([`crate::tape`]) relies on without subgradients.

use crate::{BinOp, CmpOp, ENode, ExprId, ExprPool, Memo, UnOp};

/// Smooth step `(1 + z/√(1+z²))/2`: 0 at −∞, ½ at 0, 1 at +∞.
pub fn smooth_step(z: f64) -> f64 {
    0.5 * (1.0 + z / (1.0 + z * z).sqrt())
}

/// Smooth `max(x, 0)`: `(x + √(x²+1))/2` (right panel of paper Fig. 4).
pub fn smooth_relu(x: f64) -> f64 {
    0.5 * (x + (x * x + 1.0).sqrt())
}

/// Smooth `select(z > 0, t, e)` (left panel of paper Fig. 4 uses `t=5, e=2`).
pub fn smooth_select(z: f64, t: f64, e: f64) -> f64 {
    e + (t - e) * smooth_step(z)
}

impl ExprPool {
    /// Smooth step as an expression: `(1 + z/√(1+z²))/2`.
    pub fn sstep(&mut self, z: ExprId) -> ExprId {
        let one = self.constf(1.0);
        let half = self.constf(0.5);
        let z2 = self.mul(z, z);
        let d = self.add(one, z2);
        let sd = self.sqrt(d);
        let frac = self.div(z, sd);
        let inner = self.add(one, frac);
        self.mul(half, inner)
    }

    /// Smooth equality indicator `1/(1+z²)`: 1 at z=0, → 0 away from 0.
    pub fn seq_indicator(&mut self, z: ExprId) -> ExprId {
        let one = self.constf(1.0);
        let z2 = self.mul(z, z);
        let d = self.add(one, z2);
        self.div(one, d)
    }

    /// Smooth `max(a, b)` or `min(a, b)` as an expression:
    /// `(a + b ± √((a−b)² + 1)) / 2`, `+` for [`BinOp::Max`].
    fn smooth_min_max(&mut self, op: BinOp, a: ExprId, b: ExprId) -> ExprId {
        let half = self.constf(0.5);
        let one = self.constf(1.0);
        let s = self.add(a, b);
        let d = self.sub(a, b);
        let d2 = self.mul(d, d);
        let rad = self.add(d2, one);
        let sq = self.sqrt(rad);
        let inner = self.bin(if op == BinOp::Max { BinOp::Add } else { BinOp::Sub }, s, sq);
        self.mul(half, inner)
    }

    /// Smooth 0/1 weight of `a op b`: the equality indicator of `a − b` for
    /// `Eq`, otherwise the smooth step of the signed margin that is positive
    /// where the comparison holds (`<` and `<=` alike, which is exact after
    /// the smoothing convolution).
    fn smooth_cmp(&mut self, op: CmpOp, a: ExprId, b: ExprId) -> ExprId {
        let z = match op {
            CmpOp::Lt | CmpOp::Le => self.sub(b, a),
            CmpOp::Gt | CmpOp::Ge | CmpOp::Eq => self.sub(a, b),
        };
        if op == CmpOp::Eq {
            self.seq_indicator(z)
        } else {
            self.sstep(z)
        }
    }
}

/// Structurally rewrites `root` into a smooth (infinitely differentiable)
/// expression, memoizing shared subterms through `memo`.
///
/// Conditions of `select` that are comparisons become smooth step/equality
/// indicators of the comparison margin; other conditions are interpreted as
/// booleans and smoothed around `1/2`.
pub fn smooth_expr(pool: &mut ExprPool, root: ExprId) -> ExprId {
    let mut memo: Memo<ExprId, ExprId> = Memo::default();
    smooth_rec(pool, root, &mut memo)
}

/// Smooths many roots sharing one memo table (preserves DAG sharing).
pub fn smooth_all(pool: &mut ExprPool, roots: &[ExprId]) -> Vec<ExprId> {
    let mut memo: Memo<ExprId, ExprId> = Memo::default();
    roots
        .iter()
        .map(|&r| smooth_rec(pool, r, &mut memo))
        .collect()
}

fn smooth_rec(
    pool: &mut ExprPool,
    id: ExprId,
    memo: &mut Memo<ExprId, ExprId>,
) -> ExprId {
    if let Some(&done) = memo.get(&id) {
        return done;
    }
    let out = match pool.node(id) {
        ENode::Const(_) | ENode::Var(_) => id,
        ENode::Un(UnOp::Abs, a) => {
            // smooth max(a, -a) = sqrt(a^2 + 1/4).
            let a = smooth_rec(pool, a, memo);
            let q = pool.constf(0.25);
            let a2 = pool.mul(a, a);
            let rad = pool.add(a2, q);
            pool.sqrt(rad)
        }
        ENode::Bin(op @ (BinOp::Min | BinOp::Max), a, b) => {
            let a = smooth_rec(pool, a, memo);
            let b = smooth_rec(pool, b, memo);
            pool.smooth_min_max(op, a, b)
        }
        ENode::Cmp(op, a, b) => {
            let a = smooth_rec(pool, a, memo);
            let b = smooth_rec(pool, b, memo);
            pool.smooth_cmp(op, a, b)
        }
        ENode::Select(c, t, e) => {
            let t = smooth_rec(pool, t, memo);
            let e = smooth_rec(pool, e, memo);
            // A comparison condition smooths to its blend weight, so the
            // margin, not a 0/1 step of it, drives the blend; any other
            // condition is a boolean value, smoothed around 1/2.
            let mut w = smooth_rec(pool, c, memo);
            if !matches!(pool.node(c), ENode::Cmp(..)) {
                let half = pool.constf(0.5);
                let z = pool.sub(w, half);
                w = pool.sstep(z);
            }
            // e + (t - e) * w
            let d = pool.sub(t, e);
            let dw = pool.mul(d, w);
            pool.add(e, dw)
        }
        node => {
            let node = node.map(|c| smooth_rec(pool, c, memo));
            pool.build(node)
        }
    };
    memo.insert(id, out);
    out
}

/// True if the DAG reachable from `root` contains only differentiable
/// primitives (no node that `ENode::is_smooth` refuses).
pub fn is_smooth(pool: &ExprPool, root: ExprId) -> bool {
    pool.reachable(&[root]).into_iter().zip(pool.nodes()).all(|(r, n)| !r || n.is_smooth())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool_grad::{self, GradOptions};
    use crate::{CmpOp, VarTable};

    #[test]
    fn smooth_step_limits() {
        assert!(smooth_step(-50.0) < 1e-3);
        assert!((smooth_step(0.0) - 0.5).abs() < 1e-12);
        assert!(smooth_step(50.0) > 1.0 - 1e-3);
        // Monotone.
        assert!(smooth_step(1.0) > smooth_step(0.5));
    }

    #[test]
    fn smooth_relu_matches_paper_shape() {
        // Fig. 4 right: smooth max(x, 0).
        assert!((smooth_relu(0.0) - 0.5).abs() < 1e-12);
        assert!((smooth_relu(5.0) - 5.0).abs() < 0.1);
        assert!(smooth_relu(-5.0) < 0.1);
        assert!(smooth_relu(-5.0) > 0.0);
    }

    #[test]
    fn smooth_max_min_bounds() {
        let mut vars = VarTable::new();
        let mut p = ExprPool::new();
        let (x, y) = (p.var(vars.fresh("a")), p.var(vars.fresh("b")));
        let (max, min) = (p.max(x, y), p.min(x, y));
        let roots = smooth_all(&mut p, &[max, min]);
        for (a, b) in [(1.0, 3.0), (-2.0, 5.0), (4.0, 4.0), (10.0, -10.0)] {
            let mx = p.eval(roots[0], &[a, b]);
            let mn = p.eval(roots[1], &[a, b]);
            assert!(mx >= f64::max(a, b), "smooth max upper-bounds max");
            assert!(mn <= f64::min(a, b), "smooth min lower-bounds min");
            assert!((mx - f64::max(a, b)) <= 0.5 + 1e-12);
            assert!((f64::min(a, b) - mn) <= 0.5 + 1e-12);
            // Exact identity: smooth_max + smooth_min = a + b.
            assert!((mx + mn - (a + b)).abs() < 1e-12);
        }
    }

    #[test]
    fn smoothed_select_is_differentiable_and_close() {
        // select(x > 0, 5, 2), the left panel of Fig. 4.
        let mut vars = VarTable::new();
        let vx = vars.fresh("x");
        let mut p = ExprPool::new();
        let x = p.var(vx);
        let zero = p.constf(0.0);
        let five = p.constf(5.0);
        let two = p.constf(2.0);
        let c = p.cmp(CmpOp::Gt, x, zero);
        let sel = p.select(c, five, two);
        assert!(!is_smooth(&p, sel));
        let sm = smooth_expr(&mut p, sel);
        assert!(is_smooth(&p, sm));
        // Far from the breakpoint the smooth version matches.
        assert!((p.eval(sm, &[30.0]) - 5.0).abs() < 0.1);
        assert!((p.eval(sm, &[-30.0]) - 2.0).abs() < 0.1);
        // Midpoint blends.
        assert!((p.eval(sm, &[0.0]) - 3.5).abs() < 1e-9);
        // Differentiable with positive slope.
        let g = pool_grad::grad(&p, sm, &[0.0], 1, GradOptions::default()).unwrap();
        assert!(g.var(vx) > 0.0);
    }

    #[test]
    fn smoothed_max_gradient_matches_numeric() {
        let mut vars = VarTable::new();
        let vx = vars.fresh("x");
        let mut p = ExprPool::new();
        let x = p.var(vx);
        let zero = p.constf(0.0);
        let m = p.max(x, zero);
        let sm = smooth_expr(&mut p, m);
        for at in [-2.0, -0.1, 0.0, 0.1, 2.0] {
            let g = pool_grad::grad(&p, sm, &[at], 1, GradOptions::default()).unwrap();
            let num = pool_grad::grad_numeric(&p, sm, &[at], 1e-6);
            assert!((g.var(vx) - num[0]).abs() < 1e-5);
        }
    }

    #[test]
    fn smooth_preserves_already_smooth() {
        let mut vars = VarTable::new();
        let vx = vars.fresh("x");
        let mut p = ExprPool::new();
        let x = p.var(vx);
        let e = p.exp(x);
        let f = p.log1p(e);
        let sm = smooth_expr(&mut p, f);
        assert_eq!(sm, f, "smooth is the identity on smooth expressions");
    }

    #[test]
    fn smooth_abs() {
        let mut vars = VarTable::new();
        let vx = vars.fresh("x");
        let mut p = ExprPool::new();
        let x = p.var(vx);
        let a = p.abs(x);
        let sm = smooth_expr(&mut p, a);
        assert!(is_smooth(&p, sm));
        assert!((p.eval(sm, &[10.0]) - 10.0).abs() < 0.05);
        assert!((p.eval(sm, &[-10.0]) - 10.0).abs() < 0.05);
        assert!((p.eval(sm, &[0.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn smooth_eq_indicator() {
        let mut vars = VarTable::new();
        let vx = vars.fresh("x");
        let mut p = ExprPool::new();
        let x = p.var(vx);
        let one = p.constf(1.0);
        let ten = p.constf(10.0);
        let zero = p.constf(0.0);
        let c = p.cmp(CmpOp::Eq, x, one);
        let sel = p.select(c, ten, zero);
        let sm = smooth_expr(&mut p, sel);
        assert!(is_smooth(&p, sm));
        assert!((p.eval(sm, &[1.0]) - 10.0).abs() < 1e-9);
        assert!(p.eval(sm, &[100.0]) < 0.1);
    }

    #[test]
    fn smooth_all_shares_memo() {
        let mut vars = VarTable::new();
        let vx = vars.fresh("x");
        let mut p = ExprPool::new();
        let x = p.var(vx);
        let zero = p.constf(0.0);
        let m = p.max(x, zero);
        let two = p.constf(2.0);
        let f1 = p.mul(m, two);
        let f2 = p.add(m, two);
        let before = p.len();
        let roots = smooth_all(&mut p, &[f1, f2]);
        // Both roots reuse the single smoothed max; the pool grows once.
        let grew = p.len() - before;
        assert!(grew < 2 * 10, "shared smoothing should not duplicate: grew {grew}");
        assert!(roots.iter().all(|&r| is_smooth(&p, r)));
    }
}
