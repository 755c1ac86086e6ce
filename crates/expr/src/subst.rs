//! Variable substitution, including the `x = e^y` exponential substitution
//! Felix uses for gradient stability (paper §3.3).

use crate::{ENode, ExprId, ExprPool, Memo, VarId, VarTable};
use std::collections::HashMap;

/// Rewrites `roots`, replacing each variable `v` by `replace(v)` when it
/// returns `Some`. Sharing is preserved via one memo table.
pub fn substitute(
    pool: &mut ExprPool,
    roots: &[ExprId],
    replace: &dyn Fn(VarId) -> Option<ExprId>,
) -> Vec<ExprId> {
    let mut memo: Memo<ExprId, ExprId> = Memo::default();
    roots
        .iter()
        .map(|&r| subst_rec(pool, r, replace, &mut memo))
        .collect()
}

fn subst_rec(
    pool: &mut ExprPool,
    id: ExprId,
    replace: &dyn Fn(VarId) -> Option<ExprId>,
    memo: &mut Memo<ExprId, ExprId>,
) -> ExprId {
    if let Some(&done) = memo.get(&id) {
        return done;
    }
    let out = match pool.node(id) {
        ENode::Const(_) => id,
        ENode::Var(v) => replace(v).unwrap_or(id),
        node => {
            let node = node.map(|c| subst_rec(pool, c, replace, memo));
            pool.build(node)
        }
    };
    memo.insert(id, out);
    out
}

/// The exponential substitution `x_i = e^{y_i}` (paper §3.3).
///
/// Creates one fresh `y` variable per variable in `xs` (named `ln_<x name>`)
/// and rewrites `roots` with `x_i ↦ exp(y_i)`. Returns the rewritten roots
/// and the mapping `x → y`.
///
/// After this substitution a product of tile sizes `x1·x2·x3` inside a `log`
/// is `log(e^y1·e^y2·e^y3)`, evaluated as written: its value equals the
/// paper's linear-growth form `y1+y2+y3`, but no pass distributes the
/// logarithm, and a directly nested `log(e^y)` stays as written too.
pub fn exp_substitution(
    pool: &mut ExprPool,
    vars: &mut VarTable,
    roots: &[ExprId],
    xs: &[VarId],
) -> (Vec<ExprId>, HashMap<VarId, VarId>) {
    let mut x_to_y: HashMap<VarId, VarId> = HashMap::new();
    let mut x_to_expr: HashMap<VarId, ExprId> = HashMap::new();
    for &x in xs {
        let y = vars.fresh(format!("ln_{}", vars.name(x).to_owned()));
        let ye = pool.var(y);
        let e = pool.exp(ye);
        x_to_y.insert(x, y);
        x_to_expr.insert(x, e);
    }
    let new_roots = substitute(pool, roots, &|v| x_to_expr.get(&v).copied());
    (new_roots, x_to_y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VarTable;

    #[test]
    fn substitute_replaces_var() {
        let mut vars = VarTable::new();
        let vx = vars.fresh("x");
        let vy = vars.fresh("y");
        let mut p = ExprPool::new();
        let x = p.var(vx);
        let y = p.var(vy);
        let f = p.mul(x, x);
        let roots = substitute(&mut p, &[f], &|v| if v == vx { Some(y) } else { None });
        assert_eq!(p.eval(roots[0], &[0.0, 5.0]), 25.0);
    }

    #[test]
    fn substitute_preserves_untouched() {
        let mut vars = VarTable::new();
        let vx = vars.fresh("x");
        let mut p = ExprPool::new();
        let x = p.var(vx);
        let f = p.log1p(x);
        let roots = substitute(&mut p, &[f], &|_| None);
        assert_eq!(roots[0], f);
    }

    #[test]
    fn exp_substitution_changes_domain() {
        let mut vars = VarTable::new();
        let vx = vars.fresh("TILE0");
        let mut p = ExprPool::new();
        let x = p.var(vx);
        let c = p.constf(2.0);
        let f = p.mul(x, c); // 2 * TILE0
        let (roots, map) = exp_substitution(&mut p, &mut vars, &[f], &[vx]);
        let y = map[&vx];
        assert_eq!(vars.name(y), "ln_TILE0");
        // With y = ln 8, f = 2 * e^y = 16.
        let mut vals = vec![0.0; vars.len()];
        vals[y.index()] = (8.0f64).ln();
        assert!((p.eval(roots[0], &vals) - 16.0).abs() < 1e-9);
    }

    #[test]
    fn exp_substitution_log_product_becomes_linear() {
        // log(x1 * x2) should evaluate to y1 + y2 after substitution.
        let mut vars = VarTable::new();
        let v1 = vars.fresh("T1");
        let v2 = vars.fresh("T2");
        let mut p = ExprPool::new();
        let x1 = p.var(v1);
        let x2 = p.var(v2);
        let prod = p.mul(x1, x2);
        let f = p.log(prod);
        let (roots, map) = exp_substitution(&mut p, &mut vars, &[f], &[v1, v2]);
        let (y1, y2) = (map[&v1], map[&v2]);
        let mut vals = vec![0.0; vars.len()];
        vals[y1.index()] = 2.0;
        vals[y2.index()] = 3.0;
        assert!((p.eval(roots[0], &vals) - 5.0).abs() < 1e-9);
    }
}
