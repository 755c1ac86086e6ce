//! The variables an expression set depends on: a reachability walk over
//! the pool, for tests that check which variables survive a rewrite.
//! Test targets include this file by `#[path]`; it names `felix_expr` by
//! its external path, so the crate's own unit tests can include it too.

use felix_expr::{ENode, ExprId, ExprPool, VarId};

/// The set of variables reachable from `roots`, sorted.
pub fn free_vars(pool: &ExprPool, roots: &[ExprId]) -> Vec<VarId> {
    let mut seen = vec![false; pool.len()];
    let mut stack: Vec<ExprId> = roots.to_vec();
    let mut vars = Vec::new();
    while let Some(id) = stack.pop() {
        if seen[id.index()] {
            continue;
        }
        seen[id.index()] = true;
        match pool.node(id) {
            ENode::Var(v) => vars.push(v),
            n => stack.extend(n.children()),
        }
    }
    vars.sort();
    vars.dedup();
    vars
}
