//! Pretty-printing of expressions with variable names.

use crate::{BinOp, ENode, ExprId, ExprPool, UnOp, VarTable};
use std::fmt;

/// Displays an expression with variable names from a [`VarTable`].
///
/// Obtained from [`ExprPool::display`].
pub struct DisplayExpr<'a> {
    pool: &'a ExprPool,
    vars: &'a VarTable,
    root: ExprId,
}

impl ExprPool {
    /// Returns a displayable view of `root` with names from `vars`.
    pub fn display<'a>(&'a self, root: ExprId, vars: &'a VarTable) -> DisplayExpr<'a> {
        DisplayExpr { pool: self, vars, root }
    }
}

impl fmt::Display for DisplayExpr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_expr(f, self.pool, self.vars, self.root, 0)
    }
}

fn precedence(node: &ENode) -> u8 {
    match node {
        ENode::Const(_) | ENode::Var(_) => 100,
        ENode::Un(..) => 90,
        ENode::Bin(BinOp::Pow, ..) => 80,
        ENode::Bin(BinOp::Mul | BinOp::Div, ..) => 70,
        ENode::Bin(BinOp::Add | BinOp::Sub, ..) => 60,
        ENode::Bin(BinOp::Min | BinOp::Max, ..) => 90,
        ENode::Cmp(..) => 50,
        ENode::Select(..) => 90,
    }
}

fn write_expr(
    f: &mut fmt::Formatter<'_>,
    pool: &ExprPool,
    vars: &VarTable,
    id: ExprId,
    parent_prec: u8,
) -> fmt::Result {
    let node = pool.node(id);
    let prec = precedence(&node);
    let parens = prec < parent_prec;
    if parens {
        write!(f, "(")?;
    }
    match node {
        ENode::Const(b) => {
            let v = f64::from_bits(b);
            if v == v.trunc() && v.abs() < 1e15 {
                write!(f, "{}", v as i64)?;
            } else {
                write!(f, "{v}")?;
            }
        }
        ENode::Var(v) => write!(f, "{}", vars.name(v))?,
        ENode::Un(UnOp::Neg, a) => {
            write!(f, "-")?;
            write_expr(f, pool, vars, a, prec)?;
        }
        ENode::Un(op, a) => {
            write!(f, "{}(", op.name())?;
            write_expr(f, pool, vars, a, 0)?;
            write!(f, ")")?;
        }
        ENode::Bin(op @ (BinOp::Min | BinOp::Max), a, b) => {
            write!(f, "{}(", op.name())?;
            write_expr(f, pool, vars, a, 0)?;
            write!(f, ", ")?;
            write_expr(f, pool, vars, b, 0)?;
            write!(f, ")")?;
        }
        ENode::Bin(op, a, b) => {
            write_expr(f, pool, vars, a, prec)?;
            write!(f, "{}", op.name())?;
            // Right operand binds one tighter for non-commutative ops.
            let rp = match op {
                BinOp::Sub | BinOp::Div | BinOp::Pow => prec + 1,
                _ => prec,
            };
            write_expr(f, pool, vars, b, rp)?;
        }
        ENode::Cmp(op, a, b) => {
            write_expr(f, pool, vars, a, prec + 1)?;
            write!(f, "{}", op.name())?;
            write_expr(f, pool, vars, b, prec + 1)?;
        }
        ENode::Select(c, t, e) => {
            write!(f, "select(")?;
            write_expr(f, pool, vars, c, 0)?;
            write!(f, ", ")?;
            write_expr(f, pool, vars, t, 0)?;
            write!(f, ", ")?;
            write_expr(f, pool, vars, e, 0)?;
            write!(f, ")")?;
        }
    }
    if parens {
        write!(f, ")")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CmpOp;

    #[test]
    fn displays_feature_like_formula() {
        let mut vars = VarTable::new();
        let t = vars.fresh("TILE0");
        let mut p = ExprPool::new();
        let x = p.var(t);
        let n = p.consti(1024);
        let d = p.div(n, x);
        let s = format!("{}", p.display(d, &vars));
        assert_eq!(s, "1024/TILE0");
    }

    #[test]
    fn parenthesizes_by_precedence() {
        let mut vars = VarTable::new();
        let a = vars.fresh("a");
        let b = vars.fresh("b");
        let mut p = ExprPool::new();
        let (xa, xb) = (p.var(a), p.var(b));
        let s = p.add(xa, xb);
        let m = p.mul(s, xa);
        let txt = format!("{}", p.display(m, &vars));
        assert_eq!(txt, "(a + b)*a");
    }

    #[test]
    fn displays_select_and_cmp() {
        let mut vars = VarTable::new();
        let t = vars.fresh("T");
        let mut p = ExprPool::new();
        let x = p.var(t);
        let one = p.constf(1.0);
        let five = p.constf(5.0);
        let two = p.constf(2.0);
        let c = p.cmp(CmpOp::Gt, x, one);
        let sel = p.select(c, five, two);
        let txt = format!("{}", p.display(sel, &vars));
        assert_eq!(txt, "select(T > 1, 5, 2)");
    }

    #[test]
    fn displays_functions() {
        let mut vars = VarTable::new();
        let t = vars.fresh("T");
        let mut p = ExprPool::new();
        let x = p.var(t);
        let l = p.log(x);
        let sq = p.sqrt(l);
        let txt = format!("{}", p.display(sq, &vars));
        assert_eq!(txt, "sqrt(log(T))");
    }
}
