//! Figure 4: non-differentiable functions vs. their smooth approximations.
//!
//! Regenerates both panels as CSV series: `select(x > 0, 5, 2)` (left) and
//! `max(x, 0)` (right), each alongside the smooth version Felix substitutes.

use felix_expr::smooth::{smooth_relu, smooth_select};
use felix_expr::{smooth_expr, CmpOp, ExprPool, VarTable};

fn main() {
    felix_bench::out_dir_from_args();
    // Build the exact Fig. 4 expressions symbolically and smooth them with
    // the production rewriter, then sample both paths.
    let mut vars = VarTable::new();
    let vx = vars.fresh("x");
    let mut p = ExprPool::new();
    let x = p.var(vx);
    let zero = p.constf(0.0);
    let five = p.constf(5.0);
    let two = p.constf(2.0);
    let cond = p.cmp(CmpOp::Gt, x, zero);
    let sel = p.select(cond, five, two);
    let sel_smooth = smooth_expr(&mut p, sel);
    let mx = p.max(x, zero);
    let mx_smooth = smooth_expr(&mut p, mx);

    let mut csv = String::from("x,select,select_smooth,max,max_smooth\n");
    let n = 101;
    for i in 0..n {
        let xv = -5.0 + 10.0 * i as f64 / (n - 1) as f64;
        let vals = p.eval_all(&[xv]);
        let row = format!(
            "{xv:.2},{},{:.6},{},{:.6}\n",
            vals[sel.index()],
            vals[sel_smooth.index()],
            vals[mx.index()],
            vals[mx_smooth.index()],
        );
        // Cross-check the rewriter output against the closed forms.
        assert!((vals[sel_smooth.index()] - smooth_select(xv, 5.0, 2.0)).abs() < 1e-9);
        assert!((vals[mx_smooth.index()] - smooth_relu(xv)).abs() < 1e-9);
        csv.push_str(&row);
    }
    felix_bench::write_result("fig4_smoothing.csv", &csv);
    println!("Figure 4: smoothing of non-differentiable operators");
    println!("  x     select  smooth   max    smooth");
    for xv in [-4.0, -2.0, -0.5, 0.0, 0.5, 2.0, 4.0] {
        let vals = p.eval_all(&[xv]);
        println!(
            "  {xv:>4.1}  {:>6.2}  {:>6.3}  {:>5.2}  {:>6.3}",
            vals[sel.index()],
            vals[sel_smooth.index()],
            vals[mx.index()],
            vals[mx_smooth.index()],
        );
    }
}
