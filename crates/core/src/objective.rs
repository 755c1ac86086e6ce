//! The differentiable subgraph objective (paper §3.3–§3.4).
//!
//! For each symbolic sketch this module builds the pipeline that makes
//! Equation 4 differentiable end to end:
//!
//! 1. log-transform every feature formula (`ln(1+f)`),
//! 2. rewrite non-differentiable operators into smooth ones (Fig. 4),
//! 3. substitute `x = e^y` for every schedule variable (the pool's smart
//!    constructors cancel any directly nested `log∘exp` as it is built),
//! 4. keep the validity constraints as penalty expressions `g(y)`,
//! 5. compile the live feature and penalty sub-DAG into one gradient tape
//!    (dead-code elimination, constant folding, CSE).
//!
//! [`SketchObjective::cost_and_grad`] then composes the MLP cost model with
//! the feature DAG: the MLP's input gradient seeds one reverse-mode sweep
//! over the expression pool, yielding `∂O/∂y` for every seed in a single
//! pass — exactly the AutoDiff step of Algorithm 1.

use felix_cost::Mlp;
use felix_expr::autodiff::GradOptions;
use felix_expr::subst::exp_substitution;
use felix_expr::{smooth_all, CompiledGradTape, ExprId, VarId};
use felix_tir::Program;
use std::collections::HashMap;

/// Which stages of the differentiable-rewriting pipeline to apply — all on
/// by default; individual stages can be disabled for the ablation studies
/// (DESIGN.md §5).
#[derive(Clone, Copy, Debug)]
pub struct PipelineOptions {
    /// Replace non-differentiable operators by smooth ones (§3.3, Fig. 4).
    /// When disabled, gradients fall back to subgradients.
    pub smoothing: bool,
    /// The `x = e^y` exponential substitution. When disabled, optimization
    /// runs directly over `x`.
    pub exp_substitution: bool,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            smoothing: true,
            exp_substitution: true,
        }
    }
}

/// Clamp bound on the log-space variables `y` before they reach the tape
/// (both the compiled path and the pool oracle — the two must stay
/// bit-identical). `x = e^y` makes every feature a polynomial in `e^y`, so
/// one saturated tile variable at `y ≈ 700` turns into `x = Inf` and
/// poisons the whole SoA sweep. `e^30 ≈ 1e13` is already ~9 orders of
/// magnitude beyond the largest legal tile extent (≤ 4096, `y ≈ 8.3`),
/// while products of every schedule variable and the squared penalty terms
/// stay comfortably inside `f64` range. Healthy descent never gets near
/// the bound, so clamping changes nothing on fault-free runs.
pub const Y_CLAMP: f64 = 30.0;

/// Clamp bound on a penalty root's value `g` before it is squared into the
/// objective and seeded into the reverse sweep. `(1e100)² = 1e200` is still
/// finite in `f64`; anything larger risks `Inf` in `λ·g²` even for finite
/// `g`. Feasible and near-feasible schedules have `g` within a few orders
/// of magnitude of zero, so the bound is unreachable on healthy runs.
pub const PENALTY_CLAMP: f64 = 1e100;

/// The differentiable objective of one sketch.
#[derive(Clone, Debug)]
pub struct SketchObjective {
    /// A clone of the sketch's program whose pool holds the rewritten DAG.
    pub program: Program,
    /// Smoothed, substituted `ln(1+feature_k)` roots.
    pub log_feat_roots: Vec<ExprId>,
    /// Penalty expressions `g_r(y)` (legal iff `g_r <= 0`).
    pub penalty_roots: Vec<ExprId>,
    /// Mapping from original variable `x` to its log-space variable `y`.
    pub x_to_y: HashMap<VarId, VarId>,
    /// Optimization variables, in the order of the original schedule vars.
    pub y_vars: Vec<VarId>,
    /// The original `x` variable behind each optimization slot (aligned
    /// with `y_vars`), precomputed so x↔y conversions need no map scans.
    y_to_x: Vec<VarId>,
    /// Compiled forward+reverse tape over the live feature and penalty
    /// sub-DAG (the hot path of every Adam step); the pool-walking methods
    /// remain as the reference oracle.
    pub tape: CompiledGradTape,
    /// Seconds spent compiling the tape.
    pub tape_compile_s: f64,
    /// Pipeline stages this objective was built with.
    pub pipeline: PipelineOptions,
    /// True when the compiled tape is non-finite at the build-time probe
    /// point (`y = 0`, i.e. every schedule variable at 1): such an
    /// objective cannot support descent anywhere, so the supervisor routes
    /// the sketch straight to the evolutionary fallback.
    pub pathological: bool,
}

/// Reusable buffers for tape-based objective evaluation. One scratch per
/// descent work item makes the steady-state descent loop allocation-free:
/// every buffer grows once and is then rewritten in place.
#[derive(Clone, Debug, Default)]
pub struct EvalScratch {
    /// Variable values, variable-major: `vars[v * batch + lane]`.
    vars: Vec<f64>,
    /// Forward tape values, slot-major.
    vals: Vec<f64>,
    /// Reverse adjoints, slot-major.
    adj: Vec<f64>,
    /// Root adjoint seeds, root-major.
    seeds: Vec<f64>,
    /// Per-variable gradients, variable-major.
    grad: Vec<f64>,
    /// Per-lane penalty accumulators for the batched penalty pass.
    pen_acc: Vec<f64>,
    /// Per-lane penalty-root finiteness flags for the batched penalty pass.
    pen_fin: Vec<bool>,
    /// Per-lane feature-root finiteness accumulators for the batched
    /// feature pass (`Σ v·0.0` — ends `±0.0` iff every feature is finite).
    feat_fin: Vec<f64>,
    /// Lanes in the current batch.
    batch: usize,
}

impl SketchObjective {
    /// Builds the objective for a sketch program (the program is cloned and
    /// its pool extended with the rewritten DAG).
    pub fn build(sketch_program: &Program, features: &[ExprId]) -> Self {
        Self::build_with(sketch_program, features, PipelineOptions::default())
    }

    /// [`SketchObjective::build`] with explicit pipeline stages (for the
    /// ablation studies).
    pub fn build_with(
        sketch_program: &Program,
        features: &[ExprId],
        pipeline: PipelineOptions,
    ) -> Self {
        let mut program = sketch_program.clone();
        // 1. log-transform features.
        let logfeats: Vec<ExprId> = features.iter().map(|&f| program.pool.log1p(f)).collect();
        // 2. smooth features and constraints together (shared memo).
        let constraint_roots: Vec<ExprId> =
            program.constraints.iter().map(|c| c.expr).collect();
        let mut roots = logfeats;
        let n_feats = roots.len();
        roots.extend(constraint_roots);
        let smoothed = if pipeline.smoothing {
            smooth_all(&mut program.pool, &roots)
        } else {
            roots
        };
        // 3. exponential substitution for every schedule variable.
        let xs: Vec<VarId> = program.sched_vars.iter().map(|sv| sv.var).collect();
        let (substituted, x_to_y) = if pipeline.exp_substitution {
            let mut vars = std::mem::take(&mut program.vars);
            let (r, m) =
                exp_substitution(&mut program.pool, &mut vars, &smoothed, &xs);
            program.vars = vars;
            (r, m)
        } else {
            // Identity "substitution": optimize x directly.
            (smoothed, xs.iter().map(|&x| (x, x)).collect())
        };
        // 4. the constraints' roots become the penalty roots.
        let log_feat_roots = substituted[..n_feats].to_vec();
        let penalty_roots = substituted[n_feats..].to_vec();
        let y_vars: Vec<VarId> = xs.iter().map(|x| x_to_y[x]).collect();
        // 5. compile the live sub-DAG.
        let compile_start = std::time::Instant::now();
        let tape = CompiledGradTape::compile(&program.pool, &substituted);
        let tape_compile_s = compile_start.elapsed().as_secs_f64();
        let mut obj = SketchObjective {
            program,
            log_feat_roots,
            penalty_roots,
            x_to_y,
            y_to_x: xs,
            y_vars,
            tape,
            tape_compile_s,
            pipeline,
            pathological: false,
        };
        // Build-time probe: one forward pass at y = 0 (every schedule
        // variable at 1). A tape that is already NaN/Inf there compiled to
        // a pathological objective — descent from any starting point would
        // only burn its budget, so the flag lets the supervisor degrade the
        // sketch immediately and deterministically.
        let mut scratch = EvalScratch::default();
        let zero = vec![0.0; obj.y_vars.len()];
        obj.begin_batch(&mut scratch, 1);
        obj.set_lane(&mut scratch, 0, &zero);
        obj.tape.forward_batch(&scratch.vars, 1, &mut scratch.vals);
        obj.pathological = !obj.tape.lane_roots_finite(&scratch.vals, 1, 0);
        obj
    }

    /// Number of optimization variables.
    pub fn n_vars(&self) -> usize {
        self.y_vars.len()
    }

    /// The original `x` variable behind optimization slot `i`.
    fn x_var(&self, i: usize) -> VarId {
        self.y_to_x[i]
    }

    /// Converts a concrete x-space schedule into the y-space starting point.
    pub fn to_y_space(&self, x_vals: &[f64]) -> Vec<f64> {
        (0..self.y_vars.len())
            .map(|i| {
                let x = x_vals[self.x_var(i).index()].max(1.0);
                if self.pipeline.exp_substitution {
                    x.ln()
                } else {
                    x
                }
            })
            .collect()
    }

    /// Converts a y-space point into the full x-space variable vector
    /// (relaxed, not yet rounded) sized for the *original* program.
    pub fn to_x_space(&self, y: &[f64], n_orig_vars: usize) -> Vec<f64> {
        let mut x_vals = vec![1.0; n_orig_vars];
        for (i, &yv) in y.iter().enumerate() {
            x_vals[self.x_var(i).index()] =
                if self.pipeline.exp_substitution { yv.exp() } else { yv };
        }
        x_vals
    }

    /// Clamps one y-space coordinate to the documented tape-input bound
    /// (NaN passes through — it is caught by the supervisor's finiteness
    /// checks, not silently laundered into a bound value).
    fn clamp_y(yv: f64) -> f64 {
        yv.clamp(-Y_CLAMP, Y_CLAMP)
    }

    /// Assembles the full variable-value vector for pool evaluation,
    /// clamping each `y` exactly as [`SketchObjective::set_lane`] does so
    /// the pool oracle stays bit-identical to the tape path.
    fn full_values(&self, y: &[f64]) -> Vec<f64> {
        let mut vals = vec![1.0; self.program.vars.len()];
        for (i, &yv) in self.y_vars.iter().enumerate() {
            vals[yv.index()] = Self::clamp_y(y[i]);
        }
        vals
    }

    /// Stage 1 of the **pool-walking reference oracle**: one forward sweep
    /// of the *entire* expression pool. Returns every node's value plus the
    /// extracted log-feature vector — the MLP input. The production path is
    /// the compiled tape ([`SketchObjective::cost_and_grad`] and the batched
    /// API); this sweep pays for the whole rewrite history and exists to
    /// check the tape against and for ablation debugging.
    pub fn eval_feats_pool(&self, y: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let vals = self.full_values(y);
        let node_vals = self.program.pool.eval_all(&vals);
        let feats: Vec<f64> = self
            .log_feat_roots
            .iter()
            .map(|e| node_vals[e.index()])
            .collect();
        (node_vals, feats)
    }

    /// Stage 2 of the pool-walking reference oracle: given the pool values
    /// from [`SketchObjective::eval_feats_pool`] and the MLP's
    /// `(score, ∂C/∂feat)` for this point, applies the penalty terms and
    /// runs the reverse-mode sweep over the full pool. Returns
    /// `(objective, predicted_score, gradient)`.
    pub fn grad_from_dscore_pool(
        &self,
        node_vals: Vec<f64>,
        score: f64,
        dscore: &[f64],
        lambda: f64,
    ) -> (f64, f64, Vec<f64>) {
        // Seeds: features get −∂C/∂feat; penalties get λ·2·max(g,0)
        // (the analytic derivative of max(g,0)², which is differentiable).
        let mut seeds: Vec<(ExprId, f64)> = self
            .log_feat_roots
            .iter()
            .zip(dscore)
            .map(|(&e, &d)| (e, -d))
            .collect();
        let mut penalty_val = 0.0;
        for &g in &self.penalty_roots {
            let gv = node_vals[g.index()].min(PENALTY_CLAMP);
            if gv > 0.0 {
                penalty_val += lambda * gv * gv;
                seeds.push((g, lambda * 2.0 * gv));
            }
        }
        let grads = self
            .program
            .pool
            .grad_multi_with_values(
                &seeds,
                node_vals,
                self.program.vars.len(),
                GradOptions { subgradient: !self.pipeline.smoothing },
            )
            .expect("objective DAG is smooth by construction");
        let grad: Vec<f64> = self.y_vars.iter().map(|&v| grads.var(v)).collect();
        let objective = -score + penalty_val;
        (objective, score, grad)
    }

    /// Full pool-walking `cost_and_grad`: the reference oracle the tape
    /// path is checked against (`tape_oracle.rs` and the unit tests).
    pub fn cost_and_grad_pool(
        &self,
        model: &Mlp,
        lambda: f64,
        y: &[f64],
    ) -> (f64, f64, Vec<f64>) {
        let (node_vals, feats) = self.eval_feats_pool(y);
        let (score, dscore) = model.input_gradient(&feats);
        self.grad_from_dscore_pool(node_vals, score, &dscore, lambda)
    }

    // ------------------------------------------------------------------
    // Batched tape evaluation. The descent loop sweeps every live seed of
    // a sketch through the tape in one structure-of-arrays pass, mirroring
    // the batched MLP: per step it runs `begin_batch`/`set_lane`/
    // `forward_batch`/`write_feats_cols`, one matrix-shaped MLP call over
    // the features, then `seed_feats_cols`/`seed_penalties_all`/
    // `backward_batch`/`grad_lane`. Batch width only changes memory
    // layout, never accumulation order, so every lane is bit-identical to
    // a batch-of-one evaluation — which is how `cost_and_grad` runs, and
    // what the pool-walking `*_pool` reference is compared against.
    // ------------------------------------------------------------------

    /// Starts a batched evaluation of `batch` seeds, sizing `scratch`'s
    /// variable block (non-schedule variables default to 1.0, as in the
    /// pool path).
    pub fn begin_batch(&self, scratch: &mut EvalScratch, batch: usize) {
        scratch.batch = batch;
        scratch.vars.clear();
        scratch.vars.resize(self.program.vars.len() * batch, 1.0);
    }

    /// Writes one seed's y-space point into `lane` of the variable block,
    /// clamped to `±`[`Y_CLAMP`] so a saturated coordinate cannot push
    /// `e^y` to `Inf` inside the shared SoA sweep.
    pub fn set_lane(&self, scratch: &mut EvalScratch, lane: usize, y: &[f64]) {
        let b = scratch.batch;
        for (i, &yv) in self.y_vars.iter().enumerate() {
            scratch.vars[yv.index() * b + lane] = Self::clamp_y(y[i]);
        }
    }

    /// Runs the fused forward pass over all lanes and zeroes the adjoint
    /// seed block for the coming backward pass.
    pub fn forward_batch(&self, scratch: &mut EvalScratch) {
        self.tape
            .forward_batch(&scratch.vars, scratch.batch, &mut scratch.vals);
        scratch.seeds.clear();
        scratch
            .seeds
            .resize(self.tape.n_roots() * scratch.batch, 0.0);
    }

    /// Number of log-feature roots (the MLP input width for this sketch).
    pub fn n_feats(&self) -> usize {
        self.log_feat_roots.len()
    }

    /// Extracts every lane's log-feature vector (the MLP input) at once,
    /// into a feature-major destination: lane `l`'s feature `k` lands in
    /// `dst_t[k * n_total + cols[l]]`, where `cols` must be one contiguous
    /// ascending run (asserted). Feature roots run outer and lanes inner,
    /// so each root row is one straight block copy. This is the layout the
    /// batched cost-model call takes its inputs in (see
    /// `PackedMlp::input_gradient_batch_cols`).
    /// `finite(lane, ok)` reports whether every feature of the lane is
    /// finite; the check rides the extraction loop (the values are already
    /// in hand), so the supervisor's per-step feature-root NaN/Inf
    /// detection costs no extra pass over the tape.
    pub fn write_feats_cols(
        &self,
        scratch: &mut EvalScratch,
        cols: &[usize],
        n_total: usize,
        dst_t: &mut [f64],
        mut finite: impl FnMut(usize, bool),
    ) {
        let b = scratch.batch;
        let nf = self.log_feat_roots.len();
        let c0 = contiguous_run(cols, b, n_total);
        assert!(dst_t.len() >= nf * n_total, "feature-major buffer too small");
        let EvalScratch { vals, feat_fin, .. } = scratch;
        feat_fin.clear();
        feat_fin.resize(b, 0.0);
        for k in 0..nf {
            let vrow = self.tape.root_row(vals, b, k);
            // `v * 0.0` is `±0.0` exactly when `v` is finite and NaN
            // otherwise (`Inf·0` and `NaN·0` are both NaN), so the per-lane
            // accumulator ends at `±0.0` iff every feature was finite —
            // a pure f64 sweep that vectorizes with the copy, equivalent
            // to `is_finite` on every element.
            let dst = &mut dst_t[k * n_total + c0..k * n_total + c0 + b];
            for ((d, &v), acc) in dst.iter_mut().zip(vrow).zip(feat_fin.iter_mut()) {
                *d = v;
                *acc += v * 0.0;
            }
        }
        for (lane, &acc) in feat_fin.iter().enumerate() {
            finite(lane, acc == 0.0);
        }
    }

    /// Seeds every lane's feature-root adjoints with its MLP input
    /// gradient, negated (the objective maximizes score), from a
    /// feature-major gradient buffer (`src_t[k * n_total + cols[lane]]`, the
    /// layout [`felix_cost::PackedMlp::input_gradient_batch_cols`] emits;
    /// `cols` one contiguous run, as for
    /// [`SketchObjective::write_feats_cols`]): feature roots outer, lanes
    /// inner, so both the source reads and the seed writes are pure row
    /// sweeps. Must run after [`SketchObjective::forward_batch`].
    pub fn seed_feats_cols(
        &self,
        scratch: &mut EvalScratch,
        cols: &[usize],
        n_total: usize,
        src_t: &[f64],
    ) {
        let b = scratch.batch;
        let nf = self.log_feat_roots.len();
        let c0 = contiguous_run(cols, b, n_total);
        assert!(src_t.len() >= nf * n_total, "feature-major gradient buffer too small");
        for (k, srow) in scratch.seeds[..nf * b].chunks_exact_mut(b).enumerate() {
            let grow = &src_t[k * n_total + c0..k * n_total + c0 + b];
            for (s, &g) in srow.iter_mut().zip(grow) {
                *s = -g;
            }
        }
    }

    /// Seeds every lane's penalty-root adjoints: one pass over the penalty
    /// roots with roots outer and lanes inner, so both the tape-value reads
    /// and the seed writes are contiguous rows. Calls
    /// `sink(lane, penalty, finite)` for each lane with its penalty value
    /// `λ Σ max(g_r, 0)²` and whether every raw penalty root was finite.
    /// Must run after [`SketchObjective::forward_batch`].
    ///
    /// The finiteness flag is checked on the *raw* root value, before the
    /// clamp: `f64::min(NaN, c)` returns `c`, so a NaN penalty root would
    /// otherwise be laundered into [`PENALTY_CLAMP`] and become invisible
    /// to both the penalty sum and the gradient. Riding the seeding loop
    /// keeps the supervisor's check free of any extra tape pass. Per lane
    /// the roots accumulate in the pool reference's order, so the two
    /// paths stay bitwise equal.
    pub fn seed_penalties_all(
        &self,
        scratch: &mut EvalScratch,
        lambda: f64,
        mut sink: impl FnMut(usize, f64, bool),
    ) {
        let b = scratch.batch;
        let n_feats = self.log_feat_roots.len();
        let EvalScratch { vals, seeds, pen_acc, pen_fin, .. } = scratch;
        pen_acc.clear();
        pen_acc.resize(b, 0.0);
        pen_fin.clear();
        pen_fin.resize(b, true);
        for j in 0..self.penalty_roots.len() {
            let vrow = self.tape.root_row(vals, b, n_feats + j);
            let srow = &mut seeds[(n_feats + j) * b..(n_feats + j + 1) * b];
            let lanes = vrow.iter().zip(srow).zip(pen_acc.iter_mut().zip(pen_fin.iter_mut()));
            for ((&raw, s), (acc, fin)) in lanes {
                *fin &= raw.is_finite();
                // Clamped identically to the pool oracle; see
                // [`PENALTY_CLAMP`].
                let gv = raw.min(PENALTY_CLAMP);
                if gv > 0.0 {
                    *acc += lambda * gv * gv;
                    *s = lambda * 2.0 * gv;
                } else {
                    *s = 0.0;
                }
            }
        }
        for lane in 0..b {
            sink(lane, pen_acc[lane], pen_fin[lane]);
        }
    }

    /// Runs the fused reverse sweep over all lanes at once.
    pub fn backward_batch(&self, scratch: &mut EvalScratch) {
        self.tape
            .backward_batch(
                &scratch.seeds,
                scratch.batch,
                &scratch.vals,
                self.program.vars.len(),
                &mut scratch.adj,
                &mut scratch.grad,
                !self.pipeline.smoothing,
            )
            .expect("objective DAG is smooth by construction");
    }

    /// Extracts `lane`'s gradient `∂O/∂y` into `out`.
    pub fn grad_lane(&self, scratch: &EvalScratch, lane: usize, out: &mut Vec<f64>) {
        out.clear();
        let b = scratch.batch;
        for &v in &self.y_vars {
            out.push(scratch.grad[v.index() * b + lane]);
        }
    }

    /// Evaluates `O(y)` and `∂O/∂y` (Eqn. 4): `O = −C(feat(y)) +
    /// λ Σ max(g_r(y), 0)²`, via the compiled tape — a batch of one through
    /// the same calls the descent loop makes.
    ///
    /// Returns `(objective, predicted_score, gradient)`.
    pub fn cost_and_grad(
        &self,
        model: &Mlp,
        lambda: f64,
        y: &[f64],
    ) -> (f64, f64, Vec<f64>) {
        let mut scratch = EvalScratch::default();
        self.begin_batch(&mut scratch, 1);
        self.set_lane(&mut scratch, 0, y);
        self.forward_batch(&mut scratch);
        let mut feats = vec![0.0; self.log_feat_roots.len()];
        self.write_feats_cols(&mut scratch, &[0], 1, &mut feats, |_, _| {});
        let (score, dscore) = model.input_gradient(&feats);
        self.seed_feats_cols(&mut scratch, &[0], 1, &dscore);
        let mut penalty = 0.0;
        self.seed_penalties_all(&mut scratch, lambda, |_, p, _| penalty = p);
        self.backward_batch(&mut scratch);
        let mut grad = Vec::with_capacity(self.y_vars.len());
        self.grad_lane(&scratch, 0, &mut grad);
        (-score + penalty, score, grad)
    }
}

/// The first column of `cols`, one destination column per lane of a
/// `batch`-lane sweep.
///
/// # Panics
///
/// Panics unless `cols` is `c0, c0 + 1, …, c0 + batch - 1` with
/// `c0 + batch <= n_total`.
fn contiguous_run(cols: &[usize], batch: usize, n_total: usize) -> usize {
    assert_eq!(cols.len(), batch, "one column per lane");
    let c0 = cols.first().copied().unwrap_or(0);
    assert!(
        cols.iter().enumerate().all(|(l, &c)| c == c0 + l) && c0 + batch <= n_total,
        "columns must be one contiguous run inside the buffer"
    );
    c0
}

#[cfg(test)]
mod tests {
    use super::*;
    use felix_features::extract_features;
    use felix_graph::lower::lower_subgraph;
    use felix_graph::{Op, Subgraph};
    use felix_tir::sketch::{multi_level_tiling_sketch, HardwareParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build_dense_objective() -> (SketchObjective, Program) {
        let sg = Subgraph { ops: vec![Op::Dense { m: 512, k: 512, n: 512 }] };
        let p0 = lower_subgraph(&sg);
        let sk = multi_level_tiling_sketch(&p0, &HardwareParams::default());
        let mut program = sk.program;
        let fs = extract_features(&mut program);
        let obj = SketchObjective::build(&program, &fs.exprs);
        (obj, program)
    }

    #[test]
    fn objective_roots_are_smooth() {
        let (obj, _) = build_dense_objective();
        for &r in obj.log_feat_roots.iter().chain(&obj.penalty_roots) {
            assert!(felix_expr::is_smooth(&obj.program.pool, r));
        }
    }

    #[test]
    fn feature_values_match_original_at_integer_points() {
        // At a valid integer schedule the smoothed log-features must closely
        // match ln(1+exact feature) — smoothing only blurs near breakpoints.
        let sg = Subgraph { ops: vec![Op::Dense { m: 512, k: 512, n: 512 }] };
        let p0 = lower_subgraph(&sg);
        let sk = multi_level_tiling_sketch(&p0, &HardwareParams::default());
        let mut program = sk.program;
        let fs = extract_features(&mut program);
        let obj = SketchObjective::build(&program, &fs.exprs);
        let x = vec![2.0, 16.0, 4.0, 2.0, 16.0, 4.0, 8.0, 64.0];
        let exact = fs.eval(&program, &x);
        let y: Vec<f64> = x.iter().map(|v| v.ln()).collect();
        let vals = obj.full_values(&y);
        let node_vals = obj.program.pool.eval_all(&vals);
        let mut close = 0;
        for (k, &root) in obj.log_feat_roots.iter().enumerate() {
            let smooth_val = node_vals[root.index()];
            let exact_log = (1.0 + exact[k]).ln();
            if (smooth_val - exact_log).abs() < 0.35 * (1.0 + exact_log.abs()) {
                close += 1;
            }
        }
        assert!(close >= 75, "only {close}/82 smoothed features near exact");
    }

    #[test]
    fn gradient_matches_numeric() {
        let (obj, _) = build_dense_objective();
        let mut rng = StdRng::seed_from_u64(0);
        let model = Mlp::new(&mut rng);
        let y: Vec<f64> = vec![0.5, 2.3, 1.1, 0.4, 2.0, 1.3, 1.9, 3.5];
        let lambda = 1.0;
        let (cost, _, grad) = obj.cost_and_grad(&model, lambda, &y);
        // The cost model is f32, so numeric differences carry ~1e-7/eps of
        // float noise; use a wide step and compare directionally too.
        let eps = 5e-3;
        let mut dot = 0.0;
        let mut na = 0.0;
        let mut nb = 0.0;
        for i in 0..y.len() {
            let mut yp = y.clone();
            yp[i] += eps;
            let hi = obj.cost_and_grad(&model, lambda, &yp).0;
            yp[i] -= 2.0 * eps;
            let lo = obj.cost_and_grad(&model, lambda, &yp).0;
            let num = (hi - lo) / (2.0 * eps);
            assert!(
                (grad[i] - num).abs() < 0.02 + 0.15 * num.abs(),
                "var {i}: ad {} vs numeric {num} (cost {cost})",
                grad[i]
            );
            dot += grad[i] * num;
            na += grad[i] * grad[i];
            nb += num * num;
        }
        let cosine = dot / (na.sqrt() * nb.sqrt()).max(1e-12);
        assert!(cosine > 0.95, "gradient direction off: cosine {cosine}");
    }

    #[test]
    fn tape_path_is_bitwise_identical_to_pool_oracle() {
        let (obj, _) = build_dense_objective();
        let mut rng = StdRng::seed_from_u64(7);
        let model = Mlp::new(&mut rng);
        let points = [
            vec![0.5, 2.3, 1.1, 0.4, 2.0, 1.3, 1.9, 3.5],
            vec![0.5, 6.3, 1.1, 0.4, 6.3, 1.3, 1.9, 3.5],
            vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        ];
        for y in &points {
            let (c_tape, s_tape, g_tape) = obj.cost_and_grad(&model, 1.0, y);
            let (c_pool, s_pool, g_pool) = obj.cost_and_grad_pool(&model, 1.0, y);
            assert_eq!(c_tape.to_bits(), c_pool.to_bits());
            assert_eq!(s_tape.to_bits(), s_pool.to_bits());
            assert_eq!(g_tape.len(), g_pool.len());
            for (a, b) in g_tape.iter().zip(&g_pool) {
                assert_eq!(a.to_bits(), b.to_bits(), "{g_tape:?} vs {g_pool:?}");
            }
        }
    }

    #[test]
    fn batched_lanes_match_single_seed_evaluation() {
        let (obj, _) = build_dense_objective();
        let mut rng = StdRng::seed_from_u64(9);
        let model = Mlp::new(&mut rng);
        let points = [
            vec![0.5, 2.3, 1.1, 0.4, 2.0, 1.3, 1.9, 3.5],
            vec![0.7, 1.9, 0.3, 1.4, 2.6, 0.8, 2.2, 3.0],
            vec![0.5, 6.3, 1.1, 0.4, 6.3, 1.3, 1.9, 3.5],
            vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        ];
        let batch = points.len();
        let cols: Vec<usize> = (0..batch).collect();
        let mut scratch = EvalScratch::default();
        obj.begin_batch(&mut scratch, batch);
        for (lane, y) in points.iter().enumerate() {
            obj.set_lane(&mut scratch, lane, y);
        }
        obj.forward_batch(&mut scratch);
        let nf = obj.n_feats();
        let mut feats_t = vec![0.0; nf * batch];
        obj.write_feats_cols(&mut scratch, &cols, batch, &mut feats_t, |_, ok| assert!(ok));
        let mut grads_t = vec![0.0; nf * batch];
        let mut scores = vec![0.0; batch];
        for (lane, &c) in cols.iter().enumerate() {
            let feats: Vec<f64> = (0..nf).map(|k| feats_t[k * batch + c]).collect();
            let (score, dscore) = model.input_gradient(&feats);
            scores[lane] = score;
            for (k, d) in dscore.iter().enumerate() {
                grads_t[k * batch + c] = *d;
            }
        }
        obj.seed_feats_cols(&mut scratch, &cols, batch, &grads_t);
        let mut penalties = vec![0.0; batch];
        obj.seed_penalties_all(&mut scratch, 1.0, |lane, p, ok| {
            assert!(ok);
            penalties[lane] = p;
        });
        obj.backward_batch(&mut scratch);
        let mut grad = Vec::new();
        for (lane, y) in points.iter().enumerate() {
            obj.grad_lane(&scratch, lane, &mut grad);
            let (c1, s1, g1) = obj.cost_and_grad(&model, 1.0, y);
            assert_eq!(s1.to_bits(), scores[lane].to_bits());
            assert_eq!(c1.to_bits(), (-scores[lane] + penalties[lane]).to_bits());
            for (a, b) in grad.iter().zip(&g1) {
                assert_eq!(a.to_bits(), b.to_bits(), "lane {lane}");
            }
        }
    }

    #[test]
    fn penalties_activate_outside_feasible_region() {
        let (obj, _) = build_dense_objective();
        let mut rng = StdRng::seed_from_u64(1);
        let model = Mlp::new(&mut rng);
        // Feasible-ish point vs. threads blown to 512x512.
        let ok = vec![0.5, 2.3, 1.1, 0.4, 2.0, 1.3, 1.9, 3.5];
        let bad = vec![0.5, 6.3, 1.1, 0.4, 6.3, 1.3, 1.9, 3.5];
        let c_ok = obj.cost_and_grad(&model, 1.0, &ok).0;
        let c_bad = obj.cost_and_grad(&model, 1.0, &bad).0;
        assert!(c_bad > c_ok + 10.0, "penalty must dominate: {c_ok} vs {c_bad}");
    }

    #[test]
    fn saturated_coordinates_are_clamped_finite_on_both_paths() {
        // One coordinate blown far past the clamp: the tape sees e^Y_CLAMP,
        // not e^700 = Inf, so the whole lane stays finite — and the pool
        // oracle applies the identical clamp, keeping the bitwise
        // equivalence guarantee intact even at pathological points.
        let (obj, _) = build_dense_objective();
        let mut rng = StdRng::seed_from_u64(3);
        let model = Mlp::new(&mut rng);
        let saturated = vec![700.0, 2.3, 1.1, 0.4, 2.0, 1.3, 1.9, -900.0];
        let (c_tape, s_tape, g_tape) = obj.cost_and_grad(&model, 1.0, &saturated);
        let (c_pool, s_pool, g_pool) = obj.cost_and_grad_pool(&model, 1.0, &saturated);
        assert_eq!(c_tape.to_bits(), c_pool.to_bits());
        assert_eq!(s_tape.to_bits(), s_pool.to_bits());
        for (a, b) in g_tape.iter().zip(&g_pool) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(s_tape.is_finite(), "clamped features must keep the score finite");
        assert_eq!(roots_finite(&obj, &saturated), (true, true), "all roots finite after clamp");
    }

    /// The descent loop's two tape-level finiteness verdicts for one
    /// point: (every feature root finite, every penalty root finite).
    fn roots_finite(obj: &SketchObjective, y: &[f64]) -> (bool, bool) {
        let mut scratch = EvalScratch::default();
        obj.begin_batch(&mut scratch, 1);
        obj.set_lane(&mut scratch, 0, y);
        obj.forward_batch(&mut scratch);
        let mut feats = vec![0.0; obj.n_feats()];
        let (mut feats_ok, mut pens_ok) = (false, false);
        obj.write_feats_cols(&mut scratch, &[0], 1, &mut feats, |_, ok| feats_ok = ok);
        obj.seed_penalties_all(&mut scratch, 1.0, |_, _, ok| pens_ok = ok);
        (feats_ok, pens_ok)
    }

    #[test]
    fn nan_coordinates_are_detected_not_laundered() {
        // NaN must pass through the clamp (f64::clamp propagates NaN) and
        // be caught by the tape-level finiteness check, not silently turned
        // into a boundary value.
        let (obj, _) = build_dense_objective();
        let mut y = vec![0.5, 2.3, 1.1, 0.4, 2.0, 1.3, 1.9, 3.5];
        y[2] = f64::NAN;
        assert_ne!(roots_finite(&obj, &y), (true, true));
    }

    #[test]
    fn healthy_objective_is_not_pathological() {
        let (obj, _) = build_dense_objective();
        assert!(!obj.pathological, "dense objective must probe finite at y=0");
    }

    #[test]
    fn x_y_round_trips() {
        let (obj, program) = build_dense_objective();
        let x = vec![2.0, 16.0, 4.0, 2.0, 16.0, 4.0, 8.0, 64.0];
        let y = obj.to_y_space(&x);
        let x2 = obj.to_x_space(&y, program.vars.len());
        for (a, b) in x.iter().zip(&x2) {
            assert!((a - b).abs() < 1e-9, "{x:?} vs {x2:?}");
        }
    }

    #[test]
    fn substitution_eliminates_x_vars() {
        let (obj, _) = build_dense_objective();
        let free = obj
            .program
            .pool
            .free_vars(&[obj.log_feat_roots.clone(), obj.penalty_roots.clone()].concat());
        for sv in &obj.program.sched_vars {
            assert!(
                !free.contains(&sv.var),
                "original schedule var {:?} must be substituted away",
                sv.var
            );
        }
    }
}
