//! Gradient-descent schedule search (Algorithm 1, §3.4).
//!
//! `nSeeds` relaxed schedules are optimized simultaneously with Adam over
//! the differentiable objective of [`crate::objective`]; every point visited
//! is rounded back to a valid integer schedule (tile sizes round to factors
//! in log space), validated, ranked by cost-model-predicted performance, and
//! the top `nMeasure` go to the hardware (simulator).
//!
//! # Round once, check once per distinct schedule
//!
//! The seeds visit `nSeeds × nSteps` points, but far fewer distinct integer
//! schedules (on ResNet-50, ≈ 140 of 3 200). Each point is rounded exactly
//! once, through its sketch's [`felix_tir::sketch::RoundingPlan`] (built
//! once per task), by the segment that visited it, right after the Adam
//! step that reached it. One serial pass then keys every rounded point, in
//! step-major seed order, by its [`felix_ansor::ScheduleKey`]: the
//! constraint and already-measured checks run on a key's first occurrence
//! only, and every later occurrence reuses that verdict, so the violation
//! and duplicate counts are still per point. Only the fresh distinct
//! schedules are scored.
//!
//! # Objectives are compiled once per process
//!
//! A round's sketch objectives come from the process memo of search spaces
//! (`spaces.rs`), keyed by the task's [`felix_ansor::SpaceKey`] and the
//! [`PipelineOptions`]: the first descent on a space anywhere in the
//! process compiles them, in parallel over sketches, and every later round
//! of any task, optimizer or serve job on that key reuses them. A proposer
//! keeps no objectives of its own; [`TunerStats::cache_hits`] and
//! [`TunerStats::cache_misses`] count the memo's verdict per sketch.
//!
//! # Parallel, batched execution
//!
//! One work item is a group: one worker's share of the round's seeds. The
//! seeds are taken in sketch order (each sketch's by ascending global
//! index) and cut into shares of `⌈nSeeds / workers⌉` lanes, so a group may
//! span sketches; its runs of one sketch's seeds are its segments. Both
//! halves of each Adam step are batched. The expression side runs per
//! segment on the sketch's compiled gradient tape
//! ([`felix_expr::CompiledGradTape`], built once per objective): the
//! segment's seeds sweep the tape's fused forward and reverse passes in one
//! structure-of-arrays pass over its lanes, with its scratch buffers reused
//! across steps so the steady-state loop allocates only the rounded points.
//! The cost model runs per group: each Adam step makes ONE
//! [`PackedMlp::input_gradient_batch_cols`] call over all the group's lanes,
//! every segment reading and writing its own columns of one feature-major
//! matrix, so each worker's MLP batch is as wide as its share whatever the
//! sketches; candidate ranking batches its predictions the same way, all
//! against one packed view of the weights built per `propose`. Groups (and
//! independent sketch objectives) run on a scoped-thread pool
//! ([`crate::parallel`]) whose workers self-schedule from a shared queue.
//! Every batched MLP row is bit-identical to the scalar path whatever else
//! shares its batch, restart substreams are keyed by global seed index,
//! group results are read back in step-major seed order, and all randomness
//! is drawn from the master RNG in a fixed serial order (per-seed work uses
//! derived `StdRng` streams), so the search result is **bit-identical at
//! every thread count** — `threads: 1` is the proof path, `threads: 0` (one
//! worker per core) the fast path.

use crate::health::{restart_salt, restart_stream, round_report, SeedHealth, SketchHealth};
use crate::objective::{EvalScratch, PipelineOptions, SketchObjective};
use crate::parallel::{effective_threads, parallel_map};
use crate::spaces::{SpaceMemo, SPACES};
use felix_ansor::evolution::EvolutionConfig;
use felix_ansor::{
    schedule_key, EvolutionaryProposer, HealthReport, Proposer, ScheduleKey, SearchTask,
    SketchMode, SketchState, TunerStats,
};
use felix_cost::{
    total_cmp_desc_nan_last, total_cmp_nan_last, AdamOpt, Mlp, MlpScratch, PackedMlp,
};
use felix_features::FEATURE_COUNT;
use felix_sim::clock::ClockCosts;
use felix_sim::{FaultPlan, TuningClock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;

/// Random draws per non-warm seed slot; the best-predicted draw becomes the
/// slot's starting point (a single blind draw frequently lands in a poor
/// basin of the multi-modal relaxed landscape).
const SEED_INIT_DRAWS: usize = 8;

/// Constraint-penalty coefficient `λ` of the objective
/// `O = −C + λ Σ max(g, 0)²` (Equation 4).
const LAMBDA: f64 = 1.0;

/// Adam learning rate in `y = ln x` space.
const LR: f64 = 0.08;

/// Gradient-norm clip for seeds of a [`SketchMode::Gradient`] sketch.
/// Healthy gradients stay orders of magnitude below it.
const GRAD_CLIP: f64 = 1e8;

/// Tighter clip for sketches degraded to [`SketchMode::ClippedGradient`].
const CLIPPED_GRAD_CLIP: f64 = 1e2;

/// Per-restart Adam learning-rate multiplier (trust-region backoff).
const TRUST_BACKOFF: f64 = 0.5;

/// Hyperparameters of the gradient-descent search (paper §5 defaults).
#[derive(Clone, Copy, Debug)]
pub struct FelixOptions {
    /// Schedules optimized simultaneously (`nSeeds`, default 16).
    pub n_seeds: usize,
    /// Gradient-descent steps per round (`nSteps`, default 200).
    pub n_steps: usize,
    /// Worker threads: `0` = one per available core, `1` = serial. The
    /// search result is bit-identical for every setting.
    pub threads: usize,
    /// Which rewriting stages to apply (ablation knob; all on by default).
    pub pipeline: PipelineOptions,
    /// Test hook: the descent of this sketch panics on its first step,
    /// exercising the supervisor's panic isolation deterministically (the
    /// descent-level sibling of the serving tier's `fault_panic_round`).
    pub inject_panic_sketch: Option<usize>,
    /// Measurement faults injected during tuning (testing / chaos runs).
    /// The default zero-rate plan leaves every result byte-identical to a
    /// run without a fault layer.
    pub fault_plan: FaultPlan,
}

impl Default for FelixOptions {
    fn default() -> Self {
        FelixOptions {
            // 16 seeds per round: the compiled tape's per-sweep costs
            // (instruction-stream traversal, dispatch, row setup) amortize
            // across the seed batch, so the wider batch is ~17% cheaper per
            // seed than 8 on dense-512 while exploring more restarts.
            n_seeds: 16,
            n_steps: 200,
            threads: 0,
            pipeline: PipelineOptions::default(),
            inject_panic_sketch: None,
            fault_plan: FaultPlan::none(),
        }
    }
}

/// One descending schedule: its current y-space point, Adam state, and
/// supervision state.
struct Seed {
    y: Vec<f64>,
    opt: AdamOpt,
    health: SeedHealth,
}

impl Seed {
    /// A seed at `y`, with fresh Adam and supervision state.
    fn new(y: Vec<f64>) -> Seed {
        let opt = AdamOpt::new(y.len(), LR);
        Seed { y, opt, health: SeedHealth::default() }
    }
}

/// One sketch's run of seeds inside a [`Group`]: the group's columns
/// `cols`, whose seeds are that sketch's, by ascending global index.
#[derive(Clone)]
struct Segment {
    sketch: usize,
    cols: Range<usize>,
}

/// One work item of a round's descent: one worker's share of the round's
/// seeds, taken in sketch order (each sketch's seeds by ascending global
/// index), and cut at sketch boundaries into [`Segment`]s. Lane (column)
/// `l` of the group is global seed `seeds[l]`; all its segments share one
/// cost-model call per step.
#[derive(Clone)]
struct Group {
    seeds: Vec<usize>,
    segments: Vec<Segment>,
}

/// Cuts a round's seeds, where seed `g` descends sketch `sketch_of[g]`, into
/// groups of `width` lanes (the last may be narrower), in sketch order.
fn cut_groups(sketch_of: &[usize], width: usize) -> Vec<Group> {
    let mut order: Vec<usize> = (0..sketch_of.len()).collect();
    order.sort_by_key(|&g| sketch_of[g]);
    let group = |share: &[usize]| {
        let mut first = 0;
        let runs = share.chunk_by(|&a, &b| sketch_of[a] == sketch_of[b]);
        let segments = runs
            .map(|run| {
                first += run.len();
                Segment { sketch: sketch_of[run[0]], cols: first - run.len()..first }
            })
            .collect();
        Group { seeds: share.to_vec(), segments }
    };
    order.chunks(width).map(group).collect()
}

/// What a group returns: per-step scores and rounded points (step-major,
/// one per lane per step), its supervision counters, and the health of each
/// segment's lanes, in segment order.
struct GroupOut {
    scores: Vec<f64>,
    rounded: Vec<Vec<f64>>,
    counters: HealthReport,
    health: Vec<SketchHealth>,
}

/// An empty type. The process memo of search spaces and their compiled
/// objectives (`spaces.rs`) is the only objective cache. Pinned by the
/// frozen ledger: `benchmark/` names this type and
/// [`GradientProposer::with_shared_tape_cache`] until ROADMAP item 1 step
/// B deletes them there.
#[derive(Debug, Default)]
pub struct TapeCache;

impl TapeCache {
    /// The empty value.
    pub fn new() -> TapeCache {
        TapeCache
    }
}

/// The gradient-descent candidate proposer (Felix's search algorithm).
pub struct GradientProposer {
    /// Hyperparameters.
    pub options: FelixOptions,
    /// Where the compiled objectives come from: the process memo, except
    /// in tests that need a memo of their own.
    memo: &'static SpaceMemo,
    trace: Vec<f64>,
    stats: Vec<TunerStats>,
    health: HealthReport,
    /// The last round's groups: which seeds shared each worker's MLP
    /// calls (read by the tests of the cut).
    groups: Vec<Group>,
}

impl GradientProposer {
    /// A proposer with the given options.
    pub fn new(options: FelixOptions) -> Self {
        GradientProposer {
            options,
            memo: &SPACES,
            trace: Vec::new(),
            stats: Vec::new(),
            health: HealthReport::default(),
            groups: Vec::new(),
        }
    }

    /// Returns `self` unchanged. Pinned by the frozen ledger (see
    /// [`TapeCache`]).
    #[must_use]
    pub fn with_shared_tape_cache(self, _cache: Arc<TapeCache>) -> Self {
        self
    }
}

/// [`SearchTask::score_candidates`] over `cands` in one chunk per worker:
/// `threads` equal chunks, each a multiple of 8 rows (the forward kernel's
/// widest sample block), so no worker idles on a short last chunk. Chunk
/// results are concatenated in index order and every row is bit-identical
/// to a scalar `predict`, so the scores do not depend on the thread count.
fn score_candidates(
    task: &SearchTask,
    model: &PackedMlp,
    threads: usize,
    cands: &[(usize, Vec<f64>)],
) -> Vec<f64> {
    let chunk = cands.len().div_ceil(threads.max(1)).next_multiple_of(8).max(8);
    let chunks: Vec<&[(usize, Vec<f64>)]> = cands.chunks(chunk).collect();
    parallel_map(chunks.len(), threads, |ci| task.score_candidates(model, chunks[ci])).concat()
}

/// Runs `f` inside the per-sketch panic-isolation boundary; `false` means
/// a panic was caught.
fn run_guarded(f: impl FnOnce()) -> bool {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_ok()
}

/// Restarts one seed of sketch `st` from its dedicated RNG substream: a fresh
/// random schedule drawn from `restart_stream(salt, global_idx,
/// restart_count)` and a fresh Adam state with the learning rate backed off
/// by `TRUST_BACKOFF^restarts` (a shrinking trust region). Never touches
/// the master RNG, so seeds that don't restart are unaffected. Freezes the
/// seed instead when its restart budget is spent.
fn restart_seed(
    seed: &mut Seed,
    st: &SketchState,
    obj: &SketchObjective,
    salt: u64,
    global_idx: usize,
    counters: &mut HealthReport,
) {
    if !seed.health.consume_restart() {
        return;
    }
    counters.seed_restarts += 1;
    let stream = restart_stream(salt, global_idx, seed.health.restarts);
    let mut srng = StdRng::seed_from_u64(stream);
    let x = felix_cost::random_schedule(&st.program, &st.rounding, &mut srng, 64);
    seed.y = obj.to_y_space(&x);
    let lr = LR * TRUST_BACKOFF.powi(seed.health.restarts as i32);
    seed.opt = AdamOpt::new(seed.y.len(), lr);
}

/// One segment's descent state inside [`descend_group`]: its sketch's
/// objective, its seeds and the tape scratch its lanes sweep.
struct SegmentRun<'a> {
    sketch: usize,
    obj: &'a SketchObjective,
    st: &'a SketchState,
    clip: f64,
    /// The segment's columns of the group's matrices, one per lane.
    cols: Vec<usize>,
    /// Global seed index of each lane.
    globals: &'a [usize],
    seeds: Vec<Seed>,
    scratch: EvalScratch,
    pen: Vec<f64>,
    // Tape-level finiteness verdicts, derived for free inside
    // `write_feats_cols`/`seed_penalties_all` (which already read every
    // root) — a standalone root scan per lane per step costs a
    // cache-hostile pass over the tape values.
    feat_ok: Vec<bool>,
    pen_ok: Vec<bool>,
    health: SketchHealth,
}

impl<'a> SegmentRun<'a> {
    /// The segment `seg` of `group`, its seeds at their `starts`, under
    /// the gradient clip of its sketch's mode in `task`.
    fn new(
        objectives: &'a [SketchObjective],
        task: &'a SearchTask,
        starts: &[(usize, Vec<f64>)],
        group: &'a Group,
        seg: &Segment,
    ) -> Self {
        let sketch = seg.sketch;
        let clip = if task.sketch_modes()[sketch] == SketchMode::ClippedGradient {
            CLIPPED_GRAD_CLIP
        } else {
            GRAD_CLIP
        };
        let globals = &group.seeds[seg.cols.clone()];
        let lanes = globals.len();
        SegmentRun {
            sketch,
            obj: &objectives[sketch],
            st: &task.sketches[sketch],
            clip,
            cols: seg.cols.clone().collect(),
            globals,
            seeds: globals.iter().map(|&g| Seed::new(starts[g].1.clone())).collect(),
            scratch: EvalScratch::default(),
            pen: vec![0.0; lanes],
            feat_ok: vec![true; lanes],
            pen_ok: vec![true; lanes],
            health: SketchHealth { lanes, ..SketchHealth::default() },
        }
    }

    /// The first half of step `step`: one batched forward tape sweep over
    /// the segment's lanes, writing their features into its columns of the
    /// feature-major matrix `feats_t` (`n_total` columns). A poisoned
    /// segment's columns are zero rows instead.
    fn forward(&mut self, step: usize, opts: &FelixOptions, n_total: usize, feats_t: &mut [f64]) {
        if !self.health.poisoned {
            let SegmentRun { sketch, obj, cols, seeds, scratch, feat_ok, .. } = self;
            self.health.poisoned = !run_guarded(|| {
                if step == 0 && opts.inject_panic_sketch == Some(*sketch) {
                    panic!("injected descent panic (sketch {sketch})");
                }
                obj.begin_batch(scratch, seeds.len());
                for (lane, seed) in seeds.iter().enumerate() {
                    obj.set_lane(scratch, lane, &seed.y);
                }
                obj.forward_batch(scratch);
                // Feature extraction transposed over all lanes (roots
                // outer, lanes inner) — per lane the values the batch-of-one
                // `SketchObjective::cost_and_grad` reads.
                obj.write_feats_cols(scratch, cols, n_total, feats_t, |lane, ok| {
                    feat_ok[lane] = ok;
                });
            });
        }
        if self.health.poisoned {
            let span = self.cols[0]..self.cols[0] + self.cols.len();
            for row in feats_t.chunks_exact_mut(n_total) {
                row[span.clone()].fill(0.0);
            }
        }
    }

    /// The second half: from the cost model's scores and feature-major
    /// input gradients over all `n_total` columns, one batched reverse
    /// sweep over the segment's lanes, then each lane's supervision checks
    /// and Adam update. `grad` is scratch for one lane's gradient.
    fn backward(
        &mut self,
        n_total: usize,
        (mlp_scores, mlp_grads): (&[f64], &[f64]),
        salt: u64,
        grad: &mut Vec<f64>,
        counters: &mut HealthReport,
    ) {
        if self.health.poisoned {
            return;
        }
        let SegmentRun {
            obj, st, clip, cols, globals, seeds, scratch, pen, feat_ok, pen_ok, health, ..
        } = self;
        let ok = run_guarded(|| {
            // Feature seeding straight from the feature-major MLP gradient
            // buffer, then penalty seeding batched the same way — per lane
            // the seeds `SketchObjective::cost_and_grad` sets, in its root
            // order.
            obj.seed_feats_cols(scratch, cols, n_total, mlp_grads);
            obj.seed_penalties_all(scratch, LAMBDA, |lane, p, ok| {
                pen[lane] = p;
                pen_ok[lane] = ok;
            });
            obj.backward_batch(scratch);
            for (lane, seed) in seeds.iter_mut().enumerate() {
                if seed.health.exhausted {
                    continue;
                }
                obj.grad_lane(scratch, lane, grad);
                // Minimized objective: O = -score + λ·penalty. The squared
                // gradient norm doubles as the finiteness probe (a NaN/Inf
                // component poisons the sum) and as the clip test below —
                // one pass over the gradient covers both.
                let obj_val = -mlp_scores[cols[lane]] + pen[lane];
                let norm_sq = grad.iter().map(|g| g * g).sum::<f64>();
                let finite =
                    obj_val.is_finite() && norm_sq.is_finite() && feat_ok[lane] && pen_ok[lane];
                let global = globals[lane];
                if !finite {
                    counters.nonfinite_events += 1;
                    health.events += 1;
                    restart_seed(seed, st, obj, salt, global, counters);
                    continue;
                }
                if seed.health.note_objective(obj_val) {
                    counters.divergence_events += 1;
                    health.events += 1;
                    restart_seed(seed, st, obj, salt, global, counters);
                    continue;
                }
                if norm_sq > *clip * *clip {
                    let scale = *clip / norm_sq.sqrt();
                    for g in grad.iter_mut() {
                        *g *= scale;
                    }
                    counters.grad_clips += 1;
                    health.events += 1;
                }
                seed.opt.step(&mut seed.y, grad);
            }
        });
        health.poisoned = !ok;
    }
}

/// Runs the full Adam descent of one group, whose seeds start at
/// `starts[g].1` for each global index `g` in `group.seeds`. Per step each
/// segment runs ONE batched forward tape sweep over its lanes, writing its
/// columns of one feature-major matrix; the group makes ONE matrix-shaped
/// MLP call over all its lanes; then each segment runs ONE batched reverse
/// sweep and its per-seed Adam updates, and rounds every lane's new point
/// through its sketch's `RoundingPlan`. All scratch buffers live outside
/// the step loop. Every MLP row is bit-identical to a scalar call whatever
/// shares its batch, and lane layout never changes accumulation order, so
/// scores and points are bit-identical to a serial seed-at-a-time descent.
///
/// Every step of every lane is health-checked (non-finite
/// objective/gradient/tape roots, monotone divergence, gradient-norm clip),
/// and each segment's tape work runs inside its own panic-isolation
/// boundary: a panic poisons the segment — its lanes freeze and score a
/// zero feature row, so the trace keeps its shape — while every other
/// segment, in this group or another, descends untouched. Restart
/// substreams are keyed by global seed index, so they do not depend on how
/// the seeds were cut into groups.
fn descend_group(
    objectives: &[SketchObjective],
    task: &SearchTask,
    model: &PackedMlp,
    opts: &FelixOptions,
    salt: u64,
    starts: &[(usize, Vec<f64>)],
    group: &Group,
) -> GroupOut {
    let lanes = group.seeds.len();
    let mut segments: Vec<SegmentRun> = group
        .segments
        .iter()
        .map(|seg| SegmentRun::new(objectives, task, starts, group, seg))
        .collect();
    let mut counters = HealthReport::default();
    // Feature matrix, feature-major (`feats_t[k * lanes + l]` is lane `l`'s
    // feature `k`): the transposed extraction pass writes contiguous root
    // rows into it, and the batched MLP call reads it as is (its layer-0
    // normalize is the only pass that turns it sample-major).
    let mut feats_t: Vec<f64> = vec![0.0; FEATURE_COUNT * lanes];
    let mut grad: Vec<f64> = Vec::new();
    // MLP arena: the batched kernels reuse these across all steps, so
    // the per-step cost-model call allocates nothing in steady state.
    let mut mlp_scratch = MlpScratch::default();
    let mut mlp_scores: Vec<f64> = Vec::new();
    let mut mlp_grads: Vec<f64> = Vec::new();
    let mut scores = Vec::with_capacity(opts.n_steps * lanes);
    let mut rounded = Vec::with_capacity(opts.n_steps * lanes);
    for step in 0..opts.n_steps {
        for seg in &mut segments {
            seg.forward(step, opts, lanes, &mut feats_t);
        }
        model.input_gradient_batch_cols(
            &feats_t,
            lanes,
            &mut mlp_scratch,
            &mut mlp_scores,
            &mut mlp_grads,
        );
        scores.extend_from_slice(&mlp_scores[..lanes]);
        for seg in &mut segments {
            seg.backward(lanes, (&mlp_scores, &mlp_grads), salt, &mut grad, &mut counters);
        }
        for seg in &segments {
            for seed in &seg.seeds {
                let mut x = seg.obj.to_x_space(&seed.y, seg.st.program.vars.len());
                seg.st.rounding.round_in_place(&mut x);
                rounded.push(x);
            }
        }
    }
    let health = segments
        .iter()
        .map(|seg| SketchHealth {
            exhausted_lanes: seg.seeds.iter().filter(|s| s.health.exhausted).count(),
            ..seg.health
        })
        .collect();
    GroupOut { scores, rounded, counters, health }
}

impl Default for GradientProposer {
    fn default() -> Self {
        Self::new(FelixOptions::default())
    }
}

impl Proposer for GradientProposer {
    fn name(&self) -> &'static str {
        "felix-gradient"
    }

    fn propose(
        &mut self,
        task: &SearchTask,
        model: &Mlp,
        n: usize,
        clock: &mut TuningClock,
        _costs: &ClockCosts,
        rng: &mut StdRng,
    ) -> Vec<(usize, Vec<f64>)> {
        let opts = self.options;
        let threads = effective_threads(opts.threads);
        let mut stats = TunerStats { threads, ..TunerStats::default() };
        let (objectives, built) =
            self.memo.objectives(task.sketches.space(), opts.pipeline, threads);
        if built {
            stats.cache_misses = objectives.len();
        } else {
            stats.cache_hits = objectives.len();
        }
        for o in objectives.iter() {
            stats.pool_nodes += o.program.pool.len();
            stats.tape_nodes += o.tape.len();
        }
        let objectives = &objectives[..];
        // One packed (transposed-weights) view of the model serves every
        // batched cost-model call of this round — seed-init scoring, the
        // descent workers, candidate ranking — and is dropped on return, so
        // no second weight copy outlives the round.
        let packed = model.pack();

        // --- Supervision state ---------------------------------------------
        // The task's per-sketch modes (degradation ladder position) gate
        // which sketches still descend by gradient. Sketches whose compiled
        // tape is pathological (non-finite at the neutral point) are routed
        // to the evolutionary fallback outright — descending them would only
        // burn the restart budget.
        let modes = task.sketch_modes();
        let pathological: Vec<bool> = (0..objectives.len())
            .map(|i| {
                objectives[i].pathological && modes[i].uses_gradient() && !task.is_quarantined(i)
            })
            .collect();

        // --- Seed initialization -------------------------------------------
        // Warm-start half the seeds from the best schedules measured in
        // earlier rounds (local refinement); the remaining slots explore,
        // each starting from the best-predicted of SEED_INIT_DRAWS random
        // draws. Exploration slots use per-slot StdRng streams whose seeds
        // are drawn from the master RNG serially, so slot initialization can
        // run on the pool without perturbing any other random draw.
        // Quarantined sketches (persistent measurement failures) and
        // degraded sketches (evolutionary mode or pathological tape) are
        // skipped by warm starts and exploration slots. With nothing
        // quarantined or degraded the gradient-eligible list is the identity
        // permutation.
        let (gd_active, evo_active): (Vec<usize>, Vec<usize>) = task
            .active_sketches()
            .into_iter()
            .partition(|&s| modes[s].uses_gradient() && !pathological[s]);
        let mut elites: Vec<&(usize, Vec<f64>, f64)> = task
            .measured
            .iter()
            .filter(|(sk, _, _)| gd_active.contains(sk))
            .collect();
        elites.sort_by(|a, b| total_cmp_nan_last(&a.2, &b.2));
        let n_warm = (opts.n_seeds / 2).min(elites.len());
        // Each seed's sketch and y-space starting point, by global index.
        let mut starts: Vec<(usize, Vec<f64>)> = Vec::with_capacity(opts.n_seeds);
        for e in elites.iter().take(n_warm) {
            starts.push((e.0, objectives[e.0].to_y_space(&e.1)));
        }
        // Schedule-cache warm hints fill whatever warm slots the elites left
        // (a task with measurements ignores hints — its own history wins).
        // Hints consume no RNG: with none set, `slots` below starts at the
        // same index with the same master-RNG position, so a hint-free task
        // is byte-identical to a cache-unaware run.
        for (sketch, x) in &task.warm_hints {
            if starts.len() >= (opts.n_seeds / 2).max(1) {
                break;
            }
            if !gd_active.contains(sketch) || !task.fits(*sketch, x) {
                continue;
            }
            starts.push((*sketch, objectives[*sketch].to_y_space(x)));
        }
        let slots: Vec<(usize, u64)> = if gd_active.is_empty() {
            Vec::new()
        } else {
            (starts.len()..opts.n_seeds)
                .map(|i| (gd_active[i % gd_active.len()], rng.gen::<u64>()))
                .collect()
        };
        let inits: Vec<Vec<f64>> = parallel_map(slots.len(), threads, |j| {
            let (sketch, stream) = slots[j];
            let mut srng = StdRng::seed_from_u64(stream);
            let st = &task.sketches[sketch];
            let cands: Vec<(usize, Vec<f64>)> = (0..SEED_INIT_DRAWS)
                .map(|_| {
                    (sketch, felix_cost::random_schedule(&st.program, &st.rounding, &mut srng, 64))
                })
                .collect();
            let scores = task.score_candidates(&packed, &cands);
            let best = scores
                .iter()
                .enumerate()
                .max_by(|a, b| total_cmp_desc_nan_last(b.1, a.1))
                .map_or(0, |(i, _)| i);
            cands.into_iter().nth(best).expect("SEED_INIT_DRAWS >= 1").1
        });
        clock.charge_batched_predictions(slots.len() * SEED_INIT_DRAWS);
        for ((sketch, _), x) in slots.iter().zip(inits) {
            starts.push((*sketch, objectives[*sketch].to_y_space(&x)));
        }

        // --- Adam descent and rounding (line 15-20) ------------------------
        // One group per worker: the seeds in sketch order, cut into shares
        // of equal width, so every worker makes one cost-model call of
        // about the same number of rows per step, and a sketch's seeds
        // share one tape sweep wherever its segment allows.
        let n_live = starts.len();
        for _ in 0..opts.n_steps {
            clock.charge_gradient_step(n_live);
        }
        let salt = restart_salt(&task.name, task.rounds);
        let width = n_live.div_ceil(threads.min(n_live).max(1)).max(1);
        let sketch_of: Vec<usize> = starts.iter().map(|s| s.0).collect();
        let groups = cut_groups(&sketch_of, width);
        self.groups.clone_from(&groups);
        let descent_start = std::time::Instant::now();
        let mut outs = parallel_map(groups.len(), threads, |i| {
            descend_group(objectives, task, &packed, &opts, salt, &starts, &groups[i])
        });
        let descent_s = descent_start.elapsed().as_secs_f64();
        stats.grad_steps = n_live * opts.n_steps;
        stats.steps_per_sec = stats.grad_steps as f64 / descent_s.max(1e-12);

        // --- Health accounting ---------------------------------------------
        // Group counters add up and segment health merges per sketch, so a
        // sketch cut into several segments still counts one panic; the
        // merged lanes decide every sketch's mode for the next round.
        let mut counters = HealthReport::default();
        let mut sketch_health = vec![SketchHealth::default(); objectives.len()];
        for (group, out) in groups.iter().zip(&outs) {
            counters.merge(&out.counters);
            for (seg, health) in group.segments.iter().zip(&out.health) {
                sketch_health[seg.sketch].merge(health);
            }
        }
        let health = round_report(counters, &sketch_health, modes, &pathological);
        stats.seed_restarts = health.seed_restarts;
        stats.nonfinite_events = health.nonfinite_events;
        stats.panics_caught = health.panics_caught;
        stats.degraded_sketches =
            health.modes.iter().filter(|&&m| m != SketchMode::Gradient).count();
        self.health.merge(&health);

        // --- Trace, validate, dedupe ------------------------------------------
        // Scores and rounded points are read back in step-major global seed
        // order. The constraint and already-measured checks run on a
        // schedule's first occurrence; later occurrences reuse its verdict
        // (feasible or not), so violations and duplicates are still counted
        // per point.
        let mut lane_of = vec![(0, 0); n_live];
        for (i, group) in groups.iter().enumerate() {
            for (lane, &g) in group.seeds.iter().enumerate() {
                lane_of[g] = (i, lane);
            }
        }
        stats.candidates = n_live * opts.n_steps;
        let mut violations = 0usize;
        let mut duplicates = 0usize;
        let mut feasible: HashMap<ScheduleKey, bool> = HashMap::new();
        let mut cands: Vec<(usize, Vec<f64>)> = Vec::new();
        for step in 0..opts.n_steps {
            for (&sk, &(i, lane)) in sketch_of.iter().zip(&lane_of) {
                let k = step * groups[i].seeds.len() + lane;
                self.trace.push(outs[i].scores[k]);
                let x = std::mem::take(&mut outs[i].rounded[k]);
                match feasible.entry(schedule_key(sk, &x)) {
                    Entry::Occupied(e) if *e.get() => duplicates += 1,
                    Entry::Occupied(_) => violations += 1,
                    Entry::Vacant(e) => {
                        let ok = *e.insert(task.sketches[sk].program.constraints_ok(&x, 1e-9));
                        if !ok {
                            violations += 1;
                        } else if task.already_measured(sk, &x) {
                            duplicates += 1;
                        } else {
                            cands.push((sk, x));
                        }
                    }
                }
            }
        }
        stats.distinct_candidates = feasible.len();
        if stats.candidates > 0 {
            stats.penalty_violation_rate = violations as f64 / stats.candidates as f64;
            stats.rounding_rejection_rate = duplicates as f64 / stats.candidates as f64;
        }
        // Survivors in the order of their `"{sk}:{x:?}"` strings: this pins
        // the candidate order that scoring, the neighbour draws and the
        // selection below see, which the bit-identity bars depend on.
        cands.sort_by_cached_key(|(sk, x)| format!("{sk}:{x:?}"));

        // --- Rank by predicted performance on the exact features (line 21),
        // in parallel batches.
        let cand_scores = score_candidates(task, &packed, threads, &cands);
        clock.charge_batched_predictions(cands.len());
        let mut ranked: Vec<(f64, usize, Vec<f64>)> = cand_scores
            .into_iter()
            .zip(cands)
            .map(|(s, (sk, x))| (s, sk, x))
            .collect();
        ranked.sort_by(|a, b| total_cmp_desc_nan_last(&a.0, &b.0));

        // --- Discretization repair: nearest rounding can lose the relaxed
        // optimum badly when an axis has few factors (coarse lattice), so
        // also score the single factor-move lattice neighbors of the best
        // rounded candidates and fold them into the ranking (§3.3 rounds to
        // the nearest factor; the neighbors are the adjacent discretizations
        // of the same relaxed point). Mutations draw from the master RNG in
        // a fixed serial order; only their scoring fans out.
        let mut seen: HashSet<ScheduleKey> =
            ranked.iter().map(|(_, sk, x)| schedule_key(*sk, x)).collect();
        let mut neighbors: Vec<(usize, Vec<f64>)> = Vec::new();
        for (_, sk, x) in ranked.iter().take(8) {
            let st = &task.sketches[*sk];
            for _ in 0..24 {
                let nb = felix_cost::mutate_schedule(&st.program, &st.rounding, x, rng, 4);
                if task.already_measured(*sk, &nb) || !seen.insert(schedule_key(*sk, &nb)) {
                    continue;
                }
                neighbors.push((*sk, nb));
            }
        }
        let nb_scores = score_candidates(task, &packed, threads, &neighbors);
        clock.charge_batched_predictions(neighbors.len());
        ranked.extend(
            nb_scores
                .into_iter()
                .zip(neighbors)
                .map(|(s, (sk, x))| (s, sk, x)),
        );
        ranked.sort_by(|a, b| total_cmp_desc_nan_last(&a.0, &b.0));

        // Greedy diverse selection: the trajectory of one seed yields many
        // near-identical rounded schedules; measuring 16 of those wastes the
        // hardware budget. Walk the ranking and skip candidates too close
        // (in log-schedule space) to an already-selected one; relax the
        // radius if the pool runs dry.
        let dist = |a: &[f64], b: &[f64]| -> f64 {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x.max(1.0).ln() - y.max(1.0).ln()).abs())
                .sum()
        };
        // Degraded sketches get a proportional slice of the measurement
        // budget, filled by the evolutionary fallback below; with nothing
        // degraded, or no budget to slice, the gradient path keeps the whole
        // budget (n_gd == n).
        let n_evo = if evo_active.is_empty() || n == 0 {
            0
        } else {
            ((n * evo_active.len()) / task.sketches.len()).clamp(1, n)
        };
        let n_gd = n - n_evo;
        let mut out: Vec<(usize, Vec<f64>)> = Vec::with_capacity(n);
        for radius in [1.4, 0.7, 0.0] {
            for (_, sk, x) in &ranked {
                if out.len() >= n_gd {
                    break;
                }
                let dup = out.iter().any(|(s, v)| {
                    s == sk && (v == x || dist(v, x) <= radius)
                });
                if !dup {
                    out.push((*sk, x.clone()));
                }
            }
            if out.len() >= n_gd {
                break;
            }
        }

        // --- Evolutionary fallback for degraded sketches --------------------
        // Sketches that fell off the gradient ladder (evolutionary mode or
        // pathological tape) still get measured: a fresh evolutionary
        // proposer searches just those sketches for their budget slice.
        if n_evo > 0 {
            let mut evo =
                EvolutionaryProposer::new(EvolutionConfig { population: 128, generations: 2 });
            let evo_cands = evo.propose_for_sketches(task, model, n_evo, clock, rng, &evo_active);
            for (sk, x) in evo_cands {
                if out.len() >= n {
                    break;
                }
                if !out.iter().any(|(s, v)| *s == sk && *v == x) {
                    out.push((sk, x));
                }
            }
        }
        self.stats.push(stats);
        out
    }

    fn take_prediction_trace(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.trace)
    }

    fn take_stats(&mut self) -> Vec<TunerStats> {
        std::mem::take(&mut self.stats)
    }

    fn take_health(&mut self) -> HealthReport {
        std::mem::take(&mut self.health)
    }

    fn note_measurement(&mut self, report: &felix_ansor::RoundReport) {
        // Fold the measurement outcome into the stats record `propose`
        // pushed for this round, so one `TunerStats` entry tells the whole
        // story of the round (search counters + fault counters).
        if let Some(stats) = self.stats.last_mut() {
            stats.measure_failures = report.failed;
            stats.measure_retries = report.retries;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use felix_ansor::{tune_task_round_with_sink, EvolutionaryProposer, TuneOptions};
    use felix_cost::{generate_dataset, pretrain, TrainConfig};
    use felix_graph::{Op, Subgraph, Task};
    use felix_sim::{DeviceConfig, Simulator};

    /// Pretraining dominates this suite's runtime, so every test shares one
    /// deterministic pretrained model (tests only read it or clone it).
    fn shared_model() -> &'static Mlp {
        static MODEL: std::sync::OnceLock<Mlp> = std::sync::OnceLock::new();
        MODEL.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(0);
            let ds = generate_dataset(&DeviceConfig::a5000(), 6, 14, 5);
            let mut mlp = Mlp::new(&mut rng);
            pretrain(
                &mut mlp,
                &ds.samples,
                &TrainConfig { epochs: 10, batch_size: 64, lr: 1e-3, seed: 0, ..Default::default() },
            );
            mlp
        })
    }

    fn setup() -> (SearchTask, Mlp, Simulator) {
        let sim = Simulator::new(DeviceConfig::a5000());
        let task = SearchTask::from_task(
            &Task {
                subgraph: Subgraph { ops: vec![Op::Dense { m: 512, k: 512, n: 512 }] },
                weight: 1,
            },
            &sim,
        );
        (task, shared_model().clone(), sim)
    }

    fn quick_opts() -> FelixOptions {
        FelixOptions { n_seeds: 4, n_steps: 40, ..Default::default() }
    }

    #[test]
    fn proposes_valid_unmeasured_candidates() {
        let (task, model, _sim) = setup();
        let mut prop = GradientProposer::new(quick_opts());
        let mut clock = TuningClock::new();
        let mut rng = StdRng::seed_from_u64(1);
        let cands = prop.propose(&task, &model, 8, &mut clock, &ClockCosts, &mut rng);
        assert!(!cands.is_empty(), "gradient search must yield candidates");
        for (sk, vals) in &cands {
            assert!(
                task.sketches[*sk].program.constraints_ok(vals, 1e-9),
                "invalid candidate {vals:?}"
            );
            // Every value is integral (rounded).
            assert!(vals.iter().all(|v| (v - v.round()).abs() < 1e-9));
        }
        assert!(clock.now_s() > 0.0);
    }

    #[test]
    fn nan_cost_model_does_not_panic_gradient_search() {
        // NaN predictions flood the descent trajectories and candidate
        // scores; seed selection, ranking, and elite sorting must all
        // tolerate them (the old `partial_cmp(..).expect(..)` comparators
        // aborted). No useful candidates are required — just no panic.
        let (task, _model, _sim) = setup();
        let mut rng = StdRng::seed_from_u64(13);
        let nan_model = {
            // Patch the (private) output-layer bias to NaN through the
            // serialized form; hidden-layer NaNs never reach the output
            // because the ReLU's `f32::max` swallows them.
            let mlp = Mlp::new(&mut rng);
            let mut bytes = Vec::new();
            mlp.save(&mut bytes).expect("save");
            let d = mlp.input_mean.len();
            let off = bytes.len() - 2 * (8 + 4 * d) - 4;
            bytes[off..off + 4].copy_from_slice(&f32::NAN.to_le_bytes());
            Mlp::load(bytes.as_slice()).expect("load")
        };
        let mut prop = GradientProposer::new(FelixOptions {
            n_seeds: 2,
            n_steps: 10,
            ..Default::default()
        });
        let mut clock = TuningClock::new();
        let cands = prop.propose(&task, &nan_model, 4, &mut clock, &ClockCosts, &mut rng);
        for (sk, vals) in &cands {
            assert!(task.sketches[*sk].program.constraints_ok(vals, 1e-9));
        }
    }

    #[test]
    fn descent_improves_predicted_score() {
        // The average predicted score of the population must improve from
        // the first steps to the last steps (Fig. 8's qualitative claim).
        let (task, model, _sim) = setup();
        let mut prop = GradientProposer::new(FelixOptions {
            n_seeds: 4,
            n_steps: 80,
            ..Default::default()
        });
        let mut clock = TuningClock::new();
        let mut rng = StdRng::seed_from_u64(2);
        prop.propose(&task, &model, 8, &mut clock, &ClockCosts, &mut rng);
        let trace = prop.take_prediction_trace();
        assert_eq!(trace.len(), 4 * 80);
        let early: f64 = trace[..40].iter().sum::<f64>() / 40.0;
        let late: f64 = trace[trace.len() - 40..].iter().sum::<f64>() / 40.0;
        assert!(
            late > early + 0.1,
            "gradient descent should raise predicted score: {early} -> {late}"
        );
    }

    /// A dense task whose space no other test in this binary builds, so
    /// the process memo has never seen it.
    fn unseen_task(sim: &Simulator) -> SearchTask {
        let subgraph = Subgraph { ops: vec![Op::Dense { m: 96, k: 320, n: 160 }] };
        SearchTask::from_task(&Task { subgraph, weight: 1 }, sim)
    }

    #[test]
    fn stats_record_descent_and_cache_behaviour() {
        let (_task, model, sim) = setup();
        let task = unseen_task(&sim);
        let mut prop = GradientProposer::new(quick_opts());
        let mut clock = TuningClock::new();
        let mut rng = StdRng::seed_from_u64(7);
        prop.propose(&task, &model, 8, &mut clock, &ClockCosts, &mut rng);
        prop.propose(&task, &model, 8, &mut clock, &ClockCosts, &mut rng);
        let stats = prop.take_stats();
        assert_eq!(stats.len(), 2);
        // The first round builds every sketch objective into the process
        // memo, the second reuses them.
        assert_eq!(stats[0].cache_misses, task.sketches.len());
        assert_eq!(stats[0].cache_hits, 0);
        assert_eq!(stats[1].cache_hits, task.sketches.len());
        assert_eq!(stats[1].cache_misses, 0);
        for s in &stats {
            assert_eq!(s.grad_steps, 4 * 40);
            assert!(s.steps_per_sec > 0.0);
            assert!(s.candidates > 0);
            assert!(0 < s.distinct_candidates && s.distinct_candidates <= s.candidates);
            assert!(s.threads >= 1);
            assert!((0.0..=1.0).contains(&s.penalty_violation_rate));
            assert!((0.0..=1.0).contains(&s.rounding_rejection_rate));
        }
        assert!(prop.take_stats().is_empty(), "stats drain");
    }

    #[test]
    fn clipped_sketch_recovers_after_one_clean_round() {
        // A clipped sketch whose round trips nothing steps back up to
        // gradient descent, and the round's stats count the sketches
        // degraded *after* it: none.
        let (mut task, model, _sim) = setup();
        task.set_sketch_modes(&[SketchMode::ClippedGradient, SketchMode::Gradient]);
        let mut prop = GradientProposer::new(quick_opts());
        let mut clock = TuningClock::new();
        let mut rng = StdRng::seed_from_u64(2);
        prop.propose(&task, &model, 8, &mut clock, &ClockCosts, &mut rng);
        assert_eq!(prop.take_stats()[0].degraded_sketches, 0);
        let health = prop.take_health();
        assert!(health.is_clean(), "a healthy round: {health:?}");
        assert!(task.apply_health(&health));
        assert_eq!(task.sketch_modes()[0], SketchMode::Gradient);
    }

    /// The determinism guarantee: with the same RNG seed, the proposer
    /// returns byte-for-byte the same candidates, prediction trace,
    /// simulated clock, rounding counters and health report at 1, 2, 3, 4
    /// and 16 threads, however the seeds are cut into work items. Batched
    /// MLP rows are bit-identical to scalar calls, restart substreams are
    /// keyed by global seed index, and all master-RNG draws happen in a
    /// fixed serial order, so this holds exactly, not approximately.
    fn assert_thread_counts_agree(task: &SearchTask, opts: FelixOptions) {
        let mut runs = Vec::new();
        for threads in [1, 2, 3, 4, 16] {
            let mut prop = GradientProposer::new(FelixOptions { threads, ..opts });
            let mut clock = TuningClock::new();
            let mut rng = StdRng::seed_from_u64(5);
            let cands = prop.propose(task, shared_model(), 8, &mut clock, &ClockCosts, &mut rng);
            let trace: Vec<u64> =
                prop.take_prediction_trace().iter().map(|v| v.to_bits()).collect();
            let s = prop.take_stats()[0];
            let counters = (
                s.candidates,
                s.distinct_candidates,
                s.penalty_violation_rate.to_bits(),
                s.rounding_rejection_rate.to_bits(),
            );
            let health = prop.take_health();
            runs.push((threads, (cands, trace, clock.now_s().to_bits(), counters, health)));
        }
        let serial = &runs[0].1;
        assert!(!serial.0.is_empty());
        for (threads, run) in &runs[1..] {
            assert_eq!(run, serial, "{threads} threads");
        }
    }

    #[test]
    fn parallel_search_is_bit_identical_to_serial() {
        let (task, _model, _sim) = setup();
        assert_thread_counts_agree(&task, quick_opts());
    }

    /// A task whose round descends 4 seeds on sketch 0 and 12 on sketch 1:
    /// eight measured elites on sketch 1 take all eight warm slots and the
    /// exploration slots alternate sketches. With its options.
    fn split_task() -> (SearchTask, FelixOptions) {
        let (mut task, _model, sim) = setup();
        assert_eq!(task.sketches.len(), 2);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..8 {
            let st = &task.sketches[1];
            let x = felix_cost::random_schedule(&st.program, &st.rounding, &mut rng, 64);
            let latency = sim.latency_ms(&st.program, &st.features, &x);
            task.record(1, x, latency);
        }
        (task, FelixOptions { n_seeds: 16, n_steps: 30, ..Default::default() })
    }

    #[test]
    fn sketch_cut_into_several_items_is_bit_identical_to_serial() {
        // Above one thread, sketch 1's 12 seeds are cut into 2 to 12
        // segments, and at 2 and 3 threads a group spans both sketches.
        let (task, opts) = split_task();
        assert_thread_counts_agree(&task, opts);
    }

    /// A round's prediction-trace bits, the sketch of each global seed, and
    /// each group's segments as `(sketch, lanes)`.
    type TracedRound = (Vec<u64>, Vec<usize>, Vec<Vec<(usize, usize)>>);

    /// One `propose` on `task` at `opts`, traced.
    fn traced_round(task: &SearchTask, opts: FelixOptions) -> TracedRound {
        let mut prop = GradientProposer::new(opts);
        let mut rng = StdRng::seed_from_u64(5);
        prop.propose(task, shared_model(), 8, &mut TuningClock::new(), &ClockCosts, &mut rng);
        let trace = prop.take_prediction_trace().iter().map(|v| v.to_bits()).collect();
        let mut sketch_of = vec![usize::MAX; opts.n_seeds];
        let mut layout = Vec::new();
        for group in &prop.groups {
            for seg in &group.segments {
                for &g in &group.seeds[seg.cols.clone()] {
                    sketch_of[g] = seg.sketch;
                }
            }
            layout.push(group.segments.iter().map(|seg| (seg.sketch, seg.cols.len())).collect());
        }
        (trace, sketch_of, layout)
    }

    #[test]
    fn two_workers_share_the_seeds_as_two_eight_lane_groups() {
        let (task, opts) = split_task();
        let (_, sketch_of, layout) = traced_round(&task, FelixOptions { threads: 2, ..opts });
        assert_eq!(sketch_of.iter().filter(|&&s| s == 0).count(), 4);
        assert_eq!(sketch_of.iter().filter(|&&s| s == 1).count(), 12);
        assert_eq!(layout, [vec![(0, 4), (1, 4)], vec![(1, 8)]]);
    }

    #[test]
    fn a_panic_freezes_only_its_own_segments_lanes() {
        // At 2 threads the first group holds both sketches' segments in
        // one MLP call; a panic in either leaves the other's lanes exactly
        // as a panic-free run descends them, at every thread count.
        let (task, opts) = split_task();
        let clean = traced_round(&task, FelixOptions { threads: 2, ..opts });
        for sketch in [0, 1] {
            let opts = FelixOptions { inject_panic_sketch: Some(sketch), ..opts };
            assert_thread_counts_agree(&task, opts);
            let (trace, sketch_of, layout) = traced_round(&task, FelixOptions { threads: 2, ..opts });
            assert_eq!((&sketch_of, &layout), (&clean.1, &clean.2));
            let n = sketch_of.len();
            for (k, (&bits, &clean_bits)) in trace.iter().zip(&clean.0).enumerate() {
                let (step, g) = (k / n, k % n);
                if sketch_of[g] == sketch {
                    // Frozen at step 0: a zero feature row's score.
                    assert_eq!(bits, trace[g], "sketch {sketch}: seed {g} moved at step {step}");
                } else {
                    assert_eq!(bits, clean_bits, "sketch {sketch} panicked: seed {g}, step {step}");
                }
            }
        }
    }

    /// What one `propose` returns and records, bit for bit: candidates,
    /// prediction trace, simulated clock and health.
    type ProposeRun = (Vec<(usize, Vec<f64>)>, Vec<u64>, u64, HealthReport);

    /// One `propose` on `task` through `memo`; whether it built the
    /// objectives rides along.
    fn propose_via(memo: &'static SpaceMemo, task: &SearchTask, threads: usize) -> (ProposeRun, bool) {
        let mut prop = GradientProposer::new(FelixOptions { threads, ..quick_opts() });
        prop.memo = memo;
        let mut clock = TuningClock::new();
        let mut rng = StdRng::seed_from_u64(11);
        let cands = prop.propose(task, shared_model(), 8, &mut clock, &ClockCosts, &mut rng);
        let trace = prop.take_prediction_trace().iter().map(|v| v.to_bits()).collect();
        let built = prop.take_stats()[0].cache_misses > 0;
        ((cands, trace, clock.now_s().to_bits(), prop.take_health()), built)
    }

    #[test]
    fn concurrent_callers_build_one_space_and_one_objective_set() {
        let memo: &'static SpaceMemo = Box::leak(Box::new(SpaceMemo::new(4)));
        let task = Task {
            subgraph: Subgraph { ops: vec![Op::Dense { m: 64, k: 192, n: 320 }] },
            weight: 1,
        };
        let hardware = felix_sim::vendor::hardware_params(&DeviceConfig::a5000());
        let pipeline = PipelineOptions::default();
        let start = std::sync::Barrier::new(4);
        let calls: Vec<_> = std::thread::scope(|s| {
            let calls: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        let space = memo.space(&task, hardware);
                        let (objectives, built) = memo.objectives(&space, pipeline, 1);
                        (space, objectives, built)
                    })
                })
                .collect();
            calls.into_iter().map(|c| c.join().expect("memo call")).collect()
        });
        let (space, objectives, _) = &calls[0];
        assert!(calls.iter().all(|c| Arc::ptr_eq(&c.0, space)), "one space per key");
        assert!(calls.iter().all(|c| Arc::ptr_eq(&c.1, objectives)), "one objective set");
        assert_eq!(calls.iter().filter(|c| c.2).count(), 1, "exactly one caller built them");
    }

    #[test]
    fn cold_warm_and_evicted_memo_entries_propose_the_same() {
        let sim = Simulator::new(DeviceConfig::a5000());
        let task = SearchTask::from_task(
            &Task {
                subgraph: Subgraph { ops: vec![Op::Dense { m: 32, k: 448, n: 224 }] },
                weight: 1,
            },
            &sim,
        );
        let other = SearchTask::from_task(
            &Task {
                subgraph: Subgraph { ops: vec![Op::BatchMatmul { b: 4, m: 48, k: 64, n: 80 }] },
                weight: 1,
            },
            &sim,
        );
        let mut runs = Vec::new();
        for threads in [1, 4] {
            // One entry at most: the other task's propose evicts the first.
            let memo: &'static SpaceMemo = Box::leak(Box::new(SpaceMemo::new(1)));
            let (cold, built) = propose_via(memo, &task, threads);
            assert!(built, "a fresh memo misses");
            let (warm, built) = propose_via(memo, &task, threads);
            assert!(!built, "the second propose hits");
            assert!(propose_via(memo, &other, threads).1, "a second key misses");
            let (rebuilt, built) = propose_via(memo, &task, threads);
            assert!(built, "the first key was evicted and is rebuilt");
            assert!(!cold.0.is_empty());
            assert_eq!(warm, cold, "warm, {threads} threads");
            assert_eq!(rebuilt, cold, "rebuilt, {threads} threads");
            runs.push(cold);
        }
        assert_eq!(runs[0], runs[1], "1 thread vs 4");
    }

    #[test]
    fn felix_finds_good_schedules_with_few_measurements() {
        let (mut task, mut model, sim) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let mut clock = TuningClock::new();
        let mut felix = GradientProposer::new(quick_opts());
        let opts = TuneOptions { measurements_per_round: 8, ..Default::default() };
        for _ in 0..2 {
            tune_task_round_with_sink(
                &mut task, &mut felix, &mut model, &sim, &mut clock, &ClockCosts,
                &opts, &mut rng, None,
            );
        }
        // 16 measurements must already land within 3x of the PyTorch
        // vendor kernel: the best of the hand-schedule portfolio, scaled by
        // the library's efficiency factor.
        let sg = Subgraph { ops: vec![Op::Dense { m: 512, k: 512, n: 512 }] };
        let vendor =
            felix_sim::vendor_task_latency(&sg, felix_sim::Vendor::PyTorch, &sim.device);
        assert!(
            task.best_latency_ms < vendor * 3.0,
            "felix best {} vs PyTorch {vendor}",
            task.best_latency_ms
        );
    }

    #[test]
    fn felix_converges_faster_than_evolution_per_candidate() {
        // Same number of measured candidates; Felix's measured set should be
        // at least competitive (paper: much better early).
        let (mut ftask, mut model, sim) = setup();
        let mut etask = ftask.clone();
        let opts = TuneOptions { measurements_per_round: 8, update_model: false, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(4);
        let mut felix = GradientProposer::new(quick_opts());
        let mut fclock = TuningClock::new();
        tune_task_round_with_sink(
            &mut ftask, &mut felix, &mut model, &sim, &mut fclock, &ClockCosts,
            &opts, &mut rng, None,
        );
        let mut evo = EvolutionaryProposer::new(EvolutionConfig { population: 128, generations: 2 });
        let mut eclock = TuningClock::new();
        tune_task_round_with_sink(
            &mut etask, &mut evo, &mut model, &sim, &mut eclock, &ClockCosts, &opts, &mut rng, None,
        );
        assert!(
            ftask.best_latency_ms <= etask.best_latency_ms * 2.0,
            "felix {} vs evolution {}",
            ftask.best_latency_ms,
            etask.best_latency_ms
        );
    }
}
