//! Parallel-tuner benchmark: serial vs multi-threaded `propose`, the
//! batched-vs-scalar cost-model microbenchmark underneath it, and the
//! compiled-gradient-tape vs pool-walking comparison underneath *that*.
//!
//! Prints per-configuration round times, `TunerStats` summaries, and the
//! speedup of the parallel path, and **checks that every thread count
//! produced bit-identical candidates** — the determinism guarantee the
//! parallel tuner is built around (see DESIGN.md). The tape section always
//! asserts bitwise equality between the batched tape, batch-of-one tape,
//! and pool objective paths at batch sizes on both sides of the
//! compile-time lane counts (`crates/core/tests/tape_oracle.rs` makes the
//! same parity asserts in the test suite); `TUNER_BENCH_SMOKE=1` runs only
//! those asserts, no timing claims, while the default timed mode additionally
//! times the tape's forward+reverse per seed at batch widths 1/4/7/8/13/16
//! (reported, never asserted), requires the tape to beat the pool reference
//! by >= 6x at the production batch of 16 on the dense-512 sketch, and
//! writes `BENCH_tape.json` to the results directory (`results/` by
//! default; `--out-dir` overrides).

use felix::parallel::effective_threads;
use felix::{EvalScratch, FelixOptions, GradientProposer, SketchObjective};
use felix_ansor::{Proposer, SearchTask, TunerStats};
use felix_bench::{cached_model, write_result, Scale};
use felix_cost::MlpScratch;
use felix_features::FEATURE_COUNT;
use felix_graph::{Op, Subgraph, Task};
use felix_sim::clock::ClockCosts;
use felix_sim::{DeviceConfig, Simulator, TuningClock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Builds the dense-512 objective (the paper's flagship single subgraph) and
/// compares the compiled tape against the pool-walking reference oracle.
///
/// Always on: a parity sweep over batch sizes 1, 7, 8, 9, 16, 17 (both the
/// compile-time lane counts and the run-time ones around them) asserting
/// that the batched production path — transposed feature seeding,
/// batched penalty seeding, fused reverse sweep — is bit-identical per lane
/// to both the batch-of-one tape path and the pool-walking oracle. In timed
/// mode the tape must additionally beat the pool by >= 6x per point at the
/// production batch of 16 (best-of-N, pool/tape trials interleaved so
/// machine drift hits both alike).
fn tape_bench(model: &felix_cost::Mlp, mlp_us: [f64; 4], smoke: bool) {
    use felix_tir::sketch::{multi_level_tiling_sketch, HardwareParams};
    let sg = Subgraph { ops: vec![Op::Dense { m: 512, k: 512, n: 512 }] };
    let p0 = felix_graph::lower::lower_subgraph(&sg);
    let sk = multi_level_tiling_sketch(&p0, &HardwareParams::default());
    let mut program = sk.program;
    let fs = felix_features::extract_features(&mut program);
    let obj = SketchObjective::build(&program, &fs.exprs);
    let pool_nodes = obj.program.pool.len();
    let tape_nodes = obj.tape.len();
    println!(
        "\ngradient tape: dense-512, {tape_nodes} tape instrs vs {pool_nodes} pool nodes ({:.1} ms compile)",
        obj.tape_compile_s * 1e3
    );

    let mut rng = StdRng::seed_from_u64(0x7A9E);
    let mut scratch = EvalScratch::default();
    let mut grad = Vec::new();
    for batch in [1usize, 7, 8, 9, 16, 17] {
        let points: Vec<Vec<f64>> = (0..batch)
            .map(|_| (0..obj.n_vars()).map(|_| rng.gen_range(0.3..3.5)).collect())
            .collect();
        obj.begin_batch(&mut scratch, batch);
        for (lane, y) in points.iter().enumerate() {
            obj.set_lane(&mut scratch, lane, y);
        }
        obj.forward_batch(&mut scratch);
        let cols: Vec<usize> = (0..batch).collect();
        let mut feat_buf = vec![0.0; obj.n_feats() * batch];
        obj.write_feats_cols(&mut scratch, &cols, batch, &mut feat_buf, |_, ok| {
            assert!(ok, "non-finite feats");
        });
        let mut mlp_scratch = MlpScratch::default();
        let (mut mlp_scores, mut mlp_grads) = (Vec::new(), Vec::new());
        model.input_gradient_batch_cols(
            &feat_buf, batch, &mut mlp_scratch, &mut mlp_scores, &mut mlp_grads,
        );
        // `mlp_grads` is feature-major (`[k * batch + lane]`) — seed the
        // tape straight from it, no transpose.
        obj.seed_feats_cols(&mut scratch, &cols, batch, &mlp_grads);
        let mut pens = vec![0.0; batch];
        obj.seed_penalties_all(&mut scratch, 1.0, |lane, p, _| pens[lane] = p);
        obj.backward_batch(&mut scratch);
        for (lane, y) in points.iter().enumerate() {
            obj.grad_lane(&scratch, lane, &mut grad);
            let score = mlp_scores[lane];
            let c_b = -score + pens[lane];
            let (c_t, s_t, g_t) = obj.cost_and_grad(model, 1.0, y);
            let (c_p, s_p, g_p) = obj.cost_and_grad_pool(model, 1.0, y);
            assert_eq!(c_b.to_bits(), c_p.to_bits(), "batch {batch} lane {lane}: objective");
            assert_eq!(c_t.to_bits(), c_p.to_bits(), "batch-of-one objective at {y:?}");
            assert_eq!(score.to_bits(), s_p.to_bits(), "batch {batch} lane {lane}: score");
            assert_eq!(s_t.to_bits(), s_p.to_bits(), "batch-of-one score at {y:?}");
            assert_eq!(grad.len(), g_p.len());
            assert_eq!(g_t.len(), g_p.len());
            for ((a, b), c) in grad.iter().zip(&g_p).zip(&g_t) {
                assert_eq!(a.to_bits(), b.to_bits(), "batch {batch} lane {lane}: gradient");
                assert_eq!(c.to_bits(), b.to_bits(), "batch-of-one gradient at {y:?}");
            }
        }
    }
    println!(
        "  SIMD parity: batched ≡ batch-of-one ≡ pool, bitwise, at batches 1/7/8/9/16/17"
    );

    // Timing: expression sweeps only — the MLP call is identical in both
    // paths, so a fixed (score, dscore) isolates the expr-side cost. The
    // tape side runs the production descent recipe (transposed feature
    // seeding, batched penalty seeding) at each of `TAPE_WIDTHS`; best-of-N
    // with the pool and every width interleaved inside each trial is
    // robust to preemption and drift on a shared box.
    let batch = 16usize;
    let points: Vec<Vec<f64>> = (0..batch)
        .map(|_| (0..obj.n_vars()).map(|_| rng.gen_range(0.3..3.5)).collect())
        .collect();
    let (score, dscore) = {
        let (_, feats) = obj.eval_feats_pool(&points[0]);
        model.input_gradient(&feats)
    };
    let (trials, reps) = if smoke { (2, 2) } else { (40, 50) };
    let mut pool_pp = f64::INFINITY;
    let mut tape_us = [f64::INFINITY; TAPE_WIDTHS.len()];
    let cols: Vec<usize> = (0..batch).collect();
    // Per width: the feature buffer, and the fixed dscore broadcast into
    // the feature-major layout the production seeding path consumes
    // (`[k * w + lane]`).
    let mut bufs = TAPE_WIDTHS.map(|w| {
        let mut dscore_t = vec![0.0; obj.n_feats() * w];
        for (k, row) in dscore_t.chunks_exact_mut(w).enumerate() {
            row.fill(dscore[k]);
        }
        (vec![0.0; obj.n_feats() * w], dscore_t)
    });
    for _ in 0..trials {
        let pool_start = Instant::now();
        for _ in 0..reps {
            for y in &points {
                let (vals, _) = obj.eval_feats_pool(y);
                std::hint::black_box(obj.grad_from_dscore_pool(vals, score, &dscore, 1.0));
            }
        }
        pool_pp = pool_pp.min(pool_start.elapsed().as_secs_f64() / (reps * batch) as f64);
        for ((&w, (feat_buf, dscore_t)), best) in
            TAPE_WIDTHS.iter().zip(&mut bufs).zip(&mut tape_us)
        {
            let feat_cols = &cols[..w];
            let tape_start = Instant::now();
            for _ in 0..reps {
                obj.begin_batch(&mut scratch, w);
                for (lane, y) in points[..w].iter().enumerate() {
                    obj.set_lane(&mut scratch, lane, y);
                }
                obj.forward_batch(&mut scratch);
                obj.write_feats_cols(&mut scratch, feat_cols, w, feat_buf, |_, ok| {
                    std::hint::black_box(ok);
                });
                std::hint::black_box(&feat_buf);
                obj.seed_feats_cols(&mut scratch, feat_cols, w, dscore_t);
                obj.seed_penalties_all(&mut scratch, 1.0, |_, p, _| {
                    std::hint::black_box(p);
                });
                obj.backward_batch(&mut scratch);
                for lane in 0..w {
                    obj.grad_lane(&scratch, lane, &mut grad);
                    std::hint::black_box(&grad);
                }
            }
            let us = tape_start.elapsed().as_secs_f64() * 1e6 / (reps * w) as f64;
            *best = best.min(us);
        }
    }
    let [.., tape_us_at_batch] = tape_us;
    let tape_pp = tape_us_at_batch * 1e-6;
    let speedup = pool_pp / tape_pp;
    println!(
        "  forward+reverse: pool {:>9.1} µs/pt   tape {:>9.1} µs/pt   ({speedup:.2}x, {batch} lanes)",
        pool_pp * 1e6,
        tape_pp * 1e6
    );
    println!("  tape forward+reverse, µs per seed by batch width:");
    for (w, us) in TAPE_WIDTHS.iter().zip(&tape_us) {
        println!("    width {w:<2}  {us:>6.2}");
    }
    let tape_fields: String = TAPE_WIDTHS
        .iter()
        .zip(&tape_us)
        .map(|(w, us)| format!("  \"tape_fwd_bwd_us_per_seed_n{w}\": {us:.3},\n"))
        .collect();
    // A whole descent step is the tape sweeps plus the cost model's input
    // gradient at the same batch; `tape_steps_per_sec` alone leaves the
    // larger half out.
    let mlp_fields: String = MLP_WIDTHS
        .iter()
        .zip(&mlp_us)
        .map(|(n, us)| format!("  \"mlp_input_grad_us_per_seed_n{n}\": {us:.2},\n"))
        .collect();
    let [.., mlp_us_at_batch] = mlp_us;
    let step_s = tape_pp + mlp_us_at_batch * 1e-6;
    write_result(
        "BENCH_tape.json",
        &format!(
            "{{\n  \"pool_nodes\": {pool_nodes},\n  \"tape_nodes\": {tape_nodes},\n  \"batch\": {batch},\n  \"tape_compile_ms\": {:.3},\n  \"pool_steps_per_sec\": {:.1},\n  \"tape_steps_per_sec\": {:.1},\n{tape_fields}{mlp_fields}  \"descent_steps_per_sec_with_mlp\": {:.1},\n  \"speedup\": {:.3},\n  \"smoke\": {smoke}\n}}\n",
            obj.tape_compile_s * 1e3,
            1.0 / pool_pp,
            1.0 / tape_pp,
            1.0 / step_s,
            speedup
        ),
    );
    if !smoke {
        assert!(
            speedup >= 6.0,
            "tape must beat the pool reference by >= 6x, got {speedup:.2}x"
        );
    }
}

/// Batch widths the tape timing covers: the compile-time lane counts 4, 8
/// and 16, and the run-time-count widths 1, 7 and 13 between them. The last
/// entry is the production batch the pool comparison runs at.
const TAPE_WIDTHS: [usize; 6] = [1, 4, 7, 8, 13, 16];

/// Chunk widths the MLP microbenchmark times: 2 and 8 are what production
/// descents hand the cost model (`cold_ops`, `tune_resnet50` on two
/// workers), 1 and 16 bracket them.
const MLP_WIDTHS: [usize; 4] = [1, 2, 8, 16];

/// Per-seed cost of the cost model's input gradient, scalar reference vs
/// the packed batched kernel at each of [`MLP_WIDTHS`] (pack built once
/// outside the timed loop, as `propose` does). Returns the batched
/// microseconds per seed, in `MLP_WIDTHS` order. Timed mode asserts
/// in-process ratios only, never absolute times.
fn mlp_micro(model: &felix_cost::Mlp, smoke: bool) -> [f64; 4] {
    let mut rng = StdRng::seed_from_u64(9);
    let rows: Vec<Vec<f64>> = (0..16)
        .map(|_| (0..FEATURE_COUNT).map(|_| rng.gen_range(0.0..8.0)).collect())
        .collect();
    let (trials, reps) = if smoke { (1, 2) } else { (15, 40) };
    let time = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        start.elapsed().as_secs_f64() * 1e6 / reps as f64
    };
    let feats_t = MLP_WIDTHS.map(|n| {
        let mut feats_t = vec![0.0; FEATURE_COUNT * n];
        for (s, r) in rows[..n].iter().enumerate() {
            for (k, &v) in r.iter().enumerate() {
                feats_t[k * n + s] = v;
            }
        }
        feats_t
    });
    let packed = model.pack();
    let mut scratch = MlpScratch::default();
    let (mut scores, mut grads_t) = (Vec::new(), Vec::new());
    // Best-of-N per configuration, with the configurations interleaved
    // inside every trial so machine drift hits all of them alike before
    // the ratio asserts.
    let mut scalar_us = f64::INFINITY;
    let mut batched_us = [f64::INFINITY; 4];
    for _ in 0..trials {
        let us = time(&mut || {
            for r in &rows {
                std::hint::black_box(model.input_gradient(r));
            }
        });
        scalar_us = scalar_us.min(us / rows.len() as f64);
        for ((&n, feats_t), best) in MLP_WIDTHS.iter().zip(&feats_t).zip(&mut batched_us) {
            let us = time(&mut || {
                packed.input_gradient_batch_cols(feats_t, n, &mut scratch, &mut scores, &mut grads_t);
                std::hint::black_box(&grads_t);
            });
            *best = best.min(us / n as f64);
        }
    }
    println!("\ncost-model input gradient, µs per seed (bit-identical outputs):");
    println!("  scalar reference {scalar_us:>7.1}");
    for (n, us) in MLP_WIDTHS.iter().zip(&batched_us) {
        println!("  batched n={n:<2}     {us:>7.1}   ({:.1}x)", scalar_us / us);
    }
    if !smoke {
        let [_, n2, n8, n16] = batched_us;
        assert!(
            scalar_us / n8 >= 4.0,
            "batched n=8 must beat the scalar reference by >= 4x per seed, got {:.2}x",
            scalar_us / n8
        );
        assert!(
            n2 <= 1.5 * n16,
            "narrow chunks must stay fast: n=2 {n2:.1} µs/seed vs n=16 {n16:.1} µs/seed"
        );
    }
    batched_us
}

fn main() {
    felix_bench::out_dir_from_args();
    let smoke = std::env::var("TUNER_BENCH_SMOKE").is_ok();
    let scale = Scale::from_env();
    let dev = DeviceConfig::a5000();
    let model = cached_model(&dev, scale);
    let mlp_us = mlp_micro(&model, smoke);
    tape_bench(&model, mlp_us, smoke);
    let sim = Simulator::new(dev);
    let task = Task {
        subgraph: Subgraph {
            ops: vec![Op::Conv2d { n: 1, c: 128, k: 128, h: 28, r: 3, stride: 1, pad: 1, groups: 1 }],
        },
        weight: 1,
    };
    let search = SearchTask::from_task(&task, &sim);
    if smoke {
        println!("smoke mode: equivalence asserts passed; skipping timed sections");
        return;
    }
    let (n_seeds, n_steps, rounds) = if scale == Scale::Fast { (8, 60, 2) } else { (16, 200, 3) };
    // Always exercise the 2-thread path (even on a single-core host, where
    // it shows parity rather than speedup); add the auto setting when it
    // resolves to more workers.
    let auto = effective_threads(0);
    let mut configs = vec![1usize, 2];
    if auto > 2 {
        configs.push(auto);
    }

    println!(
        "\ntuner propose: Conv2d 128x128x28, {n_seeds} seeds x {n_steps} steps x {rounds} rounds"
    );
    let mut reference: Option<Vec<(usize, Vec<f64>)>> = None;
    let mut serial_s = 0.0;
    for &threads in &configs {
        let mut prop = GradientProposer::new(FelixOptions {
            n_seeds,
            n_steps,
            threads,
            ..Default::default()
        });
        let mut clock = TuningClock::new();
        let costs = ClockCosts::default();
        let mut rng = StdRng::seed_from_u64(42);
        let start = Instant::now();
        let mut cands = Vec::new();
        for _ in 0..rounds {
            cands.extend(prop.propose(&search, &model, 16, &mut clock, &costs, &mut rng));
        }
        let elapsed = start.elapsed().as_secs_f64();
        let stats: Vec<TunerStats> = prop.take_stats();
        match &reference {
            None => {
                reference = Some(cands);
                serial_s = elapsed;
            }
            Some(r) => assert_eq!(
                &cands, r,
                "thread count {threads} changed the candidate set"
            ),
        }
        println!(
            "  threads {threads:>2}: {:.3} s/round  speedup {:.2}x   [{}]",
            elapsed / rounds as f64,
            serial_s / elapsed,
            stats.last().map(TunerStats::summary).unwrap_or_default()
        );
    }
    println!("  all thread counts returned bit-identical candidates");
}
