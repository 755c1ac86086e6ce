//! End-to-end regression tests of the fault-tolerant tuning pipeline:
//! the zero-fault bit-identity guarantee (including across tuner thread
//! counts), deterministic chaos runs at 10-30% injected failure rates, and
//! kill-and-resume under a fault plan.

mod common;

use common::{assert_tasks_bit_identical, history_bits, quick_options, tiny_network, tmp_dir};
use felix::{pretrained_cost_model, FelixOptions, ModelQuality, Optimizer};
use felix_ansor::{NetworkTuneResult, SearchTask, MAX_RETRIES};
use felix_sim::{DeviceConfig, FaultPlan};

fn run(plan: Option<FaultPlan>, threads: usize, rounds_extra: usize) -> (Optimizer, NetworkTuneResult) {
    let device = DeviceConfig::a5000();
    let model = pretrained_cost_model(&device, ModelQuality::Fast);
    let mut options = quick_options(threads);
    if let Some(plan) = plan {
        options.fault_plan = plan;
    }
    let mut opt = Optimizer::with_options(tiny_network(), model, device, options);
    let rounds = opt.tasks().len() + rounds_extra;
    let res = opt.optimize_all(rounds, 4);
    (opt, res)
}

fn curve_bits(res: &NetworkTuneResult) -> Vec<(u64, u64)> {
    res.curve.iter().map(|p| (p.time_s.to_bits(), p.latency_ms.to_bits())).collect()
}

#[test]
fn curve_is_monotone_and_byte_identical_across_thread_counts() {
    // The e2e determinism guarantee: tuning a tiny network produces a
    // byte-identical latency curve (and final state) at 1, 2, and 4 tuner
    // threads, and the best-so-far curve never regresses.
    let mut runs = Vec::new();
    for threads in [1usize, 2, 4] {
        let (opt, res) = run(None, threads, 2);
        let mut prev = f64::INFINITY;
        for p in &res.curve {
            assert!(
                p.latency_ms <= prev + 1e-12,
                "curve must be monotone non-increasing at {threads} threads"
            );
            prev = p.latency_ms;
        }
        runs.push((curve_bits(&res), res.final_latency_ms.to_bits(), opt.tuning_time_s().to_bits()));
    }
    assert_eq!(runs[0], runs[1], "1 vs 2 threads");
    assert_eq!(runs[0], runs[2], "1 vs 4 threads");
}

#[test]
fn zero_fault_plan_is_byte_identical_to_unconfigured_optimizer() {
    // Tentpole acceptance: installing a fault plan whose rates are all zero
    // must not perturb a single bit of the tuning result — the fault layer
    // draws no randomness and charges no time unless a fault actually fires.
    let plan = FaultPlan::chaos(0x5EED, 0.0);
    assert!(plan.is_zero());
    let (opt_a, res_a) = run(None, 1, 1);
    let (opt_b, res_b) = run(Some(plan), 1, 1);
    assert_eq!(curve_bits(&res_a), curve_bits(&res_b));
    assert_eq!(res_a.final_latency_ms.to_bits(), res_b.final_latency_ms.to_bits());
    assert_eq!(opt_a.tuning_time_s().to_bits(), opt_b.tuning_time_s().to_bits());
    assert_eq!(res_a.round_reports, res_b.round_reports);
    assert!(res_b.round_reports.iter().all(|r| r.failed == 0 && r.retries == 0));
    for (ta, tb) in opt_a.tasks().iter().zip(opt_b.tasks()) {
        assert_eq!(ta.measured.len(), tb.measured.len());
        for (ma, mb) in ta.measured.iter().zip(&tb.measured) {
            assert_eq!(ma.0, mb.0);
            assert_eq!(ma.1, mb.1);
            assert_eq!(ma.2.to_bits(), mb.2.to_bits());
        }
        assert_eq!(ta.failed, tb.failed);
        assert_eq!(ta.retries, tb.retries);
    }
}

#[test]
fn chaos_tuning_converges_without_panicking() {
    // Deterministic chaos: 10%, 20%, and 30% injected failure rates. Tuning
    // must complete every round, converge to a finite network latency, keep
    // failed samples out of the fine-tuning buffer, and respect the retry
    // bound everywhere.
    for (seed, rate) in [(41u64, 0.1), (42, 0.2), (43, 0.3)] {
        let device = DeviceConfig::a5000();
        let model = pretrained_cost_model(&device, ModelQuality::Fast);
        let options = FelixOptions {
            fault_plan: FaultPlan::chaos(seed, rate),
            ..quick_options(1)
        };
        let mut opt = Optimizer::with_options(tiny_network(), model, device, options);
        let rounds = opt.tasks().len() * 2;
        let res = opt.optimize_all(rounds, 6);
        assert_eq!(res.round_reports.len(), rounds, "every round ran (rate {rate})");
        assert!(res.final_latency_ms.is_finite(), "converged under {rate} chaos");
        let mut prev = f64::INFINITY;
        for p in &res.curve {
            assert!(p.latency_ms <= prev + 1e-12, "monotone under {rate} chaos");
            prev = p.latency_ms;
        }
        let failed: usize = res.round_reports.iter().map(|r| r.failed).sum();
        let retries: usize = res.round_reports.iter().map(|r| r.retries).sum();
        assert!(failed + retries > 0, "rate {rate} chaos must actually inject faults");
        for r in &res.round_reports {
            assert!(r.retries <= (r.measured + r.failed) * MAX_RETRIES);
        }
        for t in opt.tasks() {
            // Replay-buffer hygiene at network scale.
            assert_eq!(t.samples.len(), t.measured.len());
        }
        // Failure counters surface in the per-round tuner stats.
        let stats_failures: usize = opt.stats.iter().map(|s| s.measure_failures).sum();
        let stats_retries: usize = opt.stats.iter().map(|s| s.measure_retries).sum();
        assert_eq!(stats_failures, failed);
        assert_eq!(stats_retries, retries);
    }
}

#[test]
fn chaos_is_deterministic_per_seed() {
    // Fault decisions are pure hashes of (plan seed, candidate, attempt):
    // re-running the same chaos configuration reproduces the run bit for bit.
    let plan = FaultPlan::chaos(0xABCD, 0.25);
    let (opt_a, res_a) = run(Some(plan), 1, 2);
    let (opt_b, res_b) = run(Some(plan), 1, 2);
    assert_eq!(curve_bits(&res_a), curve_bits(&res_b));
    assert_eq!(res_a.round_reports, res_b.round_reports);
    assert_eq!(opt_a.tuning_time_s().to_bits(), opt_b.tuning_time_s().to_bits());
}

#[test]
fn chaos_run_resumes_byte_identically_from_its_options_alone() {
    // The fault plan rides `FelixOptions`, so a chaos run
    // killed at a round boundary and resumed with the same options value —
    // nothing re-chained — must finish exactly as the uninterrupted run:
    // same curve, same clock, same task states, same fault statistics.
    for threads in [1usize, 2] {
        let options = FelixOptions {
            fault_plan: FaultPlan::chaos(0xC4A05, 0.25),
            ..quick_options(threads)
        };
        let device = DeviceConfig::a5000();
        let model = pretrained_cost_model(&device, ModelQuality::Fast);
        let mut base = Optimizer::with_options(tiny_network(), model.clone(), device, options);
        let n_rounds = base.tasks().len() * 2;
        base.optimize_all(n_rounds, 6);

        let dir = tmp_dir("chaos-resume");
        let m = n_rounds / 2;
        let faults = |opt: &Optimizer| -> usize {
            opt.tasks().iter().map(SearchTask::wasted_attempts).sum()
        };
        {
            let mut first = Optimizer::with_options(tiny_network(), model, device, options)
                .with_checkpointing(&dir, 1);
            first.optimize_all(m, 6);
            assert!(faults(&first) > 0, "faults must fire before the kill");
            assert!(faults(&first) < faults(&base), "and after it");
            // Dropped here: the "crash".
        }
        let mut resumed = Optimizer::resume_from_checkpoint(tiny_network(), device, options, &dir)
            .expect("resume from checkpoint");
        resumed.optimize_all(n_rounds - m, 6);

        assert_eq!(history_bits(&resumed), history_bits(&base), "{threads} threads");
        assert_eq!(resumed.tuning_time_s().to_bits(), base.tuning_time_s().to_bits());
        assert_tasks_bit_identical(&base, &resumed);
    }
}
