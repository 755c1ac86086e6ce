//! Integration tests for the measurement pipeline: stub-proposer round
//! mechanics, fault injection with retry/backoff, quarantine, replay-buffer
//! hygiene, and evolution-baseline determinism.

use felix_ansor::{
    evolution::EvolutionConfig, select_next_task, tune_task_round_with_sink, EvolutionaryProposer,
    Proposer, RandomProposer, RoundReport, SearchTask, TuneOptions, MAX_RETRIES,
};
use felix_cost::{random_schedule, Mlp};
use felix_graph::{Op, Subgraph, Task};
use felix_sim::clock::ClockCosts;
use felix_sim::{DeviceConfig, FaultKind, FaultPlan, Simulator, TuningClock};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dense_task() -> Task {
    Task {
        subgraph: Subgraph { ops: vec![Op::Dense { m: 256, k: 512, n: 512 }] },
        weight: 1,
    }
}

fn setup() -> (SearchTask, Mlp, Simulator) {
    let sim = Simulator::new(DeviceConfig::a5000());
    let task = SearchTask::from_task(&dense_task(), &sim);
    // Measurement-pipeline tests don't need a trained model: the simulator
    // labels candidates, the model only ranks proposals.
    let mut rng = StdRng::seed_from_u64(0);
    (task, Mlp::new(&mut rng), sim)
}

/// A proposer that replays a pre-built list of candidates, one batch per
/// round, and records what the tuner told it about the measurements.
struct StubProposer {
    batches: Vec<Vec<(usize, Vec<f64>)>>,
    next: usize,
    reports: Vec<RoundReport>,
}

impl StubProposer {
    fn new(batches: Vec<Vec<(usize, Vec<f64>)>>) -> Self {
        StubProposer { batches, next: 0, reports: Vec::new() }
    }
}

impl Proposer for StubProposer {
    fn name(&self) -> &'static str {
        "stub"
    }

    fn propose(
        &mut self,
        _task: &SearchTask,
        _model: &Mlp,
        _n: usize,
        _clock: &mut TuningClock,
        _costs: &ClockCosts,
        _rng: &mut StdRng,
    ) -> Vec<(usize, Vec<f64>)> {
        let batch = self.batches.get(self.next).cloned().unwrap_or_default();
        self.next += 1;
        batch
    }

    fn note_measurement(&mut self, report: &RoundReport) {
        self.reports.push(report.clone());
    }
}

/// Distinct valid schedules for sketch 0 of `task`.
fn valid_candidates(task: &SearchTask, n: usize, seed: u64) -> Vec<(usize, Vec<f64>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<(usize, Vec<f64>)> = Vec::new();
    while out.len() < n {
        let st = &task.sketches[0];
        let vals = random_schedule(&st.program, &st.rounding, &mut rng, 64);
        if !out.iter().any(|(_, v)| *v == vals) {
            out.push((0, vals));
        }
    }
    out
}

#[test]
fn stub_round_measures_everything_and_reports_back() {
    let (mut task, mut model, sim) = setup();
    let cands = valid_candidates(&task, 5, 42);
    let mut stub = StubProposer::new(vec![cands.clone()]);
    let mut clock = TuningClock::new();
    let costs = ClockCosts::default();
    let opts = TuneOptions { measurements_per_round: 5, update_model: false, ..Default::default() };
    let mut rng = StdRng::seed_from_u64(1);
    let report =
        tune_task_round_with_sink(
            &mut task, &mut stub, &mut model, &sim, &mut clock, &costs, &opts, &mut rng, None,
        );
    assert_eq!(report.measured, 5, "all stub candidates are valid and unique");
    assert_eq!(report.failed, 0);
    assert_eq!(report.retries, 0);
    assert_eq!(task.measured.len(), 5);
    assert_eq!(task.rounds, 1);
    assert!(task.best_latency_ms.is_finite());
    assert_eq!(stub.reports, vec![report], "tuner reports the round to the proposer");
    // A second round with the same candidates measures nothing (dedup).
    let mut stub2 = StubProposer::new(vec![cands]);
    let report2 = tune_task_round_with_sink(
        &mut task, &mut stub2, &mut model, &sim, &mut clock, &costs, &opts, &mut rng, None,
    );
    assert_eq!(report2.measured, 0, "already-measured candidates are skipped");
}

#[test]
fn zero_rate_plan_is_bit_identical_to_no_plan() {
    // The tentpole guarantee at task level: a fault plan whose rates are all
    // zero leaves the RNG stream, the clock, and every measured value
    // byte-identical to the default (fault-free) options.
    let (_, mut model, sim) = setup();
    let costs = ClockCosts::default();
    let mut runs = Vec::new();
    for plan in [FaultPlan::none(), FaultPlan::chaos(0xDEAD_BEEF, 0.0)] {
        assert!(plan.is_zero());
        let mut task = SearchTask::from_task(&dense_task(), &sim);
        let mut prop = RandomProposer;
        let mut clock = TuningClock::new();
        let opts = TuneOptions {
            measurements_per_round: 6,
            update_model: false,
            fault_plan: plan,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        let mut reports = Vec::new();
        for _ in 0..3 {
            reports.push(tune_task_round_with_sink(
                &mut task, &mut prop, &mut model, &sim, &mut clock, &costs, &opts, &mut rng, None,
            ));
        }
        runs.push((task.measured.clone(), clock.now_s().to_bits(), reports));
    }
    let (m0, c0, r0) = &runs[0];
    let (m1, c1, r1) = &runs[1];
    assert_eq!(m0.len(), m1.len());
    for (a, b) in m0.iter().zip(m1) {
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2.to_bits(), b.2.to_bits(), "latency must be bit-identical");
    }
    assert_eq!(c0, c1, "clock must be bit-identical");
    assert_eq!(r0, r1);
}

#[test]
fn chaos_rounds_respect_retry_budget_and_replay_hygiene() {
    let (mut task, mut model, sim) = setup();
    let costs = ClockCosts::default();
    let plan = FaultPlan::chaos(0xC0FFEE, 0.3);
    let opts = TuneOptions {
        measurements_per_round: 8,
        update_model: true,
        fine_tune_epochs: 1,
        fault_plan: plan,
        ..Default::default()
    };
    let mut prop = RandomProposer;
    let mut clock = TuningClock::new();
    let mut rng = StdRng::seed_from_u64(11);
    let mut total = RoundReport::default();
    for _ in 0..4 {
        let r = tune_task_round_with_sink(
            &mut task, &mut prop, &mut model, &sim, &mut clock, &costs, &opts, &mut rng, None,
        );
        // Per round: every retry is charged to a candidate that was
        // attempted, and no candidate retries more than the bound.
        assert!(r.retries <= (r.measured + r.failed) * MAX_RETRIES);
        total.measured += r.measured;
        total.failed += r.failed;
        total.retries += r.retries;
    }
    assert!(total.failed > 0, "30% chaos must fail something in 32 candidates");
    assert!(total.measured > 0, "tuning still converges under chaos");
    assert!(task.best_latency_ms.is_finite());
    // Replay-buffer hygiene: one sample per successful measurement, none
    // for failures; failed candidates still count as measured for dedup.
    assert_eq!(task.samples.len(), task.measured.len());
    assert_eq!(task.failed.len(), total.failed);
    assert_eq!(task.retries, total.retries);
    for (sk, vals, _) in &task.failed {
        assert!(task.already_measured(*sk, vals), "failures join the dedup set");
    }
}

#[test]
fn build_errors_fail_fast_without_retry() {
    let (mut task, mut model, sim) = setup();
    let costs = ClockCosts::default();
    let plan = FaultPlan {
        seed: 5,
        build_error_rate: 1.0,
        ..FaultPlan::none()
    };
    let opts = TuneOptions {
        measurements_per_round: 6,
        update_model: false,
        fault_plan: plan,
        ..Default::default()
    };
    let mut stub = StubProposer::new(vec![valid_candidates(&task, 6, 3)]);
    let mut clock = TuningClock::new();
    let mut rng = StdRng::seed_from_u64(2);
    let report = tune_task_round_with_sink(
        &mut task, &mut stub, &mut model, &sim, &mut clock, &costs, &opts, &mut rng, None,
    );
    assert_eq!(report.measured, 0);
    assert_eq!(report.failed, 6);
    assert_eq!(report.retries, 0, "build errors are deterministic: never retried");
    assert!(task.failed.iter().all(|f| f.2 == FaultKind::BuildError));
    assert_eq!(task.failed.len(), 6);
    assert!(task.samples.is_empty());
    assert!(task.best_latency_ms.is_infinite());
    // Each failure still burns compile time on the clock.
    assert!(clock.now_s() >= 6.0 * costs.compile_s);
}

#[test]
fn quarantine_trips_after_streak_and_lifts_on_success() {
    let (mut task, _, _) = setup();
    let n_sketches = task.sketches.len();
    assert!(n_sketches >= 2);
    assert_eq!(task.active_sketches(), (0..n_sketches).collect::<Vec<_>>());
    for i in 0..SearchTask::QUARANTINE_STREAK {
        assert!(!task.is_quarantined(0), "not quarantined before the streak ({i})");
        task.record_failure(0, vec![i as f64], FaultKind::DeviceError);
    }
    assert!(task.is_quarantined(0));
    assert!(!task.active_sketches().contains(&0));
    // A success on the sketch proves it works again: quarantine lifts.
    task.record(0, vec![99.0], 1.5);
    assert!(!task.is_quarantined(0));
    assert_eq!(task.active_sketches(), (0..n_sketches).collect::<Vec<_>>());
}

#[test]
fn all_quarantined_falls_back_to_every_sketch() {
    let (mut task, _, _) = setup();
    let n_sketches = task.sketches.len();
    for sk in 0..n_sketches {
        for i in 0..SearchTask::QUARANTINE_STREAK {
            task.record_failure(sk, vec![sk as f64, i as f64], FaultKind::Timeout);
        }
    }
    assert!((0..n_sketches).all(|sk| task.is_quarantined(sk)));
    assert_eq!(
        task.active_sketches(),
        (0..n_sketches).collect::<Vec<_>>(),
        "a fully-quarantined task still probes for recovery"
    );
}

#[test]
fn scheduler_deprioritizes_fault_burning_tasks() {
    let sim = Simulator::new(DeviceConfig::a5000());
    let mut tasks =
        vec![SearchTask::from_task(&dense_task(), &sim), SearchTask::from_task(&dense_task(), &sim)];
    for t in &mut tasks {
        t.rounds = 1;
        t.best_latency_ms = 10.0;
        t.record(0, vec![1.0], 10.0);
    }
    // Equal otherwise; task 0 wastes attempts on faults.
    assert_eq!(select_next_task(&tasks), 0, "tie breaks to the first task");
    for i in 0..4 {
        tasks[0].record_failure(0, vec![2.0 + i as f64], FaultKind::DeviceError);
    }
    assert_eq!(
        select_next_task(&tasks),
        1,
        "the fault-burning task loses its scheduling priority"
    );
}

#[test]
fn evolution_baseline_is_deterministic() {
    let sim = Simulator::new(DeviceConfig::a5000());
    let mut model_rng = StdRng::seed_from_u64(0);
    let model = Mlp::new(&mut model_rng);
    let costs = ClockCosts::default();
    let cfg = EvolutionConfig { population: 48, generations: 2 };
    let mut runs = Vec::new();
    for _ in 0..2 {
        let task = SearchTask::from_task(&dense_task(), &sim);
        let mut prop = EvolutionaryProposer::new(cfg);
        let mut clock = TuningClock::new();
        let mut rng = StdRng::seed_from_u64(9);
        let cands = prop.propose(&task, &model, 8, &mut clock, &costs, &mut rng);
        runs.push((cands, clock.now_s().to_bits()));
    }
    assert_eq!(runs[0], runs[1], "same seed, same candidates, same clock");
}

#[test]
fn incumbent_and_dedup_invariants_hold() {
    let (mut task, _, _) = setup();
    task.record(0, vec![1.0, 2.0], 5.0);
    assert_eq!(task.best_latency_ms, 5.0);
    task.record(0, vec![1.0, 3.0], 8.0);
    assert_eq!(task.best_latency_ms, 5.0, "worse measurement keeps the incumbent");
    task.record(1, vec![1.0, 4.0], 2.0);
    assert_eq!(task.best_latency_ms, 2.0);
    assert_eq!(task.best_schedule, Some((1, vec![1.0, 4.0])));
    assert!(task.already_measured(0, &[1.0, 2.0]));
    assert!(!task.already_measured(1, &[1.0, 2.0]), "dedup is per sketch");
    // Failures dedup too, but never move the incumbent.
    task.record_failure(0, vec![9.0], FaultKind::BuildError);
    assert!(task.already_measured(0, &[9.0]));
    assert_eq!(task.best_latency_ms, 2.0);
    assert_eq!(task.measured.len(), 3);
}
