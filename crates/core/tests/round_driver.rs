//! The result `Optimizer::optimize_all` returns is the one round driver's
//! result: it describes the optimizer's own state, it is `n` one-round
//! ticks appended together, and it is what a direct
//! `tune_network_with_sink` run from the optimizer's seed returns — bit for
//! bit, at 1 and 2 tuner threads.

mod common;

use common::{history_bits, quick_options, tiny_network};
use felix::{pretrained_cost_model, GradientProposer, ModelQuality, Optimizer};
use felix_ansor::{
    network_latency, tune_network_with_sink, CurvePoint, NetworkTuneResult, SearchTask,
    TuneOptions,
};
use felix_sim::clock::ClockCosts;
use felix_sim::{DeviceConfig, Simulator, TuningClock};
use rand::rngs::StdRng;
use rand::SeedableRng;

const MEASUREMENTS: usize = 4;

fn curve_bits(curve: &[CurvePoint]) -> Vec<(u64, u64)> {
    curve.iter().map(|p| (p.time_s.to_bits(), p.latency_ms.to_bits())).collect()
}

fn assert_same_result(a: &NetworkTuneResult, b: &NetworkTuneResult, what: &str) {
    assert_eq!(curve_bits(&a.curve), curve_bits(&b.curve), "{what}: curve");
    assert_eq!(a.round_reports, b.round_reports, "{what}: round reports");
    assert_eq!(a.final_latency_ms.to_bits(), b.final_latency_ms.to_bits(), "{what}: final latency");
    assert_eq!(a.unmeasured_tasks, b.unmeasured_tasks, "{what}: unmeasured tasks");
}

#[test]
fn optimize_all_result_is_the_round_driver_result() {
    let device = DeviceConfig::a5000();
    let model = pretrained_cost_model(&device, ModelQuality::Fast);
    for threads in [1usize, 2] {
        let options = quick_options(threads);
        let mut whole = Optimizer::with_options(tiny_network(), model.clone(), device, options);
        let n = whole.tasks().len() + 2;
        let res = whole.optimize_all(n, MEASUREMENTS);

        // The result describes the optimizer it came from.
        assert_eq!(res.round_reports.len(), n);
        assert!(!res.curve.is_empty(), "every task is measured within {n} rounds");
        assert_eq!(curve_bits(&res.curve), history_bits(&whole));
        assert_eq!(res.final_latency_ms.to_bits(), network_latency(whole.tasks()).to_bits());
        let unmeasured = whole.tasks().iter().filter(|t| t.best_latency_ms.is_infinite()).count();
        assert_eq!(res.unmeasured_tasks, unmeasured);

        // n ticks, appended by hand, give the same result.
        let mut ticked = Optimizer::with_options(tiny_network(), model.clone(), device, options);
        let ticks: Vec<NetworkTuneResult> = (0..n).map(|_| ticked.tick(MEASUREMENTS)).collect();
        let last = ticks.last().expect("n > 0");
        let appended = NetworkTuneResult {
            curve: ticks.iter().flat_map(|t| t.curve.iter().copied()).collect(),
            round_reports: ticks.iter().flat_map(|t| t.round_reports.iter().cloned()).collect(),
            final_latency_ms: last.final_latency_ms,
            unmeasured_tasks: last.unmeasured_tasks,
        };
        assert_same_result(&res, &appended, &format!("ticks at {threads} threads"));

        // One direct n-round driver call from the optimizer's seed.
        let sim = Simulator::new(device);
        let mut tasks: Vec<SearchTask> =
            tiny_network().iter().map(|t| SearchTask::from_task(t, &sim)).collect();
        let mut proposer = GradientProposer::new(options);
        let mut direct_model = model.clone();
        let mut clock = TuningClock::new();
        let opts = TuneOptions {
            measurements_per_round: MEASUREMENTS,
            fault_plan: options.fault_plan,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(0xF311);
        let direct = tune_network_with_sink(
            &mut tasks,
            &mut proposer,
            &mut direct_model,
            &sim,
            &mut clock,
            &ClockCosts,
            &opts,
            n,
            &mut rng,
            None,
        );
        assert_same_result(&res, &direct, &format!("direct driver at {threads} threads"));
        assert_eq!(clock.now_s().to_bits(), whole.tuning_time_s().to_bits());
        assert_eq!(rng.state(), whole.rng_state());
    }
}
