//! The four workloads and the output checks they share.

pub mod cold_ops;
pub mod persist_cycle;
pub mod serve_mixed;
pub mod tune_resnet50;

use crate::harness::{Checks, RunConfig, RunOutput, TempDir};
use felix_ansor::SearchTask;
use felix_sim::Simulator;

/// How many standard deviations of the simulator's lognormal measurement
/// noise a best latency may sit from the noise-free latency of its
/// schedule. A best-of-many picks low draws, so the band is generous; a
/// wrong schedule, unit or sketch misses it by orders of magnitude.
const NOISE_SIGMAS: f64 = 6.0;

/// Runs the workload `cfg` names.
pub fn run(cfg: &RunConfig, tmp: &TempDir) -> Option<RunOutput> {
    Some(match cfg.workload.as_str() {
        "tune_resnet50" => tune_resnet50::run(cfg),
        "cold_ops" => cold_ops::run(cfg),
        "persist_cycle" => persist_cycle::run(cfg, tmp),
        "serve_mixed" => serve_mixed::run(cfg, tmp),
        _ => return None,
    })
}

/// The bits a tune ends in: per-task incumbents, the master RNG position
/// and the simulated clock. Two runs of the same program agree on all of
/// it or they are not the same program.
#[derive(Debug, PartialEq, Eq)]
pub struct TunedState {
    latency_bits: Vec<u64>,
    schedules: Vec<Option<(usize, Vec<u64>)>>,
    rng: [u64; 4],
    clock_bits: u64,
}

pub fn tuned_state(tasks: &[SearchTask], rng: [u64; 4], clock_s: f64) -> TunedState {
    TunedState {
        latency_bits: tasks.iter().map(|t| t.best_latency_ms.to_bits()).collect(),
        schedules: tasks
            .iter()
            .map(|t| {
                t.best_schedule
                    .as_ref()
                    .map(|(sk, vals)| (*sk, vals.iter().map(|v| v.to_bits()).collect()))
            })
            .collect(),
        rng,
        clock_bits: clock_s.to_bits(),
    }
}

/// Checks one freshly tuned task against the simulator (the reference is
/// the simulator, never the tuner): it was measured at all, its best
/// schedule satisfies the sketch's constraints, and its best measured
/// latency lies within the noise band of the noise-free latency of that
/// schedule. Returns whether the operation counts as succeeded.
pub fn check_tuned_task(task: &SearchTask, sim: &Simulator, checks: &mut Checks) -> bool {
    let Some((sketch, vals)) = &task.best_schedule else {
        checks.record("every_task_measured", false, || {
            format!("{} has no measurement", task.name)
        });
        return false;
    };
    checks.record("every_task_measured", true, String::new);
    let st = &task.sketches[*sketch];
    let valid = st.program.constraints_ok(vals, 1e-9);
    checks.record("best_schedules_satisfy_constraints", valid, || {
        format!(
            "{}: {:?}",
            task.name,
            st.program.violated_constraints(vals, 1e-9)
        )
    });
    let reference = sim.latency_ms(&st.program, &st.features, vals);
    let off = (task.best_latency_ms / reference).ln().abs();
    let in_band = off <= NOISE_SIGMAS * sim.noise_sd;
    checks.record("best_latency_within_simulator_noise", in_band, || {
        format!(
            "{}: measured {} ms, simulator says {reference} ms",
            task.name, task.best_latency_ms
        )
    });
    valid && in_band
}
