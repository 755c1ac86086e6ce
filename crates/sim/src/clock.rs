//! Simulated tuning wall-clock.
//!
//! The paper's tuning-time axes (Figs. 7/10, Tables 1/2) measure real
//! elapsed time, dominated by compiling and running candidate schedules
//! (each candidate runs for ~100 ms, §5) plus search computation. This clock
//! reproduces that accounting deterministically so time-vs-quality curves
//! are comparable across tools. Every simulated cost is a constant of this
//! module, charged through a [`TuningClock`] method.

use crate::fault::{FaultKind, MeasureOutcome};

/// Seconds to compile one candidate kernel.
pub const COMPILE_S: f64 = 0.7;
/// Seconds each candidate is run on the device (§5: ~100 ms).
pub const RUN_S: f64 = 0.1;
/// Extra seconds per measurement when the device is driven over RPC.
pub const RPC_S: f64 = 0.25;
/// Seconds per cost-model prediction (one-at-a-time dispatch).
pub const PREDICT_S: f64 = 40e-6;
/// Marginal seconds per prediction inside a matrix-shaped batch call:
/// batching amortizes dispatch and wins weight-row locality, so the
/// per-sample cost is well below [`PREDICT_S`].
pub const PREDICT_BATCH_S: f64 = 12e-6;
/// Seconds per gradient-descent step per seed (forward + backward).
pub const GRAD_STEP_S: f64 = 220e-6;
/// Seconds per evolutionary mutation/crossover per candidate.
pub const EVOLVE_S: f64 = 12e-6;
/// Seconds to fine-tune the cost model on one round of measurements.
pub const MODEL_UPDATE_S: f64 = 1.2;
/// Watchdog budget burned by a timed-out run before it is killed.
pub const TIMEOUT_S: f64 = 1.0;
/// Backoff before the first retry of a failed measurement; it doubles per
/// retry.
pub const BACKOFF_S: f64 = 0.5;

/// Accumulates simulated tuning time.
#[derive(Clone, Copy, Debug, Default)]
pub struct TuningClock {
    now_s: f64,
}

/// An empty type. Pinned by the frozen ledger: `benchmark/` passes
/// `&ClockCosts::default()` to `Proposer::propose` and to both round
/// drivers, so those three signatures keep it until ROADMAP item 1 step B
/// deletes it there. The costs themselves are this module's constants.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClockCosts;

impl TuningClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time in seconds.
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Advances time by an arbitrary amount (restoring a checkpoint's
    /// clock).
    pub fn advance(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0, "time moves forward");
        self.now_s += seconds;
    }

    /// Charges `n` cost-model predictions.
    pub fn charge_predictions(&mut self, n: usize) {
        self.now_s += n as f64 * PREDICT_S;
    }

    /// Charges `n` cost-model predictions evaluated as one matrix-shaped
    /// batch. The charge depends only on `n`, never on how many worker
    /// threads executed the batch, so serial and parallel tuner runs
    /// produce identical simulated-time curves.
    pub fn charge_batched_predictions(&mut self, n: usize) {
        self.now_s += n as f64 * PREDICT_BATCH_S;
    }

    /// Charges `n` evolutionary-search candidate operations.
    pub fn charge_evolution(&mut self, n: usize) {
        self.now_s += n as f64 * EVOLVE_S;
    }

    /// Charges one gradient-descent step over `n_seeds` seeds.
    pub fn charge_gradient_step(&mut self, n_seeds: usize) {
        self.now_s += n_seeds as f64 * GRAD_STEP_S;
    }

    /// Charges one on-device measurement attempt. A success, like a device
    /// error, burns compile plus the timed run; a build error burns only
    /// the compile; a timeout burns compile plus the full watchdog budget.
    /// RPC transport is paid whenever the device was reached.
    pub fn charge_measurement(&mut self, outcome: MeasureOutcome, rpc: bool) {
        let (burned, reached_device) = match outcome {
            MeasureOutcome::Fail(FaultKind::BuildError) => (COMPILE_S, false),
            MeasureOutcome::Fail(FaultKind::Timeout) => (COMPILE_S + TIMEOUT_S, true),
            MeasureOutcome::Ok(_) | MeasureOutcome::Fail(FaultKind::DeviceError) => {
                (COMPILE_S + RUN_S, true)
            }
        };
        self.now_s += burned;
        if rpc && reached_device {
            self.now_s += RPC_S;
        }
    }

    /// Charges the backoff before retry number `retry` (0-based) of a
    /// failed measurement: [`BACKOFF_S`], doubling per retry.
    pub fn charge_retry_backoff(&mut self, retry: usize) {
        self.now_s += BACKOFF_S * 2.0f64.powi(retry as i32);
    }

    /// Charges one cost-model fine-tuning update.
    pub fn charge_model_update(&mut self) {
        self.now_s += MODEL_UPDATE_S;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: MeasureOutcome = MeasureOutcome::Ok(1.0);

    #[test]
    fn measurement_dominates_prediction() {
        let mut a = TuningClock::new();
        a.charge_predictions(8192); // one Ansor round of predictions
        let mut b = TuningClock::new();
        for _ in 0..64 {
            b.charge_measurement(OK, false); // one Ansor round of measures
        }
        assert!(b.now_s() > 10.0 * a.now_s());
    }

    #[test]
    fn batched_predictions_cost_less_than_scalar() {
        let mut scalar = TuningClock::new();
        scalar.charge_predictions(1000);
        let mut batched = TuningClock::new();
        batched.charge_batched_predictions(1000);
        assert!(batched.now_s() > 0.0);
        assert!(batched.now_s() < scalar.now_s());
    }

    #[test]
    fn failed_measurements_burn_time() {
        let charged = |kind, rpc| {
            let mut clock = TuningClock::new();
            clock.charge_measurement(MeasureOutcome::Fail(kind), rpc);
            clock.now_s()
        };
        assert_eq!(charged(FaultKind::BuildError, false), COMPILE_S);
        // A build error never reaches the device, so RPC is not paid.
        assert_eq!(charged(FaultKind::BuildError, true), COMPILE_S);
        assert_eq!(charged(FaultKind::Timeout, false), COMPILE_S + TIMEOUT_S);
        assert_eq!(charged(FaultKind::DeviceError, true), COMPILE_S + RUN_S + RPC_S);
        // A timeout wastes more than a clean measurement.
        let mut ok = TuningClock::new();
        ok.charge_measurement(OK, false);
        assert!(charged(FaultKind::Timeout, false) > ok.now_s());
    }

    #[test]
    fn rpc_costs_extra() {
        let mut local = TuningClock::new();
        local.charge_measurement(OK, false);
        let mut remote = TuningClock::new();
        remote.charge_measurement(OK, true);
        assert!(remote.now_s() > local.now_s());
    }

    #[test]
    fn felix_round_is_cheaper_than_ansor_round() {
        // Felix: 200 grad steps x 8 seeds + 16 measurements.
        // Ansor: 2048 x 4 evolution + 8192 predictions + 64 measurements.
        let mut felix = TuningClock::new();
        for _ in 0..200 {
            felix.charge_gradient_step(8);
        }
        felix.charge_predictions(1600);
        for _ in 0..16 {
            felix.charge_measurement(OK, false);
        }
        let mut ansor = TuningClock::new();
        ansor.charge_evolution(8192);
        ansor.charge_predictions(8192);
        for _ in 0..64 {
            ansor.charge_measurement(OK, false);
        }
        assert!(
            felix.now_s() * 2.5 < ansor.now_s(),
            "felix {} vs ansor {}",
            felix.now_s(),
            ansor.now_s()
        );
    }

    /// Every charge, in a fixed order, lands on the exact bits the
    /// accounting has always produced: a changed constant or a regrouped
    /// sum moves every simulated-time axis, and fails here first.
    #[test]
    fn charge_sequence_is_pinned_to_the_bit() {
        let mut c = TuningClock::new();
        c.charge_batched_predictions(16 * 64);
        c.charge_predictions(8192);
        for _ in 0..200 {
            c.charge_gradient_step(16);
        }
        c.charge_evolution(2048);
        for rpc in [false, true] {
            c.charge_measurement(OK, rpc);
            for kind in [FaultKind::BuildError, FaultKind::Timeout, FaultKind::DeviceError] {
                c.charge_measurement(MeasureOutcome::Fail(kind), rpc);
            }
        }
        for retry in 0..=2 {
            c.charge_retry_backoff(retry);
        }
        c.charge_model_update();
        assert_eq!(c.now_s().to_bits(), 0x402d_097e_9963_12f2, "{}", c.now_s());
    }
}
