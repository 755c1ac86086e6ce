//! Seed-health supervision for the gradient-descent runtime.
//!
//! The descent loop of [`crate::gd`] is numerically adversarial: the cost
//! model can emit NaN, a penalty term can overflow, and a pathological tape
//! can diverge monotonically without ever producing a non-finite value. The
//! supervisor watches every Adam step of every seed and intervenes
//! per-seed, never globally:
//!
//! - **Non-finite detection** — the objective value, the gradient, and the
//!   tape roots (features *and* penalties) are checked every step; any
//!   NaN/Inf restarts the seed.
//! - **Divergence detection** — a seed whose objective value rises
//!   monotonically for `DIVERGENCE_WINDOW` (16) consecutive steps *and*
//!   cumulatively by more than `DIVERGENCE_MIN_RISE` (1e4) is declared
//!   diverging and restarted. Both conditions are required: healthy
//!   descent over a multi-modal landscape routinely rises for a few steps.
//! - **Gradient clipping** — gradient norms above the active clip are
//!   scaled down (a trust region on the step, not a restart).
//! - **Deterministic restarts** — a restarted seed redraws its starting
//!   point from a dedicated RNG substream derived by pure hashing
//!   ([`restart_stream`]), never from the master RNG, so a restart never
//!   shifts a healthy seed's stream. Each restart halves the seed's Adam
//!   learning rate (trust-region backoff).
//! - **Exhaustion** — a seed that burns through `RESTART_BUDGET` (3)
//!   restarts is frozen; a sketch whose seeds are all frozen escalates one
//!   rung down the degradation ladder (gradient → clipped gradient →
//!   evolutionary).
//!
//! The thresholds are constants chosen so a healthy run never trips any of
//! them: supervision is then observation-only. Each group of the descent
//! (one worker's share of the seeds, cut at sketch boundaries into
//! segments) returns its failure counters and one [`SketchHealth`] per
//! segment; the proposer adds the counters up, merges the lane
//! health per sketch index, and [`round_report`] turns them into the
//! round's [`HealthReport`] — counters plus every sketch's mode for the
//! next round, decided by [`next_mode`], the one place the ladder policy
//! lives. The task adopts those modes as they are, and the record log
//! persists them.

use felix_ansor::{HealthReport, SketchMode};
use felix_records::{fnv1a, FNV_OFFSET};

/// Consecutive monotonically-rising objective steps before a seed is
/// considered diverging.
const DIVERGENCE_WINDOW: usize = 16;

/// Minimum cumulative objective rise over the window; guards against
/// flagging the small rises of healthy non-convex descent.
const DIVERGENCE_MIN_RISE: f64 = 1e4;

/// Restarts per seed per round before the seed is frozen (exhausted).
const RESTART_BUDGET: usize = 3;

/// Per-seed supervision state, advanced once per Adam step.
#[derive(Clone, Copy, Debug)]
pub struct SeedHealth {
    /// Objective value of the previous step (`INFINITY` before the first).
    pub last_obj: f64,
    /// Objective value where the current monotone rise began.
    pub rise_start_obj: f64,
    /// Length of the current monotone rise, in steps.
    pub rising_steps: usize,
    /// Restarts consumed so far this round.
    pub restarts: usize,
    /// Restart budget exhausted; the seed is frozen at its current point.
    pub exhausted: bool,
}

impl Default for SeedHealth {
    fn default() -> Self {
        SeedHealth {
            last_obj: f64::INFINITY,
            rise_start_obj: f64::INFINITY,
            rising_steps: 0,
            restarts: 0,
            exhausted: false,
        }
    }
}

impl SeedHealth {
    /// Feeds one step's objective value; returns `true` when the divergence
    /// criterion trips (monotone rise of `DIVERGENCE_WINDOW` steps with
    /// cumulative rise above `DIVERGENCE_MIN_RISE`).
    pub fn note_objective(&mut self, obj: f64) -> bool {
        if obj > self.last_obj {
            if self.rising_steps == 0 {
                self.rise_start_obj = self.last_obj;
            }
            self.rising_steps += 1;
        } else {
            self.rising_steps = 0;
        }
        self.last_obj = obj;
        self.rising_steps >= DIVERGENCE_WINDOW && obj - self.rise_start_obj > DIVERGENCE_MIN_RISE
    }

    /// Consumes one restart (resetting the divergence window) and reports
    /// whether `RESTART_BUDGET` allowed it; `false` freezes the seed
    /// instead.
    pub fn consume_restart(&mut self) -> bool {
        if self.restarts >= RESTART_BUDGET {
            self.exhausted = true;
            return false;
        }
        self.restarts += 1;
        self.rising_steps = 0;
        self.last_obj = f64::INFINITY;
        self.rise_start_obj = f64::INFINITY;
        true
    }
}

/// Round-scoped salt for restart substreams: a pure FNV-1a hash of the task
/// name and its round counter. No master-RNG draw is consumed, so computing
/// the salt is invisible to a fault-free run.
pub fn restart_salt(task_name: &str, rounds: usize) -> u64 {
    let h = fnv1a(FNV_OFFSET, task_name.as_bytes());
    fnv1a(h, &rounds.to_le_bytes())
}

/// The RNG stream seed for the `restart`-th restart of global seed slot
/// `seed_index` under `salt`. Distinct (salt, slot, restart) triples map to
/// distinct streams; the mapping is pure, so restarts are reproducible at
/// any thread count and invisible to seeds that never restart.
pub fn restart_stream(salt: u64, seed_index: usize, restart: usize) -> u64 {
    let h = fnv1a(salt, &(seed_index as u64).to_le_bytes());
    fnv1a(h, &(restart as u64).to_le_bytes())
}

/// Health of one sketch's lanes this round: one descent segment's, or
/// every segment's of the sketch after [`SketchHealth::merge`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SketchHealth {
    /// Seeds descending this sketch.
    pub lanes: usize,
    /// Seeds frozen after exhausting the restart budget.
    pub exhausted_lanes: usize,
    /// Supervision events (non-finite, divergence, clip) on this sketch.
    pub events: usize,
    /// A panic escaped this sketch's tape or objective; the sketch is
    /// quarantined from gradient descent.
    pub poisoned: bool,
}

impl SketchHealth {
    /// Folds another segment of the same sketch into `self`: lane and event
    /// counts add, `poisoned` ORs.
    pub fn merge(&mut self, other: &SketchHealth) {
        self.lanes += other.lanes;
        self.exhausted_lanes += other.exhausted_lanes;
        self.events += other.events;
        self.poisoned |= other.poisoned;
    }
}

/// The degradation ladder: a sketch's mode for the next round, from its
/// mode this round, what its lanes did (`None` when no seed descended it)
/// and whether its tape is pathological (non-finite at the probe point).
/// Pathological and poisoned (panicking) sketches drop straight to
/// [`SketchMode::Evolutionary`]; a sketch whose every lane exhausted its
/// restart budget steps one rung down; a clipped sketch with a clean round
/// steps back up to [`SketchMode::Gradient`]. Evolutionary is sticky.
pub fn next_mode(mode: SketchMode, seen: Option<&SketchHealth>, pathological: bool) -> SketchMode {
    match seen {
        _ if pathological => SketchMode::Evolutionary,
        Some(s) if s.poisoned => SketchMode::Evolutionary,
        Some(s) if s.lanes > 0 && s.exhausted_lanes == s.lanes => match mode {
            SketchMode::Gradient => SketchMode::ClippedGradient,
            SketchMode::ClippedGradient | SketchMode::Evolutionary => SketchMode::Evolutionary,
        },
        Some(s) if mode == SketchMode::ClippedGradient && s.events == 0 => SketchMode::Gradient,
        _ => mode,
    }
}

/// The round's report: the summed group `counters` plus one caught panic per
/// poisoned sketch, and, per sketch, the [`next_mode`] after `modes` (this
/// round's), from `sketches` (indexed like `modes`; a sketch no seed
/// descended has no lanes) and the `pathological` flag of each.
pub fn round_report(
    counters: HealthReport,
    sketches: &[SketchHealth],
    modes: &[SketchMode],
    pathological: &[bool],
) -> HealthReport {
    let modes = modes
        .iter()
        .zip(sketches)
        .zip(pathological)
        .map(|((&mode, s), &pathological)| {
            next_mode(mode, Some(s).filter(|s| s.lanes > 0), pathological)
        })
        .collect();
    let panics_caught = sketches.iter().filter(|s| s.poisoned).count();
    HealthReport { modes, panics_caught, ..counters }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divergence_needs_both_window_and_rise() {
        let mut h = SeedHealth::default();
        // Monotone rise but tiny: never trips.
        for i in 0..40 {
            assert!(!h.note_objective(f64::from(i)));
        }
        // Large rise but interrupted every few steps: never trips.
        let mut h = SeedHealth::default();
        for i in 0..40 {
            let obj = if i % 8 == 7 { 0.0 } else { f64::from(i) * 1e4 };
            assert!(!h.note_objective(obj));
        }
        // Monotone AND large: trips exactly at the window boundary.
        let mut h = SeedHealth::default();
        let mut tripped = None;
        for i in 0..40 {
            if h.note_objective(f64::from(i) * 1e4) {
                tripped = Some(i);
                break;
            }
        }
        // Step 0 starts the window (last_obj = INFINITY is not exceeded),
        // so the 16th consecutive rise lands on step 16.
        assert_eq!(tripped, Some(16));
    }

    #[test]
    fn restart_budget_freezes_after_exhaustion() {
        let mut h = SeedHealth::default();
        for _ in 0..RESTART_BUDGET {
            assert!(h.consume_restart());
        }
        assert!(!h.exhausted);
        assert!(!h.consume_restart(), "one restart past the budget");
        assert!(h.exhausted);
        assert_eq!(h.restarts, RESTART_BUDGET);
    }

    #[test]
    fn restart_streams_are_pure_and_distinct() {
        let salt = restart_salt("dense-512", 3);
        assert_eq!(salt, restart_salt("dense-512", 3), "salt is pure");
        assert_eq!(restart_salt("dense", 3), 0x1d40_01b4_1228_6db3, "substreams moved");
        assert_ne!(salt, restart_salt("dense-512", 4));
        assert_ne!(salt, restart_salt("dense-256", 3));
        let s = restart_stream(salt, 5, 1);
        assert_eq!(s, restart_stream(salt, 5, 1), "stream is pure");
        assert_ne!(s, restart_stream(salt, 5, 2));
        assert_ne!(s, restart_stream(salt, 6, 1));
    }

    #[test]
    fn sketch_health_merge_adds_counts_and_ors_poison() {
        let mut a = SketchHealth { lanes: 2, events: 1, ..SketchHealth::default() };
        a.merge(&SketchHealth { lanes: 1, exhausted_lanes: 1, poisoned: true, events: 0 });
        a.merge(&SketchHealth { lanes: 1, ..SketchHealth::default() });
        assert_eq!(a, SketchHealth { lanes: 4, exhausted_lanes: 1, events: 1, poisoned: true });
    }

    #[test]
    fn next_mode_walks_the_degradation_ladder() {
        use SketchMode::{ClippedGradient as Clipped, Evolutionary as Evo, Gradient as Gd};
        let lanes = |exhausted: usize, events: usize, poisoned: bool| SketchHealth {
            lanes: 2,
            exhausted_lanes: exhausted,
            events,
            poisoned,
        };
        let clean = lanes(0, 0, false);
        let noisy = lanes(0, 3, false);
        let exhausted = lanes(2, 5, false);
        let poisoned = lanes(0, 0, true);
        // (case, mode this round, lanes seen, pathological, next mode)
        let table: [(&str, SketchMode, Option<&SketchHealth>, bool, SketchMode); 12] = [
            ("poisoned gradient", Gd, Some(&poisoned), false, Evo),
            ("poisoned clipped", Clipped, Some(&poisoned), false, Evo),
            ("pathological gradient", Gd, None, true, Evo),
            ("pathological clipped", Clipped, None, true, Evo),
            ("exhausted gradient", Gd, Some(&exhausted), false, Clipped),
            ("exhausted clipped", Clipped, Some(&exhausted), false, Evo),
            ("exhausted evolutionary", Evo, Some(&exhausted), false, Evo),
            ("clipped, clean round", Clipped, Some(&clean), false, Gd),
            ("clipped, events but no exhaustion", Clipped, Some(&noisy), false, Clipped),
            ("untouched gradient", Gd, Some(&noisy), false, Gd),
            ("clipped, no lanes", Clipped, None, false, Clipped),
            ("untouched evolutionary", Evo, None, false, Evo),
        ];
        for (case, mode, seen, pathological, next) in table {
            assert_eq!(next_mode(mode, seen, pathological), next, "{case}");
        }
    }

    #[test]
    fn round_report_decides_every_sketch_and_counts_poisoned_sketches() {
        let counters = HealthReport { seed_restarts: 4, ..HealthReport::default() };
        let exhausted = SketchHealth { lanes: 1, exhausted_lanes: 1, ..SketchHealth::default() };
        let poisoned = SketchHealth { lanes: 3, poisoned: true, ..SketchHealth::default() };
        let sketches = [exhausted, SketchHealth::default(), poisoned, SketchHealth::default()];
        let modes = [
            SketchMode::Gradient,
            SketchMode::Gradient,
            SketchMode::Gradient,
            SketchMode::ClippedGradient,
        ];
        let report = round_report(counters, &sketches, &modes, &[false, true, false, false]);
        assert_eq!(report.seed_restarts, 4);
        assert_eq!(report.panics_caught, 1, "one panic per poisoned sketch");
        assert_eq!(
            report.modes,
            [
                SketchMode::ClippedGradient,
                SketchMode::Evolutionary,
                SketchMode::Evolutionary,
                // No lanes: not seen, so a clipped sketch stays clipped.
                SketchMode::ClippedGradient,
            ]
        );
    }
}
