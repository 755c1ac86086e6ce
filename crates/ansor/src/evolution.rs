//! Ansor's evolutionary search (population 2048, 4 generations by default,
//! §5), guided by the learned cost model.

use crate::{schedule_key, Proposer, SearchTask};
use felix_cost::{
    crossover_schedules, mutate_schedule, random_schedule, total_cmp_desc_nan_last,
    total_cmp_nan_last, Mlp, PackedMlp,
};
use felix_sim::clock::ClockCosts;
use felix_sim::TuningClock;
use rand::rngs::StdRng;
use rand::Rng;

/// Probability that a child of the next generation is a mutation of one
/// parent rather than a crossover of two.
const MUTATION_RATE: f64 = 0.85;

/// Fraction of the initial population seeded from previously measured
/// good schedules.
const ELITE_SEED_FRAC: f64 = 0.25;

/// Configuration of the evolutionary search.
#[derive(Clone, Copy, Debug)]
pub struct EvolutionConfig {
    /// Population size (paper: 2048).
    pub population: usize,
    /// Generations per round (paper: 4).
    pub generations: usize,
}

impl Default for EvolutionConfig {
    fn default() -> Self {
        EvolutionConfig { population: 2048, generations: 4 }
    }
}

/// The evolutionary candidate proposer.
#[derive(Clone, Debug)]
pub struct EvolutionaryProposer {
    /// Hyperparameters.
    pub config: EvolutionConfig,
    trace: Vec<f64>,
}

impl EvolutionaryProposer {
    /// With the paper's default settings.
    pub fn new(config: EvolutionConfig) -> Self {
        EvolutionaryProposer { config, trace: Vec::new() }
    }

    /// Scores a population through [`SearchTask::score_candidates`] and
    /// records the scores in the prediction trace. The clock is charged at
    /// the per-prediction rate of the baseline's accounting.
    fn score_population(
        &mut self,
        task: &SearchTask,
        model: &PackedMlp,
        pop: &[(usize, Vec<f64>)],
        clock: &mut TuningClock,
    ) -> Vec<f64> {
        clock.charge_predictions(pop.len());
        let scores = task.score_candidates(model, pop);
        self.trace.extend_from_slice(&scores);
        scores
    }

    /// [`Proposer::propose`] restricted to a caller-chosen sketch set — the
    /// descent supervisor's fallback path, which routes only the *degraded*
    /// sketches of a task through evolutionary search while healthy sketches
    /// keep their gradient budget. Returns an empty batch for an empty
    /// sketch list.
    pub fn propose_for_sketches(
        &mut self,
        task: &SearchTask,
        model: &Mlp,
        n: usize,
        clock: &mut TuningClock,
        rng: &mut StdRng,
        sketches: &[usize],
    ) -> Vec<(usize, Vec<f64>)> {
        if sketches.is_empty() || n == 0 {
            return Vec::new();
        }
        let cfg = self.config;
        // --- Initial population: elites from history + random samples -----
        let mut pop: Vec<(usize, Vec<f64>)> = Vec::with_capacity(cfg.population);
        // Quarantined sketches (persistent measurement failures) never seed
        // elites, even when the caller's sketch list probes them for
        // recovery — identical to the historical whole-task behavior.
        let mut elites: Vec<&(usize, Vec<f64>, f64)> = task
            .measured
            .iter()
            .filter(|(sk, _, _)| sketches.contains(sk) && !task.is_quarantined(*sk))
            .collect();
        elites.sort_by(|a, b| total_cmp_nan_last(&a.2, &b.2));
        let n_elite = ((cfg.population as f64 * ELITE_SEED_FRAC) as usize)
            .min(elites.len());
        for e in elites.iter().take(n_elite) {
            pop.push((e.0, e.1.clone()));
        }
        while pop.len() < cfg.population {
            let sk = sketches[rng.gen_range(0..sketches.len())];
            let st = &task.sketches[sk];
            let vals = random_schedule(&st.program, &st.rounding, rng, 32);
            pop.push((sk, vals));
        }
        clock.charge_evolution(cfg.population);

        // --- Generations --------------------------------------------------
        // One packed view of the model scores every generation.
        let packed = model.pack();
        let mut scores = self.score_population(task, &packed, &pop, clock);
        for _ in 0..cfg.generations {
            // Rank and keep the better half as parents.
            let mut order: Vec<usize> = (0..pop.len()).collect();
            order.sort_by(|&a, &b| total_cmp_desc_nan_last(&scores[a], &scores[b]));
            let parents: Vec<(usize, Vec<f64>)> = order[..pop.len() / 2]
                .iter()
                .map(|&i| pop[i].clone())
                .collect();
            let mut next: Vec<(usize, Vec<f64>)> = parents.clone();
            while next.len() < cfg.population {
                let (sk, base) = &parents[rng.gen_range(0..parents.len())];
                let st = &task.sketches[*sk];
                let child = if rng.gen_bool(MUTATION_RATE) {
                    mutate_schedule(&st.program, &st.rounding, base, rng, 8)
                } else {
                    // Crossover within the same sketch.
                    let same: Vec<&(usize, Vec<f64>)> =
                        parents.iter().filter(|(s, _)| s == sk).collect();
                    let other = same[rng.gen_range(0..same.len())];
                    crossover_schedules(&st.program, &st.rounding, base, &other.1, rng)
                };
                next.push((*sk, child));
            }
            clock.charge_evolution(cfg.population);
            pop = next;
            scores = self.score_population(task, &packed, &pop, clock);
        }

        // --- Pick the top-n unmeasured candidates -------------------------
        let mut order: Vec<usize> = (0..pop.len()).collect();
        order.sort_by(|&a, &b| total_cmp_desc_nan_last(&scores[a], &scores[b]));
        let mut out = Vec::with_capacity(n);
        let mut seen = std::collections::HashSet::new();
        for i in order {
            let (sk, vals) = &pop[i];
            // `random_schedule` falls back to its least-violating draw when
            // the sampling budget finds no fully-valid point; such candidates
            // would be rejected at measurement time, so drop them here rather
            // than waste proposal slots.
            if !task.sketches[*sk].program.constraints_ok(vals, 0.0) {
                continue;
            }
            if task.already_measured(*sk, vals) || !seen.insert(schedule_key(*sk, vals)) {
                continue;
            }
            out.push((*sk, vals.clone()));
            if out.len() >= n {
                break;
            }
        }
        out
    }
}

impl Default for EvolutionaryProposer {
    fn default() -> Self {
        Self::new(EvolutionConfig::default())
    }
}


impl Proposer for EvolutionaryProposer {
    fn name(&self) -> &'static str {
        "ansor-evolutionary"
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
        // Quarantined sketches (persistent measurement failures) are skipped
        // both when seeding elites and when sampling. With no quarantine the
        // active list is the identity permutation, so the RNG stream matches
        // the fault-unaware search exactly.
        let active = task.active_sketches();
        self.propose_for_sketches(task, model, n, clock, rng, &active)
    }

    fn take_prediction_trace(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tune_task_round_with_sink, TuneOptions};
    use felix_graph::{Op, Subgraph, Task};
    use felix_sim::{DeviceConfig, Simulator};
    use rand::SeedableRng;

    /// Pretraining dominates this suite's runtime, so every test shares one
    /// deterministic pretrained model (tests only read it or clone it).
    fn shared_model() -> &'static Mlp {
        static MODEL: std::sync::OnceLock<Mlp> = std::sync::OnceLock::new();
        MODEL.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(0);
            let ds = felix_cost::generate_dataset(&DeviceConfig::a5000(), 6, 12, 5);
            let mut mlp = Mlp::new(&mut rng);
            felix_cost::pretrain(
                &mut mlp,
                &ds.samples,
                &felix_cost::TrainConfig { epochs: 8, batch_size: 64, lr: 1e-3, seed: 0, ..Default::default() },
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

    fn small_cfg() -> EvolutionConfig {
        EvolutionConfig { population: 64, generations: 2 }
    }

    #[test]
    fn proposes_valid_unique_candidates() {
        let (task, model, _sim) = setup();
        let mut prop = EvolutionaryProposer::new(small_cfg());
        let mut clock = TuningClock::new();
        let mut rng = StdRng::seed_from_u64(1);
        let cands = prop.propose(&task, &model, 16, &mut clock, &ClockCosts, &mut rng);
        assert!(!cands.is_empty());
        let mut seen = std::collections::HashSet::new();
        for (sk, vals) in &cands {
            assert!(task.sketches[*sk].program.constraints_ok(vals, 0.0));
            assert!(seen.insert(format!("{sk}:{vals:?}")), "duplicate candidate");
        }
        assert!(clock.now_s() > 0.0, "search time must be charged");
    }

    #[test]
    fn prediction_trace_is_recorded() {
        let (task, model, _sim) = setup();
        let mut prop = EvolutionaryProposer::new(small_cfg());
        let mut clock = TuningClock::new();
        let mut rng = StdRng::seed_from_u64(2);
        prop.propose(&task, &model, 8, &mut clock, &ClockCosts, &mut rng);
        let trace = prop.take_prediction_trace();
        // population * (generations + 1) predictions.
        assert_eq!(trace.len(), 64 * 3);
        assert!(prop.take_prediction_trace().is_empty(), "trace drains");
    }

    /// A model predicting NaN for every input: the output-layer bias is
    /// patched to NaN through the serialized form (the field is private,
    /// and hidden-layer NaNs never reach the output — `f32::max` in the
    /// ReLU swallows them).
    fn nan_model() -> Mlp {
        let mut rng = StdRng::seed_from_u64(9);
        let mlp = Mlp::new(&mut rng);
        let mut bytes = Vec::new();
        mlp.save(&mut bytes).expect("save");
        // Layout: magic, layer count, (w, b) per layer, mean, std — so the
        // final bias (length 1) sits just before the two normalization
        // vectors at the tail.
        let d = mlp.input_mean.len();
        let off = bytes.len() - 2 * (8 + 4 * d) - 4;
        bytes[off..off + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        Mlp::load(bytes.as_slice()).expect("load")
    }

    #[test]
    fn nan_cost_model_does_not_panic_ranking() {
        // A poisoned model predicts NaN for every candidate (e.g. weights
        // blown up by a bad fine-tuning batch). Ranking must survive that —
        // with `partial_cmp(..).expect(..)` comparators this test aborts
        // the process.
        let (mut task, _model, _sim) = setup();
        task.record(0, vec![2.0; task.sketches[0].program.vars.len()], 1.5);
        let nan_model = nan_model();
        let mut rng = StdRng::seed_from_u64(9);
        let mut prop = EvolutionaryProposer::new(small_cfg());
        let mut clock = TuningClock::new();
        let cands = prop.propose(&task, &nan_model, 8, &mut clock, &ClockCosts, &mut rng);
        for (sk, vals) in &cands {
            assert!(task.sketches[*sk].program.constraints_ok(vals, 0.0));
        }
        let trace = prop.take_prediction_trace();
        assert!(!trace.is_empty() && trace.iter().all(|s| s.is_nan()));
    }

    #[test]
    fn evolution_beats_pure_random_on_average() {
        let (mut task, mut model, sim) = setup();
        let mut clock = TuningClock::new();
        let opts = TuneOptions { measurements_per_round: 12, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(3);
        let mut evo = EvolutionaryProposer::new(small_cfg());
        for _ in 0..3 {
            tune_task_round_with_sink(
                &mut task, &mut evo, &mut model, &sim, &mut clock, &ClockCosts,
                &opts, &mut rng, None,
            );
        }
        let evo_best = task.best_latency_ms;

        let mut task2 = SearchTask::from_task(
            &Task {
                subgraph: Subgraph { ops: vec![Op::Dense { m: 512, k: 512, n: 512 }] },
                weight: 1,
            },
            &sim,
        );
        let mut rnd = crate::RandomProposer;
        let mut clock2 = TuningClock::new();
        for _ in 0..3 {
            tune_task_round_with_sink(
                &mut task2, &mut rnd, &mut model, &sim, &mut clock2, &ClockCosts,
                &opts, &mut rng, None,
            );
        }
        // Cost-model-guided search should find at least as good a schedule.
        assert!(
            evo_best <= task2.best_latency_ms * 1.3,
            "evolution {evo_best} vs random {}",
            task2.best_latency_ms
        );
    }
}
