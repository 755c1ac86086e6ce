//! Offline pretraining and online fine-tuning of the cost model.
//!
//! Both run the one training step, `TrainStep::run`: a packed batched
//! forward over the minibatch, the loss's per-sample output seeds, the
//! batched backward into the parameter gradients, and one Adam update —
//! all from buffers that live for the whole call. The Adam moments are
//! among them only when the call takes more than one step.

use crate::{
    generate_dataset, AdamState, Mlp, MlpScratch, Sample, NATIVE_BACKWARD, NATIVE_WEIGHT_GRAD,
};
use felix_sim::DeviceConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which training objective to use.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LossKind {
    /// Mean squared error on the score (simple, our default).
    #[default]
    Mse,
    /// TenSet's pairwise logistic ranking loss — only the *ordering* of
    /// schedules matters for search.
    PairwiseRank,
}

/// Training hyperparameters (TenSet defaults).
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Epoch count.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// RNG seed for shuffling.
    pub seed: u64,
    /// Training objective.
    pub loss: LossKind,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig { epochs: 30, batch_size: 128, lr: 7e-4, seed: 0, loss: LossKind::Mse }
    }
}

/// Indices of the samples with a fully finite feature vector and score.
/// A NaN or infinite sample — e.g. a faulted measurement whose latency
/// never became a real number — would poison every weight (and the input
/// normalization) it touches, so training skips such samples entirely.
/// With an all-finite set this is the identity list and training is
/// bit-identical to an unfiltered run.
pub fn finite_sample_indices(samples: &[Sample]) -> Vec<usize> {
    samples
        .iter()
        .enumerate()
        .filter(|(_, s)| s.score.is_finite() && s.logfeats.iter().all(|f| f.is_finite()))
        .map(|(i, _)| i)
        .collect()
}

/// How many samples of `samples` training would skip as non-finite.
pub fn nonfinite_sample_count(samples: &[Sample]) -> usize {
    samples.len() - finite_sample_indices(samples).len()
}

/// Pretrains a model on a dataset; returns per-epoch mean training loss.
///
/// Fits input normalization before the first epoch, on the finite samples
/// only (a single NaN feature would otherwise poison the mean for every
/// input dimension).
pub fn pretrain(mlp: &mut Mlp, samples: &[Sample], cfg: &TrainConfig) -> Vec<f64> {
    assert!(!samples.is_empty(), "cannot train on an empty dataset");
    let keep = finite_sample_indices(samples);
    assert!(!keep.is_empty(), "cannot train: every sample is non-finite");
    let inputs: Vec<Vec<f64>> = keep.iter().map(|&i| samples[i].logfeats.clone()).collect();
    mlp.fit_normalization(&inputs);
    run_epochs(mlp, samples, cfg)
}

/// The one per-device pretraining recipe: `n_workloads` × `schedules`
/// synthetic samples (dataset seed `0xFE11C5`), a 90/10 split (`split(0)`),
/// weights drawn from seed `0xC0571`, then `epochs` epochs of [`pretrain`]
/// at TenSet's batch size and learning rate. Returns the model and the
/// held-out validation samples.
pub fn pretrain_for_device(
    device: &DeviceConfig,
    n_workloads: usize,
    schedules: usize,
    epochs: usize,
) -> (Mlp, Vec<Sample>) {
    let ds = generate_dataset(device, n_workloads, schedules, 0xFE11C5);
    let (train, val) = ds.split(0);
    let mut mlp = Mlp::new(&mut StdRng::seed_from_u64(0xC0571));
    pretrain(&mut mlp, &train, &TrainConfig { epochs, seed: 1, ..Default::default() });
    (mlp, val)
}

/// Online fine-tuning on newly measured schedules (Algorithm 1 line 24):
/// a few epochs at a reduced learning rate, keeping the existing
/// normalization.
///
/// Uses the pairwise ranking loss, not MSE: round buffers hold few samples
/// from one task whose scores span a narrow band, and MSE mostly corrects
/// the task-level offset — dragging every weight toward the band's mean and
/// destroying the within-task ordering the search actually consumes. The
/// rank loss is offset-invariant, so the update can only spend gradient on
/// ordering.
pub fn fine_tune(mlp: &mut Mlp, samples: &[Sample], epochs: usize, lr: f32) -> f64 {
    let n_finite = samples.len() - nonfinite_sample_count(samples);
    if n_finite == 0 {
        return 0.0;
    }
    let cfg = TrainConfig {
        epochs,
        batch_size: n_finite.min(64),
        lr,
        seed: 1,
        loss: LossKind::PairwiseRank,
    };
    let losses = run_epochs(mlp, samples, &cfg);
    *losses.last().unwrap_or(&0.0)
}

/// `cfg.epochs` shuffled passes of [`TrainStep::run`] over the finite
/// samples, from a fresh Adam state; returns each epoch's mean minibatch
/// loss. The state keeps moment buffers only if the call takes more than
/// one step (`epochs × ⌈n_finite / batch_size⌉`), since only a later step
/// reads them.
fn run_epochs(mlp: &mut Mlp, samples: &[Sample], cfg: &TrainConfig) -> Vec<f64> {
    // Train only on finite samples; with an all-finite set this is the
    // identity order and the shuffle/batch walk is byte-identical to the
    // unfiltered loop.
    let mut order: Vec<usize> = finite_sample_indices(samples);
    let steps = cfg.epochs * order.len().div_ceil(cfg.batch_size);
    let mut adam = AdamState::for_steps(mlp, steps);
    let mut step = TrainStep::default();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut total = 0.0;
        let mut batches = 0usize;
        for batch in order.chunks(cfg.batch_size) {
            total += step.run(mlp, samples, batch, cfg, &mut adam);
            batches += 1;
        }
        epoch_losses.push(total / batches.max(1) as f64);
    }
    epoch_losses
}

/// The buffers one training call reuses across its minibatches, so every
/// step after the first allocates nothing.
///
/// The fine-tune step is the process's resident-memory peak, so the
/// weight-sized buffers are budgeted: `wbuf` holds the packed weights
/// during a minibatch's forward and, once the pack is released, the weight
/// gradients during its backward. A pack and a gradient are never resident
/// together, and a one-step call keeps no Adam moments, so that call's
/// weight-sized memory is the one `wbuf` (`tests/alloc_budget.rs` holds
/// its heap growth under twice the weights).
#[derive(Default)]
struct TrainStep {
    /// The forward's activations, then the backward's gradient rows.
    scratch: MlpScratch,
    /// Per layer: the packed panels, then the weight gradient.
    wbuf: Vec<Vec<f32>>,
    /// Per layer: the bias gradient.
    gb: Vec<Vec<f32>>,
    scores: Vec<f64>,
    targets: Vec<f64>,
    /// Per-sample `∂loss/∂score`.
    seeds: Vec<f32>,
    /// The rank loss's `f64` seed accumulators.
    seed_acc: Vec<f64>,
}

impl TrainStep {
    /// One forward, backward and Adam update on the samples `batch` indexes
    /// (rows are read in place, not copied); returns the minibatch loss.
    fn run(
        &mut self,
        mlp: &mut Mlp,
        samples: &[Sample],
        batch: &[usize],
        cfg: &TrainConfig,
        adam: &mut AdamState,
    ) -> f64 {
        let packed = mlp.pack_into(std::mem::take(&mut self.wbuf));
        let rows = batch.iter().map(|&i| samples[i].logfeats.as_slice());
        packed.forward_rows(rows, &mut self.scratch, &mut self.scores);
        self.wbuf = packed.into_panels();
        self.targets.clear();
        self.targets.extend(batch.iter().map(|&i| samples[i].score));
        let (scores, targets, seeds) = (&self.scores, &self.targets, &mut self.seeds);
        let loss = match cfg.loss {
            LossKind::Mse => mse_seeds(scores, targets, seeds),
            LossKind::PairwiseRank => rank_seeds(scores, targets, &mut self.seed_acc, seeds),
        };
        let (seeds, scratch, gw, gb) = (&self.seeds, &mut self.scratch, &mut self.wbuf, &mut self.gb);
        mlp.param_grads(NATIVE_BACKWARD, NATIVE_WEIGHT_GRAD, seeds, scratch, gw, gb);
        mlp.apply_adam(&self.wbuf, &self.gb, adam, cfg.lr);
        loss
    }
}

/// MSE loss over a minibatch; writes its per-sample output seeds.
fn mse_seeds(scores: &[f64], targets: &[f64], seeds: &mut Vec<f32>) -> f64 {
    let bs = scores.len() as f64;
    let mut loss = 0.0;
    seeds.clear();
    seeds.extend(scores.iter().zip(targets).map(|(s, t)| {
        let err = s - t;
        loss += err * err;
        (2.0 * err / bs) as f32
    }));
    loss / bs
}

/// Pairwise logistic ranking loss (TenSet's ranking objective): for every
/// pair where `target_i > target_j`, `log(1 + exp(−(score_i − score_j)))`.
/// Returns the mean pair loss and writes the per-sample output seeds
/// (accumulated in `acc`). With no strictly ordered pair the loss and
/// every seed are zero, so the step is a zero-gradient Adam step.
fn rank_seeds(scores: &[f64], targets: &[f64], acc: &mut Vec<f64>, seeds: &mut Vec<f32>) -> f64 {
    let n = scores.len();
    acc.clear();
    acc.resize(n, 0.0);
    let mut loss = 0.0;
    let mut pairs = 0usize;
    for i in 0..n {
        for j in 0..n {
            if targets[i] <= targets[j] {
                continue;
            }
            let d = scores[i] - scores[j];
            loss += (1.0 + (-d).exp()).ln();
            // dL/dd = -sigmoid(-d).
            let g = -1.0 / (1.0 + d.exp());
            acc[i] += g;
            acc[j] -= g;
            pairs += 1;
        }
    }
    seeds.clear();
    if pairs == 0 {
        seeds.resize(n, 0.0);
        return 0.0;
    }
    seeds.extend(acc.iter().map(|s| (*s / pairs as f64) as f32));
    loss / pairs as f64
}

/// Spearman-style rank correlation between predictions and targets — the
/// metric that matters for search (ordering schedules correctly).
pub fn rank_correlation(mlp: &Mlp, samples: &[Sample]) -> f64 {
    let preds: Vec<f64> = samples.iter().map(|s| mlp.predict(&s.logfeats)).collect();
    let targets: Vec<f64> = samples.iter().map(|s| s.score).collect();
    spearman(&preds, &targets)
}

fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| crate::total_cmp_nan_last(&xs[a], &xs[b]));
    let mut r = vec![0.0; xs.len()];
    for (rank, &i) in idx.iter().enumerate() {
        r[i] = rank as f64;
    }
    r
}

/// Spearman rank correlation of two equal-length vectors.
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    if a.len() < 2 {
        return 1.0;
    }
    let (ra, rb) = (ranks(a), ranks(b));
    let n = a.len() as f64;
    let mean = (n - 1.0) / 2.0;
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for i in 0..a.len() {
        let xa = ra[i] - mean;
        let xb = rb[i] - mean;
        num += xa * xb;
        da += xa * xa;
        db += xb * xb;
    }
    num / (da.sqrt() * db.sqrt()).max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scalar_backprop, zeroed_adam::ZeroedAdam, Dataset, LAYER_SIZES};
    use std::sync::OnceLock;

    /// One small corpus shared by every trainer test in this binary:
    /// dataset generation walks the simulator per schedule, so each test
    /// regenerating its own corpus is the single biggest cost of the suite.
    fn shared_dataset() -> &'static Dataset {
        static DS: OnceLock<Dataset> = OnceLock::new();
        DS.get_or_init(|| generate_dataset(&DeviceConfig::a5000(), 6, 12, 11))
    }

    #[test]
    fn pretraining_learns_simulator_ordering() {
        // Tiny corpus, few epochs: the model must still reach a clear rank
        // correlation on held-out data. The full-scale corpus and threshold
        // live in `full_scale_pretraining_reaches_target_correlation`.
        let (train, val) = shared_dataset().split(0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut mlp = Mlp::new(&mut rng);
        let cfg = TrainConfig { epochs: 10, batch_size: 64, lr: 1e-3, seed: 2, ..Default::default() };
        let losses = pretrain(&mut mlp, &train, &cfg);
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.5),
            "loss {:?} should drop",
            (losses[0], losses[losses.len() - 1])
        );
        let rho = rank_correlation(&mlp, &val);
        assert!(rho > 0.55, "validation rank correlation {rho} too low");
    }

    #[test]
    #[ignore = "full-scale pretraining (~minutes); run explicitly with --ignored"]
    fn full_scale_pretraining_reaches_target_correlation() {
        // The original acceptance bar: TenSet-style corpus, full epoch
        // count, and the strong held-out correlation threshold.
        let ds = generate_dataset(&DeviceConfig::a5000(), 12, 24, 11);
        let (train, val) = ds.split(0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut mlp = Mlp::new(&mut rng);
        let cfg = TrainConfig { epochs: 25, batch_size: 64, lr: 1e-3, seed: 2, ..Default::default() };
        let losses = pretrain(&mut mlp, &train, &cfg);
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.3),
            "loss {:?} should drop",
            (losses[0], losses[losses.len() - 1])
        );
        let rho = rank_correlation(&mlp, &val);
        assert!(rho > 0.7, "validation rank correlation {rho} too low");
    }

    #[test]
    fn fine_tune_improves_local_ordering() {
        // Fine-tuning optimizes the pairwise rank loss (ordering is all the
        // search consumes), so the invariant is that rank correlation on the
        // measured subset improves — absolute MSE may drift.
        let (train, _) = shared_dataset().split(1);
        let mut rng = StdRng::seed_from_u64(6);
        let mut mlp = Mlp::new(&mut rng);
        pretrain(&mut mlp, &train, &TrainConfig { epochs: 4, batch_size: 64, lr: 1e-3, seed: 3, ..Default::default() });
        let subset: Vec<Sample> = train[..16].to_vec();
        let before = rank_correlation(&mlp, &subset);
        fine_tune(&mut mlp, &subset, 12, 3e-4);
        let after = rank_correlation(&mlp, &subset);
        assert!(after > before, "fine-tune rank corr {before} -> {after}");
    }

    #[test]
    fn fine_tune_skips_nonfinite_samples_bit_identically() {
        // A faulted measurement can leave a NaN latency in the replay
        // buffer; fine-tuning must skip (and count) such samples, and
        // skipping must equal removal exactly — same shuffle walk, same
        // batches, bit-identical weights.
        let (train, _) = shared_dataset().split(3);
        let mut rng = StdRng::seed_from_u64(9);
        let mut base = Mlp::new(&mut rng);
        pretrain(&mut base, &train, &TrainConfig { epochs: 2, batch_size: 64, lr: 1e-3, seed: 5, ..Default::default() });

        let mut poisoned: Vec<Sample> = train[..16].to_vec();
        // Byte-patch the scores the way a torn record would: reinterpret a
        // NaN bit pattern, not a literal.
        poisoned[3].score = f64::from_le_bytes(f64::NAN.to_le_bytes());
        poisoned[11].logfeats[0] = f64::from_bits(0x7FF8_0000_0000_0001);
        assert_eq!(nonfinite_sample_count(&poisoned), 2);
        assert_eq!(finite_sample_indices(&poisoned).len(), 14);

        let clean: Vec<Sample> = poisoned
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 3 && *i != 11)
            .map(|(_, s)| s.clone())
            .collect();
        let mut m_poisoned = base.clone();
        let mut m_clean = base.clone();
        let loss_p = fine_tune(&mut m_poisoned, &poisoned, 6, 3e-4);
        let loss_c = fine_tune(&mut m_clean, &clean, 6, 3e-4);
        assert!(loss_p.is_finite(), "loss stayed finite: {loss_p}");
        assert_eq!(loss_p.to_bits(), loss_c.to_bits(), "skip == removal (loss)");
        let (mut bp, mut bc) = (Vec::new(), Vec::new());
        m_poisoned.save(&mut bp).expect("save");
        m_clean.save(&mut bc).expect("save");
        assert_eq!(bp, bc, "skip == removal (weights, byte-for-byte)");

        // All-non-finite round buffer: a no-op, not a panic.
        let all_bad: Vec<Sample> = poisoned[3..4].to_vec();
        let mut m = base.clone();
        assert_eq!(fine_tune(&mut m, &all_bad, 4, 3e-4), 0.0);
        let (mut b0, mut b1) = (Vec::new(), Vec::new());
        base.save(&mut b0).expect("save");
        m.save(&mut b1).expect("save");
        assert_eq!(b0, b1, "model untouched");
    }

    /// `run_epochs` as it ran before the batched kernels, on zeroed Adam
    /// moments: scores from one scalar `predict` per sample, the test-only
    /// per-sample backward from the activations of a second scalar forward
    /// per sample, then the test-only stored-moment Adam update. Shares only
    /// the loss seeds with the product step. All samples must be finite.
    fn scalar_run_epochs(mlp: &mut Mlp, samples: &[Sample], cfg: &TrainConfig) -> Vec<f64> {
        let mut adam = ZeroedAdam::for_model(mlp);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut epoch_losses = Vec::new();
        let (mut seeds, mut acc) = (Vec::new(), Vec::new());
        for _ in 0..cfg.epochs {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let mut total = 0.0;
            let batches = order.chunks(cfg.batch_size).len();
            for chunk in order.chunks(cfg.batch_size) {
                let rows: Vec<&[f64]> = chunk.iter().map(|&i| samples[i].logfeats.as_slice()).collect();
                let scores: Vec<f64> = rows.iter().map(|x| mlp.predict(x)).collect();
                let targets: Vec<f64> = chunk.iter().map(|&i| samples[i].score).collect();
                let loss = match cfg.loss {
                    LossKind::Mse => mse_seeds(&scores, &targets, &mut seeds),
                    LossKind::PairwiseRank => rank_seeds(&scores, &targets, &mut acc, &mut seeds),
                };
                let acts = scalar_backprop::scalar_acts(mlp, &rows);
                let (gw, gb) = scalar_backprop::backprop_with_seeds(mlp, &acts, &seeds);
                adam.step(mlp, &gw, &gb, cfg.lr);
                total += loss;
            }
            epoch_losses.push(total / batches.max(1) as f64);
        }
        epoch_losses
    }

    fn save(m: &Mlp) -> Vec<u8> {
        let mut bytes = Vec::new();
        m.save(&mut bytes).expect("save");
        bytes
    }

    /// Asserts that `fine_tune` on `window` leaves `base` exactly where the
    /// scalar reference does, loss included.
    fn assert_fine_tune_matches_scalar(base: &Mlp, window: &[Sample], epochs: usize, lr: f32) {
        let n = window.len();
        let mut batched = base.clone();
        let last = fine_tune(&mut batched, window, epochs, lr);
        let mut scalar = base.clone();
        let ft = TrainConfig { epochs, batch_size: n.min(64), lr, seed: 1, loss: LossKind::PairwiseRank };
        let ref_last = *scalar_run_epochs(&mut scalar, window, &ft).last().expect("epochs");
        assert_eq!(last.to_bits(), ref_last.to_bits(), "window {n}: fine-tune loss");
        assert!(save(&batched) == save(&scalar), "window {n}: fine-tuned weights differ");
    }

    #[test]
    fn batched_training_forward_is_byte_identical_to_scalar_path() {
        // Training runs one packed batched forward and one batched backward
        // per minibatch; the weights `pretrain` + `fine_tune` produce must be
        // the bytes the scalar two-forwards-and-a-per-sample-backward path
        // produces, through both losses and a ragged last minibatch.
        let (train, _) = shared_dataset().split(4);
        assert_eq!(nonfinite_sample_count(&train), 0);
        let cfg = TrainConfig { epochs: 2, batch_size: 48, lr: 1e-3, seed: 6, ..Default::default() };
        let mut batched = Mlp::new(&mut StdRng::seed_from_u64(10));
        let mut scalar = batched.clone();

        let losses = pretrain(&mut batched, &train, &cfg);
        let inputs: Vec<Vec<f64>> = train.iter().map(|s| s.logfeats.clone()).collect();
        scalar.fit_normalization(&inputs);
        let ref_losses = scalar_run_epochs(&mut scalar, &train, &cfg);
        assert_eq!(losses, ref_losses, "pretrain epoch losses");
        assert!(save(&batched) == save(&scalar), "pretrained weights differ");
        assert_fine_tune_matches_scalar(&batched, &train[..20], 5, 3e-4);
    }

    /// The ledger's cost model: [`pretrain_for_device`]'s recipe at its
    /// fast size (one minibatch of every training sample per epoch, since
    /// the batch of 128 exceeds the set), by the product step and by the
    /// scalar reference. Returns the product model and the dataset.
    fn ledger_recipe_models() -> (Mlp, Mlp, Dataset) {
        let ds = generate_dataset(&DeviceConfig::a5000(), 6, 12, 0xFE11C5);
        let (train, _) = ds.split(0);
        let cfg = TrainConfig { epochs: 10, seed: 1, ..Default::default() };
        assert!(cfg.batch_size > train.len(), "{} samples", train.len());
        let mut batched = Mlp::new(&mut StdRng::seed_from_u64(0xC0571));
        let mut scalar = batched.clone();
        let losses = pretrain(&mut batched, &train, &cfg);
        let inputs: Vec<Vec<f64>> = train.iter().map(|s| s.logfeats.clone()).collect();
        scalar.fit_normalization(&inputs);
        assert_eq!(losses, scalar_run_epochs(&mut scalar, &train, &cfg), "pretrain losses");
        (batched, scalar, ds)
    }

    #[test]
    fn training_matches_scalar_reference_at_product_shapes() {
        // The shapes the product trains at: the ledger's pretraining recipe,
        // then round fine-tunes over windows of 1-3 minibatches of at most
        // 64 (ragged tails included) at the round driver's 2 epochs and
        // learning rate, and one-epoch windows of one step (no stored Adam
        // moments) and of two.
        let (base, scalar, ds) = ledger_recipe_models();
        assert!(save(&base) == save(&scalar), "pretrained weights differ");
        let library = pretrain_for_device(&DeviceConfig::a5000(), 6, 12, 10).0;
        assert!(save(&base) == save(&library), "the recipe is the library's");
        let pool: Vec<Sample> = ds.samples.iter().chain(&shared_dataset().samples).cloned().collect();
        for n in [16, 32, 48, 64, 80, 192] {
            assert_fine_tune_matches_scalar(&base, &pool[..n], 2, 4e-4);
        }
        for n in [1, 4, 8, 16, 64, 65] {
            assert_fine_tune_matches_scalar(&base, &pool[..n], 1, 4e-4);
        }

        // A planted −0.0 weight under a zero gradient keeps its sign: one
        // sample has no ordered pair, so every gradient of its step is +0.0.
        let mut planted = base.clone();
        planted.w[1][7] = -0.0;
        planted.b[2][3] = -0.0;
        assert_fine_tune_matches_scalar(&planted, &pool[..1], 1, 4e-4);
        let mut tuned = planted.clone();
        fine_tune(&mut tuned, &pool[..1], 1, 4e-4);
        let neg_zero = (-0.0f32).to_bits();
        assert_eq!((tuned.w[1][7].to_bits(), tuned.b[2][3].to_bits()), (neg_zero, neg_zero));

        // The one-step update itself under zero gradients of both signs,
        // on ±0.0 weights: a moment computed from a literal zero must round
        // `β1·0 + (1−β1)·(−0.0)` to +0.0 exactly as a zeroed buffer does.
        let mut gw: Vec<Vec<f32>> = planted.w.iter().map(|w| vec![0.0; w.len()]).collect();
        let mut gb: Vec<Vec<f32>> = planted.b.iter().map(|b| vec![0.0; b.len()]).collect();
        gw[1][7] = -0.0;
        gw[1][8] = -0.0;
        gb[2][3] = -0.0;
        gb[3][0] = -0.0;
        let (mut stepped, mut reference) = (planted.clone(), planted.clone());
        stepped.apply_adam(&gw, &gb, &mut AdamState::for_steps(&planted, 1), 4e-4);
        ZeroedAdam::for_model(&planted).step(&mut reference, &gw, &gb, 4e-4);
        assert!(save(&stepped) == save(&reference), "one-step update under signed zero gradients");
        assert!(save(&stepped) == save(&planted), "zero gradients moved a weight");
    }

    #[test]
    fn training_edge_cases_match_scalar_reference() {
        let (train, _) = shared_dataset().split(5);
        let mut base = Mlp::new(&mut StdRng::seed_from_u64(13));
        pretrain(&mut base, &train, &TrainConfig { epochs: 2, batch_size: 64, lr: 1e-3, seed: 7, ..Default::default() });

        // All-equal targets: no strictly ordered pair, so every step is a
        // zero-gradient Adam step, which leaves the weights in place.
        let flat: Vec<Sample> = train[..24].iter().map(|s| Sample { score: 1.5, ..s.clone() }).collect();
        assert!(flat.iter().all(|s| s.score == 1.5));
        assert_fine_tune_matches_scalar(&base, &flat, 3, 4e-4);
        let mut m = base.clone();
        assert_eq!(fine_tune(&mut m, &flat, 3, 4e-4), 0.0);
        assert!(save(&m) == save(&base), "zero-gradient steps moved the weights");

        // Ties beside ordered pairs: samples whose only pairs are ties get a
        // zero seed and drop out of the backward.
        let mut tied: Vec<Sample> = train[..24].to_vec();
        for s in &mut tied[..12] {
            s.score = 0.25;
        }
        assert_fine_tune_matches_scalar(&base, &tied, 2, 4e-4);

        // MSE on targets equal to the model's own predictions: every seed
        // of the first step is exactly zero.
        let exact: Vec<Sample> =
            train[..20].iter().map(|s| Sample { score: base.predict(&s.logfeats), ..s.clone() }).collect();
        let cfg = TrainConfig { epochs: 2, batch_size: 8, lr: 4e-4, seed: 3, loss: LossKind::Mse };
        let (mut batched, mut scalar) = (base.clone(), base.clone());
        assert_eq!(run_epochs(&mut batched, &exact, &cfg), scalar_run_epochs(&mut scalar, &exact, &cfg));
        assert!(save(&batched) == save(&scalar), "zero-seed MSE weights differ");
    }

    #[test]
    fn training_workspace_carries_nothing_across_calls() {
        // Window 192 (three full minibatches), then 16 (one small one),
        // then 192 again, one after another on one thread: each call must
        // leave exactly the weights the same call leaves on a fresh clone
        // in a fresh thread, so no buffer carries data across minibatches
        // or calls.
        let (base, _, ds) = ledger_recipe_models();
        let pool: Vec<Sample> = ds.samples.iter().chain(&shared_dataset().samples).cloned().collect();
        let mut m = base;
        for (n, lr) in [(192, 4e-4), (16, 4e-4), (192, 3e-4)] {
            let fresh = m.clone();
            let window = pool[..n].to_vec();
            let loss = fine_tune(&mut m, &pool[..n], 2, lr);
            let (ref_loss, reference) = std::thread::spawn(move || {
                let mut fresh = fresh;
                let loss = fine_tune(&mut fresh, &window, 2, lr);
                (loss, save(&fresh))
            })
            .join()
            .expect("fresh thread");
            assert_eq!(loss.to_bits(), ref_loss.to_bits(), "window {n}: loss");
            assert!(save(&m) == reference, "window {n}: weights differ from a fresh call");
        }
    }

    #[test]
    #[ignore = "a timing report, not a check: run with --release -- --ignored --nocapture"]
    fn training_step_split() {
        // Best-of-N wall times, on the ledger's pretrained model: one
        // 64-sample rank-loss step through a warm pack buffer, split into
        // its phases, then the round driver's fine-tune call on a 192-sample
        // window at 2 epochs and at 5.
        use std::time::{Duration, Instant};
        const REPS: usize = 50;
        let base = pretrain_for_device(&DeviceConfig::a5000(), 6, 12, 10).0;
        let ds = generate_dataset(&DeviceConfig::a5000(), 6, 12, 0xFE11C5);
        let pool: Vec<Sample> = ds.samples.iter().chain(&shared_dataset().samples).cloned().collect();
        let rows: Vec<&[f64]> = pool[..64].iter().map(|s| s.logfeats.as_slice()).collect();
        let targets: Vec<f64> = pool[..64].iter().map(|s| s.score).collect();
        let phases = ["pack", "forward", "loss seeds", "reverse sweeps", "weight gradients", "Adam"];
        let mut best = [Duration::MAX; 6];
        let (mut scratch, mut wbuf, mut gb) = (MlpScratch::default(), Vec::new(), Vec::new());
        let (mut scores, mut seeds, mut acc) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..REPS {
            let mut mlp = base.clone();
            let mut adam = AdamState::for_steps(&mlp, 2);
            let mut split = [Duration::ZERO; 6];
            let mut lap = Instant::now();
            let mut time = |phase: usize| {
                split[phase] += lap.elapsed();
                lap = Instant::now();
            };
            let packed = mlp.pack_into(std::mem::take(&mut wbuf));
            time(0);
            packed.forward_rows(rows.iter().copied(), &mut scratch, &mut scores);
            wbuf = packed.into_panels();
            time(1);
            rank_seeds(&scores, &targets, &mut acc, &mut seeds);
            let n_layers = LAYER_SIZES.len() - 1;
            scratch.acts[n_layers].copy_from_slice(&seeds);
            wbuf.resize_with(n_layers, Vec::new);
            gb.resize_with(n_layers, Vec::new);
            time(2);
            for li in (0..n_layers).rev() {
                mlp.layer_param_grads(NATIVE_WEIGHT_GRAD, li, &mut scratch, &mut wbuf[li], &mut gb[li]);
                time(4);
                if li > 0 {
                    mlp.input_gradient_sweep(NATIVE_BACKWARD, li, &mut scratch);
                    time(3);
                }
            }
            mlp.apply_adam(&wbuf, &gb, &mut adam, 4e-4);
            time(5);
            for (b, s) in best.iter_mut().zip(split) {
                *b = (*b).min(s);
            }
        }
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        println!("one 64-sample training step, best of {REPS}:");
        for (phase, b) in phases.iter().zip(best) {
            println!("  {phase:<17} {:.3} ms", ms(b));
        }
        for epochs in [2, 5] {
            let mut best = Duration::MAX;
            for _ in 0..REPS / 5 {
                let mut mlp = base.clone();
                let start = Instant::now();
                fine_tune(&mut mlp, &pool[..192], epochs, 4e-4);
                best = best.min(start.elapsed());
            }
            println!("fine_tune, 192 samples, {epochs} epochs, best of {}: {:.3} ms", REPS / 5, ms(best));
        }
    }

    #[test]
    fn rank_loss_learns_ordering() {
        let (train, val) = shared_dataset().split(2);
        let mut rng = StdRng::seed_from_u64(8);
        let mut mlp = Mlp::new(&mut rng);
        let cfg = TrainConfig {
            epochs: 8,
            batch_size: 64,
            lr: 1e-3,
            seed: 4,
            loss: LossKind::PairwiseRank,
        };
        pretrain(&mut mlp, &train, &cfg);
        let rho = rank_correlation(&mlp, &val);
        assert!(rho > 0.5, "rank-loss validation correlation {rho}");
    }

    #[test]
    fn spearman_basics() {
        assert!((spearman(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]) - 1.0).abs() < 1e-12);
        assert!((spearman(&[1.0, 2.0, 3.0], &[30.0, 20.0, 10.0]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn rank_correlation_tolerates_nan_predictions() {
        // NaN predictions must not panic the ranking (the old
        // `partial_cmp(..).expect("finite scores")` comparator aborted
        // here); NaN ranks sort last, so the correlation stays finite.
        assert!(spearman(&[f64::NAN, 2.0, 1.0], &[3.0, 2.0, 1.0]).is_finite());
        assert!(spearman(&[f64::NAN, f64::NAN, f64::NAN], &[3.0, 2.0, 1.0]).is_finite());
    }
}
