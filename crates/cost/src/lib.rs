//! The learned cost model and its training infrastructure.
//!
//! Reimplements the TenSet MLP cost model (paper §4/§5): a 4-linear-layer
//! perceptron (~250K parameters) mapping log-transformed program features to
//! a performance score (`−ln latency`), trained once per device on a
//! synthetic dataset ([`dataset`]) and fine-tuned online during search.
//!
//! Unlike a framework-backed implementation, the forward pass, backward
//! pass, Adam optimizer, and — crucially for Felix — the **gradient with
//! respect to the inputs** ([`Mlp::input_gradient`]) are implemented from
//! scratch, because Felix chains `∂score/∂feature` into the reverse-mode
//! sweep over the symbolic feature formulas.
//!
//! Every multiply-accumulate of the MLP — the scalar references, the
//! batched forward and the shared input- and weight-gradient sweeps — is one
//! `f32::mul_add`, rounded once, in the same chain order on every path, so
//! batched equals scalar bit for bit. `mul_add` is correctly rounded with or
//! without an FMA instruction, so results never depend on build flags; only
//! speed does (without FMA enabled at compile time every MAC is a libm
//! `fmaf` call). [`COST_MATH_VERSION`] names this arithmetic in checkpoints.
//!
//! The batched forward behind [`PackedMlp`] and the reverse sweep shared by
//! the descent's input gradient and training each have two kernels, chosen
//! at build time. Where AVX-512F is enabled (`cfg(all(target_arch =
//! "x86_64", target_feature = "avx512f"))`, which the workspace's
//! `target-cpu=native` turns on for such a host) the forward keeps a block
//! of 8 samples' accumulators for a 32-neuron panel (two 512-bit vectors) in
//! registers, and the backward loads each weight row live for any sample of
//! a block of 8 once for all of them; elsewhere portable kernels run blocks
//! of 4 forward and one sample at a time backward. A backward row adds into
//! a sample's chain only where it is live for that sample (gated gradient
//! nonzero: the 512-bit kernel's fused multiply-add is masked off
//! elsewhere), so a dead row's weights, non-finite ones included, never
//! reach it. Every kernel computes the scalar path's chains, so all give
//! the same bits, and the portable ones are compiled on every host so the
//! parity tests hold them to the scalar path there too.

pub mod dataset;
pub mod sampling;
pub mod trainer;

pub use dataset::{generate_dataset, ingest_sample, Dataset, Sample};
pub use sampling::{crossover_schedules, mutate_schedule, random_schedule};
pub use trainer::{
    fine_tune, finite_sample_indices, nonfinite_sample_count, pretrain, pretrain_for_device,
    TrainConfig,
};

use felix_features::FEATURE_COUNT;
use rand::Rng;

/// The cost model's arithmetic, stamped on every checkpoint beside the
/// sketch generator's fingerprint (a resume replays the run's fine-tunes,
/// and weights trained under other arithmetic, such as the unfused multiply
/// then add of earlier builds, would diverge from the run being continued)
/// and named by the figure bins' cached model files. Change it with any
/// change to what the model computes: its shape, its kernels' rounding, its
/// training step.
pub const COST_MATH_VERSION: &str = "mlp-fused-mac-v1";

/// The layer widths of the cost model (4 linear layers, as in TenSet).
pub const LAYER_SIZES: [usize; 5] = [FEATURE_COUNT, 256, 256, 256, 1];

/// Ascending total order with every NaN ranked *after* every number.
///
/// The ranking sorts of the search pipeline use this instead of
/// `partial_cmp(..).expect(..)`: one NaN prediction from a diverging
/// fine-tune must lose the ranking, not abort the whole tuning run. For
/// non-NaN inputs this is `f64::total_cmp`, which agrees with `partial_cmp`
/// everywhere except the (harmless) `-0.0 < 0.0` tie-break.
pub fn total_cmp_nan_last(a: &f64, b: &f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => a.total_cmp(b),
    }
}

/// Descending total order with every NaN ranked *after* every number — the
/// "best score first" companion of [`total_cmp_nan_last`]. Note NaN sorts
/// last under both orders: it is ranked as the worst value, not mirrored.
pub fn total_cmp_desc_nan_last(a: &f64, b: &f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => b.total_cmp(a),
    }
}

/// Converts a measured latency to the training target score (higher =
/// faster).
pub fn latency_to_score(latency_ms: f64) -> f64 {
    -(latency_ms.max(1e-6)).ln()
}

/// Log-transforms a raw feature vector (`ln(1+f)`), the same transform the
/// symbolic pipeline applies (paper §3.3).
pub fn log_transform(raw: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    log_transform_into(raw, &mut out);
    out
}

/// [`log_transform`] into a caller-owned buffer (cleared first), so hot
/// scoring loops stay allocation-free.
pub fn log_transform_into(raw: &[f64], out: &mut Vec<f64>) {
    out.clear();
    out.extend(raw.iter().map(|&x| (1.0 + x.max(-0.999_999)).ln()));
}

/// A fully-connected ReLU network with input normalization.
#[derive(Clone, Debug)]
pub struct Mlp {
    /// Row-major weight matrices, one per layer (`out x in`).
    w: Vec<Vec<f32>>,
    /// Bias vectors, one per layer.
    b: Vec<Vec<f32>>,
    /// Per-input-feature normalization mean (in log-feature space).
    pub input_mean: Vec<f32>,
    /// Per-input-feature normalization standard deviation.
    pub input_std: Vec<f32>,
}

fn layer_dims() -> Vec<(usize, usize)> {
    LAYER_SIZES.windows(2).map(|w| (w[1], w[0])).collect()
}

/// Output neurons per forward panel: the packed weights store each layer as
/// `out_dim / PANEL` input-major panels, and the forward kernel keeps one
/// panel's accumulators in registers for a whole block of samples.
const PANEL: usize = 32;

/// Samples per register block of the portable forward kernel (a remainder
/// runs as a block of 2, then one sample alone).
const SAMPLE_BLOCK: usize = 4;

/// Reusable buffers for the batched MLP kernels, so the descent hot loop
/// runs one `input_gradient` batch per step, and a training call one
/// minibatch step, without allocating.
///
/// `acts` is sample-major: `acts[layer][s * dim + i]` for batch size `n`.
/// The reverse sweeps overwrite each layer's activations with its gated
/// gradient once nothing reads them, so a backward needs no gradient
/// buffers of its own. Create once, pass to
/// [`PackedMlp::input_gradient_batch_cols`] every step; buffers grow to the
/// high-water mark and stay there.
#[derive(Clone, Debug, Default)]
pub struct MlpScratch {
    /// Post-activation values per layer (layer 0 = normalized inputs), then
    /// the backward's gradients at them.
    acts: Vec<Vec<f32>>,
    /// The reverse sweep's compaction buffers.
    sweep: SweepBuffers,
}

/// The buffers a [`LayerBackward`] compacts live rows into, grown to the
/// high-water mark and reused, so a sweep allocates nothing once warm.
#[derive(Clone, Debug, Default)]
struct SweepBuffers {
    /// One sample's input gradient being accumulated, `[in_dim]`.
    row: Vec<f32>,
    /// Live `(index, gradient)` pairs: one sample's output rows, or one
    /// output row's samples; or the indices of a sample block's union-live
    /// output rows (the 512-bit kernel, which reads each sample's gradient
    /// in place).
    live: Vec<(u32, f32)>,
}

/// An immutable inference view of an [`Mlp`]: the model plus an input-major
/// (transposed) copy of its weights, which is what lets the batched forward
/// kernel run SIMD lanes across *neurons*. Build one with [`Mlp::pack`] per
/// batch of calls against fixed weights (the tuner builds one per
/// `propose`) and drop it before the model trains again — the borrow makes a
/// stale pack a compile error.
#[derive(Debug)]
pub struct PackedMlp<'m> {
    mlp: &'m Mlp,
    /// Per layer, its full `PANEL`-neuron output panels, input-major:
    /// `panels[li][(p * in_dim + i) * PANEL + l]` is
    /// `w[li][(p * PANEL + l) * in_dim + i]`. Neurons past the last full
    /// panel (the single output unit) are read from the row-major weights.
    panels: Vec<Vec<f32>>,
    /// The layer kernels: [`NATIVE_FORWARD`] and [`NATIVE_BACKWARD`] (tests
    /// swap in each kernel this build compiles).
    forward: LayerForward,
    backward: LayerBackward,
}

impl Mlp {
    /// A randomly initialized model (He initialization).
    pub fn new(rng: &mut impl Rng) -> Self {
        let mut w = Vec::new();
        let mut b = Vec::new();
        for (out, inp) in layer_dims() {
            let scale = (2.0 / inp as f32).sqrt();
            w.push(
                (0..out * inp)
                    .map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * scale)
                    .collect(),
            );
            b.push(vec![0.0; out]);
        }
        Mlp {
            w,
            b,
            input_mean: vec![0.0; FEATURE_COUNT],
            input_std: vec![1.0; FEATURE_COUNT],
        }
    }

    /// Total number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.w.iter().map(Vec::len).sum::<usize>() + self.b.iter().map(Vec::len).sum::<usize>()
    }

    /// Fits the input normalization to a set of log-feature vectors.
    pub fn fit_normalization(&mut self, inputs: &[Vec<f64>]) {
        assert!(!inputs.is_empty(), "need at least one sample");
        let n = inputs.len() as f64;
        for k in 0..FEATURE_COUNT {
            let mean = inputs.iter().map(|x| x[k]).sum::<f64>() / n;
            let var = inputs.iter().map(|x| (x[k] - mean).powi(2)).sum::<f64>() / n;
            self.input_mean[k] = mean as f32;
            self.input_std[k] = (var.sqrt() as f32).max(1e-3);
        }
    }

    fn normalize(&self, logfeats: &[f64]) -> Vec<f32> {
        logfeats
            .iter()
            .enumerate()
            .map(|(k, &x)| (x as f32 - self.input_mean[k]) / self.input_std[k])
            .collect()
    }

    /// Forward pass caching pre-activations; returns (activations, score).
    fn forward_cached(&self, x: &[f32]) -> (Vec<Vec<f32>>, f64) {
        let mut acts: Vec<Vec<f32>> = vec![x.to_vec()];
        let n_layers = self.w.len();
        for (li, (w, b)) in self.w.iter().zip(&self.b).enumerate() {
            let inp = acts.last().expect("input activation");
            let out_dim = b.len();
            let in_dim = inp.len();
            let mut out = vec![0.0f32; out_dim];
            for o in 0..out_dim {
                let row = &w[o * in_dim..(o + 1) * in_dim];
                let mut acc = b[o];
                for (&r, &i) in row.iter().zip(inp.iter()) {
                    acc = r.mul_add(i, acc);
                }
                // ReLU on hidden layers only.
                out[o] = if li + 1 < n_layers { acc.max(0.0) } else { acc };
            }
            acts.push(out);
        }
        let score = acts.last().expect("output")[0] as f64;
        (acts, score)
    }

    /// Predicted performance score (higher = faster) for one log-feature
    /// vector.
    pub fn predict(&self, logfeats: &[f64]) -> f64 {
        let x = self.normalize(logfeats);
        self.forward_cached(&x).1
    }

    /// Builds the packed inference view of the current weights (one
    /// transpose of every weight matrix, panel by panel).
    pub fn pack(&self) -> PackedMlp<'_> {
        self.pack_into(Vec::new())
    }

    /// [`Mlp::pack`] into the per-layer buffers of an earlier pack
    /// ([`PackedMlp::into_panels`]), so a training call repacks every
    /// minibatch without allocating.
    fn pack_into(&self, mut panels: Vec<Vec<f32>>) -> PackedMlp<'_> {
        panels.resize_with(self.w.len(), Vec::new);
        for ((layer, w), b) in panels.iter_mut().zip(&self.w).zip(&self.b) {
            let in_dim = w.len() / b.len();
            layer.clear();
            layer.reserve(w.len());
            for rows in w.chunks_exact(in_dim * PANEL) {
                for i in 0..in_dim {
                    // Input `i`'s weight in each of the panel's rows.
                    layer.extend((0..PANEL).map(|l| rows[l * in_dim + i]));
                }
            }
        }
        PackedMlp { mlp: self, panels, forward: NATIVE_FORWARD, backward: NATIVE_BACKWARD }
    }

    /// Pack-then-call form of [`PackedMlp::predict_batch`]; row `i` is
    /// bit-identical to `predict(&logfeats[i])`.
    pub fn predict_batch(&self, logfeats: &[Vec<f64>]) -> Vec<f64> {
        self.pack().predict_batch(logfeats)
    }

    /// Pack-then-call form of [`PackedMlp::input_gradient_batch_cols`].
    pub fn input_gradient_batch_cols(
        &self,
        feats_t: &[f64],
        n: usize,
        scratch: &mut MlpScratch,
        scores: &mut Vec<f64>,
        grads_t: &mut Vec<f64>,
    ) {
        self.pack().input_gradient_batch_cols(feats_t, n, scratch, scores, grads_t);
    }

    /// Predicted score and its gradient with respect to the (log) features.
    ///
    /// This is the `∂C/∂feat` that Felix seeds the expression-DAG reverse
    /// sweep with (paper §3.4).
    pub fn input_gradient(&self, logfeats: &[f64]) -> (f64, Vec<f64>) {
        let x = self.normalize(logfeats);
        let (acts, score) = self.forward_cached(&x);
        // Backward from d(score)/d(out) = 1.
        let mut grad = vec![1.0f32];
        let n_layers = self.w.len();
        for li in (0..n_layers).rev() {
            let inp = &acts[li];
            let out = &acts[li + 1];
            let in_dim = inp.len();
            let out_dim = out.len();
            let w = &self.w[li];
            // For hidden layers the stored activation is post-ReLU; the
            // derivative gate is act > 0. The final layer is linear.
            let gated: Vec<f32> = if li + 1 < n_layers {
                (0..out_dim)
                    .map(|o| if out[o] > 0.0 { grad[o] } else { 0.0 })
                    .collect()
            } else {
                grad.clone()
            };
            let mut gin = vec![0.0f32; in_dim];
            for o in 0..out_dim {
                if gated[o] == 0.0 {
                    continue;
                }
                let row = &w[o * in_dim..(o + 1) * in_dim];
                for i in 0..in_dim {
                    gin[i] = gated[o].mul_add(row[i], gin[i]);
                }
            }
            grad = gin;
        }
        // Undo normalization: d/d(logfeat) = d/d(x_norm) / std.
        let g = grad
            .iter()
            .enumerate()
            .map(|(k, &v)| (v / self.input_std[k]) as f64)
            .collect();
        (score, g)
    }

    /// The minibatch backward: per-sample output seeds (`∂loss/∂score`)
    /// into the weight and bias gradients `gw`/`gb`, zeroed here in place,
    /// from the activations a batched forward ([`PackedMlp::forward_rows`])
    /// left in `scratch`, which it consumes. Byte-identical to
    /// backpropagating one sample at a time in ascending order:
    ///
    /// - each output row `o` of a layer stays hot while its live samples
    ///   (gate open and gradient nonzero, so a zero seed of either sign
    ///   drops its sample) are added in ascending order, so every
    ///   `gw[o][i]` and `gb[o]` is the per-sample path's chain;
    /// - the gradient passes down a layer through the descent's reverse
    ///   sweep ([`Mlp::input_gradient_sweep`], kernel `backward`); layer
    ///   0's input gradient, which nothing reads, is never formed.
    fn param_grads(
        &self,
        backward: LayerBackward,
        seeds: &[f32],
        scratch: &mut MlpScratch,
        gw: &mut Vec<Vec<f32>>,
        gb: &mut Vec<Vec<f32>>,
    ) {
        let n = seeds.len();
        let n_layers = self.w.len();
        scratch.acts[n_layers].copy_from_slice(seeds);
        gw.resize_with(n_layers, Vec::new);
        gb.resize_with(n_layers, Vec::new);
        for li in (0..n_layers).rev() {
            let out_dim = self.b[li].len();
            let in_dim = self.w[li].len() / out_dim;
            let MlpScratch { acts, sweep: SweepBuffers { live, .. } } = scratch;
            // The layer's inputs, and the gated gradients at its outputs.
            let (inp, grad) = (&acts[li], &acts[li + 1]);
            let (gw, gb) = (&mut gw[li], &mut gb[li]);
            gw.clear();
            gw.resize(out_dim * in_dim, 0.0);
            gb.clear();
            gb.resize(out_dim, 0.0);
            live.resize(live.len().max(n), (0, 0.0));
            for (o, (row, bias)) in gw.chunks_exact_mut(in_dim).zip(gb.iter_mut()).enumerate() {
                let mut n_live = 0;
                for s in 0..n {
                    let gv = grad[s * out_dim + o];
                    live[n_live] = (s as u32, gv);
                    n_live += usize::from(gv != 0.0);
                }
                for &(_, g) in &live[..n_live] {
                    *bias += g;
                }
                add_scaled_rows(row, &live[..n_live], inp);
            }
            if li > 0 {
                self.input_gradient_sweep(backward, li, scratch);
            }
        }
    }

    /// One layer's reverse sweep, shared by the descent's input gradient
    /// and the training backward: from the samples' gated gradients at
    /// layer `li`'s output (`acts[li + 1]`), overwrites the layer's input
    /// activations `acts[li]` with the gradients at them through the
    /// kernel `backward`, gated by those same activations' ReLU — except
    /// at the network input, which has no gate.
    fn input_gradient_sweep(&self, backward: LayerBackward, li: usize, scratch: &mut MlpScratch) {
        let MlpScratch { acts, sweep } = scratch;
        let (head, tail) = acts.split_at_mut(li + 1);
        backward(&self.w[li], self.b[li].len(), li > 0, &tail[0], &mut head[li], sweep);
    }

    /// Applies an Adam update given gradient buffers. A state without
    /// moment buffers (a one-step call) starts each moment from a literal
    /// zero in registers, through the same expressions as the stored ones,
    /// so the weights it leaves are bit-identical to a zeroed buffer's.
    fn apply_adam(&mut self, gw: &[Vec<f32>], gb: &[Vec<f32>], adam: &mut AdamState, lr: f32) {
        adam.t += 1;
        let t = adam.t as f32;
        let (beta1, beta2, eps) = (AdamState::BETA1, AdamState::BETA2, AdamState::EPS);
        let bc1 = 1.0 - beta1.powf(t);
        let bc2 = 1.0 - beta2.powf(t);
        let update = |p: &mut f32, g: f32, m: &mut f32, v: &mut f32| {
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            let mhat = *m / bc1;
            let vhat = *v / bc2;
            *p -= lr * mhat / (vhat.sqrt() + eps);
        };
        let stored = !adam.m.is_empty();
        assert!(stored || adam.t == 1, "an Adam state without moments takes one step");
        let mut off = 0;
        for li in 0..self.w.len() {
            for (ps, gs) in [(&mut self.w[li], &gw[li]), (&mut self.b[li], &gb[li])] {
                if !stored {
                    for (p, &g) in ps.iter_mut().zip(gs) {
                        let (mut m, mut v) = (0.0, 0.0);
                        update(p, g, &mut m, &mut v);
                    }
                } else {
                    let ms = &mut adam.m[off..off + ps.len()];
                    let vs = &mut adam.v[off..off + ps.len()];
                    for (((p, &g), m), v) in ps.iter_mut().zip(gs).zip(ms).zip(vs) {
                        update(p, g, m, v);
                    }
                }
                off += ps.len();
            }
        }
    }
}

/// One layer's batched forward: `forward(w, b, panels, relu, x, out)` maps
/// the `n` samples' inputs `x` (`n * in_dim`, sample-major) to their outputs
/// `out` (`n * out_dim`), ReLU-gated when `relu`. Every kernel computes each
/// `(neuron, sample)` output as one sequential chain in
/// [`Mlp::forward_cached`]'s order — bias first, then ascending input index,
/// one fused multiply-add per term — so every kernel is bit-identical to the
/// scalar path.
type LayerForward = fn(&[f32], &[f32], &[f32], bool, &[f32], &mut [f32]);

/// The forward kernel of this build: 512-bit where AVX-512F is enabled at
/// compile time (the root `.cargo/config.toml` builds for the host CPU),
/// otherwise the portable one.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
const NATIVE_FORWARD: LayerForward = avx512::forward_layer;
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
const NATIVE_FORWARD: LayerForward = forward_layer;

/// One layer's reverse sweep: `backward(w, out_dim, gate, grad, inp, bufs)`
/// maps the samples' gated gradients at the layer's outputs `grad`
/// (`n * out_dim`, sample-major) to the gradients at its inputs, written
/// over the input activations `inp` (`n * in_dim`) and, when `gate`,
/// gated by them: `act > 0`, so a NaN activation gates shut to `+0.0`.
///
/// An output row is live for a sample when its gated gradient is nonzero
/// (so a NaN is live, and a zero of either sign is not) — exactly the rows
/// the scalar paths do not skip. Every kernel computes each `(input,
/// sample)` gradient as one chain: `+0.0`, then one fused multiply-add
/// `g · w[o][i]` per live `o` in ascending order. A dead row is never
/// multiplied into a chain, so a non-finite weight behind a shut gate
/// stays as invisible as it is to the scalar paths, and every kernel is
/// bit-identical to them.
type LayerBackward = fn(&[f32], usize, bool, &[f32], &mut [f32], &mut SweepBuffers);

/// The backward kernel of this build, chosen as [`NATIVE_FORWARD`] is.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
const NATIVE_BACKWARD: LayerBackward = avx512::backward_layer;
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
const NATIVE_BACKWARD: LayerBackward = backward_layer;

/// `(first sample, width)` of each register block over `n` samples: blocks
/// of `widest` (a power of two) while they fit, then the remainder in
/// halving widths.
fn sample_blocks(n: usize, widest: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut s = 0;
    std::iter::from_fn(move || {
        let width = widest.min(1 << (n - s).checked_ilog2()?);
        s += width;
        Some((s - width, width))
    })
}

/// The portable [`LayerForward`], for hosts without AVX-512: blocks of
/// [`SAMPLE_BLOCK`] samples, lanes across the neurons of a panel, left to
/// the compiler's vectorizer. Compiled on every host: where the 512-bit
/// kernel runs instead, the parity tests still hold this one to the scalar
/// path.
#[cfg_attr(all(target_arch = "x86_64", target_feature = "avx512f"), allow(dead_code))]
fn forward_layer(w: &[f32], b: &[f32], panels: &[f32], relu: bool, x: &[f32], out: &mut [f32]) {
    let out_dim = b.len();
    let in_dim = w.len() / out_dim;
    for (s, width) in sample_blocks(x.len() / in_dim, SAMPLE_BLOCK) {
        let (x, y) = (&x[s * in_dim..], &mut out[s * out_dim..]);
        match width {
            4 => forward_block::<4>(w, b, panels, relu, x, y),
            2 => forward_block::<2>(w, b, panels, relu, x, y),
            _ => forward_block::<1>(w, b, panels, relu, x, y),
        }
    }
}

/// The ReLU of the forward paths, `v.max(0.0)` (a NaN gates to `0.0`).
fn activate(relu: bool, v: f32) -> f32 {
    if relu {
        v.max(0.0)
    } else {
        v
    }
}

/// The portable kernel's sweep for `S` consecutive samples (`x` holds their
/// `S * in_dim` inputs, `out` their `S * out_dim` outputs), one panel's
/// `S × PANEL` accumulators at a time.
fn forward_block<const S: usize>(
    w: &[f32],
    b: &[f32],
    panels: &[f32],
    relu: bool,
    x: &[f32],
    out: &mut [f32],
) {
    let out_dim = b.len();
    let in_dim = w.len() / out_dim;
    for (p, panel) in panels.chunks_exact(in_dim * PANEL).enumerate() {
        let mut acc = [[0.0f32; PANEL]; S];
        for a in &mut acc {
            a.copy_from_slice(&b[p * PANEL..(p + 1) * PANEL]);
        }
        for (i, wt) in panel.chunks_exact(PANEL).enumerate() {
            for (s, a) in acc.iter_mut().enumerate() {
                let xv = x[s * in_dim + i];
                for (av, &wv) in a.iter_mut().zip(wt) {
                    *av = wv.mul_add(xv, *av);
                }
            }
        }
        for (s, a) in acc.iter().enumerate() {
            let dst = &mut out[s * out_dim + p * PANEL..][..PANEL];
            for (d, &av) in dst.iter_mut().zip(a) {
                *d = activate(relu, av);
            }
        }
    }
    forward_tail::<S>(w, b, relu, x, out);
}

/// Neurons past the last full panel (the output unit), shared by every
/// kernel: the same chains, one neuron at a time over the row-major weights.
fn forward_tail<const S: usize>(w: &[f32], b: &[f32], relu: bool, x: &[f32], out: &mut [f32]) {
    let out_dim = b.len();
    let in_dim = w.len() / out_dim;
    for o in out_dim / PANEL * PANEL..out_dim {
        let mut acc = [b[o]; S];
        for (i, &wv) in w[o * in_dim..(o + 1) * in_dim].iter().enumerate() {
            for (s, a) in acc.iter_mut().enumerate() {
                *a = wv.mul_add(x[s * in_dim + i], *a);
            }
        }
        for (s, &a) in acc.iter().enumerate() {
            out[s * out_dim + o] = activate(relu, a);
        }
    }
}

/// The portable [`LayerBackward`]: one sample at a time
/// ([`backward_sample`]). Compiled on every host, as [`forward_layer`] is.
#[cfg_attr(all(target_arch = "x86_64", target_feature = "avx512f"), allow(dead_code))]
fn backward_layer(
    w: &[f32],
    out_dim: usize,
    gate: bool,
    grad: &[f32],
    inp: &mut [f32],
    bufs: &mut SweepBuffers,
) {
    let in_dim = w.len() / out_dim;
    for (g, x) in grad.chunks_exact(out_dim).zip(inp.chunks_exact_mut(in_dim)) {
        backward_sample(w, gate, g, x, bufs);
    }
}

/// One sample's sweep through a layer: its live output rows are compacted
/// first, branch-free (the gate pattern is data, not a predictable branch),
/// then each adds `g · w[o][..]` into the sample's input-gradient row, lanes
/// across the inputs ([`add_scaled_rows`]).
fn backward_sample(w: &[f32], gate: bool, g: &[f32], x: &mut [f32], bufs: &mut SweepBuffers) {
    let SweepBuffers { row, live, .. } = bufs;
    live.resize(live.len().max(g.len()), (0, 0.0));
    let mut n_live = 0;
    for (o, &gv) in g.iter().enumerate() {
        live[n_live] = (o as u32, gv);
        n_live += usize::from(gv != 0.0);
    }
    row.clear();
    row.resize(x.len(), 0.0);
    add_scaled_rows(row, &live[..n_live], w);
    if gate {
        for (a, &r) in x.iter_mut().zip(row.iter()) {
            *a = if *a > 0.0 { r } else { 0.0 };
        }
    } else {
        x.copy_from_slice(row);
    }
}

/// The 512-bit kernels, compiled only where AVX-512F is enabled at build
/// time: [`avx512::forward_layer`] and [`avx512::backward_layer`].
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod avx512 {
    use super::{backward_sample, forward_tail, sample_blocks, SweepBuffers, PANEL};
    use std::arch::x86_64::{
        __m512, __mmask16, _mm512_cmp_ps_mask, _mm512_fmadd_ps, _mm512_loadu_ps,
        _mm512_mask3_fmadd_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_maskz_mov_ps,
        _mm512_max_ps, _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps, _CMP_GT_OQ, _CMP_NEQ_UQ,
    };

    /// Lanes of one vector.
    const LANES: usize = 16;
    const _: () = assert!(PANEL == 2 * LANES, "a panel is two vectors");

    /// The 512-bit [`LayerForward`](super::LayerForward): a panel's 32
    /// neurons are two 16-lane vectors, and a block of `S` samples sweeps
    /// `P` panels at once, `S × P = 8`, so every block keeps 16
    /// accumulators in registers — enough independent chains to cover the
    /// `vfmadd` latency even for one sample. Samples run in blocks of 8
    /// while they fit, then 4, 2 and 1. Each input broadcasts one sample's
    /// activation against the panels' weight rows, one `vfmadd` per vector,
    /// so every lane is one chain in `Mlp::forward_cached`'s order. The
    /// ReLU is `vmaxps(v, 0)`, which returns its second operand when the
    /// first is NaN or a zero: `+0.0` for NaN and `-0.0`, as the scalar
    /// path's `max(v, 0.0)` compiles to here.
    pub(super) fn forward_layer(
        w: &[f32],
        b: &[f32],
        panels: &[f32],
        relu: bool,
        x: &[f32],
        out: &mut [f32],
    ) {
        let out_dim = b.len();
        let in_dim = w.len() / out_dim;
        for (s, width) in sample_blocks(x.len() / in_dim, 8) {
            let (x, y) = (&x[s * in_dim..], &mut out[s * out_dim..]);
            // SAFETY: this module is compiled only where AVX-512F is
            // enabled at build time, so the CPU running it has the feature.
            unsafe {
                match width {
                    8 => forward_block::<8, 1>(w, b, panels, relu, x, y),
                    4 => forward_block::<4, 2>(w, b, panels, relu, x, y),
                    2 => forward_block::<2, 4>(w, b, panels, relu, x, y),
                    _ => forward_block::<1, 8>(w, b, panels, relu, x, y),
                }
            }
        }
    }

    /// One block of `S` samples through the layer: its panels `P` at a
    /// time, then the tail neurons.
    #[target_feature(enable = "avx512f")]
    fn forward_block<const S: usize, const P: usize>(
        w: &[f32],
        b: &[f32],
        panels: &[f32],
        relu: bool,
        x: &[f32],
        out: &mut [f32],
    ) {
        let out_dim = b.len();
        let in_dim = w.len() / out_dim;
        let rows: [&[f32]; S] = std::array::from_fn(|s| &x[s * in_dim..][..in_dim]);
        let (wts, _) = panels.as_chunks::<PANEL>();
        let (biases, _) = b.as_chunks::<PANEL>();
        // A hidden layer's 8 panels split evenly for every `P`.
        assert_eq!(biases.len() % P, 0, "{} panels in groups of {P}", biases.len());
        let groups = wts.chunks_exact(P * in_dim).zip(biases.chunks_exact(P));
        for (g, (wts, biases)) in groups.enumerate() {
            panel_group::<S, P>(wts, biases, &rows, relu, &mut out[g * P * PANEL..], out_dim);
        }
        forward_tail::<S>(w, b, relu, x, out);
    }

    /// `P` consecutive panels (`wts`: each panel's `in_dim` weight rows in
    /// turn) for the `S` sample rows; output `s` of the group's first
    /// neuron lands at `out[s * out_dim]`.
    #[target_feature(enable = "avx512f")]
    fn panel_group<const S: usize, const P: usize>(
        wts: &[[f32; PANEL]],
        biases: &[[f32; PANEL]],
        rows: &[&[f32]; S],
        relu: bool,
        out: &mut [f32],
        out_dim: usize,
    ) {
        let in_dim = wts.len() / P;
        // Slices of length exactly `in_dim`, so indexing by `i < in_dim`
        // needs no bounds check.
        let wts: [&[[f32; PANEL]]; P] = std::array::from_fn(|p| &wts[p * in_dim..][..in_dim]);
        let rows: [&[f32]; S] = std::array::from_fn(|s| &rows[s][..in_dim]);
        let mut acc = [[[_mm512_setzero_ps(); 2]; P]; S];
        for a in &mut acc {
            for (ap, bias) in a.iter_mut().zip(biases) {
                *ap = load(bias);
            }
        }
        for i in 0..in_dim {
            let wv = wts.map(|panel| load(&panel[i]));
            for (a, row) in acc.iter_mut().zip(&rows) {
                let xv = _mm512_set1_ps(row[i]);
                for (ap, [w0, w1]) in a.iter_mut().zip(wv) {
                    ap[0] = _mm512_fmadd_ps(w0, xv, ap[0]);
                    ap[1] = _mm512_fmadd_ps(w1, xv, ap[1]);
                }
            }
        }
        for (s, a) in acc.into_iter().enumerate() {
            for (p, v) in a.into_iter().enumerate() {
                let v = if relu { v.map(|v| _mm512_max_ps(v, _mm512_setzero_ps())) } else { v };
                let dst = out[s * out_dim + p * PANEL..].first_chunk_mut::<PANEL>();
                store(dst.expect("a panel of outputs"), v);
            }
        }
    }

    #[target_feature(enable = "avx512f")]
    fn load(v: &[f32; PANEL]) -> [__m512; 2] {
        // SAFETY: both halves of `v` are `LANES` in-bounds floats, and the
        // loads are unaligned ones.
        unsafe { [_mm512_loadu_ps(v.as_ptr()), _mm512_loadu_ps(v[LANES..].as_ptr())] }
    }

    #[target_feature(enable = "avx512f")]
    fn store(dst: &mut [f32; PANEL], [v0, v1]: [__m512; 2]) {
        // SAFETY: as in `load`, for stores.
        unsafe {
            _mm512_storeu_ps(dst.as_mut_ptr(), v0);
            _mm512_storeu_ps(dst[LANES..].as_mut_ptr(), v1);
        }
    }

    /// The 512-bit [`LayerBackward`](super::LayerBackward): samples run in
    /// blocks of 8, 4 and 2, and a lone sample through the portable
    /// kernel's compacted rows ([`backward_sample`]). A block first compacts
    /// the output rows live for *any* of its samples; then, per tile of `C`
    /// input vectors, it holds `S × C = 16` accumulators in registers and
    /// loads each union-live row's `C` weight vectors once for all `S`
    /// samples. Sample `s` adds them through `vfmadd` masked by `k_s`, all
    /// ones exactly when the row is live for it (`g != 0`, `_CMP_NEQ_UQ` on
    /// the broadcast gradient, so NaN is live): a masked-off lane keeps its
    /// accumulator, so a dead row still never enters a chain, and every
    /// `(input, sample)` chain is the scalar one. The gate is `act > 0`
    /// (`_CMP_GT_OQ`, false for NaN) through a zeroing move, so a shut gate
    /// gives `+0.0`. (A masked 1×16 tile for a lone sample measured slower
    /// than the compacted rows.)
    pub(super) fn backward_layer(
        w: &[f32],
        out_dim: usize,
        gate: bool,
        grad: &[f32],
        inp: &mut [f32],
        bufs: &mut SweepBuffers,
    ) {
        let in_dim = w.len() / out_dim;
        for (s, width) in sample_blocks(grad.len() / out_dim, 8) {
            let g = &grad[s * out_dim..][..width * out_dim];
            let x = &mut inp[s * in_dim..][..width * in_dim];
            // SAFETY: as in `forward_layer`.
            unsafe {
                match width {
                    8 => backward_block::<8, 2>(w, gate, g, x, &mut bufs.live),
                    4 => backward_block::<4, 4>(w, gate, g, x, &mut bufs.live),
                    2 => backward_block::<2, 8>(w, gate, g, x, &mut bufs.live),
                    _ => backward_sample(w, gate, g, x, bufs),
                }
            }
        }
    }

    /// One block of `S` samples through the layer: `grad` holds their
    /// `S * out_dim` gated gradients, `inp` their `S * in_dim` activations.
    #[target_feature(enable = "avx512f")]
    fn backward_block<const S: usize, const C: usize>(
        w: &[f32],
        gate: bool,
        grad: &[f32],
        inp: &mut [f32],
        block: &mut Vec<(u32, f32)>,
    ) {
        let (out_dim, in_dim) = (grad.len() / S, inp.len() / S);
        let grads: [&[f32]; S] = std::array::from_fn(|s| &grad[s * out_dim..][..out_dim]);
        // Branch-free compaction, as in `backward_sample`.
        block.resize(block.len().max(out_dim), (0, 0.0));
        let mut n_live = 0;
        for o in 0..out_dim {
            block[n_live].0 = o as u32;
            n_live += usize::from(grads.iter().fold(false, |live, g| live | (g[o] != 0.0)));
        }
        let live = &block[..n_live];
        for first in (0..in_dim.div_ceil(LANES)).step_by(C) {
            // Each vector's offset and lane mask: the last vector of a row
            // may be partial, and one past the row's end reads and writes
            // nothing, at offset 0.
            let lanes: [(usize, __mmask16); C] = std::array::from_fn(|v| {
                let i = (first + v) * LANES;
                match in_dim.saturating_sub(i) {
                    0 => (0, 0),
                    left => (i, (1u32 << left.min(LANES)).wrapping_sub(1) as __mmask16),
                }
            });
            let acc = tile::<S, C>(w, &grads, live, &lanes);
            for (x, a) in inp.chunks_exact_mut(in_dim).zip(acc) {
                for (&(i, m), v) in lanes.iter().zip(a) {
                    // SAFETY: `i < in_dim = x.len()`, or `i == 0` with
                    // every lane masked off, so the pointer is in bounds;
                    // the masked load and store touch only the lanes of
                    // `m`, which lie inside `x`.
                    unsafe {
                        let p = x.as_mut_ptr().add(i);
                        let v = if gate {
                            let act = _mm512_maskz_loadu_ps(m, p);
                            let open = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(act, _mm512_setzero_ps());
                            _mm512_maskz_mov_ps(open, v)
                        } else {
                            v
                        };
                        _mm512_mask_storeu_ps(p, m, v);
                    }
                }
            }
        }
    }

    /// One tile's `S × C` accumulators over the block's union-live rows
    /// `live`, from the samples' gradients `grads`: `+0.0`, then per row in
    /// ascending order one masked `vfmadd` per sample and vector.
    #[target_feature(enable = "avx512f")]
    fn tile<const S: usize, const C: usize>(
        w: &[f32],
        grads: &[&[f32]; S],
        live: &[(u32, f32)],
        lanes: &[(usize, __mmask16); C],
    ) -> [[__m512; C]; S] {
        let in_dim = w.len() / grads[0].len();
        let mut acc = [[_mm512_setzero_ps(); C]; S];
        for &(o, _) in live {
            let o = o as usize;
            let row = &w[o * in_dim..][..in_dim];
            // SAFETY: as for the stores in `backward_block`, over `row`.
            let wv = lanes.map(|(i, m)| unsafe { _mm512_maskz_loadu_ps(m, row.as_ptr().add(i)) });
            for (a, g) in acc.iter_mut().zip(grads) {
                let g = _mm512_set1_ps(g[o]);
                // Live: `g != 0.0`, true for NaN.
                let k = _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(g, _mm512_setzero_ps());
                for (av, &wv) in a.iter_mut().zip(&wv) {
                    *av = _mm512_mask3_fmadd_ps(g, wv, *av, k);
                }
            }
        }
        acc
    }
}

impl PackedMlp<'_> {
    /// The layer sweeps shared by every batched entry point; assumes
    /// `scratch.acts[0]` holds the `n` normalized input rows. Fills the
    /// remaining activations and returns the per-sample scores.
    fn forward_layers(&self, n: usize, scratch: &mut MlpScratch, scores: &mut Vec<f64>) {
        let n_layers = self.mlp.w.len();
        for (li, (w, b)) in self.mlp.w.iter().zip(&self.mlp.b).enumerate() {
            let out_dim = b.len();
            let in_dim = w.len() / out_dim;
            let relu = li + 1 < n_layers;
            let (head, tail) = scratch.acts.split_at_mut(li + 1);
            let inp = &head[li];
            let out = &mut tail[0];
            debug_assert_eq!(inp.len(), in_dim * n);
            out.clear();
            out.resize(out_dim * n, 0.0);
            (self.forward)(w, b, &self.panels[li], relu, inp, out);
        }
        scores.clear();
        scores.extend(scratch.acts[n_layers].iter().map(|&v| v as f64));
    }

    /// Sizes `scratch.acts` and returns the layer-0 buffer for `n` rows.
    fn input_rows<'s>(&self, n: usize, scratch: &'s mut MlpScratch) -> &'s mut Vec<f32> {
        scratch.acts.resize_with(self.mlp.w.len() + 1, Vec::new);
        let x0 = &mut scratch.acts[0];
        x0.clear();
        x0.resize(FEATURE_COUNT * n, 0.0);
        x0
    }

    /// Batched forward over sample-major rows, keeping every layer's
    /// activations in `scratch` (training backpropagates from them).
    fn forward_rows<'r>(
        &self,
        rows: impl ExactSizeIterator<Item = &'r [f64]>,
        scratch: &mut MlpScratch,
        scores: &mut Vec<f64>,
    ) {
        let m = self.mlp;
        let n = rows.len();
        let x0 = self.input_rows(n, scratch);
        for (dst, f) in x0.chunks_exact_mut(FEATURE_COUNT).zip(rows) {
            assert_eq!(f.len(), FEATURE_COUNT, "feature vector length");
            for (i, (d, &x)) in dst.iter_mut().zip(f).enumerate() {
                *d = (x as f32 - m.input_mean[i]) / m.input_std[i];
            }
        }
        self.forward_layers(n, scratch, scores);
    }

    /// Releases the model borrow and hands the packed buffers back for
    /// [`Mlp::pack_into`] — or, in a training step, for the weight
    /// gradients, which are the same size and never needed while the pack
    /// is.
    fn into_panels(self) -> Vec<Vec<f32>> {
        self.panels
    }

    /// Batch prediction; row `i` is bit-identical to
    /// `predict(&logfeats[i])`.
    pub fn predict_batch(&self, logfeats: &[Vec<f64>]) -> Vec<f64> {
        let mut scratch = MlpScratch::default();
        let mut scores = Vec::new();
        self.forward_rows(logfeats.iter().map(Vec::as_slice), &mut scratch, &mut scores);
        scores
    }

    /// Batched [`Mlp::input_gradient`] over one flat feature-major buffer
    /// (`feats_t[k * n + s]`, as the descent loop's transposed
    /// feature-extraction pass produces). Fills `scores` (per sample) and
    /// `grads_t` (feature-major too, `grads_t[k * n + s]`, so consumers that
    /// seed gradient tapes row-by-root read it without a transpose). Sample
    /// `s` is bit-identical to `input_gradient` on its feature column.
    /// Internally everything is sample-major; only the layer-0 normalize
    /// and the final un-normalize touch the feature-major buffers.
    pub fn input_gradient_batch_cols(
        &self,
        feats_t: &[f64],
        n: usize,
        scratch: &mut MlpScratch,
        scores: &mut Vec<f64>,
        grads_t: &mut Vec<f64>,
    ) {
        scores.clear();
        grads_t.clear();
        if n == 0 {
            return;
        }
        assert_eq!(feats_t.len(), FEATURE_COUNT * n, "feature buffer length");
        let m = self.mlp;
        let x0 = self.input_rows(n, scratch);
        for (i, col) in feats_t.chunks_exact(n).enumerate() {
            let (mean, sd) = (m.input_mean[i], m.input_std[i]);
            for (s, &x) in col.iter().enumerate() {
                x0[s * FEATURE_COUNT + i] = (x as f32 - mean) / sd;
            }
        }
        self.forward_layers(n, scratch, scores);
        self.backward_input_gradients(scratch);
        grads_t.resize(FEATURE_COUNT * n, 0.0);
        for (k, col) in grads_t.chunks_exact_mut(n).enumerate() {
            let sd = m.input_std[k];
            for (s, d) in col.iter_mut().enumerate() {
                // Undo normalization in f32 (as the scalar path does), then
                // widen.
                *d = (scratch.acts[0][s * FEATURE_COUNT + k] / sd) as f64;
            }
        }
    }

    /// The reverse sweeps of [`Mlp::input_gradient`], one
    /// [`Mlp::input_gradient_sweep`] per layer from d(score)/d(out) = 1;
    /// assumes a forward pass has filled `scratch.acts`. Leaves the raw
    /// sample-major input gradients (pre-normalization-unscale, `f32`) in
    /// `scratch.acts[0]`.
    fn backward_input_gradients(&self, scratch: &mut MlpScratch) {
        let n_layers = self.mlp.w.len();
        scratch.acts[n_layers].fill(1.0);
        for li in (0..n_layers).rev() {
            self.mlp.input_gradient_sweep(self.backward, li, scratch);
        }
    }
}

/// `dst[i] += g · src[k * len + i]` for each `(k, g)` of `terms` in order,
/// `len = dst.len()`: per element one sequential chain, one fused
/// multiply-add per term, exactly the one-term-at-a-time loop's. Four terms
/// share each pass over `dst`, so it is loaded and stored once per four rows.
fn add_scaled_rows(dst: &mut [f32], terms: &[(u32, f32)], src: &[f32]) {
    let len = dst.len();
    let row = |k: u32| &src[k as usize * len..][..len];
    let mut quads = terms.chunks_exact(4);
    for q in &mut quads {
        let [(k0, g0), (k1, g1), (k2, g2), (k3, g3)] = [q[0], q[1], q[2], q[3]];
        let rows = row(k0).iter().zip(row(k1)).zip(row(k2)).zip(row(k3));
        for (d, (((&a, &b), &c), &e)) in dst.iter_mut().zip(rows) {
            let mut v = *d;
            v = g0.mul_add(a, v);
            v = g1.mul_add(b, v);
            v = g2.mul_add(c, v);
            v = g3.mul_add(e, v);
            *d = v;
        }
    }
    for &(k, g) in quads.remainder() {
        for (d, &v) in dst.iter_mut().zip(row(k)) {
            *d = g.mul_add(v, *d);
        }
    }
}

impl Mlp {
    /// Serializes the model to a simple little-endian binary format.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn save<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        // One buffer and one write per vector, not one call per float.
        let mut buf = Vec::new();
        let mut write_vec = |w: &mut W, v: &[f32]| -> std::io::Result<()> {
            buf.clear();
            buf.extend_from_slice(&(v.len() as u64).to_le_bytes());
            buf.extend(v.iter().flat_map(|x| x.to_le_bytes()));
            w.write_all(&buf)
        };
        w.write_all(b"FELIXMLP")?;
        w.write_all(&(self.w.len() as u64).to_le_bytes())?;
        for (wi, bi) in self.w.iter().zip(&self.b) {
            write_vec(&mut w, wi)?;
            write_vec(&mut w, bi)?;
        }
        write_vec(&mut w, &self.input_mean)?;
        write_vec(&mut w, &self.input_std)?;
        Ok(())
    }

    /// Deserializes a model written by [`Mlp::save`].
    ///
    /// # Errors
    ///
    /// Returns an I/O error on truncated or mismatched data.
    pub fn load<R: std::io::Read>(mut r: R) -> std::io::Result<Self> {
        use std::io::{Error, ErrorKind, Read};
        let read_u64 = |r: &mut R| -> std::io::Result<u64> {
            let mut b = [0u8; 8];
            r.read_exact(&mut b)?;
            Ok(u64::from_le_bytes(b))
        };
        let read_vec = |r: &mut R| -> std::io::Result<Vec<f32>> {
            let n = read_u64(r)? as usize;
            if n > 100_000_000 {
                return Err(Error::new(ErrorKind::InvalidData, "vector too large"));
            }
            // One read per vector. `take` grows the buffer only as bytes
            // arrive, so a corrupt length cannot allocate up front.
            let mut bytes = Vec::new();
            r.by_ref().take(4 * n as u64).read_to_end(&mut bytes)?;
            if bytes.len() != 4 * n {
                return Err(Error::new(ErrorKind::UnexpectedEof, "truncated vector"));
            }
            let floats = bytes.chunks_exact(4).map(|b| [b[0], b[1], b[2], b[3]]);
            Ok(floats.map(f32::from_le_bytes).collect())
        };
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != b"FELIXMLP" {
            return Err(Error::new(ErrorKind::InvalidData, "bad magic"));
        }
        let n_layers = read_u64(&mut r)? as usize;
        if n_layers != LAYER_SIZES.len() - 1 {
            return Err(Error::new(ErrorKind::InvalidData, "layer count mismatch"));
        }
        let mut w = Vec::with_capacity(n_layers);
        let mut b = Vec::with_capacity(n_layers);
        for _ in 0..n_layers {
            w.push(read_vec(&mut r)?);
            b.push(read_vec(&mut r)?);
        }
        let input_mean = read_vec(&mut r)?;
        let input_std = read_vec(&mut r)?;
        if input_mean.len() != FEATURE_COUNT || input_std.len() != FEATURE_COUNT {
            return Err(Error::new(ErrorKind::InvalidData, "normalization size"));
        }
        Ok(Mlp { w, b, input_mean, input_std })
    }
}

/// One training call's Adam state over the model's flat parameter vector.
///
/// The moment buffers exist only when a later step of the call reads them
/// back: a one-step call (every round fine-tune on at most 64 samples)
/// keeps none and allocates nothing for them.
pub(crate) struct AdamState {
    /// First-moment estimates; empty for a one-step call.
    m: Vec<f32>,
    /// Second-moment estimates; empty for a one-step call.
    v: Vec<f32>,
    /// Step count.
    t: u64,
}

impl AdamState {
    const BETA1: f32 = 0.9;
    const BETA2: f32 = 0.999;
    /// Numerical stabilizer.
    const EPS: f32 = 1e-8;

    /// Fresh state for a call of `steps` updates to `mlp`: zeroed moments
    /// when `steps > 1`, none otherwise.
    pub(crate) fn for_steps(mlp: &Mlp, steps: usize) -> Self {
        let n = if steps > 1 { mlp.num_params() } else { 0 };
        AdamState { m: vec![0.0; n], v: vec![0.0; n], t: 0 }
    }
}

/// A plain-`f64` Adam optimizer used for the *schedule variable* search
/// (Algorithm 1 line 14); kept separate from the cost model's training
/// Adam because the schedule search minimizes over a handful of variables
/// per seed.
#[derive(Clone, Debug)]
pub struct AdamOpt {
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
    /// Learning rate.
    pub lr: f64,
}

impl AdamOpt {
    /// New optimizer for `n` variables with learning rate `lr`.
    pub fn new(n: usize, lr: f64) -> Self {
        AdamOpt { m: vec![0.0; n], v: vec![0.0; n], t: 0, lr }
    }

    /// Applies one descent step in place given `grad` of the objective.
    pub fn step(&mut self, x: &mut [f64], grad: &[f64]) {
        let (b1, b2, eps) = (0.9, 0.999, 1e-8);
        self.t += 1;
        let bc1 = 1.0 - b1f(b1, self.t);
        let bc2 = 1.0 - b1f(b2, self.t);
        for i in 0..x.len() {
            let g = grad[i];
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g;
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g;
            let mhat = self.m[i] / bc1;
            let vhat = self.v[i] / bc2;
            x[i] -= self.lr * mhat / (vhat.sqrt() + eps);
        }
    }
}

fn b1f(b: f64, t: u64) -> f64 {
    b.powf(t as f64)
}

#[cfg(test)]
#[path = "../tests/reference/scalar_backprop.rs"]
mod scalar_backprop;

#[cfg(test)]
#[path = "../tests/reference/zeroed_adam.rs"]
mod zeroed_adam;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn model_size_matches_tenset_scale() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(&mut rng);
        // ~150-250K parameters (TenSet MLP is ~250K).
        assert!(mlp.num_params() > 100_000, "{}", mlp.num_params());
        assert!(mlp.num_params() < 400_000);
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new(&mut rng);
        let x: Vec<f64> = (0..FEATURE_COUNT).map(|i| (i as f64 * 0.37).sin()).collect();
        let (score, grad) = mlp.input_gradient(&x);
        let eps = 1e-3;
        for k in [0usize, 7, 33, 81] {
            let mut xp = x.clone();
            xp[k] += eps;
            let hi = mlp.predict(&xp);
            xp[k] -= 2.0 * eps;
            let lo = mlp.predict(&xp);
            let num = (hi - lo) / (2.0 * eps);
            assert!(
                (grad[k] - num).abs() < 1e-2 * (1.0 + num.abs()),
                "k={k}: ad {} vs fd {num} (score {score})",
                grad[k]
            );
        }
    }

    #[test]
    fn training_reduces_loss_on_toy_function() {
        // Learn score = sum of first 4 log-features, one full-batch step per
        // epoch.
        let mut rng = StdRng::seed_from_u64(2);
        let mut mlp = Mlp::new(&mut rng);
        let samples: Vec<Sample> = (0..96)
            .map(|_| {
                let logfeats: Vec<f64> = (0..FEATURE_COUNT).map(|_| rng.gen_range(-1.0..1.0)).collect();
                Sample { score: logfeats[..4].iter().sum(), logfeats }
            })
            .collect();
        let cfg = TrainConfig { epochs: 41, batch_size: 96, lr: 1e-3, ..Default::default() };
        let losses = pretrain(&mut mlp, &samples, &cfg);
        let (first_loss, final_loss) = (losses[0], losses[40]);
        assert!(
            final_loss < first_loss * 0.5,
            "loss {first_loss} -> {final_loss}"
        );
    }

    /// Asserts that the batched training backward over `rows` with `seeds`
    /// gives the scalar reference's gradients bit for bit under every
    /// forward × backward kernel pair, reusing the caller's buffers the way
    /// a training call does.
    fn assert_param_grads_match_reference(
        mlp: &Mlp,
        rows: &[Vec<f64>],
        seeds: &[f32],
        scratch: &mut MlpScratch,
        gw: &mut Vec<Vec<f32>>,
        gb: &mut Vec<Vec<f32>>,
    ) {
        let slices: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let acts = scalar_backprop::scalar_acts(mlp, &slices);
        let (rw, rb) = scalar_backprop::backprop_with_seeds(mlp, &acts, seeds);
        let bits = |v: &[Vec<f32>]| -> Vec<Vec<u32>> {
            v.iter().map(|l| l.iter().map(|x| x.to_bits()).collect()).collect()
        };
        let n = rows.len();
        for (kernels, forward, backward) in kernel_pairs() {
            let packed = PackedMlp { forward, ..mlp.pack_into(std::mem::take(gw)) };
            let mut scores = Vec::new();
            packed.forward_rows(rows.iter().map(Vec::as_slice), scratch, &mut scores);
            *gw = packed.into_panels();
            mlp.param_grads(backward, seeds, scratch, gw, gb);
            assert!(bits(gw) == bits(&rw), "{kernels} n={n}: weight gradients differ");
            assert!(bits(gb) == bits(&rb), "{kernels} n={n}: bias gradients differ");
        }
    }

    /// A model and the rows it is checked on.
    type ParityCase = (Mlp, Vec<Vec<f64>>);

    /// The parity tests' models, each with the rows it is checked on: a
    /// He-initialised one on synthetic rows; a trained one (pretrained, then
    /// fine-tuned) on 64 real dataset rows, with their dead-ReLU patterns;
    /// and that one with a `-inf` hidden weight. Also the dataset.
    fn parity_models() -> ([ParityCase; 3], Dataset) {
        let he_init = Mlp::new(&mut StdRng::seed_from_u64(4));
        let ds = generate_dataset(&felix_sim::DeviceConfig::a5000(), 4, 8, 11);
        let mut trained = he_init.clone();
        let cfg = TrainConfig { epochs: 2, batch_size: 64, lr: 1e-3, seed: 2, ..Default::default() };
        pretrain(&mut trained, &ds.samples, &cfg);
        fine_tune(&mut trained, &ds.samples[..16], 4, 3e-4);
        let non_finite = with_neg_inf_hidden_weight(&trained, 3, 5);
        let synthetic: Vec<Vec<f64>> = (0..64)
            .map(|s| {
                (0..FEATURE_COUNT)
                    .map(|i| ((s * 31 + i) as f64 * 0.17).sin() * 3.0)
                    .collect()
            })
            .collect();
        let real: Vec<Vec<f64>> = ds.samples.iter().take(64).map(|s| s.logfeats.clone()).collect();
        assert_eq!(real.len(), 64);
        ([(he_init, synthetic), (trained, real.clone()), (non_finite, real)], ds)
    }

    /// Every batch width checked: each remainder of an 8-sample block, and
    /// several whole blocks, in an order that shrinks and grows the buffers.
    fn parity_widths() -> impl Iterator<Item = usize> {
        [64, 33].into_iter().chain(1..=17).chain([48, 64])
    }

    #[test]
    fn batched_backward_matches_scalar_reference() {
        // Every batch width of the sample blocks, signed zero, non-finite
        // and tiny seeds, real dead-ReLU patterns and a `-inf` weight, and
        // one set of buffers reused across growing and shrinking batches.
        let (models, _) = parity_models();
        let specials = [0.0, -0.0, 1.0, -0.5, 0.0, f32::MIN_POSITIVE, -1e-30, 3.0, -0.0];
        let seeds: Vec<f32> = (0..64).map(|s| specials[s % specials.len()] * (1.0 + s as f32 / 7.0)).collect();
        let (mut scratch, mut gw, mut gb) = (MlpScratch::default(), Vec::new(), Vec::new());
        for (mlp, rows) in &models {
            for n in parity_widths() {
                assert_param_grads_match_reference(mlp, &rows[..n], &seeds[..n], &mut scratch, &mut gw, &mut gb);
            }
        }
        // A NaN seed propagates identically.
        let (trained, rows) = &models[1];
        let mut nan_seeds = seeds[..5].to_vec();
        nan_seeds[2] = f32::NAN;
        assert_param_grads_match_reference(trained, &rows[..5], &nan_seeds, &mut scratch, &mut gw, &mut gb);
        // All-zero seeds (of either sign) give all-zero gradients.
        let zeros = [0.0, -0.0, 0.0, -0.0];
        assert_param_grads_match_reference(trained, &rows[..4], &zeros, &mut scratch, &mut gw, &mut gb);
        assert!(gw.iter().chain(&gb).flatten().all(|g| g.to_bits() == 0), "zero seeds, zero gradients");
    }

    /// Every forward kernel this build compiles, by name: the portable one
    /// on every host, and the 512-bit one where AVX-512F is enabled.
    const FORWARD_KERNELS: &[(&str, LayerForward)] = &[
        ("portable", forward_layer),
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
        ("avx512", avx512::forward_layer),
    ];

    /// Every backward kernel this build compiles, as [`FORWARD_KERNELS`].
    const BACKWARD_KERNELS: &[(&str, LayerBackward)] = &[
        ("portable", backward_layer),
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
        ("avx512", avx512::backward_layer),
    ];

    /// Every forward × backward pair, named `forward/backward`.
    fn kernel_pairs() -> impl Iterator<Item = (String, LayerForward, LayerBackward)> {
        FORWARD_KERNELS.iter().flat_map(|&(fname, forward)| {
            BACKWARD_KERNELS
                .iter()
                .map(move |&(bname, backward)| (format!("{fname}/{bname}"), forward, backward))
        })
    }

    /// Asserts that the batched paths over `rows` equal the scalar
    /// reference bitwise, scores and gradients, under every forward ×
    /// backward kernel pair.
    fn assert_batched_matches_scalar(mlp: &Mlp, rows: &[Vec<f64>], scratch: &mut MlpScratch) {
        let n = rows.len();
        let mut feats_t = vec![0.0; FEATURE_COUNT * n];
        for (s, x) in rows.iter().enumerate() {
            for (k, &v) in x.iter().enumerate() {
                feats_t[k * n + s] = v;
            }
        }
        let reference: Vec<(f64, f64, Vec<f64>)> = rows
            .iter()
            .map(|x| {
                let (score, grad) = mlp.input_gradient(x);
                (mlp.predict(x), score, grad)
            })
            .collect();
        for (kernels, forward, backward) in kernel_pairs() {
            let packed = PackedMlp { forward, backward, ..mlp.pack() };
            let scores = packed.predict_batch(rows);
            let (mut gscores, mut grads_t) = (Vec::new(), Vec::new());
            packed.input_gradient_batch_cols(&feats_t, n, scratch, &mut gscores, &mut grads_t);
            assert_eq!((scores.len(), gscores.len(), grads_t.len()), (n, n, FEATURE_COUNT * n));
            for (s, (score, rs, rg)) in reference.iter().enumerate() {
                assert_eq!(scores[s].to_bits(), score.to_bits(), "{kernels} n={n} row {s} score");
                assert_eq!(gscores[s].to_bits(), rs.to_bits(), "{kernels} n={n} row {s} grad score");
                for (k, b) in rg.iter().enumerate() {
                    let got = grads_t[k * n + s].to_bits();
                    assert_eq!(got, b.to_bits(), "{kernels} n={n} row {s} grad[{k}]");
                }
            }
        }
    }

    /// `mlp` with one parameter byte-patched to `v` through the serialized
    /// form, the way a diverged fine-tune would leave it: `w[li][k]`, or
    /// `b[li][k]` when `bias`.
    fn with_patched_param(mlp: &Mlp, li: usize, bias: bool, k: usize, v: f32) -> Mlp {
        let mut bytes = Vec::new();
        mlp.save(&mut bytes).expect("save");
        let before: usize = (0..li).map(|l| 16 + 4 * (mlp.w[l].len() + mlp.b[l].len())).sum();
        let skip = if bias { 4 * mlp.w[li].len() + 8 } else { 0 };
        let off = 16 + before + 8 + skip + 4 * k;
        bytes[off..off + 4].copy_from_slice(&v.to_le_bytes());
        Mlp::load(bytes.as_slice()).expect("load")
    }

    /// `mlp` with hidden weight `w[1][o][i]` patched to `-inf`.
    fn with_neg_inf_hidden_weight(mlp: &Mlp, o: usize, i: usize) -> Mlp {
        with_patched_param(mlp, 1, false, o * LAYER_SIZES[1] + i, f32::NEG_INFINITY)
    }

    #[test]
    fn batched_kernels_are_bit_identical_to_scalar() {
        // The tuner's serial/parallel determinism guarantee requires every
        // batch row to match the scalar path exactly, not approximately —
        // at every batch width (sample-block remainders included), on real
        // dead-ReLU patterns, and with one scratch reused across shrinking
        // and growing batches (poisoned seeds drop out, warm-start rounds
        // grow): stale high-water-mark data must never leak.
        let (models, ds) = parity_models();
        let mut scratch = MlpScratch::default();
        for (mlp, rows) in &models {
            for n in parity_widths() {
                assert_batched_matches_scalar(mlp, &rows[..n], &mut scratch);
            }
        }

        // Pack freshness: a pack built after training sees the updated
        // weights (guards any future caching of the packed copy).
        let [_, (mut trained, real), _] = models;
        let before = trained.pack().predict_batch(&real[..4]);
        fine_tune(&mut trained, &ds.samples[16..48], 2, 3e-3);
        let after = trained.pack().predict_batch(&real[..4]);
        assert_ne!(before, after, "fine-tune moved the weights");
        assert_batched_matches_scalar(&trained, &real[..4], &mut scratch);
    }

    #[test]
    fn signed_zero_and_nan_pre_activations_match_scalar() {
        // A fresh model normalizes with mean 0 and std 1, so a raw ±0.0
        // feature reaches layer 0 as that same zero. With unit `z`'s bias
        // patched to −0.0 and each feature's zero signed against unit `z`'s
        // weight, every product is −0.0 and so is the pre-activation. Unit
        // `q`'s bias is patched to NaN, which no product can cancel.
        let base = Mlp::new(&mut StdRng::seed_from_u64(31));
        let (z, q) = (5, 9);
        let patched = with_patched_param(&base, 0, true, z, -0.0);
        let mlp = with_patched_param(&patched, 0, true, q, f32::NAN);
        let weights = &mlp.w[0][z * FEATURE_COUNT..][..FEATURE_COUNT];
        let zeros: Vec<f64> = weights.iter().map(|&w| if w > 0.0 { -0.0 } else { 0.0 }).collect();
        let xn = mlp.normalize(&zeros);
        let pre = weights.iter().zip(&xn).fold(mlp.b[0][z], |acc, (&w, &x)| w.mul_add(x, acc));
        assert_eq!(pre.to_bits(), (-0.0f32).to_bits(), "unit {z}'s pre-activation is -0.0");
        let (acts, _) = mlp.forward_cached(&xn);
        // The scalar ReLU's results, which every kernel must reproduce.
        assert_eq!(acts[1][z].to_bits(), 0, "max(-0.0, 0.0) is +0.0 on the scalar path");
        assert_eq!(acts[1][q].to_bits(), 0, "max(NaN, 0.0) is +0.0 on the scalar path");
        // Every sample-block width, the special row among ordinary ones.
        let rows: Vec<Vec<f64>> = (0..17)
            .map(|s| match s % 3 {
                0 => zeros.clone(),
                _ => (0..FEATURE_COUNT).map(|i| ((s * 7 + i) as f64 * 0.29).sin()).collect(),
            })
            .collect();
        let mut scratch = MlpScratch::default();
        for n in [1, 2, 3, 4, 8, 9, 15, 17] {
            let rows = &rows[..n];
            assert_batched_matches_scalar(&mlp, rows, &mut scratch);
            // Every layer's activations, not only the score they reach.
            for &(kernel, forward) in FORWARD_KERNELS {
                let packed = PackedMlp { forward, ..mlp.pack() };
                packed.forward_rows(rows.iter().map(Vec::as_slice), &mut scratch, &mut Vec::new());
                for (s, x) in rows.iter().enumerate() {
                    let (acts, _) = mlp.forward_cached(&mlp.normalize(x));
                    for (li, layer) in acts.iter().enumerate().skip(1) {
                        let got = &scratch.acts[li][s * layer.len()..][..layer.len()];
                        let bits = |v: &[f32]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(got), bits(layer), "{kernel} n={n} row {s} layer {li}");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_gated_row_with_non_finite_weight_matches_scalar() {
        // The scalar references skip a zero-gated row; a batched kernel
        // that multiplies it instead turns `0 * inf` into NaN gradients.
        let mut rng = StdRng::seed_from_u64(12);
        let base = Mlp::new(&mut rng);
        let x: Vec<f64> = (0..FEATURE_COUNT).map(|i| (i as f64 * 0.41).cos() * 2.0).collect();
        let (acts, _) = base.forward_cached(&base.normalize(&x));
        let i = acts[1].iter().position(|&a| a > 0.0).expect("a live layer-0 unit");
        let mlp = with_neg_inf_hidden_weight(&base, 7, i);
        // `-inf * positive` drives unit 7's pre-activation to `-inf`: dead.
        assert_eq!(mlp.forward_cached(&mlp.normalize(&x)).0[2][7], 0.0);
        let (_, grad) = mlp.input_gradient(&x);
        assert!(grad.iter().all(|g| g.is_finite()), "scalar reference stays finite");
        assert_batched_matches_scalar(&mlp, &[x.clone(), x.clone()], &mut MlpScratch::default());
        // The training backward skips the dead row the same way.
        let rows = [x.clone(), x.clone(), x];
        let (mut scratch, mut gw, mut gb) = (MlpScratch::default(), Vec::new(), Vec::new());
        assert_param_grads_match_reference(&mlp, &rows, &[0.5, -0.25, 2.0], &mut scratch, &mut gw, &mut gb);
        assert!(gw.iter().chain(&gb).flatten().all(|g| g.is_finite()), "parameter gradients stay finite");
    }

    #[test]
    fn mixed_liveness_blocks_match_scalar() {
        // One 8-sample block (and its 4- and 2-sample prefixes) holding a
        // row live for some samples and dead for others while it carries a
        // non-finite weight, a sample whose every gate is shut, and exact
        // -0.0 upstream gradients. A block kernel that multiplies a row
        // into a sample's chain where it is dead, gates on `act >= 0`, or
        // drops a row only some of its samples keep, fails here.
        //
        // A fresh model has zero biases and unit normalization. Feature
        // `i`'s sign alternates across the block, so with `w[0][o][i]`
        // non-finite, unit `o`'s pre-activation is `+inf` (open) where the
        // feature is negative and `-inf` (shut) where it is positive when
        // the weight is `-inf`, and NaN (shut everywhere) when it is NaN.
        // Unit `o` feeds one unit of the next layer with a positive weight
        // and the rest with negative ones, so an infinity stays on one path
        // instead of cancelling into NaN, and a gradient reaches it. Sample
        // `shut` has a NaN feature: every layer-0 unit reads NaN and gates
        // shut, and zero biases shut every later gate too.
        let mut base = Mlp::new(&mut StdRng::seed_from_u64(47));
        let (o, i, shut) = (3, 0, 5);
        for (m, row) in base.w[1].chunks_exact_mut(LAYER_SIZES[1]).enumerate() {
            row[o] = if m == 0 { row[o].abs() } else { -row[o].abs() };
        }
        let mut rows: Vec<Vec<f64>> = (0..8)
            .map(|s| (0..FEATURE_COUNT).map(|k| ((s * 13 + k) as f64 * 0.37).sin()).collect())
            .collect();
        for (s, x) in rows.iter_mut().enumerate() {
            x[i] = if s % 3 == 0 { -1.0 } else { 0.5 };
        }
        rows[shut][40] = f64::NAN;
        let mut scratch = MlpScratch::default();
        for v in [f32::NEG_INFINITY, f32::NAN] {
            let mlp = with_patched_param(&base, 0, false, o * FEATURE_COUNT + i, v);
            for (s, x) in rows.iter().enumerate() {
                let (_, grad) = mlp.input_gradient(x);
                let live = v.is_infinite() && x[i] < 0.0;
                // Only a live `-inf` row makes a gradient non-finite.
                assert_eq!(grad.iter().all(|g| g.is_finite()), !live, "{v} row {o}, sample {s}");
                if s == shut {
                    assert!(grad.iter().all(|g| g.to_bits() == 0), "sample {s}'s gradient is +0.0");
                }
            }
            for n in [8, 4, 2] {
                assert_batched_matches_scalar(&mlp, &rows[..n], &mut scratch);
            }
            // Training: the output row carries the non-finite weight too,
            // at a unit open in sample 1; -0.0 and 0.0 seeds make that row
            // dead for their samples and the others live, subnormal seeds
            // among them, whose products round toward zero further down.
            let (acts, _) = mlp.forward_cached(&mlp.normalize(&rows[1]));
            let j = acts[3].iter().position(|&a| a > 0.0).expect("an open unit in sample 1");
            let mlp = with_patched_param(&mlp, 3, false, j, v);
            let seeds = [1.0, -0.0, 0.5, 0.0, -1e-44, -0.0, 2.0, 1e-40];
            let (mut gw, mut gb) = (Vec::new(), Vec::new());
            for n in [8, 4, 2] {
                assert_param_grads_match_reference(&mlp, &rows[..n], &seeds[..n], &mut scratch, &mut gw, &mut gb);
            }
        }
    }

    #[test]
    fn every_mac_is_one_fused_multiply_add() {
        // Batched ≡ scalar holds for any arithmetic both paths share; this
        // pins which one. The forward equals a test-local chain of fused
        // multiply-adds and differs from the same chain multiplied then
        // added, so reverting every site at once still fails here. (The
        // backward sweeps are held to the fused `scalar_backprop`
        // reference by the training parity tests.)
        let mlp = Mlp::new(&mut StdRng::seed_from_u64(21));
        let x: Vec<f64> = (0..FEATURE_COUNT).map(|i| (i as f64 * 0.53).sin() * 2.0).collect();
        let chain = |mac: fn(f32, f32, f32) -> f32| -> f64 {
            let mut a = mlp.normalize(&x);
            for (li, (w, b)) in mlp.w.iter().zip(&mlp.b).enumerate() {
                let relu = li + 1 < mlp.w.len();
                let neuron = |row: &[f32], bias: f32| {
                    row.iter().zip(&a).fold(bias, |acc, (&r, &i)| mac(r, i, acc))
                };
                a = (w.chunks_exact(a.len()).zip(b))
                    .map(|(row, &bias)| neuron(row, bias))
                    .map(|v| if relu { v.max(0.0) } else { v })
                    .collect();
            }
            f64::from(a[0])
        };
        let score = mlp.predict(&x).to_bits();
        assert_eq!(score, chain(f32::mul_add).to_bits(), "the forward is the fused chain");
        assert_ne!(score, chain(|r, i, acc| acc + r * i).to_bits(), "unfused gives other bits");
    }

    #[test]
    fn batched_paths_handle_empty_and_singleton() {
        let mut rng = StdRng::seed_from_u64(5);
        let mlp = Mlp::new(&mut rng);
        assert!(mlp.predict_batch(&[]).is_empty());
        let mut scratch = MlpScratch::default();
        let (mut scores, mut grads_t) = (vec![1.0], vec![1.0]);
        mlp.input_gradient_batch_cols(&[], 0, &mut scratch, &mut scores, &mut grads_t);
        assert!(scores.is_empty() && grads_t.is_empty());
        let x: Vec<f64> = (0..FEATURE_COUNT).map(|i| (i as f64 * 0.3).cos()).collect();
        mlp.input_gradient_batch_cols(&x, 1, &mut scratch, &mut scores, &mut grads_t);
        let (s, g) = mlp.input_gradient(&x);
        assert_eq!(scores[0].to_bits(), s.to_bits());
        assert_eq!(grads_t, g);
    }

    #[test]
    fn nan_aware_orders_rank_nan_last() {
        use std::cmp::Ordering;
        let mut asc = [2.0, f64::NAN, -1.0, 0.5];
        asc.sort_by(total_cmp_nan_last);
        assert_eq!(&asc[..3], &[-1.0, 0.5, 2.0]);
        assert!(asc[3].is_nan());
        let mut desc = [2.0, f64::NAN, -1.0, 0.5];
        desc.sort_by(total_cmp_desc_nan_last);
        assert_eq!(&desc[..3], &[2.0, 0.5, -1.0]);
        assert!(desc[3].is_nan());
        assert_eq!(total_cmp_nan_last(&f64::NAN, &f64::NAN), Ordering::Equal);
        // max_by with the swapped-argument descending order never picks NaN.
        let best = [f64::NAN, 1.0, f64::NAN, 3.0, 2.0]
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| total_cmp_desc_nan_last(&b.1, &a.1))
            .map(|(i, _)| i);
        assert_eq!(best, Some(3));
    }

    #[test]
    fn score_latency_round_trip() {
        for l in [0.01, 1.0, 250.0] {
            let s = latency_to_score(l);
            assert!(((-s).exp() - l).abs() / l < 1e-9);
        }
        // Faster latency = higher score.
        assert!(latency_to_score(0.1) > latency_to_score(10.0));
    }

    #[test]
    fn adam_opt_descends_quadratic() {
        // Minimize (x-3)^2 + (y+1)^2.
        let mut x = vec![0.0, 0.0];
        let mut opt = AdamOpt::new(2, 0.1);
        for _ in 0..300 {
            let g = vec![2.0 * (x[0] - 3.0), 2.0 * (x[1] + 1.0)];
            opt.step(&mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 0.05, "{x:?}");
        assert!((x[1] + 1.0).abs() < 0.05, "{x:?}");
    }

    #[test]
    fn save_load_round_trips() {
        let mut rng = StdRng::seed_from_u64(9);
        let mlp = Mlp::new(&mut rng);
        let mut buf = Vec::new();
        mlp.save(&mut buf).expect("save to vec");
        let loaded = Mlp::load(buf.as_slice()).expect("load from vec");
        let x: Vec<f64> = (0..FEATURE_COUNT).map(|i| (i as f64).sin()).collect();
        assert_eq!(mlp.predict(&x), loaded.predict(&x));
        assert_eq!(loaded.num_params(), mlp.num_params());
        let mut again = Vec::new();
        loaded.save(&mut again).expect("save to vec");
        assert!(again == buf, "a loaded model saves to the bytes it was loaded from");
        for cut in [16, 23, 24, 25, buf.len() / 2, buf.len() - 1] {
            assert!(Mlp::load(&buf[..cut]).is_err(), "a model cut at byte {cut} loaded");
        }
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(Mlp::load(&b"NOTAMODEL"[..]).is_err());
        assert!(Mlp::load(&b"FELIXMLP"[..]).is_err());
    }

    #[test]
    fn normalization_standardizes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut mlp = Mlp::new(&mut rng);
        let inputs: Vec<Vec<f64>> = (0..100)
            .map(|_| (0..FEATURE_COUNT).map(|_| rng.gen_range(5.0..15.0)).collect())
            .collect();
        mlp.fit_normalization(&inputs);
        assert!((mlp.input_mean[0] - 10.0).abs() < 1.0);
        assert!(mlp.input_std[0] > 1.0 && mlp.input_std[0] < 5.0);
    }
}
