//! The heap a training call may hold at its peak, measured by a counting
//! global allocator over this test binary.
//!
//! A one-step fine-tune (every round fine-tune on at most 64 samples) keeps
//! no Adam moments, so its weight-sized memory is one buffer: the packed
//! weights, then the weight gradients in the same allocation. A multi-step
//! call keeps both moment buffers beside it. Both budgets are stated in
//! units of the model's weight bytes.
//!
//! The descent's input-gradient batch, called once per seed-step, reuses
//! its caller's buffers: once warm it allocates nothing at all.

use felix_cost::{fine_tune, Mlp, MlpScratch, Sample, LAYER_SIZES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

/// Live heap bytes, and the most seen since the last [`peak_growth`] began.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Bytes of every allocation and reallocation requested, never decreased.
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

/// Serialises the tests: the counters are process-wide. It guards no data,
/// so a guard poisoned by the other test's failure is still good.
static SERIAL: Mutex<()> = Mutex::new(());

struct Counting;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states, and only updates two atomic
// counters besides; the caller's guarantees pass straight through.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Relaxed);
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Relaxed);
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size, Relaxed);
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size > layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// How far live heap rose above its starting level while `f` ran.
fn peak_growth(f: impl FnOnce()) -> usize {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    f();
    PEAK.load(Relaxed) - base
}

/// Bytes requested from the allocator while `f` ran.
fn requested_during(f: impl FnOnce()) -> usize {
    let before = REQUESTED.load(Relaxed);
    f();
    REQUESTED.load(Relaxed) - before
}

/// A seeded model and `n` random samples with distinct scores.
fn model_and_samples(n: usize) -> (Mlp, Vec<Sample>) {
    let mut rng = StdRng::seed_from_u64(41);
    let mlp = Mlp::new(&mut rng);
    let samples = (0..n)
        .map(|_| {
            let logfeats: Vec<f64> = (0..LAYER_SIZES[0]).map(|_| rng.gen_range(-1.0..1.0)).collect();
            Sample { score: rng.gen_range(-3.0..3.0), logfeats }
        })
        .collect();
    (mlp, samples)
}

fn weight_bytes(mlp: &Mlp) -> usize {
    mlp.num_params() * std::mem::size_of::<f32>()
}

#[test]
fn one_step_fine_tune_grows_the_heap_by_less_than_two_models() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (mut mlp, samples) = model_and_samples(8);
    let weights = weight_bytes(&mlp);
    let growth = peak_growth(|| {
        fine_tune(&mut mlp, &samples, 1, 4e-4);
    });
    assert!(
        growth < 2 * weights,
        "one-step fine-tune on 8 samples grew the heap by {growth} bytes \
         ({:.2}× the {weights} weight bytes; budget < 2×)",
        growth as f64 / weights as f64
    );
}

#[test]
fn multi_step_training_stays_inside_moments_pack_and_activations() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (mut mlp, samples) = model_and_samples(192);
    let weights = weight_bytes(&mlp);
    // Two moment buffers and the pack (later the weight gradients), the
    // activations of one 64-sample minibatch, and 64 KiB for the small
    // per-call vectors (bias gradients, scores, seeds, sample order).
    let activations = 64 * LAYER_SIZES.iter().sum::<usize>() * std::mem::size_of::<f32>();
    let budget = 3 * weights + activations + 64 * 1024;
    let growth = peak_growth(|| {
        fine_tune(&mut mlp, &samples, 2, 4e-4);
    });
    assert!(
        growth <= budget,
        "2-epoch fine-tune on 192 samples grew the heap by {growth} bytes (budget {budget})"
    );
}

#[test]
fn warm_input_gradient_batch_allocates_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (mlp, samples) = model_and_samples(8);
    let packed = mlp.pack();
    // A whole 8-sample block, and a 2-sample block plus a lone sample.
    for n in [8, 3] {
        let mut feats_t = vec![0.0; LAYER_SIZES[0] * n];
        for (s, sample) in samples[..n].iter().enumerate() {
            for (k, &x) in sample.logfeats.iter().enumerate() {
                feats_t[k * n + s] = x;
            }
        }
        let mut scratch = MlpScratch::default();
        let (mut scores, mut grads_t) = (Vec::new(), Vec::new());
        let (scores, grads_t) = (&mut scores, &mut grads_t);
        let mut call = || packed.input_gradient_batch_cols(&feats_t, n, &mut scratch, scores, grads_t);
        call();
        let bytes = requested_during(call);
        assert_eq!(bytes, 0, "a warm input-gradient batch of {n} requested {bytes} heap bytes");
    }
}
