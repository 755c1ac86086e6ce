//! The shared candidate scorer: every row of `SearchTask::score_candidates`
//! is bit-identical to the scalar reference — the pool-walked features,
//! log-transformed, through `Mlp::predict` — on every sketch of real
//! network tasks, for healthy and non-finite models alike.

use felix_ansor::SearchTask;
use felix_cost::{log_transform, random_schedule, Mlp};
use felix_graph::{models, partition};
use felix_sim::{DeviceConfig, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A random model with one parameter overwritten through the serialized
/// form (the weights are private): `offset` counts bytes from the start
/// of `Mlp::save`'s output, or from its end when negative.
fn patched_model(seed: u64, offset: isize, value: f32) -> Mlp {
    let mlp = Mlp::new(&mut StdRng::seed_from_u64(seed));
    let mut bytes = Vec::new();
    mlp.save(&mut bytes).expect("save");
    let at = if offset < 0 { bytes.len() - offset.unsigned_abs() } else { offset as usize };
    bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
    Mlp::load(bytes.as_slice()).expect("load")
}

#[test]
fn scored_rows_are_bit_identical_to_scalar_predict() {
    let sim = Simulator::new(DeviceConfig::a5000());
    let plain = Mlp::new(&mut StdRng::seed_from_u64(1));
    let d = plain.input_mean.len();
    let models = [
        ("plain", plain),
        // Layout: magic, layer count, then each layer's weight vector (u64
        // length, f32s) — the first layer's first weight sits at byte 24.
        ("inf first-layer weight", patched_model(2, 24, f32::INFINITY)),
        ("nan first-layer weight", patched_model(3, 28, f32::NAN)),
        // The output bias (length 1) sits just before the two
        // normalization vectors at the tail.
        ("nan output bias", patched_model(4, -(2 * (8 + 4 * d as isize) + 4), f32::NAN)),
    ];
    let mut rng = StdRng::seed_from_u64(7);
    let (mut sketches, mut nonfinite) = (0, 0);
    for graph in [models::dcgan(1), models::vit_b32(1)] {
        for task in partition(&graph).iter().take(4) {
            let task = SearchTask::from_task(task, &sim);
            let mut cands = Vec::new();
            for (sk, st) in task.sketches.iter().enumerate() {
                sketches += 1;
                for _ in 0..5 {
                    cands.push((sk, random_schedule(&st.program, &st.rounding, &mut rng, 64)));
                }
                // Far outside any tile extent: features overflow.
                cands.push((sk, vec![1e300; st.program.vars.len()]));
            }
            for (name, model) in &models {
                let scores = task.score_candidates(&model.pack(), &cands);
                assert_eq!(scores.len(), cands.len());
                for ((sk, vals), score) in cands.iter().zip(&scores) {
                    let st = &task.sketches[*sk];
                    let feats = log_transform(&st.features.eval(&st.program, vals));
                    let want = model.predict(&feats);
                    assert_eq!(score.to_bits(), want.to_bits(), "{name}, {}, sketch {sk}", task.name);
                    nonfinite += usize::from(!score.is_finite());
                }
            }
        }
    }
    assert!(sketches >= 8, "only {sketches} sketches covered");
    assert!(nonfinite > 0, "no non-finite row was compared");
}
