//! The symbolic front end, pinned. Every program of the lowering pin's
//! corpus (every task of the six networks at batch 1 and 16, and every
//! operator bare and with each element-wise epilogue; see
//! `crates/graph/tests/lowering.rs`) goes through `generate_sketches` under
//! each distinct hardware setting below, and every sketch through
//! `extract_features`. The `Debug` text of the sketch's name, steps,
//! buffers, stages, constraints, schedule variables, expression-pool nodes
//! and the 82 feature ids folds into one FNV-1a hash. The pool's interning
//! order is the tape's instruction order, so a rewrite of the sketch rules
//! or the feature families that moves any node, even one no feature reads,
//! fails here.
//!
//! The same corpus checks that every sketch passes `felix_tir::verify` at
//! seeded points rounded through its `RoundingPlan`.

use felix_features::extract_features;
use felix_graph::lower::lower_subgraph;
use felix_graph::{models, partition, EwKind, Op, Subgraph};
use felix_tir::sketch::{generate_sketches, HardwareParams, RoundingPlan, Sketch};
use felix_tir::verify;

const PINNED: u64 = 0xb880_83ec_39e4_e77a;

/// Shared memory per block of each simulated device (`felix_sim`'s
/// `DeviceConfig::shared_per_block`, written out here because `felix-sim`
/// depends on this crate).
const DEVICE_SHARED_BYTES: [(&str, i64); 3] =
    [("A10G", 48 * 1024), ("RTX A5000", 48 * 1024), ("Xavier NX", 48 * 1024)];

const EW_KINDS: [EwKind; 10] = [
    EwKind::Relu,
    EwKind::Add,
    EwKind::BiasAdd,
    EwKind::BatchNorm,
    EwKind::Tanh,
    EwKind::Sigmoid,
    EwKind::Silu,
    EwKind::Gelu,
    EwKind::Mul,
    EwKind::Relu6,
];

/// One operator per `Op` variant (both `Conv2d` forms), plus an
/// element-wise anchor of every kind.
fn one_of_each() -> Vec<Op> {
    let mut ops = vec![
        Op::Conv2d { n: 1, c: 64, k: 128, h: 28, r: 3, stride: 2, pad: 1, groups: 1 },
        Op::Conv2d { n: 2, c: 32, k: 32, h: 56, r: 3, stride: 1, pad: 1, groups: 32 },
        Op::Conv3d { n: 1, c: 64, k: 64, d: 8, h: 28, r: 3, stride: 2, pad: 1 },
        Op::ConvTranspose2d { n: 1, c: 512, k: 256, h: 4, r: 4, stride: 2, pad: 1 },
        Op::Dense { m: 16, k: 2048, n: 1000 },
        Op::BatchMatmul { b: 12, m: 64, k: 32, n: 48 },
        Op::Softmax { rows: 768, cols: 64 },
        Op::LayerNorm { rows: 64, cols: 768 },
        Op::MaxPool2d { n: 1, c: 64, h: 112, r: 3, stride: 2, pad: 1 },
        Op::AvgPool2d { n: 1, c: 64, h: 56, r: 2, stride: 2 },
        Op::GlobalAvgPool { n: 1, c: 2048, h: 7 },
    ];
    ops.extend(EW_KINDS.map(|kind| Op::Elementwise { kind, shape: vec![1, 64, 56, 56] }));
    ops
}

fn subgraphs() -> Vec<Subgraph> {
    let mut out: Vec<Subgraph> = [1, 16]
        .into_iter()
        .flat_map(models::all_models)
        .flat_map(|g| partition(&g))
        .map(|t| t.subgraph)
        .collect();
    for op in one_of_each() {
        out.push(Subgraph { ops: vec![op.clone()] });
        for kind in EW_KINDS {
            let ep = Op::Elementwise { kind, shape: op.out_shape() };
            out.push(Subgraph { ops: vec![op.clone(), ep] });
        }
    }
    out
}

/// The default limits and each device's; identical settings run once (all
/// three devices share 48 KiB today).
fn hardware_settings() -> Vec<HardwareParams> {
    let default = HardwareParams::default();
    let mut out = vec![default];
    for (_, max_shared_bytes) in DEVICE_SHARED_BYTES {
        let hw = HardwareParams { max_shared_bytes, ..default };
        if !out.contains(&hw) {
            out.push(hw);
        }
    }
    out
}

/// Every sketch of the corpus under every hardware setting.
fn corpus_sketches() -> Vec<Sketch> {
    let programs: Vec<_> = subgraphs().iter().map(lower_subgraph).collect();
    assert_eq!(programs.len(), 435, "the corpus is part of the pin");
    hardware_settings()
        .iter()
        .flat_map(|hw| programs.iter().flat_map(move |p| generate_sketches(p, hw)))
        .collect()
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

#[test]
fn sketches_and_features_match_their_pinned_hash() {
    let sketches = corpus_sketches();
    let mut h = 0xcbf2_9ce4_8422_2325;
    for sk in &sketches {
        let mut p = sk.program.clone();
        let fs = extract_features(&mut p);
        // The whole `Program` is not hashed: its hash-cons map prints in a
        // different order each run.
        let text = format!(
            "{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            sk.name,
            sk.steps,
            p.buffers,
            p.stages,
            p.constraints,
            p.sched_vars,
            p.pool.nodes(),
            fs.exprs
        );
        h = fnv1a(h, text.as_bytes());
    }
    assert_eq!(h, PINNED, "{} sketches hash to {h:#x}", sketches.len());
}

/// SplitMix64: a seeded stream for the verification points.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn every_sketch_verifies_at_rounded_seeded_points() {
    let mut state = 0x5EED;
    for sk in corpus_sketches() {
        let p = &sk.program;
        let plan = RoundingPlan::new(p);
        for _ in 0..3 {
            // Log-uniform in [1, 1024): small and large tiles alike.
            let raw: Vec<f64> = (0..p.vars.len())
                .map(|_| {
                    let unit = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                    2f64.powf(10.0 * unit)
                })
                .collect();
            let vals = plan.round(&raw);
            if let Err(errs) = verify(p, &vals) {
                panic!("{} sketch fails verification at {vals:?}: {errs:?}", sk.name);
            }
        }
    }
}
