//! The lowered programs, pinned. Every task of the six networks at batch 1
//! and 16, and every operator bare and with each element-wise epilogue, is
//! lowered; the `Debug` text of its buffers, stages, constraints, schedule
//! variables and expression-pool nodes folds into one FNV-1a hash. The
//! whole `Program` is not hashed: its hash-cons map prints in a different
//! order each run. A change to lowering that moves any byte fails here.

use felix_graph::lower::lower_subgraph;
use felix_graph::{models, partition, EwKind, Op, Subgraph};

const PINNED: u64 = 0x4104_2b56_a86b_19dd;

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

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

#[test]
fn lowered_programs_match_their_pinned_hash() {
    let sgs = subgraphs();
    assert_eq!(sgs.len(), 435, "the corpus is part of the pin");
    let mut h = 0xcbf2_9ce4_8422_2325;
    for sg in &sgs {
        let p = lower_subgraph(sg);
        let text = format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}",
            p.buffers,
            p.stages,
            p.constraints,
            p.sched_vars,
            p.pool.nodes()
        );
        h = fnv1a(h, text.as_bytes());
    }
    assert_eq!(h, PINNED, "{} lowered subgraphs hash to {h:#x}", sgs.len());
}
