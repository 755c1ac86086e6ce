//! Lowering a fused [`Subgraph`] to its naive loop-nest program `p0`
//! (the 1:1 translation step ① of the paper's Fig. 1).

use crate::{EwKind, Op, Subgraph};
use felix_tir::{
    AccessKind, AccessPattern, AxisId, AxisKind, MemScope, OpCounts, Program,
};

const F32: u32 = 4;

/// Lowers a fused subgraph to its naive [`Program`].
///
/// The anchor becomes the first compute stage; each fused epilogue becomes a
/// follow-up stage over the anchor's output space, reading the intermediate
/// buffer (register-scoped, since fusion keeps it on-chip) plus any
/// parameter/residual inputs from global memory.
pub fn lower_subgraph(sg: &Subgraph) -> Program {
    let mut p = Program::new();
    let has_epilogues = !sg.epilogues().is_empty();
    lower_anchor(&mut p, sg.anchor(), has_epilogues);
    let out_shape = sg.anchor().out_shape();
    let mut prev_out = p
        .written_buffer(0)
        .expect("anchor writes a buffer");
    for (i, ep) in sg.epilogues().iter().enumerate() {
        let last = i + 1 == sg.epilogues().len();
        let (kind, per_iter) = match ep {
            Op::Elementwise { kind, .. } => (*kind, ew_counts(*kind)),
            other => panic!("epilogue must be element-wise, got {other}"),
        };
        let axes: Vec<(String, i64, AxisKind)> = out_shape
            .iter()
            .enumerate()
            .map(|(d, &e)| (format!("e{d}"), e, AxisKind::Spatial))
            .collect();
        let axis_ids: Vec<AxisId> = (0..out_shape.len() as u32).map(AxisId).collect();
        let ident: Vec<Vec<(AxisId, i64)>> =
            axis_ids.iter().map(|&a| vec![(a, 1)]).collect();
        let mut accesses = vec![AccessPattern {
            buffer: prev_out,
            kind: AccessKind::Read,
            dims: ident.clone(),
        }];
        // Secondary inputs.
        match kind {
            EwKind::BiasAdd | EwKind::BatchNorm => {
                // Per-channel parameters over the channel axis (dim 1 for
                // NCHW-style shapes, the last dim for 2-D shapes).
                let ch_dim = if out_shape.len() > 2 { 1 } else { out_shape.len() - 1 };
                let param = p.add_buffer(
                    format!("param{i}"),
                    vec![out_shape[ch_dim]],
                    F32,
                    MemScope::Global,
                );
                accesses.push(AccessPattern {
                    buffer: param,
                    kind: AccessKind::Read,
                    dims: vec![vec![(axis_ids[ch_dim], 1)]],
                });
            }
            EwKind::Add | EwKind::Mul => {
                let other = p.add_buffer(
                    format!("residual{i}"),
                    out_shape.clone(),
                    F32,
                    MemScope::Global,
                );
                accesses.push(AccessPattern {
                    buffer: other,
                    kind: AccessKind::Read,
                    dims: ident.clone(),
                });
            }
            _ => {}
        }
        let out = p.add_buffer(
            format!("ep{i}_out"),
            out_shape.clone(),
            F32,
            if last { MemScope::Global } else { MemScope::Local },
        );
        accesses.push(AccessPattern { buffer: out, kind: AccessKind::Write, dims: ident });
        p.add_stage(format!("ep{i}_{kind:?}"), axes, accesses, per_iter);
        prev_out = out;
    }
    p
}

fn ew_counts(kind: EwKind) -> OpCounts {
    match kind {
        EwKind::Relu => OpCounts { fcmp: 1.0, ..OpCounts::default() },
        EwKind::Relu6 => OpCounts { fcmp: 2.0, ..OpCounts::default() },
        EwKind::Add | EwKind::BiasAdd => OpCounts { fadd: 1.0, ..OpCounts::default() },
        EwKind::Mul => OpCounts { fmul: 1.0, ..OpCounts::default() },
        EwKind::BatchNorm => OpCounts { fadd: 1.0, fmul: 1.0, ..OpCounts::default() },
        EwKind::Tanh | EwKind::Sigmoid | EwKind::Gelu | EwKind::Silu => {
            OpCounts { fspecial: 1.0, fmul: 1.0, fadd: 1.0, ..OpCounts::default() }
        }
    }
}

fn out_scope(has_epilogues: bool) -> MemScope {
    if has_epilogues {
        MemScope::Local
    } else {
        MemScope::Global
    }
}

fn lower_anchor(p: &mut Program, op: &Op, has_epilogues: bool) {
    let scope = out_scope(has_epilogues);
    match op {
        Op::Conv2d { n, c, k, h, r, stride, pad, groups } => {
            let o = (h + 2 * pad - r) / stride + 1;
            if *groups > 1 {
                // Depthwise: channels are spatial; reduce over the window.
                assert_eq!(groups, c, "only depthwise grouping is modelled");
                let input = p.add_buffer("In", vec![*n, *c, *h, *h], F32, MemScope::Global);
                let w = p.add_buffer("W", vec![*c, *r, *r], F32, MemScope::Global);
                let out = p.add_buffer("Out", vec![*n, *c, o, o], F32, scope);
                let (an, ac, ap, aq, arr, ars) =
                    (AxisId(0), AxisId(1), AxisId(2), AxisId(3), AxisId(4), AxisId(5));
                p.add_stage(
                    "dwconv2d",
                    vec![
                        ("n".into(), *n, AxisKind::Spatial),
                        ("c".into(), *c, AxisKind::Spatial),
                        ("p".into(), o, AxisKind::Spatial),
                        ("q".into(), o, AxisKind::Spatial),
                        ("rr".into(), *r, AxisKind::Reduction),
                        ("rs".into(), *r, AxisKind::Reduction),
                    ],
                    vec![
                        AccessPattern {
                            buffer: input,
                            kind: AccessKind::Read,
                            dims: vec![
                                vec![(an, 1)],
                                vec![(ac, 1)],
                                vec![(ap, *stride), (arr, 1)],
                                vec![(aq, *stride), (ars, 1)],
                            ],
                        },
                        AccessPattern {
                            buffer: w,
                            kind: AccessKind::Read,
                            dims: vec![vec![(ac, 1)], vec![(arr, 1)], vec![(ars, 1)]],
                        },
                        AccessPattern {
                            buffer: out,
                            kind: AccessKind::Write,
                            dims: vec![vec![(an, 1)], vec![(ac, 1)], vec![(ap, 1)], vec![(aq, 1)]],
                        },
                    ],
                    OpCounts { fadd: 1.0, fmul: 1.0, ..OpCounts::default() },
                );
            } else {
                let input = p.add_buffer("In", vec![*n, *c, *h, *h], F32, MemScope::Global);
                let w = p.add_buffer("W", vec![*k, *c, *r, *r], F32, MemScope::Global);
                let out = p.add_buffer("Out", vec![*n, *k, o, o], F32, scope);
                let (an, ak, ap, aq) = (AxisId(0), AxisId(1), AxisId(2), AxisId(3));
                let (arc, arr, ars) = (AxisId(4), AxisId(5), AxisId(6));
                p.add_stage(
                    "conv2d",
                    vec![
                        ("n".into(), *n, AxisKind::Spatial),
                        ("k".into(), *k, AxisKind::Spatial),
                        ("p".into(), o, AxisKind::Spatial),
                        ("q".into(), o, AxisKind::Spatial),
                        ("rc".into(), *c, AxisKind::Reduction),
                        ("rr".into(), *r, AxisKind::Reduction),
                        ("rs".into(), *r, AxisKind::Reduction),
                    ],
                    vec![
                        AccessPattern {
                            buffer: input,
                            kind: AccessKind::Read,
                            dims: vec![
                                vec![(an, 1)],
                                vec![(arc, 1)],
                                vec![(ap, *stride), (arr, 1)],
                                vec![(aq, *stride), (ars, 1)],
                            ],
                        },
                        AccessPattern {
                            buffer: w,
                            kind: AccessKind::Read,
                            dims: vec![vec![(ak, 1)], vec![(arc, 1)], vec![(arr, 1)], vec![(ars, 1)]],
                        },
                        AccessPattern {
                            buffer: out,
                            kind: AccessKind::Write,
                            dims: vec![vec![(an, 1)], vec![(ak, 1)], vec![(ap, 1)], vec![(aq, 1)]],
                        },
                    ],
                    OpCounts { fadd: 1.0, fmul: 1.0, ..OpCounts::default() },
                );
            }
        }
        Op::Conv3d { n, c, k, d, h, r, stride, pad } => {
            let od = (d + 2 * pad - r) / stride + 1;
            let o = (h + 2 * pad - r) / stride + 1;
            let input = p.add_buffer("In", vec![*n, *c, *d, *h, *h], F32, MemScope::Global);
            let w = p.add_buffer("W", vec![*k, *c, *r, *r, *r], F32, MemScope::Global);
            let out = p.add_buffer("Out", vec![*n, *k, od, o, o], F32, scope);
            let (an, ak, ad, ap, aq) = (AxisId(0), AxisId(1), AxisId(2), AxisId(3), AxisId(4));
            let (arc, ard, arr, ars) = (AxisId(5), AxisId(6), AxisId(7), AxisId(8));
            p.add_stage(
                "conv3d",
                vec![
                    ("n".into(), *n, AxisKind::Spatial),
                    ("k".into(), *k, AxisKind::Spatial),
                    ("d".into(), od, AxisKind::Spatial),
                    ("p".into(), o, AxisKind::Spatial),
                    ("q".into(), o, AxisKind::Spatial),
                    ("rc".into(), *c, AxisKind::Reduction),
                    ("rd".into(), *r, AxisKind::Reduction),
                    ("rr".into(), *r, AxisKind::Reduction),
                    ("rs".into(), *r, AxisKind::Reduction),
                ],
                vec![
                    AccessPattern {
                        buffer: input,
                        kind: AccessKind::Read,
                        dims: vec![
                            vec![(an, 1)],
                            vec![(arc, 1)],
                            vec![(ad, *stride), (ard, 1)],
                            vec![(ap, *stride), (arr, 1)],
                            vec![(aq, *stride), (ars, 1)],
                        ],
                    },
                    AccessPattern {
                        buffer: w,
                        kind: AccessKind::Read,
                        dims: vec![
                            vec![(ak, 1)],
                            vec![(arc, 1)],
                            vec![(ard, 1)],
                            vec![(arr, 1)],
                            vec![(ars, 1)],
                        ],
                    },
                    AccessPattern {
                        buffer: out,
                        kind: AccessKind::Write,
                        dims: vec![
                            vec![(an, 1)],
                            vec![(ak, 1)],
                            vec![(ad, 1)],
                            vec![(ap, 1)],
                            vec![(aq, 1)],
                        ],
                    },
                ],
                OpCounts { fadd: 1.0, fmul: 1.0, ..OpCounts::default() },
            );
        }
        Op::ConvTranspose2d { n, c, k, h, r, stride, pad } => {
            let o = (h - 1) * stride + r - 2 * pad;
            // Modelled over the output space; each output pixel reduces over
            // c × ⌈r/stride⌉² input taps (the fractionally-strided view).
            let taps = ((*r + stride - 1) / stride).max(1);
            let input = p.add_buffer("In", vec![*n, *c, *h, *h], F32, MemScope::Global);
            let w = p.add_buffer("W", vec![*c, *k, *r, *r], F32, MemScope::Global);
            let out = p.add_buffer("Out", vec![*n, *k, o, o], F32, scope);
            let (an, ak, ap, aq) = (AxisId(0), AxisId(1), AxisId(2), AxisId(3));
            let (arc, arr, ars) = (AxisId(4), AxisId(5), AxisId(6));
            p.add_stage(
                "tconv2d",
                vec![
                    ("n".into(), *n, AxisKind::Spatial),
                    ("k".into(), *k, AxisKind::Spatial),
                    ("p".into(), o, AxisKind::Spatial),
                    ("q".into(), o, AxisKind::Spatial),
                    ("rc".into(), *c, AxisKind::Reduction),
                    ("rr".into(), taps, AxisKind::Reduction),
                    ("rs".into(), taps, AxisKind::Reduction),
                ],
                vec![
                    AccessPattern {
                        buffer: input,
                        kind: AccessKind::Read,
                        dims: vec![
                            vec![(an, 1)],
                            vec![(arc, 1)],
                            vec![(ap, 1), (arr, 1)],
                            vec![(aq, 1), (ars, 1)],
                        ],
                    },
                    AccessPattern {
                        buffer: w,
                        kind: AccessKind::Read,
                        dims: vec![vec![(arc, 1)], vec![(ak, 1)], vec![(arr, 1)], vec![(ars, 1)]],
                    },
                    AccessPattern {
                        buffer: out,
                        kind: AccessKind::Write,
                        dims: vec![vec![(an, 1)], vec![(ak, 1)], vec![(ap, 1)], vec![(aq, 1)]],
                    },
                ],
                OpCounts { fadd: 1.0, fmul: 1.0, ..OpCounts::default() },
            );
        }
        Op::Dense { m, k, n } => {
            let a = p.add_buffer("A", vec![*m, *k], F32, MemScope::Global);
            let b = p.add_buffer("B", vec![*n, *k], F32, MemScope::Global);
            let out = p.add_buffer("Out", vec![*m, *n], F32, scope);
            let (ai, aj, ak) = (AxisId(0), AxisId(1), AxisId(2));
            p.add_stage(
                "dense",
                vec![
                    ("i".into(), *m, AxisKind::Spatial),
                    ("j".into(), *n, AxisKind::Spatial),
                    ("k".into(), *k, AxisKind::Reduction),
                ],
                vec![
                    AccessPattern { buffer: a, kind: AccessKind::Read, dims: vec![vec![(ai, 1)], vec![(ak, 1)]] },
                    AccessPattern { buffer: b, kind: AccessKind::Read, dims: vec![vec![(aj, 1)], vec![(ak, 1)]] },
                    AccessPattern { buffer: out, kind: AccessKind::Write, dims: vec![vec![(ai, 1)], vec![(aj, 1)]] },
                ],
                OpCounts { fadd: 1.0, fmul: 1.0, ..OpCounts::default() },
            );
        }
        Op::BatchMatmul { b, m, k, n } => {
            let a = p.add_buffer("A", vec![*b, *m, *k], F32, MemScope::Global);
            let bb = p.add_buffer("B", vec![*b, *k, *n], F32, MemScope::Global);
            let out = p.add_buffer("Out", vec![*b, *m, *n], F32, scope);
            let (ab, ai, aj, ak) = (AxisId(0), AxisId(1), AxisId(2), AxisId(3));
            p.add_stage(
                "batch_matmul",
                vec![
                    ("b".into(), *b, AxisKind::Spatial),
                    ("i".into(), *m, AxisKind::Spatial),
                    ("j".into(), *n, AxisKind::Spatial),
                    ("k".into(), *k, AxisKind::Reduction),
                ],
                vec![
                    AccessPattern {
                        buffer: a,
                        kind: AccessKind::Read,
                        dims: vec![vec![(ab, 1)], vec![(ai, 1)], vec![(ak, 1)]],
                    },
                    AccessPattern {
                        buffer: bb,
                        kind: AccessKind::Read,
                        dims: vec![vec![(ab, 1)], vec![(ak, 1)], vec![(aj, 1)]],
                    },
                    AccessPattern {
                        buffer: out,
                        kind: AccessKind::Write,
                        dims: vec![vec![(ab, 1)], vec![(ai, 1)], vec![(aj, 1)]],
                    },
                ],
                OpCounts { fadd: 1.0, fmul: 1.0, ..OpCounts::default() },
            );
        }
        Op::Softmax { rows, cols } => {
            let x = p.add_buffer("X", vec![*rows, *cols], F32, MemScope::Global);
            let y = p.add_buffer("Y", vec![*rows, *cols], F32, scope);
            let (ar, ac) = (AxisId(0), AxisId(1));
            p.add_stage(
                "softmax",
                vec![
                    ("r".into(), *rows, AxisKind::Spatial),
                    ("c".into(), *cols, AxisKind::Spatial),
                ],
                vec![
                    AccessPattern { buffer: x, kind: AccessKind::Read, dims: vec![vec![(ar, 1)], vec![(ac, 1)]] },
                    AccessPattern { buffer: y, kind: AccessKind::Write, dims: vec![vec![(ar, 1)], vec![(ac, 1)]] },
                ],
                // exp + running max/sum + final divide, amortized per element.
                OpCounts { fadd: 2.0, fdiv: 1.0, fspecial: 1.0, fcmp: 1.0, ..OpCounts::default() },
            );
        }
        Op::LayerNorm { rows, cols } => {
            let x = p.add_buffer("X", vec![*rows, *cols], F32, MemScope::Global);
            let y = p.add_buffer("Y", vec![*rows, *cols], F32, scope);
            let (ar, ac) = (AxisId(0), AxisId(1));
            p.add_stage(
                "layernorm",
                vec![
                    ("r".into(), *rows, AxisKind::Spatial),
                    ("c".into(), *cols, AxisKind::Spatial),
                ],
                vec![
                    AccessPattern { buffer: x, kind: AccessKind::Read, dims: vec![vec![(ar, 1)], vec![(ac, 1)]] },
                    AccessPattern { buffer: y, kind: AccessKind::Write, dims: vec![vec![(ar, 1)], vec![(ac, 1)]] },
                ],
                OpCounts { fadd: 3.0, fmul: 2.0, fspecial: 1.0, ..OpCounts::default() },
            );
        }
        Op::MaxPool2d { n, c, h, r, stride, pad } => {
            let o = (h + 2 * pad - r) / stride + 1;
            lower_pool(p, *n, *c, *h, o, *r, *stride, scope, true);
        }
        Op::AvgPool2d { n, c, h, r, stride } => {
            let o = (h - r) / stride + 1;
            lower_pool(p, *n, *c, *h, o, *r, *stride, scope, false);
        }
        Op::GlobalAvgPool { n, c, h } => {
            let x = p.add_buffer("X", vec![*n, *c, *h, *h], F32, MemScope::Global);
            let y = p.add_buffer("Y", vec![*n, *c], F32, scope);
            let (an, ac, arh, arw) = (AxisId(0), AxisId(1), AxisId(2), AxisId(3));
            p.add_stage(
                "global_avgpool",
                vec![
                    ("n".into(), *n, AxisKind::Spatial),
                    ("c".into(), *c, AxisKind::Spatial),
                    ("rh".into(), *h, AxisKind::Reduction),
                    ("rw".into(), *h, AxisKind::Reduction),
                ],
                vec![
                    AccessPattern {
                        buffer: x,
                        kind: AccessKind::Read,
                        dims: vec![vec![(an, 1)], vec![(ac, 1)], vec![(arh, 1)], vec![(arw, 1)]],
                    },
                    AccessPattern {
                        buffer: y,
                        kind: AccessKind::Write,
                        dims: vec![vec![(an, 1)], vec![(ac, 1)]],
                    },
                ],
                OpCounts { fadd: 1.0, ..OpCounts::default() },
            );
        }
        Op::Elementwise { kind, shape } => {
            let x = p.add_buffer("X", shape.clone(), F32, MemScope::Global);
            let axes: Vec<(String, i64, AxisKind)> = shape
                .iter()
                .enumerate()
                .map(|(d, &e)| (format!("a{d}"), e, AxisKind::Spatial))
                .collect();
            let axis_ids: Vec<AxisId> = (0..shape.len() as u32).map(AxisId).collect();
            let ident: Vec<Vec<(AxisId, i64)>> =
                axis_ids.iter().map(|&a| vec![(a, 1)]).collect();
            let mut accesses = vec![AccessPattern {
                buffer: x,
                kind: AccessKind::Read,
                dims: ident.clone(),
            }];
            if kind.arity() == 2 {
                let x2 = p.add_buffer("X2", shape.clone(), F32, MemScope::Global);
                accesses.push(AccessPattern {
                    buffer: x2,
                    kind: AccessKind::Read,
                    dims: ident.clone(),
                });
            }
            let y = p.add_buffer("Y", shape.clone(), F32, scope);
            accesses.push(AccessPattern { buffer: y, kind: AccessKind::Write, dims: ident });
            p.add_stage(format!("ew_{kind:?}"), axes, accesses, ew_counts(*kind));
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn lower_pool(
    p: &mut Program,
    n: i64,
    c: i64,
    h: i64,
    o: i64,
    r: i64,
    stride: i64,
    scope: MemScope,
    is_max: bool,
) {
    let x = p.add_buffer("X", vec![n, c, h, h], F32, MemScope::Global);
    let y = p.add_buffer("Y", vec![n, c, o, o], F32, scope);
    let (an, ac, ap, aq, arr, ars) =
        (AxisId(0), AxisId(1), AxisId(2), AxisId(3), AxisId(4), AxisId(5));
    let counts = if is_max {
        OpCounts { fcmp: 1.0, ..OpCounts::default() }
    } else {
        OpCounts { fadd: 1.0, ..OpCounts::default() }
    };
    p.add_stage(
        if is_max { "maxpool2d" } else { "avgpool2d" },
        vec![
            ("n".into(), n, AxisKind::Spatial),
            ("c".into(), c, AxisKind::Spatial),
            ("p".into(), o, AxisKind::Spatial),
            ("q".into(), o, AxisKind::Spatial),
            ("rr".into(), r, AxisKind::Reduction),
            ("rs".into(), r, AxisKind::Reduction),
        ],
        vec![
            AccessPattern {
                buffer: x,
                kind: AccessKind::Read,
                dims: vec![
                    vec![(an, 1)],
                    vec![(ac, 1)],
                    vec![(ap, stride), (arr, 1)],
                    vec![(aq, stride), (ars, 1)],
                ],
            },
            AccessPattern {
                buffer: y,
                kind: AccessKind::Write,
                dims: vec![vec![(an, 1)], vec![(ac, 1)], vec![(ap, 1)], vec![(aq, 1)]],
            },
        ],
        counts,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use felix_tir::StageKind;

    #[test]
    fn conv_relu_lowers_to_two_stages() {
        let sg = Subgraph {
            ops: vec![
                Op::Conv2d { n: 1, c: 64, k: 64, h: 56, r: 3, stride: 1, pad: 1, groups: 1 },
                Op::Elementwise { kind: EwKind::Relu, shape: vec![1, 64, 56, 56] },
            ],
        };
        let p = lower_subgraph(&sg);
        assert_eq!(p.stages.len(), 2);
        assert_eq!(p.stages[0].name, "conv2d");
        // Intermediate is register-local, final output is global.
        let inter = p.written_buffer(0).unwrap();
        assert_eq!(p.buffers[inter.0 as usize].scope, MemScope::Local);
        let out = p.written_buffer(1).unwrap();
        assert_eq!(p.buffers[out.0 as usize].scope, MemScope::Global);
    }

    #[test]
    fn conv_axes_and_reductions() {
        let sg = Subgraph {
            ops: vec![Op::Conv2d { n: 1, c: 3, k: 64, h: 224, r: 7, stride: 2, pad: 3, groups: 1 }],
        };
        let p = lower_subgraph(&sg);
        let st = &p.stages[0];
        assert_eq!(st.axes.len(), 7);
        assert_eq!(st.axes.iter().filter(|a| a.kind == AxisKind::Reduction).count(), 3);
        // Output spatial extent of the 7x7/s2 conv on 224: 112.
        assert_eq!(st.axes[2].extent, 112);
    }

    #[test]
    fn conv_total_iters_matches_flops() {
        let op = Op::Conv2d { n: 1, c: 64, k: 128, h: 28, r: 3, stride: 1, pad: 1, groups: 1 };
        let sg = Subgraph { ops: vec![op.clone()] };
        let mut p = lower_subgraph(&sg);
        let total = p.total_iters(0);
        let iters = p.pool.eval(total, &[]);
        // 2 flops per iteration (MAC) must equal op.flops().
        assert_eq!(iters * 2.0, op.flops());
    }

    #[test]
    fn depthwise_has_no_channel_reduction() {
        let sg = Subgraph {
            ops: vec![Op::Conv2d { n: 1, c: 32, k: 32, h: 112, r: 3, stride: 1, pad: 1, groups: 32 }],
        };
        let p = lower_subgraph(&sg);
        let st = &p.stages[0];
        assert_eq!(st.axes.iter().filter(|a| a.kind == AxisKind::Reduction).count(), 2);
    }

    #[test]
    fn bias_add_epilogue_reads_param_vector() {
        let sg = Subgraph {
            ops: vec![
                Op::Dense { m: 1, k: 2048, n: 1000 },
                Op::Elementwise { kind: EwKind::BiasAdd, shape: vec![1, 1000] },
            ],
        };
        let p = lower_subgraph(&sg);
        let ep = &p.stages[1];
        assert_eq!(ep.accesses.len(), 3); // prev, bias, out
        let bias_buf = ep.accesses[1].buffer;
        assert_eq!(p.buffers[bias_buf.0 as usize].dims, vec![1000]);
    }

    #[test]
    fn residual_add_reads_full_tensor() {
        let sg = Subgraph {
            ops: vec![
                Op::Conv2d { n: 1, c: 64, k: 64, h: 56, r: 3, stride: 1, pad: 1, groups: 1 },
                Op::Elementwise { kind: EwKind::Add, shape: vec![1, 64, 56, 56] },
            ],
        };
        let p = lower_subgraph(&sg);
        let ep = &p.stages[1];
        let res_buf = ep.accesses[1].buffer;
        assert_eq!(p.buffers[res_buf.0 as usize].dims, vec![1, 64, 56, 56]);
    }

    #[test]
    fn all_ops_lower_without_panic() {
        let ops = vec![
            Op::Conv3d { n: 1, c: 64, k: 64, d: 8, h: 28, r: 3, stride: 1, pad: 1 },
            Op::ConvTranspose2d { n: 1, c: 512, k: 256, h: 4, r: 4, stride: 2, pad: 1 },
            Op::BatchMatmul { b: 12, m: 64, k: 64, n: 64 },
            Op::Softmax { rows: 768, cols: 64 },
            Op::LayerNorm { rows: 64, cols: 768 },
            Op::MaxPool2d { n: 1, c: 64, h: 112, r: 3, stride: 2, pad: 1 },
            Op::AvgPool2d { n: 1, c: 64, h: 56, r: 2, stride: 2 },
            Op::GlobalAvgPool { n: 1, c: 2048, h: 7 },
            Op::Elementwise { kind: EwKind::Add, shape: vec![1, 64, 56, 56] },
        ];
        for op in ops {
            let p = lower_subgraph(&Subgraph { ops: vec![op.clone()] });
            assert_eq!(p.stages.len(), 1, "{op}");
            assert_eq!(p.stages[0].kind, StageKind::Compute);
            assert!(p.written_buffer(0).is_some());
        }
    }
}
