//! Lowering a fused [`Subgraph`] to its naive loop-nest program `p0`
//! (the 1:1 translation step ① of the paper's Fig. 1).
//!
//! Every operator is one row of a table: its axes, the operands it reads
//! with one index map each, and the name of the buffer it writes. The
//! spatial axes take their extents from [`Op::out_shape`] and index the
//! output through the identity map, so a new operator is one more row.

use crate::{EwKind, Op, Subgraph};
use felix_tir::{AccessKind, AccessPattern, AxisId, AxisKind, BufId, MemScope, OpCounts, Program};

const F32: u32 = 4;

/// Per buffer dimension, the `(axis, stride)` terms whose sum indexes it.
type IndexMap = Vec<Vec<(AxisId, i64)>>;

/// One operator as data.
struct Row {
    /// Read operands `(buffer name, shape, index map)`, created in global
    /// memory in this order.
    reads: Vec<(&'static str, Vec<i64>, IndexMap)>,
    /// Names of the spatial axes, one per output dimension.
    spatial: Vec<String>,
    /// Reduction axes `(name, extent)`, numbered after the spatial ones.
    reductions: Vec<(&'static str, i64)>,
    /// Name of the output buffer.
    out: &'static str,
    /// Arithmetic of one iteration.
    counts: OpCounts,
}

/// Lowers a fused subgraph to its naive [`Program`].
///
/// The anchor becomes the first compute stage; each fused epilogue becomes a
/// follow-up stage over the anchor's output space, reading the intermediate
/// buffer (register-scoped, since fusion keeps it on-chip) plus any
/// parameter/residual inputs from global memory.
pub fn lower_subgraph(sg: &Subgraph) -> Program {
    let mut p = Program::new();
    let shape = sg.anchor().out_shape();
    let rank = shape.len();
    let n_ep = sg.epilogues().len();
    let scope = |stage| if stage == n_ep { MemScope::Global } else { MemScope::Local };
    let mut prev = lower_anchor(&mut p, sg.anchor(), &shape, scope(0));
    for (i, ep) in sg.epilogues().iter().enumerate() {
        let Op::Elementwise { kind, .. } = ep else {
            panic!("epilogue must be element-wise, got {ep}");
        };
        let mut accesses = vec![read(prev, identity(rank))];
        // Secondary inputs.
        match kind {
            EwKind::BiasAdd | EwKind::BatchNorm => {
                // Per-channel parameters over the channel axis (dim 1 for
                // NCHW-style shapes, the last dim for 2-D shapes).
                let ch = rank.min(2) - 1;
                let param =
                    p.add_buffer(format!("param{i}"), vec![shape[ch]], F32, MemScope::Global);
                accesses.push(read(param, vec![vec![(AxisId(ch as u32), 1)]]));
            }
            EwKind::Add | EwKind::Mul => {
                let other =
                    p.add_buffer(format!("residual{i}"), shape.clone(), F32, MemScope::Global);
                accesses.push(read(other, identity(rank)));
            }
            _ => {}
        }
        prev = p.add_buffer(format!("ep{i}_out"), shape.clone(), F32, scope(i + 1));
        accesses.push(write(prev, rank));
        let axes = axes(numbered("e", rank), &shape, &[]);
        p.add_stage(format!("ep{i}_{kind:?}"), axes, accesses, ew_counts(*kind));
    }
    p
}

/// Adds the anchor's stage from its [`row`] and returns the buffer it
/// writes (of shape `shape`, in `scope`).
fn lower_anchor(p: &mut Program, op: &Op, shape: &[i64], scope: MemScope) -> BufId {
    let row = row(op);
    let mut accesses: Vec<AccessPattern> = row
        .reads
        .into_iter()
        .map(|(name, dims, map)| read(p.add_buffer(name, dims, F32, MemScope::Global), map))
        .collect();
    let out = p.add_buffer(row.out, shape.to_vec(), F32, scope);
    accesses.push(write(out, shape.len()));
    let name = match op {
        Op::Elementwise { kind, .. } => format!("ew_{kind:?}"),
        _ => op.short_name().to_string(),
    };
    p.add_stage(name, axes(row.spatial, shape, &row.reductions), accesses, row.counts);
    out
}

/// The table: one [`Row`] per operator.
fn row(op: &Op) -> Row {
    let mac = OpCounts { fadd: 1.0, fmul: 1.0, ..OpCounts::default() };
    match *op {
        Op::Conv2d { n, c, k, h, r, stride, groups, .. } if groups > 1 => {
            // Depthwise: channels are spatial; reduce over the window.
            assert_eq!((groups, k), (c, c), "only depthwise grouping is modelled");
            Row {
                reads: vec![
                    ("In", vec![n, c, h, h], window(1, stride, 4)),
                    ("W", vec![c, r, r], proj(&[1, 4, 5])),
                ],
                spatial: names("n c p q"),
                reductions: vec![("rr", r), ("rs", r)],
                out: "Out",
                counts: mac,
            }
        }
        Op::Conv2d { n, c, k, h, r, stride, .. } => Row {
            reads: vec![
                ("In", vec![n, c, h, h], window(4, stride, 5)),
                ("W", vec![k, c, r, r], proj(&[1, 4, 5, 6])),
            ],
            spatial: names("n k p q"),
            reductions: vec![("rc", c), ("rr", r), ("rs", r)],
            out: "Out",
            counts: mac,
        },
        Op::Conv3d { n, c, k, d, h, r, stride: s, .. } => Row {
            reads: vec![
                (
                    "In",
                    vec![n, c, d, h, h],
                    map(&[
                        &[(0, 1)],
                        &[(5, 1)],
                        &[(2, s), (6, 1)],
                        &[(3, s), (7, 1)],
                        &[(4, s), (8, 1)],
                    ]),
                ),
                ("W", vec![k, c, r, r, r], proj(&[1, 5, 6, 7, 8])),
            ],
            spatial: names("n k d p q"),
            reductions: vec![("rc", c), ("rd", r), ("rr", r), ("rs", r)],
            out: "Out",
            counts: mac,
        },
        Op::ConvTranspose2d { n, c, k, h, r, stride, .. } => {
            // Modelled over the output space; each output pixel reduces over
            // c × ⌈r/stride⌉² input taps (the fractionally-strided view).
            let taps = ((r + stride - 1) / stride).max(1);
            Row {
                reads: vec![
                    ("In", vec![n, c, h, h], window(4, 1, 5)),
                    ("W", vec![c, k, r, r], proj(&[4, 1, 5, 6])),
                ],
                spatial: names("n k p q"),
                reductions: vec![("rc", c), ("rr", taps), ("rs", taps)],
                out: "Out",
                counts: mac,
            }
        }
        Op::Dense { m, k, n } => Row {
            reads: vec![("A", vec![m, k], proj(&[0, 2])), ("B", vec![n, k], proj(&[1, 2]))],
            spatial: names("i j"),
            reductions: vec![("k", k)],
            out: "Out",
            counts: mac,
        },
        Op::BatchMatmul { b, m, k, n } => Row {
            reads: vec![
                ("A", vec![b, m, k], proj(&[0, 1, 3])),
                ("B", vec![b, k, n], proj(&[0, 3, 2])),
            ],
            spatial: names("b i j"),
            reductions: vec![("k", k)],
            out: "Out",
            counts: mac,
        },
        Op::Softmax { rows, cols } | Op::LayerNorm { rows, cols } => Row {
            reads: vec![("X", vec![rows, cols], identity(2))],
            spatial: names("r c"),
            reductions: vec![],
            out: "Y",
            counts: if matches!(op, Op::Softmax { .. }) {
                // exp + running max/sum + final divide, amortized per element.
                OpCounts { fadd: 2.0, fdiv: 1.0, fspecial: 1.0, fcmp: 1.0, ..OpCounts::default() }
            } else {
                OpCounts { fadd: 3.0, fmul: 2.0, fspecial: 1.0, ..OpCounts::default() }
            },
        },
        Op::MaxPool2d { n, c, h, r, stride, .. } | Op::AvgPool2d { n, c, h, r, stride } => Row {
            reads: vec![("X", vec![n, c, h, h], window(1, stride, 4))],
            spatial: names("n c p q"),
            reductions: vec![("rr", r), ("rs", r)],
            out: "Y",
            counts: if matches!(op, Op::MaxPool2d { .. }) {
                OpCounts { fcmp: 1.0, ..OpCounts::default() }
            } else {
                OpCounts { fadd: 1.0, ..OpCounts::default() }
            },
        },
        Op::GlobalAvgPool { n, c, h } => Row {
            reads: vec![("X", vec![n, c, h, h], identity(4))],
            spatial: names("n c"),
            reductions: vec![("rh", h), ("rw", h)],
            out: "Y",
            counts: OpCounts { fadd: 1.0, ..OpCounts::default() },
        },
        Op::Elementwise { kind, ref shape } => {
            let x = ("X", shape.clone(), identity(shape.len()));
            let x2 = ("X2", shape.clone(), identity(shape.len()));
            Row {
                reads: if kind.arity() == 2 { vec![x, x2] } else { vec![x] },
                spatial: numbered("a", shape.len()),
                reductions: vec![],
                out: "Y",
                counts: ew_counts(kind),
            }
        }
    }
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

fn read(buffer: BufId, dims: IndexMap) -> AccessPattern {
    AccessPattern { buffer, kind: AccessKind::Read, dims }
}

/// The store of an output of rank `rank`: always the [`identity`] map.
fn write(buffer: BufId, rank: usize) -> AccessPattern {
    AccessPattern { buffer, kind: AccessKind::Write, dims: identity(rank) }
}

/// The stage's axes: `spatial` with the extents of `shape`, then the
/// reductions.
fn axes(
    spatial: Vec<String>,
    shape: &[i64],
    reductions: &[(&str, i64)],
) -> Vec<(String, i64, AxisKind)> {
    assert_eq!(spatial.len(), shape.len(), "one spatial axis per output dimension");
    let spatial = spatial.into_iter().zip(shape).map(|(name, &e)| (name, e, AxisKind::Spatial));
    let reductions = reductions.iter().map(|&(name, e)| (name.to_string(), e, AxisKind::Reduction));
    spatial.chain(reductions).collect()
}

fn names(list: &str) -> Vec<String> {
    list.split(' ').map(String::from).collect()
}

/// `prefix0`, `prefix1`, ... for a shape of rank `rank`.
fn numbered(prefix: &str, rank: usize) -> Vec<String> {
    (0..rank).map(|d| format!("{prefix}{d}")).collect()
}

fn map(dims: &[&[(u32, i64)]]) -> IndexMap {
    dims.iter().map(|terms| terms.iter().map(|&(a, s)| (AxisId(a), s)).collect()).collect()
}

/// Buffer dimension `d` is axis `axes[d]`.
fn proj(axes: &[u32]) -> IndexMap {
    axes.iter().map(|&a| vec![(AxisId(a), 1)]).collect()
}

/// Buffer dimension `d` is axis `d`: element-wise operands and every
/// output.
fn identity(rank: usize) -> IndexMap {
    (0..rank as u32).map(|a| vec![(AxisId(a), 1)]).collect()
}

/// An NCHW input read through a sliding window: `[n, c, p·s + rr, q·s +
/// rs]`, with `n`, `p`, `q` the axes 0, 2, 3, channel axis `c` and the
/// window axes `rr`, `rr + 1`.
fn window(c: u32, s: i64, rr: u32) -> IndexMap {
    map(&[&[(0, 1)], &[(c, 1)], &[(2, s), (rr, 1)], &[(3, s), (rr + 1, 1)]])
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
    fn mac_iterations_match_flops() {
        let ops = [
            Op::Conv2d { n: 1, c: 64, k: 128, h: 28, r: 3, stride: 1, pad: 1, groups: 1 },
            Op::Conv2d { n: 2, c: 3, k: 64, h: 224, r: 7, stride: 2, pad: 3, groups: 1 },
            Op::Conv2d { n: 1, c: 32, k: 32, h: 112, r: 3, stride: 2, pad: 1, groups: 32 },
            Op::Conv3d { n: 1, c: 64, k: 128, d: 8, h: 28, r: 3, stride: 2, pad: 1 },
            Op::ConvTranspose2d { n: 1, c: 100, k: 512, h: 1, r: 4, stride: 1, pad: 0 },
            Op::ConvTranspose2d { n: 1, c: 512, k: 256, h: 4, r: 4, stride: 2, pad: 1 },
            Op::Dense { m: 16, k: 2048, n: 1000 },
            Op::BatchMatmul { b: 12, m: 64, k: 32, n: 48 },
        ];
        for op in ops {
            let mut p = lower_subgraph(&Subgraph { ops: vec![op.clone()] });
            let total = p.loop_product(0, &|_, _, _| true);
            // 2 flops per iteration (MAC) must equal op.flops().
            assert_eq!(p.pool.eval(total, &[]) * 2.0, op.flops(), "{op}");
        }
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
