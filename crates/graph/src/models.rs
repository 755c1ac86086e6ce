//! The model zoo: builders for the six evaluation networks of the paper
//! (§5): ResNet-50, MobileNet-v2, R3D-18, DCGAN, ViT-B/32, and LLaMA.
//!
//! Each builder returns a [`Graph`] of operator nodes with realistic layer
//! shapes; the `batch` parameter scales the leading dimension as in §6.4.
//! Two modelling simplifications (documented in DESIGN.md): the R3D-18 stem
//! uses a cubic 3³ kernel with uniform stride, and LLaMA's rotary embedding
//! is folded into the element-wise epilogues.

use crate::{EwKind, Graph, NodeId, Op};

fn ew(g: &mut Graph, kind: EwKind, shape: Vec<i64>, inputs: Vec<NodeId>) -> NodeId {
    g.push(Op::Elementwise { kind, shape }, inputs)
}

/// `conv` (an `Op::Conv2d`), batch norm and an optional activation; returns
/// the last node and the output height.
fn conv_bn_act(
    g: &mut Graph,
    input: Option<NodeId>,
    conv: Op,
    act: Option<EwKind>,
) -> (NodeId, i64) {
    let out_shape = conv.out_shape();
    let oh = out_shape[2];
    let id = g.push(conv, input.into_iter().collect());
    let bn = ew(g, EwKind::BatchNorm, out_shape.clone(), vec![id]);
    let last = match act {
        Some(a) => ew(g, a, out_shape, vec![bn]),
        None => bn,
    };
    (last, oh)
}

/// ResNet-50 for ImageNet at 256×256 input (the paper's Fig. 5 shape).
pub fn resnet50(batch: i64) -> Graph {
    let mut g = Graph::new(format!("resnet50-b{batch}"));
    let n = batch;
    // Stem: 7x7/2 conv, BN, ReLU, 3x3/2 max-pool.
    let conv = Op::Conv2d { n, c: 3, k: 64, h: 256, r: 7, stride: 2, pad: 3, groups: 1 };
    let (stem, h) = conv_bn_act(&mut g, None, conv, Some(EwKind::Relu));
    let pool = g.push(Op::MaxPool2d { n, c: 64, h, r: 3, stride: 2, pad: 1 }, vec![stem]);
    let mut h = (h + 2 - 3) / 2 + 1;
    let mut prev = pool;
    let mut in_ch = 64i64;
    let stages: [(i64, i64, usize); 4] =
        [(64, 256, 3), (128, 512, 4), (256, 1024, 6), (512, 2048, 3)];
    for (si, (mid, out, blocks)) in stages.iter().enumerate() {
        for b in 0..*blocks {
            let stride = if si > 0 && b == 0 { 2 } else { 1 };
            // Bottleneck: 1x1 -> 3x3(stride) -> 1x1, with projection shortcut.
            let conv = Op::Conv2d { n, c: in_ch, k: *mid, h, r: 1, stride: 1, pad: 0, groups: 1 };
            let (c1, _) = conv_bn_act(&mut g, Some(prev), conv, Some(EwKind::Relu));
            let conv = Op::Conv2d { n, c: *mid, k: *mid, h, r: 3, stride, pad: 1, groups: 1 };
            let (c2, oh) = conv_bn_act(&mut g, Some(c1), conv, Some(EwKind::Relu));
            let conv =
                Op::Conv2d { n, c: *mid, k: *out, h: oh, r: 1, stride: 1, pad: 0, groups: 1 };
            let (c3, _) = conv_bn_act(&mut g, Some(c2), conv, None);
            let shortcut = if in_ch != *out || stride != 1 {
                let conv = Op::Conv2d { n, c: in_ch, k: *out, h, r: 1, stride, pad: 0, groups: 1 };
                let (sc, _) = conv_bn_act(&mut g, Some(prev), conv, None);
                sc
            } else {
                prev
            };
            let add = ew(&mut g, EwKind::Add, vec![n, *out, oh, oh], vec![c3, shortcut]);
            prev = ew(&mut g, EwKind::Relu, vec![n, *out, oh, oh], vec![add]);
            h = oh;
            in_ch = *out;
        }
    }
    let gap = g.push(Op::GlobalAvgPool { n, c: 2048, h }, vec![prev]);
    let fc = g.push(Op::Dense { m: n, k: 2048, n: 1000 }, vec![gap]);
    ew(&mut g, EwKind::BiasAdd, vec![n, 1000], vec![fc]);
    g
}

/// MobileNet-v2 for ImageNet at 224×224 input.
pub fn mobilenet_v2(batch: i64) -> Graph {
    let mut g = Graph::new(format!("mobilenet_v2-b{batch}"));
    let n = batch;
    let conv = Op::Conv2d { n, c: 3, k: 32, h: 224, r: 3, stride: 2, pad: 1, groups: 1 };
    let (stem, mut h) = conv_bn_act(&mut g, None, conv, Some(EwKind::Relu6));
    let mut prev = stem;
    let mut in_ch = 32i64;
    // (expansion t, output channels c, repeats n, first stride s)
    let cfgs: [(i64, i64, usize, i64); 7] = [
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ];
    for (t, c_out, reps, first_stride) in cfgs {
        for rep in 0..reps {
            let stride = if rep == 0 { first_stride } else { 1 };
            let exp_ch = in_ch * t;
            let mut x = prev;
            let mut hh = h;
            if t != 1 {
                let conv =
                    Op::Conv2d { n, c: in_ch, k: exp_ch, h, r: 1, stride: 1, pad: 0, groups: 1 };
                let (e, oh) = conv_bn_act(&mut g, Some(prev), conv, Some(EwKind::Relu6));
                x = e;
                hh = oh;
            }
            let conv =
                Op::Conv2d { n, c: exp_ch, k: exp_ch, h: hh, r: 3, stride, pad: 1, groups: exp_ch };
            let (dw, oh) = conv_bn_act(&mut g, Some(x), conv, Some(EwKind::Relu6));
            let conv =
                Op::Conv2d { n, c: exp_ch, k: c_out, h: oh, r: 1, stride: 1, pad: 0, groups: 1 };
            let (proj, oh2) = conv_bn_act(&mut g, Some(dw), conv, None);
            prev = if stride == 1 && in_ch == c_out {
                ew(&mut g, EwKind::Add, vec![n, c_out, oh2, oh2], vec![proj, prev])
            } else {
                proj
            };
            h = oh2;
            in_ch = c_out;
        }
    }
    let conv = Op::Conv2d { n, c: 320, k: 1280, h, r: 1, stride: 1, pad: 0, groups: 1 };
    let (head, h) = conv_bn_act(&mut g, Some(prev), conv, Some(EwKind::Relu6));
    let gap = g.push(Op::GlobalAvgPool { n, c: 1280, h }, vec![head]);
    let fc = g.push(Op::Dense { m: n, k: 1280, n: 1000 }, vec![gap]);
    ew(&mut g, EwKind::BiasAdd, vec![n, 1000], vec![fc]);
    g
}

/// R3D-18 (3-D ResNet) for action recognition on 16×112×112 clips.
pub fn r3d18(batch: i64) -> Graph {
    let mut g = Graph::new(format!("r3d18-b{batch}"));
    let n = batch;
    let conv3 = |g: &mut Graph, input: Option<NodeId>, c: i64, k: i64, d: i64, h: i64, stride: i64, act: bool| {
        let op = Op::Conv3d { n, c, k, d, h, r: 3, stride, pad: 1 };
        let shape = op.out_shape();
        let id = g.push(op, input.into_iter().collect());
        let bn = ew(g, EwKind::BatchNorm, shape.clone(), vec![id]);
        let last = if act { ew(g, EwKind::Relu, shape.clone(), vec![bn]) } else { bn };
        (last, shape[2], shape[3])
    };
    // Stem (modelled as a cubic 3^3 conv with spatial stride 2).
    let (stem, mut d, mut h) = conv3(&mut g, None, 3, 64, 16, 112, 2, true);
    let mut prev = stem;
    let mut in_ch = 64i64;
    for (li, ch) in [64i64, 128, 256, 512].iter().enumerate() {
        for b in 0..2usize {
            let stride = if li > 0 && b == 0 { 2 } else { 1 };
            let (c1, d1, h1) = conv3(&mut g, Some(prev), in_ch, *ch, d, h, stride, true);
            let (c2, d2, h2) = conv3(&mut g, Some(c1), *ch, *ch, d1, h1, 1, false);
            let shortcut = if in_ch != *ch || stride != 1 {
                let op = Op::Conv3d { n, c: in_ch, k: *ch, d, h, r: 1, stride, pad: 0 };
                let shape = op.out_shape();
                let sc = g.push(op, vec![prev]);
                ew(&mut g, EwKind::BatchNorm, shape, vec![sc])
            } else {
                prev
            };
            let add = ew(&mut g, EwKind::Add, vec![n, *ch, d2, h2, h2], vec![c2, shortcut]);
            prev = ew(&mut g, EwKind::Relu, vec![n, *ch, d2, h2, h2], vec![add]);
            d = d2;
            h = h2;
            in_ch = *ch;
        }
    }
    // Global average pool over (d, h, w) then classifier, modelled as a
    // global pool over the flattened spatial volume.
    let gap = g.push(Op::GlobalAvgPool { n, c: 512, h: (d * h * h).max(1).min(h * h) }, vec![prev]);
    let fc = g.push(Op::Dense { m: n, k: 512, n: 400 }, vec![gap]);
    ew(&mut g, EwKind::BiasAdd, vec![n, 400], vec![fc]);
    g
}

/// DCGAN generator: 100-d latent → 64×64 RGB image.
pub fn dcgan(batch: i64) -> Graph {
    let mut g = Graph::new(format!("dcgan-b{batch}"));
    let n = batch;
    let tconv = |g: &mut Graph, input: Option<NodeId>, c: i64, k: i64, h: i64, r: i64, stride: i64, pad: i64, act: Option<EwKind>| {
        let op = Op::ConvTranspose2d { n, c, k, h, r, stride, pad };
        let shape = op.out_shape();
        let oh = shape[2];
        let id = g.push(op, input.into_iter().collect());
        let out = match act {
            Some(EwKind::Tanh) => ew(g, EwKind::Tanh, shape, vec![id]),
            Some(a) => {
                let bn = ew(g, EwKind::BatchNorm, shape.clone(), vec![id]);
                ew(g, a, shape, vec![bn])
            }
            None => id,
        };
        (out, oh)
    };
    let (t1, h) = tconv(&mut g, None, 100, 512, 1, 4, 1, 0, Some(EwKind::Relu));
    let (t2, h) = tconv(&mut g, Some(t1), 512, 256, h, 4, 2, 1, Some(EwKind::Relu));
    let (t3, h) = tconv(&mut g, Some(t2), 256, 128, h, 4, 2, 1, Some(EwKind::Relu));
    let (t4, h) = tconv(&mut g, Some(t3), 128, 64, h, 4, 2, 1, Some(EwKind::Relu));
    let (_t5, _h) = tconv(&mut g, Some(t4), 64, 3, h, 4, 2, 1, Some(EwKind::Tanh));
    g
}

/// Which network a transformer block belongs to: ViT's MLP is one GELU
/// layer, LLaMA's a SiLU-gated pair of projections.
#[derive(Clone, Copy, PartialEq, Eq)]
enum BlockKind {
    Vit,
    Llama,
}

/// The shape of a network's transformer blocks: `batch` sequences of `seq`
/// tokens, `hidden` wide, over `heads` attention heads and an `ffn`-wide
/// MLP.
struct Transformer {
    kind: BlockKind,
    batch: i64,
    seq: i64,
    hidden: i64,
    heads: i64,
    ffn: i64,
}

impl Transformer {
    /// One encoder/decoder block after `prev`.
    fn block(&self, g: &mut Graph, prev: NodeId) -> NodeId {
        let Transformer { kind, batch, seq, hidden, heads, ffn } = *self;
        let m = batch * seq;
        let head_dim = hidden / heads;
        let b = batch * heads;
        let ln1 = g.push(Op::LayerNorm { rows: m, cols: hidden }, vec![prev]);
        let qkv = g.push(Op::Dense { m, k: hidden, n: 3 * hidden }, vec![ln1]);
        let scores = g.push(Op::BatchMatmul { b, m: seq, k: head_dim, n: seq }, vec![qkv]);
        let sm = g.push(Op::Softmax { rows: b * seq, cols: seq }, vec![scores]);
        let ctx = g.push(Op::BatchMatmul { b, m: seq, k: seq, n: head_dim }, vec![sm, qkv]);
        let proj = g.push(Op::Dense { m, k: hidden, n: hidden }, vec![ctx]);
        let add1 = ew(g, EwKind::Add, vec![m, hidden], vec![proj, prev]);
        let ln2 = g.push(Op::LayerNorm { rows: m, cols: hidden }, vec![add1]);
        let mlp_out = match kind {
            BlockKind::Llama => {
                // Gate & up projections, SiLU gate, elementwise product, down.
                let gate = g.push(Op::Dense { m, k: hidden, n: ffn }, vec![ln2]);
                let up = g.push(Op::Dense { m, k: hidden, n: ffn }, vec![ln2]);
                let silu = ew(g, EwKind::Silu, vec![m, ffn], vec![gate]);
                let prod = ew(g, EwKind::Mul, vec![m, ffn], vec![silu, up]);
                g.push(Op::Dense { m, k: ffn, n: hidden }, vec![prod])
            }
            BlockKind::Vit => {
                let fc1 = g.push(Op::Dense { m, k: hidden, n: ffn }, vec![ln2]);
                let a = ew(g, EwKind::Gelu, vec![m, ffn], vec![fc1]);
                g.push(Op::Dense { m, k: ffn, n: hidden }, vec![a])
            }
        };
        ew(g, EwKind::Add, vec![m, hidden], vec![mlp_out, add1])
    }
}

/// ViT-B/32 for ImageNet at 224×224 input (49 patches + class token ≈ 50).
pub fn vit_b32(batch: i64) -> Graph {
    let mut g = Graph::new(format!("vit_b32-b{batch}"));
    let n = batch;
    let (hidden, heads, ffn, layers, seq) = (768i64, 12i64, 3072i64, 12usize, 50i64);
    // Patch embedding: 32x32/32 conv.
    let patch = g.push(
        Op::Conv2d { n, c: 3, k: hidden, h: 224, r: 32, stride: 32, pad: 0, groups: 1 },
        vec![],
    );
    let blocks = Transformer { kind: BlockKind::Vit, batch: n, seq, hidden, heads, ffn };
    let mut prev = patch;
    for _ in 0..layers {
        prev = blocks.block(&mut g, prev);
    }
    let ln = g.push(Op::LayerNorm { rows: n * seq, cols: hidden }, vec![prev]);
    let fc = g.push(Op::Dense { m: n, k: hidden, n: 1000 }, vec![ln]);
    ew(&mut g, EwKind::BiasAdd, vec![n, 1000], vec![fc]);
    g
}

/// LLaMA-7B prefill over a 100-token prompt (the paper's setting).
pub fn llama(batch: i64) -> Graph {
    llama_with_config(batch, 100, 4096, 32, 11008, 32)
}

/// LLaMA with an explicit configuration (for scaled-down testing).
pub fn llama_with_config(
    batch: i64,
    seq: i64,
    hidden: i64,
    heads: i64,
    ffn: i64,
    layers: usize,
) -> Graph {
    let mut g = Graph::new(format!("llama-b{batch}"));
    // Token embedding lookup is memory-bound gather; modelled element-wise.
    let embed = ew(&mut g, EwKind::Add, vec![batch * seq, hidden], vec![]);
    let blocks = Transformer { kind: BlockKind::Llama, batch, seq, hidden, heads, ffn };
    let mut prev = embed;
    for _ in 0..layers {
        prev = blocks.block(&mut g, prev);
    }
    let ln = g.push(Op::LayerNorm { rows: batch * seq, cols: hidden }, vec![prev]);
    let _lm_head = g.push(Op::Dense { m: batch * seq, k: hidden, n: 32000 }, vec![ln]);
    g
}

/// All six evaluation networks at a batch size.
pub fn all_models(batch: i64) -> Vec<Graph> {
    vec![
        resnet50(batch),
        mobilenet_v2(batch),
        r3d18(batch),
        dcgan(batch),
        vit_b32(batch),
        llama(batch),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition;

    #[test]
    fn resnet50_flops_in_expected_range() {
        // ResNet-50 at 224 is ~4.1 GMACs = 8.2 GFLOPs/image; at 256 input
        // roughly (64/56)^2 larger ≈ 10.7 GFLOPs. Accept a generous band.
        let g = resnet50(1);
        let gf = g.total_flops() / 1e9;
        assert!((8.0..14.0).contains(&gf), "resnet50 flops {gf} GF");
    }

    #[test]
    fn mobilenet_is_much_cheaper_than_resnet() {
        let r = resnet50(1).total_flops();
        let m = mobilenet_v2(1).total_flops();
        assert!(m * 5.0 < r, "mobilenet {m} vs resnet {r}");
    }

    #[test]
    fn r3d18_dominated_by_conv3d() {
        let g = r3d18(1);
        let conv3d: f64 = g
            .nodes
            .iter()
            .filter(|n| matches!(n.op, Op::Conv3d { .. }))
            .map(|n| n.op.flops())
            .sum();
        assert!(conv3d / g.total_flops() > 0.99, "paper: >99% of R3D-18 is conv3d");
    }

    #[test]
    fn dcgan_structure() {
        let g = dcgan(1);
        let tconvs = g
            .nodes
            .iter()
            .filter(|n| matches!(n.op, Op::ConvTranspose2d { .. }))
            .count();
        assert_eq!(tconvs, 5);
        // Final output is 3x64x64.
        let last_tconv = g
            .nodes
            .iter()
            .rev()
            .find(|n| matches!(n.op, Op::ConvTranspose2d { .. }))
            .unwrap();
        assert_eq!(last_tconv.op.out_shape(), vec![1, 3, 64, 64]);
    }

    #[test]
    fn vit_has_attention_ops() {
        let g = vit_b32(1);
        assert!(g.nodes.iter().any(|n| matches!(n.op, Op::BatchMatmul { .. })));
        assert!(g.nodes.iter().any(|n| matches!(n.op, Op::Softmax { .. })));
        let gf = g.total_flops() / 1e9;
        // ViT-B/32 ≈ 4.4 GMACs = 8.8 GFLOPs.
        assert!((7.0..11.0).contains(&gf), "vit flops {gf} GF");
    }

    #[test]
    fn llama_prefill_flops() {
        // ~2 * 6.7e9 params * 100 tokens ≈ 1.3 TFLOPs.
        let g = llama(1);
        let tf = g.total_flops() / 1e12;
        assert!((0.8..2.5).contains(&tf), "llama flops {tf} TF");
    }

    #[test]
    fn networks_dedupe_into_reasonable_task_counts() {
        for g in all_models(1) {
            let tasks = partition(&g);
            let n = tasks.len();
            assert!(
                (4..=64).contains(&n),
                "{}: {} tasks (nodes {})",
                g.name,
                n,
                g.nodes.len()
            );
            let total_weight: usize = tasks.iter().map(|t| t.weight).sum();
            assert!(total_weight >= g.nodes.iter().filter(|x| x.op.is_anchor()).count());
        }
    }

    #[test]
    fn batch_scales_flops_linearly() {
        let f1 = resnet50(1).total_flops();
        let f16 = resnet50(16).total_flops();
        let ratio = f16 / f1;
        assert!((15.0..17.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn llama_scaled_config_builds() {
        let g = llama_with_config(1, 100, 512, 8, 1376, 4);
        assert!(g.total_flops() > 0.0);
        let tasks = partition(&g);
        assert!(tasks.len() >= 5);
    }
}
