//! The differentiable objectives, pinned. Every task of the six networks at
//! batch 1 and 16 is lowered, cut into sketches at the default hardware
//! limits and given its 82 feature formulas; each sketch then goes through
//! `SketchObjective::build_with` under all four pipelines (smoothing and the
//! `x = e^y` substitution each on and off). The `Debug` text of the rewritten
//! pool's nodes, the feature and penalty roots and the optimization
//! variables, with the tape length and the pathological flag, folds into
//! one FNV-1a hash, as do the bits of `cost_and_grad` at two seeded points
//! against a seeded cost model. The pool's interning order is the tape's
//! instruction order, so a rewrite of the expression crate's constructors,
//! smoothing or substitution that moves any node, or any result bit, fails
//! here.
//!
//! The corpus does not reach every constructor rule (no feature takes a
//! logarithm or an exponential), so a second pin runs every constructor
//! over a grid of operands (variables, the folding constants, `log x`,
//! `exp x`), then smooths and substitutes the result and hashes the pool
//! and its values the same way.

use felix::objective::{PipelineOptions, SketchObjective};
use felix_cost::Mlp;
use felix_expr::subst::substitute;
use felix_expr::{smooth_all, CmpOp, ExprId, ExprPool, VarId};
use felix_features::extract_features;
use felix_graph::lower::lower_subgraph;
use felix_graph::{models, partition};
use felix_tir::sketch::{generate_sketches, HardwareParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

const PINNED: u64 = 0x7bfc_1dd2_f7be_7ff6;
const PINNED_GRID: u64 = 0x862f_6048_c0fd_06f8;

const PIPELINES: [PipelineOptions; 4] = [
    PipelineOptions { smoothing: true, exp_substitution: true },
    PipelineOptions { smoothing: true, exp_substitution: false },
    PipelineOptions { smoothing: false, exp_substitution: true },
    PipelineOptions { smoothing: false, exp_substitution: false },
];

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

/// SplitMix64: a seeded stream for the evaluation points.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The bits of `v`, with every NaN read as one: which NaN payload an
/// operation returns is the hardware's choice, not the program's.
fn bits(v: f64) -> u64 {
    if v.is_nan() { f64::NAN.to_bits() } else { v.to_bits() }
}

#[test]
fn objectives_match_their_pinned_hash() {
    let hw = HardwareParams::default();
    let programs: Vec<_> = [1, 16]
        .into_iter()
        .flat_map(models::all_models)
        .flat_map(|g| partition(&g))
        .map(|t| lower_subgraph(&t.subgraph))
        .collect();
    assert_eq!(programs.len(), 204, "the corpus is part of the pin");
    let model = Mlp::new(&mut StdRng::seed_from_u64(42));
    let mut state = 0x0B1E_C71E;
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut n_sketches = 0;
    for program in &programs {
        for sk in generate_sketches(program, &hw) {
            n_sketches += 1;
            let mut p = sk.program.clone();
            let fs = extract_features(&mut p);
            for pipeline in PIPELINES {
                let obj = SketchObjective::build_with(&p, &fs.exprs, pipeline);
                let text = format!(
                    "{:?}|{:?}|{:?}|{:?}|{}|{}",
                    obj.program.pool.nodes(),
                    obj.log_feat_roots,
                    obj.penalty_roots,
                    obj.y_vars,
                    obj.tape.len(),
                    obj.pathological
                );
                h = fnv1a(h, text.as_bytes());
                for _ in 0..2 {
                    // Uniform in [0, 5): tile sizes 1..e^5 in log space.
                    let y: Vec<f64> = (0..obj.n_vars())
                        .map(|_| 5.0 * (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64)
                        .collect();
                    let (cost, score, grad) = obj.cost_and_grad(&model, 1.0, &y);
                    for v in [cost, score].into_iter().chain(grad) {
                        h = fnv1a(h, &bits(v).to_le_bytes());
                    }
                }
            }
        }
    }
    assert_eq!(n_sketches, 397, "the corpus is part of the pin");
    assert_eq!(h, PINNED, "{n_sketches} sketches hash to {h:#x}");
}

#[test]
fn constructor_grid_matches_its_pinned_hash() {
    let mut p = ExprPool::new();
    let (x, y) = (p.var(VarId(0)), p.var(VarId(1)));
    let mut operands = vec![x, y];
    for c in [0.0, 1.0, 2.0, 0.5, -3.0, f64::INFINITY] {
        operands.push(p.constf(c));
    }
    operands.extend([p.log(x), p.exp(x), p.sqrt(y)]);
    type Un = fn(&mut ExprPool, ExprId) -> ExprId;
    type Bin = fn(&mut ExprPool, ExprId, ExprId) -> ExprId;
    let unary: [Un; 5] = [ExprPool::neg, ExprPool::log, ExprPool::exp, ExprPool::sqrt, ExprPool::abs];
    let binary: [Bin; 7] = [
        ExprPool::add,
        ExprPool::sub,
        ExprPool::mul,
        ExprPool::div,
        ExprPool::pow,
        ExprPool::min,
        ExprPool::max,
    ];
    let mut roots = Vec::new();
    for &a in &operands {
        roots.extend(unary.map(|op| op(&mut p, a)));
        for &b in &operands {
            roots.extend(binary.map(|op| op(&mut p, a, b)));
            for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq] {
                let c = p.cmp(op, a, b);
                roots.push(c);
                roots.push(p.select(c, a, b));
            }
            roots.push(p.select(a, a, b));
        }
    }
    let smoothed = smooth_all(&mut p, &roots);
    let e = p.exp(y);
    let substituted = substitute(&mut p, &smoothed, &|v| (v == VarId(0)).then_some(e));
    let mut h = fnv1a(0xcbf2_9ce4_8422_2325, format!("{:?}", p.nodes()).as_bytes());
    for ids in [&roots, &smoothed, &substituted] {
        h = fnv1a(h, format!("{ids:?}").as_bytes());
    }
    for point in [[0.75, 2.5], [3.0, -0.25], [0.0, 1.0]] {
        for v in p.eval_all(&point) {
            h = fnv1a(h, &bits(v).to_le_bytes());
        }
    }
    assert_eq!(h, PINNED_GRID, "{} nodes hash to {h:#x}", p.len());
}
