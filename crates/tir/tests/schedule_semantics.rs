//! Semantic tests of the schedule-transformation pipeline: applying steps
//! must preserve iteration counts, keep footprints consistent, and mirror
//! the structures in the paper's Fig. 3.

use felix_tir::steps::{apply, Step};
use felix_tir::{
    AccessKind, AccessPattern, AxisId, AxisKind, LoopKind, MemScope, OpCounts, Program,
};

fn conv_like() -> Program {
    // Simplified conv: spatial [k, p], reduction [rc], strided input access.
    let mut p = Program::new();
    let input = p.add_buffer("In", vec![64, 66], 4, MemScope::Global);
    let w = p.add_buffer("W", vec![128, 64], 4, MemScope::Global);
    let out = p.add_buffer("Out", vec![128, 64], 4, MemScope::Global);
    let (ak, ap, arc) = (AxisId(0), AxisId(1), AxisId(2));
    p.add_stage(
        "conv",
        vec![
            ("k".into(), 128, AxisKind::Spatial),
            ("p".into(), 64, AxisKind::Spatial),
            ("rc".into(), 64, AxisKind::Reduction),
        ],
        vec![
            AccessPattern {
                buffer: input,
                kind: AccessKind::Read,
                dims: vec![vec![(arc, 1)], vec![(ap, 1)]],
            },
            AccessPattern {
                buffer: w,
                kind: AccessKind::Read,
                dims: vec![vec![(ak, 1)], vec![(arc, 1)]],
            },
            AccessPattern {
                buffer: out,
                kind: AccessKind::Write,
                dims: vec![vec![(ak, 1)], vec![(ap, 1)]],
            },
        ],
        OpCounts { fadd: 1.0, fmul: 1.0, ..OpCounts::default() },
    );
    p
}

#[test]
fn tiling_then_reorder_preserves_iteration_space() {
    let mut p = conv_like();
    let t1 = p.vars.fresh("T1");
    let t2 = p.vars.fresh("T2");
    let (x1, x2) = (p.pool.var(t1), p.pool.var(t2));
    apply(&mut p, &Step::Tile { stage: 0, axis: AxisId(0), factors: vec![x1] });
    apply(&mut p, &Step::Tile { stage: 0, axis: AxisId(2), factors: vec![x2] });
    // loops: k.0 k.1 p rc.0 rc.1 -> reorder to k.0 p rc.0 k.1 rc.1
    apply(&mut p, &Step::Reorder { stage: 0, order: vec![0, 2, 3, 1, 4] });
    let total = p.loop_product(0, &|_, _, _| true);
    for (a, b) in [(4.0, 8.0), (8.0, 2.0), (128.0, 64.0)] {
        assert_eq!(p.pool.eval(total, &[a, b]), (128 * 64 * 64) as f64);
    }
    // Multipliers survive the reorder: k.1 still has mult 1.
    let k1 = p.stages[0].loops.iter().find(|l| l.name == "k.1").unwrap();
    assert_eq!(p.pool.eval(k1.mult, &[4.0, 8.0]), 1.0);
    let k0 = p.stages[0].loops.iter().find(|l| l.name == "k.0").unwrap();
    assert_eq!(p.pool.eval(k0.mult, &[4.0, 8.0]), 4.0);
}

#[test]
fn footprint_respects_multipliers_after_tiling() {
    let mut p = conv_like();
    let t = p.vars.fresh("T");
    let x = p.pool.var(t);
    apply(&mut p, &Step::Tile { stage: 0, axis: AxisId(2), factors: vec![x] });
    // Footprint of In over only the inner rc.1 level: T elements in dim 0.
    let rc1 = p.stages[0]
        .loops
        .iter()
        .position(|l| l.name == "rc.1")
        .unwrap();
    let fp = p.footprint_elems(0, 0, &|pos, _| pos == rc1);
    // In[rc, p]: dim0 span = T, dim1 span = 1 (p not in scope).
    assert_eq!(p.pool.eval(fp, &[8.0]), 8.0);
    // Over rc.0 only: (64/T - 1) * T + 1 elements of dim 0.
    let rc0 = p.stages[0]
        .loops
        .iter()
        .position(|l| l.name == "rc.0")
        .unwrap();
    let fp = p.footprint_elems(0, 0, &|pos, _| pos == rc0);
    assert_eq!(p.pool.eval(fp, &[8.0]), ((64.0 / 8.0 - 1.0) * 8.0 + 1.0));
}

#[test]
fn binds_are_reflected_in_extent_products() {
    let mut p = conv_like();
    let t = p.vars.fresh("T");
    let x = p.pool.var(t);
    apply(&mut p, &Step::Tile { stage: 0, axis: AxisId(1), factors: vec![x] });
    // loops: k p.0 p.1 rc
    apply(&mut p, &Step::Bind { stage: 0, pos: 0, kind: LoopKind::BlockIdx });
    apply(&mut p, &Step::Bind { stage: 0, pos: 1, kind: LoopKind::BlockIdx });
    apply(&mut p, &Step::Bind { stage: 0, pos: 2, kind: LoopKind::ThreadIdx });
    let blocks = p.loop_product(0, &|_, l, _| l.kind == LoopKind::BlockIdx);
    let threads = p.loop_product(0, &|_, l, _| l.kind == LoopKind::ThreadIdx);
    assert_eq!(p.pool.eval(blocks, &[16.0]), 128.0 * (64.0 / 16.0));
    assert_eq!(p.pool.eval(threads, &[16.0]), 16.0);
}

#[test]
fn unroll_pragma_is_per_stage() {
    let mut p = conv_like();
    let u = p.vars.fresh("U");
    let ue = p.pool.var(u);
    apply(&mut p, &Step::UnrollPragma { stage: 0, max_step: ue });
    assert_eq!(p.stages[0].unroll_max_step, Some(ue));
}

#[test]
#[should_panic(expected = "exactly one loop")]
fn tiling_twice_panics() {
    let mut p = conv_like();
    let t1 = p.vars.fresh("T1");
    let x1 = p.pool.var(t1);
    apply(&mut p, &Step::Tile { stage: 0, axis: AxisId(0), factors: vec![x1] });
    // The axis now has two loops; tiling again must fail loudly.
    apply(&mut p, &Step::Tile { stage: 0, axis: AxisId(0), factors: vec![x1] });
}

#[test]
fn cache_read_constraint_tracks_shared_usage() {
    // The multi-level-tiling sketch's shared-memory constraint grows with
    // the staged tiles, so oversized tiles must violate it.
    use felix_graph::lower::lower_subgraph;
    use felix_graph::{Op, Subgraph};
    use felix_tir::sketch::{multi_level_tiling_sketch, round_to_valid, HardwareParams};
    let sg = Subgraph { ops: vec![Op::Dense { m: 4096, k: 4096, n: 4096 }] };
    let p0 = lower_subgraph(&sg);
    let sk = multi_level_tiling_sketch(&p0, &HardwareParams::default());
    let p = sk.program;
    // Tiles of 2x16x16 per axis with k-tile 64: shared tile =
    // (512*64 + 64*512)*4 bytes = 256 KiB >> 48 KiB.
    let huge = round_to_valid(&p, &[2.0, 16.0, 16.0, 2.0, 16.0, 16.0, 64.0, 64.0]);
    assert!(!p.constraints_ok(&huge, 0.0));
    assert!(p
        .violated_constraints(&huge, 0.0)
        .iter()
        .any(|d| d.contains("shared memory")));
}

#[test]
fn pretty_printing_marks_compute_at() {
    use felix_graph::lower::lower_subgraph;
    use felix_graph::{EwKind, Op, Subgraph};
    use felix_tir::sketch::{multi_level_tiling_sketch, HardwareParams};
    let sg = Subgraph {
        ops: vec![
            Op::Dense { m: 256, k: 256, n: 256 },
            Op::Elementwise { kind: EwKind::Relu, shape: vec![256, 256] },
        ],
    };
    let p0 = lower_subgraph(&sg);
    let sk = multi_level_tiling_sketch(&p0, &HardwareParams::default());
    let txt = sk.program.pretty(None);
    assert!(txt.contains("compute_at"), "{txt}");
    assert!(txt.contains(".shared.load"), "{txt}");
}

#[test]
fn verify_survives_byte_patched_nan_assignment() {
    // Regression: `verify` sorted loops by multiplier with
    // `partial_cmp(..).expect("finite mult")`, so one NaN schedule value —
    // e.g. from a diverged descent step rounded straight into a verifier
    // call — aborted the process instead of reporting errors. The sort now
    // uses a NaN-last total order and the coverage/multiplier tolerance
    // checks are written NaN-failing, so a poisoned assignment comes back
    // as verification errors.
    use felix_tir::verify;
    let mut p = conv_like();
    let t = p.vars.fresh("T");
    let x = p.pool.var(t);
    apply(&mut p, &Step::Tile { stage: 0, axis: AxisId(0), factors: vec![x] });
    // A valid assignment passes.
    assert!(verify(&p, &[8.0]).is_ok());
    // Byte-patch a quiet NaN with a nonzero payload (not the `0.0 / 0.0`
    // canonical one) so the comparator sees an arbitrary NaN bit pattern.
    let patched = f64::from_bits(0x7FF8_0000_0000_1234);
    assert!(patched.is_nan());
    let errs = verify(&p, &[patched]).expect_err("NaN assignment must fail, not abort");
    assert!(
        errs.iter().any(|e| e.message.contains("cover")),
        "expected a coverage error, got: {errs:?}"
    );
}
