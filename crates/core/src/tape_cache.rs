//! The shared objective memo: compiled sketch objectives (gradient tapes)
//! shared across proposers.
//!
//! Building a [`SketchObjective`] is the expensive, once-per-sketch part of
//! attaching the gradient proposer to a task: smoothing, exponential
//! substitution and the tape compile together cost orders of magnitude
//! more than a descent step. Each
//! [`GradientProposer`](crate::GradientProposer) memoizes its objectives per
//! `workload_key`; on a memo miss it consults this map, so proposers holding
//! the same `Arc<TapeCache>` build each distinct objective once between
//! them.
//!
//! The key is an exact fingerprint (FNV-1a over the sketch program's pool
//! nodes with full constant bits, variables, buffers, stages, constraints,
//! schedule-variable metadata, the feature roots, and the pipeline
//! options). Constants carry the loop extents, so two structurally
//! identical sketches at different sizes get different fingerprints and
//! never share a tape. Objective builds are deterministic functions of
//! exactly the fingerprinted inputs, so serving a cached `Arc` is
//! bit-identical to rebuilding — the cache can never change a search
//! result, only skip redundant compiles (asserted by `tests/tape_cache.rs`).
//! The map lives and dies with one process, whose sketch generator cannot
//! change under it, so entries carry no version stamp.

use crate::objective::{PipelineOptions, SketchObjective};
use felix_expr::{ENode, ExprId};
use felix_records::{fnv1a, FNV_OFFSET};
use felix_tir::Program;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A running [`fnv1a`] hash, the repo-wide fingerprint (as in
/// [`felix_records::task_key`] and [`crate::cache::structure_hash`]).
struct Fnv(u64);

impl Fnv {
    fn mix(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes);
    }
    fn u64(&mut self, v: u64) {
        self.mix(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.mix(&v.to_le_bytes());
    }
}

/// Exact fingerprint of everything [`SketchObjective::build_with`] reads:
/// the sketch program (pool nodes with full constant bits, variable names,
/// buffers, stages, constraints, schedule-variable metadata), the feature
/// roots, and the pipeline options. Two calls with equal fingerprints build
/// bit-identical objectives.
fn objective_fingerprint(
    program: &Program,
    features: &[ExprId],
    pipeline: PipelineOptions,
) -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    // Pool nodes, in topological (construction) order. Encoded manually:
    // the pool's Debug form includes its hash-cons memo, whose iteration
    // order is nondeterministic.
    h.u64(program.pool.len() as u64);
    for node in program.pool.nodes() {
        match *node {
            ENode::Const(bits) => {
                h.mix(b"C");
                h.u64(bits);
            }
            ENode::Var(v) => {
                h.mix(b"V");
                h.u32(v.index() as u32);
            }
            ENode::Un(op, a) => {
                h.mix(b"U");
                h.mix(&[op as u8]);
                h.u32(a.index() as u32);
            }
            ENode::Bin(op, a, b) => {
                h.mix(b"B");
                h.mix(&[op as u8]);
                h.u32(a.index() as u32);
                h.u32(b.index() as u32);
            }
            ENode::Cmp(op, a, b) => {
                h.mix(b"P");
                h.mix(&[op as u8]);
                h.u32(a.index() as u32);
                h.u32(b.index() as u32);
            }
            ENode::Select(c, t, e) => {
                h.mix(b"S");
                h.u32(c.index() as u32);
                h.u32(t.index() as u32);
                h.u32(e.index() as u32);
            }
        }
    }
    h.u64(program.vars.len() as u64);
    for (_, name) in program.vars.iter() {
        h.mix(name.as_bytes());
        h.mix(b"\x00");
    }
    // The remaining program fields are plain Vec-of-struct data with
    // deterministic Debug renderings (no hash maps anywhere below), so the
    // derived format is an adequate canonical encoding.
    h.mix(format!("{:?}", program.buffers).as_bytes());
    h.mix(format!("{:?}", program.stages).as_bytes());
    h.mix(format!("{:?}", program.constraints).as_bytes());
    h.mix(format!("{:?}", program.sched_vars).as_bytes());
    h.u64(features.len() as u64);
    for f in features {
        h.u32(f.index() as u32);
    }
    h.mix(&[u8::from(pipeline.smoothing), u8::from(pipeline.exp_substitution)]);
    h.0
}

/// A thread-safe map from objective fingerprint to compiled objective,
/// shared across proposers via
/// [`crate::Optimizer::with_shared_tape_cache`] /
/// [`crate::GradientProposer::with_shared_tape_cache`].
#[derive(Default)]
pub struct TapeCache {
    map: Mutex<HashMap<u64, Arc<SketchObjective>>>,
}

impl TapeCache {
    /// An empty cache.
    pub fn new() -> TapeCache {
        TapeCache::default()
    }

    /// The objective for `(program, features, pipeline)` and whether it was
    /// served from the map. A miss builds outside the lock (sketches build
    /// in parallel) and publishes the result; when two builders race on one
    /// fingerprint the first insert wins — both are bit-identical builds,
    /// so which `Arc` survives is immaterial.
    pub(crate) fn objective(
        &self,
        program: &Program,
        features: &[ExprId],
        pipeline: PipelineOptions,
    ) -> (Arc<SketchObjective>, bool) {
        let fingerprint = objective_fingerprint(program, features, pipeline);
        if let Some(obj) = self.map.lock().expect("tape cache").get(&fingerprint) {
            return (obj.clone(), true);
        }
        let built = Arc::new(SketchObjective::build_with(program, features, pipeline));
        let mut map = self.map.lock().expect("tape cache");
        (map.entry(fingerprint).or_insert(built).clone(), false)
    }

    /// Objectives currently cached.
    pub fn entries(&self) -> usize {
        self.map.lock().expect("tape cache").len()
    }
}
