//! A loop-nest tensor IR with symbolic extents — the substrate playing the
//! role TVM's TIR plays for the original Felix.
//!
//! A [`Program`] is a list of [`Stage`]s (one per tensor computation, e.g.
//! the matmul stage and the bias-add stage of a Dense-Add subgraph). Each
//! stage carries:
//!
//! - its original iteration [`Axis`] list (spatial + reduction),
//! - a current loop nest ([`Loop`]s, outer→inner) whose extents are
//!   *expressions* over schedule variables,
//! - buffer [`AccessPattern`]s (which axes index which buffer dimension with
//!   what stride) from which tile footprints are derived symbolically,
//! - per-innermost-iteration operation counts ([`OpCounts`]).
//!
//! Schedule transformations live in [`steps`], Ansor-style sketch generation
//! in [`sketch`], and a Fig.-3-style pretty printer in [`pretty`].

pub mod pretty;
pub mod sketch;
pub mod steps;
pub mod verify;

pub use sketch::{generate_sketches, HardwareParams, SchedVarInfo, SchedVarKind};
pub use steps::Step;
pub use verify::{verify, VerifyError};

use felix_expr::{ExprId, ExprPool, VarTable};

/// Identifier of an original iteration axis within a stage.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AxisId(pub u32);

/// Identifier of a buffer within a [`Program`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BufId(pub u32);

/// Whether an axis is spatial (parallelizable) or a reduction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AxisKind {
    /// Output-space axis; iterations are independent.
    Spatial,
    /// Reduction axis; iterations accumulate.
    Reduction,
}

/// One original iteration axis of a stage.
#[derive(Clone, Debug)]
pub struct Axis {
    /// Stable id referenced by loops and access patterns.
    pub id: AxisId,
    /// Human-readable name (`i`, `k`, `rc`, ...).
    pub name: String,
    /// Concrete extent (problem sizes are known at schedule time).
    pub extent: i64,
    /// Spatial or reduction.
    pub kind: AxisKind,
}

/// Memory scope of a buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemScope {
    /// Device global memory.
    Global,
    /// Per-block shared memory (from `cache_read`).
    Shared,
    /// Per-thread registers/local memory.
    Local,
}

/// A tensor buffer.
#[derive(Clone, Debug)]
pub struct Buffer {
    /// Stable id referenced by access patterns.
    pub id: BufId,
    /// Name for printing.
    pub name: String,
    /// Bytes per element (4 for f32).
    pub dtype_bytes: u32,
    /// Concrete dimension sizes.
    pub dims: Vec<i64>,
    /// Memory scope.
    pub scope: MemScope,
}

impl Buffer {
    /// Total elements in the buffer.
    pub fn elems(&self) -> i64 {
        self.dims.iter().product()
    }

    /// Total bytes of the buffer.
    pub fn bytes(&self) -> i64 {
        self.elems() * self.dtype_bytes as i64
    }
}

/// Read or write.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// Load.
    Read,
    /// Store.
    Write,
}

/// How a stage indexes a buffer: for each buffer dimension, the list of
/// `(axis, stride)` terms whose linear combination forms the index.
///
/// Example: `A[i, k]` in a matmul is
/// `dims = [[(i, 1)], [(k, 1)]]`; a conv input `In[n, c, h*s + r]` gives a
/// last dimension `[(h, s), (r, 1)]`.
#[derive(Clone, Debug)]
pub struct AccessPattern {
    /// The accessed buffer.
    pub buffer: BufId,
    /// Read or write.
    pub kind: AccessKind,
    /// Per-dimension `(axis, stride)` contributions.
    pub dims: Vec<Vec<(AxisId, i64)>>,
}

/// Operation counts per innermost iteration of a stage.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpCounts {
    /// Floating-point additions (includes the add of a MAC).
    pub fadd: f64,
    /// Floating-point multiplications.
    pub fmul: f64,
    /// Floating-point divisions.
    pub fdiv: f64,
    /// Transcendental / special function calls (exp, tanh, rsqrt, ...).
    pub fspecial: f64,
    /// Floating-point comparisons (max-pool, ReLU, ...).
    pub fcmp: f64,
    /// Integer ALU operations (address arithmetic not counted here).
    pub iops: f64,
}

impl OpCounts {
    /// Total floating-point operations per iteration.
    pub fn flops(&self) -> f64 {
        self.fadd + self.fmul + self.fdiv + self.fspecial + self.fcmp
    }

    /// Component-wise sum.
    pub fn merge(&self, o: &OpCounts) -> OpCounts {
        OpCounts {
            fadd: self.fadd + o.fadd,
            fmul: self.fmul + o.fmul,
            fdiv: self.fdiv + o.fdiv,
            fspecial: self.fspecial + o.fspecial,
            fcmp: self.fcmp + o.fcmp,
            iops: self.iops + o.iops,
        }
    }
}

/// The execution binding / annotation of a loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LoopKind {
    /// Plain sequential loop.
    Serial,
    /// Unrolled loop.
    Unroll,
    /// Vectorized loop.
    Vectorize,
    /// CPU-style parallel loop (used by host-side stages).
    Parallel,
    /// Bound to CUDA `blockIdx`. Multiple block loops multiply into the grid.
    BlockIdx,
    /// Bound to CUDA `threadIdx`. Multiple thread loops multiply into the block.
    ThreadIdx,
    /// TVM virtual thread (striding thread) loop.
    VThread,
}

impl LoopKind {
    /// True for the GPU-bound kinds (not actually iterated serially).
    pub fn is_gpu_binding(self) -> bool {
        matches!(self, LoopKind::BlockIdx | LoopKind::ThreadIdx | LoopKind::VThread)
    }
}

/// One loop of a stage's current nest.
#[derive(Clone, Debug)]
pub struct Loop {
    /// The original axis this loop iterates a chunk of.
    pub axis: AxisId,
    /// Symbolic trip count.
    pub extent: ExprId,
    /// Symbolic stride of this loop on its axis (product of inner extents of
    /// the same axis); the innermost chunk has multiplier 1.
    pub mult: ExprId,
    /// Binding / annotation.
    pub kind: LoopKind,
    /// Name for printing (`i.0`, `k.1`, ...).
    pub name: String,
}

/// Role of a stage within a program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StageKind {
    /// An ordinary tensor computation.
    Compute,
    /// A `cache_read` staging copy (global → shared).
    CacheRead,
}

/// Symbolic description of a `cache_read` staging stage.
#[derive(Clone, Copy, Debug)]
pub struct CacheReadInfo {
    /// The global buffer being staged.
    pub src: BufId,
    /// The shared-memory destination buffer.
    pub shared: BufId,
    /// Elements loaded into shared memory per reload round, per block.
    pub tile_elems: ExprId,
    /// Reload rounds per block (trip count of the outer reduction level).
    pub rounds: ExprId,
}

/// One computation of the program and its current loop nest.
#[derive(Clone, Debug)]
pub struct Stage {
    /// Name for printing.
    pub name: String,
    /// Original iteration axes.
    pub axes: Vec<Axis>,
    /// Current loop nest, outer → inner.
    pub loops: Vec<Loop>,
    /// Buffer accesses.
    pub accesses: Vec<AccessPattern>,
    /// Per-innermost-iteration operation counts.
    pub op_counts: OpCounts,
    /// Role of the stage.
    pub kind: StageKind,
    /// `Some((target_stage, loop_pos))` if computed inside another stage's
    /// nest (operator fusion); its loop nest then covers only the target's
    /// inner tile.
    pub compute_at: Option<(usize, usize)>,
    /// Maximum automatic unrolling step (pragma), if annotated.
    pub unroll_max_step: Option<ExprId>,
    /// Present iff `kind == StageKind::CacheRead`.
    pub cache: Option<CacheReadInfo>,
}

impl Stage {
    /// Returns the axis metadata for `id`. An axis id is its position in
    /// [`Stage::axes`], as [`Program::add_stage`] numbers them.
    ///
    /// # Panics
    ///
    /// Panics if the axis does not belong to this stage.
    pub fn axis(&self, id: AxisId) -> &Axis {
        self.axes
            .get(id.0 as usize)
            .filter(|a| a.id == id)
            .expect("axis id not in stage")
    }

    /// Whether any axis of this stage is a reduction.
    pub fn has_reduction(&self) -> bool {
        self.axes.iter().any(|a| a.kind == AxisKind::Reduction)
    }

    /// Positions of loops with the given kind.
    pub fn loops_of_kind(&self, kind: LoopKind) -> Vec<usize> {
        self.loops
            .iter()
            .enumerate()
            .filter(|(_, l)| l.kind == kind)
            .map(|(i, _)| i)
            .collect()
    }
}

/// A validity constraint `expr <= 0` tracked alongside the schedule
/// (paper §3.2/§3.3); violated constraints make a schedule illegal.
#[derive(Clone, Debug)]
pub struct Constraint {
    /// Valid iff this expression evaluates `<= 0`.
    pub expr: ExprId,
    /// Human-readable description.
    pub desc: String,
}

/// A tensor program: buffers + stages + the expression pool their symbolic
/// extents live in, plus the schedule variables and constraints introduced
/// by scheduling.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// Expression pool for all symbolic quantities of this program.
    pub pool: ExprPool,
    /// Variable names (schedule variables).
    pub vars: VarTable,
    /// Buffers.
    pub buffers: Vec<Buffer>,
    /// Stages in execution order.
    pub stages: Vec<Stage>,
    /// Validity constraints (`expr <= 0`).
    pub constraints: Vec<Constraint>,
    /// Metadata for every schedule variable (for sampling and rounding).
    pub sched_vars: Vec<sketch::SchedVarInfo>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a buffer and returns its id.
    pub fn add_buffer(
        &mut self,
        name: impl Into<String>,
        dims: Vec<i64>,
        dtype_bytes: u32,
        scope: MemScope,
    ) -> BufId {
        let id = BufId(self.buffers.len() as u32);
        self.buffers.push(Buffer { id, name: name.into(), dtype_bytes, dims, scope });
        id
    }

    /// Adds a compute stage with one serial loop per axis (the naive nest of
    /// the mathematical definition — program `p0` of the paper).
    pub fn add_stage(
        &mut self,
        name: impl Into<String>,
        axes: Vec<(String, i64, AxisKind)>,
        accesses: Vec<AccessPattern>,
        op_counts: OpCounts,
    ) -> usize {
        let axes: Vec<Axis> = axes
            .into_iter()
            .enumerate()
            .map(|(i, (name, extent, kind))| Axis {
                id: AxisId(i as u32),
                name,
                extent,
                kind,
            })
            .collect();
        let one = self.pool.constf(1.0);
        let loops = axes
            .iter()
            .map(|a| Loop {
                axis: a.id,
                extent: self.pool.consti(a.extent),
                mult: one,
                kind: LoopKind::Serial,
                name: a.name.clone(),
            })
            .collect();
        self.stages.push(Stage {
            name: name.into(),
            axes,
            loops,
            accesses,
            op_counts,
            kind: StageKind::Compute,
            compute_at: None,
            unroll_max_step: None,
            cache: None,
        });
        self.stages.len() - 1
    }

    /// The buffer a stage writes, if any.
    pub fn written_buffer(&self, stage: usize) -> Option<BufId> {
        self.stages[stage]
            .accesses
            .iter()
            .find(|a| a.kind == AccessKind::Write)
            .map(|a| a.buffer)
    }

    /// Symbolic product of the extents of a stage's loops that
    /// `keep(position, loop, axis kind)` admits, outer → inner (`1` when it
    /// admits none).
    pub fn loop_product(
        &mut self,
        stage: usize,
        keep: &dyn Fn(usize, &Loop, AxisKind) -> bool,
    ) -> ExprId {
        let st = &self.stages[stage];
        let exts: Vec<ExprId> = st
            .loops
            .iter()
            .enumerate()
            .filter(|&(pos, l)| keep(pos, l, st.axis(l.axis).kind))
            .map(|(_, l)| l.extent)
            .collect();
        self.pool.product(&exts)
    }

    /// Symbolic tile footprint (in elements) of one access, counting the
    /// loops selected by `include(position, loop)`.
    ///
    /// Uses the rectangular-hull approximation: per buffer dimension,
    /// `Σ_loops (extent−1)·mult·stride + 1`, multiplied across dimensions.
    /// Exact for the affine accesses this IR expresses.
    pub fn footprint_elems(
        &mut self,
        stage: usize,
        access_idx: usize,
        include: &dyn Fn(usize, &Loop) -> bool,
    ) -> ExprId {
        let access = self.stages[stage].accesses[access_idx].clone();
        let loops: Vec<(usize, Loop)> = self.stages[stage]
            .loops
            .iter()
            .cloned()
            .enumerate()
            .collect();
        let one = self.pool.constf(1.0);
        let mut dim_sizes = Vec::with_capacity(access.dims.len());
        for contributions in &access.dims {
            let mut span = self.pool.constf(0.0);
            for &(axis, stride) in contributions {
                for (pos, l) in &loops {
                    if l.axis == axis && include(*pos, l) {
                        // (extent - 1) * mult * |stride|
                        let em1 = self.pool.sub(l.extent, one);
                        let m = self.pool.mul(em1, l.mult);
                        let s = self.pool.consti(stride.abs());
                        let c = self.pool.mul(m, s);
                        span = self.pool.add(span, c);
                    }
                }
            }
            let size = self.pool.add(span, one);
            dim_sizes.push(size);
        }
        self.pool.product(&dim_sizes)
    }

    /// Evaluates all constraints at `values`; returns true when every
    /// constraint satisfies `expr <= tol`.
    pub fn constraints_ok(&self, values: &[f64], tol: f64) -> bool {
        if self.constraints.is_empty() {
            return true;
        }
        let vals = self.pool.eval_all(values);
        self.constraints
            .iter()
            .all(|c| vals[c.expr.index()] <= tol)
    }

    /// Names and descriptions of violated constraints at `values`.
    pub fn violated_constraints(&self, values: &[f64], tol: f64) -> Vec<&str> {
        let vals = self.pool.eval_all(values);
        self.constraints
            .iter()
            .filter(|c| vals[c.expr.index()] > tol)
            .map(|c| c.desc.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A naive Dense (matmul) initial program, the paper's Fig. 3 example.
    pub(crate) fn dense_program(n: i64, m: i64, k: i64) -> Program {
        let mut p = Program::new();
        let a = p.add_buffer("A", vec![n, k], 4, MemScope::Global);
        let b = p.add_buffer("B", vec![k, m], 4, MemScope::Global);
        let d = p.add_buffer("D", vec![n, m], 4, MemScope::Global);
        let (ai, aj, ak) = (AxisId(0), AxisId(1), AxisId(2));
        p.add_stage(
            "dense",
            vec![
                ("i".into(), n, AxisKind::Spatial),
                ("j".into(), m, AxisKind::Spatial),
                ("k".into(), k, AxisKind::Reduction),
            ],
            vec![
                AccessPattern {
                    buffer: a,
                    kind: AccessKind::Read,
                    dims: vec![vec![(ai, 1)], vec![(ak, 1)]],
                },
                AccessPattern {
                    buffer: b,
                    kind: AccessKind::Read,
                    dims: vec![vec![(ak, 1)], vec![(aj, 1)]],
                },
                AccessPattern {
                    buffer: d,
                    kind: AccessKind::Write,
                    dims: vec![vec![(ai, 1)], vec![(aj, 1)]],
                },
            ],
            OpCounts { fadd: 1.0, fmul: 1.0, ..OpCounts::default() },
        );
        p
    }

    #[test]
    fn naive_program_structure() {
        let p = dense_program(64, 128, 256);
        assert_eq!(p.stages.len(), 1);
        assert_eq!(p.stages[0].loops.len(), 3);
        assert!(p.stages[0].has_reduction());
        assert_eq!(p.buffers.len(), 3);
        assert_eq!(p.buffers[0].bytes(), 64 * 256 * 4);
    }

    #[test]
    fn total_iters_of_naive_dense() {
        let mut p = dense_program(64, 128, 256);
        let t = p.loop_product(0, &|_, _, _| true);
        assert_eq!(p.pool.eval(t, &[]), (64 * 128 * 256) as f64);
    }

    #[test]
    fn footprint_full_nest_equals_buffer_slice() {
        let mut p = dense_program(64, 128, 256);
        // A[i,k] over the whole nest: 64 * 256 elements.
        let fp = p.footprint_elems(0, 0, &|_, _| true);
        assert_eq!(p.pool.eval(fp, &[]), (64 * 256) as f64);
        // B[k,j]: 256 * 128.
        let fp = p.footprint_elems(0, 1, &|_, _| true);
        assert_eq!(p.pool.eval(fp, &[]), (256 * 128) as f64);
    }

    #[test]
    fn footprint_partial_nest() {
        let mut p = dense_program(64, 128, 256);
        // Only the innermost (k) loop: A tile is 1x256, B tile 256x1.
        let fp_a = p.footprint_elems(0, 0, &|pos, _| pos == 2);
        assert_eq!(p.pool.eval(fp_a, &[]), 256.0);
        let fp_d = p.footprint_elems(0, 2, &|pos, _| pos == 2);
        assert_eq!(p.pool.eval(fp_d, &[]), 1.0, "write tile ignores k");
    }

    #[test]
    fn strided_access_footprint() {
        // Conv-like: In[h*2 + r] with h in [0,4), r in [0,3): span = 3*2+2+1.
        let mut p = Program::new();
        let b = p.add_buffer("In", vec![64], 4, MemScope::Global);
        p.add_stage(
            "conv1d",
            vec![
                ("h".into(), 4, AxisKind::Spatial),
                ("r".into(), 3, AxisKind::Reduction),
            ],
            vec![AccessPattern {
                buffer: b,
                kind: AccessKind::Read,
                dims: vec![vec![(AxisId(0), 2), (AxisId(1), 1)]],
            }],
            OpCounts { fadd: 1.0, fmul: 1.0, ..OpCounts::default() },
        );
        let fp = p.footprint_elems(0, 0, &|_, _| true);
        assert_eq!(p.pool.eval(fp, &[]), (3 * 2 + 2 + 1) as f64);
    }

    #[test]
    fn constraints_check() {
        let mut p = dense_program(8, 8, 8);
        let v = p.vars.fresh("T");
        let x = p.pool.var(v);
        let eight = p.pool.constf(8.0);
        // Constraint: x - 8 <= 0, i.e. x <= 8.
        let c = p.pool.sub(x, eight);
        p.constraints.push(Constraint { expr: c, desc: "T <= 8".into() });
        assert!(p.constraints_ok(&[4.0], 0.0));
        assert!(!p.constraints_ok(&[9.0], 0.0));
        assert_eq!(p.violated_constraints(&[9.0], 0.0), vec!["T <= 8"]);
    }

    #[test]
    fn extent_product_by_kind() {
        let mut p = dense_program(64, 128, 256);
        // All loops serial: serial product = everything, blockIdx product = 1.
        let s = p.loop_product(0, &|_, l, _| l.kind == LoopKind::Serial);
        assert_eq!(p.pool.eval(s, &[]), (64 * 128 * 256) as f64);
        let b = p.loop_product(0, &|_, l, _| l.kind == LoopKind::BlockIdx);
        assert_eq!(p.pool.eval(b, &[]), 1.0);
    }
}
