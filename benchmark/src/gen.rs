//! Seeded input generators: single-operator shapes for `cold_ops` and
//! `persist_cycle`, and the job script for `serve_mixed`. The same seed
//! gives the same inputs; the program under test never sees the seed.

use felix_graph::{EwKind, Graph, Op};
use felix_serve::JobSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Share of `cold_ops` draws that repeat an earlier shape (exercising the
/// proposer's objective memo).
const REPEAT_SHARE: f64 = 0.25;

/// The serving workload's target device.
pub const SERVE_DEVICE: &str = "RTX A5000";

/// A scaled-down LLaMA: `[batch, seq, hidden, heads, ffn, layers]`.
pub const LLAMA_TINY: [i64; 6] = [1, 16, 128, 4, 344, 2];

/// One single-operator workload: an anchor and an optional fused
/// element-wise epilogue.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct OpShape {
    pub anchor: Op,
    pub epilogue: Option<EwKind>,
}

impl OpShape {
    /// Appends the shape's nodes to `g`.
    pub fn push_into(&self, g: &mut Graph) {
        let id = g.push(self.anchor.clone(), Vec::new());
        if let Some(kind) = self.epilogue {
            g.push(
                Op::Elementwise {
                    kind,
                    shape: self.anchor.out_shape(),
                },
                vec![id],
            );
        }
    }

    /// The shape as a graph of its own.
    pub fn graph(&self) -> Graph {
        let mut g = Graph::new("single-op");
        self.push_into(&mut g);
        g
    }
}

fn pick<T: Copy>(rng: &mut StdRng, from: &[T]) -> T {
    from[rng.gen_range(0..from.len())]
}

/// Fisher-Yates.
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// The four operator families a shape is drawn from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Family {
    Dense,
    Conv2d,
    BatchMatmul,
    ConvTranspose2d,
}

const FAMILIES: [Family; 4] = [
    Family::Dense,
    Family::Conv2d,
    Family::BatchMatmul,
    Family::ConvTranspose2d,
];

/// Draws one shape of `family` with extents from small palettes of the
/// sizes the model zoo uses, half the time with a fused epilogue.
fn draw_shape(rng: &mut StdRng, family: Family) -> OpShape {
    let anchor = match family {
        Family::Dense => Op::Dense {
            m: pick(rng, &[1, 16, 32, 64, 128]),
            k: pick(rng, &[128, 256, 384, 512, 768, 1024]),
            n: pick(rng, &[128, 256, 384, 512, 768, 1024]),
        },
        Family::Conv2d => {
            let r = pick(rng, &[1, 3]);
            Op::Conv2d {
                n: 1,
                c: pick(rng, &[16, 32, 64, 96, 128, 256]),
                k: pick(rng, &[16, 32, 64, 96, 128, 256]),
                h: pick(rng, &[7, 14, 28, 56]),
                r,
                stride: pick(rng, &[1, 2]),
                pad: r / 2,
                groups: 1,
            }
        }
        Family::BatchMatmul => Op::BatchMatmul {
            b: pick(rng, &[4, 8, 12, 16]),
            m: pick(rng, &[16, 32, 50, 64, 128]),
            k: pick(rng, &[32, 64, 128]),
            n: pick(rng, &[16, 32, 50, 64, 128]),
        },
        Family::ConvTranspose2d => Op::ConvTranspose2d {
            n: 1,
            c: pick(rng, &[32, 64, 128, 256]),
            k: pick(rng, &[16, 32, 64, 128]),
            h: pick(rng, &[4, 8, 16, 32]),
            r: 4,
            stride: 2,
            pad: 1,
        },
    };
    let epilogue = rng
        .gen_bool(0.5)
        .then(|| pick(rng, &[EwKind::Relu, EwKind::BiasAdd, EwKind::Tanh]));
    OpShape { anchor, epilogue }
}

/// Fresh shapes, stratified: every eight draws hold two of each operator
/// family in seeded order, so two seeds differ in which shapes they see and
/// when, not in how much convolution they got.
#[derive(Debug)]
struct ShapeDraws {
    rng: StdRng,
    families: Vec<Family>,
}

impl ShapeDraws {
    fn new(seed: u64) -> ShapeDraws {
        ShapeDraws {
            rng: StdRng::seed_from_u64(seed),
            families: Vec::new(),
        }
    }

    fn next(&mut self) -> OpShape {
        if self.families.is_empty() {
            self.families = [FAMILIES, FAMILIES].concat();
            shuffle(&mut self.rng, &mut self.families);
        }
        let family = self.families.pop().expect("refilled above");
        draw_shape(&mut self.rng, family)
    }
}

/// The endless `cold_ops` stream: fresh draws, with [`REPEAT_SHARE`] of the
/// draws repeating a uniformly chosen earlier shape.
#[derive(Debug)]
pub struct OpStream {
    draws: ShapeDraws,
    seen: Vec<OpShape>,
}

impl OpStream {
    pub fn new(seed: u64) -> OpStream {
        OpStream {
            draws: ShapeDraws::new(seed ^ 0x0C01_D0B5),
            seen: Vec::new(),
        }
    }
}

impl Iterator for OpStream {
    type Item = OpShape;

    fn next(&mut self) -> Option<OpShape> {
        let rng = &mut self.draws.rng;
        if !self.seen.is_empty() && rng.gen_bool(REPEAT_SHARE) {
            let i = rng.gen_range(0..self.seen.len());
            return Some(self.seen[i].clone());
        }
        let shape = self.draws.next();
        self.seen.push(shape.clone());
        Some(shape)
    }
}

/// `n` pairwise distinct shapes (the `persist_cycle` network).
pub fn distinct_shapes(seed: u64, n: usize) -> Vec<OpShape> {
    let mut draws = ShapeDraws::new(seed ^ 0x09E2_5157);
    let mut out: Vec<OpShape> = Vec::with_capacity(n);
    while out.len() < n {
        let shape = draws.next();
        if !out.contains(&shape) {
            out.push(shape);
        }
    }
    out
}

/// One scripted client action of `serve_mixed`.
#[derive(Clone, Debug, PartialEq)]
pub struct JobPlan {
    pub tenant: &'static str,
    pub spec: JobSpec,
    /// Cancel right after the ack.
    pub cancel: bool,
}

/// Jobs per script block. Every block holds the same composition in seeded
/// order — 18/9/3 jobs of the three tenants (60/30/10), ten each of 1, 2
/// and 4 rounds, fifteen of each model, three cancelled right after their
/// ack — so two seeds differ in the order and pairing of jobs, not in how
/// much work they were handed.
const BLOCK: usize = 30;

/// Tenants and their jobs per block.
const TENANTS: [(&str, usize); 3] = [("acme", 18), ("birch", 9), ("cobalt", 3)];

/// The endless `serve_mixed` job script: tiny-llama and dcgan
/// [`JobSpec::quick`] specs, stratified in blocks of [`BLOCK`].
#[derive(Debug)]
pub struct JobStream {
    rng: StdRng,
    block: Vec<JobPlan>,
}

impl JobStream {
    /// `lane` separates the scripts of concurrent client connections.
    pub fn new(seed: u64, lane: u64) -> JobStream {
        JobStream {
            rng: StdRng::seed_from_u64(seed ^ 0x0005_E27E ^ (lane << 40)),
            block: Vec::new(),
        }
    }

    fn refill(&mut self) {
        let rng = &mut self.rng;
        let mut tenants: Vec<&'static str> = TENANTS
            .iter()
            .flat_map(|&(t, n)| std::iter::repeat_n(t, n))
            .collect();
        let mut rounds: Vec<usize> = [1, 2, 4].repeat(BLOCK / 3);
        let mut llama: Vec<bool> = [true, false].repeat(BLOCK / 2);
        let mut cancel: Vec<bool> = (0..BLOCK).map(|i| i < BLOCK / 10).collect();
        shuffle(rng, &mut tenants);
        shuffle(rng, &mut rounds);
        shuffle(rng, &mut llama);
        shuffle(rng, &mut cancel);
        self.block = (0..BLOCK)
            .map(|i| JobPlan {
                tenant: tenants[i],
                spec: if llama[i] {
                    JobSpec::quick("llama", LLAMA_TINY.to_vec(), SERVE_DEVICE, rounds[i])
                } else {
                    JobSpec::quick("dcgan", vec![1], SERVE_DEVICE, rounds[i])
                },
                cancel: cancel[i],
            })
            .collect();
    }
}

impl Iterator for JobStream {
    type Item = JobPlan;

    fn next(&mut self) -> Option<JobPlan> {
        if self.block.is_empty() {
            self.refill();
        }
        self.block.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        let a: Vec<OpShape> = OpStream::new(7).take(64).collect();
        let b: Vec<OpShape> = OpStream::new(7).take(64).collect();
        let c: Vec<OpShape> = OpStream::new(8).take(64).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);

        let ja: Vec<JobPlan> = JobStream::new(7, 0).take(64).collect();
        let jb: Vec<JobPlan> = JobStream::new(7, 0).take(64).collect();
        let jc: Vec<JobPlan> = JobStream::new(8, 0).take(64).collect();
        let jd: Vec<JobPlan> = JobStream::new(7, 1).take(64).collect();
        assert_eq!(ja, jb);
        assert_ne!(ja, jc);
        assert_ne!(ja, jd, "client lanes draw different scripts");

        assert_eq!(distinct_shapes(7, 12), distinct_shapes(7, 12));
        assert_ne!(distinct_shapes(7, 12), distinct_shapes(8, 12));
    }

    #[test]
    fn stream_repeats_about_a_quarter_and_covers_every_kind() {
        let shapes: Vec<OpShape> = OpStream::new(3).take(400).collect();
        let mut distinct = shapes.clone();
        distinct.sort_by_key(|s| format!("{s:?}"));
        distinct.dedup();
        let repeats = shapes.len() - distinct.len();
        assert!((60..=160).contains(&repeats), "{repeats} repeats of 400");
        // Fresh draws are stratified: two of each family in every eight.
        let fresh: Vec<OpShape> = {
            let mut draws = ShapeDraws::new(3);
            (0..64).map(|_| draws.next()).collect()
        };
        for eight in fresh.chunks(8) {
            for kind in ["dense", "conv2d", "batch_matmul", "tconv2d"] {
                assert_eq!(
                    eight
                        .iter()
                        .filter(|s| s.anchor.short_name() == kind)
                        .count(),
                    2
                );
            }
        }
    }

    #[test]
    fn distinct_shapes_partition_into_one_task_each() {
        let shapes = distinct_shapes(11, 12);
        let mut g = Graph::new("pool");
        for s in &shapes {
            s.push_into(&mut g);
        }
        assert_eq!(felix_graph::partition(&g).len(), 12);
        assert_eq!(felix_graph::partition(&shapes[0].graph()).len(), 1);
    }

    #[test]
    fn job_script_is_valid_and_every_block_has_the_same_composition() {
        let jobs: Vec<JobPlan> = JobStream::new(5, 0).take(10 * BLOCK).collect();
        assert!(jobs.iter().all(|j| j.spec.validate().is_ok()));
        for block in jobs.chunks(BLOCK) {
            for (tenant, n) in TENANTS {
                assert_eq!(block.iter().filter(|j| j.tenant == tenant).count(), n);
            }
            for rounds in [1, 2, 4] {
                assert_eq!(
                    block.iter().filter(|j| j.spec.rounds == rounds).count(),
                    BLOCK / 3
                );
            }
            assert_eq!(
                block.iter().filter(|j| j.spec.model == "llama").count(),
                BLOCK / 2
            );
            assert_eq!(block.iter().filter(|j| j.cancel).count(), BLOCK / 10);
        }
        assert_ne!(
            jobs[..BLOCK],
            jobs[BLOCK..2 * BLOCK],
            "blocks are reshuffled"
        );
    }
}
