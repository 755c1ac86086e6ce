//! TenSet-style dataset generation (paper §5, "Cost model training").
//!
//! The original work pretrains on ~250,000 measured schedules across ~500
//! subgraphs from the TenSet dataset. We regenerate the equivalent corpus
//! synthetically: a pool of realistic workloads (convolutions, dense layers,
//! batched matmuls, depthwise convs, pooling, softmax — the bottleneck
//! classes TenSet covers), random valid schedules per sketch, labelled by
//! the device simulator with measurement noise.

use crate::sampling::random_schedule;
use crate::{latency_to_score, log_transform};
use felix_features::{extract_features, FeatureSet};
use felix_graph::lower::lower_subgraph;
use felix_graph::{EwKind, Op, Subgraph};
use felix_sim::vendor::hardware_params;
use felix_sim::{DeviceConfig, Simulator};
use felix_tir::sketch::RoundingPlan;
use felix_tir::Program;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One labelled schedule: log-transformed features and target score.
#[derive(Clone, Debug)]
pub struct Sample {
    /// `ln(1+feature)` vector.
    pub logfeats: Vec<f64>,
    /// Target `−ln(latency_ms)`.
    pub score: f64,
}

/// Recomputes the training sample of one measured schedule: evaluate the
/// closed-form features at `values`, log-transform them, and convert the
/// latency to the score target. This is the **single** ingestion routine
/// shared by live measurement, checkpoint restore, record-log replay and
/// synthetic dataset generation — features are pure functions of the
/// schedule values, so every caller reproduces the same sample bit for bit
/// from the same `(values, latency)` pair.
pub fn ingest_sample(
    program: &Program,
    features: &FeatureSet,
    values: &[f64],
    latency_ms: f64,
) -> Sample {
    Sample {
        logfeats: log_transform(&features.eval(program, values)),
        score: latency_to_score(latency_ms),
    }
}

/// A labelled training corpus for one device.
#[derive(Clone, Debug, Default)]
pub struct Dataset {
    /// The labelled schedules.
    pub samples: Vec<Sample>,
}

impl Dataset {
    /// Splits into (train, validation) by a 90/10 deterministic shuffle.
    pub fn split(&self, seed: u64) -> (Vec<Sample>, Vec<Sample>) {
        let mut idx: Vec<usize> = (0..self.samples.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..idx.len()).rev() {
            let j = rng.gen_range(0..=i);
            idx.swap(i, j);
        }
        let n_val = self.samples.len() / 10;
        let val = idx[..n_val].iter().map(|&i| self.samples[i].clone()).collect();
        let train = idx[n_val..].iter().map(|&i| self.samples[i].clone()).collect();
        (train, val)
    }
}

/// The workload pool: realistic subgraphs covering the common bottleneck
/// operator classes.
pub fn workload_pool(n: usize, rng: &mut impl Rng) -> Vec<Subgraph> {
    let chans = [16i64, 32, 64, 96, 128, 256, 512];
    let hw = [7i64, 14, 28, 56, 112];
    let dims = [64i64, 128, 256, 512, 768, 1024, 2048, 4096];
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let sg = match i % 8 {
            0 => {
                let c = chans[rng.gen_range(0..chans.len())];
                let k = chans[rng.gen_range(0..chans.len())];
                let h = hw[rng.gen_range(0..hw.len())];
                let r = [1i64, 3, 5][rng.gen_range(0..3usize)];
                let op = Op::Conv2d { n: 1, c, k, h, r, stride: 1, pad: r / 2, groups: 1 };
                let shape = op.out_shape();
                Subgraph {
                    ops: vec![op, Op::Elementwise { kind: EwKind::Relu, shape }],
                }
            }
            1 => {
                let m = [1i64, 16, 64, 128, 256][rng.gen_range(0..5usize)];
                let k = dims[rng.gen_range(0..dims.len())];
                let n2 = dims[rng.gen_range(0..dims.len())];
                Subgraph { ops: vec![Op::Dense { m, k, n: n2 }] }
            }
            2 => {
                let b = [8i64, 12, 16, 32][rng.gen_range(0..4usize)];
                let m = [50i64, 64, 100, 128][rng.gen_range(0..4usize)];
                let k = [64i64, 100, 128][rng.gen_range(0..3usize)];
                Subgraph { ops: vec![Op::BatchMatmul { b, m, k, n: m }] }
            }
            3 => {
                let c = chans[rng.gen_range(0..chans.len())];
                let h = hw[rng.gen_range(0..hw.len())];
                Subgraph {
                    ops: vec![Op::Conv2d {
                        n: 1,
                        c,
                        k: c,
                        h,
                        r: 3,
                        stride: 1,
                        pad: 1,
                        groups: c,
                    }],
                }
            }
            4 => {
                let c = chans[rng.gen_range(0..chans.len())];
                let k = chans[rng.gen_range(0..chans.len())];
                let h = [8i64, 14, 28][rng.gen_range(0..3usize)];
                let d = [4i64, 8, 16][rng.gen_range(0..3usize)];
                Subgraph {
                    ops: vec![Op::Conv3d { n: 1, c, k, d, h, r: 3, stride: 1, pad: 1 }],
                }
            }
            5 => {
                let rows = [64i64, 600, 768, 3200][rng.gen_range(0..4usize)];
                let cols = [50i64, 100, 128, 1024][rng.gen_range(0..4usize)];
                Subgraph { ops: vec![Op::Softmax { rows, cols }] }
            }
            6 => {
                let c = chans[rng.gen_range(0..chans.len())];
                let h = hw[rng.gen_range(0..hw.len())];
                Subgraph {
                    ops: vec![Op::MaxPool2d { n: 1, c, h, r: 3, stride: 2, pad: 1 }],
                }
            }
            _ => {
                let c = chans[rng.gen_range(0..chans.len())];
                let k = chans[rng.gen_range(0..chans.len())];
                let h = [4i64, 8, 16][rng.gen_range(0..3usize)];
                Subgraph {
                    ops: vec![Op::ConvTranspose2d { n: 1, c, k, h, r: 4, stride: 2, pad: 1 }],
                }
            }
        };
        out.push(sg);
    }
    out
}

/// Generates a labelled dataset for `device`: `n_workloads` subgraphs ×
/// `schedules_per_workload` random valid schedules per sketch, measured by
/// the simulator (with noise).
pub fn generate_dataset(
    device: &DeviceConfig,
    n_workloads: usize,
    schedules_per_workload: usize,
    seed: u64,
) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let sim = Simulator::new(*device);
    let hw = hardware_params(device);
    let mut samples = Vec::new();
    for sg in workload_pool(n_workloads, &mut rng) {
        let p0 = lower_subgraph(&sg);
        for sk in felix_tir::sketch::generate_sketches(&p0, &hw) {
            let mut p = sk.program;
            let fs = extract_features(&mut p);
            let plan = RoundingPlan::new(&p);
            for _ in 0..schedules_per_workload {
                let vals = random_schedule(&p, &plan, &mut rng, 64);
                let latency = sim.measure(&p, &fs, &vals, &mut rng);
                samples.push(ingest_sample(&p, &fs, &vals, latency));
            }
        }
    }
    Dataset { samples }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_pool_covers_op_classes() {
        let mut rng = StdRng::seed_from_u64(0);
        let pool = workload_pool(16, &mut rng);
        let names: std::collections::HashSet<&str> =
            pool.iter().map(|sg| sg.anchor().short_name()).collect();
        assert!(names.contains("conv2d"));
        assert!(names.contains("dense"));
        assert!(names.contains("batch_matmul"));
        assert!(names.contains("conv3d"));
        assert!(names.contains("dwconv2d"));
    }

    #[test]
    fn dataset_generation_produces_finite_samples() {
        let ds = generate_dataset(&DeviceConfig::a5000(), 4, 6, 42);
        assert!(ds.samples.len() >= 24, "{}", ds.samples.len());
        for s in &ds.samples {
            assert_eq!(s.logfeats.len(), felix_features::FEATURE_COUNT);
            assert!(s.logfeats.iter().all(|x| x.is_finite()));
            assert!(s.score.is_finite());
        }
    }

    #[test]
    fn scores_vary_across_schedules() {
        let ds = generate_dataset(&DeviceConfig::a5000(), 3, 10, 7);
        let min = ds.samples.iter().map(|s| s.score).fold(f64::INFINITY, f64::min);
        let max = ds.samples.iter().map(|s| s.score).fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 1.0, "score spread {min}..{max} too small to learn from");
    }

    #[test]
    fn split_is_disjoint_and_complete() {
        let ds = generate_dataset(&DeviceConfig::a10g(), 3, 8, 9);
        let (train, val) = ds.split(0);
        assert_eq!(train.len() + val.len(), ds.samples.len());
        assert!(val.len() >= ds.samples.len() / 12);
    }
}
