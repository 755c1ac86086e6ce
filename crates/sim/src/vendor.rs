//! Off-the-shelf inference framework baselines: PyTorch (TorchInductor),
//! TensorFlow (XLA), and TensorRT.
//!
//! The paper treats these as opaque latency oracles with a characteristic
//! profile: excellent hand-tuned kernels for common heavy operators (3-D
//! convolution above all, §6.3), competent on standard convs/matmuls, and
//! comparatively weak on small or uncommon layers where kernel-library
//! granularity and per-operator dispatch overhead dominate (§6.1). We
//! reproduce that profile by running a fixed *expert schedule* through the
//! same simulator and scaling by a per-(operator, vendor) efficiency factor,
//! plus per-operator dispatch overhead at network level.

use crate::{DeviceConfig, Simulator};
use felix_features::extract_features;
use felix_graph::lower::lower_subgraph;
use felix_graph::{Op, Subgraph, Task};
use felix_tir::sketch::{
    generate_sketches, round_to_valid, HardwareParams, SchedVarKind,
};
use felix_tir::{AxisKind, Program};

/// An off-the-shelf inference framework.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Vendor {
    /// PyTorch 2.x with the TorchInductor backend.
    PyTorch,
    /// TensorFlow 2.x with XLA JIT.
    TensorFlow,
    /// NVIDIA TensorRT.
    TensorRT,
}

impl Vendor {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Vendor::PyTorch => "PyTorch",
            Vendor::TensorFlow => "TensorFlow",
            Vendor::TensorRT => "TensorRT",
        }
    }

    /// All three baselines.
    pub fn all() -> [Vendor; 3] {
        [Vendor::PyTorch, Vendor::TensorFlow, Vendor::TensorRT]
    }
}

/// Hardware parameters used for the vendor's (and the tuners') sketch space.
pub fn hardware_params(dev: &DeviceConfig) -> HardwareParams {
    HardwareParams {
        max_threads_per_block: 1024,
        max_shared_bytes: dev.shared_per_block as i64,
        max_vthread: 8,
        max_unroll: 512,
        max_vector_lanes: 4,
    }
}

/// One parameterized hand-schedule template: `(vthread, threads-per-axis,
/// inner tile)` on the two innermost tiled spatial axes, `outer_inner` on
/// the remaining spatial axes' inner level, `k_tile` on reductions,
/// `unroll`; the thread-bind sketch uses `(tb_threads, tb_vec)`.
#[derive(Clone, Copy, Debug)]
struct ExpertTemplate {
    vthread: f64,
    threads: f64,
    inner: f64,
    outer_inner: f64,
    k_tile: f64,
    unroll: f64,
    tb_threads: f64,
    tb_vec: f64,
}

/// The kernel-library portfolio: a handful of pre-tuned shapes covering
/// small and large spatial extents, channel-heavy and spatial-heavy layers.
/// A vendor "kernel" is the best of these for the given workload — which is
/// exactly how cuDNN-style libraries dispatch among fixed implementations.
fn expert_portfolio() -> Vec<ExpertTemplate> {
    let mut out = Vec::new();
    for (vthread, threads, inner) in
        [(1.0, 8.0, 4.0), (2.0, 16.0, 4.0), (1.0, 32.0, 2.0), (2.0, 8.0, 8.0), (1.0, 16.0, 1.0)]
    {
        for (outer_inner, k_tile) in [(1.0, 8.0), (4.0, 16.0), (8.0, 4.0)] {
            out.push(ExpertTemplate {
                vthread,
                threads,
                inner,
                outer_inner,
                k_tile,
                unroll: 64.0,
                tb_threads: 128.0,
                tb_vec: 2.0,
            });
        }
    }
    for tb in [64.0, 256.0, 512.0] {
        out.push(ExpertTemplate {
            vthread: 1.0,
            threads: 16.0,
            inner: 4.0,
            outer_inner: 1.0,
            k_tile: 8.0,
            unroll: 64.0,
            tb_threads: tb,
            tb_vec: 2.0,
        });
    }
    out
}

fn template_values(p: &Program, sketch_name: &str, t: &ExpertTemplate) -> Vec<f64> {
    let mut raw = vec![1.0; p.vars.len()];
    for sv in &p.sched_vars {
        let target = match sv.kind {
            SchedVarKind::Split { stage, axis, level, .. } => {
                let st = &p.stages[stage];
                let is_reduction = st.axis(axis).kind == AxisKind::Reduction;
                if sketch_name == "multi-level-tiling" {
                    if is_reduction {
                        t.k_tile
                    } else {
                        // Tiled spatial axes in declaration order; the last
                        // two carry the thread structure.
                        let tiled: Vec<_> = st
                            .axes
                            .iter()
                            .filter(|a| a.kind == AxisKind::Spatial && a.extent > 1)
                            .map(|a| a.id)
                            .collect();
                        let pos = tiled.iter().position(|&a| a == axis).unwrap_or(0);
                        let innermost_two = pos + 2 >= tiled.len();
                        match (innermost_two, level) {
                            (true, 0) => t.vthread,
                            (true, 1) => t.threads,
                            (true, _) => t.inner,
                            (false, 2) => t.outer_inner,
                            (false, _) => 1.0,
                        }
                    }
                } else {
                    match level {
                        0 => t.tb_threads,
                        _ => t.tb_vec,
                    }
                }
            }
            SchedVarKind::Unroll { .. } => t.unroll,
        };
        raw[sv.var.index()] = target;
    }
    round_to_valid(p, &raw)
}

/// Kernel-efficiency factor of a vendor for an anchor operator class: the
/// latency multiplier over the best *generic template* kernel of the
/// portfolio. Hand-written cuDNN/cuBLAS kernels beat generic templates
/// substantially on common heavy operators (register-level software
/// pipelining, tensor-core-adjacent tricks), hence factors well below one
/// there; on small/uncommon layers libraries fall back to generic code and
/// pay dispatch overhead, hence milder factors. Calibrated so network-level
/// results reproduce the paper's Fig. 6 profile (Felix ≈1.4–2.2× geomean
/// over vendors, vendors winning 3-D convolution, §6.1/§6.3).
pub fn vendor_factor(anchor: &Op, vendor: Vendor) -> f64 {
    use Vendor::*;
    // cuBLAS-style libraries approach tuned performance on *large* matmuls
    // (the landscape is flat and their big-GEMM kernels are superb) but are
    // relatively weaker on skinny transformer-style shapes.
    if matches!(anchor, Op::Dense { .. } | Op::BatchMatmul { .. }) && anchor.flops() >= 5e8
    {
        return match vendor {
            PyTorch => 0.70,
            TensorFlow => 0.78,
            TensorRT => 0.58,
        };
    }
    match (anchor.short_name(), vendor) {
        // §6.3: 3-D convolution is heavily hand-optimized everywhere and
        // beats even tuned compiler schedules.
        ("conv3d", PyTorch) => 0.115,
        ("conv3d", TensorFlow) => 0.125,
        ("conv3d", TensorRT) => 0.120,
        // Standard convs and matmuls: cuDNN/cuBLAS are strong.
        ("conv2d", PyTorch) => 0.42,
        ("conv2d", TensorFlow) => 0.47,
        ("conv2d", TensorRT) => 0.33,
        ("dense", PyTorch) => 0.62,
        ("dense", TensorFlow) => 0.70,
        ("dense", TensorRT) => 0.52,
        ("batch_matmul", PyTorch) => 0.62,
        ("batch_matmul", TensorFlow) => 0.70,
        ("batch_matmul", TensorRT) => 0.52,
        // Small/uncommon layers: libraries are generic and over-provisioned.
        ("dwconv2d", PyTorch) => 0.85,
        ("dwconv2d", TensorFlow) => 0.95,
        ("dwconv2d", TensorRT) => 0.68,
        ("tconv2d", PyTorch) => 0.80,
        ("tconv2d", TensorFlow) => 0.90,
        ("tconv2d", TensorRT) => 0.65,
        ("softmax", PyTorch) => 0.95,
        ("softmax", TensorFlow) => 1.05,
        ("softmax", TensorRT) => 0.78,
        (_, PyTorch) => 0.95,
        (_, TensorFlow) => 1.05,
        (_, TensorRT) => 0.80,
    }
}

/// Per-operator dispatch overhead in seconds (host-side framework cost).
pub fn dispatch_overhead_s(vendor: Vendor, dev: &DeviceConfig) -> f64 {
    let base = match vendor {
        Vendor::PyTorch => 9e-6,
        Vendor::TensorFlow => 12e-6,
        Vendor::TensorRT => 3e-6,
    };
    // Edge boards have weak host CPUs.
    if dev.rpc {
        base * 3.0
    } else {
        base
    }
}

/// Whether a vendor can run a network on a device at all (the paper's
/// failure cases, §6.1).
pub fn vendor_supports(model_name: &str, vendor: Vendor, dev: &DeviceConfig) -> bool {
    let is_edge = dev.rpc;
    if model_name.starts_with("llama") {
        // LLaMA does not fit Xavier NX memory with any framework; TF lacks
        // support; TensorRT segfaults (§6.1).
        if is_edge {
            return false;
        }
        return vendor == Vendor::PyTorch;
    }
    if model_name.starts_with("vit") && vendor == Vendor::TensorFlow && is_edge {
        // ViT-B/32 exceeds Xavier NX memory under TensorFlow.
        return false;
    }
    true
}

/// Vendor latency of one fused subgraph in milliseconds (deterministic):
/// the best kernel of the pre-tuned portfolio, scaled by the vendor's
/// efficiency factor for the operator class.
pub fn vendor_task_latency(sg: &Subgraph, vendor: Vendor, dev: &DeviceConfig) -> f64 {
    let sim = Simulator::new(*dev);
    let hw = hardware_params(dev);
    let p0 = lower_subgraph(sg);
    let mut best = f64::INFINITY;
    for sk in generate_sketches(&p0, &hw) {
        let mut p = sk.program;
        let fs = extract_features(&mut p);
        for t in expert_portfolio() {
            let vals = template_values(&p, sk.name, &t);
            if !p.constraints_ok(&vals, 1e-9) {
                continue;
            }
            let l = sim.latency_ms(&p, &fs, &vals);
            if l < best {
                best = l;
            }
        }
    }
    // The efficiency factor applies to kernel execution, not to the launch
    // overhead floor: microsecond-scale operators are launch-bound for every
    // implementation, vendor or compiler.
    let launch_ms = dev.launch_overhead_s * 1e3;
    let kernel = (best - launch_ms).max(0.0);
    kernel * vendor_factor(sg.anchor(), vendor) + launch_ms
}

/// Vendor end-to-end latency of a partitioned network in milliseconds, or
/// `None` when the vendor cannot run it on this device.
pub fn vendor_network_latency(
    model_name: &str,
    tasks: &[Task],
    vendor: Vendor,
    dev: &DeviceConfig,
) -> Option<f64> {
    if !vendor_supports(model_name, vendor, dev) {
        return None;
    }
    let dispatch_ms = dispatch_overhead_s(vendor, dev) * 1e3;
    let mut total = 0.0;
    for t in tasks {
        let kernel = vendor_task_latency(&t.subgraph, vendor, dev);
        // TensorRT fuses epilogues like a compiler; PyTorch/TF dispatch the
        // anchor and part of the epilogue chain separately.
        let dispatches = match vendor {
            Vendor::TensorRT => 1.0,
            _ => 1.0 + t.subgraph.epilogues().len() as f64 * 0.5,
        };
        total += t.weight as f64 * (kernel + dispatches * dispatch_ms);
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use felix_graph::models;
    use felix_graph::{partition, EwKind, Op};

    #[test]
    fn conv3d_is_vendor_favoured() {
        // Vendors are far better (relative to generic templates) on conv3d
        // than on uncommon layers like depthwise conv.
        let c3 = Op::Conv3d { n: 1, c: 64, k: 64, d: 8, h: 28, r: 3, stride: 1, pad: 1 };
        let dw = Op::Conv2d { n: 1, c: 32, k: 32, h: 112, r: 3, stride: 1, pad: 1, groups: 32 };
        let f = vendor_factor(&c3, Vendor::PyTorch);
        let f2 = vendor_factor(&dw, Vendor::PyTorch);
        assert!(f < 0.2);
        assert!(f2 > 4.0 * f);
    }

    #[test]
    fn big_gemms_are_vendor_friendly() {
        let big = Op::Dense { m: 100, k: 4096, n: 11008 };
        let small = Op::Dense { m: 50, k: 768, n: 768 };
        let fb = vendor_factor(&big, Vendor::PyTorch);
        let fs = vendor_factor(&small, Vendor::PyTorch);
        assert!(fb > 1.1 * fs, "big GEMMs are vendor-friendlier: {fb} vs {fs}");
    }

    #[test]
    fn support_matrix_matches_paper() {
        let a5000 = DeviceConfig::a5000();
        let nx = DeviceConfig::xavier_nx();
        assert!(vendor_supports("llama-b1", Vendor::PyTorch, &a5000));
        assert!(!vendor_supports("llama-b1", Vendor::TensorFlow, &a5000));
        assert!(!vendor_supports("llama-b1", Vendor::TensorRT, &a5000));
        assert!(!vendor_supports("llama-b1", Vendor::PyTorch, &nx));
        assert!(!vendor_supports("vit_b32-b1", Vendor::TensorFlow, &nx));
        assert!(vendor_supports("vit_b32-b1", Vendor::TensorFlow, &a5000));
        assert!(vendor_supports("resnet50-b1", Vendor::TensorRT, &nx));
    }

    #[test]
    fn expert_schedule_is_valid() {
        let sg = Subgraph { ops: vec![Op::Dense { m: 256, k: 1024, n: 512 }] };
        let p0 = lower_subgraph(&sg);
        let hw = hardware_params(&DeviceConfig::a5000());
        for sk in generate_sketches(&p0, &hw) {
            // The portfolio's default template.
            let vals = template_values(&sk.program, sk.name, &expert_portfolio()[1]);
            assert!(
                sk.program.constraints_ok(&vals, 0.0),
                "expert schedule violates {:?} for {}",
                sk.program.violated_constraints(&vals, 0.0),
                sk.name
            );
        }
    }

    #[test]
    fn task_latency_positive_and_finite() {
        let sg = Subgraph {
            ops: vec![
                Op::Conv2d { n: 1, c: 64, k: 64, h: 56, r: 3, stride: 1, pad: 1, groups: 1 },
                Op::Elementwise { kind: EwKind::Relu, shape: vec![1, 64, 56, 56] },
            ],
        };
        let dev = DeviceConfig::a5000();
        for v in Vendor::all() {
            let l = vendor_task_latency(&sg, v, &dev);
            assert!(l.is_finite() && l > 0.0, "{}: {l}", v.name());
        }
    }

    #[test]
    fn tensorrt_usually_fastest_vendor() {
        let g = models::resnet50(1);
        let tasks = partition(&g);
        let dev = DeviceConfig::a5000();
        let pt = vendor_network_latency(&g.name, &tasks, Vendor::PyTorch, &dev).unwrap();
        let tf = vendor_network_latency(&g.name, &tasks, Vendor::TensorFlow, &dev).unwrap();
        let trt = vendor_network_latency(&g.name, &tasks, Vendor::TensorRT, &dev).unwrap();
        assert!(trt < pt, "TRT {trt} < PyTorch {pt}");
        assert!(trt < tf, "TRT {trt} < TensorFlow {tf}");
    }

    #[test]
    fn network_latency_scales_on_edge() {
        let g = models::mobilenet_v2(1);
        let tasks = partition(&g);
        let fast = vendor_network_latency(&g.name, &tasks, Vendor::PyTorch, &DeviceConfig::a5000())
            .unwrap();
        let slow =
            vendor_network_latency(&g.name, &tasks, Vendor::PyTorch, &DeviceConfig::xavier_nx())
                .unwrap();
        assert!(slow > 3.0 * fast, "edge {slow} vs desktop {fast}");
    }
}
