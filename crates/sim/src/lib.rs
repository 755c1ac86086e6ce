//! An analytic GPU latency simulator — the stand-in for the paper's three
//! physical GPUs (NVIDIA A10G, RTX A5000, Jetson Xavier NX).
//!
//! The simulator computes the latency of a *concrete* scheduled program from
//! its feature vector plus device parameters, modelling the first-order
//! effects real schedules trade off: compute vs. memory roofline, occupancy
//! (threads / shared memory / register limits), warp granularity, wave
//! quantization, coalescing, ILP from unrolling/vectorization/virtual
//! threads, launch overhead, and register spills. Measurement adds lognormal
//! noise; [`clock`] accounts simulated tuning wall-time (compile + 100 ms
//! run per candidate, RPC surcharge on the edge board, §5); [`vendor`]
//! provides the PyTorch/TensorFlow/TensorRT baselines.
//!
//! The latency function is intentionally *richer* than the 82 features the
//! cost model sees, so the learned model has a non-trivial target — matching
//! the paper's setup where the cost model approximates real hardware.

pub mod clock;
pub mod fault;
pub mod vendor;

pub use clock::TuningClock;
pub use fault::{candidate_key, FaultKind, FaultPlan, MeasureOutcome};
pub use vendor::{vendor_network_latency, vendor_supports, vendor_task_latency, Vendor};

use felix_features::{feature_index, FeatureSet};
use felix_tir::Program;
use rand::Rng;

/// Configuration of a simulated GPU.
#[derive(Clone, Copy, Debug)]
pub struct DeviceConfig {
    /// Device name.
    pub name: &'static str,
    /// Streaming multiprocessors.
    pub sms: f64,
    /// FP32 lanes per SM.
    pub cores_per_sm: f64,
    /// Boost clock in GHz.
    pub clock_ghz: f64,
    /// Global memory bandwidth in GB/s.
    pub mem_bw_gbps: f64,
    /// Shared memory per SM in bytes.
    pub shared_per_sm: f64,
    /// Shared memory limit per block in bytes.
    pub shared_per_block: f64,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: f64,
    /// Register file entries per SM.
    pub regs_per_sm: f64,
    /// Last-level (L2) cache size in bytes.
    pub l2_bytes: f64,
    /// L2 bandwidth as a multiple of DRAM bandwidth.
    pub l2_bw_mult: f64,
    /// Kernel launch overhead in seconds.
    pub launch_overhead_s: f64,
    /// Whether tuning measurements go over RPC (edge board, §5).
    pub rpc: bool,
}

impl DeviceConfig {
    /// NVIDIA A10G (server, ~31 TFLOP/s FP32, 600 GB/s).
    pub fn a10g() -> Self {
        DeviceConfig {
            name: "A10G",
            sms: 80.0,
            cores_per_sm: 128.0,
            clock_ghz: 1.71,
            mem_bw_gbps: 600.0,
            shared_per_sm: 100.0 * 1024.0,
            shared_per_block: 48.0 * 1024.0,
            max_threads_per_sm: 1536.0,
            regs_per_sm: 65536.0,
            l2_bytes: 6e6,
            l2_bw_mult: 4.0,
            launch_overhead_s: 4e-6,
            rpc: false,
        }
    }

    /// NVIDIA RTX A5000 (desktop, 8192 cores, ~27.8 TFLOP/s, 768 GB/s).
    pub fn a5000() -> Self {
        DeviceConfig {
            name: "RTX A5000",
            sms: 64.0,
            cores_per_sm: 128.0,
            clock_ghz: 1.695,
            mem_bw_gbps: 768.0,
            shared_per_sm: 100.0 * 1024.0,
            shared_per_block: 48.0 * 1024.0,
            max_threads_per_sm: 1536.0,
            regs_per_sm: 65536.0,
            l2_bytes: 6e6,
            l2_bw_mult: 4.0,
            launch_overhead_s: 4e-6,
            rpc: false,
        }
    }

    /// NVIDIA Jetson Xavier NX (edge, 384 cores, ~0.85 TFLOP/s, 59.7 GB/s).
    pub fn xavier_nx() -> Self {
        DeviceConfig {
            name: "Xavier NX",
            sms: 6.0,
            cores_per_sm: 64.0,
            clock_ghz: 1.1,
            mem_bw_gbps: 59.7,
            shared_per_sm: 96.0 * 1024.0,
            shared_per_block: 48.0 * 1024.0,
            max_threads_per_sm: 2048.0,
            regs_per_sm: 65536.0,
            l2_bytes: 0.5e6,
            l2_bw_mult: 4.0,
            launch_overhead_s: 12e-6,
            rpc: true,
        }
    }

    /// The three evaluation platforms of the paper.
    pub fn all() -> Vec<DeviceConfig> {
        vec![Self::a5000(), Self::a10g(), Self::xavier_nx()]
    }

    /// Peak FP32 throughput in FLOP/s (FMA counted as two).
    pub fn peak_flops(&self) -> f64 {
        self.sms * self.cores_per_sm * 2.0 * self.clock_ghz * 1e9
    }
}

/// The latency simulator for one device.
#[derive(Clone, Copy, Debug)]
pub struct Simulator {
    /// Device parameters.
    pub device: DeviceConfig,
    /// Standard deviation of lognormal measurement noise.
    pub noise_sd: f64,
}

impl Simulator {
    /// A simulator for `device` with the default 1.5% measurement noise
    /// (candidates are averaged over ~100 ms of repeats, §5).
    pub fn new(device: DeviceConfig) -> Self {
        Simulator { device, noise_sd: 0.015 }
    }

    /// Deterministic latency in milliseconds of a concrete schedule.
    ///
    /// `features` must come from [`felix_features::extract_features`] on
    /// `program`, and `values` is the (valid, integral) schedule-variable
    /// assignment.
    pub fn latency_ms(&self, program: &Program, features: &FeatureSet, values: &[f64]) -> f64 {
        let v = features.eval(program, values);
        self.latency_from_features(&v)
    }

    /// Latency in milliseconds from a raw feature vector.
    pub fn latency_from_features(&self, v: &[f64]) -> f64 {
        let f = |name: &str| v[feature_index(name)];
        let dev = &self.device;

        let flops = f("flops_total").max(1.0);
        // Issued global memory operations vs. the unique footprint: the
        // surplus is redundancy that only a cache can absorb.
        let issued = (f("global_read_bytes") + f("global_write_bytes")).max(4.0);
        let unique =
            (f("global_read_unique_bytes") + f("global_write_unique_bytes")).max(4.0);
        let blocks = f("num_blocks").max(1.0);
        let threads = f("threads_per_block").clamp(1.0, 1024.0);
        let vthreads = f("vthreads").max(1.0);
        let shared_pb = f("shared_bytes_per_block").max(0.0);
        let regs = f("reg_pressure_est").clamp(24.0, 1024.0);
        let unrolled = f("unrolled_iters").max(1.0);
        let vec_lanes = f("vector_lanes").max(1.0);
        let serial = f("serial_iters_per_thread").max(1.0);
        let coalescing = f("coalescing_proxy").clamp(0.0, 1.0);
        let epi_flops = f("epilogue_flops");
        let sync_rounds = f("sync_points_est").max(0.0);

        // --- Occupancy: blocks resident per SM ---------------------------
        let lim_shared = if shared_pb > 64.0 {
            (dev.shared_per_sm / shared_pb).floor().max(1.0)
        } else {
            16.0
        };
        let lim_threads = (dev.max_threads_per_sm / threads).floor().max(1.0);
        let regs_per_thread = (regs * 0.6 + 24.0).min(255.0);
        let lim_regs = (dev.regs_per_sm / (regs_per_thread * threads)).floor().max(1.0);
        let blocks_per_sm = lim_shared.min(lim_threads).min(lim_regs).min(16.0);
        // Blocks actually resident (grid may not fill the device).
        let resident_blocks = (blocks / dev.sms).min(blocks_per_sm).max(1.0 / dev.sms);
        let resident_threads = (threads * resident_blocks).min(dev.max_threads_per_sm);
        let occ = (resident_threads / dev.max_threads_per_sm).min(1.0);
        // Latency-hiding efficiency saturates well below full occupancy.
        let eff_occ = occ / (occ + 0.12);
        // Device fill: fraction of SMs with work at all.
        let fill = (blocks / dev.sms).min(1.0);
        let eff_fill = fill / (fill + 0.05);

        // --- Instruction-level parallelism --------------------------------
        let ilp = (1.0
            + 0.10 * unrolled.ln().min(5.0)
            + 0.12 * vthreads.ln().min(3.0)
            + 0.10 * vec_lanes.ln())
        .min(1.7);
        // Very aggressive unrolling thrashes the instruction cache.
        let icache = if f("unroll_max_step") > 256.0 { 0.93 } else { 1.0 };
        // Tiny per-thread work cannot amortize scheduling overhead.
        let small_work = serial / (serial + 2.0);

        // --- Warp granularity ----------------------------------------------
        let warp_eff = threads / ((threads / 32.0).ceil() * 32.0);

        // --- Compute time ----------------------------------------------------
        let base_eff = 0.55;
        let compute_rate =
            dev.peak_flops() * base_eff * eff_occ * eff_fill * warp_eff * ilp * icache * small_work;
        let t_compute = flops / compute_rate;

        // --- Memory time -----------------------------------------------------
        // Two-level model: the unique footprint always comes from DRAM;
        // redundant re-reads (issued − unique) hit L2 while the working set
        // fits, and spill to DRAM as it grows past the cache. L2 bandwidth
        // is a finite multiple of DRAM bandwidth, so cache-resident but
        // reuse-poor schedules (e.g. one thread per output, no tiling) are
        // L2-bandwidth-bound rather than free.
        let coal_eff = 0.22 + 0.78 * coalescing;
        let over = unique / dev.l2_bytes;
        let miss = over / (over + 1.0);
        let dram_traffic = unique + (issued - unique).max(0.0) * miss;
        let dram_rate =
            dev.mem_bw_gbps * 1e9 * coal_eff * (0.35 + 0.65 * eff_occ) * eff_fill;
        let l2_rate = dev.mem_bw_gbps * 1e9 * dev.l2_bw_mult * (0.5 + 0.5 * eff_occ) * eff_fill;
        let t_mem = (dram_traffic / dram_rate).max(issued / l2_rate);

        // --- Synchronization (shared-memory reload barriers) -----------------
        let t_sync = sync_rounds * blocks / dev.sms.max(1.0) * 2.5e-7;

        // --- Epilogue work (usually negligible, matters for big epilogues) ---
        let t_epi = epi_flops / (dev.peak_flops() * 0.25);

        // --- Roofline + wave quantization -------------------------------------
        let mut t_core = t_compute.max(t_mem) + t_sync + t_epi;
        let waves = (blocks / (dev.sms * blocks_per_sm)).max(1e-9);
        if waves > 1.0 {
            let quant = waves.ceil() / waves;
            // Soften: later waves overlap tails of earlier ones.
            t_core *= 1.0 + (quant - 1.0) * 0.6;
        }

        // --- Register spill / shared overflow penalties -----------------------
        // Accumulator tiles past ~200 registers per thread spill to local
        // memory; the penalty grows superlinearly, making 16x16 thread
        // tiles unusable as on real GPUs.
        if regs > 200.0 {
            t_core *= 1.0 + ((regs - 200.0) / 70.0).powf(1.5);
        }
        if shared_pb > dev.shared_per_block {
            t_core *= 1.0 + 3.0 * (shared_pb - dev.shared_per_block) / dev.shared_per_block;
        }

        let latency_s = t_core + dev.launch_overhead_s;
        latency_s * 1e3
    }

    /// A noisy "hardware measurement" of the schedule (lognormal noise).
    pub fn measure(
        &self,
        program: &Program,
        features: &FeatureSet,
        values: &[f64],
        rng: &mut impl Rng,
    ) -> f64 {
        let det = self.latency_ms(program, features, values);
        det * lognormal(rng, self.noise_sd)
    }

    /// One fault-aware measurement attempt: `plan` decides (purely from the
    /// candidate `key` and `attempt` index, never from `rng`) whether this
    /// attempt fails; successful attempts return exactly what
    /// [`Simulator::measure`] would have, including identical `rng`
    /// consumption. With a zero-rate plan this is byte-for-byte
    /// [`Simulator::measure`].
    #[allow(clippy::too_many_arguments)]
    pub fn measure_outcome(
        &self,
        program: &Program,
        features: &FeatureSet,
        values: &[f64],
        rng: &mut impl Rng,
        plan: &FaultPlan,
        key: u64,
        attempt: u32,
    ) -> MeasureOutcome {
        if let Some(kind) = plan.fault_for(&self.device, key, attempt) {
            return MeasureOutcome::Fail(kind);
        }
        MeasureOutcome::Ok(self.measure(program, features, values, rng))
    }
}

/// Multiplicative lognormal noise factor `exp(N(0, sd))` via Box–Muller.
pub fn lognormal(rng: &mut impl Rng, sd: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (z * sd).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use felix_features::extract_features;
    use felix_graph::lower::lower_subgraph;
    use felix_graph::{Op, Subgraph};
    use felix_tir::sketch::{multi_level_tiling_sketch, round_to_valid, HardwareParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dense_sketch(
        m: i64,
        k: i64,
        n: i64,
    ) -> (Program, FeatureSet) {
        let sg = Subgraph { ops: vec![Op::Dense { m, k, n }] };
        let p0 = lower_subgraph(&sg);
        let sk = multi_level_tiling_sketch(&p0, &HardwareParams::default());
        let mut p = sk.program;
        let fs = extract_features(&mut p);
        (p, fs)
    }

    #[test]
    fn devices_have_sane_relative_speed() {
        let a5000 = DeviceConfig::a5000();
        let a10g = DeviceConfig::a10g();
        let nx = DeviceConfig::xavier_nx();
        assert!(a5000.peak_flops() > 20e12);
        assert!(a10g.peak_flops() > 20e12);
        assert!(nx.peak_flops() < 2e12);
    }

    #[test]
    fn good_schedule_beats_bad_schedule() {
        let (p, fs) = dense_sketch(1024, 1024, 1024);
        let sim = Simulator::new(DeviceConfig::a5000());
        // Good: threads 16x16, inner 4x4, vthread 2x2, k-tile 16.
        let good = round_to_valid(&p, &[2.0, 16.0, 4.0, 2.0, 16.0, 4.0, 16.0, 64.0]);
        // Bad: a single thread per block, no tiling.
        let bad = round_to_valid(&p, &[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let lg = sim.latency_ms(&p, &fs, &good);
        let lb = sim.latency_ms(&p, &fs, &bad);
        assert!(
            lg * 10.0 < lb,
            "good schedule {lg} ms should be >>10x faster than bad {lb} ms"
        );
    }

    #[test]
    fn latency_scales_with_work() {
        let sim = Simulator::new(DeviceConfig::a5000());
        let (p1, f1) = dense_sketch(512, 512, 512);
        let (p2, f2) = dense_sketch(2048, 2048, 2048);
        let vals1 = round_to_valid(&p1, &[2.0, 16.0, 4.0, 2.0, 16.0, 4.0, 16.0, 64.0]);
        let vals2 = round_to_valid(&p2, &[2.0, 16.0, 4.0, 2.0, 16.0, 4.0, 16.0, 64.0]);
        let l1 = sim.latency_ms(&p1, &f1, &vals1);
        let l2 = sim.latency_ms(&p2, &f2, &vals2);
        // 64x the flops: expect substantially more time (not necessarily 64x
        // due to fill effects on the small one).
        assert!(l2 > l1 * 8.0, "l1={l1} l2={l2}");
    }

    #[test]
    fn edge_device_is_much_slower() {
        let (p, fs) = dense_sketch(1024, 1024, 1024);
        let vals = round_to_valid(&p, &[2.0, 16.0, 4.0, 2.0, 16.0, 4.0, 16.0, 64.0]);
        let fast = Simulator::new(DeviceConfig::a5000()).latency_ms(&p, &fs, &vals);
        let slow = Simulator::new(DeviceConfig::xavier_nx()).latency_ms(&p, &fs, &vals);
        assert!(slow > fast * 8.0, "fast={fast} slow={slow}");
    }

    #[test]
    fn measurement_noise_is_small_and_unbiased() {
        let (p, fs) = dense_sketch(512, 512, 512);
        let sim = Simulator::new(DeviceConfig::a10g());
        let vals = round_to_valid(&p, &[2.0, 8.0, 4.0, 2.0, 8.0, 4.0, 8.0, 64.0]);
        let det = sim.latency_ms(&p, &fs, &vals);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200;
        let mean: f64 = (0..n)
            .map(|_| sim.measure(&p, &fs, &vals, &mut rng))
            .sum::<f64>()
            / n as f64;
        assert!((mean / det - 1.0).abs() < 0.02, "mean {mean} det {det}");
    }

    #[test]
    fn latency_is_deterministic() {
        let (p, fs) = dense_sketch(512, 512, 512);
        let sim = Simulator::new(DeviceConfig::a10g());
        let vals = round_to_valid(&p, &[2.0, 8.0, 4.0, 2.0, 8.0, 4.0, 8.0, 64.0]);
        assert_eq!(sim.latency_ms(&p, &fs, &vals), sim.latency_ms(&p, &fs, &vals));
    }

    #[test]
    fn oversized_shared_memory_is_penalized() {
        let (p, fs) = dense_sketch(1024, 1024, 1024);
        let sim = Simulator::new(DeviceConfig::a5000());
        // Huge spatial tiles + huge k tile blow up the shared tile.
        let huge = round_to_valid(&p, &[4.0, 16.0, 16.0, 4.0, 16.0, 16.0, 256.0, 64.0]);
        let sane = round_to_valid(&p, &[2.0, 16.0, 4.0, 2.0, 16.0, 4.0, 16.0, 64.0]);
        let lh = sim.latency_ms(&p, &fs, &huge);
        let ls = sim.latency_ms(&p, &fs, &sane);
        assert!(lh > ls, "oversized tiles must not win: {lh} vs {ls}");
    }
}
