//! **Felix**: optimizing tensor programs with gradient descent.
//!
//! A from-scratch Rust reproduction of *Felix: Optimizing Tensor Programs
//! with Gradient Descent* (Zhao, Sharif, Adve, Misailovic; ASPLOS 2024).
//! Felix replaces the discrete schedule search of compilers like Ansor with
//! gradient descent over a **differentiable performance estimator**:
//!
//! 1. the input network is partitioned into fused subgraphs
//!    ([`felix_graph::partition`], §3.1);
//! 2. each subgraph gets *symbolic schedules* — Ansor sketches annotated
//!    with schedule variables ([`felix_tir::sketch`], §3.2);
//! 3. program features are extracted as closed-form expressions of those
//!    variables ([`felix_features`]), made smooth, log-transformed, and
//!    substituted `x = e^y` ([`objective`], §3.3);
//! 4. Adam descends `O(y) = Σᵢ (−C(featᵢ(y)) + λ Σ max(g, 0)²)` over
//!    multiple seeds; visited points are rounded to valid integer schedules
//!    and the best few are measured ([`gd`], Algorithm 1, §3.4);
//! 5. a round-based task scheduler tunes the whole network
//!    ([`felix_ansor::tune_network_with_sink`], Algorithm 2, §3.5).
//!
//! The high-level [`Optimizer`] API ([`api`]) mirrors the paper's Fig. 5.
//!
//! # Quick start
//!
//! ```no_run
//! use felix::{extract_subgraphs, pretrained_cost_model, ModelQuality, Optimizer};
//! use felix_graph::models;
//! use felix_sim::DeviceConfig;
//!
//! let device = DeviceConfig::xavier_nx();
//! let dnn = models::resnet50(1);
//! let graphs = extract_subgraphs(&dnn);
//! let cost_model = pretrained_cost_model(&device, ModelQuality::Fast);
//! let mut opt = Optimizer::new(graphs, cost_model, device);
//! opt.optimize_all(100, 16);
//! let compiled = opt.compile_with_best_configs();
//! println!("resnet50 on xavier-nx: {:.3} ms", compiled.latency_ms());
//! ```

pub mod api;
pub mod cache;
pub mod gd;
pub mod health;
pub mod objective;
pub mod parallel;
pub mod persist;

pub use api::{
    extract_subgraphs, pretrained_cost_model, CompiledModule, ModelQuality, Optimizer,
};
pub use cache::{structure_hash, CacheOutcome, ScheduleCache};
pub use persist::{replay_records, CheckpointState, RecordLogSink};
pub use gd::{FelixOptions, GradientProposer, TapeCache};
pub use objective::{EvalScratch, SketchObjective};

// The unit tests include the test-only references: the objective walk
// under `tests/reference/` (which names this crate by its external path)
// and felix-expr's free-variable walk.
#[cfg(test)]
extern crate self as felix;
#[cfg(test)]
#[path = "../tests/reference/objective_pool.rs"]
mod objective_pool;
#[cfg(test)]
#[path = "../../expr/tests/reference/free_vars.rs"]
mod free_vars;
