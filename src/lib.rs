//! Workspace umbrella crate for the Felix reproduction.
//!
//! Re-exports every workspace crate under a short alias so integration tests
//! and examples can use a single dependency. See the individual crates for
//! the real APIs:
//!
//! - [`expr`]: symbolic expressions, autodiff, smoothing and gradient tapes
//! - [`tir`]: loop-nest IR and schedule primitives
//! - [`graph`]: tensor operators, computation graphs, the model zoo
//! - [`features`]: the 82-dimensional program feature extractor
//! - [`sim`]: GPU latency simulator, measurement clock, vendor baselines
//! - [`cost`]: MLP cost model, Adam, dataset generation
//! - [`records`]: durable tuning records, checkpoints, and the global
//!   schedule store
//! - [`ansor`]: evolutionary-search baseline
//! - [`felix`]: the gradient-descent tuner itself

pub use felix;
pub use felix_ansor as ansor;
pub use felix_cost as cost;
pub use felix_expr as expr;
pub use felix_features as features;
pub use felix_graph as graph;
pub use felix_records as records;
pub use felix_sim as sim;
pub use felix_tir as tir;
