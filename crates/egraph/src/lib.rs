//! What is left of the equality-saturation engine: its limits struct.
//!
//! The e-graph simplifier was measured to buy nothing over the expression
//! pool's smart constructors and the tape compiler, and was deleted. This
//! struct stays only because the frozen `benchmark/src/probes.rs` imports
//! it to call `felix_expr::rewrite::simplify_with_limits`, now the identity.

/// Saturation limits, accepted and ignored.
#[derive(Clone, Copy, Debug)]
pub struct RunnerLimits {
    /// Maximum saturation iterations.
    pub max_iters: usize,
    /// Maximum e-graph nodes.
    pub max_nodes: usize,
}
