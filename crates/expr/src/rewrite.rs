//! The former equality-saturation simplifier, now the identity.
//!
//! The pool's smart constructors already cancel `log∘exp`/`exp∘log` and
//! fold constants, and the tape compiler eliminates dead code, folds
//! constants and shares common subexpressions. Running an e-graph on top
//! made tapes larger, not smaller, so the objective pipeline no longer
//! simplifies. The function stays for the frozen benchmark, which calls it.

use crate::{ExprId, ExprPool};
use felix_egraph::RunnerLimits;

/// Returns `roots` unchanged; `pool` and the limits are not read.
pub fn simplify_with_limits(
    _pool: &mut ExprPool,
    roots: &[ExprId],
    _limits: RunnerLimits,
) -> Vec<ExprId> {
    roots.to_vec()
}
