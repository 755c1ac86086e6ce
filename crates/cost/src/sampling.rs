//! Random valid schedule sampling (rejection sampling, Algorithm 1 line 12).

use felix_expr::factor::factors;
use felix_tir::sketch::{RoundingPlan, SchedVarKind};
use felix_tir::Program;
use rand::Rng;

/// Samples a random *valid* concrete schedule for a symbolic program.
///
/// Split variables draw a random factor of their axis extent (log-uniform
/// over the factor list); unroll variables draw a random power of two. The
/// raw draw is then rounded to joint validity (divisible splits) and
/// rejection-sampled against the program's constraints. If no draw fully
/// satisfies the constraints within `max_tries` (possible for awkward prime
/// extents), the least-violating draw is returned — downstream validity
/// checks still guard measurement. `plan` is `p`'s [`RoundingPlan`].
pub fn random_schedule(
    p: &Program,
    plan: &RoundingPlan,
    rng: &mut impl Rng,
    max_tries: usize,
) -> Vec<f64> {
    // What a draw reads of the program, once per call: each schedule
    // variable's index and its choices.
    let choices: Vec<(usize, Choices)> = p
        .sched_vars
        .iter()
        .map(|sv| {
            let choices = match sv.kind {
                SchedVarKind::Split { extent, .. } => Choices::Factors(factors(extent as u64)),
                SchedVarKind::Unroll { max } => {
                    Choices::PowersOfTwo((max as f64).log2().floor() as u32)
                }
            };
            (sv.var.index(), choices)
        })
        .collect();
    // Every try overwrites every schedule variable, and rounding writes no
    // other, so the other entries stay 1.0 across tries.
    let mut vals = vec![1.0; p.vars.len()];
    let mut evals = Vec::new();
    let mut best: Option<(usize, Vec<f64>)> = None;
    for _ in 0..max_tries {
        for (v, choices) in &choices {
            vals[*v] = match choices {
                Choices::Factors(fs) => fs[rng.gen_range(0..fs.len())] as f64,
                Choices::PowersOfTwo(max_pow) => (1u64 << rng.gen_range(0..=*max_pow)) as f64,
            };
        }
        plan.round_in_place(&mut vals);
        p.pool.eval_all_into(&vals, &mut evals);
        let violations = p.constraints.iter().filter(|c| evals[c.expr.index()] > 0.0).count();
        if violations == 0 {
            return vals;
        }
        if best.as_ref().is_none_or(|(v, _)| violations < *v) {
            best = Some((violations, vals.clone()));
        }
    }
    best.map(|(_, v)| v)
        .unwrap_or_else(|| plan.round(&vec![1.0; p.vars.len()]))
}

/// A schedule variable's draw: a split takes a uniform pick of its axis
/// extent's factors, an unroll `2^k` for a uniform `k` up to its bound.
enum Choices {
    Factors(Vec<u64>),
    PowersOfTwo(u32),
}

/// Mutates a valid schedule into a nearby valid one (used by evolutionary
/// search). Mirrors Ansor's tile-size mutation: move a prime factor between
/// two levels of the same axis split (product preserved), or between an
/// explicit level and the implicit derived outer level; unroll variables
/// step by a factor of two. `plan` is `p`'s [`RoundingPlan`].
pub fn mutate_schedule(
    p: &Program,
    plan: &RoundingPlan,
    vals: &[f64],
    rng: &mut impl Rng,
    max_tries: usize,
) -> Vec<f64> {
    if p.sched_vars.is_empty() {
        return vals.to_vec();
    }
    let primes = |n: u64| -> Vec<u64> {
        let mut out = Vec::new();
        let mut n = n;
        let mut d = 2u64;
        while d * d <= n {
            while n.is_multiple_of(d) {
                out.push(d);
                n /= d;
            }
            d += 1;
        }
        if n > 1 {
            out.push(n);
        }
        out
    };
    for _ in 0..max_tries {
        let mut raw = vals.to_vec();
        let sv = &p.sched_vars[rng.gen_range(0..p.sched_vars.len())];
        match sv.kind {
            SchedVarKind::Split { stage, axis, extent, .. } => {
                // Sibling levels of the same (stage, axis) split.
                let group: Vec<_> = p
                    .sched_vars
                    .iter()
                    .filter(|o| {
                        matches!(o.kind, SchedVarKind::Split { stage: s2, axis: a2, .. }
                            if s2 == stage && a2 == axis)
                    })
                    .map(|o| o.var)
                    .collect();
                let ps = primes(extent as u64);
                if ps.is_empty() {
                    continue;
                }
                let prime = ps[rng.gen_range(0..ps.len())] as f64;
                let v = sv.var.index();
                if group.len() >= 2 && rng.gen_bool(0.5) {
                    // Swap a prime between two explicit levels.
                    let other = group[rng.gen_range(0..group.len())];
                    if other != sv.var && raw[v] % prime == 0.0 {
                        raw[v] /= prime;
                        raw[other.index()] *= prime;
                    } else if other != sv.var && raw[other.index()] % prime == 0.0 {
                        raw[other.index()] /= prime;
                        raw[v] *= prime;
                    } else {
                        continue;
                    }
                } else {
                    // Exchange with the implicit derived outer level.
                    let explicit: f64 = group.iter().map(|g| raw[g.index()]).product();
                    if rng.gen_bool(0.5) && (extent as f64 % (explicit * prime)) == 0.0 {
                        raw[v] *= prime;
                    } else if raw[v] % prime == 0.0 {
                        raw[v] /= prime;
                    } else {
                        continue;
                    }
                }
            }
            SchedVarKind::Unroll { max } => {
                let v = sv.var.index();
                if rng.gen_bool(0.5) && raw[v] * 2.0 <= max as f64 {
                    raw[v] *= 2.0;
                } else if raw[v] >= 2.0 {
                    raw[v] /= 2.0;
                } else {
                    continue;
                }
            }
        }
        let rounded = plan.round(&raw);
        if rounded != vals && p.constraints_ok(&rounded, 0.0) {
            return rounded;
        }
    }
    vals.to_vec()
}

/// One-point crossover of two valid schedules (per schedule variable),
/// repaired to validity. `plan` is `p`'s [`RoundingPlan`].
pub fn crossover_schedules(
    p: &Program,
    plan: &RoundingPlan,
    a: &[f64],
    b: &[f64],
    rng: &mut impl Rng,
) -> Vec<f64> {
    let mut raw = a.to_vec();
    for sv in &p.sched_vars {
        if rng.gen_bool(0.5) {
            raw[sv.var.index()] = b[sv.var.index()];
        }
    }
    let rounded = plan.round(&raw);
    if p.constraints_ok(&rounded, 0.0) {
        rounded
    } else {
        a.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use felix_graph::lower::lower_subgraph;
    use felix_graph::{Op, Subgraph};
    use felix_tir::sketch::{multi_level_tiling_sketch, HardwareParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sketch_program() -> (Program, RoundingPlan) {
        let sg = Subgraph { ops: vec![Op::Dense { m: 512, k: 512, n: 512 }] };
        let p0 = lower_subgraph(&sg);
        let p = multi_level_tiling_sketch(&p0, &HardwareParams::default()).program;
        let plan = RoundingPlan::new(&p);
        (p, plan)
    }

    #[test]
    fn samples_are_valid() {
        let (p, plan) = sketch_program();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            let s = random_schedule(&p, &plan, &mut rng, 64);
            assert!(
                p.constraints_ok(&s, 0.0),
                "invalid sample {s:?}: {:?}",
                p.violated_constraints(&s, 0.0)
            );
        }
    }

    #[test]
    fn samples_are_diverse() {
        let (p, plan) = sketch_program();
        let mut rng = StdRng::seed_from_u64(1);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..40 {
            let s = random_schedule(&p, &plan, &mut rng, 64);
            distinct.insert(format!("{s:?}"));
        }
        assert!(distinct.len() > 10, "only {} distinct schedules", distinct.len());
    }

    #[test]
    fn mutation_changes_and_stays_valid() {
        let (p, plan) = sketch_program();
        let mut rng = StdRng::seed_from_u64(2);
        let base = random_schedule(&p, &plan, &mut rng, 64);
        let mut changed = 0;
        for _ in 0..20 {
            let m = mutate_schedule(&p, &plan, &base, &mut rng, 16);
            assert!(p.constraints_ok(&m, 0.0));
            if m != base {
                changed += 1;
            }
        }
        assert!(changed > 5, "mutation should usually change something");
    }

    #[test]
    fn crossover_stays_valid() {
        let (p, plan) = sketch_program();
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_schedule(&p, &plan, &mut rng, 64);
        let b = random_schedule(&p, &plan, &mut rng, 64);
        for _ in 0..20 {
            let c = crossover_schedules(&p, &plan, &a, &b, &mut rng);
            assert!(p.constraints_ok(&c, 0.0));
        }
    }
}
