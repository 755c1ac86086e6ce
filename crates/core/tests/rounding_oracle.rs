//! The rounding plan against the rounding it replaced, over every distinct
//! sketch of the six batch-1 networks: `RoundingPlan::round` must reproduce
//! the plan-free `round_to_valid` (kept below as the reference, with the
//! factor-rounding helpers it was built on) bit for bit.
//! Raw values mix seeded log-uniform draws with the edge cases: NaN, ±∞,
//! zero, negatives, values at or below 1, 1e12, exact factors, and the
//! geometric midpoints between two factors, where the strict-`<` tie rule
//! decides.

use felix::extract_subgraphs;
use felix_ansor::SearchTask;
use felix_expr::factor::factors;
use felix_graph::models::all_models;
use felix_sim::{DeviceConfig, Simulator};
use felix_tir::sketch::{round_to_valid, SchedVarKind};
use felix_tir::{AxisId, Program};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};

/// Raw vectors rounded per sketch.
const TRIALS: usize = 64;

/// Rounds a real candidate `x` to the factor of `n` nearest in log space;
/// non-finite candidates and candidates at or below 1 round to 1.
fn round_to_factor(n: u64, x: f64) -> u64 {
    if !x.is_finite() || x <= 1.0 {
        return 1;
    }
    let lx = x.ln();
    let mut best = 1u64;
    let mut best_d = f64::INFINITY;
    for f in factors(n) {
        let d = ((f as f64).ln() - lx).abs();
        if d < best_d {
            best_d = d;
            best = f;
        }
    }
    best
}

/// Splits extent `n` greedily from the first candidate on: each level takes
/// the factor of the remaining quotient nearest its candidate.
fn round_split(n: u64, candidates: &[f64]) -> Vec<u64> {
    let mut rem = n.max(1);
    let mut out = Vec::with_capacity(candidates.len());
    for &c in candidates {
        let f = round_to_factor(rem, c);
        out.push(f);
        rem /= f;
    }
    out
}

/// `round_to_valid` as it was before the rounding plan existed.
fn reference_round(program: &Program, raw: &[f64]) -> Vec<f64> {
    let mut out = raw.to_vec();
    let mut groups: BTreeMap<(usize, u32), Vec<(u32, felix_expr::VarId)>> = BTreeMap::new();
    for sv in &program.sched_vars {
        match sv.kind {
            SchedVarKind::Split {
                stage, axis, level, ..
            } => {
                groups
                    .entry((stage, axis.0))
                    .or_default()
                    .push((level, sv.var));
            }
            SchedVarKind::Unroll { max } => {
                let x = raw[sv.var.index()].max(1.0);
                let mut pow2 = 1i64;
                let mut best = 1i64;
                let mut best_d = f64::INFINITY;
                while pow2 <= max {
                    let d = ((pow2 as f64).ln() - x.ln()).abs();
                    if d < best_d {
                        best_d = d;
                        best = pow2;
                    }
                    pow2 *= 2;
                }
                out[sv.var.index()] = best as f64;
            }
        }
    }
    for ((stage, axis), mut vars) in groups {
        vars.sort_by_key(|&(level, _)| level);
        let extent = program.stages[stage].axis(AxisId(axis)).extent as u64;
        let cands: Vec<f64> = vars.iter().map(|&(_, v)| raw[v.index()]).collect();
        if vars.len() == 1 {
            out[vars[0].1.index()] = round_to_factor(extent, cands[0]) as f64;
        } else {
            let rounded = round_split(extent, &cands);
            for (&(_, v), r) in vars.iter().zip(rounded) {
                out[v.index()] = r as f64;
            }
        }
    }
    out
}

/// One raw value for a variable whose valid values are `lattice`
/// (ascending): an edge case, a lattice point, a geometric midpoint between
/// two lattice points, or a log-uniform draw around the lattice.
fn raw_value(lattice: &[u64], rng: &mut StdRng) -> f64 {
    const EDGES: [f64; 9] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -3.0,
        0.5,
        1.0,
        1.0 + 1e-12,
        1e12,
    ];
    let top = *lattice.last().expect("a lattice is never empty") as f64;
    match rng.gen_range(0..4) {
        0 => EDGES[rng.gen_range(0..EDGES.len())],
        1 => lattice[rng.gen_range(0..lattice.len())] as f64,
        2 if lattice.len() > 1 => {
            let i = rng.gen_range(0..lattice.len() - 1);
            // Adjacent factors half the time; otherwise any later one, which
            // is adjacent among the factors of some remaining quotient.
            let j = if rng.gen_bool(0.5) {
                i + 1
            } else {
                rng.gen_range(i + 1..lattice.len())
            };
            (lattice[i] as f64 * lattice[j] as f64).sqrt()
        }
        _ => rng.gen_range(-1.0..(2.0 * top).ln() + 1.0).exp(),
    }
}

#[test]
fn rounding_plan_matches_the_reference_on_every_sketch_of_all_six_networks() {
    let sim = Simulator::new(DeviceConfig::a5000());
    let mut rng = StdRng::seed_from_u64(20);
    let mut seen_tasks = HashSet::new();
    let mut n_sketches = 0;
    for graph in all_models(1) {
        for task in extract_subgraphs(&graph) {
            if !seen_tasks.insert(task.subgraph.workload_key()) {
                continue;
            }
            let search = SearchTask::from_task(&task, &sim);
            for sk in &search.sketches {
                let program = &sk.program;
                let lattices: Vec<(usize, Vec<u64>)> = program
                    .sched_vars
                    .iter()
                    .map(|sv| {
                        let lattice = match sv.kind {
                            SchedVarKind::Split { extent, .. } => factors(extent.max(1) as u64),
                            SchedVarKind::Unroll { max } => (0..63)
                                .map(|k| 1u64 << k)
                                .take_while(|&p| p <= max as u64)
                                .collect(),
                        };
                        (sv.var.index(), lattice)
                    })
                    .collect();
                for trial in 0..TRIALS {
                    // Non-schedule entries are passed through: give them
                    // arbitrary values, NaN included.
                    let mut raw: Vec<f64> = (0..program.vars.len())
                        .map(|_| {
                            if rng.gen_bool(0.1) {
                                f64::NAN
                            } else {
                                rng.gen_range(-2.0..9.0)
                            }
                        })
                        .collect();
                    for (v, lattice) in &lattices {
                        raw[*v] = raw_value(lattice, &mut rng);
                    }
                    let want = reference_round(program, &raw);
                    let got = sk.rounding.round(&raw);
                    let label = format!("{} / {} trial {trial}", search.name, sk.name);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "{label}: raw {raw:?}");
                    assert_eq!(bits(&round_to_valid(program, &raw)), bits(&want), "{label}");
                }
                n_sketches += 1;
            }
        }
    }
    assert!(
        n_sketches >= 100,
        "only {n_sketches} distinct sketches covered"
    );
}
