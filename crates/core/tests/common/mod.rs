//! Fixtures shared by the integration tests in this directory.

#![allow(dead_code)] // every test binary uses its own subset

use felix::{extract_subgraphs, FelixOptions, Optimizer};
use felix_graph::models;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

pub fn tiny_network() -> Vec<felix_graph::Task> {
    extract_subgraphs(&models::llama_with_config(1, 16, 128, 4, 344, 2))
}

/// Same architecture as [`tiny_network`] at different extents: every task
/// shares its structure hash (and sketch structure) with a [`tiny_network`]
/// task, but no workload key, loop extent or tape constant matches.
pub fn scaled_network() -> Vec<felix_graph::Task> {
    extract_subgraphs(&models::llama_with_config(1, 32, 256, 4, 688, 2))
}

pub fn quick_options(threads: usize) -> FelixOptions {
    FelixOptions { n_seeds: 2, n_steps: 15, threads, ..Default::default() }
}

/// A unique scratch directory per call (tests in one binary may run in
/// parallel; directories must not collide).
pub fn tmp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("felix-core-test-{}-{n}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

pub fn history_bits(opt: &Optimizer) -> Vec<(u64, u64)> {
    opt.history.iter().map(|p| (p.time_s.to_bits(), p.latency_ms.to_bits())).collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

pub fn assert_tasks_bit_identical(a: &Optimizer, b: &Optimizer) {
    for (ta, tb) in a.tasks().iter().zip(b.tasks()) {
        assert_eq!(ta.best_latency_ms.to_bits(), tb.best_latency_ms.to_bits());
        assert_eq!(ta.best_schedule, tb.best_schedule);
        assert_eq!(ta.measured.len(), tb.measured.len());
        for (ma, mb) in ta.measured.iter().zip(&tb.measured) {
            assert_eq!(ma.0, mb.0);
            assert_eq!(bits(&ma.1), bits(&mb.1));
            assert_eq!(ma.2.to_bits(), mb.2.to_bits());
        }
        assert_eq!(ta.failed, tb.failed);
        assert_eq!(ta.retries, tb.retries);
        assert_eq!(ta.samples.len(), tb.samples.len());
        for (sa, sb) in ta.samples.iter().zip(&tb.samples) {
            assert_eq!(sa.score.to_bits(), sb.score.to_bits());
            assert_eq!(bits(&sa.logfeats), bits(&sb.logfeats));
        }
        assert_eq!(ta.warm_hints, tb.warm_hints);
        assert_eq!(ta.sketch_modes(), tb.sketch_modes());
    }
}
