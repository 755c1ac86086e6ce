//! Minimal scoped-thread work distribution for the parallel tuner.
//!
//! A crossbeam work-stealing pool is the reference shape for this, but the
//! workspace builds fully offline, so the same self-scheduling discipline is
//! implemented with std only: scoped workers pull task indices from one
//! shared atomic counter (stealing from a single global queue — equivalent
//! behaviour for the tuner's coarse, similar-sized tasks). Results land in
//! pre-allocated per-index slots, so the output order is deterministic
//! regardless of which worker ran which task.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Resolves a `threads` option: `0` means one worker per available core.
/// The core count is read once per process: `available_parallelism`
/// rereads the cgroup CPU quota files on every call (≈ 24 µs), and every
/// `propose` resolves its option.
pub fn effective_threads(threads: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    if threads == 0 {
        *CORES.get_or_init(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
    } else {
        threads
    }
}

/// Runs `f(i)` for every `i < n` on up to `threads` scoped workers and
/// returns the results in index order. With one worker (or one task) it
/// runs inline, with no thread or lock overhead — the serial and parallel
/// paths execute the same `f` on the same indices, so any `f` whose output
/// depends only on its index yields identical results at every thread
/// count.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.min(n).max(1);
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let out = f(i);
        *slots[i].lock().expect("result slot") = Some(out);
    };
    std::thread::scope(|s| {
        for _ in 0..threads - 1 {
            s.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot")
                .expect("every index was claimed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_index_order() {
        for threads in [1, 2, 4, 7] {
            let out = parallel_map(23, threads, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn handles_empty_and_excess_threads() {
        let empty: Vec<usize> = parallel_map(0, 8, |i| i);
        assert!(empty.is_empty());
        let one = parallel_map(1, 64, |i| i + 10);
        assert_eq!(one, vec![10]);
    }

    #[test]
    fn effective_threads_resolves_auto() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }

    #[test]
    fn workers_actually_run_concurrently() {
        use std::sync::atomic::AtomicUsize;
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        parallel_map(8, 4, |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(20));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) >= 2, "peak {}", peak.load(Ordering::SeqCst));
    }
}
