#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, clippy with warnings denied.
# Everything is offline; no network access is needed.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings

# Per-crate test-time budget: no single crate's suite may exceed 60s of
# wall-clock. This keeps the workspace suite honest after the test-speed
# overhaul (shared pretrained models, shrunk corpora, debug-opt numeric
# crates); a regression past the budget fails CI rather than silently
# rotting back to multi-minute runs. Binaries are already built by the
# `cargo test -q` above, so this re-run measures execution, not compilation.
BUDGET_S=60
for crate in felix-egraph felix-expr felix-tir felix-graph felix-features \
             felix-sim felix-cost felix-records felix-ansor felix felix-bench \
             felix-repro felix-serve; do
    start=$SECONDS
    cargo test -q -p "$crate" >/dev/null
    elapsed=$((SECONDS - start))
    echo "test-time $crate: ${elapsed}s"
    if [ "$elapsed" -gt "$BUDGET_S" ]; then
        echo "FAIL: $crate test suite took ${elapsed}s (budget ${BUDGET_S}s)" >&2
        exit 1
    fi
done

# Chaos smoke: tune a tiny network end-to-end with 10-30% injected
# measurement failures. Asserts the run never panics, completes every round,
# converges to a finite latency, keeps failed samples out of the fine-tuning
# buffer, and respects the retry bound. The zero-fault bit-identity guarantee
# is exercised right next to it.
cargo test -q -p felix --test fault_tolerance chaos_tuning_converges_without_panicking
cargo test -q -p felix --test fault_tolerance zero_fault_plan_is_byte_identical_to_unconfigured_optimizer

# Resume smoke: checkpoint a tuning run every round, kill it halfway, resume
# from disk, and byte-compare the concatenated time-vs-latency curve against
# an uninterrupted run — at 1 and 4 tuner threads (the test loops over both).
# Store-disabled parity (empty record log bit-identical at 1/2/4 threads) and
# crash-truncated log recovery run alongside.
cargo test -q -p felix --test persistence resume_from_checkpoint_matches_uninterrupted_curve
cargo test -q -p felix --test persistence empty_record_log_is_bit_identical_at_every_thread_count
cargo test -q -p felix-records --test log_recovery

# Supervision smoke: the descent supervisor must be invisible on a healthy
# run (supervision-on candidates/curves/tasks byte-identical to
# supervision-off at 1, 2, and 4 tuner threads) and must carry a NaN-flooded
# cost model to completion — finite curve, restarted seeds, degraded
# sketches, no panic.
cargo test -q -p felix --test supervision supervision_on_is_bit_identical_to_supervision_off
cargo test -q -p felix --test supervision nan_cost_model_run_degrades_and_completes

# Tape-equivalence + SIMD-parity smoke: asserts the batched compiled tape
# (transposed feature seeding, batched penalty seeding, fused reverse sweep)
# is bit-identical per lane to both the batch-of-one tape and the
# pool-walking objective oracle at batch sizes 1/7/8/9/16/17 — spanning a
# partial-lane remainder around every monomorphized SIMD width (no timing
# claims in CI). The same binary re-checks supervision on/off candidate
# parity on the healthy path. The lane-remainder sweep also runs as a unit
# test over random DAGs at every batch size 1..=17.
TUNER_BENCH_SMOKE=1 FELIX_FAST=1 cargo run -q --release -p felix-bench --bin tuner_bench
cargo test -q -p felix-expr --test tape_equivalence every_lane_remainder_matches_scalar_bitwise

# Tape-cache smoke: cache-on tuning bit-identical to cache-off at 1/2/4
# threads, a warm second optimizer serving every objective from the cache,
# and a sketch-generator bump evicting (never serving) stale tapes.
cargo test -q -p felix --test tape_cache

# Schedule-cache smoke: tune a network against a store, kill the run, and
# re-tune the same network against the same store — the second run's
# time-to-first-schedule must be an exact cache hit served with zero
# measurement budget and zero RNG draws (asserted by the test and by the
# bench binary). Empty-store parity (1/2/4 threads), warm-start determinism,
# and kill-and-resume with a store attached run alongside; the bench binary
# re-checks the hit/warm/cold split end-to-end and writes BENCH_cache.json.
cargo test -q -p felix --test cache exact_hit_serves_schedule_without_rng_or_clock
cargo test -q -p felix --test cache empty_schedule_store_is_bit_identical_at_every_thread_count
cargo test -q -p felix --test cache warm_start_from_structural_near_miss_is_deterministic
cargo test -q -p felix --test cache kill_and_resume_with_store_attached_stays_byte_identical
TUNER_BENCH_SMOKE=1 FELIX_FAST=1 cargo run -q --release -p felix-bench --bin cache_bench

# Stale-cache smoke: flip every stored schedule's sketch-generator
# fingerprint on disk and re-attach — stale entries must be skipped and
# counted (never served), and the re-tune must be bit-identical to a
# storeless run.
cargo test -q -p felix --test cache stale_generator_entries_are_clean_misses_and_retuned

# Serve smoke: the tuning daemon end to end. Wire-protocol round-trips and
# hostile-input rejection; cross-tenant fairness plus single-job
# equivalence with the in-process optimize_all path; and the kill/chaos
# harness — SIGKILL the daemon mid-job at a seeded-random instant, restart
# on the same data directory, and byte-compare final results and WAL
# replay against an uninterrupted run. Crash tests are Unix-only and
# honor FELIX_SKIP_CRASH_TESTS=1 on platforms without SIGKILL semantics.
cargo test -q -p felix-serve --test protocol
cargo test -q -p felix-serve --test fairness
cargo test -q -p felix-serve --test crash_resume

# Lifecycle smoke: the job state machine under the same chaos harness.
# Cancellation and deadline expiry stay byte-deterministic across a
# SIGKILL sweep (kills land mid-cancel/mid-expiry); a poison job that
# crashes its worker three times is parked `quarantined` durably — across
# restarts — while healthy tenants keep completing; a full queue and an
# exhausted tenant quota reject with typed errors and leave the WAL
# untouched; SIGTERM drains gracefully (exit 0, no accepted job lost);
# and compaction rewrites the WAL to canonical form without changing any
# served result. Same Unix-only / FELIX_SKIP_CRASH_TESTS gates as above.
cargo test -q -p felix-serve --test lifecycle chaos_sweep_cancel_expiry_and_completion_are_byte_deterministic
cargo test -q -p felix-serve --test lifecycle poison_jobs_are_quarantined_while_healthy_tenants_keep_running
cargo test -q -p felix-serve --test lifecycle admission_control_rejects_without_touching_the_wal
cargo test -q -p felix-serve --test lifecycle sigterm_drains_gracefully_and_loses_no_accepted_job
cargo test -q -p felix-serve --test lifecycle compaction_shrinks_the_wal_to_canonical_form_and_keeps_results_served

# Ledger smoke: every benchmark workload, untraced then traced, CI-sized.
# Gates on the ledger's output checks only (`correct: true`, no failed
# operation: `threads_1_equals_threads_0`, `driver_equals_optimize_all`,
# `resume_then_rounds_equals_uninterrupted`, WAL replay, ...); timings are
# printed, never compared here.
bash benchmark/run.sh --smoke
