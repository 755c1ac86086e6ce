#!/usr/bin/env bash
# CI gate: release build, clippy and rustdoc with warnings denied, then the
# tier-1 line — `cargo test -q` at the root, which runs every crate's suite
# (the root manifest's `default-members` lists them all) — one crate at a
# time under a time budget, so each suite runs once. Then felix-cost's
# suite, the descent's unit tests, the pinned golden run and the pinned
# objectives once more built without AVX-512 (x86-64 hosts), so the cost
# model's portable kernels are the ones under test; the serve lifecycle suite again at
# one test thread, so a test that passes only while its siblings slow the
# daemon fails; the pinned golden run, the pinned objectives, the pinned
# serve results and the wire-protocol suite under the release profile, the
# ledger smoke, a check that no release
# binary calls libm `fmaf`, the CSV-reading half of the experiment harness
# against its committed outputs, the non-test line count, the
# `too_many_arguments` allow count (at most 3) and the count of items kept
# only for the frozen ledger. Nothing
# here may write a tracked file or leave an unignored one: `git status`
# must read the same at the end as at the start, or the script fails and
# prints the change.
# Everything is offline.
set -euo pipefail
cd "$(dirname "$0")/.."
status_before=$(git status --porcelain)

cargo build --release
cargo clippy --workspace --all-targets -- -D warnings
# Broken or private intra-doc links fail here, not in a reader's browser.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# The tier-1 suites, one crate at a time, each under a test-time budget: no
# single crate's suite may exceed 60s of wall-clock, so a regression fails
# CI rather than silently rotting back to multi-minute runs. Together they
# are exactly what `cargo test -q` runs. Test binaries are built first, so
# the loop measures execution, not compilation. Every named scenario —
# chaos tuning, kill-and-resume, descent supervision, the schedule cache,
# the serve crash/lifecycle harness (Unix-only) — runs here, once. The crate list is every package manifest in
# the workspace (the root package plus crates/*), so a new crate cannot
# slip past the budget.
cargo test -q --workspace --no-run
BUDGET_S=60
for manifest in Cargo.toml crates/*/Cargo.toml; do
    crate=$(sed -n '/^\[package\]/,/^\[/s/^name = "\(.*\)"$/\1/p' "$manifest")
    start=$SECONDS
    # libtest reports failures on stdout: held back while the suite
    # passes, printed when it fails.
    if ! out=$(cargo test -q -p "$crate"); then
        printf '%s\n' "$out"
        echo "FAIL: $crate test suite failed" >&2
        exit 1
    fi
    elapsed=$((SECONDS - start))
    echo "test-time $crate: ${elapsed}s"
    if [ "$elapsed" -gt "$BUDGET_S" ]; then
        echo "FAIL: $crate test suite took ${elapsed}s (budget ${BUDGET_S}s)" >&2
        exit 1
    fi
done

# The cost model's portable kernels, built as the only ones: where AVX-512F
# is on at compile time (the root `.cargo/config.toml` builds for the host
# CPU) the product runs 512-bit forward, backward and weight-gradient
# kernels, so felix-cost's parity tests, the `felix` library's unit tests
# (the descent's thread-parity tests, whose groups of every width then
# run the portable 4/2/1 sample blocks), the pinned golden run and the
# pinned objectives run once more for x86-64-v3 (AVX2 and FMA, no
# AVX-512), in their own target directory so the native artifacts stay
# fresh: the pinned bytes must hold end to end on the portable kernels
# too. Timed together against the same per-crate budget, execution only.
if [ "$(uname -m)" = x86_64 ]; then
    portable_suites=("-p felix-cost" "-p felix --lib" "-p felix-repro --test golden_run"
        "-p felix --test pinned_objectives")
    portable_test() {
        RUSTFLAGS="-C target-cpu=x86-64-v3" CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}/x86-64-v3" \
            cargo test -q "$@"
    }
    for suite in "${portable_suites[@]}"; do
        # shellcheck disable=SC2086 # each entry is several arguments
        portable_test $suite --no-run
    done
    start=$SECONDS
    for suite in "${portable_suites[@]}"; do
        # shellcheck disable=SC2086
        if ! out=$(portable_test $suite); then
            printf '%s\n' "$out"
            echo "FAIL: cargo test $suite failed for x86-64-v3" >&2
            exit 1
        fi
    done
    elapsed=$((SECONDS - start))
    echo "test-time portable kernels (x86-64-v3): ${elapsed}s"
    if [ "$elapsed" -gt "$BUDGET_S" ]; then
        echo "FAIL: the x86-64-v3 suites took ${elapsed}s (budget ${BUDGET_S}s)" >&2
        exit 1
    fi
fi

# The serve lifecycle suite once more, one test at a time: a test that
# passes only while sibling tests load the machine and slow the daemon (a job
# that must still be live after a fixed wait) fails here.
if ! out=$(cargo test -q -p felix-serve --test lifecycle -- --test-threads=1); then
    printf '%s\n' "$out"
    echo "FAIL: felix-serve lifecycle suite failed at one test thread" >&2
    exit 1
fi

# The pinned golden run, the pinned objectives and the pinned serve results
# once more under the release profile. Tests build five numeric crates
# (felix-expr among them) at opt-level 2 and the rest at 0, the ledger
# builds everything at release (opt-level 3); the pinned hashes must hold
# in both. The objective pin hashes every pool node the expression crate's
# constructors, smoothing and substitution build, and `cost_and_grad`'s
# bits through the tape kernels, so it holds those kernels to one result
# at both optimization levels. A resumed serve job pretrains its base
# model again instead of loading a copy, so both profiles must agree on
# every byte of a result. The wire-protocol suite too: stack frames differ between
# profiles, and so does the nesting depth at which a parse would overflow
# a handler thread's stack, and the daemon ships in release.
cargo test -q --release --test golden_run
cargo test -q --release -p felix --test pinned_objectives
cargo test -q --release -p felix-serve --test pinned_results
cargo test -q --release -p felix-serve --test protocol

# Ledger smoke: every benchmark workload, untraced then traced, CI-sized.
# Gates on the ledger's output checks only (`correct: true`, no failed
# operation: `threads_1_equals_threads_0`, `driver_equals_optimize_all`,
# `resume_then_rounds_equals_uninterrupted`, WAL replay, ...); timings are
# printed, never compared here.
bash benchmark/run.sh --smoke

# The experiments that read the committed Fig. 7 curves (and Fig. 4, which
# reads nothing) must rewrite their committed CSVs byte for byte. They run
# in a scratch output directory holding only a copy of those curves; Fig. 6
# finds every Felix number there, so it must pretrain no cost model.
harness_dir=$(mktemp -d)
trap 'rm -rf "$harness_dir"' EXIT
cp results/fig7_batch1.csv "$harness_dir/"
bench="${CARGO_TARGET_DIR:-target}/release/felix-bench"
for experiment in fig4 table1 table2; do
    "$bench" "$experiment" --out-dir "$harness_dir" >/dev/null
done
FELIX_FAST=1 "$bench" fig6 --out-dir "$harness_dir" >/dev/null
for csv in fig4_smoothing.csv table1_time_to_beat_vendors.csv table2a_speedups.csv \
    fig6_frameworks.csv; do
    if ! cmp "$harness_dir/$csv" "results/$csv"; then
        echo "FAIL: felix-bench rewrote results/$csv differently" >&2
        exit 1
    fi
done
if compgen -G "$harness_dir/model-*.bin" >/dev/null; then
    echo "FAIL: fig6 pretrained a cost model although every Felix curve was present" >&2
    exit 1
fi

# Every multiply-accumulate of the cost model is an `f32::mul_add`: one
# instruction where FMA is on at compile time, a call into libm's `fmaf`
# (several times slower, and skewing the ledger's machine-speed
# calibration) where it is not. The root `.cargo/config.toml`
# (`target-cpu=native`) turns it on, but only for cargo run from inside the
# checkout, so no release binary built here may carry the call.
for bin in $(find "${CARGO_TARGET_DIR:-target}/release" -maxdepth 1 -type f -perm -u+x); do
    if nm "$bin" 2>/dev/null | grep -q fmaf; then
        echo "FAIL: $bin calls libm fmaf: build with the root .cargo/config.toml" \
            "(target-cpu=native) in effect, from inside the checkout; without FMA" \
            "every multiply-accumulate of the product is a libm call" >&2
        exit 1
    fi
done

# Size of the product, for the next CHANGES.md entry to quote: lines of
# every .rs file under crates/ up to its first `#[cfg(test)]`, `tests/`
# directories excluded.
find crates -name '*.rs' -not -path '*/tests/*' -print0 \
    | xargs -0 awk 'FNR == 1 { in_tests = 0 }
                    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
                    !in_tests { n++ }
                    END { print "non-test lines under crates/: " n }'
# Printed beside the size, and gated: how many functions under crates/*/src
# still opt out of clippy's positional-argument limit. The three left are
# `felix_ansor::tune_task_round_with_sink`, `felix_ansor::tune_network_with_sink`
# and `felix_sim::Simulator::measure_outcome`, whose signatures the frozen
# ledger calls; a new one fails here.
MAX_ARG_ALLOWS=3
arg_allows=$(grep -rF '#[allow(clippy::too_many_arguments)]' crates/*/src | wc -l)
echo "too_many_arguments allows under crates/*/src: $arg_allows"
if [ "$arg_allows" -gt "$MAX_ARG_ALLOWS" ]; then
    echo "FAIL: $arg_allows too_many_arguments allows under crates/*/src (at most $MAX_ARG_ALLOWS)" >&2
    exit 1
fi
# Also printed, not gated: how many items under crates/*/src are kept only
# because the frozen benchmark ledger names them. Each carries the doc
# phrase below, so ROADMAP item 1 step B starts from this list.
echo "ledger-pinned items under crates/*/src: $(grep -rF 'Pinned by the frozen ledger' crates/*/src | wc -l)"

status_after=$(git status --porcelain)
if [ "$status_after" != "$status_before" ]; then
    echo "FAIL: the run changed git status (< before, > after):" >&2
    diff <(printf '%s\n' "$status_before") <(printf '%s\n' "$status_after") >&2 || true
    exit 1
fi
