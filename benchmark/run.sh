#!/usr/bin/env bash
# The performance ledger's one command. Builds felix-benchmark (release,
# offline) and runs it, one process per workload.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the result JSON
#   benchmark/run.sh [--smoke] [--seed N] [--seconds S] [--twice]
#       every workload, untraced then traced; prints every metric by name
#       with its unit, runs every output check, collects the run documents
#       into benchmark/out/set_<label>.jsonl; --twice does it all twice and
#       compares the two sets
#   benchmark/run.sh compare A.jsonl B.jsonl
#       per workload x end-to-end metric: difference against the bound;
#       exits 1 on a breach
set -euo pipefail

invoked_from="$PWD"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# Build into the root workspace's target/ unless told otherwise. Cargo
# fingerprints this workspace separately, so the crates are compiled once
# more there; the two sets of artifacts coexist.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$invoked_from/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/felix-benchmark"

export FELIX_BENCH_COMMIT="${FELIX_BENCH_COMMIT:-$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)}"
export FELIX_BENCH_DATE="${FELIX_BENCH_DATE:-$(date -u +%Y-%m-%dT%H:%M:%SZ)}"

if [ "${1:-}" = "compare" ]; then
    shift
    # Paths on the command line are relative to where the user stood.
    args=()
    for p in "$@"; do
        case "$p" in /*) args+=("$p") ;; *) args+=("$invoked_from/$p") ;; esac
    done
    exec "$bin" compare "${args[@]}"
fi

single=0
twice=0
pass=()
for arg in "$@"; do
    case "$arg" in
        --workload) single=1; pass+=("$arg") ;;
        --twice) twice=1 ;;
        *) pass+=("$arg") ;;
    esac
done

if [ "$single" = 1 ]; then
    exec "$bin" ${pass[@]+"${pass[@]}"}
fi

out="$here/out"
mkdir -p "$out"

# One full set: every workload untraced (end-to-end metrics), then traced
# (per-layer metrics, span file, self-time table).
run_set() {
    local set="$out/set_$1.jsonl" w trace doc
    : >"$set"
    for w in tune_resnet50 cold_ops persist_cycle serve_mixed; do
        for trace in 0 1; do
            "$bin" --workload "$w" --trace "$trace" ${pass[@]+"${pass[@]}"} | sed '$d'
            doc="$out/$w.json"
            [ "$trace" = 1 ] && doc="$out/$w.trace.json"
            cat "$doc" >>"$set"
            if ! grep -q '"correct":true' "$doc"; then
                echo "benchmark/run.sh: $w (trace $trace) failed its output checks" >&2
                return 1
            fi
        done
    done
    echo "run documents: $set" >&2
}

started=$SECONDS
run_set a
if [ "$twice" = 1 ]; then
    run_set b
    "$bin" compare "$out/set_a.jsonl" "$out/set_b.jsonl"
fi
echo "benchmark/run.sh: done in $((SECONDS - started)) s" >&2
