#!/usr/bin/env bash
# The "same program" check of ROADMAP.md's standing rules, for changes that
# must not change what the tuner computes. Compares the working tree (every
# tracked or unignored file, as it stands) against PARENT (default HEAD):
#
#   - traced ledger runs at seeds 1001-1003 on tune_resnet50, cold_ops and
#     persist_cycle, printed side by side on the eleven standing-rule
#     quantities (and each run's `correct` flag);
#   - the CSVs that `FELIX_FAST=1 felix-bench fig8|fig9|ablations` write into
#     fresh output directories, compared with cmp.
#
#   scripts/same_program.sh [PARENT]
#
# Both trees are copied, built (the ledger and the felix-bench binary)
# and run under one temporary directory, removed on exit; nothing under the
# repository is written. Exits 1 on any difference. Takes several minutes,
# so scripts/ci.sh does not run it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
parent="${1:-HEAD}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/parent" "$tmp/work"
git -C "$root" archive "$parent" | tar -x -C "$tmp/parent"
git -C "$root" ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do
        if [ -e "$root/$f" ]; then printf '%s\0' "$f"; fi
    done |
    tar -C "$root" --null -T - -cf - | tar -x -C "$tmp/work"

sides=(parent work)
for side in "${sides[@]}"; do
    echo "building $side" >&2
    export CARGO_TARGET_DIR="$tmp/$side-target"
    cargo build --release --offline --quiet --manifest-path "$tmp/$side/benchmark/Cargo.toml"
    cargo build --release --offline --quiet --manifest-path "$tmp/$side/Cargo.toml" \
        -p felix-bench --bin felix-bench
done
unset CARGO_TARGET_DIR

quantities=(correct sim.tuning_clock_s ansor.final_latency_ms core.candidates
    sim.measurements expr.tape_nodes expr.pool_nodes tir.sketches
    core.seed_restarts core.nonfinite_events records.store_bytes
    records.log_bytes_per_round)
status=0

# One line per (workload, seed, quantity): "workload seed quantity value".
for side in "${sides[@]}"; do
    for w in tune_resnet50 cold_ops persist_cycle; do
        for seed in 1001 1002 1003; do
            echo "ledger: $side $w seed $seed" >&2
            out="$tmp/$side-ledger/$w-$seed/out"
            (cd "$tmp/$side" && "$tmp/$side-target/release/felix-benchmark" \
                --workload "$w" --seed "$seed" --trace 1 --out-dir "$out" >/dev/null)
            jq -r --arg w "$w" --arg seed "$seed" '
                . as $doc
                | $ARGS.positional[]
                | [$w, $seed, ., (if . == "correct" then $doc.correct
                                  else $doc.metrics[.].value end)]
                | @tsv' "$out/$w.trace.json" --args "${quantities[@]}"
        done
    done >"$tmp/$side.tsv"
done
printf '%-14s %-5s %-28s %-24s %-24s\n' workload seed quantity parent work
paste "$tmp/parent.tsv" "$tmp/work.tsv" | awk -F'\t' '
    { mark = ($1 == $5 && $2 == $6 && $3 == $7 && $4 == $8) ? "" : "  DIFFERS" }
    { printf "%-14s %-5s %-28s %-24s %-24s%s\n", $1, $2, $3, $4, $8, mark }
    mark != "" { bad = 1 }
    END { exit bad }' || status=1

for side in "${sides[@]}"; do
    for experiment in fig8 fig9 ablations; do
        echo "figures: $side $experiment" >&2
        (cd "$tmp/$side" && FELIX_FAST=1 "$tmp/$side-target/release/felix-bench" \
            "$experiment" --out-dir "$tmp/$side-figures" >/dev/null)
    done
done
csvs=$(find "$tmp/parent-figures" "$tmp/work-figures" -name '*.csv' -printf '%f\n' | sort -u)
for csv in $csvs; do
    if cmp -s "$tmp/parent-figures/$csv" "$tmp/work-figures/$csv"; then
        echo "same     $csv"
    else
        echo "DIFFERS  $csv"
        status=1
    fi
done

if [ "$status" = 0 ]; then
    echo "same program: every quantity and CSV matches $parent"
else
    echo "NOT the same program as $parent" >&2
fi
exit "$status"
