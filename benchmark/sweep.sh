#!/bin/sh
# Appends <runs> untraced runs per workload, seeds <first-seed>.., to a result
# set that `odyssey-benchmark compare` reads. Run from the repository root.
# usage: benchmark/sweep.sh <out.jsonl> <first-seed> <runs> [workload...]
set -eu
out=$1 first=$2 runs=$3
shift 3
[ $# -gt 0 ] || set -- explore_cold serve_converged scan_large ingest_mix
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
for workload in "$@"; do
    i=0
    while [ "$i" -lt "$runs" ]; do
        cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
            --workload "$workload" --seed $((first + i)) --trace 0 --out "$out" >/dev/null
        i=$((i + 1))
    done
done
