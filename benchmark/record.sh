#!/usr/bin/env bash
# Appends stamped records to benchmark/results/baseline.jsonl: SETS full
# sets of untraced runs (every workload, back to back), then one traced
# run of every workload, all at seed SEED. Each record carries the git
# revision of the measured sources, whether they differ from it, the
# core count, the rustc version, the build profile and the seed.
#
# Usage: bash benchmark/record.sh [SEED] [SETS]     (defaults: 1 2)
set -euo pipefail
cd "$(dirname "$0")/.."
seed=${1:-1}
sets=${2:-2}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-target}
out=benchmark/results/baseline.jsonl
mkdir -p "$(dirname "$out")"

rev=$(git rev-parse HEAD)
dirty=false
if [ -n "$(git status --porcelain -- Cargo.toml Cargo.lock crates src)" ]; then dirty=true; fi
stamp="\"rev\":\"$rev\",\"dirty\":$dirty,\"nproc\":$(nproc),\"rustc\":\"$(rustc -V)\",\"profile\":\"release\",\"seed\":$seed,\"run_seconds\":$seconds"

run() { # set trace workload
    local result
    result=$(cargo run --offline --quiet --release --manifest-path benchmark/Cargo.toml -- \
        --workload "$3" --seed "$seed" --seconds "$seconds" --trace "$2" | tail -n 1)
    echo "{$stamp,\"set\":$1,\"trace\":$2,\"workload\":\"$3\",\"result\":$result}" >> "$out"
    echo "recorded set $1 trace $2 $3" >&2
}

for set in $(seq 1 "$sets"); do
    for w in pipeline stream churn-uniform churn-expchain; do run "$set" 0 "$w"; done
done
for w in pipeline stream churn-uniform churn-expchain; do run 1 1 "$w"; done
