#!/usr/bin/env bash
# One result set: every workload, RUNS times, each run with another seed.
#
#   bench/suite.sh OUT_DIR [RUNS] [flags for `e2e run`, e.g. --quick or --traced]
#
# Two sets of the same commit (or of a parent and a change) are then judged
# with `e2e compare BASE_DIR CANDIDATE_DIR`. Runs are sequential: one
# workload per process, nothing else on the box.
set -euo pipefail
out=${1:?usage: suite.sh OUT_DIR [RUNS] [run flags...]}
runs=${2:-1}
shift $(( $# < 2 ? $# : 2 ))
here=$(cd "$(dirname "$0")" && pwd)
target=${CARGO_TARGET_DIR:-$here/target}
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
mkdir -p "$out"
for i in $(seq 0 $((runs - 1))); do
  seed=$((20180521 + i))
  for workload in cpd_nell2 cpd_yelp refresh_stream serve_point serve_scan; do
    "$target/release/e2e" run --workload "$workload" --seed "$seed" \
      --out "$out/$workload-$seed.json" "$@" | tail -n 1
  done
done
