#!/usr/bin/env bash
# Everything a CI job for the benchmark runs (not yet wired into
# .github/workflows/ci.yml): format, lints, self-tests, and the whole suite
# at --quick sizes (<= 20 s; numbers marked non-comparable).
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
manifest="$here/Cargo.toml"
cargo fmt --manifest-path "$manifest" -- --check
cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --offline --quiet --manifest-path "$manifest"
"$here/suite.sh" "$here/out/ci" 1 --quick --traced
