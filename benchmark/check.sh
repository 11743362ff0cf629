#!/usr/bin/env bash
# The benchmark's own gate (scripts/ci.sh does not know about this
# package): format, lints, build, unit and CLI tests (which include the
# names-match check against BENCHMARK.json and a --quick run of every
# workload in both passes), then a --quick end-to-end pass.
set -euo pipefail
cd "$(dirname "$0")"

for var in $(compgen -e | grep '^RC_' || true); do
    echo "check.sh: unset $var first (perf refuses to run under RC_* variables)" >&2
    exit 2
done

cargo fmt --check
cargo clippy --offline --release --all-targets -- -D warnings
cargo build --offline --release
cargo test --offline --release -q
cargo run --offline --release -q -- --quick
echo "benchmark/check.sh: ok"
