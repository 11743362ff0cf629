#!/usr/bin/env bash
# Continuous-integration gate: formatting, lints, release build, tests.
#
# Mirrors what a PR must pass locally. The wedge-detection test
# (tests/cross_crate.rs::wedged_network_surfaces_as_stalled_error) rides
# in the tier-1 `cargo test` step, so a hung-network regression fails CI
# with a HealthReport dump instead of a timeout.
#
# Usage: scripts/ci.sh [extra cargo args...]
# CARGO=... overrides the cargo invocation (e.g. a wrapper that adds
# --offline and local registry patches on air-gapped builders).

set -euo pipefail
cd "$(dirname "$0")/.."

CARGO=${CARGO:-cargo}

echo "==> cargo fmt --check"
$CARGO fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
$CARGO clippy --workspace --all-targets "$@" -- -D warnings

echo "==> one tick loop (no in-tick sharding left, no threads under noc/core)"
# What survives of in-tick sharding is three inert stubs benchmark/ still
# calls — Network::set_shards and the `_shards` of SimSession::new and
# SimSession::resume — each one definition line and one doc line.
stubs='^crates/(noc/src/network|system/src/checkpoint)\.rs:[0-9]+: *(/// .*`core\.shard\.\*` drops it|pub fn set_shards\(&mut self, _shards: usize\) \{\}$|_shards: usize,$)'
found=$(grep -rni --include='*.rs' shard crates src tests examples || true)
if [ "$(grep -c . <<< "$found")" -ne 6 ] || grep -v -E "$stubs" <<< "$found"; then
  echo "FAIL: expected exactly the three stubs to mention sharding, found:"; echo "$found"; exit 1
fi
if grep -rn 'thread::\(scope\|spawn\)' crates/noc crates/core; then
  echo "FAIL: crates/noc and crates/core must not spawn threads"; exit 1
fi

echo "==> one environment (only crates/bench/src/env.rs reads it)"
# Tests (crates/*/tests, tests/) keep RC_UPDATE_GOLDEN; nothing else may.
if grep -rn 'env::var' crates/*/src src examples | grep -v '^crates/bench/src/env\.rs:'; then
  echo "FAIL: the process environment is read outside crates/bench/src/env.rs"; exit 1
fi

echo "==> state is the snapshot (DESIGN.md §15: only the three containers compose one)"
mirrors=$(grep -rnE 'struct \w+Snapshot|Portable(Event|Kind)' crates/*/src \
  | grep -vE 'struct (Session|Chip|Network)Snapshot\b' || true)
[ -z "$mirrors" ] || { echo "FAIL: a mirror *Snapshot struct or a Portable* twin is back:"; echo "$mirrors"; exit 1; }

echo "==> one record per packet (DESIGN.md §9: a flit is a Copy handle into the packet table)"
old=$(grep -rnE '(Hash|State)Map<PacketId|payloads: StateMap|struct Head\b' crates/*/src || true)
boxed=$(sed -n '/^pub struct Flit {/,/^}/p' crates/noc/src/flit.rs | grep 'Box<' || true)
[ -z "$old$boxed" ] || { echo "FAIL: a per-packet map, a flit header or a boxed flit field is back:"; echo "$old$boxed"; exit 1; }
grep -q 'const _: () = assert!(std::mem::size_of::<Flit>() <= 16);' crates/noc/src/flit.rs \
  && grep -q 'copy::<Flit>();' crates/noc/src/flit.rs \
  || { echo "FAIL: crates/noc/src/flit.rs lost its size or Copy assertion on Flit"; exit 1; }

echo "==> flat cache arrays (DESIGN.md §15: memory grows with resident lines, not modelled capacity)"
# Up to the test module, where the old array lives on as the oracle.
flat=$(sed '/^#\[cfg(test)\]$/,$d' crates/protocol/src/cache.rs)
if grep -nE 'Vec<Vec<|Vec<Option<Line|struct (Set|Line)\b' <<< "$flat"; then
  echo "FAIL: a per-set or per-line allocation is back in crates/protocol/src/cache.rs"; exit 1
fi
grep -q '^#!\[forbid(unsafe_code)\]$' crates/protocol/src/lib.rs \
  || { echo "FAIL: crates/protocol/src/lib.rs lost forbid(unsafe_code)"; exit 1; }

echo "==> cargo build --release"
$CARGO build --release "$@"

echo "==> cargo test (tier-1)"
$CARGO test -q "$@"

echo "==> cargo test --workspace"
$CARGO test --workspace "$@"

echo "==> bench telemetry smoke (traced fig6 + summary validation)"
# A tiny traced fig6 run must emit its machine-readable summary and a
# Chrome trace; validate_bench then checks every BENCH_*.json written so
# far against scripts/bench_schema.json. Summaries predating the current
# BENCH_SCHEMA_VERSION would fail that scan spuriously, so start clean.
rm -f target/experiments/BENCH_*.json
RC_APPS=blackscholes RC_CYCLES=2000 RC_WARMUP=1000 RC_SMALL_CACHES=1 \
  RC_CORES=16 RC_MAX_CYCLES=10000 \
  $CARGO run --release -q -p rcsim-bench --bin fig6 "$@" > /dev/null
test -s target/experiments/BENCH_fig6.json
test -s target/experiments/fig6_trace.json
$CARGO run --release -q -p rcsim-bench --bin validate_bench "$@"

echo "==> typo gate (an unknown RC_* name or an unparsable value exits 2, simulates nothing)"
rm -f target/experiments/BENCH_fig6.json
for typo in RC_KERNAL=dense RC_CYCLES=20k; do
  status=0
  env "$typo" target/release/fig6 > /dev/null 2> target/experiments/ci_typo.log || status=$?
  if [ "$status" -ne 2 ] || ! grep -q "${typo%%=*}" target/experiments/ci_typo.log \
      || [ -e target/experiments/BENCH_fig6.json ]; then
    echo "FAIL: $typo target/release/fig6 must exit 2 naming the variable (exit $status)"; exit 1
  fi
done

echo "==> parallel sweep smoke (RC_JOBS determinism, cache, speedup)"
# BENCH rows are byte-identical for any worker count — only the telemetry
# fields (wall_ms/busy_ms/jobs/cached_points) may differ — and a cache-warm
# rerun serves every point from disk. On runners with >= 4 cores the
# 4-worker sweep must also be at least 1.5x faster than the serial one.
smoke=(RC_APPS=blackscholes RC_CYCLES=2000 RC_WARMUP=1000
       RC_SMALL_CACHES=1 RC_CORES=16 RC_MAX_CYCLES=10000)
cache_dir=target/experiments/cache-ci
rm -rf "$cache_dir"
strip_telemetry() {
  grep -v -E '"(wall_ms|busy_ms|jobs|cached_points)"' "$1"
}
telemetry() {
  awk -F': ' -v key="\"$2\"" '$1 ~ key {gsub(/,/, "", $2); print $2; exit}' "$1"
}

env "${smoke[@]}" RC_JOBS=1 RC_NO_CACHE=1 \
  $CARGO run --release -q -p rcsim-bench --bin fig6 "$@" > /dev/null 2> /dev/null
cp target/experiments/BENCH_fig6.json target/experiments/ci_fig6_serial.json

env "${smoke[@]}" RC_JOBS=4 RC_CACHE_DIR="$cache_dir" \
  $CARGO run --release -q -p rcsim-bench --bin fig6 "$@" > /dev/null 2> /dev/null
cp target/experiments/BENCH_fig6.json target/experiments/ci_fig6_parallel.json

diff <(strip_telemetry target/experiments/ci_fig6_serial.json) \
     <(strip_telemetry target/experiments/ci_fig6_parallel.json) \
  || { echo "FAIL: BENCH_fig6.json rows differ between RC_JOBS=1 and RC_JOBS=4"; exit 1; }

serial_ms=$(telemetry target/experiments/ci_fig6_serial.json wall_ms)
parallel_ms=$(telemetry target/experiments/ci_fig6_parallel.json wall_ms)
echo "    serial ${serial_ms} ms, 4 workers ${parallel_ms} ms ($(nproc) cores)"
if [ "$(nproc)" -ge 4 ]; then
  awk -v s="$serial_ms" -v p="$parallel_ms" 'BEGIN { exit !(s > 1.5 * p) }' \
    || { echo "FAIL: expected > 1.5x sweep speedup with RC_JOBS=4 on a $(nproc)-core runner"; exit 1; }
fi

env "${smoke[@]}" RC_JOBS=4 RC_CACHE_DIR="$cache_dir" \
  $CARGO run --release -q -p rcsim-bench --bin fig6 "$@" > /dev/null 2> /dev/null
cached=$(telemetry target/experiments/BENCH_fig6.json cached_points)
[ "${cached:-0}" -gt 0 ] \
  || { echo "FAIL: cache-warm rerun recomputed every point (cached_points=$cached)"; exit 1; }
echo "    cache-warm rerun served $cached points from $cache_dir"
$CARGO run --release -q -p rcsim-bench --bin validate_bench "$@"

echo "==> dense-vs-event kernel smoke (RC_KERNEL byte-identity on fig6 rows)"
# The same quick grid, run once per kernel, must emit byte-identical
# BENCH rows. RC_NO_CACHE=1 is load-bearing — the disk cache keys on
# SimConfig, which deliberately excludes RC_KERNEL, so a cache hit would
# compare a result with itself — and so is the check that the dense run's
# per-point `[sweep …]` lines name the dense kernel: a diff of the event
# kernel with itself passes. Leaves ci_<bin>_{dense,event}.json behind.
kernel_smoke() {
  local bin=$1 k; shift
  for k in dense event; do
    env "${smoke[@]}" RC_JOBS=1 RC_NO_CACHE=1 RC_KERNEL=$k \
      $CARGO run --release -q -p rcsim-bench --bin "$bin" "$@" \
      > /dev/null 2> "target/experiments/ci_${bin}_$k.log"
    cp "target/experiments/BENCH_$bin.json" "target/experiments/ci_${bin}_$k.json"
  done
  if ! grep -q '^\[sweep .*(Dense kernel)$' "target/experiments/ci_${bin}_dense.log" \
      || grep -q '^\[sweep .*(Event kernel)$' "target/experiments/ci_${bin}_dense.log"; then
    echo "FAIL: RC_KERNEL=dense $bin did not run every point under the dense kernel"; exit 1
  fi
  diff <(strip_telemetry "target/experiments/ci_${bin}_dense.json") \
       <(strip_telemetry "target/experiments/ci_${bin}_event.json") \
    || { echo "FAIL: BENCH_$bin.json rows differ between RC_KERNEL=dense and RC_KERNEL=event"; exit 1; }
}
kernel_smoke fig6 "$@"

echo "==> resilience smoke (dead links: every mechanism, kernel/jobs invariance)"
# Permanent-fault gate (DESIGN.md §10). The resilience test suite proves
# every Figure-6 mechanism completes — nothing stalled, nothing abandoned —
# with a permanently dead interior link; the resilience bench (degradation
# sweep + mid-run-onset recovery, with its own zero-abandoned asserts) must
# then emit byte-identical rows for any worker count and either kernel.
$CARGO test -q -p rcsim-system --test resilience "$@"
kernel_smoke resilience "$@"
env "${smoke[@]}" RC_JOBS=4 RC_NO_CACHE=1 \
  $CARGO run --release -q -p rcsim-bench --bin resilience "$@" > /dev/null 2> /dev/null
diff <(strip_telemetry target/experiments/ci_resilience_event.json) \
     <(strip_telemetry target/experiments/BENCH_resilience.json) \
  || { echo "FAIL: BENCH_resilience.json rows differ between RC_JOBS=1 and RC_JOBS=4"; exit 1; }
$CARGO run --release -q -p rcsim-bench --bin validate_bench "$@"

echo "==> overload smoke (open-loop saturation: conservation, kernel/jobs invariance)"
# Overload gate (DESIGN.md §11). The open_loop test suite proves
# conservation (offered == completed + shed + gave_up + in_flight, zero
# unaccounted) below and past saturation, with admission on and off, and
# dense/event byte-identity on open-loop runs. The overload bench — with
# per-point conservation, termination and queue-bound asserts baked in —
# must then emit byte-identical rows for either kernel and any worker count.
$CARGO test -q -p rcsim-system --test open_loop "$@"
kernel_smoke overload "$@"
env "${smoke[@]}" RC_JOBS=4 RC_NO_CACHE=1 \
  $CARGO run --release -q -p rcsim-bench --bin overload "$@" > /dev/null 2> /dev/null
diff <(strip_telemetry target/experiments/ci_overload_event.json) \
     <(strip_telemetry target/experiments/BENCH_overload.json) \
  || { echo "FAIL: BENCH_overload.json rows differ between RC_JOBS=1 and RC_JOBS=4"; exit 1; }
$CARGO run --release -q -p rcsim-bench --bin validate_bench "$@"

echo "==> topology smoke (mesh/torus/cmesh/ring circuit sweep, deadlock-freedom)"
# Topology gate (DESIGN.md §12). A small closed-loop sweep over every
# topology shape at 64 cores: every point must drain to quiescence with
# zero abandoned packets (asserted inside the bench — the wraparound
# dateline correctness check), rows must be byte-identical across reruns,
# and the summary must validate against the schema.
RC_TOPO_CYCLES=600 RC_TOPO_CORES=64 \
  $CARGO run --release -q -p rcsim-bench --bin topology "$@" > /dev/null
test -s target/experiments/BENCH_topology.json
cp target/experiments/BENCH_topology.json target/experiments/ci_topology_a.json
RC_TOPO_CYCLES=600 RC_TOPO_CORES=64 \
  $CARGO run --release -q -p rcsim-bench --bin topology "$@" > /dev/null
diff <(strip_telemetry target/experiments/ci_topology_a.json) \
     <(strip_telemetry target/experiments/BENCH_topology.json) \
  || { echo "FAIL: BENCH_topology.json rows differ between identical reruns"; exit 1; }
$CARGO run --release -q -p rcsim-bench --bin validate_bench "$@"

echo "==> adaptive policy smoke (static-vs-adaptive rows, off-path byte-identity)"
# Adaptive-policy gate (DESIGN.md §14). The differential suite proves
# the policy hooks are invisible with `adaptive` off (traced, under both
# kernels, on mesh and torus) and deterministic with it on; the property
# suite pins the region map, the controller's hysteresis/dwell algebra
# and the teardown conservation law. The adaptive bench then asserts
# internally that, under phased hotspot salvos, the adaptive row beats the
# best static row on p99 RTT or foreground goodput while actually
# switching; the rows are echoed here so a CI log shows the margin.
# Finally, an off-path re-check: a fresh RC_NO_CACHE=1 fig6 run after
# the policy layer has been exercised must still match the serial rows
# from the sweep smoke bit for bit (RC_NO_CACHE=1 is load-bearing —
# `adaptive` is skip-serialized when off, so a cache hit would compare
# a pre-adaptive row with itself).
$CARGO test -q -p rcsim-system --test adaptive_diff "$@"
$CARGO test -q -p rcsim-core --test policy_props "$@"
$CARGO run --release -q -p rcsim-bench --bin adaptive "$@" > /dev/null
test -s target/experiments/BENCH_adaptive.json
grep -E '"(label|p99_latency|goodput)"' target/experiments/BENCH_adaptive.json \
  | sed 's/^ */    /'
$CARGO run --release -q -p rcsim-bench --bin validate_bench "$@"
env "${smoke[@]}" RC_JOBS=1 RC_NO_CACHE=1 \
  $CARGO run --release -q -p rcsim-bench --bin fig6 "$@" > /dev/null 2> /dev/null
diff <(strip_telemetry target/experiments/ci_fig6_serial.json) \
     <(strip_telemetry target/experiments/BENCH_fig6.json) \
  || { echo "FAIL: adaptive-off BENCH_fig6.json rows drifted after the adaptive smoke"; exit 1; }

echo "==> kernel/link/packet-table/power/traffic differential suites"
# Dense vs event, the link-sink suite (emission order under link faults,
# DESIGN.md §9), the packet table under faults and the zero-allocation tick.
$CARGO test -q -p rcsim-system --test kernel_diff "$@"
$CARGO test -q -p rcsim-noc --test direct_links "$@"
for jobs in 1 4; do
  RC_JOBS=$jobs $CARGO test -q -p rcsim-noc --test packet_table --test steady_state_allocs "$@"
done
$CARGO test -q -p rcsim-power "$@"
$CARGO test -q -p rcsim-noc --test traffic_patterns "$@"

echo "==> cache arrays in release (oracle proptest, geometry, footprint law)"
# Shifts, masks and `as` casts behave alike in both profiles only if no
# debug assertion was doing the work; the footprint law (allocations,
# file size, resume on paper-size caches) is stated for release builds.
$CARGO test --release -q -p rcsim-protocol "$@"
$CARGO test --release -q --test footprint "$@"

echo "==> checkpoint smoke (kill-and-resume byte-identity, corrupt-file clean miss)"
# Crash-resilience gate (DESIGN.md §15). The differential suite proves
# save/restore byte-identity — result, trace and state — at forced and
# drawn split cycles across kernels, topologies, faults, overload and
# adaptive runs, and that the resumable driver's result is run_sim's.
# Then the crash drill: a checkpointed fig6 sweep is SIGKILLed mid-run
# (the bench binary directly — killing a `cargo run` wrapper would orphan
# the simulator), half of the checkpoints it left are corrupted, and the
# rerun must finish from what survives with rows byte-identical to an
# uncheckpointed reference: a corrupt or stale checkpoint is a clean miss.
# Finally rcsim-replay must reject every stale-version checkpoint.
$CARGO test -q -p rcsim-system --test checkpoint_diff "$@"
ckpt_smoke=(RC_APPS=blackscholes RC_CYCLES=8000 RC_WARMUP=2000
            RC_SMALL_CACHES=1 RC_CORES=16 RC_MAX_CYCLES=40000
            RC_JOBS=1 RC_NO_CACHE=1)
ckpt_dir=target/experiments/ckpt-ci
rm -rf "$ckpt_dir"
env "${ckpt_smoke[@]}" \
  $CARGO run --release -q -p rcsim-bench --bin fig6 "$@" > /dev/null 2> /dev/null
cp target/experiments/BENCH_fig6.json target/experiments/ci_fig6_nockpt.json
env "${ckpt_smoke[@]}" RC_CKPT_DIR="$ckpt_dir" RC_CKPT_INTERVAL=500 \
  target/release/fig6 > /dev/null 2> /dev/null &
victim=$!
sleep 0.4
kill -9 "$victim" 2> /dev/null || true
wait "$victim" 2> /dev/null || true
echo "    SIGKILLed sweep left $(find "$ckpt_dir" -name '*.ckpt' 2> /dev/null | wc -l) checkpoint(s) in $ckpt_dir"
i=0
for f in "$ckpt_dir"/*.ckpt; do
  [ -e "$f" ] || continue
  if [ $((i % 2)) -eq 0 ]; then printf 'garbage' >> "$f"; fi
  i=$((i + 1))
done
env "${ckpt_smoke[@]}" RC_CKPT_DIR="$ckpt_dir" RC_CKPT_INTERVAL=500 \
  $CARGO run --release -q -p rcsim-bench --bin fig6 "$@" > /dev/null 2> /dev/null
diff <(strip_telemetry target/experiments/ci_fig6_nockpt.json) \
     <(strip_telemetry target/experiments/BENCH_fig6.json) \
  || { echo "FAIL: BENCH_fig6.json rows differ after a SIGKILLed checkpointed sweep resumed"; exit 1; }
if find "$ckpt_dir" -name '*.ckpt' | grep -q .; then
  echo "FAIL: completed sweep left checkpoints behind in $ckpt_dir"; exit 1
fi
mkdir -p "$ckpt_dir"
# Every earlier version (v5, the per-set cache arrays, is the newest of
# them), with the checksum of its "{}": only the version rejects it.
current=$(sed -n 's/^pub const CHECKPOINT_FORMAT_VERSION: u32 = \([0-9]*\);$/\1/p' crates/system/src/checkpoint.rs)
for v in $(seq 0 $((${current:?CHECKPOINT_FORMAT_VERSION not found} - 1))); do
  stale="$ckpt_dir/stale_v$v.ckpt"; printf 'rcsim-checkpoint v%s 08f44b07b5901a25\n{}' "$v" > "$stale"
  if $CARGO run --release -q -p rcsim-bench --bin rcsim-replay "$stale" > /dev/null 2> /dev/null; then
    echo "FAIL: rcsim-replay accepted the stale-version checkpoint $stale"; exit 1
  fi
done

echo "==> canonical benchmark gate (benchmark/check.sh + full-size drift check)"
# benchmark/ is a package of its own (own workspace and lock file), so
# nothing above builds, lints or tests it; check.sh is its gate. It
# refuses to run under RC_* variables, as perf itself does — none is
# exported here, and none is unset: a caller who exports one is told.
# Then every workload runs once at full size at the seed of
# benchmark/expected.json: a DRIFT line means simulated behaviour moved
# (a latency, an exact count or the result fingerprint), which a
# speed-only change must never do — caught here rather than by the
# acceptance driver.
benchmark/check.sh
perf_out=$($CARGO run --release --offline -q --manifest-path benchmark/Cargo.toml -- \
  --seed 1 --seconds 1) || { echo "$perf_out"; echo "FAIL: perf exited non-zero"; exit 1; }
grep -E '^(== |sim_cycles_per_s|FAILED|DRIFT)' <<< "$perf_out" | sed 's/^/    /'
if grep -q -E '^(DRIFT|FAILED)' <<< "$perf_out"; then
  echo "FAIL: simulated results differ from benchmark/expected.json (or a rep failed)"; exit 1
fi

echo "==> non-test lines per crate (src/**/*.rs up to each file's #[cfg(test)] mod)"
for crate in crates/*/; do
  find "${crate}src" -name '*.rs' -print0 | xargs -0 awk -v crate="$(basename "$crate")" '
    FNR == 1 { skip = 0; held = 0 }
    skip { next }
    held { held = 0; if ($0 ~ /^mod /) { skip = 1; next } n++ }
    /^#\[cfg\(test\)\]$/ { held = 1; next }
    { n++ }
    END { printf "    %-10s %6d\n", crate, n; }'
done

echo "CI gate passed."
