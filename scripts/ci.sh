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

echo "==> state is the snapshot (DESIGN.md §13: only the three containers compose one, through one trait)"
mirrors=$(grep -rnE 'struct \w+Snapshot|Portable(Event|Kind)' crates/*/src \
  | grep -vE 'struct (Session|Chip|Network)Snapshot\b' || true)
[ -z "$mirrors" ] || { echo "FAIL: a mirror *Snapshot struct or a Portable* twin is back:"; echo "$mirrors"; exit 1; }
# Up to each file's test module, a component snapshots and restores only
# inside an `impl Stateful for` block (or through `stateful!`, defined in
# crates/core/src/state.rs); besides, only the roots' inherent methods and
# the trace ring's own pair.
roots='^crates/(noc/src/network|system/src/chip)\.rs:[0-9]+:     pub fn (snapshot\(&self\) -> (Network|Chip)Snapshot|restore\(&mut self, snap: &(Network|Chip)Snapshot\)) \{$'
pairs=$(find crates/*/src -name '*.rs' ! -path crates/core/src/state.rs \
    ! -path crates/trace/src/sink.rs ! -path crates/trace/src/ring.rs -print0 | xargs -0 awk '
  FNR == 1 { skip = 0; inside = 0 }
  skip { next }
  /^#\[cfg\(test\)\]$/ { getline; if ($0 ~ /^mod /) skip = 1; next }
  /^impl Stateful for / { inside = 1 }
  inside && /^}$/ { inside = 0 }
  !inside && /fn (snapshot|restore)\(/ { print FILENAME ":" FNR ": " $0 }' | grep -vE "$roots" || true)
[ -z "$pairs" ] || { echo "FAIL: a snapshot/restore pair outside the Stateful trait is back:"; echo "$pairs"; exit 1; }

echo "==> one record per packet (DESIGN.md §9: a flit is a Copy handle into the packet table)"
old=$(grep -rnE '(Hash|State)Map<PacketId|payloads: StateMap|struct Head\b' crates/*/src || true)
boxed=$(sed -n '/^pub struct Flit {/,/^}/p' crates/noc/src/flit.rs | grep 'Box<' || true)
[ -z "$old$boxed" ] || { echo "FAIL: a per-packet map, a flit header or a boxed flit field is back:"; echo "$old$boxed"; exit 1; }
grep -q 'const _: () = assert!(std::mem::size_of::<Flit>() == 8);' crates/noc/src/flit.rs \
  && grep -q 'copy::<Flit>();' crates/noc/src/flit.rs \
  || { echo "FAIL: crates/noc/src/flit.rs lost its size or Copy assertion on Flit"; exit 1; }

echo "==> state sized by what it models (DESIGN.md §9, §13: ports, 16 ways)"
grep -q 'const _: () = assert!(std::mem::size_of::<SetWord>() == 8);' crates/protocol/src/cache.rs \
  || { echo "FAIL: the size assertion on SetWord is gone"; exit 1; }
# Per-port router arrays hold PORTS entries; only per-VC ones hold VC_INDEX_BITS.
wide=$(grep -nE '^ *(pub(\(crate\))? )?(st_pending|arbiters): \[[^]]*; *VC_INDEX_BITS\]' \
  crates/noc/src/router/mod.rs || true)
[ -z "$wide" ] || { echo "FAIL: a per-port router array is sized by VC_INDEX_BITS again:"; echo "$wide"; exit 1; }

echo "==> flat cache arrays (DESIGN.md §13: memory grows with resident lines, not modelled capacity)"
# Up to the test module, where the old array lives on as the oracle.
flat=$(sed '/^#\[cfg(test)\]$/,$d' crates/protocol/src/cache.rs)
if grep -nE 'Vec<Vec<|Vec<Option<Line|struct (Set|Line)\b' <<< "$flat"; then
  echo "FAIL: a per-set or per-line allocation is back in crates/protocol/src/cache.rs"; exit 1
fi
# Ways exist only for sets that have held a line: nothing is sized sets × ways.
if grep -nE '(sets|ways)[^;]*\*[^;]*(sets|ways)' <<< "$flat"; then
  echo "FAIL: a capacity-sized way array (sets × ways) is back in crates/protocol/src/cache.rs"; exit 1
fi
grep -q '^#!\[forbid(unsafe_code)\]$' crates/protocol/src/lib.rs \
  || { echo "FAIL: crates/protocol/src/lib.rs lost forbid(unsafe_code)"; exit 1; }

echo "==> experiments are a table (one driver; no result slicing, no global env, no printing in an experiment)"
# crates/bench/src/bin holds the two tools that are not experiments; an
# experiment is an entry of EXPERIMENTS (crates/bench/src/experiments/),
# gets its results attached to its rows by the driver, takes the RunEnv
# it is handed, and returns data that the driver prints.
bins=$(ls crates/bench/src/bin | tr '\n' ' ')
[ "$bins" = "rcsim-replay.rs validate_bench.rs " ] \
  || { echo "FAIL: crates/bench/src/bin must hold only validate_bench.rs and rcsim-replay.rs, found: $bins"; exit 1; }
sliced=$(grep -rnE 'chunks\(|split_at\(|grid-aligned' crates/bench/src || true)
global=$(grep -rnE '\benv\(\)' crates/bench/src | grep -vE '^crates/bench/src/(main|env)\.rs:' || true)
printed=$(grep -rn 'println!' crates/bench/src/experiments crates/bench/src/table.rs crates/bench/src/echo.rs || true)
[ -z "$sliced$global$printed" ] \
  || { echo "FAIL: index arithmetic over results, a global env() or a println! is back in the bench harness:"; echo "$sliced$global$printed"; exit 1; }

echo "==> one geometry, a mesh or a torus (DESIGN.md §12: Topology is a shape and a grid; a tile is its router; ports are indices; no cargo features)"
twins=$(grep -rnE 'struct Mesh\b|enum Direction\b|Topology::(Mesh|Torus|CMesh|Ring)\b|fn (next_hop|direction_between)\(' \
  --include='*.rs' crates src tests examples || true)
gated=$(grep -rn 'cfg(feature' crates/*/src crates/*/tests || true)
tables=$(grep -n '^\[features\]' crates/*/Cargo.toml || true)
[ -z "$twins$gated$tables" ] \
  || { echo "FAIL: a second geometry, a port enum or a cargo feature is back:"; echo "$twins$gated$tables"; exit 1; }

echo "==> the kernel walks a worklist (DESIGN.md §9: due words ∪ busy bits)"
# Network::tick visits the set bits of due | busy, never every component
# to ask it; the due bit comes from the word the loop holds (`.due(` only
# in tests, up to each file's #[cfg(test)] mod); no credit list handed to
# a router's tick (credits land before anything ticks, DESIGN.md §6b).
tick=$(sed -n '/^    pub fn tick(&mut self) {$/,/^    }$/p' crates/noc/src/network.rs)
scan=$(grep -E 'for i in 0\.\.topology\.nodes\(\)|routers\.iter_mut\(\)\.enumerate\(\)' <<< "$tick" || true)
asked=$(find crates/noc/src -name '*.rs' -print0 | xargs -0 awk '
  FNR == 1 { skip = 0 }
  skip { next }
  /^#\[cfg\(test\)\]$/ { getline; if ($0 ~ /^mod /) skip = 1; next }
  /\.due\(/ { print FILENAME ":" FNR ": " $0 }')
listed=$(grep -rn 'credits: &mut Vec<(usize, u8)>' crates/noc/src || true)
[ -n "$tick" ] && [ -z "$scan$asked$listed" ] \
  || { echo "FAIL: Network::tick scans every component, a due test or a per-tick credit list is back:"
       printf '%s\n' "$scan" "$asked" "$listed" | grep .; exit 1; }

echo "==> credits never enter the calendar (DESIGN.md §6b, §9: the network lands a credit before anything ticks)"
# Credits travel on CreditWires' list (crates/noc/src/credit.rs) and land
# on their counters at the top of the tick: no calendar cell holds one, no
# drain hands one over, and no router or NI is visited to count one.
cells=$(grep -nE 'push_credit|credits: Vec<|masks: Vec<\(' crates/noc/src/calendar.rs || true)
counted=$(awk '
  FNR == 1 { skip = 0 }
  skip { next }
  /^#\[cfg\(test\)\]$/ { getline; if ($0 ~ /^mod /) skip = 1; next }
  /fn credit\(/ { print FILENAME ":" FNR ": " $0 }' crates/noc/src/router/*.rs crates/noc/src/ni.rs)
[ -z "$cells$counted" ] \
  || { echo "FAIL: a credit cell in the calendar, or a credit callback on Router/Ni, is back:"; echo "$cells$counted"; exit 1; }

echo "==> only links wake a component (DESIGN.md §9: a component is visited for a due link or its own busy bit)"
# Nothing under crates/noc/src wakes a router or an NI from outside: work
# arrives on its links, or through Network::ni_mut, which sets its bit.
woken=$(grep -rnE 'fn wake\b' crates/noc/src || true)
[ -z "$woken" ] \
  || { echo "FAIL: crates/noc/src has a wake-up again:"; echo "$woken"; exit 1; }

echo "==> one kernel (DESIGN.md §9: the dense kernel is a law checked in debug builds, not a mode)"
# What survives of the kernel mode is the stub benchmark/ still calls for
# core.sched.event_over_dense — KernelMode, Network::set_kernel and the
# kernel of SimSession::new/resume — reaching Network::tick and Chip::tick
# through these lines and no other; no RC_KERNEL knob is left.
door='^crates/(noc/src/network|system/src/(chip|sim))\.rs:[0-9]+: *(let dense = self\.kernel == KernelMode::Dense;|pub(\(crate\))? fn set_kernel\(&mut self, kernel: KernelMode\) \{|self\.net\.set_kernel\(kernel\);|chip\.set_kernel\(kernel\);)$'
found=$(grep -rn --include='*.rs' -E 'KernelMode::Dense|set_kernel' crates src tests examples || true)
if [ "$(grep -c . <<< "$found")" -ne 6 ] || grep -v -E "$door" <<< "$found"; then
  echo "FAIL: expected exactly the six door lines to name the dense mode or set_kernel, found:"; echo "$found"; exit 1
fi
if grep -rn 'RC_KERNEL' crates src tests examples README.md; then
  echo "FAIL: RC_KERNEL is back"; exit 1
fi

echo "==> Table 4 is one place (DESIGN.md §4: the router's fixed parameters are constants of rcsim_core::table4)"
# NocConfig is a topology and a mechanism. Up to each file's test module,
# comments aside, no crate keeps a copy of a Table 4 parameter under the
# name of one of the six retired NocConfig fields — as a field, a
# parameter or a binding — and neither the timed-window algebra nor the
# area model writes a Table 4 value down as a number: they read the
# constants.
retired='buffer_depth|flit_bytes|req_vcs|link_latency|inject_overhead|extra_reply_vcs'
code='FNR == 1 { skip = 0 }
  skip { next }
  /^#\[cfg\(test\)\]$/ { getline; if ($0 ~ /^mod /) skip = 1; next }
  { sub(/\/\/.*/, "") }'
copies=$(find crates/*/src -name '*.rs' -print0 | xargs -0 awk -v re="(^|[^A-Za-z0-9_])($retired)([^A-Za-z0-9_]|$)" \
  "$code"' $0 ~ re { print FILENAME ":" FNR ": " $0 }')
numbers=$(awk -v re='(^|[^A-Za-z0-9_.])[0-9]' "$code"' $0 ~ re { print FILENAME ":" FNR ": " $0 }' \
  crates/core/src/circuit/timing.rs)
named=$(find crates/power/src -name '*.rs' -print0 | xargs -0 awk \
  -v re='(LATENCY|STAGES|DEPTH|FLIT|VCS|OVERHEAD)[A-Z_]*[ ]*(:[ ]*[A-Z0-9]+[ ]*)?[:=][ ]*-?[0-9]' \
  "$code"' toupper($0) ~ re { print FILENAME ":" FNR ": " $0 }')
[ -z "$copies$numbers$named" ] \
  || { echo "FAIL: a Table 4 parameter is settable or written down again outside rcsim_core::table4:"
       printf '%s\n' "$copies" "$numbers" "$named" | grep .; exit 1; }

echo "==> config is what varies (DESIGN.md §10, §11: a value no experiment sets is a constant beside its reader)"
# Up to each file's test module, comments aside, no crate, example or the
# root package brings a retired knob back: the watchdog's thresholds, its
# config type and setter, the congestion map's feature switch, the L1
# reissue budget, the open-loop service time, SLO and client retries, and
# the ingress queue bound, burst capacity and backpressure threshold, and
# the transport's retry budget and backoff and the link drop rate — as a
# field, a binding or an access.
knobs='stall_window|leak_age|max_report_entries|max_reissues|service_time|slo|max_client_retries|queue_cap|bucket_cap|backpressure_threshold'
knobs+='|max_retries|retry_backoff|link_drop_rate'
retired=$(find crates/*/src src examples -name '*.rs' -print0 | xargs -0 awk \
  -v names='(^|[^A-Za-z0-9_])(WatchdogConfig|set_watchdog|set_features)([^A-Za-z0-9_]|$)' \
  -v fields="(^|[^A-Za-z0-9_])($knobs) *:([^:]|\$)|\\.($knobs)([^A-Za-z0-9_]|\$)" \
  "$code"' $0 ~ names || $0 ~ fields { print FILENAME ":" FNR ": " $0 }')
[ -z "$retired" ] \
  || { echo "FAIL: a config value no experiment varies is settable again:"; echo "$retired"; exit 1; }

echo "==> each router decision once (DESIGN.md §9: one departure, one trace call, one undo send, one arbiter)"
# The circuit bypass and switch traversal leave through one routine, the
# only out.flit( call above the router's test module; grant_among and
# start_undo are retired names (above).
sends=$(awk '/^#\[cfg\(test\)\]$/ { getline; if ($0 ~ /^mod /) exit } /out\.flit\(/ { n++ } END { print n + 0 }' \
  crates/noc/src/router/mod.rs)
[ "$sends" = 1 ] \
  || { echo "FAIL: crates/noc/src/router/mod.rs calls out.flit( $sends times above its tests (one departure routine)"; exit 1; }

echo "==> a link flit's fate is decided once (DESIGN.md §6b: one eat bit per router output VC)"
# FaultState::on_link_flit decides every flit's fate on an inter-router
# link from its output VC's eat bit: no per-packet loss flag and no map
# (keyed by packet or otherwise) in the fault layer's state.
eaten=$(grep -rn 'head_eaten' crates/noc/src || true)
maps=$(awk '/^pub\(crate\) struct State \{$/ { inside = 1 }
  inside && /^}$/ { inside = 0 }
  inside && /StateMap</ { print FILENAME ":" FNR ": " $0 }' crates/noc/src/fault.rs)
[ -z "$eaten$maps" ] \
  || { echo "FAIL: a second record of link loss is back:"; printf '%s\n' "$eaten" "$maps" | grep .; exit 1; }

echo "==> the fault model and the shapes are what experiments measure (DESIGN.md §6b, §10, §12: dead links, none healing, on a mesh or a torus; a dead link is the only reason to leave DOR)"
# Stuck input ports, link corruption, circuit-table corruption, healing
# windows and dead routers were set by tests alone and are gone, and so
# is the adaptive runtime policy (its controller, congestion map, region
# plan, turn-model detours and trace event), and so are source routes
# and stored reply paths (one routing function decides every hop: DOR,
# or the up*/down* table for a detoured packet), and so are credit loss
# and the concentrated mesh and ring shapes (a tile is its router; a
# wedge is built by editing a checkpoint image), and so are the L1
# reissue timer and the L2's recovery from the duplicates it made (the
# transport's retransmission is the one recovery path), the hand-bumped
# cache version (the sweep cache is keyed on a hash of the simulator's
# sources), the traffic shapes no experiment ran (transpose and hotspot
# patterns, bursty and diurnal arrivals), random link drops with their
# fault RNG and rate error, and the trace metrics registry and the
# harmonic and weighted means nothing read: none of their names is back
# in crates/*/src, src or examples. FaultStats keeps packets_dropped,
# flits_dropped, packets_corrupted, table_entries_corrupted,
# stuck_port_cycles and credits_lost, and
# HealthReport keeps dead_routers, adaptive and l1_reissues, only because
# the benchmark's fingerprint hashes the serialized result: they stay zero
# or empty, so nothing assigns them (dead_routers has one empty
# initialiser, adaptive one default, l1_reissues one zero).
retired='StuckPortEvent|link_corrupt_rate|table_corrupt_rate|heals_at|revive_link|revive_router|LinkHealed|RouterHealed|corrupt_discards|fault_remove'
retired+='|DeadRouterEvent|kill_router|node_usable|dead_routers_sorted|RouterDown|RouterDead|TopoChange'
retired+='|AdaptiveConfig|PolicyController|PolicyState|CongestionMap|RegionPlan|set_congestion|region_samples'
retired+='|teardown_origins|route_path_healthy_avoiding|PolicySwitch|enable_adaptive'
retired+='|plan_detour|next_hop_on_path|port_between|record_reply_path|take_reply_path|reply_paths'
retired+='|reply_path_order|REPLY_PATH_CAP|route_path_healthy|path_is_healthy'
retired+='|CMesh|cmesh|concentration|router_of|tile_of|local_slot|iter_tiles|with_ports|TooManyVcs'
retired+='|credit_loss_rate|on_link_credit|TopologySpec::Ring|Topology::ring'
retired+='|maybe_reissue|reissue_at|reissue_timeout|next_reissue|on_duplicate_request|L1Reissue|stale_fills'
retired+='|CACHE_FORMAT_VERSION|Transpose|Hotspot|Bursty|Diurnal|BurstState'
retired+='|FaultRng|FaultRate|MetricsRegistry|tally_events|harmonic_mean|weighted_mean'
retired+='|grant_among|start_undo'
back=$(grep -rnwE "$retired" crates/*/src src examples || true)
zero='packets_dropped|flits_dropped|packets_corrupted|table_entries_corrupted|stuck_port_cycles|credits_lost'
written=$(grep -rnE --include='*.rs' "\\b($zero) *([-+*/|&^]?=[^=]|:[^:])" crates src tests examples \
  | grep -vE "^crates/noc/src/fault\.rs:[0-9]+: +pub ($zero): u64,\$" || true)
filled=$(grep -rnE --include='*.rs' \
  -e '\bdead_routers *([-+*/|&^]?=[^=]|:[^:])' -e '^ *dead_routers *(,|$)' \
  -e '\bdead_routers\.(push|extend|extend_from_slice|insert|append|resize|splice|clone_from)\(' \
  -e '&mut [A-Za-z0-9_.]*\bdead_routers\b' crates src tests examples \
  | grep -vE '^crates/noc/src/health\.rs:[0-9]+: +pub dead_routers: Vec<NodeId>,$' \
  | grep -vE '\bdead_routers *[:=] *(Vec::new\(\)|vec!\[\])' || true)
counted=$(grep -rnE --include='*.rs' \
  -e '\badaptive *([-+*/|&^]?=[^=]|:[^:])' -e '^ *adaptive *(,|$)' \
  -e '\badaptive\.[a-z_]+ *([-+*/|&^]?=[^=])' -e '\badaptive\.clone_from\(' \
  -e '&mut [A-Za-z0-9_.]*\badaptive\b' -e '\bAdaptiveReport *\{' crates src tests examples \
  | grep -vE '^crates/noc/src/health\.rs:[0-9]+: *pub (adaptive: AdaptiveReport,|struct AdaptiveReport \{)$' \
  | grep -vE '\badaptive *[:=] *AdaptiveReport::default\(\)' || true)
reissued=$(grep -rnE --include='*.rs' \
  -e '\bl1_reissues *([-+*/|&^]?=[^=]|:[^:])' -e '(^|[{,]) *l1_reissues *(,|\}|$)' \
  -e '&mut [A-Za-z0-9_.]*\bl1_reissues\b' crates src tests examples \
  | grep -vE '^crates/noc/src/health\.rs:[0-9]+: +pub l1_reissues: u64,$' \
  | grep -vE '^crates/noc/src/network\.rs:[0-9]+: +l1_reissues: 0,$' || true)
[ -z "$back$written$filled$counted$reissued" ] \
  || { echo "FAIL: a retired fault kind, policy, recovery or shape name is back, a retired FaultStats counter is written, or HealthReport::dead_routers, ::adaptive or ::l1_reissues is filled:"
       printf '%s\n' "$back" "$written" "$filled" "$counted" "$reissued" | grep .; exit 1; }

echo "==> cargo build --release"
$CARGO build --release "$@"

echo "==> cargo test (tier-1)"
$CARGO test -q "$@"

echo "==> cargo test --workspace"
$CARGO test --workspace "$@"

echo "==> bench telemetry smoke (traced fig6 + summary validation)"
# A tiny fig6 run must emit its machine-readable summary, its Markdown
# table and a Chrome trace; validate_bench then decodes every BENCH_*.json
# written so far as the typed BenchSummary and checks its invariants.
# Summaries predating the current BENCH_SCHEMA_VERSION would fail that
# scan spuriously, so start clean. Every experiment is `rcsim-bench <name>`: the package
# builds that binary and the two tools (the gate above keeps it so).
$CARGO build --release -p rcsim-bench "$@"
bench=target/release/rcsim-bench
for bin in rcsim-bench validate_bench rcsim-replay; do test -x "target/release/$bin"; done
[ "$($bench list | wc -l)" -eq 14 ] || { echo "FAIL: rcsim-bench list must name 14 experiments"; exit 1; }
rm -f target/experiments/BENCH_*.json target/experiments/*.md
smoke=(RC_APPS=blackscholes RC_CYCLES=2000 RC_WARMUP=1000
       RC_SMALL_CACHES=1 RC_CORES=16 RC_MAX_CYCLES=10000)
env "${smoke[@]}" $bench fig6 > /dev/null
test -s target/experiments/BENCH_fig6.json
test -s target/experiments/fig6.md
test -s target/experiments/fig6_trace.json
$CARGO run --release -q -p rcsim-bench --bin validate_bench "$@"

echo "==> typo gate (an unknown RC_* name, an unparsable value or an unknown experiment exits 2, simulates nothing)"
rm -f target/experiments/BENCH_fig6.json
# <what stderr must name> <variables and command...>
must_exit_2() {
  local named=$1 status=0; shift
  env "$@" > /dev/null 2> target/experiments/ci_typo.log || status=$?
  if [ "$status" -ne 2 ] || ! grep -q "$named" target/experiments/ci_typo.log \
      || [ -e target/experiments/BENCH_fig6.json ]; then
    echo "FAIL: \`$*\` must exit 2 naming $named and simulate nothing (exit $status)"; exit 1
  fi
}
must_exit_2 RC_CYCLES RC_CYCLES=20k $bench fig6
# A retired knob is an unknown name like any other.
must_exit_2 RC_TOPO_WINDOW RC_TOPO_WINDOW=8 $bench fig6
must_exit_2 RC_KERNEL RC_KERNEL=dense $bench fig6
must_exit_2 RC_NO_CACHE RC_NO_CACHE=1 $bench fig6
# The names are listed, and the known experiment beside the typo does not run.
must_exit_2 'fig6, fig7' RC_JOBS=1 $bench fig6 fig66

echo "==> parallel sweep smoke (RC_JOBS determinism, cache, speedup)"
# BENCH rows are byte-identical for any worker count — only the telemetry
# fields (wall_ms/busy_ms/jobs/cached_points) may differ — and a cache-warm
# rerun serves every point from disk. On runners with >= 4 cores the
# 4-worker sweep must also be at least 1.5x faster than the serial one.
cache_dir=target/experiments/cache-ci
rm -rf "$cache_dir"
strip_telemetry() {
  grep -v -E '"(wall_ms|busy_ms|jobs|cached_points)"' "$1"
}
telemetry() {
  awk -F': ' -v key="\"$2\"" '$1 ~ key {gsub(/,/, "", $2); print $2; exit}' "$1"
}

env "${smoke[@]}" RC_JOBS=1 RC_CACHE_DIR= $bench fig6 > /dev/null 2> /dev/null
cp target/experiments/BENCH_fig6.json target/experiments/ci_fig6_serial.json

env "${smoke[@]}" RC_JOBS=4 RC_CACHE_DIR="$cache_dir" $bench fig6 > /dev/null 2> /dev/null
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

env "${smoke[@]}" RC_JOBS=4 RC_CACHE_DIR="$cache_dir" $bench fig6 > /dev/null 2> /dev/null
cached=$(telemetry target/experiments/BENCH_fig6.json cached_points)
[ "${cached:-0}" -gt 0 ] \
  || { echo "FAIL: cache-warm rerun recomputed every point (cached_points=$cached)"; exit 1; }
echo "    cache-warm rerun served $cached points from $cache_dir"

echo "==> every experiment: RC_JOBS 1 ≡ 4 (BENCH rows byte-identical), summaries valid"
# The whole table twice at the smoke size (plus the topology sizes the
# smoke uses): serially, then on four workers. Every experiment's rows and
# claims must be byte-identical across the two — the network-only ones
# included, which go through the same worker pool — and every summary
# must validate. An empty RC_CACHE_DIR (no cache) is load-bearing: a cache
# hit would compare a result with itself. The experiments' own asserts ride along: nothing
# abandoned or stalled under dead links (DESIGN.md §10), conservation and
# the queue bound past saturation (§11), every topology point drained to
# quiescence — the wraparound dateline check (§12). Leaves
# ci_<name>_{jobs1,jobs4}.json behind.
$CARGO test -q -p rcsim-system --test resilience --test open_loop "$@"
# The dead-link wedge matrix at all three seeds (the debug run above does
# one seed): 18 runs of 200 000 cycles with link 5–6 dead, all of which drain.
$CARGO test --release -q -p rcsim-system --test resilience "$@" -- --ignored
run_all() {
  local tag=$1 name; shift
  env "${smoke[@]}" RC_TOPO_CYCLES=600 RC_TOPO_CORES=64 RC_CACHE_DIR= "$@" \
    $bench all > /dev/null 2> "target/experiments/ci_all_$tag.log"
  for name in $($bench list); do
    cp "target/experiments/BENCH_$name.json" "target/experiments/ci_${name}_$tag.json"
  done
}
run_all jobs1 RC_JOBS=1
run_all jobs4 RC_JOBS=4
for name in $($bench list); do
  diff <(strip_telemetry "target/experiments/ci_${name}_jobs1.json") \
       <(strip_telemetry "target/experiments/ci_${name}_jobs4.json") \
    || { echo "FAIL: BENCH_$name.json differs between the serial run and the 4-worker run"; exit 1; }
done
[ "$(telemetry target/experiments/ci_topology_jobs4.json jobs)" -gt 0 ] \
  || { echo "FAIL: the network-only topology sweep reports no workers"; exit 1; }
$CARGO run --release -q -p rcsim-bench --bin validate_bench "$@"
[ "$(ls target/experiments/*.md | wc -l)" -eq "$($bench list | wc -l)" ] \
  || { echo "FAIL: rcsim-bench all must leave one Markdown table per experiment"; exit 1; }
# Determinism after `all`: the fig6 rows of the whole-table run must
# match the serial rows from the sweep smoke bit for bit (both uncached,
# so neither compares a result with itself).
diff <(strip_telemetry target/experiments/ci_fig6_serial.json) \
     <(strip_telemetry target/experiments/ci_fig6_jobs1.json) \
  || { echo "FAIL: BENCH_fig6.json rows of \`rcsim-bench all\` differ from the lone fig6 run"; exit 1; }

echo "==> kernel/link/packet-table/power/traffic suites"
# The kernel matrix under both laws, the link-sink suite (emission order
# under link faults, DESIGN.md §9), the packet table under faults; then
# the release worklist against the same pins the law-checked debug runs
# match — the experiment goldens and direct_links' PINS — and the
# zero-allocation tick, which only a release build has.
$CARGO test -q -p rcsim-system --test kernel_diff "$@"
$CARGO test -q -p rcsim-noc --test direct_links "$@"
for jobs in 1 4; do
  RC_JOBS=$jobs $CARGO test -q -p rcsim-noc --test packet_table "$@"
done
$CARGO test --release -q -p rcsim-bench --test experiments_golden "$@"
$CARGO test --release -q -p rcsim-noc --test direct_links --test steady_state_allocs "$@"
# The router against RefRouter, and the network against RefNetwork, at
# their differentials' long sizes, on mesh and torus: all ten versions
# (Baseline, Fragmented, Complete, Complete_NoAck, Reuse_NoAck,
# Timed_NoAck, Slack_1, SlackDelay_1, Postponed_1, Ideal) and the
# borrowing-scrounger Reuse, each healthy row drained at its end (flits
# held while nothing moves fail it), each circuit version also across a
# degraded onset at the router.
$CARGO test --release -q -p rcsim-noc --lib "$@" -- --ignored router::differential network::differential
$CARGO test -q -p rcsim-power "$@"
$CARGO test -q -p rcsim-noc --test traffic_patterns "$@"

echo "==> cache arrays, the topology tables and the worklist in release (oracle proptests, geometry, footprint law)"
# Shifts, masks and `as` casts behave alike in both profiles only if no
# debug assertion was doing the work, the block law included (a set's way
# block is the smallest power of two covering the highest way it has
# filled; `tags` is the live blocks plus the free-listed ones); the
# footprint law (allocations, bytes held after a run, file size, resume
# on paper-size caches) is stated for release builds.
# The due words against the reference mailbox, credits landing at their
# cycle, the worklist through every outside mutation and
# a resume with both laws compiled out, and credit conservation every
# cycle of a faulted echo.
$CARGO test --release -q -p rcsim-protocol "$@"
$CARGO test --release -q -p rcsim-core --test topology_table "$@"
$CARGO test --release -q --test footprint --test tick_allocs "$@"
$CARGO test --release -q -p rcsim-noc --lib "$@" -- calendar credit
$CARGO test --release -q --test cross_crate "$@" -- worklist credit_conservation

echo "==> checkpoint smoke (kill-and-resume byte-identity, corrupt-file clean miss)"
# Crash-resilience gate (DESIGN.md §13). The differential suite proves
# save/restore byte-identity — result, trace and state — at forced and
# drawn split cycles across topologies, faults and overload runs, and
# that the resumable driver's result is run_sim's.
# Then the crash drill: a checkpointed fig6 sweep is SIGKILLed mid-run
# (the binary itself — killing a `cargo run` wrapper would orphan the
# simulator), half of the checkpoints it left are corrupted, and the
# rerun must finish from what survives with rows byte-identical to an
# uncheckpointed reference: a corrupt or stale checkpoint is a clean miss.
# Finally rcsim-replay must reject every stale-version checkpoint.
$CARGO test -q -p rcsim-system --test checkpoint_diff "$@"
ckpt_smoke=(RC_APPS=blackscholes RC_CYCLES=8000 RC_WARMUP=2000
            RC_SMALL_CACHES=1 RC_CORES=16 RC_MAX_CYCLES=40000
            RC_JOBS=1 RC_CACHE_DIR=)
ckpt_dir=target/experiments/ckpt-ci
rm -rf "$ckpt_dir"
env "${ckpt_smoke[@]}" $bench fig6 > /dev/null 2> /dev/null
cp target/experiments/BENCH_fig6.json target/experiments/ci_fig6_nockpt.json
env "${ckpt_smoke[@]}" RC_CKPT_DIR="$ckpt_dir" RC_CKPT_INTERVAL=500 \
  $bench fig6 > /dev/null 2> /dev/null &
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
env "${ckpt_smoke[@]}" RC_CKPT_DIR="$ckpt_dir" RC_CKPT_INTERVAL=500 $bench fig6 > /dev/null 2> /dev/null
diff <(strip_telemetry target/experiments/ci_fig6_nockpt.json) \
     <(strip_telemetry target/experiments/BENCH_fig6.json) \
  || { echo "FAIL: BENCH_fig6.json rows differ after a SIGKILLed checkpointed sweep resumed"; exit 1; }
if find "$ckpt_dir" -name '*.ckpt' | grep -q .; then
  echo "FAIL: completed sweep left checkpoints behind in $ckpt_dir"; exit 1
fi
mkdir -p "$ckpt_dir"
# Every earlier version (v23, whose router held a 64-entry owner array, is
# the newest of them), with
# the checksum of its "{}": only the version rejects it.
current=$(sed -n 's/^pub const CHECKPOINT_FORMAT_VERSION: u64 = \([0-9]*\);$/\1/p' crates/system/src/checkpoint.rs)
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
grep -E '^(== |sim_cycles_per_s|peak_rss_mb|FAILED|DRIFT)' <<< "$perf_out" | sed 's/^/    /'
if grep -q -E '^(DRIFT|FAILED)' <<< "$perf_out"; then
  echo "FAIL: simulated results differ from benchmark/expected.json (or a rep failed)"; exit 1
fi

echo "==> rep-level pairing smoke (scripts/pair.sh: HEAD against itself)"
# Builds the rep server (scripts/pair/) from a git archive of HEAD and runs
# a few A B B A pairs of every workload at the --quick size: it exits
# non-zero if a pair's fingerprints differ or a rep fails.
PAIR_DIR=target/pair scripts/pair.sh --quick --seconds 2 HEAD HEAD

echo "==> non-test lines per crate (src/**/*.rs up to each file's #[cfg(test)] mod)"
# A file whose first line is #![cfg(test)] is test code whole; a
# #[cfg(test)] module declared without a body (`mod x;`) is one line.
nontest='
    FNR == 1 { skip = ($0 ~ /^#!\[cfg\(test\)\]$/); held = 0 }
    skip { next }
    held { held = 0; if ($0 ~ /^mod .*\{$/) { skip = 1; next } n++ }
    /^#\[cfg\(test\)\]$/ { held = 1; next }
    { n++ }
    END { printf "    %-10s %6d\n", crate, n; }'
counts=$(for crate in crates/*/; do
  find "${crate}src" -name '*.rs' -print0 | xargs -0 awk -v crate="$(basename "$crate")" "$nontest"
done)
echo "$counts"
# ROADMAP item 6 targets the three crates the router reshape touches.
awk '$1 ~ /^(bench|system|noc)$/ { sum += $2 } END { printf "    %-10s %6d (ROADMAP 6: <= 11150)\n", "b+s+noc", sum }' <<< "$counts"
# ROADMAP 6's router target, printed.
router=$(awk -v crate=router "$nontest" crates/noc/src/router/mod.rs | awk '{ print $2 }')
printf "    %-14s %5d lines (ROADMAP 6: <= 1200)\n" "router/mod.rs" "$router"
# ROADMAP 20's document targets: a document past its target fails.
for doc in EXPERIMENTS.md:1000 DESIGN.md:800; do
  lines=$(wc -l < "${doc%:*}")
  printf "    %-14s %5d lines (ROADMAP 20: < %d)\n" "${doc%:*}" "$lines" "${doc#*:}"
  [ "$lines" -lt "${doc#*:}" ] || { echo "FAIL: ${doc%:*} is $lines lines, past its target of < ${doc#*:}"; exit 1; }
done

echo "CI gate passed."
