#!/usr/bin/env bash
# Rep-level A/B reading of two revisions: B's speed over A's, rep by rep.
#
# Usage: scripts/pair.sh [--seconds S] [--seed N] [--workloads W,..] [--quick] REV_A REV_B
#
# Each revision is `git archive`d into $PAIR_DIR/<commit> (default
# target/pair), with this tree's scripts/pair/ copied in, and built once:
# a rep server that links that revision's benchmark/ library and runs one
# rep of a canonical workload per stdin line, tracing off. The driver
# (scripts/pair/src/main.rs) then alternates A B B A rep by rep, the same
# seed on both sides of a pair, for --seconds per workload (default 60),
# and prints per workload the median B/A of sim_cycles_per_s and setup_s,
# a bootstrap 99 % interval, the pairs B won, and whether every pair's
# fingerprints matched. It exits 1 on a fingerprint mismatch or a failed
# rep. REV_A = REV_B is an A/A reading of one build against itself.

set -euo pipefail
cd "$(dirname "$0")/.."
opts=()
revs=()
while [ $# -gt 0 ]; do
  case $1 in
    --seconds|--seed|--workloads) opts+=("$1" "$2"); shift 2 ;;
    --quick) opts+=("$1"); shift ;;
    -*) echo "pair.sh: unknown option $1" >&2; exit 2 ;;
    *) revs+=("$1"); shift ;;
  esac
done
[ ${#revs[@]} -eq 2 ] || { sed -n '2,4p' "$0" >&2; exit 2; }
dir=${PAIR_DIR:-target/pair}
mkdir -p "$dir"

# Builds the rep server of revision $1 and prints its path.
server() {
  local sha tree
  sha=$(git rev-parse --verify "$1^{commit}")
  tree="$dir/$sha"
  if [ ! -f "$tree/.unpacked" ]; then
    rm -rf "$tree" && mkdir -p "$tree"
    git archive "$sha" | tar -x -C "$tree"
    touch "$tree/.unpacked"
  fi
  rm -rf "$tree/scripts/pair" && mkdir -p "$tree/scripts"
  cp -r scripts/pair "$tree/scripts/pair"
  rm -rf "$tree/scripts/pair/target"
  echo "==> building $1 ($sha)" >&2
  CARGO_TARGET_DIR="$tree/target" cargo build --release --offline -q \
    --manifest-path "$tree/scripts/pair/Cargo.toml" >&2
  realpath "$tree/target/release/pair"
}

a=$(server "${revs[0]}")
b=$(server "${revs[1]}")
echo "==> A ${revs[0]}, B ${revs[1]}, nproc $(nproc)"
"$a" drive --a "$a" --b "$b" "${opts[@]}"
