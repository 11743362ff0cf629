#!/usr/bin/env bash
# Host time of one benchmark workload by function, by source line and by
# crate, without `perf`: a SIGPROF sampler (scripts/profile_sampler.c,
# LD_PRELOADed) records where the CPU time goes while the benchmark's own
# `perf --workload W --trace 0` binary runs, and addr2line names the
# addresses.
#
# Usage: scripts/profile.sh WORKLOAD [seconds]   (seconds default 15)
#
# The binary is built from benchmark/ unchanged, with line tables
# (CARGO_PROFILE_RELEASE_DEBUG=line-tables-only) into target/profile;
# the sampler is built with the system gcc into the same directory. A
# function is the symbol an address lies in (inlined callees count as
# their caller), a line the innermost inlined frame's file:line, and a
# crate the one of the innermost inlined frame outside std, so the
# simulator's code inlined into the harness's loop stays the simulator's.
# The harness's own frames (rcsim_perf) are reported apart, and the
# function and line tables rank the simulator's.
# The output states the sampling rate the kernel delivered: ITIMER_PROF
# asks for 1 kHz, but samples come at most at the kernel's tick rate.

set -euo pipefail
cd "$(dirname "$0")/.."
workload=${1:?usage: scripts/profile.sh WORKLOAD [seconds]}
seconds=${2:-15}
dir=target/profile
mkdir -p "$dir"
gcc -O2 -shared -fPIC -o "$dir/sampler.so" scripts/profile_sampler.c
CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_TARGET_DIR="$dir" \
  cargo build --release --offline -q --manifest-path benchmark/Cargo.toml
bin=$(realpath "$dir/release/perf")
out=$dir/$workload
rm -f "$out.pcs" "$out.maps"

TIMEFORMAT='%U %S'
{ time PROFILE_OUT="$out" LD_PRELOAD="$PWD/$dir/sampler.so" \
    "$bin" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 \
    > "$out.stdout" 2> "$out.stderr"; } 2> "$out.cpu"
read -r user sys < "$out.cpu"
samples=$(wc -l < "$out.pcs")

# Addresses (decimal, with counts) and mappings (decimal bounds): mawk
# prints at most 32-bit integers in hex, so bash does the conversions.
sort "$out.pcs" | uniq -c | while read -r n pc; do echo "$n $((16#$pc))"; done > "$out.counts"
while read -r range _ off _ _ path; do
  echo "$((16#${range%-*})) $((16#${range#*-})) $((16#$off)) ${path:-[anon]}"
done < "$out.maps" > "$out.ranges"
# Each address → `count file offset-in-file`.
awk 'NR == FNR { lo[NR] = $1; hi[NR] = $2; off[NR] = $3; file[NR] = $4; m = NR; next }
  { where = "[unmapped]"; rel = 0
    for (i = 1; i <= m; i++) if ($2 >= lo[i] && $2 < hi[i]) { where = file[i]; rel = $2 - lo[i] + off[i]; break }
    printf "%s %s %.0f\n", $1, where, rel }' "$out.ranges" "$out.counts" > "$out.placed"
# A file offset of the binary → its link-time address, through the
# program header of the LOAD segment that holds it.
readelf -lW "$bin" | awk '$1 == "LOAD" { print $2, $3, $5 }' | while read -r off vaddr size; do
  echo "$((off)) $((vaddr)) $((size))"
done > "$out.segments"
awk -v bin="$bin" 'NR == FNR { so[NR] = $1; sv[NR] = $2; sz[NR] = $3; m = NR; next }
  $2 == bin { for (i = 1; i <= m; i++) if ($3 >= so[i] && $3 < so[i] + sz[i]) { printf "%s %.0f\n", $1, $3 - so[i] + sv[i]; break } }' \
  "$out.segments" "$out.placed" | while read -r n addr; do printf '%s 0x%x\n' "$n" "$addr"; done > "$out.own"
cut -d' ' -f2 "$out.own" | addr2line -e "$bin" -a -f -i -C > "$out.sym"

# One line per sampled address of the binary: count, crate, function,
# line.
awk 'function crate(file) {
       if (file ~ /\/benchmark\/src\//) return "rcsim_perf (harness)"
       if (match(file, /\/crates\/[a-z]+\//)) return "rcsim-" substr(file, RSTART + 8, RLENGTH - 9)
       if (file ~ /^\/rustc\//) return "std"
       if (file ~ /\/stubs\//) return "stubs"
       return "other"
     }
     function flush() {
       if (addr != "") print counts[++k] "\t" (own != "" ? own : crate(ofile)) "\t" ofn "\t" line
       addr = ""
     }
     NR == FNR { counts[NR] = $1; next }
     /^0x[0-9a-f]+$/ { flush(); addr = $0; depth = 0; own = ""; next }
     { if (depth % 2 == 0) fn = $0
       else {
         if (depth == 1) line = $0
         c = crate($0); if (own == "" && c != "std" && c != "other") own = c
         ofn = fn; ofile = $0
       }
       depth++ }
     END { flush() }' "$out.own" "$out.sym" \
  | sed -E 's#\t[^\t]*/(crates|benchmark|library)/#\t\1/#' > "$out.frames"
# One line per sampled address of the binary: count, the function its
# samples count for (the outermost frame, as above) and the inlined
# callee directly under that frame, or "(its own code)" when the address
# lies in no inlined callee.
awk 'function flush() {
       if (addr != "") print counts[++k] "\t" fns[n] "\t" (n > 1 ? fns[n - 1] : "(its own code)")
       addr = ""
     }
     NR == FNR { counts[NR] = $1; next }
     /^0x[0-9a-f]+$/ { flush(); addr = $0; depth = 0; n = 0; next }
     { if (depth % 2 == 0) fns[++n] = $0; depth++ }
     END { flush() }' "$out.own" "$out.sym" > "$out.callees"
# Samples outside the binary, by mapping.
awk -v bin="$bin" '$2 != bin { n = split($2, p, "/"); printf "%s\t%s\t%s\t-\n", $1, p[n], p[n] }' \
  "$out.placed" >> "$out.frames"

echo "profile of $workload: $samples samples over ${user}+${sys} s of CPU" \
  "= $(awk -v n="$samples" -v u="$user" -v s="$sys" 'BEGIN { printf "%.0f", n / (u + s) }') Hz"
echo "  (ITIMER_PROF asked for 1000 Hz; the kernel delivers at most its tick rate)"
tail -n 1 "$out.stdout" | grep -o '"sim_cycles_per_s":[^,]*' || true
table() { # column title rows
  echo "== self share by $2"
  awk -F'\t' -v col="$1" -v total="$samples" '$2 !~ /harness/ { s[$col] += $1 }
    END { for (k in s) printf "%6.2f%%  %s\n", 100 * s[k] / total, k }' "$out.frames" \
    | sort -rn | head -n "$3"
}
echo "== self share by crate (the harness apart)"
awk -F'\t' -v total="$samples" '{ s[$2] += $1 } END { for (k in s) printf "%6.2f%%  %s\n", 100 * s[k] / total, k }' \
  "$out.frames" | sort -rn
table 3 function 25
table 4 "source line" 25
# The top function's samples, split by the inlined callee directly under
# it (a stage the compiler inlined into Router::tick counts as Router::tick
# in the function table).
top=$(awk -F'\t' '$2 !~ /harness/ { s[$3] += $1 } END { for (k in s) print s[k] "\t" k }' \
  "$out.frames" | sort -rn | head -n 1)
echo "== the top function's ${top%%$'\t'*} samples by the inlined callee directly under it: ${top#*$'\t'}"
awk -F'\t' -v top="${top#*$'\t'}" '$2 == top { s[$3] += $1; t += $1 }
  END { for (k in s) printf "%6.2f%%  %s\n", 100 * s[k] / t, k }' "$out.callees" | sort -rn | head -n 15
