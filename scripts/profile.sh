#!/usr/bin/env bash
# Host-CPU profile of one repository-benchmark workload with gprof.
#
#   scripts/profile.sh <workload> [seed]
#
# Configures perfbench/ into build-pg with -pg compile and link flags
# (plain CMake cache variables, so neither perfbench/ nor the library
# needs a profiling option), runs the workload untraced for three
# seconds of host time from inside build-pg, where gmon.out lands, and
# prints the top 15 entries of the flat profile. It then prints the
# call-graph entry (caller lines above the entry's own line) of the top
# 5 self-time entries, so a symbol gprof mislabels shows its real
# caller. Workloads: tablet-skew, converged-pipelines, serve-spike. Seed
# defaults to 1.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: scripts/profile.sh <workload> [seed]" >&2
  exit 2
fi
WORKLOAD=$1
SEED=${2:-1}

cd "$(dirname "$0")/.."
PG_DIR=build-pg
cmake -S perfbench -B "$PG_DIR" -DCMAKE_CXX_FLAGS=-pg \
  -DCMAKE_EXE_LINKER_FLAGS=-pg > /dev/null
cmake --build "$PG_DIR" --target perfbench -j "$(nproc)" > /dev/null

cd "$PG_DIR"
rm -f gmon.out
./perfbench --workload "$WORKLOAD" --seed "$SEED" --seconds 3 --trace 0 \
  > /dev/null
# Five header lines, then the 15 functions with the most self time.
FLAT=$(gprof -b -p perfbench gmon.out)
head -n 20 <<< "$FLAT"
# Flat-profile names start at column 55; keep the top 5.
TOP5=$(sed -n '6,10p' <<< "$FLAT" | cut -c55-)
echo
echo "Callers of the top 5 (gprof -b -q):"
gprof -b -q perfbench gmon.out | TOP5=$TOP5 awk '
  BEGIN { n = split(ENVIRON["TOP5"], want, "\n") }
  /^index/ { started = 1; block = ""; next }
  !started { next }
  /^-+$/ { block = ""; next }
  /^\[[0-9]+\]/ {
    for (i = 1; i <= n; i++) {
      if (index($0, " " want[i] " [")) found[i] = block $0 "\n"
    }
    next
  }
  { block = block $0 "\n" }
  END { for (i = 1; i <= n; i++) printf "\n%s", found[i] }'
