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
# caller.
#
# gprof does not see time spent inside libc malloc, so the script then
# counts heap allocations. perfbench makes ten set-up passes before each
# measured run, so its own count mixes set-up and run; instead the script
# builds scripts/alloc_phases.cpp (perfbench's workload sources with
# scripts/alloc_count.cpp linked in, from scripts/CMakeLists.txt) into
# build-alloc and runs it. It prints allocations per set-up, per full run
# and per run without its set-up, then the 10 call sites with the most
# sampled allocations of the run alone. A call site is the innermost
# function of the library or perfbench (inlined frames included) on the
# sampled stack, shown with its nearest different caller. Workloads:
# tablet-skew, converged-pipelines, serve-spike. Seed defaults to 1.
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

# -- Heap allocations ----------------------------------------------------
cd ..
ALLOC_DIR=build-alloc
cmake -S scripts -B "$ALLOC_DIR" > /dev/null
cmake --build "$ALLOC_DIR" --target alloc_phases -j "$(nproc)" > /dev/null
cd "$ALLOC_DIR"
rm -f alloc_count.out
echo
./alloc_phases "$WORKLOAD" "$SEED"
python3 - alloc_phases alloc_count.out <<'PY'
import collections, subprocess, sys

exe, report = sys.argv[1], sys.argv[2]
lines = open(report).read().split("\n")
period = int(lines[1].split()[1])
stacks = [[int(w, 16) if i else int(w) for i, w in enumerate(line.split())]
          for line in lines[2:] if line]

# addr2line -a -f -i: each address, then (function, file:line) pairs for
# its inline chain, innermost first. Names stay mangled so project code
# is told apart from the standard library by prefix.
pcs = sorted({pc for stack in stacks for pc in stack[1:]})
out = subprocess.run(["addr2line", "-a", "-f", "-i", "-e", exe] +
                     [hex(pc) for pc in pcs],
                     capture_output=True, text=True, check=True).stdout
chains, pc, rows = {}, None, out.split("\n")
i = 0
while i < len(rows):
    if rows[i].startswith("0x"):
        pc = int(rows[i], 16)
        chains[pc] = []
        i += 1
    elif i + 1 < len(rows) and pc is not None:
        chains[pc].append((rows[i], rows[i + 1].rsplit("/", 1)[-1]))
        i += 2
    else:
        i += 1

PROJECT = ("_ZN6evolve", "_ZNK6evolve", "_ZZN6evolve", "_ZZNK6evolve",
           "_ZN9perfbench", "_ZNK9perfbench", "_ZZN9perfbench",
           "_ZZNK9perfbench")
sites = collections.Counter()
for stack in stacks:
    frames = [f for pc in stack[1:] for f in chains.get(pc, [])]
    own = [f for f in frames if f[0].startswith(PROJECT)]
    if not own:
        sites[("(outside the library and perfbench)", "", "")] += stack[0]
        continue
    caller = next((f for f in own if f[0] != own[0][0]), ("", ""))
    sites[(own[0][0], own[0][1], caller[0])] += stack[0]

names = sorted({n for key in sites for n in key[::2] if n.startswith("_Z")})
plain = subprocess.run(["c++filt"], input="\n".join(names),
                       capture_output=True, text=True, check=True).stdout
pretty = dict(zip(names, plain.split("\n")))
short = lambda n: (lambda p: p if len(p) <= 110 else p[:107] + "...")(
    pretty.get(n, n))

# Set-up stacks were sampled once at +1 (in the full run) and once at -1,
# so what is left is the run's own.
sampled = sum(sites.values()) or 1
print(f"Top 10 allocating call sites of the run without its set-up "
      f"({sampled} net stacks sampled, 1 in {period}):")
for (site, where, caller), n in sites.most_common(10):
    print(f"  {100 * n / sampled:5.1f}%  {short(site)}  {where}")
    if caller:
        print(f"           <- {short(caller)}")
PY
