#!/usr/bin/env bash
# Library functions that no experiment executes, measured with gcov.
#
#   scripts/coverage.sh [build-dir]
#
# Builds every bench and example in <build-dir>-cov, and perfbench/ in
# <build-dir>-cov-perfbench, with --coverage compile and link flags
# (plain CMake cache variables, as profile.sh passes -pg, so neither
# perfbench/ nor the library needs a coverage option). It then runs
# every experiment once from fresh counters: each bench with --json
# --trace (F13 also with --quick), each example, and each perfbench
# workload traced for one second of host time. Last it prints, per
# source file, the functions under src/ (src/reference/ excluded) that
# no run executed, then the totals. Functions a header defines but no
# translation unit emits (unused inline functions and templates) have
# no counters, so gcov cannot list them. Build directory defaults to
# build; run output goes to <build-dir>-cov/runs.log.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
COV_DIR="${BUILD_DIR}-cov"
PERF_DIR="${BUILD_DIR}-cov-perfbench"
# Early inlining runs before instrumentation and would leave a small
# function's own entry count at zero although its inlined copies ran.
COV_FLAGS=("-DCMAKE_CXX_FLAGS=--coverage -fno-early-inlining"
           -DCMAKE_EXE_LINKER_FLAGS=--coverage)

benches=()
for src in bench/bench_*.cpp; do benches+=("$(basename "$src" .cpp)"); done
examples=()
for src in examples/*.cpp; do examples+=("$(basename "$src" .cpp)"); done

cmake -B "$COV_DIR" -S . "${COV_FLAGS[@]}" > /dev/null
cmake --build "$COV_DIR" --target "${benches[@]}" "${examples[@]}" \
  -j "$(nproc)" > /dev/null
cmake -S perfbench -B "$PERF_DIR" "${COV_FLAGS[@]}" > /dev/null
cmake --build "$PERF_DIR" --target perfbench -j "$(nproc)" > /dev/null

# Only this run's executions count.
find "$COV_DIR" "$PERF_DIR" -name '*.gcda' -delete
LOG="$COV_DIR/runs.log"
: > "$LOG"
for bench in "${benches[@]}"; do
  args=(--json --trace)
  if [[ $bench == bench_f13_scale ]]; then args+=(--quick); fi
  (cd "$COV_DIR" && "./bench/$bench" "${args[@]}") >> "$LOG" 2>&1
done
for example in "${examples[@]}"; do
  (cd "$COV_DIR" && "./examples/$example") >> "$LOG" 2>&1
done
for workload in tablet-skew converged-pipelines serve-spike; do
  "$PERF_DIR/perfbench" --workload "$workload" --seed 1 --seconds 1 \
    --trace 1 >> "$LOG" 2>&1
done

# gcov reads each object's notes (.gcno) and, when the object ran, its
# counts (.gcda); an object that never ran reports every function at 0.
# A function is keyed by file and first line, so every object that
# compiled it and every template instantiation of it count together.
python3 - "$PWD" "$COV_DIR" "$PERF_DIR" <<'PY'
import collections
import json
import os
import subprocess
import sys

root, *build_dirs = sys.argv[1:]
src_dir = os.path.join(root, "src") + os.sep
ref_dir = os.path.join(root, "src", "reference") + os.sep

executions = collections.Counter()
names = collections.defaultdict(set)
for build in build_dirs:
    for dirpath, _, files in os.walk(build):
        notes = sorted(f for f in files if f.endswith(".gcno"))
        if not notes:
            continue
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout", *notes], cwd=dirpath,
            check=True, capture_output=True, text=True).stdout
        for line in out.splitlines():
            if not line.startswith("{"):
                continue
            doc = json.loads(line)
            for record in doc["files"]:
                path = os.path.realpath(os.path.join(
                    doc["current_working_directory"], record["file"]))
                if not path.startswith(src_dir) or path.startswith(ref_dir):
                    continue
                for fn in record["functions"]:
                    key = (os.path.relpath(path, root), fn["start_line"])
                    executions[key] += fn["execution_count"]
                    names[key].add(fn["demangled_name"])

never = collections.defaultdict(list)
for (path, line), count in executions.items():
    if count == 0:
        never[path].append((line, min(names[(path, line)], key=len)))
for path in sorted(never):
    print(path)
    for line, name in sorted(never[path]):
        print(f"  {line:5d}  {name}")
total = sum(len(fns) for fns in never.values())
print(f"\n{total} of {len(executions)} library functions in "
      f"{len(never)} files never executed")
PY
