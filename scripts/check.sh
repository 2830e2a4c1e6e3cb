#!/usr/bin/env bash
# CI-style check: configure, build, run the full test suite and the five
# examples (a crash or a failed self-check exits non-zero), run the
# simulation-kernel churn and fault-recovery benches in --json mode and
# diff their deterministic metrics against the tracked repo-root
# baselines, run the traced benches and strictly validate every emitted
# BENCH_*.json / TRACE_*.json, build and selftest the repository
# benchmark (perfbench/, in <build-dir>-perfbench) and diff its
# simulated results for seeds 1-3 against PERFBENCH_SIM.json, then
# rebuild + retest under ASan/UBSan.
# Records each tracked bench's host CPU in <build-dir>/HOST_CPU.json and
# fails if one exceeds 3x its tracked HOST_CPU.json value + 2 s.
# Also checks that no test-only oracle from src/reference/ is linked into
# libevolve.a, that every *Config field under src/ has a setter somewhere
# (scripts/knob_census.py), and that a Release (-O3 -DNDEBUG) build, in
# <build-dir>-release, is as warning-free as the default one and
# reproduces every fully deterministic baseline bit for bit.
# Run from the repo root:
#
#   scripts/check.sh [build-dir]
#
# Set EVOLVE_SKIP_SANITIZERS=1 to skip the (slower) sanitizer pass; the
# sanitizer build lives in <build-dir>-asan.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

# -- Knob census ---------------------------------------------------------
# A config field that nothing sets (no experiment, no test) is a constant
# in disguise: fail and name it.
census=$(python3 scripts/knob_census.py --check) \
  || { tail -n 20 <<<"$census"; exit 1; }
echo "check.sh: knob census: $(tail -n 1 <<<"$census")"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$(nproc)"
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)")

# -- Examples ------------------------------------------------------------
# Each example is a short end-to-end run (~0.4 s for all five on a 4-core
# host). A crash fails it, and so does a failed self-check: urban_mobility
# checks that both layouts ran the pipeline, elastic_service that every
# request completed or was shed.
for example in quickstart urban_mobility ml_pipeline hpc_batch \
               elastic_service; do
  "$BUILD_DIR/examples/$example" > /dev/null \
    || { echo "check.sh: example $example failed"; exit 1; }
done
echo "check.sh: examples ran clean"

# -- Test-only oracles stay out of the library -------------------------
# src/reference/ (the heap event queue, the per-flow fabric engine) is
# built into the separate evolve_reference archive; libevolve.a must not
# define any of it.
lib_symbols=$(nm -C --defined-only "$BUILD_DIR/src/libevolve.a")
if grep -E 'evolve::reference::|RefEventQueue|RefFabric' <<<"$lib_symbols"; then
  echo "check.sh: libevolve.a defines test-only reference symbols"
  exit 1
fi
echo "check.sh: libevolve.a holds no reference oracle"

# run_bench <name> [args...]: runs bench_<name> from the build dir and
# appends "<name> <user s> <sys s>" to the host CPU ledger.
HOST_CPU_TXT="$BUILD_DIR/host_cpu.txt"
: > "$HOST_CPU_TXT"
run_bench() {
  local name=$1 TIMEFORMAT='%3U %3S' cpu
  shift
  cpu=$( { time (cd "$BUILD_DIR" && "./bench/bench_$name" "$@" >&3 2>&4); } 2>&1 )
  echo "$name $cpu" >> "$HOST_CPU_TXT"
} 3>&1 4>&2

# Every bench with a tracked BENCH_<name>.json at the repo root.
TRACKED_BENCHES=(t1_endtoend f1_scaling f4_sched f8_energy f9_churn
                 f10_faults f11_gray a4_speculation a5_redundancy
                 f7_autoscale f12_serving f13_scale f5_storage
                 f14_durability f15_fairness f16_partitions f17_tablets
                 a2_gang a1_delay a3_tiers a6_optimizer f2_collectives
                 f3_accel f6_ml)
for bench in "${TRACKED_BENCHES[@]}"; do
  run_bench "$bench" --json
done

# -- Baseline diffs (before any --trace run touches the reports) -------
# F9 mixes simulated metrics with host wall-clock timings; only the
# simulated lines are expected to be bit-identical.
filter_host_timing() {
  grep -vE '"(incremental|reference)_(wall_s|us_per_flow|us_per_event)"|"speedup_per_flow"' "$1"
}
diff <(filter_host_timing "$BUILD_DIR/BENCH_f9_churn.json") \
     <(filter_host_timing BENCH_f9_churn.json) \
  || { echo "check.sh: BENCH_f9_churn.json deviates from baseline"; exit 1; }
# These reports are fully simulation-deterministic: every column must
# match the tracked baseline bit for bit. F5 pins replicated-GET tier
# selection and cache admission, A5 cold erasure-coded and replicated
# GETs. T1, F4 and F8 pin the converged-vs-siloed comparison, F1
# run_dataflow with locality placement on and off, A2 binpacking
# placement (a digest of every pod's node). A1, A3, A6, F2, F3 and F6
# pin the ablation and component sweeps EXPERIMENTS.md quotes.
DETERMINISTIC_BENCHES=(t1_endtoend f1_scaling f4_sched f8_energy
                       a4_speculation f7_autoscale f5_storage
                       a5_redundancy f10_faults f11_gray f12_serving
                       f14_durability f15_fairness f16_partitions
                       f17_tablets a2_gang a1_delay a3_tiers a6_optimizer
                       f2_collectives f3_accel f6_ml)
for bench in "${DETERMINISTIC_BENCHES[@]}"; do
  diff "$BUILD_DIR/BENCH_$bench.json" "BENCH_$bench.json" \
    || { echo "check.sh: BENCH_$bench.json deviates from baseline"; exit 1; }
done
echo "check.sh: bench metrics match the tracked baselines"

# gate <bench> <condition> <message>: fails check.sh with <message>
# unless <condition> holds. Both are awk: the condition an expression over
# the top-level keys of the fresh report, m["key"], and of the tracked
# baseline, base["key"]; the message a printf format and its arguments.
gate() {
  awk -v fresh="$BUILD_DIR/BENCH_$1.json" '
    /^  "/ {
      key = $1; gsub(/[":]/, "", key); sub(/,$/, "", $2)
      if (FILENAME == fresh) m[key] = $2 + 0; else base[key] = $2 + 0
    }
    END { if (!('"$2"')) { printf "check.sh: " '"$3"'; print ""; exit 1 } }' \
    "$BUILD_DIR/BENCH_$1.json" "BENCH_$1.json" || exit 1
}

# -- F15 fairness gate --------------------------------------------------
# The fair-share scheduler must actually deliver fairness: Jain index
# >= 0.9 with the pool tree on, and a real gap over the priority-only
# baseline. Both values are simulation-deterministic.
gate f15_fairness 'm["jain_fair"] >= 0.9' \
  '"F15 Jain index with fair share on is %.3f (< 0.9 floor)", m["jain_fair"]'
gate f15_fairness 'm["jain_fair"] > m["jain_priority"]' \
  '"F15 fair share (%.3f) does not beat priority-only (%.3f)", m["jain_fair"], m["jain_priority"]'
echo "check.sh: F15 fairness gate ok"

# -- F16 partition-recovery gate ----------------------------------------
# Defenses on must recover goodput to >= 90% of the pre-partition rate in
# the 10 s window after the heal, beat defenses-off, and spend at most a
# lease TTL's worth of seconds degraded; defenses-off must exhibit the
# measurably degraded (retry-storm) recovery the defenses exist to
# prevent. All four values are simulation-deterministic.
gate f16_partitions 'm["on_recovery_ratio"] >= 0.9' \
  '"F16 defenses-on recovery ratio %.3f (< 0.9 floor)", m["on_recovery_ratio"]'
gate f16_partitions 'm["on_recovery_ratio"] > m["off_recovery_ratio"]' \
  '"F16 defenses-on recovery (%.3f) does not beat defenses-off (%.3f)", m["on_recovery_ratio"], m["off_recovery_ratio"]'
gate f16_partitions 'm["on_degraded_seconds"] <= 5' \
  '"F16 defenses-on degraded for %d s (> 5 s ceiling)", m["on_degraded_seconds"]'
gate f16_partitions 'm["off_degraded_seconds"] >= 10' \
  '"F16 defenses-off degraded for only %d s — no retry-storm regime to defend against", m["off_degraded_seconds"]'
echo "check.sh: F16 partition gate ok"

# -- F17 tablet-balancing gate ------------------------------------------
# Splitting the hot shard and moving load off the busy node must actually
# pay: balancing-on p99 strictly below balancing-off p99 and balancing-on
# goodput strictly above — despite the accounted move-unavailability
# windows and stale-route retries the balancer causes. The balancer must
# also have done real work (splits and moves both nonzero). All values
# are simulation-deterministic.
gate f17_tablets 'm["on_p99_ms"] < m["off_p99_ms"]' \
  '"F17 balancing-on p99 %.2f ms does not beat balancing-off %.2f ms", m["on_p99_ms"], m["off_p99_ms"]'
gate f17_tablets 'm["on_goodput"] > m["off_goodput"]' \
  '"F17 balancing-on goodput %d does not beat balancing-off %d", m["on_goodput"], m["off_goodput"]'
gate f17_tablets 'm["on_splits"] >= 1 && m["on_moves"] >= 1' \
  '"F17 balancer idle: %d splits, %d moves — nothing was balanced", m["on_splits"], m["on_moves"]'
echo "check.sh: F17 tablet gate ok"

# -- F10 fault-recovery gate --------------------------------------------
# Recovery on must finish every job and lose no object; recovery off must
# fail jobs and lose objects, and leave data under-replicated longer and
# HPC work lost larger. All values are simulation-deterministic.
gate f10_faults 'm["recovery_jobs_failed"] == 0 && m["norecovery_jobs_failed"] > 0' \
  '"F10 jobs failed: %d with recovery, %d without (want 0 and > 0)", m["recovery_jobs_failed"], m["norecovery_jobs_failed"]'
gate f10_faults 'm["recovery_objects_lost"] == 0 && m["norecovery_objects_lost"] > 0' \
  '"F10 objects lost: %d with recovery, %d without (want 0 and > 0)", m["recovery_objects_lost"], m["norecovery_objects_lost"]'
gate f10_faults 'm["norecovery_under_replicated_object_s"] > m["recovery_under_replicated_object_s"]' \
  '"F10 recovery-off under-replication %.3f object-s does not exceed recovery-on %.3f", m["norecovery_under_replicated_object_s"], m["recovery_under_replicated_object_s"]'
gate f10_faults 'm["norecovery_hpc_work_lost_s"] > m["recovery_hpc_work_lost_s"]' \
  '"F10 recovery-off HPC work lost %.3f s does not exceed recovery-on %.3f s", m["norecovery_hpc_work_lost_s"], m["recovery_hpc_work_lost_s"]'
echo "check.sh: F10 fault-recovery gate ok"

# -- F14 durability gate ------------------------------------------------
# Rack-aware placement must lose nothing and put at most 2 fragments of
# an object in one rack, where rack-oblivious placement loses objects.
# For every layout, throttling the rebuild must lower the GET p99 and
# pay for it in longer at-risk fragment-seconds. All values are
# simulation-deterministic.
gate f14_durability 'm["aware_objects_lost"] == 0 && m["oblivious_objects_lost"] > 0' \
  '"F14 objects lost: %d rack-aware, %d rack-oblivious (want 0 and > 0)", m["aware_objects_lost"], m["oblivious_objects_lost"]'
gate f14_durability 'm["aware_worst_frags_per_rack"] <= 2' \
  '"F14 rack-aware placement put %d fragments in one rack (> 2)", m["aware_worst_frags_per_rack"]'
for layout in r2 r3 ec4_2 ec8_3; do
  gate f14_durability "m[\"${layout}_get_p99_us_throttled\"] < m[\"${layout}_get_p99_us\"]" \
    "\"F14 $layout throttled GET p99 %d us is not below unthrottled %d us\", m[\"${layout}_get_p99_us_throttled\"], m[\"${layout}_get_p99_us\"]"
  gate f14_durability "m[\"${layout}_at_risk_fragment_s_throttled\"] > m[\"${layout}_at_risk_fragment_s\"]" \
    "\"F14 $layout throttled at-risk %.3f fragment-s does not exceed unthrottled %.3f\", m[\"${layout}_at_risk_fragment_s_throttled\"], m[\"${layout}_at_risk_fragment_s\"]"
done
echo "check.sh: F14 durability gate ok"

# -- F5 storage-tiering gate -------------------------------------------
# A working set that outgrows DRAM must cost more: mean GET latency and
# HDD reads rise strictly with it, and eight storage servers stream at
# least six times the bytes of one. All values are
# simulation-deterministic.
for pair in "4g 16g" "16g 48g" "48g 128g"; do
  read -r lo hi <<< "$pair"
  for key in mean_latency_us hdd_reads; do
    gate f5_storage "m[\"ws_${lo}_$key\"] < m[\"ws_${hi}_$key\"]" \
      "\"F5 ws_${hi}_$key %.3f does not exceed ws_${lo}_$key %.3f\", m[\"ws_${hi}_$key\"], m[\"ws_${lo}_$key\"]"
  done
done
gate f5_storage 'm["scale_8_gib_per_s"] >= 6 * m["scale_1_gib_per_s"]' \
  '"F5 8 servers stream %.3f GiB/s, under 6x the %.3f of one", m["scale_8_gib_per_s"], m["scale_1_gib_per_s"]'
echo "check.sh: F5 storage gate ok"

# -- A3 tier-sizing gate ------------------------------------------------
# Larger cache tiers must pay: DRAM hits rise strictly, HDD reads never
# rise, and mean GET latency falls strictly from 5 to 15 to 40 to 100
# percent of the working set. All values are simulation-deterministic.
for pair in "5pct 15pct" "15pct 40pct" "40pct 100pct"; do
  read -r lo hi <<< "$pair"
  gate a3_tiers "m[\"${lo}_dram_hits\"] < m[\"${hi}_dram_hits\"]" \
    "\"A3 $hi DRAM hits %d do not exceed $lo's %d\", m[\"${hi}_dram_hits\"], m[\"${lo}_dram_hits\"]"
  gate a3_tiers "m[\"${hi}_hdd_reads\"] <= m[\"${lo}_hdd_reads\"]" \
    "\"A3 $hi HDD reads %d exceed $lo's %d\", m[\"${hi}_hdd_reads\"], m[\"${lo}_hdd_reads\"]"
  gate a3_tiers "m[\"${hi}_mean_get_us\"] < m[\"${lo}_mean_get_us\"]" \
    "\"A3 $hi mean GET %.3f us is not below $lo's %.3f us\", m[\"${hi}_mean_get_us\"], m[\"${lo}_mean_get_us\"]"
done
echo "check.sh: A3 tier-sizing gate ok"

# -- A5 redundancy gate -------------------------------------------------
# At 64 MiB both erasure-coded schemes (2: EC(4,2), 3: EC(8,3)) store
# less and PUT faster than both replication schemes (0: R2, 1: R3), and
# pay for it with a slower cold GET. All values are
# simulation-deterministic.
for ec in 2 3; do
  for rep in 0 1; do
    e="mib_64_scheme_$ec" r="mib_64_scheme_$rep"
    gate a5_redundancy "m[\"${e}_overhead\"] < m[\"${r}_overhead\"] && m[\"${e}_put_ms\"] < m[\"${r}_put_ms\"]" \
      "\"A5 scheme $ec (overhead %.3f, PUT %.3f ms) does not beat scheme $rep (%.3f, %.3f ms)\", m[\"${e}_overhead\"], m[\"${e}_put_ms\"], m[\"${r}_overhead\"], m[\"${r}_put_ms\"]"
    gate a5_redundancy "m[\"${e}_get_cold_ms\"] > m[\"${r}_get_cold_ms\"]" \
      "\"A5 scheme $ec cold GET %.3f ms is not above scheme $rep's %.3f ms\", m[\"${e}_get_cold_ms\"], m[\"${r}_get_cold_ms\"]"
  done
done
echo "check.sh: A5 redundancy gate ok"

# -- F9 churn-kernel gate -----------------------------------------------
# The flow, recompute and event counts of both engines are
# simulation-deterministic. The filtered diff above already covers them;
# this gate names each key, so a fabric change that moves one (a solve
# more or less per wave, say) fails with the key and both values.
for key in flows_total peak_concurrent incremental_rate_recomputations \
           reference_rate_recomputations incremental_events \
           reference_events wave_1024_recomputations \
           wave_2048_recomputations wave_4096_recomputations; do
  gate f9_churn "(\"$key\" in m) && m[\"$key\"] == base[\"$key\"]" \
    "\"F9 $key is %d, baseline %d\", m[\"$key\"], base[\"$key\"]"
done
echo "check.sh: F9 churn gate ok"

# -- T1 headline gate ---------------------------------------------------
# The paper's claim: every use case finishes sooner on the converged
# platform than on the siloed one.
for use_case in urban-mobility ml-training analytics-chain genomics; do
  c="${use_case}_converged_ns" s="${use_case}_siloed_ns"
  gate t1_endtoend "(\"$c\" in m) && m[\"$c\"] < m[\"$s\"]" \
    "\"T1 $use_case converged %.0f ns is not below siloed %.0f ns\", m[\"$c\"], m[\"$s\"]"
done
echo "check.sh: T1 converged-beats-siloed gate ok"

# -- F13 kernel-at-scale gate ------------------------------------------
# Event counts, checksums, and end times are simulation-deterministic and
# must match the baseline bit for bit. events/sec and speedup columns are
# host timing: those get a tolerance band, not a diff.
filter_f13_host_timing() {
  grep -vE '"(cal|ref)_[0-9]+k_(wall_s|events_per_sec|wall_per_sim_hour_s)"|"speedup_' "$1"
}
diff <(filter_f13_host_timing "$BUILD_DIR/BENCH_f13_scale.json") \
     <(filter_f13_host_timing BENCH_f13_scale.json) \
  || { echo "check.sh: BENCH_f13_scale.json deviates from baseline"; exit 1; }
# The tracked baseline must keep claiming >= 3x; the fresh run only has to
# clear a noise-tolerant floor (slower CI hosts, no pinned cores).
gate f13_scale 'base["speedup_10k"] >= 3.0' \
  '"tracked F13 baseline speedup_10k %.2fx is below the 3x claim", base["speedup_10k"]'
gate f13_scale 'm["cal_10k_events_per_sec"] >= 0.4 * base["cal_10k_events_per_sec"]' \
  '"F13 kernel regressed: %.0f events/sec at 10k vs %.0f baseline (>60%% drop)", m["cal_10k_events_per_sec"], base["cal_10k_events_per_sec"]'
gate f13_scale 'm["speedup_10k"] >= 2.0' \
  '"F13 calendar-vs-heap speedup at 10k fell to %.2fx (< 2.0x floor)", m["speedup_10k"]'
echo "check.sh: F13 perf gate ok"

# -- Host CPU ledger ----------------------------------------------------
# User+sys CPU seconds of each untraced bench run above, written to
# $BUILD_DIR/HOST_CPU.json and compared against the tracked HOST_CPU.json
# (kept apart from the bit-identical BENCH_*.json). The band is loose on
# purpose: host times swing ~1.5x between runs, while a hot-path
# regression costs multiples. To re-record after an intended change:
# cp "$BUILD_DIR/HOST_CPU.json" HOST_CPU.json
awk 'BEGIN { print "{" }
     { line[NR] = sprintf("  \"%s\": %.2f", $1, $2 + $3) }
     END { for (i = 1; i <= NR; ++i) print line[i] (i < NR ? "," : "")
           print "}" }' "$HOST_CPU_TXT" > "$BUILD_DIR/HOST_CPU.json"
awk -v fresh="$BUILD_DIR/HOST_CPU.json" '
  /^  "/ {
    key = $1; gsub(/[":]/, "", key); sub(/,$/, "", $2)
    if (FILENAME == fresh) m[key] = $2 + 0; else base[key] = $2 + 0
  }
  END {
    for (key in m) {
      if (!(key in base)) {
        printf "check.sh: %s has no tracked host CPU in HOST_CPU.json\n", key
        bad = 1
      } else if (m[key] > 3 * base[key] + 2) {
        printf "check.sh: %s took %.2f s host CPU (> 3 x %.2f s tracked + 2 s)\n", key, m[key], base[key]
        bad = 1
      }
    }
    exit bad
  }' "$BUILD_DIR/HOST_CPU.json" HOST_CPU.json
echo "check.sh: host CPU within 3x + 2 s of HOST_CPU.json"

# -- Traced runs + strict JSON validation ------------------------------
(cd "$BUILD_DIR" && ./bench/bench_t1_endtoend --trace --json)
# The traced T1 report only adds the per-layer `*_crit_*` keys; every
# other value must still equal the untraced baseline.
untraced_keys() { grep -v '_crit_' "$1" | sed 's/,$//'; }
diff <(untraced_keys "$BUILD_DIR/BENCH_t1_endtoend.json") \
     <(untraced_keys BENCH_t1_endtoend.json) \
  || { echo "check.sh: BENCH_t1_endtoend.json changed under --trace"; exit 1; }
# Tracing must not perturb the simulation: the traced fault-recovery,
# gray-failure, serving and tablet reruns (tablet spans included) have
# to reproduce their tracked baselines bit for bit.
for bench in f10_faults f11_gray f12_serving f17_tablets; do
  (cd "$BUILD_DIR" && "./bench/bench_$bench" --trace --json)
  diff "$BUILD_DIR/BENCH_$bench.json" "BENCH_$bench.json" \
    || { echo "check.sh: BENCH_$bench.json changed under --trace"; exit 1; }
done
(cd "$BUILD_DIR" && ./tools/json_check BENCH_*.json TRACE_*.json HOST_CPU.json)

# -- Repository benchmark ----------------------------------------------
# perfbench/ is its own CMake project over src/ and reads the components'
# typed accessors and registry keys, so a library refactor can break it
# without failing anything above. Build it and selftest every workload:
# two untraced reruns, one traced rerun and one next-seed run of seed 1.
PERF_DIR="${BUILD_DIR}-perfbench"
cmake -S perfbench -B "$PERF_DIR"
cmake --build "$PERF_DIR" --target perfbench -j "$(nproc)"
for workload in tablet-skew converged-pipelines serve-spike; do
  "$PERF_DIR/perfbench" --selftest --workload "$workload" --seed 1
done
# Every simulated result of seeds 1-3 (outcome counts, latency
# percentiles, goodput and the non-host per-layer metrics) must match the
# tracked PERFBENCH_SIM.json bit for bit.
python3 scripts/perfbench_sim.py "$PERF_DIR/perfbench" \
  > "$BUILD_DIR/PERFBENCH_SIM.json"
diff "$BUILD_DIR/PERFBENCH_SIM.json" PERFBENCH_SIM.json \
  || { echo "check.sh: perfbench simulated results deviate from PERFBENCH_SIM.json"; exit 1; }
echo "check.sh: perfbench simulated results match PERFBENCH_SIM.json"

# -- Release build -------------------------------------------------------
# -O3 -DNDEBUG inlines differently from RelWithDebInfo, so it can raise
# warnings (and -Werror failures) the default build does not. The same
# seed must also give the same bytes there: every fully deterministic
# report is rerun from the Release binaries and diffed against its
# tracked baseline.
REL_DIR="${BUILD_DIR}-release"
cmake -B "$REL_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$REL_DIR" -j "$(nproc)"
echo "check.sh: Release build warning-free in $REL_DIR"
for bench in "${DETERMINISTIC_BENCHES[@]}"; do
  (cd "$REL_DIR" && "./bench/bench_$bench" --json > /dev/null)
  diff "$REL_DIR/BENCH_$bench.json" "BENCH_$bench.json" \
    || { echo "check.sh: Release BENCH_$bench.json deviates from baseline"; exit 1; }
done
echo "check.sh: Release bench metrics match the tracked baselines"

if [[ "${EVOLVE_SKIP_SANITIZERS:-0}" != "1" ]]; then
  SAN_DIR="${BUILD_DIR}-asan"
  cmake -B "$SAN_DIR" -S . -DEVOLVE_SANITIZE=address,undefined
  cmake --build "$SAN_DIR" -j "$(nproc)"
  (cd "$SAN_DIR" && ctest --output-on-failure -j "$(nproc)")
  # Drive the calendar queue, SmallFn, and slab/arena hot paths (and the
  # preserved reference heap) end to end under ASan/UBSan.
  (cd "$SAN_DIR" && ./bench/bench_f13_scale --quick)
  # Drive the erasure-coding GET/hedge/repair machinery (fragment fan-out,
  # straggler cancellation, throttled rebuild) end to end under ASan/UBSan.
  (cd "$SAN_DIR" && ./bench/bench_f14_durability)
  # Drive the fair-share pool tree, preemption, disruption budgets, and
  # the rebalancer end to end under ASan/UBSan (the ctest pass above
  # already covers the PoolTree/Preemption/Rebalancer unit tests).
  (cd "$SAN_DIR" && ./bench/bench_f15_fairness)
  # Drive the partition park/resume, lease/fencing, and retry-budget
  # paths end to end under ASan/UBSan.
  (cd "$SAN_DIR" && ./bench/bench_f16_partitions)
  # Drive the tablet layer — WAL group commit, flush/generation reads,
  # split/merge/move, fencing, stale-route retries — end to end under
  # ASan/UBSan (the ctest pass above already covers the tablet unit and
  # 100-seed soak tests).
  (cd "$SAN_DIR" && ./bench/bench_f17_tablets)
  echo
  echo "check.sh: sanitizer (ASan/UBSan) test pass clean in $SAN_DIR"
fi

echo
echo "check.sh: all tests passed; reports in $BUILD_DIR/BENCH_*.json, traces in $BUILD_DIR/TRACE_*.json"
