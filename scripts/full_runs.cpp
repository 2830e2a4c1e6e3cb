// Full runs of one repository-benchmark workload, and nothing else.
//
//   full_runs <workload> [seed] [seconds]
//
// perfbench makes ten set-up-only passes before every measured run, so a
// profile of its process weighs set-up (staging, placement, preloads)
// about ten times over. This driver is built from perfbench's workload
// sources and runs whole runs (set-up included, as in one measured run)
// from the same seed until `seconds` (default 3) of host time have
// passed, then prints how many it made. scripts/profile.sh builds it
// with -pg (from scripts/CMakeLists.txt, into build-pg-runs) and profiles it
// with gprof.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "workloads.hpp"

int main(int argc, char** argv) {
  if (argc < 2 || argc > 4) {
    std::fprintf(stderr, "usage: full_runs <workload> [seed] [seconds]\n");
    return 2;
  }
  const scripts::Workload* workload = scripts::find_workload(argv[1]);
  if (!workload) {
    std::fprintf(stderr, "unknown workload: %s\n", argv[1]);
    return 2;
  }
  const std::uint64_t seed =
      argc >= 3 ? std::strtoull(argv[2], nullptr, 10) : 1;
  const double seconds = argc == 4 ? std::strtod(argv[3], nullptr) : 3;
  const perfbench::RunOptions full{seed, false, false};
  const auto start = std::chrono::steady_clock::now();
  int runs = 0;
  do {
    if (!workload->run(full).violations.empty()) {
      std::fprintf(stderr, "run %d violated an invariant\n", runs);
      return 1;
    }
    ++runs;
  } while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count() < seconds);
  std::printf("%d full runs of %s, seed %llu\n", runs, workload->name,
              static_cast<unsigned long long>(seed));
  return 0;
}
