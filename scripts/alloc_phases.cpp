// Heap allocations of one repository-benchmark workload, set-up and run
// counted apart.
//
//   alloc_phases <workload> [seed]
//
// perfbench makes ten set-up-only passes before every measured run, so
// an allocation count over its process mixes the two. This driver is
// built from perfbench's workload sources (everything in perfbench/src
// but main.cpp) and scripts/alloc_count.cpp, which counts every heap
// allocation of the process. After one unmeasured run that warms any
// one-time state, it counts ten set-up-only passes (RunOptions::
// setup_only), then one full run, and prints allocations per set-up,
// per full run, per run without its set-up, and per op: the run-only
// count over the run's offered units (tablet ops, workflows or
// requests, RunResult::offered). For the counter's
// sampled call stacks it weighs one set-up pass at -1 and the full run
// at +1 and leaves everything else out, so alloc_count.out holds the
// run's own allocation sites. scripts/profile.sh builds it (from
// scripts/CMakeLists.txt, into build-alloc) and prints the top sites.
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "workloads.hpp"

extern "C" {
std::uint64_t alloc_count_total();
void alloc_count_weight(int weight);
}

namespace {

using namespace perfbench;

constexpr int kSetups = 10;

/// Allocations made by `fn`.
template <typename Fn>
std::uint64_t allocations(Fn fn) {
  const std::uint64_t before = alloc_count_total();
  fn();
  return alloc_count_total() - before;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argc > 3) {
    std::fprintf(stderr, "usage: alloc_phases <workload> [seed]\n");
    return 2;
  }
  const scripts::Workload* workload = scripts::find_workload(argv[1]);
  if (!workload) {
    std::fprintf(stderr, "unknown workload: %s\n", argv[1]);
    return 2;
  }
  const std::uint64_t seed =
      argc == 3 ? std::strtoull(argv[2], nullptr, 10) : 1;
  const RunOptions setup{seed, false, true};
  const RunOptions full{seed, false, false};

  alloc_count_weight(0);
  if (!workload->run(full).violations.empty()) {
    std::fprintf(stderr, "the warm-up run violated an invariant\n");
    return 1;
  }
  const std::uint64_t setups = allocations([&] {
    for (int i = 0; i < kSetups; ++i) workload->run(setup);
  });
  alloc_count_weight(-1);
  workload->run(setup);
  alloc_count_weight(1);
  std::int64_t offered = 0;
  const std::uint64_t run =
      allocations([&] { offered = workload->run(full).offered; });
  alloc_count_weight(0);

  const std::uint64_t per_setup = setups / kSetups;
  const long long run_only =
      static_cast<long long>(run) - static_cast<long long>(per_setup);
  std::printf("Heap allocations, %s seed %llu:\n", workload->name,
              static_cast<unsigned long long>(seed));
  std::printf("  per set-up        %llu (mean of %d set-up passes)\n",
              static_cast<unsigned long long>(per_setup), kSetups);
  std::printf("  per full run      %llu\n",
              static_cast<unsigned long long>(run));
  std::printf("  per run, run only %lld (full run minus one set-up)\n",
              run_only);
  if (offered > 0) {
    std::printf("  per op            %.2f (run only / %lld offered)\n",
                static_cast<double>(run_only) / static_cast<double>(offered),
                static_cast<long long>(offered));
  }
  return 0;
}
