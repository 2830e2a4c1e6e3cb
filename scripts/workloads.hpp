// The repository benchmark's workloads by name, for the drivers in
// scripts/ that link perfbench's workload sources in place of its
// main.cpp (alloc_phases.cpp, full_runs.cpp).
#pragma once

#include <cstring>

#include "common.hpp"

namespace scripts {

struct Workload {
  const char* name;
  perfbench::RunResult (*run)(const perfbench::RunOptions&);
};

/// The workload called `name`, or null when there is none.
inline const Workload* find_workload(const char* name) {
  static const Workload kWorkloads[] = {
      {"tablet-skew", perfbench::run_tablet_skew},
      {"converged-pipelines", perfbench::run_converged_pipelines},
      {"serve-spike", perfbench::run_serve_spike},
  };
  for (const Workload& w : kWorkloads) {
    if (std::strcmp(name, w.name) == 0) return &w;
  }
  return nullptr;
}

}  // namespace scripts
