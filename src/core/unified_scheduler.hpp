// Mixed-workload scheduling driver: replays one trace of cloud services,
// batch analytics pods and HPC gangs on a platform's worlds — one
// unified orchestrator on the converged layout, three static partitions
// on the siloed one — and reports utilization/wait/makespan (experiment
// F4).
#pragma once

#include <vector>

#include "core/platform.hpp"
#include "util/types.hpp"

namespace evolve::core {

struct MixedJob {
  enum class Kind { kService, kBatch, kGang };
  Kind kind = Kind::kBatch;
  util::TimeNs arrival = 0;
  int pods = 1;  // gang width for kGang, replica count for kService
  cluster::Resources per_pod;
  util::TimeNs duration = 0;
};

struct ScheduleOutcome {
  double cpu_utilization = 0;
  util::TimeNs mean_wait = 0;
  util::TimeNs p95_wait = 0;
  util::TimeNs makespan = 0;
  int jobs_completed = 0;
  int pods_failed = 0;
};

/// Replays `trace` on `platform`: services in the cloud world, batch
/// pods in the big-data world, gangs in the HPC world. Runs the
/// simulation to completion and returns the outcome; utilization is
/// weighted by the CPU each distinct orchestrator manages.
ScheduleOutcome run_trace(Platform& platform,
                          const std::vector<MixedJob>& trace);

}  // namespace evolve::core
