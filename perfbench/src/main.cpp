// perfbench: the repository benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --selftest --workload <name> --seed <n>
//
// One process runs one workload. It sets the world up several times
// (set-up time is a metric of its own), then runs the simulation again
// and again from the same seed until `--seconds` of host time have
// passed, checking every run's invariants and that every run produced
// the same simulated results. With `--trace 1` it then makes one more
// run with the span tracer attached, checks that tracing changed no
// simulated result, and reports the per-layer metrics instead of the
// end-to-end ones. The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is non-zero when any check failed.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  const char* unit;  // what one latency sample measures
  /// The highest percentile with at least ten samples beyond it at this
  /// workload's sample count.
  double tail_percentile;
  RunResult (*run)(const RunOptions&);
};

const Workload kWorkloads[] = {
    {"tablet-skew", "op", 99.9, run_tablet_skew},
    {"converged-pipelines", "workflow", 95.0, run_converged_pipelines},
    {"serve-spike", "op", 99.9, run_serve_spike},
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Printed with --trace 0 (BENCHMARK.json "end_to_end").
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},     {"run_s", "s"},   {"peak_rss_mib", "MiB"},
    {"p50_ms", "ms"},     {"tail_ms", "ms"}, {"goodput_frac", "frac"},
};

// Printed with --trace 1 (BENCHMARK.json "per_layer"). Metrics a
// workload's layers do not produce read 0: that layer does no work there.
const MetricSpec kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"net.flows", "count"},
    {"net.bytes", "B"},
    {"net.sim_self_s", "s"},
    {"net.flows_leaked", "count"},
    {"store.gets", "count"},
    {"store.puts", "count"},
    {"store.get_p99_ms", "ms"},
    {"store.put_p99_ms", "ms"},
    {"store.hedges", "count"},
    {"store.hedge_win_frac", "frac"},
    {"store.degraded_gets", "count"},
    {"store.repairs", "count"},
    {"store.rebuild_throttle_wait_s", "s"},
    {"store.sim_self_s", "s"},
    {"tablet.wal_commits", "count"},
    {"tablet.ops_per_wal_commit", "count"},
    {"tablet.memtable_hit_frac", "frac"},
    {"tablet.flushes", "count"},
    {"tablet.splits", "count"},
    {"tablet.moves", "count"},
    {"tablet.move_unavail_s", "s"},
    {"tablet.retry_frac", "frac"},
    {"tablet.sim_self_s", "s"},
    {"tablet.host_submit_ns", "ns"},
    {"serve.shed_admission", "count"},
    {"serve.shed_queue_full", "count"},
    {"serve.mean_batch", "count"},
    {"serve.hedges", "count"},
    {"serve.hedge_win_frac", "frac"},
    {"serve.wasted_exec", "count"},
    {"serve.sim_queue_s", "s"},
    {"serve.host_submit_ns", "ns"},
    {"orch.pods_started", "count"},
    {"orch.pod_wait_p95_s", "s"},
    {"orch.preemptions", "count"},
    {"orch.scale_ups", "count"},
    {"orch.peak_replicas", "count"},
    {"df.tasks", "count"},
    {"df.task_retries", "count"},
    {"df.shuffle_bytes", "B"},
    {"df.locality_frac", "frac"},
    {"df.speculative_win_frac", "frac"},
    {"df.sim_self_s", "s"},
    {"hpc.collectives", "count"},
    {"hpc.comm_bytes", "B"},
    {"hpc.sim_comm_s", "s"},
    {"hpc.sim_compute_s", "s"},
    {"accel.offloads", "count"},
    {"accel.queue_wait_s", "s"},
    {"accel.busy_s", "s"},
    {"wf.step_retries", "count"},
    {"wf.host_submit_ns", "ns"},
    {"wf.cp_share.workflow", "frac"},
    {"wf.cp_share.scheduler", "frac"},
    {"wf.cp_share.cloud", "frac"},
    {"wf.cp_share.dataflow", "frac"},
    {"wf.cp_share.shuffle", "frac"},
    {"wf.cp_share.hpc", "frac"},
    {"wf.cp_share.storage", "frac"},
    {"wf.cp_share.network", "frac"},
    {"wf.cp_share.accel", "frac"},
    {"wf.cp_share.serve", "frac"},
    {"wf.cp_share.tablet", "frac"},
    {"health.quarantines", "count"},
    {"health.ttq_ms", "ms"},
    {"trace.spans", "count"},
    {"trace.overhead_frac", "frac"},
    {"tail.workflow_share", "frac"},
    {"tail.scheduler_share", "frac"},
    {"tail.cloud_share", "frac"},
    {"tail.dataflow_share", "frac"},
    {"tail.shuffle_share", "frac"},
    {"tail.hpc_share", "frac"},
    {"tail.storage_share", "frac"},
    {"tail.network_share", "frac"},
    {"tail.accel_share", "frac"},
    {"tail.serve_share", "frac"},
    {"tail.tablet_share", "frac"},
    {"host.setup.build_s", "s"},
    {"host.setup.stage_s", "s"},
};

// Set-up-only passes before each measured run. Spreading them over the
// whole measurement, instead of making them all at the start, keeps one
// slow moment of the machine from deciding the set-up median.
constexpr int kSetupsPerRun = 10;
constexpr int kMinRuns = 3;

double median(std::vector<double> values) {
  return percentile(std::move(values), 50);
}

/// First simulated difference between two runs of one seed, or "".
std::string simulated_difference(const RunResult& a, const RunResult& b) {
  if (a.arrival_digest != b.arrival_digest) return "arrival stream";
  if (a.offered != b.offered || a.completed != b.completed ||
      a.shed != b.shed || a.failed != b.failed ||
      a.within_slo != b.within_slo) {
    return "outcome counts";
  }
  if (a.latency_ms != b.latency_ms) return "latency samples";
  if (a.events != b.events) return "event count";
  if (a.layers.items().size() != b.layers.items().size()) {
    return "per-layer metric set";
  }
  for (const Metric& m : a.layers.items()) {
    const Metric* other = b.layers.find(m.name);
    if (!other || other->value != m.value) return m.name;
  }
  return "";
}

// Peak resident memory of one run, in MiB. The run happens in a fresh
// child process, so the figure belongs to one run of this workload and
// not to the repeated runs of the measuring process.
double peak_rss_mib(const Workload& w, std::uint64_t seed,
                    std::vector<std::string>& violations) {
  std::cout.flush();
  const pid_t pid = fork();
  if (pid == 0) {
    const RunResult r = w.run({seed, false, false});
    _exit(r.violations.empty() ? 0 : 1);
  }
  int status = 0;
  if (pid < 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    violations.push_back("the peak-memory run failed");
  }
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0;
}

// Two untraced runs and one traced run of one seed agree on every
// simulated result; another seed makes a different arrival stream.
int selftest(const Workload& w, std::uint64_t seed) {
  std::vector<std::string> problems;
  const RunResult a = w.run({seed, false, false});
  const RunResult b = w.run({seed, false, false});
  const RunResult traced = w.run({seed, true, false});
  const RunResult other = w.run({seed + 1, false, false});
  for (const RunResult* r : {&a, &b, &traced, &other}) {
    problems.insert(problems.end(), r->violations.begin(),
                    r->violations.end());
  }
  const std::string rerun = simulated_difference(a, b);
  if (!rerun.empty()) problems.push_back("rerun differs in " + rerun);
  const std::string tracing = simulated_difference(a, traced);
  if (!tracing.empty()) {
    problems.push_back("traced run differs in " + tracing);
  }
  if (a.arrival_digest == other.arrival_digest) {
    problems.push_back("seeds " + std::to_string(seed) + " and " +
                       std::to_string(seed + 1) +
                       " made the same arrival stream");
  }
  for (const std::string& p : problems) {
    std::cerr << w.name << ": " << p << "\n";
  }
  std::cout << "selftest " << w.name << " seed " << seed << ": "
            << (problems.empty() ? "ok" : "FAILED") << "\n";
  return problems.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n"
                 "       perfbench --selftest --workload <name> --seed <n>\n";
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (!workload) {
    std::cerr << "unknown workload: " << args.workload << "\n";
    return 2;
  }
  if (args.selftest) return selftest(*workload, args.seed);

  std::vector<std::string> violations;
  const double peak_rss =
      args.trace ? 0.0 : peak_rss_mib(*workload, args.seed, violations);
  std::vector<double> setup_s, build_s, stage_s;
  auto note_setup = [&](const RunResult& r) {
    setup_s.push_back(r.build_s + r.stage_s);
    build_s.push_back(r.build_s);
    stage_s.push_back(r.stage_s);
  };

  // Measured runs: the same seed until the time budget is spent.
  const auto start = Clock::now();
  RunResult first;
  std::vector<double> run_s;
  // Fastest host time seen for each slice of the run. Every run of one
  // seed does the same work slice by slice, and interference from other
  // processes only ever adds time, so the sum of the per-slice minima
  // estimates the undisturbed run time far more steadily than any one
  // run's total.
  std::vector<double> fastest_slice;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  while (static_cast<int>(run_s.size()) < kMinRuns ||
         elapsed_s(start) < args.seconds) {
    for (int i = 0; i < kSetupsPerRun; ++i) {
      note_setup(workload->run({args.seed, false, true}));
    }
    RunResult r = workload->run({args.seed, false, false});
    note_setup(r);
    run_s.push_back(r.run_s);
    if (fastest_slice.empty()) fastest_slice = r.slice_s;
    for (std::size_t k = 0; k < fastest_slice.size() && k < r.slice_s.size();
         ++k) {
      fastest_slice[k] = std::min(fastest_slice[k], r.slice_s[k]);
    }
    attempted += r.offered;
    failed += r.shed + r.failed;
    violations.insert(violations.end(), r.violations.begin(),
                      r.violations.end());
    if (run_s.size() == 1) {
      first = std::move(r);
    } else if (const std::string d = simulated_difference(first, r);
               !d.empty()) {
      violations.push_back("rerun of one seed differs in " + d);
    }
  }

  double run_estimate_s = 0;
  for (double s : fastest_slice) run_estimate_s += s;
  const std::vector<double>& lat = first.latency_ms;
  const double offered = static_cast<double>(std::max<std::int64_t>(
      first.offered, 1));
  std::cout << "workload " << workload->name << "  seed " << args.seed
            << "  runs " << run_s.size() << "\n"
            << "  " << workload->unit << "s offered " << first.offered
            << ", completed " << first.completed << " (latency samples "
            << lat.size() << "), shed " << first.shed << ", failed "
            << first.failed << ", failed_frac "
            << static_cast<double>(first.shed + first.failed) / offered
            << "\n"
            << "  " << workload->unit << " latency ms: p50 "
            << percentile(lat, 50) << "  p95 " << percentile(lat, 95)
            << "  p99 " << percentile(lat, 99) << "  p99.9 "
            << percentile(lat, 99.9) << "\n"
            << "  host: setup_s " << median(setup_s) << " (min "
            << percentile(setup_s, 0) << ", max " << percentile(setup_s, 100)
            << ")  run_s " << run_estimate_s << " (whole runs: min "
            << percentile(run_s, 0) << ", median " << median(run_s)
            << ", max " << percentile(run_s, 100) << ")  events "
            << first.events << "\n";

  MetricSet metrics;
  const MetricSpec* specs = kEndToEnd;
  std::size_t spec_count = std::size(kEndToEnd);
  if (!args.trace) {
    metrics.set("setup_s", median(setup_s), "s");
    metrics.set("run_s", run_estimate_s, "s");
    metrics.set("peak_rss_mib", peak_rss, "MiB");
    metrics.set("p50_ms", percentile(lat, 50), "ms");
    metrics.set("tail_ms", percentile(lat, workload->tail_percentile), "ms");
    metrics.set("goodput_frac",
                static_cast<double>(first.within_slo) / offered, "frac");
  } else {
    specs = kPerLayer;
    spec_count = std::size(kPerLayer);
    RunResult traced = workload->run({args.seed, true, false});
    violations.insert(violations.end(), traced.violations.begin(),
                      traced.violations.end());
    if (const std::string d = simulated_difference(first, traced);
        !d.empty()) {
      violations.push_back("tracing changed the simulated " + d);
    }
    for (const Metric& m : first.layers.items()) {
      metrics.set(m.name, m.value, m.unit);
    }
    for (const Metric& m : traced.traced.items()) {
      metrics.set(m.name, m.value, m.unit);
    }
    metrics.set("sim.events", static_cast<double>(first.events), "count");
    metrics.set("sim.host_ns_per_event",
                run_estimate_s * 1e9 /
                    static_cast<double>(std::max<std::int64_t>(first.events,
                                                               1)),
                "ns");
    metrics.set("trace.overhead_frac", traced.run_s / median(run_s) - 1.0,
                "frac");
    metrics.set("host.setup.build_s", median(build_s), "s");
    metrics.set("host.setup.stage_s", median(stage_s), "s");
  }

  for (const Metric& m : metrics.items()) {
    const bool declared =
        std::any_of(specs, specs + spec_count, [&](const MetricSpec& spec) {
          return m.name == spec.name && m.unit == spec.unit;
        });
    if (!declared) violations.push_back("undeclared metric " + m.name);
  }
  for (const std::string& v : violations) {
    std::cerr << "violation: " << v << "\n";
  }
  std::string json = "{\"correct\": ";
  json += violations.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < spec_count; ++i) {
    const Metric* m = metrics.find(specs[i].name);
    const double value = m ? m->value : 0.0;
    std::cout << "  " << specs[i].name << " = " << value << " "
              << specs[i].unit << "\n";
    if (i > 0) json += ", ";
    json += "\"" + std::string(specs[i].name) + "\": {\"value\": " +
            json_number(value) + ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return violations.empty() ? 0 : 1;
}
