// Shared pieces of the benchmark driver: run options and results, the
// host clock, percentiles, and the trace analysis behind the per-layer
// metrics.
//
// A workload function builds one simulated world from a seed, runs it
// to drain, checks its invariants and returns a RunResult. Everything
// under "simulated" in RunResult is a pure function of the seed: two
// runs of one seed, traced or not, must agree on it exactly.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulation.hpp"
#include "trace/tracer.hpp"
#include "util/types.hpp"

namespace perfbench {

namespace trace = evolve::trace;
namespace util = evolve::util;

using Clock = std::chrono::steady_clock;

inline double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

/// CPU seconds this thread has used. The simulator runs on one thread,
/// so differences of this clock are its host cost without the time
/// other processes held the core.
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Metrics in insertion order; setting a name twice overwrites it.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const Metric* find(const std::string& name) const;
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// Host time of the benchmark's own synchronous calls into the program
/// (submit, run_workflow). Off, it only forwards the call, so untraced
/// runs pay nothing for it.
class HostTimer {
 public:
  explicit HostTimer(bool on) : on_(on) {}

  template <class Fn>
  void time(Fn&& fn) {
    if (!on_) {
      fn();
      return;
    }
    const auto t0 = Clock::now();
    fn();
    ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - t0)
               .count();
    ++calls_;
  }

  double mean_ns() const {
    return calls_ == 0 ? 0.0 : static_cast<double>(ns_) / calls_;
  }

 private:
  bool on_;
  std::int64_t ns_ = 0;
  std::int64_t calls_ = 0;
};

struct RunOptions {
  std::uint64_t seed = 1;
  bool traced = false;
  /// Build and stage the world, then return without running it.
  bool setup_only = false;
};

struct RunResult {
  // -- Simulated: identical for one seed, traced or not ----------------
  /// Units of work (ops or workflows) the generator made due.
  std::int64_t offered = 0;
  std::int64_t completed = 0;
  std::int64_t shed = 0;
  std::int64_t failed = 0;
  /// Completed within their class SLO.
  std::int64_t within_slo = 0;
  /// Latency of each completed unit from the moment it was due, in
  /// completion order.
  std::vector<double> latency_ms;
  /// Fingerprint of the generated input stream (arrival times, classes,
  /// keys, shapes).
  std::uint64_t arrival_digest = 0;
  /// Per-layer counters and simulated times from public accessors.
  MetricSet layers;

  // -- Traced runs only ------------------------------------------------
  /// Per-layer metrics derived from the span trace and host brackets.
  MetricSet traced;

  // -- Host ------------------------------------------------------------
  double build_s = 0;  // cluster, fabric, store and services
  double stage_s = 0;  // dataset staging and input generation
  double run_s = 0;    // running the simulation to drain
  /// Host CPU seconds of each simulated-time slice of the run (see
  /// run_timed); slice k covers the same events in every run of a seed.
  std::vector<double> slice_s;
  std::int64_t events = 0;

  /// Violated invariants; any entry fails the benchmark.
  std::vector<std::string> violations;

  void check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
};

/// Runs `sim` to drain, timing it in equal simulated-time slices over
/// [0, span) plus one final slice for the drain, and records run_s,
/// slice_s and events in `result`.
void run_timed(evolve::sim::Simulation& sim, util::TimeNs span,
               RunResult& result);

RunResult run_tablet_skew(const RunOptions& options);
RunResult run_converged_pipelines(const RunOptions& options);
RunResult run_serve_spike(const RunOptions& options);

/// Derives an independent stream seed from the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Order-sensitive 64-bit fingerprint step.
std::uint64_t digest(std::uint64_t state, std::uint64_t value);

/// Nearest-rank percentile of `values` (p in [0, 100]); 0 when empty.
double percentile(std::vector<double> values, double p);

// -- Trace analysis ------------------------------------------------------

/// Root spans (no parent) with the given name, in span-id order.
std::vector<trace::SpanId> roots_named(const trace::Tracer& tracer,
                                       std::string_view name);

/// Seconds each layer spends in its own spans: a span's duration minus
/// the part of it its children cover, summed by layer.
std::array<double, trace::kLayerCount> self_seconds(
    const trace::Tracer& tracer);

struct SpanTotals {
  std::int64_t count = 0;
  double seconds = 0;      // summed durations
  double attr_sum = 0;     // summed numeric attribute, when asked for
};

/// Count and summed duration of the closed spans named `name`; with
/// `attr`, also the sum of that attribute parsed as a number.
SpanTotals span_totals(const trace::Tracer& tracer, std::string_view name,
                       std::string_view attr = {});

/// Critical-path share of each layer over `roots`: summed per-layer
/// path time over summed root durations. Each root's shares must sum to
/// 1; a root that does not is reported through `result`.
std::array<double, trace::kLayerCount> critical_path_shares(
    const trace::Tracer& tracer, const std::vector<trace::SpanId>& roots,
    RunResult& result);

/// Records `<prefix><layer><suffix>` for every trace layer.
void set_layer_metrics(MetricSet& set, const std::string& prefix,
                       const std::string& suffix,
                       const std::array<double, trace::kLayerCount>& values,
                       const std::string& unit);

/// The trace metrics every workload reports: span count, and the
/// critical-path layer shares of the units whose latency is above the
/// run's p99 (`unit_roots` are the units' root spans).
void add_common_trace_metrics(const trace::Tracer& tracer,
                              const std::vector<trace::SpanId>& unit_roots,
                              RunResult& result);

}  // namespace perfbench
