#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "trace/critical_path.hpp"

namespace perfbench {

namespace {

// Tail roots whose critical path is walked. trace::critical_path indexes
// the whole trace on every call, so the walk is bounded to an evenly
// spaced sample of the units above p99.
constexpr std::size_t kTailSample = 64;

// Simulated-time slices per timed run.
constexpr int kSlices = 200;

}  // namespace

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back(Metric{name, value, unit});
}

const Metric* MetricSet::find(const std::string& name) const {
  for (const Metric& m : items_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void run_timed(evolve::sim::Simulation& sim, util::TimeNs span,
               RunResult& result) {
  const double start = thread_cpu_s();
  double last = start;
  std::int64_t events = 0;
  for (int k = 1; k <= kSlices; ++k) {
    events += static_cast<std::int64_t>(sim.run_until(span / kSlices * k));
    const double now = thread_cpu_s();
    result.slice_s.push_back(now - last);
    last = now;
  }
  events += static_cast<std::int64_t>(sim.run());
  const double end = thread_cpu_s();
  result.slice_s.push_back(end - last);
  result.run_s = end - start;
  result.events = events;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 over (seed, stream): distinct streams per seed.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t digest(std::uint64_t state, std::uint64_t value) {
  // FNV-1a over the value's bytes.
  if (state == 0) state = 0xcbf29ce484222325ULL;
  for (int i = 0; i < 8; ++i) {
    state ^= (value >> (8 * i)) & 0xff;
    state *= 0x100000001b3ULL;
  }
  return state;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::vector<trace::SpanId> roots_named(const trace::Tracer& tracer,
                                       std::string_view name) {
  std::vector<trace::SpanId> roots;
  for (const trace::Span& span : tracer.spans()) {
    if (span.parent == trace::kNoSpan && span.name == name) {
      roots.push_back(span.id);
    }
  }
  return roots;
}

std::array<double, trace::kLayerCount> self_seconds(
    const trace::Tracer& tracer) {
  const std::size_t n = tracer.spans().size();
  // Children of every span in one flat array (CSR layout).
  std::vector<std::size_t> first(n + 1, 0);
  for (const trace::Span& span : tracer.spans()) {
    if (span.parent != trace::kNoSpan) {
      ++first[static_cast<std::size_t>(span.parent)];
    }
  }
  for (std::size_t i = 1; i <= n; ++i) first[i] += first[i - 1];
  std::vector<trace::SpanId> kids(first[n]);
  std::vector<std::size_t> fill(first.begin(), first.end() - 1);
  for (const trace::Span& span : tracer.spans()) {
    if (span.parent != trace::kNoSpan) {
      kids[fill[static_cast<std::size_t>(span.parent) - 1]++] = span.id;
    }
  }

  std::array<double, trace::kLayerCount> self{};
  std::vector<std::pair<util::TimeNs, util::TimeNs>> cover;
  for (const trace::Span& span : tracer.spans()) {
    if (span.open()) continue;
    const std::size_t i = static_cast<std::size_t>(span.id) - 1;
    cover.clear();
    for (std::size_t k = first[i]; k < first[i + 1]; ++k) {
      const trace::Span& kid = tracer.span(kids[k]);
      const util::TimeNs lo = std::max(kid.start, span.start);
      const util::TimeNs hi = std::min(kid.open() ? span.end : kid.end,
                                       span.end);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    util::TimeNs covered = 0;
    util::TimeNs reach = span.start;
    for (const auto& [lo, hi] : cover) {
      const util::TimeNs from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[static_cast<std::size_t>(span.layer)] +=
        static_cast<double>(span.duration() - covered) / 1e9;
  }
  return self;
}

SpanTotals span_totals(const trace::Tracer& tracer, std::string_view name,
                       std::string_view attr) {
  SpanTotals totals;
  for (const trace::Span& span : tracer.spans()) {
    if (span.name != name || span.open()) continue;
    ++totals.count;
    totals.seconds += static_cast<double>(span.duration()) / 1e9;
    if (attr.empty()) continue;
    for (const auto& [key, value] : span.attrs) {
      if (key == attr) totals.attr_sum += std::strtod(value.c_str(), nullptr);
    }
  }
  return totals;
}

std::array<double, trace::kLayerCount> critical_path_shares(
    const trace::Tracer& tracer, const std::vector<trace::SpanId>& roots,
    RunResult& result) {
  std::array<double, trace::kLayerCount> share{};
  double total = 0;
  for (trace::SpanId root : roots) {
    const trace::CriticalPath path = trace::critical_path(tracer, root);
    util::TimeNs sum = 0;
    for (int l = 0; l < trace::kLayerCount; ++l) {
      sum += path.by_layer[l];
      share[static_cast<std::size_t>(l)] +=
          static_cast<double>(path.by_layer[l]);
    }
    result.check(sum == path.total,
                 "critical-path layer shares of span " +
                     std::to_string(root) + " do not sum to 1");
    total += static_cast<double>(path.total);
  }
  if (total > 0) {
    for (double& s : share) s /= total;
  }
  return share;
}

void set_layer_metrics(MetricSet& set, const std::string& prefix,
                       const std::string& suffix,
                       const std::array<double, trace::kLayerCount>& values,
                       const std::string& unit) {
  for (int l = 0; l < trace::kLayerCount; ++l) {
    set.set(prefix + trace::layer_name(static_cast<trace::Layer>(l)) + suffix,
            values[static_cast<std::size_t>(l)], unit);
  }
}

void add_common_trace_metrics(const trace::Tracer& tracer,
                              const std::vector<trace::SpanId>& unit_roots,
                              RunResult& result) {
  result.traced.set("trace.spans", static_cast<double>(tracer.spans().size()),
                    "count");
  const double p99_ms = percentile(result.latency_ms, 99);
  std::vector<trace::SpanId> tail;
  for (trace::SpanId root : unit_roots) {
    if (static_cast<double>(tracer.span(root).duration()) / 1e6 > p99_ms) {
      tail.push_back(root);
    }
  }
  if (tail.size() > kTailSample) {
    std::vector<trace::SpanId> sample;
    for (std::size_t i = 0; i < kTailSample; ++i) {
      sample.push_back(tail[i * tail.size() / kTailSample]);
    }
    tail = std::move(sample);
  }
  set_layer_metrics(result.traced, "tail.", "_share",
                    critical_path_shares(tracer, tail, result), "frac");
}

}  // namespace perfbench
