// Named metric registry: counters, gauges, histograms, series.
// Mirrors the Prometheus-style monitoring plane of the EVOLVE testbed.
//
// Names are looked up as string_views against transparently ordered
// maps, so recording under an existing name never builds a std::string;
// the key is copied once, on first use.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "metrics/histogram.hpp"
#include "metrics/timeseries.hpp"

namespace evolve::metrics {

class Registry {
 public:
  /// Monotonic counter (creates on first use).
  void count(std::string_view name, std::int64_t delta = 1);
  std::int64_t counter(std::string_view name) const;

  /// Last-value gauge.
  void set_gauge(std::string_view name, double value);
  double gauge(std::string_view name) const;

  /// Histogram sample.
  void observe(std::string_view name, std::int64_t value);
  const Histogram& histogram(std::string_view name) const;
  bool has_histogram(std::string_view name) const;

  /// Time series sample.
  void sample(std::string_view name, util::TimeNs time, double value);
  const TimeSeries& series(std::string_view name) const;
  bool has_series(std::string_view name) const;

  /// Plain-text dump of all metrics, sorted by name.
  std::string render() const;

  /// Drops every metric. Components whose typed counters (hedge_wins(),
  /// wal_commits(), ...) read this registry see those zeroed too.
  void reset();

 private:
  template <typename T>
  using Map = std::map<std::string, T, std::less<>>;

  Map<std::int64_t> counters_;
  Map<double> gauges_;
  Map<Histogram> histograms_;
  Map<TimeSeries> series_;
  static const Histogram kEmptyHistogram;
  static const TimeSeries kEmptySeries;
};

}  // namespace evolve::metrics
