#include "metrics/registry.hpp"

#include <sstream>

namespace evolve::metrics {

namespace {

// The entry under `name`, default-constructed on first use; only that
// first use copies the name into a std::string.
template <typename Map>
typename Map::mapped_type& slot(Map& map, std::string_view name) {
  auto it = map.lower_bound(name);
  if (it == map.end() || it->first != name) {
    it = map.try_emplace(it, std::string(name));
  }
  return it->second;
}

}  // namespace

const Histogram Registry::kEmptyHistogram{};
const TimeSeries Registry::kEmptySeries{};

void Registry::count(std::string_view name, std::int64_t delta) {
  slot(counters_, name) += delta;
}

std::int64_t Registry::counter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void Registry::set_gauge(std::string_view name, double value) {
  slot(gauges_, name) = value;
}

double Registry::gauge(std::string_view name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

void Registry::observe(std::string_view name, std::int64_t value) {
  slot(histograms_, name).record(value);
}

const Histogram& Registry::histogram(std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? kEmptyHistogram : it->second;
}

bool Registry::has_histogram(std::string_view name) const {
  return histograms_.count(name) != 0;
}

void Registry::sample(std::string_view name, util::TimeNs time,
                      double value) {
  slot(series_, name).record(time, value);
}

const TimeSeries& Registry::series(std::string_view name) const {
  auto it = series_.find(name);
  return it == series_.end() ? kEmptySeries : it->second;
}

bool Registry::has_series(std::string_view name) const {
  return series_.count(name) != 0;
}

std::string Registry::render() const {
  std::ostringstream out;
  for (const auto& [name, value] : counters_) {
    out << "counter " << name << " = " << value << "\n";
  }
  for (const auto& [name, value] : gauges_) {
    out << "gauge " << name << " = " << value << "\n";
  }
  for (const auto& [name, hist] : histograms_) {
    out << "histogram " << name << " " << hist.summary() << "\n";
  }
  for (const auto& [name, ts] : series_) {
    out << "series " << name << " n=" << ts.size() << " last=" << ts.last()
        << "\n";
  }
  return out.str();
}

void Registry::reset() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  series_.clear();
}

}  // namespace evolve::metrics
