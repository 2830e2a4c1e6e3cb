#include "metrics/timeseries.hpp"

#include <algorithm>
#include <stdexcept>

namespace evolve::metrics {

void TimeSeries::record(util::TimeNs time, double value) {
  if (!samples_.empty() && time < samples_.back().time) {
    throw std::invalid_argument("TimeSeries::record: time went backwards");
  }
  samples_.push_back(Sample{time, value});
}

double TimeSeries::last() const {
  return samples_.empty() ? 0.0 : samples_.back().value;
}

double TimeSeries::min() const {
  double best = samples_.empty() ? 0.0 : samples_.front().value;
  for (const auto& s : samples_) best = std::min(best, s.value);
  return best;
}

double TimeSeries::max() const {
  double best = samples_.empty() ? 0.0 : samples_.front().value;
  for (const auto& s : samples_) best = std::max(best, s.value);
  return best;
}

double TimeSeries::integral(util::TimeNs end) const {
  if (samples_.empty()) return 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const util::TimeNs next =
        (i + 1 < samples_.size()) ? samples_[i + 1].time : end;
    if (next <= samples_[i].time) continue;
    total += samples_[i].value * util::to_seconds(next - samples_[i].time);
  }
  return total;
}

double TimeSeries::time_weighted_mean(util::TimeNs end) const {
  if (samples_.empty()) return 0.0;
  const util::TimeNs span = end - samples_.front().time;
  if (span <= 0) return samples_.front().value;
  return integral(end) / util::to_seconds(span);
}

void UsageTracker::add(util::TimeNs time, double delta) {
  if (time < last_time_) {
    throw std::invalid_argument("UsageTracker::add: time went backwards");
  }
  weighted_sum_ += level_ * static_cast<double>(time - last_time_);
  last_time_ = time;
  level_ += delta;
  peak_ = std::max(peak_, level_);
}

double UsageTracker::integral(util::TimeNs end) const {
  if (end <= last_time_) return weighted_sum_;
  return weighted_sum_ + level_ * static_cast<double>(end - last_time_);
}

double UsageTracker::mean_usage(util::TimeNs end) const {
  if (end <= 0) return 0.0;
  return integral(end) / static_cast<double>(end);
}

double UsageTracker::utilization(util::TimeNs end) const {
  if (capacity_ <= 0) return 0.0;
  return mean_usage(end) / capacity_;
}

}  // namespace evolve::metrics
