#include "metrics/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

namespace evolve::metrics {

namespace {
constexpr int kSubBucketBits = 6;
constexpr std::int64_t kSubBuckets = 1 << kSubBucketBits;  // 64
}  // namespace

Histogram::Histogram() = default;

std::size_t Histogram::bucket_index(std::int64_t value) {
  if (value < 0) value = 0;
  if (value < kSubBuckets) return static_cast<std::size_t>(value);
  // Normalize to a mantissa in [64, 128): value = (64 + sub) << octave,
  // so each octave splits into 64 sub-buckets of width 2^octave
  // (bounded relative error ~1/64; octave 0 is exact).
  const auto v = static_cast<std::uint64_t>(value);
  const int msb = 63 - std::countl_zero(v);
  const int octave = msb - kSubBucketBits;  // >= 0
  const std::int64_t sub = (value >> octave) - kSubBuckets;
  return static_cast<std::size_t>(kSubBuckets + octave * kSubBuckets + sub);
}

std::int64_t Histogram::bucket_midpoint(std::size_t index) {
  if (index < static_cast<std::size_t>(kSubBuckets)) {
    return static_cast<std::int64_t>(index);
  }
  const std::size_t rest = index - kSubBuckets;
  const int octave = static_cast<int>(rest / kSubBuckets);
  const std::int64_t sub = static_cast<std::int64_t>(rest % kSubBuckets);
  const std::int64_t lo = (kSubBuckets + sub) << octave;
  const std::int64_t width = std::int64_t{1} << octave;
  return lo + width / 2;
}

void Histogram::record(std::int64_t value) { record_n(value, 1); }

void Histogram::record_n(std::int64_t value, std::int64_t count) {
  if (count <= 0) return;
  if (value < 0) value = 0;
  const std::size_t index = bucket_index(value);
  if (index >= buckets_.size()) buckets_.resize(index + 1, 0);
  buckets_[index] += count;
  if (cursor_p_ >= 0 && index <= cursor_i_) cursor_cum_ += count;
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  // Chan's batch update: `count` identical samples form a block with
  // mean `value` and zero internal variance.
  const double prior = static_cast<double>(count_);
  const double block = static_cast<double>(count);
  const double total = prior + block;
  const double delta = static_cast<double>(value) - welford_mean_;
  welford_mean_ += delta * block / total;
  m2_ += delta * delta * prior * block / total;
  count_ += count;
  sum_ += static_cast<double>(value) * static_cast<double>(count);
}

std::int64_t Histogram::min() const { return count_ == 0 ? 0 : min_; }
std::int64_t Histogram::max() const { return count_ == 0 ? 0 : max_; }

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::stddev() const {
  if (count_ == 0) return 0.0;
  const double var = m2_ / static_cast<double>(count_);
  return var <= 0 ? 0.0 : std::sqrt(var);
}

std::int64_t Histogram::percentile(double p) const {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  // The answer is the smallest bucket i whose running count reaches
  // max(target, 1); counts are integers, so a walk from any bucket with
  // a known running count lands on the same i as a scan from bucket 0.
  const auto target = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(p / 100.0 * static_cast<double>(count_))));
  if (p != cursor_p_) {
    cursor_p_ = p;
    cursor_i_ = 0;
    cursor_cum_ = buckets_[0];
  }
  while (cursor_cum_ < target) {
    if (cursor_i_ + 1 == buckets_.size()) {
      cursor_p_ = -1.0;
      return max_;
    }
    cursor_cum_ += buckets_[++cursor_i_];
  }
  while (cursor_i_ > 0 && cursor_cum_ - buckets_[cursor_i_] >= target) {
    cursor_cum_ -= buckets_[cursor_i_--];
  }
  return std::clamp(bucket_midpoint(cursor_i_), min_, max_);
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  cursor_p_ = -1.0;
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  // Chan's parallel combination of the two (mean, M2) pairs.
  const double prior = static_cast<double>(count_);
  const double block = static_cast<double>(other.count_);
  const double total = prior + block;
  const double delta = other.welford_mean_ - welford_mean_;
  welford_mean_ += delta * block / total;
  m2_ += other.m2_ + delta * delta * prior * block / total;
  count_ += other.count_;
  sum_ += other.sum_;
}

void Histogram::reset() {
  buckets_.clear();
  cursor_p_ = -1.0;
  count_ = 0;
  min_ = max_ = 0;
  sum_ = welford_mean_ = m2_ = 0;
}

std::string Histogram::summary() const {
  std::ostringstream out;
  out << "n=" << count_ << " mean=" << mean() << " p50=" << p50()
      << " p95=" << p95() << " p99=" << p99() << " max=" << max();
  return out.str();
}

util::TimeNs hedge_delay(const Histogram& latency_us, util::TimeNs min_delay,
                         std::int64_t min_samples) {
  if (latency_us.count() < min_samples) return min_delay;
  return std::max<util::TimeNs>(latency_us.p95() * util::kMicrosecond,
                                min_delay);
}

}  // namespace evolve::metrics
