#include "obs/sketch.hpp"

#include <algorithm>
#include <cmath>

namespace nvms {

int QuantileSketch::bucket_of(double value) {
  int b = kBucketBias;
  if (value > 0.0) {
    b += static_cast<int>(std::floor(std::log2(value)));
  } else {
    b = 0;  // zero/negative observations collapse into the lowest bucket
  }
  return std::clamp(b, 0, kBuckets - 1);
}

double QuantileSketch::bucket_lo(int b) {
  if (b <= 0) return 0.0;
  return std::exp2(static_cast<double>(b - kBucketBias));
}

double QuantileSketch::bucket_hi(int b) {
  return std::exp2(static_cast<double>(b - kBucketBias + 1));
}

void QuantileSketch::add(double value) {
  ++buckets_[static_cast<std::size_t>(bucket_of(value))];
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void QuantileSketch::merge(const QuantileSketch& other) {
  for (int b = 0; b < kBuckets; ++b) {
    buckets_[static_cast<std::size_t>(b)] +=
        other.buckets_[static_cast<std::size_t>(b)];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

QuantileSketch QuantileSketch::from_metric(const Metric& m) {
  QuantileSketch s;
  if (m.buckets.size() == static_cast<std::size_t>(kBuckets)) {
    for (int b = 0; b < kBuckets; ++b) {
      const std::uint64_t n = m.buckets[static_cast<std::size_t>(b)];
      s.buckets_[static_cast<std::size_t>(b)] = n;
      s.count_ += n;
    }
  }
  // Histogram metrics track sum/min/max alongside the buckets; carry them
  // so interpolation clamps to the truly observed range.
  s.sum_ = m.sum;
  if (s.count_ > 0) {
    s.min_ = m.min;
    s.max_ = m.max;
  }
  return s;
}

double QuantileSketch::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th observation (1-based, nearest-rank with interpolation
  // inside the landing bucket).
  const double rank = q * static_cast<double>(count_);
  double cum = 0.0;
  for (int b = 0; b < kBuckets; ++b) {
    const double n =
        static_cast<double>(buckets_[static_cast<std::size_t>(b)]);
    if (n == 0.0) continue;
    if (cum + n >= rank) {
      const double frac = n > 0.0 ? (rank - cum) / n : 0.0;
      const double lo = bucket_lo(b);
      const double hi = bucket_hi(b);
      const double v = lo + frac * (hi - lo);
      return std::clamp(v, min(), max());
    }
    cum += n;
  }
  return max();
}

}  // namespace nvms
