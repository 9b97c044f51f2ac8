// Deterministic fixed-bucket quantile sketches on top of the metrics
// registry.
//
// QuantileSketch shares its bucket geometry with Metric's log2 histogram
// (value v lands in bucket floor(log2 v) + bias), so a sketch can be
// built either by streaming observations or directly from a recorded
// Metric's buckets.  Quantiles are answered by cumulative bucket walk plus
// linear interpolation inside the landing bucket — a pure function of the
// bucket counts, so p50/p95/p99 are byte-stable across runs, worker
// counts and platforms (no sampling, no randomized mergeability tricks).
// The relative error is bounded by the bucket width (a factor of 2),
// which is the paper-appropriate resolution for phase durations and
// bandwidth samples spanning many orders of magnitude.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "obs/metrics.hpp"

namespace nvms {

class QuantileSketch {
 public:
  static constexpr int kBuckets = Metric::kBuckets;
  static constexpr int kBucketBias = Metric::kBucketBias;

  /// Bucket index for `value` — identical to MetricsRegistry::observe.
  static int bucket_of(double value);
  /// Inclusive value range [lo, hi) covered by bucket `b`.  The lowest
  /// bucket absorbs everything <= its upper bound (zero/negative
  /// observations), the highest everything above its lower bound.
  static double bucket_lo(int b);
  static double bucket_hi(int b);

  void add(double value);
  void merge(const QuantileSketch& other);

  /// Seed a sketch from a recorded histogram Metric's buckets (count/sum/
  /// min/max come along, so quantile() can clamp to the observed range).
  static QuantileSketch from_metric(const Metric& m);

  /// Quantile estimate for q in [0, 1]: cumulative bucket walk, linear
  /// interpolation inside the landing bucket, clamped to [min, max].
  /// Returns 0 for an empty sketch.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }

 private:
  std::vector<std::uint64_t> buckets_ =
      std::vector<std::uint64_t>(kBuckets, 0);
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace nvms
