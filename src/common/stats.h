// Lightweight statistics primitives: named counters, scalar summaries and
// fixed-bucket histograms used for every reported metric.
#pragma once

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace bb::snap {
class Reader;
class Writer;
}  // namespace bb::snap

namespace bb {

/// Monotonic event counter.
class Counter {
 public:
  void inc(u64 by = 1) { value_ += by; }
  u64 value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  u64 value_ = 0;
};

/// Running scalar summary (count / sum / min / max / mean).
class ScalarStat {
 public:
  void sample(double v) {
    if (count_ == 0) {
      min_ = max_ = v;
    } else {
      min_ = std::min(min_, v);
      max_ = std::max(max_, v);
    }
    sum_ += v;
    ++count_;
  }

  u64 count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }

  void reset() { *this = ScalarStat{}; }

 private:
  u64 count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Histogram over fixed, caller-supplied bucket upper bounds.
///
/// A sample `v` lands in the first bucket whose upper bound is > v; samples
/// beyond the last bound land in an overflow bucket.
class Histogram {
 public:
  /// Empty histogram (single overflow bucket); useful as a default member
  /// that is later replaced by one with real bounds.
  Histogram() : Histogram(std::vector<double>{}) {}
  explicit Histogram(std::vector<double> upper_bounds);

  void sample(double v, u64 weight = 1) { add(bucket_of(v), weight); }

  /// The bucket `v` lands in (bucket_count() - 1 is the overflow bucket).
  /// With add(), lets histograms sharing these bounds search once per
  /// sample.
  std::size_t bucket_of(double v) const {
    // Counting the bounds not above v equals upper_bound's index for
    // sorted bounds, without its unpredictable branches.
    std::size_t i = 0;
    for (double b : bounds_) i += !(v < b);
    return i;
  }
  /// Adds `weight` samples to bucket `i`, as returned by bucket_of().
  void add(std::size_t i, u64 weight = 1) {
    counts_[i] += weight;
    total_ += weight;
  }

  std::size_t bucket_count() const { return counts_.size(); }
  u64 bucket(std::size_t i) const { return counts_.at(i); }
  double upper_bound(std::size_t i) const { return bounds_.at(i); }
  u64 total() const { return total_; }

  /// Fraction of samples in bucket i (0 if empty histogram).
  double fraction(std::size_t i) const;

  /// Estimates the q-quantile (q in [0, 1]) by linear interpolation within
  /// the bucket containing the target rank. Bucket i spans
  /// [bounds[i-1], bounds[i]) with bucket 0 starting at 0; samples in the
  /// overflow bucket are clamped to the last bound (a histogram cannot know
  /// how far past it they landed). Returns 0 for an empty histogram.
  double quantile(double q) const;

  void reset();

  /// Snapshot/restore of the counts (bounds are construction-time shape and
  /// must match; load fails closed on a bucket-count mismatch).
  void save(snap::Writer& w) const;
  void load(snap::Reader& r);

 private:
  std::vector<double> bounds_;
  std::vector<u64> counts_;  // bounds_.size() + 1 (overflow)
  u64 total_ = 0;
};

/// Geometric mean of a list of positive values (0 if empty or any <= 0).
double geomean(const std::vector<double>& values);

/// A named bundle of counters for ad-hoc bookkeeping in tests/examples.
class StatGroup {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  const std::map<std::string, Counter>& counters() const { return counters_; }
  void reset();

 private:
  std::map<std::string, Counter> counters_;
};

}  // namespace bb
