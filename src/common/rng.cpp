#include "common/rng.h"

namespace bb {

ZipfSampler::ZipfSampler(u64 n, double s) : n_(n == 0 ? 1 : n), s_(s) {
  cdf_.resize(static_cast<std::size_t>(n_));
  double sum = 0.0;
  for (u64 i = 0; i < n_; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s_);
    cdf_[static_cast<std::size_t>(i)] = sum;
  }
  for (auto& c : cdf_) c /= sum;
  cdf_.back() = 1.0;  // guard against rounding
}

}  // namespace bb
