// Deterministic random number generation for workload synthesis.
//
// All randomness in the repository flows through these generators so every
// experiment is bit-reproducible from its seed. We use SplitMix64 for
// seeding and xoshiro256** as the workhorse generator (public-domain
// algorithms by Blackman & Vigna).
#pragma once

#include <array>
#include <cmath>
#include <vector>

#include "common/types.h"

namespace bb {

/// SplitMix64: used to expand a single 64-bit seed into generator state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(u64 seed) : state_(seed) {}

  constexpr u64 next() {
    u64 z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  u64 state_;
};

/// xoshiro256**: fast, high-quality 64-bit PRNG.
class Rng {
 public:
  explicit Rng(u64 seed = 0x5eed5eed5eedULL) { reseed(seed); }

  void reseed(u64 seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  u64 next_u64() {
    const u64 result = rotl(state_[1] * 5, 7) * 9;
    const u64 t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound == 0 returns 0.
  u64 next_below(u64 bound) {
    if (bound == 0) return 0;
    // Lemire's multiply-shift rejection-free mapping is fine for our
    // non-cryptographic needs; bias is < 2^-64 * bound.
    return static_cast<u64>(
        (static_cast<unsigned __int128>(next_u64()) * bound) >> 64);
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool next_bool(double p) { return next_double() < p; }

  /// Generator state, for snapshot/restore of in-flight runs. Restoring a
  /// saved state resumes the stream bit-exactly where it left off.
  std::array<u64, 4> state() const { return state_; }
  void set_state(const std::array<u64, 4>& s) { state_ = s; }

 private:
  static constexpr u64 rotl(u64 x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<u64, 4> state_{};
};

/// Positive gaps with a fixed mean (>= 1), by inverse-CDF sampling of a
/// geometric distribution: deterministic and cheap. The per-mean term
/// log1p(-1/mean) is computed at construction, so each gap costs one
/// uniform draw and one log1p. A mean <= 1 yields 1 without drawing.
class GeometricGap {
 public:
  explicit GeometricGap(double mean)
      : unit_(mean <= 1.0), log1m_p_(unit_ ? 0.0 : std::log1p(-1.0 / mean)) {}

  u64 sample(Rng& rng) const {
    if (unit_) return 1;
    const double g = std::log1p(-rng.next_double()) / log1m_p_;
    const u64 gap = static_cast<u64>(g) + 1;
    return gap == 0 ? 1 : gap;
  }

 private:
  bool unit_;
  double log1m_p_;  ///< log1p(-p) with p = 1 / mean
};

/// Samples from a Zipf distribution over {0, 1, ..., n-1} with exponent s.
///
/// Uses a precomputed inverse-CDF table (O(n) setup, O(log n) sampling),
/// which is exact and deterministic — appropriate for hot-set sizes up to a
/// few million pages. The search is branch-free and returns the index
/// std::lower_bound would.
class ZipfSampler {
 public:
  ZipfSampler(u64 n, double s);

  u64 sample(Rng& rng) const { return index_of(rng.next_double()); }

  /// The first index whose CDF entry is >= u, for u in [0, 1).
  u64 index_of(double u) const {
    // Halve the candidate range [base, base + len] each step with a
    // conditional move instead of a branch the CPU cannot predict.
    const double* base = cdf_.data();
    std::size_t len = cdf_.size();
    while (len > 1) {
      const std::size_t half = len / 2;
      base = base[half] < u ? base + half : base;
      len -= half;
    }
    return static_cast<u64>(base - cdf_.data()) + (*base < u);
  }

  u64 n() const { return n_; }
  double s() const { return s_; }
  /// The inverse-CDF table index_of() searches: entry i is P(X <= i).
  const std::vector<double>& cdf() const { return cdf_; }

 private:
  u64 n_;
  double s_;
  std::vector<double> cdf_;  // cdf_[i] = P(X <= i)
};

}  // namespace bb
