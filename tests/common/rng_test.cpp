#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace bb {
namespace {

TEST(SplitMix, DeterministicAndDistinct) {
  SplitMix64 a(42), b(42), c(43);
  const u64 a1 = a.next();
  EXPECT_EQ(a1, b.next());
  EXPECT_NE(a1, c.next());
}

TEST(Rng, SameSeedSameStream) {
  Rng a(7), b(7);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(7), b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(1);
  for (u64 bound : {u64{1}, u64{2}, u64{17}, u64{1000000}}) {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowZeroIsZero) {
  Rng rng(1);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(Rng, NextBoolProbability) {
  Rng rng(5);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.next_bool(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, GapMeanMatches) {
  Rng rng(3);
  for (double mean : {2.0, 10.0, 62.1, 1000.0}) {
    double sum = 0;
    const int n = 200000;
    const GeometricGap gap(mean);
    for (int i = 0; i < n; ++i) sum += static_cast<double>(gap.sample(rng));
    EXPECT_NEAR(sum / n / mean, 1.0, 0.05) << "mean " << mean;
  }
}

TEST(Rng, GapAlwaysPositive) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_GE(GeometricGap(0.5).sample(rng), 1u);
    ASSERT_GE(GeometricGap(1.0).sample(rng), 1u);
  }
}

TEST(Zipf, SampleInRange) {
  Rng rng(6);
  ZipfSampler zipf(100, 1.0);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_LT(zipf.sample(rng), 100u);
  }
}

TEST(Zipf, SkewConcentratesMass) {
  Rng rng(8);
  ZipfSampler zipf(1000, 1.2);
  std::vector<int> counts(1000, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<std::size_t>(zipf.sample(rng))];
  // Rank 0 must dominate rank 10 which must dominate rank 100.
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[100]);
  // The head holds a large share under s = 1.2.
  int head = 0;
  for (int i = 0; i < 10; ++i) head += counts[i];
  EXPECT_GT(static_cast<double>(head) / n, 0.25);
}

TEST(Zipf, UniformWhenSZero) {
  Rng rng(10);
  ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<std::size_t>(zipf.sample(rng))];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(Zipf, SingleElement) {
  Rng rng(11);
  ZipfSampler zipf(1, 1.0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.sample(rng), 0u);
}

TEST(Zipf, ZeroElementsClamped) {
  ZipfSampler zipf(0, 1.0);
  EXPECT_EQ(zipf.n(), 1u);
}

TEST(Zipf, BranchlessSearchMatchesLowerBound) {
  // The oracle is the std::lower_bound search sample() ran before. Sizes
  // cover the degenerate tables and the hot-region counts of mcf, lbm and
  // cam4; s = 8 makes the tail of the CDF round to runs of equal entries.
  for (u64 n : {1u, 2u, 3u, 160u, 3676u, 24576u}) {
    for (double s : {0.0, 0.9, 8.0}) {
      const ZipfSampler zipf(n, s);
      const std::vector<double>& cdf = zipf.cdf();
      const auto lower_bound_index = [&](double u) {
        return static_cast<u64>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                                cdf.begin());
      };
      for (double c : cdf) {
        ASSERT_EQ(zipf.index_of(c), lower_bound_index(c)) << n << " " << s;
      }
      ASSERT_EQ(zipf.index_of(0.0), 0u);
      Rng draws(n), oracle(n);
      for (int i = 0; i < 1'000'000; ++i) {
        ASSERT_EQ(zipf.sample(draws), lower_bound_index(oracle.next_double()))
            << n << " " << s << " draw " << i;
      }
    }
  }
}

TEST(GeometricGap, MatchesPerDrawFormula) {
  // The oracle recomputes log1p(-1/mean) on every draw, as Rng::next_gap
  // did before the term was hoisted.
  for (double mean : {0.5, 1.0, 1.5, 62.1, 1000.0, 1e7}) {
    const GeometricGap gap(mean);
    Rng draws(5), oracle(5);
    for (int i = 0; i < 100'000; ++i) {
      u64 expected = 1;
      if (mean > 1.0) {
        const double p = 1.0 / mean;
        const double u = oracle.next_double();
        const double g = std::log1p(-u) / std::log1p(-p);
        expected = static_cast<u64>(g) + 1;
        if (expected == 0) expected = 1;
      }
      ASSERT_EQ(gap.sample(draws), expected) << mean << " draw " << i;
    }
    ASSERT_EQ(draws.state(), oracle.state()) << mean;
  }
}

class RngSeedTest : public ::testing::TestWithParam<u64> {};

TEST_P(RngSeedTest, ReseedReproduces) {
  Rng a(GetParam());
  std::vector<u64> first;
  for (int i = 0; i < 64; ++i) first.push_back(a.next_u64());
  a.reseed(GetParam());
  for (int i = 0; i < 64; ++i) ASSERT_EQ(a.next_u64(), first[static_cast<std::size_t>(i)]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedTest,
                         ::testing::Values(0, 1, 42, 0xdeadbeef,
                                           ~u64{0}));

}  // namespace
}  // namespace bb
