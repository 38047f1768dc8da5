// Statistical guards for the address-hashing in the DRAM decode: common
// stride patterns (page frames, blocks, lines) must spread across channels
// and banks instead of aliasing onto a few — the regression that once
// serialized every page-aligned fill onto one bank.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "mem/dram_device.h"

namespace bb::mem {
namespace {

/// Issues one beat per address and returns how concentrated the busiest
/// resource was, using the row-state counters as a proxy: we measure by
/// timing instead — total completion spread for n accesses at t=0.
Tick completion_spread(DramDevice& dev, u64 stride, int n) {
  Tick max_complete = 0;
  for (int i = 0; i < n; ++i) {
    const auto r = dev.access(static_cast<Addr>(i) * stride, 64,
                              AccessType::kRead, 0);
    max_complete = std::max(max_complete, r.complete);
  }
  return max_complete;
}

class StrideSpreadTest : public ::testing::TestWithParam<u64> {};

TEST_P(StrideSpreadTest, HbmStridesDoNotSerialize) {
  auto p = DramTimingParams::hbm2_1gb();
  p.refresh_enabled = false;
  DramDevice dev(p);
  const int n = 64;
  const Tick spread = completion_spread(dev, GetParam(), n);
  // Fully serialized on one bank would cost ~n * (tRCD + tCAS + burst).
  const Tick serialized =
      static_cast<Tick>(n) *
      (p.cycles_to_ticks(p.tRCD + p.tCAS) + p.burst_ticks());
  EXPECT_LT(spread, serialized / 3)
      << "stride " << GetParam() << " aliases onto too few banks";
}

INSTANTIATE_TEST_SUITE_P(Strides, StrideSpreadTest,
                         ::testing::Values(u64{64}, u64{2 * KiB},
                                           u64{4 * KiB}, u64{64 * KiB},
                                           u64{96 * KiB}, u64{128 * KiB},
                                           u64{1 * MiB}));

TEST(DecodeDistribution, HashedStridesPerformLikeSequential) {
  // The whole point of the XOR channel/bank hash: strided patterns spread
  // as well as sequential ones. 512 beats of each must complete within a
  // factor of two of each other (no hash -> the strided pattern would be
  // an order of magnitude slower on one channel).
  auto p = DramTimingParams::hbm2_1gb();
  p.refresh_enabled = false;
  DramDevice a(p);
  DramDevice b(p);
  Tick seq_done = 0;
  for (Addr x = 0; x < 32 * KiB; x += 64) {
    seq_done = a.access(x, 64, AccessType::kRead, 0).complete;
  }
  Tick strided_done = 0;
  for (int i = 0; i < 512; ++i) {
    strided_done =
        b.access(static_cast<Addr>(i) * 4 * KiB, 64, AccessType::kRead, 0)
            .complete;
  }
  EXPECT_LT(strided_done, 2 * seq_done);
  EXPECT_LT(seq_done, 2 * strided_done);
}

TEST(DecodeDistribution, CapacityWrapIsSafe) {
  auto p = DramTimingParams::hbm2_1gb();
  DramDevice dev(p);
  // Accesses at and beyond capacity must not crash and must account bytes.
  dev.access(p.capacity_bytes - 64, 64, AccessType::kRead, 0);
  dev.access(p.capacity_bytes - 32, 64, AccessType::kWrite, 0);
  EXPECT_GE(dev.stats().total_bytes(), 128u);
}

TEST(DecodeDistribution, ShiftDecodeEqualsDivisionDecode) {
  // Both presets have power-of-two geometry, so decode_addr takes the
  // shift-and-mask path; decode_by_division is its oracle. The row id
  // depends on timing_fixes, so both settings are covered.
  for (const bool hbm : {true, false}) {
    for (const bool fixes : {false, true}) {
      auto p = hbm ? DramTimingParams::hbm2_1gb()
                   : DramTimingParams::ddr4_3200_10gb();
      p.queue.timing_fixes = fixes;
      const DramDevice dev(p);
      Rng rng(hbm ? 21 : 22);
      for (int i = 0; i < 200000; ++i) {
        // Mostly in-range addresses, some far beyond capacity (the decode
        // itself never wraps) and a few at the ends of the range.
        const Addr addr = i % 4 == 0   ? rng.next_u64()
                          : i % 1000 == 1 ? p.capacity_bytes - 1 - (i % 7)
                                          : rng.next_below(p.capacity_bytes);
        const auto fast = dev.decode_addr(addr);
        const auto slow = dev.decode_by_division(addr);
        ASSERT_EQ(fast.channel, slow.channel) << std::hex << addr;
        ASSERT_EQ(fast.bank, slow.bank) << std::hex << addr;
        ASSERT_EQ(fast.row, slow.row) << std::hex << addr;
      }
    }
  }
}

TEST(DecodeDistribution, NonPow2GeometryUsesDivision) {
  auto p = DramTimingParams::hbm2_1gb();
  p.channels = 3;
  p.banks_per_channel = 6;
  const DramDevice dev(p);
  Rng rng(23);
  for (int i = 0; i < 10000; ++i) {
    const Addr addr = rng.next_below(p.capacity_bytes);
    const auto d = dev.decode_addr(addr);
    const auto ref = dev.decode_by_division(addr);
    ASSERT_EQ(d.channel, ref.channel);
    ASSERT_EQ(d.bank, ref.bank);
    ASSERT_EQ(d.row, ref.row);
    ASSERT_LT(d.channel, 3u);
    ASSERT_LT(d.bank, 6u);
  }
}

TEST(DecodeDistribution, AccessAcrossCapacityEndMatchesPerBeatAccesses) {
  // A multi-beat access wraps by capacity once and then steps; it must
  // touch the same banks and rows as one single-beat access per wrapped
  // address. Address 0's row is opened first, so a last beat that failed
  // to wrap would decode another row there and miss.
  auto p = DramTimingParams::hbm2_1gb();
  DramDevice whole(p);
  DramDevice beats(p);
  whole.access(0, 64, AccessType::kRead, 0);
  beats.access(0, 64, AccessType::kRead, 0);
  const Addr start = p.capacity_bytes - 3 * 64 + 8;  // unaligned, 4 beats
  const Tick now = 5000;
  const auto r = whole.access(start, 4 * 64 - 8, AccessType::kRead, now);
  Tick complete = now;
  for (const Addr a : {p.capacity_bytes - 192, p.capacity_bytes - 128,
                       p.capacity_bytes - 64, Addr{0}}) {
    complete = std::max(
        complete, beats.access(a, 64, AccessType::kRead, now).complete);
  }
  EXPECT_EQ(r.complete, complete);
  EXPECT_EQ(whole.stats().beats, beats.stats().beats);
  EXPECT_EQ(whole.stats().row_empty, beats.stats().row_empty);
  EXPECT_EQ(whole.stats().row_misses, beats.stats().row_misses);
  EXPECT_EQ(whole.stats().row_hits, beats.stats().row_hits);
  EXPECT_GE(whole.stats().row_hits, 1u);
  for (const Addr a : {Addr{0}, Addr{64}, p.capacity_bytes - 64}) {
    EXPECT_EQ(whole.probe_ready(a, now), beats.probe_ready(a, now));
  }
}

}  // namespace
}  // namespace bb::mem
