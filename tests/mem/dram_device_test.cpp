#include "mem/dram_device.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/rng.h"
#include "common/snapshot.h"

namespace bb::mem {
namespace {

class DramDeviceTest : public ::testing::TestWithParam<const char*> {
 protected:
  DramTimingParams params() const {
    return std::string(GetParam()) == "hbm"
               ? DramTimingParams::hbm2_1gb()
               : DramTimingParams::ddr4_3200_10gb();
  }
};

TEST_P(DramDeviceTest, ColdAccessPaysRcdPlusCas) {
  DramDevice dev(params());
  const auto p = dev.params();
  const auto r = dev.access(0, 64, AccessType::kRead, 1000);
  const Tick expected = p.cycles_to_ticks(p.tRCD) +
                        p.cycles_to_ticks(p.tCAS) + p.burst_ticks();
  EXPECT_EQ(r.latency(), expected);
  EXPECT_EQ(dev.stats().row_empty, 1u);
  EXPECT_EQ(dev.stats().row_hits, 0u);
}

TEST_P(DramDeviceTest, RowHitPaysCasOnly) {
  DramDevice dev(params());
  const auto p = dev.params();
  const auto r1 = dev.access(0, 64, AccessType::kRead, 1000);
  const auto r2 = dev.access(64, 64, AccessType::kRead, r1.complete);
  const Tick expected = p.cycles_to_ticks(p.tCAS) + p.burst_ticks();
  EXPECT_EQ(r2.latency(), expected);
  EXPECT_EQ(dev.stats().row_hits, 1u);
}

TEST_P(DramDeviceTest, RowConflictPaysPrechargeActivate) {
  DramDevice dev(params());
  const auto p = dev.params();
  // Two rows in the same bank: same channel/bank index, different row.
  // Stride by one full row over all banks and channels of the device.
  const Addr conflict_stride =
      p.row_bytes * p.banks_per_channel * p.channels *
      (p.row_bytes / p.interleave_bytes ? 1 : 1);
  const auto r1 = dev.access(0, 64, AccessType::kRead, 1000);
  // Give plenty of time so tRAS is satisfied.
  const Tick later = r1.complete + ns_to_ticks(100);
  const auto r2 = dev.access(conflict_stride * 64, 64, AccessType::kRead,
                             later);
  // Some decodes may hash to other banks; just assert a conflict or empty
  // happened and latency >= row-hit latency.
  EXPECT_GE(r2.latency(), p.cycles_to_ticks(p.tCAS) + p.burst_ticks());
}

TEST_P(DramDeviceTest, MultiBeatStreamsAtBurstRate) {
  DramDevice dev(params());
  const auto p = dev.params();
  // A 2 KB sequential read must take far less than 32 x tCAS: the beats
  // pipeline at burst rate after the first CAS.
  const auto r = dev.access(0, 2048, AccessType::kRead, 0);
  const u64 beats = 2048 / p.burst_bytes();
  const Tick serialized = beats * p.cycles_to_ticks(p.tCAS);
  EXPECT_LT(r.latency(), serialized);
  EXPECT_EQ(dev.stats().beats, beats);
}

TEST_P(DramDeviceTest, UnalignedAccessCoversBothBeats) {
  DramDevice dev(params());
  // 64 bytes starting at offset 32 spans two 64 B beats.
  dev.access(32, 64, AccessType::kRead, 0);
  EXPECT_EQ(dev.stats().beats, 2u);
  EXPECT_EQ(dev.stats().read_bytes[0], 128u);  // two full beats counted
}

TEST_P(DramDeviceTest, TrafficClassAttribution) {
  DramDevice dev(params());
  dev.access(0, 64, AccessType::kRead, 0, TrafficClass::kDemand);
  dev.access(4096, 64, AccessType::kWrite, 0, TrafficClass::kMigration);
  dev.access(8192, 128, AccessType::kRead, 0, TrafficClass::kMetadata);
  const auto& s = dev.stats();
  EXPECT_EQ(s.read_bytes[static_cast<int>(TrafficClass::kDemand)], 64u);
  EXPECT_EQ(s.write_bytes[static_cast<int>(TrafficClass::kMigration)], 64u);
  EXPECT_EQ(s.read_bytes[static_cast<int>(TrafficClass::kMetadata)], 128u);
  EXPECT_EQ(s.total_bytes(), 256u);
}

TEST_P(DramDeviceTest, EnergyAccumulates) {
  DramDevice dev(params());
  EXPECT_DOUBLE_EQ(dev.energy().dynamic_pj(), 0.0);
  dev.access(0, 64, AccessType::kRead, 0);
  const double after_read = dev.energy().dynamic_pj();
  EXPECT_GT(after_read, 0.0);
  dev.access(0, 64, AccessType::kWrite, ns_to_ticks(1000));
  EXPECT_GT(dev.energy().dynamic_pj(), after_read);
}

TEST_P(DramDeviceTest, WriteEnergyExceedsReadEnergyWhenIddSaysSo) {
  const auto p = params();
  EnergyModel e(p);
  if (p.idd4w > p.idd4r) {
    EXPECT_GT(e.write_burst_pj(), e.read_burst_pj());
  } else {
    EXPECT_LE(e.write_burst_pj(), e.read_burst_pj());
  }
}

TEST_P(DramDeviceTest, ResetStatsClearsCountersOnly) {
  DramDevice dev(params());
  dev.access(0, 64, AccessType::kRead, 0);
  dev.reset_stats();
  EXPECT_EQ(dev.stats().accesses, 0u);
  EXPECT_EQ(dev.stats().total_bytes(), 0u);
  EXPECT_DOUBLE_EQ(dev.energy().dynamic_pj(), 0.0);
  // Bank state is retained: the next access to row 0 is a row hit.
  const auto r = dev.access(64, 64, AccessType::kRead, ns_to_ticks(1000));
  (void)r;
  EXPECT_EQ(dev.stats().row_hits, 1u);
}

TEST_P(DramDeviceTest, ProbeReadyDoesNotMutate) {
  DramDevice dev(params());
  const Tick t1 = dev.probe_ready(0, 500);
  EXPECT_EQ(t1, 500u);
  EXPECT_EQ(dev.stats().accesses, 0u);
  dev.access(0, 64, AccessType::kRead, 500);
  EXPECT_GE(dev.probe_ready(0, 500), 500u);
}

TEST_P(DramDeviceTest, ConcurrentStreamsAreSlowerThanOne) {
  // Saturating one channel produces later completion than light load.
  DramDevice dev(params());
  Tick last_single = dev.access(0, 64, AccessType::kRead, 0).complete;
  DramDevice dev2(params());
  Tick last_loaded = 0;
  for (int i = 0; i < 64; ++i) {
    last_loaded =
        dev2.access(static_cast<Addr>(i) * 64, 64, AccessType::kRead, 0)
            .complete;
  }
  EXPECT_GT(last_loaded, last_single);
}

TEST_P(DramDeviceTest, MovedBytesIsTheSumOverClasses) {
  // total_bytes() reads a running total; it must equal the per-class sums
  // after any mix of accesses and after a save/load round trip.
  DramDevice dev(params());
  Rng rng(12);
  Tick now = 0;
  for (int i = 0; i < 2000; ++i) {
    now += 2000;
    const auto cls =
        static_cast<TrafficClass>(rng.next_below(kTrafficClassCount));
    const auto type =
        rng.next_bool(0.4) ? AccessType::kWrite : AccessType::kRead;
    dev.access(rng.next_below(2 * dev.capacity()), 1 + rng.next_below(4096),
               type, now, cls);
    const DramStats& s = dev.stats();
    ASSERT_EQ(s.total_bytes(), s.total_read_bytes() + s.total_write_bytes());
  }
  const std::string path =
      std::string(::testing::TempDir()) + "/moved_bytes.bbsnap";
  snap::Writer w;
  dev.save(w);
  w.commit(path);
  DramDevice restored(params());
  snap::Reader r(path);
  restored.load(r);
  std::remove(path.c_str());
  EXPECT_GT(restored.stats().total_bytes(), 0u);
  EXPECT_EQ(restored.stats().total_bytes(), dev.stats().total_bytes());
}

INSTANTIATE_TEST_SUITE_P(Devices, DramDeviceTest,
                         ::testing::Values("hbm", "ddr4"));

TEST(DramDevice, ChannelSpreadUnderPageStride) {
  // Page-aligned strides must not collapse onto one channel/bank (the
  // XOR-hash regression test): issue one beat per 64 KB page and check
  // completion time stays near the unloaded latency on average.
  DramDevice dev(DramTimingParams::hbm2_1gb());
  const auto p = dev.params();
  Tick max_complete = 0;
  const int n = 64;
  for (int i = 0; i < n; ++i) {
    const auto r =
        dev.access(static_cast<Addr>(i) * 64 * KiB, 64, AccessType::kRead, 0);
    max_complete = std::max(max_complete, r.complete);
  }
  // With 64 banks and hashing, 64 one-beat accesses at t=0 must finish in
  // far less than 64 serialized row activations on one bank.
  const Tick serialized =
      static_cast<Tick>(n) * (p.cycles_to_ticks(p.tRCD + p.tCAS) +
                              p.burst_ticks());
  EXPECT_LT(max_complete, serialized / 4);
}

TEST(DramDevice, EnergyFormulaValues) {
  const auto p = DramTimingParams::hbm2_1gb();
  EnergyModel e(p);
  // ACT/PRE energy: VDD * (IDD0*tRC - (IDD3N*tRAS + IDD2N*tRP)).
  const double trc_ns = 1.0 * (17 + 7);
  const double expected =
      1.2 * (65 * trc_ns - (55 * 17.0 + 40 * 7.0));
  EXPECT_NEAR(e.act_pre_pj(), expected, 1e-9);
  // Read burst: VDD * (IDD4R - IDD3N) * 2 ns.
  EXPECT_NEAR(e.read_burst_pj(), 1.2 * (390 - 55) * 2.0, 1e-9);
}

}  // namespace
}  // namespace bb::mem
