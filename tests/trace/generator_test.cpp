#include "trace/generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

namespace bb::trace {
namespace {

TEST(Generator, Deterministic) {
  const auto& w = WorkloadProfile::by_name("mcf");
  TraceGenerator a(w, 42), b(w, 42);
  for (int i = 0; i < 10000; ++i) {
    const auto ra = a.next();
    const auto rb = b.next();
    ASSERT_EQ(ra.addr, rb.addr);
    ASSERT_EQ(ra.inst_gap, rb.inst_gap);
    ASSERT_EQ(ra.type, rb.type);
  }
}

TEST(Generator, SeedsProduceDifferentStreams) {
  const auto& w = WorkloadProfile::by_name("mcf");
  TraceGenerator a(w, 1), b(w, 2);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next().addr == b.next().addr) ++same;
  }
  EXPECT_LT(same, 100);
}

TEST(Generator, AddressesAlignedAndBounded) {
  const auto& w = WorkloadProfile::by_name("wrf");
  TraceGenerator gen(w, 3);
  for (int i = 0; i < 50000; ++i) {
    const auto r = gen.next();
    ASSERT_EQ(r.addr % kLineBytes, 0u);
    ASSERT_LT(r.addr, w.footprint_bytes());
  }
}

TEST(Generator, HotRegionSizeTracksSpatialAxis) {
  // wrf (weak spatial) must have much smaller hot regions than mcf
  // (strong spatial) — the Figure 1 mechanism.
  TraceGenerator mcf(WorkloadProfile::by_name("mcf"), 1);
  TraceGenerator wrf(WorkloadProfile::by_name("wrf"), 1);
  EXPECT_GT(mcf.hot_region_bytes(), wrf.hot_region_bytes());
  EXPECT_GE(mcf.hot_region_bytes(), 32 * KiB);
  EXPECT_LE(wrf.hot_region_bytes(), 4 * KiB);
}

TEST(Generator, HotSetCapped) {
  // 10.6 GB footprint with default hot fraction would exceed the cap.
  TraceGenerator roms(WorkloadProfile::by_name("roms"), 1);
  EXPECT_LE(roms.hot_region_count() * roms.hot_region_bytes(),
            kMaxHotSetBytes);
}

/// The generator as it computed each record before its per-record
/// constants were hoisted to construction: the oracle for the hoisting.
class ReferenceGenerator {
 public:
  ReferenceGenerator(const WorkloadProfile& profile, u64 seed)
      : profile_(profile),
        rng_(seed),
        footprint_(std::max<u64>(profile.footprint_bytes() & ~(kLineBytes - 1),
                                 64 * KiB)),
        hot_region_bytes_(u64{1} << (10 + std::clamp(static_cast<int>(
                                              profile.spatial * 6.0 + 0.5),
                                          0, 6))),
        hot_regions_(std::max<u64>(
            1, std::min<u64>(static_cast<u64>(profile.hot_fraction *
                                              static_cast<double>(footprint_)),
                             kMaxHotSetBytes) /
                   hot_region_bytes_)),
        zipf_(std::min<u64>(hot_regions_, 1u << 20), profile.zipf_s),
        hot_cursor_(static_cast<std::size_t>(zipf_.n()), 0) {}

  TraceRecord next() {
    TraceRecord rec;
    rec.inst_gap = next_gap(profile_.mean_inst_gap());
    const double u = rng_.next_double();
    if (u < profile_.w_hot) {
      rec.addr = hot_address();
    } else if (u < profile_.w_hot + profile_.w_scan) {
      rec.addr = scan_cursor_;
      scan_cursor_ += kLineBytes;
      if (scan_cursor_ >= footprint_) scan_cursor_ = 0;
    } else {
      rec.addr = rng_.next_below(footprint_ / kLineBytes) * kLineBytes;
    }
    rec.type = rng_.next_bool(profile_.write_fraction) ? AccessType::kWrite
                                                       : AccessType::kRead;
    return rec;
  }

 private:
  u64 next_gap(double mean) {
    if (mean <= 1.0) return 1;
    const double p = 1.0 / mean;
    const double u = rng_.next_double();
    const double g = std::log1p(-u) / std::log1p(-p);
    const u64 gap = static_cast<u64>(g) + 1;
    return gap == 0 ? 1 : gap;
  }

  Addr region_base(u64 i) const {
    const u64 arena_regions =
        std::min(footprint_, 8 * hot_regions_ * hot_region_bytes_) /
        hot_region_bytes_;
    const u64 scattered = (i * 0x9e3779b97f4a7c15ULL) % arena_regions;
    const u64 arena_base_region = (footprint_ / hot_region_bytes_) / 3;
    const u64 total_regions = footprint_ / hot_region_bytes_;
    return ((arena_base_region + scattered) % total_regions) *
           hot_region_bytes_;
  }

  Addr hot_address() {
    const std::vector<double>& cdf = zipf_.cdf();
    const u64 region = static_cast<u64>(
        std::lower_bound(cdf.begin(), cdf.end(), rng_.next_double()) -
        cdf.begin());
    const Addr base = region_base(region);
    const u64 blocks = hot_region_bytes_ / kLineBytes;
    u64 block;
    if (rng_.next_bool(profile_.spatial)) {
      u16& cur = hot_cursor_[static_cast<std::size_t>(region)];
      block = cur;
      cur = static_cast<u16>((cur + 1) % blocks);
    } else {
      block = rng_.next_below(blocks);
    }
    return base + block * kLineBytes;
  }

  WorkloadProfile profile_;
  Rng rng_;
  u64 footprint_;
  u64 hot_region_bytes_;
  u64 hot_regions_;
  ZipfSampler zipf_;
  Addr scan_cursor_ = 0;
  std::vector<u16> hot_cursor_;
};

class GeneratorOracleTest : public ::testing::TestWithParam<std::string> {};

TEST_P(GeneratorOracleTest, RecordsMatchPerRecordFormulas) {
  const WorkloadProfile& w = WorkloadProfile::by_name(GetParam());
  for (u64 seed : {u64{1}, u64{42}, u64{0x1000003}}) {
    TraceGenerator gen(w, seed);
    ReferenceGenerator ref(w, seed);
    for (int i = 0; i < 100'000; ++i) {
      const TraceRecord a = gen.next();
      const TraceRecord b = ref.next();
      ASSERT_EQ(a.inst_gap, b.inst_gap) << "seed " << seed << " record " << i;
      ASSERT_EQ(a.addr, b.addr) << "seed " << seed << " record " << i;
      ASSERT_EQ(a.type, b.type) << "seed " << seed << " record " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, GeneratorOracleTest,
                         ::testing::ValuesIn(workload_names()));

TEST(GeneratorOracle, ArenaSpanningTheFootprintWrapsLikeTheModulo) {
  // The scatter arena is eight hot sets wide and starts a third of the
  // way into the footprint, so only hot sets above about 1/12 of the
  // footprint reach the wrap past its end. No Table II profile does.
  for (double hot_fraction : {0.125, 0.3, 0.6}) {
    for (double spatial : {0.0, 0.5, 1.0}) {
      WorkloadProfile w = WorkloadProfile::by_name("mcf");
      w.footprint_gb = 0.05;
      w.hot_fraction = hot_fraction;
      w.spatial = spatial;
      w.w_hot = 0.9;
      w.w_scan = 0.05;
      TraceGenerator gen(w, 7);
      ReferenceGenerator ref(w, 7);
      for (int i = 0; i < 100'000; ++i) {
        const TraceRecord a = gen.next();
        const TraceRecord b = ref.next();
        ASSERT_EQ(a.addr, b.addr) << hot_fraction << " " << spatial << " "
                                  << "record " << i;
        ASSERT_EQ(a.inst_gap, b.inst_gap);
        ASSERT_EQ(a.type, b.type);
      }
    }
  }
}

class ProfileCalibrationTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ProfileCalibrationTest, MpkiWithinTolerance) {
  const auto& w = WorkloadProfile::by_name(GetParam());
  TraceGenerator gen(w, 99);
  const auto recs = gen.take(100'000);
  const auto s = measure_stream(recs);
  const double gen_mpki = 1000.0 / s.mean_inst_gap;
  EXPECT_NEAR(gen_mpki / w.mpki, 1.0, 0.05) << w.name;
}

TEST_P(ProfileCalibrationTest, WriteFractionWithinTolerance) {
  const auto& w = WorkloadProfile::by_name(GetParam());
  TraceGenerator gen(w, 100);
  const auto recs = gen.take(100'000);
  const auto s = measure_stream(recs);
  EXPECT_NEAR(s.write_fraction, w.write_fraction, 0.02) << w.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, ProfileCalibrationTest,
    ::testing::Values("roms", "lbm", "bwaves", "wrf", "xalancbmk", "mcf",
                      "cam4", "cactuBSSN", "fotonik3d", "x264", "nab",
                      "namd", "xz", "leela"));

TEST(Generator, LocalityAxesOrdering) {
  // Measured spatial locality (block use in 64 KB pages): mcf > wrf.
  // Measured temporal locality (top-1% page share): wrf > xz.
  auto measure = [](const char* name) {
    TraceGenerator gen(WorkloadProfile::by_name(name), 5);
    return measure_stream(gen.take(300'000));
  };
  const auto mcf = measure("mcf");
  const auto wrf = measure("wrf");
  const auto xz = measure("xz");
  EXPECT_GT(mcf.page64k_block_use, wrf.page64k_block_use);
  EXPECT_GT(wrf.top1pct_share, xz.top1pct_share);
}

TEST(Generator, TakeReturnsExactCount) {
  TraceGenerator gen(WorkloadProfile::by_name("leela"), 8);
  EXPECT_EQ(gen.take(1234).size(), 1234u);
}

TEST(MeasureStream, EmptyStream) {
  const auto s = measure_stream({});
  EXPECT_EQ(s.unique_pages_4k, 0u);
  EXPECT_DOUBLE_EQ(s.mean_inst_gap, 0.0);
}

TEST(MeasureStream, SingleRecord) {
  std::vector<TraceRecord> recs = {{10, 64, AccessType::kWrite}};
  const auto s = measure_stream(recs);
  EXPECT_DOUBLE_EQ(s.mean_inst_gap, 10.0);
  EXPECT_DOUBLE_EQ(s.write_fraction, 1.0);
  EXPECT_EQ(s.unique_pages_4k, 1u);
}

}  // namespace
}  // namespace bb::trace
