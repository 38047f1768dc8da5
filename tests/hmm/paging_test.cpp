#include "hmm/paging.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/snapshot.h"
#include "common/trace_event.h"

namespace bb::hmm {
namespace {

PagingConfig tiny(u64 pages) {
  PagingConfig cfg;
  cfg.visible_bytes = pages * cfg.os_page_bytes;
  cfg.fault_penalty = ns_to_ticks(100);
  return cfg;
}

constexpr u64 kPage = 4 * KiB;

/// Independent clock model over a std::map index: the oracle the paging
/// index is checked against.
class ReferenceClock {
 public:
  explicit ReferenceClock(u64 capacity) : capacity_(capacity) {}

  /// Returns the evicted page on a capacity fault, kNone otherwise.
  u64 touch(u64 page) {
    const auto it = slot_of_.find(page);
    if (it != slot_of_.end()) {
      referenced_[it->second] = true;
      return kNone;
    }
    if (ring_.size() < capacity_) {
      slot_of_[page] = ring_.size();
      ring_.push_back(page);
      referenced_.push_back(true);
      ++first_touches;
      return kNone;
    }
    for (;; ++hand_) {
      if (hand_ >= ring_.size()) hand_ = 0;
      if (!referenced_[hand_]) break;
      referenced_[hand_] = false;
    }
    const u64 victim = ring_[hand_];
    slot_of_.erase(victim);
    ring_[hand_] = page;
    referenced_[hand_] = true;
    slot_of_[page] = hand_;
    ++hand_;
    ++faults;
    return victim;
  }

  static constexpr u64 kNone = ~u64{0};
  u64 first_touches = 0;
  u64 faults = 0;

 private:
  u64 capacity_;
  std::map<u64, std::size_t> slot_of_;
  std::vector<u64> ring_;
  std::vector<bool> referenced_;
  std::size_t hand_ = 0;
};

/// Touches `page` in both models and checks they agree on the penalty and,
/// for a capacity fault, on the victim.
void touch_both(PagingModel& model, MemoryTraceSink& sink,
                ReferenceClock& ref, u64 page, const std::string& where) {
  const std::size_t events = sink.events().size();
  const Tick penalty = model.touch(page * kPage + (page % 61) * 64);
  const u64 victim = ref.touch(page);
  if (victim == ReferenceClock::kNone) {
    ASSERT_EQ(penalty, 0u) << where << " page " << page;
    ASSERT_EQ(sink.events().size(), events) << where << " page " << page;
    return;
  }
  ASSERT_EQ(penalty, model.config().fault_penalty) << where << " page " << page;
  ASSERT_EQ(sink.events().size(), events + 1) << where;
  const TraceEvent& ev = sink.events().back();
  ASSERT_EQ(ev.args.at(1).key, "victim_page");
  ASSERT_EQ(ev.args.at(1).u, victim) << where << " page " << page;
}

/// A page stream with a hot set and a uniform tail over `universe` pages.
std::vector<u64> random_stream(u64 seed, u64 universe, std::size_t n) {
  Rng rng(seed);
  std::vector<u64> pages;
  pages.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pages.push_back(rng.next_bool(0.5) ? rng.next_below(1 + universe / 8)
                                       : rng.next_below(universe));
  }
  return pages;
}

std::string tmp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(Paging, ColdFaultsAreFree) {
  PagingModel p(tiny(4));
  for (u64 i = 0; i < 4; ++i) {
    EXPECT_EQ(p.touch(i * 4 * KiB), 0u);
  }
  EXPECT_EQ(p.stats().first_touches, 4u);
  EXPECT_EQ(p.stats().faults, 0u);
}

TEST(Paging, ResidentPagesDontFault) {
  PagingModel p(tiny(4));
  p.touch(0);
  p.touch(1);  // same 4 KiB page
  p.touch(4095);
  EXPECT_EQ(p.stats().first_touches, 1u);
  EXPECT_EQ(p.stats().faults, 0u);
}

TEST(Paging, CapacityFaultCharged) {
  PagingModel p(tiny(2));
  p.touch(0 * 4 * KiB);
  p.touch(1 * 4 * KiB);
  const Tick penalty = p.touch(2 * 4 * KiB);
  EXPECT_EQ(penalty, ns_to_ticks(100));
  EXPECT_EQ(p.stats().faults, 1u);
}

TEST(Paging, SequentialOverCapacityThrashes) {
  // Cycling 3 pages through a 2-page residency faults on every touch of a
  // non-resident page (the classic clock/LRU worst case).
  PagingModel p(tiny(2));
  p.touch(0 * 4 * KiB);
  p.touch(1 * 4 * KiB);
  p.touch(2 * 4 * KiB);
  const u64 before = p.stats().faults;
  p.touch(0 * 4 * KiB);
  p.touch(1 * 4 * KiB);
  p.touch(2 * 4 * KiB);
  EXPECT_EQ(p.stats().faults, before + 3);
}

TEST(Paging, ClockGivesSecondChanceToReferencedPages) {
  PagingModel p(tiny(3));
  const Addr A = 0, B = 4 * KiB, C = 8 * KiB, D = 12 * KiB, E = 16 * KiB;
  p.touch(A);
  p.touch(B);
  p.touch(C);
  p.touch(D);  // fault: reference bits cleared, one of A/B/C evicted
  p.touch(B);  // re-reference B
  p.touch(E);  // fault: B's reference bit protects it
  EXPECT_EQ(p.touch(B), 0u) << "recently referenced page must survive";
}

TEST(Paging, DisabledNeverFaults) {
  PagingConfig cfg;
  cfg.enabled = false;
  cfg.visible_bytes = 0;
  PagingModel p(cfg);
  for (u64 i = 0; i < 100; ++i) {
    EXPECT_EQ(p.touch(i * 4 * KiB), 0u);
  }
  EXPECT_EQ(p.stats().faults, 0u);
}

TEST(Paging, RejectsConfigHoldingNoWholePage) {
  // A resident set of zero pages has no victim for the first touch's
  // capacity fault; the constructor refuses it instead.
  PagingConfig cfg;
  cfg.visible_bytes = 1 * KiB;
  EXPECT_THROW(PagingModel{cfg}, std::invalid_argument);
  cfg.visible_bytes = cfg.os_page_bytes - 1;
  EXPECT_THROW(PagingModel{cfg}, std::invalid_argument);
  cfg.visible_bytes = cfg.os_page_bytes;
  PagingModel one_page(cfg);
  EXPECT_EQ(one_page.touch(0), 0u);
  EXPECT_EQ(one_page.touch(kPage), cfg.fault_penalty);
}

TEST(Paging, RejectsPageSizeThatIsNotAPowerOfTwo) {
  for (u64 bytes : {u64{0}, u64{3000}, u64{4 * KiB + 1}, u64{12 * KiB}}) {
    PagingConfig cfg;
    cfg.os_page_bytes = bytes;
    EXPECT_THROW(PagingModel{cfg}, std::invalid_argument) << bytes;
  }
  PagingConfig huge;
  huge.os_page_bytes = 2 * MiB;
  PagingModel p(huge);
  EXPECT_EQ(p.touch(2 * MiB - 1), 0u);
  EXPECT_EQ(p.stats().first_touches, 1u);
  p.touch(2 * MiB);
  EXPECT_EQ(p.stats().first_touches, 2u);
}

TEST(Paging, HighVisibilityAbsorbsLargeFootprint) {
  // A design with 11 GB visible should fault less than one with 10 GB on
  // an 10.5 GB working set.
  PagingConfig big = tiny(0);
  big.visible_bytes = 11 * GiB;
  PagingConfig small = tiny(0);
  small.visible_bytes = 10 * GiB;
  PagingModel pb(big), ps(small);
  // Touch 10.5 GiB worth of 4 KiB pages twice: the 11 GiB-visible design
  // absorbs the working set; the 10 GiB one faults on the second round.
  const u64 pages = (10 * GiB + 512 * MiB) / (4 * KiB);
  for (int round = 0; round < 2; ++round) {
    for (u64 i = 0; i < pages; ++i) {
      pb.touch(i * 4 * KiB);
      ps.touch(i * 4 * KiB);
    }
  }
  EXPECT_EQ(pb.stats().faults, 0u);
  EXPECT_GT(ps.stats().faults, 0u);
}

TEST(Paging, ResetStatsClearsCountersKeepsResidency) {
  // Regression for the warmup-reset path: reset_stats() must clear the
  // fault/first-touch counters without touching the resident set or the
  // clock hand (bb_analyze stats-reset rule).
  PagingModel p(tiny(2));
  p.touch(0 * 4 * KiB);
  p.touch(1 * 4 * KiB);
  p.touch(2 * 4 * KiB);  // capacity fault evicts one resident page
  EXPECT_EQ(p.stats().first_touches, 2u);
  EXPECT_EQ(p.stats().faults, 1u);
  p.reset_stats();
  EXPECT_EQ(p.stats().first_touches, 0u);
  EXPECT_EQ(p.stats().faults, 0u);
  // The resident set survived: re-touching the just-admitted page is free
  // and is neither a fault nor a first touch.
  EXPECT_EQ(p.touch(2 * 4 * KiB), 0u);
  EXPECT_EQ(p.stats().faults, 0u);
  EXPECT_EQ(p.stats().first_touches, 0u);
}

TEST(Paging, MatchesReferenceClockOnRandomStreams) {
  // Capacities from one page up to past several index doublings; the
  // universe is twice the capacity, so the stream mixes hits, cold faults
  // and capacity faults.
  for (u64 capacity : {u64{1}, u64{2}, u64{3}, u64{7}, u64{8}, u64{9},
                       u64{100}, u64{1000}}) {
    for (u64 seed : {u64{1}, u64{2}, u64{3}}) {
      PagingModel model(tiny(capacity));
      MemoryTraceSink sink;
      model.set_trace_sink(&sink);
      ReferenceClock ref(capacity);
      const std::string where = "capacity " + std::to_string(capacity) +
                                " seed " + std::to_string(seed);
      for (u64 page : random_stream(seed, 2 * capacity + 3, 20000)) {
        touch_both(model, sink, ref, page, where);
      }
      EXPECT_EQ(model.stats().first_touches, ref.first_touches) << where;
      EXPECT_EQ(model.stats().faults, ref.faults) << where;
      EXPECT_GT(ref.faults, 0u) << where;
    }
  }
}

TEST(Paging, ProbeChainsWrappingTheTableEnd) {
  // Eight resident pages fill a 16-cell index to its 1/2 load bound. Pages
  // homed on the last two cells and the first one build probe chains that
  // wrap from the table's end to its start; capacity faults then erase
  // from inside those chains and must shift them back across the wrap.
  constexpr u64 kCapacity = 8;
  PagingModel model(tiny(kCapacity));
  MemoryTraceSink sink;
  model.set_trace_sink(&sink);
  ReferenceClock ref(kCapacity);
  for (u64 page = 0; page < kCapacity; ++page) {
    touch_both(model, sink, ref, page * 1000 + 1, "fill");
  }
  const std::size_t cells = model.index_cells();
  ASSERT_EQ(cells, 16u);
  std::vector<u64> wrapping;  // homes cells-1, cells-2 and 0, interleaved
  for (u64 page = 0; wrapping.size() < 24; ++page) {
    const std::size_t home = PagingModel::index_home(page, cells);
    if (home == cells - 1 || home == cells - 2 || home == 0) {
      wrapping.push_back(page);
    }
  }
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const u64 page = wrapping[rng.next_below(wrapping.size())];
    touch_both(model, sink, ref, page, "wrap step " + std::to_string(i));
  }
  EXPECT_EQ(model.index_cells(), cells) << "a full ring never regrows";
  EXPECT_EQ(model.stats().faults, ref.faults);
  EXPECT_GT(ref.faults, 1000u);
}

TEST(Paging, SaveLoadMidStreamContinuesIdentically) {
  // Save once while the ring is still filling (the restored index must
  // keep growing) and once after it is full (capacity faults continue).
  for (std::size_t cut : {std::size_t{150}, std::size_t{6000}}) {
    constexpr u64 kCapacity = 300;
    const std::vector<u64> stream = random_stream(11, 700, 12000);
    PagingModel original(tiny(kCapacity));
    MemoryTraceSink sink;
    original.set_trace_sink(&sink);
    ReferenceClock ref(kCapacity);
    for (std::size_t i = 0; i < cut; ++i) {
      touch_both(original, sink, ref, stream[i], "before save");
    }
    const std::string path = tmp_path("paging_mid_stream.bbsnap");
    snap::Writer w;
    original.save(w);
    w.commit(path);
    PagingModel restored(tiny(kCapacity));
    snap::Reader r(path);
    restored.load(r);
    ASSERT_TRUE(r.at_end());
    EXPECT_EQ(restored.stats().first_touches, original.stats().first_touches);
    EXPECT_EQ(restored.stats().faults, original.stats().faults);

    MemoryTraceSink restored_sink;
    restored.set_trace_sink(&restored_sink);
    const std::size_t events_at_cut = sink.events().size();
    for (std::size_t i = cut; i < stream.size(); ++i) {
      const Addr addr = stream[i] * kPage;
      ASSERT_EQ(restored.touch(addr), original.touch(addr))
          << "cut " << cut << " touch " << i;
    }
    EXPECT_EQ(restored.stats().first_touches, original.stats().first_touches);
    EXPECT_EQ(restored.stats().faults, original.stats().faults);
    // Same victims, in the same order, after the cut.
    ASSERT_EQ(restored_sink.events().size(),
              sink.events().size() - events_at_cut);
    ASSERT_GT(restored_sink.events().size(), 0u);
    for (std::size_t e = 0; e < restored_sink.events().size(); ++e) {
      EXPECT_EQ(restored_sink.events()[e].args.at(1).u,
                sink.events()[events_at_cut + e].args.at(1).u);
    }
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace bb::hmm
