#include "bumblebee/controller.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "common/check.h"
#include "common/metrics.h"
#include "common/snapshot.h"
#include "common/trace_event.h"

namespace bb::bumblebee {

namespace {

/// OS-visible capacity for the paging model: the full flat space, minus any
/// statically reserved cHBM share (the KNL-style fixed partitions hide
/// their cache portion from the OS).
hmm::PagingConfig make_paging(const BumblebeeConfig& cfg, const Geometry& g,
                              hmm::PagingConfig paging) {
  u64 visible = g.visible_bytes();
  if (cfg.fixed_chbm_fraction >= 0.0) {
    const u64 reserved = static_cast<u64>(
        cfg.fixed_chbm_fraction * static_cast<double>(g.hbm_pages()));
    visible -= reserved * g.page_bytes;
  }
  if (!cfg.enable_migration && cfg.alloc == AllocPolicy::kDramFirst) {
    // C-Only: HBM is pure cache, invisible to the OS.
    visible = g.dram_pages() * g.page_bytes;
  }
  paging.visible_bytes = visible;
  return paging;
}

}  // namespace

BumblebeeController::BumblebeeController(const BumblebeeConfig& cfg,
                                         mem::DramDevice& hbm,
                                         mem::DramDevice& dram,
                                         hmm::PagingConfig paging)
    : HybridMemoryController(
          cfg.variant_name, hbm, dram,
          make_paging(cfg, Geometry::make(cfg, hbm.capacity(), dram.capacity()),
                      paging)),
      cfg_(cfg),
      geo_(Geometry::make(cfg, hbm.capacity(), dram.capacity())),
      counter_max_((u64{1} << cfg.counter_bits) - 1) {
  hmm::MetadataConfig mc;
  mc.placement = cfg_.metadata_in_hbm ? hmm::MetadataPlacement::kHbm
                                      : hmm::MetadataPlacement::kSram;
  mc.sram_latency = cfg_.sram_latency;
  mc.entry_bytes = 32;  // one packed record covers a set's lookup state
  meta_ = std::make_unique<hmm::MetadataModel>(mc, &hbm);

  sets_.reserve(geo_.sets);
  for (u32 s = 0; s < geo_.sets; ++s) {
    sets_.emplace_back(geo_, cfg_.dram_queue_depth, counter_max_);
  }

  if (cfg_.fixed_chbm_fraction >= 0.0) {
    fixed_partition_ = true;
    chbm_reserved_ = static_cast<u32>(cfg_.fixed_chbm_fraction *
                                      static_cast<double>(geo_.n));
  }
}

u64 BumblebeeController::metadata_sram_bytes() const {
  if (cfg_.metadata_in_hbm) return 0;
  return metadata_budget(cfg_, geo_).total();
}

BumblebeeController::RatioSample BumblebeeController::ratio() const {
  RatioSample r;
  for (const auto& st : sets_) {
    const RatioSample s = set_ratio(st);
    r.chbm_frames += s.chbm_frames;
    r.mhbm_frames += s.mhbm_frames;
    r.free_frames += s.free_frames;
  }
  return r;
}

BumblebeeController::RatioSample BumblebeeController::set_ratio(
    const SetState& st) const {
  RatioSample r;
  for (const auto& b : st.ble) {
    switch (b.mode) {
      case Ble::Mode::kCache: ++r.chbm_frames; break;
      case Ble::Mode::kMem: ++r.mhbm_frames; break;
      case Ble::Mode::kFree: ++r.free_frames; break;
    }
  }
  return r;
}

void BumblebeeController::emit_ratio_transition(const SetState& st, u32 set,
                                                Tick now, const char* trigger,
                                                const RatioSample& before) {
  if (!tracing()) return;
  const RatioSample after = set_ratio(st);
  if (after.chbm_frames == before.chbm_frames &&
      after.mhbm_frames == before.mhbm_frames &&
      after.free_frames == before.free_frames) {
    return;
  }
  trace()->emit(TraceEvent(now, "remap_ratio_transition", "bumblebee")
                    .arg("set", set)
                    .arg("trigger", trigger)
                    .arg("chbm_before", before.chbm_frames)
                    .arg("mhbm_before", before.mhbm_frames)
                    .arg("free_before", before.free_frames)
                    .arg("chbm_after", after.chbm_frames)
                    .arg("mhbm_after", after.mhbm_frames)
                    .arg("free_after", after.free_frames));
}

void BumblebeeController::register_metrics(MetricRegistry& reg) const {
  HybridMemoryController::register_metrics(reg);
  // Global remap-ratio frame counts; one sets_ sweep per probe, but probes
  // run only at epoch boundaries.
  reg.add_gauge("chbm_frames", [this] {
    return static_cast<double>(ratio().chbm_frames);
  });
  reg.add_gauge("mhbm_frames", [this] {
    return static_cast<double>(ratio().mhbm_frames);
  });
  reg.add_gauge("free_hbm_frames", [this] {
    return static_cast<double>(ratio().free_frames);
  });
  // Per-set cHBM share (cache frames / HBM frames in the set): the spread
  // shows how far individual sets deviate from the global ratio.
  enum class Fold { kMean, kMin, kMax };
  auto share = [this](Fold fold) {
    double sum = 0.0;
    double mn = 1.0;
    double mx = 0.0;
    for (const auto& st : sets_) {
      const RatioSample s = set_ratio(st);
      const double f =
          static_cast<double>(s.chbm_frames) / static_cast<double>(geo_.n);
      sum += f;
      mn = std::min(mn, f);
      mx = std::max(mx, f);
    }
    switch (fold) {
      case Fold::kMin: return mn;
      case Fold::kMax: return mx;
      case Fold::kMean: break;
    }
    return sets_.empty() ? 0.0 : sum / static_cast<double>(sets_.size());
  };
  reg.add_gauge("chbm_share_mean", [share] { return share(Fold::kMean); });
  reg.add_gauge("chbm_share_min", [share] { return share(Fold::kMin); });
  reg.add_gauge("chbm_share_max", [share] { return share(Fold::kMax); });
  reg.add_gauge("sets_chbm_disabled", [this] {
    u64 n = 0;
    for (const auto& st : sets_) n += st.chbm_disabled ? 1 : 0;
    return static_cast<double>(n);
  });
  // Hot-table movement counters (per-epoch deltas).
  const BumblebeeStats* bs = &bstats_;
  reg.add_counter("page_migrations", [bs] {
    return static_cast<double>(bs->page_migrations);
  });
  reg.add_counter("cache_to_mem_switches", [bs] {
    return static_cast<double>(bs->cache_to_mem_switches);
  });
  reg.add_counter("mem_to_cache_buffers", [bs] {
    return static_cast<double>(bs->mem_to_cache_buffers);
  });
  reg.add_counter("zombie_evictions", [bs] {
    return static_cast<double>(bs->zombie_evictions);
  });
  reg.add_counter("set_swaps",
                  [bs] { return static_cast<double>(bs->set_swaps); });
  reg.add_counter("os_swap_outs",
                  [bs] { return static_cast<double>(bs->os_swap_outs); });
  // Fault handling (base class contributes retired_frames/degraded_sets).
  if (hbm().faults() != nullptr || dram().faults() != nullptr) {
    reg.add_counter("due_refetches", [bs] {
      return static_cast<double>(bs->due_refetches);
    });
  }
}

// --------------------------------------------------------------- address

BumblebeeController::Decoded BumblebeeController::decode(Addr addr) const {
  addr %= geo_.visible_bytes();
  const u64 lp = addr / geo_.page_bytes;
  Decoded d;
  if (lp < geo_.dram_pages()) {
    d.set = static_cast<u32>(lp % geo_.sets);
    d.page = static_cast<u32>(lp / geo_.sets);
  } else {
    const u64 q = lp - geo_.dram_pages();
    d.set = static_cast<u32>(q % geo_.sets);
    d.page = geo_.m + static_cast<u32>(q / geo_.sets);
  }
  d.offset = addr % geo_.page_bytes;
  d.block = static_cast<u32>(d.offset / geo_.block_bytes);
  return d;
}

Addr BumblebeeController::frame_addr(u32 set, u32 slot) const {
  if (slot < geo_.m) {
    const u64 frame = static_cast<u64>(slot) * geo_.sets + set;
    return frame * geo_.page_bytes;
  }
  const u64 frame = static_cast<u64>(slot - geo_.m) * geo_.sets + set;
  return frame * geo_.page_bytes;
}

bool BumblebeeController::frame_may_cache(u32 k) const {
  if (!cfg_.enable_caching) return false;
  if (!fixed_partition_) return true;
  return k < chbm_reserved_;
}

bool BumblebeeController::frame_may_mem(u32 k) const {
  if (!cfg_.enable_migration && cfg_.alloc == AllocPolicy::kDramFirst) {
    return false;  // C-Only: no mHBM frames at all
  }
  if (!fixed_partition_) return true;
  return k >= chbm_reserved_;
}

// -------------------------------------------------------------- metadata

Tick BumblebeeController::meta_lookup(u32 set, Tick now,
                                      hmm::HmmResult& res) {
  const Tick lat = meta_->lookup(set, now);
  res.metadata_latency += lat;
  return lat;
}

void BumblebeeController::meta_update(u32 set, Tick now) {
  meta_->update(set, now);
}

// ------------------------------------------------------------ allocation

void BumblebeeController::allocate(SetState& st, u32 set, u32 page,
                                   Tick now) {
  ++bstats_.prt_misses;

  auto alloc_hbm = [&]() -> bool {
    if (st.degraded) return false;  // degraded sets allocate off-chip only
    for (u32 k = 0; k < geo_.n; ++k) {
      if (st.ble[k].mode == Ble::Mode::kFree && !st.ble[k].retired &&
          frame_may_mem(k)) {
        const RatioSample before = tracing() ? set_ratio(st) : RatioSample{};
        st.new_ple[page] = static_cast<std::int32_t>(geo_.m + k);
        st.occup[geo_.m + k] = true;
        Ble& b = st.ble[k];
        b.reset(geo_.blocks_per_page);
        b.mode = Ble::Mode::kMem;
        b.ple = page;
        st.hot.move_dram_to_hbm(page);
        emit_ratio_transition(st, set, now, "allocate_hbm", before);
        return true;
      }
    }
    return false;
  };
  auto alloc_dram = [&]() -> bool {
    const u32 fd = st.free_dram_frame(geo_.m, page < geo_.m ? page : kNoPage);
    if (fd == kNoPage) return false;
    st.new_ple[page] = static_cast<std::int32_t>(fd);
    st.occup[fd] = true;
    return true;
  };

  bool placed = false;
  switch (cfg_.alloc) {
    case AllocPolicy::kHotnessBased: {
      // Section III-D: adjacent allocations share access patterns — follow
      // the previous allocation into HBM if it still resides in the hot
      // table's HBM queue and has shown reuse there (counter >= 2: the
      // allocating access itself bumps the counter once, so a page that
      // was never touched again breaks the chain).
      const bool prev_hot_in_hbm =
          st.last_alloc_page >= 0 &&
          [&] {
            for (const auto& e : st.hot.hbm_entries()) {
              if (e.page == static_cast<u32>(st.last_alloc_page)) {
                return e.counter >= 2;
              }
            }
            return false;
          }();
      placed = prev_hot_in_hbm ? (alloc_hbm() || alloc_dram())
                               : (alloc_dram() || alloc_hbm());
      break;
    }
    case AllocPolicy::kDramFirst:
      placed = alloc_dram() || alloc_hbm();
      break;
    case AllocPolicy::kHbmFirst:
      placed = alloc_hbm() || alloc_dram();
      break;
  }

  if (!placed && cfg_.high_footprint_actions && !st.chbm_disabled) {
    // Trigger 5 (per-set): free HBM space by flushing the set's cHBM so the
    // allocation does not wait on an eviction.
    flush_set_chbm(st, set, now);
    placed = alloc_dram() || alloc_hbm();
  }
  if (!placed) {
    // Reclaim a frame through the normal eviction path.
    const u32 k = reclaim_hbm_frame(st, set, now);
    if (k != kNoPage && frame_may_mem(k)) {
      placed = alloc_hbm();
    }
    if (!placed) placed = alloc_dram();
  }
  if (!placed) {
    // OS out of memory in this set: swap out the coldest allocated page
    // (modelled, not timed — the paging model charges capacity faults).
    const RatioSample before = tracing() ? set_ratio(st) : RatioSample{};
    u32 victim = kNoPage;
    u64 best_hot = ~u64{0};
    for (u32 p = 0; p < geo_.slots(); ++p) {
      if (p == page || st.new_ple[p] == kUnallocated) continue;
      const u64 h = st.hot.hotness(p);
      if (h < best_hot) {
        best_hot = h;
        victim = p;
      }
    }
    assert(victim != kNoPage);
    const u32 vf = static_cast<u32>(st.new_ple[victim]);
    if (vf >= geo_.m) {
      st.ble[vf - geo_.m].reset(geo_.blocks_per_page);
    }
    const u32 vc = st.cache_frame_of(victim);
    if (vc != kNoPage) {
      // Tear the cache copy down through the eviction path: its dirty
      // blocks must reach the off-chip home frame (and be charged as
      // writeback traffic) before the page leaves memory.
      evict_frame(st, set, vc, now);
    }
    st.hot.remove(victim);
    st.new_ple[victim] = kUnallocated;
    st.occup[vf] = false;
    ++bstats_.os_swap_outs;
    st.new_ple[page] = static_cast<std::int32_t>(vf);
    st.occup[vf] = true;
    if (vf >= geo_.m) {
      Ble& b = st.ble[vf - geo_.m];
      b.reset(geo_.blocks_per_page);
      b.mode = Ble::Mode::kMem;
      b.ple = page;
      st.hot.move_dram_to_hbm(page);
    }
    if (tracing()) {
      trace()->emit(TraceEvent(now, "os_page_swap_out", "bumblebee")
                        .arg("set", set)
                        .arg("victim_page", victim)
                        .arg("new_page", page));
      emit_ratio_transition(st, set, now, "os_swap_out", before);
    }
  }
  st.last_alloc_page = static_cast<std::int32_t>(page);
  verify_set(st, set, "allocate");
}

// -------------------------------------------------------- frame reclaim

bool BumblebeeController::evict_frame(SetState& st, u32 set, u32 k,
                                      Tick now) {
  Ble& b = st.ble[k];
  assert(b.mode != Ble::Mode::kFree);
  const u32 page = b.ple;
  const Addr hbm_page_addr = frame_addr(set, geo_.m + k);
  const RatioSample before = tracing() ? set_ratio(st) : RatioSample{};

  if (b.mode == Ble::Mode::kCache) {
    // Write back dirty blocks to the page's off-chip frame.
    const u32 home = static_cast<u32>(st.new_ple[page]);
    assert(home < geo_.m);
    const Addr dram_page_addr = frame_addr(set, home);
    for (u32 blk = 0; blk < geo_.blocks_per_page; ++blk) {
      if (b.dirty.test(blk)) {
        move_data(hbm(), hbm_page_addr + blk * geo_.block_bytes, dram(),
                  dram_page_addr + blk * geo_.block_bytes, geo_.block_bytes,
                  now, mem::TrafficClass::kWriteback);
      }
    }
    b.reset(geo_.blocks_per_page);
    st.hot.move_hbm_to_dram(page);
    ++bstats_.chbm_evictions;
    ++mutable_stats().evictions;
    emit_ratio_transition(st, set, now, "evict_chbm_copy", before);
    verify_set(st, set, "evict_frame (cHBM copy)");
    return true;
  }

  // mHBM eviction: the authoritative copy moves to a free off-chip frame.
  const u32 fd = st.free_dram_frame(geo_.m, page < geo_.m ? page : kNoPage);
  if (fd == kNoPage) return false;
  move_data(hbm(), hbm_page_addr, dram(), frame_addr(set, fd),
            geo_.page_bytes, now, mem::TrafficClass::kWriteback);
  st.new_ple[page] = static_cast<std::int32_t>(fd);
  st.occup[fd] = true;
  st.occup[geo_.m + k] = false;
  b.reset(geo_.blocks_per_page);
  st.hot.move_hbm_to_dram(page);
  ++bstats_.mhbm_evictions;
  ++mutable_stats().evictions;
  emit_ratio_transition(st, set, now, "evict_mhbm_page", before);
  verify_set(st, set, "evict_frame (mHBM page)");
  return true;
}

u32 BumblebeeController::reclaim_hbm_frame(SetState& st, u32 set, Tick now,
                                           FrameRole role) {
  if (fixed_partition_ && role != FrameRole::kAny) {
    // Static partition: pick the least-hot page among frames of the role.
    u32 victim_k = kNoPage;
    u64 victim_hot = ~u64{0};
    for (u32 k = 0; k < geo_.n; ++k) {
      const bool role_ok = role == FrameRole::kCache ? frame_may_cache(k)
                                                     : frame_may_mem(k);
      if (!role_ok || st.ble[k].mode == Ble::Mode::kFree) continue;
      const u64 h = st.hot.hotness(st.ble[k].ple);
      if (h < victim_hot) {
        victim_hot = h;
        victim_k = k;
      }
    }
    if (victim_k == kNoPage) return kNoPage;
    return evict_frame(st, set, victim_k, now) ? victim_k : kNoPage;
  }

  bool buffered_once = false;
  u32 buffered_page = kNoPage;
  const u32 max_attempts = 2 * geo_.n + 2;
  for (u32 attempt = 0; attempt < max_attempts; ++attempt) {
    const auto victim = st.hot.coldest_hbm(buffered_page);
    if (!victim) return kNoPage;
    const u32 page = victim->page;

    // Locate the page's HBM frame (cache copy or mHBM home).
    u32 k = st.cache_frame_of(page);
    bool is_cache = (k != kNoPage);
    if (!is_cache) {
      const std::int32_t slot = st.new_ple[page];
      if (slot < static_cast<std::int32_t>(geo_.m)) {
        // Stale hot-table entry (defensive); drop it.
        st.hot.move_hbm_to_dram(page);
        continue;
      }
      k = static_cast<u32>(slot) - geo_.m;
    }

    if (is_cache) {
      evict_frame(st, set, k, now);
      return k;
    }

    // mHBM victim: buffering (trigger 2) — switch to cHBM for free, giving
    // the page one more chance, then continue looking for a real victim.
    const u32 fd = st.free_dram_frame(geo_.m, page < geo_.m ? page : kNoPage);
    const bool can_buffer = cfg_.high_footprint_actions &&
                            cfg_.multiplexed_space && !fixed_partition_ &&
                            cfg_.enable_caching && !st.chbm_disabled &&
                            !buffered_once && fd != kNoPage;
    if (can_buffer) {
      const RatioSample before = tracing() ? set_ratio(st) : RatioSample{};
      Ble& b = st.ble[k];
      st.new_ple[page] = static_cast<std::int32_t>(fd);
      st.occup[fd] = true;
      st.occup[geo_.m + k] = false;
      b.mode = Ble::Mode::kCache;
      b.valid.set_all();
      b.dirty.set_all();  // off-chip frame holds no data yet
      st.hot.requeue_hbm_mru(page);
      ++bstats_.mem_to_cache_buffers;
      ++mutable_stats().mode_switches;
      buffered_once = true;
      buffered_page = page;
      emit_ratio_transition(st, set, now, "mhbm_to_chbm_buffering", before);
      verify_set(st, set, "reclaim_hbm_frame (mHBM->cHBM buffering)");
      continue;
    }

    if (evict_frame(st, set, k, now)) return k;
    return kNoPage;  // no off-chip frame available for the writeback
  }
  return kNoPage;
}

// ---------------------------------------------------------- data movement

void BumblebeeController::migrate_page(SetState& st, u32 set, u32 page,
                                       u32 target_ble, u32 block, Tick now) {
  const RatioSample before = tracing() ? set_ratio(st) : RatioSample{};
  Ble& b = st.ble[target_ble];
  assert(b.mode == Ble::Mode::kFree);
  const u32 src = static_cast<u32>(st.new_ple[page]);
  assert(src < geo_.m);

  move_data(dram(), frame_addr(set, src), hbm(),
            frame_addr(set, geo_.m + target_ble), geo_.page_bytes, now,
            mem::TrafficClass::kMigration);

  st.new_ple[page] = static_cast<std::int32_t>(geo_.m + target_ble);
  st.occup[src] = false;
  st.occup[geo_.m + target_ble] = true;
  b.reset(geo_.blocks_per_page);
  b.mode = Ble::Mode::kMem;
  b.ple = page;
  b.valid.set(block);  // spatial tracking: the demanded block was accessed
  b.fetched.set_all();
  b.used.set(block);
  mutable_stats().blocks_fetched += geo_.blocks_per_page;
  ++mutable_stats().fetched_blocks_used;
  st.hot.move_dram_to_hbm(page);
  ++bstats_.page_migrations;
  ++mutable_stats().migrations;
  emit_ratio_transition(st, set, now, "migrate_page", before);
  verify_set(st, set, "migrate_page");
}

void BumblebeeController::cache_block(SetState& st, u32 set, u32 page,
                                      u32 block, Tick now, bool mark_dirty) {
  u32 k = st.cache_frame_of(page);
  if (k == kNoPage) {
    const RatioSample before = tracing() ? set_ratio(st) : RatioSample{};
    for (u32 i = 0; i < geo_.n; ++i) {
      if (st.ble[i].mode == Ble::Mode::kFree && !st.ble[i].retired &&
          frame_may_cache(i)) {
        k = i;
        break;
      }
    }
    assert(k != kNoPage && "caller must guarantee a free cache frame");
    Ble& nb = st.ble[k];
    nb.reset(geo_.blocks_per_page);
    nb.mode = Ble::Mode::kCache;
    nb.ple = page;
    st.hot.move_dram_to_hbm(page);
    emit_ratio_transition(st, set, now, "cache_block_new_frame", before);
  }
  Ble& b = st.ble[k];
  const u32 home = static_cast<u32>(st.new_ple[page]);
  move_data(dram(), frame_addr(set, home) + block * geo_.block_bytes, hbm(),
            frame_addr(set, geo_.m + k) + block * geo_.block_bytes,
            geo_.block_bytes, now, mem::TrafficClass::kFill);
  b.valid.set(block);
  if (mark_dirty) b.dirty.set(block);
  b.fetched.set(block);
  b.used.set(block);  // the demanded block is used by definition
  ++mutable_stats().blocks_fetched;
  ++mutable_stats().fetched_blocks_used;
  ++bstats_.block_fetches;
  verify_set(st, set, "cache_block");
}

void BumblebeeController::maybe_promote_cached(SetState& st, u32 set, u32 ck,
                                               u64 hotness, Tick now) {
  if (!cfg_.enable_migration || fixed_partition_ || !frame_may_mem(ck)) {
    return;
  }
  const SpatialSummary ss = spatial_summary(st, geo_.blocks_per_page);
  if (ss.sl() <= 0) return;  // only sets with strong spatial evidence
  // Promotion is a migration decision: reuse evidence at low Rh, hotness
  // beyond T at high Rh (Section III-E rule 1).
  const bool hot_enough = st.rh_high()
                              ? hotness > st.hot.min_hbm_counter()
                              : hotness >= 2;
  if (!hot_enough) return;
  switch_cache_to_mem(st, set, ck, now);
}

void BumblebeeController::switch_cache_to_mem(SetState& st, u32 set, u32 k,
                                              Tick now) {
  Ble& b = st.ble[k];
  assert(b.mode == Ble::Mode::kCache);
  const u32 page = b.ple;
  const u32 home = static_cast<u32>(st.new_ple[page]);
  const Addr hbm_page_addr = frame_addr(set, geo_.m + k);
  const Addr dram_page_addr = frame_addr(set, home);

  if (cfg_.multiplexed_space) {
    // Multiplexed space: fetch only the blocks not already cached.
    for (u32 blk = 0; blk < geo_.blocks_per_page; ++blk) {
      if (!b.valid.test(blk)) {
        move_data(dram(), dram_page_addr + blk * geo_.block_bytes, hbm(),
                  hbm_page_addr + blk * geo_.block_bytes, geo_.block_bytes,
                  now, mem::TrafficClass::kMigration);
        b.fetched.set(blk);
        ++mutable_stats().blocks_fetched;
      }
    }
  } else {
    // No-Multi: separate cHBM/mHBM spaces. The switch must (a) write the
    // cached copy back, (b) swap out a victim mHBM page, and (c) move the
    // whole page into the mHBM region — the paper's motivating overhead.
    for (u32 blk = 0; blk < geo_.blocks_per_page; ++blk) {
      if (b.dirty.test(blk)) {
        move_data(hbm(), hbm_page_addr + blk * geo_.block_bytes, dram(),
                  dram_page_addr + blk * geo_.block_bytes, geo_.block_bytes,
                  now, mem::TrafficClass::kWriteback);
      }
    }
    // Victim mHBM page in this set (coldest), swapped out to off-chip.
    u32 victim_k = kNoPage;
    u64 victim_hot = ~u64{0};
    for (u32 i = 0; i < geo_.n; ++i) {
      if (st.ble[i].mode == Ble::Mode::kMem) {
        const u64 h = st.hot.hotness(st.ble[i].ple);
        if (h < victim_hot) {
          victim_hot = h;
          victim_k = i;
        }
      }
    }
    if (victim_k != kNoPage) {
      evict_frame(st, set, victim_k, now);
    }
    b.dirty.clear_all();
    move_data(dram(), dram_page_addr, hbm(), hbm_page_addr, geo_.page_bytes,
              now, mem::TrafficClass::kMigration);
    b.fetched.set_all();
    // The whole page crosses the bus, already-cached blocks included — the
    // re-fetch of valid blocks is exactly the No-Multi overhead the
    // ablation measures, so charge every block.
    mutable_stats().blocks_fetched += geo_.blocks_per_page;
  }

  const RatioSample before = tracing() ? set_ratio(st) : RatioSample{};
  st.new_ple[page] = static_cast<std::int32_t>(geo_.m + k);
  st.occup[home] = false;
  st.occup[geo_.m + k] = true;
  b.mode = Ble::Mode::kMem;
  // b.valid now tracks accessed blocks — the cached blocks were accessed.
  ++bstats_.cache_to_mem_switches;
  ++mutable_stats().mode_switches;
  emit_ratio_transition(st, set, now, "cache_to_mem_switch", before);
  verify_set(st, set, "switch_cache_to_mem");
}

void BumblebeeController::swap_with_coldest(SetState& st, u32 set, u32 page,
                                            Tick now) {
  // Coldest HBM-resident page (trigger 4: set fully OS-occupied).
  const auto& entries = st.hot.hbm_entries();
  if (entries.empty()) return;
  u32 cold_page = kNoPage;
  u64 cold_hot = ~u64{0};
  for (const auto& e : entries) {
    if (e.counter < cold_hot) {
      cold_hot = e.counter;
      cold_page = e.page;
    }
  }
  if (cold_page == kNoPage || cold_page == page) return;

  const u32 cache_k = st.cache_frame_of(cold_page);
  if (cache_k != kNoPage) {
    // The cold page only has a cache copy: drop it, then migrate in.
    evict_frame(st, set, cache_k, now);
    migrate_page(st, set, page, cache_k, 0, now);
    ++bstats_.set_swaps;
    ++mutable_stats().swaps;
    return;
  }

  const std::int32_t cold_slot = st.new_ple[cold_page];
  if (cold_slot < static_cast<std::int32_t>(geo_.m)) return;  // stale
  const u32 k = static_cast<u32>(cold_slot) - geo_.m;
  const u32 my_frame = static_cast<u32>(st.new_ple[page]);
  assert(my_frame < geo_.m);

  swap_data(hbm(), frame_addr(set, geo_.m + k), dram(),
            frame_addr(set, my_frame), geo_.page_bytes, now,
            mem::TrafficClass::kMigration);

  st.new_ple[cold_page] = static_cast<std::int32_t>(my_frame);
  st.new_ple[page] = cold_slot;
  Ble& b = st.ble[k];
  b.reset(geo_.blocks_per_page);
  b.mode = Ble::Mode::kMem;
  b.ple = page;
  b.fetched.set_all();
  mutable_stats().blocks_fetched += geo_.blocks_per_page;
  st.hot.move_hbm_to_dram(cold_page);
  st.hot.move_dram_to_hbm(page);
  ++bstats_.set_swaps;
  ++mutable_stats().swaps;
  if (tracing()) {
    trace()->emit(TraceEvent(now, "page_swap", "bumblebee")
                      .arg("set", set)
                      .arg("hot_page", page)
                      .arg("cold_page", cold_page)
                      .arg("bytes", geo_.page_bytes));
  }
  verify_set(st, set, "swap_with_coldest");
}

bool BumblebeeController::retire_hbm_frame(SetState& st, u32 set, u32 k,
                                           Tick now) {
  Ble& b = st.ble[k];
  if (b.retired) return false;
  if (b.mode != Ble::Mode::kFree && !evict_frame(st, set, k, now)) {
    // No free off-chip frame to vacate into right now; the frame stays in
    // service and the next UE retries the retirement.
    return false;
  }
  b.retired = true;
  ++st.retired_frames;
  ++bstats_.frame_retirements;
  if (tracing()) {
    trace()->emit(TraceEvent(now, "frame_retired", "fault")
                      .arg("set", set)
                      .arg("frame", k)
                      .arg("set_retired_frames", st.retired_frames));
  }
  if (!st.degraded && st.retired_frames >= cfg_.degrade_after_retired_frames) {
    // Too much of this set's HBM is gone: degrade it. Existing cache
    // copies are flushed and caching disabled (trigger 5's machinery, but
    // counted separately — this is damage control, not footprint control);
    // mHBM residents stay until their own frames fault. alloc/migrate/
    // cache paths all test `degraded`, so the set stops attracting data
    // and its remap ratio is frozen.
    // chbm_disabled goes up with degraded, before the flush: each
    // evict_frame below verifies the set, and "degraded => chbm_disabled"
    // is one of the invariants it checks.
    st.degraded = true;
    st.chbm_disabled = true;
    ++bstats_.sets_degraded;
    for (u32 i = 0; i < geo_.n; ++i) {
      if (st.ble[i].mode == Ble::Mode::kCache) evict_frame(st, set, i, now);
    }
    if (tracing()) {
      trace()->emit(TraceEvent(now, "set_degraded", "fault")
                        .arg("set", set)
                        .arg("retired_frames", st.retired_frames));
    }
  }
  verify_set(st, set, "retire_hbm_frame");
  return true;
}

hmm::FaultPosture BumblebeeController::fault_posture() const {
  // Derived from the per-set remap state, not from bstats_: the posture is
  // structural (retired frames stay retired across a warmup stat reset),
  // while bstats_ counts events in the measured phase only.
  hmm::FaultPosture p;
  for (const SetState& st : sets_) {
    p.retired_frames += st.retired_frames;
    if (st.degraded) ++p.degraded_sets;
  }
  return p;
}

void BumblebeeController::reset_stats() {
  HybridMemoryController::reset_stats();
  bstats_ = BumblebeeStats{};
  meta_->reset_stats();
}

void BumblebeeController::flush_set_chbm(SetState& st, u32 set, Tick now) {
  for (u32 k = 0; k < geo_.n; ++k) {
    if (st.ble[k].mode == Ble::Mode::kCache) {
      evict_frame(st, set, k, now);
    }
  }
  st.chbm_disabled = true;
  ++bstats_.batch_flushes;
  if (tracing()) {
    trace()->emit(TraceEvent(now, "set_chbm_flush", "bumblebee")
                      .arg("set", set));
  }
  verify_set(st, set, "flush_set_chbm");
}

void BumblebeeController::maybe_batch_flush(Tick now) {
  if (!high_footprint_mode_ || !cfg_.high_footprint_actions) return;
  if (flush_cursor_ > 0) return;  // one proactive batch on mode entry
  const u32 batch =
      std::min(cfg_.flush_batch_sets, static_cast<u32>(sets_.size()));
  while (flush_cursor_ < batch) {
    flush_set_chbm(sets_[flush_cursor_], flush_cursor_, now);
    ++flush_cursor_;
  }
}

void BumblebeeController::run_zombie_check(SetState& st, u32 set, Tick now) {
  if (!cfg_.high_footprint_actions || !st.rh_high()) {
    st.zombie_page = kNoPage;
    st.zombie_age = 0;
    return;
  }
  const auto head = st.hot.lru_hbm();
  if (!head) return;
  if (head->page == st.zombie_page && head->counter == st.zombie_counter) {
    if (++st.zombie_age >= cfg_.zombie_window) {
      // Nothing can push this page out; evict it directly.
      u32 k = st.cache_frame_of(head->page);
      if (k == kNoPage) {
        const std::int32_t slot = st.new_ple[head->page];
        if (slot >= static_cast<std::int32_t>(geo_.m)) {
          k = static_cast<u32>(slot) - geo_.m;
        }
      }
      if (k != kNoPage && evict_frame(st, set, k, now)) {
        ++bstats_.zombie_evictions;
      }
      st.zombie_page = kNoPage;
      st.zombie_age = 0;
    }
  } else {
    st.zombie_page = head->page;
    st.zombie_counter = head->counter;
    st.zombie_age = 0;
  }
}

// -------------------------------------------------------------- main flow

hmm::HmmResult BumblebeeController::service(Addr addr, AccessType type,
                                            Tick now) {
  const Decoded d = decode(addr);
  SetState& st = sets_[d.set];
  ++st.accesses;

  hmm::HmmResult res;
  Tick t = now + meta_lookup(d.set, now, res);

  // High-footprint detection (trigger 5): the OS is handing out addresses
  // beyond the off-chip capacity.
  if (cfg_.high_footprint_actions && !high_footprint_mode_ &&
      (addr % geo_.visible_bytes()) >=
          geo_.dram_pages() * geo_.page_bytes) {
    high_footprint_mode_ = true;
  }
  maybe_batch_flush(t);

  // (1) PRT miss: first touch, allocate.
  if (st.new_ple[d.page] == kUnallocated) {
    allocate(st, d.set, d.page, t);
    meta_update(d.set, t);
  }

  const u32 loc = static_cast<u32>(st.new_ple[d.page]);

  if (slot_in_hbm(loc)) {
    // (3) The page lives in mHBM: serve from HBM; no data movement.
    Ble& b = st.ble[loc - geo_.m];
    assert(b.mode == Ble::Mode::kMem && b.ple == d.page);
    const auto rr =
        ecc_demand(hbm(), frame_addr(d.set, loc) + d.offset, 64, type, t);
    res.complete = rr.access.complete;
    res.served_by_hbm = true;
    res.phys_addr = frame_addr(d.set, loc) + d.offset;
    b.valid.set(d.block);
    if (type == AccessType::kWrite) b.dirty.set(d.block);
    if (b.fetched.test(d.block) && !b.used.test(d.block)) {
      b.used.set(d.block);
      ++mutable_stats().fetched_blocks_used;
    }
    st.hot.touch_hbm(d.page);
    if (rr.unrecovered) {
      // The mHBM home itself is faulty: the authoritative copy of a read
      // is lost (a write overwrites the bad word, so nothing is lost).
      // Either way, retire the frame — the eviction inside moves the page
      // to a clean off-chip frame so the set keeps running degraded.
      if (type == AccessType::kRead) ++mutable_stats().due_data_loss;
      retire_hbm_frame(st, d.set, loc - geo_.m, res.complete);
    }
    run_zombie_check(st, d.set, t);
    // Counter/LRU updates are write-combined in the controller's buffers;
    // no metadata writeback is charged for pure serves (matters for the
    // Meta-H ablation only — SRAM updates are free anyway).
    return res;
  }

  // The page lives off-chip; consult the BLE array for a cache copy (the
  // BLE slice rides in the same packed per-set record as the PRT, so no
  // second lookup is charged even for HBM-resident metadata).
  const u32 ck = st.cache_frame_of(d.page);

  if (ck != kNoPage && st.ble[ck].valid.test(d.block)) {
    // (7) Block cached: serve from cHBM.
    Ble& b = st.ble[ck];
    const Addr pa = frame_addr(d.set, geo_.m + ck) + d.offset;
    const bool was_dirty = b.dirty.test(d.block);
    const auto rr = ecc_demand(hbm(), pa, 64, type, t);
    res.complete = rr.access.complete;
    res.served_by_hbm = true;
    res.phys_addr = pa;
    if (type == AccessType::kWrite) b.dirty.set(d.block);
    if (b.fetched.test(d.block) && !b.used.test(d.block)) {
      b.used.set(d.block);
      ++mutable_stats().fetched_blocks_used;
    }
    const u64 h = st.hot.touch_hbm(d.page);
    if (rr.unrecovered) {
      // The cache copy is unreadable. A clean block still has its
      // authoritative copy in the off-chip home frame — re-fetch the
      // demand from there; a dirty block's only copy was in the faulty
      // frame (data loss). Then retire the frame (flush-if-dirty of the
      // remaining blocks through the normal evict path).
      if (type == AccessType::kRead) {
        if (was_dirty) {
          ++mutable_stats().due_data_loss;
        } else {
          const Addr home =
              frame_addr(d.set, static_cast<u32>(st.new_ple[d.page])) +
              d.offset;
          const auto rf = dram().access(home, 64, type, res.complete,
                                        mem::TrafficClass::kDemand);
          res.complete = rf.complete;
          res.served_by_hbm = false;
          res.phys_addr = home;
          ++bstats_.due_refetches;
        }
      }
      retire_hbm_frame(st, d.set, ck, res.complete);
    } else {
      maybe_promote_cached(st, d.set, ck, h, rr.access.complete);
    }
    run_zombie_check(st, d.set, t);
    return res;
  }

  // Serve from off-chip DRAM ((5) page not cached or (8) block not cached).
  const Addr pa = frame_addr(d.set, loc) + d.offset;
  const auto rr = ecc_demand(dram(), pa, 64, type, t);
  const auto r = rr.access;
  res.complete = r.complete;
  res.served_by_hbm = false;
  res.phys_addr = pa;
  if (rr.unrecovered && type == AccessType::kRead) {
    // Off-chip frames hold the only copy of an uncached page.
    ++mutable_stats().due_data_loss;
  }

  if (ck != kNoPage) {
    // (2) Page cached, block missing: fetch the block asynchronously. Under
    // high Rh only blocks of pages hotter than T are brought in (Section
    // III-E's temporal gate applies to block caching as well).
    const u64 h = st.hot.touch_hbm(d.page);
    const bool fetch_ok =
        !st.rh_high() || h > st.hot.min_hbm_counter();
    if (fetch_ok) {
      cache_block(st, d.set, d.page, d.block, r.complete,
                  /*mark_dirty=*/false);
      Ble& b = st.ble[ck];
      const double frac = static_cast<double>(b.valid.popcount()) /
                          static_cast<double>(geo_.blocks_per_page);
      const bool may_switch = cfg_.enable_migration && !fixed_partition_ &&
                              frame_may_mem(ck);
      if (may_switch && frac > cfg_.switch_fraction) {
        switch_cache_to_mem(st, d.set, ck, r.complete);
      }
    }
  } else {
    // Movement decision for an uncached off-chip page (Section III-E).
    const u64 h = st.hot.touch_dram(d.page);
    const u64 threshold = st.hot.min_hbm_counter();

    const bool all_occupied = [&] {
      for (u32 j = 0; j < geo_.slots(); ++j) {
        if (!st.occup[j]) return false;
      }
      return true;
    }();

    if (all_occupied && cfg_.high_footprint_actions &&
        cfg_.enable_migration && h > threshold && !st.degraded) {
      // (4) Set fully OS-occupied: swap with the coldest HBM page.
      swap_with_coldest(st, d.set, d.page, r.complete);
    } else {
      const SpatialSummary ss = spatial_summary(st, geo_.blocks_per_page);
      const int sl = ss.sl();
      // With no HBM-resident evidence yet (empty set), start with the
      // migration prior: mHBM exploits spatial locality and full bandwidth,
      // and the BLE access ratios it produces are exactly the evidence SL
      // needs — weak-spatial pages surface as Nn and flip the set to
      // caching; strong-spatial pages keep it migrating.
      const bool no_evidence = (ss.na + ss.nn + ss.nc) == 0;

      // Which action class applies: migration (mHBM) or caching (cHBM)?
      bool do_migrate;
      if (!cfg_.enable_caching) {
        do_migrate = true;  // M-Only
      } else if (!cfg_.enable_migration) {
        do_migrate = false;  // C-Only
      } else {
        do_migrate = sl > 0 || no_evidence;
      }

      if (do_migrate && cfg_.enable_migration && h >= 2 && !st.degraded) {
        // Migration needs evidence of reuse (a re-access) even when HBM
        // frames are free: only data with potential for future reuse is
        // worth a page-granularity move (Section I's POM rationale).
        u32 f = kNoPage;
        for (u32 i = 0; i < geo_.n; ++i) {
          if (st.ble[i].mode == Ble::Mode::kFree && !st.ble[i].retired &&
              frame_may_mem(i)) {
            f = i;
            break;
          }
        }
        if (f != kNoPage) {
          migrate_page(st, d.set, d.page, f, d.block, r.complete);
        } else if (h > threshold) {
          const u32 freed =
              reclaim_hbm_frame(st, d.set, r.complete, FrameRole::kMem);
          if (freed != kNoPage && frame_may_mem(freed) &&
              st.ble[freed].mode == Ble::Mode::kFree) {
            migrate_page(st, d.set, d.page, freed, d.block, r.complete);
          }
        }
      } else if (cfg_.enable_caching && !st.chbm_disabled) {
        u32 f = kNoPage;
        for (u32 i = 0; i < geo_.n; ++i) {
          if (st.ble[i].mode == Ble::Mode::kFree && !st.ble[i].retired &&
              frame_may_cache(i)) {
            f = i;
            break;
          }
        }
        if (f != kNoPage) {
          cache_block(st, d.set, d.page, d.block, r.complete,
                      /*mark_dirty=*/false);
        } else if (h > threshold) {
          const u32 freed =
              reclaim_hbm_frame(st, d.set, r.complete, FrameRole::kCache);
          if (freed != kNoPage && frame_may_cache(freed) &&
              st.ble[freed].mode == Ble::Mode::kFree) {
            cache_block(st, d.set, d.page, d.block, r.complete,
                        /*mark_dirty=*/false);
          }
        }
      }
    }
  }

  run_zombie_check(st, d.set, t);
  meta_update(d.set, t);
  return res;
}

// ----------------------------------------------------------- inspection

BumblebeeController::Location BumblebeeController::locate(Addr addr) const {
  const Decoded d = decode(addr);
  const SetState& st = sets_[d.set];
  Location out;
  if (st.new_ple[d.page] == kUnallocated) return out;
  out.allocated = true;
  const u32 loc = static_cast<u32>(st.new_ple[d.page]);
  if (slot_in_hbm(loc)) {
    out.in_hbm = true;
    out.phys = frame_addr(d.set, loc) + d.offset;
    return out;
  }
  const u32 ck = st.cache_frame_of(d.page);
  if (ck != kNoPage && st.ble[ck].valid.test(d.block)) {
    out.in_hbm = true;
    out.phys = frame_addr(d.set, geo_.m + ck) + d.offset;
    return out;
  }
  out.in_hbm = false;
  out.phys = frame_addr(d.set, loc) + d.offset;
  return out;
}

bool BumblebeeController::check_set_invariants(const SetState& st,
                                               u32 set) const {
  (void)set;
  // PRT: remapped pages form a bijection onto occupied frames.
  std::vector<int> frame_owner(geo_.slots(), -1);
  for (u32 p = 0; p < geo_.slots(); ++p) {
    const std::int32_t f = st.new_ple[p];
    if (f == kUnallocated) continue;
    if (f < 0 || f >= static_cast<std::int32_t>(geo_.slots())) return false;
    if (frame_owner[static_cast<u32>(f)] != -1) return false;  // collision
    frame_owner[static_cast<u32>(f)] = static_cast<int>(p);
  }
  for (u32 f = 0; f < geo_.slots(); ++f) {
    if (st.occup[f] != (frame_owner[f] != -1)) return false;
  }
  // BLE: every HBM frame's entry agrees with the PRT slot it mirrors.
  std::vector<bool> cached(geo_.slots(), false);
  std::vector<bool> hbm_resident(geo_.slots(), false);
  u32 chbm = 0;
  u32 mhbm = 0;
  u32 free_frames = 0;
  u32 retired = 0;
  for (u32 k = 0; k < geo_.n; ++k) {
    const Ble& b = st.ble[k];
    if (b.retired) {
      // A retired frame must be fully out of service: kFree forever.
      if (b.mode != Ble::Mode::kFree) return false;
      ++retired;
    }
    switch (b.mode) {
      case Ble::Mode::kFree:
        if (st.occup[geo_.m + k]) return false;
        ++free_frames;
        break;
      case Ble::Mode::kMem:
        if (b.ple >= geo_.slots()) return false;
        if (frame_owner[geo_.m + k] != static_cast<int>(b.ple)) return false;
        hbm_resident[b.ple] = true;
        ++mhbm;
        break;
      case Ble::Mode::kCache: {
        if (b.ple >= geo_.slots()) return false;
        if (cached[b.ple]) return false;  // duplicate cache copy
        cached[b.ple] = true;
        const std::int32_t home = st.new_ple[b.ple];
        if (home == kUnallocated ||
            home >= static_cast<std::int32_t>(geo_.m)) {
          return false;  // cached page must live off-chip
        }
        if (st.occup[geo_.m + k]) return false;  // cache frame not occup
        hbm_resident[b.ple] = true;
        ++chbm;
        break;
      }
    }
  }
  // Ratio bookkeeping: cHBM + mHBM + free frames sum to the set's HBM
  // frame count (nothing double-counted or lost across a ratio change).
  if (chbm + mhbm + free_frames != geo_.n) return false;
  // Fault retirement bookkeeping: the sticky BLE flags agree with the
  // set's counter, and a degraded set has stopped caching.
  if (retired != st.retired_frames) return false;
  if (st.degraded &&
      (!st.chbm_disabled ||
       st.retired_frames < cfg_.degrade_after_retired_frames)) {
    return false;
  }
  // Hot table: the HBM queue holds exactly the HBM-resident pages (each
  // non-free BLE holds a distinct page, so sizes must match too).
  if (st.hot.hbm_size() != chbm + mhbm) return false;
  for (const auto& e : st.hot.hbm_entries()) {
    if (e.page >= geo_.slots() || !hbm_resident[e.page]) return false;
  }
  return true;
}

void BumblebeeController::verify_set(const SetState& st, u32 set,
                                     const char* where) const {
#if BB_CHECKS_ENABLED
  if (!check_set_invariants(st, set)) {
    std::fprintf(stderr,
                 "bumblebee metadata invariant violation in set %u after "
                 "%s\n",
                 set, where);
    BB_CHECK(false, "PRT/BLE/hot-table consistency (see message above)");
  }
#else
  (void)st;
  (void)set;
  (void)where;
#endif
}

bool BumblebeeController::check_invariants() const {
  for (u32 s = 0; s < geo_.sets; ++s) {
    if (!check_set_invariants(sets_[s], s)) return false;
  }
  return true;
}

void BumblebeeController::save_state(snap::Writer& w) const {
  save_base_state(w);
  w.put_u64(sets_.size());
  for (const SetState& st : sets_) {
    w.put_u64(st.new_ple.size());
    for (std::int32_t v : st.new_ple) w.put_i64(v);
    for (bool o : st.occup) w.put_u8(o ? 1 : 0);
    w.put_u64(st.ble.size());
    for (const Ble& b : st.ble) {
      w.put_u8(static_cast<u8>(b.mode));
      w.put_u32(b.ple);
      w.put_u8(b.retired ? 1 : 0);
      b.valid.save(w);
      b.dirty.save(w);
      b.fetched.save(w);
      b.used.save(w);
    }
    st.hot.save(w);
    w.put_u32(st.zombie_page);
    w.put_u64(st.zombie_counter);
    w.put_u32(st.zombie_age);
    w.put_u64(st.accesses);
    w.put_u8(st.chbm_disabled ? 1 : 0);
    w.put_i64(st.last_alloc_page);
    w.put_u32(st.retired_frames);
    w.put_u8(st.degraded ? 1 : 0);
  }
  w.put_u64(bstats_.prt_misses);
  w.put_u64(bstats_.block_fetches);
  w.put_u64(bstats_.page_migrations);
  w.put_u64(bstats_.cache_to_mem_switches);
  w.put_u64(bstats_.mem_to_cache_buffers);
  w.put_u64(bstats_.zombie_evictions);
  w.put_u64(bstats_.set_swaps);
  w.put_u64(bstats_.batch_flushes);
  w.put_u64(bstats_.os_swap_outs);
  w.put_u64(bstats_.chbm_evictions);
  w.put_u64(bstats_.mhbm_evictions);
  w.put_u64(bstats_.frame_retirements);
  w.put_u64(bstats_.due_refetches);
  w.put_u64(bstats_.sets_degraded);
  w.put_u8(high_footprint_mode_ ? 1 : 0);
  w.put_u32(flush_cursor_);
  meta_->save(w);
}

void BumblebeeController::load_state(snap::Reader& r) {
  load_base_state(r);
  if (r.get_u64() != sets_.size()) {
    throw snap::SnapshotError("remapping set count mismatch");
  }
  for (u32 set = 0; set < sets_.size(); ++set) {
    SetState& st = sets_[set];
    if (r.get_u64() != st.new_ple.size()) {
      throw snap::SnapshotError("set slot count mismatch");
    }
    for (std::int32_t& v : st.new_ple) {
      v = static_cast<std::int32_t>(r.get_i64());
    }
    for (std::size_t j = 0; j < st.occup.size(); ++j) {
      st.occup[j] = r.get_u8() != 0;
    }
    if (r.get_u64() != st.ble.size()) {
      throw snap::SnapshotError("set frame count mismatch");
    }
    for (Ble& b : st.ble) {
      b.mode = static_cast<Ble::Mode>(r.get_u8());
      b.ple = r.get_u32();
      b.retired = r.get_u8() != 0;
      b.valid.load(r);
      b.dirty.load(r);
      b.fetched.load(r);
      b.used.load(r);
    }
    st.hot.load(r);
    st.zombie_page = r.get_u32();
    st.zombie_counter = r.get_u64();
    st.zombie_age = r.get_u32();
    st.accesses = r.get_u64();
    st.chbm_disabled = r.get_u8() != 0;
    st.last_alloc_page = static_cast<std::int32_t>(r.get_i64());
    st.retired_frames = r.get_u32();
    st.degraded = r.get_u8() != 0;
    verify_set(st, set, "load_state");
  }
  bstats_.prt_misses = r.get_u64();
  bstats_.block_fetches = r.get_u64();
  bstats_.page_migrations = r.get_u64();
  bstats_.cache_to_mem_switches = r.get_u64();
  bstats_.mem_to_cache_buffers = r.get_u64();
  bstats_.zombie_evictions = r.get_u64();
  bstats_.set_swaps = r.get_u64();
  bstats_.batch_flushes = r.get_u64();
  bstats_.os_swap_outs = r.get_u64();
  bstats_.chbm_evictions = r.get_u64();
  bstats_.mhbm_evictions = r.get_u64();
  bstats_.frame_retirements = r.get_u64();
  bstats_.due_refetches = r.get_u64();
  bstats_.sets_degraded = r.get_u64();
  high_footprint_mode_ = r.get_u8() != 0;
  flush_cursor_ = r.get_u32();
  meta_->load(r);
}

}  // namespace bb::bumblebee
