#include "hmm/paging.h"

#include <stdexcept>
#include <string>

#include "common/check.h"
#include "common/snapshot.h"
#include "common/trace_event.h"

namespace bb::hmm {

PagingModel::PagingModel(const PagingConfig& cfg)
    : cfg_(cfg), page_shift_(log2_floor(cfg.os_page_bytes)) {
  if (!is_pow2(cfg.os_page_bytes)) {
    throw std::invalid_argument(
        "paging: os_page_bytes must be a power of two, got " +
        std::to_string(cfg.os_page_bytes));
  }
  if (cfg.enabled && cfg.visible_bytes < cfg.os_page_bytes) {
    // A resident set of zero pages would send the first touch down the
    // capacity-fault path with no victim to evict.
    throw std::invalid_argument(
        "paging: visible_bytes (" + std::to_string(cfg.visible_bytes) +
        ") holds no whole OS page of " + std::to_string(cfg.os_page_bytes) +
        " bytes");
  }
  capacity_pages_ = cfg.enabled ? cfg.visible_bytes >> page_shift_ : 0;
}

namespace {

constexpr std::size_t kMinIndexCells = 16;

/// Smallest index size that keeps `pages` entries at load <= 1/2.
std::size_t index_cells_for(std::size_t pages) {
  std::size_t cells = kMinIndexCells;
  while (cells < 2 * pages) cells *= 2;
  return cells;
}

}  // namespace

std::size_t PagingModel::index_home(u64 page, std::size_t cells) {
  // Fibonacci hashing: the multiply spreads sequential page ids (the
  // common case) across the table.
  return static_cast<std::size_t>((page * 0x9E3779B97F4A7C15ull) >> 32) &
         (cells - 1);
}

std::size_t PagingModel::find_cell(u64 page) const {
  const std::size_t cells = index_.size();
  if (cells == 0) return cells;
  const std::size_t mask = cells - 1;
  for (std::size_t i = index_home(page, cells);; i = (i + 1) & mask) {
    const u32 c = index_[i];
    if (c == kEmpty) return cells;
    if (ring_[c - 1] == page) return i;
  }
}

void PagingModel::index_insert(u64 page, std::size_t slot) {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = index_home(page, index_.size());
  while (index_[i] != kEmpty) i = (i + 1) & mask;
  index_[i] = static_cast<u32>(slot + 1);
}

void PagingModel::index_erase(u64 page) {
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = find_cell(page);
  BB_ASSERT(hole != index_.size(), "evicted page missing from paging index");
  // Backward shift: walk the rest of the probe run and move each entry
  // whose home lies cyclically at or before the hole into it, so no
  // lookup ever stops early at the freed cell.
  for (std::size_t j = (hole + 1) & mask; index_[j] != kEmpty;
       j = (j + 1) & mask) {
    const std::size_t home = index_home(ring_[index_[j] - 1], index_.size());
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = kEmpty;
}

void PagingModel::rebuild_index(std::size_t cells) {
  index_.assign(cells, kEmpty);
  for (std::size_t i = 0; i < ring_.size(); ++i) index_insert(ring_[i], i);
}

Tick PagingModel::touch(Addr addr, Tick now) {
  if (!cfg_.enabled) return 0;
  const u64 page = addr >> page_shift_;

  const std::size_t cell = find_cell(page);
  if (cell != index_.size()) {
    referenced_[index_[cell] - 1] = true;
    return 0;
  }

  if (ring_.size() < capacity_pages_) {
    // Cold (first-touch) fault: page fits, OS just zero-fills it.
    if (2 * (ring_.size() + 1) > index_.size()) {
      rebuild_index(index_cells_for(ring_.size() + 1));
    }
    index_insert(page, ring_.size());
    ring_.push_back(page);
    referenced_.push_back(true);
    ++stats_.first_touches;
    return 0;
  }

  // Capacity fault: run the clock hand until an unreferenced victim appears.
  for (;;) {
    if (hand_ >= ring_.size()) hand_ = 0;
    if (referenced_[hand_]) {
      referenced_[hand_] = false;
      ++hand_;
      continue;
    }
    break;
  }
  const u64 victim = ring_[hand_];
  index_erase(victim);
  ring_[hand_] = page;
  referenced_[hand_] = true;
  index_insert(page, hand_);
  ++hand_;
  ++stats_.faults;
  if (trace_) {
    trace_->emit(TraceEvent(now, "os_page_swap_out", "paging")
                     .arg("faulting_page", page)
                     .arg("victim_page", victim)
                     .arg("penalty_ns", ticks_to_ns(cfg_.fault_penalty)));
  }
  return cfg_.fault_penalty;
}

void PagingModel::save(snap::Writer& w) const {
  w.put_u64(stats_.faults);
  w.put_u64(stats_.first_touches);
  w.put_u64(ring_.size());
  for (u64 page : ring_) w.put_u64(page);
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    w.put_u8(referenced_[i] ? 1 : 0);
  }
  w.put_u64(hand_);
}

void PagingModel::load(snap::Reader& r) {
  stats_.faults = r.get_u64();
  stats_.first_touches = r.get_u64();
  ring_.resize(static_cast<std::size_t>(r.get_u64()));
  for (u64& page : ring_) page = r.get_u64();
  referenced_.resize(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    referenced_[i] = r.get_u8() != 0;
  }
  hand_ = static_cast<std::size_t>(r.get_u64());
  rebuild_index(index_cells_for(ring_.size()));
}

}  // namespace bb::hmm
