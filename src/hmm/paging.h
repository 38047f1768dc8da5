// OS paging pressure model.
//
// POM-style designs make the HBM capacity OS-visible; cache-style designs do
// not. The paper credits hybrid/POM designs with "more OS-visible memory to
// reduce page faults" (Section III-E, movement trigger 5). We model this
// with a resident-set simulation: OS pages (4 KB) become resident on first
// touch; when the resident set exceeds the design's visible capacity a
// victim is chosen clock-style and the faulting access pays a fixed penalty
// (minor-fault / compressed-swap cost, not a disk swap).
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.h"

namespace bb {
class TraceSink;
}  // namespace bb

namespace bb::snap {
class Reader;
class Writer;
}  // namespace bb::snap

namespace bb::hmm {

struct PagingConfig {
  bool enabled = true;
  u64 visible_bytes = 10 * GiB;  ///< OS-visible memory capacity
  u64 os_page_bytes = 4 * KiB;  ///< a power of two
  Tick fault_penalty = ns_to_ticks(200.0);
};

struct PagingStats {
  u64 faults = 0;        ///< capacity faults (victim evicted + penalty paid)
  u64 first_touches = 0; ///< cold faults (no penalty; OS zero-fill assumed)
};

class PagingModel {
 public:
  /// Throws std::invalid_argument unless os_page_bytes is a power of two
  /// and, with paging enabled, visible_bytes holds at least one OS page.
  explicit PagingModel(const PagingConfig& cfg);

  /// Touches the OS page containing `addr` at simulated tick `now`;
  /// returns the penalty (0 or the configured fault penalty) to add to the
  /// request latency.
  Tick touch(Addr addr, Tick now = 0);

  /// Attaches / detaches (nullptr) the event trace sink; capacity faults
  /// then emit os_page_swap_out events (victim page evicted).
  void set_trace_sink(TraceSink* sink) { trace_ = sink; }

  const PagingStats& stats() const { return stats_; }
  const PagingConfig& config() const { return cfg_; }

  /// Clears the fault counters at a warmup boundary. The resident set and
  /// clock ring survive — the OS does not forget which pages are resident
  /// when measurement starts.
  void reset_stats() { stats_ = PagingStats{}; }

  /// Snapshot/restore of the resident set (clock ring + reference bits +
  /// hand) and fault counters; the page->slot index is rebuilt from the
  /// ring.
  void save(snap::Writer& w) const;
  void load(snap::Reader& r);

  /// Home cell of `page` in an index of `cells` cells (a power of two).
  /// Public so tests can build pages whose probe chains collide or wrap
  /// the end of the table.
  static std::size_t index_home(u64 page, std::size_t cells);
  /// Current index size in cells (0 until the first page is admitted).
  std::size_t index_cells() const { return index_.size(); }

 private:
  static constexpr u32 kEmpty = 0;

  /// Index cell holding `page`, or index_.size() when it is not resident.
  std::size_t find_cell(u64 page) const;
  /// Records that ring slot `slot` holds `page` (not already indexed).
  void index_insert(u64 page, std::size_t slot);
  /// Removes `page`'s cell, shifting its probe chain back over the hole.
  void index_erase(u64 page);
  /// Re-sizes the index to `cells` and re-inserts every ring slot.
  void rebuild_index(std::size_t cells);

  TraceSink* trace_ = nullptr;
  PagingConfig cfg_;
  u32 page_shift_;  ///< log2(os_page_bytes)
  u64 capacity_pages_;
  PagingStats stats_;
  /// page -> clock-ring slot: open addressing, linear probing, load at most
  /// 1/2. A cell holds `slot + 1` (kEmpty = free); the page id is read back
  /// from ring_, so occupancy is ring_.size().
  std::vector<u32> index_;
  std::vector<u64> ring_;  ///< clock ring of resident pages
  std::vector<bool> referenced_;
  std::size_t hand_ = 0;
};

}  // namespace bb::hmm
