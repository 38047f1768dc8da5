#include "hmm/controller.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "common/metrics.h"
#include "common/prof.h"
#include "common/snapshot.h"
#include "common/trace_event.h"

namespace bb::hmm {

std::vector<double> HmmStats::latency_bounds_ns() {
  return {kLatencyBoundsNs.begin(), kLatencyBoundsNs.end()};
}

namespace {

// latency_bucket()'s lookup table, built at compile time. For a whole
// number b, b <= t / 1000.0 (the double ticks_to_ns) holds exactly when
// b <= t / 1000 in integers: t >= 1000 b divides to at least b, and
// t <= 1000 b - 1 divides to at most b - 0.001, many rounding steps below
// b because every bound is below 2^17 (and any t the double rounds lies
// far past the last bound, in the overflow bucket). Every bound is also a
// multiple of the bounds' common divisor, so b <= t / 1000 holds exactly
// when b <= step * (t / (1000 * step)), and the table needs one entry per
// step up to the last bound.
constexpr u32 latency_step_ns() {
  u32 g = 0;
  for (u32 b : HmmStats::kLatencyBoundsNs) g = std::gcd(g, b);
  return g;
}

constexpr Tick kLatencyStepTicks = latency_step_ns() * kTicksPerNs;

constexpr auto kLatencyBucketOfStep = [] {
  constexpr auto& bounds = HmmStats::kLatencyBoundsNs;
  std::array<u8, bounds.back() / latency_step_ns() + 1> table{};
  std::size_t below = 0;  // bounds <= this step's ns
  for (std::size_t j = 0; j < table.size(); ++j) {
    while (below < bounds.size() && bounds[below] <= j * latency_step_ns()) {
      ++below;
    }
    table[j] = static_cast<u8>(below);
  }
  return table;
}();

}  // namespace

std::size_t HmmStats::latency_bucket(Tick t) {
  const Tick step = t / kLatencyStepTicks;
  return step < kLatencyBucketOfStep.size() ? kLatencyBucketOfStep[step]
                                            : kLatencyBoundsNs.size();
}

HybridMemoryController::HybridMemoryController(std::string name,
                                               mem::DramDevice& hbm,
                                               mem::DramDevice& dram,
                                               const PagingConfig& paging)
    : name_(std::move(name)), hbm_(hbm), dram_(dram), paging_(paging) {}

HmmResult HybridMemoryController::access(Addr addr, AccessType type,
                                         Tick now, u32 core_id) {
  // Host-side phase attribution only; the nested device-timing phase in
  // DramDevice::access claims its own (exclusive) share of this span.
  prof::ScopedPhase prof_phase(prof::Phase::kHmmAccess);
  // Per-core byte attribution works by device-total snapshot: whatever
  // both devices move while service() runs — demand beats plus any fills,
  // writebacks or migrations the design triggers from this request — is
  // charged to the requesting core.
  const bool per_core = !core_stats_.empty();
  u64 hbm_before = 0;
  u64 dram_before = 0;
  if (per_core) {
    hbm_before = hbm_.stats().total_bytes();
    dram_before = dram_.stats().total_bytes();
  }

  const Tick fault = paging_.touch(addr, now);
  HmmResult res = service(addr, type, now + fault);
  res.fault_penalty = fault;

  const Tick latency = res.complete - now;
  ++stats_.requests;
  if (type == AccessType::kRead) {
    ++stats_.reads;
  } else {
    ++stats_.writes;
  }
  if (res.served_by_hbm) ++stats_.hbm_served;
  stats_.total_latency += latency;
  stats_.total_metadata_latency += res.metadata_latency;
  // The per-core histograms share the aggregate's bounds: look up once.
  const std::size_t bucket = HmmStats::latency_bucket(latency);
  stats_.latency_ns.add(bucket);

  if (per_core) {
    const std::size_t c =
        std::min<std::size_t>(core_id, core_stats_.size() - 1);
    CoreStats& cs = core_stats_[c];
    ++cs.requests;
    if (res.served_by_hbm) ++cs.hbm_served;
    cs.total_latency += latency;
    cs.latency_ns.add(bucket);
    cs.hbm_bytes += hbm_.stats().total_bytes() - hbm_before;
    cs.dram_bytes += dram_.stats().total_bytes() - dram_before;
  }
  if (sampler_) sampler_->on_request(now);
  return res;
}

void HybridMemoryController::set_core_count(u32 cores) {
  core_stats_.assign(cores, CoreStats{});
}

void HybridMemoryController::drain(Tick now) {
  // End-of-run queue flush: posted writes drain to the devices so beat,
  // row-state and energy totals are complete before results are
  // assembled (bytes are accounted at arrival). No-op with the queue
  // layer off.
  hbm_.drain_queues(now);
  dram_.drain_queues(now);
}

void HybridMemoryController::set_trace_sink(TraceSink* sink) {
  trace_ = sink;
  paging_.set_trace_sink(sink);
  // The devices emit fault_injected events; they share the run's sink.
  hbm_.set_trace_sink(sink);
  dram_.set_trace_sink(sink);
}

void HybridMemoryController::register_metrics(MetricRegistry& reg) const {
  // No "requests" counter here: the sampler's fixed `requests` column
  // already reports the per-epoch request count.
  const HmmStats* st = &stats_;
  reg.add_ratio(
      "hbm_serve_rate",
      [st] { return static_cast<double>(st->hbm_served); },
      [st] { return static_cast<double>(st->requests); });
  reg.add_ratio(
      "mean_latency_ns",
      [st] { return ticks_to_ns(st->total_latency); },
      [st] { return static_cast<double>(st->requests); });
  hbm_.register_metrics(reg, "hbm_");
  dram_.register_metrics(reg, "dram_");
  const PagingModel* pg = &paging_;
  reg.add_counter("page_faults", [pg] {
    return static_cast<double>(pg->stats().faults);
  });
  // ECC recovery / degradation probes, only when a fault model is attached
  // so fault-free epoch CSVs keep their column set.
  if (hbm_.faults() != nullptr || dram_.faults() != nullptr) {
    reg.add_counter("due_retries", [st] {
      return static_cast<double>(st->due_retries);
    });
    reg.add_counter("due_unrecovered", [st] {
      return static_cast<double>(st->due_unrecovered);
    });
    const HybridMemoryController* self = this;
    reg.add_gauge("retired_frames", [self] {
      return static_cast<double>(self->fault_posture().retired_frames);
    });
    reg.add_gauge("degraded_sets", [self] {
      return static_cast<double>(self->fault_posture().degraded_sets);
    });
  }
  // Per-core attribution probes (co-run evaluation); registered only when a
  // multi-core table was sized, so single-core epoch CSVs keep their
  // column set. Probes index through the member vector each call — its
  // elements never move after set_core_count.
  if (core_stats_.size() > 1) {
    const std::vector<CoreStats>* cs = &core_stats_;
    for (std::size_t i = 0; i < core_stats_.size(); ++i) {
      const std::string p = "core" + std::to_string(i) + "_";
      reg.add_counter(p + "requests", [cs, i] {
        return static_cast<double>((*cs)[i].requests);
      });
      reg.add_ratio(
          p + "hbm_serve_rate",
          [cs, i] { return static_cast<double>((*cs)[i].hbm_served); },
          [cs, i] { return static_cast<double>((*cs)[i].requests); });
    }
  }
}

void HybridMemoryController::on_warmup_end(Tick now) {
  if (trace_) {
    trace_->emit(TraceEvent(now, "warmup_end", "sim"));
  }
  if (sampler_) sampler_->restart(now);
}

Tick HybridMemoryController::move_data(mem::DramDevice& src, Addr src_addr,
                                       mem::DramDevice& dst, Addr dst_addr,
                                       u64 bytes, Tick now,
                                       mem::TrafficClass cls) {
  const auto rd = src.access(src_addr, bytes, AccessType::kRead, now, cls);
  const auto wr =
      dst.access(dst_addr, bytes, AccessType::kWrite, rd.complete, cls);
  if (movement_hook_) {
    movement_hook_({&src == &hbm_, src_addr, &dst == &hbm_, dst_addr, bytes});
  }
  return wr.complete;
}

Tick HybridMemoryController::swap_data(mem::DramDevice& a, Addr a_addr,
                                       mem::DramDevice& b, Addr b_addr,
                                       u64 bytes, Tick now,
                                       mem::TrafficClass cls) {
  const auto ra = a.access(a_addr, bytes, AccessType::kRead, now, cls);
  const auto rb = b.access(b_addr, bytes, AccessType::kRead, now, cls);
  const Tick buffered = std::max(ra.complete, rb.complete);
  const auto wa = a.access(a_addr, bytes, AccessType::kWrite, buffered, cls);
  const auto wb = b.access(b_addr, bytes, AccessType::kWrite, buffered, cls);
  if (movement_hook_) {
    movement_hook_(
        {&a == &hbm_, a_addr, &b == &hbm_, b_addr, bytes, /*is_swap=*/true});
  }
  return std::max(wa.complete, wb.complete);
}

HybridMemoryController::EccDemand HybridMemoryController::ecc_demand(
    mem::DramDevice& dev, Addr addr, u64 bytes, AccessType type, Tick now,
    mem::TrafficClass cls) {
  EccDemand out;
  out.access = dev.access(addr, bytes, type, now, cls);
  if (out.access.ecc != fault::EccOutcome::kUncorrectable) return out;
  const fault::DeviceFaultState* fs = dev.faults();
  if (fs == nullptr) {  // defensive: a UE implies an attached fault model
    out.unrecovered = true;
    return out;
  }
  Tick backoff = fs->config().due_retry_backoff;
  for (u32 attempt = 0; attempt < fs->config().max_due_retries; ++attempt) {
    ++stats_.due_retries;
    out.access = dev.access(addr, bytes, type, out.access.complete + backoff,
                            cls);
    if (out.access.ecc != fault::EccOutcome::kUncorrectable) {
      ++stats_.due_recovered;
      return out;
    }
    backoff *= 2;
  }
  ++stats_.due_unrecovered;
  out.unrecovered = true;
  return out;
}

DramOnlyController::DramOnlyController(mem::DramDevice& hbm,
                                       mem::DramDevice& dram,
                                       PagingConfig paging)
    : HybridMemoryController(
          "DRAM-only", hbm, dram,
          [&] {
            paging.visible_bytes = dram.capacity();
            return paging;
          }()) {}

HmmResult DramOnlyController::service(Addr addr, AccessType type, Tick now) {
  HmmResult res;
  // HBM absent: all OS addresses fold into the off-chip DRAM.
  const u64 capacity = dram().capacity();
  const Addr phys = addr >= capacity ? addr % capacity : addr;
  const auto r = ecc_demand(dram(), phys, 64, type, now);
  res.complete = r.access.complete;
  res.served_by_hbm = false;
  res.phys_addr = phys;
  if (r.unrecovered && type == AccessType::kRead) {
    // The only copy of the data was unreadable.
    ++mutable_stats().due_data_loss;
  }
  return res;
}

void HybridMemoryController::save_state(snap::Writer&) const {
  throw std::invalid_argument("design '" + name_ +
                              "' does not support snapshots");
}

void HybridMemoryController::load_state(snap::Reader&) {
  throw std::invalid_argument("design '" + name_ +
                              "' does not support snapshots");
}

namespace {

void save_core_stats(snap::Writer& w, const CoreStats& cs) {
  w.put_u64(cs.requests);
  w.put_u64(cs.hbm_served);
  w.put_u64(cs.total_latency);
  cs.latency_ns.save(w);
  w.put_u64(cs.hbm_bytes);
  w.put_u64(cs.dram_bytes);
}

void load_core_stats(snap::Reader& r, CoreStats& cs) {
  cs.requests = r.get_u64();
  cs.hbm_served = r.get_u64();
  cs.total_latency = r.get_u64();
  cs.latency_ns.load(r);
  cs.hbm_bytes = r.get_u64();
  cs.dram_bytes = r.get_u64();
}

}  // namespace

void HybridMemoryController::save_base_state(snap::Writer& w) const {
  w.put_u64(stats_.requests);
  w.put_u64(stats_.reads);
  w.put_u64(stats_.writes);
  w.put_u64(stats_.hbm_served);
  w.put_u64(stats_.total_latency);
  w.put_u64(stats_.total_metadata_latency);
  stats_.latency_ns.save(w);
  w.put_u64(stats_.blocks_fetched);
  w.put_u64(stats_.fetched_blocks_used);
  w.put_u64(stats_.migrations);
  w.put_u64(stats_.evictions);
  w.put_u64(stats_.mode_switches);
  w.put_u64(stats_.swaps);
  w.put_u64(stats_.due_retries);
  w.put_u64(stats_.due_recovered);
  w.put_u64(stats_.due_unrecovered);
  w.put_u64(stats_.due_data_loss);
  w.put_u64(core_stats_.size());
  for (const CoreStats& cs : core_stats_) save_core_stats(w, cs);
  paging_.save(w);
}

void HybridMemoryController::load_base_state(snap::Reader& r) {
  stats_.requests = r.get_u64();
  stats_.reads = r.get_u64();
  stats_.writes = r.get_u64();
  stats_.hbm_served = r.get_u64();
  stats_.total_latency = r.get_u64();
  stats_.total_metadata_latency = r.get_u64();
  stats_.latency_ns.load(r);
  stats_.blocks_fetched = r.get_u64();
  stats_.fetched_blocks_used = r.get_u64();
  stats_.migrations = r.get_u64();
  stats_.evictions = r.get_u64();
  stats_.mode_switches = r.get_u64();
  stats_.swaps = r.get_u64();
  stats_.due_retries = r.get_u64();
  stats_.due_recovered = r.get_u64();
  stats_.due_unrecovered = r.get_u64();
  stats_.due_data_loss = r.get_u64();
  if (r.get_u64() != core_stats_.size()) {
    throw snap::SnapshotError("per-core slice count mismatch");
  }
  for (CoreStats& cs : core_stats_) load_core_stats(r, cs);
  paging_.load(r);
}

}  // namespace bb::hmm
