// perfbench — host-speed benchmark of the simulator (run.py drives it).
//
// One process runs one workload, single-threaded and closed-loop: each
// simulation starts when the previous one has returned. The process's
// peak RSS therefore belongs to that workload alone.
//
//   bb_perfbench --mode=timed --workload=W [--seed=N] [--seconds=S]
//       End-to-end metrics, profiling off, default SystemConfig apart from
//       the seed. Each rep times System::run, plus a zero-budget
//       System::run that builds the same devices, design and generators
//       and so measures set-up alone. Each design run reports its fastest
//       rep (see run_timed for why).
//   bb_perfbench --mode=traced --workload=W [--seed=N] [--seconds=S]
//                [--spans-out=FILE]
//       Per-layer metrics, measured from outside the simulator: spans
//       around the public calls System::run is made of, a wrapper
//       TraceSource that times every TraceSource::next, the bb::prof phase
//       totals for the HMM and device self time, and the layers' public
//       stats. Traced reps alternate with untraced System::run reps, which
//       give the tracing overhead.
//   bb_perfbench --mode=selftest
//       Checks the digest gate itself.
//   bb_perfbench --mode=rss-inherit
//       Runs sweep-cam4 and then dram-only-lbm in one process and prints
//       the peak RSS after each: the inherited peak that running each
//       workload in its own process avoids.
//
// Every workload run is checked. The FNV-1a digest of the
// ResultJournal::line of each of its RunResults must equal the pinned
// digest at seed 42, and at other seeds the digest of the process's first
// run. The last stdout line is one JSON object.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/factory.h"
#include "bumblebee/controller.h"
#include "common/cli.h"
#include "common/json.h"
#include "common/prof.h"
#include "sim/experiment.h"

#ifndef BB_PERFBENCH_BUILD_TYPE
#define BB_PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace bb;

namespace {

constexpr u64 kPinnedSeed = 42;
constexpr u64 kMinReps = 3;
constexpr u64 kMaxReps = 1000;

struct Workload {
  const char* name;
  const char* profile;
  std::vector<std::string> designs;
  u64 instructions;    ///< measured instructions per design run
  u64 pinned_digest;   ///< digest at seed 42
};

// Why these four: bumblebee-mcf is Bumblebee's PRT/BLE/hot-table hit path
// (mcf's Zipf hot set, 98% of requests served from HBM); bumblebee-lbm is
// its miss and cache-eviction path (lbm streams with 45% writes: PRT
// misses, cHBM evictions, cHBM->mHBM switches, multi-beat transfers);
// dram-only-lbm bypasses every hybrid policy and isolates trace
// generation, the core loop, paging and the device; and sweep-cam4 is one
// figure-sweep column over every comparison design, the only workload
// covering src/baselines and the only one where construction is a real
// share. The single-design workloads run ExperimentRunner's smallest sweep
// budget (min_instructions, 50M). sweep-cam4 runs 2.5M per design: at 50M
// one rep of its ten designs would take about 10 s, too long to repeat
// within a run. None of the budgets fills HBM or the OS-visible memory,
// so no workload page-faults.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"bumblebee-mcf", "mcf", {"Bumblebee"}, 50'000'000,
       0x3bea8410e16ddddbULL},
      {"bumblebee-lbm", "lbm", {"Bumblebee"}, 50'000'000,
       0xcdbad5f7d27bcf89ULL},
      {"dram-only-lbm", "lbm", {"DRAM-only"}, 50'000'000,
       0x90cc0b075f12af3cULL},
      {"sweep-cam4", "cam4", baselines::comparison_designs(), 2'500'000,
       0x718d11498e13f2fbULL},
  };
  return kWorkloads;
}

const Workload& workload_by_name(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

// ---- digests ---------------------------------------------------------

u64 fnv1a(std::string_view s) {
  u64 h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

u64 digest(const std::vector<sim::RunResult>& runs) {
  std::string text;
  for (const sim::RunResult& r : runs) {
    text += sim::ResultJournal::line(r);
    text += '\n';
  }
  return fnv1a(text);
}

std::string hex(u64 v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

/// Counts workload runs and the ones whose simulated output is wrong.
class Gate {
 public:
  explicit Gate(std::optional<u64> pinned) : expected_(pinned) {}

  /// Checks one run's results; the first unpinned run sets the reference.
  bool check(const std::vector<sim::RunResult>& runs, const char* what) {
    ++attempted_;
    const u64 d = digest(runs);
    if (attempted_ == 1) first_ = d;
    if (!expected_) expected_ = d;
    if (d == *expected_) return true;
    ++failed_;
    std::cerr << "perfbench: " << what << " digest " << hex(d)
              << " != expected " << hex(*expected_) << "\n";
    return false;
  }
  void fail(const std::exception& e) {
    ++attempted_;
    ++failed_;
    std::cerr << "perfbench: run failed: " << e.what() << "\n";
  }

  u64 attempted() const { return attempted_; }
  u64 failed() const { return failed_; }
  u64 expected() const { return expected_.value_or(0); }
  /// Digest of the first run checked.
  u64 first() const { return first_; }

 private:
  std::optional<u64> expected_;
  u64 first_ = 0;
  u64 attempted_ = 0;
  u64 failed_ = 0;
};

// ---- spans -----------------------------------------------------------

/// In-memory span log of the traced run. Calls made once per run are
/// recorded as spans; TraceSource::next and the profiler's phase totals
/// are aggregated (count and total) under their parent span, so the log
/// stays bounded. Written out once, when the run ends.
class SpanLog {
 public:
  int open(std::string name, int parent) {
    spans_.push_back({std::move(name), parent, prof::monotonic_ns(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Ends span `id` and returns its duration in ns.
  u64 close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = prof::monotonic_ns();
    return s.end_ns - s.start_ns;
  }
  void add_aggregate(std::string name, int parent, u64 count, u64 total_ns) {
    aggregates_.push_back({std::move(name), parent, count, total_ns});
  }

  std::string to_json() const {
    std::ostringstream os;
    os << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n  " : "\n  ") << "{\"id\": " << i << ", \"parent\": "
         << s.parent << ", \"name\": \"" << json_escape(s.name)
         << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
         << "}";
    }
    os << "],\n\"aggregates\": [";
    for (std::size_t i = 0; i < aggregates_.size(); ++i) {
      const Aggregate& a = aggregates_[i];
      os << (i ? ",\n  " : "\n  ") << "{\"parent\": " << a.parent
         << ", \"name\": \"" << json_escape(a.name) << "\", \"count\": "
         << a.count << ", \"total_ns\": " << a.total_ns << "}";
    }
    os << "]}\n";
    return os.str();
  }

 private:
  struct Span {
    std::string name;
    int parent;
    u64 start_ns;
    u64 end_ns;
  };
  struct Aggregate {
    std::string name;
    int parent;
    u64 count;
    u64 total_ns;
  };
  std::vector<Span> spans_;
  std::vector<Aggregate> aggregates_;
};

// ---- outside-in run ----------------------------------------------------

/// State shared by one run's wrapper sources.
struct NextProbe {
  u64 warmup_instructions = 0;
  u64 instructions = 0;  ///< inst_gap total handed to the core model
  u64 records = 0;
  u64 total_ns = 0;
  bool reset_seen = false;
  prof::PhaseTotals at_reset;  ///< profiler totals when the stats reset
  const hmm::HybridMemoryController* hmmc = nullptr;
};

/// Times and counts every TraceSource::next of one lane, and takes the
/// profiler totals at the warmup statistics reset, so per-request and
/// per-beat times cover the same window as the layers' stats.
class ProbedSource final : public trace::TraceSource {
 public:
  ProbedSource(trace::TraceSource& inner, NextProbe& probe)
      : inner_(inner), probe_(probe) {}

  trace::TraceRecord next() override {
    // CoreModel::run_sources resets every statistic at the top of the loop
    // iteration in which the consumed instructions first reach the warmup
    // length, right before it asks for that iteration's record.
    if (!probe_.reset_seen &&
        probe_.instructions >= probe_.warmup_instructions) {
      note_reset();
    }
    const u64 t0 = prof::monotonic_ns();
    const trace::TraceRecord rec = inner_.next();
    probe_.total_ns += prof::monotonic_ns() - t0;
    ++probe_.records;
    probe_.instructions += rec.inst_gap;
    return rec;
  }

 private:
  void note_reset() {
    const hmm::HybridMemoryController& h = *probe_.hmmc;
    if (h.stats().requests != 0 || h.hbm().stats().accesses != 0 ||
        h.dram().stats().accesses != 0) {
      throw std::runtime_error(
          "the warmup statistics reset is not where the probe expects it");
    }
    probe_.at_reset = prof::aggregate();
    probe_.reset_seen = true;
  }

  trace::TraceSource& inner_;
  NextProbe& probe_;
};

/// System::run's result assembly, restated over public accessors for the
/// default configuration (no fault injection, request queues or
/// observability). Traced runs are digest-checked against System::run, so
/// the two cannot drift apart unnoticed.
sim::RunResult assemble_result(const sim::SystemConfig& cfg,
                               const hmm::HybridMemoryController& hmmc,
                               const std::string& workload,
                               const sim::CoreResult& cr) {
  const mem::DramDevice& hbm = hmmc.hbm();
  const mem::DramDevice& dram = hmmc.dram();
  if (cfg.fault.enabled() || cfg.obs.enabled() ||
      hbm.queue_stats() != nullptr || dram.queue_stats() != nullptr) {
    throw std::logic_error(
        "outside-in assembly covers the default configuration only");
  }
  sim::RunResult out;
  out.design = hmmc.name();
  out.workload = workload;
  out.instructions = cr.instructions;
  out.misses = cr.misses;
  out.ipc = cr.ipc(cfg.core.freq_ghz);

  const mem::DramStats& hs = hbm.stats();
  const mem::DramStats& ds = dram.stats();
  out.hbm_bytes = hs.total_bytes();
  out.dram_bytes = ds.total_bytes();
  for (std::size_t c = 0; c < mem::kTrafficClassCount; ++c) {
    out.hbm_class_bytes[c] = hs.read_bytes[c] + hs.write_bytes[c];
    out.dram_class_bytes[c] = ds.read_bytes[c] + ds.write_bytes[c];
  }
  out.energy_mj =
      (hbm.energy().dynamic_pj() + dram.energy().dynamic_pj()) * 1e-9;

  const hmm::HmmStats& ms = hmmc.stats();
  out.hbm_serve_rate = ms.hbm_serve_rate();
  out.mean_latency_ns = ms.mean_latency_ns();
  out.latency_p50_ns = ms.latency_ns.quantile(0.50);
  out.latency_p90_ns = ms.latency_ns.quantile(0.90);
  out.latency_p99_ns = ms.latency_ns.quantile(0.99);
  out.latency_p999_ns = ms.latency_ns.quantile(0.999);
  out.mal_fraction = ms.mal_fraction();
  out.overfetch = ms.overfetch_fraction();
  out.page_faults = hmmc.paging().stats().faults;
  out.metadata_sram_bytes = hmmc.metadata_sram_bytes();

  out.ce_count = hs.ce_count + ds.ce_count;
  out.ue_count = hs.ue_count + ds.ue_count;
  out.due_retries = ms.due_retries;
  out.due_unrecovered = ms.due_unrecovered;
  out.due_data_loss = ms.due_data_loss;
  const hmm::FaultPosture posture = hmmc.fault_posture();
  out.retired_frames = posture.retired_frames;
  out.degraded_sets = posture.degraded_sets;
  return out;
}

/// What one outside-in run of one design measured.
struct CellTrace {
  std::string design;
  sim::RunResult result;
  // Span durations, ns.
  u64 devices_ns = 0;
  u64 controller_ns = 0;
  u64 generators_ns = 0;
  u64 run_ns = 0;
  u64 result_ns = 0;
  u64 cell_ns = 0;
  // TraceSource::next, over the whole run (warmup included).
  u64 records = 0;
  u64 next_ns = 0;
  // Profiler self time over the whole run and from the warmup reset on.
  u64 hmm_ns = 0;
  u64 mem_ns = 0;
  u64 hmm_window_ns = 0;
  u64 mem_window_ns = 0;
  // Layer stats (measured window: they reset when warmup ends).
  hmm::HmmStats hmm;
  hmm::PagingStats paging;
  mem::DramStats hbm;
  mem::DramStats dram;
  std::optional<bumblebee::BumblebeeStats> bumblebee;
};

/// Runs `design` through the same public calls, in the same order, as
/// System::run, with a span around each call.
CellTrace run_outside_in(const sim::SystemConfig& cfg,
                         const std::string& design,
                         const trace::WorkloadProfile& w, u64 instructions,
                         SpanLog& log, int parent) {
  CellTrace c;
  c.design = design;
  prof::reset();
  const int cell = log.open("run " + design, parent);

  int span = log.open("DramDevice x2", cell);
  auto hbm = std::make_unique<mem::DramDevice>(cfg.hbm);
  auto dram = std::make_unique<mem::DramDevice>(cfg.dram);
  c.devices_ns = log.close(span);

  span = log.open("make_design", cell);
  const auto hmmc = baselines::make_design(design, *hbm, *dram, cfg.paging);
  c.controller_ns = log.close(span);

  span = log.open("TraceGenerator", cell);
  const auto lanes =
      sim::CoreModel::homogeneous_lanes(w, cfg.seed, cfg.core.cores);
  sim::CoreModel core(cfg.core);
  hmmc->set_core_count(static_cast<u32>(lanes.size()));
  NextProbe probe;
  probe.warmup_instructions = static_cast<u64>(
      cfg.warmup_ratio * static_cast<double>(instructions));
  probe.hmmc = hmmc.get();
  std::vector<std::unique_ptr<trace::TraceGenerator>> gens;
  std::vector<std::unique_ptr<ProbedSource>> probed;
  std::vector<trace::TraceSource*> sources;
  std::vector<Addr> bases;
  for (const sim::CoreLane& lane : lanes) {
    gens.push_back(
        std::make_unique<trace::TraceGenerator>(lane.profile, lane.seed));
    probed.push_back(std::make_unique<ProbedSource>(*gens.back(), probe));
    sources.push_back(probed.back().get());
    bases.push_back(lane.base);
  }
  c.generators_ns = log.close(span);

  span = log.open("CoreModel::run_sources", cell);
  const sim::CoreResult cr = core.run_sources(sources, bases, instructions,
                                              *hmmc, probe.warmup_instructions);
  c.run_ns = log.close(span);
  if (!probe.reset_seen) {
    throw std::runtime_error("the run ended before its warmup reset");
  }
  const prof::PhaseTotals phases = prof::aggregate();
  const auto trace_phase = static_cast<std::size_t>(prof::Phase::kTraceGen);
  const auto hmm_phase = static_cast<std::size_t>(prof::Phase::kHmmAccess);
  const auto mem_phase = static_cast<std::size_t>(prof::Phase::kDeviceTiming);
  c.records = probe.records;
  c.next_ns = probe.total_ns;
  c.hmm_ns = phases.ns[hmm_phase];
  c.mem_ns = phases.ns[mem_phase];
  c.hmm_window_ns = c.hmm_ns - probe.at_reset.ns[hmm_phase];
  c.mem_window_ns = c.mem_ns - probe.at_reset.ns[mem_phase];
  log.add_aggregate("TraceSource::next", span, c.records, c.next_ns);
  // The core loop's own trace_gen phase encloses every wrapper call: an
  // independent count and an upper bound on the wrapper's time.
  log.add_aggregate("prof.trace_gen", span, phases.calls[trace_phase],
                    phases.ns[trace_phase]);
  log.add_aggregate("prof.hmm_access", span, phases.calls[hmm_phase],
                    c.hmm_ns);
  log.add_aggregate("prof.device_timing", span, phases.calls[mem_phase],
                    c.mem_ns);

  span = log.open("result assembly", cell);
  c.result = assemble_result(cfg, *hmmc, w.name, cr);
  c.result_ns = log.close(span);
  c.cell_ns = log.close(cell);

  c.hmm = hmmc->stats();
  c.paging = hmmc->paging().stats();
  c.hbm = hbm->stats();
  c.dram = dram->stats();
  if (const auto* b =
          dynamic_cast<const bumblebee::BumblebeeController*>(hmmc.get())) {
    c.bumblebee = b->bb_stats();
  }
  return c;
}

/// Times System::run as a user waits for it: from construction to the
/// returned result (teardown excluded).
double time_system_run(const sim::SystemConfig& cfg,
                       const std::string& design,
                       const trace::WorkloadProfile& w, u64 instructions,
                       sim::RunResult& out) {
  const prof::Stopwatch clock;
  sim::System system(cfg);
  out = system.run(design, w, instructions);
  return clock.seconds();
}

// ---- metrics -----------------------------------------------------------

/// Peak resident memory of this process image, in MiB. getrusage's
/// ru_maxrss (prof::peak_rss_bytes) survives fork and exec, so a process
/// started by a larger parent, such as run.py's Python, would report the
/// parent's peak. Linux's VmHWM belongs to this process image alone.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  u64 bytes = 0;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      bytes = std::stoull(line.substr(6)) * KiB;  // "VmHWM:  12345 kB"
      break;
    }
  }
  if (bytes == 0) bytes = prof::peak_rss_bytes();
  return static_cast<double>(bytes) / static_cast<double>(MiB);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
  const char* better;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The per-layer metrics of one traced rep (sums over its designs).
std::vector<Metric> layer_metrics(const std::vector<CellTrace>& cells,
                                  double untraced_wall_s) {
  constexpr double kS = 1e-9;
  u64 records = 0, next_ns = 0, run_ns = 0, result_ns = 0, cell_ns = 0;
  u64 devices_ns = 0, controller_ns = 0, generators_ns = 0;
  u64 hmm_ns = 0, mem_ns = 0, hmm_window_ns = 0, mem_window_ns = 0;
  u64 instructions = 0;
  double ipc_sum = 0;
  hmm::HmmStats h;
  hmm::PagingStats pg;
  mem::DramStats hbm, dram;
  bumblebee::BumblebeeStats bb;
  for (const CellTrace& c : cells) {
    records += c.records;
    next_ns += c.next_ns;
    run_ns += c.run_ns;
    result_ns += c.result_ns;
    cell_ns += c.cell_ns;
    devices_ns += c.devices_ns;
    controller_ns += c.controller_ns;
    generators_ns += c.generators_ns;
    hmm_ns += c.hmm_ns;
    mem_ns += c.mem_ns;
    hmm_window_ns += c.hmm_window_ns;
    mem_window_ns += c.mem_window_ns;
    instructions += c.result.instructions;
    ipc_sum += c.result.ipc;
    h.requests += c.hmm.requests;
    h.hbm_served += c.hmm.hbm_served;
    h.blocks_fetched += c.hmm.blocks_fetched;
    h.fetched_blocks_used += c.hmm.fetched_blocks_used;
    h.migrations += c.hmm.migrations;
    h.evictions += c.hmm.evictions;
    h.mode_switches += c.hmm.mode_switches;
    h.swaps += c.hmm.swaps;
    pg.first_touches += c.paging.first_touches;
    pg.faults += c.paging.faults;
    for (auto [sum, part] : {std::pair{&hbm, &c.hbm}, {&dram, &c.dram}}) {
      sum->accesses += part->accesses;
      sum->beats += part->beats;
      sum->row_hits += part->row_hits;
      sum->row_misses += part->row_misses;
      sum->row_empty += part->row_empty;
    }
    if (c.bumblebee) {
      bb.prt_misses += c.bumblebee->prt_misses;
      bb.block_fetches += c.bumblebee->block_fetches;
      bb.page_migrations += c.bumblebee->page_migrations;
      bb.cache_to_mem_switches += c.bumblebee->cache_to_mem_switches;
      bb.mem_to_cache_buffers += c.bumblebee->mem_to_cache_buffers;
      bb.set_swaps += c.bumblebee->set_swaps;
      bb.chbm_evictions += c.bumblebee->chbm_evictions;
      bb.mhbm_evictions += c.bumblebee->mhbm_evictions;
    }
  }
  const auto d = [](u64 v) { return static_cast<double>(v); };
  // Signed: if a profiler phase ever ran outside run_sources this would go
  // negative, and the self-test rejects it.
  const double core_loop_s =
      (d(run_ns) - d(next_ns) - d(hmm_ns) - d(mem_ns)) * kS;
  const double covered_s =
      d(devices_ns + controller_ns + generators_ns + run_ns + result_ns) * kS;
  const double wall_s = d(cell_ns) * kS;
  const u64 beats = hbm.beats + dram.beats;
  const u64 accesses = hbm.accesses + dram.accesses;

  std::vector<Metric> m = {
      {"trace.records", d(records), "count", "higher"},
      {"trace.self_s", d(next_ns) * kS, "s", "lower"},
      {"trace.ns_per_record", ratio(d(next_ns), d(records)), "ns", "lower"},
      {"sim.core_loop_self_s", core_loop_s, "s", "lower"},
      {"sim.result_s", d(result_ns) * kS, "s", "lower"},
      {"sim.instructions", d(instructions), "count", "higher"},
      {"sim.ipc", ratio(ipc_sum, d(cells.size())), "inst/cycle", "higher"},
      {"hmm.self_s", d(hmm_ns) * kS, "s", "lower"},
      {"hmm.ns_per_request", ratio(d(hmm_window_ns), d(h.requests)), "ns",
       "lower"},
      {"hmm.requests", d(h.requests), "count", "higher"},
      {"hmm.hbm_serve_rate", h.hbm_serve_rate(), "frac", "higher"},
      {"hmm.migrations", d(h.migrations), "count", "lower"},
      {"hmm.evictions", d(h.evictions), "count", "lower"},
      {"hmm.mode_switches", d(h.mode_switches), "count", "lower"},
      {"hmm.swaps", d(h.swaps), "count", "lower"},
      {"hmm.overfetch", h.overfetch_fraction(), "frac", "lower"},
      {"hmm.paging.first_touches", d(pg.first_touches), "count", "lower"},
      {"hmm.paging.faults", d(pg.faults), "count", "lower"},
      {"bumblebee.prt_misses", d(bb.prt_misses), "count", "lower"},
      {"bumblebee.block_fetches", d(bb.block_fetches), "count", "lower"},
      {"bumblebee.page_migrations", d(bb.page_migrations), "count", "lower"},
      {"bumblebee.cache_to_mem_switches", d(bb.cache_to_mem_switches),
       "count", "lower"},
      {"bumblebee.mem_to_cache_buffers", d(bb.mem_to_cache_buffers), "count",
       "lower"},
      {"bumblebee.set_swaps", d(bb.set_swaps), "count", "lower"},
      {"bumblebee.chbm_evictions", d(bb.chbm_evictions), "count", "lower"},
      {"bumblebee.mhbm_evictions", d(bb.mhbm_evictions), "count", "lower"},
      {"mem.self_s", d(mem_ns) * kS, "s", "lower"},
      {"mem.ns_per_beat", ratio(d(mem_window_ns), d(beats)), "ns", "lower"},
      {"mem.beats_per_access", ratio(d(beats), d(accesses)), "beats/access",
       "lower"},
      {"mem.hbm.accesses", d(hbm.accesses), "count", "lower"},
      {"mem.dram.accesses", d(dram.accesses), "count", "lower"},
      {"mem.hbm.beats", d(hbm.beats), "count", "lower"},
      {"mem.dram.beats", d(dram.beats), "count", "lower"},
      {"mem.hbm.row_hit_rate", hbm.row_hit_rate(), "frac", "higher"},
      {"mem.dram.row_hit_rate", dram.row_hit_rate(), "frac", "higher"},
      {"setup.devices_s", d(devices_ns) * kS, "s", "lower"},
      {"setup.controller_s", d(controller_ns) * kS, "s", "lower"},
      {"setup.generators_s", d(generators_ns) * kS, "s", "lower"},
  };
  // One pair per comparison design; zero where the workload runs without
  // that design, so every workload emits the same names.
  for (const std::string& design : baselines::comparison_designs()) {
    double setup_s = 0, run_s = 0;
    for (const CellTrace& c : cells) {
      if (c.design != design) continue;
      setup_s += d(c.devices_ns + c.controller_ns + c.generators_ns) * kS;
      run_s += d(c.run_ns + c.result_ns) * kS;
    }
    m.push_back({"baselines." + design + ".setup_s", setup_s, "s", "lower"});
    m.push_back({"baselines." + design + ".run_s", run_s, "s", "lower"});
  }
  m.push_back({"traced.wall_s", wall_s, "s", "lower"});
  m.push_back({"traced.uncovered_s", wall_s - covered_s, "s", "lower"});
  m.push_back({"traced.overhead_frac", ratio(wall_s, untraced_wall_s) - 1.0,
               "frac", "lower"});
  m.push_back({"traced.coverage", ratio(covered_s, wall_s), "frac",
               "higher"});
  return m;
}

// ---- output ------------------------------------------------------------

struct Context {
  const Workload& workload;
  const trace::WorkloadProfile& profile;
  sim::SystemConfig cfg;
  double seconds;
  std::optional<u64> pinned;
};

Context make_context(const Workload& wl, u64 seed, double seconds) {
  sim::SystemConfig cfg;
  cfg.seed = seed;
  return Context{wl, trace::WorkloadProfile::by_name(wl.profile), cfg,
                 seconds,
                 seed == kPinnedSeed ? std::optional<u64>(wl.pinned_digest)
                                     : std::nullopt};
}

void print_result(const Context& ctx, const char* mode, const Gate& gate,
                  u64 reps, const std::vector<Metric>& metrics,
                  const std::string& extra) {
  std::ostringstream os;
  os << "{\"mode\": \"" << mode << "\", \"workload\": \""
     << ctx.workload.name << "\", \"profile\": \"" << ctx.workload.profile
     << "\", \"designs\": [";
  for (std::size_t i = 0; i < ctx.workload.designs.size(); ++i) {
    os << (i ? ", " : "") << '"' << json_escape(ctx.workload.designs[i])
       << '"';
  }
  os << "], \"seed\": " << ctx.cfg.seed
     << ", \"instructions_per_run\": " << ctx.workload.instructions
     << ", \"warmup_ratio\": " << json_double(ctx.cfg.warmup_ratio)
     << ", \"build_type\": \"" << BB_PERFBENCH_BUILD_TYPE
     << "\", \"reps\": " << reps
     << ", \"attempted\": " << gate.attempted()
     << ", \"failed\": " << gate.failed() << ", \"digest\": \""
     << hex(gate.first()) << "\", \"expected_digest\": \""
     << hex(gate.expected()) << "\", \"digest_pinned\": "
     << (ctx.pinned ? "true" : "false") << extra << ", \"metrics\": [";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    os << (i ? ", " : "") << "{\"name\": \"" << json_escape(m.name)
       << "\", \"value\": " << json_double(m.value) << ", \"unit\": \""
       << m.unit << "\", \"better\": \"" << m.better << "\"}";
  }
  os << "]}";
  std::cout << os.str() << std::endl;
}

// ---- modes -------------------------------------------------------------

/// Outside-in run of every design of the workload.
std::vector<CellTrace> run_cells(const Context& ctx, SpanLog& log,
                                 int parent) {
  std::vector<CellTrace> cells;
  for (const std::string& design : ctx.workload.designs) {
    cells.push_back(run_outside_in(ctx.cfg, design, ctx.profile,
                                   ctx.workload.instructions, log, parent));
  }
  return cells;
}

std::vector<sim::RunResult> results_of(const std::vector<CellTrace>& cells) {
  std::vector<sim::RunResult> out;
  for (const CellTrace& c : cells) out.push_back(c.result);
  return out;
}

bool keep_going(u64 reps, const prof::Stopwatch& clock, double seconds) {
  return reps < kMinReps || (reps < kMaxReps && clock.seconds() < seconds);
}

int run_timed(const Context& ctx) {
  Gate gate(ctx.pinned);
  // Reference run, untimed: counts the simulated requests (warmup
  // included) that every timed rep repeats, and warms host caches.
  SpanLog unused;
  const std::vector<CellTrace> ref = run_cells(ctx, unused, -1);
  gate.check(results_of(ref), "reference run");
  u64 requests = 0;
  for (const CellTrace& c : ref) requests += c.records;

  // Host interference only ever adds time, and on a shared host it comes
  // in slow spells seconds long, so rep medians measure the neighbours.
  // Each design run's fastest rep is the steady estimate of its own cost.
  const std::size_t n = ctx.workload.designs.size();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> best_setup(n, kInf), best_wall(n, kInf);
  u64 reps = 0;
  const prof::Stopwatch clock;
  for (u64 attempt = 0; keep_going(attempt, clock, ctx.seconds); ++attempt) {
    std::vector<double> setup(n), wall(n);
    std::vector<sim::RunResult> results(n);
    try {
      for (std::size_t i = 0; i < n; ++i) {
        const std::string& design = ctx.workload.designs[i];
        sim::RunResult setup_only;
        setup[i] =
            time_system_run(ctx.cfg, design, ctx.profile, 0, setup_only);
        wall[i] = time_system_run(ctx.cfg, design, ctx.profile,
                                  ctx.workload.instructions, results[i]);
      }
    } catch (const std::exception& e) {
      gate.fail(e);
      continue;
    }
    gate.check(results, "timed run");
    ++reps;
    for (std::size_t i = 0; i < n; ++i) {
      best_setup[i] = std::min(best_setup[i], setup[i]);
      best_wall[i] = std::min(best_wall[i], wall[i]);
    }
  }
  if (reps == 0) throw std::runtime_error("no timed rep completed");
  const double wall_s =
      std::accumulate(best_wall.begin(), best_wall.end(), 0.0);
  const double setup_s =
      std::accumulate(best_setup.begin(), best_setup.end(), 0.0);
  const std::vector<Metric> metrics = {
      {"sim_req_per_s", static_cast<double>(requests) / (wall_s - setup_s),
       "1/s", "higher"},
      {"wall_s", wall_s, "s", "lower"},
      {"setup_s", setup_s, "s", "lower"},
      {"peak_rss_mib", peak_rss_mib(), "MiB", "lower"},
  };
  print_result(ctx, "timed", gate, reps, metrics,
               ", \"requests_per_rep\": " + std::to_string(requests));
  return cli::kExitOk;
}

int run_traced(const Context& ctx, const std::string& spans_out) {
  Gate gate(ctx.pinned);
  SpanLog log;
  // Fastest untraced and traced reps, for the reason run_timed gives.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double untraced_wall = kInf, traced_wall = kInf;
  std::vector<CellTrace> fastest;
  int fastest_span = -1;
  u64 reps = 0, untraced_digest = 0, traced_digest = 0;
  const prof::Stopwatch clock;
  for (u64 attempt = 0; keep_going(attempt, clock, ctx.seconds); ++attempt) {
    try {
      double wall = 0;
      std::vector<sim::RunResult> results(ctx.workload.designs.size());
      const int untraced = log.open("untraced rep", -1);
      for (std::size_t i = 0; i < results.size(); ++i) {
        const std::string& design = ctx.workload.designs[i];
        const int span = log.open("System::run " + design, untraced);
        wall += time_system_run(ctx.cfg, design, ctx.profile,
                                ctx.workload.instructions, results[i]);
        log.close(span);
      }
      log.close(untraced);
      gate.check(results, "untraced run");
      untraced_wall = std::min(untraced_wall, wall);
      if (untraced_digest == 0) untraced_digest = digest(results);

      const int rep = log.open("traced rep", -1);
      prof::enable(true);
      std::vector<CellTrace> cells = run_cells(ctx, log, rep);
      prof::enable(false);
      log.close(rep);
      const std::vector<sim::RunResult> traced = results_of(cells);
      if (traced_digest == 0) traced_digest = digest(traced);
      gate.check(traced, "traced run");
      ++reps;
      wall = 0;
      for (const CellTrace& c : cells) {
        wall += static_cast<double>(c.cell_ns) * 1e-9;
      }
      if (wall < traced_wall) {
        traced_wall = wall;
        fastest = std::move(cells);
        fastest_span = rep;
      }
    } catch (const std::exception& e) {
      prof::enable(false);
      gate.fail(e);
    }
  }
  if (fastest.empty() || untraced_wall == kInf) {
    throw std::runtime_error("no traced rep completed");
  }
  // The fastest rep is reported whole, so its layer self times and
  // uncovered remainder still add up to its wall time.
  const std::vector<Metric> metrics = layer_metrics(fastest, untraced_wall);

  if (!spans_out.empty()) {
    std::ofstream f(spans_out);
    f << log.to_json();
    if (!f) throw std::ios_base::failure("cannot write " + spans_out);
  }
  u64 requests = 0;
  for (const CellTrace& c : fastest) requests += c.records;
  print_result(ctx, "traced", gate, reps, metrics,
               ", \"requests_per_rep\": " + std::to_string(requests) +
                   ", \"untraced_digest\": \"" + hex(untraced_digest) +
                   "\", \"traced_digest\": \"" + hex(traced_digest) +
                   "\", \"fastest_rep_span\": " +
                   std::to_string(fastest_span));
  return cli::kExitOk;
}

int run_selftest() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      ++failures;
      std::cerr << "perfbench selftest FAILED: " << what << "\n";
    }
  };
  // Published FNV-1a 64-bit vectors.
  expect(fnv1a("") == 0xcbf29ce484222325ULL, "fnv1a of the empty string");
  expect(fnv1a("a") == 0xaf63dc4c8601ec8cULL, "fnv1a of \"a\"");

  sim::SystemConfig cfg;
  const auto& mcf = trace::WorkloadProfile::by_name("mcf");
  for (const char* design : {"DRAM-only", "Bumblebee"}) {
    SpanLog log;
    const CellTrace c = run_outside_in(cfg, design, mcf, 400'000, log, -1);
    sim::RunResult reference;
    time_system_run(cfg, design, mcf, 400'000, reference);
    const u64 want = digest({reference});
    expect(digest({c.result}) == want,
           "outside-in assembly equals System::run");

    // Every kind of field a perturbation could hit must flip the gate.
    std::vector<sim::RunResult> perturbed(6, reference);
    perturbed[0].misses += 1;
    perturbed[1].ipc = std::nextafter(reference.ipc, 1e9);
    perturbed[2].dram_class_bytes.back() += 1;
    perturbed[3].latency_p999_ns =
        std::nextafter(reference.latency_p999_ns, 0.0);
    perturbed[4].design += "x";
    perturbed[5].page_faults += 1;
    for (const sim::RunResult& r : perturbed) {
      Gate gate(want);
      expect(!gate.check({r}, "perturbed result") && gate.failed() == 1,
             "a perturbed RunResult fails the digest gate");
    }
    Gate gate(want);
    expect(gate.check({reference}, "reference") && gate.failed() == 0,
           "the unperturbed RunResult passes the digest gate");
  }
  std::cout << "{\"selftest\": \"" << (failures ? "fail" : "pass")
            << "\", \"failures\": " << failures << "}" << std::endl;
  return failures ? 1 : cli::kExitOk;
}

int run_rss_inherit() {
  std::ostringstream os;
  os << "{";
  const char* sep = "";
  for (const char* name : {"sweep-cam4", "dram-only-lbm"}) {
    const Context ctx = make_context(workload_by_name(name), kPinnedSeed, 0);
    SpanLog log;
    run_cells(ctx, log, -1);
    os << sep << '"' << name << "\": " << json_double(peak_rss_mib());
    sep = ", ";
  }
  os << "}";
  std::cout << os.str() << std::endl;
  return cli::kExitOk;
}

int run(const Flags& flags) {
  const std::string mode = flags.get_string("mode", "timed");
  if (mode == "selftest") return run_selftest();
  if (mode == "rss-inherit") return run_rss_inherit();
  const Context ctx =
      make_context(workload_by_name(flags.get_string("workload", "")),
                   flags.get_u64("seed", kPinnedSeed),
                   flags.get_double("seconds", 10.0));
  if (mode == "timed") return run_timed(ctx);
  if (mode == "traced") {
    return run_traced(ctx, flags.get_string("spans-out", ""));
  }
  throw std::invalid_argument("unknown --mode: " + mode);
}

}  // namespace

int main(int argc, char** argv) {
  return cli::cli_main(argc, argv, "bb_perfbench", run);
}
