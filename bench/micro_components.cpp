// Component microbenchmarks (google-benchmark): throughput of the hot
// simulation paths — these bound how many instructions per second the
// full-system harnesses can replay.
#include <benchmark/benchmark.h>

#include <vector>

#include "bumblebee/controller.h"
#include "bumblebee/hot_table.h"
#include "cache/cache.h"
#include "common/rng.h"
#include "hmm/controller.h"
#include "hmm/paging.h"
#include "mem/dram_device.h"
#include "trace/generator.h"

using namespace bb;

static void BM_DramDeviceAccess(benchmark::State& state) {
  mem::DramDevice dev(mem::DramTimingParams::hbm2_1gb());
  Rng rng(1);
  Tick now = 0;
  for (auto _ : state) {
    now += 5000;
    benchmark::DoNotOptimize(
        dev.access(rng.next_below(dev.capacity()), 64, AccessType::kRead,
                   now));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramDeviceAccess);

static void BM_DramDevicePageMove(benchmark::State& state) {
  mem::DramDevice dev(mem::DramTimingParams::ddr4_3200_10gb());
  Rng rng(2);
  Tick now = 0;
  for (auto _ : state) {
    now += 200000;
    benchmark::DoNotOptimize(dev.access(
        rng.next_below(dev.capacity() / (64 * KiB)) * (64 * KiB), 64 * KiB,
        AccessType::kRead, now));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramDevicePageMove);

// Paging-model touch over a lbm-sized resident set (about 170k OS pages).
// Arg 0: every page fits, so each touch is a resident hit. Arg 1: the
// visible capacity is half the pages, so about half the touches are
// capacity faults that run the clock hand and replace a victim.
static void BM_PagingTouch(benchmark::State& state) {
  constexpr u64 kPages = 170000;
  const bool faulting = state.range(0) != 0;
  hmm::PagingConfig cfg;
  cfg.visible_bytes = (faulting ? kPages / 2 : kPages) * cfg.os_page_bytes;
  hmm::PagingModel paging(cfg);
  for (u64 p = 0; p < kPages; ++p) paging.touch(p * cfg.os_page_bytes);
  Rng rng(8);
  std::vector<Addr> addrs(1 << 20);
  for (Addr& a : addrs) a = rng.next_below(kPages * cfg.os_page_bytes);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(paging.touch(addrs[i]));
    i = (i + 1) & (addrs.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(faulting ? "capacity-fault stream" : "resident-hit stream");
}
BENCHMARK(BM_PagingTouch)->Arg(0)->Arg(1);

static void BM_TraceGenerator(benchmark::State& state, const char* workload) {
  trace::TraceGenerator gen(trace::WorkloadProfile::by_name(workload), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_TraceGenerator, mcf, "mcf");
BENCHMARK_CAPTURE(BM_TraceGenerator, lbm, "lbm");
BENCHMARK_CAPTURE(BM_TraceGenerator, cam4, "cam4");

// The per-request latency-histogram bucket lookup over a spread of
// latencies: mostly HBM/DRAM hits (20-600 ns) with a fault-penalty tail.
static void BM_LatencyBucket(benchmark::State& state) {
  Rng rng(9);
  std::vector<Tick> latencies(1 << 16);
  for (Tick& t : latencies) {
    t = rng.next_bool(0.95) ? ns_to_ticks(20) + rng.next_below(ns_to_ticks(580))
                            : rng.next_below(ns_to_ticks(20000));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmm::HmmStats::latency_bucket(latencies[i]));
    i = (i + 1) & (latencies.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatencyBucket);

static void BM_HotTableTouch(benchmark::State& state) {
  bumblebee::HotTable hot(8, 8, 4095);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hot.touch_dram(
        static_cast<u32>(rng.next_below(88))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HotTableTouch);

static void BM_CacheAccess(benchmark::State& state) {
  cache::CacheParams p;
  p.size_bytes = 8 * MiB;
  p.ways = 16;
  p.policy = cache::PolicyKind::kDrrip;
  cache::Cache cache(p);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.access(rng.next_below(64 * MiB), AccessType::kRead));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

static void BM_BumblebeeAccess(benchmark::State& state) {
  mem::DramDevice hbm(mem::DramTimingParams::hbm2_1gb());
  mem::DramDevice dram(mem::DramTimingParams::ddr4_3200_10gb());
  bumblebee::BumblebeeController ctl(bumblebee::BumblebeeConfig::baseline(),
                                     hbm, dram);
  trace::TraceGenerator gen(trace::WorkloadProfile::by_name("mcf"), 6);
  Tick now = 0;
  for (auto _ : state) {
    const auto rec = gen.next();
    now += rec.inst_gap * 70;
    benchmark::DoNotOptimize(ctl.access(rec.addr, rec.type, now));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BumblebeeAccess);

// Table sizes: the hot-region counts of lbm (3676) and cam4 (24576), and
// a table well past the largest profile's.
static void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(static_cast<u64>(state.range(0)), 1.1);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(3676)->Arg(24576)->Arg(100000);

BENCHMARK_MAIN();
