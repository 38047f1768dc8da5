// Observability layer: epoch time-series / trace artifacts are attached
// per run, serialized in matrix order, and byte-identical across --jobs
// values; the checkpoint journal restores finished cells on resume.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "sim/experiment.h"

namespace bb::sim {
namespace {

SystemConfig obs_config() {
  SystemConfig cfg;
  cfg.warmup_ratio = 0.5;
  cfg.obs.epoch.every_requests = 500;
  cfg.obs.trace = true;
  return cfg;
}

RunMatrixOptions small_opts(unsigned jobs) {
  RunMatrixOptions opts;
  opts.jobs = jobs;
  opts.instructions = 1'000'000;
  return opts;
}

const std::vector<std::string> kDesigns = {"DRAM-only", "Bumblebee"};

std::vector<trace::WorkloadProfile> two_workloads() {
  return {trace::WorkloadProfile::by_name("mcf"),
          trace::WorkloadProfile::by_name("xz")};
}

u64 count_events(const RunResult& r, const std::string& name) {
  if (!r.artifacts) return 0;
  u64 n = 0;
  for (const auto& ev : r.artifacts->events) {
    if (ev.name == name) ++n;
  }
  return n;
}

TEST(Observability, OutputsByteIdenticalAcrossJobs) {
  ExperimentRunner serial(obs_config());
  serial.run_matrix(kDesigns, two_workloads(), small_opts(1));
  ExperimentRunner parallel(obs_config());
  parallel.run_matrix(kDesigns, two_workloads(), small_opts(4));

  const auto render = [](const ExperimentRunner& r) {
    std::ostringstream csv, json, epoch, jsonl, chrome;
    r.write_csv(csv);
    r.write_json(json);
    r.write_epoch_csv(epoch);
    r.write_trace(jsonl, ExperimentRunner::TraceFormat::kJsonl);
    r.write_trace(chrome, ExperimentRunner::TraceFormat::kChrome);
    return std::vector<std::string>{csv.str(), json.str(), epoch.str(),
                                    jsonl.str(), chrome.str()};
  };
  const auto a = render(serial);
  const auto b = render(parallel);
  EXPECT_EQ(a[0], b[0]);  // results CSV
  EXPECT_EQ(a[1], b[1]);  // results JSON
  EXPECT_EQ(a[2], b[2]);  // epoch CSV
  EXPECT_EQ(a[3], b[3]);  // JSONL trace
  EXPECT_EQ(a[4], b[4]);  // Chrome trace

  // The epoch CSV actually carries time-series rows.
  EXPECT_NE(a[2].find("hbm_serve_rate"), std::string::npos);
  EXPECT_GT(std::count(a[2].begin(), a[2].end(), '\n'), 10);
}

TEST(Observability, BumblebeeEmitsRemapTransitionsAndWarmupEnd) {
  ExperimentRunner runner(obs_config());
  runner.run_matrix(kDesigns, {trace::WorkloadProfile::by_name("mcf")},
                    small_opts(1));
  ASSERT_EQ(runner.results().size(), 2u);
  for (const auto& r : runner.results()) {
    ASSERT_TRUE(r.artifacts) << r.design;
    EXPECT_EQ(count_events(r, "warmup_end"), 1u) << r.design;
    if (r.design == "Bumblebee") {
      EXPECT_GT(count_events(r, "remap_ratio_transition"), 0u);
    }
  }
}

TEST(Observability, EpochZeroStartsAtWarmupEndTick) {
  ExperimentRunner runner(obs_config());
  runner.run_matrix({"Bumblebee"}, {trace::WorkloadProfile::by_name("mcf")},
                    small_opts(1));
  const RunResult& r = runner.results().front();
  ASSERT_TRUE(r.artifacts);
  ASSERT_FALSE(r.artifacts->epochs.empty());

  Tick warmup_end = 0;
  bool found = false;
  for (const auto& ev : r.artifacts->events) {
    if (ev.name == "warmup_end") {
      warmup_end = ev.tick;
      found = true;
    }
  }
  ASSERT_TRUE(found);
  EXPECT_GT(warmup_end, 0u);
  EXPECT_EQ(r.artifacts->epochs.front().start_tick, warmup_end);
  // Epochs tile the measured phase: each starts where the previous ended.
  for (std::size_t i = 1; i < r.artifacts->epochs.size(); ++i) {
    EXPECT_EQ(r.artifacts->epochs[i].start_tick,
              r.artifacts->epochs[i - 1].end_tick);
  }
}

TEST(Observability, PercentilesOrderedAndExported) {
  ExperimentRunner runner(obs_config());
  runner.run_matrix({"Bumblebee"}, {trace::WorkloadProfile::by_name("mcf")},
                    small_opts(1));
  const RunResult& r = runner.results().front();
  EXPECT_GT(r.latency_p50_ns, 0.0);
  EXPECT_LE(r.latency_p50_ns, r.latency_p90_ns);
  EXPECT_LE(r.latency_p90_ns, r.latency_p99_ns);
  EXPECT_LE(r.latency_p99_ns, r.latency_p999_ns);

  std::ostringstream json, csv;
  runner.write_json(json);
  runner.write_csv(csv);
  EXPECT_NE(json.str().find("\"latency_p50_ns\":"), std::string::npos);
  EXPECT_NE(json.str().find("\"latency_p999_ns\":"), std::string::npos);
  EXPECT_NE(csv.str().find("latency_p99_ns"), std::string::npos);
}

TEST(Observability, ArtifactsAbsentWhenDisabled) {
  ExperimentRunner runner;  // default config: observability off
  RunMatrixOptions opts = small_opts(1);
  runner.run_matrix({"DRAM-only"}, {trace::WorkloadProfile::by_name("mcf")},
                    opts);
  EXPECT_EQ(runner.results().front().artifacts, nullptr);

  std::ostringstream epoch, trace;
  runner.write_epoch_csv(epoch);
  runner.write_trace(trace, ExperimentRunner::TraceFormat::kJsonl);
  // Header-only CSV, empty trace.
  const std::string epoch_csv = epoch.str();
  EXPECT_EQ(std::count(epoch_csv.begin(), epoch_csv.end(), '\n'), 1);
  EXPECT_TRUE(trace.str().empty());
}

// MetricRegistry rejects bad or duplicate probe names when they are
// registered. Every design with fault injection, queues and two cores on
// runs each registration path (controller, both devices, fault, queue and
// per-core probes) once under that check.
TEST(Observability, EveryDesignRegistersValidProbeNames) {
  SystemConfig cfg;
  cfg.hbm.capacity_bytes = 128 * MiB;  // above Hybrid2's 64 MiB cHBM slice
  cfg.dram.capacity_bytes = 1280 * MiB;
  cfg.core.cores = 2;
  cfg.warmup_ratio = 0.0;
  cfg.fault = fault::FaultConfig::profile("mixed", 1e-3, 1);
  cfg.hbm.queue = mem::QueueConfig::fr_fcfs();
  cfg.dram.queue = mem::QueueConfig::fr_fcfs();
  cfg.obs.epoch.every_requests = 1'000;
  const auto& mcf = trace::WorkloadProfile::by_name("mcf");
  for (const std::string& design : baselines::all_design_names()) {
    SCOPED_TRACE(design);
    System sys(cfg);
    RunResult r;
    ASSERT_NO_THROW(r = sys.run(design, mcf, 20'000));
    ASSERT_NE(r.artifacts, nullptr);
    const auto& cols = r.artifacts->epoch_columns;
    for (const char* col : {"hbm_write_drain_count", "due_retries",
                            "core1_requests"}) {
      EXPECT_NE(std::find(cols.begin(), cols.end(), col), cols.end()) << col;
    }
  }
}

TEST(ResultJournal, RestoresFinishedCellsOnResume) {
  SystemConfig cfg;  // no observability: journal covers scalar results
  std::ostringstream journal_os;
  ExperimentRunner first(cfg);
  RunMatrixOptions opts = small_opts(1);
  opts.on_result = [&journal_os](const RunResult& r) {
    journal_os << ResultJournal::line(r) << "\n";
  };
  first.run_matrix(kDesigns, two_workloads(), opts);
  ASSERT_EQ(first.results().size(), 4u);

  ResultJournal journal;
  std::istringstream journal_is(journal_os.str());
  EXPECT_EQ(journal.load(journal_is), 4u);
  EXPECT_EQ(journal.size(), 4u);
  EXPECT_NE(journal.find("Bumblebee", "mcf"), nullptr);
  EXPECT_EQ(journal.find("Bumblebee", "nonesuch"), nullptr);

  // Resume the same matrix: every cell restores, nothing re-simulates,
  // on_result is not re-fired, and the exports match the original run.
  ExperimentRunner second(cfg);
  RunMatrixOptions resume_opts = small_opts(4);
  resume_opts.resume = &journal;
  std::size_t on_result_calls = 0;
  resume_opts.on_result = [&on_result_calls](const RunResult&) {
    ++on_result_calls;
  };
  second.run_matrix(kDesigns, two_workloads(), resume_opts);
  EXPECT_EQ(on_result_calls, 0u);

  std::ostringstream a, b;
  first.write_json(a);
  second.write_json(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(ResultJournal, PartialJournalRerunsOnlyMissingCells) {
  SystemConfig cfg;
  ExperimentRunner first(cfg);
  std::ostringstream journal_os;
  RunMatrixOptions opts = small_opts(1);
  opts.on_result = [&journal_os](const RunResult& r) {
    // Simulate an interrupted sweep: only DRAM-only cells were journaled
    // (plus one truncated line the loader must skip).
    if (r.design == "DRAM-only") {
      journal_os << ResultJournal::line(r) << "\n";
    }
  };
  first.run_matrix(kDesigns, two_workloads(), opts);
  journal_os << "{\"design\":\"Bumble";  // torn final write

  ResultJournal journal;
  std::istringstream journal_is(journal_os.str());
  EXPECT_EQ(journal.load(journal_is), 2u);

  ExperimentRunner second(cfg);
  RunMatrixOptions resume_opts = small_opts(1);
  resume_opts.resume = &journal;
  std::vector<std::string> rerun;
  resume_opts.on_result = [&rerun](const RunResult& r) {
    rerun.push_back(r.design + "/" + r.workload);
  };
  second.run_matrix(kDesigns, two_workloads(), resume_opts);
  EXPECT_EQ(rerun,
            (std::vector<std::string>{"Bumblebee/mcf", "Bumblebee/xz"}));

  std::ostringstream a, b;
  first.write_csv(a);
  second.write_csv(b);
  EXPECT_EQ(a.str(), b.str());
}

}  // namespace
}  // namespace bb::sim
