#include "sim/experiment.h"

#include <gtest/gtest.h>

#include <sstream>
#include <type_traits>
#include <variant>

#include "expect_identical.h"

namespace bb::sim {
namespace {

RunResult fake(const char* design, const char* workload, double ipc) {
  RunResult r;
  r.design = design;
  r.workload = workload;
  r.ipc = ipc;
  r.instructions = 1000;
  r.misses = 10;
  return r;
}

TEST(Experiment, ForDesignFilters) {
  ExperimentRunner ex;
  ex.add(fake("A", "mcf", 1.0));
  ex.add(fake("B", "mcf", 2.0));
  ex.add(fake("A", "xz", 3.0));
  const auto a = ex.for_design("A");
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0].workload, "mcf");
  EXPECT_EQ(a[1].workload, "xz");
}

TEST(Experiment, NormalizedAgainstBaseline) {
  ExperimentRunner ex;
  ex.add(fake("base", "mcf", 1.0));
  ex.add(fake("base", "xz", 2.0));
  ex.add(fake("A", "mcf", 3.0));
  ex.add(fake("A", "xz", 5.0));
  const auto n = ex.normalized("A", "base", metric_ipc);
  ASSERT_EQ(n.size(), 2u);
  EXPECT_DOUBLE_EQ(n[0].second, 3.0);
  EXPECT_DOUBLE_EQ(n[1].second, 2.5);
}

TEST(Experiment, NormalizedSkipsMissingBaseline) {
  ExperimentRunner ex;
  ex.add(fake("base", "mcf", 1.0));
  ex.add(fake("A", "mcf", 2.0));
  ex.add(fake("A", "xz", 9.0));  // no baseline row for xz
  EXPECT_EQ(ex.normalized("A", "base", metric_ipc).size(), 1u);
}

TEST(Experiment, CsvHasHeaderAndRows) {
  ExperimentRunner ex;
  ex.add(fake("A", "mcf", 1.25));
  std::ostringstream os;
  ex.write_csv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("design,workload"), std::string::npos);
  EXPECT_NE(out.find("A,mcf"), std::string::npos);
  EXPECT_NE(out.find("1.2500"), std::string::npos);
}

TEST(Experiment, JsonExportsFullRunResult) {
  ExperimentRunner ex;
  RunResult r = fake("A \"quoted\"", "mcf", 1.25);
  r.hbm_class_bytes[static_cast<std::size_t>(mem::TrafficClass::kDemand)] =
      640;
  r.hbm_class_bytes[static_cast<std::size_t>(mem::TrafficClass::kFill)] = 128;
  r.dram_class_bytes[
      static_cast<std::size_t>(mem::TrafficClass::kWriteback)] = 256;
  ex.add(r);
  ex.add(fake("B", "xz", 2.0));

  std::ostringstream os;
  ex.write_json(os);
  const std::string out = os.str();

  // Array of one object per run, escaped strings, exact double round-trip.
  EXPECT_EQ(out.front(), '[');
  EXPECT_NE(out.find("\"design\":\"A \\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(out.find("\"workload\":\"mcf\""), std::string::npos);
  EXPECT_NE(out.find("\"ipc\":1.25"), std::string::npos);
  EXPECT_NE(out.find("\"design\":\"B\""), std::string::npos);
  // The per-class split the CSV flattens must be present, keyed by class.
  EXPECT_NE(out.find("\"hbm_class_bytes\":{\"demand\":640,\"fill\":128,"),
            std::string::npos);
  EXPECT_NE(out.find("\"writeback\":256"), std::string::npos);
}

TEST(Experiment, JsonEmptyRunnerIsEmptyArray) {
  ExperimentRunner ex;
  std::ostringstream os;
  ex.write_json(os);
  EXPECT_EQ(os.str(), "[\n]\n");
}

// The JSON export must obey the same serial/parallel byte-identity
// contract as the CSV.
TEST(Experiment, JsonDeterministicAcrossJobs) {
  const std::vector<std::string> designs = {"DRAM-only", "Bumblebee"};
  const std::vector<trace::WorkloadProfile> workloads = {
      trace::WorkloadProfile::by_name("mcf")};

  RunMatrixOptions opts;
  opts.instructions = 100'000;

  SystemConfig cfg;
  cfg.hbm.capacity_bytes = 32 * MiB;
  cfg.dram.capacity_bytes = 320 * MiB;
  cfg.core.cores = 1;
  cfg.warmup_ratio = 0.0;

  ExperimentRunner serial(cfg);
  opts.jobs = 1;
  serial.run_matrix(designs, workloads, opts);
  ExperimentRunner parallel(cfg);
  opts.jobs = 4;
  parallel.run_matrix(designs, workloads, opts);

  std::ostringstream a, b;
  serial.write_json(a);
  parallel.write_json(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(Experiment, RunMatrixEndToEnd) {
  SystemConfig cfg;
  cfg.hbm.capacity_bytes = 32 * MiB;
  cfg.dram.capacity_bytes = 320 * MiB;
  cfg.core.cores = 1;
  cfg.warmup_ratio = 0.0;
  ExperimentRunner ex(cfg);
  int callbacks = 0;
  ex.run_matrix({"DRAM-only", "Bumblebee"},
                {trace::WorkloadProfile::by_name("mcf")},
                /*target_misses=*/500,
                [&](const RunResult&) { ++callbacks; },
                /*min_instructions=*/100'000, /*max_instructions=*/200'000);
  EXPECT_EQ(callbacks, 2);
  EXPECT_EQ(ex.results().size(), 2u);
  const auto n = ex.normalized("Bumblebee", "DRAM-only", metric_ipc);
  ASSERT_EQ(n.size(), 1u);
  EXPECT_GT(n[0].second, 0.0);
}

SystemConfig small_config() {
  SystemConfig cfg;
  cfg.hbm.capacity_bytes = 32 * MiB;
  cfg.dram.capacity_bytes = 320 * MiB;
  cfg.core.cores = 1;
  cfg.warmup_ratio = 0.0;
  return cfg;
}

// Serial (jobs=1) and parallel (jobs=4) executions of the same matrix must
// produce identical RunResult vectors — same values, same matrix order —
// and therefore byte-identical CSV. This is the determinism contract the
// parallel runner commits to (indexed slots, not completion order).
TEST(Experiment, ParallelMatrixMatchesSerialByteForByte) {
  const std::vector<std::string> designs = {"DRAM-only", "Bumblebee"};
  const std::vector<trace::WorkloadProfile> workloads = {
      trace::WorkloadProfile::by_name("mcf"),
      trace::WorkloadProfile::by_name("lbm")};

  RunMatrixOptions opts;
  opts.target_misses = 500;
  opts.min_instructions = 100'000;
  opts.max_instructions = 200'000;

  ExperimentRunner serial(small_config());
  opts.jobs = 1;
  serial.run_matrix(designs, workloads, opts);

  ExperimentRunner parallel(small_config());
  opts.jobs = 4;
  parallel.run_matrix(designs, workloads, opts);

  ASSERT_EQ(serial.results().size(), designs.size() * workloads.size());
  ASSERT_EQ(parallel.results().size(), serial.results().size());
  for (std::size_t i = 0; i < serial.results().size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    expect_identical(serial.results()[i], parallel.results()[i]);
  }

  std::ostringstream serial_csv, parallel_csv;
  serial.write_csv(serial_csv);
  parallel.write_csv(parallel_csv);
  EXPECT_EQ(serial_csv.str(), parallel_csv.str());
}

TEST(Experiment, ParallelOnResultFiresInMatrixOrder) {
  const std::vector<std::string> designs = {"DRAM-only", "Bumblebee"};
  const std::vector<trace::WorkloadProfile> workloads = {
      trace::WorkloadProfile::by_name("mcf"),
      trace::WorkloadProfile::by_name("lbm")};

  RunMatrixOptions opts;
  opts.jobs = 4;
  opts.target_misses = 500;
  opts.min_instructions = 100'000;
  opts.max_instructions = 200'000;
  std::vector<std::string> seen;
  opts.on_result = [&](const RunResult& r) {
    seen.push_back(r.design + "/" + r.workload);
  };

  ExperimentRunner ex(small_config());
  ex.run_matrix(designs, workloads, opts);

  const std::vector<std::string> expected = {
      "DRAM-only/mcf", "Bumblebee/mcf", "DRAM-only/lbm", "Bumblebee/lbm"};
  EXPECT_EQ(seen, expected);
}

// A mix matrix journaled through on_alone / on_mix_result must restore
// completely: the resumed run re-simulates nothing, fires no callbacks, and
// reproduces every export byte-for-byte.
TEST(Experiment, MixMatrixResumesFromJournal) {
  SystemConfig cfg = small_config();
  const std::vector<std::string> designs = {"DRAM-only", "Bumblebee"};
  const std::vector<MixSpec> mixes = {MixSpec::parse("mcf+lbm")};

  RunMatrixOptions opts;
  opts.jobs = 1;
  opts.instructions = 100'000;

  std::ostringstream journal_os;
  RunMatrixOptions first_opts = opts;
  first_opts.on_alone = [&](const std::string& d, const std::string& w,
                            double ipc) {
    journal_os << ResultJournal::alone_line(d, w, ipc) << "\n";
  };
  first_opts.on_mix_result = [&](const MixResult& r) {
    journal_os << ResultJournal::mix_line(r) << "\n";
  };
  ExperimentRunner first(cfg);
  first.run_mix_matrix(designs, mixes, first_opts);
  ASSERT_EQ(first.mix_results().size(), 2u);
  ASSERT_EQ(first.alone_ipc().size(), 4u);  // 2 designs x 2 workloads

  ResultJournal journal;
  std::istringstream journal_is(journal_os.str());
  const auto stats = journal.load_stats(journal_is);
  EXPECT_EQ(stats.restored, 6u);  // 4 alone baselines + 2 mix cells
  EXPECT_EQ(stats.malformed, 0u);
  ASSERT_NE(journal.find_alone("Bumblebee", "mcf"), nullptr);
  ASSERT_NE(journal.find_mix("Bumblebee", "mcf+lbm"), nullptr);
  EXPECT_EQ(journal.find_alone("Bumblebee", "nonesuch"), nullptr);
  EXPECT_EQ(journal.find_mix("nonesuch", "mcf+lbm"), nullptr);

  RunMatrixOptions resume_opts = opts;
  resume_opts.jobs = 4;
  resume_opts.resume = &journal;
  std::size_t fresh = 0;
  resume_opts.on_alone = [&](const std::string&, const std::string&,
                             double) { ++fresh; };
  resume_opts.on_mix_result = [&](const MixResult&) { ++fresh; };
  resume_opts.on_result = [&](const RunResult&) { ++fresh; };
  ExperimentRunner second(cfg);
  second.run_mix_matrix(designs, mixes, resume_opts);
  EXPECT_EQ(fresh, 0u);  // everything restored, nothing re-simulated

  std::ostringstream a_csv, b_csv, a_mix, b_mix;
  first.write_csv(a_csv);
  second.write_csv(b_csv);
  first.write_mix_json(a_mix);
  second.write_mix_json(b_mix);
  EXPECT_EQ(a_csv.str(), b_csv.str());
  EXPECT_EQ(a_mix.str(), b_mix.str());
}

// A journal holding only the alone baselines (interrupt landed between the
// two phases) must skip phase 1 and re-simulate only the co-run cells.
TEST(Experiment, MixMatrixResumesPartialAloneJournal) {
  SystemConfig cfg = small_config();
  const std::vector<std::string> designs = {"DRAM-only"};
  const std::vector<MixSpec> mixes = {MixSpec::parse("mcf+lbm")};

  RunMatrixOptions opts;
  opts.jobs = 1;
  opts.instructions = 100'000;

  std::ostringstream journal_os;
  RunMatrixOptions first_opts = opts;
  first_opts.on_alone = [&](const std::string& d, const std::string& w,
                            double ipc) {
    journal_os << ResultJournal::alone_line(d, w, ipc) << "\n";
  };
  ExperimentRunner first(cfg);
  first.run_mix_matrix(designs, mixes, first_opts);

  ResultJournal journal;
  std::istringstream journal_is(journal_os.str());
  EXPECT_EQ(journal.load_stats(journal_is).restored, 2u);

  RunMatrixOptions resume_opts = opts;
  resume_opts.resume = &journal;
  std::size_t alone_reruns = 0, mix_runs = 0;
  resume_opts.on_alone = [&](const std::string&, const std::string&,
                             double) { ++alone_reruns; };
  resume_opts.on_mix_result = [&](const MixResult&) { ++mix_runs; };
  ExperimentRunner second(cfg);
  second.run_mix_matrix(designs, mixes, resume_opts);
  EXPECT_EQ(alone_reruns, 0u);
  EXPECT_EQ(mix_runs, 1u);
  // The restored baselines fed the fresh co-run scoring.
  ASSERT_EQ(second.mix_results().size(), 1u);
  for (const auto& c : second.mix_results()[0].cores) {
    EXPECT_GT(c.alone_ipc, 0.0);
  }
}

// load_stats must count damage instead of crashing (or silently accepting):
// garbage lines, torn writes, schema-less objects, and unknown kinds are
// all malformed; valid lines around them still restore.
TEST(Experiment, JournalLoadStatsCountsMalformedLines) {
  std::string journal_text;
  journal_text += ResultJournal::line(fake("A", "mcf", 1.5)) + "\n";
  journal_text += "not json at all\n";
  journal_text += "{\"design\":\"torn";  // torn tail, no newline termination
  journal_text += "\n";
  journal_text += ResultJournal::alone_line("A", "xz", 2.0) + "\n";
  journal_text += "{\"kind\":\"martian\",\"design\":\"A\"}\n";
  journal_text += "{\"kind\":\"mix\",\"design\":\"A\"}\n";  // missing scores
  journal_text += "[1,2,3]\n";   // not an object
  journal_text += "\n";          // blank lines are ignored, not malformed
  journal_text += "{\"kind\":\"alone\",\"design\":\"\",\"workload\":\"\"}\n";

  ResultJournal journal;
  std::istringstream is(journal_text);
  const auto stats = journal.load_stats(is);
  EXPECT_EQ(stats.restored, 2u);
  EXPECT_EQ(stats.malformed, 6u);
  EXPECT_NE(journal.find("A", "mcf"), nullptr);
  ASSERT_NE(journal.find_alone("A", "xz"), nullptr);
  EXPECT_DOUBLE_EQ(*journal.find_alone("A", "xz"), 2.0);
}

// A result whose every exported field is nonzero and distinct, so every
// gate group is on. Integers sit above 2^53, where a double would round;
// the class byte counts include 2^53 + 1 and 2^64 - 1.
RunResult every_field_set() {
  RunResult r;
  u64 i = 0;
  for (const RunField& f : kRunFields) {
    ++i;
    std::visit(
        [&](auto p) {
          auto& v = r.*p;
          using V = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<V, std::string>) {
            v = std::string(f.key) + " \"quoted\"";
          } else if constexpr (std::is_same_v<V, double>) {
            v = static_cast<double>(i) + 0.1;
          } else if constexpr (std::is_same_v<V, bool>) {
            v = true;
          } else {
            v = (u64{1} << 53) + i;
          }
        },
        f.member);
  }
  for (std::size_t c = 0; c < mem::kTrafficClassCount; ++c) {
    r.hbm_class_bytes[c] = ~u64{0} - c;
    r.dram_class_bytes[c] = (u64{1} << 53) + 1 + c;
  }
  return r;
}

// A journal line carries every gate group whose fields are nonzero, and
// loading it restores every field exactly, integers included.
TEST(Experiment, JournalRoundTripsEveryFieldGroup) {
  RunResult r = every_field_set();
  r.timed_out = false;  // find() skips watchdog placeholders
  const std::string line = ResultJournal::line(r);
  for (const char* key : {"ce_count", "queueing_latency_avg"}) {
    EXPECT_NE(line.find(key), std::string::npos) << key;
  }
  ResultJournal journal;
  std::istringstream is(line + "\n");
  ASSERT_EQ(journal.load_stats(is).restored, 1u);
  const RunResult* got = journal.find(r.design, r.workload);
  ASSERT_NE(got, nullptr);
  expect_identical(r, *got);

  // The timeout group round-trips too: the placeholder is loaded, and
  // find_mix then skips it as timed out.
  MixResult m;
  m.design = "A";
  m.mix = "mcf+lbm";
  m.aggregate = every_field_set();
  const std::string mix_line = ResultJournal::mix_line(m);
  EXPECT_NE(mix_line.find("\"timed_out\":1"), std::string::npos);
  ResultJournal mixes;
  std::istringstream mix_is(mix_line + "\n");
  ASSERT_EQ(mixes.load_stats(mix_is).restored, 1u);
  EXPECT_EQ(mixes.find_mix("A", "mcf+lbm"), nullptr);
}

// An integer field holding a negative, fractional or out-of-range value
// makes its line malformed instead of being cast (undefined behaviour) or
// rounded. The per-core fields of a mix line are held to the same rule.
TEST(Experiment, JournalRejectsInexactIntegers) {
  const std::string good = ResultJournal::line(fake("A", "mcf", 1.5));
  const std::string misses = "\"misses\":10";
  ASSERT_NE(good.find(misses), std::string::npos);
  MixResult m;
  m.design = "A";
  m.mix = "mcf+lbm";
  m.aggregate = fake("A", "mcf+lbm", 1.5);
  m.cores.resize(1);
  const std::string good_mix = ResultJournal::mix_line(m);
  const std::string core = "\"core\":0";
  ASSERT_NE(good_mix.find(core), std::string::npos);

  std::string text = good + "\n" + good_mix + "\n";
  for (const char* bad : {"-1", "1.5", "1e30", "18446744073709551616"}) {
    std::string line = good;
    line.replace(line.find(misses), misses.size(),
                 std::string("\"misses\":") + bad);
    text += line + "\n";
  }
  for (const char* bad : {"-1", "1.5", "4294967296"}) {
    std::string line = good_mix;
    line.replace(line.find(core), core.size(),
                 std::string("\"core\":") + bad);
    text += line + "\n";
  }
  ResultJournal journal;
  std::istringstream is(text);
  const auto stats = journal.load_stats(is);
  EXPECT_EQ(stats.restored, 2u);
  EXPECT_EQ(stats.malformed, 7u);
}

// Last-line-wins: a journal that records the same cell twice (rerun after a
// partial resume) restores the later value.
TEST(Experiment, JournalLastLineWins) {
  std::string journal_text;
  journal_text += ResultJournal::alone_line("A", "mcf", 1.0) + "\n";
  journal_text += ResultJournal::alone_line("A", "mcf", 3.0) + "\n";
  ResultJournal journal;
  std::istringstream is(journal_text);
  EXPECT_EQ(journal.load_stats(is).restored, 2u);
  ASSERT_NE(journal.find_alone("A", "mcf"), nullptr);
  EXPECT_DOUBLE_EQ(*journal.find_alone("A", "mcf"), 3.0);
}

TEST(Experiment, BumblebeeMatrixLabelsResults) {
  bumblebee::BumblebeeConfig a;  // defaults
  bumblebee::BumblebeeConfig b;
  b.block_bytes = 4 * KiB;

  RunMatrixOptions opts;
  opts.jobs = 2;
  opts.instructions = 100'000;

  ExperimentRunner ex(small_config());
  ex.run_bumblebee_matrix({{"cfg-a", a}, {"cfg-b", b}},
                          {trace::WorkloadProfile::by_name("mcf")}, opts);
  ASSERT_EQ(ex.results().size(), 2u);
  EXPECT_EQ(ex.results()[0].design, "cfg-a");
  EXPECT_EQ(ex.results()[1].design, "cfg-b");
  EXPECT_EQ(ex.for_design("cfg-b").size(), 1u);
}

}  // namespace
}  // namespace bb::sim
