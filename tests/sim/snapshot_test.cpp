// In-process kill-and-resume coverage for the crash-tolerance layer: an
// interrupted run resumed from its snapshot must reproduce the
// uninterrupted run's results exactly, corrupt snapshots must fail closed,
// designs without snapshot support must be rejected up front, and the
// matrix watchdog must degrade exhausted cells to timed_out placeholder
// rows. The process-level SIGKILL variants live in
// tools/check_crash_recovery.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/snapshot.h"
#include "expect_identical.h"
#include "sim/core_model.h"
#include "sim/experiment.h"
#include "sim/system.h"

namespace bb::sim {
namespace {

SystemConfig fast_config() {
  SystemConfig cfg;
  cfg.hbm.capacity_bytes = 64 * MiB;
  cfg.dram.capacity_bytes = 640 * MiB;
  cfg.core.cores = 2;
  cfg.warmup_ratio = 0.5;
  return cfg;
}

SystemConfig snapshot_config(const char* subdir) {
  SystemConfig cfg = fast_config();
  cfg.snapshot.dir = std::string(::testing::TempDir()) + "/" + subdir;
  cfg.snapshot.interval_records = 256;
  // bbsim creates the directory for its users; in-process callers own it.
  std::filesystem::create_directories(cfg.snapshot.dir);
  return cfg;
}

/// The snapshot file System uses for a plain run cell (kind "run",
/// non-alphanumerics in the design/workload mapped to '_').
std::string snap_path(const SystemConfig& cfg, std::string design,
                      const std::string& workload) {
  for (char& c : design) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return cfg.snapshot.dir + "/run__" + design + "__" + workload + ".bbsnap";
}

/// Interrupts the run at the `stop_at`-th record-boundary poll (a snapshot
/// is committed at the same boundary, just before the poll), then resumes
/// from that snapshot and requires results identical to an uninterrupted
/// run of the same cell.
void kill_and_resume(const char* design, const char* subdir) {
  const auto& w = trace::WorkloadProfile::by_name("mcf");
  constexpr u64 kInstructions = 400'000;

  SystemConfig cfg = snapshot_config(subdir);
  System reference(fast_config());
  const RunResult want = reference.run(design, w, kInstructions);

  System sys(cfg);
  int polls = 0;
  sys.set_interrupt([&polls] { return ++polls >= 3; });
  EXPECT_THROW(sys.run(design, w, kInstructions), RunInterrupted);
  EXPECT_TRUE(snap::file_exists(snap_path(cfg, design, "mcf")));

  sys.set_interrupt({});
  sys.allow_restore_once();
  const RunResult got = sys.run(design, w, kInstructions);
  expect_identical(want, got);
  // A finished cell leaves no snapshot behind.
  EXPECT_FALSE(snap::file_exists(snap_path(cfg, design, "mcf")));
}

TEST(SystemSnapshot, KillAndResumeDramOnlyIsExact) {
  kill_and_resume("DRAM-only", "snap_dramonly");
}

TEST(SystemSnapshot, KillAndResumeBumblebeeIsExact) {
  kill_and_resume("Bumblebee", "snap_bumblebee");
}

TEST(SystemSnapshot, UninterruptedRunWithSnapshotsMatchesPlainRun) {
  const auto& w = trace::WorkloadProfile::by_name("mcf");
  System plain(fast_config());
  const RunResult want = plain.run("Bumblebee", w, 300'000);
  System snapped(snapshot_config("snap_clean"));
  const RunResult got = snapped.run("Bumblebee", w, 300'000);
  expect_identical(want, got);
}

TEST(SystemSnapshot, UnsupportedDesignIsUsageError) {
  // Full-size devices: Hybrid2's geometry assumes production capacities
  // (its construction predates the snapshot-support check).
  SystemConfig cfg;
  cfg.snapshot.dir =
      std::string(::testing::TempDir()) + "/snap_unsupported";
  cfg.snapshot.interval_records = 256;
  std::filesystem::create_directories(cfg.snapshot.dir);
  System sys(cfg);
  EXPECT_THROW(
      sys.run("Hybrid2", trace::WorkloadProfile::by_name("mcf"), 100'000),
      std::invalid_argument);
}

TEST(SystemSnapshot, CorruptSnapshotFailsClosed) {
  const auto& w = trace::WorkloadProfile::by_name("mcf");
  SystemConfig cfg = snapshot_config("snap_corrupt");
  System sys(cfg);
  int polls = 0;
  sys.set_interrupt([&polls] { return ++polls >= 2; });
  EXPECT_THROW(sys.run("DRAM-only", w, 400'000), RunInterrupted);

  const std::string path = snap_path(cfg, "DRAM-only", "mcf");
  ASSERT_TRUE(snap::file_exists(path));
  std::string blob;
  {
    std::ifstream in(path, std::ios::binary);
    blob.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  blob[blob.size() / 2] = static_cast<char>(blob[blob.size() / 2] ^ 0x01);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }

  sys.set_interrupt({});
  sys.allow_restore_once();
  EXPECT_THROW(sys.run("DRAM-only", w, 400'000), snap::SnapshotError);
  std::remove(path.c_str());
}

TEST(Watchdog, ExhaustedCellCommitsTimedOutPlaceholder) {
  ExperimentRunner runner(snapshot_config("snap_watchdog"));
  RunMatrixOptions opts;
  opts.jobs = 1;
  opts.instructions = 400'000;
  opts.cell_timeout_s = 1e-9;  // trips at the first record-boundary poll
  opts.cell_retries = 1;
  runner.run_matrix({"DRAM-only", "Bumblebee"},
                    {trace::WorkloadProfile::by_name("mcf")}, opts);
  ASSERT_EQ(runner.results().size(), 2u);
  for (const RunResult& r : runner.results()) {
    EXPECT_TRUE(r.timed_out);
    EXPECT_EQ(r.workload, "mcf");
    EXPECT_EQ(r.instructions, 0u);
    EXPECT_DOUBLE_EQ(r.ipc, 0.0);
  }
  std::ostringstream csv;
  runner.write_csv(csv);
  EXPECT_NE(csv.str().find("timed_out"), std::string::npos);
}

TEST(Watchdog, GenerousDeadlineLeavesResultsUntouched) {
  const auto& w = trace::WorkloadProfile::by_name("mcf");
  System plain(fast_config());
  const RunResult want = plain.run("Bumblebee", w, 300'000);

  ExperimentRunner runner(snapshot_config("snap_nodeadline"));
  RunMatrixOptions opts;
  opts.jobs = 1;
  opts.instructions = 300'000;
  opts.cell_timeout_s = 3600.0;
  runner.run_matrix({"Bumblebee"}, {w}, opts);
  ASSERT_EQ(runner.results().size(), 1u);
  EXPECT_FALSE(runner.results()[0].timed_out);
  expect_identical(want, runner.results()[0]);
  // No timed-out cell -> the placeholder column stays out of the schema.
  std::ostringstream csv;
  runner.write_csv(csv);
  EXPECT_EQ(csv.str().find("timed_out"), std::string::npos);
}

TEST(Journal, TimedOutRowsAreRetriedOnResume) {
  RunResult r;
  r.design = "Bumblebee";
  r.workload = "mcf";
  r.timed_out = true;
  ResultJournal journal;
  std::stringstream stream(ResultJournal::line(r) + "\n");
  EXPECT_EQ(journal.load(stream), 1u);
  // A timed-out placeholder never satisfies a resume lookup: the resumed
  // sweep re-runs the cell instead of propagating the zero row.
  EXPECT_EQ(journal.find("Bumblebee", "mcf"), nullptr);
}

TEST(Journal, LoadStatsCollectsWellFormedLines) {
  RunResult a;
  a.design = "A";
  a.workload = "mcf";
  a.ipc = 1.5;
  RunResult b;
  b.design = "B";
  b.workload = "mcf";
  b.ipc = 2.5;
  const std::string la = ResultJournal::line(a);
  const std::string lb = ResultJournal::line(b);
  std::stringstream stream(la + "\n" + lb + "\n" + lb.substr(0, 17));
  ResultJournal journal;
  std::vector<std::string> kept;
  const auto stats = journal.load_stats(stream, &kept);
  EXPECT_EQ(stats.restored, 2u);
  EXPECT_EQ(stats.malformed, 1u);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0], la);
  EXPECT_EQ(kept[1], lb);
}

TEST(Quarantine, NamesNeverCollide) {
  const std::string base =
      std::string(::testing::TempDir()) + "/journal.jsonl";
  EXPECT_EQ(quarantine_name(base), base + ".corrupt");
  std::ofstream(base + ".corrupt") << "x";
  EXPECT_EQ(quarantine_name(base), base + ".corrupt.1");
  std::ofstream(base + ".corrupt.1") << "x";
  EXPECT_EQ(quarantine_name(base), base + ".corrupt.2");
  std::remove((base + ".corrupt").c_str());
  std::remove((base + ".corrupt.1").c_str());
}

}  // namespace
}  // namespace bb::sim
