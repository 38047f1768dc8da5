// Experiment runner: executes (design x workload) matrices, accumulates
// RunResults, and exports them as aligned text or CSV. The bench harnesses
// use it for their sweeps; downstream users get machine-readable results
// for plotting.
//
// Matrices can run on a worker pool (RunMatrixOptions::jobs): every worker
// owns a private System (System::run leaks no state between runs), and
// finished cells commit back in matrix order — workload-major, design-minor
// — through indexed slots, so serial and parallel executions of the same
// matrix produce byte-identical results() and write_csv() output.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "bumblebee/config.h"
#include "common/prof.h"
#include "sim/mix.h"
#include "sim/result_fields.h"
#include "sim/system.h"

namespace bb::sim {

/// Checkpoint journal for long sweeps: one JSON object per completed cell,
/// appended as cells finish (wire RunMatrixOptions::on_result to
/// append_line on an O_APPEND stream). On restart, load() the file and pass
/// the journal via RunMatrixOptions::resume — finished cells are restored
/// from it instead of re-simulated.
///
/// Three line kinds share the file, distinguished by a "kind" key:
///   * plain RunResult lines (no kind, or "run") for matrix cells,
///   * "alone" lines caching a mix matrix's single-core IPC baselines,
///   * "mix" lines carrying a full (design, mix) MixResult.
class ResultJournal {
 public:
  struct LoadStats {
    std::size_t restored = 0;   ///< well-formed lines restored
    std::size_t malformed = 0;  ///< unparseable or incomplete lines skipped
  };

  /// Parses journal lines. Malformed lines (e.g. a truncated final line
  /// from a killed run) are counted and skipped, never fatal. When
  /// `well_formed` is non-null it collects every kept line verbatim, so a
  /// resuming caller can atomically rewrite a torn journal without the
  /// truncated tail.
  LoadStats load_stats(std::istream& is,
                       std::vector<std::string>* well_formed = nullptr);

  /// Back-compat wrapper around load_stats(); returns lines restored.
  std::size_t load(std::istream& is) { return load_stats(is).restored; }

  const RunResult* find(const std::string& design,
                        const std::string& workload) const;
  /// Journaled alone-run baseline IPC, or nullptr when absent.
  const double* find_alone(const std::string& design,
                           const std::string& workload) const;
  /// Journaled (design, mix) co-run cell, or nullptr when absent.
  const MixResult* find_mix(const std::string& design,
                            const std::string& mix) const;
  std::size_t size() const {
    return rows_.size() + alone_rows_.size() + mix_rows_.size();
  }

  /// Serializes one result as a single journal line (no newline). The line
  /// is the JSON object write_json emits for the run; a gated field group
  /// (fault, queue, timeout) is included only when any of its fields is
  /// nonzero.
  static std::string line(const RunResult& r);
  /// One alone-baseline journal line (kind "alone").
  static std::string alone_line(const std::string& design,
                                const std::string& workload, double ipc);
  /// One co-run cell journal line (kind "mix") — the same object
  /// write_mix_json emits for the cell.
  static std::string mix_line(const MixResult& r);

 private:
  struct AloneRow {
    std::string design;
    std::string workload;
    double ipc = 0;
  };
  std::vector<RunResult> rows_;
  std::vector<AloneRow> alone_rows_;
  std::vector<MixResult> mix_rows_;
};

/// Execution options for run_matrix / run_bumblebee_matrix.
struct RunMatrixOptions {
  /// Worker threads for the matrix. 0 = one per hardware thread; 1 runs the
  /// cells inline on the calling thread (the historical serial behavior).
  unsigned jobs = 0;
  /// Called once per completed cell, always in matrix order (workload-major,
  /// design-minor) regardless of which worker finished first. Invoked under
  /// the runner's commit lock, so it needs no synchronization of its own.
  /// Not called for cells restored from `resume` (they are already
  /// journaled).
  std::function<void(const RunResult&)> on_result;
  /// Emit a cells-done / elapsed / ETA line to stderr as cells complete.
  bool progress = false;
  /// Fixed per-cell instruction budget. 0 derives a per-workload budget
  /// from target_misses via default_instructions_for.
  u64 instructions = 0;
  u64 target_misses = 200'000;
  u64 min_instructions = 50'000'000;
  u64 max_instructions = 400'000'000;
  /// Checkpoint journal from an earlier (interrupted) run of the same
  /// matrix: cells found in it are restored, not re-simulated.
  const ResultJournal* resume = nullptr;
  /// Cooperative cancellation, polled between cells (e.g. a SIGINT flag).
  /// Once it returns true no new cell starts; parallel cells already
  /// running finish and still commit, keeping the journal well-formed.
  std::function<bool()> cancel;
  /// Mix matrices only: called per freshly simulated alone baseline
  /// (design, workload, ipc) in pair order — wire to
  /// ResultJournal::alone_line for checkpointing.
  std::function<void(const std::string&, const std::string&, double)>
      on_alone;
  /// Mix matrices only: called per freshly simulated co-run cell in matrix
  /// order (alongside on_result, which sees only the aggregate RunResult).
  std::function<void(const MixResult&)> on_mix_result;
  /// Watchdog: per-cell soft deadline in host seconds (0 = no deadline).
  /// A cell past the deadline is interrupted at a record boundary and
  /// retried — resuming from the snapshot the interrupted attempt left
  /// behind when SystemConfig::snapshot is configured — up to
  /// `cell_retries` times. When the retries are exhausted the cell commits
  /// as a `timed_out` placeholder row (all measurements zero) and the rest
  /// of the sweep continues.
  double cell_timeout_s = 0;
  u32 cell_retries = 1;
};

/// First unused quarantine path for a corrupt artifact: `path + ".corrupt"`,
/// then ".corrupt.1", ".corrupt.2", ... — an earlier quarantined file is
/// never overwritten.
std::string quarantine_name(const std::string& path);

class ExperimentRunner {
 public:
  explicit ExperimentRunner(SystemConfig cfg = SystemConfig{});

  /// Runs every (design, workload) pair, possibly in parallel (see
  /// RunMatrixOptions). Results append to results() in matrix order.
  void run_matrix(const std::vector<std::string>& designs,
                  const std::vector<trace::WorkloadProfile>& workloads,
                  const RunMatrixOptions& opts);

  /// Legacy serial overload (equivalent to opts.jobs = 1).
  void run_matrix(const std::vector<std::string>& designs,
                  const std::vector<trace::WorkloadProfile>& workloads,
                  u64 target_misses,
                  std::function<void(const RunResult&)> on_result = nullptr,
                  u64 min_instructions = 50'000'000,
                  u64 max_instructions = 400'000'000);

  /// Trace-replay matrix: every design replays the recorded binary trace
  /// at `replay.path` (see src/trace/stream.h). Results carry workload =
  /// `replay.label`. In streaming mode each worker opens its own bounded-
  /// memory StreamingTraceReader, so peak RSS is independent of trace
  /// length; memory mode loads the records once and replays them through
  /// TraceReplayer (the byte-identity reference path — both modes produce
  /// identical results, pinned by test). opts.instructions must be set: a
  /// trace has no MPKI to derive a budget from (trace_info(path)
  /// .inst_gap_total is the budget for exactly one pass). The trace is
  /// structurally validated up front; bad files throw trace::TraceError.
  struct ReplayMatrixOptions {
    std::string path;
    std::string label;      ///< result workload name (e.g. the file stem)
    bool streaming = true;  ///< false: whole-trace in-memory replay
    u32 v1_chunk_records = 4096;  ///< streaming read slice for v1 traces
  };
  void run_replay_matrix(const std::vector<std::string>& designs,
                         const ReplayMatrixOptions& replay,
                         const RunMatrixOptions& opts);

  /// Design-space exploration matrix: one cell per (labelled Bumblebee
  /// configuration, workload). Each result's design field is the label.
  void run_bumblebee_matrix(
      const std::vector<std::pair<std::string, bumblebee::BumblebeeConfig>>&
          configs,
      const std::vector<trace::WorkloadProfile>& workloads,
      const RunMatrixOptions& opts);

  /// Multi-programmed mix matrix (see sim/mix.h). Two phases, both run on
  /// the worker pool with matrix-order commits so every output is
  /// byte-identical across --jobs values:
  ///   1. Alone baselines: each unique (design, workload) pair across the
  ///      mixes runs on one core with observability off, caching its IPC
  ///      in alone_ipc() (simulated once even if many mixes share it).
  ///   2. Co-runs: every (design, mix) cell via run_mix_cell. MixResults
  ///      append to mix_results(); each cell's aggregate RunResult also
  ///      appends to results(), so write_csv / write_json /
  ///      write_epoch_csv / write_trace cover mix runs unchanged.
  /// opts.instructions is the per-core budget; 0 derives one shared budget
  /// as the max default_instructions_for over every workload named by the
  /// mixes. opts.on_result fires per committed co-run aggregate.
  /// Checkpoint resume: opts.resume restores journaled "alone" baselines
  /// and "mix" cells (see ResultJournal) instead of re-simulating them;
  /// callbacks are skipped for restored entries.
  void run_mix_matrix(const std::vector<std::string>& designs,
                      const std::vector<MixSpec>& mixes,
                      const RunMatrixOptions& opts);

  const std::vector<MixResult>& mix_results() const { return mix_results_; }

  /// Alone-run IPC baselines accumulated by run_mix_matrix.
  const AloneIpcMap& alone_ipc() const { return alone_ipc_; }

  /// Writes one CSV row per (design, mix, core): the core's shared-run
  /// numbers, its alone-run baseline and speedup, plus the mix-level
  /// weighted/hmean speedup and max slowdown repeated on every row of the
  /// cell (keeps the file flat and greppable).
  void write_mix_csv(std::ostream& os) const;

  /// Writes mix_results() as a JSON array: mix-level scores, the full
  /// aggregate RunResult and the per-core breakdown.
  void write_mix_json(std::ostream& os) const;

  /// Adds a single externally produced result.
  void add(const RunResult& r) { results_.push_back(r); }

  const std::vector<RunResult>& results() const { return results_; }

  /// All results for one design, in insertion order.
  std::vector<RunResult> for_design(const std::string& design) const;

  /// Results normalized per-workload against `baseline_design`'s rows;
  /// `metric` picks the value. Missing baseline rows are skipped.
  std::vector<std::pair<std::string, double>> normalized(
      const std::string& design, const std::string& baseline_design,
      double (*metric)(const RunResult&)) const;

  /// Writes every result as CSV (one row per run, fixed column set).
  void write_csv(std::ostream& os) const;

  /// Writes every result as a JSON array, one object per run. Unlike the
  /// CSV this is the *full* RunResult, including the per-traffic-class
  /// byte counters (hbm_class_bytes / dram_class_bytes) the CSV flattens
  /// into single totals.
  void write_json(std::ostream& os) const;

  /// Profiled variant (bbsim --profile --json): wraps the plain array in
  /// {"runs": [...], "host": {...}} with the host-side performance report.
  /// The "runs" payload is byte-identical to write_json(os) — the host
  /// section never enters a golden-hashed stream, which only ever uses the
  /// plain overload.
  void write_json(std::ostream& os, const prof::HostReport& host) const;

  /// Profiled variant of write_mix_json, same wrapping contract.
  void write_mix_json(std::ostream& os, const prof::HostReport& host) const;

  /// Writes the epoch time-series of every run that carries artifacts as
  /// one flat CSV: design, workload, epoch, start/end tick, requests, then
  /// the union of all runs' metric columns (cells a run lacks stay empty).
  /// Rows appear in matrix order, so the file is --jobs independent.
  void write_epoch_csv(std::ostream& os) const;

  enum class TraceFormat { kJsonl, kChrome };

  /// Writes every run's trace events. kJsonl: one JSON object per event
  /// with design/workload stamped on each line. kChrome: a single Chrome
  /// trace_event document (Perfetto-loadable) with one process per run.
  void write_trace(std::ostream& os, TraceFormat format) const;

 private:
  /// One matrix cell: run design index `d` of the current matrix against
  /// `w` for `instr` instructions on the given (worker-private) System.
  using CellFn = std::function<RunResult(
      System&, std::size_t d, const trace::WorkloadProfile& w, u64 instr)>;
  /// Maps a design index to the name resume-journal rows are keyed by.
  using DesignNameFn = std::function<std::string(std::size_t)>;

  void run_cells(std::size_t n_designs,
                 const std::vector<trace::WorkloadProfile>& workloads,
                 const CellFn& cell, const DesignNameFn& design_name,
                 const RunMatrixOptions& opts);

  /// The field groups the CSV and JSON writers export: fault and queue
  /// fields when that subsystem is configured, timed_out when any row is a
  /// watchdog placeholder. Outputs without them keep their historical
  /// shape.
  FieldGates writer_gates() const;

  SystemConfig cfg_;
  std::vector<RunResult> results_;
  std::vector<MixResult> mix_results_;
  AloneIpcMap alone_ipc_;
};

}  // namespace bb::sim
