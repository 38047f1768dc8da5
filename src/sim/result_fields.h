// The result field tables: the one list of the fields a run exports.
//
// Each exported RunResult field is described once, in output order: its
// key, the gate group that decides whether it appears, its CSV precision
// and a member pointer. The CSV and JSON writers, the checkpoint journal,
// its parser and the output gates all walk these tables, so a field added
// here reaches every artifact alike and no writer can drift from another.
// A second table does the same for the per-core rows of a mix run.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <variant>

#include "common/json.h"
#include "common/table.h"
#include "sim/mix.h"

namespace bb::sim {

/// When a field is exported. kBase fields always are. The other groups
/// appear when their subsystem is configured (the CSV / JSON writers) or
/// when one of the group's values is nonzero (a journal line).
enum class FieldGroup : u8 { kBase, kFault, kQueue, kTimeout };

/// The set of exported groups, one bit per FieldGroup.
using FieldGates = unsigned;

constexpr FieldGates gate_bit(FieldGroup g) {
  return 1u << static_cast<unsigned>(g);
}

/// One exported field. Its value kind follows the member's type: a string
/// (quoted in JSON), an integer (exact), a double (shortest round-trip in
/// JSON, `csv_precision` decimals in the CSV) or a bool (written as 0/1).
template <class Member>
struct ResultField {
  const char* key;
  FieldGroup group;
  int csv_precision;
  Member member;
};

using RunField =
    ResultField<std::variant<std::string RunResult::*, u64 RunResult::*,
                             double RunResult::*, bool RunResult::*>>;

/// A mix core row's field: a CorePerf member (reached through
/// MixCoreResult::perf) or one of MixCoreResult's own scores.
using CoreField =
    ResultField<std::variant<u32 CorePerf::*, std::string CorePerf::*,
                             u64 CorePerf::*, double CorePerf::*,
                             double MixCoreResult::*>>;

/// Every exported RunResult field, in CSV column and JSON key order. The
/// JSON object then ends with the nested hbm_class_bytes/dram_class_bytes
/// objects, which the CSV flattens into the hbm_bytes/dram_bytes totals.
inline constexpr RunField kRunFields[] = {
    {"design", FieldGroup::kBase, 0, &RunResult::design},
    {"workload", FieldGroup::kBase, 0, &RunResult::workload},
    {"instructions", FieldGroup::kBase, 0, &RunResult::instructions},
    {"misses", FieldGroup::kBase, 0, &RunResult::misses},
    {"ipc", FieldGroup::kBase, 4, &RunResult::ipc},
    {"hbm_bytes", FieldGroup::kBase, 0, &RunResult::hbm_bytes},
    {"dram_bytes", FieldGroup::kBase, 0, &RunResult::dram_bytes},
    {"energy_mj", FieldGroup::kBase, 4, &RunResult::energy_mj},
    {"hbm_serve_rate", FieldGroup::kBase, 4, &RunResult::hbm_serve_rate},
    {"mean_latency_ns", FieldGroup::kBase, 2, &RunResult::mean_latency_ns},
    {"latency_p50_ns", FieldGroup::kBase, 2, &RunResult::latency_p50_ns},
    {"latency_p90_ns", FieldGroup::kBase, 2, &RunResult::latency_p90_ns},
    {"latency_p99_ns", FieldGroup::kBase, 2, &RunResult::latency_p99_ns},
    {"latency_p999_ns", FieldGroup::kBase, 2, &RunResult::latency_p999_ns},
    {"mal_fraction", FieldGroup::kBase, 4, &RunResult::mal_fraction},
    {"overfetch", FieldGroup::kBase, 4, &RunResult::overfetch},
    {"page_faults", FieldGroup::kBase, 0, &RunResult::page_faults},
    {"metadata_sram_bytes", FieldGroup::kBase, 0,
     &RunResult::metadata_sram_bytes},
    {"ce_count", FieldGroup::kFault, 0, &RunResult::ce_count},
    {"ue_count", FieldGroup::kFault, 0, &RunResult::ue_count},
    {"due_retries", FieldGroup::kFault, 0, &RunResult::due_retries},
    {"due_unrecovered", FieldGroup::kFault, 0, &RunResult::due_unrecovered},
    {"due_data_loss", FieldGroup::kFault, 0, &RunResult::due_data_loss},
    {"retired_rows", FieldGroup::kFault, 0, &RunResult::retired_rows},
    {"retired_frames", FieldGroup::kFault, 0, &RunResult::retired_frames},
    {"degraded_sets", FieldGroup::kFault, 0, &RunResult::degraded_sets},
    {"queueing_latency_avg", FieldGroup::kQueue, 2,
     &RunResult::queueing_latency_avg},
    {"read_queue_latency_avg", FieldGroup::kQueue, 2,
     &RunResult::read_queue_latency_avg},
    {"req_queue_length_avg", FieldGroup::kQueue, 4,
     &RunResult::req_queue_length_avg},
    {"write_drain_count", FieldGroup::kQueue, 0,
     &RunResult::write_drain_count},
    {"timed_out", FieldGroup::kTimeout, 0, &RunResult::timed_out},
};

/// Every exported field of a mix core row, in CSV column and JSON key
/// order (all always exported).
inline constexpr CoreField kCoreFields[] = {
    {"core", FieldGroup::kBase, 0, &CorePerf::core},
    {"workload", FieldGroup::kBase, 0, &CorePerf::workload},
    {"instructions", FieldGroup::kBase, 0, &CorePerf::instructions},
    {"misses", FieldGroup::kBase, 0, &CorePerf::misses},
    {"ipc", FieldGroup::kBase, 4, &CorePerf::ipc},
    {"alone_ipc", FieldGroup::kBase, 4, &MixCoreResult::alone_ipc},
    {"speedup", FieldGroup::kBase, 4, &MixCoreResult::speedup},
    {"hbm_serve_rate", FieldGroup::kBase, 4, &CorePerf::hbm_serve_rate},
    {"mean_latency_ns", FieldGroup::kBase, 2, &CorePerf::mean_latency_ns},
    {"latency_p50_ns", FieldGroup::kBase, 2, &CorePerf::latency_p50_ns},
    {"latency_p99_ns", FieldGroup::kBase, 2, &CorePerf::latency_p99_ns},
    {"hbm_bytes", FieldGroup::kBase, 0, &CorePerf::hbm_bytes},
    {"dram_bytes", FieldGroup::kBase, 0, &CorePerf::dram_bytes},
};

namespace detail {

/// The value field `p` names in `row`; CorePerf members of a MixCoreResult
/// are reached through its `perf`.
template <class Row, class V, class C>
auto& member_of(Row& row, V C::*p) {
  if constexpr (std::is_same_v<std::remove_const_t<Row>, C>) {
    return row.*p;
  } else {
    return row.perf.*p;
  }
}

template <class Row, class Field, class Fn>
auto visit_field(Row& row, const Field& f, Fn&& fn) {
  return std::visit([&](auto p) { return fn(member_of(row, p)); }, f.member);
}

template <class V>
inline constexpr bool kIsText = std::is_same_v<V, std::string>;

}  // namespace detail

/// One field's value as a JSON value. Integers print exactly and a bool
/// prints as 0/1, as in the CSV.
template <class Row, class Field>
std::string field_json(const Row& row, const Field& f) {
  return detail::visit_field(row, f, [](const auto& v) -> std::string {
    using V = std::decay_t<decltype(v)>;
    if constexpr (detail::kIsText<V>) {
      return '"' + json_escape(v) + '"';
    } else if constexpr (std::is_same_v<V, double>) {
      return json_double(v);
    } else {
      return std::to_string(v);
    }
  });
}

/// One field's value as a CSV cell (strings raw, doubles at the field's
/// precision).
template <class Row, class Field>
std::string field_csv(const Row& row, const Field& f) {
  return detail::visit_field(row, f, [&f](const auto& v) -> std::string {
    using V = std::decay_t<decltype(v)>;
    if constexpr (detail::kIsText<V>) {
      return v;
    } else if constexpr (std::is_same_v<V, double>) {
      return fmt_double(v, f.csv_precision);
    } else {
      return std::to_string(v);
    }
  });
}

/// Reads one field from a parsed JSON object; an absent key leaves the
/// zero value. Fails closed: returns false when an integer field holds
/// anything but a plain non-negative integer that fits the member.
template <class Row, class Field>
bool parse_field(const JsonValue& obj, const Field& f, Row& row) {
  return detail::visit_field(row, f, [&](auto& v) {
    using V = std::decay_t<decltype(v)>;
    if constexpr (detail::kIsText<V>) {
      v = obj.get_string(f.key);
    } else if constexpr (std::is_same_v<V, double>) {
      v = obj.get_number(f.key);
    } else if constexpr (std::is_same_v<V, bool>) {
      v = obj.get_number(f.key) != 0;
    } else {
      std::uint64_t exact = 0;
      if (!obj.get_u64(f.key, exact) ||
          exact > std::numeric_limits<V>::max()) {
        return false;
      }
      v = static_cast<V>(exact);
    }
    return true;
  });
}

/// The groups with at least one nonzero field in `r`, plus kBase: the
/// gates of r's journal line.
inline FieldGates nonzero_groups(const RunResult& r) {
  FieldGates gates = gate_bit(FieldGroup::kBase);
  for (const RunField& f : kRunFields) {
    const bool nonzero = detail::visit_field(r, f, [](const auto& v) {
      if constexpr (detail::kIsText<std::decay_t<decltype(v)>>) {
        return !v.empty();
      } else {
        return v != 0;
      }
    });
    if (nonzero) gates |= gate_bit(f.group);
  }
  return gates;
}

}  // namespace bb::sim
