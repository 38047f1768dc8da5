// Field-by-field RunResult comparison for the sim tests.
#pragma once

#include <gtest/gtest.h>

#include "sim/result_fields.h"

namespace bb::sim {

/// Compares every exported field (the field table, so a new field is
/// covered without editing this) plus the per-class byte splits.
inline void expect_identical(const RunResult& a, const RunResult& b) {
  for (const RunField& f : kRunFields) {
    EXPECT_EQ(field_json(a, f), field_json(b, f)) << f.key;
  }
  EXPECT_EQ(a.hbm_class_bytes, b.hbm_class_bytes);
  EXPECT_EQ(a.dram_class_bytes, b.dram_class_bytes);
}

}  // namespace bb::sim
