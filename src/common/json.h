// Minimal JSON emission and parsing helpers.
//
// The experiment runner exports machine-readable per-run results as JSON
// alongside the flat CSV (write_json / write_csv), and the checkpoint
// journal reads single-line JSON objects back on resume. Both sides stay
// tiny and locale-independent rather than pulling in a library.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace bb {

/// Escapes a string for use inside a JSON string literal (quotes not
/// included). Control characters are \u-escaped per RFC 8259.
std::string json_escape(std::string_view s);

/// Formats a double as a JSON number: shortest representation that
/// round-trips exactly, locale-independent. Non-finite values (which JSON
/// cannot represent) are emitted as null.
std::string json_double(double v);

/// Parsed JSON value. Objects keep keys in a std::map (sorted, so
/// iteration is deterministic); numbers are stored as double, and a plain
/// non-negative integer literal also keeps its exact 64-bit value.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  /// True when the number was written as digits only and fits in 64 bits;
  /// `exact` then holds its value (`number` may have rounded above 2^53).
  bool is_exact_u64 = false;
  std::uint64_t exact = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_null() const { return type == Type::kNull; }
  bool is_object() const { return type == Type::kObject; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
  /// Convenience accessors returning a fallback on type mismatch.
  std::string get_string(const std::string& key,
                         const std::string& fallback = {}) const;
  double get_number(const std::string& key, double fallback = 0.0) const;
  /// Exact unsigned-integer member: an absent key yields 0, a plain
  /// non-negative integer literal that fits in 64 bits yields its value.
  /// Returns false for anything else (a negative, fractional, exponent-form
  /// or out-of-range number, or a non-number), leaving `out` untouched.
  bool get_u64(const std::string& key, std::uint64_t& out) const;
};

/// Parses one JSON document from `text`. Returns false (and fills `error`
/// if non-null) on malformed input or trailing garbage.
bool json_parse(std::string_view text, JsonValue& out,
                std::string* error = nullptr);

}  // namespace bb
