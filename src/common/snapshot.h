// bb::snap — versioned, CRC32-protected binary serialization of in-flight
// simulator state (the crash-tolerance layer; DESIGN.md §15).
//
// A snapshot file is:
//
//   magic "BBSNAP01" (8 B) | u32 format version | u64 payload bytes |
//   u32 payload CRC32 | payload
//
// all little-endian. The payload is a sequence of type-tagged primitives
// (one tag byte before every value), so a reader that drifts out of sync
// with its writer fails loudly at the first mismatched tag instead of
// silently reinterpreting bytes. Save/load methods across the tree keep
// their put_*/get_* sequences in mirror order; tools/bb_analyze's
// snapshot-schema rule enforces that parity statically.
//
// Error contract (matches bb::cli): a corrupt, truncated or
// version-mismatched snapshot throws SnapshotError, a
// std::ios_base::failure — exit code 3, fail closed. Commits are atomic:
// the file is written to `path + ".tmp"` and renamed into place, so a
// crash mid-write can never leave a torn snapshot under the final name.
#pragma once

#include <cstring>
#include <ios>
#include <string>

#include "common/types.h"

namespace bb::snap {

/// Corrupt, truncated or incompatible snapshot (never a usage error).
class SnapshotError : public std::ios_base::failure {
 public:
  explicit SnapshotError(const std::string& what)
      : std::ios_base::failure("snapshot: " + what) {}
};

/// Bumped whenever a payload layout changes (2: per-core slices carry two
/// device byte totals instead of per-traffic-class arrays).
inline constexpr u32 kFormatVersion = 2;

/// Payload type tags (one byte preceding every value).
enum class Tag : u8 {
  kU8 = 1,
  kU32 = 2,
  kU64 = 3,
  kI64 = 4,
  kF64 = 5,
  kStr = 6,
};

/// Accumulates a payload in memory; commit() seals and atomically writes
/// the container file.
class Writer {
 public:
  void put_u8(u8 v) {
    tag(Tag::kU8);
    buf_.push_back(static_cast<char>(v));
  }
  void put_u32(u32 v) {
    tag(Tag::kU32);
    raw_u64(v, 4);
  }
  void put_u64(u64 v) {
    tag(Tag::kU64);
    raw_u64(v, 8);
  }
  void put_i64(i64 v) {
    tag(Tag::kI64);
    raw_u64(static_cast<u64>(v), 8);
  }
  void put_f64(double v) {
    tag(Tag::kF64);
    u64 bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    raw_u64(bits, 8);
  }
  void put_str(const std::string& s);

  const std::string& payload() const { return buf_; }

  /// Writes magic/version/size/CRC + payload to `path + ".tmp"`, then
  /// renames over `path`. Throws std::ios_base::failure on I/O errors.
  /// Honors the BB_TEST_KILL_AFTER_SNAPSHOTS / BB_TEST_KILL_MID_WRITE
  /// environment hooks (see snapshot.cpp) used by the kill-and-resume
  /// supervisor test.
  void commit(const std::string& path) const;

 private:
  void tag(Tag t) { buf_.push_back(static_cast<char>(t)); }
  void raw_u64(u64 v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }

  std::string buf_;
};

/// Opens and verifies a snapshot file, then yields its typed values in
/// writer order. Every structural problem throws SnapshotError.
class Reader {
 public:
  explicit Reader(const std::string& path);

  u8 get_u8() {
    tag(Tag::kU8);
    return static_cast<u8>(take(1)[0]);
  }
  u32 get_u32() {
    tag(Tag::kU32);
    return static_cast<u32>(raw_u64(4));
  }
  u64 get_u64() {
    tag(Tag::kU64);
    return raw_u64(8);
  }
  i64 get_i64() {
    tag(Tag::kI64);
    return static_cast<i64>(raw_u64(8));
  }
  double get_f64() {
    tag(Tag::kF64);
    const u64 bits = raw_u64(8);
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string get_str();

  /// True when every payload byte has been consumed (restores verify this
  /// so a short read cannot pass silently).
  bool at_end() const { return pos_ == buf_.size(); }

 private:
  void tag(Tag expect);
  const char* take(std::size_t n);
  u64 raw_u64(int bytes) {
    const char* p = take(static_cast<std::size_t>(bytes));
    u64 v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<u64>(static_cast<u8>(p[i])) << (8 * i);
    }
    return v;
  }

  std::string buf_;  ///< payload only (header verified in the ctor)
  std::size_t pos_ = 0;
};

/// True when `path` exists (a plain stat probe; no directory iteration).
bool file_exists(const std::string& path);

/// Writes `content` to `path` atomically: `path + ".tmp"` then rename.
/// The crash-atomicity primitive behind every output artifact (CSV, JSON,
/// epoch CSV, event trace, BENCH files, journal rewrites). Throws
/// std::ios_base::failure on any I/O error.
void write_file_atomic(const std::string& path, const std::string& content);

}  // namespace bb::snap
