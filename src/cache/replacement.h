// Replacement policies for the set-associative cache model: LRU, SRRIP
// and DRRIP (set-dueling between SRRIP and BRRIP), the policies Table I
// gives its L1, L2 and L3.
//
// A policy owns its per-set recency state; the cache calls back on fills and
// hits and asks for a victim way when a set is full.
#pragma once

#include <memory>
#include <vector>

#include "common/types.h"

namespace bb::snap {
class Reader;
class Writer;
}  // namespace bb::snap

namespace bb::cache {

enum class PolicyKind : u8 { kLru, kSrrip, kBrrip, kDrrip, kRandom };

constexpr const char* to_string(PolicyKind k) {
  switch (k) {
    case PolicyKind::kLru: return "LRU";
    case PolicyKind::kSrrip: return "SRRIP";
    case PolicyKind::kBrrip: return "BRRIP";
    case PolicyKind::kDrrip: return "DRRIP";
    case PolicyKind::kRandom: return "Random";
  }
  return "?";
}

class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  /// Called once; `sets` x `ways` geometry is fixed afterwards.
  virtual void init(u32 sets, u32 ways) = 0;

  /// A new line was installed in (set, way).
  virtual void on_fill(u32 set, u32 way) = 0;

  /// The line in (set, way) was accessed and hit.
  virtual void on_hit(u32 set, u32 way) = 0;

  /// Chooses a victim way in a full set (may age internal state).
  virtual u32 victim(u32 set) = 0;

  virtual PolicyKind kind() const = 0;

  /// Snapshot/restore of the policy's recency state (geometry is fixed by
  /// init() and not serialized).
  virtual void save(snap::Writer& w) const = 0;
  virtual void load(snap::Reader& r) = 0;
};

/// Factory. `seed` feeds any stochastic components (BRRIP, Random).
std::unique_ptr<ReplacementPolicy> make_policy(PolicyKind kind, u64 seed = 1);

/// True-LRU: per-set recency stamps.
class LruPolicy final : public ReplacementPolicy {
 public:
  void init(u32 sets, u32 ways) override;
  void on_fill(u32 set, u32 way) override { touch(set, way); }
  void on_hit(u32 set, u32 way) override { touch(set, way); }
  u32 victim(u32 set) override;
  PolicyKind kind() const override { return PolicyKind::kLru; }
  void save(snap::Writer& w) const override;
  void load(snap::Reader& r) override;

 private:
  void touch(u32 set, u32 way);

  u32 ways_ = 0;
  u64 clock_ = 0;
  std::vector<u64> stamp_;  // sets * ways
};

/// Static re-reference interval prediction with 2-bit RRPVs.
/// `long_insert_prob` < 1 gives BRRIP behaviour (mostly distant insertion).
class RripPolicy final : public ReplacementPolicy {
 public:
  explicit RripPolicy(bool bimodal, u64 seed);

  void init(u32 sets, u32 ways) override;
  void on_fill(u32 set, u32 way) override;
  void on_hit(u32 set, u32 way) override;
  u32 victim(u32 set) override;
  PolicyKind kind() const override {
    return bimodal_ ? PolicyKind::kBrrip : PolicyKind::kSrrip;
  }
  void save(snap::Writer& w) const override;
  void load(snap::Reader& r) override;

 private:
  static constexpr u8 kMaxRrpv = 3;

  bool bimodal_;
  u64 lfsr_;
  u32 ways_ = 0;
  std::vector<u8> rrpv_;  // sets * ways
};

/// DRRIP: set-dueling between SRRIP and BRRIP with a saturating PSEL.
class DrripPolicy final : public ReplacementPolicy {
 public:
  explicit DrripPolicy(u64 seed);

  void init(u32 sets, u32 ways) override;
  void on_fill(u32 set, u32 way) override;
  void on_hit(u32 set, u32 way) override;
  u32 victim(u32 set) override;
  PolicyKind kind() const override { return PolicyKind::kDrrip; }
  void save(snap::Writer& w) const override;
  void load(snap::Reader& r) override;

 private:
  enum class SetRole : u8 { kFollower, kSrripLeader, kBrripLeader };

  SetRole role(u32 set) const;
  bool use_bimodal(u32 set);

  static constexpr u8 kMaxRrpv = 3;
  static constexpr int kPselMax = 1023;

  u64 lfsr_;
  u32 ways_ = 0;
  u32 sets_ = 0;
  int psel_ = kPselMax / 2;
  std::vector<u8> rrpv_;
};

/// Uniform-random victim selection (used in tests as a contrast policy).
class RandomPolicy final : public ReplacementPolicy {
 public:
  explicit RandomPolicy(u64 seed) : lfsr_(seed | 1) {}

  void init(u32 sets, u32 ways) override {
    (void)sets;
    ways_ = ways;
  }
  void on_fill(u32, u32) override {}
  void on_hit(u32, u32) override {}
  u32 victim(u32) override;
  PolicyKind kind() const override { return PolicyKind::kRandom; }
  void save(snap::Writer& w) const override;
  void load(snap::Reader& r) override;

 private:
  u64 lfsr_;
  u32 ways_ = 0;
};

}  // namespace bb::cache
