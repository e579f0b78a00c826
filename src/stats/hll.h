#ifndef FSDM_STATS_HLL_H_
#define FSDM_STATS_HLL_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace fsdm::stats {

/// Small fixed-precision HyperLogLog sketch for per-path NDV estimates
/// (ISSUE 5 tentpole). Precision p = 10 gives 1024 one-byte registers per
/// path; the documented relative standard error of raw HLL at that size is
/// 1.04 / sqrt(1024) ~= 3.25%. Linear counting takes over while most
/// registers are still zero, so the small-cardinality regime most JSON
/// paths live in is near-exact.
///
/// Deterministic by construction: values are hashed with FNV-1a over their
/// canonical display form (the same canonicalization the search index's
/// value postings key on), so the same stream always produces the same
/// estimate — the router determinism test relies on this.
///
/// Estimate() keeps its last result: a sketch whose registers have not
/// changed since is not summed again. An Add that raises a register,
/// Merge, Clear and assignment mark the cached value stale. It sits in a
/// relaxed atomic because a TELEMETRY$PATH_STATS scan may call Estimate()
/// from another session while routed reads call it too; both compute the
/// same bits from the same registers, so either store may win.
class Hll {
 public:
  static constexpr int kPrecision = 10;
  static constexpr size_t kRegisters = size_t{1} << kPrecision;
  /// Documented relative standard error: 1.04 / sqrt(kRegisters).
  static constexpr double kStdError = 0.0325;

  /// Adds one value by its canonical display form.
  void Add(std::string_view canonical);
  /// Adds a pre-computed 64-bit hash (exposed for tests).
  void AddHash(uint64_t hash);

  /// Distinct-count estimate: linear counting while zero registers remain
  /// and the raw estimate is small, bias-corrected raw HLL otherwise.
  /// Cached; bit-identical to summing the registers afresh.
  double Estimate() const;

  /// Register-wise max. After Merge(other), Estimate() equals that of a
  /// sketch fed the union of both input streams.
  void Merge(const Hll& other);

  void Clear() {
    registers_.fill(0);
    MarkStale();
  }

  Hll() = default;
  Hll(const Hll& other) : registers_(other.registers_) {}
  Hll& operator=(const Hll& other) {
    registers_ = other.registers_;
    MarkStale();
    return *this;
  }

  /// Register values (exposed for tests).
  const std::array<uint8_t, kRegisters>& registers() const {
    return registers_;
  }

 private:
  /// Estimate()'s cache while it holds no valid (non-negative) estimate.
  static constexpr double kStale = -1.0;

  void MarkStale() { estimate_.store(kStale, std::memory_order_relaxed); }
  double Sum() const;

  std::array<uint8_t, kRegisters> registers_{};
  mutable std::atomic<double> estimate_{kStale};
};

}  // namespace fsdm::stats

#endif  // FSDM_STATS_HLL_H_
