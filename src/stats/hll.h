#ifndef FSDM_STATS_HLL_H_
#define FSDM_STATS_HLL_H_

#include <array>
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
  double Estimate() const;

  /// Register-wise max. After Merge(other), Estimate() equals that of a
  /// sketch fed the union of both input streams.
  void Merge(const Hll& other);

  void Clear() { registers_.fill(0); }

  /// Register values (exposed for tests).
  const std::array<uint8_t, kRegisters>& registers() const {
    return registers_;
  }

 private:
  std::array<uint8_t, kRegisters> registers_{};
};

}  // namespace fsdm::stats

#endif  // FSDM_STATS_HLL_H_
