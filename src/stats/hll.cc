#include "stats/hll.h"

#include <cmath>

#include "common/hash.h"

namespace fsdm::stats {

namespace {

// FNV-1a's high bits barely avalanche on short sequential keys (the
// bucket index below reads the TOP p bits), so finalize with the murmur3
// fmix64 mixer before splitting the hash.
uint64_t Mix(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

// 2^-r for every register value r (0..64-p+1). Each entry is exact, so
// summing the table is bit-identical to summing std::ldexp(1.0, -r).
constexpr int kMaxRank = 64 - Hll::kPrecision + 1;
constexpr std::array<double, kMaxRank + 1> kInversePowers = [] {
  std::array<double, kMaxRank + 1> powers{};
  double p = 1.0;
  for (double& entry : powers) {
    entry = p;
    p /= 2.0;
  }
  return powers;
}();

}  // namespace

void Hll::Add(std::string_view canonical) { AddHash(Hash64(canonical)); }

void Hll::AddHash(uint64_t hash) {
  hash = Mix(hash);
  const size_t idx = static_cast<size_t>(hash >> (64 - kPrecision));
  // Rank of the first set bit in the remaining 64-p bits (1-based); an
  // all-zero suffix ranks 64-p+1.
  uint64_t rest = hash << kPrecision;
  uint8_t rank = 1;
  while (rank <= 64 - kPrecision && (rest & (uint64_t{1} << 63)) == 0) {
    ++rank;
    rest <<= 1;
  }
  if (rank > registers_[idx]) {
    registers_[idx] = rank;
    MarkStale();
  }
}

double Hll::Estimate() const {
  double estimate = estimate_.load(std::memory_order_relaxed);
  if (estimate == kStale) {
    estimate = Sum();
    estimate_.store(estimate, std::memory_order_relaxed);
  }
  return estimate;
}

double Hll::Sum() const {
  constexpr double m = static_cast<double>(kRegisters);
  // alpha_m for m >= 128 (Flajolet et al., 2007).
  constexpr double alpha = 0.7213 / (1.0 + 1.079 / m);
  double inverse_sum = 0.0;
  size_t zeros = 0;
  for (uint8_t r : registers_) {
    inverse_sum += kInversePowers[r];
    if (r == 0) ++zeros;
  }
  const double raw = alpha * m * m / inverse_sum;
  if (raw <= 2.5 * m && zeros > 0) {
    // Small-range correction: linear counting over the zero registers.
    return m * std::log(m / static_cast<double>(zeros));
  }
  return raw;
}

void Hll::Merge(const Hll& other) {
  for (size_t i = 0; i < kRegisters; ++i) {
    if (other.registers_[i] > registers_[i]) {
      registers_[i] = other.registers_[i];
    }
  }
  MarkStale();
}

}  // namespace fsdm::stats
