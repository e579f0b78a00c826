#include "stats/hll.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

namespace fsdm::stats {
namespace {

// Deterministic seeded stream: distinct values "v<seed>-<i>". The sketch
// hashes display forms, so distinct strings are distinct values.
void Feed(Hll* hll, uint64_t seed, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    hll->Add("v" + std::to_string(seed) + "-" + std::to_string(i));
  }
}

TEST(HllTest, EmptyEstimatesZero) {
  Hll hll;
  EXPECT_EQ(hll.Estimate(), 0.0);
}

TEST(HllTest, SmallCardinalitiesAreNearExact) {
  // Linear counting regime: with 1024 registers and a handful of values
  // the estimate rounds to the exact count.
  for (size_t n : {1u, 2u, 5u, 10u, 50u, 100u}) {
    Hll hll;
    Feed(&hll, 7, n);
    EXPECT_NEAR(hll.Estimate(), static_cast<double>(n),
                std::max(1.0, 0.02 * static_cast<double>(n)))
        << "n=" << n;
  }
}

// The estimator as first written: one std::ldexp per register.
double LdexpEstimate(const Hll& hll) {
  constexpr double m = static_cast<double>(Hll::kRegisters);
  constexpr double alpha = 0.7213 / (1.0 + 1.079 / m);
  double inverse_sum = 0.0;
  size_t zeros = 0;
  for (uint8_t r : hll.registers()) {
    inverse_sum += std::ldexp(1.0, -static_cast<int>(r));
    if (r == 0) ++zeros;
  }
  const double raw = alpha * m * m / inverse_sum;
  if (raw <= 2.5 * m && zeros > 0) {
    return m * std::log(m / static_cast<double>(zeros));
  }
  return raw;
}

TEST(HllTest, EstimateIsBitIdenticalToLdexpFormula) {
  // Empty, small-range (linear counting) and large (raw HLL) sketches, plus
  // one with registers at the maximum rank.
  for (size_t n : {0u, 3u, 40u, 700u, 5000u, 60000u}) {
    Hll hll;
    Feed(&hll, 11 + n, n);
    EXPECT_EQ(std::bit_cast<uint64_t>(hll.Estimate()),
              std::bit_cast<uint64_t>(LdexpEstimate(hll)))
        << "n=" << n;
  }
  Hll extreme;
  extreme.AddHash(0);
  for (uint64_t i = 1; i < 4000; ++i) extreme.AddHash(i * 0x9e3779b97f4a7c15ull);
  EXPECT_EQ(std::bit_cast<uint64_t>(extreme.Estimate()),
            std::bit_cast<uint64_t>(LdexpEstimate(extreme)));
}

TEST(HllTest, DuplicatesDoNotInflateTheEstimate) {
  Hll hll;
  for (int pass = 0; pass < 10; ++pass) Feed(&hll, 3, 200);
  EXPECT_NEAR(hll.Estimate(), 200.0, 10.0);
}

TEST(HllTest, LargeStreamsStayWithinDocumentedErrorBound) {
  // The documented relative standard error is 1.04/sqrt(m) = 3.25%. Allow
  // 4 sigma on several independent seeded streams — loose enough to be
  // robust, tight enough to catch a broken rank computation (which is off
  // by factors, not percent).
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    for (size_t n : {1000u, 10000u, 50000u}) {
      Hll hll;
      Feed(&hll, seed, n);
      const double est = hll.Estimate();
      const double rel = std::abs(est - static_cast<double>(n)) /
                         static_cast<double>(n);
      EXPECT_LT(rel, 4 * Hll::kStdError) << "seed=" << seed << " n=" << n
                                         << " est=" << est;
    }
  }
}

TEST(HllTest, EstimateIsDeterministic) {
  Hll a, b;
  Feed(&a, 11, 5000);
  Feed(&b, 11, 5000);
  EXPECT_EQ(a.Estimate(), b.Estimate());
}

TEST(HllTest, MergeEqualsUnionOfStreams) {
  // Overlapping streams: A holds [0, 6000), B holds [4000, 10000) of the
  // same value universe. The merged sketch must equal a sketch fed the
  // union directly — register-wise max is exact, not approximate.
  Hll a, b, u;
  for (size_t i = 0; i < 6000; ++i) a.Add("u-" + std::to_string(i));
  for (size_t i = 4000; i < 10000; ++i) b.Add("u-" + std::to_string(i));
  for (size_t i = 0; i < 10000; ++i) u.Add("u-" + std::to_string(i));

  a.Merge(b);
  EXPECT_EQ(a.Estimate(), u.Estimate());
  const double rel = std::abs(a.Estimate() - 10000.0) / 10000.0;
  EXPECT_LT(rel, 4 * Hll::kStdError);
}

TEST(HllTest, MergeWithEmptyIsIdentity) {
  Hll a, empty;
  Feed(&a, 9, 300);
  const double before = a.Estimate();
  a.Merge(empty);
  EXPECT_EQ(a.Estimate(), before);
}

TEST(HllTest, ClearResets) {
  Hll hll;
  Feed(&hll, 1, 100);
  hll.Clear();
  EXPECT_EQ(hll.Estimate(), 0.0);
}

}  // namespace
}  // namespace fsdm::stats
