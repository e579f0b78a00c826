#include "stats/hll.h"

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

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

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Estimate() caches its sum; after every kind of mutation the cached value
// must be the bits a fresh sum of the registers gives.
TEST(HllTest, CachedEstimateFollowsEveryMutation) {
  Hll a;
  EXPECT_EQ(Bits(a.Estimate()), Bits(LdexpEstimate(a)));  // empty, cached

  // An Add that raises a register: a fresh sketch's first value always
  // does.
  a.Add("first");
  EXPECT_EQ(Bits(a.Estimate()), Bits(LdexpEstimate(a)));
  EXPECT_EQ(Bits(a.Estimate()), Bits(LdexpEstimate(a)));  // from the cache

  // An Add that raises none: a duplicate leaves the registers as they are.
  Feed(&a, 5, 300);
  const double before = a.Estimate();
  const std::array<uint8_t, Hll::kRegisters> registers = a.registers();
  a.Add("v5-17");
  ASSERT_EQ(a.registers(), registers);
  EXPECT_EQ(Bits(a.Estimate()), Bits(before));
  EXPECT_EQ(Bits(a.Estimate()), Bits(LdexpEstimate(a)));

  // Merge raises registers without an Add.
  Hll b;
  Feed(&b, 6, 2000);
  a.Merge(b);
  EXPECT_EQ(Bits(a.Estimate()), Bits(LdexpEstimate(a)));

  // Copy and assignment: the target reads its new registers, not a stale
  // cache of its old ones.
  Hll copy(a);
  EXPECT_EQ(Bits(copy.Estimate()), Bits(LdexpEstimate(a)));
  Hll assigned;
  Feed(&assigned, 7, 10);
  EXPECT_EQ(Bits(assigned.Estimate()), Bits(LdexpEstimate(assigned)));
  assigned = b;
  EXPECT_EQ(Bits(assigned.Estimate()), Bits(LdexpEstimate(b)));

  a.Clear();
  EXPECT_EQ(a.Estimate(), 0.0);
  EXPECT_EQ(Bits(a.Estimate()), Bits(LdexpEstimate(a)));
}

// Readers only: two threads fill and read the caches of the same sketches
// at once, as a TELEMETRY$PATH_STATS scan may beside routed reads. Both
// must see the fresh sum, and the TSan build must see no race.
TEST(HllTest, ConcurrentEstimatesAgree) {
  std::vector<Hll> sketches(64);
  std::vector<double> want;
  for (size_t i = 0; i < sketches.size(); ++i) {
    Feed(&sketches[i], 100 + i, 40 * i);
    want.push_back(LdexpEstimate(sketches[i]));
  }
  auto read_all = [&](std::vector<uint64_t>* got) {
    for (const Hll& h : sketches) got->push_back(Bits(h.Estimate()));
  };
  std::vector<uint64_t> got_a;
  std::vector<uint64_t> got_b;
  std::thread other(read_all, &got_b);
  read_all(&got_a);
  other.join();
  ASSERT_EQ(got_a.size(), want.size());
  ASSERT_EQ(got_b.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got_a[i], Bits(want[i])) << i;
    EXPECT_EQ(got_b[i], Bits(want[i])) << i;
  }
}

}  // namespace
}  // namespace fsdm::stats
