#include "stats/path_stats.h"

#include <string>

#include <gtest/gtest.h>

#include "common/value.h"

namespace fsdm::stats {
namespace {

// Feeds documents through the ScalarSink interface the way a DataGuide
// applying staged documents does: OnScalar per scalar node, with its path
// id and display, then OnDocumentEnd per document.
class PathStatsTest : public ::testing::Test {
 protected:
  void Scalar(const std::string& path, bool under_array, const Value& v) {
    dataguide::StagedNode node;
    node.path = paths_.Intern(path);
    node.under_array = under_array;
    node.value = v;
    if (!v.is_null() && v.type() != ScalarType::kString) {
      node.display = v.ToDisplayString();
    }
    repo_.OnScalar(node);
  }

  void Doc(std::initializer_list<std::pair<std::string, Value>> scalars) {
    for (const auto& [path, v] : scalars) {
      Scalar(path, /*under_array=*/false, v);
    }
    repo_.OnDocumentEnd();
  }

  // The repository is indexed by the ids of the feeding guide's dictionary;
  // a path never fed resolves to kNoPath.
  dataguide::PathId Id(const std::string& path) const {
    return paths_.Find(path);
  }

  dataguide::PathDictionary paths_;
  PathStatsRepository repo_;
};

TEST_F(PathStatsTest, DocFrequencyCountsDocumentsNotOccurrences) {
  // Two occurrences of $.a in one document must count one document.
  Scalar("$.a", false, Value::Int64(1));
  Scalar("$.a", true, Value::Int64(2));
  repo_.OnDocumentEnd();
  Doc({{"$.a", Value::Int64(3)}, {"$.b", Value::String("x")}});

  const PathStats* a = repo_.Find(Id("$.a"));
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->doc_frequency, 2u);
  EXPECT_EQ(a->value_count, 3u);
  EXPECT_EQ(repo_.docs_seen(), 2u);
  EXPECT_EQ(repo_.Find(Id("$.b"))->doc_frequency, 1u);
}

TEST_F(PathStatsTest, ExistenceSelectivity) {
  // No documents at all: unknown — caller falls back to the DataGuide.
  EXPECT_FALSE(repo_.ExistenceSelectivity(Id("$.a")).has_value());

  Doc({{"$.a", Value::Int64(1)}});
  Doc({{"$.a", Value::Int64(2)}});
  Doc({{"$.b", Value::Int64(3)}});
  Doc({{"$.b", Value::Int64(4)}});

  EXPECT_DOUBLE_EQ(*repo_.ExistenceSelectivity(Id("$.a")), 0.5);
  // Known-absent path: confidently zero, not "unknown".
  EXPECT_DOUBLE_EQ(*repo_.ExistenceSelectivity(Id("$.nope")), 0.0);
}

TEST_F(PathStatsTest, MinMaxAndNdv) {
  for (int i = 0; i < 20; ++i) {
    Doc({{"$.n", Value::Int64(i % 5)}});
  }
  const PathStats* n = repo_.Find(Id("$.n"));
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->min_value->ToDisplayString(), "0");
  EXPECT_EQ(n->max_value->ToDisplayString(), "4");
  EXPECT_NEAR(repo_.NdvEstimate(Id("$.n")), 5.0, 1.0);
  EXPECT_EQ(repo_.NdvEstimate(Id("$.unknown")), 0.0);
}

TEST_F(PathStatsTest, AllNullPathHasNoValueStats) {
  // Edge case: a path that only ever held JSON null. Nulls count as nulls,
  // not values; no min/max, no NDV, no histogram.
  for (int i = 0; i < 3; ++i) Doc({{"$.gone", Value::Null()}});

  const PathStats* s = repo_.Find(Id("$.gone"));
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->doc_frequency, 3u);
  EXPECT_EQ(s->null_count, 3u);
  EXPECT_EQ(s->value_count, 0u);
  EXPECT_FALSE(s->min_value.has_value());
  EXPECT_FALSE(s->max_value.has_value());
  EXPECT_EQ(s->ndv.Estimate(), 0.0);
  EXPECT_EQ(s->histogram.total(), 0u);
  // The path still exists in every document that carried the null.
  EXPECT_DOUBLE_EQ(*repo_.ExistenceSelectivity(Id("$.gone")), 1.0);
}

TEST_F(PathStatsTest, HistogramSingleValuePath) {
  // Edge case: a numeric path holding one constant. The frozen range is
  // degenerate ([c, c]); FractionBelow must behave as a step function.
  for (int i = 0; i < 200; ++i) Doc({{"$.c", Value::Int64(42)}});

  const PathStats* s = repo_.Find(Id("$.c"));
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->histogram.total(), 200u);
  EXPECT_TRUE(s->histogram.frozen());
  EXPECT_DOUBLE_EQ(s->histogram.FractionBelow(41.0, true), 0.0);
  EXPECT_DOUBLE_EQ(s->histogram.FractionBelow(42.0, false), 0.0);
  EXPECT_DOUBLE_EQ(s->histogram.FractionBelow(42.0, true), 1.0);
  EXPECT_DOUBLE_EQ(s->histogram.FractionBelow(43.0, false), 1.0);
}

TEST_F(PathStatsTest, HistogramFractionsApproximateUniformData) {
  // 0..999 uniform, scrambled so the 64-value seed spans the range (a
  // sorted stream freezes on its prefix — the clamp staleness covered by
  // OutOfRangeValuesClampIntoEdgeBuckets): FractionBelow(250) ~ 0.25.
  for (int i = 0; i < 1000; ++i) {
    Doc({{"$.u", Value::Int64(i * 617 % 1000)}});
  }
  const ValueHistogram& h = repo_.Find(Id("$.u"))->histogram;
  EXPECT_TRUE(h.frozen());
  EXPECT_EQ(h.total(), 1000u);
  EXPECT_NEAR(h.FractionBelow(250.0, false), 0.25, 0.08);
  EXPECT_NEAR(h.FractionBelow(500.0, false), 0.50, 0.08);
  EXPECT_NEAR(h.FractionBelow(750.0, false), 0.75, 0.08);
  EXPECT_DOUBLE_EQ(h.FractionBelow(-1.0, true), 0.0);
  EXPECT_DOUBLE_EQ(h.FractionBelow(2000.0, true), 1.0);
}

TEST_F(PathStatsTest, HistogramExactWhileBuffering) {
  // Below the seed capacity the histogram answers from the exact buffer.
  for (int i = 0; i < 10; ++i) Doc({{"$.x", Value::Int64(i)}});
  const ValueHistogram& h = repo_.Find(Id("$.x"))->histogram;
  EXPECT_FALSE(h.frozen());
  EXPECT_DOUBLE_EQ(h.FractionBelow(5.0, false), 0.5);
  EXPECT_DOUBLE_EQ(h.FractionBelow(5.0, true), 0.6);
}

TEST_F(PathStatsTest, OutOfRangeValuesClampIntoEdgeBuckets) {
  // Freeze on [0, 99], then feed far-out values: totals keep counting and
  // the cumulative fractions stay monotone (documented staleness).
  for (int i = 0; i < 100; ++i) Doc({{"$.y", Value::Int64(i)}});
  for (int i = 0; i < 50; ++i) Doc({{"$.y", Value::Int64(100000)}});
  const ValueHistogram& h = repo_.Find(Id("$.y"))->histogram;
  EXPECT_EQ(h.total(), 150u);
  const double below_hi = h.FractionBelow(99.0, true);
  EXPECT_GT(below_hi, 0.5);
  EXPECT_LE(below_hi, 1.0);
  EXPECT_DOUBLE_EQ(h.FractionBelow(1e9, true), 1.0);
}

TEST_F(PathStatsTest, NonNumericValuesSkipHistogramButCountNdv) {
  Doc({{"$.s", Value::String("alpha")}});
  Doc({{"$.s", Value::String("beta")}});
  Doc({{"$.s", Value::String("alpha")}});
  const PathStats* s = repo_.Find(Id("$.s"));
  EXPECT_EQ(s->histogram.total(), 0u);
  EXPECT_EQ(s->value_count, 3u);
  EXPECT_NEAR(s->ndv.Estimate(), 2.0, 0.5);
  EXPECT_EQ(s->min_value->ToDisplayString(), "alpha");
  EXPECT_EQ(s->max_value->ToDisplayString(), "beta");
}

// MemoryBytes() is a running total a snapshot thread may poll; it must
// always equal the walk, through slot growth, histogram freezing (which
// shrinks the heap) and Clear().
TEST_F(PathStatsTest, MemoryBytesMatchesRecomputeAcrossScalarsAndClear) {
  EXPECT_EQ(repo_.MemoryBytes(), 0u);
  for (int i = 0; i < 2 * static_cast<int>(ValueHistogram::kSeedCapacity);
       ++i) {
    Doc({{"$.n", Value::Int64(i)},
         {"$.s", Value::String("v" + std::to_string(i % 5))},
         {"$.z", Value::Null()}});
    ASSERT_EQ(repo_.MemoryBytes(), repo_.RecomputeMemoryBytes()) << i;
  }
  ASSERT_TRUE(repo_.Find(Id("$.n"))->histogram.frozen());
  Doc({{"$.late.path", Value::Double(1.5)}});
  EXPECT_EQ(repo_.MemoryBytes(), repo_.RecomputeMemoryBytes());
  EXPECT_GT(repo_.MemoryBytes(), 0u);

  repo_.Clear();
  EXPECT_EQ(repo_.MemoryBytes(), 0u);
  EXPECT_EQ(repo_.MemoryBytes(), repo_.RecomputeMemoryBytes());
  Doc({{"$.n", Value::Int64(1)}});
  EXPECT_EQ(repo_.MemoryBytes(), repo_.RecomputeMemoryBytes());
}

TEST_F(PathStatsTest, ClearResetsEverything) {
  Doc({{"$.a", Value::Int64(1)}});
  repo_.Clear();
  EXPECT_EQ(repo_.docs_seen(), 0u);
  EXPECT_EQ(repo_.Find(Id("$.a")), nullptr);
  EXPECT_FALSE(repo_.ExistenceSelectivity(Id("$.a")).has_value());
}

}  // namespace
}  // namespace fsdm::stats
