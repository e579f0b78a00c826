#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "collection/collection.h"
#include "stats/operator_costs.h"

namespace fsdm::collection {
namespace {

/// Detection oracle for CheckConsistency(): each case detaches a collection
/// and then applies DML straight to a shard's table, so the table and its
/// side structures diverge in one known way, and pins the exact problem
/// strings the check must report. Runs at 1 and 4 shards, indexed and
/// unindexed. Problems compare as sorted lists: the strings are the
/// contract, their order within one report is not.

struct Layout {
  size_t shards;
  bool indexed;
};

std::string LayoutName(const Layout& layout) {
  return std::to_string(layout.shards) + "Shards" +
         (layout.indexed ? "Indexed" : "Unindexed");
}

void PrintTo(const Layout& layout, std::ostream* os) {
  *os << LayoutName(layout);
}

class ConsistencyOracleTest : public ::testing::TestWithParam<Layout> {
 protected:
  void SetUp() override {
    stats::OperatorCostModel::Global().Reset();
    CollectionOptions options;
    options.shard_count = GetParam().shards;
    options.attach_search_index = GetParam().indexed;
    auto created = JsonCollection::Create(&db_, "ORACLE", options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    coll_ = created.MoveValue();
    // Every document lands on the shard key 1 places on, so the other
    // shards stay empty and report nothing.
    shard_ = coll_->ShardForKey(Value::Int64(1));
    const bool sharded = GetParam().shards > 1;
    for (int64_t k = 1; keys_.size() < 3 || (sharded && other_key_ == 0);
         ++k) {
      if (coll_->ShardForKey(Value::Int64(k)) == shard_) {
        if (keys_.size() < 3) keys_.push_back(k);
      } else if (other_key_ == 0) {
        other_key_ = k;
      }
    }
    ASSERT_TRUE(coll_->Insert(Value::Int64(keys_[0]), "{\"a\":1}").ok());
    ASSERT_TRUE(coll_->Insert(Value::Int64(keys_[1]), "{\"a\":2}").ok());
    ConsistencyReport before = coll_->CheckConsistency();
    ASSERT_TRUE(before.consistent) << before.ToString();
  }

  /// From here on DML on the shard's table maintains nothing.
  rdbms::Table* Detached() {
    coll_->Detach();
    return coll_->shard(shard_)->table();
  }

  /// `lines` with the shard prefix a sharded collection's report carries.
  std::vector<std::string> Prefixed(std::vector<std::string> lines) const {
    if (GetParam().shards > 1) {
      for (std::string& line : lines) {
        line = "shard " + std::to_string(shard_) + ": " + line;
      }
    }
    return lines;
  }

  /// Indexed-only lines then lines every layout reports.
  std::vector<std::string> Expected(std::vector<std::string> index_lines,
                                    std::vector<std::string> common) const {
    std::vector<std::string> want =
        GetParam().indexed ? std::move(index_lines)
                           : std::vector<std::string>{};
    want.insert(want.end(), common.begin(), common.end());
    return Prefixed(std::move(want));
  }

  void ExpectProblems(std::vector<std::string> want) const {
    ConsistencyReport report = coll_->CheckConsistency();
    std::vector<std::string> got = report.problems;
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << report.ToString();
    EXPECT_EQ(report.consistent, want.empty());
  }

  /// What a third, unindexed {"a":3} on the shard makes the check report.
  std::vector<std::string> KnownPathInsertProblems() const {
    return Expected(
        {"index reports 2 indexed documents, table holds 3",
         "posting $: index has 2 docs, table implies 3",
         "posting $.a: index has 2 docs, table implies 3",
         "posting $.a=3: index has 0 docs, table implies 1"},
        {"DataGuide path $ frequency 2 < observed 3",
         "DataGuide path $.a frequency 2 < observed 3"});
  }

  rdbms::Database db_;
  std::unique_ptr<JsonCollection> coll_;
  size_t shard_ = 0;
  std::vector<int64_t> keys_;  // keys that place on shard_
  int64_t other_key_ = 0;      // a key placing elsewhere (sharded only)
};

TEST_P(ConsistencyOracleTest, InsertWithNewPath) {
  ASSERT_TRUE(Detached()
                  ->Insert({Value::Int64(keys_[2]),
                            Value::String("{\"b\":7}")})
                  .ok());
  ExpectProblems(Expected(
      {"index reports 2 indexed documents, table holds 3",
       "posting $: index has 2 docs, table implies 3",
       "posting $.b: index has 0 docs, table implies 1",
       "posting $.b=7: index has 0 docs, table implies 1"},
      {"DataGuide missing path $.b (number)",
       "DataGuide path $ frequency 2 < observed 3"}));
}

TEST_P(ConsistencyOracleTest, InsertOnKnownPath) {
  ASSERT_TRUE(Detached()
                  ->Insert({Value::Int64(keys_[2]),
                            Value::String("{\"a\":3}")})
                  .ok());
  ExpectProblems(KnownPathInsertProblems());
}

TEST_P(ConsistencyOracleTest, DeleteLeavesSpuriousPostings) {
  ASSERT_TRUE(Detached()->Delete(0).ok());
  // The guide is additive, so an unindexed shard has nothing to report.
  ExpectProblems(Expected(
      {"index reports 2 indexed documents, table holds 1",
       "posting $: index has 2 docs, table implies 1",
       "posting $.a: index has 2 docs, table implies 1",
       "posting $.a=1: index has 1 docs, table implies 0 (spurious)"},
      {}));
}

TEST_P(ConsistencyOracleTest, ReplaceMovesTheValueKeyBothWays) {
  ASSERT_TRUE(Detached()
                  ->Replace(0, {Value::Int64(keys_[0]),
                                Value::String("{\"a\":9}")})
                  .ok());
  ExpectProblems(Expected(
      {"posting $.a=1: index has 1 docs, table implies 0 (spurious)",
       "posting $.a=9: index has 0 docs, table implies 1"},
      {}));
}

TEST_P(ConsistencyOracleTest, InsertAfterPopulateMissesTheImcInvalidation) {
  ASSERT_TRUE(coll_->PopulateImc().ok());
  ASSERT_TRUE(Detached()
                  ->Insert({Value::Int64(keys_[2]),
                            Value::String("{\"a\":3}")})
                  .ok());
  std::vector<std::string> want = KnownPathInsertProblems();
  want.push_back(Prefixed(
      {"IMC holds 2 rows but table holds 3 live rows (missed invalidation)"})
                     .front());
  ExpectProblems(want);
}

TEST_P(ConsistencyOracleTest, RowOnTheWrongShard) {
  if (GetParam().shards == 1) GTEST_SKIP() << "placement needs >1 shard";
  ASSERT_TRUE(Detached()
                  ->Insert({Value::Int64(other_key_),
                            Value::String("{\"a\":3}")})
                  .ok());
  std::vector<std::string> want = KnownPathInsertProblems();
  want.push_back(Prefixed({"document with key " +
                           std::to_string(other_key_) + " belongs on shard " +
                           std::to_string(coll_->ShardForKey(
                               Value::Int64(other_key_))) +
                           " by placement hash"})
                     .front());
  ExpectProblems(want);
}

INSTANTIATE_TEST_SUITE_P(Layouts, ConsistencyOracleTest,
                         ::testing::Values(Layout{1, true}, Layout{1, false},
                                           Layout{4, true}, Layout{4, false}),
                         [](const ::testing::TestParamInfo<Layout>& info) {
                           return LayoutName(info.param);
                         });

}  // namespace
}  // namespace fsdm::collection
