#include <gtest/gtest.h>

#include "index/search_index.h"
#include "telemetry/telemetry.h"

namespace fsdm::index {
namespace {

using rdbms::ColumnDef;
using rdbms::ColumnType;
using rdbms::Table;

// Regression for the Replace double-count: a document replace used to hit
// the index as an unindex + index pair, reporting one delete and one
// insert (and two maintenance-latency observations). It must report as
// exactly one replace.
TEST(ReplaceTelemetryTest, ReplaceCountsOnceNotAsDeletePlusInsert) {
  auto table = std::make_unique<Table>(
      "PO", std::vector<ColumnDef>{
                {.name = "DID", .type = ColumnType::kNumber},
                {.name = "JDOC",
                 .type = ColumnType::kJson,
                 .check_is_json = true},
            });
  auto idx = JsonSearchIndex::Create(table.get(), "JDOC").MoveValue();
  ASSERT_TRUE(
      table->Insert({Value::Int64(1), Value::String(R"({"a":1})")}).ok());

  telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::Global();
  const uint64_t replaced = reg.CounterValue("fsdm_index_docs_replaced_total");
  const uint64_t indexed = reg.CounterValue("fsdm_index_docs_indexed_total");
  const uint64_t unindexed =
      reg.CounterValue("fsdm_index_docs_unindexed_total");
  const telemetry::Histogram* maintain =
      reg.FindHistogram("fsdm_index_maintain_us");
  ASSERT_NE(maintain, nullptr);  // the insert above must have observed one
  const uint64_t maintain_count = maintain->count();

  ASSERT_TRUE(
      table->Replace(0, {Value::Int64(1), Value::String(R"({"a":2})")}).ok());

  EXPECT_EQ(reg.CounterValue("fsdm_index_docs_replaced_total"), replaced + 1);
  EXPECT_EQ(reg.CounterValue("fsdm_index_docs_indexed_total"), indexed);
  EXPECT_EQ(reg.CounterValue("fsdm_index_docs_unindexed_total"), unindexed);
  // One combined latency observation for the whole replace, not two.
  EXPECT_EQ(maintain->count(), maintain_count + 1);

  // The replace really happened.
  EXPECT_EQ(idx->DocsWithValue("$.a", Value::Int64(2)),
            (std::vector<size_t>{0}));
  EXPECT_TRUE(idx->DocsWithValue("$.a", Value::Int64(1)).empty());
  EXPECT_EQ(idx->indexed_document_count(), 1u);
}

}  // namespace
}  // namespace fsdm::index
