#include "index/search_index.h"

#include <gtest/gtest.h>

namespace fsdm::index {
namespace {

using rdbms::ColumnDef;
using rdbms::ColumnType;
using rdbms::Table;

constexpr const char* kDoc1 =
    R"({"purchaseOrder":{"id":1,"podate":"2014-09-08",
        "items":[{"name":"smart phone","price":100}]}})";
constexpr const char* kDoc2 =
    R"({"purchaseOrder":{"id":2,"podate":"2015-03-04",
        "items":[{"name":"office chair","price":35.24}]}})";
constexpr const char* kDoc3 =
    R"({"purchaseOrder":{"id":3,"foreign_id":"CDEG35",
        "items":[{"name":"TV","price":345.55}]}})";

std::unique_ptr<Table> MakePo() {
  return std::make_unique<Table>(
      "PO", std::vector<ColumnDef>{
                {.name = "DID", .type = ColumnType::kNumber},
                {.name = "JDOC",
                 .type = ColumnType::kJson,
                 .check_is_json = true},
            });
}

TEST(TokenizerTest, SplitsAndLowercases) {
  EXPECT_EQ(TokenizeKeywords("Smart Phone-2000!"),
            (std::vector<std::string>{"smart", "phone", "2000"}));
  EXPECT_TRUE(TokenizeKeywords("  ,;  ").empty());
}

TEST(SearchIndexTest, IncrementalMaintenanceOnInsert) {
  auto table = MakePo();
  auto idx = JsonSearchIndex::Create(table.get(), "JDOC").MoveValue();

  table->Insert({Value::Int64(1), Value::String(kDoc1)});
  table->Insert({Value::Int64(2), Value::String(kDoc2)});
  table->Insert({Value::Int64(3), Value::String(kDoc3)});

  EXPECT_EQ(idx->indexed_document_count(), 3u);
  EXPECT_EQ(idx->DocsWithPath("$.purchaseOrder.items.name"),
            (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(idx->DocsWithPath("$.purchaseOrder.foreign_id"),
            (std::vector<size_t>{2}));
  EXPECT_TRUE(idx->DocsWithPath("$.nope").empty());
}

TEST(SearchIndexTest, BackfillsExistingRows) {
  auto table = MakePo();
  table->Insert({Value::Int64(1), Value::String(kDoc1)});
  auto idx = JsonSearchIndex::Create(table.get(), "JDOC").MoveValue();
  EXPECT_EQ(idx->indexed_document_count(), 1u);
  EXPECT_EQ(idx->DocsWithPath("$.purchaseOrder.id"),
            (std::vector<size_t>{0}));
}

TEST(SearchIndexTest, ValueAndKeywordLookup) {
  auto table = MakePo();
  auto idx = JsonSearchIndex::Create(table.get(), "JDOC").MoveValue();
  table->Insert({Value::Int64(1), Value::String(kDoc1)});
  table->Insert({Value::Int64(2), Value::String(kDoc2)});

  EXPECT_EQ(idx->DocsWithValue("$.purchaseOrder.id", Value::Int64(2)),
            (std::vector<size_t>{1}));
  EXPECT_TRUE(idx->DocsWithValue("$.purchaseOrder.id", Value::Int64(9))
                  .empty());
  // Keyword search hits inside tokenized strings (full-text, §3.2.1).
  EXPECT_EQ(idx->DocsWithKeyword("$.purchaseOrder.items.name", "PHONE"),
            (std::vector<size_t>{0}));
  EXPECT_EQ(idx->DocsWithKeyword("$.purchaseOrder.items.name",
                                 "office chair"),
            (std::vector<size_t>{1}));
  EXPECT_TRUE(
      idx->DocsWithKeyword("$.purchaseOrder.items.name", "sofa").empty());
}

TEST(SearchIndexTest, DeleteRemovesPostingsButKeepsDataGuide) {
  auto table = MakePo();
  auto idx = JsonSearchIndex::Create(table.get(), "JDOC").MoveValue();
  table->Insert({Value::Int64(1), Value::String(kDoc3)});
  size_t paths_before = idx->dataguide().distinct_path_count();
  ASSERT_TRUE(table->Delete(0).ok());
  EXPECT_TRUE(idx->DocsWithPath("$.purchaseOrder.foreign_id").empty());
  // Additive DataGuide (§3.4): paths survive deletes.
  EXPECT_EQ(idx->dataguide().distinct_path_count(), paths_before);
}

TEST(SearchIndexTest, ReplaceReindexes) {
  auto table = MakePo();
  auto idx = JsonSearchIndex::Create(table.get(), "JDOC").MoveValue();
  table->Insert({Value::Int64(1), Value::String(kDoc1)});
  ASSERT_TRUE(
      table->Replace(0, {Value::Int64(1), Value::String(kDoc3)}).ok());
  EXPECT_EQ(idx->DocsWithPath("$.purchaseOrder.foreign_id"),
            (std::vector<size_t>{0}));
  EXPECT_EQ(idx->DocsWithValue("$.purchaseOrder.id", Value::Int64(3)),
            (std::vector<size_t>{0}));
  EXPECT_TRUE(
      idx->DocsWithValue("$.purchaseOrder.id", Value::Int64(1)).empty());
}

TEST(SearchIndexTest, DgTableHasPaperShape) {
  auto table = MakePo();
  auto idx = JsonSearchIndex::Create(table.get(), "JDOC").MoveValue();
  table->Insert({Value::Int64(1), Value::String(kDoc1)});
  rdbms::Schema schema = idx->DgSchema();
  EXPECT_EQ(schema.columns()[0], "PATH");
  EXPECT_EQ(schema.columns()[1], "TYPE");
  std::vector<rdbms::Row> rows = idx->DgRows();
  ASSERT_FALSE(rows.empty());
  bool found = false;
  for (const rdbms::Row& row : rows) {
    if (row[0].AsString() == "$.purchaseOrder.items.price") {
      EXPECT_EQ(row[1].AsString(), "array of number");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SearchIndexTest, DgWriteCountTracksStructuralNovelty) {
  auto table = MakePo();
  auto idx = JsonSearchIndex::Create(table.get(), "JDOC").MoveValue();
  table->Insert({Value::Int64(1), Value::String(kDoc1)});
  table->Insert({Value::Int64(2), Value::String(kDoc2)});  // same structure
  EXPECT_EQ(idx->dg_write_count(), 1u);
  table->Insert({Value::Int64(3), Value::String(kDoc3)});  // adds foreign_id
  EXPECT_EQ(idx->dg_write_count(), 2u);
}

TEST(SearchIndexTest, GetDataGuideForms) {
  auto table = MakePo();
  auto idx = JsonSearchIndex::Create(table.get(), "JDOC").MoveValue();
  table->Insert({Value::Int64(1), Value::String(kDoc1)});
  EXPECT_EQ(idx->GetDataGuide(false)[0], '[');  // flat = array
  EXPECT_EQ(idx->GetDataGuide(true)[0], '{');   // hierarchical = object
}

TEST(SearchIndexTest, PostingsCanBeDisabled) {
  auto table = MakePo();
  JsonSearchIndex::Options opts;
  opts.maintain_postings = false;
  auto idx =
      JsonSearchIndex::Create(table.get(), "JDOC", opts).MoveValue();
  table->Insert({Value::Int64(1), Value::String(kDoc1)});
  EXPECT_EQ(idx->posting_count(), 0u);
  EXPECT_GT(idx->dataguide().distinct_path_count(), 0u);
}

// A DML that fails after its IS JSON check parsed the document must not
// leave that parse behind: Create()'s back-fill would otherwise index every
// existing row as the failed DML's document.
TEST(SearchIndexTest, FailedDmlLeavesNoParseForBackFill) {
  Table table("STALE", {{.name = "ID", .type = ColumnType::kNumber},
                        {.name = "DOC",
                         .type = ColumnType::kJson,
                         .check_is_json = true},
                        {.name = "X", .type = ColumnType::kNumber}});
  ASSERT_TRUE(table
                  .Insert({Value::Int64(1), Value::String(R"({"a":1})"),
                           Value::Int64(1)})
                  .ok());
  // DOC passes its check; X then fails on its type.
  ASSERT_FALSE(table
                   .Insert({Value::Int64(2), Value::String(R"({"b":2})"),
                            Value::String("not a number")})
                   .ok());
  EXPECT_EQ(table.ParsedJsonForObserver(1), nullptr);
  ASSERT_FALSE(table
                   .Replace(0, {Value::Int64(1), Value::String(R"({"c":3})"),
                                Value::String("not a number")})
                   .ok());
  EXPECT_EQ(table.ParsedJsonForObserver(1), nullptr);

  auto idx = JsonSearchIndex::Create(&table, "DOC").MoveValue();
  EXPECT_EQ(idx->DocsWithPath("$.a"), (std::vector<size_t>{0}));
  EXPECT_TRUE(idx->DocsWithPath("$.b").empty());
  EXPECT_TRUE(idx->DocsWithPath("$.c").empty());
  EXPECT_EQ(idx->indexed_document_count(), 1u);
}

TEST(SearchIndexTest, CreateValidatesColumn) {
  auto table = MakePo();
  EXPECT_FALSE(JsonSearchIndex::Create(table.get(), "NOPE").ok());
  EXPECT_FALSE(JsonSearchIndex::Create(table.get(), "DID").ok());
}


TEST(IndexedScanTest, OneTermScansItsListAndMoreIntersect) {
  auto table = MakePo();
  auto idx = JsonSearchIndex::Create(table.get(), "JDOC").MoveValue();
  table->Insert({Value::Int64(1), Value::String(kDoc1)});
  table->Insert({Value::Int64(2), Value::String(kDoc2)});
  table->Insert({Value::Int64(3), Value::String(kDoc3)});

  auto scan = [&](const std::vector<IndexTerm>& terms,
                  IntersectionInfo* info = nullptr) {
    rdbms::OperatorPtr op = PostingScan(table.get(), idx.get(), terms, info);
    Result<std::vector<rdbms::Row>> rows = rdbms::Collect(op.get());
    EXPECT_TRUE(rows.ok());
    std::vector<int64_t> dids;
    for (const rdbms::Row& r : rows.value()) dids.push_back(r[0].AsInt64());
    return dids;
  };

  // One term: its posting list, unchanged.
  EXPECT_EQ(scan({{"$.purchaseOrder.foreign_id", std::nullopt}}),
            (std::vector<int64_t>{3}));
  EXPECT_EQ(scan({{"$.purchaseOrder.id", Value::Int64(2)}}),
            (std::vector<int64_t>{2}));
  EXPECT_TRUE(scan({{"$.none", std::nullopt}}).empty());
  EXPECT_TRUE(scan({}).empty());

  // Two or more terms: the intersection, whatever the term order.
  IntersectionInfo info;
  EXPECT_EQ(scan({{"$.purchaseOrder.items.name", std::nullopt},
                  {"$.purchaseOrder.podate", std::nullopt}},
                 &info),
            (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(info.total_postings, 5u);
  EXPECT_EQ(info.matched, 2u);
  EXPECT_EQ(scan({{"$.purchaseOrder.podate", std::nullopt},
                  {"$.purchaseOrder.id", Value::Int64(2)},
                  {"$.purchaseOrder.items.price", std::nullopt}},
                 &info),
            (std::vector<int64_t>{2}));
  EXPECT_EQ(info.total_postings, 6u);
  EXPECT_EQ(info.matched, 1u);
  EXPECT_TRUE(scan({{"$.purchaseOrder.foreign_id", std::nullopt},
                    {"$.purchaseOrder.podate", std::nullopt}})
                  .empty());

  // Keyword answers come from the index itself.
  EXPECT_EQ(idx->DocsWithKeyword("$.purchaseOrder.items.name", "chair"),
            (std::vector<size_t>{1}));
}

TEST(IndexedScanTest, SkipsRowsDeletedAfterLookup) {
  auto table = MakePo();
  auto idx = JsonSearchIndex::Create(table.get(), "JDOC").MoveValue();
  table->Insert({Value::Int64(1), Value::String(kDoc1)});
  table->Insert({Value::Int64(2), Value::String(kDoc1)});
  auto one = PostingScan(table.get(), idx.get(),
                         {{"$.purchaseOrder.id", std::nullopt}});
  auto two = PostingScan(table.get(), idx.get(),
                         {{"$.purchaseOrder.id", Value::Int64(1)},
                          {"$.purchaseOrder.podate", std::nullopt}});
  ASSERT_TRUE(table->Delete(0).ok());
  for (rdbms::Operator* scan : {one.get(), two.get()}) {
    Result<std::vector<rdbms::Row>> rows = rdbms::Collect(scan);
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows.value().size(), 1u);
    EXPECT_EQ(rows.value()[0][0].AsInt64(), 2);
  }
}

TEST(SearchIndexTest, NullDocumentsAreSkipped) {
  auto table = MakePo();
  auto idx = JsonSearchIndex::Create(table.get(), "JDOC").MoveValue();
  table->Insert({Value::Int64(1), Value::Null()});
  EXPECT_EQ(idx->indexed_document_count(), 0u);
  EXPECT_EQ(idx->posting_count(), 0u);
}

}  // namespace
}  // namespace fsdm::index
