#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dataguide/dataguide.h"
#include "index/search_index.h"
#include "rdbms/table.h"

/// Posting-list and DataGuide memory accounting (ISSUE 9 satellite). The
/// search index maintains MemoryBytes() incrementally on every posting
/// mutation; the invariant is exact equality with the O(postings)
/// RecomputeMemoryBytes() walk across inserts, replaces, deletes,
/// observer-driven rollbacks and full rebuilds.

namespace fsdm::index {
namespace {

using rdbms::ColumnDef;
using rdbms::ColumnType;
using rdbms::Row;
using rdbms::Table;

std::unique_ptr<Table> MakeDocs() {
  return std::make_unique<Table>(
      "IACCT", std::vector<ColumnDef>{
                   {.name = "DID", .type = ColumnType::kNumber},
                   {.name = "JDOC",
                    .type = ColumnType::kJson,
                    .check_is_json = true},
               });
}

std::string Doc(int i) {
  return "{\"id\":" + std::to_string(i) + ",\"tag\":\"t" +
         std::to_string(i % 3) + "\",\"nested\":{\"k" + std::to_string(i % 7) +
         "\":" + std::to_string(i * 10) + "}}";
}

class VetoObserver final : public rdbms::TableObserver {
 public:
  Status OnInsert(size_t, const Row&) override { return Veto(); }
  Status OnDelete(size_t, const Row&) override { return Veto(); }
  Status OnReplace(size_t, const Row&, const Row&) override { return Veto(); }

 private:
  static Status Veto() { return Status::InvalidArgument("vetoed by test"); }
};

TEST(IndexAccountingTest, DmlMixStaysReconciled) {
  auto table = MakeDocs();
  auto idx = JsonSearchIndex::Create(table.get(), "JDOC").MoveValue();
  EXPECT_EQ(idx->MemoryBytes(), idx->RecomputeMemoryBytes());

  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        table->Insert({Value::Int64(i), Value::String(Doc(i))}).ok());
    ASSERT_EQ(idx->MemoryBytes(), idx->RecomputeMemoryBytes())
        << "after insert " << i;
  }
  EXPECT_GT(idx->MemoryBytes(), 0u);

  // Replace changes the posting shape (different sparse key), delete prunes
  // row ids out of postings.
  ASSERT_TRUE(table
                  ->Replace(4, {Value::Int64(4),
                                Value::String("{\"id\":4,\"other\":true}")})
                  .ok());
  EXPECT_EQ(idx->MemoryBytes(), idx->RecomputeMemoryBytes());
  ASSERT_TRUE(table->Delete(9).ok());
  EXPECT_EQ(idx->MemoryBytes(), idx->RecomputeMemoryBytes());
  ASSERT_TRUE(table->Delete(10).ok());
  EXPECT_EQ(idx->MemoryBytes(), idx->RecomputeMemoryBytes());
}

TEST(IndexAccountingTest, RolledBackDmlStaysReconciled) {
  auto table = MakeDocs();
  auto idx = JsonSearchIndex::Create(table.get(), "JDOC").MoveValue();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        table->Insert({Value::Int64(i), Value::String(Doc(i))}).ok());
  }
  const uint64_t steady = idx->MemoryBytes();
  ASSERT_EQ(steady, idx->RecomputeMemoryBytes());

  // The veto observer registers *after* the index, so the index's On*
  // succeeds first and its Undo* must unwind the posting mutations.
  VetoObserver veto;
  table->AddObserver(&veto);
  EXPECT_FALSE(
      table->Insert({Value::Int64(50), Value::String(Doc(50))}).ok());
  EXPECT_FALSE(
      table->Replace(3, {Value::Int64(3), Value::String(Doc(99))}).ok());
  EXPECT_FALSE(table->Delete(5).ok());
  table->RemoveObserver(&veto);

  // Undo removes the keys the vetoed DML introduced (an emptied posting
  // list is dropped), and the vetoed documents add no new path, so the
  // footprint returns exactly to its pre-DML value; the incremental counter
  // must match the recompute walk, and the index must keep answering from
  // the pre-DML state.
  EXPECT_EQ(idx->MemoryBytes(), steady);
  EXPECT_EQ(idx->MemoryBytes(), idx->RecomputeMemoryBytes());
  EXPECT_EQ(idx->indexed_document_count(), 10u);
  EXPECT_EQ(idx->DocsWithValue("$.id", Value::Int64(50)),
            std::vector<size_t>{});
  EXPECT_EQ(idx->DocsWithValue("$.id", Value::Int64(3)),
            (std::vector<size_t>{3}));
}

TEST(IndexAccountingTest, RebuildStaysReconciled) {
  auto table = MakeDocs();
  auto idx = JsonSearchIndex::Create(table.get(), "JDOC").MoveValue();
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(
        table->Insert({Value::Int64(i), Value::String(Doc(i))}).ok());
  }
  ASSERT_TRUE(table->Delete(2).ok());
  const uint64_t before = idx->MemoryBytes();
  ASSERT_TRUE(idx->Rebuild().ok());
  // Deletes already dropped their emptied posting lists and a rebuild
  // keeps the path dictionary, so the footprint is unchanged — and the
  // incremental counter must land exactly on the recompute walk over the
  // fresh postings.
  EXPECT_EQ(idx->MemoryBytes(), before);
  EXPECT_GT(idx->MemoryBytes(), 0u);
  EXPECT_EQ(idx->MemoryBytes(), idx->RecomputeMemoryBytes());
}

TEST(DataGuideAccountingTest, DeterministicAndGrowsOnlyWithNewPaths) {
  dataguide::DataGuide a;
  dataguide::DataGuide b;
  EXPECT_EQ(a.MemoryBytes(), 0u);

  const std::vector<std::string> docs = {
      "{\"x\":1,\"y\":{\"z\":\"s\"}}",
      "{\"x\":2,\"arr\":[{\"m\":true}]}",
      "{\"x\":3,\"y\":{\"z\":\"t\"}}",
  };
  for (const std::string& d : docs) {
    ASSERT_TRUE(a.AddJsonText(d).ok());
    ASSERT_TRUE(b.AddJsonText(d).ok());
  }
  EXPECT_GT(a.MemoryBytes(), 0u);
  // Same documents, same guide, same accounted footprint: the formula is
  // size-based and value-independent.
  EXPECT_EQ(a.MemoryBytes(), b.MemoryBytes());

  // A document whose structure is already known adds no entries and no
  // bytes; a new path grows the footprint.
  const uint64_t known = a.MemoryBytes();
  ASSERT_TRUE(a.AddJsonText("{\"x\":77}").ok());
  EXPECT_EQ(a.MemoryBytes(), known);
  ASSERT_TRUE(a.AddJsonText("{\"brand_new_path\":1}").ok());
  EXPECT_GT(a.MemoryBytes(), known);

  // Merge is the union of paths: merging a guide into itself is a no-op
  // for accounting, merging disjoint paths adds them.
  dataguide::DataGuide c;
  ASSERT_TRUE(c.AddJsonText("{\"only_in_c\":[1,2]}").ok());
  const uint64_t before_merge = a.MemoryBytes();
  a.Merge(a);
  EXPECT_EQ(a.MemoryBytes(), before_merge);
  a.Merge(c);
  EXPECT_GT(a.MemoryBytes(), before_merge);
}

}  // namespace
}  // namespace fsdm::index
