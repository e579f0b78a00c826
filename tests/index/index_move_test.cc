#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "dataguide/dataguide.h"
#include "fault/fault.h"
#include "index/search_index.h"
#include "json/dom.h"
#include "json/parser.h"
#include "rdbms/table.h"

/// The index's one write step under all four option combinations, the
/// bench-only ones included: postings off (the Fig 7/8/9 benches) and
/// DataGuide maintenance off (perfbench's layer suite). After every
/// committed insert, delete and replace, and after every one the table
/// undoes because a later observer vetoes it, the index must hold exactly
/// the postings a shadow store built with Postings::Swap from the live
/// rows holds, count the live non-null documents, keep MemoryBytes() equal
/// to RecomputeMemoryBytes(), and have the guide of every document it was
/// taught. A forced DataGuide failure covers the move's own rollback.

namespace fsdm::index {
namespace {

using rdbms::ColumnDef;
using rdbms::ColumnType;
using rdbms::Row;
using rdbms::Table;

constexpr size_t kJdoc = 1;  // JDOC's physical position

std::string Doc(int i) {
  if (i % 5 == 4) {
    // A path, value and token no other document has.
    return "{\"rare_" + std::to_string(i) + "\":\"lone" + std::to_string(i) +
           " word\",\"n\":" + std::to_string(i) + "}";
  }
  return "{\"id\":" + std::to_string(i) + ",\"tag\":\"t" +
         std::to_string(i % 3) + "\",\"nested\":{\"k" + std::to_string(i % 7) +
         "\":" + std::to_string(i * 10) + "},\"words\":[\"alpha beta\",\"w" +
         std::to_string(i) + "\",null]}";
}

/// Registered after the index: a veto makes the table undo the index's
/// callback.
class VetoObserver final : public rdbms::TableObserver {
 public:
  Status OnInsert(size_t, const Row&) override { return Verdict(); }
  Status OnDelete(size_t, const Row&) override { return Verdict(); }
  Status OnReplace(size_t, const Row&, const Row&) override {
    return Verdict();
  }
  bool armed = false;

 private:
  Status Verdict() const {
    return armed ? Status::InvalidArgument("vetoed by test") : Status::Ok();
  }
};

class IndexMoveTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {
 protected:
  bool postings() const { return std::get<0>(GetParam()); }
  bool guide() const { return std::get<1>(GetParam()); }

  void SetUp() override {
    fault::FaultRegistry::Global().DisarmAll();
    table_ = std::make_unique<Table>(
        "MOVES", std::vector<ColumnDef>{
                     {.name = "DID", .type = ColumnType::kNumber},
                     {.name = "JDOC",
                      .type = ColumnType::kJson,
                      .check_is_json = true},
                 });
    JsonSearchIndex::Options opts;
    opts.maintain_postings = postings();
    opts.maintain_dataguide = guide();
    idx_ = JsonSearchIndex::Create(table_.get(), "JDOC", opts).MoveValue();
    table_->AddObserver(&veto_);
  }

  void TearDown() override { fault::FaultRegistry::Global().DisarmAll(); }

  static Row DocRow(int i) {
    return {Value::Int64(i), Value::String(Doc(i))};
  }
  static Row NullRow(int i) { return {Value::Int64(i), Value::Null()}; }

  /// Runs `dml` with the veto armed (the table undoes the index's move) or
  /// not; a document `dml` moves the row to is taught to the guide either
  /// way, because the undo leaves the guide as it is (§3.4).
  void Dml(bool vetoed, const Row& to, const std::function<Status()>& dml) {
    veto_.armed = vetoed;
    const Status st = dml();
    veto_.armed = false;
    EXPECT_EQ(st.ok(), !vetoed) << st.message();
    if (!to[kJdoc].is_null()) Teach(to);
  }
  void Insert(bool vetoed, const Row& row) {
    Dml(vetoed, row, [&] { return table_->Insert(row).status(); });
  }
  void Replace(bool vetoed, size_t row_id, const Row& row) {
    Dml(vetoed, row, [&] { return table_->Replace(row_id, row); });
  }
  void Delete(bool vetoed, size_t row_id) {
    Dml(vetoed, NullRow(0), [&] { return table_->Delete(row_id); });
  }
  void Teach(const Row& row) {
    ASSERT_TRUE(taught_.AddJsonText(row[kJdoc].AsString()).ok());
  }

  void ExpectExact(const std::string& step) {
    SCOPED_TRACE(step);
    ASSERT_FALSE(idx_->degraded()) << idx_->degraded_reason();
    dataguide::PathDictionary names = idx_->dataguide().paths();
    Postings shadow;
    size_t docs = 0;
    for (size_t r = 0; r < table_->row_count(); ++r) {
      if (!table_->IsLive(r)) continue;
      const Value& doc = table_->StoredRow(r)[kJdoc];
      if (doc.is_null()) continue;
      ++docs;
      if (!postings()) continue;
      Result<std::unique_ptr<json::JsonNode>> tree =
          json::Parse(doc.AsString());
      ASSERT_TRUE(tree.ok());
      Result<dataguide::StagedDoc> staged = dataguide::StageDocument(
          json::TreeDom(tree.value().get()), &names, true);
      ASSERT_TRUE(staged.ok());
      shadow.Swap({}, staged.value(), r);
    }
    std::vector<std::string> problems;
    idx_->postings().Diff(shadow, names, &problems);
    // Without postings the shadow is empty, so any posting is a problem.
    for (const std::string& p : problems) ADD_FAILURE() << p;
    EXPECT_EQ(idx_->indexed_document_count(), docs);
    EXPECT_EQ(idx_->MemoryBytes(), idx_->RecomputeMemoryBytes());
    EXPECT_EQ(idx_->dataguide().distinct_path_count(),
              guide() ? taught_.distinct_path_count() : 0u);
  }

  VetoObserver veto_;
  std::unique_ptr<Table> table_;
  std::unique_ptr<JsonSearchIndex> idx_;
  dataguide::DataGuide taught_;  // every document a forward move taught
};

TEST_P(IndexMoveTest, MovesAndTheirUndosKeepTheIndexExact) {
  for (int i = 0; i < 8; ++i) {
    Insert(false, DocRow(i));
    ExpectExact("insert " + std::to_string(i));
  }
  for (bool vetoed : {true, false}) {
    const std::string how = vetoed ? "vetoed " : "committed ";
    Insert(vetoed, DocRow(20));
    ExpectExact(how + "insert");
    Insert(vetoed, NullRow(21));
    ExpectExact(how + "insert of a null document");
    Replace(vetoed, 1, DocRow(22));
    ExpectExact(how + "replace");
    Replace(vetoed, 2, DocRow(24));
    ExpectExact(how + "replace by a document with a lone path");
    Replace(vetoed, 3, NullRow(3));
    ExpectExact(how + "replace by a null document");
    Delete(vetoed, 5);
    ExpectExact(how + "delete");
  }
  // Row 3 now holds a null document; row 9 is the committed null insert.
  for (bool vetoed : {true, false}) {
    const std::string how = vetoed ? "vetoed " : "committed ";
    Replace(vetoed, 3, DocRow(23));
    ExpectExact(how + "replace of a null document");
    Delete(vetoed, 9);
    ExpectExact(how + "delete of a null document");
  }
}

TEST_P(IndexMoveTest, DirectCallsSwapAndSwapBack) {
  // perfbench's layer suite calls the callbacks without table DML, so
  // there is no DML parse to borrow.
  for (int i = 0; i < 6; ++i) Insert(false, DocRow(i));
  ASSERT_TRUE(idx_->OnReplace(2, DocRow(2), DocRow(30)).ok());
  ASSERT_TRUE(idx_->OnReplace(2, DocRow(30), DocRow(2)).ok());
  Teach(DocRow(30));
  ExpectExact("replace and back");
  ASSERT_TRUE(idx_->OnInsert(6, DocRow(31)).ok());
  ASSERT_TRUE(idx_->UndoInsert(6, DocRow(31)).ok());
  Teach(DocRow(31));
  ExpectExact("insert and its undo");
  ASSERT_TRUE(idx_->OnDelete(4, DocRow(4)).ok());
  ASSERT_TRUE(idx_->UndoDelete(4, DocRow(4)).ok());
  ExpectExact("delete and its undo");
  ASSERT_TRUE(idx_->OnReplace(1, DocRow(1), DocRow(32)).ok());
  ASSERT_TRUE(idx_->UndoReplace(1, DocRow(1), DocRow(32)).ok());
  Teach(DocRow(32));
  ExpectExact("replace and its undo");
}

TEST_P(IndexMoveTest, FailedGuideStepMovesThePostingsBack) {
  for (int i = 0; i < 6; ++i) Insert(false, DocRow(i));
  fault::FaultRegistry& faults = fault::FaultRegistry::Global();
  auto guide_fails = [&](const std::function<Status()>& dml, const Row& to) {
    faults.Arm("index.insert.dataguide", fault::FaultSpec::Once());
    const Status st = dml();
    faults.DisarmAll();
    // Only a maintained guide has a step to fail.
    EXPECT_EQ(st.ok(), !guide()) << st.message();
    if (st.ok()) Teach(to);
  };
  guide_fails([&] { return table_->Insert(DocRow(40)).status(); },
              DocRow(40));
  ExpectExact("insert whose guide step failed");
  guide_fails([&] { return table_->Replace(1, DocRow(41)); }, DocRow(41));
  ExpectExact("replace whose guide step failed");

  // When moving the postings back fails too, the index degrades (there is
  // nothing to move back without postings), and Rebuild() heals it.
  faults.Arm("index.insert.dataguide", fault::FaultSpec::Once());
  faults.Arm("index.undo.postings", fault::FaultSpec::Once());
  const Status st = table_->Insert(DocRow(42)).status();
  faults.DisarmAll();
  EXPECT_EQ(st.ok(), !guide());
  if (st.ok()) Teach(DocRow(42));
  EXPECT_EQ(idx_->degraded(), guide() && postings());
  if (idx_->degraded()) {
    EXPECT_EQ(idx_->degraded_reason().rfind("insert rollback failed on row ",
                                            0),
              0u)
        << idx_->degraded_reason();
    ASSERT_TRUE(idx_->Rebuild().ok());
  }
  ExpectExact("insert whose rollback failed, rebuilt");
}

INSTANTIATE_TEST_SUITE_P(
    Modes, IndexMoveTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<bool, bool>>& info) {
      return std::string(std::get<0>(info.param) ? "Postings" : "NoPostings") +
             (std::get<1>(info.param) ? "Guide" : "NoGuide");
    });

}  // namespace
}  // namespace fsdm::index
