#include "rdbms/table.h"

#include <gtest/gtest.h>

namespace fsdm::rdbms {
namespace {

std::vector<ColumnDef> PoColumns() {
  return {
      {.name = "DID", .type = ColumnType::kNumber},
      {.name = "JDOC",
       .type = ColumnType::kJson,
       .check_is_json = true},
  };
}

TEST(TableTest, InsertAndMaterialize) {
  Table t("PO", PoColumns());
  Result<size_t> id =
      t.Insert({Value::Int64(1), Value::String(R"({"a":1})")});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(id.value(), 0u);
  EXPECT_EQ(t.row_count(), 1u);
  Row row = t.MaterializeRow(0).MoveValue();
  EXPECT_EQ(row[0].AsInt64(), 1);
  EXPECT_EQ(row[1].AsString(), R"({"a":1})");
}

TEST(TableTest, IsJsonConstraintRejectsMalformed) {
  Table t("PO", PoColumns());
  Result<size_t> bad = t.Insert({Value::Int64(1), Value::String("{oops")});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(t.row_count(), 0u);  // rejected rows are not stored
  // NULL documents pass the constraint.
  EXPECT_TRUE(t.Insert({Value::Int64(2), Value::Null()}).ok());
}

TEST(TableTest, TypeChecking) {
  Table t("PO", PoColumns());
  EXPECT_FALSE(t.Insert({Value::String("x"), Value::Null()}).ok());
  EXPECT_FALSE(t.Insert({Value::Int64(1)}).ok());  // arity
  EXPECT_TRUE(
      t.Insert({Value::Dec(Decimal::FromInt64(1)), Value::Null()}).ok());
}

TEST(TableTest, DeleteAndReplace) {
  Table t("PO", PoColumns());
  t.Insert({Value::Int64(1), Value::String("{}")});
  t.Insert({Value::Int64(2), Value::String("{}")});
  ASSERT_TRUE(t.Delete(0).ok());
  EXPECT_FALSE(t.IsLive(0));
  EXPECT_FALSE(t.Delete(0).ok());  // already deleted
  EXPECT_FALSE(t.MaterializeRow(0).ok());
  ASSERT_TRUE(t.Replace(1, {Value::Int64(20), Value::String("{}")}).ok());
  EXPECT_EQ(t.MaterializeRow(1).MoveValue()[0].AsInt64(), 20);
  EXPECT_FALSE(t.Replace(0, {Value::Int64(9), Value::Null()}).ok());
}

TEST(TableTest, VirtualColumns) {
  Table t("PO", PoColumns());
  ColumnDef vc;
  vc.name = "DID_X2";
  vc.type = ColumnType::kNumber;
  vc.virtual_expr = Mul(Col("DID"), Lit(Value::Int64(2)));
  ASSERT_TRUE(t.AddVirtualColumn(vc).ok());
  // Duplicate name rejected.
  EXPECT_FALSE(t.AddVirtualColumn(vc).ok());

  t.Insert({Value::Int64(21), Value::Null()});
  Row row = t.MaterializeRow(0).MoveValue();
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[2].AsInt64(), 42);
  EXPECT_EQ(t.OutputSchema().columns(),
            (std::vector<std::string>{"DID", "JDOC", "DID_X2"}));
}

TEST(TableTest, HiddenVirtualColumns) {
  Table t("PO", PoColumns());
  ColumnDef vc;
  vc.name = "HIDDEN_VC";
  vc.virtual_expr = Lit(Value::Int64(1));
  vc.hidden = true;
  ASSERT_TRUE(t.AddVirtualColumn(vc).ok());
  t.Insert({Value::Int64(1), Value::Null()});

  EXPECT_EQ(t.OutputSchema(false).size(), 2u);
  EXPECT_EQ(t.OutputSchema(true).size(), 3u);
  EXPECT_EQ(t.MaterializeRow(0, false).MoveValue().size(), 2u);
  EXPECT_EQ(t.MaterializeRow(0, true).MoveValue().size(), 3u);
}

class RecordingObserver final : public TableObserver {
 public:
  Status OnInsert(size_t row_id, const Row&) override {
    inserts.push_back(row_id);
    return fail_next ? Status::Internal("boom") : Status::Ok();
  }
  Status OnDelete(size_t row_id, const Row&) override {
    deletes.push_back(row_id);
    return Status::Ok();
  }
  Status OnReplace(size_t row_id, const Row&, const Row&) override {
    replaces.push_back(row_id);
    return Status::Ok();
  }
  std::vector<size_t> inserts, deletes, replaces;
  bool fail_next = false;
};

TEST(TableTest, ObserversSeeDml) {
  Table t("PO", PoColumns());
  RecordingObserver obs;
  t.AddObserver(&obs);
  t.Insert({Value::Int64(1), Value::String("{}")});
  t.Insert({Value::Int64(2), Value::String("{}")});
  t.Replace(1, {Value::Int64(3), Value::String("{}")});
  t.Delete(0);
  EXPECT_EQ(obs.inserts, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(obs.replaces, (std::vector<size_t>{1}));
  EXPECT_EQ(obs.deletes, (std::vector<size_t>{0}));
  t.RemoveObserver(&obs);
  t.Insert({Value::Int64(4), Value::String("{}")});
  EXPECT_EQ(obs.inserts.size(), 2u);
}

TEST(TableTest, FailingObserverRollsBackInsert) {
  Table t("PO", PoColumns());
  RecordingObserver obs;
  obs.fail_next = true;
  t.AddObserver(&obs);
  EXPECT_FALSE(t.Insert({Value::Int64(1), Value::String("{}")}).ok());
  EXPECT_EQ(t.row_count(), 0u);
}

TEST(TableTest, StorageEstimate) {
  Table t("PO", PoColumns());
  EXPECT_EQ(t.EstimateStorageBytes(), 0u);
  t.Insert({Value::Int64(1), Value::String("\"0123456789\"")});
  size_t one = t.EstimateStorageBytes();
  EXPECT_GT(one, 10u);
  t.Insert({Value::Int64(2), Value::String("\"0123456789\"")});
  EXPECT_EQ(t.EstimateStorageBytes(), 2 * one);
  t.Delete(0);
  EXPECT_EQ(t.EstimateStorageBytes(), one);
}

TEST(DatabaseTest, Registry) {
  Database db;
  ASSERT_TRUE(db.CreateTable("T", PoColumns()).ok());
  EXPECT_FALSE(db.CreateTable("T", PoColumns()).ok());
  EXPECT_TRUE(db.GetTable("T").ok());
  EXPECT_FALSE(db.GetTable("U").ok());
  EXPECT_TRUE(db.DropTable("T").ok());
  EXPECT_FALSE(db.GetTable("T").ok());
}

}  // namespace
}  // namespace fsdm::rdbms
