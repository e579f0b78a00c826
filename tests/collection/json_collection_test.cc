#include "collection/collection.h"

#include <gtest/gtest.h>

#include "rdbms/executor.h"

namespace fsdm::collection {
namespace {

std::string Doc(int64_t n, const std::string& tag) {
  return "{\"n\":" + std::to_string(n) + ",\"tag\":\"" + tag +
         "\",\"nested\":{\"m\":" + std::to_string(n * 2) + "}}";
}

class JsonCollectionTest : public ::testing::Test {
 protected:
  rdbms::Database db_;
};

TEST_F(JsonCollectionTest, CreateWiresTableOsonColumnAndIndex) {
  auto coll = JsonCollection::Create(&db_, "C").MoveValue();
  ASSERT_NE(coll->table(), nullptr);
  EXPECT_EQ(coll->name(), "C");
  EXPECT_EQ(coll->key_column(), "DID");
  EXPECT_EQ(coll->json_column(), "JDOC");
  EXPECT_EQ(coll->oson_column(), kOsonColumnName);
  ASSERT_NE(coll->search_index(), nullptr);

  // The OSON virtual column is hidden: plain scans don't see it, hidden-
  // inclusive scans do.
  rdbms::Schema plain = coll->table()->OutputSchema(false);
  rdbms::Schema hidden = coll->table()->OutputSchema(true);
  EXPECT_EQ(plain.IndexOf(kOsonColumnName), rdbms::Schema::npos);
  EXPECT_NE(hidden.IndexOf(kOsonColumnName), rdbms::Schema::npos);
}

TEST_F(JsonCollectionTest, InsertRunsIsJsonCheckAndMaintainsGuide) {
  auto coll = JsonCollection::Create(&db_, "C").MoveValue();
  ASSERT_TRUE(coll->Insert(Value::Int64(1), Doc(1, "a")).ok());
  ASSERT_TRUE(coll->Insert(Value::Int64(2), Doc(2, "b")).ok());
  EXPECT_FALSE(coll->Insert(Value::Int64(3), "{not json").ok());

  EXPECT_EQ(coll->document_count(), 2u);
  // The search index's persistent DataGuide saw both documents.
  EXPECT_EQ(coll->dataguide().document_count(), 2u);
  EXPECT_GT(coll->dataguide().distinct_path_count(), 0u);
}

// An object may hold each name once: OSON keeps one child per field id,
// so a duplicate would make OSON and text navigation disagree. The IS JSON
// check refuses it, at the top level and nested, on insert and replace.
TEST_F(JsonCollectionTest, IsJsonCheckRefusesDuplicateKeys) {
  auto coll = JsonCollection::Create(&db_, "C").MoveValue();
  size_t row = coll->Insert(Value::Int64(1), Doc(1, "a")).value();
  EXPECT_EQ(coll->Insert(Value::Int64(2), "{\"w5\":1,\"w5\":2}").status().code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(coll->Insert(Value::Int64(3), "[{\"a\":{\"b\":1,\"b\":1}}]")
                .status()
                .code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(coll->Replace(row, Value::Int64(1), "{\"n\":1,\"n\":1}").code(),
            StatusCode::kConstraintViolation);
  // The same name in sibling or nested objects is no duplicate.
  EXPECT_TRUE(
      coll->Insert(Value::Int64(4), "{\"a\":{\"a\":1},\"b\":{\"a\":2}}")
          .ok());
  EXPECT_EQ(coll->document_count(), 2u);
  EXPECT_TRUE(coll->CheckConsistency().consistent);
}

TEST_F(JsonCollectionTest, AutoKeyInsertAssignsMonotonicKeys) {
  auto coll = JsonCollection::Create(&db_, "C").MoveValue();
  ASSERT_TRUE(coll->Insert(Doc(1, "a")).ok());
  ASSERT_TRUE(coll->Insert(Doc(2, "b")).ok());
  auto rows = rdbms::Collect(coll->Scan().get()).MoveValue();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsInt64(), 1);
  EXPECT_EQ(rows[1][0].AsInt64(), 2);
}

TEST_F(JsonCollectionTest, OwnGuideMaintainedWithoutIndex) {
  CollectionOptions opts;
  opts.attach_search_index = false;
  auto coll = JsonCollection::Create(&db_, "C", opts).MoveValue();
  EXPECT_EQ(coll->search_index(), nullptr);
  ASSERT_TRUE(coll->Insert(Doc(1, "a")).ok());
  ASSERT_TRUE(coll->Insert(Doc(2, "b")).ok());
  // The collection's own DataGuide, fed off the IS JSON constraint's
  // parse, tracks the documents.
  EXPECT_EQ(coll->dataguide().document_count(), 2u);
  EXPECT_NE(coll->dataguide().Find("$.nested.m", json::NodeKind::kScalar,
                                   false),
            nullptr);
  // Replace maintains it too (additively).
  ASSERT_TRUE(coll->Replace(0, Value::Int64(1),
                            "{\"n\":1,\"fresh\":true}")
                  .ok());
  EXPECT_NE(coll->dataguide().Find("$.fresh", json::NodeKind::kScalar, false),
            nullptr);
}

TEST_F(JsonCollectionTest, AddVirtualColumnRecordsPathMapping) {
  CollectionOptions opts;
  opts.attach_search_index = false;
  auto coll = JsonCollection::Create(&db_, "C", opts).MoveValue();
  ASSERT_TRUE(coll->Insert(Doc(1, "a")).ok());
  auto name = coll->AddVirtualColumn("N_VC", "$.n",
                                     sqljson::Returning::kNumber);
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name.value(), "N_VC");
  ASSERT_NE(coll->VirtualColumnFor("$.n"), nullptr);
  EXPECT_EQ(*coll->VirtualColumnFor("$.n"), "N_VC");
  EXPECT_EQ(coll->VirtualColumnFor("$.other"), nullptr);
}

TEST_F(JsonCollectionTest, AddInferredVirtualColumnsFromLiveGuide) {
  auto coll = JsonCollection::Create(&db_, "C").MoveValue();
  ASSERT_TRUE(coll->Insert(Doc(1, "a")).ok());
  ASSERT_TRUE(coll->Insert(Doc(2, "b")).ok());
  auto added = coll->AddInferredVirtualColumns();
  ASSERT_TRUE(added.ok());
  // Singleton scalar paths: $.n, $.tag, $.nested.m.
  EXPECT_EQ(added.value().size(), 3u);
  // Every added column is recorded with its source path.
  EXPECT_NE(coll->VirtualColumnFor("$.n"), nullptr);
  EXPECT_NE(coll->VirtualColumnFor("$.tag"), nullptr);
  EXPECT_NE(coll->VirtualColumnFor("$.nested.m"), nullptr);
}

TEST_F(JsonCollectionTest, CreateViewsEmitsRootAndPerArrayViews) {
  auto coll = JsonCollection::Create(&db_, "PO").MoveValue();
  ASSERT_TRUE(coll->Insert(R"({"id":1,"items":[{"p":10},{"p":20}]})").ok());
  ASSERT_TRUE(coll->Insert(R"({"id":2,"items":[{"p":30}]})").ok());
  auto views = coll->CreateViews();
  ASSERT_TRUE(views.ok());
  ASSERT_EQ(views.value().size(), 2u);
  EXPECT_EQ(views.value()[0].name, "PO_RV");
  EXPECT_EQ(views.value()[1].name, "PO_items_RV");
  // The root DMDV expands one row per line item.
  auto plan = views.value()[0].MakePlan();
  ASSERT_TRUE(plan.ok());
  auto rows = rdbms::Collect(plan.value().get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 3u);
}

// The stale-read regression the facade closes: DML after Populate must
// invalidate the managed store through the observer hook.
TEST_F(JsonCollectionTest, DmlInvalidatesPopulatedImc) {
  auto coll = JsonCollection::Create(&db_, "C").MoveValue();
  ASSERT_TRUE(coll->AddVirtualColumn("N_VC", "$.n",
                                     sqljson::Returning::kNumber)
                  .ok());
  ASSERT_TRUE(coll->Insert(Doc(1, "a")).ok());
  ASSERT_TRUE(coll->Insert(Doc(2, "b")).ok());

  ASSERT_TRUE(coll->PopulateImc().ok());
  ASSERT_TRUE(coll->imc_valid());
  ASSERT_NE(coll->imc(), nullptr);
  EXPECT_EQ(coll->imc()->row_count(), 2u);

  // Insert invalidates.
  ASSERT_TRUE(coll->Insert(Doc(3, "c")).ok());
  EXPECT_FALSE(coll->imc_valid());
  EXPECT_EQ(coll->imc(), nullptr);
  EXPECT_EQ(coll->imc_invalidations(), 1u);

  // EnsureImc repopulates with the new row visible — no stale reads.
  auto store = coll->EnsureImc();
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value()->row_count(), 3u);
  EXPECT_TRUE(coll->imc_valid());

  // Delete and Replace invalidate too.
  ASSERT_TRUE(coll->Delete(0).ok());
  EXPECT_FALSE(coll->imc_valid());
  ASSERT_TRUE(coll->EnsureImc().ok());
  ASSERT_TRUE(coll->Replace(1, Value::Int64(2), Doc(2, "b2")).ok());
  EXPECT_FALSE(coll->imc_valid());
  EXPECT_EQ(coll->imc_invalidations(), 3u);

  // Repopulation reflects both: 2 live rows, replaced doc visible.
  auto fresh = coll->EnsureImc();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value()->row_count(), 2u);
}

TEST_F(JsonCollectionTest, DmlBeforePopulateDoesNotCountAsInvalidation) {
  auto coll = JsonCollection::Create(&db_, "C").MoveValue();
  ASSERT_TRUE(coll->Insert(Doc(1, "a")).ok());
  EXPECT_EQ(coll->imc_invalidations(), 0u);
  EXPECT_FALSE(coll->imc_valid());
}

TEST_F(JsonCollectionTest, MaterializeColumnsIsUnmanaged) {
  auto coll = JsonCollection::Create(&db_, "C").MoveValue();
  ASSERT_TRUE(coll->Insert(Doc(1, "a")).ok());
  auto store =
      coll->MaterializeColumns({coll->key_column(), coll->oson_column()});
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value().row_count(), 1u);
  // The ad-hoc store is not the managed one.
  EXPECT_FALSE(coll->imc_valid());
}

TEST_F(JsonCollectionTest, DetachStopsMaintenanceAndIsIdempotent) {
  auto coll = JsonCollection::Create(&db_, "C").MoveValue();
  ASSERT_TRUE(coll->Insert(Doc(1, "a")).ok());
  ASSERT_TRUE(coll->PopulateImc().ok());
  size_t paths_before = coll->dataguide().distinct_path_count();

  coll->Detach();
  coll->Detach();  // idempotent

  // Raw table DML after Detach no longer reaches the collection: the IMC
  // stays "valid" (read-only snapshot) and the guide stops growing.
  ASSERT_TRUE(coll->table()
                  ->Insert({Value::Int64(9),
                            Value::String(R"({"brand_new_field":1})")})
                  .ok());
  EXPECT_TRUE(coll->imc_valid());
  EXPECT_EQ(coll->dataguide().distinct_path_count(), paths_before);
}

TEST_F(JsonCollectionTest, DestructionDetachesObserversBeforeTableDies) {
  rdbms::Table* table = nullptr;
  {
    auto coll = JsonCollection::Create(&db_, "C").MoveValue();
    ASSERT_TRUE(coll->Insert(Doc(1, "a")).ok());
    table = coll->table();
    // Collection destroyed here, while the Database (and table) live on.
  }
  // The table must not call back into the destroyed collection or index.
  ASSERT_NE(table, nullptr);
  EXPECT_TRUE(
      table->Insert({Value::Int64(2), Value::String(Doc(2, "b"))}).ok());
}

TEST_F(JsonCollectionTest, DuplicateNameFails) {
  ASSERT_TRUE(JsonCollection::Create(&db_, "C").ok());
  EXPECT_FALSE(JsonCollection::Create(&db_, "C").ok());
}

}  // namespace
}  // namespace fsdm::collection
