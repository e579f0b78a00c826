// Oracle for the incremental IMC refresh: after every EnsureImc(), each
// shard's managed store must equal a from-scratch population of the same
// columns position by position, and the refresh must have evaluated
// exactly the live rows DML touched since the previous one.

#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "collection/collection.h"
#include "common/rng.h"
#include "fault/fault.h"
#include "oson/oson.h"
#include "rdbms/executor.h"
#include "telemetry/telemetry.h"

namespace fsdm::collection {
namespace {

uint64_t PopulatedRows() {
  return telemetry::MetricsRegistry::Global().CounterValue(
      "fsdm_imc_populated_rows_total");
}

/// Documents whose field types drift with the draw, so refreshes cross
/// every column-encoding change: "n" is mostly an integer, sometimes a
/// decimal, a string or absent (kInt64 / kNumber / kMixed); "s" comes from a
/// small pool or is unique (dictionary vs flat strings); "b" is a bool or
/// absent.
std::string RandomDoc(Rng* rng) {
  std::string doc = "{";
  const uint64_t kind = rng->Uniform(20);
  if (kind == 0) {
    doc += "\"n\":\"x" + std::to_string(rng->Uniform(5)) + "\",";
  } else if (kind == 1) {
    doc += "\"n\":" + std::to_string(rng->Uniform(100)) + ".25,";
  } else if (kind != 2) {
    doc += "\"n\":" + std::to_string(rng->Range(-50, 1000)) + ",";
  }
  if (rng->NextBool(0.7)) {
    doc += "\"s\":\"pool" + std::to_string(rng->Uniform(3)) + "\",";
  } else {
    doc += "\"s\":\"" + rng->AlphaNum(rng->NextBool() ? 4 : 24) + "\",";
  }
  if (rng->NextBool(0.9)) {
    doc += std::string("\"b\":") + (rng->NextBool() ? "true" : "false") + ",";
  }
  doc += "\"pad\":\"" + rng->AlphaNum(rng->Uniform(40)) + "\"}";
  return doc;
}

bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() == ScalarType::kBinary) return a.AsBinary() == b.AsBinary();
  return a.ToDisplayString() == b.ToDisplayString();
}

class ImcRefreshOracleTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override { fault::FaultRegistry::Global().DisarmAll(); }
  void TearDown() override { fault::FaultRegistry::Global().DisarmAll(); }

  void Create() {
    CollectionOptions opts;
    opts.shard_count = GetParam();
    auto created = JsonCollection::Create(&db_, "IMC_ORACLE", opts);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    coll_ = created.MoveValue();
    using sqljson::Returning;
    ASSERT_TRUE(coll_->AddVirtualColumn("N_ANY", "$.n", Returning::kAny).ok());
    ASSERT_TRUE(
        coll_->AddVirtualColumn("N_NUM", "$.n", Returning::kNumber).ok());
    ASSERT_TRUE(
        coll_->AddVirtualColumn("S_STR", "$.s", Returning::kString).ok());
    ASSERT_TRUE(coll_->AddVirtualColumn("B_ANY", "$.b", Returning::kAny).ok());
  }

  void Insert() {
    const int64_t key = next_key_++;
    Result<size_t> id = coll_->Insert(Value::Int64(key), RandomDoc(&rng_));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    keys_[id.value()] = key;
    dirty_.insert(id.value());
  }

  /// A live row id, or nullopt when the collection is empty.
  std::optional<size_t> PickLive() {
    if (keys_.empty()) return std::nullopt;
    auto it = keys_.begin();
    std::advance(it, rng_.Uniform(keys_.size()));
    return it->first;
  }

  Status Replace(size_t id) {
    return coll_->Replace(id, Value::Int64(keys_[id]), RandomDoc(&rng_));
  }

  void Arm(const char* point) {
    fault::FaultRegistry::Global().Arm(point, fault::FaultSpec::Once());
  }

  /// One random DML step; each records in dirty_ exactly the rows the
  /// observer marks.
  void Step() {
    const uint64_t op = rng_.Uniform(12);
    std::optional<size_t> id = PickLive();
    if (op < 3 || !id.has_value()) {
      Insert();
    } else if (op < 6) {
      ASSERT_TRUE(Replace(*id).ok());
      dirty_.insert(*id);
    } else if (op < 8) {
      ASSERT_TRUE(coll_->Delete(*id).ok());
      keys_.erase(*id);
      dirty_.insert(*id);
    } else if (op == 8) {
      // The IMC observer fails before marking: the row is untouched.
      Arm("collection.observer.replace");
      EXPECT_FALSE(Replace(*id).ok());
    } else if (op == 9) {
      // The table's own apply fails after every observer marked the row:
      // the row keeps its old document but is re-evaluated anyway.
      Arm("table.replace.apply");
      EXPECT_FALSE(Replace(*id).ok());
      dirty_.insert(*id);
    } else if (op == 10) {
      Arm("table.delete.apply");
      EXPECT_FALSE(coll_->Delete(*id).ok());
      dirty_.insert(*id);
    } else {
      // A rolled-back insert gives its row id back; the next insert placed
      // on that shard takes the same id for a different document.
      Arm("collection.observer.insert");
      EXPECT_FALSE(
          coll_->Insert(Value::Int64(next_key_++), RandomDoc(&rng_)).ok());
      Insert();
    }
  }

  size_t DirtyLiveRows() const {
    size_t n = 0;
    for (size_t id : dirty_) n += keys_.count(id);
    return n;
  }

  /// Every shard's managed store against a from-scratch population.
  void ExpectStoresMatchScratch(const std::string& where) {
    size_t rows = 0;
    for (size_t s = 0; s < coll_->shard_count(); ++s) {
      const Shard* shard = coll_->shard(s);
      const imc::ColumnStore* store = shard->imc();
      ASSERT_NE(store, nullptr) << where;
      Result<imc::ColumnStore> scratch =
          shard->MaterializeColumns(store->column_names());
      ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
      const imc::ColumnStore& want = scratch.value();
      ASSERT_EQ(store->row_ids(), want.row_ids()) << where << " shard " << s;
      for (const std::string& name : store->column_names()) {
        const imc::ColumnVector* got = store->column(name);
        const imc::ColumnVector* exp = want.column(name);
        ASSERT_EQ(got->encoding(), exp->encoding())
            << where << " shard " << s << " column " << name;
        for (size_t p = 0; p < want.row_count(); ++p) {
          ASSERT_TRUE(SameValue(got->GetValue(p), exp->GetValue(p)))
              << where << " shard " << s << " column " << name << " pos "
              << p << ": " << got->GetValue(p).ToDisplayString() << " vs "
              << exp->GetValue(p).ToDisplayString();
        }
      }
      rows += store->row_count();
    }
    EXPECT_EQ(rows, keys_.size()) << where;
  }

  /// EnsureImc() must evaluate exactly the dirty live rows, then match.
  void Refresh(const std::string& where) {
    const uint64_t before = PopulatedRows();
    Result<const imc::ColumnStore*> store = coll_->EnsureImc();
    ASSERT_TRUE(store.ok()) << where << ": " << store.status().ToString();
    EXPECT_EQ(PopulatedRows() - before, DirtyLiveRows()) << where;
    dirty_.clear();
    ExpectStoresMatchScratch(where);
  }

  rdbms::Database db_;
  std::unique_ptr<JsonCollection> coll_;
  Rng rng_{0x1AC0FFEEu + GetParam()};
  int64_t next_key_ = 1;
  std::map<size_t, int64_t> keys_;  // live row id -> document key
  std::set<size_t> dirty_;          // row ids DML touched since the refresh
};

TEST_P(ImcRefreshOracleTest, RandomDmlMixMatchesFullPopulation) {
  Create();
  for (int i = 0; i < 30 * static_cast<int>(GetParam()); ++i) Insert();
  ASSERT_TRUE(coll_->PopulateImc().ok());
  dirty_.clear();
  ExpectStoresMatchScratch("initial populate");

  for (int round = 0; round < 60; ++round) {
    const uint64_t steps = 1 + rng_.Uniform(12);
    for (uint64_t i = 0; i < steps; ++i) Step();
    if (HasFatalFailure()) return;
    const std::string where = "round " + std::to_string(round);
    if (round % 7 == 3) {
      // A failed refresh keeps the old store and the dirty rows; the retry
      // evaluates every row marked since the last successful refresh.
      Insert();  // at least one shard's store is stale
      Arm("imc.populate");
      EXPECT_FALSE(coll_->EnsureImc().ok()) << where;
      EXPECT_FALSE(coll_->imc_valid()) << where;
      Step();
    }
    if (round % 20 == 19) {
      // An explicit PopulateImc() stays a full population.
      const uint64_t before = PopulatedRows();
      ASSERT_TRUE(coll_->PopulateImc().ok());
      EXPECT_EQ(PopulatedRows() - before, keys_.size()) << where;
      dirty_.clear();
      ExpectStoresMatchScratch(where + " full populate");
      continue;
    }
    Refresh(where);
  }
}

TEST_P(ImcRefreshOracleTest, CleanRefreshEvaluatesNothing) {
  Create();
  for (int i = 0; i < 8; ++i) Insert();
  ASSERT_TRUE(coll_->PopulateImc().ok());
  dirty_.clear();
  // Already valid: no population at all.
  Refresh("valid store");
  // One replace re-evaluates one row.
  ASSERT_TRUE(Replace(keys_.begin()->first).ok());
  dirty_.insert(keys_.begin()->first);
  ASSERT_EQ(DirtyLiveRows(), 1u);
  Refresh("one replace");
}

std::string PaddedDoc(int n, char pad) {
  return "{\"n\":" + std::to_string(n) + ",\"pad\":\"" +
         std::string(40, pad) + "\"}";
}

// Binary payloads are shared, not copied: rows drained from an IMC scan
// (Scan and FilterScan) keep their OSON images alive on their own, after
// EnsureImc() has replaced the store that served them and after their
// source rows were replaced or deleted.
TEST(SharedPayloadTest, ImcRowsOutliveTheStoreAndTheirSource) {
  rdbms::Database db;
  auto created = JsonCollection::Create(&db, "SHARED", CollectionOptions{});
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<JsonCollection> coll = created.MoveValue();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(coll->Insert(Value::Int64(i), PaddedDoc(i, 'x')).ok());
  }
  Result<const imc::ColumnStore*> store = coll->EnsureImc();
  ASSERT_TRUE(store.ok() && store.value() != nullptr);
  rdbms::OperatorPtr scan =
      store.value()->Scan({coll->key_column(), coll->oson_column()});
  Result<std::vector<rdbms::Row>> drained = rdbms::Collect(scan.get());
  ASSERT_TRUE(drained.ok());
  scan.reset();
  Result<std::vector<rdbms::Row>> filtered =
      store.value()->FilterScan({}, {coll->oson_column()});
  ASSERT_TRUE(filtered.ok());
  ASSERT_EQ(drained.value().size(), 6u);
  ASSERT_EQ(filtered.value().size(), 6u);
  std::vector<std::string> copies;
  for (const rdbms::Row& row : drained.value()) {
    ASSERT_EQ(row[1].type(), ScalarType::kBinary);
    copies.push_back(row[1].AsBinary());  // deep copies, for comparison
    // A scan hands out the store's payload, not a copy of it.
    EXPECT_GE(row[1].BinaryPayload().use_count(), 2);
  }

  ASSERT_TRUE(coll->Replace(2, Value::Int64(2), PaddedDoc(20, 'y')).ok());
  ASSERT_TRUE(coll->Delete(4).ok());
  ASSERT_TRUE(coll->EnsureImc().ok());    // refresh replaces the store
  ASSERT_TRUE(coll->PopulateImc().ok());  // and so does a full population

  for (size_t i = 0; i < copies.size(); ++i) {
    EXPECT_EQ(drained.value()[i][1].AsBinary(), copies[i]) << i;
    EXPECT_EQ(filtered.value()[i][0].AsBinary(), copies[i]) << i;
  }
}

// The same for a table scan over a stored OSON column: drained rows share
// the heap's payloads and keep them after the source row changes.
TEST(SharedPayloadTest, TableScanRowsOutliveTheirSource) {
  rdbms::Table table(
      "RAW", std::vector<rdbms::ColumnDef>{
                 {.name = "ID", .type = rdbms::ColumnType::kNumber},
                 {.name = "IMG", .type = rdbms::ColumnType::kRaw},
             });
  for (int i = 0; i < 4; ++i) {
    Result<std::string> image = oson::EncodeFromText(PaddedDoc(i, 'x'));
    ASSERT_TRUE(image.ok());
    ASSERT_TRUE(
        table.Insert({Value::Int64(i), Value::Binary(image.MoveValue())})
            .ok());
  }
  rdbms::OperatorPtr scan = rdbms::Scan(&table);
  Result<std::vector<rdbms::Row>> drained = rdbms::Collect(scan.get());
  ASSERT_TRUE(drained.ok());
  ASSERT_EQ(drained.value().size(), 4u);
  std::vector<std::string> copies;
  for (size_t i = 0; i < 4; ++i) {
    const Value& img = drained.value()[i][1];
    copies.push_back(img.AsBinary());
    EXPECT_EQ(&img.AsBinary(), &table.StoredRow(i)[1].AsBinary()) << i;
  }

  Result<std::string> replacement = oson::EncodeFromText(PaddedDoc(9, 'z'));
  ASSERT_TRUE(replacement.ok());
  ASSERT_TRUE(table
                  .Replace(1, {Value::Int64(1),
                               Value::Binary(replacement.MoveValue())})
                  .ok());
  ASSERT_TRUE(table.Delete(2).ok());

  for (size_t i = 0; i < copies.size(); ++i) {
    EXPECT_EQ(drained.value()[i][1].AsBinary(), copies[i]) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ImcRefreshOracleTest,
                         ::testing::Values(size_t{1}, size_t{4}),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return std::to_string(info.param) + "shard";
                         });

}  // namespace
}  // namespace fsdm::collection
