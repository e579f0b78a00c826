#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "collection/collection.h"
#include "collection/collections_table.h"
#include "collection/path_stats_table.h"
#include "common/hash.h"
#include "fault/fault.h"
#include "rdbms/executor.h"
#include "stats/operator_costs.h"
#include "telemetry/incident.h"
#include "telemetry/memory_tracker.h"
#include "telemetry/telemetry.h"

namespace fsdm::collection {
namespace {

CollectionOptions Sharded(size_t n) {
  CollectionOptions opts;
  opts.shard_count = n;
  return opts;
}

std::string Doc(int i) {
  return "{\"num\":" + std::to_string(i * 10) + ",\"tag\":\"t" +
         std::to_string(i % 7) + "\"}";
}

/// Sorted DID display strings a plan emits.
std::vector<std::string> DrainKeys(rdbms::Operator* plan) {
  auto rows = rdbms::Collect(plan);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  std::vector<std::string> keys;
  if (rows.ok()) {
    for (const rdbms::Row& row : rows.value())
      keys.push_back(row[0].ToDisplayString());
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

class ShardedCollectionTest : public ::testing::Test {
 protected:
  void SetUp() override { stats::OperatorCostModel::Global().Reset(); }
  rdbms::Database db_;
};

// The placement contract: seeded FNV-1a 64 over the key's display string,
// modulo the shard count. These exact values are part of the on-disk-
// equivalent contract — if this test breaks, kShardPlacementSeed or the
// hash changed, which re-shards every existing collection.
TEST_F(ShardedCollectionTest, PlacementIsPinnedBySeededHash) {
  EXPECT_EQ(ShardPlacementHash("7"), 16291685135482983714ull);
  EXPECT_EQ(ShardPlacementHash("order-1001") % 4, 0u);

  auto c4 = JsonCollection::Create(&db_, "P4", Sharded(4)).MoveValue();
  const size_t expected4[] = {0, 1, 2, 3, 0, 1, 2, 3};  // keys 1..8
  for (int k = 1; k <= 8; ++k) {
    EXPECT_EQ(c4->ShardForKey(Value::Int64(k)), expected4[k - 1])
        << "key " << k;
    // Integer key and its display string place identically.
    EXPECT_EQ(c4->ShardForKey(Value::String(std::to_string(k))),
              expected4[k - 1]);
  }

  auto c8 = JsonCollection::Create(&db_, "P8", Sharded(8)).MoveValue();
  const size_t expected8[] = {0, 1, 6, 7, 4, 5, 2, 3};  // keys 1..8
  for (int k = 1; k <= 8; ++k) {
    EXPECT_EQ(c8->ShardForKey(Value::Int64(k)), expected8[k - 1])
        << "key " << k;
  }
}

/// TELEMETRY$COLLECTIONS' row for `name`, rendered column by column.
std::vector<std::string> CollectionsRow(const std::string& name) {
  auto scan = CollectionsScan();
  const size_t name_at = scan->schema().IndexOf("NAME");
  std::vector<std::string> found;
  for (const rdbms::Row& row : rdbms::Collect(scan.get()).MoveValue()) {
    if (row[name_at].ToDisplayString() != name) continue;
    EXPECT_TRUE(found.empty()) << "two rows for " << name;
    for (const Value& v : row) {
      found.push_back(v.is_null() ? "NULL" : v.ToDisplayString());
    }
  }
  return found;
}

// The facade over one shard renders exactly like a plain table stack; the
// facade over four differs only in its documented shapes: table names,
// "shard i: " prefixes, and no single table()/imc().
TEST_F(ShardedCollectionTest, ShapeParityAtOneAndFourShards) {
  telemetry::IncidentManager& incidents = telemetry::IncidentManager::Global();
  incidents.SetDirectory("");
  incidents.SetFloodIntervalUs(0);
  for (size_t shards : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const std::string name = "SHAPE" + std::to_string(shards);
    auto coll =
        JsonCollection::Create(&db_, name, Sharded(shards)).MoveValue();
    ASSERT_EQ(coll->shard_count(), shards);

    // Backing tables: "<name>" at N = 1, "<name>$s<i>" at N > 1, each
    // index with its "$DG" side table.
    for (size_t s = 0; s < shards; ++s) {
      const std::string table =
          shards == 1 ? name : name + "$s" + std::to_string(s);
      EXPECT_EQ(coll->shard(s)->name(), table);
      ASSERT_TRUE(db_.GetTable(table).ok()) << table;
      EXPECT_EQ(db_.GetTable(table).value(), coll->shard(s)->table());
      EXPECT_EQ(coll->shard(s)->search_index()->dg_table()->name(),
                table + "$DG");
    }
    EXPECT_EQ(db_.GetTable(name).ok(), shards == 1);
    EXPECT_FALSE(db_.GetTable(name + "$s" + std::to_string(shards)).ok());
    if (shards == 1) {
      EXPECT_FALSE(db_.GetTable(name + "$s0").ok());
      EXPECT_EQ(coll->shard(0)->table(), coll->table());
    } else {
      EXPECT_EQ(coll->table(), nullptr);
    }

    // Row ids are the identity at N = 1 and encode (local * N + shard).
    for (int k = 1; k <= 8; ++k) {
      auto rid = coll->Insert(Value::Int64(k), Doc(k));
      ASSERT_TRUE(rid.ok()) << rid.status().ToString();
      if (shards == 1) EXPECT_EQ(rid.value(), static_cast<size_t>(k - 1));
      EXPECT_EQ(rid.value() % shards, coll->ShardForKey(Value::Int64(k)));
    }
    ASSERT_TRUE(coll->PopulateImc().ok());
    if (shards == 1) {
      EXPECT_EQ(coll->imc(), coll->shard(0)->imc());
      EXPECT_NE(coll->imc(), nullptr);
    } else {
      EXPECT_EQ(coll->imc(), nullptr);
    }

    // One TELEMETRY$COLLECTIONS row; only the shard columns differ.
    const std::string n = std::to_string(shards);
    EXPECT_EQ(CollectionsRow(name),
              (std::vector<std::string>{name, "healthy", "NULL", "8", "3",
                                        "valid", "NULL", n, n}));

    // One incident per Quarantine(); the reason is unprefixed at N = 1.
    const uint64_t raised = incidents.total_raised();
    coll->Quarantine("ops hold");
    EXPECT_EQ(incidents.total_raised(), raised + 1);
    std::string want_reason;
    for (size_t s = 0; s < shards; ++s) {
      if (!want_reason.empty()) want_reason += "; ";
      if (shards > 1) want_reason += "shard " + std::to_string(s) + ": ";
      want_reason += "ops hold";
    }
    EXPECT_EQ(coll->health_reason(), want_reason);
    EXPECT_EQ(CollectionsRow(name),
              (std::vector<std::string>{name, "quarantined", want_reason,
                                        "8", "3", "valid", "NULL", n, "0"}));
    ASSERT_TRUE(coll->RebuildIndex().ok());
    const std::vector<std::string> healed = CollectionsRow(name);
    ASSERT_EQ(healed.size(), 9u);
    EXPECT_EQ(healed[1], "healthy");
    EXPECT_EQ(healed[2], "ops hold");  // the sticky last cause
    EXPECT_NE(healed[6], "NULL");      // LAST_REBUILD_TS

    // A shard whose index missed a row: its problems carry no prefix at
    // N = 1 and "shard 0: " otherwise.
    coll->shard(0)->Detach();
    ASSERT_TRUE(coll->shard(0)
                    ->table()
                    ->Insert({Value::Int64(100), Value::String(Doc(100))})
                    .ok());
    ConsistencyReport report = coll->CheckConsistency();
    EXPECT_FALSE(report.consistent);
    ASSERT_FALSE(report.problems.empty());
    const std::string prefix = shards == 1 ? "" : "shard 0: ";
    bool index_problem = false;
    for (const std::string& p : report.problems) {
      if (p.rfind(prefix + "index reports ", 0) == 0) index_problem = true;
      if (shards == 1) {
        EXPECT_EQ(p.find("shard"), std::string::npos) << p;
      } else if (p.find("placement hash") == std::string::npos) {
        EXPECT_EQ(p.rfind(prefix, 0), 0u) << p;
      }
    }
    EXPECT_TRUE(index_problem) << report.ToString();
  }
  incidents.SetFloodIntervalUs(100 * 1000);
}

TEST_F(ShardedCollectionTest, RowIdsEncodeShardAndRoundTrip) {
  auto coll = JsonCollection::Create(&db_, "RT", Sharded(4)).MoveValue();
  EXPECT_EQ(coll->shard_count(), 4u);
  EXPECT_EQ(coll->table(), nullptr);  // facade has no single backing table

  std::vector<size_t> row_ids;
  for (int k = 1; k <= 8; ++k) {
    auto rid = coll->Insert(Value::Int64(k), Doc(k));
    ASSERT_TRUE(rid.ok()) << rid.status().ToString();
    // row_id encodes (local * N + shard).
    EXPECT_EQ(rid.value() % 4, coll->ShardForKey(Value::Int64(k)));
    row_ids.push_back(rid.value());
  }
  EXPECT_EQ(coll->document_count(), 8u);

  // Replace through the facade-encoded row id, keeping the key on its
  // shard, then delete through it.
  ASSERT_TRUE(coll->Replace(row_ids[0], Value::Int64(1), Doc(100)).ok());
  EXPECT_EQ(coll->document_count(), 8u);
  ASSERT_TRUE(coll->Delete(row_ids[3]).ok());
  EXPECT_EQ(coll->document_count(), 7u);
}

/// Live rows counted by walking every shard's tombstone vector.
size_t WalkLiveRows(const JsonCollection& coll) {
  size_t n = 0;
  for (size_t s = 0; s < coll.shard_count(); ++s) {
    const rdbms::Table* table = coll.shard(s)->table();
    for (size_t r = 0; r < table->row_count(); ++r) n += table->IsLive(r);
  }
  return n;
}

// document_count() reads each table's live-row counter instead of walking
// live_; the counter must follow inserts, deletes and rolled-back inserts.
TEST_F(ShardedCollectionTest, DocumentCountMatchesLiveWalk) {
  for (size_t shards : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto coll = JsonCollection::Create(
                    &db_, "DC" + std::to_string(shards), Sharded(shards))
                    .MoveValue();
    std::vector<size_t> rows;
    for (int i = 1; i <= 30; ++i) {
      auto rid = coll->Insert(Value::Int64(i), Doc(i));
      ASSERT_TRUE(rid.ok());
      rows.push_back(rid.value());
    }
    EXPECT_EQ(coll->document_count(), 30u);
    for (size_t i = 0; i < rows.size(); i += 3) {
      ASSERT_TRUE(coll->Delete(rows[i]).ok());
    }
    EXPECT_EQ(coll->document_count(), 20u);
    EXPECT_EQ(coll->document_count(), WalkLiveRows(*coll));
    // The row is appended, the index observer fails, and the table
    // rolls the append back.
    fault::FaultRegistry::Global().Arm("index.insert.dataguide",
                                       fault::FaultSpec::Once());
    EXPECT_FALSE(coll->Insert(Value::Int64(100), Doc(100)).ok());
    fault::FaultRegistry::Global().DisarmAll();
    EXPECT_EQ(coll->document_count(), 20u);
    EXPECT_FALSE(coll->Insert(Value::Int64(101), "{not json").ok());
    EXPECT_EQ(coll->document_count(), WalkLiveRows(*coll));
    ASSERT_TRUE(coll->Insert(Value::Int64(102), Doc(102)).ok());
    EXPECT_EQ(coll->document_count(), 21u);
    EXPECT_EQ(coll->document_count(), WalkLiveRows(*coll));
  }
}

// A concurrent session may poll document_count() (TELEMETRY$COLLECTIONS)
// while DML runs; the TSan build checks that this is race-free.
TEST_F(ShardedCollectionTest, DocumentCountIsSafeToPollDuringInserts) {
  for (size_t shards : {size_t{1}, size_t{4}}) {
    auto coll = JsonCollection::Create(
                    &db_, "DP" + std::to_string(shards), Sharded(shards))
                    .MoveValue();
    std::atomic<bool> done{false};
    size_t last_seen = 0;
    bool monotonic = true;
    std::thread poller([&] {
      while (!done.load(std::memory_order_acquire)) {
        const size_t n = coll->document_count();
        if (n < last_seen) monotonic = false;
        last_seen = n;
      }
    });
    for (int i = 1; i <= 300; ++i) {
      EXPECT_TRUE(coll->Insert(Value::Int64(i), Doc(i)).ok());
    }
    done.store(true, std::memory_order_release);
    poller.join();
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(coll->document_count(), 300u);
  }
}

// The memory reporters a snapshot thread polls (TELEMETRY$MEMORY, workload
// snapshots) read each shard's DataGuide and path statistics while DML
// grows them; the TSan build checks that this is race-free, and the
// running totals must still equal the walks afterwards.
TEST_F(ShardedCollectionTest, MemoryTotalsAreSafeToPollDuringInserts) {
  for (size_t shards : {size_t{1}, size_t{4}}) {
    auto coll = JsonCollection::Create(
                    &db_, "MP" + std::to_string(shards), Sharded(shards))
                    .MoveValue();
    std::atomic<bool> done{false};
    size_t polls = 0;
    std::thread poller([&] {
      do {
        for (size_t s = 0; s < shards; ++s) {
          (void)coll->shard(s)->dataguide().MemoryBytes();
          (void)coll->shard(s)->path_stats().MemoryBytes();
        }
        telemetry::MemoryTracker::Global().Refresh();
        ++polls;
      } while (!done.load(std::memory_order_acquire));
    });
    for (int i = 1; i <= 300; ++i) {
      // A new path every few documents keeps the dictionary growing.
      const std::string doc = "{\"num\":" + std::to_string(i) + ",\"f" +
                              std::to_string(i / 3) + "\":" +
                              std::to_string(i) + "}";
      EXPECT_TRUE(coll->Insert(Value::Int64(i), doc).ok());
    }
    done.store(true, std::memory_order_release);
    poller.join();
    EXPECT_GT(polls, 0u);
    for (size_t s = 0; s < shards; ++s) {
      const Shard& shard = *coll->shard(s);
      EXPECT_EQ(shard.dataguide().MemoryBytes(),
                shard.dataguide().RecomputeMemoryBytes());
      EXPECT_EQ(shard.path_stats().MemoryBytes(),
                shard.path_stats().RecomputeMemoryBytes());
    }
  }
}

// Route-time measurements (a winning IMC FilterScan runs while its plan
// is built) feed the cost model only after every shard is costed, so all
// siblings of one fan-out are priced at the same per-row rate.
TEST_F(ShardedCollectionTest, FanOutPricesEveryShardAtOneRate) {
  auto coll = JsonCollection::Create(&db_, "FR", Sharded(4)).MoveValue();
  ASSERT_TRUE(
      coll->AddVirtualColumn("NUM_VC", "$.num", sqljson::Returning::kNumber)
          .ok());
  for (int i = 1; i <= 200; ++i) {
    ASSERT_TRUE(coll->Insert(Value::Int64(i), Doc(i)).ok());
  }
  ASSERT_TRUE(coll->PopulateImc().ok());
  ASSERT_FALSE(stats::OperatorCostModel::Global().frozen());

  auto routed = coll->Route({PathPredicate::Compare(
      "$.num", rdbms::CompareOp::kGe, Value::Int64(500))});
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  const auto& candidates = routed.value().trace.decision.candidates;
  ASSERT_EQ(candidates.size(), 5u);  // one per shard + the union
  std::vector<double> rates;
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(candidates[s].Label(),
              "shard " + std::to_string(s) + " -> imc-filter-scan");
    const imc::ColumnStore* store = coll->shard(s)->imc();
    ASSERT_NE(store, nullptr);
    ASSERT_GT(store->row_count(), 0u);
    rates.push_back(candidates[s].est_cost_us /
                    static_cast<double>(store->row_count()));
  }
  for (size_t s = 1; s < 4; ++s) {
    EXPECT_DOUBLE_EQ(rates[s], rates[0]) << "shard " << s;
  }
  // The measurements still reach the model, once per shard.
  EXPECT_EQ(
      stats::OperatorCostModel::Global().Snapshot().at("ImcFilterScan").samples,
      4u);
}

TEST_F(ShardedCollectionTest, CrossShardReplaceIsRejected) {
  auto coll = JsonCollection::Create(&db_, "XS", Sharded(4)).MoveValue();
  auto rid = coll->Insert(Value::Int64(1), Doc(1));  // shard 0
  ASSERT_TRUE(rid.ok());
  // Key 2 places on shard 1: a Replace may not migrate the document.
  Status moved = coll->Replace(rid.value(), Value::Int64(2), Doc(2));
  EXPECT_FALSE(moved.ok());
  EXPECT_EQ(moved.code(), StatusCode::kInvalidArgument);
  // Same-shard re-key is fine (key 5 also places on shard 0).
  EXPECT_TRUE(coll->Replace(rid.value(), Value::Int64(5), Doc(5)).ok());
}

// The tentpole equivalence: a routed query over a sharded collection
// returns exactly the rows a forced full scan returns, at every shard
// count — the parallel fan-out changes the plan shape, never the answer.
TEST_F(ShardedCollectionTest, RoutedMatchesForcedFullScanAcrossShardCounts) {
  for (size_t shards : {size_t{1}, size_t{4}, size_t{8}}) {
    auto coll = JsonCollection::Create(
                    &db_, "EQ" + std::to_string(shards), Sharded(shards))
                    .MoveValue();
    for (int i = 1; i <= 60; ++i) {
      ASSERT_TRUE(coll->Insert(Value::Int64(i), Doc(i)).ok());
    }

    // Forced full scan: JSON_VALUE($.num) >= 300 over the raw scan.
    auto jv = coll->JsonValueExpr("$.num", sqljson::Returning::kNumber);
    ASSERT_TRUE(jv.ok());
    auto full = rdbms::Filter(coll->Scan(),
                              rdbms::Ge(jv.value(),
                                        rdbms::Lit(Value::Int64(300))));
    std::vector<std::string> expected = DrainKeys(full.get());
    ASSERT_EQ(expected.size(), 31u);  // nums 300,310,...,600

    auto routed = coll->Route({PathPredicate::Compare(
        "$.num", rdbms::CompareOp::kGe, Value::Int64(300))});
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    if (shards > 1) {
      EXPECT_EQ(routed.value().access_path, AccessPath::kShardedUnion);
    }
    EXPECT_EQ(DrainKeys(routed.value().plan.get()), expected)
        << "shards=" << shards;
  }
}

// One quarantined shard degrades the collection instead of killing it:
// reads keep flowing (including a plan routed before the quarantine),
// writes to the sick shard bounce, writes elsewhere proceed, and a
// facade RebuildIndex() heals everything.
TEST_F(ShardedCollectionTest, QuarantinedShardDegradesNotKills) {
  auto coll = JsonCollection::Create(&db_, "DEG", Sharded(4)).MoveValue();
  for (int i = 1; i <= 40; ++i) {
    ASSERT_TRUE(coll->Insert(Value::Int64(i), Doc(i)).ok());
  }
  EXPECT_EQ(coll->health(), CollectionHealth::kHealthy);
  EXPECT_EQ(coll->healthy_shard_count(), 4u);

  // Route first, then degrade shard 2 mid-query (between routing and the
  // drain): the already-built plan must still complete.
  auto routed = coll->Route({PathPredicate::Compare(
      "$.num", rdbms::CompareOp::kGe, Value::Int64(10))});
  ASSERT_TRUE(routed.ok());
  coll->shard(2)->Quarantine("forced by test");

  EXPECT_EQ(coll->health(), CollectionHealth::kIndexDegraded);
  EXPECT_EQ(coll->healthy_shard_count(), 3u);
  EXPECT_NE(coll->health_reason().find("shard 2"), std::string::npos);

  EXPECT_EQ(DrainKeys(routed.value().plan.get()).size(), 40u);

  // A fresh routed query also still answers (the sick shard routes in
  // degraded mode — full scan — rather than failing the collection).
  auto after = coll->Route({PathPredicate::Compare(
      "$.num", rdbms::CompareOp::kGe, Value::Int64(10))});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(DrainKeys(after.value().plan.get()).size(), 40u);

  // Writes: key 3 places on shard 2 (quarantined) and bounces; key 43
  // places on shard 0 and proceeds.
  ASSERT_EQ(coll->ShardForKey(Value::Int64(3)), 2u);
  EXPECT_FALSE(coll->Insert(Value::Int64(3), Doc(3)).ok());
  ASSERT_EQ(coll->ShardForKey(Value::Int64(43)), 0u);
  EXPECT_TRUE(coll->Insert(Value::Int64(43), Doc(43)).ok());

  // Facade rebuild heals every shard.
  ASSERT_TRUE(coll->RebuildIndex().ok());
  EXPECT_EQ(coll->health(), CollectionHealth::kHealthy);
  EXPECT_EQ(coll->healthy_shard_count(), 4u);
  EXPECT_TRUE(coll->Insert(Value::Int64(3), Doc(3)).ok());
}

TEST_F(ShardedCollectionTest, AllShardsQuarantinedIsQuarantined) {
  auto coll = JsonCollection::Create(&db_, "QALL", Sharded(2)).MoveValue();
  ASSERT_TRUE(coll->Insert(Value::Int64(1), Doc(1)).ok());
  coll->Quarantine("ops hold");  // facade call fans out to every shard
  EXPECT_EQ(coll->health(), CollectionHealth::kQuarantined);
  EXPECT_EQ(coll->healthy_shard_count(), 0u);
  EXPECT_FALSE(coll->Insert(Value::Int64(2), Doc(2)).ok());
}

// Post-chaos consistency: after a DML storm the per-shard structures and
// the placement invariant all check out; a document smuggled onto the
// wrong shard is caught by the placement cross-check.
TEST_F(ShardedCollectionTest, CheckConsistencyCoversShardsAndPlacement) {
  auto coll = JsonCollection::Create(&db_, "CC", Sharded(4)).MoveValue();
  std::vector<size_t> rids;
  for (int i = 1; i <= 40; ++i) {
    auto rid = coll->Insert(Value::Int64(i), Doc(i));
    ASSERT_TRUE(rid.ok());
    rids.push_back(rid.value());
  }
  for (int i = 0; i < 40; i += 5) ASSERT_TRUE(coll->Delete(rids[i]).ok());
  for (int i = 1; i < 40; i += 7) {
    if (i % 5 == 0) continue;  // that row was deleted above
    ASSERT_TRUE(
        coll->Replace(rids[i], Value::Int64(i + 1), Doc(1000 + i)).ok());
  }

  ConsistencyReport report = coll->CheckConsistency();
  EXPECT_TRUE(report.consistent) << report.ToString();
  EXPECT_EQ(report.live_rows, 32u);

  // Smuggle a document onto shard 3 whose key belongs on shard 0 (key 9),
  // bypassing the facade via the shard's raw table.
  ASSERT_EQ(coll->ShardForKey(Value::Int64(9)), 0u);
  ASSERT_TRUE(coll->shard(3)
                  ->table()
                  ->Insert({Value::Int64(9), Value::String(Doc(9))})
                  .ok());
  ConsistencyReport bad = coll->CheckConsistency();
  EXPECT_FALSE(bad.consistent);
  bool flagged = false;
  for (const std::string& p : bad.problems) {
    if (p.find("placement") != std::string::npos) flagged = true;
  }
  EXPECT_TRUE(flagged) << bad.ToString();
}

TEST_F(ShardedCollectionTest, TelemetryTablesExposeShardColumns) {
  auto plain = JsonCollection::Create(&db_, "T1").MoveValue();
  auto facade = JsonCollection::Create(&db_, "T4", Sharded(4)).MoveValue();
  for (int i = 1; i <= 12; ++i) {
    ASSERT_TRUE(plain->Insert(Value::Int64(i), Doc(i)).ok());
    ASSERT_TRUE(facade->Insert(Value::Int64(i), Doc(i)).ok());
  }
  facade->shard(1)->Quarantine("test");

  auto colls = CollectionsScan();
  const rdbms::Schema& cs = colls->schema();
  size_t name_at = cs.IndexOf("NAME");
  size_t shards_at = cs.IndexOf("SHARDS");
  size_t healthy_at = cs.IndexOf("SHARDS_HEALTHY");
  ASSERT_NE(shards_at, rdbms::Schema::npos);
  ASSERT_NE(healthy_at, rdbms::Schema::npos);
  auto rows = rdbms::Collect(colls.get()).MoveValue();
  bool saw_plain = false, saw_facade = false;
  for (const rdbms::Row& row : rows) {
    if (row[name_at].ToDisplayString() == "T1") {
      saw_plain = true;
      EXPECT_EQ(row[shards_at].AsInt64(), 1);
      EXPECT_EQ(row[healthy_at].AsInt64(), 1);
    }
    if (row[name_at].ToDisplayString() == "T4") {
      saw_facade = true;
      EXPECT_EQ(row[shards_at].AsInt64(), 4);
      EXPECT_EQ(row[healthy_at].AsInt64(), 3);  // shard 1 quarantined
    }
  }
  EXPECT_TRUE(saw_plain);
  EXPECT_TRUE(saw_facade);
  // Shard backing collections stay out of the registry: only facades show.
  for (const rdbms::Row& row : rows) {
    EXPECT_EQ(row[name_at].ToDisplayString().find("$s"), std::string::npos);
  }

  auto stats = PathStatsScan();
  const rdbms::Schema& ps = stats->schema();
  size_t coll_at = ps.IndexOf("COLLECTION");
  size_t shard_at = ps.IndexOf("SHARD");
  ASSERT_NE(shard_at, rdbms::Schema::npos);
  auto stat_rows = rdbms::Collect(stats.get()).MoveValue();
  std::vector<int64_t> facade_shards;
  for (const rdbms::Row& row : stat_rows) {
    if (row[coll_at].ToDisplayString() == "T4") {
      facade_shards.push_back(row[shard_at].AsInt64());
    } else if (row[coll_at].ToDisplayString() == "T1") {
      EXPECT_EQ(row[shard_at].AsInt64(), 0);
    }
  }
  std::sort(facade_shards.begin(), facade_shards.end());
  facade_shards.erase(
      std::unique(facade_shards.begin(), facade_shards.end()),
      facade_shards.end());
  // 12 documents over 4 shards: every shard saw documents, so every shard
  // contributes its own statistics rows.
  EXPECT_EQ(facade_shards, (std::vector<int64_t>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace fsdm::collection
