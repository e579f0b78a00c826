#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "collection/collection.h"
#include "collection/router.h"
#include "common/rng.h"
#include "fault/fault.h"
#include "rdbms/executor.h"
#include "sql/parser.h"
#include "telemetry/workload_repo.h"
#include "workloads/generators.h"

/// Memory accounting as the writers push it: every TELEMETRY$MEMORY BYTES
/// row of a collection equals a direct walk of its structures after every
/// kind of mutation, PEAK_BYTES is the true high-water mark even when no
/// one reads between the growth and the shrink, and reading the relation
/// from one session while another collection's WAL rotates and
/// checkpoints is race-free (the TSan build checks that).

namespace fsdm {
namespace {

namespace fs = std::filesystem;
using collection::CollectionOptions;
using collection::JsonCollection;

std::vector<std::string> Query(rdbms::Database* db, const std::string& sql) {
  sql::SqlSession session(db);
  Result<std::vector<std::string>> rows = session.Query(sql);
  EXPECT_TRUE(rows.ok()) << sql << "\n  -> " << rows.status().ToString();
  return rows.ok() ? rows.MoveValue() : std::vector<std::string>{};
}

/// SUBSYSTEM -> column value of the collection's TELEMETRY$MEMORY rows.
std::map<std::string, uint64_t> MemoryRows(rdbms::Database* db,
                                           const std::string& collection,
                                           const std::string& column) {
  std::map<std::string, uint64_t> out;
  for (const std::string& row :
       Query(db, "SELECT SUBSYSTEM, " + column +
                     " FROM TELEMETRY$MEMORY WHERE COLLECTION = '" +
                     collection + "'")) {
    const size_t sep = row.find('|');
    EXPECT_NE(sep, std::string::npos) << row;
    out[row.substr(0, sep)] = std::stoull(row.substr(sep + 1));
  }
  return out;
}

/// The same six rows from direct walks of every shard's structures.
std::map<std::string, uint64_t> Walk(const JsonCollection& c) {
  std::map<std::string, uint64_t> out = {
      {"table-heap", 0}, {"index-postings", 0}, {"dataguide", 0},
      {"imc", 0},        {"path-stats", 0},     {"wal-buffers", 0}};
  for (size_t i = 0; i < c.shard_count(); ++i) {
    const collection::Shard& s = *c.shard(i);
    out["table-heap"] += s.table()->RecomputeHeapBytes();
    out["dataguide"] += s.dataguide().RecomputeMemoryBytes();
    if (const index::JsonSearchIndex* index = s.search_index()) {
      out["index-postings"] += index->RecomputeMemoryBytes();
      if (index->dg_table() != nullptr) {
        out["dataguide"] += index->dg_table()->RecomputeHeapBytes();
      }
    }
    // A store DML invalidated is still resident, so it is still counted.
    if (s.held_imc() != nullptr) out["imc"] += s.held_imc()->MemoryBytes();
    out["path-stats"] += s.path_stats().RecomputeMemoryBytes();
  }
  if (c.wal() != nullptr) out["wal-buffers"] = c.wal()->MemoryBytes();
  return out;
}

class MemoryAccountingTest
    : public ::testing::TestWithParam<std::tuple<size_t, bool>> {
 protected:
  void SetUp() override {
    const auto [shards, indexed] = GetParam();
    name_ = "MACC" + std::to_string(shards) + (indexed ? "I" : "U");
    dir_ = fs::path(::testing::TempDir()) / ("fsdm_memacct_" + name_);
    fs::remove_all(dir_);
    fault::FaultRegistry::Global().DisarmAll();
  }
  void TearDown() override {
    fault::FaultRegistry::Global().DisarmAll();
    fs::remove_all(dir_);
  }

  CollectionOptions Options() const {
    const auto [shards, indexed] = GetParam();
    CollectionOptions o;
    o.shard_count = shards;
    o.attach_search_index = indexed;
    o.wal_dir = dir_.string();
    o.wal_fsync = wal::FsyncPolicy::kOff;
    o.wal_segment_bytes = 4096;  // DML rotates segments too
    return o;
  }

  void ExpectExact(rdbms::Database* db, const JsonCollection& c,
                   const std::string& after) {
    EXPECT_EQ(MemoryRows(db, name_, "BYTES"), Walk(c)) << "after " << after;
  }

  std::string name_;
  fs::path dir_;
};

TEST_P(MemoryAccountingTest, BytesEqualTheWalksAfterEveryMutation) {
  std::vector<std::pair<size_t, int64_t>> live;  // row id, key
  {
    rdbms::Database db;
    auto c = JsonCollection::Create(&db, name_, Options()).MoveValue();
    ExpectExact(&db, *c, "create");
    Rng rng(22);
    for (int64_t k = 0; k < 40; ++k) {
      Result<size_t> row =
          c->Insert(Value::Int64(k), workloads::Nobench(&rng, k));
      ASSERT_TRUE(row.ok()) << row.status().ToString();
      live.emplace_back(row.value(), k);
      ExpectExact(&db, *c, "insert " + std::to_string(k));
    }
    for (size_t i = 0; i < 10; ++i) {
      const auto [row, key] = live[i * 3];
      ASSERT_TRUE(c->Replace(row, Value::Int64(key),
                             workloads::Nobench(&rng, 100 + key))
                      .ok());
      ExpectExact(&db, *c, "replace " + std::to_string(key));
    }
    for (size_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(c->Delete(live.back().first).ok());
      live.pop_back();
      ExpectExact(&db, *c, "delete");
    }

    // Vetoed DML: the table and every observer roll back, the WAL keeps
    // the appended record and its compensation.
    {
      fault::ScopedFault veto("collection.observer.insert",
                              fault::FaultSpec::Once());
      EXPECT_FALSE(
          c->Insert(Value::Int64(1000), workloads::Nobench(&rng, 1000)).ok());
    }
    ExpectExact(&db, *c, "vetoed insert");
    {
      fault::ScopedFault veto("collection.observer.replace",
                              fault::FaultSpec::Once());
      const auto [row, key] = live.front();
      EXPECT_FALSE(
          c->Replace(row, Value::Int64(key), workloads::Nobench(&rng, 2000))
              .ok());
    }
    ExpectExact(&db, *c, "vetoed replace");
    {
      fault::ScopedFault veto("wal.apply.crash", fault::FaultSpec::Once());
      EXPECT_FALSE(
          c->Insert(Value::Int64(3000), workloads::Nobench(&rng, 3000)).ok());
    }
    ExpectExact(&db, *c, "insert vetoed between append and apply");

    ASSERT_TRUE(c->RebuildIndex().ok());
    ExpectExact(&db, *c, "RebuildIndex");

    ASSERT_TRUE(c->PopulateImc().ok());
    ASSERT_TRUE(c->imc_valid());
    ExpectExact(&db, *c, "PopulateImc");
    ASSERT_TRUE(
        c->Insert(Value::Int64(4000), workloads::Nobench(&rng, 4000)).ok());
    ASSERT_FALSE(c->imc_valid());
    ExpectExact(&db, *c, "IMC-invalidating insert");
    EXPECT_GT(MemoryRows(&db, name_, "BYTES")["imc"], 0u)
        << "the invalidated store is still held";
    ASSERT_TRUE(c->EnsureImc().ok());
    ExpectExact(&db, *c, "EnsureImc");

    ASSERT_TRUE(c->Checkpoint().ok());
    ExpectExact(&db, *c, "Checkpoint");
  }
  // Closed: the collection's rows are gone.
  {
    rdbms::Database probe;
    EXPECT_TRUE(MemoryRows(&probe, name_, "BYTES").empty());
  }

  rdbms::Database db;
  auto reopened = JsonCollection::Create(&db, name_, Options()).MoveValue();
  ASSERT_GT(reopened->wal()->recovery().records_applied, 0u);
  ExpectExact(&db, *reopened, "reopen with recovery");
}

INSTANTIATE_TEST_SUITE_P(
    ShardsAndIndex, MemoryAccountingTest,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{4}),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<size_t, bool>>& info) {
      return std::to_string(std::get<0>(info.param)) + "shards_" +
             (std::get<1>(info.param) ? "indexed" : "unindexed");
    });

TEST(MemoryPeakTest, PeakIsTheHighWaterWithNoReadBetween) {
  for (size_t shards : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    const std::string name = "MPEAK" + std::to_string(shards);
    CollectionOptions options;
    options.shard_count = shards;
    rdbms::Database db;
    auto c = JsonCollection::Create(&db, name, options).MoveValue();
    auto postings = [&c] {
      uint64_t bytes = 0;
      for (size_t i = 0; i < c->shard_count(); ++i) {
        bytes += c->shard(i)->search_index()->MemoryBytes();
      }
      return bytes;
    };
    // No tracker read from here until every document is gone again.
    uint64_t high_water = postings();
    Rng rng(7);
    std::vector<size_t> rows;
    for (int64_t k = 0; k < 60; ++k) {
      rows.push_back(
          c->Insert(Value::Int64(k), workloads::Nobench(&rng, k)).MoveValue());
      high_water = std::max(high_water, postings());
    }
    for (size_t row : rows) {
      ASSERT_TRUE(c->Delete(row).ok());
      high_water = std::max(high_water, postings());
    }
    ASSERT_LT(postings(), high_water);
    EXPECT_GE(MemoryRows(&db, name, "PEAK_BYTES")["index-postings"],
              high_water);
    EXPECT_EQ(MemoryRows(&db, name, "BYTES")["index-postings"], postings());
  }
}

// The WAL's footprint is the writer and its segment list: neither the
// length of the directory path nor the recovery notes (which name segment
// paths) may move it, so the same log reads the same wherever it lives.
TEST(WalMemoryTest, FootprintIgnoresTheDirectoryAndRecoveryNotes) {
  const fs::path base = fs::path(::testing::TempDir());
  const fs::path dirs[] = {base / "fsdm_walmem_a",
                           base / ("fsdm_walmem_" + std::string(60, 'b'))};
  auto options = [](const fs::path& dir) {
    CollectionOptions o;
    o.wal_dir = dir.string();
    o.wal_fsync = wal::FsyncPolicy::kOff;
    o.wal_segment_bytes = 4096;
    return o;
  };
  for (const fs::path& dir : dirs) {
    fs::remove_all(dir);
    rdbms::Database db;
    auto c = JsonCollection::Create(&db, "WALMEM", options(dir)).MoveValue();
    Rng rng(5);
    for (int64_t k = 0; k < 30; ++k) {
      ASSERT_TRUE(c->Insert(Value::Int64(k), workloads::Nobench(&rng, k)).ok());
    }
  }
  // Tear the first log's tail: a few bytes of a record header that never
  // finished. Recovery truncates them and leaves a note.
  fs::path newest;
  for (const fs::directory_entry& e : fs::directory_iterator(dirs[0])) {
    if (newest.empty() || e.path().filename() > newest.filename()) {
      newest = e.path();
    }
  }
  ASSERT_FALSE(newest.empty());
  std::ofstream(newest, std::ios::binary | std::ios::app) << "torn";

  uint64_t bytes[2] = {0, 0};
  for (size_t i = 0; i < 2; ++i) {
    rdbms::Database db;
    auto c = JsonCollection::Create(&db, "WALMEM", options(dirs[i]))
                 .MoveValue();
    EXPECT_EQ(c->document_count(), 30u);
    EXPECT_EQ(c->wal()->recovery().notes.empty(), i == 1);
    bytes[i] = MemoryRows(&db, "WALMEM", "BYTES")["wal-buffers"];
    EXPECT_EQ(bytes[i], c->wal()->MemoryBytes());
  }
  EXPECT_GT(bytes[0], 0u);
  EXPECT_EQ(bytes[0], bytes[1]);
  for (const fs::path& dir : dirs) fs::remove_all(dir);
}

// One session routes queries on collection A and reads TELEMETRY$MEMORY
// and workload snapshots, while another inserts into durable collection B,
// whose WAL rotates every few records and checkpoints now and then. The
// readers must never touch B's live structures.
TEST(CrossCollectionTelemetryTest, ReadsRaceNoOtherCollectionsWriter) {
  const fs::path dir = fs::path(::testing::TempDir()) / "fsdm_memacct_cross";
  fs::remove_all(dir);
  rdbms::Database db_a;
  rdbms::Database db_b;
  auto a = JsonCollection::Create(&db_a, "XREAD").MoveValue();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(a->Insert("{\"num\":" + std::to_string(i) + "}").ok());
  }
  CollectionOptions durable;
  durable.wal_dir = dir.string();
  durable.wal_fsync = wal::FsyncPolicy::kOff;
  durable.wal_segment_bytes = 4096;
  auto b = JsonCollection::Create(&db_b, "XWRITE", durable).MoveValue();

  std::atomic<bool> done{false};
  size_t reads = 0;
  std::thread reader([&] {
    sql::SqlSession session(&db_a);
    do {
      auto routed = collection::RoutePredicates(
          *a, {collection::PathPredicate::Compare(
                  "$.num", rdbms::CompareOp::kEq, Value::Int64(7))});
      ASSERT_TRUE(routed.ok());
      Result<std::vector<rdbms::Row>> rows =
          rdbms::Collect(routed.value().plan.get());
      ASSERT_TRUE(rows.ok());
      EXPECT_EQ(rows.value().size(), 1u);
      ASSERT_TRUE(session.Query("SELECT * FROM TELEMETRY$MEMORY").ok());
      telemetry::WorkloadRepository::Global().TakeSnapshot("cross");
      ++reads;
    } while (!done.load(std::memory_order_acquire));
  });
  Rng rng(11);
  for (int64_t k = 0; k < 300; ++k) {
    EXPECT_TRUE(b->Insert(Value::Int64(k), workloads::Nobench(&rng, k)).ok());
    if (k % 50 == 49) {
      EXPECT_TRUE(b->Checkpoint().ok());
    }
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(reads, 0u);
  EXPECT_GT(b->wal()->segment_count(), 0u);
  EXPECT_EQ(MemoryRows(&db_a, "XWRITE", "BYTES"), Walk(*b));
  b.reset();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace fsdm
