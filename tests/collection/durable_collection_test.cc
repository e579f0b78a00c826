#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>

#include "collection/collection.h"
#include "fault/fault.h"
#include "json/serializer.h"
#include "oson/oson.h"
#include "rdbms/executor.h"
#include "telemetry/telemetry.h"

namespace fsdm::collection {
namespace {

namespace fs = std::filesystem;

std::string Doc(int64_t n, const std::string& tag) {
  return "{\"n\":" + std::to_string(n) + ",\"tag\":\"" + tag + "\"}";
}

/// What any stored document normalizes to after one OSON round trip —
/// replayed documents are stored in exactly this form.
std::string Canon(const std::string& text) {
  auto img = oson::EncodeFromText(text);
  EXPECT_TRUE(img.ok()) << img.status().message();
  auto node = oson::Decode(img.value());
  EXPECT_TRUE(node.ok()) << node.status().message();
  return json::Serialize(*node.value());
}

/// key display string -> canonicalized document, for content comparison
/// that ignores row-id placement.
std::map<std::string, std::string> Contents(const JsonCollection& coll) {
  std::map<std::string, std::string> out;
  auto rows = rdbms::Collect(coll.Scan().get());
  EXPECT_TRUE(rows.ok()) << rows.status().message();
  if (rows.ok()) {
    for (const rdbms::Row& row : rows.value()) {
      out[row[0].ToDisplayString()] = Canon(row[1].AsString());
    }
  }
  return out;
}

class DurableCollectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("fsdm_durable_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fault::FaultRegistry::Global().DisarmAll();
  }
  void TearDown() override {
    fault::FaultRegistry::Global().DisarmAll();
    fs::remove_all(dir_);
  }

  CollectionOptions Durable(size_t shards = 1) {
    CollectionOptions o;
    o.wal_dir = dir_.string();
    o.wal_fsync = wal::FsyncPolicy::kOff;  // tests exercise replay, not fsync
    o.shard_count = shards;
    return o;
  }

  fs::path dir_;
};

TEST_F(DurableCollectionTest, ReopenReplaysInsertsReplacesAndDeletes) {
  std::map<std::string, std::string> expect;
  {
    rdbms::Database db;
    auto coll = JsonCollection::Create(&db, "D", Durable()).MoveValue();
    ASSERT_NE(coll->wal(), nullptr);
    size_t r1 = coll->Insert(Value::Int64(1), Doc(1, "a")).value();
    size_t r2 = coll->Insert(Value::Int64(2), Doc(2, "b")).value();
    ASSERT_TRUE(coll->Insert(Value::Int64(3), Doc(3, "c")).ok());
    ASSERT_TRUE(
        coll->Replace(r2, Value::Int64(2), Doc(2, "b-v2")).ok());
    ASSERT_TRUE(coll->Delete(r1).ok());
    expect["2"] = Canon(Doc(2, "b-v2"));
    expect["3"] = Canon(Doc(3, "c"));
    EXPECT_EQ(Contents(*coll), expect);
  }
  rdbms::Database db2;
  auto coll = JsonCollection::Create(&db2, "D", Durable()).MoveValue();
  EXPECT_EQ(Contents(*coll), expect);
  EXPECT_EQ(coll->document_count(), 2u);
  EXPECT_TRUE(coll->CheckConsistency().consistent);
  EXPECT_GT(coll->wal()->recovery().records_scanned, 0u);
  EXPECT_GT(coll->wal()->recovery().records_applied, 0u);
}

// A durable write parses its text once: the WAL image is encoded from that
// tree and the shard's IS JSON check adopts it. The check still counts one
// per row, and invalid text fails in that parse before anything is logged.
TEST_F(DurableCollectionTest, DurableWriteParsesOnceAndLogsNoInvalidText) {
  auto checks = [] {
    return telemetry::MetricsRegistry::Global().CounterValue(
        "fsdm_rdbms_isjson_checks_total");
  };
  rdbms::Database db;
  auto coll = JsonCollection::Create(&db, "D", Durable()).MoveValue();
  const uint64_t before = checks();
  size_t r1 = coll->Insert(Value::Int64(1), Doc(1, "a")).value();
  ASSERT_TRUE(coll->Insert(Value::Int64(2), Doc(2, "b")).ok());
  ASSERT_TRUE(coll->Replace(r1, Value::Int64(1), Doc(1, "a-v2")).ok());
  EXPECT_EQ(checks() - before, 3u);

  const uint64_t lsn = coll->wal()->last_lsn();
  Result<size_t> bad = coll->Insert(Value::Int64(3), "{\"n\":");
  EXPECT_EQ(bad.status().code(), StatusCode::kParseError)
      << bad.status().ToString();
  EXPECT_EQ(coll->Replace(r1, Value::Int64(1), "[1,").code(),
            StatusCode::kParseError);
  EXPECT_EQ(coll->wal()->last_lsn(), lsn) << "invalid text was logged";
  EXPECT_EQ(checks() - before, 3u);
  EXPECT_EQ(coll->document_count(), 2u);
  // The adopted parse fed the index and DataGuide like the table's own.
  EXPECT_TRUE(coll->CheckConsistency().consistent);
}

// A document with a duplicate key fails in the durable write's one parse,
// before anything is logged, and so never reaches a replay.
TEST_F(DurableCollectionTest, DuplicateKeysFailBeforeLogging) {
  {
    rdbms::Database db;
    auto coll = JsonCollection::Create(&db, "D", Durable()).MoveValue();
    size_t row = coll->Insert(Value::Int64(1), Doc(1, "a")).value();
    const uint64_t lsn = coll->wal()->last_lsn();
    EXPECT_EQ(
        coll->Insert(Value::Int64(2), "{\"w5\":1,\"w5\":2}").status().code(),
        StatusCode::kParseError);
    EXPECT_EQ(coll->Replace(row, Value::Int64(1), "{\"n\":{\"m\":1,\"m\":2}}")
                  .code(),
              StatusCode::kParseError);
    EXPECT_EQ(coll->wal()->last_lsn(), lsn) << "a duplicate key was logged";
  }
  rdbms::Database db;
  auto coll = JsonCollection::Create(&db, "D", Durable()).MoveValue();
  std::map<std::string, std::string> expect = {{"1", Canon(Doc(1, "a"))}};
  EXPECT_EQ(Contents(*coll), expect);
}

TEST_F(DurableCollectionTest, RowIdsStableAcrossFirstReplay) {
  size_t keep = 0;
  {
    rdbms::Database db;
    auto coll = JsonCollection::Create(&db, "D", Durable()).MoveValue();
    ASSERT_TRUE(coll->Insert(Value::Int64(1), Doc(1, "a")).ok());
    size_t mid = coll->Insert(Value::Int64(2), Doc(2, "b")).value();
    keep = coll->Insert(Value::Int64(3), Doc(3, "c")).value();
    ASSERT_TRUE(coll->Delete(mid).ok());
  }
  rdbms::Database db2;
  auto coll = JsonCollection::Create(&db2, "D", Durable()).MoveValue();
  // First replay (no prior checkpoint) reproduces the exact row history:
  // the surviving row keeps its pre-crash id, the deleted one stays dead.
  ASSERT_TRUE(coll->Replace(keep, Value::Int64(3), Doc(3, "c-v2")).ok());
  EXPECT_FALSE(coll->Delete(1).ok()) << "tombstone must not resurrect";
  EXPECT_EQ(Contents(*coll).at("3"), Canon(Doc(3, "c-v2")));
}

TEST_F(DurableCollectionTest, AutoKeyContinuesAfterReopen) {
  {
    rdbms::Database db;
    auto coll = JsonCollection::Create(&db, "D", Durable()).MoveValue();
    ASSERT_TRUE(coll->Insert(Doc(1, "a")).ok());
    ASSERT_TRUE(coll->Insert(Doc(2, "b")).ok());
  }
  rdbms::Database db2;
  auto coll = JsonCollection::Create(&db2, "D", Durable()).MoveValue();
  ASSERT_TRUE(coll->Insert(Doc(3, "c")).ok());
  auto contents = Contents(*coll);
  // Keys 1 and 2 were replayed; the post-reopen auto key must not collide.
  EXPECT_EQ(contents.size(), 3u);
  EXPECT_TRUE(contents.count("3")) << "auto key restarted and collided";
}

TEST_F(DurableCollectionTest, SecondReopenReplaysFromCheckpoint) {
  // Generation 1: write history. Generation 2: replay, then an explicit
  // checkpoint (recovery writes none of its own). Generation 3: replay
  // from that checkpoint plus generation 2's tail.
  {
    rdbms::Database db;
    auto coll = JsonCollection::Create(&db, "D", Durable()).MoveValue();
    for (int i = 1; i <= 6; ++i) {
      ASSERT_TRUE(coll->Insert(Value::Int64(i), Doc(i, "g1")).ok());
    }
    // Row ids == insertion order here: rows 2 and 4 hold keys 3 and 5.
    ASSERT_TRUE(coll->Delete(2).ok());
    ASSERT_TRUE(coll->Delete(4).ok());
  }
  size_t g2_row = 0;
  {
    rdbms::Database db;
    auto coll = JsonCollection::Create(&db, "D", Durable()).MoveValue();
    EXPECT_EQ(coll->document_count(), 4u);
    ASSERT_TRUE(coll->Checkpoint().ok());
    g2_row = coll->Insert(Value::Int64(7), Doc(7, "g2")).value();
    ASSERT_TRUE(coll->Replace(g2_row, Value::Int64(7), Doc(7, "g2-v2")).ok());
    ASSERT_TRUE(coll->Delete(0).ok());  // row 0 == key 1 (replay is exact)
  }
  rdbms::Database db3;
  auto coll = JsonCollection::Create(&db3, "D", Durable()).MoveValue();
  std::map<std::string, std::string> expect;
  for (int i : {2, 4, 6}) expect[std::to_string(i)] = Canon(Doc(i, "g1"));
  expect["7"] = Canon(Doc(7, "g2-v2"));
  EXPECT_EQ(Contents(*coll), expect);
  EXPECT_TRUE(coll->CheckConsistency().consistent);
}

// Recovery keeps the writer's row ids: after every reopen, each id the
// client was given still addresses its own document, and DML by a
// pre-crash id hits that document. Covers deletes on both sides of a
// checkpoint, an interrupted checkpoint, and two successive reopens.
TEST_F(DurableCollectionTest, RowIdsSurviveRecovery) {
  for (size_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    fs::remove_all(dir_);
    std::map<int64_t, size_t> ids;  // key -> acknowledged row id
    std::map<std::string, std::string> expect;
    auto insert = [&](JsonCollection* c, int64_t key, const char* tag) {
      Result<size_t> row = c->Insert(Value::Int64(key), Doc(key, tag));
      ASSERT_TRUE(row.ok()) << row.status().message();
      ids[key] = row.value();
      expect[std::to_string(key)] = Canon(Doc(key, tag));
    };
    auto erase = [&](JsonCollection* c, int64_t key) {
      ASSERT_TRUE(c->Delete(ids.at(key)).ok()) << "key " << key;
      ids.erase(key);
      expect.erase(std::to_string(key));
    };
    auto replace = [&](JsonCollection* c, int64_t key, const char* tag) {
      ASSERT_TRUE(c->Replace(ids.at(key), Value::Int64(key), Doc(key, tag))
                      .ok())
          << "key " << key;
      expect[std::to_string(key)] = Canon(Doc(key, tag));
    };
    // Every acknowledged id addresses its own key, and nothing else moved.
    auto check = [&](const JsonCollection& coll) {
      for (const auto& [key, id] : ids) {
        const Shard& shard = *coll.shard(id % shards);
        const size_t local = id / shards;
        ASSERT_TRUE(local < shard.table()->row_count() &&
                    shard.table()->IsLive(local))
            << "row " << id << " of key " << key << " is gone";
        EXPECT_EQ(shard.table()->StoredRow(local)[shard.key_pos()]
                      .ToDisplayString(),
                  std::to_string(key))
            << "row " << id;
      }
      EXPECT_EQ(Contents(coll), expect);
      EXPECT_EQ(coll.document_count(), expect.size());
      for (size_t s = 0; s < shards; ++s) {
        const rdbms::Table& t = *coll.shard(s)->table();
        EXPECT_EQ(t.HeapBytes(), t.RecomputeHeapBytes()) << "shard " << s;
      }
      EXPECT_TRUE(coll.CheckConsistency().consistent);
    };
    {
      rdbms::Database db;
      auto coll = JsonCollection::Create(&db, "D", Durable(shards)).MoveValue();
      for (int64_t k = 1; k <= 12; ++k) insert(coll.get(), k, "g1");
      erase(coll.get(), 2);
      erase(coll.get(), 5);
      ASSERT_TRUE(coll->Checkpoint().ok());
      erase(coll.get(), 7);
      erase(coll.get(), 9);
      replace(coll.get(), 3, "g1-v2");
      for (int64_t k = 13; k <= 16; ++k) insert(coll.get(), k, "g1");
      // The third record of the next checkpoint (its second document)
      // tears: Begin and one document reach the log, End never does.
      fault::FaultRegistry::Global().Arm("wal.append.short_write",
                                         fault::FaultSpec::Nth(3));
      EXPECT_FALSE(coll->Checkpoint().ok());
      EXPECT_TRUE(coll->wal()->failed());
      fault::FaultRegistry::Global().DisarmAll();
    }
    {
      rdbms::Database db;
      auto coll = JsonCollection::Create(&db, "D", Durable(shards)).MoveValue();
      check(*coll);
      if (HasFatalFailure()) return;
      erase(coll.get(), 4);
      replace(coll.get(), 6, "g2");
      insert(coll.get(), 17, "g2");
      erase(coll.get(), 13);
    }
    {
      rdbms::Database db;
      auto coll = JsonCollection::Create(&db, "D", Durable(shards)).MoveValue();
      check(*coll);
      if (HasFatalFailure()) return;
      erase(coll.get(), 8);
      replace(coll.get(), 17, "g3");
    }
    rdbms::Database db;
    auto coll = JsonCollection::Create(&db, "D", Durable(shards)).MoveValue();
    check(*coll);
  }
}

TEST_F(DurableCollectionTest, AbortedOperationIsNotReplayed) {
  {
    rdbms::Database db;
    auto coll = JsonCollection::Create(&db, "D", Durable()).MoveValue();
    ASSERT_TRUE(coll->Insert(Value::Int64(1), Doc(1, "a")).ok());
    // The observer failure hits AFTER the WAL append: the engine rolls the
    // row back and the collection appends a compensation record.
    fault::FaultRegistry::Global().Arm("collection.observer.insert",
                                       fault::FaultSpec::Once());
    EXPECT_FALSE(coll->Insert(Value::Int64(2), Doc(2, "b")).ok());
    fault::FaultRegistry::Global().DisarmAll();
    EXPECT_EQ(coll->wal()->aborts(), 1u);
    EXPECT_EQ(coll->document_count(), 1u);
  }
  rdbms::Database db2;
  auto coll = JsonCollection::Create(&db2, "D", Durable()).MoveValue();
  EXPECT_EQ(coll->document_count(), 1u) << "aborted insert resurrected";
  EXPECT_EQ(Contents(*coll).count("2"), 0u);
  EXPECT_GT(coll->wal()->recovery().aborted_skipped, 0u);
  EXPECT_TRUE(coll->CheckConsistency().consistent);
}

TEST_F(DurableCollectionTest, CrashBetweenAppendAndApplyRedoesTheOp) {
  {
    rdbms::Database db;
    auto coll = JsonCollection::Create(&db, "D", Durable()).MoveValue();
    ASSERT_TRUE(coll->Insert(Value::Int64(1), Doc(1, "a")).ok());
    // The "crash" happens after the record is durable but before the
    // engine applies it — the client never got an ack, and redo is the
    // documented (safe) direction of that ambiguity.
    fault::FaultRegistry::Global().Arm("wal.apply.crash",
                                       fault::FaultSpec::Once());
    EXPECT_FALSE(coll->Insert(Value::Int64(2), Doc(2, "b")).ok());
    fault::FaultRegistry::Global().DisarmAll();
    EXPECT_EQ(coll->document_count(), 1u);
  }
  rdbms::Database db2;
  auto coll = JsonCollection::Create(&db2, "D", Durable()).MoveValue();
  EXPECT_EQ(coll->document_count(), 2u) << "durable record must replay";
  EXPECT_EQ(Contents(*coll).at("2"), Canon(Doc(2, "b")));
  EXPECT_TRUE(coll->CheckConsistency().consistent);
}

TEST_F(DurableCollectionTest, ShardedCollectionRecoversAllShards) {
  CollectionOptions options = Durable(/*shards=*/4);
  std::map<std::string, std::string> expect;
  {
    rdbms::Database db;
    auto coll = JsonCollection::Create(&db, "D", options).MoveValue();
    ASSERT_EQ(coll->shard_count(), 4u);
    std::vector<size_t> rows;
    for (int i = 1; i <= 20; ++i) {
      auto row = coll->Insert(Value::Int64(i), Doc(i, "s"));
      ASSERT_TRUE(row.ok()) << row.status().message();
      rows.push_back(row.value());
      expect[std::to_string(i)] = Canon(Doc(i, "s"));
    }
    for (int i : {3, 7, 11}) {
      ASSERT_TRUE(coll->Delete(rows[i - 1]).ok());
      expect.erase(std::to_string(i));
    }
    ASSERT_TRUE(
        coll->Replace(rows[4], Value::Int64(5), Doc(5, "s-v2")).ok());
    expect["5"] = Canon(Doc(5, "s-v2"));
  }
  rdbms::Database db2;
  auto coll = JsonCollection::Create(&db2, "D", options).MoveValue();
  EXPECT_EQ(Contents(*coll), expect);
  EXPECT_EQ(coll->document_count(), expect.size());
  ConsistencyReport report = coll->CheckConsistency();
  EXPECT_TRUE(report.consistent) << report.ToString();
}

TEST_F(DurableCollectionTest, CheckpointBoundsSegmentCount) {
  CollectionOptions options = Durable();
  options.wal_segment_bytes = 512;
  rdbms::Database db;
  auto coll = JsonCollection::Create(&db, "D", options).MoveValue();
  for (int i = 1; i <= 40; ++i) {
    ASSERT_TRUE(coll->Insert(Value::Int64(i), Doc(i, "x")).ok());
  }
  EXPECT_GT(coll->wal()->segment_count(), 1u);
  ASSERT_TRUE(coll->Checkpoint().ok());
  EXPECT_EQ(coll->wal()->segment_count(), 1u);
  // Everything still recovers from the snapshot alone.
  coll.reset();
  rdbms::Database db2;
  auto reopened = JsonCollection::Create(&db2, "D2", options).MoveValue();
  EXPECT_EQ(reopened->document_count(), 40u);
  EXPECT_TRUE(reopened->CheckConsistency().consistent);
}

TEST_F(DurableCollectionTest, CheckpointWithoutWalIsAnError) {
  rdbms::Database db;
  auto coll = JsonCollection::Create(&db, "D").MoveValue();
  EXPECT_EQ(coll->wal(), nullptr);
  EXPECT_FALSE(coll->Checkpoint().ok());
}

TEST_F(DurableCollectionTest, DmlAfterWalPoisoningFails) {
  rdbms::Database db;
  auto coll = JsonCollection::Create(&db, "D", Durable()).MoveValue();
  ASSERT_TRUE(coll->Insert(Value::Int64(1), Doc(1, "a")).ok());
  {
    fault::ScopedFault guard("wal.append.short_write",
                             fault::FaultSpec::Once());
    EXPECT_FALSE(coll->Insert(Value::Int64(2), Doc(2, "b")).ok());
  }
  // The log refuses to write after a hole; un-logged DML must not proceed.
  EXPECT_FALSE(coll->Insert(Value::Int64(3), Doc(3, "c")).ok());
  EXPECT_EQ(coll->document_count(), 1u);
}

}  // namespace
}  // namespace fsdm::collection
