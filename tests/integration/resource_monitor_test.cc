#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "collection/collection.h"
#include "collection/router.h"
#include "common/rng.h"
#include "fault/fault.h"
#include "rdbms/executor.h"
#include "sql/parser.h"
#include "telemetry/memory_tracker.h"
#include "telemetry/query_monitor.h"
#include "telemetry/slow_query.h"
#include "telemetry/telemetry.h"
#include "workloads/generators.h"

/// ISSUE 9 acceptance tests: (a) a latency-fault-stalled drain is visible
/// to a concurrent session through TELEMETRY$QUERY_MONITOR with advancing
/// row counts, disappears from the monitor at close, and lands in
/// TELEMETRY$SLOW_QUERIES with a nonzero memory peak; (b) the memory
/// tracker's grand total reconciles with a direct recompute walk over the
/// collection's structures to within 1% for a seeded NOBENCH load.

namespace fsdm {
namespace {

class ResourceMonitorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::SlowQueryLog::Global().Clear();
    telemetry::MemoryTracker::Global().ResetCharges();
  }
  void TearDown() override {
    telemetry::SlowQueryLog::Global().Clear();
    telemetry::SlowQueryLog::Global().SetThresholdUs(10000);
  }

  std::vector<std::string> Q(const std::string& sql) {
    sql::SqlSession session(&db_);
    auto r = session.Query(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n  -> " << r.status().ToString();
    return r.ok() ? r.MoveValue() : std::vector<std::string>{};
  }

  rdbms::Database db_;
};

TEST_F(ResourceMonitorTest, StalledDrainVisibleInMonitorThenInSlowLog) {
  auto coll = collection::JsonCollection::Create(&db_, "RMON").MoveValue();
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(coll->Insert("{\"num\":" + std::to_string(i) + "}").ok());
  }
  telemetry::SlowQueryLog::Global().SetThresholdUs(0);

  auto routed = collection::RoutePredicates(
                    *coll, {collection::PathPredicate::Compare(
                               "$.num", rdbms::CompareOp::kGt,
                               Value::Int64(-1))})
                    .MoveValue();

  // Hold every probe Next() for 300us: the ~600-row drain stays in flight
  // for ~200ms, long enough for this thread to watch it through SQL.
  // TELEMETRY$ scans do not pass through RoutedQueryProbe, so the polling
  // queries below are unaffected by the armed fault.
  fault::ScopedFault stall("router.drain.next",
                           fault::FaultSpec::StallUs(300));
  std::atomic<bool> drain_ok{false};
  std::thread drainer([&routed, &drain_ok]() {
    auto rows = rdbms::Collect(routed.plan.get());
    drain_ok.store(rows.ok() && rows.value().size() == 600,
                   std::memory_order_relaxed);
  });

  // Poll the monitor: the summary row (OPERATOR IS NULL) must appear with
  // monotonically advancing ROWS_OUT.
  std::vector<uint64_t> progress;
  uint64_t query_id = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    std::vector<std::string> rows =
        Q("SELECT QUERY_ID, ROWS_OUT FROM TELEMETRY$QUERY_MONITOR "
          "WHERE COLLECTION = 'RMON' AND OPERATOR IS NULL");
    if (!rows.empty()) {
      const size_t sep = rows[0].find('|');
      ASSERT_NE(sep, std::string::npos) << rows[0];
      query_id = std::stoull(rows[0].substr(0, sep));
      const uint64_t rows_out = std::stoull(rows[0].substr(sep + 1));
      if (rows_out > 0 &&
          (progress.empty() || rows_out != progress.back())) {
        progress.push_back(rows_out);
      }
      if (progress.size() >= 3) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  drainer.join();

  EXPECT_TRUE(drain_ok.load(std::memory_order_relaxed));
  EXPECT_NE(query_id, 0u);
  ASSERT_GE(progress.size(), 3u) << "never caught the drain in flight";
  for (size_t i = 1; i < progress.size(); ++i) {
    EXPECT_GT(progress[i], progress[i - 1]);
  }

  // Closed: gone from the monitor...
  EXPECT_TRUE(Q("SELECT QUERY_ID FROM TELEMETRY$QUERY_MONITOR "
                "WHERE COLLECTION = 'RMON'")
                  .empty());

  // ...and present in the slow-query log, cross-linked by query id, with
  // the memory peak the probe sampled during the drain (the resident table
  // heap guarantees it is nonzero).
  std::vector<telemetry::SlowQueryRecord> snap =
      telemetry::SlowQueryLog::Global().Snapshot();
  const telemetry::SlowQueryRecord* rec = nullptr;
  for (const telemetry::SlowQueryRecord& r : snap) {
    if (r.query_id == query_id) rec = &r;
  }
  ASSERT_NE(rec, nullptr) << "slow log lost query " << query_id;
  EXPECT_EQ(rec->rows, 600u);
  EXPECT_GT(rec->peak_mem_bytes, 0u);

  // The SQL exposure carries both columns too.
  std::vector<std::string> sql_rows =
      Q("SELECT QUERY_ID, PEAK_MEM_BYTES FROM TELEMETRY$SLOW_QUERIES");
  bool found = false;
  for (const std::string& row : sql_rows) {
    const size_t sep = row.find('|');
    ASSERT_NE(sep, std::string::npos) << row;
    if (std::stoull(row.substr(0, sep)) != query_id) continue;
    found = true;
    EXPECT_GT(std::stoull(row.substr(sep + 1)), 0u);
  }
  EXPECT_TRUE(found);
}

TEST_F(ResourceMonitorTest, DroppedPlanLeavesMonitorBeforeSpansDie) {
  // Error-path lifetime regression: a plan Open()ed and then destroyed
  // WITHOUT Close() must leave the monitor via the probe's destructor, and
  // RoutedPlan's member order guarantees that unregister runs before the
  // trace (the span tree the monitor walks) is torn down — a snapshot
  // concurrent with the drop can never chase freed spans.
  auto coll = collection::JsonCollection::Create(&db_, "RDROP").MoveValue();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(coll->Insert("{\"num\":" + std::to_string(i) + "}").ok());
  }
  telemetry::QueryMonitor& m = telemetry::QueryMonitor::Global();
  const size_t in_flight_before = m.InFlightCount();
  {
    auto routed = collection::RoutePredicates(
                      *coll, {collection::PathPredicate::Compare(
                                 "$.num", rdbms::CompareOp::kGt,
                                 Value::Int64(-1))})
                      .MoveValue();
    ASSERT_TRUE(routed.plan->Open().ok());
    EXPECT_EQ(m.InFlightCount(), in_flight_before + 1);
    rdbms::Row row;
    ASSERT_TRUE(routed.plan->Next(&row).ok());
    // Dropped here: no Close().
  }
  EXPECT_EQ(m.InFlightCount(), in_flight_before);
}

TEST_F(ResourceMonitorTest, TrackerReconcilesWithRecomputeWalkOnNobench) {
  collection::CollectionOptions opts;
  opts.shard_count = 2;  // exercises the facade reporters' shard summing
  auto coll =
      collection::JsonCollection::Create(&db_, "RMEM", opts).MoveValue();
  Rng rng(20160626);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(coll->Insert(workloads::Nobench(&rng, i)).ok());
  }

  // Direct recompute walk over every shard's structures, with the same
  // subsystem coverage the registered reporters have: table heap, index
  // postings, DataGuide (+ its $DG side table), path stats. No WAL, no
  // IMC, and no transient charges are live at rest.
  uint64_t expected = 0;
  for (size_t s = 0; s < coll->shard_count(); ++s) {
    const collection::Shard* shard = coll->shard(s);
    ASSERT_NE(shard->table(), nullptr);
    ASSERT_NE(shard->search_index(), nullptr);
    expected += shard->table()->RecomputeHeapBytes();
    expected += shard->search_index()->RecomputeMemoryBytes();
    expected += shard->search_index()->dataguide().MemoryBytes();
    if (shard->search_index()->dg_table() != nullptr) {
      expected += shard->search_index()->dg_table()->RecomputeHeapBytes();
    }
    expected += shard->path_stats().MemoryBytes();
  }
  ASSERT_GT(expected, 0u);

  const uint64_t tracked = telemetry::MemoryTracker::Global().Refresh();
  const double drift =
      expected > tracked ? static_cast<double>(expected - tracked)
                         : static_cast<double>(tracked - expected);
  EXPECT_LE(drift, 0.01 * static_cast<double>(expected))
      << "tracked=" << tracked << " expected=" << expected;

  // The SQL exposure sees the same load: a nonzero table-heap row for the
  // collection, and the per-query monitor relation is empty at rest.
  std::vector<std::string> rows =
      Q("SELECT BYTES FROM TELEMETRY$MEMORY "
        "WHERE COLLECTION = 'RMEM' AND SUBSYSTEM = 'table-heap'");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_GT(std::stoull(rows[0]), 0u);
  EXPECT_TRUE(Q("SELECT QUERY_ID FROM TELEMETRY$QUERY_MONITOR").empty());
}

}  // namespace
}  // namespace fsdm
