#include "telemetry/memory_tracker.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/query_monitor.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "telemetry/trace_event.h"

/// Unit tests for the ISSUE 9 resource-accounting subsystem: the
/// MemoryTracker's two charging models (pull reporters / push charges) and
/// the QueryMonitor's register-snapshot-unregister lifecycle.

namespace fsdm::telemetry {
namespace {

class MemoryTrackerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MemoryTracker::Global().ResetCharges();
    MemoryTracker::Global().ResetPeaks();
  }
  void TearDown() override {
    MemoryTracker::Global().ResetCharges();
    MemoryTracker::Global().ResetPeaks();
  }
};

TEST_F(MemoryTrackerTest, SubsystemNamesAreStable) {
  // These strings are the `subsystem` gauge label, the TELEMETRY$MEMORY
  // SUBSYSTEM column and the BENCH_*.json "memory" keys — renaming one is
  // a breaking change to every consumer.
  EXPECT_STREQ(MemSubsystemName(MemSubsystem::kTableHeap), "table-heap");
  EXPECT_STREQ(MemSubsystemName(MemSubsystem::kOsonVc), "oson-vc");
  EXPECT_STREQ(MemSubsystemName(MemSubsystem::kIndexPostings),
               "index-postings");
  EXPECT_STREQ(MemSubsystemName(MemSubsystem::kDataGuide), "dataguide");
  EXPECT_STREQ(MemSubsystemName(MemSubsystem::kImc), "imc");
  EXPECT_STREQ(MemSubsystemName(MemSubsystem::kPathStats), "path-stats");
  EXPECT_STREQ(MemSubsystemName(MemSubsystem::kWalBuffers), "wal-buffers");
  EXPECT_STREQ(MemSubsystemName(MemSubsystem::kPlanWorkingSet),
               "plan-working-set");
}

TEST_F(MemoryTrackerTest, OwnedStringBytesUsesSizeNotCapacity) {
  std::string s = "hello";
  const uint64_t before = OwnedStringBytes(s);
  s.reserve(4096);  // capacity grows, accounted size must not
  EXPECT_EQ(OwnedStringBytes(s), before);
  EXPECT_EQ(before, sizeof(std::string) + 5);
}

TEST_F(MemoryTrackerTest, ReporterRefreshRatchetsPeaksAndUnregisters) {
  MemoryTracker& t = MemoryTracker::Global();
  const size_t reporters_before = t.reporter_count();
  uint64_t bytes = 1000;
  {
    MemoryScope scope(MemSubsystem::kTableHeap, "MT_TEST",
                      [&bytes]() { return bytes; });
    ASSERT_TRUE(scope.engaged());
    EXPECT_EQ(t.reporter_count(), reporters_before + 1);

    t.Refresh();
    EXPECT_GE(t.SubsystemBytes(MemSubsystem::kTableHeap), 1000u);

    auto find = [&t]() -> MemoryTracker::Entry {
      for (const MemoryTracker::Entry& e : t.Entries()) {
        if (e.collection == "MT_TEST") return e;
      }
      return {};
    };
    MemoryTracker::Entry e = find();
    EXPECT_EQ(e.bytes, 1000u);
    EXPECT_EQ(e.peak_bytes, 1000u);

    // Shrinking keeps the entry peak; growing ratchets it.
    bytes = 400;
    t.Refresh();
    e = find();
    EXPECT_EQ(e.bytes, 400u);
    EXPECT_EQ(e.peak_bytes, 1000u);
    bytes = 2500;
    t.Refresh();
    e = find();
    EXPECT_EQ(e.peak_bytes, 2500u);
  }
  EXPECT_EQ(t.reporter_count(), reporters_before);
  t.Refresh();
  for (const MemoryTracker::Entry& e : t.Entries()) {
    EXPECT_NE(e.collection, "MT_TEST");
  }
}

TEST_F(MemoryTrackerTest, UnregisterRatchetsPeaksWithTheLastPoll) {
  // A structure that grew after the last Refresh() and then went away
  // (a bench's collection dropped before its report) must still show in
  // the subsystem and total peaks.
  MemoryTracker& t = MemoryTracker::Global();
  uint64_t bytes = 100;
  {
    MemoryScope scope(MemSubsystem::kPathStats, "MT_GONE",
                      [&bytes]() { return bytes; });
    t.Refresh();
    bytes = 70000;  // grows, never refreshed again
  }
  EXPECT_GE(t.SubsystemPeakBytes(MemSubsystem::kPathStats), 70000u);
  EXPECT_GE(t.PeakBytes(), 70000u);

  // Never refreshed at all: the unregister poll is the only observation.
  {
    MemoryScope scope(MemSubsystem::kWalBuffers, "MT_UNSEEN",
                      []() { return uint64_t{90000}; });
  }
  EXPECT_GE(t.SubsystemPeakBytes(MemSubsystem::kWalBuffers), 90000u);
  EXPECT_GE(t.PeakBytes(), 90000u);
}

TEST_F(MemoryTrackerTest, ChargesRatchetPeakWithoutRefresh) {
  MemoryTracker& t = MemoryTracker::Global();
  const uint64_t base = t.CurrentBytes();
  {
    MemoryCharge charge(MemSubsystem::kPlanWorkingSet, 5000);
    EXPECT_EQ(charge.bytes(), 5000u);
    EXPECT_EQ(t.CurrentBytes(), base + 5000);
    // The peak must be visible immediately — a drain's working set is gone
    // before anyone calls Refresh().
    EXPECT_GE(t.PeakBytes(), base + 5000);
    charge.Add(2000);
    EXPECT_EQ(t.CurrentBytes(), base + 7000);
  }
  EXPECT_EQ(t.CurrentBytes(), base);
  // Released charges keep their high-water mark in Entries().
  bool found = false;
  for (const MemoryTracker::Entry& e : t.Entries()) {
    if (e.subsystem == MemSubsystem::kPlanWorkingSet && e.collection == "-") {
      found = true;
      EXPECT_EQ(e.bytes, 0u);
      EXPECT_GE(e.peak_bytes, 7000u);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(MemoryTrackerTest, SubsystemPeakIsSimultaneousNotSumOfEntryPeaks) {
  MemoryTracker& t = MemoryTracker::Global();
  t.Refresh();
  // Whatever other kImc reporters are alive in this process contribute a
  // stable baseline to the subsystem total.
  const uint64_t others = t.SubsystemBytes(MemSubsystem::kImc);
  // Two reporters whose individual peaks (3000 and 2000) are reached at
  // different times, never summing past 4000 at any single Refresh. The
  // per-subsystem high-water must track the largest simultaneous total,
  // not the 5000 a sum of per-entry peaks would claim.
  uint64_t a = 3000;
  uint64_t b = 1000;
  MemoryScope sa(MemSubsystem::kImc, "MT_PEAK_A", [&a]() { return a; });
  MemoryScope sb(MemSubsystem::kImc, "MT_PEAK_B", [&b]() { return b; });
  t.Refresh();  // a=3000, b=1000 -> 4000
  a = 1000;
  b = 2000;
  t.Refresh();  // a=1000, b=2000 -> 3000
  uint64_t entry_peak_sum = 0;
  for (const MemoryTracker::Entry& e : t.Entries()) {
    if (e.collection == "MT_PEAK_A" || e.collection == "MT_PEAK_B") {
      entry_peak_sum += e.peak_bytes;
    }
  }
  EXPECT_EQ(entry_peak_sum, 5000u);
  EXPECT_EQ(t.SubsystemPeakBytes(MemSubsystem::kImc), others + 4000);
}

TEST_F(MemoryTrackerTest, ChargesRatchetSubsystemPeakWithoutRefresh) {
  MemoryTracker& t = MemoryTracker::Global();
  const uint64_t base = t.SubsystemPeakBytes(MemSubsystem::kPlanWorkingSet);
  {
    MemoryCharge charge(MemSubsystem::kPlanWorkingSet, 6000);
    EXPECT_GE(t.SubsystemPeakBytes(MemSubsystem::kPlanWorkingSet),
              base + 6000);
  }
  // Released, but the subsystem high-water survives until ResetPeaks().
  EXPECT_GE(t.SubsystemPeakBytes(MemSubsystem::kPlanWorkingSet), base + 6000);
  t.ResetPeaks();
  EXPECT_EQ(t.SubsystemPeakBytes(MemSubsystem::kPlanWorkingSet), 0u);
}

TEST_F(MemoryTrackerTest, CurrentBytesCombinesReportersAndLiveCharges) {
  MemoryTracker& t = MemoryTracker::Global();
  MemoryScope scope(MemSubsystem::kImc, "MT_MIX", []() { return 300u; });
  t.Refresh();
  const uint64_t with_reporter = t.CurrentBytes();
  MemoryCharge charge(MemSubsystem::kOsonVc, 77);
  EXPECT_EQ(t.CurrentBytes(), with_reporter + 77);
  EXPECT_GE(t.SubsystemBytes(MemSubsystem::kOsonVc), 77u);
  charge.Reset();
  EXPECT_EQ(t.CurrentBytes(), with_reporter);
}

TEST_F(MemoryTrackerTest, MemoryScopeMoveTransfersOwnership) {
  MemoryTracker& t = MemoryTracker::Global();
  const size_t before = t.reporter_count();
  MemoryScope a(MemSubsystem::kWalBuffers, "MT_MOVE", []() { return 1u; });
  MemoryScope b(std::move(a));
  EXPECT_FALSE(a.engaged());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.engaged());
  EXPECT_EQ(t.reporter_count(), before + 1);
  b.Reset();
  EXPECT_EQ(t.reporter_count(), before);
}

TEST_F(MemoryTrackerTest, MemoryChargeMoveReleasesExactlyOnce) {
  MemoryTracker& t = MemoryTracker::Global();
  const uint64_t base = t.SubsystemBytes(MemSubsystem::kPlanWorkingSet);
  {
    MemoryCharge a(MemSubsystem::kPlanWorkingSet, 100);
    {
      MemoryCharge b(std::move(a));
      EXPECT_EQ(t.SubsystemBytes(MemSubsystem::kPlanWorkingSet), base + 100);
    }
    // b released the 100; the moved-from a must not release again.
    EXPECT_EQ(t.SubsystemBytes(MemSubsystem::kPlanWorkingSet), base);
  }
  EXPECT_EQ(t.SubsystemBytes(MemSubsystem::kPlanWorkingSet), base);
}

class QueryMonitorTest : public ::testing::Test {
 protected:
  void SetUp() override {
  }
};

TEST_F(QueryMonitorTest, AllocateQueryIdIsMonotonicAndNonzero) {
  QueryMonitor& m = QueryMonitor::Global();
  const uint64_t a = m.AllocateQueryId();
  const uint64_t b = m.AllocateQueryId();
  EXPECT_NE(a, 0u);
  EXPECT_GT(b, a);
}

TEST_F(QueryMonitorTest, OperatorLiveStateNames) {
  EXPECT_STREQ(OperatorLiveStateName(OperatorSpan::kPending), "pending");
  EXPECT_STREQ(OperatorLiveStateName(OperatorSpan::kOpen), "open");
  EXPECT_STREQ(OperatorLiveStateName(OperatorSpan::kDone), "done");
  EXPECT_STREQ(OperatorLiveStateName(99), "?");
}

TEST_F(QueryMonitorTest, SnapshotDeepCopiesSpanTreePreOrder) {
  QueryMonitor& m = QueryMonitor::Global();
  const size_t in_flight_before = m.InFlightCount();

  // Root(Filter) -> [Scan -> [Fetch], Probe]: the flattened snapshot must
  // be pre-order with correct depths.
  std::unique_ptr<OperatorSpan> root = MakeSpan("Filter", "$.a > 1");
  root->children.push_back(MakeSpan("Scan", "full"));
  root->children[0]->children.push_back(MakeSpan("Fetch"));
  root->children.push_back(MakeSpan("Probe"));
  root->rows_out.store(42, std::memory_order_relaxed);
  root->live_state.store(OperatorSpan::kOpen, std::memory_order_relaxed);
  root->live_open_ts_us.store(MonotonicNowUs(), std::memory_order_relaxed);
  root->children[0]->live_state.store(OperatorSpan::kDone,
                                      std::memory_order_relaxed);
  root->children[0]->live_elapsed_us.store(123, std::memory_order_relaxed);
  root->children[0]->rows_out.store(50, std::memory_order_relaxed);
  root->children[0]->shard = 2;

  const uint64_t id = m.AllocateQueryId();
  m.Register(id, "QM_TEST", "find a > 1", "indexed-value-scan",
             /*est_rows=*/40, root.get());
  EXPECT_EQ(m.InFlightCount(), in_flight_before + 1);

  std::vector<MonitoredQuery> snap = m.Snapshot();
  const MonitoredQuery* q = nullptr;
  for (const MonitoredQuery& cand : snap) {
    if (cand.query_id == id) q = &cand;
  }
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->collection, "QM_TEST");
  EXPECT_EQ(q->query, "find a > 1");
  EXPECT_EQ(q->access_path, "indexed-value-scan");
  EXPECT_DOUBLE_EQ(q->est_rows, 40.0);
  EXPECT_EQ(q->rows_out, 42u);

  ASSERT_EQ(q->operators.size(), 4u);
  EXPECT_EQ(q->operators[0].name, "Filter");
  EXPECT_EQ(q->operators[0].depth, 0);
  EXPECT_EQ(q->operators[0].state, OperatorSpan::kOpen);
  EXPECT_EQ(q->operators[0].rows_out, 42u);
  EXPECT_EQ(q->operators[1].name, "Scan");
  EXPECT_EQ(q->operators[1].depth, 1);
  EXPECT_EQ(q->operators[1].state, OperatorSpan::kDone);
  EXPECT_EQ(q->operators[1].elapsed_us, 123u);
  EXPECT_EQ(q->operators[1].shard, 2);
  EXPECT_EQ(q->operators[2].name, "Fetch");
  EXPECT_EQ(q->operators[2].depth, 2);
  EXPECT_EQ(q->operators[2].state, OperatorSpan::kPending);
  EXPECT_EQ(q->operators[3].name, "Probe");
  EXPECT_EQ(q->operators[3].depth, 1);

  // Progress written after the snapshot must not be visible in it: the
  // copy is deep.
  root->rows_out.store(1000, std::memory_order_relaxed);
  EXPECT_EQ(q->operators[0].rows_out, 42u);

  m.Unregister(id);
  EXPECT_EQ(m.InFlightCount(), in_flight_before);
  for (const MonitoredQuery& cand : m.Snapshot()) {
    EXPECT_NE(cand.query_id, id);
  }
}

TEST_F(QueryMonitorTest, ReRegisteringAnIdReplacesTheStaleEntry) {
  QueryMonitor& m = QueryMonitor::Global();
  const uint64_t id = m.AllocateQueryId();
  m.Register(id, "QM_TWICE", "first", "full-scan", -1, nullptr);
  m.Register(id, "QM_TWICE", "second", "full-scan", -1, nullptr);
  int seen = 0;
  for (const MonitoredQuery& q : m.Snapshot()) {
    if (q.query_id != id) continue;
    ++seen;
    EXPECT_EQ(q.query, "second");
  }
  EXPECT_EQ(seen, 1);
  m.Unregister(id);
}

}  // namespace
}  // namespace fsdm::telemetry
