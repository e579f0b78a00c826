#include "telemetry/memory_tracker.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "telemetry/query_monitor.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "telemetry/trace_event.h"

/// Unit tests for the resource-accounting subsystem: the MemoryTracker's
/// accounts (named rows pushed by their writers, anonymous rows moved by
/// scoped charges) and the QueryMonitor's register-snapshot-unregister
/// lifecycle.

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

MemoryTracker::Entry FindEntry(const std::string& collection) {
  for (const MemoryTracker::Entry& e : MemoryTracker::Global().Entries()) {
    if (e.collection == collection) return e;
  }
  return {};
}

TEST_F(MemoryTrackerTest, AccountRatchetsPeaksAndUnlistsOnClose) {
  MemoryTracker& t = MemoryTracker::Global();
  const uint64_t base = t.SubsystemBytes(MemSubsystem::kTableHeap);
  {
    MemoryAccount account(MemSubsystem::kTableHeap, "MT_TEST");
    account.Set(1000);
    EXPECT_EQ(t.SubsystemBytes(MemSubsystem::kTableHeap), base + 1000);
    MemoryTracker::Entry e = FindEntry("MT_TEST");
    EXPECT_EQ(e.bytes, 1000u);
    EXPECT_EQ(e.peak_bytes, 1000u);

    // Shrinking keeps the account peak; growing ratchets it.
    account.Add(-600);
    e = FindEntry("MT_TEST");
    EXPECT_EQ(e.bytes, 400u);
    EXPECT_EQ(e.peak_bytes, 1000u);
    account.Set(2500);
    EXPECT_EQ(FindEntry("MT_TEST").peak_bytes, 2500u);
  }
  // Closed: unlisted, and its bytes left the totals.
  EXPECT_EQ(t.SubsystemBytes(MemSubsystem::kTableHeap), base);
  for (const MemoryTracker::Entry& e : t.Entries()) {
    EXPECT_NE(e.collection, "MT_TEST");
  }
}

TEST_F(MemoryTrackerTest, GrowthBetweenReadsShowsInEveryPeak) {
  // A structure that grows and shrinks again with nobody reading in
  // between must still leave its high-water mark in the account, the
  // subsystem and the total.
  MemoryTracker& t = MemoryTracker::Global();
  const uint64_t base = t.CurrentBytes();
  const uint64_t base_stats = t.SubsystemBytes(MemSubsystem::kPathStats);
  {
    MemoryAccount account(MemSubsystem::kPathStats, "MT_GONE");
    account.Set(100);
    account.Set(70000);
    account.Set(100);
    EXPECT_EQ(account.peak_bytes(), 70000u);
    EXPECT_EQ(FindEntry("MT_GONE").peak_bytes, 70000u);
  }
  EXPECT_GE(t.SubsystemPeakBytes(MemSubsystem::kPathStats),
            base_stats + 70000);
  EXPECT_GE(t.PeakBytes(), base + 70000);
  EXPECT_EQ(t.CurrentBytes(), base);
}

TEST_F(MemoryTrackerTest, GaugesFollowPushesWithoutAPoll) {
  MemoryTracker& t = MemoryTracker::Global();
  const MetricsRegistry& m = MetricsRegistry::Global();
  const std::string gauge =
      "fsdm_mem_bytes{subsystem=\"wal-buffers\",collection=\"MT_GAUGE\"}";
  {
    MemoryAccount account(MemSubsystem::kWalBuffers, "MT_GAUGE");
    account.Set(4096);
    EXPECT_DOUBLE_EQ(m.GaugeValue(gauge), 4096.0);
    EXPECT_DOUBLE_EQ(m.GaugeValue("fsdm_mem_total_bytes"),
                     static_cast<double>(t.CurrentBytes()));
    EXPECT_DOUBLE_EQ(m.GaugeValue("fsdm_mem_peak_bytes"),
                     static_cast<double>(t.PeakBytes()));
    account.Set(1024);
    EXPECT_DOUBLE_EQ(m.GaugeValue(gauge), 1024.0);
  }
  // A closed account zeroes its gauge so a dropped collection does not
  // linger in exports.
  EXPECT_DOUBLE_EQ(m.GaugeValue(gauge), 0.0);
  EXPECT_DOUBLE_EQ(m.GaugeValue("fsdm_mem_total_bytes"),
                   static_cast<double>(t.CurrentBytes()));
}

TEST_F(MemoryTrackerTest, ChargesRatchetPeakWithoutRefresh) {
  MemoryTracker& t = MemoryTracker::Global();
  const uint64_t base = t.CurrentBytes();
  {
    MemoryCharge charge(MemSubsystem::kPlanWorkingSet, 5000);
    EXPECT_EQ(charge.bytes(), 5000u);
    EXPECT_EQ(t.CurrentBytes(), base + 5000);
    // The peak must be visible immediately — a drain's working set is gone
    // before anyone reads the tracker.
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
  // Whatever other kImc accounts are open in this process contribute a
  // stable baseline to the subsystem total.
  const uint64_t others = t.SubsystemBytes(MemSubsystem::kImc);
  // Two accounts whose individual peaks (3000 and 2000) are reached at
  // different times, never summing past 4000. The per-subsystem
  // high-water must track the largest simultaneous total, not the 5000 a
  // sum of per-account peaks would claim.
  MemoryAccount a(MemSubsystem::kImc, "MT_PEAK_A");
  MemoryAccount b(MemSubsystem::kImc, "MT_PEAK_B");
  a.Set(3000);
  b.Set(1000);  // 4000
  a.Set(1000);
  b.Set(2000);  // 3000
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

TEST_F(MemoryTrackerTest, CurrentBytesSumsAccountsAndLiveCharges) {
  MemoryTracker& t = MemoryTracker::Global();
  const uint64_t base = t.CurrentBytes();
  MemoryAccount account(MemSubsystem::kImc, "MT_MIX");
  account.Set(300);
  EXPECT_EQ(t.CurrentBytes(), base + 300);
  EXPECT_EQ(t.Refresh(), t.CurrentBytes());
  MemoryCharge charge(MemSubsystem::kOsonVc, 77);
  EXPECT_EQ(t.CurrentBytes(), base + 377);
  EXPECT_GE(t.SubsystemBytes(MemSubsystem::kOsonVc), 77u);
  charge.Reset();
  EXPECT_EQ(t.CurrentBytes(), base + 300);
}

TEST_F(MemoryTrackerTest, ConcurrentChargesBalance) {
  // Drain workers charge and release the same anonymous account at once;
  // every total comes back to where it started.
  MemoryTracker& t = MemoryTracker::Global();
  const uint64_t base = t.CurrentBytes();
  const uint64_t base_plan = t.SubsystemBytes(MemSubsystem::kPlanWorkingSet);
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([] {
      for (int i = 0; i < 1000; ++i) {
        MemoryCharge charge(MemSubsystem::kPlanWorkingSet, 10 + i % 7);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(t.SubsystemBytes(MemSubsystem::kPlanWorkingSet), base_plan);
  EXPECT_EQ(t.CurrentBytes(), base);
  EXPECT_GE(t.PeakBytes(), base + 10);
  EXPECT_DOUBLE_EQ(MetricsRegistry::Global().GaugeValue("fsdm_mem_total_bytes"),
                   static_cast<double>(base));
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
