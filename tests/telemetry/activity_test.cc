// Unit tests for the ISSUE 7 sampling stack: activity records + leases,
// the ASH sampler ring, window aggregation, and the workload repository.
// Everything here drives SampleOnce() directly (never the background
// thread) so the assertions stay deterministic.

#include "telemetry/activity.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "telemetry/sampler.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_event.h"
#include "telemetry/workload_repo.h"

namespace fsdm::telemetry {
namespace {

/// Finds the calling thread's own sample in a registry sweep.
ActivitySample OwnSample() {
  ActivityRecord* rec = ActivityRegistry::Global().ForThisThread();
  return rec->Snap();
}

TEST(WaitStateTest, NamesAndClassesCoverEveryState) {
  // The taxonomy scripts/ash_report.py and DESIGN.md document; renaming a
  // state is a cross-layer change and should fail loudly here.
  EXPECT_STREQ(WaitStateName(WaitState::kIdle), "idle");
  EXPECT_STREQ(WaitStateName(WaitState::kOnCpu), "on-cpu");
  EXPECT_STREQ(WaitStateName(WaitState::kPoolQueueWait), "pool-queue-wait");
  EXPECT_STREQ(WaitStateName(WaitState::kLockWait), "lock-wait");
  EXPECT_STREQ(WaitStateName(WaitState::kFaultStall), "fault-stall");
  EXPECT_STREQ(WaitStateName(WaitState::kWalFsync), "wal-fsync");

  EXPECT_STREQ(WaitClassName(WaitState::kIdle), "idle");
  EXPECT_STREQ(WaitClassName(WaitState::kOnCpu), "cpu");
  EXPECT_STREQ(WaitClassName(WaitState::kPoolQueueWait), "scheduler");
  EXPECT_STREQ(WaitClassName(WaitState::kLockWait), "concurrency");
  EXPECT_STREQ(WaitClassName(WaitState::kFaultStall), "fault");
  EXPECT_STREQ(WaitClassName(WaitState::kWalFsync), "io");
}

TEST(ActivityLeaseTest, BeginPublishesAndReleaseRestores) {
  ASSERT_FALSE(OwnSample().active) << "a previous test leaked a lease";

  // Pin the monotonic clock's lazy epoch and let it advance past zero, so
  // the lease's begin_ts_us is provably nonzero even when this test is the
  // process's first clock user.
  while (MonotonicNowUs() == 0) {
  }

  {
    ActivityLease lease = ActivityLease::Begin(
        "ORDERS", "indexed-value-scan", "RoutedQueryProbe",
        "SELECT * FROM ORDERS", /*shard=*/2, /*worker=*/1);
    ActivitySample s = OwnSample();
    EXPECT_TRUE(s.active);
    EXPECT_EQ(s.state, WaitState::kOnCpu);
    EXPECT_EQ(s.collection, "ORDERS");
    EXPECT_EQ(s.access_path, "indexed-value-scan");
    EXPECT_EQ(s.op, "RoutedQueryProbe");
    EXPECT_EQ(s.query, "SELECT * FROM ORDERS");
    EXPECT_EQ(s.shard, 2);
    EXPECT_EQ(s.worker, 1);
    EXPECT_GT(s.begin_ts_us, 0u);

    // Release is idempotent: double-release must not double-restore.
    lease.Release();
    lease.Release();
    EXPECT_FALSE(OwnSample().active);
  }
  ActivitySample after = OwnSample();
  EXPECT_FALSE(after.active);
  EXPECT_EQ(after.state, WaitState::kIdle);
  EXPECT_TRUE(after.collection.empty());
}

TEST(ActivityLeaseTest, NestedLeasesRestoreTheOuterIdentity) {
  ActivityLease outer =
      ActivityLease::Begin("", "", "worker.task", "", -1, /*worker=*/3);
  {
    // The morsel's scope stacks over the bare worker lease, exactly as
    // ActivityScopeOp does on a pool worker.
    ActivityLease inner = ActivityLease::Begin(
        "SHARDED", "imc-filter-scan", "morsel.drain", "q", /*shard=*/1, 3);
    ActivitySample s = OwnSample();
    EXPECT_EQ(s.collection, "SHARDED");
    EXPECT_EQ(s.shard, 1);
  }
  // Unwinding the inner lease re-publishes the worker identity.
  ActivitySample s = OwnSample();
  EXPECT_TRUE(s.active);
  EXPECT_EQ(s.op, "worker.task");
  EXPECT_EQ(s.worker, 3);
  EXPECT_EQ(s.shard, -1);
  EXPECT_TRUE(s.collection.empty());
  outer.Release();
  EXPECT_FALSE(OwnSample().active);
}

TEST(ActivityLeaseTest, MoveTransfersOwnershipWithoutDoubleRestore) {
  ActivityLease a = ActivityLease::Begin("MV", "", "op", "");
  ActivityLease b = std::move(a);
  a.Release();  // moved-from: must be a no-op
  EXPECT_TRUE(OwnSample().active);
  b.Release();
  EXPECT_FALSE(OwnSample().active);
}

TEST(ActivityLeaseTest, ScopedWaitStateFlipsAndRestores) {
  ActivityLease lease = ActivityLease::Begin("WS", "", "op", "");
  EXPECT_EQ(OwnSample().state, WaitState::kOnCpu);
  {
    ScopedWaitState wait(WaitState::kLockWait);
    EXPECT_EQ(OwnSample().state, WaitState::kLockWait);
    {
      ScopedWaitState nested(WaitState::kFaultStall);
      EXPECT_EQ(OwnSample().state, WaitState::kFaultStall);
    }
    EXPECT_EQ(OwnSample().state, WaitState::kLockWait);
  }
  EXPECT_EQ(OwnSample().state, WaitState::kOnCpu);
}

TEST(ActivityRegistryTest, ActiveCountTracksLeases) {
  const size_t base = ActivityRegistry::Global().ActiveCount();
  ActivityLease lease = ActivityLease::Begin("AC", "", "op", "");
  EXPECT_EQ(ActivityRegistry::Global().ActiveCount(), base + 1);
  lease.Release();
  EXPECT_EQ(ActivityRegistry::Global().ActiveCount(), base);
  EXPECT_GE(ActivityRegistry::Global().record_count(), 1u);
}

// --- AggregateAsh -----------------------------------------------------------

AshSample MakeSample(uint64_t ts, std::string coll, WaitState state,
                     std::string query = "", int shard = -1) {
  AshSample s;
  s.ts_us = ts;
  s.collection = std::move(coll);
  s.state = state;
  s.query = std::move(query);
  s.shard = shard;
  return s;
}

TEST(AggregateAshTest, WindowBoundsAreExclusiveInclusive) {
  std::vector<AshSample> samples;
  samples.push_back(MakeSample(100, "A", WaitState::kOnCpu));
  samples.push_back(MakeSample(200, "A", WaitState::kOnCpu));
  samples.push_back(MakeSample(300, "A", WaitState::kOnCpu));

  // (since, until]: ts=100 excluded (== since), ts=300 included (== until).
  AshAggregate agg = AggregateAsh(samples, 100, 300);
  EXPECT_EQ(agg.db_samples, 2u);
  // until=0 means unbounded above.
  EXPECT_EQ(AggregateAsh(samples, 0, 0).db_samples, 3u);
  EXPECT_EQ(AggregateAsh(samples, 300, 0).db_samples, 0u);
}

TEST(AggregateAshTest, FoldsByCollectionStateQueryAndShard) {
  std::vector<AshSample> samples;
  samples.push_back(MakeSample(1, "A", WaitState::kOnCpu, "q1", 0));
  samples.push_back(MakeSample(2, "A", WaitState::kOnCpu, "q1", 0));
  samples.push_back(MakeSample(3, "A", WaitState::kPoolQueueWait, "q1", 1));
  samples.push_back(MakeSample(4, "B", WaitState::kFaultStall, "q2"));
  samples.push_back(MakeSample(5, "", WaitState::kOnCpu));  // anonymous work

  AshAggregate agg = AggregateAsh(samples, 0, 0);
  EXPECT_EQ(agg.db_samples, 5u);
  ASSERT_EQ(agg.by_collection.count("A"), 1u);
  EXPECT_EQ(agg.by_collection["A"][static_cast<size_t>(WaitState::kOnCpu)],
            2u);
  EXPECT_EQ(
      agg.by_collection["A"][static_cast<size_t>(WaitState::kPoolQueueWait)],
      1u);
  EXPECT_EQ(
      agg.by_collection["B"][static_cast<size_t>(WaitState::kFaultStall)], 1u);
  // Empty collection folds under the "(none)" bucket, not an empty key.
  EXPECT_EQ(agg.by_collection.count(""), 0u);
  EXPECT_EQ(agg.by_collection.count("(none)"), 1u);

  EXPECT_EQ(agg.by_state[static_cast<size_t>(WaitState::kOnCpu)], 3u);
  EXPECT_EQ(agg.by_query["q1"], 3u);
  EXPECT_EQ(agg.by_query["q2"], 1u);
  // Shard -1 (unsharded) never lands in by_shard.
  EXPECT_EQ(agg.by_shard.size(), 2u);
  EXPECT_EQ(agg.by_shard[0], 2u);
  EXPECT_EQ(agg.by_shard[1], 1u);
}

TEST(AggregateAshTest, TopQueriesAndShardSkew) {
  std::vector<AshSample> samples;
  for (int i = 0; i < 5; ++i) {
    samples.push_back(MakeSample(i + 1, "A", WaitState::kOnCpu, "hot", 0));
  }
  samples.push_back(MakeSample(10, "A", WaitState::kOnCpu, "cold", 1));
  AshAggregate agg = AggregateAsh(samples, 0, 0);

  auto top = TopAshQueries(agg, 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].first, "hot");
  EXPECT_EQ(top[0].second, 5u);

  // Shards saw 5 and 1 samples: mean 3, max 5 -> skew 5/3.
  EXPECT_NEAR(AshShardSkew(agg), 5.0 / 3.0, 1e-9);
  EXPECT_EQ(AshShardSkew(AshAggregate{}), 0.0);
}

TEST(AggregateAshTest, AggregateJsonCarriesTheTimeModel) {
  std::vector<AshSample> samples;
  samples.push_back(MakeSample(1, "A", WaitState::kOnCpu, "q", 0));
  samples.push_back(MakeSample(2, "A", WaitState::kLockWait, "q", 0));
  std::string json = AshAggregateJson(AggregateAsh(samples, 0, 0));
  EXPECT_NE(json.find("\"db_samples\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"wait_classes\":{\"cpu\":1,\"concurrency\":1}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"collection\":\"A\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"state\":\"lock-wait\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"pct\":50"), std::string::npos) << json;
  EXPECT_NE(json.find("\"top_queries\":[{\"query\":\"q\",\"samples\":2}]"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"shard_samples\":{\"0\":2}"), std::string::npos)
      << json;
}

// --- ActivitySampler --------------------------------------------------------

class SamplerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ActivitySampler::Global().Stop();
    ActivitySampler::Global().ClearRing();
  }
  void TearDown() override {
    ActivitySampler::Global().Stop();
    ActivitySampler::Global().SetRingCapacity(8192);
    ActivitySampler::Global().ClearRing();
  }
};

TEST_F(SamplerTest, SampleOnceRetainsOnlyActiveRecords) {
  ActivitySampler& sampler = ActivitySampler::Global();
  const uint64_t ticks_before = sampler.ticks();

  // Nothing active on this thread: our record contributes no sample.
  (void)sampler.SampleOnce();
  for (const AshSample& s : sampler.Snapshot()) {
    EXPECT_NE(s.collection, "SAMP") << "stale sample leaked into the ring";
  }

  ActivityLease lease =
      ActivityLease::Begin("SAMP", "full-scan", "probe", "SELECT 1");
  size_t retained = sampler.SampleOnce();
  EXPECT_GE(retained, 1u);
  bool found = false;
  for (const AshSample& s : sampler.Snapshot()) {
    if (s.collection != "SAMP") continue;
    found = true;
    EXPECT_EQ(s.state, WaitState::kOnCpu);
    EXPECT_EQ(s.access_path, "full-scan");
    EXPECT_EQ(s.query, "SELECT 1");
    EXPECT_GT(s.ts_us, 0u);
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(sampler.ticks(), ticks_before + 2);
  EXPECT_GE(sampler.db_samples_total(), 1u);
}

TEST_F(SamplerTest, RingWrapsAtCapacityOldestFirst) {
  ActivitySampler& sampler = ActivitySampler::Global();
  sampler.SetRingCapacity(4);
  ActivityLease lease = ActivityLease::Begin("WRAP", "", "op", "");
  for (int i = 0; i < 10; ++i) (void)sampler.SampleOnce();

  std::vector<AshSample> snap = sampler.Snapshot();
  ASSERT_EQ(snap.size(), 4u);  // capped, oldest 6 dropped
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_GE(snap[i].ts_us, snap[i - 1].ts_us) << "ring not oldest-first";
  }
  // Shrinking below the live size also drops the oldest.
  sampler.SetRingCapacity(2);
  EXPECT_LE(sampler.Snapshot().size(), 2u);
}

TEST_F(SamplerTest, AggregateCoversTheWholeRing) {
  ActivitySampler& sampler = ActivitySampler::Global();
  ActivityLease lease = ActivityLease::Begin("AGGR", "", "op", "q");
  (void)sampler.SampleOnce();
  (void)sampler.SampleOnce();
  AshAggregate agg = sampler.Aggregate();
  EXPECT_GE(agg.db_samples, 2u);
  EXPECT_GE(agg.by_collection["AGGR"][static_cast<size_t>(WaitState::kOnCpu)],
            2u);
}

TEST_F(SamplerTest, StartStopRunsTheBackgroundThread) {
  ActivitySampler& sampler = ActivitySampler::Global();
  ASSERT_TRUE(sampler.Start());
  EXPECT_TRUE(sampler.running());
  EXPECT_FALSE(sampler.Start()) << "double Start must refuse";
  EXPECT_GT(sampler.hz(), 0.0);
  sampler.Stop();
  EXPECT_FALSE(sampler.running());
  sampler.Stop();  // idempotent
}

// --- WorkloadRepository -----------------------------------------------------

class WorkloadRepoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ActivitySampler::Global().Stop();
    ActivitySampler::Global().ClearRing();
    WorkloadRepository::Global().Clear();
  }
  void TearDown() override {
    ActivitySampler::Global().ClearRing();
    WorkloadRepository::Global().Clear();
    WorkloadRepository::Global().SetCapacity(128);
  }
};

TEST_F(WorkloadRepoTest, SnapshotsWindowTheAshStream) {
  WorkloadRepository& repo = WorkloadRepository::Global();
  ActivitySampler& sampler = ActivitySampler::Global();

  // Phase one: three on-cpu samples against AWR_A.
  {
    ActivityLease lease = ActivityLease::Begin("AWR_A", "", "op", "qa");
    for (int i = 0; i < 3; ++i) (void)sampler.SampleOnce();
  }
  const uint64_t id1 = repo.TakeSnapshot("phase-one");

  // Phase two: two lock-wait samples against AWR_B.
  {
    ActivityLease lease = ActivityLease::Begin("AWR_B", "", "op", "qb");
    ScopedWaitState wait(WaitState::kLockWait);
    for (int i = 0; i < 2; ++i) (void)sampler.SampleOnce();
  }
  const uint64_t id2 = repo.TakeSnapshot("phase-two");

  EXPECT_EQ(id2, id1 + 1);
  ASSERT_EQ(repo.size(), 2u);
  std::vector<WorkloadSnapshot> snaps = repo.Snapshots();
  ASSERT_EQ(snaps.size(), 2u);

  // Each snapshot's window covers only its own phase, not the lifetime.
  EXPECT_EQ(snaps[0].label, "phase-one");
  EXPECT_EQ(snaps[0].ash.db_samples, 3u);
  EXPECT_EQ(snaps[0].ash.by_query.count("qb"), 0u);
  EXPECT_EQ(snaps[1].label, "phase-two");
  EXPECT_EQ(snaps[1].ash.db_samples, 2u);
  EXPECT_EQ(
      snaps[1].ash.by_state[static_cast<size_t>(WaitState::kLockWait)], 2u);
  EXPECT_EQ(snaps[1].ash.by_query.count("qa"), 0u);
  ASSERT_FALSE(snaps[1].TopQueries(1).empty());
  EXPECT_EQ(snaps[1].TopQueries(1)[0].first, "qb");
  EXPECT_GT(snaps[1].ts_us, snaps[0].ts_us);
}

TEST_F(WorkloadRepoTest, SnapshotJsonCarriesAshCountersAndHistograms) {
  MetricsRegistry::Global().GetCounter("fsdm_awr_test_total")->Add(9);
  Histogram* h = MetricsRegistry::Global().GetHistogram("fsdm_awr_test_us");
  h->Reset();
  h->Observe(10);
  h->Observe(30);
  {
    ActivityLease lease = ActivityLease::Begin("AWR_J", "", "op", "qj");
    (void)ActivitySampler::Global().SampleOnce();
  }
  (void)WorkloadRepository::Global().TakeSnapshot("json");

  std::vector<WorkloadSnapshot> snaps = WorkloadRepository::Global().Snapshots();
  ASSERT_EQ(snaps.size(), 1u);
  std::string json = WorkloadRepository::SnapshotJson(snaps[0]);
  EXPECT_NE(json.find("\"label\":\"json\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ash\":{\"db_samples\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"collection\":\"AWR_J\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"fsdm_awr_test_total\":9"), std::string::npos) << json;
  // Histogram (count, sum) pairs: mean deltas derivable from snapshots.
  EXPECT_NE(json.find("\"fsdm_awr_test_us\":{\"count\":2,\"sum\":40"),
            std::string::npos)
      << json;
  // The repository dump wraps them all.
  std::string all = WorkloadRepository::Global().ToJson();
  EXPECT_EQ(all.find("{\"snapshots\":["), 0u) << all;
}

TEST_F(WorkloadRepoTest, CapacityBoundsTheRetainedSnapshots) {
  WorkloadRepository& repo = WorkloadRepository::Global();
  repo.SetCapacity(3);
  for (int i = 0; i < 5; ++i) {
    (void)repo.TakeSnapshot("snap-" + std::to_string(i));
  }
  std::vector<WorkloadSnapshot> snaps = repo.Snapshots();
  ASSERT_EQ(snaps.size(), 3u);
  EXPECT_EQ(snaps.front().label, "snap-2");  // the two oldest fell off
  EXPECT_EQ(snaps.back().label, "snap-4");
  // Shrinking keeps the newest snapshots.
  repo.SetCapacity(2);
  snaps = repo.Snapshots();
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(repo.size(), 2u);
  EXPECT_EQ(snaps.front().label, "snap-3");
  EXPECT_EQ(snaps.back().label, "snap-4");
}

}  // namespace
}  // namespace fsdm::telemetry
