// Thread-safety smoke test for the telemetry handoff the worker pool
// relies on (ISSUE 6). The assertions are mild on purpose — the real
// verdict comes from running this under -DFSDM_SANITIZE=thread in CI,
// where any counter/gauge/histogram/ring race is a hard failure.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "rdbms/executor.h"
#include "rdbms/parallel.h"
#include "telemetry/activity.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics_table.h"
#include "telemetry/sampler.h"
#include "telemetry/telemetry.h"
#include "telemetry/workload_repo.h"

namespace fsdm::telemetry {
namespace {

TEST(TelemetryConcurrencyTest, MetricsHammeredFromWorkerPool) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  rdbms::WorkerPool& pool = rdbms::WorkerPool::Global();
  pool.Resize(4);

  Counter* counter = reg.GetCounter("fsdm_test_concurrency_total");
  Gauge* gauge = reg.GetGauge("fsdm_test_concurrency_gauge");
  Histogram* hist = reg.GetHistogram("fsdm_test_concurrency_us");
  counter->Reset();
  gauge->Reset();
  hist->Reset();

  constexpr int kTasks = 64;
  constexpr int kOpsPerTask = 200;
  std::atomic<int> done{0};
  for (int t = 0; t < kTasks; ++t) {
    pool.Submit([&, t] {
      for (int i = 0; i < kOpsPerTask; ++i) {
        counter->Add(1);
        gauge->Add(1.0);
        hist->Observe(static_cast<double>(i % 50));
        // First-use registration from a worker thread takes the registry
        // map lock concurrently with other workers.
        reg.GetCounter("fsdm_test_concurrency_lazy_" +
                       std::to_string((t + i) % 8))
            ->Add(1);
      }
      done.fetch_add(1);
    });
  }
  // Resize drains the queue before relaunching — a barrier.
  pool.Resize(4);
  ASSERT_EQ(done.load(), kTasks);

  EXPECT_EQ(counter->value(), uint64_t{kTasks} * kOpsPerTask);
  EXPECT_DOUBLE_EQ(gauge->value(), double{kTasks} * kOpsPerTask);
  EXPECT_EQ(hist->count(), uint64_t{kTasks} * kOpsPerTask);
  uint64_t lazy_total = 0;
  for (int b = 0; b < 8; ++b) {
    lazy_total +=
        reg.CounterValue("fsdm_test_concurrency_lazy_" + std::to_string(b));
  }
  EXPECT_EQ(lazy_total, uint64_t{kTasks} * kOpsPerTask);
}

TEST(TelemetryConcurrencyTest, FlightRecorderRingsAcrossWorkers) {
  FlightRecorder& rec = FlightRecorder::Global();
  rec.Reset();
  // An earlier test in this binary may have shrunk the ring capacity to
  // exercise wrap-around; restore the default before the pool relaunch
  // creates fresh worker rings.
  rec.SetRingCapacity(16384);
  rec.Arm();
  rdbms::WorkerPool& pool = rdbms::WorkerPool::Global();
  pool.Resize(4);

  constexpr int kTasks = 32;
  for (int t = 0; t < kTasks; ++t) {
    pool.Submit([&] {
      for (int i = 0; i < 50; ++i) {
        FSDM_TRACE_SPAN(span, "test", "concurrency.span");
        span.AddNumberArg("i", i);
        FSDM_TRACE_INSTANT("test", "concurrency.instant");
      }
    });
  }
  // Snapshot WHILE workers are still pushing: the per-ring mutex must
  // make the cross-thread merge safe mid-drain.
  (void)rec.Snapshot();
  (void)rec.ChromeTraceJson();
  pool.Resize(4);  // barrier: all tasks finished
  rec.Disarm();

  std::vector<TraceEvent> events = rec.Snapshot();
  size_t span_ends = 0;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "concurrency.span" &&
        e.phase == TracePhase::kSpanEnd) {
      ++span_ends;
    }
  }
  // Every span completed (rings are big enough not to wrap here).
  EXPECT_EQ(span_ends, size_t{kTasks} * 50);
  EXPECT_EQ(rec.TotalDropped(), 0u);
}

TEST(TelemetryConcurrencyTest, SamplerReadsRaceLeaseChurnSafely) {
  // ISSUE 7 satellite: the ASH sampler reads every activity record while
  // pool workers churn leases and flip wait states. The ring, the record
  // identity strings and the relaxed state bytes must all survive TSan.
  ActivitySampler& sampler = ActivitySampler::Global();
  sampler.Stop();
  sampler.ClearRing();
  rdbms::WorkerPool& pool = rdbms::WorkerPool::Global();
  pool.Resize(4);

  std::atomic<bool> stop{false};
  std::thread hammer([&] {
    while (!stop.load()) {
      (void)sampler.SampleOnce();
      (void)sampler.Snapshot();
      (void)sampler.Aggregate();
      (void)ActivityRegistry::Global().Samples();
    }
  });

  constexpr int kTasks = 48;
  for (int t = 0; t < kTasks; ++t) {
    pool.Submit([t] {
      for (int i = 0; i < 100; ++i) {
        ActivityLease lease = ActivityLease::Begin(
            "CONC_" + std::to_string(t % 4), "path", "op",
            "q" + std::to_string(i % 8), /*shard=*/t % 4,
            rdbms::WorkerPool::CurrentWorkerIndex());
        ScopedWaitState wait(i % 2 == 0 ? WaitState::kLockWait
                                        : WaitState::kFaultStall);
      }
    });
  }
  // Snapshots taken mid-churn exercise the repo's sampler-then-metrics
  // lock ordering against concurrent first-use registrations.
  (void)WorkloadRepository::Global().TakeSnapshot("conc-mid");
  pool.Resize(4);  // barrier: every task drained
  stop = true;
  hammer.join();
  (void)WorkloadRepository::Global().TakeSnapshot("conc-end");

  // No task leaked a lease: nothing is active once the pool is quiet.
  EXPECT_EQ(ActivityRegistry::Global().ActiveCount(), 0u);
  sampler.ClearRing();
  WorkloadRepository::Global().Clear();
}

// TELEMETRY$METRICS builds its rows under the registry mutex, so a scan
// drained while another thread registers metrics on first use never
// walks a map mid-insertion (under TSan a race here is a hard failure).
TEST(TelemetryConcurrencyTest, MetricsScanRacesFirstUseRegistration) {
  constexpr int kCounters = 3000;
  const std::string prefix = "fsdm_test_scan_race_";
  std::thread registrar([&] {
    for (int i = 0; i < kCounters; ++i) {
      MetricsRegistry::Global().GetCounter(prefix + std::to_string(i))->Add(1);
    }
  });
  size_t last_rows = 0;
  for (int i = 0; i < 200; ++i) {
    rdbms::OperatorPtr scan = MetricsScan();
    Result<std::vector<rdbms::Row>> rows = rdbms::Collect(scan.get());
    EXPECT_TRUE(rows.ok());
    if (!rows.ok()) break;
    // The registry only grows, so no scan sees fewer metrics than the
    // one before it.
    EXPECT_GE(rows.value().size(), last_rows);
    last_rows = rows.value().size();
  }
  registrar.join();

  rdbms::OperatorPtr scan = MetricsScan();
  Result<std::vector<rdbms::Row>> rows = rdbms::Collect(scan.get());
  ASSERT_TRUE(rows.ok());
  int seen = 0;
  for (const rdbms::Row& row : rows.value()) {
    if (row[0].AsString().rfind(prefix, 0) == 0) ++seen;
  }
  EXPECT_EQ(seen, kCounters);
}

}  // namespace
}  // namespace fsdm::telemetry
