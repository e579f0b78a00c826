#include "fault/fault.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "telemetry/metrics_table.h"
#include "telemetry/telemetry.h"

namespace fsdm::fault {
namespace {

// Instrumentation sites under test. The macro caches the point pointer in
// a function-local static, so each site gets its own named function.
Status HitStatus() {
  FSDM_FAULT_POINT("test.status");
  return Status::Ok();
}

Result<int> HitResult() {
  FSDM_FAULT_POINT("test.result");
  return 42;
}

Status HitProbe() { return FSDM_FAULT_STATUS("test.probe"); }

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultRegistry::Global().DisarmAll();
  }
  void TearDown() override { FaultRegistry::Global().DisarmAll(); }
};

TEST_F(FaultTest, DisarmedPointIsTransparent) {
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(HitStatus().ok());
    Result<int> r = HitResult();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), 42);
  }
}

TEST_F(FaultTest, OnceFiresExactlyOnceThenDisarms) {
  FaultRegistry::Global().Arm("test.status", FaultSpec::Once());
  Status st = HitStatus();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("test.status"), std::string::npos);
  // Self-disarmed: subsequent hits pass.
  EXPECT_TRUE(HitStatus().ok());
  EXPECT_TRUE(HitStatus().ok());
  const FaultPoint* p = FaultRegistry::Global().Find("test.status");
  ASSERT_NE(p, nullptr);
  EXPECT_FALSE(p->armed());
  EXPECT_EQ(p->triggers(), 1u);
}

TEST_F(FaultTest, OnceCarriesConfiguredStatusCode) {
  FaultRegistry::Global().Arm("test.status",
                              FaultSpec::Once(StatusCode::kUnavailable));
  EXPECT_EQ(HitStatus().code(), StatusCode::kUnavailable);
}

TEST_F(FaultTest, ResultChannelPropagatesInjectedStatus) {
  FaultRegistry::Global().Arm("test.result",
                              FaultSpec::Once(StatusCode::kCorruption));
  Result<int> r = HitResult();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(HitResult().value(), 42);
}

TEST_F(FaultTest, NthFailsOnExactlyTheNthHit) {
  FaultRegistry::Global().Arm("test.status", FaultSpec::Nth(3));
  EXPECT_TRUE(HitStatus().ok());
  EXPECT_TRUE(HitStatus().ok());
  EXPECT_FALSE(HitStatus().ok());
  // Disarmed after firing.
  EXPECT_TRUE(HitStatus().ok());
}

TEST_F(FaultTest, AlwaysFiresUntilDisarmed) {
  FaultRegistry::Global().Arm("test.status", FaultSpec::Always());
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(HitStatus().ok());
  FaultRegistry::Global().Disarm("test.status");
  EXPECT_TRUE(HitStatus().ok());
}

TEST_F(FaultTest, AlwaysWithMaxTriggersSelfDisarms) {
  FaultSpec spec = FaultSpec::Always();
  spec.max_triggers = 2;
  FaultRegistry::Global().Arm("test.status", spec);
  EXPECT_FALSE(HitStatus().ok());
  EXPECT_FALSE(HitStatus().ok());
  EXPECT_TRUE(HitStatus().ok());
}

TEST_F(FaultTest, ProbabilityIsDeterministicPerSeed) {
  auto pattern = [&]() {
    FaultRegistry::Global().Arm("test.status",
                                FaultSpec::WithProbability(0.5, 1234));
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(!HitStatus().ok());
    FaultRegistry::Global().DisarmAll();
    return fired;
  };
  std::vector<bool> first = pattern();
  std::vector<bool> second = pattern();
  EXPECT_EQ(first, second);
  // Sanity: p=0.5 over 64 hits fires at least once and not always.
  size_t hits = 0;
  for (bool b : first) hits += b;
  EXPECT_GT(hits, 0u);
  EXPECT_LT(hits, 64u);
}

TEST_F(FaultTest, ProbabilityExtremes) {
  FaultRegistry::Global().Arm("test.status", FaultSpec::WithProbability(0, 1));
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(HitStatus().ok());
  FaultRegistry::Global().Arm("test.status",
                              FaultSpec::WithProbability(1.0, 1));
  for (int i = 0; i < 20; ++i) EXPECT_FALSE(HitStatus().ok());
}

TEST_F(FaultTest, ProbeFormReturnsStatusWithoutEarlyReturn) {
  EXPECT_TRUE(HitProbe().ok());
  FaultRegistry::Global().Arm("test.probe", FaultSpec::Once());
  EXPECT_FALSE(HitProbe().ok());
  EXPECT_TRUE(HitProbe().ok());
}

TEST_F(FaultTest, ArmResetsHitCounterAndCustomMessage) {
  FaultRegistry::Global().Arm("test.status", FaultSpec::Nth(2));
  EXPECT_TRUE(HitStatus().ok());
  // Re-arming restarts the count: the next hit is hit #1 again.
  FaultSpec spec = FaultSpec::Nth(2);
  spec.message = "disk on fire";
  FaultRegistry::Global().Arm("test.status", spec);
  EXPECT_TRUE(HitStatus().ok());
  Status st = HitStatus();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "disk on fire");
}

TEST_F(FaultTest, ScopedFaultDisarmsOnDestruction) {
  {
    ScopedFault guard("test.status", FaultSpec::Always());
    EXPECT_FALSE(HitStatus().ok());
  }
  EXPECT_TRUE(HitStatus().ok());
}

TEST_F(FaultTest, RegistryCatalogListsPoints) {
  (void)HitStatus();  // force registration
  std::vector<std::string> names = FaultRegistry::Global().PointNames();
  bool found = false;
  for (const std::string& n : names) found |= (n == "test.status");
  EXPECT_TRUE(found);
}

TEST_F(FaultTest, TriggersFeedTelemetryAndRegistryTotals) {
  uint64_t before_registry = FaultRegistry::Global().triggers_total();
  uint64_t before_metric = telemetry::MetricsRegistry::Global().CounterValue(
      "fsdm_fault_injections_total");
  FaultRegistry::Global().Arm("test.status", FaultSpec::Nth(2));
  EXPECT_TRUE(HitStatus().ok());   // hit 1: armed but not firing
  EXPECT_FALSE(HitStatus().ok());  // hit 2: fires
  EXPECT_EQ(FaultRegistry::Global().triggers_total(), before_registry + 1);
  EXPECT_EQ(telemetry::MetricsRegistry::Global().CounterValue(
                "fsdm_fault_injections_total"),
            before_metric + 1);
}

TEST_F(FaultTest, StallSpecInjectsLatencyWithoutError) {
  // ISSUE 7: latency-only injection — the point stalls (charged to the
  // fault-stall wait class) but returns Ok, so callers proceed normally.
  FaultSpec spec = FaultSpec::StallUs(2000);
  spec.max_triggers = 3;
  FaultRegistry::Global().Arm("test.status", spec);
  const FaultPoint* p = FaultRegistry::Global().Find("test.status");
  ASSERT_NE(p, nullptr);
  const uint64_t triggers_before = p->triggers();

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(HitStatus().ok());
  const auto elapsed_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed_us, 3 * 2000);
  // Self-disarmed after max_triggers; no more stalls and still Ok.
  EXPECT_TRUE(HitStatus().ok());
  EXPECT_FALSE(p->armed());
  EXPECT_EQ(p->triggers(), triggers_before + 3);

  EXPECT_GE(telemetry::MetricsRegistry::Global().CounterValue(
                "fsdm_fault_stall_us_total"),
            uint64_t{3} * 2000);
}

TEST_F(FaultTest, StallComposesWithErrorCode) {
  // A stall plus a non-Ok code: sleep first, then surface the fault.
  FaultSpec spec = FaultSpec::Once(StatusCode::kUnavailable);
  spec.stall_us = 1000;
  FaultRegistry::Global().Arm("test.status", spec);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(HitStatus().code(), StatusCode::kUnavailable);
  const auto elapsed_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed_us, 1000);
  EXPECT_TRUE(HitStatus().ok());
}

TEST_F(FaultTest, ErrnoSpecCarriesStrerrorPayload) {
  // The WAL's filesystem fault points (ISSUE 8) inject errors that read
  // like the kernel produced them; handlers written for real EIO/ENOSPC
  // must see the same text shape.
  FaultRegistry::Global().Arm("test.status", FaultSpec::Errno(ENOSPC));
  Status st = HitStatus();
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_NE(st.message().find("injected fault at test.status"),
            std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find(std::strerror(ENOSPC)), std::string::npos)
      << st.message();
  EXPECT_TRUE(HitStatus().ok()) << "Errno defaults to one-shot";

  // A custom message keeps the errno suffix; a custom code wins.
  FaultSpec spec = FaultSpec::Errno(EIO, TriggerMode::kOnce,
                                    StatusCode::kCorruption);
  spec.message = "torn page";
  FaultRegistry::Global().Arm("test.status", spec);
  st = HitStatus();
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_EQ(st.message(),
            std::string("torn page: ") + std::strerror(EIO));
}

TEST_F(FaultTest, InjectionCounterVisibleThroughMetricsTable) {
  FaultRegistry::Global().Arm("test.status", FaultSpec::Once());
  (void)HitStatus();
  rdbms::OperatorPtr scan = telemetry::MetricsScan();
  Result<std::vector<std::string>> rows = rdbms::CollectStrings(scan.get());
  ASSERT_TRUE(rows.ok());
  bool found = false;
  for (const std::string& row : rows.value()) {
    found |= row.find("fsdm_fault_injections_total") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST_F(FaultTest, ConcurrentFirstHitsRegisterSafely) {
  // Sites register their point on first hit, so threads running different
  // code (a drain worker, a DML writer) register fresh names at once.
  constexpr int kThreads = 4;
  constexpr int kPoints = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPoints; ++i) {
        const std::string name = "test.concurrent." + std::to_string(t) +
                                 "." + std::to_string(i);
        FaultPoint* p = FaultRegistry::Global().Register(name);
        EXPECT_EQ(p->name(), name);
        EXPECT_FALSE(p->armed());
        EXPECT_EQ(FaultRegistry::Global().Find(name), p);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  size_t registered = 0;
  for (const std::string& name : FaultRegistry::Global().PointNames()) {
    registered += name.rfind("test.concurrent.", 0) == 0;
  }
  EXPECT_EQ(registered, size_t{kThreads} * kPoints);
}

}  // namespace
}  // namespace fsdm::fault
