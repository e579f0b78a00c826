#include "telemetry/telemetry.h"

#include <gtest/gtest.h>

#include "telemetry/trace.h"

namespace fsdm::telemetry {
namespace {

// --- Histogram percentile math (exact-value pins) ---------------------------

TEST(HistogramTest, PercentilesExactWithUnitBuckets) {
  // Bounds 1..100 with one observation per bucket: every percentile is
  // exactly its rank after linear interpolation.
  std::vector<double> bounds;
  for (int i = 1; i <= 100; ++i) bounds.push_back(i);
  Histogram h(bounds);
  for (int i = 1; i <= 100; ++i) h.Observe(i);

  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(h.Percentile(95), 95.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 99.0);
}

TEST(HistogramTest, PercentileClampsToObservedRange) {
  // One observation: whatever the bucket interpolation says, the result
  // must be the single observed value.
  Histogram h({1, 10, 100});
  h.Observe(7);
  EXPECT_DOUBLE_EQ(h.Percentile(1), 7.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 7.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 7.0);
}

TEST(HistogramTest, OverflowBucketReportsMax) {
  Histogram h({10});
  h.Observe(5);
  h.Observe(1000);  // past the last bound -> +Inf bucket
  EXPECT_EQ(h.bucket_counts().size(), 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 1000.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
}

TEST(HistogramTest, SingleObservationAllPercentilesReportIt) {
  Histogram h({10, 100});
  h.Observe(42);
  // With one sample every percentile must land on it — the interpolation
  // is clamped to [min, max] so it can't drift below the observed value.
  for (double p : {1.0, 25.0, 50.0, 75.0, 99.0}) {
    EXPECT_DOUBLE_EQ(h.Percentile(p), 42.0) << "p" << p;
  }
}

TEST(HistogramTest, AllObservationsInOverflowBucketReportMax) {
  Histogram h({10});
  h.Observe(500);
  h.Observe(1000);
  h.Observe(2000);
  EXPECT_EQ(h.bucket_counts()[1], 3u);
  // The overflow bucket has no upper bound to interpolate toward; every
  // mid percentile reports the observed max rather than a fabricated
  // bound-derived value.
  EXPECT_DOUBLE_EQ(h.Percentile(10), 2000.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 2000.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 2000.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 500.0);  // p<=0 still reports min
}

TEST(HistogramTest, EmptyAndBoundaryPercentiles) {
  Histogram h({1, 2, 3});
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);  // empty
  h.Observe(1);
  h.Observe(3);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1.0);    // p<=0 -> min
  EXPECT_DOUBLE_EQ(h.Percentile(100), 3.0);  // p>=100 -> max
}

TEST(HistogramTest, ResetZeroesWithoutInvalidating) {
  Histogram h({1, 10});
  h.Observe(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  h.Observe(2);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 2.0);
}

// --- Registry ---------------------------------------------------------------

TEST(MetricsRegistryTest, HandlesAreStableAndResettable) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c = reg.GetCounter("test_registry_counter_total");
  EXPECT_EQ(c, reg.GetCounter("test_registry_counter_total"));
  c->Add(3);
  EXPECT_EQ(reg.CounterValue("test_registry_counter_total"), 3u);
  reg.Reset();
  EXPECT_EQ(reg.CounterValue("test_registry_counter_total"), 0u);
  c->Add(1);  // the old handle still works after Reset
  EXPECT_EQ(reg.CounterValue("test_registry_counter_total"), 1u);
}

TEST(MetricsRegistryTest, ExposuresContainRegisteredMetrics) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test_exposure_counter_total")->Add(7);
  reg.GetGauge("test_exposure_gauge")->Set(2.5);
  reg.GetHistogram("test_exposure_us")->Observe(42);

  std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"test_exposure_counter_total\":7"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"test_exposure_gauge\":2.5"), std::string::npos);
  EXPECT_NE(json.find("\"test_exposure_us\""), std::string::npos);

  std::string prom = reg.ToPrometheusText();
  EXPECT_NE(prom.find("# TYPE test_exposure_counter_total counter"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("test_exposure_counter_total 7"), std::string::npos);
  EXPECT_NE(prom.find("quantile=\"0.95\""), std::string::npos);
}

TEST(MetricsRegistryTest, HistogramExposuresCarrySumAndDerivableMean) {
  // Mean latency must be derivable from every exposure surface: the JSON
  // dump carries sum and a precomputed mean, the Prometheus text carries
  // the classic _sum/_count pair, and MetricsSnapshot carries (count, sum)
  // so snapshot deltas yield per-window means.
  MetricsRegistry& reg = MetricsRegistry::Global();
  Histogram* h = reg.GetHistogram("test_mean_pin_us");
  h->Reset();
  h->Observe(10);
  h->Observe(20);
  h->Observe(60);

  std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"test_mean_pin_us\":{\"count\":3,\"sum\":90,"
                      "\"mean\":30"),
            std::string::npos)
      << json;

  std::string prom = reg.ToPrometheusText();
  EXPECT_NE(prom.find("test_mean_pin_us_sum 90"), std::string::npos) << prom;
  EXPECT_NE(prom.find("test_mean_pin_us_count 3"), std::string::npos) << prom;

  MetricsSnapshot snap = TakeMetricsSnapshot(reg);
  auto it = snap.histograms.find("test_mean_pin_us");
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_EQ(it->second.count, 3u);
  EXPECT_DOUBLE_EQ(it->second.sum, 90.0);

  // Empty histogram: mean reports 0, not NaN.
  h->Reset();
  json = reg.ToJson();
  EXPECT_NE(json.find("\"test_mean_pin_us\":{\"count\":0,\"sum\":0,"
                      "\"mean\":0"),
            std::string::npos)
      << json;
}

TEST(MetricsRegistryTest, MacrosFeedTheGlobalRegistry) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const uint64_t before = reg.CounterValue("test_macro_counter_total");
  FSDM_COUNT("test_macro_counter_total", 2);
  FSDM_COUNT("test_macro_counter_total", 3);
  EXPECT_EQ(reg.CounterValue("test_macro_counter_total"), before + 5);

  const Histogram* h = reg.FindHistogram("test_macro_scope_us");
  const uint64_t h_before = h == nullptr ? 0 : h->count();
  { FSDM_TIME_SCOPE_US("test_macro_scope_us"); }
  h = reg.FindHistogram("test_macro_scope_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), h_before + 1);
}

// --- Trace rendering --------------------------------------------------------

TEST(TraceTest, RouterDecisionRenderListsCandidates) {
  RouterDecision d;
  d.winner = "indexed-value-scan";
  d.reason_text = "equality on scalar path $.tag";
  d.candidates.resize(2);
  d.candidates[0].access_path = "imc-filter-scan";
  d.candidates[0].detail_text = "no valid IMC store";
  d.candidates[1].access_path = "indexed-value-scan";
  d.candidates[1].eligible = true;
  d.candidates[1].chosen = true;
  d.candidates[1].detail_text = "DataGuide frequency 5/50 on $.tag";

  std::string text = d.Render();
  EXPECT_NE(text.find("access path: indexed-value-scan"), std::string::npos)
      << text;
  EXPECT_NE(text.find("equality on scalar path $.tag"), std::string::npos);
  EXPECT_NE(text.find("[ ] imc-filter-scan"), std::string::npos);
  EXPECT_NE(text.find("[x] indexed-value-scan"), std::string::npos);
  EXPECT_NE(text.find("no valid IMC store"), std::string::npos);
}

TEST(TraceTest, SpanTreeRowsInSumsChildren) {
  std::unique_ptr<OperatorSpan> leaf = MakeSpan("Scan", "T");
  leaf->rows_out = 40;
  std::unique_ptr<OperatorSpan> root = MakeSpan("Filter", "$.x = 1");
  root->rows_out = 4;
  root->children.push_back(std::move(leaf));
  EXPECT_EQ(root->RowsIn(), 40u);
  EXPECT_EQ(root->children[0]->RowsIn(), 0u);

  QueryTrace trace;
  trace.decision.winner = "full-scan";
  trace.decision.reason_text = "no predicates; full scan";
  trace.root = std::move(root);
  std::string text = trace.Render();
  EXPECT_NE(text.find("EXPLAIN ANALYZE"), std::string::npos) << text;
  EXPECT_NE(text.find("rows_in=40"), std::string::npos);
  EXPECT_NE(text.find("rows_out=4"), std::string::npos);
  EXPECT_NE(text.find("  Scan (T)"), std::string::npos);  // indented child
}

}  // namespace
}  // namespace fsdm::telemetry
