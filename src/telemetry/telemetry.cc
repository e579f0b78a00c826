#include "telemetry/telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "telemetry/activity.h"
#include "telemetry/trace_event.h"

namespace fsdm::telemetry {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(double v) {
  size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin();
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_[bucket];
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

double Histogram::min() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_ == 0 ? 0 : min_;
}

double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_ == 0 ? 0 : max_;
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

double Histogram::Percentile(double p) const {
  std::lock_guard<std::mutex> lock(mu_);
  return PercentileLocked(p);
}

double Histogram::PercentileLocked(double p) const {
  if (count_ == 0) return 0;
  if (p <= 0) return min_;
  if (p >= 100) return max_;
  const double target = (p / 100.0) * static_cast<double>(count_);
  uint64_t cum = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double prev = static_cast<double>(cum);
    cum += counts_[i];
    if (static_cast<double>(cum) >= target) {
      if (i == bounds_.size()) return max_;  // overflow bucket: all we know
      const double lower = i == 0 ? 0 : bounds_[i - 1];
      const double upper = bounds_[i];
      const double v =
          lower + (upper - lower) * (target - prev) /
                      static_cast<double>(counts_[i]);
      return std::clamp(v, min_, max_);
    }
  }
  return max_;
}

void Histogram::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = min_ = max_ = 0;
}

const std::vector<double>& DefaultLatencyBoundsUs() {
  static const std::vector<double> kBounds = {
      1,    2,    5,     10,    25,    50,     100,    250,    500,
      1000, 2500, 5000,  10000, 25000, 50000,  100000, 250000, 500000,
      1e6};
  return kBounds;
}

const std::vector<double>& DefaultSizeBounds() {
  static const std::vector<double> kBounds = {
      1,   2,   4,    8,    16,   32,   64,    128,
      256, 512, 1024, 4096, 16384, 65536};
  return kBounds;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  // Handle lookups happen once per call site (the macros cache them), so
  // charging the registry mutex to the lock-wait class costs nothing on
  // the steady-state path.
  ScopedWaitState wait(WaitState::kLockWait);
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  ScopedWaitState wait(WaitState::kLockWait);
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  ScopedWaitState wait(WaitState::kLockWait);
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(std::move(bounds));
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  return GetHistogram(name, DefaultLatencyBoundsUs());
}

Histogram* MetricsRegistry::GetSizeHistogram(const std::string& name) {
  return GetHistogram(name, DefaultSizeBounds());
}

uint64_t MetricsRegistry::CounterValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

double MetricsRegistry::GaugeValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second->value();
}

const Histogram* MetricsRegistry::FindHistogram(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

void MetricsRegistry::Visit(
    const std::function<void(const std::string&, const Counter&)>& counter,
    const std::function<void(const std::string&, const Gauge&)>& gauge,
    const std::function<void(const std::string&, const Histogram&)>&
        histogram) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) counter(name, *c);
  for (const auto& [name, g] : gauges_) gauge(name, *g);
  for (const auto& [name, h] : histograms_) histogram(name, *h);
}

MetricsSnapshot TakeMetricsSnapshot(const MetricsRegistry& registry) {
  MetricsSnapshot snap;
  snap.ts_us = MonotonicNowUs();
  registry.Visit(
      [&](const std::string& name, const Counter& c) {
        snap.counters[name] = c.value();
      },
      [&](const std::string& name, const Gauge& g) {
        snap.gauges[name] = g.value();
      },
      [&](const std::string& name, const Histogram& h) {
        snap.histograms[name] = {h.count(), h.sum()};
      });
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

// ---------------------------------------------------------------------------
// Exposition
// ---------------------------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

void AppendJsonNumber(std::string* out, double v) {
  if (!std::isfinite(v)) {
    *out += "0";
    return;
  }
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    *out += buf;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  *out += buf;
}

namespace {

void AppendHistogramJson(std::string* out, const Histogram& h) {
  const uint64_t count = h.count();
  const double sum = h.sum();
  *out += "{\"count\":";
  AppendJsonNumber(out, static_cast<double>(count));
  *out += ",\"sum\":";
  AppendJsonNumber(out, sum);
  // Mean spelled out so dashboards (and the sum-exposition unit test)
  // never have to re-derive it from a racing count/sum pair.
  *out += ",\"mean\":";
  AppendJsonNumber(out, count > 0 ? sum / static_cast<double>(count) : 0.0);
  *out += ",\"min\":";
  AppendJsonNumber(out, h.min());
  *out += ",\"max\":";
  AppendJsonNumber(out, h.max());
  *out += ",\"p50\":";
  AppendJsonNumber(out, h.Percentile(50));
  *out += ",\"p95\":";
  AppendJsonNumber(out, h.Percentile(95));
  *out += ",\"p99\":";
  AppendJsonNumber(out, h.Percentile(99));
  *out += "}";
}

}  // namespace

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":";
    AppendJsonNumber(&out, static_cast<double>(c->value()));
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":";
    AppendJsonNumber(&out, g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":";
    AppendHistogramJson(&out, *h);
  }
  out += "}}";
  return out;
}

std::string MetricsRegistry::ToPrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  auto number = [](double v) {
    std::string s;
    AppendJsonNumber(&s, v);
    return s;
  };
  for (const auto& [name, c] : counters_) {
    out += "# TYPE " + name + " counter\n";
    out += name + " " + number(static_cast<double>(c->value())) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + number(g->value()) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    out += "# TYPE " + name + " summary\n";
    out += name + "{quantile=\"0.5\"} " + number(h->Percentile(50)) + "\n";
    out += name + "{quantile=\"0.95\"} " + number(h->Percentile(95)) + "\n";
    out += name + "{quantile=\"0.99\"} " + number(h->Percentile(99)) + "\n";
    out += name + "_sum " + number(h->sum()) + "\n";
    out += name + "_count " + number(static_cast<double>(h->count())) + "\n";
  }
  return out;
}

}  // namespace fsdm::telemetry
