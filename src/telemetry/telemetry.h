#ifndef FSDM_TELEMETRY_TELEMETRY_H_
#define FSDM_TELEMETRY_TELEMETRY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

/// Engine-wide metrics (ISSUE 2 tentpole): a process-wide registry of
/// counters, gauges and fixed-bucket latency histograms, cheap enough to
/// live on DML hot paths. Instrumentation sites use the FSDM_* macros
/// below, which cache the registry lookup in a function-local static so
/// the steady-state cost is one pointer indirection plus an add (or a
/// bucket binary search for histograms).
///
/// Naming convention: fsdm_<subsystem>_<metric>[_total|_us|_bytes].

namespace fsdm::telemetry {

/// Monotonic event count. Atomic (relaxed) since ISSUE 6: DML stays
/// single-threaded, but routed queries now drain shard morsels on the
/// worker pool, and the probe/operator counters fire on worker threads.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-set instantaneous value (bytes resident, rows populated, ...).
/// Atomic like Counter; Add() is a CAS loop (rare — gauges are mostly Set).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double d) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Fixed-bucket histogram: `bounds` are ascending bucket upper edges, with
/// an implicit +Inf overflow bucket. Tracks count/sum/min/max exactly;
/// Percentile(p) interpolates linearly inside the hit bucket (lower edge of
/// bucket 0 is 0) and clamps to the observed [min, max], so a
/// single-observation histogram reports that observation for every p.
/// Observe() and the readers take a per-histogram mutex (worker-pool
/// drains observe latency histograms concurrently); bucket_counts()
/// returns a copy for the same reason.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  uint64_t count() const;
  double sum() const;
  double min() const;
  double max() const;
  double Percentile(double p) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the +Inf overflow bucket.
  std::vector<uint64_t> bucket_counts() const;

  void Reset();

 private:
  double PercentileLocked(double p) const;

  std::vector<double> bounds_;
  mutable std::mutex mu_;
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Default bucket edges for latency histograms, in microseconds
/// (1us .. 1s, roughly logarithmic).
const std::vector<double>& DefaultLatencyBoundsUs();
/// Default bucket edges for size/depth histograms (powers of two, 1..64k).
const std::vector<double>& DefaultSizeBounds();

class MetricsRegistry;

/// Point-in-time copy of every metric's value, cheap enough to take every
/// bench row. Histograms are reduced to (count, sum) — enough for rate and
/// mean-delta queries without copying buckets.
struct MetricsSnapshot {
  struct HistogramPoint {
    uint64_t count = 0;
    double sum = 0;
  };
  uint64_t ts_us = 0;  // MonotonicNowUs() clock
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramPoint> histograms;
};

/// One full-registry snapshot, timestamped now — what the workload
/// repository (workload_repo.h) embeds per snapshot.
MetricsSnapshot TakeMetricsSnapshot(const MetricsRegistry& registry);

/// Name -> metric maps with stable handle pointers: Reset() zeroes values
/// but never invalidates a pointer returned by a Get*() call, so the
/// macros below can cache them in function-local statics. A mutex guards
/// the maps themselves (Get*() may be called from pool workers the first
/// time a metric fires on a worker thread); the metrics are individually
/// thread-safe, so cached handles never need the lock again.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// Created with DefaultLatencyBoundsUs() on first use.
  Histogram* GetHistogram(const std::string& name);
  /// Created with DefaultSizeBounds() on first use.
  Histogram* GetSizeHistogram(const std::string& name);
  Histogram* GetHistogram(const std::string& name, std::vector<double> bounds);

  /// Read helpers for tests/benches: value (or 0 / nullptr) without
  /// creating the metric.
  uint64_t CounterValue(const std::string& name) const;
  double GaugeValue(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  /// Calls the matching visitor for every metric — counters, then gauges,
  /// then histograms, each in name order — under the registry mutex, so the
  /// walk never races a first-use Get*() on another thread. Visitors must
  /// not call back into the registry.
  void Visit(
      const std::function<void(const std::string&, const Counter&)>& counter,
      const std::function<void(const std::string&, const Gauge&)>& gauge,
      const std::function<void(const std::string&, const Histogram&)>&
          histogram) const;

  /// Zeroes every metric; handles stay valid.
  void Reset();

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,min,
  /// max,p50,p95,p99}}} — the snapshot BENCH_*.json embeds.
  std::string ToJson() const;
  /// Prometheus text exposition (counters/gauges as-is, histograms as
  /// summaries with p50/p95/p99 quantiles).
  std::string ToPrometheusText() const;

 private:
  mutable std::mutex mu_;  // guards the three maps, not the metrics
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Wall-clock stopwatch in microseconds (finer grained than the bench
/// harness' millisecond Timer).
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  void Restart() { start_ = std::chrono::steady_clock::now(); }
  double ElapsedUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Observes its scope's elapsed microseconds into a histogram.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h) : h_(h) {}
  ~ScopedTimer() {
    if (h_ != nullptr) h_->Observe(w_.ElapsedUs());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* h_;
  Stopwatch w_;
};

/// JSON string escaping shared by ToJson and the bench BENCH_*.json writer.
std::string JsonEscape(const std::string& s);
/// Appends a JSON-valid number (integers without a fraction; non-finite
/// values as 0).
void AppendJsonNumber(std::string* out, double v);

}  // namespace fsdm::telemetry

#define FSDM_TM_CONCAT_INNER(a, b) a##b
#define FSDM_TM_CONCAT(a, b) FSDM_TM_CONCAT_INNER(a, b)

#define FSDM_COUNT(name, n)                                                  \
  do {                                                                       \
    static ::fsdm::telemetry::Counter* FSDM_TM_CONCAT(fsdm_tm_c, __LINE__) = \
        ::fsdm::telemetry::MetricsRegistry::Global().GetCounter(name);       \
    FSDM_TM_CONCAT(fsdm_tm_c, __LINE__)->Add(n);                             \
  } while (0)

#define FSDM_GAUGE_SET(name, v)                                            \
  do {                                                                     \
    static ::fsdm::telemetry::Gauge* FSDM_TM_CONCAT(fsdm_tm_g, __LINE__) = \
        ::fsdm::telemetry::MetricsRegistry::Global().GetGauge(name);       \
    FSDM_TM_CONCAT(fsdm_tm_g, __LINE__)->Set(static_cast<double>(v));      \
  } while (0)

#define FSDM_OBSERVE(name, v)                                                  \
  do {                                                                         \
    static ::fsdm::telemetry::Histogram* FSDM_TM_CONCAT(fsdm_tm_h,             \
                                                        __LINE__) =           \
        ::fsdm::telemetry::MetricsRegistry::Global().GetHistogram(name);       \
    FSDM_TM_CONCAT(fsdm_tm_h, __LINE__)->Observe(static_cast<double>(v));      \
  } while (0)

#define FSDM_OBSERVE_SIZE(name, v)                                             \
  do {                                                                         \
    static ::fsdm::telemetry::Histogram* FSDM_TM_CONCAT(fsdm_tm_s,             \
                                                        __LINE__) =           \
        ::fsdm::telemetry::MetricsRegistry::Global().GetSizeHistogram(name);   \
    FSDM_TM_CONCAT(fsdm_tm_s, __LINE__)->Observe(static_cast<double>(v));      \
  } while (0)

/// Times the rest of the enclosing scope into a latency histogram.
#define FSDM_TIME_SCOPE_US(name)                                               \
  static ::fsdm::telemetry::Histogram* FSDM_TM_CONCAT(fsdm_tm_th, __LINE__) =  \
      ::fsdm::telemetry::MetricsRegistry::Global().GetHistogram(name);         \
  ::fsdm::telemetry::ScopedTimer FSDM_TM_CONCAT(fsdm_tm_ts, __LINE__)(         \
      FSDM_TM_CONCAT(fsdm_tm_th, __LINE__))

#endif  // FSDM_TELEMETRY_TELEMETRY_H_
