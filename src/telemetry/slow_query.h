#ifndef FSDM_TELEMETRY_SLOW_QUERY_H_
#define FSDM_TELEMETRY_SLOW_QUERY_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/ring.h"

/// Slow-query log (ISSUE 4): when a routed query exceeds a threshold, the
/// router captures its rendered QueryTrace (EXPLAIN ANALYZE tree + router
/// candidate table) plus the flight-recorder slice covering its execution
/// into a bounded in-memory log. Exposed as the TELEMETRY$SLOW_QUERIES
/// SQL relation.

namespace fsdm::telemetry {

struct SlowQueryRecord {
  uint64_t ts_us = 0;       // capture time, MonotonicNowUs() clock
  /// Query-monitor id (ISSUE 9): the id the query held in
  /// TELEMETRY$QUERY_MONITOR while in flight, cross-linking this record to
  /// ASH samples carrying the same id. 0 = pre-monitor record.
  uint64_t query_id = 0;
  std::string query;        // predicate/query description from the router
  std::string access_path;  // winning access path name
  uint64_t elapsed_us = 0;  // measured wall time of the routed plan
  uint64_t rows = 0;        // rows produced
  double est_rows = -1;     // router's cardinality estimate; -1 = none
  /// High-water MemoryTracker::CurrentBytes() observed while the plan
  /// drained (sampled at open, every 256 rows, and at close).
  uint64_t peak_mem_bytes = 0;
  std::string trace_text;   // rendered EXPLAIN ANALYZE (router + spans)
  std::string events_json;  // chrome-style JSON array of the trace slice
  uint64_t event_count = 0;
};

/// Process-wide bounded log. Capacity evicts oldest; total_captured() keeps
/// counting so tests and TELEMETRY$METRICS can see evictions. Mutex-guarded:
/// with the ISSUE 6 worker pool, probes on different threads may capture
/// concurrently.
class SlowQueryLog {
 public:
  static SlowQueryLog& Global();

  /// Queries at or above this wall time get captured. Default 10ms.
  uint64_t threshold_us() const {
    std::lock_guard<std::mutex> lock(mu_);
    return threshold_us_;
  }
  void SetThresholdUs(uint64_t us) {
    std::lock_guard<std::mutex> lock(mu_);
    threshold_us_ = us;
  }

  size_t capacity() const { return records_.capacity(); }
  void SetCapacity(size_t n);

  void Record(SlowQueryRecord rec);

  std::vector<SlowQueryRecord> Snapshot() const;
  uint64_t total_captured() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_captured_;
  }
  void Clear();

 private:
  SlowQueryLog() = default;

  mutable std::mutex mu_;  // guards the threshold and counter
  Ring<SlowQueryRecord> records_{0, 32};
  uint64_t threshold_us_ = 10000;
  uint64_t total_captured_ = 0;
};

}  // namespace fsdm::telemetry

#endif  // FSDM_TELEMETRY_SLOW_QUERY_H_
