#ifndef FSDM_TELEMETRY_QUERY_MONITOR_H_
#define FSDM_TELEMETRY_QUERY_MONITOR_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/trace.h"

/// Live query monitor (ISSUE 9 tentpole, V$SQL_MONITOR-style): every routed
/// plan registers here when its probe opens and unregisters when it closes,
/// so a concurrent session can ask "what is running right now and how far
/// along is it". Per-operator progress comes from the OperatorSpan tree's
/// relaxed-atomic live fields (rows_out / live_state / live_open_ts_us),
/// which the draining thread updates anyway for EXPLAIN ANALYZE — the
/// monitor adds zero cost to the drain path beyond the existing span
/// bumps.
///
/// Lifetime: Snapshot() walks the registered span trees *under the
/// registry mutex*, and RoutedQueryProbe unregisters (same mutex) before
/// the RoutedPlan — and with it the spans — can be destroyed. A snapshot
/// therefore never dereferences a freed span, and is a deep copy: callers
/// hold no pointers into live plans.

namespace fsdm::telemetry {

/// One operator's progress inside a monitored query, flattened pre-order.
struct OperatorProgress {
  std::string name;
  std::string detail;
  int depth = 0;
  int shard = -1;
  int worker = -1;
  uint8_t state = OperatorSpan::kPending;  // OperatorSpan::LiveState
  uint64_t rows_out = 0;
  /// Inclusive wall time: now - open timestamp while kOpen, the final
  /// stamped time once kDone, 0 while kPending.
  uint64_t elapsed_us = 0;
};

const char* OperatorLiveStateName(uint8_t state);

/// Deep copy of one in-flight query, as TELEMETRY$QUERY_MONITOR renders it.
struct MonitoredQuery {
  uint64_t query_id = 0;
  std::string collection;
  std::string query;
  std::string access_path;
  double est_rows = -1;
  uint64_t open_ts_us = 0;
  uint64_t elapsed_us = 0;  // since open, as of the snapshot
  uint64_t rows_out = 0;    // root operator's emitted rows so far
  std::vector<OperatorProgress> operators;
};

class QueryMonitor {
 public:
  static QueryMonitor& Global();

  /// Process-wide monotonically increasing query id (never 0). Allocated
  /// at route time so shard activity leases and ASH samples can carry the
  /// id before the probe opens.
  uint64_t AllocateQueryId() {
    return next_query_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Registers an in-flight query. `root` must stay valid until the
  /// matching Unregister (the probe guarantees this: it unregisters in
  /// Close() and again defensively in its destructor). Re-registering an
  /// id (a plan drained twice) replaces the stale entry.
  void Register(uint64_t query_id, std::string collection, std::string query,
                std::string access_path, double est_rows,
                const OperatorSpan* root);
  void Unregister(uint64_t query_id);

  /// Deep-copies every in-flight query, reading per-operator progress from
  /// the span atomics. Safe against concurrent drains and unregistration.
  std::vector<MonitoredQuery> Snapshot() const;

  size_t InFlightCount() const;

 private:
  QueryMonitor() = default;

  struct InFlight {
    uint64_t query_id = 0;
    std::string collection;
    std::string query;
    std::string access_path;
    double est_rows = -1;
    uint64_t open_ts_us = 0;
    const OperatorSpan* root = nullptr;
  };

  std::atomic<uint64_t> next_query_id_{0};
  mutable std::mutex mu_;
  std::vector<InFlight> in_flight_;
};

}  // namespace fsdm::telemetry

#endif  // FSDM_TELEMETRY_QUERY_MONITOR_H_
