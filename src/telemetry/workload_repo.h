#ifndef FSDM_TELEMETRY_WORKLOAD_REPO_H_
#define FSDM_TELEMETRY_WORKLOAD_REPO_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/ring.h"
#include "telemetry/sampler.h"
#include "telemetry/telemetry.h"

/// AWR-style workload repository (ISSUE 7 tentpole, part 3): explicitly
/// ticked snapshots that bind a full metrics snapshot to the ASH samples
/// collected since the *previous* snapshot. A pair of snapshots therefore
/// answers the operability questions a lifetime counter cannot: what did
/// this workload phase cost (counter deltas), where did its DB-time go
/// (wait-class breakdown), which queries dominated (top-N by sampled
/// DB-time), and how skewed were the shards.
///
/// Nobody ticks in the background — the bench harness snapshots per
/// printed row, tests snapshot around the phase they assert on, and
/// scripts/ash_report.py diffs any two snapshots out of a BENCH_*.json
/// into a markdown report. Exposed to SQL as TELEMETRY$SNAPSHOTS
/// (ash_table.h).

namespace fsdm::telemetry {

/// Top-`n` queries of an ASH window by sampled DB-time, descending
/// (samples, then name for determinism).
std::vector<std::pair<std::string, uint64_t>> TopAshQueries(
    const AshAggregate& agg, size_t n);

/// max/mean over the window's per-shard samples (1.0 = perfectly
/// balanced); 0 when no sharded samples landed.
double AshShardSkew(const AshAggregate& agg);

/// {"db_samples":N,"wait_classes":{...},"time_model":[...],
///  "top_queries":[...],"shard_samples":{...}} — the shared ASH-window
/// JSON shape used by both SnapshotJson and the bench "ash" section.
std::string AshAggregateJson(const AshAggregate& agg);

/// One repository snapshot. `ash` covers the window (previous snapshot,
/// this snapshot] — the deltas, not lifetime totals.
struct WorkloadSnapshot {
  uint64_t id = 0;       ///< 1-based, monotonically increasing
  uint64_t ts_us = 0;    ///< MonotonicNowUs() at the tick
  std::string label;
  MetricsSnapshot metrics;   ///< full registry values at the tick
  uint64_t sampler_ticks = 0;  ///< cumulative sampler ticks at the tick
  AshAggregate ash;          ///< ASH window since the previous snapshot
  /// Memory tracker readings at the tick (ISSUE 9): refreshed grand total
  /// and the process high-water.
  uint64_t mem_total_bytes = 0;
  uint64_t mem_peak_bytes = 0;

  /// Top-`n` queries of the window by sampled DB-time, descending.
  std::vector<std::pair<std::string, uint64_t>> TopQueries(size_t n) const;
  /// max/mean over per-shard samples (1.0 = perfectly balanced); 0 when
  /// no sharded samples landed in the window.
  double ShardSkew() const;
};

class WorkloadRepository {
 public:
  static WorkloadRepository& Global();

  /// Ticks one snapshot: full metrics + the ASH window since the last
  /// tick. Returns the assigned snapshot id.
  uint64_t TakeSnapshot(std::string label);

  size_t size() const;
  /// Copies, oldest first.
  std::vector<WorkloadSnapshot> Snapshots() const;

  /// {"snapshots":[{...}, ...]} — embedded into BENCH_*.json and what
  /// scripts/ash_report.py consumes.
  std::string ToJson() const;
  /// One snapshot's JSON object (id, ts_us, label, sampler_ticks,
  /// ash: AshAggregateJson of the window, counters, histograms).
  static std::string SnapshotJson(const WorkloadSnapshot& snap);

  /// Snapshots retained (default 128); the oldest fall off.
  void SetCapacity(size_t snapshots);
  void Clear();

 private:
  WorkloadRepository() = default;

  mutable std::mutex mu_;
  Ring<WorkloadSnapshot> ring_{0, 128};
  uint64_t next_id_ = 1;
  uint64_t last_ts_us_ = 0;
};

}  // namespace fsdm::telemetry

#endif  // FSDM_TELEMETRY_WORKLOAD_REPO_H_
