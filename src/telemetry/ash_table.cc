#include "telemetry/ash_table.h"

#include <string>
#include <utility>
#include <vector>

#include "telemetry/sampler.h"
#include "telemetry/workload_repo.h"

namespace fsdm::telemetry {

namespace {

Value StrOrNull(const std::string& s) {
  return s.empty() ? Value::Null() : Value::String(s);
}

rdbms::Row SnapshotRow(const WorkloadSnapshot& snap) {
  const uint64_t total = snap.ash.db_samples;
  Value cpu_pct = Value::Null();
  Value top_class = Value::Null();
  Value top_pct = Value::Null();
  if (total > 0) {
    const auto cpu = snap.ash.by_state[static_cast<size_t>(WaitState::kOnCpu)];
    cpu_pct = Value::Double(100.0 * static_cast<double>(cpu) /
                            static_cast<double>(total));
    // Dominant *wait* (non-CPU) class of the window.
    uint64_t best = 0;
    WaitState best_state = WaitState::kIdle;
    for (size_t i = 0; i < kWaitStateCount; ++i) {
      if (static_cast<WaitState>(i) == WaitState::kOnCpu) continue;
      if (snap.ash.by_state[i] > best) {
        best = snap.ash.by_state[i];
        best_state = static_cast<WaitState>(i);
      }
    }
    if (best > 0) {
      top_class = Value::String(WaitClassName(best_state));
      top_pct = Value::Double(100.0 * static_cast<double>(best) /
                              static_cast<double>(total));
    }
  }
  Value top_query = Value::Null();
  Value top_query_samples = Value::Null();
  std::vector<std::pair<std::string, uint64_t>> top = snap.TopQueries(1);
  if (!top.empty()) {
    top_query = Value::String(top[0].first);
    top_query_samples = Value::Int64(static_cast<int64_t>(top[0].second));
  }
  const double skew = snap.ShardSkew();
  return {Value::Int64(static_cast<int64_t>(snap.id)),
          Value::Int64(static_cast<int64_t>(snap.ts_us)),
          Value::String(snap.label),
          Value::Int64(static_cast<int64_t>(snap.sampler_ticks)),
          Value::Int64(static_cast<int64_t>(total)),
          std::move(cpu_pct),
          std::move(top_class),
          std::move(top_pct),
          std::move(top_query),
          std::move(top_query_samples),
          skew > 0 ? Value::Double(skew) : Value::Null(),
          Value::Int64(static_cast<int64_t>(snap.mem_total_bytes)),
          Value::Int64(static_cast<int64_t>(snap.mem_peak_bytes))};
}

}  // namespace

rdbms::OperatorPtr AshScan() {
  return rdbms::ValuesFrom(
      rdbms::Schema({"TS_US", "THREAD", "WAIT_STATE", "WAIT_CLASS",
                     "COLLECTION", "ACCESS_PATH", "OP", "QUERY", "QUERY_ID",
                     "SHARD", "WORKER"}),
      [] {
        std::vector<rdbms::Row> rows;
        for (const AshSample& s : ActivitySampler::Global().Snapshot()) {
          rows.push_back(
              {Value::Int64(static_cast<int64_t>(s.ts_us)),
               Value::Int64(static_cast<int64_t>(s.thread_slot)),
               Value::String(WaitStateName(s.state)),
               Value::String(WaitClassName(s.state)), StrOrNull(s.collection),
               StrOrNull(s.access_path), StrOrNull(s.op), StrOrNull(s.query),
               s.query_id != 0 ? Value::Int64(static_cast<int64_t>(s.query_id))
                               : Value::Null(),
               s.shard >= 0 ? Value::Int64(s.shard) : Value::Null(),
               s.worker >= 0 ? Value::Int64(s.worker) : Value::Null()});
        }
        return rows;
      });
}

rdbms::OperatorPtr SnapshotsScan() {
  return rdbms::ValuesFrom(
      rdbms::Schema({"SNAP_ID", "TS_US", "LABEL", "SAMPLER_TICKS",
                     "DB_SAMPLES", "CPU_PCT", "TOP_WAIT_CLASS", "TOP_WAIT_PCT",
                     "TOP_QUERY", "TOP_QUERY_SAMPLES", "SHARD_SKEW",
                     "MEM_BYTES", "MEM_PEAK_BYTES"}),
      [] {
        std::vector<rdbms::Row> rows;
        for (const WorkloadSnapshot& snap :
             WorkloadRepository::Global().Snapshots()) {
          rows.push_back(SnapshotRow(snap));
        }
        return rows;
      });
}

}  // namespace fsdm::telemetry
