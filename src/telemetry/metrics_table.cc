#include "telemetry/metrics_table.h"

#include <string>
#include <vector>

#include "telemetry/flight_recorder.h"
#include "telemetry/memory_tracker.h"
#include "telemetry/query_monitor.h"
#include "telemetry/slow_query.h"
#include "telemetry/telemetry.h"

namespace fsdm::telemetry {

rdbms::OperatorPtr MetricsScan() {
  static const rdbms::Schema kSchema({"NAME", "KIND", "VALUE", "COUNT", "SUM",
                                      "MIN", "MAX", "P50", "P95", "P99"});
  return rdbms::ValuesFrom(kSchema, [] {
    std::vector<rdbms::Row> rows;
    auto scalar = [&](const std::string& name, const char* kind, Value v) {
      rdbms::Row row = {Value::String(name), Value::String(kind),
                        std::move(v)};
      row.resize(kSchema.size(), Value::Null());
      rows.push_back(std::move(row));
    };
    MetricsRegistry::Global().Visit(
        [&](const std::string& name, const Counter& c) {
          scalar(name, "counter",
                 Value::Int64(static_cast<int64_t>(c.value())));
        },
        [&](const std::string& name, const Gauge& g) {
          scalar(name, "gauge", Value::Double(g.value()));
        },
        [&](const std::string& name, const Histogram& h) {
          rows.push_back({Value::String(name), Value::String("histogram"),
                          Value::Null(),
                          Value::Int64(static_cast<int64_t>(h.count())),
                          Value::Double(h.sum()), Value::Double(h.min()),
                          Value::Double(h.max()),
                          Value::Double(h.Percentile(50)),
                          Value::Double(h.Percentile(95)),
                          Value::Double(h.Percentile(99))});
        });
    return rows;
  });
}

rdbms::OperatorPtr EventsScan() {
  return rdbms::ValuesFrom(
      rdbms::Schema(
          {"TS_US", "THREAD", "CATEGORY", "NAME", "PHASE", "DUR_US", "ARGS"}),
      [] {
        std::vector<rdbms::Row> rows;
        for (const TraceEvent& e : FlightRecorder::Global().Snapshot()) {
          const char phase = static_cast<char>(e.phase);
          rows.push_back(
              {Value::Int64(static_cast<int64_t>(e.ts_us)),
               Value::Int64(static_cast<int64_t>(e.tid)),
               Value::String(e.category), Value::String(e.name),
               Value::String(std::string(1, phase)),
               e.phase == TracePhase::kSpanEnd
                   ? Value::Int64(static_cast<int64_t>(e.dur_us))
                   : Value::Null(),
               e.has_args() ? Value::String(e.ArgsJson()) : Value::Null()});
        }
        return rows;
      });
}

rdbms::OperatorPtr SlowQueriesScan() {
  return rdbms::ValuesFrom(
      rdbms::Schema({"TS_US", "QUERY_ID", "QUERY", "ACCESS_PATH", "ELAPSED_US",
                     "ROWS", "EST_ROWS", "PEAK_MEM_BYTES", "EVENT_COUNT",
                     "TRACE"}),
      [] {
        std::vector<rdbms::Row> rows;
        for (const SlowQueryRecord& r : SlowQueryLog::Global().Snapshot()) {
          rows.push_back(
              {Value::Int64(static_cast<int64_t>(r.ts_us)),
               r.query_id != 0 ? Value::Int64(static_cast<int64_t>(r.query_id))
                               : Value::Null(),
               Value::String(r.query), Value::String(r.access_path),
               Value::Int64(static_cast<int64_t>(r.elapsed_us)),
               Value::Int64(static_cast<int64_t>(r.rows)),
               r.est_rows >= 0 ? Value::Double(r.est_rows) : Value::Null(),
               Value::Int64(static_cast<int64_t>(r.peak_mem_bytes)),
               Value::Int64(static_cast<int64_t>(r.event_count)),
               Value::String(r.trace_text)});
        }
        return rows;
      });
}

rdbms::OperatorPtr QueryMonitorScan() {
  return rdbms::ValuesFrom(
      rdbms::Schema({"QUERY_ID", "COLLECTION", "QUERY", "ACCESS_PATH",
                     "OPERATOR", "DEPTH", "SHARD", "WORKER", "STATE",
                     "ROWS_OUT", "EST_ROWS", "ELAPSED_US"}),
      [] {
        std::vector<rdbms::Row> rows;
        for (const MonitoredQuery& q : QueryMonitor::Global().Snapshot()) {
          // Query summary row: OPERATOR/DEPTH/SHARD/WORKER NULL.
          rows.push_back(
              {Value::Int64(static_cast<int64_t>(q.query_id)),
               Value::String(q.collection), Value::String(q.query),
               Value::String(q.access_path), Value::Null(), Value::Null(),
               Value::Null(), Value::Null(), Value::String("open"),
               Value::Int64(static_cast<int64_t>(q.rows_out)),
               q.est_rows >= 0 ? Value::Double(q.est_rows) : Value::Null(),
               Value::Int64(static_cast<int64_t>(q.elapsed_us))});
          for (const OperatorProgress& op : q.operators) {
            std::string name = op.name;
            if (!op.detail.empty()) name += "(" + op.detail + ")";
            rows.push_back(
                {Value::Int64(static_cast<int64_t>(q.query_id)),
                 Value::String(q.collection), Value::Null(), Value::Null(),
                 Value::String(std::move(name)), Value::Int64(op.depth),
                 op.shard >= 0 ? Value::Int64(op.shard) : Value::Null(),
                 op.worker >= 0 ? Value::Int64(op.worker) : Value::Null(),
                 Value::String(OperatorLiveStateName(op.state)),
                 Value::Int64(static_cast<int64_t>(op.rows_out)),
                 Value::Null(),
                 Value::Int64(static_cast<int64_t>(op.elapsed_us))});
          }
        }
        return rows;
      });
}

rdbms::OperatorPtr MemoryScan() {
  return rdbms::ValuesFrom(
      rdbms::Schema({"SUBSYSTEM", "COLLECTION", "BYTES", "PEAK_BYTES"}), [] {
        std::vector<rdbms::Row> rows;
        for (const MemoryTracker::Entry& e :
             MemoryTracker::Global().Entries()) {
          rows.push_back({Value::String(MemSubsystemName(e.subsystem)),
                          Value::String(e.collection),
                          Value::Int64(static_cast<int64_t>(e.bytes)),
                          Value::Int64(static_cast<int64_t>(e.peak_bytes))});
        }
        return rows;
      });
}

}  // namespace fsdm::telemetry
