#include "telemetry/log_table.h"

#include <vector>

#include "telemetry/incident.h"
#include "telemetry/log.h"

namespace fsdm::telemetry {

rdbms::OperatorPtr LogScan() {
  return rdbms::ValuesFrom(
      rdbms::Schema({"TS_US", "THREAD", "LEVEL", "COMPONENT", "EVENT_ID",
                     "MESSAGE", "ARGS"}),
      [] {
        std::vector<rdbms::Row> rows;
        for (const LogRecord& r : EngineLog::Global().Snapshot()) {
          rows.push_back(
              {Value::Int64(static_cast<int64_t>(r.ts_us)),
               Value::Int64(static_cast<int64_t>(r.tid)),
               Value::String(LogLevelName(r.level)),
               Value::String(r.component),
               Value::Int64(static_cast<int64_t>(r.event_id)),
               Value::String(r.message),
               r.has_args() ? Value::String(r.ArgsJson()) : Value::Null()});
        }
        return rows;
      });
}

rdbms::OperatorPtr IncidentsScan() {
  return rdbms::ValuesFrom(
      rdbms::Schema({"ID", "TS_US", "TYPE", "SUBJECT", "REASON", "BUNDLE_PATH",
                     "LOG_RECORDS"}),
      [] {
        std::vector<rdbms::Row> rows;
        for (const Incident& inc : IncidentManager::Global().Snapshot()) {
          rows.push_back(
              {Value::Int64(static_cast<int64_t>(inc.id)),
               Value::Int64(static_cast<int64_t>(inc.ts_us)),
               Value::String(inc.type), Value::String(inc.subject),
               Value::String(inc.reason),
               inc.bundle_path.empty() ? Value::Null()
                                       : Value::String(inc.bundle_path),
               Value::Int64(static_cast<int64_t>(inc.log_records))});
        }
        return rows;
      });
}

}  // namespace fsdm::telemetry
