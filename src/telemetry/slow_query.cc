#include "telemetry/slow_query.h"

#include <fstream>

#include "telemetry/activity.h"
#include "telemetry/telemetry.h"

namespace fsdm::telemetry {

std::string SlowQueryRecord::ToJsonLine() const {
  std::string out = "{\"ts_us\":";
  AppendJsonNumber(&out, static_cast<double>(ts_us));
  if (query_id != 0) {
    out += ",\"query_id\":";
    AppendJsonNumber(&out, static_cast<double>(query_id));
  }
  out += ",\"query\":\"" + JsonEscape(query) + "\"";
  out += ",\"access_path\":\"" + JsonEscape(access_path) + "\"";
  out += ",\"elapsed_us\":";
  AppendJsonNumber(&out, static_cast<double>(elapsed_us));
  out += ",\"rows\":";
  AppendJsonNumber(&out, static_cast<double>(rows));
  if (est_rows >= 0) {
    out += ",\"est_rows\":";
    AppendJsonNumber(&out, est_rows);
  }
  out += ",\"peak_mem_bytes\":";
  AppendJsonNumber(&out, static_cast<double>(peak_mem_bytes));
  out += ",\"event_count\":";
  AppendJsonNumber(&out, static_cast<double>(event_count));
  out += ",\"trace\":\"" + JsonEscape(trace_text) + "\"";
  // events_json is already a JSON array (or empty when tracing was off).
  out += ",\"events\":" + (events_json.empty() ? std::string("[]")
                                               : events_json);
  out += "}";
  return out;
}

SlowQueryLog& SlowQueryLog::Global() {
  static SlowQueryLog* log = new SlowQueryLog();
  return *log;
}

void SlowQueryLog::SetCapacity(size_t n) { records_.SetCapacity(n); }

void SlowQueryLog::Record(SlowQueryRecord rec) {
  FSDM_COUNT("fsdm_slow_queries_total", 1);
  ScopedWaitState wait(WaitState::kLockWait);
  std::lock_guard<std::mutex> lock(mu_);
  if (!jsonl_path_.empty()) {
    std::ofstream f(jsonl_path_, std::ios::app);
    if (f.is_open()) f << rec.ToJsonLine() << "\n";
  }
  records_.Push(std::move(rec));
  ++total_captured_;
}

std::vector<SlowQueryRecord> SlowQueryLog::Snapshot() const {
  ScopedWaitState wait(WaitState::kLockWait);
  return records_.Snapshot();
}

void SlowQueryLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.Clear();
  total_captured_ = 0;
}

}  // namespace fsdm::telemetry
