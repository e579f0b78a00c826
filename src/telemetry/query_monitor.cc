#include "telemetry/query_monitor.h"

#include "telemetry/trace_event.h"

namespace fsdm::telemetry {

const char* OperatorLiveStateName(uint8_t state) {
  switch (state) {
    case OperatorSpan::kPending:
      return "pending";
    case OperatorSpan::kOpen:
      return "open";
    case OperatorSpan::kDone:
      return "done";
  }
  return "?";
}

namespace {

void AppendProgress(const OperatorSpan& span, int depth, uint64_t now_us,
                    std::vector<OperatorProgress>* out) {
  OperatorProgress p;
  p.name = span.name;
  p.detail = span.detail;
  p.depth = depth;
  p.shard = span.shard;
  p.worker = span.worker.load(std::memory_order_relaxed);
  p.state = span.live_state.load(std::memory_order_relaxed);
  p.rows_out = span.rows_out.load(std::memory_order_relaxed);
  if (p.state == OperatorSpan::kOpen) {
    const uint64_t open_ts = span.live_open_ts_us.load(std::memory_order_relaxed);
    p.elapsed_us = now_us > open_ts ? now_us - open_ts : 0;
  } else if (p.state == OperatorSpan::kDone) {
    p.elapsed_us = span.live_elapsed_us.load(std::memory_order_relaxed);
  }
  out->push_back(std::move(p));
  for (const std::unique_ptr<OperatorSpan>& c : span.children) {
    AppendProgress(*c, depth + 1, now_us, out);
  }
}

}  // namespace

QueryMonitor& QueryMonitor::Global() {
  static QueryMonitor* monitor = new QueryMonitor();
  return *monitor;
}

void QueryMonitor::Register(uint64_t query_id, std::string collection,
                            std::string query, std::string access_path,
                            double est_rows, const OperatorSpan* root) {
  InFlight entry;
  entry.query_id = query_id;
  entry.collection = std::move(collection);
  entry.query = std::move(query);
  entry.access_path = std::move(access_path);
  entry.est_rows = est_rows;
  entry.open_ts_us = MonotonicNowUs();
  entry.root = root;
  std::lock_guard<std::mutex> lock(mu_);
  for (InFlight& existing : in_flight_) {
    if (existing.query_id == query_id) {
      existing = std::move(entry);
      return;
    }
  }
  in_flight_.push_back(std::move(entry));
}

void QueryMonitor::Unregister(uint64_t query_id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < in_flight_.size(); ++i) {
    if (in_flight_[i].query_id != query_id) continue;
    in_flight_.erase(in_flight_.begin() + static_cast<ptrdiff_t>(i));
    return;
  }
}

std::vector<MonitoredQuery> QueryMonitor::Snapshot() const {
  const uint64_t now_us = MonotonicNowUs();
  std::vector<MonitoredQuery> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(in_flight_.size());
  for (const InFlight& q : in_flight_) {
    MonitoredQuery m;
    m.query_id = q.query_id;
    m.collection = q.collection;
    m.query = q.query;
    m.access_path = q.access_path;
    m.est_rows = q.est_rows;
    m.open_ts_us = q.open_ts_us;
    m.elapsed_us = now_us > q.open_ts_us ? now_us - q.open_ts_us : 0;
    if (q.root != nullptr) {
      m.rows_out = q.root->rows_out.load(std::memory_order_relaxed);
      AppendProgress(*q.root, 0, now_us, &m.operators);
    }
    out.push_back(std::move(m));
  }
  return out;
}

size_t QueryMonitor::InFlightCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_flight_.size();
}

}  // namespace fsdm::telemetry
