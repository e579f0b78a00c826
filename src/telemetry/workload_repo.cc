#include "telemetry/workload_repo.h"

#include <algorithm>

#include "telemetry/memory_tracker.h"
#include "telemetry/trace_event.h"

namespace fsdm::telemetry {

std::vector<std::pair<std::string, uint64_t>> TopAshQueries(
    const AshAggregate& agg, size_t n) {
  std::vector<std::pair<std::string, uint64_t>> out(agg.by_query.begin(),
                                                    agg.by_query.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (out.size() > n) out.resize(n);
  return out;
}

double AshShardSkew(const AshAggregate& agg) {
  if (agg.by_shard.empty()) return 0;
  uint64_t max_samples = 0;
  uint64_t total = 0;
  for (const auto& [shard, samples] : agg.by_shard) {
    max_samples = std::max(max_samples, samples);
    total += samples;
  }
  const double mean =
      static_cast<double>(total) / static_cast<double>(agg.by_shard.size());
  return mean > 0 ? static_cast<double>(max_samples) / mean : 0;
}

std::string AshAggregateJson(const AshAggregate& agg) {
  std::string out = "{\"db_samples\":" + std::to_string(agg.db_samples);

  out += ",\"wait_classes\":{";
  bool first = true;
  for (size_t i = 0; i < kWaitStateCount; ++i) {
    if (agg.by_state[i] == 0) continue;
    if (!first) out += ",";
    first = false;
    out += "\"" + std::string(WaitClassName(static_cast<WaitState>(i))) +
           "\":" + std::to_string(agg.by_state[i]);
  }
  out += "}";

  out += ",\"time_model\":[";
  first = true;
  for (const auto& [coll, states] : agg.by_collection) {
    uint64_t coll_total = 0;
    for (uint64_t c : states) coll_total += c;
    for (size_t i = 0; i < kWaitStateCount; ++i) {
      if (states[i] == 0) continue;
      if (!first) out += ",";
      first = false;
      const auto state = static_cast<WaitState>(i);
      out += "{\"collection\":\"" + JsonEscape(coll) + "\",\"state\":\"" +
             WaitStateName(state) + "\",\"class\":\"" + WaitClassName(state) +
             "\",\"samples\":" + std::to_string(states[i]) + ",\"pct\":";
      AppendJsonNumber(&out, coll_total > 0
                                 ? 100.0 * static_cast<double>(states[i]) /
                                       static_cast<double>(coll_total)
                                 : 0.0);
      out += "}";
    }
  }
  out += "]";

  out += ",\"top_queries\":[";
  first = true;
  for (const auto& [query, samples] : TopAshQueries(agg, 10)) {
    if (!first) out += ",";
    first = false;
    out += "{\"query\":\"" + JsonEscape(query) +
           "\",\"samples\":" + std::to_string(samples) + "}";
  }
  out += "]";

  out += ",\"shard_samples\":{";
  first = true;
  for (const auto& [shard, samples] : agg.by_shard) {
    if (!first) out += ",";
    first = false;
    out += "\"" + std::to_string(shard) + "\":" + std::to_string(samples);
  }
  out += "}}";
  return out;
}

std::vector<std::pair<std::string, uint64_t>> WorkloadSnapshot::TopQueries(
    size_t n) const {
  return TopAshQueries(ash, n);
}

double WorkloadSnapshot::ShardSkew() const { return AshShardSkew(ash); }

WorkloadRepository& WorkloadRepository::Global() {
  static WorkloadRepository* repo = new WorkloadRepository();
  return *repo;
}

uint64_t WorkloadRepository::TakeSnapshot(std::string label) {
  // The sampler reads are taken before the repository mutex: Snapshot()
  // locks the ring mutex and must not nest inside ours (and vice versa).
  ActivitySampler& sampler = ActivitySampler::Global();
  std::vector<AshSample> samples = sampler.Snapshot();
  const uint64_t ticks = sampler.ticks();
  MetricsSnapshot metrics = TakeMetricsSnapshot(MetricsRegistry::Global());
  const uint64_t mem_total = MemoryTracker::Global().CurrentBytes();
  const uint64_t mem_peak = MemoryTracker::Global().PeakBytes();

  std::lock_guard<std::mutex> lock(mu_);
  WorkloadSnapshot snap;
  snap.id = next_id_++;
  snap.ts_us = MonotonicNowUs();
  snap.label = std::move(label);
  snap.metrics = std::move(metrics);
  snap.sampler_ticks = ticks;
  snap.mem_total_bytes = mem_total;
  snap.mem_peak_bytes = mem_peak;
  snap.ash = AggregateAsh(samples, last_ts_us_, snap.ts_us);
  last_ts_us_ = snap.ts_us;
  const uint64_t id = snap.id;
  ring_.Push(std::move(snap));
  return id;
}

size_t WorkloadRepository::size() const { return ring_.size(); }

std::vector<WorkloadSnapshot> WorkloadRepository::Snapshots() const {
  return ring_.Snapshot();
}

std::string WorkloadRepository::SnapshotJson(const WorkloadSnapshot& snap) {
  std::string out = "{\"id\":" + std::to_string(snap.id);
  out += ",\"ts_us\":" + std::to_string(snap.ts_us);
  out += ",\"label\":\"" + JsonEscape(snap.label) + "\"";
  out += ",\"sampler_ticks\":" + std::to_string(snap.sampler_ticks);
  out += ",\"mem_total_bytes\":" + std::to_string(snap.mem_total_bytes);
  out += ",\"mem_peak_bytes\":" + std::to_string(snap.mem_peak_bytes);
  // The window's time model, in the same shape the bench-level "ash"
  // section uses (scripts/ash_report.py reads both).
  out += ",\"ash\":" + AshAggregateJson(snap.ash);

  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.metrics.counters) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + std::to_string(value);
  }
  out += "}";

  // Histogram (count, sum) pairs make mean-latency deltas derivable from
  // any two snapshots (the histogram-sum satellite's snapshot surface).
  out += ",\"histograms\":{";
  first = true;
  for (const auto& [name, point] : snap.metrics.histograms) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) +
           "\":{\"count\":" + std::to_string(point.count) + ",\"sum\":";
    AppendJsonNumber(&out, point.sum);
    out += "}";
  }
  out += "}}";
  return out;
}

std::string WorkloadRepository::ToJson() const {
  std::vector<WorkloadSnapshot> snaps = Snapshots();
  std::string out = "{\"snapshots\":[";
  for (size_t i = 0; i < snaps.size(); ++i) {
    if (i > 0) out += ",";
    out += SnapshotJson(snaps[i]);
  }
  out += "]}";
  return out;
}

void WorkloadRepository::SetCapacity(size_t snapshots) {
  ring_.SetCapacity(snapshots);
}

void WorkloadRepository::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.Clear();
  last_ts_us_ = 0;
}

}  // namespace fsdm::telemetry
