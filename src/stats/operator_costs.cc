#include "stats/operator_costs.h"

#include <algorithm>
#include <atomic>

namespace fsdm::stats {

namespace {

/// Seed us/row defaults, roughly ordered by how much work one row costs:
/// replaying an IMC vector is nearly free, posting lookups materialize one
/// base row, a full-scan row is cheaper than that, and a residual Filter
/// re-parses the document to evaluate JSON_VALUE/JSON_EXISTS.
constexpr struct {
  const char* name;
  double us_per_row;
} kSeeds[] = {
    {"ImcFilterScan", 0.05},       // vectorized compare per stored row
    {"ParallelUnion", 0.05},       // per-row merge cost of the shard union
    {"PostingIntersect", 0.05},    // sorted-list merge step per posting
    {"Scan", 0.5},                 // base-table row materialization
    {"IndexedValueScan", 0.8},     // posting fetch + row materialization
    {"IndexedPathScan", 0.8},
    {"PostingIntersectScan", 0.8},
    {"Filter", 2.0},               // JSON parse + path navigation per row
};

}  // namespace

OperatorCostModel::OperatorCostModel() { SeedLocked(); }

void OperatorCostModel::SeedLocked() {
  for (const auto& seed : kSeeds) {
    Entry e;
    e.us_per_row = seed.us_per_row;
    e.seed_us_per_row = seed.us_per_row;
    entries_[seed.name] = e;
  }
}

OperatorCostModel& OperatorCostModel::Global() {
  static OperatorCostModel* model = new OperatorCostModel();
  return *model;
}

double OperatorCostModel::UsPerRow(std::string_view op_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(op_name);
  return it == entries_.end() ? 1.0 : it->second.us_per_row;
}

void OperatorCostModel::Record(std::string_view op_name, uint64_t rows,
                               double us) {
  std::lock_guard<std::mutex> lock(mu_);
  if (frozen_ || rows == 0) return;
  const double obs = std::min(
      1000.0, std::max(0.001, us / static_cast<double>(rows)));
  auto it = entries_.find(op_name);
  if (it == entries_.end()) {
    it = entries_.emplace(std::string(op_name), Entry{}).first;
  }
  Entry& e = it->second;
  if (e.samples == 0) {
    // First measurement replaces the seed outright instead of blending
    // into it — the seed is a prior, not a data point.
    e.us_per_row = obs;
  } else {
    e.us_per_row = (1.0 - kAlpha) * e.us_per_row + kAlpha * obs;
  }
  ++e.samples;
  e.rows_total += rows;
  e.last_us_per_row = obs;
}

void OperatorCostModel::RecordSpanTree(const telemetry::OperatorSpan& root) {
  if (frozen()) return;
  double child_us = 0;
  for (const auto& c : root.children) {
    child_us += c->elapsed_us;
    RecordSpanTree(*c);
  }
  if (root.name == "ImcFilterScan") return;  // see header
  const uint64_t rows = root.children.empty()
                            ? root.rows_out.load(std::memory_order_relaxed)
                            : root.RowsIn();
  const double exclusive_us = std::max(0.0, root.elapsed_us - child_us);
  Record(root.name, rows, exclusive_us);
}

void OperatorCostModel::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  frozen_ = false;
  entries_.clear();
  SeedLocked();
}

OperatorCostModel::Entries OperatorCostModel::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

}  // namespace fsdm::stats
