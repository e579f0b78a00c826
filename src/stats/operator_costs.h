#ifndef FSDM_STATS_OPERATOR_COSTS_H_
#define FSDM_STATS_OPERATOR_COSTS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "telemetry/trace.h"

/// Measured per-operator throughputs (ISSUE 5 tentpole): exponentially
/// weighted us/row estimates per operator name, harvested from the
/// OperatorSpan trees rdbms::Instrument already fills on every routed
/// query. The router's cost model multiplies these by estimated row counts;
/// seeded defaults keep routing sensible before the first measurement.

namespace fsdm::stats {

class OperatorCostModel {
 public:
  static OperatorCostModel& Global();

  /// Current estimate of microseconds spent per row processed by the named
  /// operator: the EWMA when measurements exist, the seed default
  /// otherwise (1.0 us/row for unseeded names).
  double UsPerRow(std::string_view op_name) const;

  /// Feeds one measurement: `rows` rows processed in `us` microseconds.
  /// No-op while frozen or when rows == 0; the per-row observation is
  /// clamped to [0.001, 1000] us so clock-granularity zeros cannot
  /// collapse an estimate.
  void Record(std::string_view op_name, uint64_t rows, double us);

  /// Harvests an executed span tree: each span contributes its *exclusive*
  /// time (elapsed minus children's elapsed) over its row basis — leaves
  /// process the rows they emit, interior operators the rows they consume.
  /// Spans named "ImcFilterScan" are skipped: the routed plan only replays
  /// pre-materialized rows there, and the router records the route-time
  /// scan directly with the scanned-row basis.
  void RecordSpanTree(const telemetry::OperatorSpan& root);

  /// Freezing makes Record()/RecordSpanTree() no-ops, pinning every
  /// estimate — the router determinism test routes under a frozen model.
  void set_frozen(bool frozen) {
    std::lock_guard<std::mutex> lock(mu_);
    frozen_ = frozen;
  }
  bool frozen() const {
    std::lock_guard<std::mutex> lock(mu_);
    return frozen_;
  }

  /// Drops all measurements back to the seed defaults (and unfreezes).
  void Reset();

  struct Entry {
    double us_per_row = 1.0;       // live EWMA (== seed until a sample)
    double seed_us_per_row = 1.0;  // the pre-measurement default
    uint64_t samples = 0;
    uint64_t rows_total = 0;
    double last_us_per_row = 0.0;  // most recent raw observation
  };

  /// Keyed by operator name; looked up by std::string_view, so a lookup
  /// allocates nothing.
  using Entries = std::map<std::string, Entry, std::less<>>;

  /// Seeded + measured entries, for TELEMETRY$OPERATOR_COSTS.
  Entries Snapshot() const;

 private:
  OperatorCostModel();

  void SeedLocked();

  static constexpr double kAlpha = 0.2;  // EWMA weight of a new sample

  // Guards entries_ and frozen_: routed sub-plans on different worker
  // threads can feed measurements concurrently (ISSUE 6).
  mutable std::mutex mu_;
  Entries entries_;  // seeds pre-inserted
  bool frozen_ = false;
};

}  // namespace fsdm::stats

#endif  // FSDM_STATS_OPERATOR_COSTS_H_
