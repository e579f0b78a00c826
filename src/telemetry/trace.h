#ifndef FSDM_TELEMETRY_TRACE_H_
#define FSDM_TELEMETRY_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

/// Per-query EXPLAIN ANALYZE traces (ISSUE 2 tentpole): the router records
/// its candidate ranking into a RouterDecision, and rdbms::Instrument()
/// wrappers fill one OperatorSpan per plan node with rows and elapsed time
/// as the plan executes.

namespace fsdm::telemetry {

/// One node of the executed operator tree. Span nodes are heap-allocated
/// (children own their subtrees through unique_ptr), so pointers handed to
/// rdbms::Instrument stay stable while the owning QueryTrace moves around
/// inside a RoutedPlan.
struct OperatorSpan {
  /// Live-progress states for the query monitor (ISSUE 9). Stored in
  /// `live_state` with relaxed atomics: the draining thread publishes,
  /// TELEMETRY$QUERY_MONITOR scans read from other threads.
  enum LiveState : uint8_t { kPending = 0, kOpen = 1, kDone = 2 };

  std::string name;    // "Filter", "IndexedValueScan", ...
  std::string detail;  // predicate text, posting statistics, ...
  /// Emitted rows. Atomic (relaxed) so the query monitor can watch an
  /// in-flight drain from another thread; the owning InstrumentOp is the
  /// only writer.
  std::atomic<uint64_t> rows_out{0};
  /// Inclusive wall time (children's time counts toward their ancestors,
  /// like EXPLAIN ANALYZE "actual time"). Accumulated per Next() by the
  /// draining thread only — cross-thread readers must use the live_*
  /// fields instead (this double is not atomic).
  double elapsed_us = 0;
  /// Sharded execution tags (ISSUE 6): which shard's sub-plan this span
  /// belongs to and which pool worker drained it. -1 = not sharded /
  /// drained on the submitting thread. The router stamps the shard when it
  /// stitches per-shard span trees under the ParallelUnion root (before
  /// the drain starts); the draining pool worker stamps `worker` mid-drain,
  /// hence the atomic.
  int shard = -1;
  std::atomic<int> worker{-1};
  /// Cross-thread progress mirror: kPending until Open(), kOpen while
  /// draining (live_open_ts_us holds the open timestamp), kDone after
  /// Close() (live_elapsed_us holds the final inclusive time in whole
  /// microseconds). All relaxed — a monitor snapshot is statistical.
  std::atomic<uint8_t> live_state{kPending};
  std::atomic<uint64_t> live_open_ts_us{0};
  std::atomic<uint64_t> live_elapsed_us{0};
  std::vector<std::unique_ptr<OperatorSpan>> children;

  /// Rows this operator consumed: the sum of its children's rows_out
  /// (0 for leaves, which read storage directly).
  uint64_t RowsIn() const;
};

std::unique_ptr<OperatorSpan> MakeSpan(std::string name,
                                       std::string detail = "");

/// One access path the router considered, in ranking order.
struct RouterCandidate {
  std::string access_path;  // AccessPathName() string
  bool eligible = false;    // could this path have run the query?
  bool chosen = false;
  std::string detail;  // statistics the estimate used / why it was rejected
  /// Cost-model estimates (ISSUE 5): rows the candidate's primary operator
  /// would emit and its estimated total cost. Negative when the candidate
  /// was ineligible (no estimate computed).
  double est_rows = -1;
  double est_cost_us = -1;
};

/// The router's full candidate ranking. `reason` is the one-line
/// explanation of the winner; Render() adds the candidate table with each
/// candidate's estimated rows/cost.
struct RouterDecision {
  std::vector<RouterCandidate> candidates;
  std::string winner;  // AccessPathName() of the chosen path
  std::string reason;
  /// Estimated rows the whole conjunction emits (cost model); negative
  /// when no estimate was made. QueryTrace::Render() pairs it with the
  /// root span's actual rows_out after execution.
  double est_out_rows = -1;
  std::string Render() const;
};

/// Everything EXPLAIN ANALYZE needs for one routed query: the routing
/// decision plus the instrumented operator tree. Render() after draining
/// the plan; before execution the spans show zero rows/time.
struct QueryTrace {
  RouterDecision decision;
  std::unique_ptr<OperatorSpan> root;
  std::string Render() const;
};

/// Renders one span subtree in QueryTrace::Render()'s indented format.
/// Public so the slow-query log can capture a plan tree without owning a
/// QueryTrace.
void RenderSpanTree(const OperatorSpan& span, int depth, std::string* out);

}  // namespace fsdm::telemetry

#endif  // FSDM_TELEMETRY_TRACE_H_
