#ifndef FSDM_TELEMETRY_TRACE_H_
#define FSDM_TELEMETRY_TRACE_H_

#include <array>
#include <atomic>
#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
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

/// Text kept as a template and its arguments and formatted only when
/// read: a route records the numbers and names its explanation needs, and
/// only Render() (EXPLAIN output, the slow-query capture, tests) pays for
/// the formatting. Each "{}" in the template takes the next argument: text
/// as is, an unsigned integer in decimal, a real as "%.1f"; "{.2}" formats
/// a real as "%.2f". A template without arguments is literal text.
///
/// The template and every text argument are views. They must outlive the
/// DeferredText: string literals, or names such as the DataGuide's
/// interned paths, which live as long as their collection. Text built from
/// anything shorter-lived is rendered at once with Own(), or passed as a
/// std::string.
class DeferredText {
 public:
  class Arg {
   public:
    Arg() = default;
    Arg(std::string_view text) : kind_(kText), text_(text) {}
    Arg(const char* text) : Arg(std::string_view(text)) {}
    template <std::unsigned_integral T>
    Arg(T count) : kind_(kCount), count_(count) {}
    Arg(double real) : kind_(kReal), real_(real) {}

   private:
    friend class DeferredText;
    enum Kind : uint8_t { kText, kCount, kReal };
    Kind kind_ = kText;
    union {
      std::string_view text_{};
      uint64_t count_;
      double real_;
    };
  };

  DeferredText() = default;
  /// Literal text; `literal` must be a string literal.
  DeferredText(const char* literal) : format_(literal) {}
  /// Text that is already rendered.
  DeferredText(std::string text) : text_(std::move(text)) {}
  DeferredText(const char* format, std::initializer_list<Arg> args);

  /// Renders now and keeps only the text, so no view is read later.
  DeferredText& Own();

  std::string Render() const;
  void AppendTo(std::string* out) const;

 private:
  static constexpr size_t kMaxArgs = 4;

  const char* format_ = nullptr;  // nullptr: text_ is the rendered text
  std::array<Arg, kMaxArgs> args_;
  uint8_t arg_count_ = 0;
  std::string text_;
};

/// One access path the router considered, in ranking order.
struct RouterCandidate {
  std::string_view access_path;  // AccessPathName(), a static string
  /// A fan-out row: the shard whose winning path `access_path` names; -1
  /// for a path of the query as a whole.
  int shard = -1;
  bool eligible = false;  // could this path have run the query?
  bool chosen = false;
  /// Statistics the estimate used / why the path was rejected.
  DeferredText detail_text;
  /// Cost-model estimates: rows the candidate's primary operator would
  /// emit and its estimated total cost. Negative when the candidate
  /// was ineligible (no estimate computed).
  double est_rows = -1;
  double est_cost_us = -1;

  /// The access path as Render() shows it: "shard 2 -> full-scan" for a
  /// fan-out row.
  std::string Label() const;
  std::string detail() const { return detail_text.Render(); }
};

/// The router's full candidate ranking. `reason` is the one-line
/// explanation of the winner; Render() adds the candidate table with each
/// candidate's estimated rows/cost. The text is rendered on demand.
struct RouterDecision {
  std::vector<RouterCandidate> candidates;
  std::string_view winner;  // AccessPathName() of the chosen path
  DeferredText reason_text;
  /// Estimated rows the whole conjunction emits (cost model); negative
  /// when no estimate was made. QueryTrace::Render() pairs it with the
  /// root span's actual rows_out after execution.
  double est_out_rows = -1;

  std::string reason() const { return reason_text.Render(); }
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
