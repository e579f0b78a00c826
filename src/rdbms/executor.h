#ifndef FSDM_RDBMS_EXECUTOR_H_
#define FSDM_RDBMS_EXECUTOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "rdbms/expression.h"
#include "rdbms/table.h"

namespace fsdm::telemetry {
struct OperatorSpan;
}

namespace fsdm::rdbms {

/// Volcano-style row-source iterator (the paper's row source API [9]:
/// start / fetch / close). Each operator owns its children.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Output schema; valid after construction.
  const Schema& schema() const { return schema_; }

  virtual Status Open() = 0;
  /// Produces the next row; returns false at end of stream.
  virtual Result<bool> Next(Row* out) = 0;
  virtual void Close() = 0;

 protected:
  Schema schema_;
};

using OperatorPtr = std::unique_ptr<Operator>;

// --- Leaf sources -----------------------------------------------------------

/// Full scan of a table, emitting non-hidden columns (physical + virtual).
/// Set `include_hidden` to expose hidden virtual columns (the implicit OSON
/// column of §5.2.2).
OperatorPtr Scan(const Table* table, bool include_hidden = false);

/// Emits pre-materialized rows (for tests and VALUES-style input).
OperatorPtr Values(Schema schema, std::vector<Row> rows);

/// Emits the rows `produce` returns, calling it on every Open(): a plan
/// prepared early and opened later (or re-opened) sees the rows as of that
/// Open. The one row source behind every TELEMETRY$ relation.
using RowProducer = std::function<std::vector<Row>()>;
OperatorPtr ValuesFrom(Schema schema, RowProducer produce);

// --- Transformers -----------------------------------------------------------

/// Keeps rows where `predicate` evaluates to TRUE (UNKNOWN rejects).
OperatorPtr Filter(OperatorPtr child, ExprPtr predicate);

/// Computes named expressions per row.
OperatorPtr Project(OperatorPtr child,
                    std::vector<std::pair<std::string, ExprPtr>> exprs);

/// Keeps the first `limit` rows.
OperatorPtr Limit(OperatorPtr child, size_t limit);

/// Bernoulli sampling: keeps each row with probability pct/100, using a
/// deterministic seed (SQL's SAMPLE(pct) clause, used by Q1 of Table 9).
OperatorPtr Sample(OperatorPtr child, double pct, uint64_t seed = 42);

struct SortKey {
  ExprPtr expr;
  bool ascending = true;
};
OperatorPtr Sort(OperatorPtr child, std::vector<SortKey> keys);

/// Hash join on equality of key expression lists. kLeftOuter emits left
/// rows with NULL right columns when unmatched (the DMDV master-detail
/// semantics of §3.3.2).
enum class JoinType { kInner, kLeftOuter };
OperatorPtr HashJoin(OperatorPtr left, OperatorPtr right,
                     std::vector<ExprPtr> left_keys,
                     std::vector<ExprPtr> right_keys, JoinType type);

/// Concatenation of children with identical schemas (UNION ALL). A union
/// of one child is that child.
OperatorPtr UnionAll(std::vector<OperatorPtr> children);

// --- Aggregation ------------------------------------------------------------

/// User-defined aggregate: per-group instances created by a factory,
/// fed argument values, finalized into one output Value. This is the
/// ORDBMS extensible-aggregation hook the paper's JSON_DataGuideAgg()
/// plugs into (§3.4, [11][13]).
class CustomAggregate {
 public:
  virtual ~CustomAggregate() = default;
  virtual Status Accumulate(const Value& arg) = 0;
  virtual Result<Value> Finalize() = 0;
};

using CustomAggregateFactory =
    std::function<std::unique_ptr<CustomAggregate>()>;

struct AggSpec {
  enum class Kind { kCountStar, kCount, kSum, kMin, kMax, kAvg, kCustom };
  Kind kind = Kind::kCountStar;
  ExprPtr arg;  // unused for kCountStar
  std::string output_name;
  CustomAggregateFactory custom;  // kCustom only
};

/// Hash group-by; with empty `group_by` produces a single global row.
OperatorPtr GroupBy(OperatorPtr child, std::vector<ExprPtr> group_by,
                    std::vector<std::string> group_names,
                    std::vector<AggSpec> aggregates);

// --- Window -----------------------------------------------------------------

/// LAG(arg, offset, default) OVER (ORDER BY keys) — the only window
/// function the paper's Q6 needs. Appends one output column; input order is
/// replaced by the window order.
OperatorPtr WindowLag(OperatorPtr child, ExprPtr arg, int64_t offset,
                      ExprPtr default_value, std::vector<SortKey> order_by,
                      std::string output_name);

// --- Telemetry --------------------------------------------------------------

/// Wraps `child` with an EXPLAIN ANALYZE probe: Open/Next/Close wall time
/// accumulates into span->elapsed_us and emitted rows into span->rows_out
/// (reset on each Open). The span must outlive the returned operator;
/// passing nullptr returns `child` unchanged.
OperatorPtr Instrument(OperatorPtr child, telemetry::OperatorSpan* span);

// --- Helpers ----------------------------------------------------------------

/// Drains an operator into a vector (Open/Next/Close).
Result<std::vector<Row>> Collect(Operator* op);

/// Runs and formats rows for display/tests: each row joined by '|'.
Result<std::vector<std::string>> CollectStrings(Operator* op);

}  // namespace fsdm::rdbms

#endif  // FSDM_RDBMS_EXECUTOR_H_
