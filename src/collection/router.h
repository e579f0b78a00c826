#ifndef FSDM_COLLECTION_ROUTER_H_
#define FSDM_COLLECTION_ROUTER_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "rdbms/executor.h"
#include "telemetry/trace.h"

namespace fsdm::collection {

class JsonCollection;

/// Physical access paths the router can choose among for a conjunctive
/// path-predicate query over a JSON collection. They mirror the paper's
/// evaluation strategies: inverted-index posting lookups through the JSON
/// search index (§3.2.1) — including the conjunctive posting-list
/// intersection —, vectorized scans over materialized JSON_VALUE columns
/// in the IMC (§5.2.1), and the baseline full document scan.
enum class AccessPath : uint8_t {
  kIndexedValueScan,      ///< search-index postings for `path = literal`
  kIndexedPathScan,       ///< search-index postings for path existence
  kPostingIntersectScan,  ///< intersection of several posting lists
  kImcFilterScan,         ///< vectorized IMC scan over materialized VCs
  kFullScan,              ///< table scan + JSON_EXISTS/JSON_VALUE filter
  kShardedUnion,          ///< per-shard routed plans, morsel-parallel union
};

const char* AccessPathName(AccessPath path);

/// One conjunct of a routed query: a JSON path plus either a scalar
/// comparison against a literal or (when `literal` is empty) a bare
/// JSON_EXISTS structural test.
struct PathPredicate {
  std::string path;  // "$.purchaseOrder.reference"
  rdbms::CompareOp op = rdbms::CompareOp::kEq;
  std::optional<Value> literal;

  static PathPredicate Exists(std::string path) {
    PathPredicate p;
    p.path = std::move(path);
    return p;
  }
  static PathPredicate Compare(std::string path, rdbms::CompareOp op,
                               Value literal) {
    PathPredicate p;
    p.path = std::move(path);
    p.op = op;
    p.literal = std::move(literal);
    return p;
  }

  bool is_existence() const { return !literal.has_value(); }
};

/// A routed plan: the chosen access path, an executable operator tree that
/// composes with the rest of the executor (residual predicates are already
/// applied on top of the primary access path), and a human-readable
/// explanation of why the router picked it.
struct RoutedPlan {
  AccessPath access_path = AccessPath::kFullScan;
  /// EXPLAIN ANALYZE trace: the router's full candidate ranking — with the
  /// cost model's estimated rows and cost per candidate — plus one
  /// OperatorSpan per plan node. The spans fill in (rows, elapsed time) as
  /// `plan` executes, so call trace.Render() after draining the plan. The
  /// trace owns the spans the operators point into — keep the RoutedPlan
  /// alive while the plan runs (moving it is fine; spans are stable).
  ///
  /// The decision's text is rendered on demand from views of the
  /// collection's DataGuide path names, so render the trace (Render(),
  /// reason(), detail()) only while its collection is alive.
  ///
  /// Declared BEFORE `plan` so it is destroyed AFTER it: the probe at the
  /// root of `plan` unregisters the query from the QueryMonitor in its
  /// destructor (covering plans dropped without Close() on error paths),
  /// and that must happen while the spans the monitor walks are still
  /// alive.
  telemetry::QueryTrace trace;
  rdbms::OperatorPtr plan;
};

/// Chooses an access path for the conjunction of `predicates` over `coll`
/// with a cost model (ISSUE 5, replacing the fixed priority ranking):
/// every candidate gets an estimated row count — selectivities from the
/// collection's PathStatsRepository (per-path document frequency, HLL NDV,
/// value histograms), falling back to DataGuide frequencies — multiplied
/// by the measured per-row operator costs in
/// stats::OperatorCostModel::Global(). The cheapest *eligible* candidate
/// wins (ties break toward the earlier candidate, so decisions are
/// deterministic under frozen statistics):
///
///   [0] imc-filter-scan: every predicate compares a path whose JSON_VALUE
///       virtual column is materialized in a *valid* IMC store; the whole
///       conjunction runs as one vectorized ColumnStore scan;
///   [1] indexed-value-scan: the most selective equality on a
///       DataGuide-known scalar path through the value postings;
///   [2] posting-intersect-scan: two or more index-answerable conjuncts
///       (equalities on known scalar paths, existence tests) evaluated by
///       intersecting their posting lists;
///   [3] indexed-path-scan: the most selective existence test through the
///       path postings;
///   [4] full-scan: always eligible; a table scan with
///       JSON_EXISTS/JSON_VALUE filters.
///
/// [1]-[3] differ only in the conjuncts they cover, their cost formula and
/// their span name: whichever wins is built by the one index::PostingScan
/// over its covered conjuncts' posting lists (one list scanned as is,
/// several intersected smallest-first).
///
/// Posting-backed candidates require a healthy index (degraded-mode
/// routing, ISSUE 3). Residual predicates not absorbed by the primary path
/// are evaluated by a Filter over the JSON document column. Index-backed
/// and full-scan plans emit base-table rows; the IMC plan emits the
/// store's columns.
///
/// Every routed plan is wrapped in a transparent probe that, on Close(),
/// feeds measured span times back into the operator cost model, compares
/// estimated to actual output rows (bumping fsdm_router_misestimates_total
/// past a 4x ratio), and captures slow queries.
///
/// Sharded collections (ISSUE 6) route as a fan-out: each shard costs the
/// five candidates above against its OWN statistics (skewed shards may
/// pick different access paths), the per-shard plans execute as morsels
/// on the shared worker pool behind an order-preserving ParallelUnionAll,
/// and the facade decision reports access path "sharded-union" with
/// estimated cost = max over shard costs + est_out_rows x the measured
/// "ParallelUnion" per-row merge cost (parallel drain: max, not sum). The
/// per-shard span trees are stitched under one ParallelUnion root span,
/// every span tagged with its shard and draining worker, and ONE probe on
/// the stitched tree feeds the cost model — shard sub-plans carry no
/// probes of their own, so nothing is double-counted.
Result<RoutedPlan> RoutePredicates(const JsonCollection& coll,
                                   const std::vector<PathPredicate>& predicates);

}  // namespace fsdm::collection

#endif  // FSDM_COLLECTION_ROUTER_H_
