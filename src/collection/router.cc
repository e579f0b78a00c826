#include "collection/router.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <span>
#include <utility>

#include "collection/collection.h"
#include "fault/fault.h"
#include "rdbms/parallel.h"
#include "stats/operator_costs.h"
#include "stats/path_stats.h"
#include "telemetry/activity.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/log.h"
#include "telemetry/memory_tracker.h"
#include "telemetry/query_monitor.h"
#include "telemetry/slow_query.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_event.h"

namespace fsdm::collection {

const char* AccessPathName(AccessPath path) {
  switch (path) {
    case AccessPath::kIndexedValueScan:
      return "indexed-value-scan";
    case AccessPath::kIndexedPathScan:
      return "indexed-path-scan";
    case AccessPath::kPostingIntersectScan:
      return "posting-intersect-scan";
    case AccessPath::kImcFilterScan:
      return "imc-filter-scan";
    case AccessPath::kFullScan:
      return "full-scan";
    case AccessPath::kShardedUnion:
      return "sharded-union";
  }
  return "?";
}

namespace {

/// Scalar DataGuide entry for `path`, preferring the singleton (not-under-
/// array) variant; nullptr when the guide has never seen a scalar there.
const dataguide::PathEntry* FindScalarEntry(const dataguide::DataGuide& guide,
                                            dataguide::PathId id) {
  const dataguide::PathEntry* e =
      guide.Find(id, json::NodeKind::kScalar, /*under_array=*/false);
  if (e == nullptr) {
    e = guide.Find(id, json::NodeKind::kScalar, /*under_array=*/true);
  }
  return e;
}

/// Documents containing the path in any node kind (0 when unknown).
uint64_t PathFrequency(const dataguide::DataGuide& guide,
                       dataguide::PathId path) {
  uint64_t freq = 0;
  for (json::NodeKind kind : {json::NodeKind::kScalar, json::NodeKind::kObject,
                              json::NodeKind::kArray}) {
    for (bool under_array : {false, true}) {
      const dataguide::PathEntry* e = guide.Find(path, kind, under_array);
      if (e != nullptr) freq = std::max(freq, e->frequency);
    }
  }
  return freq;
}

sqljson::Returning ReturningForLiteral(const Value& literal) {
  if (literal.IsNumeric()) return sqljson::Returning::kNumber;
  if (literal.type() == ScalarType::kString) return sqljson::Returning::kString;
  return sqljson::Returning::kAny;
}

Result<rdbms::ExprPtr> PredicateExpr(const Shard& shard,
                                     const PathPredicate& pred) {
  if (pred.is_existence()) {
    return sqljson::JsonExists(shard.json_column(), pred.path,
                               sqljson::JsonStorage::kText);
  }
  FSDM_ASSIGN_OR_RETURN(
      rdbms::ExprPtr value,
      sqljson::JsonValue(shard.json_column(), pred.path,
                         sqljson::JsonStorage::kText,
                         ReturningForLiteral(*pred.literal)));
  return rdbms::Cmp(pred.op, std::move(value), rdbms::Lit(*pred.literal));
}

const char* CompareOpSymbol(rdbms::CompareOp op) {
  switch (op) {
    case rdbms::CompareOp::kEq:
      return "=";
    case rdbms::CompareOp::kNe:
      return "<>";
    case rdbms::CompareOp::kLt:
      return "<";
    case rdbms::CompareOp::kLe:
      return "<=";
    case rdbms::CompareOp::kGt:
      return ">";
    case rdbms::CompareOp::kGe:
      return ">=";
  }
  return "?";
}

std::string PredicateText(const PathPredicate& p) {
  if (p.is_existence()) return "exists(" + p.path + ")";
  return p.path + " " + CompareOpSymbol(p.op) + " " +
         p.literal->ToDisplayString();
}

/// Selectivity estimation over the collection's PathStatsRepository with
/// the DataGuide as fallback. All estimates are deterministic for frozen
/// statistics — no wall clock, no randomness.
class SelEstimator {
 public:
  SelEstimator(const stats::PathStatsRepository& repo,
               const dataguide::DataGuide& guide)
      : repo_(repo), guide_(guide) {}

  /// Fraction of documents containing the path, in [0, 1]. Paths are ids
  /// of the guide's dictionary, which also names the repository's paths.
  double ExistsSel(dataguide::PathId path) const {
    if (repo_.docs_seen() > 0 && repo_.Find(path) != nullptr) {
      return *repo_.ExistenceSelectivity(path);
    }
    // Container-only paths never reach the scalar sink; the DataGuide's
    // structural frequency covers them (and everything pre-stats).
    const uint64_t total = guide_.document_count();
    if (total == 0) return 0.0;
    return std::min(1.0, static_cast<double>(PathFrequency(guide_, path)) /
                             static_cast<double>(total));
  }

  /// NDV of the path's non-null values, clamped to >= 1. Falls back to a
  /// default of 10 distinct values when no sketch exists. The sketch
  /// caches its estimate, so asking twice sums its registers once.
  double Ndv(dataguide::PathId path) const {
    return repo_.Find(path) != nullptr
               ? std::max(1.0, repo_.NdvEstimate(path))
               : 10.0;
  }

  /// Selectivity of one conjunct; `path` is the guide's id for `p.path`.
  double PredSel(const PathPredicate& p, dataguide::PathId path) const {
    const double exists = ExistsSel(path);
    if (p.is_existence()) return exists;
    if (p.op == rdbms::CompareOp::kEq) return exists / Ndv(path);
    if (p.op == rdbms::CompareOp::kNe) {
      return exists * (1.0 - 1.0 / Ndv(path));
    }
    // Range comparison: histogram fraction when a numeric histogram
    // exists, else the textbook 1/3 default.
    const stats::PathStats* s = repo_.Find(path);
    if (s != nullptr && p.literal->IsNumeric() && s->histogram.total() > 0) {
      const double x = p.literal->NumericAsDouble();
      double frac;
      switch (p.op) {
        case rdbms::CompareOp::kLt:
          frac = s->histogram.FractionBelow(x, /*inclusive=*/false);
          break;
        case rdbms::CompareOp::kLe:
          frac = s->histogram.FractionBelow(x, /*inclusive=*/true);
          break;
        case rdbms::CompareOp::kGt:
          frac = 1.0 - s->histogram.FractionBelow(x, /*inclusive=*/true);
          break;
        default:  // kGe
          frac = 1.0 - s->histogram.FractionBelow(x, /*inclusive=*/false);
          break;
      }
      return exists * frac;
    }
    return exists / 3.0;
  }

 private:
  const stats::PathStatsRepository& repo_;
  const dataguide::DataGuide& guide_;
};

/// One conjunct as a route sees it: its path looked up in the shard's
/// guide once, and its selectivity estimated once.
struct Conjunct {
  const PathPredicate* pred;
  dataguide::PathId path;              // kNoPath when the guide never saw it
  const dataguide::PathEntry* scalar;  // FindScalarEntry(), may be null
  double sel;
  /// The path as decision text names it: the dictionary's interned copy,
  /// which lives as long as the collection, when the guide knows the
  /// path; else the predicate's own text, which lives only as long as the
  /// route, so text naming it must Own() it.
  std::string_view name;

  bool name_interned() const { return path != dataguide::kNoPath; }
};

/// Applies every conjunct except those in `skip` as a Filter over `plan`.
/// Each residual Filter gets its own instrumented span stacked on top of
/// *root, which on return points at the new tree root.
Result<rdbms::OperatorPtr> ApplyResiduals(
    const Shard& shard, rdbms::OperatorPtr plan,
    const std::vector<Conjunct>& conjuncts,
    const std::vector<const Conjunct*>& skip,
    std::unique_ptr<telemetry::OperatorSpan>* root) {
  for (const Conjunct& c : conjuncts) {
    if (std::find(skip.begin(), skip.end(), &c) != skip.end()) continue;
    FSDM_ASSIGN_OR_RETURN(rdbms::ExprPtr expr, PredicateExpr(shard, *c.pred));
    std::unique_ptr<telemetry::OperatorSpan> span =
        telemetry::MakeSpan("Filter", PredicateText(*c.pred));
    plan = rdbms::Instrument(rdbms::Filter(std::move(plan), std::move(expr)),
                             span.get());
    span->children.push_back(std::move(*root));
    *root = std::move(span);
  }
  return plan;
}

/// Transparent wrapper the router stacks on every routed plan. On Close()
/// it (a) feeds the measured span times back into the operator cost model
/// and compares estimated vs. actual output rows — the cardinality
/// feedback loop (fsdm_router_misestimates_total counts ratios past 4x) —
/// and (b) captures the query into the SlowQueryLog when it crossed the
/// threshold. The owning RoutedPlan may move (and its trace member with
/// it) while the plan runs, so the probe holds only stable pointers: the
/// root span's heap node and the decision's candidate array, whose heap
/// buffer a move of the vector keeps and which the router never resizes
/// once the probe is built. The winner's name is a static string and its
/// reason is copied as deferred text; none of it is formatted unless the
/// query is slow.
class RoutedQueryProbe final : public rdbms::Operator {
 public:
  RoutedQueryProbe(rdbms::OperatorPtr child, std::string collection,
                   std::string query, const telemetry::RouterDecision& decision,
                   const telemetry::OperatorSpan* root, uint64_t query_id)
      : child_(std::move(child)),
        collection_(std::move(collection)),
        query_(std::move(query)),
        winner_(decision.winner),
        reason_(decision.reason_text),
        candidates_(decision.candidates),
        est_out_rows_(decision.est_out_rows),
        root_(root),
        query_id_(query_id) {
    schema_ = child_->schema();
  }

  ~RoutedQueryProbe() override {
    // Plans dropped without Close() (error paths) must still leave the
    // monitor: a dangling entry would let TELEMETRY$QUERY_MONITOR walk a
    // destroyed span tree.
    if (registered_) telemetry::QueryMonitor::Global().Unregister(query_id_);
  }

  Status Open() override {
    rows_ = 0;
    closed_ = false;
    open_ts_us_ = telemetry::MonotonicNowUs();
    watch_.Restart();
    // Publish this drain on the consumer thread's activity record so the
    // ASH sampler can attribute its time. The lease member also releases
    // on destruction, covering plans dropped on an error path before
    // Close() (ISSUE 7 satellite: no dangling active records).
    lease_ = telemetry::ActivityLease::Begin(
        collection_, std::string(winner_), "RoutedQueryProbe", query_,
        /*shard=*/-1, /*worker=*/-1, query_id_);
    // Register in the in-flight monitor (ISSUE 9 tentpole): from here
    // until Close() a concurrent session sees this drain — and its live
    // per-operator progress — in TELEMETRY$QUERY_MONITOR.
    telemetry::QueryMonitor::Global().Register(query_id_, collection_, query_,
                                               std::string(winner_),
                                               est_out_rows_, root_);
    registered_ = true;
    // The grand total the writers keep current: resident state (table
    // heap, postings, IMC) plus live transient charges.
    peak_mem_bytes_ = telemetry::MemoryTracker::Global().CurrentBytes();
    Status status = child_->Open();
    if (!status.ok()) {
      lease_.Release();
      telemetry::QueryMonitor::Global().Unregister(query_id_);
      registered_ = false;
    }
    return status;
  }

  Result<bool> Next(rdbms::Row* out) override {
    // Drain-path injection point (ISSUE 9): latency-only specs
    // (FaultSpec::StallUs) hold the query in flight so tests can watch it
    // through TELEMETRY$QUERY_MONITOR mid-drain.
    FSDM_FAULT_POINT("router.drain.next");
    FSDM_ASSIGN_OR_RETURN(bool has, child_->Next(out));
    if (has) {
      ++rows_;
      if ((rows_ & 0xff) == 0) SampleMemoryPeak();
    }
    return has;
  }

  void Close() override {
    child_->Close();
    lease_.Release();
    if (registered_) {
      telemetry::QueryMonitor::Global().Unregister(query_id_);
      registered_ = false;
    }
    if (closed_) return;
    closed_ = true;
    SampleMemoryPeak();
    const uint64_t elapsed = static_cast<uint64_t>(watch_.ElapsedUs());
    HarvestFeedback();
    MaybeCaptureSlowQuery(elapsed);
  }

 private:
  void SampleMemoryPeak() {
    const uint64_t cur = telemetry::MemoryTracker::Global().CurrentBytes();
    if (cur > peak_mem_bytes_) peak_mem_bytes_ = cur;
  }

  void HarvestFeedback() {
    FSDM_COUNT("fsdm_router_routed_queries_total", 1);
    if (root_ != nullptr) {
      stats::OperatorCostModel::Global().RecordSpanTree(*root_);
    }
    if (est_out_rows_ >= 0) {
      const double est = est_out_rows_;
      const double actual = static_cast<double>(rows_);
      const double ratio = std::max((actual + 1.0) / (est + 1.0),
                                    (est + 1.0) / (actual + 1.0));
      if (ratio > 4.0) FSDM_COUNT("fsdm_router_misestimates_total", 1);
    }
  }

  void MaybeCaptureSlowQuery(uint64_t elapsed) {
    telemetry::SlowQueryLog& log = telemetry::SlowQueryLog::Global();
    if (elapsed < log.threshold_us()) return;
    telemetry::SlowQueryRecord rec;
    rec.ts_us = telemetry::MonotonicNowUs();
    rec.query_id = query_id_;
    rec.peak_mem_bytes = peak_mem_bytes_;
    rec.query = query_;
    rec.access_path = winner_;
    rec.elapsed_us = elapsed;
    rec.rows = rows_;
    rec.est_rows = est_out_rows_;
    telemetry::RouterDecision decision;
    decision.candidates.assign(candidates_.begin(), candidates_.end());
    decision.winner = winner_;
    decision.reason_text = reason_;
    rec.trace_text = decision.Render();
    if (root_ != nullptr) {
      rec.trace_text += "plan:\n";
      telemetry::RenderSpanTree(*root_, 1, &rec.trace_text);
    }
    const telemetry::FlightRecorder& fr = telemetry::FlightRecorder::Global();
    if (fr.armed()) {
      std::vector<telemetry::TraceEvent> slice =
          fr.SnapshotSince(open_ts_us_);
      rec.event_count = slice.size();
      std::string events = "[";
      for (const telemetry::TraceEvent& e : slice) {
        if (events.size() > 1) events += ",";
        telemetry::AppendChromeTraceEvent(&events, e);
      }
      events += "]";
      rec.events_json = std::move(events);
    }
    log.Record(std::move(rec));
  }

  rdbms::OperatorPtr child_;
  std::string collection_;
  std::string query_;
  std::string_view winner_;
  telemetry::DeferredText reason_;
  std::span<const telemetry::RouterCandidate> candidates_;
  double est_out_rows_;
  const telemetry::OperatorSpan* root_;
  uint64_t query_id_ = 0;
  telemetry::Stopwatch watch_;
  telemetry::ActivityLease lease_;
  uint64_t open_ts_us_ = 0;
  uint64_t rows_ = 0;
  uint64_t peak_mem_bytes_ = 0;
  bool closed_ = false;
  bool registered_ = false;
};

std::string BuildQueryText(const std::vector<PathPredicate>& predicates) {
  std::string query_text;
  for (const PathPredicate& p : predicates) {
    if (!query_text.empty()) query_text += " AND ";
    query_text += PredicateText(p);
  }
  return query_text;
}

/// A cost-model measurement taken while a plan is built (a route-time
/// FilterScan or posting merge).
struct RouteTimeSample {
  const char* op;
  uint64_t rows;
  double us;
};

/// RouteSingle's five candidates in ranking order: [0] is answered by the
/// IMC store, [1]-[3] by PostingScan over the search index, [4] by the
/// table scan.
constexpr AccessPath kCandidatePaths[] = {
    AccessPath::kImcFilterScan, AccessPath::kIndexedValueScan,
    AccessPath::kPostingIntersectScan, AccessPath::kIndexedPathScan,
    AccessPath::kFullScan};
constexpr size_t kFullScanCandidate = std::size(kCandidatePaths) - 1;

/// What a posting candidate's plan needs beyond its estimate. The three
/// share one build; they differ in the conjuncts their posting lists
/// answer, which the residual filters then skip.
struct PostingCandidate {
  const char* span;  // span name, also the operator cost-model key
  std::vector<const Conjunct*> covered;
  telemetry::DeferredText reason;  // the decision's reason if it wins
};

/// Routes one shard. With `fanout_samples` null the shard is the whole
/// collection: the plan gets its probe and route-time measurements feed
/// the cost model at once. Non-null is the sharded fan-out asking for a
/// bare sub-plan: the facade stacks ONE probe over the stitched tree, so
/// shard plans must not feed the slow-query log on their own, and their
/// route-time measurements are appended to `fanout_samples` for the
/// facade to record once every shard has been costed — so all shards of
/// one fan-out are priced at the same rates.
///
/// The decision's text is deferred: candidates record the numbers and
/// interned path names their explanation needs, and nothing is formatted
/// here but the query text, which the query monitor and the activity
/// sampler show live, and the winner's span detail.
Result<RoutedPlan> RouteSingle(
    const Shard& shard, const std::vector<PathPredicate>& predicates,
    std::string query_text, std::vector<RouteTimeSample>* fanout_samples) {
  FSDM_TRACE_SPAN(route_span, "router", "router.route");
  route_span.AddNumberArg("predicates",
                          static_cast<double>(predicates.size()));

  const dataguide::DataGuide& guide = shard.dataguide();
  const uint64_t guide_docs = guide.document_count();
  const double live_docs = static_cast<double>(shard.document_count());
  const stats::OperatorCostModel& costs = stats::OperatorCostModel::Global();
  const SelEstimator est(shard.path_stats(), guide);
  const size_t n_preds = predicates.size();

  std::vector<Conjunct> conjuncts;
  conjuncts.reserve(n_preds);
  for (const PathPredicate& p : predicates) {
    const dataguide::PathId id = guide.paths().Find(p.path);
    conjuncts.push_back(
        {&p, id, FindScalarEntry(guide, id), est.PredSel(p, id),
         id == dataguide::kNoPath ? std::string_view(p.path)
                                  : guide.paths().Name(id)});
  }

  RoutedPlan routed;
  telemetry::RouterDecision& decision = routed.trace.decision;
  decision.candidates.resize(std::size(kCandidatePaths));
  for (size_t i = 0; i < decision.candidates.size(); ++i) {
    decision.candidates[i].access_path = AccessPathName(kCandidatePaths[i]);
  }
  telemetry::RouterCandidate& imc_cand = decision.candidates[0];
  telemetry::RouterCandidate& value_cand = decision.candidates[1];
  telemetry::RouterCandidate& isect_cand = decision.candidates[2];
  telemetry::RouterCandidate& path_cand = decision.candidates[3];
  telemetry::RouterCandidate& full_cand = decision.candidates[4];
  PostingCandidate posting[] = {{"IndexedValueScan", {}, {}},
                                {"PostingIntersectScan", {}, {}},
                                {"IndexedPathScan", {}, {}}};

  // The conjunction's estimated output cardinality — what the feedback
  // loop later compares against the actual row count. Independence
  // assumption: the product of the per-conjunct selectivities.
  double conjunction_sel = 1.0;
  for (const Conjunct& c : conjuncts) conjunction_sel *= c.sel;
  decision.est_out_rows = live_docs * conjunction_sel;

  // --- Evaluate every candidate: eligibility, estimated rows, estimated
  // cost (selectivity x measured per-row operator cost). ------------------

  // [0] Vectorized IMC scan: every conjunct compares a path whose
  // JSON_VALUE virtual column sits in a *valid* (not DML-invalidated)
  // managed store. Population state is a routing input, so a stale store
  // silently falls through to the document-based paths.
  const imc::ColumnStore* store = shard.imc();
  std::vector<imc::ColumnStore::Predicate> column_preds;
  if (store == nullptr) {
    imc_cand.detail_text = "no valid IMC store";
  } else if (predicates.empty()) {
    imc_cand.detail_text = "no predicates to push into the store";
  } else {
    bool all_materialized = true;
    for (const Conjunct& c : conjuncts) {
      const PathPredicate& p = *c.pred;
      const std::string* vc =
          p.is_existence() ? nullptr : shard.VirtualColumnFor(p.path);
      if (vc == nullptr || store->column(*vc) == nullptr) {
        all_materialized = false;
        imc_cand.detail_text = {"path {} not materialized as a virtual column",
                                {c.name}};
        if (!c.name_interned()) imc_cand.detail_text.Own();
        break;
      }
      column_preds.push_back({*vc, p.op, *p.literal});
    }
    if (all_materialized) {
      imc_cand.eligible = true;
      imc_cand.est_rows = decision.est_out_rows;
      imc_cand.est_cost_us =
          static_cast<double>(store->row_count()) *
          costs.UsPerRow("ImcFilterScan");
      imc_cand.detail_text =
          "all predicate paths materialized in a valid IMC store";
    }
  }

  const index::JsonSearchIndex* index = shard.search_index();
  const bool postings_maintained = index != nullptr;
  // Health is a routing input (ISSUE 3): a degraded index's postings may
  // be missing rows, so every posting-backed candidate drops out and the
  // conjunction falls through to the always-correct full scan until
  // RebuildIndex().
  const CollectionHealth health = shard.health();
  const bool postings =
      postings_maintained && health == CollectionHealth::kHealthy;
  std::string degraded;  // "<health>: <reason>" while postings are off
  if (!postings_maintained) {
    value_cand.detail_text = isect_cand.detail_text = path_cand.detail_text =
        "no search index postings maintained";
  } else if (!postings) {
    const std::string health_reason = shard.health_reason();
    degraded = std::string(CollectionHealthName(health)) + ": " + health_reason;
    value_cand.detail_text = isect_cand.detail_text = path_cand.detail_text =
        degraded;
    FSDM_COUNT("fsdm_router_degraded_fallbacks_total", 1);
    FSDM_LOG(telemetry::LogLevel::kWarn, "router", 1201,
             "degraded routing fallback on " + shard.name() + " (" +
                 CollectionHealthName(health) + "): " + health_reason,
             telemetry::LogText("collection", shard.name()));
  }

  // [1] Value postings: the most selective equality on a path the guide
  // knows as a scalar.
  if (postings) {
    const Conjunct* best_eq = nullptr;
    double best_eq_rows = std::numeric_limits<double>::max();
    for (const Conjunct& c : conjuncts) {
      if (c.pred->is_existence() || c.pred->op != rdbms::CompareOp::kEq ||
          c.scalar == nullptr) {
        continue;
      }
      const double rows = live_docs * c.sel;
      if (rows < best_eq_rows) {
        best_eq = &c;
        best_eq_rows = rows;
      }
    }
    if (best_eq != nullptr) {
      value_cand.eligible = true;
      value_cand.est_rows = best_eq_rows;
      value_cand.est_cost_us =
          best_eq_rows * costs.UsPerRow("IndexedValueScan") +
          best_eq_rows * static_cast<double>(n_preds - 1) *
              costs.UsPerRow("Filter");
      value_cand.detail_text = {
          "equality on {} (DataGuide frequency {}/{}, ndv ~{})",
          {best_eq->name, best_eq->scalar->frequency, guide_docs,
           est.Ndv(best_eq->path)}};
      posting[0].covered = {best_eq};
      posting[0].reason = {
          "equality on scalar path {} (est {} rows, cost {.2} us); "
          "value postings",
          {best_eq->name, value_cand.est_rows, value_cand.est_cost_us}};
    } else {
      value_cand.detail_text = "no equality on a DataGuide-known scalar path";
    }
  }

  // [2] Posting-list intersection (ROADMAP "Router cost model" item): two
  // or more index-answerable conjuncts — equalities on guide-known scalar
  // paths and existence tests — evaluated by intersecting their posting
  // lists, leaving only the rest as residual filters.
  if (postings) {
    auto answerable = [](const Conjunct& c) {
      return c.pred->is_existence() ||
             (c.pred->op == rdbms::CompareOp::kEq && c.scalar != nullptr);
    };
    const size_t n_answerable = static_cast<size_t>(
        std::count_if(conjuncts.begin(), conjuncts.end(), answerable));
    if (n_answerable >= 2) {
      std::vector<const Conjunct*>& isect_covered = posting[1].covered;
      double total_postings = 0;
      double covered_sel = 1.0;
      for (const Conjunct& c : conjuncts) {
        if (!answerable(c)) continue;
        isect_covered.push_back(&c);
        total_postings += live_docs * c.sel;
        covered_sel *= c.sel;
      }
      const double covered_rows = live_docs * covered_sel;
      const size_t n_residual = n_preds - n_answerable;
      isect_cand.eligible = true;
      isect_cand.est_rows = covered_rows;
      isect_cand.est_cost_us =
          total_postings * costs.UsPerRow("PostingIntersect") +
          covered_rows * costs.UsPerRow("PostingIntersectScan") +
          covered_rows * static_cast<double>(n_residual) *
              costs.UsPerRow("Filter");
      isect_cand.detail_text = {
          "{} index-answerable conjuncts, ~{} postings to merge",
          {n_answerable, total_postings}};
      posting[1].reason = {
          "conjunction of {} indexable predicates (est {} rows, cost {.2} "
          "us); posting-list intersection",
          {n_answerable, covered_rows, isect_cand.est_cost_us}};
    } else {
      isect_cand.detail_text = "fewer than two index-answerable conjuncts";
    }
  }

  // [3] Path postings: the most selective existence test. The old
  // frequency threshold (present in at most half the documents) is gone —
  // the cost comparison against the full scan decides.
  if (postings) {
    const Conjunct* best_exists = nullptr;
    double best_exists_rows = std::numeric_limits<double>::max();
    for (const Conjunct& c : conjuncts) {
      if (!c.pred->is_existence()) continue;
      const double rows = live_docs * c.sel;
      if (rows < best_exists_rows) {
        best_exists = &c;
        best_exists_rows = rows;
      }
    }
    if (best_exists != nullptr) {
      path_cand.eligible = true;
      path_cand.est_rows = best_exists_rows;
      path_cand.est_cost_us =
          best_exists_rows * costs.UsPerRow("IndexedPathScan") +
          best_exists_rows * static_cast<double>(n_preds - 1) *
              costs.UsPerRow("Filter");
      path_cand.detail_text = {
          "existence of {} (DataGuide frequency {}/{})",
          {best_exists->name, PathFrequency(guide, best_exists->path),
           guide_docs}};
      posting[2].covered = {best_exists};
      posting[2].reason = {
          "existence of path {} (est {} rows, cost {.2} us); path postings",
          {best_exists->name, path_cand.est_rows, path_cand.est_cost_us}};
      if (!best_exists->name_interned()) {
        path_cand.detail_text.Own();
        posting[2].reason.Own();
      }
    } else {
      path_cand.detail_text = "no existence predicate to probe";
    }
  }

  // [4] Baseline full scan: always eligible; every predicate becomes a
  // residual filter over the scanned rows.
  full_cand.eligible = true;
  full_cand.est_rows = live_docs;
  full_cand.est_cost_us =
      live_docs * (costs.UsPerRow("Scan") +
                   static_cast<double>(n_preds) * costs.UsPerRow("Filter"));
  full_cand.detail_text = "always applicable";

  // --- Pick the cheapest eligible candidate, ties breaking toward the
  // earlier one so decisions are deterministic: walking back from the
  // always-eligible full scan, an equal cost displaces the later winner. --
  size_t winner = kFullScanCandidate;
  for (size_t i = winner; i-- > 0;) {
    const telemetry::RouterCandidate& c = decision.candidates[i];
    if (c.eligible &&
        c.est_cost_us <= decision.candidates[winner].est_cost_us) {
      winner = i;
    }
  }

  auto record = [fanout_samples](const char* op, uint64_t rows, double us) {
    if (fanout_samples != nullptr) {
      fanout_samples->push_back({op, rows, us});
    } else {
      stats::OperatorCostModel::Global().Record(op, rows, us);
    }
  };

  // --- Build the winner's access path — IMC replay, posting scan or table
  // scan — and the conjuncts it answers; the rest become residual filters.
  std::unique_ptr<telemetry::OperatorSpan> root;
  rdbms::OperatorPtr plan;
  std::vector<const Conjunct*> covered;
  telemetry::DeferredText reason;
  if (winner == 0) {
    telemetry::Stopwatch route_scan;
    FSDM_ASSIGN_OR_RETURN(
        std::vector<rdbms::Row> rows,
        store->FilterScan(column_preds, store->column_names()));
    // Feed the scan measurement with the scanned-row basis; the plan
    // below only *replays* the materialized result, so RecordSpanTree
    // skips its span.
    record("ImcFilterScan", store->row_count(), route_scan.ElapsedUs());
    imc_cand.detail_text = {
        "all predicate paths materialized in a valid IMC store; FilterScan "
        "at route time: {} rows",
        {rows.size()}};
    root = telemetry::MakeSpan("ImcFilterScan", imc_cand.detail());
    plan = rdbms::Instrument(
        rdbms::Values(rdbms::Schema(store->column_names()), std::move(rows)),
        root.get());
    for (const Conjunct& c : conjuncts) covered.push_back(&c);
    reason = {"all predicate paths materialized as virtual columns in a "
              "valid IMC store (est cost {.2} us); vectorized FilterScan",
              {imc_cand.est_cost_us}};
  } else if (winner < kFullScanCandidate) {
    PostingCandidate& chosen = posting[winner - 1];
    covered = std::move(chosen.covered);
    std::vector<index::IndexTerm> terms;
    terms.reserve(covered.size());
    for (const Conjunct* c : covered) {
      terms.push_back({c->pred->path, c->pred->literal});
    }
    // The span names the conjuncts the postings answer: when that is
    // every conjunct, in order, the query text already says it.
    std::string terms_text;
    if (covered.size() == n_preds) {
      terms_text = query_text;
    } else {
      for (const Conjunct* c : covered) {
        if (!terms_text.empty()) terms_text += " AND ";
        terms_text += PredicateText(*c->pred);
      }
    }
    telemetry::Stopwatch build;
    index::IntersectionInfo info;
    rdbms::OperatorPtr scan =
        index::PostingScan(shard.table(), index, terms, &info);
    if (terms.size() >= 2) {
      // The sorted-list merge happened at plan-build time; feed it with
      // the summed posting-length basis the estimate uses.
      record("PostingIntersect", info.total_postings, build.ElapsedUs());
      terms_text += " [" + std::to_string(info.total_postings) +
                    " postings -> " + std::to_string(info.matched) + " rows]";
    }
    root = telemetry::MakeSpan(chosen.span, std::move(terms_text));
    plan = rdbms::Instrument(std::move(scan), root.get());
    reason = std::move(chosen.reason);
  } else {
    root = telemetry::MakeSpan("Scan", shard.name());
    plan = rdbms::Instrument(shard.Scan(), root.get());
    bool other_eligible = false;
    for (size_t i = 0; i < kFullScanCandidate; ++i) {
      if (decision.candidates[i].eligible) other_eligible = true;
    }
    if (predicates.empty()) {
      reason = "no predicates; full scan";
    } else if (postings_maintained && !postings) {
      reason = "posting paths unavailable (" + degraded + "); full scan";
    } else if (other_eligible) {
      reason = {"full scan estimated cheapest (est cost {.2} us)",
                {full_cand.est_cost_us}};
    } else {
      reason = "no selective index or materialized column applies; "
               "full scan";
    }
  }
  FSDM_ASSIGN_OR_RETURN(
      routed.plan,
      ApplyResiduals(shard, std::move(plan), conjuncts, covered, &root));
  routed.trace.root = std::move(root);

  decision.candidates[winner].chosen = true;
  routed.access_path = kCandidatePaths[winner];
  decision.winner = AccessPathName(routed.access_path);
  decision.reason_text = std::move(reason);
  route_span.AddTextArg("winner", decision.winner);
  FSDM_TRACE_INSTANT_TEXT("router", "router.winner", "path", decision.winner);
  // Shard sub-plans of a fan-out stay bare — see above.
  if (fanout_samples == nullptr) {
    routed.plan = std::make_unique<RoutedQueryProbe>(
        std::move(routed.plan), shard.name(), std::move(query_text), decision,
        routed.trace.root.get(),
        telemetry::QueryMonitor::Global().AllocateQueryId());
  }
  return routed;
}

void StampShard(telemetry::OperatorSpan* span, int shard) {
  span->shard = shard;
  for (auto& c : span->children) StampShard(c.get(), shard);
}

void StampWorker(telemetry::OperatorSpan* span, int worker) {
  span->worker = worker;
  for (auto& c : span->children) StampWorker(c.get(), worker);
}

/// Sharded fan-out (ISSUE 6): one RouteSingle sub-plan per shard — each
/// costed against that shard's own statistics — drained morsel-parallel
/// through the order-preserving ParallelUnionAll. The facade decision
/// lists every shard's winner as a candidate row plus a chosen
/// "sharded-union" row whose cost is max-over-shards + merge: shards
/// drain concurrently, so the parallel cost is the slowest shard, not the
/// sum. The per-shard span trees move under one "ParallelUnion" root
/// span; shard ids are stamped here, worker ids by each drain worker the
/// moment its morsel finishes (while it still exclusively owns the
/// subtree).
Result<RoutedPlan> RouteSharded(const JsonCollection& coll,
                                const std::vector<PathPredicate>& predicates) {
  FSDM_TRACE_SPAN(route_span, "router", "router.route_sharded");
  const size_t n = coll.shard_count();
  route_span.AddNumberArg("shards", static_cast<double>(n));
  std::string query_text = BuildQueryText(predicates);
  // One monitor id for the whole fan-out: shard morsels tag their ASH
  // samples with it, and the facade probe registers it at Open.
  const uint64_t query_id = telemetry::QueryMonitor::Global().AllocateQueryId();

  RoutedPlan routed;
  telemetry::RouterDecision& decision = routed.trace.decision;
  decision.est_out_rows = 0;

  std::unique_ptr<telemetry::OperatorSpan> root =
      telemetry::MakeSpan("ParallelUnion");
  std::vector<rdbms::OperatorPtr> children;
  children.reserve(n);
  // Shared with the on_morsel_done callback; raw pointers stay valid
  // because the spans live in routed.trace (stable heap nodes) and every
  // morsel finishes before the plan can be destroyed.
  auto shard_roots =
      std::make_shared<std::vector<telemetry::OperatorSpan*>>();

  double max_shard_cost = 0;
  std::vector<RouteTimeSample> samples;
  for (size_t i = 0; i < n; ++i) {
    FSDM_ASSIGN_OR_RETURN(RoutedPlan sub,
                          RouteSingle(*coll.shard(i), predicates, query_text,
                                      &samples));
    double sub_cost = -1;
    for (const telemetry::RouterCandidate& c : sub.trace.decision.candidates) {
      if (c.chosen) sub_cost = c.est_cost_us;
    }
    max_shard_cost = std::max(max_shard_cost, std::max(0.0, sub_cost));
    if (sub.trace.decision.est_out_rows > 0) {
      decision.est_out_rows += sub.trace.decision.est_out_rows;
    }

    telemetry::RouterCandidate cand;
    cand.access_path = sub.trace.decision.winner;
    cand.shard = static_cast<int>(i);
    cand.eligible = true;
    cand.est_rows = sub.trace.decision.est_out_rows;
    cand.est_cost_us = sub_cost;
    cand.detail_text = sub.trace.decision.reason_text;
    decision.candidates.push_back(std::move(cand));

    StampShard(sub.trace.root.get(), static_cast<int>(i));
    shard_roots->push_back(sub.trace.root.get());
    root->children.push_back(std::move(sub.trace.root));
    // The ActivityScope publishes the drain worker's activity record for
    // this morsel: collection, the shard's own winning access path, shard
    // id, and (stamped at Open time) the pool worker index.
    children.push_back(rdbms::ActivityScope(
        std::move(sub.plan), coll.name(),
        std::string(sub.trace.decision.winner),
        "morsel.drain", query_text, static_cast<int>(i), query_id));
  }

  const double merge_cost =
      std::max(0.0, decision.est_out_rows) *
      stats::OperatorCostModel::Global().UsPerRow("ParallelUnion");
  telemetry::RouterCandidate union_cand;
  union_cand.access_path = AccessPathName(AccessPath::kShardedUnion);
  union_cand.eligible = true;
  union_cand.chosen = true;
  union_cand.est_rows = decision.est_out_rows;
  union_cand.est_cost_us = max_shard_cost + merge_cost;
  union_cand.detail_text = "parallel cost = max over shards + merge";
  decision.candidates.push_back(std::move(union_cand));
  // Every shard is costed: only now may route-time measurements move the
  // model.
  for (const RouteTimeSample& s : samples) {
    stats::OperatorCostModel::Global().Record(s.op, s.rows, s.us);
  }

  decision.winner = AccessPathName(AccessPath::kShardedUnion);
  decision.reason_text = {
      "fan-out over {} shards (est cost = max over shard costs {.2} us + "
      "merge {.2} us)",
      {n, max_shard_cost, merge_cost}};
  routed.access_path = AccessPath::kShardedUnion;

  size_t workers = rdbms::WorkerPool::Global().worker_count();
  if (workers == 0) workers = rdbms::WorkerPool::DefaultWorkerCount();
  root->detail =
      std::to_string(n) + " shards on " + std::to_string(workers) + " workers";

  rdbms::OperatorPtr union_op = rdbms::ParallelUnionAll(
      std::move(children), [shard_roots](size_t child, int worker) {
        StampWorker((*shard_roots)[child], worker);
      });
  routed.plan = rdbms::Instrument(std::move(union_op), root.get());
  routed.trace.root = std::move(root);

  route_span.AddTextArg("winner", decision.winner);
  FSDM_TRACE_INSTANT_TEXT("router", "router.winner", "path", decision.winner);
  routed.plan = std::make_unique<RoutedQueryProbe>(
      std::move(routed.plan), coll.name(), query_text, decision,
      routed.trace.root.get(), query_id);
  return routed;
}

}  // namespace

Result<RoutedPlan> RoutePredicates(
    const JsonCollection& coll, const std::vector<PathPredicate>& predicates) {
  if (coll.shard_count() == 1) {
    return RouteSingle(*coll.shard(0), predicates, BuildQueryText(predicates),
                       nullptr);
  }
  return RouteSharded(coll, predicates);
}

}  // namespace fsdm::collection
