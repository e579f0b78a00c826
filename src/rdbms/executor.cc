#include "rdbms/executor.h"

#include <algorithm>
#include <unordered_map>

#include "common/rng.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "telemetry/trace_event.h"

namespace fsdm::rdbms {

namespace {

class ScanOp final : public Operator {
 public:
  ScanOp(const Table* table, bool include_hidden)
      : table_(table), include_hidden_(include_hidden) {
    schema_ = table->OutputSchema(include_hidden);
  }

  Status Open() override {
    next_row_ = 0;
    return Status::Ok();
  }

  Result<bool> Next(Row* out) override {
    while (next_row_ < table_->row_count()) {
      size_t id = next_row_++;
      if (!table_->IsLive(id)) continue;
      FSDM_ASSIGN_OR_RETURN(*out, table_->MaterializeRow(id, include_hidden_));
      FSDM_COUNT("fsdm_rdbms_scan_rows_total", 1);
      return true;
    }
    return false;
  }

  void Close() override {}

 private:
  const Table* table_;
  bool include_hidden_;
  size_t next_row_ = 0;
};

class ValuesOp final : public Operator {
 public:
  ValuesOp(Schema schema, std::vector<Row> rows, RowProducer produce)
      : rows_(std::move(rows)), produce_(std::move(produce)) {
    schema_ = std::move(schema);
  }
  Status Open() override {
    if (produce_) rows_ = produce_();
    next_ = 0;
    return Status::Ok();
  }
  Result<bool> Next(Row* out) override {
    if (next_ >= rows_.size()) return false;
    *out = rows_[next_++];
    return true;
  }
  void Close() override {
    if (produce_) rows_.clear();
  }

 private:
  std::vector<Row> rows_;
  RowProducer produce_;  // empty for fixed rows
  size_t next_ = 0;
};

class FilterOp final : public Operator {
 public:
  FilterOp(OperatorPtr child, ExprPtr predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {
    schema_ = child_->schema();
  }

  Status Open() override {
    FSDM_RETURN_NOT_OK(predicate_->Bind(schema_));
    return child_->Open();
  }

  Result<bool> Next(Row* out) override {
    while (true) {
      FSDM_ASSIGN_OR_RETURN(bool more, child_->Next(out));
      if (!more) return false;
      FSDM_COUNT("fsdm_rdbms_filter_rows_in_total", 1);
      RowContext ctx{&schema_, out};
      FSDM_ASSIGN_OR_RETURN(Value v, predicate_->Eval(ctx));
      if (!v.is_null() && v.AsBool()) {
        FSDM_COUNT("fsdm_rdbms_filter_rows_out_total", 1);
        return true;
      }
    }
  }

  void Close() override { child_->Close(); }

 private:
  OperatorPtr child_;
  ExprPtr predicate_;
};

class ProjectOp final : public Operator {
 public:
  ProjectOp(OperatorPtr child,
            std::vector<std::pair<std::string, ExprPtr>> exprs)
      : child_(std::move(child)) {
    std::vector<std::string> names;
    for (auto& [name, expr] : exprs) {
      names.push_back(name);
      exprs_.push_back(std::move(expr));
    }
    schema_ = Schema(std::move(names));
  }

  Status Open() override {
    for (ExprPtr& e : exprs_) {
      FSDM_RETURN_NOT_OK(e->Bind(child_->schema()));
    }
    return child_->Open();
  }

  Result<bool> Next(Row* out) override {
    Row in;
    FSDM_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
    if (!more) return false;
    const Schema& in_schema = child_->schema();
    RowContext ctx{&in_schema, &in};
    out->clear();
    out->reserve(exprs_.size());
    for (const ExprPtr& e : exprs_) {
      FSDM_ASSIGN_OR_RETURN(Value v, e->Eval(ctx));
      out->push_back(std::move(v));
    }
    return true;
  }

  void Close() override { child_->Close(); }

 private:
  OperatorPtr child_;
  std::vector<ExprPtr> exprs_;
};

class LimitOp final : public Operator {
 public:
  LimitOp(OperatorPtr child, size_t limit)
      : child_(std::move(child)), limit_(limit) {
    schema_ = child_->schema();
  }
  Status Open() override {
    emitted_ = 0;
    return child_->Open();
  }
  Result<bool> Next(Row* out) override {
    if (emitted_ >= limit_) return false;
    FSDM_ASSIGN_OR_RETURN(bool more, child_->Next(out));
    if (!more) return false;
    ++emitted_;
    return true;
  }
  void Close() override { child_->Close(); }

 private:
  OperatorPtr child_;
  size_t limit_;
  size_t emitted_ = 0;
};

class SampleOp final : public Operator {
 public:
  SampleOp(OperatorPtr child, double pct, uint64_t seed)
      : child_(std::move(child)), pct_(pct), seed_(seed), rng_(seed) {
    schema_ = child_->schema();
  }
  Status Open() override {
    rng_ = Rng(seed_);
    return child_->Open();
  }
  Result<bool> Next(Row* out) override {
    while (true) {
      FSDM_ASSIGN_OR_RETURN(bool more, child_->Next(out));
      if (!more) return false;
      if (rng_.NextDouble() * 100.0 < pct_) return true;
    }
  }
  void Close() override { child_->Close(); }

 private:
  OperatorPtr child_;
  double pct_;
  uint64_t seed_;
  Rng rng_;
};

// Materializing sort.
class SortOp final : public Operator {
 public:
  SortOp(OperatorPtr child, std::vector<SortKey> keys)
      : child_(std::move(child)), keys_(std::move(keys)) {
    schema_ = child_->schema();
  }

  Status Open() override {
    FSDM_TIME_SCOPE_US("fsdm_rdbms_sort_us");
    for (SortKey& k : keys_) FSDM_RETURN_NOT_OK(k.expr->Bind(schema_));
    FSDM_RETURN_NOT_OK(child_->Open());
    rows_.clear();
    keyed_.clear();
    Row row;
    while (true) {
      FSDM_ASSIGN_OR_RETURN(bool more, child_->Next(&row));
      if (!more) break;
      RowContext ctx{&schema_, &row};
      std::vector<Value> key;
      key.reserve(keys_.size());
      for (const SortKey& k : keys_) {
        FSDM_ASSIGN_OR_RETURN(Value v, k.expr->Eval(ctx));
        key.push_back(std::move(v));
      }
      keyed_.push_back({std::move(key), rows_.size()});
      rows_.push_back(std::move(row));
    }
    child_->Close();
    FSDM_COUNT("fsdm_rdbms_sort_rows_total", rows_.size());
    std::stable_sort(keyed_.begin(), keyed_.end(),
                     [this](const Keyed& a, const Keyed& b) {
                       for (size_t i = 0; i < keys_.size(); ++i) {
                         Result<int> cmp = a.key[i].CompareTo(b.key[i]);
                         int c = cmp.ok() ? cmp.value() : 0;
                         if (c != 0) return keys_[i].ascending ? c < 0 : c > 0;
                       }
                       return false;
                     });
    next_ = 0;
    return Status::Ok();
  }

  Result<bool> Next(Row* out) override {
    if (next_ >= keyed_.size()) return false;
    *out = std::move(rows_[keyed_[next_].row_index]);
    ++next_;
    return true;
  }

  void Close() override {
    rows_.clear();
    keyed_.clear();
  }

 private:
  struct Keyed {
    std::vector<Value> key;
    size_t row_index;
  };
  OperatorPtr child_;
  std::vector<SortKey> keys_;
  std::vector<Row> rows_;
  std::vector<Keyed> keyed_;
  size_t next_ = 0;
};

// Grouping key with hashing/equality over Values.
struct KeyVec {
  std::vector<Value> values;

  bool operator==(const KeyVec& other) const {
    if (values.size() != other.values.size()) return false;
    for (size_t i = 0; i < values.size(); ++i) {
      if (!values[i].EqualsForGrouping(other.values[i])) return false;
    }
    return true;
  }
};

struct KeyVecHash {
  size_t operator()(const KeyVec& k) const {
    uint64_t h = 1469598103934665603ull;
    for (const Value& v : k.values) {
      h ^= v.HashForGrouping();
      h *= 1099511628211ull;
    }
    return static_cast<size_t>(h);
  }
};

class HashJoinOp final : public Operator {
 public:
  HashJoinOp(OperatorPtr left, OperatorPtr right, std::vector<ExprPtr> lkeys,
             std::vector<ExprPtr> rkeys, JoinType type)
      : left_(std::move(left)),
        right_(std::move(right)),
        lkeys_(std::move(lkeys)),
        rkeys_(std::move(rkeys)),
        type_(type) {
    std::vector<std::string> names = left_->schema().columns();
    for (const std::string& n : right_->schema().columns()) {
      names.push_back(n);
    }
    schema_ = Schema(std::move(names));
  }

  Status Open() override {
    FSDM_TIME_SCOPE_US("fsdm_rdbms_hash_join_build_us");
    for (ExprPtr& e : lkeys_) FSDM_RETURN_NOT_OK(e->Bind(left_->schema()));
    for (ExprPtr& e : rkeys_) FSDM_RETURN_NOT_OK(e->Bind(right_->schema()));

    // Build phase over the right input.
    FSDM_RETURN_NOT_OK(right_->Open());
    build_.clear();
    Row row;
    const Schema& rs = right_->schema();
    while (true) {
      FSDM_ASSIGN_OR_RETURN(bool more, right_->Next(&row));
      if (!more) break;
      RowContext ctx{&rs, &row};
      KeyVec key;
      bool has_null = false;
      for (const ExprPtr& e : rkeys_) {
        FSDM_ASSIGN_OR_RETURN(Value v, e->Eval(ctx));
        if (v.is_null()) has_null = true;
        key.values.push_back(std::move(v));
      }
      if (has_null) continue;  // NULL keys never join
      FSDM_COUNT("fsdm_rdbms_hash_join_build_rows_total", 1);
      build_[key].push_back(row);
    }
    right_->Close();

    FSDM_RETURN_NOT_OK(left_->Open());
    matches_ = nullptr;
    match_idx_ = 0;
    return Status::Ok();
  }

  Result<bool> Next(Row* out) override {
    while (true) {
      if (matches_ != nullptr && match_idx_ < matches_->size()) {
        *out = current_left_;
        const Row& r = (*matches_)[match_idx_++];
        out->insert(out->end(), r.begin(), r.end());
        FSDM_COUNT("fsdm_rdbms_hash_join_rows_out_total", 1);
        return true;
      }
      matches_ = nullptr;

      FSDM_ASSIGN_OR_RETURN(bool more, left_->Next(&current_left_));
      if (!more) return false;
      const Schema& ls = left_->schema();
      RowContext ctx{&ls, &current_left_};
      KeyVec key;
      bool has_null = false;
      for (const ExprPtr& e : lkeys_) {
        FSDM_ASSIGN_OR_RETURN(Value v, e->Eval(ctx));
        if (v.is_null()) has_null = true;
        key.values.push_back(std::move(v));
      }
      auto it = has_null ? build_.end() : build_.find(key);
      if (it != build_.end()) {
        matches_ = &it->second;
        match_idx_ = 0;
        continue;
      }
      if (type_ == JoinType::kLeftOuter) {
        *out = current_left_;
        out->resize(schema_.size(), Value::Null());
        return true;
      }
      // Inner join: skip unmatched left rows.
    }
  }

  void Close() override {
    left_->Close();
    build_.clear();
  }

 private:
  OperatorPtr left_, right_;
  std::vector<ExprPtr> lkeys_, rkeys_;
  JoinType type_;
  std::unordered_map<KeyVec, std::vector<Row>, KeyVecHash> build_;
  Row current_left_;
  const std::vector<Row>* matches_ = nullptr;
  size_t match_idx_ = 0;
};

class UnionAllOp final : public Operator {
 public:
  explicit UnionAllOp(std::vector<OperatorPtr> children)
      : children_(std::move(children)) {
    schema_ = children_.empty() ? Schema() : children_[0]->schema();
  }
  Status Open() override {
    current_ = 0;
    for (OperatorPtr& c : children_) FSDM_RETURN_NOT_OK(c->Open());
    return Status::Ok();
  }
  Result<bool> Next(Row* out) override {
    while (current_ < children_.size()) {
      FSDM_ASSIGN_OR_RETURN(bool more, children_[current_]->Next(out));
      if (more) return true;
      ++current_;
    }
    return false;
  }
  void Close() override {
    for (OperatorPtr& c : children_) c->Close();
  }

 private:
  std::vector<OperatorPtr> children_;
  size_t current_ = 0;
};

struct AggState {
  int64_t count = 0;
  Value acc;          // SUM/MIN/MAX accumulator
  bool acc_set = false;
  std::unique_ptr<CustomAggregate> custom;
};

class GroupByOp final : public Operator {
 public:
  GroupByOp(OperatorPtr child, std::vector<ExprPtr> group_by,
            std::vector<std::string> group_names,
            std::vector<AggSpec> aggregates)
      : child_(std::move(child)),
        group_by_(std::move(group_by)),
        aggregates_(std::move(aggregates)) {
    std::vector<std::string> names = std::move(group_names);
    for (const AggSpec& a : aggregates_) names.push_back(a.output_name);
    schema_ = Schema(std::move(names));
  }

  Status Open() override {
    FSDM_TIME_SCOPE_US("fsdm_rdbms_group_by_us");
    const Schema& in = child_->schema();
    for (ExprPtr& e : group_by_) FSDM_RETURN_NOT_OK(e->Bind(in));
    for (AggSpec& a : aggregates_) {
      if (a.arg) FSDM_RETURN_NOT_OK(a.arg->Bind(in));
    }
    FSDM_RETURN_NOT_OK(child_->Open());

    groups_.clear();
    order_.clear();
    Row row;
    while (true) {
      FSDM_ASSIGN_OR_RETURN(bool more, child_->Next(&row));
      if (!more) break;
      FSDM_COUNT("fsdm_rdbms_group_by_rows_in_total", 1);
      RowContext ctx{&in, &row};
      KeyVec key;
      for (const ExprPtr& e : group_by_) {
        FSDM_ASSIGN_OR_RETURN(Value v, e->Eval(ctx));
        key.values.push_back(std::move(v));
      }
      auto [it, inserted] =
          groups_.try_emplace(key, std::vector<AggState>(aggregates_.size()));
      if (inserted) order_.push_back(&*it);
      std::vector<AggState>& states = it->second;
      for (size_t i = 0; i < aggregates_.size(); ++i) {
        FSDM_RETURN_NOT_OK(Accumulate(aggregates_[i], ctx, &states[i]));
      }
    }
    child_->Close();
    // Global aggregate over empty input still yields one row.
    if (group_by_.empty() && groups_.empty()) {
      KeyVec key;
      auto [it, inserted] =
          groups_.try_emplace(key, std::vector<AggState>(aggregates_.size()));
      if (inserted) order_.push_back(&*it);
    }
    FSDM_COUNT("fsdm_rdbms_group_by_groups_total", groups_.size());
    next_ = 0;
    return Status::Ok();
  }

  Result<bool> Next(Row* out) override {
    if (next_ >= order_.size()) return false;
    const auto& [key, states] = *order_[next_++];
    out->clear();
    for (const Value& v : key.values) out->push_back(v);
    for (size_t i = 0; i < aggregates_.size(); ++i) {
      FSDM_ASSIGN_OR_RETURN(Value v, Finalize(aggregates_[i], states[i]));
      out->push_back(std::move(v));
    }
    return true;
  }

  void Close() override {
    groups_.clear();
    order_.clear();
  }

 private:
  Status Accumulate(const AggSpec& spec, const RowContext& ctx,
                    AggState* state) {
    if (spec.kind == AggSpec::Kind::kCountStar) {
      ++state->count;
      return Status::Ok();
    }
    FSDM_ASSIGN_OR_RETURN(Value v, spec.arg->Eval(ctx));
    if (spec.kind == AggSpec::Kind::kCustom) {
      if (!state->custom) state->custom = spec.custom();
      return state->custom->Accumulate(v);
    }
    if (v.is_null()) return Status::Ok();  // SQL aggregates ignore NULLs
    ++state->count;
    switch (spec.kind) {
      case AggSpec::Kind::kCount:
        return Status::Ok();
      case AggSpec::Kind::kSum:
      case AggSpec::Kind::kAvg: {
        if (!v.IsNumeric()) {
          return Status::InvalidArgument("SUM/AVG over non-numeric value");
        }
        if (!state->acc_set) {
          state->acc = Value::Dec(v.NumericAsDecimal());
          state->acc_set = true;
        } else {
          state->acc =
              Value::Dec(state->acc.AsDecimal().Add(v.NumericAsDecimal()));
        }
        return Status::Ok();
      }
      case AggSpec::Kind::kMin:
      case AggSpec::Kind::kMax: {
        if (!state->acc_set) {
          state->acc = std::move(v);
          state->acc_set = true;
          return Status::Ok();
        }
        FSDM_ASSIGN_OR_RETURN(int cmp, v.CompareTo(state->acc));
        bool take = spec.kind == AggSpec::Kind::kMin ? cmp < 0 : cmp > 0;
        if (take) state->acc = std::move(v);
        return Status::Ok();
      }
      default:
        return Status::Internal("bad aggregate kind");
    }
  }

  Result<Value> Finalize(const AggSpec& spec, const AggState& state) const {
    switch (spec.kind) {
      case AggSpec::Kind::kCountStar:
      case AggSpec::Kind::kCount:
        return Value::Int64(state.count);
      case AggSpec::Kind::kSum:
        if (!state.acc_set) return Value::Null();
        // Surface integral sums as int64.
        if (state.acc.AsDecimal().IsInteger()) {
          Result<int64_t> i = state.acc.AsDecimal().ToInt64();
          if (i.ok()) return Value::Int64(i.value());
        }
        return state.acc;
      case AggSpec::Kind::kAvg: {
        if (!state.acc_set || state.count == 0) return Value::Null();
        FSDM_ASSIGN_OR_RETURN(
            Decimal avg,
            state.acc.AsDecimal().DivideApprox(
                Decimal::FromInt64(state.count)));
        return Value::Dec(std::move(avg));
      }
      case AggSpec::Kind::kMin:
      case AggSpec::Kind::kMax:
        return state.acc_set ? state.acc : Value::Null();
      case AggSpec::Kind::kCustom: {
        // An empty group still finalizes a fresh instance.
        if (!state.custom) {
          std::unique_ptr<CustomAggregate> fresh = spec.custom();
          return fresh->Finalize();
        }
        return state.custom->Finalize();
      }
    }
    return Status::Internal("bad aggregate kind");
  }

  OperatorPtr child_;
  std::vector<ExprPtr> group_by_;
  std::vector<AggSpec> aggregates_;
  using GroupMap =
      std::unordered_map<KeyVec, std::vector<AggState>, KeyVecHash>;
  GroupMap groups_;
  std::vector<GroupMap::value_type*> order_;  // insertion order
  size_t next_ = 0;
};

class WindowLagOp final : public Operator {
 public:
  WindowLagOp(OperatorPtr child, ExprPtr arg, int64_t offset,
              ExprPtr default_value, std::vector<SortKey> order_by,
              std::string output_name)
      : sorted_(Sort(std::move(child), std::move(order_by))),
        arg_(std::move(arg)),
        offset_(offset),
        default_(std::move(default_value)) {
    std::vector<std::string> names = sorted_->schema().columns();
    names.push_back(std::move(output_name));
    schema_ = Schema(std::move(names));
  }

  Status Open() override {
    FSDM_RETURN_NOT_OK(arg_->Bind(sorted_->schema()));
    if (default_) FSDM_RETURN_NOT_OK(default_->Bind(sorted_->schema()));
    FSDM_RETURN_NOT_OK(sorted_->Open());
    // Materialize input and compute lagged values.
    rows_.clear();
    lagged_.clear();
    const Schema& in = sorted_->schema();
    Row row;
    std::vector<Value> args;
    while (true) {
      FSDM_ASSIGN_OR_RETURN(bool more, sorted_->Next(&row));
      if (!more) break;
      RowContext ctx{&in, &row};
      FSDM_ASSIGN_OR_RETURN(Value v, arg_->Eval(ctx));
      args.push_back(std::move(v));
      rows_.push_back(std::move(row));
    }
    sorted_->Close();
    lagged_.resize(rows_.size());
    for (size_t i = 0; i < rows_.size(); ++i) {
      int64_t src = static_cast<int64_t>(i) - offset_;
      if (src >= 0 && src < static_cast<int64_t>(rows_.size())) {
        lagged_[i] = args[src];
      } else if (default_) {
        const Schema& in2 = sorted_->schema();
        RowContext ctx{&in2, &rows_[i]};
        FSDM_ASSIGN_OR_RETURN(lagged_[i], default_->Eval(ctx));
      } else {
        lagged_[i] = Value::Null();
      }
    }
    next_ = 0;
    return Status::Ok();
  }

  Result<bool> Next(Row* out) override {
    if (next_ >= rows_.size()) return false;
    *out = std::move(rows_[next_]);
    out->push_back(std::move(lagged_[next_]));
    ++next_;
    return true;
  }

  void Close() override {
    rows_.clear();
    lagged_.clear();
  }

 private:
  OperatorPtr sorted_;
  ExprPtr arg_;
  int64_t offset_;
  ExprPtr default_;
  std::vector<Row> rows_;
  std::vector<Value> lagged_;
  size_t next_ = 0;
};

/// EXPLAIN ANALYZE probe: accumulates wall time and emitted rows into an
/// externally owned OperatorSpan. Timing is inclusive — a parent span's
/// elapsed_us contains its children's, like EXPLAIN ANALYZE "actual time".
class InstrumentOp final : public Operator {
 public:
  InstrumentOp(OperatorPtr child, telemetry::OperatorSpan* span)
      : child_(std::move(child)), span_(span) {
    schema_ = child_->schema();
  }

  Status Open() override {
    // Flight-recorder spans bracket Open and Close only; batching the
    // per-Next tick into the close span keeps the recorder off the
    // row-at-a-time hot path. The operator name is copied into the event
    // (the span tree dies with its RoutedPlan; ring events outlive it).
    FSDM_TRACE_SPAN(trace_span, "rdbms", "op.open");
    trace_span.AddTextArg("op", span_->name);
    span_->rows_out.store(0, std::memory_order_relaxed);
    span_->elapsed_us = 0;
    // Live-progress mirror for the query monitor: mark the operator open
    // before the child opens so a concurrent TELEMETRY$QUERY_MONITOR scan
    // never sees rows ticking on a "pending" operator.
    span_->live_elapsed_us.store(0, std::memory_order_relaxed);
    span_->live_open_ts_us.store(telemetry::MonotonicNowUs(),
                                 std::memory_order_relaxed);
    span_->live_state.store(telemetry::OperatorSpan::kOpen,
                            std::memory_order_relaxed);
    telemetry::Stopwatch w;
    Status st = child_->Open();
    span_->elapsed_us += w.ElapsedUs();
    return st;
  }

  Result<bool> Next(Row* out) override {
    telemetry::Stopwatch w;
    Result<bool> more = child_->Next(out);
    span_->elapsed_us += w.ElapsedUs();
    if (more.ok() && more.value()) {
      span_->rows_out.fetch_add(1, std::memory_order_relaxed);
    }
    return more;
  }

  void Close() override {
    FSDM_TRACE_SPAN(trace_span, "rdbms", "op.close");
    trace_span.AddTextArg("op", span_->name);
    trace_span.AddNumberArg(
        "rows", static_cast<double>(
                    span_->rows_out.load(std::memory_order_relaxed)));
    telemetry::Stopwatch w;
    child_->Close();
    span_->elapsed_us += w.ElapsedUs();
    span_->live_elapsed_us.store(static_cast<uint64_t>(span_->elapsed_us),
                                 std::memory_order_relaxed);
    span_->live_state.store(telemetry::OperatorSpan::kDone,
                            std::memory_order_relaxed);
  }

 private:
  OperatorPtr child_;
  telemetry::OperatorSpan* span_;
};

}  // namespace

OperatorPtr Instrument(OperatorPtr child, telemetry::OperatorSpan* span) {
  if (span == nullptr) return child;
  return std::make_unique<InstrumentOp>(std::move(child), span);
}

OperatorPtr Scan(const Table* table, bool include_hidden) {
  return std::make_unique<ScanOp>(table, include_hidden);
}
OperatorPtr Values(Schema schema, std::vector<Row> rows) {
  return std::make_unique<ValuesOp>(std::move(schema), std::move(rows),
                                    nullptr);
}
OperatorPtr ValuesFrom(Schema schema, RowProducer produce) {
  return std::make_unique<ValuesOp>(std::move(schema), std::vector<Row>{},
                                    std::move(produce));
}
OperatorPtr Filter(OperatorPtr child, ExprPtr predicate) {
  return std::make_unique<FilterOp>(std::move(child), std::move(predicate));
}
OperatorPtr Project(OperatorPtr child,
                    std::vector<std::pair<std::string, ExprPtr>> exprs) {
  return std::make_unique<ProjectOp>(std::move(child), std::move(exprs));
}
OperatorPtr Limit(OperatorPtr child, size_t limit) {
  return std::make_unique<LimitOp>(std::move(child), limit);
}
OperatorPtr Sample(OperatorPtr child, double pct, uint64_t seed) {
  return std::make_unique<SampleOp>(std::move(child), pct, seed);
}
OperatorPtr Sort(OperatorPtr child, std::vector<SortKey> keys) {
  return std::make_unique<SortOp>(std::move(child), std::move(keys));
}
OperatorPtr HashJoin(OperatorPtr left, OperatorPtr right,
                     std::vector<ExprPtr> left_keys,
                     std::vector<ExprPtr> right_keys, JoinType type) {
  return std::make_unique<HashJoinOp>(std::move(left), std::move(right),
                                      std::move(left_keys),
                                      std::move(right_keys), type);
}
OperatorPtr UnionAll(std::vector<OperatorPtr> children) {
  if (children.size() == 1) return std::move(children[0]);
  return std::make_unique<UnionAllOp>(std::move(children));
}
OperatorPtr GroupBy(OperatorPtr child, std::vector<ExprPtr> group_by,
                    std::vector<std::string> group_names,
                    std::vector<AggSpec> aggregates) {
  return std::make_unique<GroupByOp>(std::move(child), std::move(group_by),
                                     std::move(group_names),
                                     std::move(aggregates));
}
OperatorPtr WindowLag(OperatorPtr child, ExprPtr arg, int64_t offset,
                      ExprPtr default_value, std::vector<SortKey> order_by,
                      std::string output_name) {
  return std::make_unique<WindowLagOp>(
      std::move(child), std::move(arg), offset, std::move(default_value),
      std::move(order_by), std::move(output_name));
}

Result<std::vector<Row>> Collect(Operator* op) {
  FSDM_RETURN_NOT_OK(op->Open());
  std::vector<Row> rows;
  Row row;
  while (true) {
    FSDM_ASSIGN_OR_RETURN(bool more, op->Next(&row));
    if (!more) break;
    rows.push_back(std::move(row));
  }
  op->Close();
  return rows;
}

Result<std::vector<std::string>> CollectStrings(Operator* op) {
  FSDM_ASSIGN_OR_RETURN(std::vector<Row> rows, Collect(op));
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    std::string line;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) line += "|";
      line += row[i].ToDisplayString();
    }
    out.push_back(std::move(line));
  }
  return out;
}

}  // namespace fsdm::rdbms
