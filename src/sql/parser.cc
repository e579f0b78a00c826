#include "sql/parser.h"

#include <cctype>
#include <optional>

#include "collection/collections_table.h"
#include "collection/path_stats_table.h"
#include "collection/wal_table.h"
#include "stats/stats_table.h"
#include "telemetry/ash_table.h"
#include "telemetry/log_table.h"
#include "telemetry/metrics_table.h"

namespace fsdm::sql {

namespace {

using rdbms::AggSpec;
using rdbms::ExprPtr;

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

enum class TokKind { kEnd, kIdent, kNumber, kString, kSymbol };

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;   // raw (identifiers keep case; symbols verbatim)
  size_t offset = 0;  // position in the input
};

class Lexer {
 public:
  explicit Lexer(const std::string& input) : input_(input) { Advance(); }

  const Token& Peek() const { return current_; }
  size_t offset() const { return current_.offset; }

  Token Take() {
    Token t = current_;
    Advance();
    return t;
  }

  /// Case-insensitive keyword check without consuming.
  bool PeekKeyword(const char* kw) const {
    if (current_.kind != TokKind::kIdent) return false;
    return EqualsIgnoreCase(current_.text, kw);
  }

  bool TakeKeyword(const char* kw) {
    if (!PeekKeyword(kw)) return false;
    Advance();
    return true;
  }

  bool PeekSymbol(const char* sym) const {
    return current_.kind == TokKind::kSymbol && current_.text == sym;
  }

  bool TakeSymbol(const char* sym) {
    if (!PeekSymbol(sym)) return false;
    Advance();
    return true;
  }

  static bool EqualsIgnoreCase(const std::string& a, const char* b) {
    size_t i = 0;
    for (; i < a.size() && b[i] != '\0'; ++i) {
      if (std::toupper(static_cast<unsigned char>(a[i])) !=
          std::toupper(static_cast<unsigned char>(b[i]))) {
        return false;
      }
    }
    return i == a.size() && b[i] == '\0';
  }

  Status error() const { return error_; }

 private:
  void Advance() {
    if (!error_.ok()) return;
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
    current_.offset = pos_;
    if (pos_ >= input_.size()) {
      current_ = {TokKind::kEnd, "", pos_};
      return;
    }
    char c = input_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
        c == '"' || c == '$') {
      if (c == '"') {  // quoted identifier
        size_t end = input_.find('"', pos_ + 1);
        if (end == std::string::npos) {
          error_ = Status::ParseError("unterminated quoted identifier");
          return;
        }
        current_ = {TokKind::kIdent, input_.substr(pos_ + 1, end - pos_ - 1),
                    pos_};
        pos_ = end + 1;
        return;
      }
      size_t start = pos_;
      while (pos_ < input_.size() &&
             (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
              input_[pos_] == '_' || input_[pos_] == '$')) {
        ++pos_;
      }
      current_ = {TokKind::kIdent, input_.substr(start, pos_ - start), start};
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && pos_ + 1 < input_.size() &&
         std::isdigit(static_cast<unsigned char>(input_[pos_ + 1])))) {
      size_t start = pos_;
      while (pos_ < input_.size() &&
             (std::isdigit(static_cast<unsigned char>(input_[pos_])) ||
              input_[pos_] == '.' || input_[pos_] == 'e' ||
              input_[pos_] == 'E' ||
              ((input_[pos_] == '+' || input_[pos_] == '-') && pos_ > start &&
               (input_[pos_ - 1] == 'e' || input_[pos_ - 1] == 'E')))) {
        ++pos_;
      }
      current_ = {TokKind::kNumber, input_.substr(start, pos_ - start),
                  start};
      return;
    }
    if (c == '\'') {
      std::string s;
      size_t start = pos_;
      ++pos_;
      while (pos_ < input_.size()) {
        if (input_[pos_] == '\'') {
          if (pos_ + 1 < input_.size() && input_[pos_ + 1] == '\'') {
            s.push_back('\'');  // escaped quote
            pos_ += 2;
            continue;
          }
          ++pos_;
          current_ = {TokKind::kString, std::move(s), start};
          return;
        }
        s.push_back(input_[pos_++]);
      }
      error_ = Status::ParseError("unterminated string literal");
      return;
    }
    // Multi-char symbols first.
    for (const char* sym : {"<=", ">=", "<>", "!=", "||"}) {
      if (input_.compare(pos_, 2, sym) == 0) {
        current_ = {TokKind::kSymbol, sym, pos_};
        pos_ += 2;
        return;
      }
    }
    current_ = {TokKind::kSymbol, std::string(1, c), pos_};
    ++pos_;
  }

  const std::string& input_;
  size_t pos_ = 0;
  Token current_;
  Status error_;
};

// ---------------------------------------------------------------------------
// TELEMETRY$ virtual relations
// ---------------------------------------------------------------------------

using VirtualRelationFactory = rdbms::OperatorPtr (*)();

/// Every virtual relation FROM can name, resolved case-insensitively when
/// no base table has the name. A new relation is a factory returning its
/// rdbms::ValuesFrom() row source plus one row here.
struct VirtualRelation {
  const char* name;
  VirtualRelationFactory factory;
};

constexpr VirtualRelation kVirtualRelations[] = {
    {telemetry::kMetricsTableName, telemetry::MetricsScan},
    {telemetry::kEventsTableName, telemetry::EventsScan},
    {telemetry::kSlowQueriesTableName, telemetry::SlowQueriesScan},
    {telemetry::kQueryMonitorTableName, telemetry::QueryMonitorScan},
    {telemetry::kMemoryTableName, telemetry::MemoryScan},
    {telemetry::kAshTableName, telemetry::AshScan},
    {telemetry::kSnapshotsTableName, telemetry::SnapshotsScan},
    {telemetry::kLogTableName, telemetry::LogScan},
    {telemetry::kIncidentsTableName, telemetry::IncidentsScan},
    {collection::kCollectionsTableName, collection::CollectionsScan},
    {collection::kPathStatsTableName, collection::PathStatsScan},
    {collection::kWalTableName, collection::WalScan},
    {stats::kOperatorCostsTableName, stats::OperatorCostsScan},
};

VirtualRelationFactory FindVirtualRelation(const std::string& name) {
  for (const VirtualRelation& rel : kVirtualRelations) {
    if (Lexer::EqualsIgnoreCase(name, rel.name)) return rel.factory;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Parser / planner
// ---------------------------------------------------------------------------

struct SelectItem {
  std::string name;     // output column name
  std::string snippet;  // the item's SQL text (for GROUP BY matching)
  ExprPtr expr;         // references AGG_i / group-key cols in grouped mode
  bool is_star = false;
};

class Planner {
 public:
  Planner(SqlSession* session, const std::string& sql)
      : session_(session), sql_(sql), lex_(sql) {}

  Result<rdbms::OperatorPtr> Plan() {
    if (!lex_.TakeKeyword("SELECT")) {
      return Error("expected SELECT");
    }
    FSDM_RETURN_NOT_OK(ParseSelectList());
    if (!lex_.TakeKeyword("FROM")) return Error("expected FROM");
    if (lex_.Peek().kind != TokKind::kIdent) {
      return Error("expected table name");
    }
    table_name_ = lex_.Take().text;
    Result<rdbms::Table*> table_or = session_->db()->GetTable(table_name_);
    if (table_or.ok()) {
      table_ = table_or.MoveValue();
    } else {
      // TELEMETRY$ virtual relations: planned below as their row source
      // over the process-wide registries instead of a base-table Scan.
      virtual_scan_ = FindVirtualRelation(table_name_);
      if (virtual_scan_ == nullptr) return table_or.status();
    }

    ExprPtr where;
    if (lex_.TakeKeyword("WHERE")) {
      size_t aggs_before = pending_aggs_.size();
      FSDM_ASSIGN_OR_RETURN(where, ParseExpr());
      if (pending_aggs_.size() != aggs_before) {
        return Error("aggregates are not allowed in WHERE");
      }
    }

    std::vector<ExprPtr> group_exprs;
    std::vector<std::string> group_names;
    if (lex_.TakeKeyword("GROUP")) {
      if (!lex_.TakeKeyword("BY")) return Error("expected BY after GROUP");
      while (true) {
        size_t start = lex_.offset();
        size_t aggs_before = pending_aggs_.size();
        FSDM_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        if (pending_aggs_.size() != aggs_before) {
          return Error("aggregates are not allowed in GROUP BY");
        }
        group_exprs.push_back(std::move(e));
        group_names.push_back(Snippet(start, lex_.offset()));
        if (!lex_.TakeSymbol(",")) break;
      }
    }

    struct OrderItem {
      ExprPtr expr;
      bool ascending = true;
      std::optional<int64_t> ordinal;
    };
    std::vector<OrderItem> order_items;
    if (lex_.TakeKeyword("ORDER")) {
      if (!lex_.TakeKeyword("BY")) return Error("expected BY after ORDER");
      while (true) {
        OrderItem item;
        // "ORDER BY 1" addresses the first select column (Table 13's Q2).
        if (lex_.Peek().kind == TokKind::kNumber &&
            lex_.Peek().text.find('.') == std::string::npos) {
          item.ordinal = atoll(lex_.Take().text.c_str());
        } else {
          size_t aggs_before = pending_aggs_.size();
          FSDM_ASSIGN_OR_RETURN(item.expr, ParseExpr());
          if (pending_aggs_.size() != aggs_before) {
            return Error("aggregates not supported in ORDER BY; use an alias");
          }
        }
        if (lex_.TakeKeyword("DESC")) {
          item.ascending = false;
        } else {
          (void)lex_.TakeKeyword("ASC");
        }
        order_items.push_back(std::move(item));
        if (!lex_.TakeSymbol(",")) break;
      }
    }

    std::optional<size_t> limit;
    if (lex_.TakeKeyword("LIMIT")) {
      if (lex_.Peek().kind != TokKind::kNumber) {
        return Error("expected LIMIT count");
      }
      limit = static_cast<size_t>(atoll(lex_.Take().text.c_str()));
    }
    if (lex_.Peek().kind != TokKind::kEnd &&
        !(lex_.Peek().kind == TokKind::kSymbol && lex_.Peek().text == ";")) {
      return Error("unexpected trailing input '" + lex_.Peek().text + "'");
    }
    FSDM_RETURN_NOT_OK(lex_.error());

    // --- Assemble the plan --------------------------------------------------
    bool include_hidden = session_->TableHasOsonRewrites(table_name_);
    rdbms::OperatorPtr plan = virtual_scan_ != nullptr
                                  ? virtual_scan_()
                                  : rdbms::Scan(table_, include_hidden);
    if (where) plan = rdbms::Filter(std::move(plan), std::move(where));

    bool grouped = !pending_aggs_.empty() || !group_exprs.empty();
    if (grouped) {
      std::vector<AggSpec> aggs = std::move(pending_aggs_);
      plan = rdbms::GroupBy(std::move(plan), std::move(group_exprs),
                            group_names, std::move(aggs));
      // Select items whose SQL text equals a GROUP BY expression become
      // references to that group output column; other non-aggregate items
      // must be bare group-key identifiers.
      for (SelectItem& item : select_items_) {
        if (item.is_star || !item.expr) continue;
        for (const std::string& gname : group_names) {
          if (item.snippet == gname) {
            item.expr = rdbms::Col(gname);
            break;
          }
        }
      }
    } else if (!order_items.empty()) {
      // Ungrouped expression ORDER BY items sort over the pre-projection
      // schema (SQL allows ordering by non-selected base columns);
      // ordinals still address the select list below.
      std::vector<rdbms::SortKey> pre_keys;
      for (OrderItem& item : order_items) {
        if (!item.ordinal.has_value()) {
          pre_keys.push_back({std::move(item.expr), item.ascending});
        }
      }
      if (!pre_keys.empty()) {
        plan = rdbms::Sort(std::move(plan), std::move(pre_keys));
        std::vector<OrderItem> remaining;
        for (OrderItem& item : order_items) {
          if (item.ordinal.has_value()) remaining.push_back(std::move(item));
        }
        order_items = std::move(remaining);
      }
    }

    // SELECT * expands to the (possibly grouped) child schema.
    std::vector<std::pair<std::string, ExprPtr>> projections;
    for (SelectItem& item : select_items_) {
      if (item.is_star) {
        for (const std::string& c : plan->schema().columns()) {
          projections.emplace_back(c, rdbms::Col(c));
        }
      } else {
        projections.emplace_back(item.name, std::move(item.expr));
      }
    }
    plan = rdbms::Project(std::move(plan), std::move(projections));

    if (!order_items.empty()) {
      std::vector<rdbms::SortKey> keys;
      for (OrderItem& item : order_items) {
        rdbms::SortKey key;
        key.ascending = item.ascending;
        if (item.ordinal.has_value()) {
          int64_t ord = *item.ordinal;
          const auto& cols = plan->schema().columns();
          if (ord < 1 || ord > static_cast<int64_t>(cols.size())) {
            return Error("ORDER BY ordinal out of range");
          }
          key.expr = rdbms::Col(cols[static_cast<size_t>(ord - 1)]);
        } else {
          key.expr = std::move(item.expr);
        }
        keys.push_back(std::move(key));
      }
      plan = rdbms::Sort(std::move(plan), std::move(keys));
    }
    if (limit.has_value()) plan = rdbms::Limit(std::move(plan), *limit);
    return plan;
  }

 private:
  Status Error(const std::string& msg) const {
    return Status::ParseError("SQL: " + msg + " at offset " +
                              std::to_string(lex_.offset()));
  }

  std::string Snippet(size_t start, size_t end) const {
    while (start < end &&
           std::isspace(static_cast<unsigned char>(sql_[start]))) {
      ++start;
    }
    while (end > start &&
           std::isspace(static_cast<unsigned char>(sql_[end - 1]))) {
      --end;
    }
    return sql_.substr(start, end - start);
  }

  Status ParseSelectList() {
    while (true) {
      if (lex_.TakeSymbol("*")) {
        SelectItem item;
        item.is_star = true;
        select_items_.push_back(std::move(item));
      } else {
        size_t start = lex_.offset();
        bool was_ident = lex_.Peek().kind == TokKind::kIdent;
        std::string first_ident = lex_.Peek().text;
        FSDM_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        SelectItem item;
        item.expr = std::move(e);
        std::string snippet = Snippet(start, lex_.offset());
        item.snippet = snippet;
        if (lex_.TakeKeyword("AS")) {
          if (lex_.Peek().kind != TokKind::kIdent) {
            return Error("expected alias after AS");
          }
          item.name = lex_.Take().text;
        } else if (was_ident && snippet == first_ident) {
          item.name = first_ident;  // bare column keeps its name
        } else {
          item.name = "COL_" + std::to_string(select_items_.size() + 1);
        }
        select_items_.push_back(std::move(item));
      }
      if (!lex_.TakeSymbol(",")) break;
    }
    return Status::Ok();
  }

  // expr := or_expr
  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    FSDM_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    while (lex_.TakeKeyword("OR")) {
      FSDM_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
      left = rdbms::Or(std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseAnd() {
    FSDM_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
    while (lex_.TakeKeyword("AND")) {
      FSDM_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
      left = rdbms::And(std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseNot() {
    if (lex_.TakeKeyword("NOT")) {
      FSDM_ASSIGN_OR_RETURN(ExprPtr inner, ParseNot());
      return rdbms::Not(std::move(inner));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    FSDM_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());

    if (lex_.TakeKeyword("IS")) {
      bool negate = lex_.TakeKeyword("NOT");
      if (!lex_.TakeKeyword("NULL")) return Error("expected NULL after IS");
      return negate ? rdbms::IsNotNull(std::move(left))
                    : rdbms::IsNull(std::move(left));
    }
    if (lex_.TakeKeyword("IN")) {
      if (!lex_.TakeSymbol("(")) return Error("expected ( after IN");
      std::vector<Value> values;
      while (true) {
        FSDM_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
        values.push_back(std::move(v));
        if (!lex_.TakeSymbol(",")) break;
      }
      if (!lex_.TakeSymbol(")")) return Error("expected ) after IN list");
      return rdbms::In(std::move(left), std::move(values));
    }
    if (lex_.TakeKeyword("BETWEEN")) {
      FSDM_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
      if (!lex_.TakeKeyword("AND")) {
        return Error("expected AND in BETWEEN");
      }
      FSDM_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
      return rdbms::And(rdbms::Ge(left, std::move(lo)),
                        rdbms::Le(left, std::move(hi)));
    }

    struct OpMap {
      const char* sym;
      rdbms::CompareOp op;
    };
    for (OpMap m : {OpMap{"<=", rdbms::CompareOp::kLe},
                    OpMap{">=", rdbms::CompareOp::kGe},
                    OpMap{"<>", rdbms::CompareOp::kNe},
                    OpMap{"!=", rdbms::CompareOp::kNe},
                    OpMap{"=", rdbms::CompareOp::kEq},
                    OpMap{"<", rdbms::CompareOp::kLt},
                    OpMap{">", rdbms::CompareOp::kGt}}) {
      if (lex_.TakeSymbol(m.sym)) {
        FSDM_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
        return rdbms::Cmp(m.op, std::move(left), std::move(right));
      }
    }
    return left;
  }

  Result<ExprPtr> ParseAdditive() {
    FSDM_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
    while (true) {
      if (lex_.TakeSymbol("+")) {
        FSDM_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
        left = rdbms::Add(std::move(left), std::move(right));
      } else if (lex_.TakeSymbol("-")) {
        FSDM_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
        left = rdbms::Sub(std::move(left), std::move(right));
      } else {
        return left;
      }
    }
  }

  Result<ExprPtr> ParseMultiplicative() {
    FSDM_ASSIGN_OR_RETURN(ExprPtr left, ParsePrimary());
    while (true) {
      if (lex_.TakeSymbol("*")) {
        FSDM_ASSIGN_OR_RETURN(ExprPtr right, ParsePrimary());
        left = rdbms::Mul(std::move(left), std::move(right));
      } else if (lex_.TakeSymbol("/")) {
        FSDM_ASSIGN_OR_RETURN(ExprPtr right, ParsePrimary());
        left = rdbms::Div(std::move(left), std::move(right));
      } else {
        return left;
      }
    }
  }

  Result<Value> ParseLiteralValue() {
    Token t = lex_.Take();
    if (t.kind == TokKind::kString) return Value::String(t.text);
    if (t.kind == TokKind::kNumber) {
      FSDM_ASSIGN_OR_RETURN(Decimal d, Decimal::FromString(t.text));
      if (d.IsInteger()) {
        Result<int64_t> i = d.ToInt64();
        if (i.ok()) return Value::Int64(i.value());
      }
      return Value::Dec(std::move(d));
    }
    if (t.kind == TokKind::kSymbol && t.text == "-" &&
        lex_.Peek().kind == TokKind::kNumber) {
      FSDM_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
      if (v.type() == ScalarType::kInt64) return Value::Int64(-v.AsInt64());
      return Value::Dec(v.AsDecimal().Negated());
    }
    if (t.kind == TokKind::kIdent) {
      if (Lexer::EqualsIgnoreCase(t.text, "TRUE")) return Value::Bool(true);
      if (Lexer::EqualsIgnoreCase(t.text, "FALSE")) return Value::Bool(false);
      if (Lexer::EqualsIgnoreCase(t.text, "NULL")) return Value::Null();
    }
    return Error("expected literal");
  }

  // Resolves the storage + column for a SQL/JSON operator's first argument,
  // applying the §5.2.2 OSON rewrite when enabled for (table, column).
  void ResolveJsonColumn(std::string* column,
                         sqljson::JsonStorage* storage) const {
    const std::string* rewritten =
        session_->OsonRewriteFor(table_name_, *column);
    if (rewritten != nullptr) {
      *column = *rewritten;
      *storage = sqljson::JsonStorage::kOson;
    } else {
      *storage = sqljson::JsonStorage::kText;
    }
  }

  Result<ExprPtr> ParseJsonFunction(const std::string& upper) {
    if (!lex_.TakeSymbol("(")) return Error("expected (");
    if (lex_.Peek().kind != TokKind::kIdent) {
      return Error("expected JSON column name");
    }
    std::string column = lex_.Take().text;
    if (!lex_.TakeSymbol(",")) return Error("expected , after column");
    if (lex_.Peek().kind != TokKind::kString) {
      return Error("expected path string literal");
    }
    std::string path = lex_.Take().text;
    sqljson::JsonStorage storage;
    ResolveJsonColumn(&column, &storage);

    if (upper == "JSON_VALUE") {
      sqljson::Returning returning = sqljson::Returning::kAny;
      if (lex_.TakeKeyword("RETURNING")) {
        if (lex_.TakeKeyword("NUMBER")) {
          returning = sqljson::Returning::kNumber;
        } else if (lex_.TakeKeyword("VARCHAR2") ||
                   lex_.TakeKeyword("VARCHAR")) {
          returning = sqljson::Returning::kString;
          if (lex_.TakeSymbol("(")) {  // optional length
            (void)lex_.Take();
            if (!lex_.TakeSymbol(")")) return Error("expected )");
          }
        } else {
          return Error("expected NUMBER or VARCHAR2 after RETURNING");
        }
      }
      if (!lex_.TakeSymbol(")")) return Error("expected )");
      return sqljson::JsonValue(column, path, storage, returning);
    }
    if (upper == "JSON_EXISTS") {
      if (!lex_.TakeSymbol(")")) return Error("expected )");
      return sqljson::JsonExists(column, path, storage);
    }
    if (upper == "JSON_QUERY") {
      if (!lex_.TakeSymbol(")")) return Error("expected )");
      return sqljson::JsonQuery(column, path, storage);
    }
    // JSON_TEXTCONTAINS(col, 'path', 'keyword')
    if (!lex_.TakeSymbol(",")) return Error("expected , before keyword");
    if (lex_.Peek().kind != TokKind::kString) {
      return Error("expected keyword string");
    }
    std::string keyword = lex_.Take().text;
    if (!lex_.TakeSymbol(")")) return Error("expected )");
    return sqljson::JsonTextContains(column, path, keyword, storage);
  }

  Result<ExprPtr> ParseAggregate(const std::string& upper) {
    if (!lex_.TakeSymbol("(")) return Error("expected (");
    AggSpec spec;
    if (upper == "COUNT") {
      if (lex_.TakeSymbol("*")) {
        spec.kind = AggSpec::Kind::kCountStar;
      } else {
        spec.kind = AggSpec::Kind::kCount;
        FSDM_ASSIGN_OR_RETURN(spec.arg, ParseExpr());
      }
    } else {
      spec.kind = upper == "SUM"   ? AggSpec::Kind::kSum
                  : upper == "MIN" ? AggSpec::Kind::kMin
                  : upper == "MAX" ? AggSpec::Kind::kMax
                                   : AggSpec::Kind::kAvg;
      FSDM_ASSIGN_OR_RETURN(spec.arg, ParseExpr());
    }
    if (!lex_.TakeSymbol(")")) return Error("expected ) after aggregate");
    spec.output_name = "AGG_" + std::to_string(pending_aggs_.size() + 1);
    ExprPtr ref = rdbms::Col(spec.output_name);
    pending_aggs_.push_back(std::move(spec));
    return ref;
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = lex_.Peek();
    if (t.kind == TokKind::kSymbol && t.text == "(") {
      lex_.Take();
      FSDM_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
      if (!lex_.TakeSymbol(")")) return Error("expected )");
      return inner;
    }
    if (t.kind == TokKind::kSymbol && t.text == "-") {
      lex_.Take();
      FSDM_ASSIGN_OR_RETURN(ExprPtr inner, ParsePrimary());
      return rdbms::Sub(rdbms::Lit(Value::Int64(0)), std::move(inner));
    }
    if (t.kind == TokKind::kNumber || t.kind == TokKind::kString) {
      FSDM_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
      return rdbms::Lit(std::move(v));
    }
    if (t.kind != TokKind::kIdent) {
      return Error("unexpected token '" + t.text + "'");
    }

    // Identifier: keyword literal, function call, or column reference.
    std::string ident = lex_.Take().text;
    std::string upper;
    for (char c : ident) {
      upper.push_back(
          static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    }
    if (upper == "TRUE") return rdbms::Lit(Value::Bool(true));
    if (upper == "FALSE") return rdbms::Lit(Value::Bool(false));
    if (upper == "NULL") return rdbms::Lit(Value::Null());

    if (lex_.PeekSymbol("(")) {
      if (upper == "JSON_VALUE" || upper == "JSON_EXISTS" ||
          upper == "JSON_QUERY" || upper == "JSON_TEXTCONTAINS") {
        return ParseJsonFunction(upper);
      }
      if (upper == "COUNT" || upper == "SUM" || upper == "MIN" ||
          upper == "MAX" || upper == "AVG") {
        return ParseAggregate(upper);
      }
      // Scalar function.
      lex_.Take();  // '('
      std::vector<ExprPtr> args;
      if (!lex_.PeekSymbol(")")) {
        while (true) {
          FSDM_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
          args.push_back(std::move(arg));
          if (!lex_.TakeSymbol(",")) break;
        }
      }
      if (!lex_.TakeSymbol(")")) return Error("expected )");
      return rdbms::Func(upper, std::move(args));
    }
    // Table-qualified column "t.col" -> col (single-table queries).
    if (lex_.TakeSymbol(".")) {
      if (lex_.Peek().kind != TokKind::kIdent) {
        return Error("expected column after '.'");
      }
      return rdbms::Col(lex_.Take().text);
    }
    return rdbms::Col(std::move(ident));
  }

  SqlSession* session_;
  const std::string& sql_;
  Lexer lex_;
  std::string table_name_;
  rdbms::Table* table_ = nullptr;
  /// Set when the FROM clause named a TELEMETRY$ relation (table_ is not).
  VirtualRelationFactory virtual_scan_ = nullptr;
  std::vector<SelectItem> select_items_;
  std::vector<AggSpec> pending_aggs_;
};

}  // namespace

Result<rdbms::OperatorPtr> SqlSession::Prepare(const std::string& sql) {
  Planner planner(this, sql);
  return planner.Plan();
}

Result<std::vector<std::string>> SqlSession::Query(const std::string& sql) {
  FSDM_ASSIGN_OR_RETURN(rdbms::OperatorPtr plan, Prepare(sql));
  return rdbms::CollectStrings(plan.get());
}

Status SqlSession::UseOsonFor(const std::string& table,
                              const std::string& json_column) {
  FSDM_ASSIGN_OR_RETURN(rdbms::Table * t, db_->GetTable(table));
  FSDM_ASSIGN_OR_RETURN(std::string hidden,
                        sqljson::EnsureHiddenOsonColumn(t, json_column));
  oson_rewrites_[{table, json_column}] = hidden;
  return Status::Ok();
}

}  // namespace fsdm::sql
