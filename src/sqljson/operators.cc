#include "sqljson/operators.h"

#include <atomic>
#include <cctype>

#include "json/parser.h"
#include "json/serializer.h"
#include "jsonpath/streaming.h"

namespace fsdm::sqljson {

Result<const json::Dom*> DomSource::Open(const Value& column_value) {
  switch (storage_) {
    case JsonStorage::kText: {
      if (column_value.type() != ScalarType::kString) {
        return Status::InvalidArgument("text JSON column must hold a string");
      }
      FSDM_ASSIGN_OR_RETURN(tree_, json::Parse(column_value.AsString()));
      tree_dom_.emplace(tree_.get());
      return &*tree_dom_;
    }
    case JsonStorage::kBson: {
      if (column_value.type() != ScalarType::kBinary) {
        return Status::InvalidArgument("BSON column must hold binary bytes");
      }
      FSDM_ASSIGN_OR_RETURN(bson::BsonDom dom,
                            bson::BsonDom::Open(column_value.AsBinary()));
      bson_dom_.emplace(std::move(dom));
      return &*bson_dom_;
    }
    case JsonStorage::kOson: {
      if (column_value.type() != ScalarType::kBinary) {
        return Status::InvalidArgument("OSON column must hold binary bytes");
      }
      FSDM_ASSIGN_OR_RETURN(oson::OsonDom dom,
                            oson::OsonDom::Open(column_value.AsBinary()));
      oson_dom_.emplace(std::move(dom));
      return &*oson_dom_;
    }
  }
  return Status::Internal("bad storage kind");
}

namespace {

// The document column of the evaluation row, read in place. The SQL/JSON
// callbacks are never bound to a schema, so a plain column expression
// would hash the column name and copy the document on every row. The
// position is resolved on the first row of a schema and re-checked by name
// (no hashing) on the rows after it.
class DocColumn {
 public:
  explicit DocColumn(std::string name) : name_(std::move(name)) {}

  Result<const Value*> Read(const rdbms::RowContext& ctx) const {
    size_t pos = pos_.load(std::memory_order_relaxed);
    const std::vector<std::string>& names = ctx.schema->columns();
    if (pos >= names.size() || names[pos] != name_) {
      pos = ctx.schema->IndexOf(name_);
      if (pos == rdbms::Schema::npos) {
        return Status::NotFound("column '" + name_ + "' not in schema");
      }
      pos_.store(pos, std::memory_order_relaxed);
    }
    if (pos >= ctx.row->size()) {
      return Status::Internal("row narrower than schema for '" + name_ + "'");
    }
    return &(*ctx.row)[pos];
  }

 private:
  std::string name_;
  // Atomic only so that concurrent evaluations of one expression stay
  // well-defined; every thread stores the same position for one schema.
  mutable std::atomic<size_t> pos_{rdbms::Schema::npos};
};

// Shared per-expression state: compiled path + evaluator + dom source.
// Held by shared_ptr inside the Callback closure so one expression reused
// across rows keeps its field-id caches warm. Text-mode evaluation of
// streamable paths (member chains) bypasses DOM construction entirely via
// the streaming engine (§5.1); complex paths fall back to parse + DOM.
struct PathState {
  DocColumn doc;
  jsonpath::PathExpression path;
  std::unique_ptr<jsonpath::PathEvaluator> eval;
  DomSource source;
  bool streamable = false;

  PathState(std::string column, jsonpath::PathExpression p,
            JsonStorage storage)
      : doc(std::move(column)), path(std::move(p)), source(storage) {
    eval = std::make_unique<jsonpath::PathEvaluator>(&path);
    streamable = storage == JsonStorage::kText &&
                 jsonpath::StreamingPathEngine::CanStream(path);
  }
};

Result<std::shared_ptr<PathState>> MakeState(std::string column,
                                             const std::string& path,
                                             JsonStorage storage) {
  FSDM_ASSIGN_OR_RETURN(jsonpath::PathExpression compiled,
                        jsonpath::PathExpression::Parse(path));
  return std::make_shared<PathState>(std::move(column), std::move(compiled),
                                     storage);
}

// A constructed image is kept as it is for as long as any row or IMC
// column shares it, so it gives back the encoder's spare capacity first.
Value TightBinary(std::string bytes) {
  bytes.shrink_to_fit();
  return Value::Binary(std::move(bytes));
}

Value CoerceReturning(Value v, Returning returning) {
  if (v.is_null()) return v;
  switch (returning) {
    case Returning::kAny:
      return v;
    case Returning::kNumber: {
      if (v.IsNumeric()) return v;
      if (v.type() == ScalarType::kString) {
        Result<Decimal> d = Decimal::FromString(v.AsString());
        if (!d.ok()) return Value::Null();
        if (d.value().IsInteger()) {
          Result<int64_t> i = d.value().ToInt64();
          if (i.ok()) return Value::Int64(i.value());
        }
        return Value::Dec(d.MoveValue());
      }
      if (v.type() == ScalarType::kBool) {
        return Value::Int64(v.AsBool() ? 1 : 0);
      }
      return Value::Null();
    }
    case Returning::kString:
      return Value::String(v.ToDisplayString());
  }
  return v;
}

}  // namespace

Result<rdbms::ExprPtr> JsonValue(std::string column, std::string path,
                                 JsonStorage storage, Returning returning) {
  std::string label = "JSON_VALUE(" + column + ", '" + path + "')";
  FSDM_ASSIGN_OR_RETURN(std::shared_ptr<PathState> state,
                        MakeState(std::move(column), path, storage));
  return rdbms::Callback(
      std::move(label),
      [state, returning](const rdbms::RowContext& ctx) -> Result<Value> {
        FSDM_ASSIGN_OR_RETURN(const Value* doc, state->doc.Read(ctx));
        if (doc->is_null()) return Value::Null();
        std::optional<Value> v;
        if (state->streamable) {
          FSDM_ASSIGN_OR_RETURN(
              v, jsonpath::StreamingPathEngine::FirstScalar(doc->AsString(),
                                                            state->path));
        } else {
          FSDM_ASSIGN_OR_RETURN(
              v, state->source.Apply(*doc, [&](const auto& dom) {
                return state->eval->FirstScalar(dom);
              }));
        }
        if (!v.has_value()) return Value::Null();
        return CoerceReturning(std::move(*v), returning);
      });
}

Result<rdbms::ExprPtr> JsonExists(std::string column, std::string path,
                                  JsonStorage storage) {
  std::string label = "JSON_EXISTS(" + column + ", '" + path + "')";
  FSDM_ASSIGN_OR_RETURN(std::shared_ptr<PathState> state,
                        MakeState(std::move(column), path, storage));
  return rdbms::Callback(
      std::move(label),
      [state](const rdbms::RowContext& ctx) -> Result<Value> {
        FSDM_ASSIGN_OR_RETURN(const Value* doc, state->doc.Read(ctx));
        if (doc->is_null()) return Value::Bool(false);
        bool exists;
        if (state->streamable) {
          FSDM_ASSIGN_OR_RETURN(
              exists, jsonpath::StreamingPathEngine::Exists(doc->AsString(),
                                                            state->path));
        } else {
          FSDM_ASSIGN_OR_RETURN(
              exists, state->source.Apply(*doc, [&](const auto& dom) {
                return state->eval->Exists(dom);
              }));
        }
        return Value::Bool(exists);
      });
}

Result<rdbms::ExprPtr> JsonQuery(std::string column, std::string path,
                                 JsonStorage storage) {
  std::string label = "JSON_QUERY(" + column + ", '" + path + "')";
  FSDM_ASSIGN_OR_RETURN(std::shared_ptr<PathState> state,
                        MakeState(std::move(column), path, storage));
  return rdbms::Callback(
      std::move(label),
      [state](const rdbms::RowContext& ctx) -> Result<Value> {
        FSDM_ASSIGN_OR_RETURN(const Value* doc, state->doc.Read(ctx));
        if (doc->is_null()) return Value::Null();
        FSDM_ASSIGN_OR_RETURN(const json::Dom* dom, state->source.Open(*doc));
        std::optional<std::string> text;
        Status st = state->eval->Evaluate(
            *dom, [&](json::Dom::NodeRef node, bool* stop) {
              *stop = true;
              text = json::Serialize(*dom, node);
              return Status::Ok();
            });
        FSDM_RETURN_NOT_OK(st);
        if (!text.has_value()) return Value::Null();
        return Value::String(std::move(*text));
      });
}

Result<rdbms::ExprPtr> JsonTextContains(std::string column, std::string path,
                                        std::string keyword,
                                        JsonStorage storage) {
  std::string lowered = keyword;
  for (char& c : lowered) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  std::string label =
      "JSON_TEXTCONTAINS(" + column + ", '" + path + "', '" + keyword + "')";
  FSDM_ASSIGN_OR_RETURN(std::shared_ptr<PathState> state,
                        MakeState(std::move(column), path, storage));
  return rdbms::Callback(
      std::move(label),
      [state, lowered](const rdbms::RowContext& ctx) -> Result<Value> {
        FSDM_ASSIGN_OR_RETURN(const Value* doc, state->doc.Read(ctx));
        if (doc->is_null()) return Value::Bool(false);
        FSDM_ASSIGN_OR_RETURN(const json::Dom* dom, state->source.Open(*doc));
        bool found = false;
        Status st = state->eval->Evaluate(
            *dom, [&](json::Dom::NodeRef node, bool* stop) {
              if (dom->GetNodeType(node) != json::NodeKind::kScalar) {
                return Status::Ok();
              }
              Value v;
              FSDM_RETURN_NOT_OK(dom->GetScalarValue(node, &v));
              if (v.type() != ScalarType::kString) return Status::Ok();
              std::string hay = v.AsString();
              for (char& c : hay) {
                c = static_cast<char>(
                    std::tolower(static_cast<unsigned char>(c)));
              }
              if (hay.find(lowered) != std::string::npos) {
                found = true;
                *stop = true;
              }
              return Status::Ok();
            });
        FSDM_RETURN_NOT_OK(st);
        return Value::Bool(found);
      });
}

rdbms::ExprPtr OsonConstructor(std::string column,
                               oson::EncodeOptions options) {
  std::string label = "OSON(" + column + ")";
  auto text = std::make_shared<DocColumn>(std::move(column));
  return rdbms::Callback(
      std::move(label),
      [text, options](const rdbms::RowContext& ctx) -> Result<Value> {
        FSDM_ASSIGN_OR_RETURN(const Value* doc, text->Read(ctx));
        if (doc->is_null()) return Value::Null();
        if (doc->type() != ScalarType::kString) {
          return Status::InvalidArgument("OSON() expects a JSON text column");
        }
        FSDM_ASSIGN_OR_RETURN(std::string bytes,
                              oson::EncodeFromText(doc->AsString(), options));
        return TightBinary(std::move(bytes));
      });
}

Result<std::string> EnsureHiddenOsonColumn(rdbms::Table* table,
                                           const std::string& json_column) {
  std::string name = json_column + "$OSON";
  if (table->ColumnIndex(name) != rdbms::Schema::npos) return name;
  size_t base = table->ColumnIndex(json_column);
  if (base == rdbms::Schema::npos) {
    return Status::NotFound("column '" + json_column + "' on " +
                            table->name());
  }
  if (table->columns()[base].type != rdbms::ColumnType::kJson) {
    return Status::InvalidArgument("'" + json_column +
                                   "' is not a JSON column");
  }
  rdbms::ColumnDef def;
  def.name = name;
  def.type = rdbms::ColumnType::kRaw;
  def.hidden = true;
  def.virtual_expr = OsonConstructor(json_column);
  FSDM_RETURN_NOT_OK(table->AddVirtualColumn(std::move(def)));
  return name;
}

rdbms::ExprPtr BsonConstructor(std::string column) {
  std::string label = "BSON(" + column + ")";
  auto text = std::make_shared<DocColumn>(std::move(column));
  return rdbms::Callback(
      std::move(label), [text](const rdbms::RowContext& ctx) -> Result<Value> {
        FSDM_ASSIGN_OR_RETURN(const Value* doc, text->Read(ctx));
        if (doc->is_null()) return Value::Null();
        if (doc->type() != ScalarType::kString) {
          return Status::InvalidArgument("BSON() expects a JSON text column");
        }
        FSDM_ASSIGN_OR_RETURN(std::string bytes,
                              bson::EncodeFromText(doc->AsString()));
        return TightBinary(std::move(bytes));
      });
}

}  // namespace fsdm::sqljson
