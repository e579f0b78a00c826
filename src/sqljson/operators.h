#ifndef FSDM_SQLJSON_OPERATORS_H_
#define FSDM_SQLJSON_OPERATORS_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "bson/bson.h"
#include "common/status.h"
#include "json/dom.h"
#include "jsonpath/evaluator.h"
#include "oson/oson.h"
#include "rdbms/expression.h"
#include "rdbms/table.h"

namespace fsdm::sqljson {

/// Physical representation of a JSON column (§6.3's storage methods).
enum class JsonStorage : uint8_t {
  kText,  ///< JSON text in a varchar column — parsed per evaluation
  kBson,  ///< BSON bytes in a raw column — serial-scan navigation
  kOson,  ///< OSON bytes in a raw column — random-access navigation
};

/// Opens a json::Dom over a column value according to the storage kind.
/// Reused across rows: text mode re-parses per document (that cost is the
/// paper's headline comparison), binary modes are zero-copy opens.
class DomSource {
 public:
  explicit DomSource(JsonStorage storage) : storage_(storage) {}

  /// The returned Dom is valid until the next Open call. `column_value`
  /// must stay alive while the Dom is used (binary Doms alias its bytes).
  Result<const json::Dom*> Open(const Value& column_value);

  /// Opens `column_value` and calls `fn` with the Dom as its own final
  /// class (TreeDom, BsonDom or OsonDom), so path evaluation inside `fn`
  /// makes direct navigation calls. Returns fn's result, or Open's error.
  template <typename Fn>
  auto Apply(const Value& column_value, Fn&& fn)
      -> decltype(fn(std::declval<const oson::OsonDom&>())) {
    FSDM_RETURN_NOT_OK(Open(column_value).status());
    switch (storage_) {
      case JsonStorage::kText:
        return fn(*tree_dom_);
      case JsonStorage::kBson:
        return fn(*bson_dom_);
      case JsonStorage::kOson:
        break;
    }
    return fn(*oson_dom_);
  }

  JsonStorage storage() const { return storage_; }

 private:
  JsonStorage storage_;
  std::unique_ptr<json::JsonNode> tree_;
  std::optional<json::TreeDom> tree_dom_;
  std::optional<bson::BsonDom> bson_dom_;
  std::optional<oson::OsonDom> oson_dom_;
};

/// Desired SQL type of a JSON_VALUE projection (the RETURNING clause).
enum class Returning : uint8_t {
  kAny,     ///< native scalar value
  kNumber,  ///< coerce to number (strings parsed; failure -> NULL)
  kString,  ///< coerce to display string
};

/// JSON_VALUE(column, path RETURNING type): extracts a singleton scalar.
/// Non-scalar or missing targets yield NULL (NULL ON ERROR semantics).
/// The returned expression holds the compiled path and its field-id cache,
/// so reusing one expression across rows gets the §4.2.1 optimizations.
Result<rdbms::ExprPtr> JsonValue(std::string column, std::string path,
                                 JsonStorage storage,
                                 Returning returning = Returning::kAny);

/// JSON_EXISTS(column, path): TRUE/FALSE (path errors -> FALSE).
Result<rdbms::ExprPtr> JsonExists(std::string column, std::string path,
                                  JsonStorage storage);

/// JSON_QUERY(column, path): serialized JSON text of the first selected
/// node (scalar, object or array); NULL when nothing matches.
Result<rdbms::ExprPtr> JsonQuery(std::string column, std::string path,
                                 JsonStorage storage);

/// JSON_TEXTCONTAINS(column, path, keyword): full-text style containment —
/// TRUE when any string scalar selected by the path contains `keyword`
/// case-insensitively as a word substring.
Result<rdbms::ExprPtr> JsonTextContains(std::string column, std::string path,
                                        std::string keyword,
                                        JsonStorage storage);

/// OSON(column): encodes a JSON text column into OSON bytes (kBinary).
/// This is the constructor behind the hidden in-memory virtual column of
/// §5.2.2.
rdbms::ExprPtr OsonConstructor(std::string column,
                               oson::EncodeOptions options = {});

/// BSON(column): encodes a JSON text column into BSON bytes; baseline
/// counterpart of OsonConstructor for the format comparisons.
rdbms::ExprPtr BsonConstructor(std::string column);

/// §5.2.2's transparent rewrite: adds the hidden OSON virtual column
/// "<json_column>$OSON" to `table` (if absent) and returns its name.
/// Queries compiled with JsonValue/JsonExists against that column (storage
/// kOson) then evaluate over the in-memory binary image instead of
/// re-parsing text, while nothing is stored on disk — the column is
/// virtual and materializes at IMC population time.
Result<std::string> EnsureHiddenOsonColumn(rdbms::Table* table,
                                           const std::string& json_column);

}  // namespace fsdm::sqljson

#endif  // FSDM_SQLJSON_OPERATORS_H_
