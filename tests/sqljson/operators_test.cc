#include "sqljson/operators.h"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "json/parser.h"
#include "rdbms/executor.h"

namespace fsdm::sqljson {
namespace {

using rdbms::Col;
using rdbms::ColumnDef;
using rdbms::ColumnType;
using rdbms::Row;
using rdbms::Schema;
using rdbms::Table;
using fsdm::Value;

constexpr const char* kPo =
    R"({"purchaseOrder":{"id":7,"podate":"2015-03-04","reference":"ACME-7",)"
    R"("items":[{"name":"table","price":52.78,"quantity":2},)"
    R"({"name":"chair","price":35.24,"quantity":4}]}})";

// A table with the same document in all three storages.
class OperatorsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<Table>(
        "PO", std::vector<ColumnDef>{
                  {.name = "DID", .type = ColumnType::kNumber},
                  {.name = "JTEXT",
                   .type = ColumnType::kJson,
                   .check_is_json = true},
              });
    ColumnDef oson_vc;
    oson_vc.name = "JOSON";
    oson_vc.type = ColumnType::kRaw;
    oson_vc.virtual_expr = OsonConstructor("JTEXT");
    ASSERT_TRUE(table_->AddVirtualColumn(oson_vc).ok());
    ColumnDef bson_vc;
    bson_vc.name = "JBSON";
    bson_vc.type = ColumnType::kRaw;
    bson_vc.virtual_expr = BsonConstructor("JTEXT");
    ASSERT_TRUE(table_->AddVirtualColumn(bson_vc).ok());
    ASSERT_TRUE(
        table_->Insert({Value::Int64(1), Value::String(kPo)}).ok());
  }

  Value EvalExpr(const rdbms::ExprPtr& expr) {
    Row row = table_->MaterializeRow(0).MoveValue();
    Schema schema = table_->OutputSchema();
    rdbms::RowContext ctx{&schema, &row};
    Result<Value> r = expr->Eval(ctx);
    EXPECT_TRUE(r.ok()) << expr->ToString() << ": " << r.status().ToString();
    return r.ok() ? r.MoveValue() : Value::Null();
  }

  std::unique_ptr<Table> table_;
};

struct StorageCase {
  const char* column;
  JsonStorage storage;
};

TEST_F(OperatorsTest, JsonValueAcrossStorages) {
  for (StorageCase sc : {StorageCase{"JTEXT", JsonStorage::kText},
                         StorageCase{"JOSON", JsonStorage::kOson},
                         StorageCase{"JBSON", JsonStorage::kBson}}) {
    auto id = JsonValue(sc.column, "$.purchaseOrder.id", sc.storage)
                  .MoveValue();
    EXPECT_EQ(EvalExpr(id).AsInt64(), 7) << sc.column;
    auto ref =
        JsonValue(sc.column, "$.purchaseOrder.reference", sc.storage)
            .MoveValue();
    EXPECT_EQ(EvalExpr(ref).AsString(), "ACME-7") << sc.column;
    auto missing =
        JsonValue(sc.column, "$.purchaseOrder.ghost", sc.storage).MoveValue();
    EXPECT_TRUE(EvalExpr(missing).is_null()) << sc.column;
    // Non-scalar target -> NULL (NULL ON ERROR).
    auto items =
        JsonValue(sc.column, "$.purchaseOrder.items", sc.storage).MoveValue();
    EXPECT_TRUE(EvalExpr(items).is_null()) << sc.column;
  }
}

// --- Navigation agreement oracle --------------------------------------------
//
// Random documents over a five-key vocabulary, random member chains, and
// one compiled expression per (path, storage, RETURNING) reused across every
// document, so the field-id look-back sees changing dictionaries. JSON_VALUE
// and JSON_EXISTS must give the same answer over kText (streaming engine),
// kBson and kOson (member-chain walker, or the general evaluator when an
// array sits on the chain).

constexpr std::array<const char*, 5> kKeys = {"a", "b", "c", "d", "e"};

void AppendRandomJson(Rng* rng, int depth, std::string* out) {
  const uint64_t kind = depth >= 3 ? 2 + rng->Uniform(5) : rng->Uniform(7);
  switch (kind) {
    case 0:
    case 1: {  // object: a distinct subset of the vocabulary
      out->push_back('{');
      bool first = true;
      for (const char* key : kKeys) {
        if (!rng->NextBool(0.55)) continue;
        if (!first) out->push_back(',');
        first = false;
        *out += std::string("\"") + key + "\":";
        AppendRandomJson(rng, depth + 1, out);
      }
      out->push_back('}');
      return;
    }
    case 2: {  // array
      if (depth >= 3) break;
      out->push_back('[');
      const uint64_t n = rng->Uniform(4);
      for (uint64_t i = 0; i < n; ++i) {
        if (i) out->push_back(',');
        AppendRandomJson(rng, depth + 1, out);
      }
      out->push_back(']');
      return;
    }
    case 3:  // integer
      *out += std::to_string(rng->Range(-1000, 1000));
      return;
    case 4:  // fraction exact in binary, so BSON's doubles agree
      *out += std::to_string(rng->Range(-100, 100)) +
              (rng->NextBool() ? ".5" : ".25");
      return;
    case 5:
      *out += "\"s" + std::to_string(rng->Uniform(50)) + "\"";
      return;
    default:
      break;
  }
  const uint64_t lit = rng->Uniform(3);
  *out += lit == 0 ? "true" : (lit == 1 ? "false" : "null");
}

std::string RandomRoot(Rng* rng) {
  const uint64_t shape = rng->Uniform(10);
  if (shape == 0) return "{}";
  std::string out;
  if (shape == 1) {  // array root
    out = "[";
    AppendRandomJson(rng, 1, &out);
    out += ",";
    AppendRandomJson(rng, 1, &out);
    return out + "]";
  }
  if (shape == 2) {  // scalar root
    AppendRandomJson(rng, 3, &out);
    return out;
  }
  out = "{";
  bool first = true;
  for (const char* key : kKeys) {
    if (!rng->NextBool(0.7)) continue;
    if (!first) out.push_back(',');
    first = false;
    out += std::string("\"") + key + "\":";
    AppendRandomJson(rng, 1, &out);
  }
  return out + "}";
}

// How the chain meets the document, read off the parsed tree.
enum class ChainShape { kReaches, kMissing, kScalarMid, kArrayMid };

ChainShape ClassifyChain(const json::JsonNode* node,
                         const std::vector<std::string>& keys) {
  for (const std::string& key : keys) {
    if (node->is_array()) return ChainShape::kArrayMid;
    if (!node->is_object()) return ChainShape::kScalarMid;
    node = node->GetField(key);
    if (node == nullptr) return ChainShape::kMissing;
  }
  return ChainShape::kReaches;
}

// Numbers agree by value (BSON stores fractions as doubles); everything
// else by type and text.
bool SameAnswer(const Value& a, const Value& b) {
  if (a.IsNumeric() && b.IsNumeric()) return a.CompareTo(b).value() == 0;
  return a.type() == b.type() && a.ToDisplayString() == b.ToDisplayString();
}

TEST(NavigationOracleTest, MemberChainsAgreeAcrossStorages) {
  Rng rng(20160626);
  constexpr int kDocs = 300;
  constexpr int kPaths = 40;
  const std::array<JsonStorage, 3> storages = {
      JsonStorage::kText, JsonStorage::kBson, JsonStorage::kOson};
  const std::array<const char*, 3> columns = {"JTEXT", "JBSON", "JOSON"};
  const std::array<Returning, 3> returnings = {
      Returning::kAny, Returning::kNumber, Returning::kString};

  struct PathExprs {
    std::string path;
    std::vector<std::string> keys;
    // [returning][storage], then JSON_EXISTS per storage.
    std::array<std::array<rdbms::ExprPtr, 3>, 3> value;
    std::array<rdbms::ExprPtr, 3> exists;
  };
  std::vector<PathExprs> paths;
  for (int p = 0; p < kPaths; ++p) {
    PathExprs pe;
    pe.path = "$";
    const uint64_t len = 1 + rng.Uniform(4);
    for (uint64_t i = 0; i < len; ++i) {
      pe.keys.push_back(kKeys[rng.Uniform(kKeys.size())]);
      pe.path += "." + pe.keys.back();
    }
    for (size_t s = 0; s < storages.size(); ++s) {
      for (size_t r = 0; r < returnings.size(); ++r) {
        pe.value[r][s] =
            JsonValue(columns[s], pe.path, storages[s], returnings[r])
                .MoveValue();
      }
      pe.exists[s] = JsonExists(columns[s], pe.path, storages[s]).MoveValue();
    }
    paths.push_back(std::move(pe));
  }

  const Schema schema({"JTEXT", "JBSON", "JOSON"});
  std::map<ChainShape, int> seen;
  for (int d = 0; d < kDocs; ++d) {
    const std::string text = RandomRoot(&rng);
    auto tree = json::Parse(text);
    ASSERT_TRUE(tree.ok()) << text;
    auto oson = oson::EncodeFromText(text);
    ASSERT_TRUE(oson.ok()) << text;
    // BSON documents are objects; other roots compare text with OSON only.
    auto bson = bson::EncodeFromText(text);
    const bool with_bson = tree.value()->is_object();
    ASSERT_EQ(bson.ok(), with_bson) << text;
    const Row row = {Value::String(text),
                     with_bson ? Value::Binary(bson.MoveValue()) : Value(),
                     Value::Binary(oson.MoveValue())};
    const rdbms::RowContext ctx{&schema, &row};

    const oson::OsonDom image =
        oson::OsonDom::Open(row[2].AsBinary()).MoveValue();
    for (const PathExprs& pe : paths) {
      seen[ClassifyChain(tree.value().get(), pe.keys)]++;
      // The walker against the general evaluator, on the same image.
      const jsonpath::PathExpression compiled =
          jsonpath::PathExpression::Parse(pe.path).MoveValue();
      const jsonpath::PathEvaluator eval(&compiled);
      const std::vector<json::Dom::NodeRef> selected =
          eval.Select(image).MoveValue();
      std::optional<Value> general;
      if (!selected.empty() &&
          image.GetNodeType(selected[0]) == json::NodeKind::kScalar) {
        Value v;
        ASSERT_TRUE(image.GetScalarValue(selected[0], &v).ok());
        general = std::move(v);
      }
      const std::optional<Value> walked = eval.FirstScalar(image).MoveValue();
      ASSERT_EQ(walked.has_value(), general.has_value()) << pe.path << text;
      if (walked.has_value()) {
        EXPECT_TRUE(SameAnswer(*walked, *general)) << pe.path << " " << text;
      }
      EXPECT_EQ(eval.Exists(image).value(), !selected.empty())
          << pe.path << " " << text;
      const std::string where = pe.path + " over " + text;
      for (size_t r = 0; r < returnings.size(); ++r) {
        Result<Value> want = pe.value[r][0]->Eval(ctx);
        ASSERT_TRUE(want.ok()) << where << ": " << want.status().ToString();
        for (size_t s = 1; s < storages.size(); ++s) {
          if (s == 1 && !with_bson) continue;
          Result<Value> got = pe.value[r][s]->Eval(ctx);
          ASSERT_TRUE(got.ok()) << columns[s] << " " << where;
          EXPECT_TRUE(SameAnswer(want.value(), got.value()))
              << columns[s] << " RETURNING#" << r << " " << where << ": "
              << want.value().ToDisplayString() << " vs "
              << got.value().ToDisplayString();
        }
      }
      Result<Value> want = pe.exists[0]->Eval(ctx);
      ASSERT_TRUE(want.ok()) << where;
      for (size_t s = 1; s < storages.size(); ++s) {
        if (s == 1 && !with_bson) continue;
        Result<Value> got = pe.exists[s]->Eval(ctx);
        ASSERT_TRUE(got.ok()) << columns[s] << " " << where;
        EXPECT_EQ(want.value().AsBool(), got.value().AsBool())
            << "JSON_EXISTS " << columns[s] << " " << where;
      }
    }
  }
  // Every way a chain can meet a document came up.
  EXPECT_GT(seen[ChainShape::kReaches], 100);
  EXPECT_GT(seen[ChainShape::kMissing], 100);
  EXPECT_GT(seen[ChainShape::kScalarMid], 100);
  EXPECT_GT(seen[ChainShape::kArrayMid], 100);
}

// A truncated image fails to open; JSON_VALUE and JSON_EXISTS report the
// error the image's own Open gives, on the walker's paths and the general
// evaluator's alike.
TEST(NavigationOracleTest, TruncatedImagesReportTheOpenError) {
  const std::string text = R"({"a":{"b":[{"c":1},{"c":2}],"d":"x"}})";
  std::string oson_bytes = oson::EncodeFromText(text).MoveValue();
  std::string bson_bytes = bson::EncodeFromText(text).MoveValue();
  oson_bytes.resize(oson_bytes.size() / 2);
  bson_bytes.resize(bson_bytes.size() / 2);
  const Status oson_open = oson::OsonDom::Open(oson_bytes).status();
  const Status bson_open = bson::BsonDom::Open(bson_bytes).status();
  ASSERT_FALSE(oson_open.ok());
  ASSERT_FALSE(bson_open.ok());

  const Schema schema({"JOSON", "JBSON"});
  const Row row = {Value::Binary(oson_bytes), Value::Binary(bson_bytes)};
  const rdbms::RowContext ctx{&schema, &row};
  for (const char* path : {"$.a.d", "$.a.b.c", "$.a.b[0].c"}) {
    for (const auto& [column, storage, open] :
         {std::tuple{"JOSON", JsonStorage::kOson, oson_open},
          std::tuple{"JBSON", JsonStorage::kBson, bson_open}}) {
      for (const rdbms::ExprPtr& expr :
           {JsonValue(column, path, storage).MoveValue(),
            JsonExists(column, path, storage).MoveValue()}) {
        Result<Value> got = expr->Eval(ctx);
        ASSERT_FALSE(got.ok()) << expr->ToString();
        EXPECT_EQ(got.status().code(), open.code()) << expr->ToString();
        EXPECT_EQ(got.status().message(), open.message()) << expr->ToString();
      }
    }
  }
}

TEST_F(OperatorsTest, JsonValueReturningCoercions) {
  auto as_number = JsonValue("JTEXT", "$.purchaseOrder.podate",
                             JsonStorage::kText, Returning::kNumber)
                       .MoveValue();
  EXPECT_TRUE(EvalExpr(as_number).is_null());  // not a number

  auto num_str = JsonValue("JTEXT", "$.purchaseOrder.id", JsonStorage::kText,
                           Returning::kString)
                     .MoveValue();
  EXPECT_EQ(EvalExpr(num_str).AsString(), "7");

  auto price_num =
      JsonValue("JTEXT", "$.purchaseOrder.items[0].price", JsonStorage::kText,
                Returning::kNumber)
          .MoveValue();
  EXPECT_EQ(EvalExpr(price_num).AsDecimal().ToString(), "52.78");
}

TEST_F(OperatorsTest, JsonExists) {
  for (StorageCase sc : {StorageCase{"JTEXT", JsonStorage::kText},
                         StorageCase{"JOSON", JsonStorage::kOson},
                         StorageCase{"JBSON", JsonStorage::kBson}}) {
    EXPECT_TRUE(EvalExpr(JsonExists(sc.column, "$.purchaseOrder.items",
                                    sc.storage)
                             .MoveValue())
                    .AsBool());
    EXPECT_FALSE(EvalExpr(JsonExists(sc.column, "$.purchaseOrder.foreign_id",
                                     sc.storage)
                              .MoveValue())
                     .AsBool());
    EXPECT_TRUE(
        EvalExpr(JsonExists(sc.column,
                            "$.purchaseOrder.items[*]?(@.price > 50)",
                            sc.storage)
                     .MoveValue())
            .AsBool());
  }
}

TEST_F(OperatorsTest, JsonQuerySerializesSubtree) {
  auto q = JsonQuery("JTEXT", "$.purchaseOrder.items[1]", JsonStorage::kText)
               .MoveValue();
  EXPECT_EQ(EvalExpr(q).AsString(),
            R"({"name":"chair","price":35.24,"quantity":4})");
  auto arr = JsonQuery("JOSON", "$.purchaseOrder.items[*].quantity",
                       JsonStorage::kOson)
                 .MoveValue();
  EXPECT_EQ(EvalExpr(arr).AsString(), "2");  // first match
  auto none =
      JsonQuery("JTEXT", "$.nothing", JsonStorage::kText).MoveValue();
  EXPECT_TRUE(EvalExpr(none).is_null());
}

TEST_F(OperatorsTest, JsonTextContains) {
  auto yes = JsonTextContains("JTEXT", "$.purchaseOrder.items[*].name",
                              "CHAIR", JsonStorage::kText)
                 .MoveValue();
  EXPECT_TRUE(EvalExpr(yes).AsBool());
  auto no = JsonTextContains("JTEXT", "$.purchaseOrder.items[*].name",
                             "sofa", JsonStorage::kText)
                .MoveValue();
  EXPECT_FALSE(EvalExpr(no).AsBool());
  // Numbers are not text-searchable.
  auto num = JsonTextContains("JTEXT", "$.purchaseOrder.items[*].price",
                              "52", JsonStorage::kText)
                 .MoveValue();
  EXPECT_FALSE(EvalExpr(num).AsBool());
}

TEST_F(OperatorsTest, ConstructorsProduceValidImages) {
  Value oson = EvalExpr(OsonConstructor("JTEXT"));
  ASSERT_EQ(oson.type(), ScalarType::kBinary);
  EXPECT_TRUE(oson::OsonDom::Open(oson.AsBinary()).ok());
  Value bson = EvalExpr(BsonConstructor("JTEXT"));
  ASSERT_EQ(bson.type(), ScalarType::kBinary);
  EXPECT_TRUE(bson::BsonDom::Open(bson.AsBinary()).ok());
}

TEST_F(OperatorsTest, BadPathFailsAtConstruction) {
  EXPECT_FALSE(JsonValue("JTEXT", "not-a-path", JsonStorage::kText).ok());
  EXPECT_FALSE(JsonExists("JTEXT", "$.[", JsonStorage::kText).ok());
}

TEST_F(OperatorsTest, NullDocumentYieldsNullOrFalse) {
  ASSERT_TRUE(table_->Insert({Value::Int64(2), Value::Null()}).ok());
  Row row = table_->MaterializeRow(1).MoveValue();
  Schema schema = table_->OutputSchema();
  rdbms::RowContext ctx{&schema, &row};
  auto jv = JsonValue("JTEXT", "$.a", JsonStorage::kText).MoveValue();
  EXPECT_TRUE(jv->Eval(ctx).MoveValue().is_null());
  auto je = JsonExists("JTEXT", "$.a", JsonStorage::kText).MoveValue();
  EXPECT_FALSE(je->Eval(ctx).MoveValue().AsBool());
}


TEST_F(OperatorsTest, EnsureHiddenOsonColumn) {
  Result<std::string> name = EnsureHiddenOsonColumn(table_.get(), "JTEXT");
  ASSERT_TRUE(name.ok()) << name.status().ToString();
  EXPECT_EQ(name.value(), "JTEXT$OSON");
  // Idempotent.
  EXPECT_EQ(EnsureHiddenOsonColumn(table_.get(), "JTEXT").value(),
            "JTEXT$OSON");
  // Hidden: absent from the default schema, present with hidden columns.
  EXPECT_EQ(table_->OutputSchema(false).IndexOf("JTEXT$OSON"),
            rdbms::Schema::npos);
  EXPECT_NE(table_->OutputSchema(true).IndexOf("JTEXT$OSON"),
            rdbms::Schema::npos);
  // Queries against the rewritten column produce the same answers.
  auto via_oson =
      JsonValue("JTEXT$OSON", "$.purchaseOrder.id", JsonStorage::kOson)
          .MoveValue();
  rdbms::Row row = table_->MaterializeRow(0, /*include_hidden=*/true)
                       .MoveValue();
  rdbms::Schema schema = table_->OutputSchema(true);
  rdbms::RowContext ctx{&schema, &row};
  EXPECT_EQ(via_oson->Eval(ctx).MoveValue().AsInt64(), 7);
  // Non-JSON columns rejected.
  EXPECT_FALSE(EnsureHiddenOsonColumn(table_.get(), "DID").ok());
  EXPECT_FALSE(EnsureHiddenOsonColumn(table_.get(), "NOPE").ok());
}

TEST_F(OperatorsTest, WorksInsideFilterPlan) {
  // SELECT DID FROM PO WHERE JSON_EXISTS(...) — the pushed-down predicate
  // shape of §6.3.
  auto exists =
      JsonExists("JTEXT", "$.purchaseOrder.items[*]?(@.quantity >= 4)",
                 JsonStorage::kText)
          .MoveValue();
  auto plan = rdbms::Project(
      rdbms::Filter(rdbms::Scan(table_.get()), exists), {{"DID", Col("DID")}});
  Result<std::vector<Row>> rows = rdbms::Collect(plan.get());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0][0].AsInt64(), 1);
}

}  // namespace
}  // namespace fsdm::sqljson
