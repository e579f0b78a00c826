#include "dataguide/dataguide.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "json/parser.h"

namespace fsdm::dataguide {
namespace {

// The paper's running example documents (Tables 1, 3, 5).
constexpr const char* kDoc1 =
    R"({"purchaseOrder":{"id":1,"podate":"2014-09-08",
        "items":[{"name":"phone","price":100,"quantity":2},
                 {"name":"ipad","price":350.86,"quantity":3}]}})";

constexpr const char* kDoc2 =
    R"({"purchaseOrder":{"id":2,"podate":"2015-03-04",
        "items":[{"name":"table","price":52.78,"quantity":2},
                 {"name":"chair","price":35.24,"quantity":4}]}})";

constexpr const char* kDoc3 =
    R"({"purchaseOrder":{"id":2,"podate":"2015-06-03","foreign_id":"CDEG35",
        "items":[
          {"name":"TV","price":345.55,"quantity":1,
           "parts":[{"partName":"remoteCon","partQuantity":"1"}]},
          {"name":"PC","price":546.78,"quantity":10,
           "parts":[{"partName":"mouse","partQuantity":"2"},
                    {"partName":"keyboard","partQuantity":"1"}]}]}})";

constexpr const char* kDoc5 =
    R"({"purchaseOrder":{"id":4,"podate":"2015-08-03",
        "items":[{"name":"SSD","price":200,"quantity":1}],
        "discount_items":[
          {"dis_itemName":"cable","dis_itemPrice":5,"dis_itemQuanitty":2,
           "dis_parts":[{"dis_partName":"plug","dis_partQuantity":3}]}]}})";

// path -> type string, from the guide.
std::map<std::string, std::string> TypeMap(const DataGuide& guide) {
  std::map<std::string, std::string> out;
  for (const PathEntry* e : guide.SortedEntries()) {
    // A path can appear once per node kind; last-in wins is fine for the
    // homogeneous fixtures, heterogeneity is tested separately.
    out[std::string(e->path)] = e->TypeString();
  }
  return out;
}

int MustAdd(DataGuide* guide, const char* doc) {
  Result<int> r = guide->AddJsonText(doc);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r.value() : -1;
}

TEST(DataGuideTest, PaperTable2) {
  // Two purchase orders produce exactly the $DG rows of Table 2.
  DataGuide guide;
  MustAdd(&guide, kDoc1);
  MustAdd(&guide, kDoc2);

  std::map<std::string, std::string> types = TypeMap(guide);
  std::map<std::string, std::string> expected = {
      {"$", "object"},
      {"$.purchaseOrder", "object"},
      {"$.purchaseOrder.id", "number"},
      {"$.purchaseOrder.podate", "string"},
      {"$.purchaseOrder.items", "array"},
      {"$.purchaseOrder.items.name", "array of string"},
      {"$.purchaseOrder.items.price", "array of number"},
      {"$.purchaseOrder.items.quantity", "array of number"},
  };
  // The items elements themselves add one "array of object" row.
  expected["$.purchaseOrder.items"] = types["$.purchaseOrder.items"];
  for (const auto& [path, type] : expected) {
    EXPECT_EQ(types[path], type) << path;
  }
  // Table 2 counts 7 rows (without '$' and the element-object row).
  EXPECT_EQ(guide.document_count(), 2u);
}

TEST(DataGuideTest, PaperTable4GrowsDeeper) {
  DataGuide guide;
  MustAdd(&guide, kDoc1);
  MustAdd(&guide, kDoc2);
  size_t before = guide.distinct_path_count();
  int added = MustAdd(&guide, kDoc3);
  EXPECT_GT(added, 0);
  EXPECT_EQ(guide.distinct_path_count(), before + static_cast<size_t>(added));

  std::map<std::string, std::string> types = TypeMap(guide);
  EXPECT_EQ(types["$.purchaseOrder.items.parts"], "array of array");
  EXPECT_EQ(types["$.purchaseOrder.items.parts.partName"],
            "array of string");
  EXPECT_EQ(types["$.purchaseOrder.items.parts.partQuantity"],
            "array of string");  // "1", "2" are strings in Table 3
  EXPECT_EQ(types["$.purchaseOrder.foreign_id"], "string");
}

TEST(DataGuideTest, PaperTable6GrowsWider) {
  DataGuide guide;
  MustAdd(&guide, kDoc1);
  MustAdd(&guide, kDoc3);
  int added = MustAdd(&guide, kDoc5);
  EXPECT_GT(added, 0);
  std::map<std::string, std::string> types = TypeMap(guide);
  EXPECT_EQ(types["$.purchaseOrder.discount_items"], "array");
  EXPECT_EQ(types["$.purchaseOrder.discount_items.dis_parts"],
            "array of array");
  EXPECT_EQ(types["$.purchaseOrder.discount_items.dis_parts.dis_partName"],
            "array of string");
  EXPECT_EQ(
      types["$.purchaseOrder.discount_items.dis_parts.dis_partQuantity"],
      "array of number");
  EXPECT_EQ(types["$.purchaseOrder.discount_items.dis_itemName"],
            "array of string");
  EXPECT_EQ(types["$.purchaseOrder.discount_items.dis_itemPrice"],
            "array of number");
  EXPECT_EQ(types["$.purchaseOrder.discount_items.dis_itemQuanitty"],
            "array of number");
}

TEST(DataGuideTest, IdenticalDocumentAddsNoPaths) {
  DataGuide guide;
  EXPECT_GT(MustAdd(&guide, kDoc1), 0);
  EXPECT_EQ(MustAdd(&guide, kDoc1), 0);  // fast common case (§3.2.1)
  EXPECT_EQ(MustAdd(&guide, kDoc2), 0);  // same structure, new values
  EXPECT_EQ(guide.document_count(), 3u);
}

TEST(DataGuideTest, ScalarTypeGeneralization) {
  // Number in one doc, string in another -> string (§3.1).
  DataGuide guide;
  MustAdd(&guide, R"({"a":{"b":5}})");
  MustAdd(&guide, R"({"a":{"b":"five"}})");
  const PathEntry* e = guide.Find("$.a.b", json::NodeKind::kScalar, false);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->TypeString(), "string");
  EXPECT_EQ(e->frequency, 2u);
}

TEST(DataGuideTest, KindConflictKeepsBothPaths) {
  // Scalar in one doc, object in another: both rows kept (§3.1's example).
  DataGuide guide;
  MustAdd(&guide, R"({"a":{"b":1}})");
  MustAdd(&guide, R"({"a":{"b":{"c":2}}})");
  EXPECT_NE(guide.Find("$.a.b", json::NodeKind::kScalar, false), nullptr);
  EXPECT_NE(guide.Find("$.a.b", json::NodeKind::kObject, false), nullptr);
  EXPECT_NE(guide.Find("$.a.b.c", json::NodeKind::kScalar, false), nullptr);
}

TEST(DataGuideTest, NullMergesIntoOtherTypes) {
  DataGuide guide;
  MustAdd(&guide, R"({"x":null})");
  const PathEntry* e = guide.Find("$.x", json::NodeKind::kScalar, false);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->TypeString(), "null");
  EXPECT_EQ(e->null_count, 1u);
  MustAdd(&guide, R"({"x":3})");
  e = guide.Find("$.x", json::NodeKind::kScalar, false);
  EXPECT_EQ(e->TypeString(), "number");
  EXPECT_EQ(e->null_count, 1u);
}

TEST(DataGuideTest, StatisticsMinMaxLengthFrequency) {
  DataGuide guide;
  MustAdd(&guide, R"({"p":10,"s":"ab"})");
  MustAdd(&guide, R"({"p":-5,"s":"abcdef"})");
  MustAdd(&guide, R"({"p":99})");
  const PathEntry* p = guide.Find("$.p", json::NodeKind::kScalar, false);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->frequency, 3u);
  EXPECT_EQ(p->min_value->AsInt64(), -5);
  EXPECT_EQ(p->max_value->AsInt64(), 99);
  const PathEntry* s = guide.Find("$.s", json::NodeKind::kScalar, false);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->frequency, 2u);
  EXPECT_EQ(s->max_length, 6u);
}

TEST(DataGuideTest, FrequencyCountsDocumentsNotOccurrences) {
  DataGuide guide;
  // 'name' occurs twice in the doc but in one document.
  MustAdd(&guide, kDoc1);
  const PathEntry* e =
      guide.Find("$.purchaseOrder.items.name", json::NodeKind::kScalar, true);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->frequency, 1u);
}

TEST(DataGuideTest, MergeEqualsSequentialAdds) {
  DataGuide a, b, merged;
  MustAdd(&a, kDoc1);
  MustAdd(&a, kDoc3);
  MustAdd(&b, kDoc5);
  MustAdd(&b, kDoc2);
  a.Merge(b);

  MustAdd(&merged, kDoc1);
  MustAdd(&merged, kDoc3);
  MustAdd(&merged, kDoc5);
  MustAdd(&merged, kDoc2);

  EXPECT_EQ(a.document_count(), merged.document_count());
  EXPECT_EQ(a.distinct_path_count(), merged.distinct_path_count());
  EXPECT_EQ(a.ToFlatJson(), merged.ToFlatJson());
}

TEST(DataGuideTest, MergeIsIdempotentOnStructure) {
  DataGuide a, b;
  MustAdd(&a, kDoc1);
  MustAdd(&b, kDoc1);
  size_t paths = a.distinct_path_count();
  a.Merge(b);
  EXPECT_EQ(a.distinct_path_count(), paths);
  EXPECT_EQ(a.document_count(), 2u);
}

// MemoryBytes() is a running total a snapshot thread may poll; it must
// always equal the walk over the entries and the dictionary.
TEST(DataGuideTest, MemoryBytesMatchesRecomputeAcrossAddsMergeAndCopy) {
  DataGuide a, b;
  EXPECT_EQ(a.MemoryBytes(), 0u);
  EXPECT_EQ(a.MemoryBytes(), a.RecomputeMemoryBytes());
  for (const char* doc : {kDoc1, kDoc2, kDoc3, kDoc1}) {
    MustAdd(&a, doc);
    ASSERT_EQ(a.MemoryBytes(), a.RecomputeMemoryBytes());
    ASSERT_EQ(a.paths().MemoryBytes(), a.paths().RecomputeMemoryBytes());
  }
  MustAdd(&b, kDoc5);
  a.Merge(b);
  EXPECT_EQ(a.MemoryBytes(), a.RecomputeMemoryBytes());
  EXPECT_GT(a.MemoryBytes(), b.MemoryBytes());

  DataGuide copy(a);
  EXPECT_EQ(copy.MemoryBytes(), copy.RecomputeMemoryBytes());
  MustAdd(&copy, R"({"fresh":{"path":1}})");
  EXPECT_EQ(copy.MemoryBytes(), copy.RecomputeMemoryBytes());
  EXPECT_GT(copy.MemoryBytes(), a.MemoryBytes());

  DataGuide moved(std::move(copy));
  EXPECT_EQ(moved.MemoryBytes(), moved.RecomputeMemoryBytes());
  EXPECT_EQ(copy.MemoryBytes(), copy.RecomputeMemoryBytes());
}

TEST(DataGuideTest, FlatJsonIsValidAndComplete) {
  DataGuide guide;
  MustAdd(&guide, kDoc1);
  std::string flat = guide.ToFlatJson();
  auto parsed = json::Parse(flat);
  ASSERT_TRUE(parsed.ok()) << flat;
  ASSERT_TRUE(parsed.value()->is_array());
  EXPECT_EQ(parsed.value()->array_size(), guide.distinct_path_count());
  // Every element has o:path, type, o:frequency.
  for (size_t i = 0; i < parsed.value()->array_size(); ++i) {
    const json::JsonNode* el = parsed.value()->element(i);
    EXPECT_NE(el->GetField("o:path"), nullptr);
    EXPECT_NE(el->GetField("type"), nullptr);
    EXPECT_NE(el->GetField("o:frequency"), nullptr);
  }
}

TEST(DataGuideTest, HierarchicalJsonIsValid) {
  DataGuide guide;
  MustAdd(&guide, kDoc1);
  MustAdd(&guide, kDoc5);
  std::string hier = guide.ToHierarchicalJson();
  auto parsed = json::Parse(hier);
  ASSERT_TRUE(parsed.ok()) << hier;
  const json::JsonNode* root = parsed.value().get();
  ASSERT_NE(root->GetField("properties"), nullptr);
  const json::JsonNode* po =
      root->GetField("properties")->GetField("purchaseOrder");
  ASSERT_NE(po, nullptr);
  EXPECT_NE(po->GetField("properties")->GetField("items"), nullptr);
}

TEST(DataGuideTest, SingletonScalarPaths) {
  DataGuide guide;
  MustAdd(&guide, kDoc3);
  std::vector<std::string> singles;
  for (const PathEntry* e : guide.SingletonScalarPaths()) {
    singles.emplace_back(e->path);
  }
  EXPECT_EQ(singles, (std::vector<std::string>{
                         "$.purchaseOrder.foreign_id", "$.purchaseOrder.id",
                         "$.purchaseOrder.podate"}));
}

TEST(DataGuideTest, ArrayOfScalarsDirectly) {
  DataGuide guide;
  MustAdd(&guide, R"({"tags":["a","b",3]})");
  const PathEntry* arr = guide.Find("$.tags", json::NodeKind::kArray, false);
  ASSERT_NE(arr, nullptr);
  EXPECT_EQ(arr->TypeString(), "array");
  const PathEntry* el = guide.Find("$.tags", json::NodeKind::kScalar, true);
  ASSERT_NE(el, nullptr);
  EXPECT_EQ(el->TypeString(), "array of string");  // string+number -> string
}

TEST(DataGuideTest, NestedArraysOfArrays) {
  DataGuide guide;
  MustAdd(&guide, R"({"m":[[1,2],[3]]})");
  EXPECT_NE(guide.Find("$.m", json::NodeKind::kArray, false), nullptr);
  const PathEntry* inner = guide.Find("$.m", json::NodeKind::kArray, true);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->TypeString(), "array of array");
  const PathEntry* leaf = guide.Find("$.m", json::NodeKind::kScalar, true);
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->TypeString(), "array of number");
}

TEST(DataGuideTest, EmptyContainers) {
  DataGuide guide;
  EXPECT_EQ(MustAdd(&guide, "{}"), 1);  // just '$'
  EXPECT_EQ(MustAdd(&guide, "[]"), 1);  // '$' as array
  EXPECT_NE(guide.Find("$", json::NodeKind::kObject, false), nullptr);
  EXPECT_NE(guide.Find("$", json::NodeKind::kArray, false), nullptr);
}

}  // namespace
}  // namespace fsdm::dataguide
