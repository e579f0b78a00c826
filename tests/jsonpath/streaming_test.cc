#include "jsonpath/streaming.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "json/parser.h"
#include "jsonpath/evaluator.h"
#include "workloads/generators.h"

namespace fsdm::jsonpath {
namespace {

PathExpression P(const char* text) {
  return PathExpression::Parse(text).MoveValue();
}

constexpr const char* kDoc = R"({
  "purchaseOrder": {
    "id": 7, "podate": "2015-03-04",
    "items": [
      {"name": "phone", "price": 100},
      {"name": "ipad", "price": 350.86}
    ],
    "empty_arr": [],
    "nested": {"deep": {"leaf": true}}
  }
})";

TEST(StreamingTest, CanStreamClassification) {
  EXPECT_TRUE(StreamingPathEngine::CanStream(P("$")));
  EXPECT_TRUE(StreamingPathEngine::CanStream(P("$.a.b.c")));
  EXPECT_TRUE(StreamingPathEngine::CanStream(P("$.a.b[*]")));
  EXPECT_FALSE(StreamingPathEngine::CanStream(P("$.a[*].b")));
  EXPECT_FALSE(StreamingPathEngine::CanStream(P("$.a[0]")));
  EXPECT_FALSE(StreamingPathEngine::CanStream(P("$..a")));
  EXPECT_FALSE(StreamingPathEngine::CanStream(P("$.a?(@.b == 1)")));
  EXPECT_FALSE(StreamingPathEngine::CanStream(P("$.*")));
}

TEST(StreamingTest, FirstScalarBasics) {
  auto v = StreamingPathEngine::FirstScalar(kDoc, P("$.purchaseOrder.id"));
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v.value().has_value());
  EXPECT_EQ(v.value()->AsInt64(), 7);

  v = StreamingPathEngine::FirstScalar(kDoc,
                                       P("$.purchaseOrder.nested.deep.leaf"));
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v.value()->AsBool());

  // Missing path.
  v = StreamingPathEngine::FirstScalar(kDoc, P("$.purchaseOrder.ghost"));
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v.value().has_value());

  // Container target -> nullopt (same as the DOM engine's FirstScalar).
  v = StreamingPathEngine::FirstScalar(kDoc, P("$.purchaseOrder.items"));
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v.value().has_value());
}

TEST(StreamingTest, LaxArrayUnwrapThroughMemberSteps) {
  // .name through the items array: first element's name.
  auto v = StreamingPathEngine::FirstScalar(
      kDoc, P("$.purchaseOrder.items.name"));
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v.value().has_value());
  EXPECT_EQ(v.value()->AsString(), "phone");
}

TEST(StreamingTest, TrailingStar) {
  // items[*] -> first element is an object -> container -> nullopt, but
  // exists is true.
  auto v = StreamingPathEngine::FirstScalar(
      kDoc, P("$.purchaseOrder.items[*]"));
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v.value().has_value());
  auto e = StreamingPathEngine::Exists(kDoc, P("$.purchaseOrder.items[*]"));
  EXPECT_TRUE(e.value());
  // Empty array: no elements -> not exists.
  e = StreamingPathEngine::Exists(kDoc, P("$.purchaseOrder.empty_arr[*]"));
  EXPECT_FALSE(e.value());
  // But the array node itself exists.
  e = StreamingPathEngine::Exists(kDoc, P("$.purchaseOrder.empty_arr"));
  EXPECT_TRUE(e.value());
  // [*] on a scalar: lax singleton.
  v = StreamingPathEngine::FirstScalar(kDoc, P("$.purchaseOrder.id[*]"));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value()->AsInt64(), 7);
}

TEST(StreamingTest, LaxUnwrapIsOneLevelDeep) {
  // Member steps unwrap one array level; an array nested inside it matches
  // nothing. A [*]-selected element that is itself an array is a container
  // result. The DOM engine agrees on each case.
  struct Case {
    const char* doc;
    const char* path;
    std::optional<int64_t> value;
    bool exists;
  };
  for (const Case& c : {Case{R"({"a":[[{"b":1}],{"b":2}]})", "$.a.b", 2, true},
                        Case{R"([[{"b":1}]])", "$.b", std::nullopt, false},
                        Case{R"([7,[{"b":1}],{"b":3}])", "$.b", 3, true},
                        Case{R"({"a":[[1,2],3]})", "$.a[*]", std::nullopt,
                             true}}) {
    PathExpression path = P(c.path);
    auto v = StreamingPathEngine::FirstScalar(c.doc, path);
    ASSERT_TRUE(v.ok()) << c.doc;
    ASSERT_EQ(v.value().has_value(), c.value.has_value()) << c.doc;
    if (c.value.has_value()) EXPECT_EQ(v.value()->AsInt64(), *c.value);
    EXPECT_EQ(StreamingPathEngine::Exists(c.doc, path).value(), c.exists)
        << c.doc;

    auto tree = json::Parse(c.doc).MoveValue();
    json::TreeDom dom(tree.get());
    PathEvaluator eval(&path);
    auto via_dom = eval.FirstScalar(dom);
    ASSERT_TRUE(via_dom.ok());
    EXPECT_EQ(via_dom.value().has_value(), c.value.has_value()) << c.doc;
    EXPECT_EQ(eval.Exists(dom).value(), c.exists) << c.doc;
  }
}

TEST(StreamingTest, UnsupportedPathsReportUnsupported) {
  auto v = StreamingPathEngine::FirstScalar(kDoc, P("$.a[0]"));
  EXPECT_EQ(v.status().code(), StatusCode::kUnsupported);
}

TEST(StreamingTest, MalformedTextReportsParseError) {
  auto v = StreamingPathEngine::FirstScalar("{oops", P("$.a"));
  EXPECT_EQ(v.status().code(), StatusCode::kParseError);
}

TEST(StreamingTest, EarlyExitToleratesTrailingGarbageAfterMatch) {
  // The engine stops parsing at the first match; garbage after the match
  // point is never seen. (Documents that fail IS JSON never reach the
  // engine, so this is a pure short-circuit behavior check.)
  std::string doc = R"({"a": 1, "b": )";  // truncated after the match
  auto v = StreamingPathEngine::FirstScalar(doc, P("$.a"));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value()->AsInt64(), 1);
}

// Property: for every streamable path, streaming and DOM engines agree on
// random generated documents.
class StreamingEquivalenceTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(StreamingEquivalenceTest, MatchesDomEngine) {
  PathExpression path = P(GetParam());
  ASSERT_TRUE(StreamingPathEngine::CanStream(path));
  PathEvaluator dom_eval(&path);

  Rng rng(77);
  for (int i = 0; i < 40; ++i) {
    std::string doc = workloads::Nobench(&rng, i);
    auto tree = json::Parse(doc).MoveValue();
    json::TreeDom dom(tree.get());

    Result<std::optional<Value>> via_dom = dom_eval.FirstScalar(dom);
    Result<std::optional<Value>> via_stream =
        StreamingPathEngine::FirstScalar(doc, path);
    ASSERT_TRUE(via_dom.ok());
    ASSERT_TRUE(via_stream.ok());
    ASSERT_EQ(via_dom.value().has_value(), via_stream.value().has_value())
        << GetParam() << " doc " << i;
    if (via_dom.value().has_value()) {
      EXPECT_TRUE(
          via_dom.value()->EqualsForGrouping(*via_stream.value()))
          << GetParam();
    }

    Result<bool> e_dom = dom_eval.Exists(dom);
    Result<bool> e_stream = StreamingPathEngine::Exists(doc, path);
    ASSERT_TRUE(e_dom.ok());
    ASSERT_TRUE(e_stream.ok());
    EXPECT_EQ(e_dom.value(), e_stream.value()) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Paths, StreamingEquivalenceTest,
                         ::testing::Values("$.str1", "$.num",
                                           "$.nested_obj.str",
                                           "$.nested_obj.missing",
                                           "$.nested_arr[*]", "$.sparse_110",
                                           "$.dyn1", "$.bool",
                                           "$.nested_arr", "$"));

}  // namespace
}  // namespace fsdm::jsonpath
