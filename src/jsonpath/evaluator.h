#ifndef FSDM_JSONPATH_EVALUATOR_H_
#define FSDM_JSONPATH_EVALUATOR_H_

#include <functional>
#include <optional>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "json/dom.h"
#include "jsonpath/path.h"

namespace fsdm::jsonpath {

/// DOM-based SQL/JSON path engine (paper §5.1). Works against the abstract
/// json::Dom interface, so the same compiled path runs over TreeDom (text
/// mode), BsonDom and OsonDom. Field steps call Dom::GetFieldValueHashed
/// with the hash precomputed at parse time and the step's cached field id,
/// which OsonDom turns into a dictionary binary search with single-document
/// look-back (§4.2.1).
///
/// Lax-mode semantics: member steps applied to an array iterate its
/// elements (one implicit unwrap level); subscript steps applied to a
/// non-array treat the node as a singleton array.
class PathEvaluator {
 public:
  /// The path must outlive the evaluator. The evaluator may be reused
  /// across documents (and should be — that is what makes the field-id
  /// cache effective).
  explicit PathEvaluator(const PathExpression* path)
      : path_(path), member_chain_(path->IsSingleton()) {}

  /// Calls `visit` for every node the path selects, in document order.
  /// The visitor may set *stop to end the traversal early.
  using Visitor = std::function<Status(json::Dom::NodeRef, bool* stop)>;
  Status Evaluate(const json::Dom& dom, const Visitor& visit) const;

  /// Evaluates with `context` standing in for '$' — JSON_TABLE NESTED PATH
  /// applies column and child row paths relative to the current row node.
  Status EvaluateFrom(const json::Dom& dom, json::Dom::NodeRef context,
                      const Visitor& visit) const;

  // FirstScalar, FirstScalarFrom and Exists take the Dom by its own type.
  // A member-chain path (PathExpression::IsSingleton()) is walked in a
  // loop with no visitor and no recursion; with a final Dom class (OsonDom,
  // BsonDom, TreeDom) every navigation call is a direct call. An array on
  // the chain, which lax mode would unwrap, sends the path to the general
  // evaluator instead. The choice depends only on the path's shape and the
  // kinds of the nodes on the chain, and both give the same answer.

  /// FirstScalar relative to a context node.
  template <typename DomT>
  Result<std::optional<Value>> FirstScalarFrom(
      const DomT& dom, json::Dom::NodeRef context) const {
    if (member_chain_) {
      json::Dom::NodeRef node = context;
      switch (WalkMemberChain(dom, &node)) {
        case Chain::kNothing:
          return std::optional<Value>();
        case Chain::kNode: {
          if (dom.GetNodeType(node) != json::NodeKind::kScalar) {
            return std::optional<Value>();
          }
          Value v;
          FSDM_RETURN_NOT_OK(dom.GetScalarValue(node, &v));
          return std::optional<Value>(std::move(v));
        }
        case Chain::kUnwrap:
          break;
      }
    }
    return FirstScalarGeneral(dom, context);
  }

  /// JSON_EXISTS: true when the path selects at least one node.
  template <typename DomT>
  Result<bool> Exists(const DomT& dom) const {
    if (member_chain_) {
      json::Dom::NodeRef node = dom.root();
      const Chain chain = WalkMemberChain(dom, &node);
      if (chain != Chain::kUnwrap) return chain == Chain::kNode;
    }
    return ExistsGeneral(dom);
  }

  /// JSON_VALUE: the first selected node's scalar value, or nullopt when
  /// the path selects nothing or selects a non-scalar.
  template <typename DomT>
  Result<std::optional<Value>> FirstScalar(const DomT& dom) const {
    return FirstScalarFrom(dom, dom.root());
  }

  /// All selected nodes (materialized; for JSON_QUERY and tests).
  Result<std::vector<json::Dom::NodeRef>> Select(const json::Dom& dom) const;

  const PathExpression& path() const { return *path_; }

 private:
  Status EvalSteps(const json::Dom& dom, json::Dom::NodeRef node,
                   const std::vector<Step>& steps, size_t idx,
                   const Visitor& visit, bool* stop) const;
  bool EvalFilter(const json::Dom& dom, json::Dom::NodeRef node,
                  const FilterExpr& expr) const;
  // True if the relative path from `node` yields any node satisfying
  // `pred` (pred == nullptr means mere existence).
  bool AnyRelMatch(const json::Dom& dom, json::Dom::NodeRef node,
                   const std::vector<Step>& rel,
                   const std::function<bool(json::Dom::NodeRef)>& pred) const;

  enum class Chain : uint8_t {
    kNode,     ///< the chain ends at *node
    kNothing,  ///< a field is missing, or a member step meets a scalar
    kUnwrap,   ///< an array sits on the chain: use the general evaluator
  };

  // The member-chain walker. Keeps §4.2.1's look-back: each step passes its
  // precomputed name hash and its cached field id.
  template <typename DomT>
  Chain WalkMemberChain(const DomT& dom, json::Dom::NodeRef* node) const {
    for (const Step& step : path_->steps()) {
      const json::NodeKind kind = dom.GetNodeType(*node);
      if (kind == json::NodeKind::kArray) return Chain::kUnwrap;
      if (kind != json::NodeKind::kObject) return Chain::kNothing;
      *node = dom.GetFieldValueHashed(*node, step.name, step.name_hash,
                                      &step.cached_field_id);
      if (*node == json::Dom::kInvalidNode) return Chain::kNothing;
    }
    return Chain::kNode;
  }

  // The general evaluator's FirstScalarFrom and Exists.
  Result<std::optional<Value>> FirstScalarGeneral(
      const json::Dom& dom, json::Dom::NodeRef context) const;
  Result<bool> ExistsGeneral(const json::Dom& dom) const;

  const PathExpression* path_;
  bool member_chain_;  // path_->IsSingleton()
};

}  // namespace fsdm::jsonpath

#endif  // FSDM_JSONPATH_EVALUATOR_H_
