#ifndef FSDM_JSON_NODE_H_
#define FSDM_JSON_NODE_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/value.h"

namespace fsdm::json {

/// The three JSON tree node kinds of the paper's data model (§3.1).
enum class NodeKind : uint8_t { kObject = 0, kArray = 1, kScalar = 2 };

std::string_view NodeKindName(NodeKind kind);

/// Mutable in-memory JSON DOM node. Objects preserve insertion order of
/// fields (serialization fidelity); lookup is linear, which is fine for the
/// build/encode path — query-time navigation goes through OsonDom instead.
class JsonNode {
 public:
  static std::unique_ptr<JsonNode> MakeObject() {
    return std::unique_ptr<JsonNode>(new JsonNode(NodeKind::kObject));
  }
  static std::unique_ptr<JsonNode> MakeArray() {
    return std::unique_ptr<JsonNode>(new JsonNode(NodeKind::kArray));
  }
  static std::unique_ptr<JsonNode> MakeScalar(Value value) {
    auto n = std::unique_ptr<JsonNode>(new JsonNode(NodeKind::kScalar));
    n->scalar_ = std::move(value);
    return n;
  }
  static std::unique_ptr<JsonNode> MakeString(std::string s) {
    return MakeScalar(Value::String(std::move(s)));
  }
  static std::unique_ptr<JsonNode> MakeNumber(int64_t v) {
    return MakeScalar(Value::Int64(v));
  }
  static std::unique_ptr<JsonNode> MakeNumber(double v) {
    return MakeScalar(Value::Double(v));
  }
  static std::unique_ptr<JsonNode> MakeBool(bool v) {
    return MakeScalar(Value::Bool(v));
  }
  static std::unique_ptr<JsonNode> MakeNull() {
    return MakeScalar(Value::Null());
  }

  JsonNode(const JsonNode&) = delete;
  JsonNode& operator=(const JsonNode&) = delete;

  NodeKind kind() const { return kind_; }
  bool is_object() const { return kind_ == NodeKind::kObject; }
  bool is_array() const { return kind_ == NodeKind::kArray; }
  bool is_scalar() const { return kind_ == NodeKind::kScalar; }

  // --- Object API ---
  size_t field_count() const { return fields_.size(); }
  const std::string& field_name(size_t i) const { return fields_[i].first; }
  const JsonNode* field_value(size_t i) const { return fields_[i].second.get(); }
  JsonNode* mutable_field_value(size_t i) { return fields_[i].second.get(); }
  /// nullptr when absent.
  const JsonNode* GetField(std::string_view name) const;
  /// Appends; does not replace or reject duplicates. json::Parse keeps
  /// them too unless ParseOptions::reject_duplicate_keys is set, as it
  /// is for collection DML.
  JsonNode* AddField(std::string name, std::unique_ptr<JsonNode> child);

  // --- Array API ---
  size_t array_size() const { return elements_.size(); }
  const JsonNode* element(size_t i) const { return elements_[i].get(); }
  JsonNode* mutable_element(size_t i) { return elements_[i].get(); }
  JsonNode* Append(std::unique_ptr<JsonNode> child);

  // --- Scalar API ---
  const Value& scalar() const { return scalar_; }
  void set_scalar(Value v) { scalar_ = std::move(v); }

  /// Deep structural + value equality.
  bool Equals(const JsonNode& other) const;

  /// Deep copy.
  std::unique_ptr<JsonNode> Clone() const;

 private:
  explicit JsonNode(NodeKind kind) : kind_(kind) {}

  NodeKind kind_;
  std::vector<std::pair<std::string, std::unique_ptr<JsonNode>>> fields_;
  std::vector<std::unique_ptr<JsonNode>> elements_;
  Value scalar_;
};

}  // namespace fsdm::json

#endif  // FSDM_JSON_NODE_H_
