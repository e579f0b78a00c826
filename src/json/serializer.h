#ifndef FSDM_JSON_SERIALIZER_H_
#define FSDM_JSON_SERIALIZER_H_

#include <string>

#include "json/dom.h"
#include "json/node.h"

namespace fsdm::json {

struct SerializeOptions {
  /// Pretty-print with 2-space indentation; default is the compact form the
  /// paper benchmarks against (all non-significant whitespace removed).
  bool pretty = false;
};

/// Serializes any Dom back to JSON text. Round-trips with Parse() up to
/// number canonicalization (1e2 -> 100).
std::string Serialize(const Dom& dom, const SerializeOptions& options = {});

/// The subtree of `dom` rooted at `node`.
std::string Serialize(const Dom& dom, Dom::NodeRef node,
                      const SerializeOptions& options = {});

/// Convenience over a node tree.
std::string Serialize(const JsonNode& node, const SerializeOptions& options = {});

/// Appends the JSON string-literal form of `s` (with quotes and escapes).
void AppendQuoted(std::string* out, std::string_view s);

/// Appends the JSON text for a scalar Value (dates/timestamps/binary render
/// as strings since JSON has no native form for them).
void AppendScalar(std::string* out, const Value& value);

}  // namespace fsdm::json

#endif  // FSDM_JSON_SERIALIZER_H_
