#include "json/serializer.h"

#include <cstdio>

namespace fsdm::json {

namespace {

void SerializeNode(const Dom& dom, Dom::NodeRef node,
                   const SerializeOptions& options, int indent,
                   std::string* out) {
  auto newline = [&](int level) {
    if (options.pretty) {
      out->push_back('\n');
      out->append(static_cast<size_t>(level) * 2, ' ');
    }
  };
  switch (dom.GetNodeType(node)) {
    case NodeKind::kObject: {
      size_t n = dom.GetFieldCount(node);
      out->push_back('{');
      for (size_t i = 0; i < n; ++i) {
        if (i > 0) out->push_back(',');
        newline(indent + 1);
        std::string_view name;
        Dom::NodeRef child;
        dom.GetFieldAt(node, i, &name, &child);
        AppendQuoted(out, name);
        out->push_back(':');
        if (options.pretty) out->push_back(' ');
        SerializeNode(dom, child, options, indent + 1, out);
      }
      if (n > 0) newline(indent);
      out->push_back('}');
      break;
    }
    case NodeKind::kArray: {
      size_t n = dom.GetArrayLength(node);
      out->push_back('[');
      for (size_t i = 0; i < n; ++i) {
        if (i > 0) out->push_back(',');
        newline(indent + 1);
        SerializeNode(dom, dom.GetArrayElement(node, i), options, indent + 1,
                      out);
      }
      if (n > 0) newline(indent);
      out->push_back(']');
      break;
    }
    case NodeKind::kScalar: {
      Value v;
      Status st = dom.GetScalarValue(node, &v);
      if (!st.ok()) {
        out->append("null");
        return;
      }
      AppendScalar(out, v);
      break;
    }
  }
}

}  // namespace

void AppendQuoted(std::string* out, std::string_view s) {
  out->push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

void AppendScalar(std::string* out, const Value& value) {
  switch (value.type()) {
    case ScalarType::kNull:
      out->append("null");
      break;
    case ScalarType::kBool:
      out->append(value.AsBool() ? "true" : "false");
      break;
    case ScalarType::kInt64:
      out->append(std::to_string(value.AsInt64()));
      break;
    case ScalarType::kDouble:
      // Shortest round-trip form, via the shared Value formatter.
      out->append(value.ToDisplayString());
      break;
    case ScalarType::kDecimal:
      out->append(value.AsDecimal().ToString());
      break;
    case ScalarType::kString:
      AppendQuoted(out, value.AsString());
      break;
    case ScalarType::kDate: {
      char buf[24];
      snprintf(buf, sizeof(buf), "\"date:%d\"", value.AsDate());
      out->append(buf);
      break;
    }
    case ScalarType::kTimestamp: {
      char buf[40];
      snprintf(buf, sizeof(buf), "\"ts:%lld\"",
               static_cast<long long>(value.AsTimestamp()));
      out->append(buf);
      break;
    }
    case ScalarType::kBinary:
      AppendQuoted(out, value.AsBinary());
      break;
  }
}

std::string Serialize(const Dom& dom, const SerializeOptions& options) {
  return Serialize(dom, dom.root(), options);
}

std::string Serialize(const Dom& dom, Dom::NodeRef node,
                      const SerializeOptions& options) {
  std::string out;
  SerializeNode(dom, node, options, 0, &out);
  return out;
}

std::string Serialize(const JsonNode& node, const SerializeOptions& options) {
  TreeDom dom(&node);
  return Serialize(dom, options);
}

}  // namespace fsdm::json
