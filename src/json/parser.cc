#include "json/parser.h"

#include <cstdlib>
#include <forward_list>
#include <string>
#include <vector>

namespace fsdm::json {

namespace {

/// Recursive-descent tokenizer/parser over the raw text. Escaped strings are
/// decoded into a scratch buffer; unescaped strings are passed as views into
/// the input to avoid copies on the hot TEXT-mode path.
class EventParser {
 public:
  EventParser(std::string_view text, JsonEventHandler* handler,
              const ParseOptions& options)
      : p_(text.data()),
        end_(text.data() + text.size()),
        begin_(text.data()),
        handler_(handler),
        options_(options) {}

  Status Run() {
    SkipWs();
    FSDM_RETURN_NOT_OK(ParseValue(0));
    SkipWs();
    if (p_ != end_) return Error("trailing content after JSON value");
    return Status::Ok();
  }

 private:
  Status Error(const std::string& msg) const {
    return Status::ParseError(msg + " at offset " +
                              std::to_string(p_ - begin_));
  }

  void SkipWs() {
    while (p_ < end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }

  Status ParseValue(int depth) {
    if (depth > options_.max_depth) return Error("nesting too deep");
    if (p_ >= end_) return Error("unexpected end of input");
    switch (*p_) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        std::string_view s;
        FSDM_RETURN_NOT_OK(ParseString(&s));
        return handler_->OnString(s);
      }
      case 't':
        return ParseLiteral("true", [&] { return handler_->OnBool(true); });
      case 'f':
        return ParseLiteral("false", [&] { return handler_->OnBool(false); });
      case 'n':
        return ParseLiteral("null", [&] { return handler_->OnNull(); });
      default:
        return ParseNumber();
    }
  }

  template <typename Emit>
  Status ParseLiteral(std::string_view lit, Emit emit) {
    if (static_cast<size_t>(end_ - p_) < lit.size() ||
        std::string_view(p_, lit.size()) != lit) {
      return Error("invalid literal");
    }
    p_ += lit.size();
    return emit();
  }

  Status ParseObject(int depth) {
    ++p_;  // '{'
    FSDM_RETURN_NOT_OK(handler_->OnStartObject());
    SkipWs();
    if (p_ < end_ && *p_ == '}') {
      ++p_;
      return handler_->OnEndObject();
    }
    // This object's keys are the top of the per-parse key stack.
    const size_t first_key = keys_.size();
    while (true) {
      SkipWs();
      if (p_ >= end_ || *p_ != '"') return Error("expected object key");
      std::string_view key;
      FSDM_RETURN_NOT_OK(ParseString(&key));
      if (options_.reject_duplicate_keys) {
        FSDM_RETURN_NOT_OK(PushUniqueKey(key, first_key));
      }
      FSDM_RETURN_NOT_OK(handler_->OnKey(key));
      SkipWs();
      if (p_ >= end_ || *p_ != ':') return Error("expected ':'");
      ++p_;
      SkipWs();
      FSDM_RETURN_NOT_OK(ParseValue(depth + 1));
      SkipWs();
      if (p_ >= end_) return Error("unterminated object");
      if (*p_ == ',') {
        ++p_;
        continue;
      }
      if (*p_ == '}') {
        ++p_;
        keys_.resize(first_key);
        return handler_->OnEndObject();
      }
      return Error("expected ',' or '}'");
    }
  }

  /// Refuses a key the open object (keys from `first_key` on) already has;
  /// otherwise pushes it. An unescaped key is a view into the input; an
  /// escaped one lives in the reused scratch buffer, so it is copied.
  Status PushUniqueKey(std::string_view key, size_t first_key) {
    for (size_t i = first_key; i < keys_.size(); ++i) {
      if (keys_[i] == key) {
        return Error("duplicate object key '" + std::string(key) + "'");
      }
    }
    if (key.data() == scratch_.data()) {
      key = escaped_keys_.emplace_front(key);
    }
    keys_.push_back(key);
    return Status::Ok();
  }

  Status ParseArray(int depth) {
    ++p_;  // '['
    FSDM_RETURN_NOT_OK(handler_->OnStartArray());
    SkipWs();
    if (p_ < end_ && *p_ == ']') {
      ++p_;
      return handler_->OnEndArray();
    }
    while (true) {
      SkipWs();
      FSDM_RETURN_NOT_OK(ParseValue(depth + 1));
      SkipWs();
      if (p_ >= end_) return Error("unterminated array");
      if (*p_ == ',') {
        ++p_;
        continue;
      }
      if (*p_ == ']') {
        ++p_;
        return handler_->OnEndArray();
      }
      return Error("expected ',' or ']'");
    }
  }

  // Decodes a string token. Fast path: no escapes -> view into input.
  Status ParseString(std::string_view* out) {
    ++p_;  // opening quote
    const char* start = p_;
    while (p_ < end_) {
      unsigned char c = static_cast<unsigned char>(*p_);
      if (c == '"') {
        *out = std::string_view(start, p_ - start);
        ++p_;
        return Status::Ok();
      }
      if (c == '\\') break;
      if (c < 0x20) return Error("unescaped control character in string");
      ++p_;
    }
    if (p_ >= end_) return Error("unterminated string");

    // Slow path with escapes.
    scratch_.assign(start, p_ - start);
    while (p_ < end_) {
      unsigned char c = static_cast<unsigned char>(*p_);
      if (c == '"') {
        ++p_;
        *out = scratch_;
        return Status::Ok();
      }
      if (c < 0x20) return Error("unescaped control character in string");
      if (c != '\\') {
        scratch_.push_back(static_cast<char>(c));
        ++p_;
        continue;
      }
      ++p_;
      if (p_ >= end_) return Error("unterminated escape");
      switch (*p_) {
        case '"':
          scratch_.push_back('"');
          break;
        case '\\':
          scratch_.push_back('\\');
          break;
        case '/':
          scratch_.push_back('/');
          break;
        case 'b':
          scratch_.push_back('\b');
          break;
        case 'f':
          scratch_.push_back('\f');
          break;
        case 'n':
          scratch_.push_back('\n');
          break;
        case 'r':
          scratch_.push_back('\r');
          break;
        case 't':
          scratch_.push_back('\t');
          break;
        case 'u': {
          // ParseHex4 leaves p_ on the last hex digit; the shared ++p_
          // below then steps past the escape.
          uint32_t cp;
          FSDM_RETURN_NOT_OK(ParseHex4(&cp));
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate; require a following \uXXXX low surrogate.
            if (end_ - p_ < 3 || p_[1] != '\\' || p_[2] != 'u') {
              return Error("unpaired surrogate");
            }
            p_ += 3;  // now on the second 'u'
            uint32_t low;
            FSDM_RETURN_NOT_OK(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Error("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Error("unpaired surrogate");
          }
          AppendUtf8(cp);
          break;
        }
        default:
          return Error("invalid escape character");
      }
      ++p_;
    }
    return Error("unterminated string");
  }

  // Parses 4 hex digits following "\u"; on entry p_ points at 'u'.
  // On exit p_ points at the last hex digit.
  Status ParseHex4(uint32_t* out) {
    if (end_ - p_ < 5) return Error("truncated \\u escape");
    uint32_t v = 0;
    for (int i = 1; i <= 4; ++i) {
      char c = p_[i];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid hex digit in \\u escape");
      }
    }
    p_ += 4;  // now at last hex digit
    *out = v;
    return Status::Ok();
  }

  void AppendUtf8(uint32_t cp) {
    if (cp < 0x80) {
      scratch_.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      scratch_.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      scratch_.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      scratch_.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      scratch_.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      scratch_.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      scratch_.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      scratch_.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      scratch_.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      scratch_.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseNumber() {
    const char* start = p_;
    if (p_ < end_ && *p_ == '-') ++p_;
    if (p_ >= end_ || *p_ < '0' || *p_ > '9') return Error("invalid number");
    if (*p_ == '0') {
      ++p_;
    } else {
      while (p_ < end_ && *p_ >= '0' && *p_ <= '9') ++p_;
    }
    if (p_ < end_ && *p_ == '.') {
      ++p_;
      if (p_ >= end_ || *p_ < '0' || *p_ > '9') {
        return Error("digits required after decimal point");
      }
      while (p_ < end_ && *p_ >= '0' && *p_ <= '9') ++p_;
    }
    if (p_ < end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ < end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      if (p_ >= end_ || *p_ < '0' || *p_ > '9') {
        return Error("digits required in exponent");
      }
      while (p_ < end_ && *p_ >= '0' && *p_ <= '9') ++p_;
    }
    return handler_->OnNumber(std::string_view(start, p_ - start));
  }

  const char* p_;
  const char* end_;
  const char* begin_;
  JsonEventHandler* handler_;
  const ParseOptions& options_;
  std::string scratch_;
  // Keys of the open objects, innermost last, when duplicates are refused.
  std::vector<std::string_view> keys_;
  std::forward_list<std::string> escaped_keys_;  // what keys_ points at
};

/// Builds a JsonNode tree from the event stream.
class DomBuilder final : public JsonEventHandler {
 public:
  std::unique_ptr<JsonNode> TakeRoot() { return std::move(root_); }

  Status OnStartObject() override {
    return Push(JsonNode::MakeObject());
  }
  Status OnEndObject() override {
    stack_.pop_back();
    return Status::Ok();
  }
  Status OnStartArray() override {
    return Push(JsonNode::MakeArray());
  }
  Status OnEndArray() override {
    stack_.pop_back();
    return Status::Ok();
  }
  Status OnKey(std::string_view key) override {
    pending_key_.assign(key);
    has_key_ = true;
    return Status::Ok();
  }
  Status OnString(std::string_view value) override {
    return Attach(JsonNode::MakeString(std::string(value)));
  }
  Status OnNumber(std::string_view text) override {
    FSDM_ASSIGN_OR_RETURN(Value v, NumberTextToValue(text));
    return Attach(JsonNode::MakeScalar(std::move(v)));
  }
  Status OnBool(bool value) override {
    return Attach(JsonNode::MakeBool(value));
  }
  Status OnNull() override { return Attach(JsonNode::MakeNull()); }

 private:
  // Containers both attach to the parent and become the new top of stack.
  Status Push(std::unique_ptr<JsonNode> node) {
    JsonNode* raw = node.get();
    FSDM_RETURN_NOT_OK(Attach(std::move(node)));
    stack_.push_back(raw);
    return Status::Ok();
  }

  Status Attach(std::unique_ptr<JsonNode> node) {
    if (stack_.empty()) {
      root_ = std::move(node);
      return Status::Ok();
    }
    JsonNode* parent = stack_.back();
    if (parent->is_object()) {
      if (!has_key_) return Status::Internal("object value without key");
      parent->AddField(std::move(pending_key_), std::move(node));
      pending_key_.clear();
      has_key_ = false;
    } else {
      parent->Append(std::move(node));
    }
    return Status::Ok();
  }

  std::unique_ptr<JsonNode> root_;
  std::vector<JsonNode*> stack_;
  std::string pending_key_;
  bool has_key_ = false;
};

/// Discards all events; used by Validate().
class NullHandler final : public JsonEventHandler {
 public:
  Status OnStartObject() override { return Status::Ok(); }
  Status OnEndObject() override { return Status::Ok(); }
  Status OnStartArray() override { return Status::Ok(); }
  Status OnEndArray() override { return Status::Ok(); }
  Status OnKey(std::string_view) override { return Status::Ok(); }
  Status OnString(std::string_view) override { return Status::Ok(); }
  Status OnNumber(std::string_view) override { return Status::Ok(); }
  Status OnBool(bool) override { return Status::Ok(); }
  Status OnNull() override { return Status::Ok(); }
};

}  // namespace

Status ParseEvents(std::string_view text, JsonEventHandler* handler,
                   const ParseOptions& options) {
  return EventParser(text, handler, options).Run();
}

Result<Value> NumberTextToValue(std::string_view text) {
  // Fast path: plain integer that fits int64 (<= 18 digits avoids overflow
  // checks entirely).
  bool plain_int = true;
  size_t digits = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '-' && i == 0) continue;
    if (c < '0' || c > '9') {
      plain_int = false;
      break;
    }
    ++digits;
  }
  if (plain_int && digits <= 18) {
    int64_t v = 0;
    bool neg = text[0] == '-';
    for (char c : text.substr(neg ? 1 : 0)) v = v * 10 + (c - '0');
    return Value::Int64(neg ? -v : v);
  }
  FSDM_ASSIGN_OR_RETURN(Decimal d, Decimal::FromString(text));
  // Keep integral values on the int64 fast path when they fit.
  if (d.IsInteger()) {
    Result<int64_t> i = d.ToInt64();
    if (i.ok()) return Value::Int64(i.value());
  }
  return Value::Dec(std::move(d));
}

Result<std::unique_ptr<JsonNode>> Parse(std::string_view text,
                                        const ParseOptions& options) {
  DomBuilder builder;
  FSDM_RETURN_NOT_OK(ParseEvents(text, &builder, options));
  return builder.TakeRoot();
}

Status Validate(std::string_view text, const ParseOptions& options) {
  NullHandler sink;
  return ParseEvents(text, &sink, options);
}

}  // namespace fsdm::json
