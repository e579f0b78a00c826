#include "jsonpath/streaming.h"

#include <vector>

#include "json/parser.h"

namespace fsdm::jsonpath {

namespace {

// Handler-internal sentinel: aborts the parse once the answer is known.
constexpr const char* kDoneMarker = "__fsdm_stream_done__";

bool IsDone(const Status& st) {
  return st.code() == StatusCode::kInternal && st.message() == kDoneMarker;
}

constexpr int kDead = -1;

/// Event-stream matcher for member-only paths (optional trailing [*]).
/// Mirrors the DOM engine's lax semantics: member steps unwrap one array
/// level (object elements inherit the match progress; nested arrays and
/// scalar elements go dead), and a trailing [*] on a non-array selects the
/// node itself.
class Matcher final : public json::JsonEventHandler {
 public:
  Matcher(const PathExpression& path, bool want_value)
      : want_value_(want_value) {
    for (const Step& s : path.steps()) {
      if (s.kind == StepKind::kMember) {
        names_.push_back(s.name);
      } else {
        trailing_star_ = true;  // validated by CanStream
      }
    }
    k_ = static_cast<int>(names_.size());
  }

  bool found() const { return found_; }
  const std::optional<Value>& value() const { return value_; }

  Status OnStartObject() override {
    int p = TakeValueProgress();
    // A selected object: the node itself is the result (a container).
    if (IsResult(p, /*is_array=*/false)) return Emit(std::nullopt);
    frames_.push_back(Frame{/*is_object=*/true, /*progress=*/p,
                            /*emit_elements=*/false});
    return Status::Ok();
  }

  Status OnEndObject() override {
    frames_.pop_back();
    return Status::Ok();
  }

  Status OnStartArray() override {
    int p = TakeValueProgress();
    // A selected element that is itself an array is a container result.
    if (p == kEmitElement) return Emit(std::nullopt);
    // Lax mode unwraps one level only: an array nested in an array the
    // chain is unwrapping matches nothing.
    if (!frames_.empty() && !frames_.back().is_object) p = kDead;
    bool emit_elements = false;
    if (p == k_) {
      if (trailing_star_) {
        // Selected array + [*]: its elements are the results.
        emit_elements = true;
      } else {
        // Selected array without [*]: the array itself is the result.
        return Emit(std::nullopt);
      }
    }
    frames_.push_back(Frame{/*is_object=*/false, p, emit_elements});
    return Status::Ok();
  }

  Status OnEndArray() override {
    frames_.pop_back();
    return Status::Ok();
  }

  Status OnKey(std::string_view key) override {
    const Frame& frame = frames_.back();
    if (frame.progress >= 0 && frame.progress < k_ &&
        key == names_[frame.progress]) {
      next_progress_ = frame.progress + 1;
    } else {
      next_progress_ = kDead;
    }
    return Status::Ok();
  }

  Status OnString(std::string_view s) override {
    return ScalarEvent([&] { return Value::String(std::string(s)); });
  }
  Status OnNumber(std::string_view text) override {
    return ScalarEvent([&]() -> Value {
      Result<Value> v = json::NumberTextToValue(text);
      return v.ok() ? v.MoveValue() : Value::Null();
    });
  }
  Status OnBool(bool b) override {
    return ScalarEvent([&] { return Value::Bool(b); });
  }
  Status OnNull() override {
    return ScalarEvent([] { return Value::Null(); });
  }

 private:
  struct Frame {
    bool is_object;
    int progress;        // match progress for members/elements within
    bool emit_elements;  // selected array with trailing [*]
  };

  // Progress assigned to the value event happening now, derived from the
  // enclosing frame (or the root).
  int TakeValueProgress() {
    if (frames_.empty()) return 0;  // root value
    const Frame& frame = frames_.back();
    if (frame.is_object) {
      int p = next_progress_;
      next_progress_ = kDead;
      return p;
    }
    // Array element.
    if (frame.emit_elements) return kEmitElement;
    return frame.progress;  // lax unwrap: inherited by object elements;
                            // scalar/array element cases handled by caller
  }

  // Is a node with progress p (possibly kEmitElement) a result?
  bool IsResult(int p, bool is_array) {
    if (p == kEmitElement) return true;
    if (p != k_) return false;
    if (!trailing_star_) return true;
    // Trailing [*]: arrays defer to their elements; handled in
    // OnStartArray. Non-arrays select the node itself (lax).
    return !is_array;
  }

  template <typename MakeValue>
  Status ScalarEvent(const MakeValue& make_value) {
    int p = TakeValueProgress();
    // A fully-matched scalar is a result; a trailing [*] on a scalar also
    // selects the scalar itself (lax singleton treatment).
    if (p == kEmitElement || p == k_) return Emit(make_value());
    return Status::Ok();
  }

  Status Emit(std::optional<Value> v) {
    found_ = true;
    if (want_value_) value_ = std::move(v);
    return Status::Internal(kDoneMarker);
  }

  static constexpr int kEmitElement = -2;

  std::vector<std::string> names_;
  int k_ = 0;
  bool trailing_star_ = false;
  bool want_value_;
  std::vector<Frame> frames_;
  int next_progress_ = kDead;
  bool found_ = false;
  std::optional<Value> value_;
};

}  // namespace

bool StreamingPathEngine::CanStream(const PathExpression& path) {
  const std::vector<Step>& steps = path.steps();
  for (size_t i = 0; i < steps.size(); ++i) {
    if (steps[i].kind == StepKind::kMember) continue;
    if (steps[i].kind == StepKind::kArrayWildcard && i + 1 == steps.size()) {
      continue;  // single trailing [*]
    }
    return false;
  }
  return true;
}

namespace {

Result<Matcher> RunMatcher(std::string_view json_text,
                           const PathExpression& path, bool want_value) {
  if (!StreamingPathEngine::CanStream(path)) {
    return Status::Unsupported("path not streamable: " + path.ToString());
  }
  Matcher matcher(path, want_value);
  Status st = json::ParseEvents(json_text, &matcher);
  if (!st.ok() && !IsDone(st)) return st;
  return matcher;
}

}  // namespace

Result<bool> StreamingPathEngine::Exists(std::string_view json_text,
                                         const PathExpression& path) {
  FSDM_ASSIGN_OR_RETURN(Matcher matcher,
                        RunMatcher(json_text, path, /*want_value=*/false));
  return matcher.found();
}

Result<std::optional<Value>> StreamingPathEngine::FirstScalar(
    std::string_view json_text, const PathExpression& path) {
  FSDM_ASSIGN_OR_RETURN(Matcher matcher,
                        RunMatcher(json_text, path, /*want_value=*/true));
  if (!matcher.found()) return std::optional<Value>(std::nullopt);
  return matcher.value();
}

}  // namespace fsdm::jsonpath
