#include "telemetry/trace.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>

namespace fsdm::telemetry {

uint64_t OperatorSpan::RowsIn() const {
  uint64_t n = 0;
  for (const std::unique_ptr<OperatorSpan>& c : children) {
    n += c->rows_out.load(std::memory_order_relaxed);
  }
  return n;
}

std::unique_ptr<OperatorSpan> MakeSpan(std::string name, std::string detail) {
  auto span = std::make_unique<OperatorSpan>();
  span->name = std::move(name);
  span->detail = std::move(detail);
  return span;
}

namespace {

std::string FormatUs(double us) {
  char buf[48];
  if (us >= 1000.0) {
    std::snprintf(buf, sizeof(buf), "%.3f ms", us / 1000.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f us", us);
  }
  return buf;
}

}  // namespace

void RenderSpanTree(const OperatorSpan& span, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += span.name;
  if (!span.detail.empty()) *out += " (" + span.detail + ")";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "  rows_in=%llu rows_out=%llu time=",
                static_cast<unsigned long long>(span.RowsIn()),
                static_cast<unsigned long long>(
                    span.rows_out.load(std::memory_order_relaxed)));
  *out += buf;
  *out += FormatUs(span.elapsed_us);
  if (span.shard >= 0) {
    std::snprintf(buf, sizeof(buf), " [shard=%d worker=%d]", span.shard,
                  span.worker.load(std::memory_order_relaxed));
    *out += buf;
  }
  *out += "\n";
  for (const std::unique_ptr<OperatorSpan>& c : span.children) {
    RenderSpanTree(*c, depth + 1, out);
  }
}

DeferredText::DeferredText(const char* format,
                           std::initializer_list<Arg> args)
    : format_(format), arg_count_(static_cast<uint8_t>(args.size())) {
  assert(args.size() <= kMaxArgs);
  std::copy(args.begin(), args.end(), args_.begin());
}

DeferredText& DeferredText::Own() {
  if (format_ != nullptr) {
    text_ = Render();
    format_ = nullptr;
    arg_count_ = 0;
  }
  return *this;
}

std::string DeferredText::Render() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void DeferredText::AppendTo(std::string* out) const {
  if (format_ == nullptr) {
    *out += text_;
    return;
  }
  if (arg_count_ == 0) {
    *out += format_;
    return;
  }
  size_t next = 0;
  for (const char* p = format_; *p != '\0'; ++p) {
    const char* close = *p == '{' ? std::strchr(p, '}') : nullptr;
    if (close == nullptr || next == arg_count_) {
      out->push_back(*p);
      continue;
    }
    const Arg& arg = args_[next++];
    char buf[32];
    switch (arg.kind_) {
      case Arg::kText:
        *out += arg.text_;
        break;
      case Arg::kCount:
        *out += std::to_string(arg.count_);
        break;
      case Arg::kReal:
        std::snprintf(buf, sizeof(buf),
                      std::string_view(p, close + 1 - p) == "{.2}" ? "%.2f"
                                                                   : "%.1f",
                      arg.real_);
        *out += buf;
        break;
    }
    p = close;
  }
}

std::string RouterCandidate::Label() const {
  if (shard < 0) return std::string(access_path);
  return "shard " + std::to_string(shard) + " -> " + std::string(access_path);
}

std::string RouterDecision::Render() const {
  std::string out = "access path: ";
  out += winner;
  out += " -- ";
  reason_text.AppendTo(&out);
  out += "\n";
  out += "candidates:\n";
  for (const RouterCandidate& c : candidates) {
    out += c.chosen ? "  [x] " : (c.eligible ? "  [~] " : "  [ ] ");
    out += c.Label();
    if (out.back() != ' ') out += ' ';
    // Pad to a fixed column so the details line up.
    size_t line_start = out.rfind('\n') + 1;
    size_t width = out.size() - line_start;
    if (width < 26) out.append(26 - width, ' ');
    if (c.est_cost_us >= 0) {
      char est[64];
      std::snprintf(est, sizeof(est), "est %.1f rows / %.2f us -- ",
                    c.est_rows, c.est_cost_us);
      out += est;
    }
    c.detail_text.AppendTo(&out);
    out += "\n";
  }
  return out;
}

std::string QueryTrace::Render() const {
  std::string out = "EXPLAIN ANALYZE\n";
  out += decision.Render();
  if (decision.est_out_rows >= 0 && root != nullptr) {
    // Estimated-vs-actual cardinality: the root span's rows_out is the
    // plan's final output (0 until the plan has been drained).
    char line[96];
    std::snprintf(line, sizeof(line),
                  "estimated rows: %.1f  actual rows: %llu\n",
                  decision.est_out_rows,
                  static_cast<unsigned long long>(
                      root->rows_out.load(std::memory_order_relaxed)));
    out += line;
  }
  if (root != nullptr) {
    out += "plan:\n";
    RenderSpanTree(*root, 1, &out);
  }
  return out;
}

}  // namespace fsdm::telemetry
