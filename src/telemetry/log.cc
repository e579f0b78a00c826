#include "telemetry/log.h"

#include <algorithm>
#include <cstdlib>

namespace fsdm::telemetry {

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "info";
}

LogLevel LogLevelFromEnv(LogLevel def) {
  const char* env = std::getenv("FSDM_LOG_LEVEL");
  if (env == nullptr || env[0] == '\0') return def;
  const std::string_view v(env);
  if (v == "debug") return LogLevel::kDebug;
  if (v == "info") return LogLevel::kInfo;
  if (v == "warn") return LogLevel::kWarn;
  if (v == "error") return LogLevel::kError;
  if (v == "off") return LogLevel::kOff;
  return def;
}

namespace {

void AppendLogArg(std::string* out, const TraceArg& a) {
  *out += '"';
  *out += JsonEscape(a.key);
  *out += "\":";
  if (a.is_text) {
    *out += '"';
    *out += JsonEscape(a.text);
    *out += '"';
  } else {
    AppendJsonNumber(out, a.number);
  }
}

}  // namespace

std::string LogRecord::ArgsJson() const {
  std::string out = "{";
  for (const TraceArg& a : args) {
    if (a.key == nullptr) break;
    if (out.size() > 1) out += ",";
    AppendLogArg(&out, a);
  }
  out += "}";
  return out;
}

std::string LogRecord::ToJsonLine() const {
  std::string out = "{\"ts_us\":";
  AppendJsonNumber(&out, static_cast<double>(ts_us));
  out += ",\"thread\":";
  AppendJsonNumber(&out, static_cast<double>(tid));
  out += ",\"level\":\"";
  out += LogLevelName(level);
  out += "\",\"component\":\"";
  out += JsonEscape(component);
  out += "\",\"event_id\":";
  AppendJsonNumber(&out, static_cast<double>(event_id));
  out += ",\"message\":\"";
  out += JsonEscape(message);
  out += "\",\"args\":";
  out += ArgsJson();
  out += "}";
  return out;
}

EngineLog& EngineLog::Global() {
  static EngineLog* log = new EngineLog();
  return *log;
}

EngineLog::EngineLog()
    : level_(static_cast<uint8_t>(LogLevelFromEnv(LogLevel::kInfo))) {}

Ring<LogRecord>* EngineLog::RingForThisThread() {
  thread_local Ring<LogRecord>* cached = rings_.Register();
  return cached;
}

void EngineLog::SetRateLimit(double burst, double per_sec) {
  std::lock_guard<std::mutex> lock(bucket_mu_);
  bucket_burst_ = burst > 0 ? burst : 1;
  bucket_per_sec_ = per_sec >= 0 ? per_sec : 0;
  buckets_.clear();
}

bool EngineLog::Admit(uint16_t event_id, uint64_t now_us) {
  std::lock_guard<std::mutex> lock(bucket_mu_);
  auto [it, inserted] =
      buckets_.try_emplace(event_id, TokenBucket{bucket_burst_, now_us});
  TokenBucket& b = it->second;
  if (!inserted) {
    const double refill = static_cast<double>(now_us - b.last_us) *
                          bucket_per_sec_ / 1e6;
    b.tokens = std::min(bucket_burst_, b.tokens + refill);
    b.last_us = now_us;
  }
  if (b.tokens < 1.0) return false;
  b.tokens -= 1.0;
  return true;
}

void EngineLog::EmitImpl(LogLevel level, const char* component,
                         uint16_t event_id, std::string_view msg,
                         const LogArg* a0, const LogArg* a1) {
  const uint64_t now = MonotonicNowUs();
  if (!Admit(event_id, now)) {
    rate_limited_.fetch_add(1, std::memory_order_relaxed);
    FSDM_COUNT("fsdm_log_dropped_total", 1);
    return;
  }
  Ring<LogRecord>* ring = RingForThisThread();
  LogRecord rec;
  rec.ts_us = now;
  rec.tid = ring->tid();
  rec.level = level;
  rec.event_id = event_id;
  rec.component = component;
  rec.SetMessage(msg);
  int slot = 0;
  for (const LogArg* a : {a0, a1}) {
    if (a == nullptr || a->key == nullptr) continue;
    if (a->is_text) {
      rec.args[slot].SetText(a->key, a->text);
    } else {
      rec.args[slot].SetNumber(a->key, a->number);
    }
    ++slot;
  }
  if (ring->Push(rec)) {
    FSDM_COUNT("fsdm_log_dropped_total", 1);
  }
  total_records_.fetch_add(1, std::memory_order_relaxed);
  FSDM_COUNT("fsdm_log_records_total", 1);
}

std::vector<LogRecord> EngineLog::SnapshotLast(size_t n) const {
  std::vector<LogRecord> all = Snapshot();
  if (all.size() > n) {
    all.erase(all.begin(), all.end() - static_cast<ptrdiff_t>(n));
  }
  return all;
}

uint64_t EngineLog::TotalDropped() const {
  return rate_limited_.load(std::memory_order_relaxed) + rings_.TotalDropped();
}

void EngineLog::Reset() {
  rings_.Clear();
  {
    std::lock_guard<std::mutex> lock(bucket_mu_);
    buckets_.clear();
  }
  total_records_.store(0, std::memory_order_relaxed);
  rate_limited_.store(0, std::memory_order_relaxed);
}

}  // namespace fsdm::telemetry
