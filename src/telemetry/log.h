#ifndef FSDM_TELEMETRY_LOG_H_
#define FSDM_TELEMETRY_LOG_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "telemetry/ring.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_event.h"

/// Structured engine log (ISSUE 10 tentpole): the fifth observability
/// pillar. Where the flight recorder answers "what did the engine do, in
/// order", the log answers "what went WRONG, and why" — every lifecycle
/// and error path that used to fail silently (quarantine, WAL poisoning,
/// torn-tail truncation, degraded routing, fault fires) emits a
/// fixed-size structured record through the FSDM_LOG macro family.
///
/// Records land in per-thread rings of the same Ring<T> the flight
/// recorder uses (ring.h: fixed capacity, overwrite-oldest, per-ring mutex
/// for the push/snapshot handoff, rings leak so cached pointers stay
/// valid).
/// Unlike the recorder the log is ON by default: sites are rare (error
/// and lifecycle paths, never per-row), and the steady-state cost of a
/// suppressed site is one relaxed atomic load and a compare. The gate is
/// the level — FSDM_LOG_LEVEL (debug|info|warn|error|off, default info)
/// read once at first use, adjustable at runtime via SetLevel().
///
/// Each call site carries a STABLE NUMERIC EVENT ID (unique across the
/// tree, listed in README's "Log event reference" table and enforced by
/// scripts/check_log_events.py). Ids make records greppable across
/// message wording changes and give the per-event token-bucket rate
/// limiter its key: a looping failure (fsync erroring once per append)
/// cannot flush the ring.
///
/// Exposed as the TELEMETRY$LOG SQL relation and captured into incident
/// bundles (incident.h).

namespace fsdm::telemetry {

enum class LogLevel : uint8_t {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,  // gate value only; records never carry it
};

/// "debug", "info", "warn", "error", "off".
const char* LogLevelName(LogLevel level);

/// FSDM_LOG_LEVEL environment variable, or `def` when unset/unparsable.
LogLevel LogLevelFromEnv(LogLevel def = LogLevel::kInfo);

/// One structured record. Fixed layout, no heap allocation: the component
/// must be a string literal (the ring keeps the pointer); the message and
/// arg texts are inline truncated copies, so dynamic strings are safe.
struct LogRecord {
  static constexpr size_t kMaxMessage = 103;  // plus the terminating NUL

  uint64_t ts_us = 0;  // MonotonicNowUs() clock, shared with the recorder
  uint32_t tid = 0;    // log-assigned small thread id
  LogLevel level = LogLevel::kInfo;
  uint16_t event_id = 0;      // stable id, unique per call site
  const char* component = "";  // static string ("collection", "wal", ...)
  char message[kMaxMessage + 1] = {};
  TraceArg args[2];

  void SetMessage(std::string_view m) {
    size_t n = m.size() < kMaxMessage ? m.size() : kMaxMessage;
    std::memcpy(message, m.data(), n);
    message[n] = '\0';
  }
  bool has_args() const { return args[0].key != nullptr; }
  /// {"k":v,...} rendering of the arg slots ("{}" when none).
  std::string ArgsJson() const;
  /// One JSON object (single line, no trailing newline) for the incident
  /// bundle "log" section.
  std::string ToJsonLine() const;
};

/// Value carrier for the optional FSDM_LOG args: built by LogNum/LogText,
/// copied into the record's TraceArg slots. Keys must be string literals.
struct LogArg {
  const char* key = nullptr;
  bool is_text = false;
  double number = 0;
  std::string_view text;
};

inline LogArg LogNum(const char* key, double v) {
  LogArg a;
  a.key = key;
  a.number = v;
  return a;
}

inline LogArg LogText(const char* key, std::string_view v) {
  LogArg a;
  a.key = key;
  a.is_text = true;
  a.text = v;
  return a;
}

class EngineLog {
 public:
  static EngineLog& Global();

  LogLevel level() const {
    return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
  }
  void SetLevel(LogLevel level) {
    level_.store(static_cast<uint8_t>(level), std::memory_order_relaxed);
  }
  /// The macro front gate: one relaxed load + compare when suppressed.
  bool ShouldLog(LogLevel level) const {
    return static_cast<uint8_t>(level) >=
               level_.load(std::memory_order_relaxed) &&
           level != LogLevel::kOff;
  }

  /// The macro back ends. `component` must be a string literal; `msg` may
  /// be dynamic (copied, truncated, into the record).
  void Emit(LogLevel level, const char* component, uint16_t event_id,
            std::string_view msg) {
    EmitImpl(level, component, event_id, msg, nullptr, nullptr);
  }
  void Emit(LogLevel level, const char* component, uint16_t event_id,
            std::string_view msg, const LogArg& a0) {
    EmitImpl(level, component, event_id, msg, &a0, nullptr);
  }
  void Emit(LogLevel level, const char* component, uint16_t event_id,
            std::string_view msg, const LogArg& a0, const LogArg& a1) {
    EmitImpl(level, component, event_id, msg, &a0, &a1);
  }

  /// The calling thread's ring, created (and registered) on first use.
  Ring<LogRecord>* RingForThisThread();

  /// Ring capacity for rings created after this call. Tests shrink it to
  /// exercise wrap-around.
  void SetRingCapacity(size_t records) { rings_.SetCapacity(records); }
  size_t ring_capacity() const { return rings_.capacity(); }

  /// Per-event-id token bucket: every id gets `burst` tokens refilled at
  /// `per_sec`; a site whose bucket is dry is counted dropped. Defaults:
  /// burst 64, 32/s.
  void SetRateLimit(double burst, double per_sec);

  /// All live records across threads, merged and sorted by (ts_us, tid).
  std::vector<LogRecord> Snapshot() const { return rings_.Snapshot(); }
  /// The newest `n` of Snapshot() — the incident bundle's log slice.
  std::vector<LogRecord> SnapshotLast(size_t n) const;

  /// Records admitted into rings since process start (or Reset).
  uint64_t total_records() const {
    return total_records_.load(std::memory_order_relaxed);
  }
  /// Records lost: ring overwrites + rate-limiter rejections.
  uint64_t TotalDropped() const;
  uint64_t rate_limited() const {
    return rate_limited_.load(std::memory_order_relaxed);
  }

  /// Clears ring contents, token buckets and counters (rings and cached
  /// pointers stay valid). Test hook.
  void Reset();

 private:
  EngineLog();

  void EmitImpl(LogLevel level, const char* component, uint16_t event_id,
                std::string_view msg, const LogArg* a0, const LogArg* a1);
  bool Admit(uint16_t event_id, uint64_t now_us);

  PerThreadRings<LogRecord> rings_{4096};

  std::atomic<uint8_t> level_;
  std::atomic<uint64_t> total_records_{0};
  std::atomic<uint64_t> rate_limited_{0};

  struct TokenBucket {
    double tokens = 0;
    uint64_t last_us = 0;
  };
  mutable std::mutex bucket_mu_;
  std::unordered_map<uint16_t, TokenBucket> buckets_;
  double bucket_burst_ = 64;
  double bucket_per_sec_ = 32;
};

}  // namespace fsdm::telemetry

/// FSDM_LOG(level, component, event_id, message [, arg0 [, arg1]]).
/// `component` must be a string literal; `event_id` a unique stable
/// integer literal (scripts/check_log_events.py enforces both uniqueness
/// and the README table entry); `message` may be any string expression —
/// it is only evaluated when the level gate passes. Optional args are
/// built with telemetry::LogNum / telemetry::LogText.
#define FSDM_LOG(level, component, event_id, ...)                        \
  do {                                                                   \
    if (::fsdm::telemetry::EngineLog::Global().ShouldLog(level)) {       \
      ::fsdm::telemetry::EngineLog::Global().Emit(                       \
          (level), (component), (event_id), __VA_ARGS__);                \
    }                                                                    \
  } while (0)

#endif  // FSDM_TELEMETRY_LOG_H_
