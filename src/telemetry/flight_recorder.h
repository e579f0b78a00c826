#ifndef FSDM_TELEMETRY_FLIGHT_RECORDER_H_
#define FSDM_TELEMETRY_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/ring.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_event.h"

/// Engine flight recorder (ISSUE 4 tentpole): always-on, bounded-memory
/// recording of what the engine did and in what order. Each thread writes
/// TraceEvents into its own fixed-capacity ring (ring.h, shared with the
/// engine log and the ASH sampler); when a ring fills, the oldest events
/// are overwritten (dropped, never torn — a slot is either the old event
/// or the new one). Instrumentation sites use the
/// FSDM_TRACE_* macros below, which cache the thread's ring pointer in a
/// function-local thread_local so the armed steady-state cost is a branch,
/// a clock read, and a struct store.
///
/// The recorder starts DISARMED: macros cost one predictable branch until
/// FlightRecorder::Global().Arm() flips them live.
///
/// Readers (Chrome exporter, TELEMETRY$EVENTS, slow-query capture) take a
/// merged timestamp-sorted snapshot under the registration mutex. Since
/// ISSUE 6 the worker pool drains shard morsels concurrently, so each
/// ring carries its own mutex for the push/snapshot handoff: writes stay
/// per-thread (no contention in steady state — each worker owns its
/// ring), and a snapshot taken mid-query sees each ring at a consistent
/// event boundary.

namespace fsdm::telemetry {

/// One thread's TraceEvent ring. Owned by the FlightRecorder and never
/// destroyed while the process lives, so the thread_local cached pointers
/// in the macros stay valid across Reset().
using ThreadRing = Ring<TraceEvent>;

/// RAII span: emits a kSpanBegin on construction and a kSpanEnd (with
/// measured dur_us and any attached args) on destruction. Constructed
/// disarmed-aware: when the recorder is not armed the constructor is a
/// single branch and the destructor does nothing.
class ScopedTraceSpan {
 public:
  /// `category` and `name` must be string literals (see trace_event.h).
  ScopedTraceSpan(const char* category, const char* name);
  ~ScopedTraceSpan();
  ScopedTraceSpan(const ScopedTraceSpan&) = delete;
  ScopedTraceSpan& operator=(const ScopedTraceSpan&) = delete;

  /// Attach args to the span-end event (up to 2; extras ignored).
  void AddNumberArg(const char* key, double v);
  void AddTextArg(const char* key, std::string_view v);

 private:
  bool live_;
  uint64_t start_us_ = 0;
  const char* category_;
  const char* name_;
  TraceArg args_[2];
  int nargs_ = 0;
};

class FlightRecorder {
 public:
  static FlightRecorder& Global();

  /// Arm/disarm recording. Arming is what benches, tests and the examples
  /// do explicitly; the engine never arms itself. Atomic so a worker
  /// thread reading armed() mid-drain never races a test's Disarm().
  void Arm() { armed_.store(true, std::memory_order_relaxed); }
  void Disarm() { armed_.store(false, std::memory_order_relaxed); }
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// The calling thread's ring, created (and registered) on first use.
  /// Macros cache the returned pointer in a thread_local.
  ThreadRing* RingForThisThread() { return rings_.Register(); }

  /// Ring capacity for rings created after this call (existing rings keep
  /// theirs). Tests shrink it to exercise wrap-around.
  void SetRingCapacity(size_t events) { rings_.SetCapacity(events); }
  size_t ring_capacity() const { return rings_.capacity(); }

  /// All live events across threads, merged and sorted by (ts_us, tid).
  std::vector<TraceEvent> Snapshot() const;
  /// Events with ts_us >= since_us — the slow-query log's trace slice.
  std::vector<TraceEvent> SnapshotSince(uint64_t since_us) const;

  /// Sum of dropped() over all rings (events lost to wrap-around).
  uint64_t TotalDropped() const { return rings_.TotalDropped(); }

  /// Chrome trace-event JSON ({"traceEvents":[...]}), loadable in
  /// chrome://tracing or https://ui.perfetto.dev. Per thread, unmatched
  /// span events at the snapshot edges are repaired: orphan ends (begin
  /// was overwritten) are dropped and unclosed begins get a synthetic
  /// zero-length end, so B/E always balance.
  std::string ChromeTraceJson() const;
  /// Writes ChromeTraceJson() to `path`; false on I/O failure.
  bool DumpChromeTrace(const std::string& path) const;

  /// Clears every ring's contents (rings and cached pointers stay valid).
  void Reset() { rings_.Clear(); }

  /// Raw event push for a specific ring — the macro back end.
  static void Emit(ThreadRing* ring, TracePhase phase, const char* category,
                   const char* name, uint64_t dur_us = 0);

 private:
  FlightRecorder() = default;

  PerThreadRings<TraceEvent> rings_{16384};
  std::atomic<bool> armed_{false};
};

/// Emit a counter sample (phase kCounter) with one numeric arg named
/// "value". Used by FSDM_TRACE_COUNTER.
void EmitCounterSample(const char* category, const char* name, double value);

/// Emit an instant event, optionally with one text arg (dynamic names —
/// fault points, access paths — go here, copied into the event).
void EmitInstant(const char* category, const char* name);
void EmitInstantText(const char* category, const char* name, const char* key,
                     std::string_view text);

}  // namespace fsdm::telemetry

/// Traces the rest of the enclosing scope as a span. `category`/`name`
/// must be string literals. The span variable is named so call sites can
/// attach args: FSDM_TRACE_SPAN(span, "collection", "insert");
/// span.AddNumberArg("rows", 1);
#define FSDM_TRACE_SPAN(var, category, name) \
  ::fsdm::telemetry::ScopedTraceSpan var((category), (name))

#define FSDM_TRACE_INSTANT(category, name)                      \
  do {                                                          \
    if (::fsdm::telemetry::FlightRecorder::Global().armed()) {  \
      ::fsdm::telemetry::EmitInstant((category), (name));       \
    }                                                           \
  } while (0)

#define FSDM_TRACE_INSTANT_TEXT(category, name, key, text)            \
  do {                                                                \
    if (::fsdm::telemetry::FlightRecorder::Global().armed()) {        \
      ::fsdm::telemetry::EmitInstantText((category), (name), (key),   \
                                         (text));                     \
    }                                                                 \
  } while (0)

#define FSDM_TRACE_COUNTER(category, name, value)                     \
  do {                                                                \
    if (::fsdm::telemetry::FlightRecorder::Global().armed()) {        \
      ::fsdm::telemetry::EmitCounterSample((category), (name),        \
                                           static_cast<double>(value)); \
    }                                                                 \
  } while (0)

#endif  // FSDM_TELEMETRY_FLIGHT_RECORDER_H_
