#include "telemetry/flight_recorder.h"

#include <algorithm>
#include <fstream>

#include "telemetry/activity.h"

namespace fsdm::telemetry {

namespace {

/// The macro back end's thread_local ring cache: one registry lookup per
/// thread lifetime, a plain pointer read afterwards.
ThreadRing* LocalRing() {
  thread_local ThreadRing* ring =
      FlightRecorder::Global().RingForThisThread();
  return ring;
}

}  // namespace

// ---------------------------------------------------------------------------
// ScopedTraceSpan
// ---------------------------------------------------------------------------

ScopedTraceSpan::ScopedTraceSpan(const char* category, const char* name)
    : live_(FlightRecorder::Global().armed()),
      category_(category),
      name_(name) {
  if (!live_) return;
  start_us_ = MonotonicNowUs();
  FlightRecorder::Emit(LocalRing(), TracePhase::kSpanBegin, category_, name_);
}

ScopedTraceSpan::~ScopedTraceSpan() {
  // live_ was latched at construction so begins and ends stay balanced
  // even if the recorder is disarmed mid-span.
  if (!live_) return;
  ThreadRing* ring = LocalRing();
  const uint64_t now = MonotonicNowUs();
  TraceEvent e;
  e.ts_us = now;
  e.dur_us = now - start_us_;
  e.tid = ring->tid();
  e.phase = TracePhase::kSpanEnd;
  e.category = category_;
  e.name = name_;
  for (int i = 0; i < nargs_; ++i) e.args[i] = args_[i];
  ring->Push(e);
}

void ScopedTraceSpan::AddNumberArg(const char* key, double v) {
  if (!live_ || nargs_ >= 2) return;
  args_[nargs_++].SetNumber(key, v);
}

void ScopedTraceSpan::AddTextArg(const char* key, std::string_view v) {
  if (!live_ || nargs_ >= 2) return;
  args_[nargs_++].SetText(key, v);
}

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

void FlightRecorder::Emit(ThreadRing* ring, TracePhase phase,
                          const char* category, const char* name,
                          uint64_t dur_us) {
  TraceEvent e;
  e.ts_us = MonotonicNowUs();
  e.dur_us = dur_us;
  e.tid = ring->tid();
  e.phase = phase;
  e.category = category;
  e.name = name;
  ring->Push(e);
}

void EmitInstant(const char* category, const char* name) {
  FlightRecorder::Emit(LocalRing(), TracePhase::kInstant, category, name);
}

void EmitInstantText(const char* category, const char* name, const char* key,
                     std::string_view text) {
  ThreadRing* ring = LocalRing();
  TraceEvent e;
  e.ts_us = MonotonicNowUs();
  e.tid = ring->tid();
  e.phase = TracePhase::kInstant;
  e.category = category;
  e.name = name;
  e.args[0].SetText(key, text);
  ring->Push(e);
}

void EmitCounterSample(const char* category, const char* name, double value) {
  ThreadRing* ring = LocalRing();
  TraceEvent e;
  e.ts_us = MonotonicNowUs();
  e.tid = ring->tid();
  e.phase = TracePhase::kCounter;
  e.category = category;
  e.name = name;
  e.args[0].SetNumber("value", value);
  ring->Push(e);
}

std::vector<TraceEvent> FlightRecorder::Snapshot() const {
  std::vector<TraceEvent> out;
  {
    // A snapshot walks every thread ring under the recorder mutex — a
    // query thread landing here (slow-query capture) is lock-waiting.
    ScopedWaitState wait(WaitState::kLockWait);
    out = rings_.Gather();
  }
  SortByTime(&out);
  return out;
}

std::vector<TraceEvent> FlightRecorder::SnapshotSince(uint64_t since_us) const {
  std::vector<TraceEvent> all = Snapshot();
  std::vector<TraceEvent> out;
  out.reserve(all.size());
  for (const TraceEvent& e : all) {
    if (e.ts_us >= since_us) out.push_back(e);
  }
  return out;
}

namespace {

/// Repairs one thread's event sequence so span begins/ends balance:
/// orphan ends (their begin was overwritten by wrap-around) are dropped,
/// and begins left open at the snapshot edge get a synthetic zero-length
/// end. Chrome refuses to nest spans correctly otherwise.
std::vector<TraceEvent> BalanceThread(const std::vector<TraceEvent>& events) {
  std::vector<TraceEvent> out;
  out.reserve(events.size());
  std::vector<const TraceEvent*> open;
  uint64_t last_ts = 0;
  for (const TraceEvent& e : events) {
    last_ts = std::max(last_ts, e.ts_us);
    if (e.phase == TracePhase::kSpanBegin) {
      open.push_back(&e);
      out.push_back(e);
    } else if (e.phase == TracePhase::kSpanEnd) {
      if (open.empty()) continue;  // orphan end: begin already dropped
      open.pop_back();
      out.push_back(e);
    } else {
      out.push_back(e);
    }
  }
  // Close innermost-first so the synthetic ends nest correctly.
  for (auto it = open.rbegin(); it != open.rend(); ++it) {
    TraceEvent end = **it;
    end.phase = TracePhase::kSpanEnd;
    end.ts_us = last_ts;
    end.dur_us = last_ts - (*it)->ts_us;
    end.args[0] = TraceArg();
    end.args[1] = TraceArg();
    end.args[0].SetText("note", "unclosed");
    out.push_back(end);
  }
  return out;
}

}  // namespace

std::string FlightRecorder::ChromeTraceJson() const {
  std::vector<TraceEvent> merged = Snapshot();

  // Split per thread (balance repair is a per-thread property), repair,
  // then re-merge in timestamp order.
  std::vector<uint32_t> tids;
  for (const TraceEvent& e : merged) {
    if (std::find(tids.begin(), tids.end(), e.tid) == tids.end()) {
      tids.push_back(e.tid);
    }
  }
  std::vector<TraceEvent> repaired;
  repaired.reserve(merged.size());
  for (uint32_t tid : tids) {
    std::vector<TraceEvent> thread_events;
    for (const TraceEvent& e : merged) {
      if (e.tid == tid) thread_events.push_back(e);
    }
    std::vector<TraceEvent> balanced = BalanceThread(thread_events);
    repaired.insert(repaired.end(), balanced.begin(), balanced.end());
  }
  SortByTime(&repaired);

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : repaired) {
    if (!first) out += ",\n";
    first = false;
    AppendChromeTraceEvent(&out, e);
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

bool FlightRecorder::DumpChromeTrace(const std::string& path) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f.is_open()) return false;
  f << ChromeTraceJson();
  f.flush();
  return f.good();
}

}  // namespace fsdm::telemetry
