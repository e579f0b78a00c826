#include "telemetry/incident.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "telemetry/flight_recorder.h"
#include "telemetry/memory_tracker.h"
#include "telemetry/query_monitor.h"
#include "telemetry/sampler.h"
#include "telemetry/trace_event.h"
#include "telemetry/workload_repo.h"

namespace fsdm::telemetry {

namespace fs = std::filesystem;

namespace {

/// Reentrancy guard: a state provider (or anything capture touches) that
/// raises again must not recurse into a second capture on this thread.
thread_local bool t_in_raise = false;

/// How far back the trace slice reaches, and its event cap. The recorder
/// ring is bigger, but an incident wants the moments around the trigger,
/// not the whole flight.
constexpr uint64_t kTraceWindowUs = 2 * 1000 * 1000;
constexpr size_t kTraceMaxEvents = 1024;

std::string SanitizeForFilename(const std::string& s) {
  std::string out;
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    (c >= 'A' && c <= 'Z') || c == '-' || c == '_';
    out += ok ? c : '-';
  }
  return out.empty() ? std::string("incident") : out;
}

}  // namespace

IncidentManager& IncidentManager::Global() {
  static IncidentManager* manager = new IncidentManager();
  return *manager;
}

IncidentManager::IncidentManager() : dir_("incidents") {
  const char* env = std::getenv("FSDM_INCIDENT_DIR");
  if (env != nullptr) dir_ = env;  // "" disables disk capture
}

void IncidentManager::SetDirectory(std::string dir) {
  std::lock_guard<std::mutex> lock(mu_);
  dir_ = std::move(dir);
}

std::string IncidentManager::directory() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dir_;
}

void IncidentManager::SetRetention(size_t max_files) {
  std::lock_guard<std::mutex> lock(mu_);
  retention_ = max_files > 0 ? max_files : 1;
}

void IncidentManager::SetRingCapacity(size_t n) { ring_.SetCapacity(n); }

void IncidentManager::SetFloodIntervalUs(uint64_t us) {
  std::lock_guard<std::mutex> lock(mu_);
  flood_interval_us_ = us;
}

void IncidentManager::SetDedupWindowUs(uint64_t us) {
  std::lock_guard<std::mutex> lock(mu_);
  dedup_window_us_ = us;
}

void IncidentManager::SetLogSlice(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  log_slice_ = n > 0 ? n : 1;
}

void IncidentManager::RegisterStateProvider(const std::string& key,
                                            StateProvider fn) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [k, v] : providers_) {
    if (k == key) {
      v = std::move(fn);
      return;
    }
  }
  providers_.emplace_back(key, std::move(fn));
}

uint64_t IncidentManager::Raise(std::string type, std::string subject,
                                std::string reason) {
  if (t_in_raise) return 0;
  t_in_raise = true;
  const uint64_t now = MonotonicNowUs();

  Incident inc;
  size_t log_slice = 256;
  std::vector<std::pair<std::string, StateProvider>> providers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Flood control (per type) then dedup (per type+subject). `now == 0`
    // only at process start, where suppression would be wrong — hence the
    // entry-exists checks rather than `last > 0`.
    const auto by_type = last_by_type_.find(type);
    const bool flooded = by_type != last_by_type_.end() &&
                         now - by_type->second < flood_interval_us_;
    const std::string key = type + '\0' + subject;
    const auto by_key = last_by_key_.find(key);
    const bool duped = by_key != last_by_key_.end() &&
                       now - by_key->second < dedup_window_us_;
    if (flooded || duped) {
      ++total_suppressed_;
      FSDM_COUNT("fsdm_incidents_suppressed_total", 1);
      FSDM_LOG(LogLevel::kDebug, "incident", 3302,
               "incident suppressed: " + type + " on " + subject,
               LogText("type", type));
      t_in_raise = false;
      return 0;
    }
    last_by_type_[type] = now;
    last_by_key_[key] = now;
    inc.id = next_id_++;
    log_slice = log_slice_;
    providers = providers_;
  }

  inc.ts_us = now;
  inc.type = std::move(type);
  inc.subject = std::move(subject);
  inc.reason = std::move(reason);

  // The raise itself is the newest log record the bundle carries — emit
  // before slicing so the bundle is self-describing.
  FSDM_LOG(LogLevel::kWarn, "incident", 3301,
           "incident " + std::to_string(inc.id) + " raised: " + inc.type +
               " on " + inc.subject + ": " + inc.reason,
           LogNum("id", static_cast<double>(inc.id)),
           LogText("type", inc.type));

  std::vector<LogRecord> log_slice_records =
      EngineLog::Global().SnapshotLast(log_slice);
  inc.log_records = log_slice_records.size();

  // Providers render outside the manager lock (they read engine state and
  // may log); their sections join the built-ins under "engine_state".
  std::string provider_json;
  for (const auto& [key, fn] : providers) {
    if (!fn) continue;
    provider_json += ",\"" + JsonEscape(key) + "\":";
    std::string v = fn();
    provider_json += v.empty() ? "null" : v;
  }

  std::string bundle = BuildBundleJson(inc, log_slice_records, provider_json);
  inc.bundle_path = WriteBundle(inc, bundle);

  {
    std::lock_guard<std::mutex> lock(mu_);
    ring_.Push(inc);
    ++total_raised_;
  }
  FSDM_COUNT("fsdm_incidents_total", 1);
  t_in_raise = false;
  return inc.id;
}

std::string IncidentManager::BuildBundleJson(
    const Incident& inc, const std::vector<LogRecord>& log_slice,
    const std::string& provider_json) const {
  std::string out = "{\"incident\":{\"schema_version\":1,\"id\":";
  AppendJsonNumber(&out, static_cast<double>(inc.id));
  out += ",\"ts_us\":";
  AppendJsonNumber(&out, static_cast<double>(inc.ts_us));
  out += ",\"type\":\"" + JsonEscape(inc.type) + "\"";
  out += ",\"subject\":\"" + JsonEscape(inc.subject) + "\"";
  out += ",\"reason\":\"" + JsonEscape(inc.reason) + "\"}";

  out += ",\"log\":[";
  for (size_t i = 0; i < log_slice.size(); ++i) {
    if (i > 0) out += ",";
    out += log_slice[i].ToJsonLine();
  }
  out += "]";

  // Flight-recorder slice: the window before the trigger, newest-capped.
  // Empty (not missing) when the recorder is disarmed.
  std::vector<TraceEvent> events = FlightRecorder::Global().SnapshotSince(
      inc.ts_us > kTraceWindowUs ? inc.ts_us - kTraceWindowUs : 0);
  if (events.size() > kTraceMaxEvents) {
    events.erase(events.begin(),
                 events.end() - static_cast<ptrdiff_t>(kTraceMaxEvents));
  }
  out += ",\"trace\":{\"armed\":";
  out += FlightRecorder::Global().armed() ? "true" : "false";
  out += ",\"events\":[";
  for (size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out += ",";
    AppendChromeTraceEvent(&out, events[i]);
  }
  out += "]}";

  // ASH window: whatever the sampler ring currently holds. Also empty
  // when the sampler never ran.
  std::vector<AshSample> samples = ActivitySampler::Global().Snapshot();
  out += ",\"ash\":{\"samples\":";
  AppendJsonNumber(&out, static_cast<double>(samples.size()));
  out += ",\"aggregate\":";
  out += AshAggregateJson(AggregateAsh(samples, 0, UINT64_MAX));
  out += "}";

  out += ",\"metrics\":";
  out += MetricsRegistry::Global().ToJson();

  out += ",\"engine_state\":{\"memory\":[";
  std::vector<MemoryTracker::Entry> entries = MemoryTracker::Global().Entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"subsystem\":\"";
    out += MemSubsystemName(entries[i].subsystem);
    out += "\",\"collection\":\"" + JsonEscape(entries[i].collection) +
           "\",\"bytes\":";
    AppendJsonNumber(&out, static_cast<double>(entries[i].bytes));
    out += ",\"peak_bytes\":";
    AppendJsonNumber(&out, static_cast<double>(entries[i].peak_bytes));
    out += "}";
  }
  out += "],\"query_monitor\":[";
  std::vector<MonitoredQuery> queries = QueryMonitor::Global().Snapshot();
  for (size_t i = 0; i < queries.size(); ++i) {
    if (i > 0) out += ",";
    const MonitoredQuery& q = queries[i];
    out += "{\"query_id\":";
    AppendJsonNumber(&out, static_cast<double>(q.query_id));
    out += ",\"collection\":\"" + JsonEscape(q.collection) + "\"";
    out += ",\"query\":\"" + JsonEscape(q.query) + "\"";
    out += ",\"access_path\":\"" + JsonEscape(q.access_path) + "\"";
    out += ",\"elapsed_us\":";
    AppendJsonNumber(&out, static_cast<double>(q.elapsed_us));
    out += ",\"rows_out\":";
    AppendJsonNumber(&out, static_cast<double>(q.rows_out));
    out += ",\"operators\":";
    AppendJsonNumber(&out, static_cast<double>(q.operators.size()));
    out += "}";
  }
  out += "]";
  out += provider_json;
  out += "}}";
  return out;
}

std::string IncidentManager::WriteBundle(const Incident& inc,
                                         const std::string& json) {
  std::string dir;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dir = dir_;
  }
  if (dir.empty()) return "";
  std::error_code ec;
  fs::create_directories(dir, ec);
  char name[64];
  std::snprintf(name, sizeof(name), "incident-%08llu-",
                static_cast<unsigned long long>(inc.id));
  const std::string path =
      dir + "/" + name + SanitizeForFilename(inc.type) + ".json";
  {
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      FSDM_LOG(LogLevel::kError, "incident", 3303,
               "incident bundle write failed: " + path);
      return "";
    }
    out << json << "\n";
    if (!out.good()) {
      FSDM_LOG(LogLevel::kError, "incident", 3304,
               "incident bundle flush failed: " + path);
      return "";
    }
  }
  ApplyRetention();
  return path;
}

void IncidentManager::ApplyRetention() {
  std::string dir;
  size_t retention;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dir = dir_;
    retention = retention_;
  }
  if (dir.empty()) return;
  std::error_code ec;
  std::vector<std::string> files;
  for (const fs::directory_entry& e : fs::directory_iterator(dir, ec)) {
    const std::string fname = e.path().filename().string();
    if (fname.rfind("incident-", 0) == 0 &&
        fname.size() > 5 && fname.substr(fname.size() - 5) == ".json") {
      files.push_back(e.path().string());
    }
  }
  if (files.size() <= retention) return;
  // Ids are zero-padded, so lexical order is raise order; drop oldest.
  std::sort(files.begin(), files.end());
  for (size_t i = 0; i + retention < files.size(); ++i) {
    fs::remove(files[i], ec);
  }
}

std::vector<Incident> IncidentManager::Snapshot() const {
  return ring_.Snapshot();
}

uint64_t IncidentManager::total_raised() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_raised_;
}

uint64_t IncidentManager::total_suppressed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_suppressed_;
}

namespace {

void FatalSignalHandler(int sig) {
  // Not async-signal-safe, deliberately: the process is dying and the
  // last act is a best-effort diagnostic capture. Default disposition is
  // restored FIRST so a crash inside the capture terminates instead of
  // recursing.
  std::signal(sig, SIG_DFL);
  const char* name = "signal";
  switch (sig) {
    case SIGSEGV:
      name = "SIGSEGV";
      break;
    case SIGBUS:
      name = "SIGBUS";
      break;
    case SIGABRT:
      name = "SIGABRT";
      break;
    case SIGFPE:
      name = "SIGFPE";
      break;
    case SIGILL:
      name = "SIGILL";
      break;
  }
  FSDM_LOG(LogLevel::kError, "incident", 3305,
           std::string("fatal signal: ") + name,
           LogNum("signal", static_cast<double>(sig)));
  IncidentManager::Global().Raise("fatal-signal", name,
                                  std::string("process received ") + name);
  ::raise(sig);
}

}  // namespace

void IncidentManager::InstallFatalSignalHandler() {
  static bool installed = false;
  std::lock_guard<std::mutex> lock(mu_);
  if (installed) return;
  installed = true;
  for (int sig : {SIGSEGV, SIGBUS, SIGABRT, SIGFPE, SIGILL}) {
    std::signal(sig, &FatalSignalHandler);
  }
}

void IncidentManager::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.Clear();
  total_raised_ = 0;
  total_suppressed_ = 0;
  last_by_type_.clear();
  last_by_key_.clear();
}

}  // namespace fsdm::telemetry
