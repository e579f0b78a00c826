#ifndef FSDM_TELEMETRY_INCIDENT_H_
#define FSDM_TELEMETRY_INCIDENT_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "telemetry/log.h"
#include "telemetry/ring.h"

/// Automatic incident capture (ISSUE 10 tentpole): an ADR-style
/// diagnostic repository in the spirit of Oracle's Automatic Diagnostic
/// Repository. When something goes wrong — a quarantine, WAL poisoning, a
/// torn-tail recovery, a CheckConsistency failure, a fatal signal — the
/// trigger site calls IncidentManager::Raise and the manager captures a
/// SELF-CONTAINED JSON bundle of every observability pillar at that
/// moment:
///
///   incident      id/ts/type/subject/reason header
///   log           the newest structured log records (log.h)
///   trace         a flight-recorder slice (chrome trace-event objects)
///   ash           the sampler ring's ASH window aggregate + sample count
///   metrics       a full MetricsRegistry JSON snapshot
///   engine_state  memory attribution, in-flight query monitor, plus any
///                 registered state providers (the collection layer
///                 contributes collection-health and WAL-writer state)
///
/// Bundles land in a bounded in-memory ring (the TELEMETRY$INCIDENTS SQL
/// relation) and, when a directory is configured, on disk as
/// incidents/incident-<id>-<type>.json with count-based retention.
/// scripts/check_incident_json.py validates the bundle shape in CI.
///
/// Two suppression layers keep a looping failure from flooding the disk:
/// a per-type minimum interval and a per-(type,subject) dedup window.
/// Suppressed raises are counted (fsdm_incidents_suppressed_total), never
/// silently swallowed.

namespace fsdm::telemetry {

/// One captured incident, as TELEMETRY$INCIDENTS renders it.
struct Incident {
  uint64_t id = 0;
  uint64_t ts_us = 0;       // MonotonicNowUs() clock
  std::string type;         // "quarantine", "wal-poisoned", "torn-tail", ...
  std::string subject;      // collection name, WAL dir, signal name
  std::string reason;       // human-readable cause
  std::string bundle_path;  // on-disk bundle; "" when disk capture is off
  uint64_t log_records = 0;  // records captured into the bundle's log slice
};

class IncidentManager {
 public:
  static IncidentManager& Global();

  /// Directory for on-disk bundles; "" disables disk capture. Default
  /// "incidents" (relative to the working directory), or the
  /// FSDM_INCIDENT_DIR environment variable when set at first use.
  void SetDirectory(std::string dir);
  std::string directory() const;

  /// Maximum on-disk bundles kept; older files are unlinked after each
  /// write. Default 32.
  void SetRetention(size_t max_files);
  /// In-memory ring capacity (oldest evicted). Default 64.
  void SetRingCapacity(size_t n);
  /// Per-type flood control: a second incident of the same type within
  /// the interval is suppressed. Default 100ms.
  void SetFloodIntervalUs(uint64_t us);
  /// Per-(type,subject) dedup: an identical incident within the window is
  /// suppressed. Default 5s.
  void SetDedupWindowUs(uint64_t us);
  /// Newest-N log records captured per bundle. Default 256.
  void SetLogSlice(size_t n);

  /// Engine-state contributor: returns a JSON value rendered under
  /// "engine_state".<key>. The collection layer registers "collections"
  /// and "wal" providers; re-registering a key replaces it. Providers
  /// must not Raise (nested raises are dropped, not deadlocked).
  using StateProvider = std::function<std::string()>;
  void RegisterStateProvider(const std::string& key, StateProvider fn);

  /// Captures an incident; returns its id, or 0 when suppressed (flood,
  /// dedup, or a nested raise from inside a capture).
  uint64_t Raise(std::string type, std::string subject, std::string reason);

  /// The in-memory ring, oldest first.
  std::vector<Incident> Snapshot() const;
  uint64_t total_raised() const;
  uint64_t total_suppressed() const;

  /// Installs a best-effort fatal-signal hook (SIGSEGV/SIGBUS/SIGABRT/
  /// SIGFPE/SIGILL): raises a "fatal-signal" incident, then re-raises the
  /// signal under its default disposition. Idempotent; intended for the
  /// bench harness and long-running embedders, not unit tests.
  void InstallFatalSignalHandler();

  /// Clears the ring, counters and suppression state (providers and
  /// configuration stay). Test hook.
  void Reset();

 private:
  IncidentManager();

  std::string BuildBundleJson(const Incident& inc,
                              const std::vector<LogRecord>& log_slice,
                              const std::string& provider_json) const;
  std::string WriteBundle(const Incident& inc, const std::string& json);
  void ApplyRetention();

  mutable std::mutex mu_;
  Ring<Incident> ring_{0, 64};
  std::string dir_;
  size_t retention_ = 32;
  uint64_t flood_interval_us_ = 100 * 1000;
  uint64_t dedup_window_us_ = 5 * 1000 * 1000;
  size_t log_slice_ = 256;
  uint64_t next_id_ = 1;
  uint64_t total_raised_ = 0;
  uint64_t total_suppressed_ = 0;
  std::unordered_map<std::string, uint64_t> last_by_type_;
  std::unordered_map<std::string, uint64_t> last_by_key_;
  std::vector<std::pair<std::string, StateProvider>> providers_;
};

}  // namespace fsdm::telemetry

#endif  // FSDM_TELEMETRY_INCIDENT_H_
