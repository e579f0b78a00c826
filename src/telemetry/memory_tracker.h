#ifndef FSDM_TELEMETRY_MEMORY_TRACKER_H_
#define FSDM_TELEMETRY_MEMORY_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/telemetry.h"

/// Engine-wide memory attribution (ISSUE 9 tentpole): one process-wide
/// tracker that answers "where did the RAM go" per subsystem and per
/// collection. Two charging models coexist:
///
///  - *Reporters* (pull model, `MemoryScope`): long-lived structures —
///    table heap, search-index postings, DataGuide, IMC, path stats, WAL —
///    register a callback returning their current footprint. `Refresh()`
///    polls every reporter, publishes `fsdm_mem_bytes{subsystem,collection}`
///    gauges, and ratchets peaks. Reporters use deterministic *size-based*
///    formulas (string `size()`, not `capacity()`), so two reads with no
///    intervening DML agree exactly and the TELEMETRY$MEMORY relation
///    reconciles with a direct `MemoryBytes()` walk.
///  - *Charges* (push model, `MemoryCharge`): transient allocations with a
///    scoped lifetime — OSON images materialized during DML, a plan's
///    buffered working set during a morsel-parallel drain — add/subtract an
///    atomic per-subsystem counter. Charges ratchet peaks immediately (a
///    drain's working set would otherwise vanish before anyone refreshes).
///
/// `CurrentBytes()` (last refreshed reporter total + live charges) is one
/// atomic load plus a handful of relaxed loads, cheap enough for the routed
/// query probe to sample per drain for per-query PEAK_MEM_BYTES.

namespace fsdm::telemetry {

/// The subsystems the engine attributes memory to. Names (MemSubsystemName)
/// are the `subsystem` gauge label and the TELEMETRY$MEMORY SUBSYSTEM
/// column.
enum class MemSubsystem : uint8_t {
  kTableHeap = 0,     ///< stored rows in rdbms::Table heaps
  kOsonVc,            ///< OSON images materialized through the hidden VC
  kIndexPostings,     ///< JsonSearchIndex posting lists
  kDataGuide,         ///< DataGuide path entries (+ $DG side table rows)
  kImc,               ///< in-memory columnar store vectors
  kPathStats,         ///< PathStatsRepository sketches and histograms
  kWalBuffers,        ///< WAL writer state (segment map, append window)
  kPlanWorkingSet,    ///< buffered rows inside executing plans
};

inline constexpr size_t kMemSubsystemCount = 8;

/// "table-heap", "oson-vc", "index-postings", "dataguide", "imc",
/// "path-stats", "wal-buffers", "plan-working-set".
const char* MemSubsystemName(MemSubsystem s);

/// Deterministic accounting footprint of an owned string: the character
/// payload by size(), not capacity(), so every copy of the same content
/// charges identically (the incremental-vs-recompute reconciliation in the
/// accounting unit tests depends on this).
inline uint64_t OwnedStringBytes(const std::string& s) {
  return sizeof(std::string) + s.size();
}

class MemoryTracker {
 public:
  /// One tracked accounting entry, as TELEMETRY$MEMORY renders it. Charge
  /// (push-model) subsystems appear with collection "-".
  struct Entry {
    MemSubsystem subsystem = MemSubsystem::kTableHeap;
    std::string collection;
    uint64_t bytes = 0;
    uint64_t peak_bytes = 0;
  };

  static MemoryTracker& Global();

  /// Registers a reporter; returns its id (0 is never issued). Prefer the
  /// RAII MemoryScope over calling this directly.
  uint64_t RegisterReporter(MemSubsystem subsystem, std::string collection,
                            std::function<uint64_t()> fn);
  /// Polls the reporter once more, ratchets the subsystem and total peaks
  /// with what it reports, then drops it. The polled structure must still
  /// be alive.
  void UnregisterReporter(uint64_t id);

  /// Transient charge/release for push-model subsystems. Charge ratchets
  /// the subsystem and grand-total peaks immediately.
  void Charge(MemSubsystem subsystem, uint64_t bytes);
  void Release(MemSubsystem subsystem, uint64_t bytes);

  /// Polls every reporter, updates the per-entry
  /// `fsdm_mem_bytes{subsystem,collection}` gauges plus the
  /// fsdm_mem_total_bytes / fsdm_mem_peak_bytes rollups, ratchets peaks,
  /// and returns the grand total (reporters + live charges).
  uint64_t Refresh();

  /// Grand total as of the last Refresh() plus live charges. Cheap (no
  /// reporter polling, no locks) — safe on the drain path.
  uint64_t CurrentBytes() const;
  /// High-water CurrentBytes() since process start (or ResetPeaks()).
  uint64_t PeakBytes() const {
    return peak_total_.load(std::memory_order_relaxed);
  }
  /// Last refreshed bytes for one subsystem (reporters + live charges).
  uint64_t SubsystemBytes(MemSubsystem s) const;
  /// High-water of SubsystemBytes(s), ratcheted at Refresh() and Charge()
  /// time — an actual simultaneous per-subsystem peak, unlike summing
  /// per-entry peaks (which were reached at different times and can exceed
  /// any real high-water). The bench "memory" section reports this.
  uint64_t SubsystemPeakBytes(MemSubsystem s) const {
    return subsystem_peak_[static_cast<size_t>(s)].load(
        std::memory_order_relaxed);
  }

  /// Every entry: one per reporter (as of its last Refresh) plus one per
  /// charge-model subsystem with a nonzero current or peak.
  std::vector<Entry> Entries() const;

  size_t reporter_count() const;

  /// Test hooks. ResetPeaks zeroes every high-water mark; ResetCharges
  /// zeroes the push-model counters (a leak-check for paired
  /// Charge/Release would fire here, so tests call it between cases).
  void ResetPeaks();
  void ResetCharges();

 private:
  MemoryTracker() = default;

  struct Reporter {
    uint64_t id = 0;
    MemSubsystem subsystem = MemSubsystem::kTableHeap;
    std::string collection;
    std::function<uint64_t()> fn;
    uint64_t last_bytes = 0;
    uint64_t peak_bytes = 0;
    Gauge* gauge = nullptr;  // resolved lazily on first Refresh
  };

  void RatchetTotals(uint64_t current);
  void RatchetSubsystemPeak(size_t idx, uint64_t current);

  mutable std::mutex mu_;  // reporters_ and their last/peak fields
  std::vector<Reporter> reporters_;
  uint64_t next_id_ = 1;

  // Push-model live charges and their high-water marks, by subsystem.
  std::atomic<int64_t> charged_[kMemSubsystemCount] = {};
  std::atomic<uint64_t> charged_peak_[kMemSubsystemCount] = {};
  // Reporter bytes per subsystem as of the last Refresh().
  std::atomic<uint64_t> reported_[kMemSubsystemCount] = {};
  // High-water of SubsystemBytes (reported + live charges), per subsystem.
  std::atomic<uint64_t> subsystem_peak_[kMemSubsystemCount] = {};
  std::atomic<uint64_t> reported_total_{0};
  std::atomic<uint64_t> peak_total_{0};
};

/// RAII reporter registration: alive while the owning structure is.
class MemoryScope {
 public:
  MemoryScope() = default;
  MemoryScope(MemSubsystem subsystem, std::string collection,
              std::function<uint64_t()> fn)
      : id_(MemoryTracker::Global().RegisterReporter(
            subsystem, std::move(collection), std::move(fn))) {}
  ~MemoryScope() { Reset(); }

  MemoryScope(MemoryScope&& other) noexcept : id_(other.id_) {
    other.id_ = 0;
  }
  MemoryScope& operator=(MemoryScope&& other) noexcept {
    if (this != &other) {
      Reset();
      id_ = other.id_;
      other.id_ = 0;
    }
    return *this;
  }
  MemoryScope(const MemoryScope&) = delete;
  MemoryScope& operator=(const MemoryScope&) = delete;

  void Reset() {
    if (id_ != 0) MemoryTracker::Global().UnregisterReporter(id_);
    id_ = 0;
  }
  bool engaged() const { return id_ != 0; }

 private:
  uint64_t id_ = 0;
};

/// RAII transient charge: charges on construction (or Add), releases the
/// accumulated total on destruction.
class MemoryCharge {
 public:
  MemoryCharge() = default;
  explicit MemoryCharge(MemSubsystem subsystem, uint64_t bytes = 0)
      : subsystem_(subsystem) {
    Add(bytes);
  }
  ~MemoryCharge() { Reset(); }

  MemoryCharge(MemoryCharge&& other) noexcept
      : subsystem_(other.subsystem_), bytes_(other.bytes_) {
    other.bytes_ = 0;
  }
  MemoryCharge& operator=(MemoryCharge&& other) noexcept {
    if (this != &other) {
      Reset();
      subsystem_ = other.subsystem_;
      bytes_ = other.bytes_;
      other.bytes_ = 0;
    }
    return *this;
  }
  MemoryCharge(const MemoryCharge&) = delete;
  MemoryCharge& operator=(const MemoryCharge&) = delete;

  void Add(uint64_t bytes) {
    if (bytes == 0) return;
    MemoryTracker::Global().Charge(subsystem_, bytes);
    bytes_ += bytes;
  }
  void Reset() {
    if (bytes_ != 0) MemoryTracker::Global().Release(subsystem_, bytes_);
    bytes_ = 0;
  }
  uint64_t bytes() const { return bytes_; }

 private:
  MemSubsystem subsystem_ = MemSubsystem::kPlanWorkingSet;
  uint64_t bytes_ = 0;
};

}  // namespace fsdm::telemetry

#endif  // FSDM_TELEMETRY_MEMORY_TRACKER_H_
