#ifndef FSDM_TELEMETRY_MEMORY_TRACKER_H_
#define FSDM_TELEMETRY_MEMORY_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/telemetry.h"

/// Engine-wide memory attribution: one process-wide tracker that answers
/// "where did the RAM go" per subsystem and per collection, with one
/// charging model. Every row of TELEMETRY$MEMORY is a `MemoryAccount`,
/// and the code that changes a structure pushes the change into it:
///
///  - *Named accounts* (`(subsystem, collection)`): a collection's shards
///    push the change of each structure's deterministic, size-based
///    footprint formula (string `size()`, not `capacity()`) at the end of
///    every mutator, so BYTES equals a direct `MemoryBytes()` walk
///    whenever no DML is running.
///  - *Anonymous accounts* (collection `"-"`, one per subsystem):
///    transient allocations with a scoped lifetime (OSON images
///    materialized during DML, a parallel drain's buffered morsels) move
///    them through the RAII `MemoryCharge`.
///
/// A push moves the account, its subsystem total and the grand total by
/// the same delta, and growth ratchets all three peaks at once, so every
/// PEAK column is a true high-water mark. Reads are relaxed atomic loads
/// and never touch the structures themselves.

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

/// One `(subsystem, collection)` row of TELEMETRY$MEMORY: relaxed-atomic
/// bytes and their high-water mark. A named account lists in
/// MemoryTracker::Entries() from construction to destruction, keeps its
/// `fsdm_mem_bytes{subsystem,collection}` gauge current, and on
/// destruction takes its bytes out of the totals and zeroes the gauge.
class MemoryAccount {
 public:
  MemoryAccount(MemSubsystem subsystem, std::string collection);
  ~MemoryAccount();
  MemoryAccount(const MemoryAccount&) = delete;
  MemoryAccount& operator=(const MemoryAccount&) = delete;

  /// Moves the account by `delta` bytes, and its subsystem and the grand
  /// total with it; growth ratchets the three peaks.
  void Add(int64_t delta);
  /// Add() of the difference to `bytes`, for an account with one writer.
  void Set(uint64_t bytes) {
    Add(static_cast<int64_t>(bytes - bytes_.load(std::memory_order_relaxed)));
  }

  MemSubsystem subsystem() const { return subsystem_; }
  const std::string& collection() const { return collection_; }
  uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  uint64_t peak_bytes() const {
    return peak_.load(std::memory_order_relaxed);
  }

 private:
  friend class MemoryTracker;
  /// A subsystem's anonymous "-" account: owned by the tracker, listed
  /// only once it has held bytes, and without a gauge (concurrent charges
  /// move it; its bytes show in fsdm_mem_total_bytes).
  explicit MemoryAccount(MemSubsystem subsystem);

  MemSubsystem subsystem_;
  std::string collection_;
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> peak_{0};
  Gauge* gauge_ = nullptr;  // named accounts only
};

class MemoryTracker {
 public:
  /// One account as TELEMETRY$MEMORY renders it.
  struct Entry {
    MemSubsystem subsystem = MemSubsystem::kTableHeap;
    std::string collection;
    uint64_t bytes = 0;
    uint64_t peak_bytes = 0;
  };

  static MemoryTracker& Global();

  /// Grand total of every account: one relaxed load, cheap enough for the
  /// routed query probe to sample per drain for PEAK_MEM_BYTES.
  uint64_t CurrentBytes() const {
    return total_.load(std::memory_order_relaxed);
  }
  /// The same read under its older name. Writers push, so there is nothing
  /// to poll.
  uint64_t Refresh() const { return CurrentBytes(); }
  /// High-water CurrentBytes() since process start (or ResetPeaks()).
  uint64_t PeakBytes() const {
    return peak_total_.load(std::memory_order_relaxed);
  }
  uint64_t SubsystemBytes(MemSubsystem s) const {
    return subsystem_bytes_[static_cast<size_t>(s)].load(
        std::memory_order_relaxed);
  }
  /// High-water of SubsystemBytes(s): an actual simultaneous
  /// per-subsystem peak, unlike a sum of per-account peaks (reached at
  /// different times). The bench "memory" section reports this.
  uint64_t SubsystemPeakBytes(MemSubsystem s) const {
    return subsystem_peak_[static_cast<size_t>(s)].load(
        std::memory_order_relaxed);
  }

  /// Every named account in creation order, then each anonymous account
  /// with nonzero bytes or peak, in subsystem order.
  std::vector<Entry> Entries() const;

  /// The subsystem's anonymous "-" account, which MemoryCharge moves.
  MemoryAccount& Anonymous(MemSubsystem s) {
    return *anonymous_[static_cast<size_t>(s)];
  }

  /// Test hooks. ResetPeaks drops every high-water mark to the current
  /// bytes; ResetCharges empties the anonymous accounts and their peaks (a
  /// leak-check for paired charges would fire here, so tests call it
  /// between cases).
  void ResetPeaks();
  void ResetCharges();

 private:
  friend class MemoryAccount;
  MemoryTracker();

  /// Moves the subsystem and grand totals by an account's delta.
  void Move(MemSubsystem subsystem, int64_t delta);

  mutable std::mutex mu_;  // named_ membership
  std::vector<MemoryAccount*> named_;
  std::unique_ptr<MemoryAccount> anonymous_[kMemSubsystemCount];

  std::atomic<uint64_t> subsystem_bytes_[kMemSubsystemCount] = {};
  std::atomic<uint64_t> subsystem_peak_[kMemSubsystemCount] = {};
  std::atomic<uint64_t> total_{0};
  std::atomic<uint64_t> peak_total_{0};
  Gauge* total_gauge_;  // fsdm_mem_total_bytes
  Gauge* peak_gauge_;   // fsdm_mem_peak_bytes
};

/// RAII transient charge on the subsystem's anonymous account: adds on
/// construction (or Add), subtracts the accumulated total on destruction.
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
    MemoryTracker::Global().Anonymous(subsystem_).Add(
        static_cast<int64_t>(bytes));
    bytes_ += bytes;
  }
  void Reset() {
    if (bytes_ == 0) return;
    MemoryTracker::Global().Anonymous(subsystem_).Add(
        -static_cast<int64_t>(bytes_));
    bytes_ = 0;
  }
  uint64_t bytes() const { return bytes_; }

 private:
  MemSubsystem subsystem_ = MemSubsystem::kPlanWorkingSet;
  uint64_t bytes_ = 0;
};

}  // namespace fsdm::telemetry

#endif  // FSDM_TELEMETRY_MEMORY_TRACKER_H_
