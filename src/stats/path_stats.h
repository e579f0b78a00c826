#ifndef FSDM_STATS_PATH_STATS_H_
#define FSDM_STATS_PATH_STATS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "common/value.h"
#include "dataguide/dataguide.h"
#include "stats/hll.h"

/// Per-collection path statistics repository (ISSUE 5 tentpole): value-level
/// statistics the DataGuide's structural walk cannot see — NDV sketches,
/// value histograms — maintained from the dataguide::ScalarSink hook the
/// guide fires on the DML path it already pays for. The router's cost model
/// turns these into selectivity estimates.

namespace fsdm::stats {

/// Bounded equi-width histogram over the numeric values of one path.
/// Buffers the first kSeedCapacity values exactly, then freezes the
/// observed [min, max] range into kBuckets equal-width buckets. Later
/// values outside the frozen range clamp into the edge buckets, so the
/// frozen range is a documented staleness: a drifting value distribution
/// flattens the edges until Clear() (RebuildIndex) re-seeds it. Memory is
/// O(kBuckets) per path regardless of stream length.
class ValueHistogram {
 public:
  static constexpr size_t kBuckets = 32;
  static constexpr size_t kSeedCapacity = 64;

  void Add(double v);

  uint64_t total() const { return total_; }
  bool frozen() const { return !counts_.empty(); }
  /// Frozen bucket range; meaningful only once frozen().
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  size_t bucket_count() const { return counts_.size(); }

  /// Estimated fraction of observed values below `x` (`<= x` when
  /// `inclusive`). Exact while buffering; linear interpolation inside the
  /// hit bucket once frozen (where inclusive/exclusive coincide except on
  /// a degenerate single-value range). Returns 0 when empty.
  double FractionBelow(double x, bool inclusive) const;

  void Clear();

  /// Heap bytes behind the seed buffer / frozen buckets (size-based, for
  /// the ISSUE 9 memory attribution; the object header is the owner's).
  uint64_t HeapBytes() const {
    return buffer_.size() * sizeof(double) + counts_.size() * sizeof(uint64_t);
  }

 private:
  void Freeze();

  std::vector<double> buffer_;    // exact values until frozen
  std::vector<uint64_t> counts_;  // equi-width buckets once frozen
  double lo_ = 0;
  double hi_ = 0;
  uint64_t total_ = 0;
};

/// Value-level statistics for one DataGuide path.
struct PathStats {
  uint64_t doc_frequency = 0;  // documents containing the path
  uint64_t value_count = 0;    // non-null scalar occurrences
  uint64_t null_count = 0;     // null scalar occurrences
  Hll ndv;                     // distinct non-null values (by display form)
  std::optional<Value> min_value;
  std::optional<Value> max_value;
  ValueHistogram histogram;  // numeric values only

  /// Internal: stamp of the last document that touched this path, used to
  /// count per-document frequency without a per-document set (the same
  /// trick dataguide::PathEntry uses).
  uint64_t last_doc_stamp = 0;
};

/// The repository: one PathStats per scalar path, fed by the DataGuide's
/// staged nodes and indexed by the feeding guide's path ids (its
/// dictionary names the paths; the repository holds no path text). Like
/// the guide itself the statistics are *additive* (§3.4): deletes and
/// rollbacks never retract them, so absolute counts drift high over a
/// churning workload while the ratios the router consumes (frequency /
/// docs_seen, histogram fractions) stay approximately right.
/// RebuildIndex() clears and re-feeds it.
class PathStatsRepository final : public dataguide::ScalarSink {
 public:
  // --- dataguide::ScalarSink -------------------------------------------
  void OnScalar(const dataguide::StagedNode& node) override;
  void OnDocumentEnd() override;

  /// Documents whose scalars this repository has observed.
  uint64_t docs_seen() const { return docs_seen_; }

  /// nullptr when no observed document had a scalar at `path` (or for
  /// dataguide::kNoPath).
  const PathStats* Find(dataguide::PathId path) const {
    return path < by_id_.size() ? by_id_[path].get() : nullptr;
  }

  /// Every path with statistics as (name, stats), sorted by name. `paths`
  /// is the dictionary of the guide that feeds this repository.
  std::vector<std::pair<std::string_view, const PathStats*>> Sorted(
      const dataguide::PathDictionary& paths) const;

  /// Estimated fraction of documents containing `path` in [0, 1]. Empty
  /// when the repository has seen no documents at all (caller falls back
  /// to DataGuide frequencies); 0 for a path no observed document had.
  std::optional<double> ExistenceSelectivity(dataguide::PathId path) const;

  /// NDV estimate for the path's non-null values; 0 when unknown.
  double NdvEstimate(dataguide::PathId path) const;

  /// In-memory footprint, for memory attribution: the id-indexed slot
  /// vector by size(), plus per observed path the PathStats payload
  /// (the Hll registers are an inline array) and its histogram heap
  /// bytes. Path text is the dictionary's, charged with the DataGuide.
  /// Min/max sample Values excluded, as in DataGuide::MemoryBytes().
  /// Maintained as scalars are observed: O(1), and safe to poll while
  /// another thread feeds the repository.
  uint64_t MemoryBytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  /// Exact O(paths) walk with the same formula, for tests.
  uint64_t RecomputeMemoryBytes() const;

  void Clear();

 private:
  std::vector<std::unique_ptr<PathStats>> by_id_;  // path id -> stats
  uint64_t docs_seen_ = 0;
  std::atomic<uint64_t> bytes_{0};  // MemoryBytes(), pollable
};

}  // namespace fsdm::stats

#endif  // FSDM_STATS_PATH_STATS_H_
