#ifndef FSDM_TELEMETRY_RING_H_
#define FSDM_TELEMETRY_RING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

/// The one bounded ring under the telemetry pillars: the flight recorder's
/// and the engine log's per-thread rings, the ASH sampler's ring, and the
/// incident, slow-query and workload-snapshot logs are all a Ring<T>.
/// Fixed capacity, overwrite-oldest (a slot holds either the old value or
/// the new one, never a torn mix), and one mutex per ring for
/// the push/snapshot handoff — uncontended in steady state, since each
/// writer thread owns its ring. Slots are allocated on the first push, so
/// a ring that is created but never written costs no slot memory.

namespace fsdm::telemetry {

template <typename T>
class Ring {
 public:
  Ring(uint32_t tid, size_t capacity)
      : tid_(tid), capacity_(capacity == 0 ? 1 : capacity) {}

  /// Stores `v` as the newest value; true when it overwrote a live one.
  template <typename U>
  bool Push(U&& v) {
    std::lock_guard<std::mutex> lock(mu_);
    if (slots_.empty()) slots_.resize(capacity_);
    const bool overwrote = next_ >= capacity_;
    slots_[next_ % capacity_] = std::forward<U>(v);
    ++next_;
    return overwrote;
  }

  uint32_t tid() const { return tid_; }
  size_t capacity() const {
    std::lock_guard<std::mutex> lock(mu_);
    return capacity_;
  }
  /// Total values ever pushed (monotonic; > capacity once wrapped).
  uint64_t total_pushed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_;
  }
  /// Live values currently held.
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<size_t>(std::min<uint64_t>(next_, capacity_));
  }
  uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_ > capacity_ ? next_ - capacity_ : 0;
  }

  /// Live values, oldest first.
  std::vector<T> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return LiveLocked();
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    next_ = 0;
  }

  /// Resizes the ring, keeping the newest live values that fit.
  void SetCapacity(size_t capacity) {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<T> live = LiveLocked();
    capacity_ = capacity == 0 ? 1 : capacity;
    const size_t keep = std::min(live.size(), capacity_);
    slots_.assign(std::make_move_iterator(live.end() - keep),
                  std::make_move_iterator(live.end()));
    if (keep > 0) slots_.resize(capacity_);
    next_ = keep;
  }

 private:
  std::vector<T> LiveLocked() const {
    const uint64_t live = std::min<uint64_t>(next_, capacity_);
    std::vector<T> out;
    out.reserve(live);
    for (uint64_t i = next_ - live; i < next_; ++i) {
      out.push_back(slots_[i % capacity_]);
    }
    return out;
  }

  const uint32_t tid_;
  mutable std::mutex mu_;
  size_t capacity_;
  std::vector<T> slots_;  // empty until the first push
  uint64_t next_ = 0;
};

/// Stable sort by (ts_us, tid): the merge order of every multi-ring
/// snapshot.
template <typename T>
void SortByTime(std::vector<T>* values) {
  std::stable_sort(values->begin(), values->end(),
                   [](const T& a, const T& b) {
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     return a.tid < b.tid;
                   });
}

/// One Ring<T> per writer thread, registered on the thread's first write.
/// Rings are never destroyed while the process lives, so writers may cache
/// their ring pointer in a thread_local across Clear(). T carries the
/// ts_us/tid pair snapshots merge on.
template <typename T>
class PerThreadRings {
 public:
  explicit PerThreadRings(size_t capacity) : capacity_(capacity) {}

  /// A new ring with the next thread id (1-based) and the current
  /// capacity.
  Ring<T>* Register() {
    std::lock_guard<std::mutex> lock(mu_);
    rings_.push_back(std::make_unique<Ring<T>>(next_tid_++, capacity_));
    return rings_.back().get();
  }

  /// Capacity for rings registered after this call (existing rings keep
  /// theirs). Tests shrink it to exercise wrap-around.
  void SetCapacity(size_t capacity) {
    std::lock_guard<std::mutex> lock(mu_);
    capacity_ = capacity == 0 ? 1 : capacity;
  }
  size_t capacity() const {
    std::lock_guard<std::mutex> lock(mu_);
    return capacity_;
  }

  /// Every ring's live values, ring by ring (not merged).
  std::vector<T> Gather() const {
    std::vector<T> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& ring : rings_) {
      std::vector<T> part = ring->Snapshot();
      out.insert(out.end(), std::make_move_iterator(part.begin()),
                 std::make_move_iterator(part.end()));
    }
    return out;
  }

  /// All live values across threads, merged and sorted by (ts_us, tid).
  std::vector<T> Snapshot() const {
    std::vector<T> out = Gather();
    SortByTime(&out);
    return out;
  }

  /// Sum of dropped() over all rings (values lost to wrap-around).
  uint64_t TotalDropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    for (const auto& ring : rings_) total += ring->dropped();
    return total;
  }

  /// Clears every ring's contents; rings and cached pointers stay valid.
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& ring : rings_) ring->Clear();
  }

 private:
  mutable std::mutex mu_;  // guards rings_ registration and iteration
  std::vector<std::unique_ptr<Ring<T>>> rings_;
  size_t capacity_;
  uint32_t next_tid_ = 1;
};

}  // namespace fsdm::telemetry

#endif  // FSDM_TELEMETRY_RING_H_
