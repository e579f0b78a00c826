#ifndef FSDM_TELEMETRY_SAMPLER_H_
#define FSDM_TELEMETRY_SAMPLER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/activity.h"
#include "telemetry/ring.h"

/// Active-session sampling (ISSUE 7 tentpole, part 2): a background thread
/// that snapshots every ActivityRecord at ~1 kHz and keeps the *active*
/// samples in a fixed-capacity ASH ring (Oracle's Active Session History
/// shape; the same Ring<T> as the flight recorder and the log, ring.h).
/// Sampling inverts the flight recorder's tracing bargain: tracing
/// records every event and costs per event; sampling costs a fixed, tiny
/// amount per second no matter how hot the engine runs, and DB-time falls
/// out as sample counts — a query sampled 50 times at 1 kHz spent ~50 ms
/// of DB-time, and the wait-state distribution of those samples says
/// where.
///
/// The sampler starts only when asked (the bench harness starts it; the
/// engine never does), reads its rate from FSDM_ASH_HZ (default 1000,
/// 0 = disabled).
///
/// Tickless idle: while no thread holds an activity lease the sampler
/// parks on the registry's condition variable instead of ticking — a tick
/// would retain nothing, and on a busy machine 1000 wakeups/s cost more
/// than the sampling itself. The first lease Begin() wakes it, so active
/// work is always sampled at the full rate; `ticks()` therefore counts
/// only non-idle ticks.

namespace fsdm::telemetry {

/// One retained ASH row: an active record caught by one sampler tick.
struct AshSample {
  uint64_t ts_us = 0;
  uint64_t thread_slot = 0;
  WaitState state = WaitState::kIdle;
  std::string collection;
  std::string access_path;
  std::string op;
  std::string query;
  int shard = -1;
  int worker = -1;
  uint64_t query_id = 0;  ///< TELEMETRY$QUERY_MONITOR cross-link; 0 = none
};

/// Per-collection/per-state DB-time accounting over a set of ASH samples —
/// the time model. Keys with no samples are absent.
struct AshAggregate {
  uint64_t db_samples = 0;  ///< active samples in the window
  /// collection -> sample count per WaitState (index by state value).
  std::map<std::string, std::array<uint64_t, kWaitStateCount>> by_collection;
  /// Overall sample count per WaitState.
  std::array<uint64_t, kWaitStateCount> by_state{};
  /// query text -> samples (DB-time ranking).
  std::map<std::string, uint64_t> by_query;
  /// shard id (>= 0 only) -> samples (skew detection).
  std::map<int, uint64_t> by_shard;
};

/// Folds `samples` with since_us < ts_us <= until_us into an aggregate
/// (until_us = 0 means no upper bound).
AshAggregate AggregateAsh(const std::vector<AshSample>& samples,
                          uint64_t since_us, uint64_t until_us);

class ActivitySampler {
 public:
  static ActivitySampler& Global();

  /// Rate from FSDM_ASH_HZ, clamped to [1, 10000]; 1000 when unset,
  /// 0 (disabled) when set to 0 or unparsable-as-positive.
  static double HzFromEnv();

  /// Arms the sampler at HzFromEnv(). Returns false (and arms nothing)
  /// when the rate is 0 or the sampler is already armed. The background
  /// thread itself spawns lazily on the first activity-lease activation
  /// (or immediately when work is already in flight): an armed-but-idle
  /// process carries no sampler thread at all.
  bool Start();
  /// Disarms, then stops and joins the thread if one was spawned. No-op
  /// when not armed.
  void Stop();
  bool running() const;
  /// Rate the running (or last-run) thread was started at; 0 before Start.
  double hz() const;

  /// One sampling tick: snapshots every activity record, retains the
  /// active ones in the ring. Returns the number retained. This is what
  /// the thread loop calls; tests call it directly for determinism.
  size_t SampleOnce();

  /// Live ASH rows, oldest first.
  std::vector<AshSample> Snapshot() const { return ring_.Snapshot(); }
  /// Time model over everything currently in the ring.
  AshAggregate Aggregate() const;

  uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }
  uint64_t db_samples_total() const {
    return db_samples_total_.load(std::memory_order_relaxed);
  }

  /// Ring capacity (default 8192 samples); shrinking drops oldest.
  void SetRingCapacity(size_t samples) { ring_.SetCapacity(samples); }
  void ClearRing() { ring_.Clear(); }

 private:
  ActivitySampler() = default;

  void RunLoop(double hz);
  /// Activation-hook target: spawns the thread if armed and not spawned.
  void EnsureThread();

  std::mutex sample_mu_;  // serializes SampleOnce's scratch reuse
  std::vector<ActivitySample> scratch_;  // reused across ticks
  // Last gauge/trace value published, so idle ticks (active == previous
  // == 0, the steady state on a quiet engine) skip the recorder entirely.
  size_t last_published_active_ = static_cast<size_t>(-1);

  Ring<AshSample> ring_{0, 8192};
  std::atomic<uint64_t> ticks_{0};
  std::atomic<uint64_t> db_samples_total_{0};

  mutable std::mutex ctl_mu_;  // Start/Stop handoff
  std::thread thread_;
  bool running_ = false;
  double hz_ = 0;
  std::atomic<bool> stop_requested_{false};
  std::condition_variable stop_cv_;
  std::mutex stop_mu_;
};

}  // namespace fsdm::telemetry

#endif  // FSDM_TELEMETRY_SAMPLER_H_
