#ifndef FSDM_TELEMETRY_ACTIVITY_H_
#define FSDM_TELEMETRY_ACTIVITY_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/telemetry.h"

/// Active-query activity registry (ISSUE 7 tentpole): every thread that
/// executes engine work publishes one small "what am I doing now" record —
/// which collection, access path and operator it is driving, which
/// shard/worker it is, and a *wait state* saying where its wall-clock time
/// is going right now. The background sampler (sampler.h) reads these
/// records ~1000x per second; the aggregate of those samples is the time
/// model (DB-time accounting by collection and wait class), the ASH ring,
/// and the workload repository's snapshot deltas.
///
/// Cost model: a wait-state flip is one relaxed atomic byte store. The
/// identity strings change once per routed drain / morsel (under a
/// per-record mutex that only the owning thread and the sampler ever
/// touch), so the steady-state cost on the query path is a few stores at
/// Open() and Close() — nothing per row.
///
/// Thread-safety: the sampler reads `state_`/`active_` relaxed and copies
/// the identity strings under the record mutex. A sample may therefore
/// pair a state flip with identity fields from an instant earlier — fine
/// for statistical sampling, and race-free under TSan by construction.

namespace fsdm::telemetry {

/// Where a published thread's wall-clock time is going. Kept to the few
/// states the engine can actually distinguish cheaply; the sampler maps
/// each to a coarser wait *class* for reporting.
enum class WaitState : uint8_t {
  kIdle = 0,        ///< registered but no engine work in flight
  kOnCpu,           ///< executing (the default while a lease is held)
  kPoolQueueWait,   ///< blocked on WorkerPool morsel completion
  kLockWait,        ///< blocked on a telemetry/registry mutex
  kFaultStall,      ///< sleeping inside an injected fault stall
  kWalFsync,        ///< inside the write-ahead log's fsync (ISSUE 8)
};

inline constexpr size_t kWaitStateCount = 6;

/// "idle", "on-cpu", "pool-queue-wait", "lock-wait", "fault-stall",
/// "wal-fsync".
const char* WaitStateName(WaitState s);
/// Coarse reporting class: "idle", "cpu", "scheduler", "concurrency",
/// "fault", "io" — the AWR-style wait-class taxonomy DESIGN.md documents.
const char* WaitClassName(WaitState s);

/// Point-in-time copy of one record, as the sampler sees it.
struct ActivitySample {
  bool active = false;
  WaitState state = WaitState::kIdle;
  uint64_t thread_slot = 0;  ///< registry-assigned stable thread id
  uint64_t begin_ts_us = 0;  ///< when the current lease began
  std::string collection;
  std::string access_path;
  std::string op;
  std::string query;
  int shard = -1;
  int worker = -1;
  /// Query-monitor id of the routed query this work belongs to (ISSUE 9):
  /// cross-links ASH samples to TELEMETRY$QUERY_MONITOR rows and
  /// slow-query records. 0 = not part of a monitored query.
  uint64_t query_id = 0;
};

/// One thread's published activity. Owned by the ActivityRegistry and
/// never destroyed (threads may die; their record stays, inactive), so
/// thread_local cached pointers and the sampler's iteration stay valid
/// for the process lifetime.
class ActivityRecord {
 public:
  explicit ActivityRecord(uint64_t thread_slot) : thread_slot_(thread_slot) {}

  /// Hot-path wait-state flip: one relaxed byte store.
  void set_state(WaitState s) {
    state_.store(static_cast<uint8_t>(s), std::memory_order_relaxed);
  }
  WaitState state() const {
    return static_cast<WaitState>(state_.load(std::memory_order_relaxed));
  }
  bool active() const { return active_.load(std::memory_order_relaxed); }
  uint64_t thread_slot() const { return thread_slot_; }

  /// Sampler-side copy. Takes the record mutex for the identity strings.
  ActivitySample Snap() const;

  /// Idle fast path for the sampler: one relaxed load and out when the
  /// record holds no lease — no mutex, no string copies. Returns whether
  /// `out` was filled.
  bool SnapIfActive(ActivitySample* out) const;

 private:
  friend class ActivityLease;

  std::atomic<uint8_t> state_{static_cast<uint8_t>(WaitState::kIdle)};
  std::atomic<bool> active_{false};
  const uint64_t thread_slot_;

  mutable std::mutex mu_;  // identity fields below; set once per lease
  uint64_t begin_ts_us_ = 0;
  std::string collection_;
  std::string access_path_;
  std::string op_;
  std::string query_;
  int shard_ = -1;
  int worker_ = -1;
  uint64_t query_id_ = 0;
};

/// Process-wide list of activity records, one per thread that ever
/// published work. Leaked like the other telemetry singletons.
class ActivityRegistry {
 public:
  static ActivityRegistry& Global();

  /// The calling thread's record, created (and registered) on first use;
  /// cached in a thread_local so the steady state is one pointer load.
  ActivityRecord* ForThisThread();

  /// Copies of every record, taken without holding the registry mutex
  /// across the per-record locking (the record list is copied first).
  std::vector<ActivitySample> Samples() const;

  /// Appends only the active records' samples to `out` — the sampler's
  /// per-tick path. Inactive records cost one relaxed load each and the
  /// caller's scratch vector is reused across ticks, so an idle engine
  /// pays no allocations and no string copies per tick.
  void AppendActiveSamples(std::vector<ActivitySample>* out) const;

  size_t record_count() const;
  /// Records currently holding a lease (active work in flight). O(1):
  /// leases keep a process-wide atomic count on Begin()/Release().
  size_t ActiveCount() const {
    return active_count_.load(std::memory_order_relaxed);
  }

  /// Parks the caller until a lease Begin()s somewhere (the 0 -> 1 active
  /// transition notifies), NotifyActivityWaiters() runs, or `timeout`
  /// elapses. This is the sampler's tickless-idle mode — same idea as the
  /// kernel's NO_HZ: an idle engine costs zero sampler wakeups instead of
  /// `hz` per second, and the first lease wakes sampling back up
  /// immediately, so no active time goes unsampled.
  void WaitForActivity(std::chrono::microseconds timeout);
  /// Wakes WaitForActivity parkers early (sampler shutdown).
  void NotifyActivityWaiters();

  /// Installed by the sampler (nullptr to clear): invoked after the
  /// 0 -> 1 active transition's notify, outside every registry lock. Lets
  /// the armed sampler spawn its thread on demand, so a process that
  /// never runs a query never carries a sampler thread — even the
  /// existence of one costs (glibc malloc drops its single-threaded fast
  /// path the moment a second thread appears).
  void SetActivationHook(void (*hook)());

 private:
  friend class ActivityLease;

  ActivityRegistry() = default;

  ActivityRecord* RegisterThread();
  /// Lease transitions for the inactive <-> active edge only (nested
  /// leases over an already-active record don't touch the count).
  void OnLeaseActivated();
  void OnLeaseDeactivated();

  mutable std::mutex mu_;  // guards records_ registration
  std::vector<ActivityRecord*> records_;  // leaked; pointers stable forever

  std::atomic<size_t> active_count_{0};
  std::mutex activity_mu_;  // pairs activity_cv_ with the count edges
  std::condition_variable activity_cv_;
  uint64_t poke_gen_ = 0;  // bumped by NotifyActivityWaiters
  std::atomic<void (*)()> activation_hook_{nullptr};
};

/// Move-only RAII lease over the calling thread's record: Begin() saves
/// the record's previous contents and publishes new ones (active, on-cpu);
/// Release()/destruction restores what was there before. The save/restore
/// makes nesting safe — a pool worker running a nested inline morsel
/// stacks a second lease over its first and unwinding re-publishes the
/// outer work — and guarantees that *every* exit path (early return,
/// error, operator destruction) unregisters, which is the ISSUE 7
/// satellite's no-dangle requirement.
class ActivityLease {
 public:
  ActivityLease() = default;
  ~ActivityLease() { Release(); }

  ActivityLease(ActivityLease&& other) noexcept { *this = std::move(other); }
  ActivityLease& operator=(ActivityLease&& other) noexcept;
  ActivityLease(const ActivityLease&) = delete;
  ActivityLease& operator=(const ActivityLease&) = delete;

  /// Publishes `collection`/`access_path`/`op`/`query` (+ shard/worker
  /// tags and the query-monitor id) on the calling thread's record and
  /// marks it active, on-cpu.
  static ActivityLease Begin(std::string collection, std::string access_path,
                             std::string op, std::string query,
                             int shard = -1, int worker = -1,
                             uint64_t query_id = 0);

  /// Restores the record's pre-Begin contents. Idempotent.
  void Release();

  bool engaged() const { return rec_ != nullptr; }

 private:
  ActivityRecord* rec_ = nullptr;
  // Saved pre-Begin contents, restored on Release().
  bool prev_active_ = false;
  WaitState prev_state_ = WaitState::kIdle;
  uint64_t prev_begin_ts_us_ = 0;
  std::string prev_collection_;
  std::string prev_access_path_;
  std::string prev_op_;
  std::string prev_query_;
  int prev_shard_ = -1;
  int prev_worker_ = -1;
  uint64_t prev_query_id_ = 0;
};

/// RAII wait-state flip at a blocking choke point: sets `s` on the calling
/// thread's record, restores the previous state on scope exit. Two relaxed
/// byte stores plus a cached thread_local pointer load.
class ScopedWaitState {
 public:
  explicit ScopedWaitState(WaitState s)
      : rec_(ActivityRegistry::Global().ForThisThread()),
        prev_(rec_->state()) {
    rec_->set_state(s);
  }
  ~ScopedWaitState() { rec_->set_state(prev_); }
  ScopedWaitState(const ScopedWaitState&) = delete;
  ScopedWaitState& operator=(const ScopedWaitState&) = delete;

 private:
  ActivityRecord* rec_;
  WaitState prev_;
};

}  // namespace fsdm::telemetry

#endif  // FSDM_TELEMETRY_ACTIVITY_H_
