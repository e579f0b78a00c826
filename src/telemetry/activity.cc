#include "telemetry/activity.h"

#include "telemetry/trace_event.h"

namespace fsdm::telemetry {

const char* WaitStateName(WaitState s) {
  switch (s) {
    case WaitState::kIdle:
      return "idle";
    case WaitState::kOnCpu:
      return "on-cpu";
    case WaitState::kPoolQueueWait:
      return "pool-queue-wait";
    case WaitState::kLockWait:
      return "lock-wait";
    case WaitState::kFaultStall:
      return "fault-stall";
    case WaitState::kWalFsync:
      return "wal-fsync";
  }
  return "?";
}

const char* WaitClassName(WaitState s) {
  switch (s) {
    case WaitState::kIdle:
      return "idle";
    case WaitState::kOnCpu:
      return "cpu";
    case WaitState::kPoolQueueWait:
      return "scheduler";
    case WaitState::kLockWait:
      return "concurrency";
    case WaitState::kFaultStall:
      return "fault";
    case WaitState::kWalFsync:
      return "io";
  }
  return "?";
}

ActivitySample ActivityRecord::Snap() const {
  ActivitySample s;
  s.active = active();
  s.state = state();
  s.thread_slot = thread_slot_;
  std::lock_guard<std::mutex> lock(mu_);
  s.begin_ts_us = begin_ts_us_;
  s.collection = collection_;
  s.access_path = access_path_;
  s.op = op_;
  s.query = query_;
  s.shard = shard_;
  s.worker = worker_;
  s.query_id = query_id_;
  return s;
}

bool ActivityRecord::SnapIfActive(ActivitySample* out) const {
  if (!active()) return false;
  *out = Snap();
  // active_ may have flipped off between the check and the Snap(); the
  // snap itself carries the truth, so re-check what we actually copied.
  return out->active;
}

ActivityRegistry& ActivityRegistry::Global() {
  // Leaked like the other process-wide singletons: records outlive every
  // thread (including the sampler) during static destruction.
  static ActivityRegistry* registry = new ActivityRegistry();
  return *registry;
}

ActivityRecord* ActivityRegistry::ForThisThread() {
  thread_local ActivityRecord* rec = nullptr;
  if (rec == nullptr) rec = RegisterThread();
  return rec;
}

ActivityRecord* ActivityRegistry::RegisterThread() {
  std::lock_guard<std::mutex> lock(mu_);
  auto* rec = new ActivityRecord(static_cast<uint64_t>(records_.size()));
  records_.push_back(rec);  // leaked; see class comment
  return rec;
}

std::vector<ActivitySample> ActivityRegistry::Samples() const {
  std::vector<ActivityRecord*> records;
  {
    std::lock_guard<std::mutex> lock(mu_);
    records = records_;
  }
  // Per-record locking happens outside the registry mutex so a lease
  // Begin()/Release() never waits on a full registry walk.
  std::vector<ActivitySample> out;
  out.reserve(records.size());
  for (const ActivityRecord* rec : records) out.push_back(rec->Snap());
  return out;
}

void ActivityRegistry::AppendActiveSamples(
    std::vector<ActivitySample>* out) const {
  // The walk stays under the registry mutex: per record it is one relaxed
  // load (the overwhelmingly common inactive case) and leases never take
  // this mutex, so nothing on the query path can block on it. Copying the
  // pointer list first — as Samples() does — would cost an allocation per
  // sampler tick.
  std::lock_guard<std::mutex> lock(mu_);
  for (const ActivityRecord* rec : records_) {
    ActivitySample s;
    if (rec->SnapIfActive(&s)) out->push_back(std::move(s));
  }
}

size_t ActivityRegistry::record_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

void ActivityRegistry::OnLeaseActivated() {
  if (active_count_.fetch_add(1, std::memory_order_relaxed) == 0) {
    // 0 -> 1: wake a tickless-idle sampler. The empty critical section
    // orders the count edge against a parker that just evaluated its
    // predicate, so the notify can't be lost.
    { std::lock_guard<std::mutex> lock(activity_mu_); }
    activity_cv_.notify_all();
    void (*hook)() = activation_hook_.load(std::memory_order_acquire);
    if (hook != nullptr) hook();
  }
}

void ActivityRegistry::SetActivationHook(void (*hook)()) {
  activation_hook_.store(hook, std::memory_order_release);
}

void ActivityRegistry::OnLeaseDeactivated() {
  active_count_.fetch_sub(1, std::memory_order_relaxed);
}

void ActivityRegistry::WaitForActivity(std::chrono::microseconds timeout) {
  std::unique_lock<std::mutex> lock(activity_mu_);
  const uint64_t gen = poke_gen_;
  activity_cv_.wait_for(lock, timeout, [&] {
    return active_count_.load(std::memory_order_relaxed) > 0 ||
           poke_gen_ != gen;
  });
}

void ActivityRegistry::NotifyActivityWaiters() {
  {
    std::lock_guard<std::mutex> lock(activity_mu_);
    ++poke_gen_;
  }
  activity_cv_.notify_all();
}

ActivityLease& ActivityLease::operator=(ActivityLease&& other) noexcept {
  if (this == &other) return *this;
  Release();
  rec_ = other.rec_;
  prev_active_ = other.prev_active_;
  prev_state_ = other.prev_state_;
  prev_begin_ts_us_ = other.prev_begin_ts_us_;
  prev_collection_ = std::move(other.prev_collection_);
  prev_access_path_ = std::move(other.prev_access_path_);
  prev_op_ = std::move(other.prev_op_);
  prev_query_ = std::move(other.prev_query_);
  prev_shard_ = other.prev_shard_;
  prev_worker_ = other.prev_worker_;
  prev_query_id_ = other.prev_query_id_;
  other.rec_ = nullptr;
  return *this;
}

ActivityLease ActivityLease::Begin(std::string collection,
                                   std::string access_path, std::string op,
                                   std::string query, int shard, int worker,
                                   uint64_t query_id) {
  ActivityRecord* rec = ActivityRegistry::Global().ForThisThread();
  ActivityLease lease;
  lease.rec_ = rec;
  lease.prev_active_ = rec->active();
  lease.prev_state_ = rec->state();
  {
    std::lock_guard<std::mutex> lock(rec->mu_);
    lease.prev_begin_ts_us_ = rec->begin_ts_us_;
    lease.prev_collection_ = std::move(rec->collection_);
    lease.prev_access_path_ = std::move(rec->access_path_);
    lease.prev_op_ = std::move(rec->op_);
    lease.prev_query_ = std::move(rec->query_);
    lease.prev_shard_ = rec->shard_;
    lease.prev_worker_ = rec->worker_;
    lease.prev_query_id_ = rec->query_id_;
    rec->begin_ts_us_ = MonotonicNowUs();
    rec->collection_ = std::move(collection);
    rec->access_path_ = std::move(access_path);
    rec->op_ = std::move(op);
    rec->query_ = std::move(query);
    rec->shard_ = shard;
    rec->worker_ = worker;
    rec->query_id_ = query_id;
  }
  rec->active_.store(true, std::memory_order_relaxed);
  rec->set_state(WaitState::kOnCpu);
  if (!lease.prev_active_) ActivityRegistry::Global().OnLeaseActivated();
  return lease;
}

void ActivityLease::Release() {
  if (rec_ == nullptr) return;
  ActivityRecord* rec = rec_;
  rec_ = nullptr;
  {
    std::lock_guard<std::mutex> lock(rec->mu_);
    rec->begin_ts_us_ = prev_begin_ts_us_;
    rec->collection_ = std::move(prev_collection_);
    rec->access_path_ = std::move(prev_access_path_);
    rec->op_ = std::move(prev_op_);
    rec->query_ = std::move(prev_query_);
    rec->shard_ = prev_shard_;
    rec->worker_ = prev_worker_;
    rec->query_id_ = prev_query_id_;
  }
  rec->active_.store(prev_active_, std::memory_order_relaxed);
  rec->set_state(prev_state_);
  if (!prev_active_) ActivityRegistry::Global().OnLeaseDeactivated();
}

}  // namespace fsdm::telemetry
