#include "telemetry/sampler.h"

#include <chrono>
#include <cstdlib>
#include <utility>

#include "telemetry/flight_recorder.h"
#include "telemetry/log.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_event.h"

namespace fsdm::telemetry {

AshAggregate AggregateAsh(const std::vector<AshSample>& samples,
                          uint64_t since_us, uint64_t until_us) {
  AshAggregate agg;
  for (const AshSample& s : samples) {
    if (s.ts_us <= since_us) continue;
    if (until_us != 0 && s.ts_us > until_us) continue;
    ++agg.db_samples;
    const size_t state = static_cast<size_t>(s.state);
    agg.by_state[state] += 1;
    const std::string& coll = s.collection.empty() ? "(none)" : s.collection;
    auto [it, inserted] = agg.by_collection.try_emplace(coll);
    if (inserted) it->second.fill(0);
    it->second[state] += 1;
    if (!s.query.empty()) agg.by_query[s.query] += 1;
    if (s.shard >= 0) agg.by_shard[s.shard] += 1;
  }
  return agg;
}

ActivitySampler& ActivitySampler::Global() {
  // Leaked like WorkerPool: the sampler thread must never outlive its
  // ring/registry during static destruction, so neither is destroyed.
  static ActivitySampler* sampler = new ActivitySampler();
  return *sampler;
}

double ActivitySampler::HzFromEnv() {
  const char* env = std::getenv("FSDM_ASH_HZ");
  if (env == nullptr || env[0] == '\0') return 1000.0;
  char* end = nullptr;
  const double v = std::strtod(env, &end);
  if (end == env || *end != '\0' || !(v > 0)) return 0.0;
  return v > 10000.0 ? 10000.0 : (v < 1.0 ? 1.0 : v);
}

bool ActivitySampler::Start() {
  const double hz = HzFromEnv();
  if (hz <= 0) return false;
  std::lock_guard<std::mutex> lock(ctl_mu_);
  if (running_) return false;
  // Register the sampler's own metrics on the caller's thread, before the
  // sampler thread exists: its ticks then only touch pre-existing (and
  // individually thread-safe) handles, never inserting into the registry
  // maps while another thread iterates them.
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("fsdm_ash_ticks_total");
  registry.GetCounter("fsdm_ash_db_samples_total");
  registry.GetGauge("fsdm_ash_active_sessions");
  registry.GetGauge("fsdm_ash_sampler_hz");
  stop_requested_.store(false, std::memory_order_relaxed);
  hz_ = hz;
  running_ = true;
  // Lazy thread: the first lease activation spawns it via this hook, so
  // a workload that never queries (fig7's insert loop) never pays for a
  // second thread's existence. When work is already in flight at arm
  // time, spawn right away — there will be no 0 -> 1 edge to catch.
  ActivityRegistry::Global().SetActivationHook(
      +[] { ActivitySampler::Global().EnsureThread(); });
  if (ActivityRegistry::Global().ActiveCount() > 0 && !thread_.joinable()) {
    thread_ = std::thread([this, hz] { RunLoop(hz); });
  }
  FSDM_GAUGE_SET("fsdm_ash_sampler_hz", hz);
  FSDM_LOG(LogLevel::kInfo, "sampler", 6001, "activity sampler armed",
           LogNum("hz", hz));
  return true;
}

void ActivitySampler::EnsureThread() {
  std::lock_guard<std::mutex> lock(ctl_mu_);
  if (!running_ || thread_.joinable()) return;
  const double hz = hz_;
  thread_ = std::thread([this, hz] { RunLoop(hz); });
}

void ActivitySampler::Stop() {
  std::lock_guard<std::mutex> lock(ctl_mu_);
  if (!running_) return;
  ActivityRegistry::Global().SetActivationHook(nullptr);
  {
    std::lock_guard<std::mutex> stop_lock(stop_mu_);
    stop_requested_.store(true, std::memory_order_relaxed);
  }
  stop_cv_.notify_all();
  // The thread may be parked in tickless idle on the registry's cv.
  ActivityRegistry::Global().NotifyActivityWaiters();
  if (thread_.joinable()) thread_.join();
  running_ = false;
  FSDM_GAUGE_SET("fsdm_ash_sampler_hz", 0);
}

bool ActivitySampler::running() const {
  std::lock_guard<std::mutex> lock(ctl_mu_);
  return running_;
}

double ActivitySampler::hz() const {
  std::lock_guard<std::mutex> lock(ctl_mu_);
  return hz_;
}

void ActivitySampler::RunLoop(double hz) {
  const auto period = std::chrono::duration<double>(1.0 / hz);
  ActivityRegistry& registry = ActivityRegistry::Global();
  for (;;) {
    if (stop_requested_.load(std::memory_order_relaxed)) return;
    if (registry.ActiveCount() == 0) {
      // Tickless idle (the kernel's NO_HZ idea): with no lease held, a
      // tick would retain nothing, so park instead of burning `hz`
      // wakeups per second — on a busy single-core host the wakeups
      // alone cost more than the sampling. The first Begin() notifies,
      // so no active time goes unsampled; the timeout only bounds how
      // stale the stop check can get. Rate limiting keeps the park log
      // from flooding the ring on an idle process.
      FSDM_LOG(LogLevel::kDebug, "sampler", 6002,
               "sampler parked: no active sessions");
      registry.WaitForActivity(std::chrono::microseconds(100000));
      continue;
    }
    {
      std::unique_lock<std::mutex> lock(stop_mu_);
      if (stop_cv_.wait_for(lock, period, [&] {
            return stop_requested_.load(std::memory_order_relaxed);
          })) {
        return;
      }
    }
    SampleOnce();
  }
}

size_t ActivitySampler::SampleOnce() {
  const uint64_t now = MonotonicNowUs();
  std::lock_guard<std::mutex> sample_lock(sample_mu_);
  // Active-only fast path: an idle engine's tick is one relaxed load per
  // record plus the tick counter — no allocation, no string copies.
  scratch_.clear();
  ActivityRegistry::Global().AppendActiveSamples(&scratch_);
  const size_t active = scratch_.size();
  ticks_.fetch_add(1, std::memory_order_relaxed);
  db_samples_total_.fetch_add(active, std::memory_order_relaxed);
  for (ActivitySample& s : scratch_) {
    AshSample sample;
    sample.ts_us = now;
    sample.thread_slot = s.thread_slot;
    sample.state = s.state;
    sample.collection = std::move(s.collection);
    sample.access_path = std::move(s.access_path);
    sample.op = std::move(s.op);
    sample.query = std::move(s.query);
    sample.shard = s.shard;
    sample.worker = s.worker;
    sample.query_id = s.query_id;
    ring_.Push(std::move(sample));
  }
  // Registry counters last: a first-use GetCounter takes the registry
  // map mutex, which itself flips this thread's wait state.
  FSDM_COUNT("fsdm_ash_ticks_total", 1);
  if (active > 0) {
    FSDM_COUNT("fsdm_ash_db_samples_total", active);
  }
  // Publish the gauge and trace-counter series only on change: a quiet
  // engine's 1 kHz ticks would otherwise spam the armed flight recorder
  // with identical zero samples.
  if (active != last_published_active_) {
    last_published_active_ = active;
    FSDM_GAUGE_SET("fsdm_ash_active_sessions", active);
    FSDM_TRACE_COUNTER("ash", "ash.active_sessions", active);
  }
  return active;
}

AshAggregate ActivitySampler::Aggregate() const {
  return AggregateAsh(Snapshot(), /*since_us=*/0, /*until_us=*/0);
}

}  // namespace fsdm::telemetry
