#include "telemetry/slow_query.h"

#include <utility>

#include "telemetry/activity.h"
#include "telemetry/telemetry.h"

namespace fsdm::telemetry {

SlowQueryLog& SlowQueryLog::Global() {
  static SlowQueryLog* log = new SlowQueryLog();
  return *log;
}

void SlowQueryLog::SetCapacity(size_t n) { records_.SetCapacity(n); }

void SlowQueryLog::Record(SlowQueryRecord rec) {
  FSDM_COUNT("fsdm_slow_queries_total", 1);
  ScopedWaitState wait(WaitState::kLockWait);
  std::lock_guard<std::mutex> lock(mu_);
  records_.Push(std::move(rec));
  ++total_captured_;
}

std::vector<SlowQueryRecord> SlowQueryLog::Snapshot() const {
  ScopedWaitState wait(WaitState::kLockWait);
  return records_.Snapshot();
}

void SlowQueryLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.Clear();
  total_captured_ = 0;
}

}  // namespace fsdm::telemetry
