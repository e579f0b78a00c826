#include "telemetry/memory_tracker.h"

#include <algorithm>

namespace fsdm::telemetry {

const char* MemSubsystemName(MemSubsystem s) {
  switch (s) {
    case MemSubsystem::kTableHeap:
      return "table-heap";
    case MemSubsystem::kOsonVc:
      return "oson-vc";
    case MemSubsystem::kIndexPostings:
      return "index-postings";
    case MemSubsystem::kDataGuide:
      return "dataguide";
    case MemSubsystem::kImc:
      return "imc";
    case MemSubsystem::kPathStats:
      return "path-stats";
    case MemSubsystem::kWalBuffers:
      return "wal-buffers";
    case MemSubsystem::kPlanWorkingSet:
      return "plan-working-set";
  }
  return "?";
}

namespace {

std::string EntryGaugeName(MemSubsystem subsystem,
                           const std::string& collection) {
  std::string name = "fsdm_mem_bytes{subsystem=\"";
  name += MemSubsystemName(subsystem);
  name += "\",collection=\"";
  name += collection;
  name += "\"}";
  return name;
}

}  // namespace

MemoryTracker& MemoryTracker::Global() {
  // Leaked like the other telemetry singletons: reporters may unregister
  // during static destruction of their owners.
  static MemoryTracker* tracker = new MemoryTracker();
  return *tracker;
}

uint64_t MemoryTracker::RegisterReporter(MemSubsystem subsystem,
                                         std::string collection,
                                         std::function<uint64_t()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  Reporter r;
  r.id = next_id_++;
  r.subsystem = subsystem;
  r.collection = std::move(collection);
  r.fn = std::move(fn);
  reporters_.push_back(std::move(r));
  return reporters_.back().id;
}

void MemoryTracker::UnregisterReporter(uint64_t id) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < reporters_.size(); ++i) {
    if (reporters_[i].id != id) continue;
    // Poll one last time so the bytes the structure held reach the
    // subsystem and total peaks, even if no Refresh() ran in its lifetime.
    // Swap its last report for this poll in the current figures; those
    // can lag last_bytes while a concurrent Refresh() publishes, so clamp.
    const Reporter& r = reporters_[i];
    const uint64_t now = r.fn ? r.fn() : 0;
    auto replaced = [&r, now](uint64_t current) {
      return (current > r.last_bytes ? current - r.last_bytes : 0) + now;
    };
    RatchetSubsystemPeak(static_cast<size_t>(r.subsystem),
                         replaced(SubsystemBytes(r.subsystem)));
    RatchetTotals(replaced(CurrentBytes()));
    // Zero the gauge so a dropped collection doesn't linger in exports.
    if (reporters_[i].gauge != nullptr) reporters_[i].gauge->Set(0);
    reporters_.erase(reporters_.begin() + static_cast<ptrdiff_t>(i));
    break;
  }
}

void MemoryTracker::Charge(MemSubsystem subsystem, uint64_t bytes) {
  if (bytes == 0) return;
  const size_t idx = static_cast<size_t>(subsystem);
  const int64_t now =
      charged_[idx].fetch_add(static_cast<int64_t>(bytes),
                              std::memory_order_relaxed) +
      static_cast<int64_t>(bytes);
  // Ratchet the subsystem peak: transient charges (a drain's buffered
  // working set) would otherwise be invisible to any later Refresh().
  uint64_t peak = charged_peak_[idx].load(std::memory_order_relaxed);
  const uint64_t now_u = now > 0 ? static_cast<uint64_t>(now) : 0;
  while (now_u > peak &&
         !charged_peak_[idx].compare_exchange_weak(
             peak, now_u, std::memory_order_relaxed)) {
  }
  RatchetSubsystemPeak(
      idx, reported_[idx].load(std::memory_order_relaxed) + now_u);
  RatchetTotals(CurrentBytes());
}

void MemoryTracker::Release(MemSubsystem subsystem, uint64_t bytes) {
  if (bytes == 0) return;
  charged_[static_cast<size_t>(subsystem)].fetch_sub(
      static_cast<int64_t>(bytes), std::memory_order_relaxed);
}

void MemoryTracker::RatchetTotals(uint64_t current) {
  uint64_t peak = peak_total_.load(std::memory_order_relaxed);
  while (current > peak &&
         !peak_total_.compare_exchange_weak(peak, current,
                                            std::memory_order_relaxed)) {
  }
}

void MemoryTracker::RatchetSubsystemPeak(size_t idx, uint64_t current) {
  uint64_t peak = subsystem_peak_[idx].load(std::memory_order_relaxed);
  while (current > peak &&
         !subsystem_peak_[idx].compare_exchange_weak(
             peak, current, std::memory_order_relaxed)) {
  }
}

uint64_t MemoryTracker::Refresh() {
  uint64_t by_subsystem[kMemSubsystemCount] = {};
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Reporter& r : reporters_) {
      r.last_bytes = r.fn ? r.fn() : 0;
      r.peak_bytes = std::max(r.peak_bytes, r.last_bytes);
      by_subsystem[static_cast<size_t>(r.subsystem)] += r.last_bytes;
      if (r.gauge == nullptr) {
        r.gauge = MetricsRegistry::Global().GetGauge(
            EntryGaugeName(r.subsystem, r.collection));
      }
      r.gauge->Set(static_cast<double>(r.last_bytes));
    }
  }
  uint64_t total = 0;
  for (size_t i = 0; i < kMemSubsystemCount; ++i) {
    reported_[i].store(by_subsystem[i], std::memory_order_relaxed);
    uint64_t subsystem_now = by_subsystem[i];
    const int64_t charged = charged_[i].load(std::memory_order_relaxed);
    if (charged > 0) subsystem_now += static_cast<uint64_t>(charged);
    RatchetSubsystemPeak(i, subsystem_now);
    total += subsystem_now;
  }
  reported_total_.store(total, std::memory_order_relaxed);
  RatchetTotals(total);
  FSDM_GAUGE_SET("fsdm_mem_total_bytes", static_cast<double>(total));
  FSDM_GAUGE_SET("fsdm_mem_peak_bytes", static_cast<double>(PeakBytes()));
  return total;
}

uint64_t MemoryTracker::CurrentBytes() const {
  // reported_total_ already folds in the charges live at the last
  // Refresh(); adding today's charges over-counts by that stale slice
  // until the next Refresh. Recompute from the per-subsystem splits
  // instead: reported reporter bytes + live charges.
  uint64_t total = 0;
  for (size_t i = 0; i < kMemSubsystemCount; ++i) {
    total += reported_[i].load(std::memory_order_relaxed);
    const int64_t charged = charged_[i].load(std::memory_order_relaxed);
    if (charged > 0) total += static_cast<uint64_t>(charged);
  }
  return total;
}

uint64_t MemoryTracker::SubsystemBytes(MemSubsystem s) const {
  const size_t idx = static_cast<size_t>(s);
  uint64_t total = reported_[idx].load(std::memory_order_relaxed);
  const int64_t charged = charged_[idx].load(std::memory_order_relaxed);
  if (charged > 0) total += static_cast<uint64_t>(charged);
  return total;
}

std::vector<MemoryTracker::Entry> MemoryTracker::Entries() const {
  std::vector<Entry> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(reporters_.size() + 2);
    for (const Reporter& r : reporters_) {
      out.push_back({r.subsystem, r.collection, r.last_bytes, r.peak_bytes});
    }
  }
  for (size_t i = 0; i < kMemSubsystemCount; ++i) {
    const int64_t charged = charged_[i].load(std::memory_order_relaxed);
    const uint64_t peak = charged_peak_[i].load(std::memory_order_relaxed);
    if (charged <= 0 && peak == 0) continue;
    out.push_back({static_cast<MemSubsystem>(i), "-",
                   charged > 0 ? static_cast<uint64_t>(charged) : 0, peak});
  }
  return out;
}

size_t MemoryTracker::reporter_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reporters_.size();
}

void MemoryTracker::ResetPeaks() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Reporter& r : reporters_) r.peak_bytes = r.last_bytes;
  for (size_t i = 0; i < kMemSubsystemCount; ++i) {
    charged_peak_[i].store(0, std::memory_order_relaxed);
    subsystem_peak_[i].store(0, std::memory_order_relaxed);
  }
  peak_total_.store(0, std::memory_order_relaxed);
}

void MemoryTracker::ResetCharges() {
  for (size_t i = 0; i < kMemSubsystemCount; ++i) {
    charged_[i].store(0, std::memory_order_relaxed);
    charged_peak_[i].store(0, std::memory_order_relaxed);
  }
}

}  // namespace fsdm::telemetry
