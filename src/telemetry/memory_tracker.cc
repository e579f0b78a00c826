#include "telemetry/memory_tracker.h"

#include <algorithm>
#include <utility>

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

std::string AccountGaugeName(MemSubsystem subsystem,
                             const std::string& collection) {
  std::string name = "fsdm_mem_bytes{subsystem=\"";
  name += MemSubsystemName(subsystem);
  name += "\",collection=\"";
  name += collection;
  name += "\"}";
  return name;
}

/// Adds a two's-complement delta and returns the new value.
uint64_t Shift(std::atomic<uint64_t>& value, int64_t delta) {
  return value.fetch_add(static_cast<uint64_t>(delta),
                         std::memory_order_relaxed) +
         static_cast<uint64_t>(delta);
}

/// Raises `peak` to `now`; true when it did.
bool Ratchet(std::atomic<uint64_t>& peak, uint64_t now) {
  uint64_t seen = peak.load(std::memory_order_relaxed);
  while (now > seen) {
    if (peak.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

/// Publishes `value` to `gauge` until the two agree, so that of several
/// concurrent movers the last one to look leaves the newest value.
void Publish(Gauge* gauge, const std::atomic<uint64_t>& value) {
  uint64_t shown = value.load(std::memory_order_relaxed);
  for (;;) {
    gauge->Set(static_cast<double>(shown));
    const uint64_t now = value.load(std::memory_order_relaxed);
    if (now == shown) return;
    shown = now;
  }
}

}  // namespace

MemoryAccount::MemoryAccount(MemSubsystem subsystem, std::string collection)
    : subsystem_(subsystem),
      collection_(std::move(collection)),
      gauge_(MetricsRegistry::Global().GetGauge(
          AccountGaugeName(subsystem_, collection_))) {
  MemoryTracker& tracker = MemoryTracker::Global();
  std::lock_guard<std::mutex> lock(tracker.mu_);
  tracker.named_.push_back(this);
}

MemoryAccount::MemoryAccount(MemSubsystem subsystem)
    : subsystem_(subsystem), collection_("-") {}

MemoryAccount::~MemoryAccount() {
  if (gauge_ == nullptr) return;  // anonymous: lives as long as the tracker
  MemoryTracker& tracker = MemoryTracker::Global();
  {
    std::lock_guard<std::mutex> lock(tracker.mu_);
    tracker.named_.erase(
        std::find(tracker.named_.begin(), tracker.named_.end(), this));
  }
  Set(0);  // a dropped collection leaves the totals and the exports
}

void MemoryAccount::Add(int64_t delta) {
  if (delta == 0) return;
  const uint64_t now = Shift(bytes_, delta);
  if (delta > 0) Ratchet(peak_, now);
  if (gauge_ != nullptr) gauge_->Set(static_cast<double>(now));
  MemoryTracker::Global().Move(subsystem_, delta);
}

MemoryTracker::MemoryTracker()
    : total_gauge_(MetricsRegistry::Global().GetGauge("fsdm_mem_total_bytes")),
      peak_gauge_(MetricsRegistry::Global().GetGauge("fsdm_mem_peak_bytes")) {
  for (size_t i = 0; i < kMemSubsystemCount; ++i) {
    anonymous_[i].reset(new MemoryAccount(static_cast<MemSubsystem>(i)));
  }
}

MemoryTracker& MemoryTracker::Global() {
  // Leaked like the other telemetry singletons: accounts may close during
  // static destruction of their owners.
  static MemoryTracker* tracker = new MemoryTracker();
  return *tracker;
}

void MemoryTracker::Move(MemSubsystem subsystem, int64_t delta) {
  const size_t idx = static_cast<size_t>(subsystem);
  const uint64_t in_subsystem = Shift(subsystem_bytes_[idx], delta);
  const uint64_t total = Shift(total_, delta);
  if (delta > 0) {
    Ratchet(subsystem_peak_[idx], in_subsystem);
    if (Ratchet(peak_total_, total)) Publish(peak_gauge_, peak_total_);
  }
  Publish(total_gauge_, total_);
}

std::vector<MemoryTracker::Entry> MemoryTracker::Entries() const {
  std::vector<Entry> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(named_.size() + 2);
    for (const MemoryAccount* a : named_) {
      out.push_back({a->subsystem(), a->collection(), a->bytes(),
                     a->peak_bytes()});
    }
  }
  for (const std::unique_ptr<MemoryAccount>& a : anonymous_) {
    if (a->bytes() == 0 && a->peak_bytes() == 0) continue;
    out.push_back({a->subsystem(), a->collection(), a->bytes(),
                   a->peak_bytes()});
  }
  return out;
}

void MemoryTracker::ResetPeaks() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (MemoryAccount* a : named_) a->peak_.store(a->bytes());
  }
  for (const std::unique_ptr<MemoryAccount>& a : anonymous_) {
    a->peak_.store(a->bytes());
  }
  for (size_t i = 0; i < kMemSubsystemCount; ++i) {
    subsystem_peak_[i].store(subsystem_bytes_[i].load());
  }
  peak_total_.store(total_.load());
  Publish(peak_gauge_, peak_total_);
}

void MemoryTracker::ResetCharges() {
  for (const std::unique_ptr<MemoryAccount>& a : anonymous_) {
    a->Set(0);
    a->peak_.store(0);
  }
}

}  // namespace fsdm::telemetry
