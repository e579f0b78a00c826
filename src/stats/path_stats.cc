#include "stats/path_stats.h"

#include <algorithm>


namespace fsdm::stats {

// --- ValueHistogram ---------------------------------------------------------

void ValueHistogram::Add(double v) {
  ++total_;
  if (!frozen()) {
    buffer_.push_back(v);
    if (buffer_.size() >= kSeedCapacity) Freeze();
    return;
  }
  size_t bucket;
  if (hi_ == lo_) {
    bucket = 0;
  } else {
    double pos = (v - lo_) / (hi_ - lo_);
    pos = std::min(1.0, std::max(0.0, pos));
    bucket = std::min(counts_.size() - 1,
                      static_cast<size_t>(pos * static_cast<double>(
                                                    counts_.size())));
  }
  ++counts_[bucket];
}

void ValueHistogram::Freeze() {
  lo_ = *std::min_element(buffer_.begin(), buffer_.end());
  hi_ = *std::max_element(buffer_.begin(), buffer_.end());
  counts_.assign(hi_ == lo_ ? 1 : kBuckets, 0);
  std::vector<double> seed = std::move(buffer_);
  buffer_.clear();
  total_ -= seed.size();  // Add() re-counts them
  for (double v : seed) Add(v);
}

double ValueHistogram::FractionBelow(double x, bool inclusive) const {
  if (total_ == 0) return 0.0;
  if (!frozen()) {
    uint64_t below = 0;
    for (double v : buffer_) {
      if (v < x || (inclusive && v == x)) ++below;
    }
    return static_cast<double>(below) / static_cast<double>(total_);
  }
  if (hi_ == lo_) {
    return (x > lo_ || (inclusive && x == lo_)) ? 1.0 : 0.0;
  }
  if (x <= lo_) return (inclusive && x == lo_) ? 0.0 : 0.0;
  if (x >= hi_) return 1.0;
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  const size_t hit = std::min(counts_.size() - 1,
                              static_cast<size_t>((x - lo_) / width));
  uint64_t below = 0;
  for (size_t i = 0; i < hit; ++i) below += counts_[i];
  const double in_bucket_frac =
      (x - (lo_ + static_cast<double>(hit) * width)) / width;
  const double partial = static_cast<double>(counts_[hit]) * in_bucket_frac;
  return (static_cast<double>(below) + partial) / static_cast<double>(total_);
}

void ValueHistogram::Clear() {
  buffer_.clear();
  counts_.clear();
  lo_ = hi_ = 0;
  total_ = 0;
}

// --- PathStatsRepository ----------------------------------------------------

void PathStatsRepository::OnScalar(const dataguide::StagedNode& node) {
  if (node.path >= by_id_.size()) {
    bytes_.fetch_add((node.path + 1 - by_id_.size()) *
                         sizeof(std::unique_ptr<PathStats>),
                     std::memory_order_relaxed);
    by_id_.resize(node.path + 1);
  }
  std::unique_ptr<PathStats>& slot = by_id_[node.path];
  if (slot == nullptr) {
    slot = std::make_unique<PathStats>();
    bytes_.fetch_add(sizeof(PathStats), std::memory_order_relaxed);
  }
  PathStats& s = *slot;
  // Per-document frequency via the stamp trick: the current document's
  // stamp is docs_seen_ + 1 (OnDocumentEnd increments docs_seen_ after the
  // walk).
  const uint64_t stamp = docs_seen_ + 1;
  if (s.last_doc_stamp != stamp) {
    s.last_doc_stamp = stamp;
    ++s.doc_frequency;
  }
  const Value& v = node.value;
  if (v.is_null()) {
    ++s.null_count;
    return;
  }
  ++s.value_count;
  s.ndv.Add(node.Display());
  // Min/max keep the first comparable extremes; a heterogeneous path
  // (string vs number) simply stops updating across the incomparable pair.
  if (!s.min_value.has_value()) {
    s.min_value = v;
    s.max_value = v;
  } else {
    Result<int> lo = v.CompareTo(*s.min_value);
    if (lo.ok() && lo.value() < 0) s.min_value = v;
    Result<int> hi = v.CompareTo(*s.max_value);
    if (hi.ok() && hi.value() > 0) s.max_value = v;
  }
  if (v.IsNumeric()) {
    // Freezing the seed buffer into buckets shrinks the heap; the unsigned
    // wrap-around of the difference refunds it.
    const uint64_t before = s.histogram.HeapBytes();
    s.histogram.Add(v.NumericAsDouble());
    bytes_.fetch_add(s.histogram.HeapBytes() - before,
                     std::memory_order_relaxed);
  }
}

void PathStatsRepository::OnDocumentEnd() { ++docs_seen_; }

std::vector<std::pair<std::string_view, const PathStats*>>
PathStatsRepository::Sorted(const dataguide::PathDictionary& paths) const {
  std::vector<std::pair<std::string_view, const PathStats*>> out;
  for (dataguide::PathId id = 0; id < by_id_.size(); ++id) {
    if (by_id_[id] != nullptr) {
      out.emplace_back(paths.Name(id), by_id_[id].get());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::optional<double> PathStatsRepository::ExistenceSelectivity(
    dataguide::PathId path) const {
  if (docs_seen_ == 0) return std::nullopt;
  const PathStats* s = Find(path);
  if (s == nullptr) return 0.0;
  return std::min(1.0, static_cast<double>(s->doc_frequency) /
                           static_cast<double>(docs_seen_));
}

double PathStatsRepository::NdvEstimate(dataguide::PathId path) const {
  const PathStats* s = Find(path);
  return s == nullptr ? 0.0 : s->ndv.Estimate();
}

uint64_t PathStatsRepository::RecomputeMemoryBytes() const {
  uint64_t total = by_id_.size() * sizeof(std::unique_ptr<PathStats>);
  for (const std::unique_ptr<PathStats>& s : by_id_) {
    if (s != nullptr) total += sizeof(PathStats) + s->histogram.HeapBytes();
  }
  return total;
}

void PathStatsRepository::Clear() {
  by_id_.clear();
  docs_seen_ = 0;
  bytes_.store(0, std::memory_order_relaxed);
}

}  // namespace fsdm::stats
