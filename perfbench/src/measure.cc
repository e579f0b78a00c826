#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory_resource>

#include "json/parser.h"
#include "json/serializer.h"
#include "telemetry/memory_tracker.h"
#include "telemetry/telemetry.h"

namespace fsdm::perfbench {

namespace {

/// The probe: 6000 ordered-map inserts and 6000 lookups of formatted keys,
/// all allocated from a fixed arena. Returns its elapsed microseconds.
double ProbeUs() {
  static std::vector<std::byte> arena(4 << 20);
  static volatile int64_t sink = 0;
  Stopwatch t;
  std::pmr::monotonic_buffer_resource pool(arena.data(), arena.size());
  std::pmr::map<std::pmr::string, int64_t> map(&pool);
  char key[32];
  uint64_t s = 7;
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < 6000; ++i) {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      const int n = snprintf(key, sizeof(key), "%llu_probe_key",
                             static_cast<unsigned long long>((s >> 33) % 100000));
      std::pmr::string k(key, static_cast<size_t>(n), &pool);
      if (pass == 0) {
        map[std::move(k)] += i;
      } else if (auto it = map.find(k); it != map.end()) {
        sink = sink + it->second;
      }
    }
  }
  return t.Us();
}

}  // namespace

HostSpeed::HostSpeed() { ProbeUs(); }

void HostSpeed::Sample() {
  const double us = ProbeUs();
  probe_us_.push_back(us);
  factor_ = us / kReferenceUs;
}

double HostSpeed::MedianProbeUs() const { return Median(probe_us_); }

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double TrimmedMean(std::vector<double> v, double share) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t cut = static_cast<size_t>(share * static_cast<double>(v.size()));
  double sum = 0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double ChunkedPercentile(const std::vector<double>& v, double q,
                         size_t chunk) {
  const size_t chunks = chunk == 0 ? 0 : v.size() / chunk;
  if (chunks < 2) return Percentile(v, q);
  std::vector<double> per_chunk;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t begin = c * chunk;
    const size_t end = c + 1 == chunks ? v.size() : begin + chunk;
    per_chunk.push_back(Percentile(
        std::vector<double>(v.begin() + begin, v.begin() + end), q));
  }
  return Median(std::move(per_chunk));
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

uint64_t DirBytes(const std::filesystem::path& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

void CopyDir(const std::filesystem::path& src,
             const std::filesystem::path& dst) {
  std::filesystem::remove_all(dst);
  std::filesystem::create_directories(dst);
  for (const auto& entry : std::filesystem::directory_iterator(src)) {
    if (entry.is_regular_file()) {
      std::filesystem::copy_file(entry.path(), dst / entry.path().filename());
    }
  }
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  if (failed_ < 5) fprintf(stderr, "oracle miss: %s\n", what.c_str());
  ++failed_;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.emplace_back(name, std::make_pair(value, unit));
}

int Report::Print() const {
  const bool correct = failed_ == 0 && attempted_ > 0;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    char num[64];
    snprintf(num, sizeof(num), "%.17g",
             std::isfinite(vu.first) ? vu.first : 0.0);
    if (i) out += ", ";
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  out += "}}";
  fflush(stderr);
  printf("%s\n", out.c_str());
  fflush(stdout);
  return correct ? 0 : 1;
}

RouteStats::RouteStats() {
  for (collection::AccessPath p :
       {collection::AccessPath::kIndexedValueScan,
        collection::AccessPath::kIndexedPathScan,
        collection::AccessPath::kPostingIntersectScan,
        collection::AccessPath::kImcFilterScan,
        collection::AccessPath::kFullScan,
        collection::AccessPath::kShardedUnion}) {
    access_paths_[collection::AccessPathName(p)] = 0;
  }
}

namespace {

uint64_t LeafRows(const telemetry::OperatorSpan& span) {
  if (span.children.empty()) {
    return span.rows_out.load(std::memory_order_relaxed);
  }
  uint64_t rows = 0;
  for (const auto& child : span.children) rows += LeafRows(*child);
  return rows;
}

}  // namespace

void RouteStats::Record(const collection::RoutedPlan& plan, double route_us,
                        double drain_us) {
  route_us_.push_back(route_us);
  drain_us_.push_back(drain_us);
  ++access_paths_[collection::AccessPathName(plan.access_path)];
  if (plan.trace.root == nullptr) return;
  const uint64_t returned =
      plan.trace.root->rows_out.load(std::memory_order_relaxed);
  rows_returned_ += returned;
  rows_examined_ += LeafRows(*plan.trace.root);
  const double est = plan.trace.decision.est_out_rows;
  if (est >= 0) {
    const double actual = static_cast<double>(returned);
    const double ratio =
        std::max((actual + 1.0) / (est + 1.0), (est + 1.0) / (actual + 1.0));
    if (ratio > 4.0) ++misestimates_;
  }
}

void RouteStats::Emit(Report* report) const {
  report->Metric("collection.route_us_per_query", Median(route_us_), "us");
  report->Metric("collection.drain_us_per_query", Median(drain_us_), "us");
  report->Metric("collection.rows_examined_per_row_returned",
                 rows_returned_ == 0
                     ? 0.0
                     : static_cast<double>(rows_examined_) /
                           static_cast<double>(rows_returned_),
                 "ratio");
  for (const auto& [name, count] : access_paths_) {
    report->Metric("collection.access_path." + name,
                   static_cast<double>(count), "count");
  }
  report->Metric("collection.misestimates", static_cast<double>(misestimates_),
                 "count");
}

RoutedRows RouteAndDrain(const collection::JsonCollection& coll,
                         const std::vector<collection::PathPredicate>& preds,
                         double* route_us, double* drain_us) {
  RoutedRows out;
  const double t0 = NowUs();
  Result<collection::RoutedPlan> routed = coll.Route(preds);
  const double t1 = NowUs();
  *route_us = t1 - t0;
  *drain_us = 0;
  if (!routed.ok()) return out;
  out.plan = routed.MoveValue();
  Result<std::vector<rdbms::Row>> rows = rdbms::Collect(out.plan.plan.get());
  *drain_us = NowUs() - t1;
  if (!rows.ok()) return out;
  out.rows = rows.MoveValue();
  out.ok = true;
  return out;
}

namespace {

void AppendCanonical(const json::JsonNode& node, std::string* out) {
  if (node.is_object()) {
    std::vector<size_t> order(node.field_count());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return node.field_name(a) < node.field_name(b);
    });
    out->push_back('{');
    for (size_t i = 0; i < order.size(); ++i) {
      if (i) out->push_back(',');
      json::AppendQuoted(out, node.field_name(order[i]));
      out->push_back(':');
      AppendCanonical(*node.field_value(order[i]), out);
    }
    out->push_back('}');
  } else if (node.is_array()) {
    out->push_back('[');
    for (size_t i = 0; i < node.array_size(); ++i) {
      if (i) out->push_back(',');
      AppendCanonical(*node.element(i), out);
    }
    out->push_back(']');
  } else {
    *out += json::Serialize(node);
  }
}

}  // namespace

std::string CanonicalJson(std::string_view text) {
  Result<std::unique_ptr<json::JsonNode>> parsed = json::Parse(text);
  if (!parsed.ok()) return "";
  std::string out;
  AppendCanonical(*parsed.value(), &out);
  return out;
}

uint64_t ResidentBytes() { return telemetry::MemoryTracker::Global().Refresh(); }

uint64_t ImcPopulatedRows() {
  return telemetry::MetricsRegistry::Global().CounterValue(
      "fsdm_imc_populated_rows_total");
}

std::pair<Value, std::string> KeyAndText(const collection::JsonCollection& c,
                                         size_t row_id) {
  Result<rdbms::Row> row = c.table()->MaterializeRow(row_id);
  if (!row.ok() || row.value().size() < 2) return {Value::Null(), ""};
  const Value& doc = row.value()[1];
  return {row.value()[0], doc.is_null() ? "" : doc.AsString()};
}

collection::CollectionOptions DurableOptions(const std::filesystem::path& dir,
                                             bool search_index) {
  collection::CollectionOptions options;
  options.attach_search_index = search_index;
  options.wal_dir = dir.string();
  options.wal_fsync = wal::FsyncPolicy::kOff;
  return options;
}

namespace {

/// Time the engine has spent in WAL fsyncs so far; 0 when its metrics are
/// compiled out.
double FsyncUs() {
  const telemetry::Histogram* h =
      telemetry::MetricsRegistry::Global().FindHistogram("fsdm_wal_fsync_us");
  return h == nullptr ? 0 : h->sum();
}

}  // namespace

double TimedReplay(const std::filesystem::path& log,
                   const std::filesystem::path& scratch, bool search_index,
                   const std::vector<std::string>& expected, int64_t first_key,
                   bool inject, HostSpeed* host, Report* report) {
  CopyDir(log, scratch);
  rdbms::Database db;
  host->Sample();
  const double fsync_before = FsyncUs();
  Stopwatch t;
  Result<std::unique_ptr<collection::JsonCollection>> recovered =
      collection::JsonCollection::Create(&db, "RECOVERED",
                                         DurableOptions(scratch, search_index));
  // Recovery ends with a checkpoint that fsyncs whatever the policy; the
  // device's flush time is left out like everywhere else.
  const double seconds =
      host->Normalize(t.Us() - (FsyncUs() - fsync_before)) / 1e6;
  report->Check(recovered.ok(), "recovery");
  if (!recovered.ok()) return 0;
  const collection::JsonCollection& coll = *recovered.value();
  const size_t acked = expected.size() + (inject ? 1 : 0);
  report->Check(coll.document_count() == acked,
                "recovered " + std::to_string(coll.document_count()) +
                    " documents, acknowledged " + std::to_string(acked));
  size_t sampled = 0;
  size_t matched = 0;
  for (size_t row = 0; row < coll.table()->row_count(); ++row) {
    if (!coll.table()->IsLive(row) || row % 10 != 0) continue;
    ++sampled;
    auto [key, text] = KeyAndText(coll, row);
    const int64_t i = key.is_null() ? -1 : key.AsInt64() - first_key;
    if (i >= 0 && static_cast<size_t>(i) < expected.size() &&
        CanonicalJson(expected[static_cast<size_t>(i)]) == CanonicalJson(text)) {
      ++matched;
    }
  }
  report->Check(sampled > 0 && matched == sampled,
                "recovered documents equal the acknowledged ones: " +
                    std::to_string(matched) + " of " + std::to_string(sampled));
  recovered.value().reset();
  std::filesystem::remove_all(scratch);
  return static_cast<double>(expected.size()) / seconds;
}

std::filesystem::path CheckpointAndVerify(
    collection::JsonCollection* coll, const std::filesystem::path& live_dir,
    const std::filesystem::path& workdir, bool search_index,
    const std::vector<std::string>& expected, Report* report) {
  const std::filesystem::path pristine = workdir / "pristine";
  report->Check(coll != nullptr && coll->Checkpoint().ok(), "checkpoint");
  CopyDir(live_dir, pristine);
  HostSpeed host;
  TimedReplay(pristine, workdir / "replay", search_index, expected, 0,
              /*inject=*/false, &host, report);
  return pristine;
}

bool TracedRound(size_t round_index) { return round_index % 2 == 1; }

double TraceOverheadShare(const std::vector<double>& round_ops_per_s) {
  std::vector<double> traced;
  std::vector<double> untraced;
  for (size_t i = 0; i < round_ops_per_s.size(); ++i) {
    (TracedRound(i) ? traced : untraced).push_back(round_ops_per_s[i]);
  }
  return Median(std::move(traced)) / Median(std::move(untraced));
}

void EmitEndToEnd(const EndToEnd& e2e, Report* report) {
  fprintf(stderr, "host probe median %.1f us (reference %.0f us)\n",
          e2e.host.MedianProbeUs(), HostSpeed::kReferenceUs);
  report->Check(e2e.peak_rss_mb > 0, "space sampled at its fixed point");
  report->Metric("ops_per_s", e2e.ops / (e2e.busy_us / 1e6), "1/s");
  report->Metric("write_p50_us", Median(e2e.write_us), "us");
  report->Metric("write_p99_us",
                 ChunkedPercentile(e2e.write_us, 99, e2e.write_chunk), "us");
  double read_p50 = Median(e2e.read_us);
  if (!e2e.read_classes.empty()) {
    std::vector<double> class_means;
    for (const std::vector<double>& c : e2e.read_classes) {
      class_means.push_back(TrimmedMean(c, 0.02));
    }
    read_p50 = Median(std::move(class_means));
  }
  report->Metric("read_p50_us", read_p50, "us");
  report->Metric("read_p99_us", ChunkedPercentile(e2e.read_us, 99, 1000),
                 "us");
  report->Metric("recovery_docs_per_s", Median(e2e.recovery_docs_per_s),
                 "1/s");
  report->Metric("setup_s", Median(e2e.setup_s), "s");
  report->Metric("resident_bytes_per_doc_byte",
                 e2e.resident_bytes_per_doc_byte, "ratio");
  report->Metric("wal_bytes_per_doc_byte", e2e.wal_bytes_per_doc_byte,
                 "ratio");
  report->Metric("peak_rss_mb", e2e.peak_rss_mb, "MB");
  report->Metric("ok_share",
                 static_cast<double>(report->attempted() - report->failed()) /
                     static_cast<double>(report->attempted()),
                 "ratio");
}

}  // namespace fsdm::perfbench
