#ifndef FSDM_PERFBENCH_MEASURE_H_
#define FSDM_PERFBENCH_MEASURE_H_

// Shared plumbing of the benchmark binary: run configuration, clocks,
// order statistics, the result report (oracle counts + named metrics) and
// the routing-trace accumulator of the traced run.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "collection/collection.h"

namespace fsdm::perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the timed phase.
  double seconds = 10;
  /// 0: end-to-end metrics. 1: per-layer metrics (separate traced run).
  bool trace = false;
  /// Self-test scale: a few hundred documents, sub-second phases.
  bool tiny = false;
  /// Self-test hook: corrupt one expected answer so the oracles must fire.
  bool inject_wrong_answer = false;
  /// Scratch directory for WAL segments; run.py removes it after the run.
  std::filesystem::path workdir;
};

inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Stopwatch {
 public:
  Stopwatch() : start_(NowUs()) {}
  double Us() const { return NowUs() - start_; }
  double Seconds() const { return Us() / 1e6; }

 private:
  double start_;
};

/// Host-speed gauge. Virtual machines drift: on the 4-vCPU VM the bounds
/// were set on, the same work ran up to 2x slower for minutes at a time,
/// and that moves every timing of a run (README, "Measured spread").
/// Sample() times a fixed piece of benchmark-owned work shaped like the
/// engine's inner loops -- number formatting, short string keys,
/// ordered-map inserts and lookups -- inside a private arena, so neither
/// the engine's code nor the state of its heap can change it. Workloads
/// sample before each round, set-up and replay, and file every end-to-end
/// timing as it would read at the reference speed.
class HostSpeed {
 public:
  /// The reference speed's probe time (a typical reading on the 4-vCPU
  /// Xeon VM the bounds were set on).
  static constexpr double kReferenceUs = 4500;

  /// Runs the probe once untimed, so its arena is touched before the
  /// first sample.
  HostSpeed();
  /// Runs the probe (a few milliseconds); later samples are normalized by
  /// this probe time.
  void Sample();
  /// `us` as it would read at the reference speed: `us` over the latest
  /// probe time, times kReferenceUs.
  double Normalize(double us) const { return us / factor_; }
  /// Median probe time over the run's samples.
  double MedianProbeUs() const;

 private:
  double factor_ = 1;  // latest probe time over kReferenceUs
  std::vector<double> probe_us_;
};

double Median(std::vector<double> v);
/// Mean of `v` without its lowest and highest `share` of values.
double TrimmedMean(std::vector<double> v, double share);
/// Linear-interpolated percentile, q in [0, 100].
double Percentile(std::vector<double> v, double q);
/// Median over consecutive chunks of at least `chunk` samples of each
/// chunk's q-percentile; the pooled percentile when there are fewer than
/// two chunks. Tail percentiles taken this way do not move with one slow
/// stretch of the run.
double ChunkedPercentile(const std::vector<double>& v, double q, size_t chunk);
double Sum(const std::vector<double>& v);

double PeakRssMb();
uint64_t DirBytes(const std::filesystem::path& dir);
/// Replaces `dst` with a byte copy of the regular files in `src`.
void CopyDir(const std::filesystem::path& src,
             const std::filesystem::path& dst);

/// Oracle tallies plus the named metrics of one run.
class Report {
 public:
  /// Counts one attempted operation; a false `ok` is a failure and is
  /// described on stderr (first few only).
  void Check(bool ok, const std::string& what);
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Prints the result object as the last stdout line; returns the exit
  /// code (non-zero on any oracle miss).
  int Print() const;

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// Traced-run accumulator for routed queries: Route() and drain time, the
/// access-path histogram, cardinality misestimates (the engine's >4x
/// rule), and rows examined at the plan leaves per row returned.
class RouteStats {
 public:
  RouteStats();
  void Record(const collection::RoutedPlan& plan, double route_us,
              double drain_us);
  void Emit(Report* report) const;

 private:
  std::vector<double> route_us_;
  std::vector<double> drain_us_;
  std::map<std::string, uint64_t> access_paths_;
  uint64_t misestimates_ = 0;
  uint64_t rows_examined_ = 0;
  uint64_t rows_returned_ = 0;
};

/// Routes `preds`, drains the plan, and returns its rows; the two phase
/// timings land in the out-parameters. Errors surface as an empty result
/// with ok = false.
struct RoutedRows {
  bool ok = false;
  std::vector<rdbms::Row> rows;
  collection::RoutedPlan plan;
};
RoutedRows RouteAndDrain(const collection::JsonCollection& coll,
                         const std::vector<collection::PathPredicate>& preds,
                         double* route_us, double* drain_us);

/// Sum of every registered collection's resident structures (table heap,
/// postings, DataGuide, IMC, path statistics, WAL state) as the engine's
/// memory tracker reports them.
uint64_t ResidentBytes();

/// The document with every object's members sorted by name, rendered
/// compactly; empty when `text` is not JSON. OSON stores members in
/// dictionary order, so text that went through an OSON image (WAL replay)
/// is compared with its acknowledged original in this form.
std::string CanonicalJson(std::string_view text);

/// Rows the engine has put into IMC stores so far (its
/// fsdm_imc_populated_rows_total counter); 0 when its metrics are compiled
/// out.
uint64_t ImcPopulatedRows();

/// Visible row (key, text) of a live row of the collection's table.
std::pair<Value, std::string> KeyAndText(const collection::JsonCollection& c,
                                         size_t row_id);

/// Recovers a collection from a fresh copy of `log` (Create() ends
/// recovery with a checkpoint that truncates the log, so no directory is
/// replayed twice) and checks it against `expected`, the acknowledged text
/// of the documents with keys first_key, first_key + 1, ...: the document
/// count, and a 10% sample compared in canonical form. Returns recovered
/// documents per second of Create(), not counting the time the engine spent
/// in fsync, at the reference speed of `host` (sampled first); 0 on
/// failure. `inject` corrupts the expected count (self-test).
double TimedReplay(const std::filesystem::path& log,
                   const std::filesystem::path& scratch, bool search_index,
                   const std::vector<std::string>& expected, int64_t first_key,
                   bool inject, HostSpeed* host, Report* report);

/// Checkpoints `coll`, whose log lives in `live_dir`, keeps a pristine copy
/// of the log at `workdir`/pristine, and checks that recovery from it
/// returns `expected` (the texts of keys 0, 1, ...). Returns the copy.
std::filesystem::path CheckpointAndVerify(
    collection::JsonCollection* coll, const std::filesystem::path& live_dir,
    const std::filesystem::path& workdir, bool search_index,
    const std::vector<std::string>& expected, Report* report);

/// The end-to-end metrics every workload reports, from its samples. Every
/// timing sample is filed at the reference speed of `host`.
struct EndToEnd {
  HostSpeed host;
  /// Operations completed in the timed phase and the time spent inside
  /// their engine calls; ops_per_s is their ratio.
  double ops = 0;
  double busy_us = 0;
  /// One value per round of the timed phase: operations over the round's
  /// wall time, which also covers the traced run's bookkeeping (trace
  /// overhead).
  std::vector<double> round_ops_per_s;
  std::vector<double> write_us;
  std::vector<double> read_us;
  /// When not empty, read latencies filed by read class (one NOBENCH query
  /// each); read_p50_us is then the median over the classes of each
  /// class's mean latency (2% trimmed at each end). Per-class means move
  /// smoothly when the host spends more or less of a run in a slow
  /// stretch, where a median jumps from one mode to the other.
  std::vector<std::vector<double>> read_classes;
  std::vector<double> recovery_docs_per_s;
  std::vector<double> setup_s;
  /// Chunk size of the median-of-chunks write p99 (see ChunkedPercentile).
  size_t write_chunk = 1000;
  /// Space is sampled once, at a fixed point of the workload's operation
  /// stream, so it does not move with how many operations the host fits
  /// into the timed phase.
  double resident_bytes_per_doc_byte = 0;
  double wal_bytes_per_doc_byte = 0;
  double peak_rss_mb = 0;
};
void EmitEndToEnd(const EndToEnd& e2e, Report* report);

/// Traced run: rounds alternate untraced (even index) and traced (odd), so
/// host drift hits both alike. Given each round's wall-clock rate
/// (EndToEnd::round_ops_per_s), returns the traced rounds' median over the
/// untraced rounds' (telemetry.trace_overhead_share; 1.0 = free).
bool TracedRound(size_t round_index);
double TraceOverheadShare(const std::vector<double>& round_ops_per_s);

/// Collection options shared by the durable workloads: WAL in `dir` with
/// fsync off (device latency stays out of every number).
collection::CollectionOptions DurableOptions(const std::filesystem::path& dir,
                                             bool search_index);

int RunIngestWal(const Config& cfg);
int RunPointMix(const Config& cfg);
int RunImcAnalytic(const Config& cfg);

}  // namespace fsdm::perfbench

#endif  // FSDM_PERFBENCH_MEASURE_H_
