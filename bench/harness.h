#ifndef FSDM_BENCH_HARNESS_H_
#define FSDM_BENCH_HARNESS_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "collection/collection.h"
#include "rdbms/executor.h"
#include "rdbms/table.h"
#include "sqljson/json_table.h"
#include "sqljson/operators.h"
#include "workloads/generators.h"

namespace fsdm::benchutil {

/// Wall-clock timer in milliseconds.
class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Document count override: FSDM_DOCS=<n> scales every bench. The paper's
/// absolute scales (100k POs, 64M NOBENCH docs) are CLI-tunable; the
/// defaults keep a full bench sweep in the minutes range — the figures
/// compare ratios, not absolute times (§6 note). Also records the resolved
/// count into the BenchJson sink.
size_t DocCount(size_t default_count);

/// Aligned table printing for paper-style output. Both calls additionally
/// mirror into the BenchJson sink, so the machine-readable output tracks
/// the printed tables without per-bench wiring.
void PrintHeader(const std::vector<std::string>& cols);
void PrintRow(const std::vector<std::string>& cells);
std::string Fmt(double v, int decimals = 2);

/// Machine-readable bench output: a process-global sink that mirrors every
/// printed table row and, at exit, writes
///   BENCH_<name>.json = {"bench": <name>, "docs": N,
///                        "rows": [{<header col>: <cell>, ...}, ...],
///                        "metrics": <MetricsRegistry::ToJson()>,
///                        "counter_rates_per_sec": {<counter>: total / s
///                                                  since Init()}, ...}
/// to the working directory (or $FSDM_BENCH_JSON_DIR when set). Cells that
/// parse fully as numbers are emitted as JSON numbers, everything else as
/// strings. Call Init() once near the top of main(); rows recorded through
/// PrintRow() (or Num()/Str() for benches that format their own output)
/// are flushed automatically via atexit.
class BenchJson {
 public:
  static BenchJson& Global();

  /// Sets the bench name and registers the atexit writer (idempotent).
  void Init(const std::string& name);
  void SetDocs(size_t docs) { docs_ = docs; }

  void SetHeader(std::vector<std::string> cols);
  /// Records one row keyed by the current header's column names.
  void AddRowCells(const std::vector<std::string>& cells);
  /// Manual row construction for benches without PrintRow tables.
  void BeginRow();
  void Num(const std::string& key, double v);
  void Str(const std::string& key, const std::string& v);

  /// Attaches a bench-specific top-level section: `"key": <json>` emitted
  /// verbatim next to "rows"/"metrics". `json` must be a complete JSON
  /// value (the WAL bench uses this for its durability summary, which
  /// check_bench_json.py validates under the "wal" key).
  void SetExtraSection(const std::string& key, const std::string& json);

  /// Writes BENCH_<name>.json; no-op before Init().
  void Write() const;

 private:
  std::string name_;
  uint64_t init_us_ = 0;  // MonotonicNowUs() at Init()
  size_t docs_ = 0;
  std::vector<std::string> header_;
  std::vector<std::string> rows_;  // encoded JSON object bodies
  std::vector<std::pair<std::string, std::string>> extra_sections_;
};

/// The §6.3 purchase-order dataset in all four storage methods. The TEXT
/// method is the full document stack (a JsonCollection); BSON/OSON-as-blob
/// and the shredded relational pair are comparison baselines below the
/// facade, so they stay raw tables.
struct PoDataset {
  rdbms::Database db;
  std::unique_ptr<collection::JsonCollection> text_coll;  // DID, JDOC JSON
  rdbms::Table* text_table = nullptr;   // == text_coll->table()
  rdbms::Table* bson_table = nullptr;   // DID NUMBER, JDOC RAW (BSON)
  rdbms::Table* oson_table = nullptr;   // DID NUMBER, JDOC RAW (OSON)
  rdbms::Table* master_tab = nullptr;   // REL purchase_master_tab
  rdbms::Table* detail_tab = nullptr;   // REL lineitem_detail_tab
  // Handy parameter values drawn from generated data (for predicates).
  std::string sample_reference;
  std::string sample_requestor;
  std::string sample_partno;
  std::vector<std::string> sample_partnos;  // three for the IN query

  static PoDataset Build(size_t n_docs, uint64_t seed = 20160626);
};

enum class PoStorage { kText, kBson, kOson, kRel };
const char* PoStorageName(PoStorage storage);

/// po_mv: the master view projecting the singleton scalar fields
/// (DID, ID, REFERENCE, REQUESTOR, COSTCENTER, PODATE, INSTRUCTIONS).
Result<rdbms::OperatorPtr> PoMv(const PoDataset& ds, PoStorage storage);

/// po_item_dmdv: de-normalized master-detail view; master fields repeat
/// for each line item (columns of po_mv + ITEMNO, PARTNO, DESCRIPTION,
/// QUANTITY, UNITPRICE). REL storage computes it as a hash join.
Result<rdbms::OperatorPtr> PoItemDmdv(const PoDataset& ds, PoStorage storage);

/// Like PoItemDmdv/PoMv, but with a WHERE predicate pushed down onto the
/// base documents as JSON_EXISTS(exists_path) *before* JSON_TABLE
/// expansion — the paper's pushdown (§6.3: "WHERE predicates on the views
/// are pushed down as JSON_EXISTS() with JSON path predicates"). REL
/// ignores the path (its predicate applies on the view as usual).
Result<rdbms::OperatorPtr> PoItemDmdvPushdown(const PoDataset& ds,
                                              PoStorage storage,
                                              const std::string& exists_path);
Result<rdbms::OperatorPtr> PoMvPushdown(const PoDataset& ds,
                                        PoStorage storage,
                                        const std::string& exists_path);

/// Runs a plan to completion, returning the row count.
Result<size_t> Drain(rdbms::Operator* op);

/// Times `make_plan()` end-to-end (build + execute + drain), best of
/// `reps`. Returns milliseconds.
template <typename MakePlan>
double TimeQuery(const MakePlan& make_plan, int reps = 3) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    Result<rdbms::OperatorPtr> plan = make_plan();
    if (!plan.ok()) {
      fprintf(stderr, "plan error: %s\n", plan.status().ToString().c_str());
      exit(1);
    }
    Result<size_t> rows = Drain(plan.value().get());
    if (!rows.ok()) {
      fprintf(stderr, "exec error: %s\n", rows.status().ToString().c_str());
      exit(1);
    }
    best = std::min(best, t.ElapsedMs());
  }
  return best;
}

}  // namespace fsdm::benchutil

#endif  // FSDM_BENCH_HARNESS_H_
