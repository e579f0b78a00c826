#include "bench/harness.h"

#include <algorithm>

#include "bson/bson.h"
#include "oson/oson.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/incident.h"
#include "telemetry/log.h"
#include "telemetry/memory_tracker.h"
#include "telemetry/sampler.h"
#include "telemetry/telemetry.h"
#include "telemetry/workload_repo.h"

namespace fsdm::benchutil {

size_t DocCount(size_t default_count) {
  size_t n = default_count;
  const char* env = getenv("FSDM_DOCS");
  if (env != nullptr) {
    long v = atol(env);
    if (v > 0) n = static_cast<size_t>(v);
  }
  BenchJson::Global().SetDocs(n);
  return n;
}

void PrintHeader(const std::vector<std::string>& cols) {
  std::string line, rule;
  for (const std::string& c : cols) {
    char buf[64];
    snprintf(buf, sizeof(buf), "%-22s", c.c_str());
    line += buf;
  }
  rule.assign(line.size(), '-');
  printf("%s\n%s\n", line.c_str(), rule.c_str());
  BenchJson::Global().SetHeader(cols);
}

void PrintRow(const std::vector<std::string>& cells) {
  std::string line;
  for (const std::string& c : cells) {
    char buf[64];
    snprintf(buf, sizeof(buf), "%-22s", c.c_str());
    line += buf;
  }
  printf("%s\n", line.c_str());
  BenchJson::Global().AddRowCells(cells);
}

// --- BenchJson --------------------------------------------------------------

namespace {

// A cell is numeric when strtod consumes it entirely ("1.23", "42").
bool ParseNumericCell(const std::string& cell, double* out) {
  if (cell.empty()) return false;
  char* end = nullptr;
  double v = strtod(cell.c_str(), &end);
  if (end != cell.c_str() + cell.size()) return false;
  *out = v;
  return true;
}

void WriteGlobalBenchJson() { BenchJson::Global().Write(); }

}  // namespace

BenchJson& BenchJson::Global() {
  static BenchJson* sink = new BenchJson();
  return *sink;
}

void BenchJson::Init(const std::string& name) {
  if (!name_.empty()) return;
  name_ = name;
  init_us_ = telemetry::MonotonicNowUs();
  // Benches run with the flight recorder armed: the per-run chrome trace
  // (TRACE_<name>.json) is part of the machine-readable output, and fig7
  // doubles as the armed-tracing overhead measurement (DESIGN.md).
  telemetry::FlightRecorder::Global().Arm();
  // And with the ASH sampler running (FSDM_ASH_HZ tunes the rate, 0
  // disables): its ring becomes the "ash" section of BENCH_<name>.json,
  // and the per-row workload snapshots diff against it.
  telemetry::ActivitySampler::Global().Start();
  // And with the fatal-signal incident hook installed: a bench crash
  // leaves behind a self-contained diagnosis bundle, not just a core.
  telemetry::IncidentManager::Global().InstallFatalSignalHandler();
  atexit(WriteGlobalBenchJson);
}

void BenchJson::SetHeader(std::vector<std::string> cols) {
  header_ = std::move(cols);
}

void BenchJson::AddRowCells(const std::vector<std::string>& cells) {
  // One workload-repository snapshot per printed row, labeled by the row's
  // first cell, so ash_report.py can diff any two row boundaries.
  telemetry::WorkloadRepository::Global().TakeSnapshot(
      cells.empty() ? "row-" + std::to_string(rows_.size() + 1) : cells[0]);
  BeginRow();
  for (size_t i = 0; i < cells.size(); ++i) {
    const std::string key =
        i < header_.size() ? header_[i] : "col" + std::to_string(i);
    double v = 0;
    if (ParseNumericCell(cells[i], &v)) {
      Num(key, v);
    } else {
      Str(key, cells[i]);
    }
  }
}

void BenchJson::BeginRow() { rows_.emplace_back(); }

void BenchJson::Num(const std::string& key, double v) {
  if (rows_.empty()) BeginRow();
  std::string& row = rows_.back();
  if (!row.empty()) row += ",";
  row += "\"" + telemetry::JsonEscape(key) + "\":";
  telemetry::AppendJsonNumber(&row, v);
}

void BenchJson::Str(const std::string& key, const std::string& v) {
  if (rows_.empty()) BeginRow();
  std::string& row = rows_.back();
  if (!row.empty()) row += ",";
  row += "\"" + telemetry::JsonEscape(key) + "\":\"" +
         telemetry::JsonEscape(v) + "\"";
}

void BenchJson::SetExtraSection(const std::string& key,
                                const std::string& json) {
  for (auto& [k, v] : extra_sections_) {
    if (k == key) {
      v = json;
      return;
    }
  }
  extra_sections_.emplace_back(key, json);
}

void BenchJson::Write() const {
  if (name_.empty()) return;
  // Capture the memory section BEFORE the final workload snapshot ticks:
  // the "bench-end" snapshot re-reads the tracker, so ordering this way
  // makes the "memory" section and the snapshot's MEM_* columns agree.
  const uint64_t mem_total = telemetry::MemoryTracker::Global().CurrentBytes();
  const uint64_t mem_peak = telemetry::MemoryTracker::Global().PeakBytes();
  // Final snapshot so the tail window (last row -> exit) is captured, then
  // stop the sampler — its thread must not keep mutating the ring while
  // the sections below serialize it.
  telemetry::WorkloadRepository::Global().TakeSnapshot("bench-end");
  telemetry::ActivitySampler::Global().Stop();
  std::vector<telemetry::WorkloadSnapshot> snaps =
      telemetry::WorkloadRepository::Global().Snapshots();
  std::string path;
  const char* dir = getenv("FSDM_BENCH_JSON_DIR");
  if (dir != nullptr && dir[0] != '\0') {
    path = std::string(dir) + "/";
  }
  path += "BENCH_" + name_ + ".json";

  std::string out = "{\"bench\":\"" + telemetry::JsonEscape(name_) + "\"";
  out += ",\"docs\":" + std::to_string(docs_);
  out += ",\"rows\":[";
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (i > 0) out += ",";
    out += "{" + rows_[i] + "}";
  }
  out += "],\"metrics\":";
  out += telemetry::MetricsRegistry::Global().ToJson();

  for (const auto& [key, json] : extra_sections_) {
    out += ",\"" + telemetry::JsonEscape(key) + "\":" + json;
  }

  // Whole-run counter rates: each counter's total at the "bench-end"
  // workload snapshot over the time since Init().
  const telemetry::WorkloadSnapshot& end = snaps.back();
  const double run_s =
      static_cast<double>(std::max<uint64_t>(end.ts_us - init_us_, 1)) / 1e6;
  out += ",\"counter_rates_per_sec\":{";
  bool first = true;
  for (const auto& [cname, value] : end.metrics.counters) {
    if (!first) out += ",";
    first = false;
    out += "\"" + telemetry::JsonEscape(cname) + "\":";
    telemetry::AppendJsonNumber(&out, static_cast<double>(value) / run_s);
  }
  out += "}";

  // ASH time model over the whole run plus the AWR-style per-row workload
  // snapshots (ISSUE 7). Present — with zero samples — even when the
  // sampler is disabled, so consumers can rely on the shape.
  const telemetry::ActivitySampler& sampler =
      telemetry::ActivitySampler::Global();
  out += ",\"ash\":{\"sampler_hz\":";
  telemetry::AppendJsonNumber(&out, sampler.hz());
  out += ",\"ticks\":" + std::to_string(sampler.ticks());
  out += ",\"db_samples_total\":" + std::to_string(sampler.db_samples_total());
  out += ",\"window\":" + telemetry::AshAggregateJson(sampler.Aggregate());
  out += "}";

  // Memory attribution (ISSUE 9). Always all eight subsystems, in enum
  // order, zeros included — check_bench_json.py relies on the shape.
  // peak_bytes is the tracker's per-subsystem high-water (ratcheted by
  // every push), a real simultaneous peak — not a sum of per-account
  // peaks reached at different times.
  out += ",\"memory\":{\"total_bytes\":" + std::to_string(mem_total);
  out += ",\"peak_bytes\":" + std::to_string(mem_peak);
  out += ",\"subsystems\":{";
  for (size_t i = 0; i < telemetry::kMemSubsystemCount; ++i) {
    const auto subsystem = static_cast<telemetry::MemSubsystem>(i);
    const telemetry::MemoryTracker& tracker =
        telemetry::MemoryTracker::Global();
    if (i > 0) out += ",";
    out += "\"" + std::string(telemetry::MemSubsystemName(subsystem)) +
           "\":{\"bytes\":" + std::to_string(tracker.SubsystemBytes(subsystem)) +
           ",\"peak_bytes\":" +
           std::to_string(tracker.SubsystemPeakBytes(subsystem)) + "}";
  }
  out += "}}";

  // Structured-log counters (ISSUE 10). fig7's overhead gate compares
  // arms that both carry the instrumented call sites, so these make the
  // log volume behind a regression visible in the BENCH json.
  out += ",\"log\":{\"fsdm_log_records_total\":" +
         std::to_string(telemetry::EngineLog::Global().total_records());
  out += ",\"fsdm_log_dropped_total\":" +
         std::to_string(telemetry::EngineLog::Global().TotalDropped());
  out += ",\"fsdm_incidents_total\":" +
         std::to_string(telemetry::IncidentManager::Global().total_raised());
  out += "}";

  out += ",\"workload_snapshots\":[";
  for (size_t i = 0; i < snaps.size(); ++i) {
    if (i > 0) out += ",";
    out += telemetry::WorkloadRepository::SnapshotJson(snaps[i]);
  }
  out += "]";
  out += "}\n";

  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "BenchJson: cannot write %s\n", path.c_str());
    return;
  }
  fwrite(out.data(), 1, out.size(), f);
  fclose(f);

  // The matching flight-recorder dump, next to the BENCH json.
  if (telemetry::FlightRecorder::Global().armed()) {
    std::string trace_path;
    if (dir != nullptr && dir[0] != '\0') {
      trace_path = std::string(dir) + "/";
    }
    trace_path += "TRACE_" + name_ + ".json";
    if (!telemetry::FlightRecorder::Global().DumpChromeTrace(trace_path)) {
      fprintf(stderr, "BenchJson: cannot write %s\n", trace_path.c_str());
    }
  }
}

std::string Fmt(double v, int decimals) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

const char* PoStorageName(PoStorage storage) {
  switch (storage) {
    case PoStorage::kText:
      return "JSON";
    case PoStorage::kBson:
      return "BSON";
    case PoStorage::kOson:
      return "OSON";
    case PoStorage::kRel:
      return "REL";
  }
  return "?";
}

PoDataset PoDataset::Build(size_t n_docs, uint64_t seed) {
  PoDataset ds;
  using rdbms::ColumnDef;
  using rdbms::ColumnType;

  collection::CollectionOptions text_opts;
  // Figures 3/4 time scans and view expansion, not index probes; skip the
  // posting maintenance during the load.
  text_opts.attach_search_index = false;
  Result<std::unique_ptr<collection::JsonCollection>> text_coll =
      collection::JsonCollection::Create(&ds.db, "PO_TEXT", text_opts);
  if (!text_coll.ok()) {
    fprintf(stderr, "PO_TEXT collection: %s\n",
            text_coll.status().ToString().c_str());
    exit(1);
  }
  ds.text_coll = text_coll.MoveValue();
  ds.text_table = ds.text_coll->table();
  ds.bson_table =
      ds.db.CreateTable("PO_BSON",
                        {{.name = "DID", .type = ColumnType::kNumber},
                         {.name = "JDOC", .type = ColumnType::kRaw}})
          .MoveValue();
  ds.oson_table =
      ds.db.CreateTable("PO_OSON",
                        {{.name = "DID", .type = ColumnType::kNumber},
                         {.name = "JDOC", .type = ColumnType::kRaw}})
          .MoveValue();
  ds.master_tab =
      ds.db.CreateTable("PURCHASE_MASTER_TAB",
                        {{.name = "ID", .type = ColumnType::kNumber},
                         {.name = "REFERENCE", .type = ColumnType::kString},
                         {.name = "REQUESTOR", .type = ColumnType::kString},
                         {.name = "COSTCENTER", .type = ColumnType::kString},
                         {.name = "PODATE", .type = ColumnType::kString},
                         {.name = "INSTRUCTIONS",
                          .type = ColumnType::kString}})
          .MoveValue();
  ds.detail_tab =
      ds.db.CreateTable("LINEITEM_DETAIL_TAB",
                        {{.name = "PO_ID", .type = ColumnType::kNumber},
                         {.name = "ITEMNO", .type = ColumnType::kNumber},
                         {.name = "PARTNO", .type = ColumnType::kString},
                         {.name = "DESCRIPTION", .type = ColumnType::kString},
                         {.name = "QUANTITY", .type = ColumnType::kNumber},
                         {.name = "UNITPRICE", .type = ColumnType::kNumber}})
          .MoveValue();

  Rng rng(seed);
  for (size_t i = 0; i < n_docs; ++i) {
    workloads::PurchaseOrderRelational po =
        workloads::PurchaseOrderRows(&rng, static_cast<int64_t>(i + 1));
    std::string text = workloads::RenderPurchaseOrder(po);
    Value did = Value::Int64(static_cast<int64_t>(i + 1));

    auto insert_or_die = [&](Result<size_t> r, const char* what) {
      if (!r.ok()) {
        fprintf(stderr, "%s insert failed: %s\n", what,
                r.status().ToString().c_str());
        exit(1);
      }
    };
    insert_or_die(ds.text_coll->Insert(did, text), "text");
    insert_or_die(ds.bson_table->Insert(
                      {did, Value::Binary(bson::EncodeFromText(text)
                                              .MoveValue())}),
                  "bson");
    insert_or_die(ds.oson_table->Insert(
                      {did, Value::Binary(oson::EncodeFromText(text)
                                              .MoveValue())}),
                  "oson");
    insert_or_die(
        ds.master_tab->Insert({Value::Int64(po.id),
                               Value::String(po.reference),
                               Value::String(po.requestor),
                               Value::String(po.costcenter),
                               Value::String(po.podate),
                               Value::String(po.instructions)}),
        "master");
    for (const auto& item : po.items) {
      insert_or_die(
          ds.detail_tab->Insert(
              {Value::Int64(po.id), Value::Int64(item.itemno),
               Value::String(item.partno), Value::String(item.description),
               Value::Int64(item.quantity),
               Value::Dec(Decimal::FromString(item.unitprice).MoveValue())}),
          "detail");
      if (ds.sample_partnos.size() < 3 &&
          (ds.sample_partnos.empty() ||
           ds.sample_partnos.back() != item.partno)) {
        ds.sample_partnos.push_back(item.partno);
      }
    }
    if (i == n_docs / 2) {
      ds.sample_reference = po.reference;
      ds.sample_requestor = po.requestor;
      ds.sample_partno = po.items[0].partno;
    }
  }
  return ds;
}

namespace {

using rdbms::Col;
using sqljson::JsonStorage;
using sqljson::JsonTableColumn;
using sqljson::JsonTableDef;
using sqljson::Returning;

JsonStorage ToJsonStorage(PoStorage storage) {
  switch (storage) {
    case PoStorage::kText:
      return JsonStorage::kText;
    case PoStorage::kBson:
      return JsonStorage::kBson;
    default:
      return JsonStorage::kOson;
  }
}

const rdbms::Table* JsonTableFor(const PoDataset& ds, PoStorage storage) {
  switch (storage) {
    case PoStorage::kText:
      return ds.text_table;
    case PoStorage::kBson:
      return ds.bson_table;
    default:
      return ds.oson_table;
  }
}

JsonTableDef MvDef() {
  JsonTableDef def;
  def.columns = {
      {"ID", "$.purchaseOrder.id", Returning::kNumber},
      {"REFERENCE", "$.purchaseOrder.reference", Returning::kString},
      {"REQUESTOR", "$.purchaseOrder.requestor", Returning::kString},
      {"COSTCENTER", "$.purchaseOrder.costcenter", Returning::kString},
      {"PODATE", "$.purchaseOrder.podate", Returning::kString},
      {"INSTRUCTIONS", "$.purchaseOrder.instructions", Returning::kString},
  };
  return def;
}

JsonTableDef DmdvDef() {
  JsonTableDef def = MvDef();
  JsonTableDef items;
  items.row_path = "$.purchaseOrder.items[*]";
  items.columns = {
      {"ITEMNO", "$.itemno", Returning::kNumber},
      {"PARTNO", "$.partno", Returning::kString},
      {"DESCRIPTION", "$.description", Returning::kString},
      {"QUANTITY", "$.quantity", Returning::kNumber},
      {"UNITPRICE", "$.unitprice", Returning::kNumber},
  };
  def.nested.push_back(std::move(items));
  return def;
}

}  // namespace

Result<rdbms::OperatorPtr> PoMv(const PoDataset& ds, PoStorage storage) {
  if (storage == PoStorage::kRel) {
    return rdbms::Scan(ds.master_tab);
  }
  const rdbms::Table* table = JsonTableFor(ds, storage);
  return sqljson::JsonTable(rdbms::Scan(table), "JDOC",
                            ToJsonStorage(storage), MvDef());
}

Result<rdbms::OperatorPtr> PoItemDmdv(const PoDataset& ds,
                                      PoStorage storage) {
  if (storage == PoStorage::kRel) {
    // Master-detail join: the de-normalized view over physically shredded
    // tables (§6.3's REL method pays a hash join here).
    return rdbms::HashJoin(rdbms::Scan(ds.detail_tab),
                           rdbms::Scan(ds.master_tab), {Col("PO_ID")},
                           {Col("ID")}, rdbms::JoinType::kInner);
  }
  const rdbms::Table* table = JsonTableFor(ds, storage);
  return sqljson::JsonTable(rdbms::Scan(table), "JDOC",
                            ToJsonStorage(storage), DmdvDef());
}

namespace {

Result<rdbms::OperatorPtr> FilteredSource(const PoDataset& ds,
                                          PoStorage storage,
                                          const std::string& exists_path) {
  const rdbms::Table* table = JsonTableFor(ds, storage);
  FSDM_ASSIGN_OR_RETURN(
      rdbms::ExprPtr exists,
      sqljson::JsonExists("JDOC", exists_path, ToJsonStorage(storage)));
  return rdbms::Filter(rdbms::Scan(table), std::move(exists));
}

}  // namespace

Result<rdbms::OperatorPtr> PoItemDmdvPushdown(const PoDataset& ds,
                                              PoStorage storage,
                                              const std::string& exists_path) {
  if (storage == PoStorage::kRel) return PoItemDmdv(ds, storage);
  FSDM_ASSIGN_OR_RETURN(rdbms::OperatorPtr src,
                        FilteredSource(ds, storage, exists_path));
  return sqljson::JsonTable(std::move(src), "JDOC", ToJsonStorage(storage),
                            DmdvDef());
}

Result<rdbms::OperatorPtr> PoMvPushdown(const PoDataset& ds,
                                        PoStorage storage,
                                        const std::string& exists_path) {
  if (storage == PoStorage::kRel) return PoMv(ds, storage);
  FSDM_ASSIGN_OR_RETURN(rdbms::OperatorPtr src,
                        FilteredSource(ds, storage, exists_path));
  return sqljson::JsonTable(std::move(src), "JDOC", ToJsonStorage(storage),
                            MvDef());
}

Result<size_t> Drain(rdbms::Operator* op) {
  FSDM_RETURN_NOT_OK(op->Open());
  rdbms::Row row;
  size_t n = 0;
  while (true) {
    FSDM_ASSIGN_OR_RETURN(bool more, op->Next(&row));
    if (!more) break;
    ++n;
  }
  op->Close();
  return n;
}

}  // namespace fsdm::benchutil
