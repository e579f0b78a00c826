#include "layers.h"

#include <cstdio>

#include "json/dom.h"
#include "json/parser.h"
#include "nobench_queries.h"
#include "oson/oson.h"
#include "stats/path_stats.h"
#include "wal/wal.h"

namespace fsdm::perfbench {

namespace {

namespace fs = std::filesystem;
using collection::JsonCollection;

constexpr int kPasses = 3;

/// Median over kPasses of `pass()`'s elapsed microseconds divided by `n`.
template <typename Pass>
double UsPer(size_t n, Pass pass) {
  std::vector<double> per;
  for (int p = 0; p < kPasses; ++p) {
    Stopwatch t;
    pass();
    per.push_back(t.Us() / static_cast<double>(n == 0 ? 1 : n));
  }
  return Median(std::move(per));
}

Result<rdbms::Table*> BareTable(rdbms::Database* db) {
  std::vector<rdbms::ColumnDef> columns(2);
  columns[0].name = "DID";
  columns[0].type = rdbms::ColumnType::kNumber;
  columns[1].name = "JDOC";
  columns[1].type = rdbms::ColumnType::kJson;
  columns[1].check_is_json = true;
  return db->CreateTable("BARE", std::move(columns));
}

rdbms::Row DocRow(size_t key, const std::string& doc) {
  return {Value::Int64(static_cast<int64_t>(key)), Value::String(doc)};
}

void TextLayers(const LayerInputs& in, double text_bytes, Report* report) {
  const size_t n = in.docs.size();
  bool ok = true;
  report->Metric("json.parse_us_per_doc", UsPer(n, [&] {
    for (const std::string& d : in.docs) ok &= json::Parse(d).ok();
  }), "us");
  report->Metric("json.validate_us_per_doc", UsPer(n, [&] {
    for (const std::string& d : in.docs) ok &= json::Validate(d).ok();
  }), "us");
  std::vector<std::string> images(n);
  report->Metric("oson.encode_us_per_doc", UsPer(n, [&] {
    for (size_t i = 0; i < n; ++i) {
      Result<std::string> img = oson::EncodeFromText(in.docs[i]);
      ok &= img.ok();
      if (img.ok()) images[i] = img.MoveValue();
    }
  }), "us");
  double image_bytes = 0;
  for (const std::string& img : images) image_bytes += img.size();
  report->Metric("oson.bytes_per_doc_byte", image_bytes / text_bytes, "ratio");
  report->Check(ok, "parse/validate/encode of every workload document");

  // DataGuide walk without and with the path-statistics sink.
  std::vector<std::unique_ptr<json::JsonNode>> trees;
  for (const std::string& d : in.docs) {
    Result<std::unique_ptr<json::JsonNode>> t = json::Parse(d);
    if (t.ok()) trees.push_back(t.MoveValue());
  }
  double new_paths = 0;
  const double plain = UsPer(n, [&] {
    dataguide::DataGuide guide;
    new_paths = 0;
    for (const auto& t : trees) {
      Result<int> added = guide.AddDocument(json::TreeDom(t.get()));
      if (added.ok()) new_paths += added.value();
    }
  });
  const double with_sink = UsPer(n, [&] {
    dataguide::DataGuide guide;
    stats::PathStatsRepository repo;
    for (const auto& t : trees) {
      (void)guide.AddDocument(json::TreeDom(t.get()), nullptr, &repo);
    }
  });
  report->Metric("dataguide.add_us_per_doc", plain, "us");
  report->Metric("stats.sink_us_per_doc", with_sink - plain, "us");
  report->Metric("dataguide.new_paths_per_doc",
                 new_paths / static_cast<double>(n), "ratio");

  // WAL appends of the workload's records (inserts, then its replaces).
  const size_t records = n + in.replacements.size();
  uint64_t wal_bytes = 0;
  report->Metric("wal.append_us_per_record", UsPer(records, [&] {
    const fs::path dir = in.scratch / "append";
    fs::remove_all(dir);
    wal::WalOptions options;
    options.dir = dir.string();
    options.fsync = wal::FsyncPolicy::kOff;
    Result<wal::Wal::OpenResult> opened = wal::Wal::Open(options);
    if (!opened.ok()) {
      ok = false;
      return;
    }
    wal::Wal& w = *opened.value().wal;
    for (size_t i = 0; i < n; ++i) {
      ok &= w.AppendInsert(0, Value::Int64(static_cast<int64_t>(i)), images[i])
                .ok();
    }
    for (size_t i = 0; i < in.replacements.size(); ++i) {
      ok &= w.AppendReplace(0, i, Value::Int64(static_cast<int64_t>(i)),
                            images[i])
                .ok();
    }
    opened.value().wal.reset();
    wal_bytes = DirBytes(dir);
    fs::remove_all(dir);
  }), "us");
  report->Metric("wal.bytes_per_record",
                 static_cast<double>(wal_bytes) / static_cast<double>(records),
                 "bytes");

  // Wal::Open scanning the workload's log, then OSON decode of its payloads.
  std::vector<wal::Record> log;
  size_t scanned = 0;
  const double open_us = UsPer(1, [&] {
    const fs::path dir = in.scratch / "open";
    CopyDir(in.wal_copy, dir);
    wal::WalOptions options;
    options.dir = dir.string();
    options.fsync = wal::FsyncPolicy::kOff;
    Result<wal::Wal::OpenResult> opened = wal::Wal::Open(options);
    ok &= opened.ok();
    if (opened.ok()) {
      scanned = opened.value().wal->recovery().records_scanned;
      log = std::move(opened.value().replay);
    }
    fs::remove_all(dir);
  });
  report->Metric("wal.open_us_per_record",
                 open_us / static_cast<double>(scanned == 0 ? 1 : scanned),
                 "us");
  size_t payloads = 0;
  for (const wal::Record& r : log) payloads += r.oson.empty() ? 0 : 1;
  report->Metric("oson.decode_us_per_doc", UsPer(payloads, [&] {
    for (const wal::Record& r : log) {
      if (!r.oson.empty()) ok &= oson::Decode(r.oson).ok();
    }
  }), "us");
  report->Check(ok && payloads > 0, "WAL append/open/decode of the workload");
}

void EngineLayers(const LayerInputs& in, double text_bytes, Report* report) {
  const size_t n = in.docs.size();
  bool ok = true;

  // Table::Insert with the IS JSON check, no observers.
  uint64_t heap = 0;
  report->Metric("rdbms.table_insert_us_per_row", UsPer(n, [&] {
    rdbms::Database db;
    Result<rdbms::Table*> table = BareTable(&db);
    if (!table.ok()) {
      ok = false;
      return;
    }
    for (size_t i = 0; i < n; ++i) {
      ok &= table.value()->Insert(DocRow(i, in.docs[i])).ok();
    }
    heap = table.value()->HeapBytes();
  }), "us");
  report->Metric("rdbms.heap_bytes_per_doc_byte",
                 static_cast<double>(heap) / text_bytes, "ratio");

  // Posting maintenance alone: JsonSearchIndex observer callbacks on a
  // bare table, DataGuide maintenance off. The index parses each document
  // itself here (no IS JSON parse to piggyback on).
  index::JsonSearchIndex::Options postings_only;
  postings_only.maintain_dataguide = false;
  rdbms::Database db;
  std::unique_ptr<index::JsonSearchIndex> last;
  Result<rdbms::Table*> bare = BareTable(&db);
  ok &= bare.ok();
  report->Metric("index.insert_us_per_doc", UsPer(n, [&] {
    if (!bare.ok()) return;
    last.reset();
    Result<std::unique_ptr<index::JsonSearchIndex>> idx =
        index::JsonSearchIndex::Create(bare.value(), "JDOC", postings_only);
    if (!idx.ok()) {
      ok = false;
      return;
    }
    for (size_t i = 0; i < n; ++i) {
      ok &= idx.value()->OnInsert(i, DocRow(i, in.docs[i])).ok();
    }
    last = idx.MoveValue();
  }), "us");
  if (last != nullptr) {
    report->Metric("index.postings_bytes_per_doc_byte",
                   static_cast<double>(last->MemoryBytes()) / text_bytes,
                   "ratio");
    // Each pass swaps every replaced document to its new version and back,
    // so the index ends each pass as it started.
    const size_t r = in.replacements.size();
    report->Metric("index.replace_us_per_doc", UsPer(2 * r, [&] {
      for (size_t i = 0; i < r; ++i) {
        ok &= last->OnReplace(i, DocRow(i, in.docs[i]),
                              DocRow(i, in.replacements[i])).ok();
      }
      for (size_t i = 0; i < r; ++i) {
        ok &= last->OnReplace(i, DocRow(i, in.replacements[i]),
                              DocRow(i, in.docs[i])).ok();
      }
    }), "us");
    last.reset();
  }
  report->Check(ok, "table/index maintenance of the workload");
}

void CollectionLayers(const LayerInputs& in, double text_bytes,
                      Report* report) {
  const size_t n = in.docs.size();
  bool ok = true;

  // Whole-DML reference: the collection configured like the workload's.
  const fs::path dir = in.scratch / "collection";
  fs::remove_all(dir);
  NbDataset ds;
  Result<std::unique_ptr<JsonCollection>> created = JsonCollection::Create(
      &ds.db, "LAYERS", DurableOptions(dir, in.search_index));
  report->Check(created.ok(), "layer-suite collection");
  if (!created.ok()) return;
  AdoptCollection(created.MoveValue(), in.docs[n / 3], &ds);
  JsonCollection& coll = *ds.coll;
  Stopwatch ins;
  for (size_t i = 0; i < n; ++i) {
    ok &= coll.Insert(Value::Int64(static_cast<int64_t>(i)), in.docs[i]).ok();
  }
  report->Metric("collection.insert_us_per_doc",
                 ins.Us() / static_cast<double>(n), "us");

  report->Metric("imc.populate_us_per_doc", UsPer(n, [&] {
    ok &= coll.PopulateImc().ok();
  }), "us");
  const imc::ColumnStore* store = coll.imc();
  ok &= store != nullptr;
  if (store != nullptr) {
    report->Metric("imc.bytes_per_doc_byte",
                   static_cast<double>(store->MemoryBytes()) / text_bytes,
                   "ratio");
  }
  if (in.queries && store != nullptr) {
    const NbAccess access = benchutil::OsonImcAccess(ds, store);
    std::vector<std::vector<double>> us(kNobenchQueries);
    for (int rep = 0; rep < 5; ++rep) {
      for (int q = 1; q <= kNobenchQueries; ++q) {
        Stopwatch t;
        Result<rdbms::OperatorPtr> plan = NobenchQuery(q, ds, access);
        ok &= plan.ok() && CanonicalAnswer(plan.value().get(), access).ok();
        us[q - 1].push_back(t.Us());
      }
    }
    EmitQueryMetrics(us, report);
  }
  if (in.imc_refresh && !in.replacements.empty()) {
    const size_t changed = std::min<size_t>(10, in.replacements.size());
    for (size_t i = 0; i < changed; ++i) {
      ok &= coll.Replace(i, Value::Int64(static_cast<int64_t>(i)),
                         in.replacements[i]).ok();
    }
    const uint64_t populated_before = ImcPopulatedRows();
    ok &= coll.EnsureImc().ok();
    report->Metric("imc.docs_reencoded_per_doc_changed",
                   static_cast<double>(ImcPopulatedRows() - populated_before) /
                       static_cast<double>(changed),
                   "ratio");
  }
  report->Check(ok, "collection DML and IMC population of the workload");
  ds.coll.reset();
  fs::remove_all(dir);

  // CheckConsistency() on the collection recovered from the workload's log.
  const fs::path rdir = in.scratch / "recovered";
  CopyDir(in.wal_copy, rdir);
  rdbms::Database rdb;
  Result<std::unique_ptr<JsonCollection>> recovered = JsonCollection::Create(
      &rdb, "RECOVERED", DurableOptions(rdir, in.search_index));
  report->Check(recovered.ok() && recovered.value()->document_count() == n,
                "layer-suite recovery count");
  if (!recovered.ok()) return;
  bool consistent = true;
  report->Metric("collection.consistency_check_us_per_doc", UsPer(n, [&] {
    consistent &= recovered.value()->CheckConsistency().consistent;
  }), "us");
  report->Check(consistent, "recovered collection consistency");
  recovered.value().reset();
  fs::remove_all(rdir);
}

}  // namespace

void EmitQueryMetrics(const std::vector<std::vector<double>>& us_by_query,
                      Report* report) {
  for (size_t q = 0; q < us_by_query.size(); ++q) {
    char name[32];
    snprintf(name, sizeof(name), "query.q%02zu_us", q + 1);
    report->Metric(name, Median(us_by_query[q]), "us");
  }
}

void RunLayerSuite(const LayerInputs& in, Report* report) {
  report->Check(!in.docs.empty(), "layer suite has documents");
  if (in.docs.empty()) return;
  fs::create_directories(in.scratch);
  double text_bytes = 0;
  for (const std::string& d : in.docs) text_bytes += d.size();
  TextLayers(in, text_bytes, report);
  EngineLayers(in, text_bytes, report);
  CollectionLayers(in, text_bytes, report);
  fs::remove_all(in.scratch);
}

}  // namespace fsdm::perfbench
