#include "collection/collection.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "collection/collections_table.h"
#include "common/hash.h"
#include "fault/fault.h"
#include "json/dom.h"
#include "json/parser.h"
#include "json/serializer.h"
#include "oson/oson.h"
#include "telemetry/activity.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/incident.h"
#include "telemetry/log.h"
#include "telemetry/memory_tracker.h"
#include "telemetry/trace_event.h"

namespace fsdm::collection {

const char* CollectionHealthName(CollectionHealth health) {
  switch (health) {
    case CollectionHealth::kHealthy:
      return "healthy";
    case CollectionHealth::kIndexDegraded:
      return "index-degraded";
    case CollectionHealth::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

std::string ConsistencyReport::ToString() const {
  std::string out = consistent ? "CONSISTENT" : "INCONSISTENT";
  out += ": live_rows=" + std::to_string(live_rows) +
         " indexed_docs=" + std::to_string(indexed_docs) + "\n";
  for (const std::string& p : problems) {
    out += "  - " + p + "\n";
  }
  return out;
}

namespace {

// Incident bundles carry engine state the telemetry layer cannot see on
// its own: collection health (with the REASON plumbing) and the WAL
// writers' positions. Registered once, from the first Create() — the
// providers walk the registry at capture time, so they always reflect the
// live set.
void EnsureIncidentStateProviders() {
  static const bool registered = [] {
    telemetry::IncidentManager::Global().RegisterStateProvider(
        "collections", [] {
          std::string out = "[";
          for (const JsonCollection* c :
               CollectionRegistry::Global().collections()) {
            if (out.size() > 1) out += ",";
            std::string reason = c->health_reason();
            if (reason.empty()) reason = c->last_health_cause();
            out += "{\"name\":\"" + telemetry::JsonEscape(c->name()) + "\"";
            out += ",\"health\":\"";
            out += CollectionHealthName(c->health());
            out += "\",\"reason\":\"" + telemetry::JsonEscape(reason) + "\"";
            out += ",\"docs\":" + std::to_string(c->document_count());
            out += ",\"shards\":" + std::to_string(c->shard_count());
            out += ",\"shards_healthy\":" +
                   std::to_string(c->healthy_shard_count()) + "}";
          }
          out += "]";
          return out;
        });
    telemetry::IncidentManager::Global().RegisterStateProvider("wal", [] {
      std::string out = "[";
      for (const JsonCollection* c :
           CollectionRegistry::Global().collections()) {
        const wal::Wal* w = c->wal();
        if (w == nullptr) continue;
        if (out.size() > 1) out += ",";
        out += "{\"collection\":\"" + telemetry::JsonEscape(c->name()) + "\"";
        out += ",\"policy\":\"";
        out += wal::FsyncPolicyName(w->options().fsync);
        out += "\",\"segments\":" + std::to_string(w->segment_count());
        out += ",\"last_lsn\":" + std::to_string(w->last_lsn());
        out += ",\"durable_lsn\":" + std::to_string(w->durable_lsn());
        out += ",\"appends\":" + std::to_string(w->appends());
        out += ",\"fsyncs\":" + std::to_string(w->fsyncs());
        out += ",\"checkpoints\":" + std::to_string(w->checkpoints());
        out += ",\"aborts\":" + std::to_string(w->aborts());
        out += ",\"poisoned\":";
        out += w->failed() ? "true" : "false";
        out += "}";
      }
      out += "]";
      return out;
    });
    return true;
  }();
  (void)registered;
}

}  // namespace

Result<std::unique_ptr<JsonCollection>> JsonCollection::Create(
    rdbms::Database* db, const std::string& name,
    const CollectionOptions& options) {
  if (db == nullptr) return Status::InvalidArgument("null database");
  EnsureIncidentStateProviders();

  if (options.shard_count > 1) {
    // Sharded facade (ISSUE 6): N full single-shard stacks behind one
    // object. The children are ordinary collections named "<name>$s<i>"
    // but stay out of the CollectionRegistry — TELEMETRY$COLLECTIONS
    // shows one row for the facade with a per-shard health rollup.
    std::unique_ptr<JsonCollection> facade(
        new JsonCollection(db, name, options));
    CollectionOptions shard_options = options;
    shard_options.shard_count = 1;
    // The facade owns the write-ahead log for every shard (one LSN
    // sequence makes cross-shard replay ordering trivial); the children
    // must not open their own.
    shard_options.wal_dir.clear();
    for (size_t i = 0; i < options.shard_count; ++i) {
      Result<std::unique_ptr<JsonCollection>> shard = Create(
          db, name + "$s" + std::to_string(i), shard_options);
      if (!shard.ok()) {
        // Unwind every shard already built; each child drops its own
        // table through the same path a failed single-shard Create uses.
        for (std::unique_ptr<JsonCollection>& built : facade->shards_) {
          built->Detach();
          (void)db->DropTable(built->name());
        }
        return shard.status();
      }
      CollectionRegistry::Global().Unregister(shard.value().get());
      shard.value()->is_shard_ = true;
      // The facade's reporters sum over the shards; the children's own
      // registrations (made by the recursive Create) would double-count
      // every byte in the tracker.
      shard.value()->mem_scopes_.clear();
      facade->shards_.push_back(std::move(shard).value());
    }
    if (options.install_oson_column) facade->oson_column_ = kOsonColumnName;
    if (!options.wal_dir.empty()) {
      Status walled = facade->InitWal();
      if (!walled.ok()) {
        for (std::unique_ptr<JsonCollection>& built : facade->shards_) {
          built->Detach();
          (void)db->DropTable(built->name());
        }
        return walled;
      }
    }
    facade->health();  // publish the initial health gauge
    facade->RegisterMemoryReporters();
    CollectionRegistry::Global().Register(facade.get());
    FSDM_LOG(telemetry::LogLevel::kInfo, "collection", 1001,
             "collection created (sharded facade): " + name,
             telemetry::LogNum("shards", options.shard_count),
             telemetry::LogNum("durable", options.wal_dir.empty() ? 0 : 1));
    return facade;
  }

  std::vector<rdbms::ColumnDef> columns = {
      {.name = options.key_column, .type = rdbms::ColumnType::kNumber},
      {.name = options.json_column,
       .type = rdbms::ColumnType::kJson,
       .max_length = options.max_document_length,
       .check_is_json = true}};
  FSDM_ASSIGN_OR_RETURN(rdbms::Table * table,
                        db->CreateTable(name, std::move(columns)));

  std::unique_ptr<JsonCollection> coll(new JsonCollection(db, name, options));
  coll->table_ = table;
  const std::vector<size_t>& physical = table->physical_columns();
  for (size_t i = 0; i < physical.size(); ++i) {
    if (table->columns()[physical[i]].name == options.json_column) {
      coll->json_physical_pos_ = i;
      break;
    }
  }

  // Wire the rest of the stack. A failure past CreateTable must unwind
  // completely — detach the half-built collection and drop the table — or
  // the database is left holding a table with dangling observers.
  Status wired = [&]() -> Status {
    if (options.install_oson_column) {
      FSDM_FAULT_POINT("collection.create.oson_column");
      rdbms::ColumnDef oson;
      oson.name = kOsonColumnName;
      oson.type = rdbms::ColumnType::kRaw;
      oson.hidden = true;
      oson.virtual_expr = sqljson::OsonConstructor(options.json_column);
      FSDM_RETURN_NOT_OK(table->AddVirtualColumn(std::move(oson)));
      coll->oson_column_ = kOsonColumnName;
    }
    if (options.attach_search_index) {
      FSDM_FAULT_POINT("collection.create.search_index");
      // The statistics repository rides the index's DataGuide walk as the
      // scalar sink (ISSUE 5) — stats cost no extra parse.
      coll->options_.index_options.scalar_sink = &coll->path_stats_;
      FSDM_ASSIGN_OR_RETURN(
          coll->index_,
          index::JsonSearchIndex::Create(table, options.json_column,
                                         coll->options_.index_options));
    }
    coll->dml_observer_ = std::make_unique<DmlObserver>(coll.get());
    table->AddObserver(coll->dml_observer_.get());
    return Status::Ok();
  }();
  if (!wired.ok()) {
    coll->Detach();  // before the table goes away
    (void)db->DropTable(name);
    return wired;
  }
  if (!options.wal_dir.empty()) {
    // Open (and, on an existing log, replay) the WAL only once the whole
    // stack is wired: replay drives the ordinary DML paths so the index,
    // DataGuide, IMC state and path statistics rebuild as a side effect.
    Status walled = coll->InitWal();
    if (!walled.ok()) {
      coll->Detach();
      (void)db->DropTable(name);
      return walled;
    }
  }
  coll->health();  // publish the initial health gauge
  coll->RegisterMemoryReporters();
  CollectionRegistry::Global().Register(coll.get());
  FSDM_LOG(telemetry::LogLevel::kInfo, "collection", 1002,
           "collection created: " + name,
           telemetry::LogNum("indexed", options.attach_search_index ? 1 : 0),
           telemetry::LogNum("durable", options.wal_dir.empty() ? 0 : 1));
  return coll;
}

JsonCollection::~JsonCollection() { Detach(); }

void JsonCollection::Detach() {
  if (detached_) return;
  // Drop the memory reporters first: they poll the structures Detach is
  // about to let go of.
  mem_scopes_.clear();
  if (wal_ != nullptr && !wal_->failed()) (void)wal_->Flush();
  CollectionRegistry::Global().Unregister(this);
  for (std::unique_ptr<JsonCollection>& shard : shards_) shard->Detach();
  if (table_ != nullptr && dml_observer_ != nullptr) {
    table_->RemoveObserver(dml_observer_.get());
  }
  if (index_ != nullptr) index_->Detach();
  detached_ = true;
}

void JsonCollection::RegisterMemoryReporters() {
#if !defined(FSDM_TELEMETRY_DISABLED)
  using telemetry::MemSubsystem;
  using telemetry::MemoryScope;
  // Every reporter sums over shard(i), which is `this` on a single-shard
  // collection — one code path for both shapes. The scopes capture `this`;
  // Detach() clears them before any polled structure goes away.
  auto sum = [this](uint64_t (*per_shard)(const JsonCollection&)) {
    return [this, per_shard]() {
      uint64_t total = 0;
      for (size_t s = 0; s < shard_count(); ++s) {
        total += per_shard(*shard(s));
      }
      return total;
    };
  };
  mem_scopes_.emplace_back(
      MemSubsystem::kTableHeap, name_,
      sum(+[](const JsonCollection& c) {
        return c.table_ != nullptr ? c.table_->HeapBytes() : uint64_t{0};
      }));
  mem_scopes_.emplace_back(
      MemSubsystem::kIndexPostings, name_,
      sum(+[](const JsonCollection& c) {
        return c.index_ != nullptr ? c.index_->MemoryBytes() : uint64_t{0};
      }));
  mem_scopes_.emplace_back(
      MemSubsystem::kDataGuide, name_,
      sum(+[](const JsonCollection& c) -> uint64_t {
        // The live guide plus, when the index persists it, the $DG side
        // table's heap (the guide's durable image).
        if (c.index_ != nullptr) {
          uint64_t bytes = c.index_->dataguide().MemoryBytes();
          if (c.index_->dg_table() != nullptr) {
            bytes += c.index_->dg_table()->HeapBytes();
          }
          return bytes;
        }
        return c.own_guide_.MemoryBytes();
      }));
  mem_scopes_.emplace_back(
      MemSubsystem::kImc, name_,
      sum(+[](const JsonCollection& c) -> uint64_t {
        return c.imc_valid_ && c.imc_.has_value() ? c.imc_->MemoryBytes()
                                                  : uint64_t{0};
      }));
  mem_scopes_.emplace_back(
      MemSubsystem::kPathStats, name_,
      sum(+[](const JsonCollection& c) {
        return c.path_stats_.MemoryBytes();
      }));
  mem_scopes_.emplace_back(
      MemSubsystem::kWalBuffers, name_,
      sum(+[](const JsonCollection& c) {
        return c.wal_ != nullptr ? c.wal_->MemoryBytes() : uint64_t{0};
      }));
#endif  // !FSDM_TELEMETRY_DISABLED
}

size_t JsonCollection::document_count() const {
  if (sharded()) {
    size_t n = 0;
    for (const std::unique_ptr<JsonCollection>& s : shards_) {
      n += s->document_count();
    }
    return n;
  }
  return table_->live_row_count();
}

size_t JsonCollection::ShardForKey(const Value& key) const {
  if (!sharded()) return 0;
  return static_cast<size_t>(ShardPlacementHash(key.ToDisplayString()) %
                             shards_.size());
}

// --- Health & crash consistency ---------------------------------------------

CollectionHealth JsonCollection::health() const {
  CollectionHealth h = CollectionHealth::kHealthy;
  if (sharded()) {
    // Per-shard degradation: ONE bad shard degrades the collection
    // instead of killing it. All healthy -> healthy; all quarantined ->
    // quarantined; anything in between -> index-degraded (the router then
    // falls back per shard, so healthy shards keep their fast paths).
    size_t quarantined = 0;
    size_t healthy = 0;
    for (const std::unique_ptr<JsonCollection>& s : shards_) {
      switch (s->health()) {
        case CollectionHealth::kHealthy:
          ++healthy;
          break;
        case CollectionHealth::kQuarantined:
          ++quarantined;
          break;
        case CollectionHealth::kIndexDegraded:
          break;
      }
    }
    if (quarantined == shards_.size()) {
      h = CollectionHealth::kQuarantined;
    } else if (healthy < shards_.size()) {
      h = CollectionHealth::kIndexDegraded;
    }
  } else if (quarantined_) {
    h = CollectionHealth::kQuarantined;
  } else if (index_ != nullptr && index_->degraded()) {
    h = CollectionHealth::kIndexDegraded;
  }
  FSDM_GAUGE_SET("fsdm_collection_health", static_cast<int64_t>(h));
  return h;
}

size_t JsonCollection::healthy_shard_count() const {
  if (!sharded()) {
    return health() == CollectionHealth::kHealthy ? 1 : 0;
  }
  size_t healthy = 0;
  for (const std::unique_ptr<JsonCollection>& s : shards_) {
    if (s->health() == CollectionHealth::kHealthy) ++healthy;
  }
  return healthy;
}

std::string JsonCollection::health_reason() const {
  if (sharded()) {
    std::string reason;
    for (size_t i = 0; i < shards_.size(); ++i) {
      std::string shard_reason = shards_[i]->health_reason();
      if (shard_reason.empty()) continue;
      if (!reason.empty()) reason += "; ";
      reason += "shard " + std::to_string(i) + ": " + shard_reason;
    }
    return reason;
  }
  if (quarantined_) return quarantine_reason_;
  if (index_ != nullptr && index_->degraded()) {
    return index_->degraded_reason();
  }
  return "";
}

void JsonCollection::Quarantine(std::string reason) {
  for (std::unique_ptr<JsonCollection>& s : shards_) s->Quarantine(reason);
  quarantined_ = true;
  quarantine_reason_ = std::move(reason);
  last_health_cause_ = quarantine_reason_;
  FSDM_TRACE_INSTANT_TEXT("collection", "collection.quarantine", "name",
                          name_);
  // The facade speaks for its shards: the cascade above already marked
  // them, and one incident per quarantine is the useful granularity.
  if (!is_shard_) {
    FSDM_LOG(telemetry::LogLevel::kError, "collection", 1005,
             "collection " + name_ + " quarantined: " + quarantine_reason_,
             telemetry::LogText("name", name_));
    telemetry::IncidentManager::Global().Raise("quarantine", name_,
                                               quarantine_reason_);
  }
  health();
}

Status JsonCollection::RebuildIndex() {
  FSDM_TRACE_SPAN(span, "collection", "index.rebuild");
  span.AddTextArg("name", name_);
  // Snapshot the degradation being healed: after a successful rebuild
  // health_reason() goes empty, but REASON should still be able to say
  // what the rebuild was for.
  if (!quarantined_ && index_ != nullptr && index_->degraded()) {
    last_health_cause_ = index_->degraded_reason();
  }
  if (sharded()) {
    // Per-shard rebuild with collection-level aggregation: every shard
    // rebuilds (a failure on shard i must not leave shard i+1 degraded),
    // and the first failure is reported.
    Status first_error = Status::Ok();
    for (size_t i = 0; i < shards_.size(); ++i) {
      Status rebuilt = shards_[i]->RebuildIndex();
      if (!rebuilt.ok() && first_error.ok()) first_error = rebuilt;
    }
    if (first_error.ok()) {
      last_rebuild_ts_us_ = telemetry::MonotonicNowUs();
      quarantined_ = false;
      quarantine_reason_.clear();
      FSDM_LOG(telemetry::LogLevel::kInfo, "collection", 1006,
               "index rebuilt on all shards of " + name_,
               telemetry::LogNum("shards", shards_.size()));
    } else {
      FSDM_LOG(telemetry::LogLevel::kError, "collection", 1007,
               "index rebuild failed on sharded " + name_ + ": " +
                   first_error.message());
    }
    health();
    return first_error;
  }
  if (index_ != nullptr) {
    // Rebuild() re-feeds every live document through the DataGuide walk —
    // and therefore through the statistics sink. Reset the repository
    // first or every path would double-count; this is also the one point
    // where additive statistics shed their dead-document skew.
    path_stats_.Clear();
    Status rebuilt = index_->Rebuild();
    if (!rebuilt.ok()) {
      quarantined_ = true;
      quarantine_reason_ = "index rebuild failed: " + rebuilt.message();
      last_health_cause_ = quarantine_reason_;
      FSDM_LOG(telemetry::LogLevel::kError, "collection", 1009,
               "index rebuild failed on " + name_ + ": " + rebuilt.message(),
               telemetry::LogText("name", name_));
      health();
      return rebuilt;
    }
  }
  last_rebuild_ts_us_ = telemetry::MonotonicNowUs();
  quarantined_ = false;
  quarantine_reason_.clear();
  FSDM_LOG(telemetry::LogLevel::kInfo, "collection", 1008,
           "index rebuilt: " + name_,
           telemetry::LogNum("docs", document_count()));
  // The postings were reconstructed from the table the IMC also reads, so
  // a populated store stays valid; nothing else to heal.
  health();
  return Status::Ok();
}

Status JsonCollection::CheckWritable() const {
  if (!quarantined_) return Status::Ok();
  return Status::Unavailable("collection " + name_ +
                             " quarantined: " + quarantine_reason_);
}

Status JsonCollection::WalAppendFailed(const Status& append_status) {
  FSDM_LOG(telemetry::LogLevel::kError, "collection", 1010,
           "WAL append failed on " + name_ + ": " + append_status.message(),
           telemetry::LogText("name", name_));
  if (wal_ != nullptr && wal_->failed() && !quarantined_) {
    // The writer poisoned itself (short write, failed fsync): nothing
    // further will reach the log, so nothing further may reach the table.
    Quarantine("WAL poisoned: " + append_status.message());
  }
  return append_status;
}

ConsistencyReport JsonCollection::CheckConsistency() const {
  FSDM_TIME_SCOPE_US("fsdm_collection_check_consistency_us");
  ConsistencyReport report;
  if (sharded()) {
    // Per-shard checks with collection-level aggregation, plus the one
    // cross-shard invariant: every live document must sit on the shard
    // its key hashes to.
    for (size_t i = 0; i < shards_.size(); ++i) {
      const JsonCollection& s = *shards_[i];
      ConsistencyReport sub = s.CheckConsistency();
      report.live_rows += sub.live_rows;
      report.indexed_docs += sub.indexed_docs;
      for (std::string& p : sub.problems) {
        report.problems.push_back("shard " + std::to_string(i) + ": " +
                                  std::move(p));
      }
      const rdbms::Table* t = s.table();
      size_t key_pos = 0;
      for (size_t c = 0; c < t->physical_columns().size(); ++c) {
        if (t->columns()[t->physical_columns()[c]].name ==
            options_.key_column) {
          key_pos = c;
          break;
        }
      }
      for (size_t r = 0; r < t->row_count(); ++r) {
        if (!t->IsLive(r)) continue;
        const Value& key = t->StoredRow(r)[key_pos];
        const size_t expected = ShardForKey(key);
        if (expected != i) {
          report.problems.push_back(
              "shard " + std::to_string(i) + ": document with key " +
              key.ToDisplayString() + " belongs on shard " +
              std::to_string(expected) + " by placement hash");
        }
      }
    }
    report.consistent = report.problems.empty();
    return report;
  }
  size_t non_null = 0;
  dataguide::DataGuide shadow;
  for (size_t r = 0; r < table_->row_count(); ++r) {
    if (!table_->IsLive(r)) continue;
    ++report.live_rows;
    const Value& doc = table_->StoredRow(r)[json_physical_pos_];
    if (doc.is_null()) continue;
    ++non_null;
    Result<int> added = shadow.AddJsonText(doc.AsString());
    if (!added.ok()) {
      report.problems.push_back("row " + std::to_string(r) +
                                " violates IS JSON: " +
                                added.status().message());
    }
  }

  if (index_ != nullptr) {
    report.indexed_docs = index_->indexed_document_count();
    if (report.indexed_docs != non_null) {
      report.problems.push_back(
          "index reports " + std::to_string(report.indexed_docs) +
          " indexed documents, table holds " + std::to_string(non_null));
    }
    index_->VerifyPostings(&report.problems);
    const rdbms::Table* dg = index_->dg_table();
    if (dg != nullptr &&
        dg->row_count() != index_->dataguide().distinct_path_count()) {
      report.problems.push_back(
          "$DG side table has " + std::to_string(dg->row_count()) +
          " rows, in-memory guide has " +
          std::to_string(index_->dataguide().distinct_path_count()) +
          " entries");
    }
  }

  // The live guide must cover every observed path. Frequencies may
  // over-count (rolled-back DML never retracts guide statistics — additive
  // semantics, §3.4) but never under-count.
  const dataguide::DataGuide& live_guide = dataguide();
  for (const dataguide::PathEntry* e : shadow.SortedEntries()) {
    const dataguide::PathEntry* have =
        live_guide.Find(e->path, e->kind, e->under_array);
    if (have == nullptr) {
      report.problems.push_back("DataGuide missing path " +
                                std::string(e->path) + " (" +
                                e->TypeString() + ")");
    } else if (have->frequency < e->frequency) {
      report.problems.push_back(
          "DataGuide path " + std::string(e->path) + " frequency " +
          std::to_string(have->frequency) + " < observed " +
          std::to_string(e->frequency));
    }
  }

  if (imc_valid()) {
    if (imc_->row_count() != report.live_rows) {
      report.problems.push_back(
          "IMC holds " + std::to_string(imc_->row_count()) +
          " rows but table holds " + std::to_string(report.live_rows) +
          " live rows (missed invalidation)");
    }
  }

  report.consistent = report.problems.empty();
  return report;
}

// --- DML --------------------------------------------------------------------

// The public Insert/Delete/Replace are thin wrappers since ISSUE 8: they
// publish the operation as leased activity (so write-heavy workloads show
// up in the ASH time model — the PR 7 follow-up) and, on a durable
// collection, append the operation to the WAL *before* applying it. Shard
// children skip both — the facade already logged and leased — and go
// straight to the Apply* bodies, which are the pre-ISSUE-8 DML paths.
//
// Append-then-apply protocol: the OSON image is encoded first (an encode
// failure logs nothing), the record is appended (under fsync=always the
// ack implies durability), and only then does the engine apply. An apply
// failure appends a best-effort kAbort compensation so replay will not
// resurrect an operation the client saw fail. Between append and apply
// sits the "wal.apply.crash" fault point: it returns an error WITHOUT
// compensation, leaving exactly the on-disk state a crash at that instant
// would — the redo of such a record is what the durable-collection tests
// assert.

Result<size_t> JsonCollection::Insert(Value key, std::string json_text) {
  if (is_shard_) return ApplyInsert(std::move(key), std::move(json_text));
  telemetry::ActivityLease lease =
      telemetry::ActivityLease::Begin(name_, "dml", "collection.insert", "");
  uint64_t lsn = 0;
  const bool logged = wal_ != nullptr && !wal_replaying_;
  if (logged) {
    FSDM_ASSIGN_OR_RETURN(std::string oson_image,
                          oson::EncodeFromText(json_text));
    // ISSUE 9: the hidden OSON column is virtual — images only ever exist
    // transiently, here and at the other encode choke points.
    telemetry::MemoryCharge oson_charge(telemetry::MemSubsystem::kOsonVc,
                                        oson_image.size());
    Result<uint64_t> appended = wal_->AppendInsert(
        static_cast<uint32_t>(ShardForKey(key)), key, oson_image);
    if (!appended.ok()) return WalAppendFailed(appended.status());
    lsn = appended.value();
    FSDM_FAULT_POINT("wal.apply.crash");
  }
  Result<size_t> row = ApplyInsert(std::move(key), std::move(json_text));
  if (logged && !row.ok()) wal_->AppendAbort(lsn);
  return row;
}

Result<size_t> JsonCollection::ApplyInsert(Value key, std::string json_text) {
  if (sharded()) {
    // Hash placement + row-id encoding: global = local * N + shard, the
    // identity mapping at N = 1. The child carries telemetry and its own
    // writability check.
    const size_t s = ShardForKey(key);
    FSDM_ASSIGN_OR_RETURN(
        size_t local, shards_[s]->Insert(std::move(key),
                                         std::move(json_text)));
    return local * shards_.size() + s;
  }
  FSDM_RETURN_NOT_OK(CheckWritable());
  FSDM_COUNT("fsdm_collection_inserts_total", 1);
  FSDM_TIME_SCOPE_US("fsdm_collection_insert_us");
  FSDM_TRACE_SPAN(span, "collection", "collection.insert");
  span.AddTextArg("name", name_);
  span.AddNumberArg("bytes", static_cast<double>(json_text.size()));
  return table_->Insert({std::move(key), Value::String(std::move(json_text))});
}

Result<size_t> JsonCollection::Insert(std::string json_text) {
  // Delegates to the keyed overload, which carries the telemetry, the WAL
  // append, and the shard placement when sharded. The facade owns the
  // auto-key sequence so keys stay collection-unique across shards.
  return Insert(Value::Int64(next_auto_key_++), std::move(json_text));
}

Status JsonCollection::Delete(size_t row_id) {
  if (is_shard_) return ApplyDelete(row_id);
  telemetry::ActivityLease lease =
      telemetry::ActivityLease::Begin(name_, "dml", "collection.delete", "");
  uint64_t lsn = 0;
  const bool logged = wal_ != nullptr && !wal_replaying_;
  if (logged) {
    const uint32_t s =
        sharded() ? static_cast<uint32_t>(row_id % shards_.size()) : 0;
    Result<uint64_t> appended = wal_->AppendDelete(s, row_id);
    if (!appended.ok()) return WalAppendFailed(appended.status());
    lsn = appended.value();
    FSDM_FAULT_POINT("wal.apply.crash");
  }
  Status applied = ApplyDelete(row_id);
  if (logged && !applied.ok()) wal_->AppendAbort(lsn);
  return applied;
}

Status JsonCollection::ApplyDelete(size_t row_id) {
  if (sharded()) {
    return shards_[row_id % shards_.size()]->Delete(row_id / shards_.size());
  }
  FSDM_RETURN_NOT_OK(CheckWritable());
  FSDM_COUNT("fsdm_collection_deletes_total", 1);
  FSDM_TIME_SCOPE_US("fsdm_collection_delete_us");
  FSDM_TRACE_SPAN(span, "collection", "collection.delete");
  span.AddTextArg("name", name_);
  return table_->Delete(row_id);
}

Status JsonCollection::Replace(size_t row_id, Value key,
                               std::string json_text) {
  if (is_shard_) {
    return ApplyReplace(row_id, std::move(key), std::move(json_text));
  }
  telemetry::ActivityLease lease =
      telemetry::ActivityLease::Begin(name_, "dml", "collection.replace", "");
  uint64_t lsn = 0;
  const bool logged = wal_ != nullptr && !wal_replaying_;
  if (logged) {
    const uint32_t s =
        sharded() ? static_cast<uint32_t>(row_id % shards_.size()) : 0;
    FSDM_ASSIGN_OR_RETURN(std::string oson_image,
                          oson::EncodeFromText(json_text));
    telemetry::MemoryCharge oson_charge(telemetry::MemSubsystem::kOsonVc,
                                        oson_image.size());
    Result<uint64_t> appended = wal_->AppendReplace(s, row_id, key, oson_image);
    if (!appended.ok()) return WalAppendFailed(appended.status());
    lsn = appended.value();
    FSDM_FAULT_POINT("wal.apply.crash");
  }
  Status applied = ApplyReplace(row_id, std::move(key), std::move(json_text));
  if (logged && !applied.ok()) wal_->AppendAbort(lsn);
  return applied;
}

Status JsonCollection::ApplyReplace(size_t row_id, Value key,
                                    std::string json_text) {
  if (sharded()) {
    const size_t s = row_id % shards_.size();
    if (ShardForKey(key) != s) {
      // A key change that re-hashes to another shard would need a
      // cross-shard delete+insert; refuse instead of silently breaking
      // the placement invariant CheckConsistency() verifies.
      return Status::InvalidArgument(
          "replace would move document to shard " +
          std::to_string(ShardForKey(key)) + " (row lives on shard " +
          std::to_string(s) + "); delete and re-insert instead");
    }
    return shards_[s]->Replace(row_id / shards_.size(), std::move(key),
                               std::move(json_text));
  }
  FSDM_RETURN_NOT_OK(CheckWritable());
  FSDM_COUNT("fsdm_collection_replaces_total", 1);
  FSDM_TIME_SCOPE_US("fsdm_collection_replace_us");
  FSDM_TRACE_SPAN(span, "collection", "collection.replace");
  span.AddTextArg("name", name_);
  return table_->Replace(
      row_id, {std::move(key), Value::String(std::move(json_text))});
}

// --- Durability (ISSUE 8) ---------------------------------------------------

namespace {

/// Replay-side payload decode: OSON image -> canonical JSON text, which is
/// exactly what the stored JDOC of the original insert canonicalizes to
/// after its own OSON round trip — replayed state is byte-identical.
Result<std::string> OsonImageToText(const std::string& oson_image) {
  FSDM_ASSIGN_OR_RETURN(std::unique_ptr<json::JsonNode> node,
                        oson::Decode(oson_image));
  return json::Serialize(*node);
}

}  // namespace

Status JsonCollection::InitWal() {
  wal::WalOptions wal_options;
  wal_options.dir = options_.wal_dir;
  wal_options.segment_bytes = options_.wal_segment_bytes;
  wal_options.group_ops = options_.wal_group_ops;
  wal_options.fsync = options_.wal_fsync.has_value()
                          ? *options_.wal_fsync
                          : wal::FsyncPolicyFromEnv();
  FSDM_ASSIGN_OR_RETURN(wal::Wal::OpenResult opened,
                        wal::Wal::Open(std::move(wal_options)));
  wal_ = std::move(opened.wal);
  if (!opened.replay.empty()) {
    FSDM_RETURN_NOT_OK(ReplayWal(opened.replay));
  }
  return Status::Ok();
}

Status JsonCollection::ReplayWal(const std::vector<wal::Record>& records) {
  FSDM_TRACE_SPAN(span, "wal", "wal.replay");
  span.AddTextArg("name", name_);
  FSDM_TIME_SCOPE_US("fsdm_wal_replay_us");
  telemetry::ActivityLease lease =
      telemetry::ActivityLease::Begin(name_, "dml", "collection.recover", "");
  wal::RecoveryInfo* info = wal_->mutable_recovery();
  const uint64_t t0 = telemetry::MonotonicNowUs();

  // Analysis pass: collect compensated LSNs (their operations appended
  // but never applied) and find the last *complete* checkpoint — a Begin
  // whose End made it into the durable prefix. An interrupted checkpoint
  // is skipped entirely; replay falls back to the records before it.
  std::unordered_set<uint64_t> aborted;
  size_t start = 0;
  bool from_checkpoint = false;
  {
    size_t begin_idx = SIZE_MAX;
    for (size_t i = 0; i < records.size(); ++i) {
      const wal::Record& r = records[i];
      if (r.type == wal::RecordType::kAbort) aborted.insert(r.ref_id);
      if (r.type == wal::RecordType::kCheckpointBegin) begin_idx = i;
      if (r.type == wal::RecordType::kCheckpointEnd && begin_idx != SIZE_MAX) {
        start = begin_idx;
        from_checkpoint = true;
        begin_idx = SIZE_MAX;
      }
    }
  }

  // Redo pass. Row ids in the log are the ids the original process
  // observed; replaying only the successful operations in order against
  // the append-only table reproduces them exactly — except after a
  // checkpoint, where dead rows compact away. The checkpoint carries
  // everything needed to translate: each CheckpointDoc maps its logged id
  // to the id replay assigns, and post-checkpoint inserts are matched by
  // counting against the per-shard row high-water marks the Begin record
  // snapshotted.
  std::unordered_map<uint64_t, uint64_t> idmap;
  const size_t nshards = shard_count();
  std::vector<uint64_t> highwater(nshards, 0);
  std::vector<uint64_t> ck_inserts(nshards, 0);
  bool in_chosen_checkpoint = false;
  wal_replaying_ = true;
  Status replayed = [&]() -> Status {
    for (size_t i = start; i < records.size(); ++i) {
      const wal::Record& r = records[i];
      if (aborted.count(r.lsn) > 0) {
        ++info->aborted_skipped;
        continue;
      }
      switch (r.type) {
        case wal::RecordType::kAbort:
          continue;
        case wal::RecordType::kCheckpointBegin:
          if (i == start) {
            in_chosen_checkpoint = true;
            next_auto_key_ = static_cast<int64_t>(r.next_auto_key);
            for (size_t s = 0;
                 s < nshards && s < r.shard_highwater.size(); ++s) {
              highwater[s] = r.shard_highwater[s];
            }
          }
          continue;
        case wal::RecordType::kCheckpointEnd:
          if (in_chosen_checkpoint) {
            in_chosen_checkpoint = false;
            if (r.ref_id != idmap.size()) {
              return Status::Corruption(
                  "WAL checkpoint declares " + std::to_string(r.ref_id) +
                  " documents, replayed " + std::to_string(idmap.size()));
            }
          }
          continue;
        case wal::RecordType::kCheckpointDoc: {
          // Docs of an interrupted checkpoint (not the chosen start) are
          // state the surrounding DML records already cover; skip them.
          if (!in_chosen_checkpoint) continue;
          FSDM_ASSIGN_OR_RETURN(std::string text, OsonImageToText(r.oson));
          Result<size_t> actual = Insert(Value(r.key), std::move(text));
          if (!actual.ok()) {
            return Status::Corruption(
                "WAL replay: checkpoint doc at LSN " + std::to_string(r.lsn) +
                " failed to apply: " + actual.status().message());
          }
          idmap[r.ref_id] = actual.value();
          ++info->records_applied;
          continue;
        }
        case wal::RecordType::kInsert: {
          FSDM_ASSIGN_OR_RETURN(std::string text, OsonImageToText(r.oson));
          if (r.key.type() == ScalarType::kInt64 &&
              r.key.AsInt64() >= next_auto_key_) {
            next_auto_key_ = r.key.AsInt64() + 1;
          }
          Result<size_t> actual = Insert(Value(r.key), std::move(text));
          if (!actual.ok()) {
            return Status::Corruption(
                "WAL replay: insert at LSN " + std::to_string(r.lsn) +
                " failed to apply: " + actual.status().message());
          }
          if (from_checkpoint) {
            const size_t s = r.shard < nshards ? r.shard : 0;
            const uint64_t orig_local = highwater[s] + ck_inserts[s]++;
            idmap[nshards > 1 ? orig_local * nshards + s : orig_local] =
                actual.value();
          }
          ++info->records_applied;
          continue;
        }
        case wal::RecordType::kDelete:
        case wal::RecordType::kReplace: {
          uint64_t row_id = r.ref_id;
          if (from_checkpoint) {
            auto it = idmap.find(row_id);
            if (it == idmap.end()) {
              return Status::Corruption(
                  "WAL replay: LSN " + std::to_string(r.lsn) +
                  " references row " + std::to_string(row_id) +
                  " the checkpoint does not cover");
            }
            row_id = it->second;
          }
          Status applied;
          if (r.type == wal::RecordType::kDelete) {
            applied = Delete(static_cast<size_t>(row_id));
          } else {
            FSDM_ASSIGN_OR_RETURN(std::string text, OsonImageToText(r.oson));
            applied = Replace(static_cast<size_t>(row_id), Value(r.key),
                              std::move(text));
          }
          if (!applied.ok()) {
            return Status::Corruption(
                "WAL replay: " + std::string(RecordTypeName(r.type)) +
                " at LSN " + std::to_string(r.lsn) +
                " failed to apply: " + applied.message());
          }
          ++info->records_applied;
          continue;
        }
      }
      return Status::Corruption("WAL replay: unknown record type at LSN " +
                                std::to_string(r.lsn));
    }
    return Status::Ok();
  }();
  wal_replaying_ = false;
  if (!replayed.ok()) return replayed;
  info->replay_ms =
      static_cast<double>(telemetry::MonotonicNowUs() - t0) / 1000.0;

  // The replayed stack must agree with itself before it is handed out.
  ConsistencyReport report = CheckConsistency();
  if (!report.consistent) {
    std::string why = report.problems.empty()
                          ? "consistency check failed"
                          : report.problems.front();
    FSDM_LOG(telemetry::LogLevel::kError, "collection", 1004,
             "WAL replay left " + name_ + " inconsistent: " + why,
             telemetry::LogNum("live_rows", report.live_rows),
             telemetry::LogNum("indexed_docs", report.indexed_docs));
    telemetry::IncidentManager::Global().Raise("consistency", name_, why);
    return Status::Corruption("WAL replay left collection inconsistent:\n" +
                              report.ToString());
  }
  FSDM_LOG(telemetry::LogLevel::kInfo, "collection", 1003,
           "WAL recovery complete: " + name_,
           telemetry::LogNum("records_applied", info->records_applied),
           telemetry::LogNum("aborted_skipped", info->aborted_skipped));
  // Re-anchor: a fresh checkpoint makes the ids the *next* replay assigns
  // line up with the snapshot (this generation may have compacted dead
  // rows away), and truncates the history just replayed.
  return Checkpoint();
}

size_t JsonCollection::KeyPhysicalPos(const rdbms::Table* t) const {
  for (size_t c = 0; c < t->physical_columns().size(); ++c) {
    if (t->columns()[t->physical_columns()[c]].name == options_.key_column) {
      return c;
    }
  }
  return 0;
}

Status JsonCollection::AppendCheckpointDocs(uint64_t* doc_count) {
  const size_t nshards = shard_count();
  for (size_t s = 0; s < nshards; ++s) {
    const rdbms::Table* t = shard(s)->table();
    const size_t key_pos = KeyPhysicalPos(t);
    const size_t json_pos = shard(s)->json_physical_pos_;
    for (size_t r = 0; r < t->row_count(); ++r) {
      if (!t->IsLive(r)) continue;
      const Value& key = t->StoredRow(r)[key_pos];
      const Value& doc = t->StoredRow(r)[json_pos];
      FSDM_ASSIGN_OR_RETURN(
          std::string oson_image,
          oson::EncodeFromText(doc.is_null() ? "null" : doc.AsString()));
      telemetry::MemoryCharge oson_charge(telemetry::MemSubsystem::kOsonVc,
                                          oson_image.size());
      const uint64_t global = nshards > 1 ? r * nshards + s : r;
      FSDM_RETURN_NOT_OK(wal_->CheckpointDoc(static_cast<uint32_t>(s), global,
                                             key, oson_image));
      ++*doc_count;
    }
  }
  return Status::Ok();
}

Status JsonCollection::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument("collection " + name_ +
                                   " has no write-ahead log");
  }
  FSDM_TRACE_SPAN(span, "wal", "wal.checkpoint");
  span.AddTextArg("name", name_);
  FSDM_TIME_SCOPE_US("fsdm_wal_checkpoint_us");
  const size_t nshards = shard_count();
  std::vector<uint64_t> highwater(nshards, 0);
  for (size_t s = 0; s < nshards; ++s) {
    // row_count() counts tombstones too: the high-water mark is the next
    // local row id the shard will assign, which is what the replay-side
    // insert matching needs.
    highwater[s] = shard(s)->table()->row_count();
  }
  FSDM_RETURN_NOT_OK(wal_->CheckpointBegin(
      static_cast<uint64_t>(next_auto_key_), highwater));
  uint64_t docs = 0;
  FSDM_RETURN_NOT_OK(AppendCheckpointDocs(&docs));
  return wal_->CheckpointEnd(docs);
}

// --- Observer ---------------------------------------------------------------

// The DmlObserver keeps the default (no-op) Undo* hooks: marking a row IMC
// dirty is conservative under rollback — a row a rolled-back DML marked
// only costs re-evaluating that one row at the next EnsureImc() — and the
// own-guide is additive like the index's DataGuide (§3.4).

Status JsonCollection::DmlObserver::OnInsert(size_t row_id,
                                             const rdbms::Row& row) {
  FSDM_TRACE_SPAN(span, "collection", "observer.insert");
  FSDM_FAULT_POINT("collection.observer.insert");
  owner_->InvalidateImc(row_id);
  if (owner_->index_ == nullptr) {
    return owner_->MaintainOwnGuide(row[owner_->json_physical_pos_]);
  }
  return Status::Ok();
}

Status JsonCollection::DmlObserver::OnDelete(size_t row_id,
                                             const rdbms::Row&) {
  // The DataGuide is additive (§3.4): deletes never remove entries.
  FSDM_TRACE_SPAN(span, "collection", "observer.delete");
  FSDM_FAULT_POINT("collection.observer.delete");
  owner_->InvalidateImc(row_id);
  return Status::Ok();
}

Status JsonCollection::DmlObserver::OnReplace(size_t row_id,
                                              const rdbms::Row&,
                                              const rdbms::Row& new_row) {
  FSDM_TRACE_SPAN(span, "collection", "observer.replace");
  FSDM_FAULT_POINT("collection.observer.replace");
  owner_->InvalidateImc(row_id);
  if (owner_->index_ == nullptr) {
    return owner_->MaintainOwnGuide(new_row[owner_->json_physical_pos_]);
  }
  return Status::Ok();
}

void JsonCollection::InvalidateImc(size_t row_id) {
  if (!imc_.has_value()) return;
  if (row_id >= imc_dirty_.size()) imc_dirty_.resize(row_id + 1);
  imc_dirty_[row_id] = true;
  if (imc_valid_) {
    imc_valid_ = false;
    imc_invalidations_.Add(1);
    FSDM_COUNT("fsdm_collection_imc_invalidations_total", 1);
    FSDM_TRACE_INSTANT("imc", "imc.invalidate");
  }
}

Status JsonCollection::MaintainOwnGuide(const Value& doc_value) {
  // Reuse the parse the IS JSON constraint already paid for (§3.2.1). The
  // path-statistics repository rides the same walk as the scalar sink.
  const json::JsonNode* parsed =
      table_->ParsedJsonForObserver(json_physical_pos_);
  if (parsed != nullptr) {
    json::TreeDom dom(parsed);
    return own_guide_.AddDocument(dom, nullptr, &path_stats_).status();
  }
  FSDM_ASSIGN_OR_RETURN(std::unique_ptr<json::JsonNode> doc,
                        json::Parse(doc_value.AsString()));
  json::TreeDom dom(doc.get());
  return own_guide_.AddDocument(dom, nullptr, &path_stats_).status();
}

// --- Derived schema ---------------------------------------------------------

Result<std::string> JsonCollection::AddVirtualColumn(
    std::string column_name, const std::string& path,
    sqljson::Returning returning, bool hidden) {
  if (sharded()) {
    // Schema changes fan out so every shard stays structurally identical
    // (the parallel union requires one shared schema).
    for (std::unique_ptr<JsonCollection>& s : shards_) {
      FSDM_RETURN_NOT_OK(
          s->AddVirtualColumn(column_name, path, returning, hidden).status());
    }
    vc_for_path_[path] = column_name;
    return column_name;
  }
  rdbms::ColumnDef def;
  def.name = column_name;
  def.type = returning == sqljson::Returning::kNumber
                 ? rdbms::ColumnType::kNumber
                 : rdbms::ColumnType::kString;
  def.hidden = hidden;
  FSDM_ASSIGN_OR_RETURN(
      def.virtual_expr,
      sqljson::JsonValue(options_.json_column, path,
                         sqljson::JsonStorage::kText, returning));
  FSDM_RETURN_NOT_OK(table_->AddVirtualColumn(std::move(def)));
  vc_for_path_[path] = column_name;
  return column_name;
}

Result<std::vector<std::string>> JsonCollection::AddInferredVirtualColumns(
    const dataguide::GenerateOptions& options) {
  if (sharded()) {
    // Each shard infers from its own DataGuide; skewed shards may add
    // different sets. The union (first-seen order, deduplicated) is what
    // the facade reports and records for VirtualColumnFor().
    std::vector<std::string> added_union;
    for (std::unique_ptr<JsonCollection>& s : shards_) {
      FSDM_ASSIGN_OR_RETURN(std::vector<std::string> added,
                            s->AddInferredVirtualColumns(options));
      for (std::string& name : added) {
        if (std::find(added_union.begin(), added_union.end(), name) ==
            added_union.end()) {
          added_union.push_back(std::move(name));
        }
      }
      for (const auto& [path, vc] : s->vc_for_path_) {
        vc_for_path_.emplace(path, vc);
      }
    }
    return added_union;
  }
  std::vector<std::string> paths;
  FSDM_ASSIGN_OR_RETURN(
      std::vector<std::string> added,
      dataguide::AddVc(table_, options_.json_column,
                       sqljson::JsonStorage::kText, dataguide(), options,
                       &paths));
  for (size_t i = 0; i < added.size(); ++i) {
    vc_for_path_[paths[i]] = added[i];
  }
  return added;
}

Result<dataguide::DmdvView> JsonCollection::CreateView(
    const std::string& root_path, const std::string& view_name,
    const dataguide::GenerateOptions& options) const {
  if (sharded()) {
    return Status::InvalidArgument(
        "views are not supported on sharded collections (a DMDV is bound "
        "to one backing table); create per-shard views via shard(i)");
  }
  return dataguide::CreateViewOnPath(table_, options_.json_column,
                                     sqljson::JsonStorage::kText, dataguide(),
                                     root_path, view_name, options);
}

Result<std::vector<dataguide::DmdvView>> JsonCollection::CreateViews(
    const dataguide::GenerateOptions& options) const {
  if (sharded()) {
    return Status::InvalidArgument(
        "views are not supported on sharded collections (a DMDV is bound "
        "to one backing table); create per-shard views via shard(i)");
  }
  std::vector<dataguide::DmdvView> views;
  FSDM_ASSIGN_OR_RETURN(dataguide::DmdvView root,
                        CreateView("$", name_ + "_RV", options));
  views.push_back(std::move(root));
  // One sub-view per top-level array hierarchy (the per-nested-collection
  // master-detail views of §3.3.2).
  for (const dataguide::PathEntry* e : dataguide().SortedEntries()) {
    if (e->kind != json::NodeKind::kArray || e->under_array) continue;
    const std::string path(e->path);
    size_t dot = path.rfind('.');
    std::string leaf = dot == std::string::npos ? path : path.substr(dot + 1);
    FSDM_ASSIGN_OR_RETURN(
        dataguide::DmdvView v,
        CreateView(path, name_ + "_" + leaf + "_RV", options));
    views.push_back(std::move(v));
  }
  return views;
}

const std::string* JsonCollection::VirtualColumnFor(
    const std::string& path) const {
  auto it = vc_for_path_.find(path);
  return it == vc_for_path_.end() ? nullptr : &it->second;
}

// --- IMC --------------------------------------------------------------------

std::vector<std::string> JsonCollection::DefaultImcColumns() const {
  std::vector<std::string> cols = {options_.key_column};
  if (!oson_column_.empty()) cols.push_back(oson_column_);
  for (const auto& [path, name] : vc_for_path_) cols.push_back(name);
  return cols;
}

Status JsonCollection::PopulateImc(std::vector<std::string> columns) {
  if (sharded()) {
    for (std::unique_ptr<JsonCollection>& s : shards_) {
      FSDM_RETURN_NOT_OK(s->PopulateImc(columns));
    }
    return Status::Ok();
  }
  if (columns.empty()) columns = DefaultImcColumns();
  FSDM_ASSIGN_OR_RETURN(imc::ColumnStore store,
                        imc::ColumnStore::Populate(*table_, columns));
  imc_ = std::move(store);
  imc_columns_ = std::move(columns);
  imc_dirty_.clear();
  imc_valid_ = true;
  return Status::Ok();
}

bool JsonCollection::imc_valid() const {
  if (!sharded()) return imc_valid_ && imc_.has_value();
  for (const std::unique_ptr<JsonCollection>& s : shards_) {
    if (!s->imc_valid()) return false;
  }
  return true;
}

bool JsonCollection::imc_populated() const {
  if (!sharded()) return imc_.has_value();
  for (const std::unique_ptr<JsonCollection>& s : shards_) {
    if (!s->imc_populated()) return false;
  }
  return true;
}

size_t JsonCollection::imc_invalidations() const {
  if (!sharded()) return static_cast<size_t>(imc_invalidations_.value());
  size_t n = 0;
  for (const std::unique_ptr<JsonCollection>& s : shards_) {
    n += s->imc_invalidations();
  }
  return n;
}

Result<const imc::ColumnStore*> JsonCollection::EnsureImc() {
  if (sharded()) {
    for (std::unique_ptr<JsonCollection>& s : shards_) {
      FSDM_RETURN_NOT_OK(s->EnsureImc().status());
    }
    return shards_[0]->imc();
  }
  if (imc_valid()) return &*imc_;
  if (!imc_.has_value()) {
    FSDM_RETURN_NOT_OK(PopulateImc(imc_columns_));
    return &*imc_;
  }
  FSDM_ASSIGN_OR_RETURN(
      imc::ColumnStore store,
      imc::ColumnStore::Populate(*table_, imc_columns_, &*imc_, imc_dirty_));
  imc_ = std::move(store);
  imc_dirty_.clear();
  imc_valid_ = true;
  return &*imc_;
}

Result<imc::ColumnStore> JsonCollection::MaterializeColumns(
    const std::vector<std::string>& columns) const {
  if (sharded()) {
    return Status::InvalidArgument(
        "MaterializeColumns spans one backing table; materialize per shard "
        "via shard(i)");
  }
  return imc::ColumnStore::Populate(*table_, columns);
}

// --- Query ------------------------------------------------------------------

rdbms::OperatorPtr JsonCollection::Scan(bool include_hidden) const {
  if (sharded()) {
    std::vector<rdbms::OperatorPtr> children;
    children.reserve(shards_.size());
    for (const std::unique_ptr<JsonCollection>& s : shards_) {
      children.push_back(s->Scan(include_hidden));
    }
    return rdbms::UnionAll(std::move(children));
  }
  return rdbms::Scan(table_, include_hidden);
}

Result<rdbms::ExprPtr> JsonCollection::JsonValueExpr(
    const std::string& path, sqljson::Returning returning) const {
  return sqljson::JsonValue(options_.json_column, path,
                            sqljson::JsonStorage::kText, returning);
}

Result<rdbms::ExprPtr> JsonCollection::JsonExistsExpr(
    const std::string& path) const {
  return sqljson::JsonExists(options_.json_column, path,
                             sqljson::JsonStorage::kText);
}

}  // namespace fsdm::collection
