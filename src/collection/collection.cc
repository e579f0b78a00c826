#include "collection/collection.h"

#include <algorithm>
#include <cctype>
#include <unordered_set>
#include <utility>

#include "collection/collections_table.h"
#include "collection/wal_table.h"
#include "common/hash.h"
#include "common/on_return.h"
#include "fault/fault.h"
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

CollectionMemory::CollectionMemory(const std::string& collection)
    : table_heap(telemetry::MemSubsystem::kTableHeap, collection),
      index_postings(telemetry::MemSubsystem::kIndexPostings, collection),
      dataguide(telemetry::MemSubsystem::kDataGuide, collection),
      imc(telemetry::MemSubsystem::kImc, collection),
      path_stats(telemetry::MemSubsystem::kPathStats, collection),
      wal_buffers(telemetry::MemSubsystem::kWalBuffers, collection) {}

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
    // The TELEMETRY$WAL row keyed by lower-cased column names, plus
    // whether the writer has poisoned itself.
    telemetry::IncidentManager::Global().RegisterStateProvider("wal", [] {
      const std::vector<std::string>& columns = WalSchema().columns();
      std::string out = "[";
      for (const JsonCollection* c :
           CollectionRegistry::Global().collections()) {
        const wal::Wal* w = c->wal();
        if (w == nullptr) continue;
        if (out.size() > 1) out += ",";
        const rdbms::Row row = WalRow(*c, *w);
        for (size_t i = 0; i < columns.size(); ++i) {
          out += i == 0 ? "{\"" : ",\"";
          for (unsigned char ch : columns[i]) {
            out += static_cast<char>(std::tolower(ch));
          }
          out += "\":";
          out += row[i].type() == ScalarType::kString
                     ? "\"" + telemetry::JsonEscape(row[i].AsString()) + "\""
                     : std::to_string(row[i].AsInt64());
        }
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

  const size_t n = std::max<size_t>(options.shard_count, 1);
  std::unique_ptr<JsonCollection> coll(new JsonCollection(name, options));
  coll->memory_ = std::make_unique<CollectionMemory>(name);
  // A failure past the first table drops every table built so far.
  auto unwind = [&](Status status) {
    coll->Detach();
    for (const std::unique_ptr<Shard>& built : coll->shards_) {
      (void)db->DropTable(built->name());
    }
    return status;
  };
  for (size_t i = 0; i < n; ++i) {
    // One shard keeps the collection's own name, so a single-shard
    // collection is indistinguishable from a plain table stack.
    Result<std::unique_ptr<Shard>> shard = Shard::Create(
        db, n == 1 ? name : name + "$s" + std::to_string(i), options,
        coll->memory_.get());
    if (!shard.ok()) return unwind(shard.status());
    coll->shards_.push_back(std::move(shard).value());
  }
  if (!options.wal_dir.empty()) {
    // Open (and, on an existing log, replay) the WAL only once every shard
    // is wired: replay applies each record through its shard's DML so the
    // index, DataGuide, IMC state and path statistics rebuild as a side
    // effect.
    Status walled = coll->InitWal();
    if (!walled.ok()) return unwind(walled);
  }
  CollectionRegistry::Global().Register(coll.get());
  if (n == 1) {
    FSDM_LOG(telemetry::LogLevel::kInfo, "collection", 1002,
             "collection created: " + name,
             telemetry::LogNum("indexed", options.attach_search_index ? 1 : 0),
             telemetry::LogNum("durable", options.wal_dir.empty() ? 0 : 1));
  } else {
    FSDM_LOG(telemetry::LogLevel::kInfo, "collection", 1001,
             "collection created (sharded facade): " + name,
             telemetry::LogNum("shards", n),
             telemetry::LogNum("durable", options.wal_dir.empty() ? 0 : 1));
  }
  return coll;
}

JsonCollection::~JsonCollection() { Detach(); }

void JsonCollection::Detach() {
  if (detached_) return;
  if (wal_ != nullptr && !wal_->failed()) (void)wal_->Flush();
  CollectionRegistry::Global().Unregister(this);
  for (const std::unique_ptr<Shard>& shard : shards_) shard->Detach();
  memory_.reset();
  detached_ = true;
}

void JsonCollection::PublishWalMemory() {
  if (wal_ != nullptr && memory_ != nullptr) {
    memory_->wal_buffers.Set(wal_->MemoryBytes());
  }
}

size_t JsonCollection::document_count() const {
  size_t n = 0;
  for (const std::unique_ptr<Shard>& s : shards_) n += s->document_count();
  return n;
}

size_t JsonCollection::ShardForKey(const Value& key) const {
  // No key display string is hashed on the single-shard hot path.
  if (shards_.size() == 1) return 0;
  return static_cast<size_t>(ShardPlacementHash(key.ToDisplayString()) %
                             shards_.size());
}

// --- Health & crash consistency ---------------------------------------------

namespace {

/// What a shard's problem strings are prefixed with in the collection's:
/// nothing when the shard is the whole collection.
std::string ShardPrefix(size_t shard, size_t shard_count) {
  return shard_count == 1 ? "" : "shard " + std::to_string(shard) + ": ";
}

}  // namespace

CollectionHealth JsonCollection::health() const {
  // One bad shard degrades the collection instead of killing it.
  size_t quarantined = 0;
  size_t healthy = 0;
  for (const std::unique_ptr<Shard>& s : shards_) {
    const CollectionHealth shard_health = s->health();
    quarantined += shard_health == CollectionHealth::kQuarantined;
    healthy += shard_health == CollectionHealth::kHealthy;
  }
  CollectionHealth h = CollectionHealth::kHealthy;
  if (quarantined == shards_.size()) {
    h = CollectionHealth::kQuarantined;
  } else if (healthy < shards_.size()) {
    h = CollectionHealth::kIndexDegraded;
  }
  return h;
}

size_t JsonCollection::healthy_shard_count() const {
  return static_cast<size_t>(
      std::count_if(shards_.begin(), shards_.end(), [](const auto& s) {
        return s->health() == CollectionHealth::kHealthy;
      }));
}

std::string JsonCollection::health_reason() const {
  std::string reason;
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::string shard_reason = shards_[i]->health_reason();
    if (shard_reason.empty()) continue;
    if (!reason.empty()) reason += "; ";
    reason += ShardPrefix(i, shards_.size()) + shard_reason;
  }
  return reason;
}

void JsonCollection::Quarantine(std::string reason) {
  for (const std::unique_ptr<Shard>& s : shards_) s->Quarantine(reason);
  last_health_cause_ = std::move(reason);
  // The collection speaks for its shards: one log record and one incident
  // per quarantine is the useful granularity.
  FSDM_LOG(telemetry::LogLevel::kError, "collection", 1005,
           "collection " + name_ + " quarantined: " + last_health_cause_,
           telemetry::LogText("name", name_));
  telemetry::IncidentManager::Global().Raise("quarantine", name_,
                                             last_health_cause_);
}

Status JsonCollection::RebuildIndex() {
  // Snapshot the degradation being healed: after a successful rebuild
  // health_reason() goes empty, but REASON should still be able to say
  // what the rebuild was for.
  if (health() == CollectionHealth::kIndexDegraded) {
    last_health_cause_ = health_reason();
  }
  // Every shard rebuilds (a failure on shard i must not leave shard i+1
  // degraded), and the first failure is reported.
  Status first_error = Status::Ok();
  for (const std::unique_ptr<Shard>& s : shards_) {
    Status rebuilt = s->RebuildIndex();
    if (!rebuilt.ok() && first_error.ok()) first_error = rebuilt;
  }
  if (first_error.ok()) {
    last_rebuild_ts_us_ = telemetry::MonotonicNowUs();
  } else {
    last_health_cause_ = health_reason();
  }
  return first_error;
}

Status JsonCollection::WalAppendFailed(const Status& append_status) {
  FSDM_LOG(telemetry::LogLevel::kError, "collection", 1010,
           "WAL append failed on " + name_ + ": " + append_status.message(),
           telemetry::LogText("name", name_));
  if (wal_ != nullptr && wal_->failed() &&
      health() != CollectionHealth::kQuarantined) {
    // The writer poisoned itself (short write, failed fsync): nothing
    // further will reach the log, so nothing further may reach the table.
    Quarantine("WAL poisoned: " + append_status.message());
  }
  return append_status;
}

ConsistencyReport JsonCollection::CheckConsistency() const {
  FSDM_TIME_SCOPE_US("fsdm_collection_check_consistency_us");
  ConsistencyReport report;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = *shards_[i];
    const std::string prefix = ShardPrefix(i, shards_.size());
    ConsistencyReport sub = s.CheckConsistency();
    report.live_rows += sub.live_rows;
    report.indexed_docs += sub.indexed_docs;
    for (std::string& p : sub.problems) {
      report.problems.push_back(prefix + std::move(p));
    }
    const rdbms::Table* t = s.table();
    for (size_t r = 0; r < t->row_count(); ++r) {
      if (!t->IsLive(r)) continue;
      const Value& key = t->StoredRow(r)[s.key_pos()];
      const size_t expected = ShardForKey(key);
      if (expected != i) {
        report.problems.push_back(
            prefix + "document with key " + key.ToDisplayString() +
            " belongs on shard " + std::to_string(expected) +
            " by placement hash");
      }
    }
  }
  report.consistent = report.problems.empty();
  return report;
}

// --- DML --------------------------------------------------------------------

// The public Insert/Delete/Replace publish the operation as leased activity
// (so write-heavy workloads show up in the ASH time model), place it on its
// shard, and, on a durable collection, append it to the WAL *before* the
// shard applies it.
//
// Append-then-apply protocol: the text is parsed and its OSON image
// encoded first (invalid text logs nothing; the shard's IS JSON check
// adopts this parse), the record is appended (under fsync=always the
// ack implies durability), and only then does the shard apply. An apply
// failure appends a best-effort kAbort compensation so replay will not
// resurrect an operation the client saw fail. Between append and apply
// sits the "wal.apply.crash" fault point: it returns an error WITHOUT
// compensation, leaving exactly the on-disk state a crash at that instant
// would — the redo of such a record is what the durable-collection tests
// assert.

Result<size_t> JsonCollection::Insert(Value key, std::string json_text) {
  telemetry::ActivityLease lease =
      telemetry::ActivityLease::Begin(name_, "dml", "collection.insert", "");
  OnReturn publish([this] { PublishWalMemory(); });
  // Row-id encoding: global = local * N + shard, the identity at N = 1.
  const size_t s = ShardForKey(key);
  uint64_t lsn = 0;
  const bool logged = wal_ != nullptr;
  std::unique_ptr<json::JsonNode> parsed;
  if (logged) {
    // One parse serves the log image and the shard's IS JSON check.
    FSDM_ASSIGN_OR_RETURN(
        parsed, json::Parse(json_text, {.reject_duplicate_keys = true}));
    FSDM_ASSIGN_OR_RETURN(std::string oson_image, oson::Encode(*parsed));
    // ISSUE 9: the hidden OSON column is virtual — images only ever exist
    // transiently, here and at the other encode choke points.
    telemetry::MemoryCharge oson_charge(telemetry::MemSubsystem::kOsonVc,
                                        oson_image.size());
    Result<uint64_t> appended =
        wal_->AppendInsert(static_cast<uint32_t>(s), key, oson_image);
    if (!appended.ok()) return WalAppendFailed(appended.status());
    lsn = appended.value();
    FSDM_FAULT_POINT("wal.apply.crash");
  }
  Result<size_t> local = shards_[s]->Insert(
      std::move(key), std::move(json_text), std::move(parsed));
  if (!local.ok()) {
    if (logged) wal_->AppendAbort(lsn);
    return local.status();
  }
  return local.value() * shards_.size() + s;
}

Result<size_t> JsonCollection::Insert(std::string json_text) {
  // The collection owns the auto-key sequence so keys stay unique across
  // shards.
  return Insert(Value::Int64(next_auto_key_++), std::move(json_text));
}

Status JsonCollection::Delete(size_t row_id) {
  telemetry::ActivityLease lease =
      telemetry::ActivityLease::Begin(name_, "dml", "collection.delete", "");
  OnReturn publish([this] { PublishWalMemory(); });
  const size_t s = row_id % shards_.size();
  uint64_t lsn = 0;
  const bool logged = wal_ != nullptr;
  if (logged) {
    Result<uint64_t> appended =
        wal_->AppendDelete(static_cast<uint32_t>(s), row_id);
    if (!appended.ok()) return WalAppendFailed(appended.status());
    lsn = appended.value();
    FSDM_FAULT_POINT("wal.apply.crash");
  }
  Status applied = shards_[s]->Delete(row_id / shards_.size());
  if (logged && !applied.ok()) wal_->AppendAbort(lsn);
  return applied;
}

Status JsonCollection::Replace(size_t row_id, Value key,
                               std::string json_text) {
  telemetry::ActivityLease lease =
      telemetry::ActivityLease::Begin(name_, "dml", "collection.replace", "");
  OnReturn publish([this] { PublishWalMemory(); });
  const size_t s = row_id % shards_.size();
  if (ShardForKey(key) != s) {
    // A key change that re-hashes to another shard would need a
    // cross-shard delete+insert; refuse instead of silently breaking the
    // placement invariant CheckConsistency() verifies.
    return Status::InvalidArgument(
        "replace would move document to shard " +
        std::to_string(ShardForKey(key)) + " (row lives on shard " +
        std::to_string(s) + "); delete and re-insert instead");
  }
  uint64_t lsn = 0;
  const bool logged = wal_ != nullptr;
  std::unique_ptr<json::JsonNode> parsed;
  if (logged) {
    FSDM_ASSIGN_OR_RETURN(
        parsed, json::Parse(json_text, {.reject_duplicate_keys = true}));
    FSDM_ASSIGN_OR_RETURN(std::string oson_image, oson::Encode(*parsed));
    telemetry::MemoryCharge oson_charge(telemetry::MemSubsystem::kOsonVc,
                                        oson_image.size());
    Result<uint64_t> appended = wal_->AppendReplace(
        static_cast<uint32_t>(s), row_id, key, oson_image);
    if (!appended.ok()) return WalAppendFailed(appended.status());
    lsn = appended.value();
    FSDM_FAULT_POINT("wal.apply.crash");
  }
  Status applied =
      shards_[s]->Replace(row_id / shards_.size(), std::move(key),
                          std::move(json_text), std::move(parsed));
  if (logged && !applied.ok()) wal_->AppendAbort(lsn);
  return applied;
}

// --- Durability (ISSUE 8) ---------------------------------------------------

namespace {

/// Replay-side payload decode: the image's tree and the canonical JSON
/// text it serializes to, which is exactly what the stored JDOC of the
/// original insert canonicalizes to after its own OSON round trip —
/// replayed state is byte-identical. The tree is what parsing that text
/// yields, so it goes to the shard as the IS JSON check's parse.
struct ReplayDoc {
  std::string text;
  std::unique_ptr<json::JsonNode> tree;
};

Result<ReplayDoc> DecodeImage(const std::string& oson_image) {
  FSDM_ASSIGN_OR_RETURN(std::unique_ptr<json::JsonNode> tree,
                        oson::Decode(oson_image));
  std::string text = json::Serialize(*tree);
  return ReplayDoc{std::move(text), std::move(tree)};
}

}  // namespace

Status JsonCollection::InitWal() {
  wal::WalOptions wal_options;
  wal_options.dir = options_.wal_dir;
  wal_options.segment_bytes = options_.wal_segment_bytes;
  wal_options.fsync = options_.wal_fsync;
  FSDM_ASSIGN_OR_RETURN(wal::Wal::OpenResult opened,
                        wal::Wal::Open(std::move(wal_options)));
  wal_ = std::move(opened.wal);
  OnReturn publish([this] { PublishWalMemory(); });
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
  {
    size_t begin_idx = SIZE_MAX;
    for (size_t i = 0; i < records.size(); ++i) {
      const wal::Record& r = records[i];
      if (r.type == wal::RecordType::kAbort) aborted.insert(r.ref_id);
      if (r.type == wal::RecordType::kCheckpointBegin) begin_idx = i;
      if (r.type == wal::RecordType::kCheckpointEnd && begin_idx != SIZE_MAX) {
        start = begin_idx;
        begin_idx = SIZE_MAX;
      }
    }
  }

  // Redo pass, in the row-id space of the process that wrote the log: a
  // logged global id is local row id / N on shard id % N. Replaying the
  // successful operations in order against the append-only tables gives
  // each insert the id it was logged under. A checkpoint lists only the
  // live documents, each applied at its logged id; the slots of rows that
  // were dead when it was taken (the gaps between its documents, and the
  // tail up to the Begin record's per-shard high-water marks) come back
  // as dead rows. Records apply straight to their shards, so nothing is
  // logged again.
  const size_t nshards = shard_count();
  std::vector<uint64_t> highwater;
  uint64_t checkpoint_docs = 0;
  bool in_chosen_checkpoint = false;
  Status replayed = [&]() -> Status {
    for (size_t i = start; i < records.size(); ++i) {
      const wal::Record& r = records[i];
      if (aborted.count(r.lsn) > 0) {
        ++info->aborted_skipped;
        continue;
      }
      // The row a kDelete, kReplace or kCheckpointDoc names.
      Shard& logged_shard = *shards_[r.ref_id % nshards];
      const size_t local = static_cast<size_t>(r.ref_id / nshards);
      Status applied;
      switch (r.type) {
        case wal::RecordType::kAbort:
          continue;
        case wal::RecordType::kCheckpointBegin:
          if (i == start) {
            in_chosen_checkpoint = true;
            next_auto_key_ = static_cast<int64_t>(r.next_auto_key);
            highwater = r.shard_highwater;
            highwater.resize(nshards, 0);
          }
          continue;
        case wal::RecordType::kCheckpointEnd:
          if (!in_chosen_checkpoint) continue;
          in_chosen_checkpoint = false;
          if (r.ref_id != checkpoint_docs) {
            return Status::Corruption(
                "WAL checkpoint declares " + std::to_string(r.ref_id) +
                " documents, replayed " + std::to_string(checkpoint_docs));
          }
          for (size_t s = 0; s < nshards; ++s) {
            shards_[s]->AppendDeadRows(highwater[s]);
          }
          continue;
        case wal::RecordType::kCheckpointDoc: {
          // Docs of an interrupted checkpoint (not the chosen start) are
          // state the surrounding DML records already cover; skip them.
          if (!in_chosen_checkpoint) continue;
          if (local < logged_shard.table()->row_count() ||
              local >= highwater[r.ref_id % nshards]) {
            applied = Status::Corruption(
                "row " + std::to_string(r.ref_id) +
                " is out of order or past the high-water mark");
            break;
          }
          logged_shard.AppendDeadRows(local);
          FSDM_ASSIGN_OR_RETURN(ReplayDoc doc, DecodeImage(r.oson));
          applied = logged_shard
                        .Insert(Value(r.key), std::move(doc.text),
                                std::move(doc.tree))
                        .status();
          ++checkpoint_docs;
          break;
        }
        case wal::RecordType::kInsert: {
          if (r.key.type() == ScalarType::kInt64 &&
              r.key.AsInt64() >= next_auto_key_) {
            next_auto_key_ = r.key.AsInt64() + 1;
          }
          FSDM_ASSIGN_OR_RETURN(ReplayDoc doc, DecodeImage(r.oson));
          applied = shards_[ShardForKey(r.key)]
                        ->Insert(Value(r.key), std::move(doc.text),
                                 std::move(doc.tree))
                        .status();
          break;
        }
        case wal::RecordType::kDelete:
          applied = logged_shard.Delete(local);
          break;
        case wal::RecordType::kReplace: {
          FSDM_ASSIGN_OR_RETURN(ReplayDoc doc, DecodeImage(r.oson));
          applied = logged_shard.Replace(local, Value(r.key),
                                         std::move(doc.text),
                                         std::move(doc.tree));
          break;
        }
        default:
          return Status::Corruption("WAL replay: unknown record type at LSN " +
                                    std::to_string(r.lsn));
      }
      if (!applied.ok()) {
        return Status::Corruption(
            "WAL replay: " + std::string(RecordTypeName(r.type)) +
            " at LSN " + std::to_string(r.lsn) +
            " failed to apply: " + applied.message());
      }
      ++info->records_applied;
    }
    return Status::Ok();
  }();
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
  return Status::Ok();
}

Status JsonCollection::AppendCheckpointDocs(uint64_t* doc_count) {
  const size_t nshards = shards_.size();
  for (size_t s = 0; s < nshards; ++s) {
    const Shard& shard = *shards_[s];
    const rdbms::Table* t = shard.table();
    for (size_t r = 0; r < t->row_count(); ++r) {
      if (!t->IsLive(r)) continue;
      const Value& key = t->StoredRow(r)[shard.key_pos()];
      const Value& doc = t->StoredRow(r)[shard.json_pos()];
      FSDM_ASSIGN_OR_RETURN(
          std::string oson_image,
          oson::EncodeFromText(doc.is_null() ? "null" : doc.AsString()));
      telemetry::MemoryCharge oson_charge(telemetry::MemSubsystem::kOsonVc,
                                          oson_image.size());
      FSDM_RETURN_NOT_OK(wal_->CheckpointDoc(static_cast<uint32_t>(s),
                                             r * nshards + s, key,
                                             oson_image));
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
  OnReturn publish([this] { PublishWalMemory(); });
  std::vector<uint64_t> highwater;
  for (const std::unique_ptr<Shard>& s : shards_) {
    // row_count() counts tombstones too: the high-water mark is the next
    // local row id the shard will assign, which replay pads the shard to
    // so that later inserts land on their logged ids.
    highwater.push_back(s->table()->row_count());
  }
  FSDM_RETURN_NOT_OK(wal_->CheckpointBegin(
      static_cast<uint64_t>(next_auto_key_), highwater));
  uint64_t docs = 0;
  FSDM_RETURN_NOT_OK(AppendCheckpointDocs(&docs));
  return wal_->CheckpointEnd(docs);
}

// --- Derived schema ---------------------------------------------------------

namespace {

constexpr const char* kViewsRefused =
    "views are not supported on sharded collections (a DMDV is bound to one "
    "backing table); create per-shard views via shard(i)";

}  // namespace

Result<std::string> JsonCollection::AddVirtualColumn(
    std::string column_name, const std::string& path,
    sqljson::Returning returning, bool hidden) {
  // Schema changes fan out so every shard stays structurally identical
  // (the parallel union requires one shared schema).
  for (const std::unique_ptr<Shard>& s : shards_) {
    FSDM_RETURN_NOT_OK(
        s->AddVirtualColumn(column_name, path, returning, hidden).status());
  }
  return column_name;
}

Result<std::vector<std::string>> JsonCollection::AddInferredVirtualColumns(
    const dataguide::GenerateOptions& options) {
  // Skewed shards may add different sets; report the union.
  std::vector<std::string> added_union;
  for (const std::unique_ptr<Shard>& s : shards_) {
    FSDM_ASSIGN_OR_RETURN(std::vector<std::string> added,
                          s->AddInferredVirtualColumns(options));
    for (std::string& name : added) {
      if (std::find(added_union.begin(), added_union.end(), name) ==
          added_union.end()) {
        added_union.push_back(std::move(name));
      }
    }
  }
  return added_union;
}

Result<dataguide::DmdvView> JsonCollection::CreateView(
    const std::string& root_path, const std::string& view_name,
    const dataguide::GenerateOptions& options) const {
  if (shards_.size() > 1) return Status::InvalidArgument(kViewsRefused);
  return shards_[0]->CreateView(root_path, view_name, options);
}

Result<std::vector<dataguide::DmdvView>> JsonCollection::CreateViews(
    const dataguide::GenerateOptions& options) const {
  if (shards_.size() > 1) return Status::InvalidArgument(kViewsRefused);
  return shards_[0]->CreateViews(options);
}

const std::string* JsonCollection::VirtualColumnFor(
    const std::string& path) const {
  for (const std::unique_ptr<Shard>& s : shards_) {
    if (const std::string* vc = s->VirtualColumnFor(path)) return vc;
  }
  return nullptr;
}

// --- IMC --------------------------------------------------------------------

Status JsonCollection::PopulateImc(std::vector<std::string> columns) {
  for (const std::unique_ptr<Shard>& s : shards_) {
    FSDM_RETURN_NOT_OK(s->PopulateImc(columns));
  }
  return Status::Ok();
}

bool JsonCollection::imc_valid() const {
  return std::all_of(shards_.begin(), shards_.end(),
                     [](const auto& s) { return s->imc() != nullptr; });
}

bool JsonCollection::imc_populated() const {
  return std::all_of(shards_.begin(), shards_.end(),
                     [](const auto& s) { return s->imc_populated(); });
}

size_t JsonCollection::imc_invalidations() const {
  size_t n = 0;
  for (const std::unique_ptr<Shard>& s : shards_) n += s->imc_invalidations();
  return n;
}

Result<const imc::ColumnStore*> JsonCollection::EnsureImc() {
  for (const std::unique_ptr<Shard>& s : shards_) {
    FSDM_RETURN_NOT_OK(s->EnsureImc().status());
  }
  return shards_[0]->imc();
}

Result<imc::ColumnStore> JsonCollection::MaterializeColumns(
    const std::vector<std::string>& columns) const {
  if (shards_.size() > 1) {
    return Status::InvalidArgument(
        "MaterializeColumns spans one backing table; materialize per shard "
        "via shard(i)");
  }
  return shards_[0]->MaterializeColumns(columns);
}

// --- Query ------------------------------------------------------------------

rdbms::OperatorPtr JsonCollection::Scan(bool include_hidden) const {
  std::vector<rdbms::OperatorPtr> children;
  children.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& s : shards_) {
    children.push_back(s->Scan(include_hidden));
  }
  return rdbms::UnionAll(std::move(children));
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
