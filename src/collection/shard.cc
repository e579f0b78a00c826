#include "collection/collection.h"

#include <iterator>
#include <utility>

#include "fault/fault.h"
#include "json/dom.h"
#include "json/parser.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/log.h"

namespace fsdm::collection {

namespace {

size_t PhysicalPos(const rdbms::Table* table, const std::string& column) {
  const std::vector<size_t>& physical = table->physical_columns();
  for (size_t i = 0; i < physical.size(); ++i) {
    if (table->columns()[physical[i]].name == column) return i;
  }
  return 0;
}

}  // namespace

Shard::Shard(rdbms::Table* table, std::string name,
             const CollectionOptions& options, CollectionMemory* memory)
    : table_(table),
      name_(std::move(name)),
      key_column_(options.key_column),
      json_column_(options.json_column),
      key_pos_(PhysicalPos(table, options.key_column)),
      json_pos_(PhysicalPos(table, options.json_column)),
      memory_(memory) {}

Result<std::unique_ptr<Shard>> Shard::Create(rdbms::Database* db,
                                             const std::string& table_name,
                                             const CollectionOptions& options,
                                             CollectionMemory* memory) {
  std::vector<rdbms::ColumnDef> columns = {
      {.name = options.key_column, .type = rdbms::ColumnType::kNumber},
      {.name = options.json_column,
       .type = rdbms::ColumnType::kJson,
       .check_is_json = true}};
  FSDM_ASSIGN_OR_RETURN(rdbms::Table * table,
                        db->CreateTable(table_name, std::move(columns)));
  std::unique_ptr<Shard> shard(
      new Shard(table, table_name, options, memory));

  // Wire the rest of the stack. A failure past CreateTable must unwind
  // completely — detach the half-built shard and drop the table — or the
  // database is left holding a table with dangling observers.
  Status wired = [&]() -> Status {
    FSDM_FAULT_POINT("collection.create.oson_column");
    rdbms::ColumnDef oson;
    oson.name = kOsonColumnName;
    oson.type = rdbms::ColumnType::kRaw;
    oson.hidden = true;
    oson.virtual_expr = sqljson::OsonConstructor(options.json_column);
    FSDM_RETURN_NOT_OK(table->AddVirtualColumn(std::move(oson)));
    if (options.attach_search_index) {
      FSDM_FAULT_POINT("collection.create.search_index");
      // The statistics repository rides the index's DataGuide walk as the
      // scalar sink — stats cost no extra parse.
      index::JsonSearchIndex::Options index_options;
      index_options.scalar_sink = &shard->path_stats_;
      FSDM_ASSIGN_OR_RETURN(shard->index_,
                            index::JsonSearchIndex::Create(
                                table, options.json_column, index_options));
    }
    shard->dml_observer_ = std::make_unique<DmlObserver>(shard.get());
    table->AddObserver(shard->dml_observer_.get());
    return Status::Ok();
  }();
  if (!wired.ok()) {
    shard->Detach();  // before the table goes away
    (void)db->DropTable(table_name);
    return wired;
  }
  shard->PublishMemory();
  return shard;
}

Shard::~Shard() { Detach(); }

void Shard::Detach() {
  if (dml_observer_ != nullptr) table_->RemoveObserver(dml_observer_.get());
  dml_observer_.reset();
  if (index_ != nullptr) index_->Detach();  // idempotent
  memory_ = nullptr;
}

void Shard::PublishMemory() {
  if (memory_ == nullptr) return;
  const rdbms::Table* dg = index_ != nullptr ? index_->dg_table() : nullptr;
  const uint64_t now[] = {
      table_->HeapBytes(),
      index_ != nullptr ? index_->MemoryBytes() : 0,
      dataguide().MemoryBytes() + (dg != nullptr ? dg->HeapBytes() : 0),
      held_imc() != nullptr ? held_imc()->MemoryBytes() : 0,
      path_stats_.MemoryBytes()};
  telemetry::MemoryAccount* accounts[] = {
      &memory_->table_heap, &memory_->index_postings, &memory_->dataguide,
      &memory_->imc, &memory_->path_stats};
  for (size_t i = 0; i < std::size(now); ++i) {
    accounts[i]->Add(static_cast<int64_t>(now[i] - published_[i]));
    published_[i] = now[i];
  }
}

// --- Health & crash consistency ---------------------------------------------

CollectionHealth Shard::health() const {
  CollectionHealth h = CollectionHealth::kHealthy;
  if (quarantined_) {
    h = CollectionHealth::kQuarantined;
  } else if (index_ != nullptr && index_->degraded()) {
    h = CollectionHealth::kIndexDegraded;
  }
  return h;
}

std::string Shard::health_reason() const {
  if (quarantined_) return quarantine_reason_;
  if (index_ != nullptr && index_->degraded()) {
    return index_->degraded_reason();
  }
  return "";
}

void Shard::Quarantine(std::string reason) {
  quarantined_ = true;
  quarantine_reason_ = std::move(reason);
  FSDM_TRACE_INSTANT_TEXT("collection", "collection.quarantine", "name",
                          name_);
}

Status Shard::RebuildIndex() {
  FSDM_TRACE_SPAN(span, "collection", "index.rebuild");
  span.AddTextArg("name", name_);
  if (index_ != nullptr) {
    // Rebuild() re-feeds every live document through the DataGuide walk —
    // and therefore through the statistics sink. Reset the repository
    // first or every path would double-count; this is also the one point
    // where additive statistics shed their dead-document skew.
    path_stats_.Clear();
    Status rebuilt = index_->Rebuild();
    PublishMemory();
    if (!rebuilt.ok()) {
      quarantined_ = true;
      quarantine_reason_ = "index rebuild failed: " + rebuilt.message();
      FSDM_LOG(telemetry::LogLevel::kError, "collection", 1009,
               "index rebuild failed on " + name_ + ": " + rebuilt.message(),
               telemetry::LogText("name", name_));
      return rebuilt;
    }
  }
  quarantined_ = false;
  quarantine_reason_.clear();
  FSDM_LOG(telemetry::LogLevel::kInfo, "collection", 1008,
           "index rebuilt: " + name_,
           telemetry::LogNum("docs", document_count()));
  // The postings were reconstructed from the table the IMC also reads, so
  // a populated store stays valid; nothing else to heal.
  return Status::Ok();
}

Status Shard::CheckWritable() const {
  if (!quarantined_) return Status::Ok();
  return Status::Unavailable("collection " + name_ +
                             " quarantined: " + quarantine_reason_);
}

ConsistencyReport Shard::CheckConsistency() const {
  ConsistencyReport report;
  size_t non_null = 0;
  // The check's one walk over the table: each live document is parsed and
  // staged once, and the staged nodes feed both shadows. The shadow guide
  // interns into a copy of the live dictionary, so a path the live guide
  // and postings know keeps its id and both diffs compare by id.
  const dataguide::DataGuide& live_guide = dataguide();
  dataguide::DataGuide shadow(live_guide.paths());
  index::Postings shadow_postings;
  for (size_t r = 0; r < table_->row_count(); ++r) {
    if (!table_->IsLive(r)) continue;
    ++report.live_rows;
    const Value& doc = table_->StoredRow(r)[json_pos_];
    if (doc.is_null()) continue;
    ++non_null;
    using dataguide::StagedDoc;
    Result<StagedDoc> staged = [&]() -> Result<StagedDoc> {
      FSDM_ASSIGN_OR_RETURN(std::unique_ptr<json::JsonNode> tree,
                            json::Parse(doc.AsString()));
      // Value postings key on displays.
      return dataguide::StageDocument(json::TreeDom(tree.get()),
                                      shadow.mutable_paths(),
                                      index_ != nullptr);
    }();
    if (!staged.ok()) {
      report.problems.push_back("row " + std::to_string(r) +
                                " violates IS JSON: " +
                                staged.status().message());
      continue;
    }
    shadow.Apply(staged.value(), nullptr, nullptr);
    if (index_ != nullptr) shadow_postings.Swap({}, staged.value(), r);
  }

  if (index_ != nullptr) {
    report.indexed_docs = index_->indexed_document_count();
    if (report.indexed_docs != non_null) {
      report.problems.push_back(
          "index reports " + std::to_string(report.indexed_docs) +
          " indexed documents, table holds " + std::to_string(non_null));
    }
    // Postings::Diff counts nothing: a check is not index activity.
    index_->postings().Diff(shadow_postings, shadow.paths(),
                            &report.problems);
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
  for (const dataguide::PathEntry* e : shadow.SortedEntries()) {
    const dataguide::PathEntry* have =
        live_guide.Find(e->id, e->kind, e->under_array);
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

  if (imc() != nullptr && imc_->row_count() != report.live_rows) {
    report.problems.push_back(
        "IMC holds " + std::to_string(imc_->row_count()) +
        " rows but table holds " + std::to_string(report.live_rows) +
        " live rows (missed invalidation)");
  }

  report.consistent = report.problems.empty();
  return report;
}

// --- DML --------------------------------------------------------------------

Result<size_t> Shard::Insert(Value key, std::string json_text,
                             std::unique_ptr<json::JsonNode> parsed) {
  FSDM_RETURN_NOT_OK(CheckWritable());
  FSDM_COUNT("fsdm_collection_inserts_total", 1);
  FSDM_TIME_SCOPE_US("fsdm_collection_insert_us");
  FSDM_TRACE_SPAN(span, "collection", "collection.insert");
  span.AddTextArg("name", name_);
  span.AddNumberArg("bytes", static_cast<double>(json_text.size()));
  Result<size_t> row =
      table_->Insert({std::move(key), Value::String(std::move(json_text))},
                     {json_pos_, std::move(parsed)});
  PublishMemory();
  return row;
}

Status Shard::Delete(size_t row_id) {
  FSDM_RETURN_NOT_OK(CheckWritable());
  FSDM_COUNT("fsdm_collection_deletes_total", 1);
  FSDM_TIME_SCOPE_US("fsdm_collection_delete_us");
  FSDM_TRACE_SPAN(span, "collection", "collection.delete");
  span.AddTextArg("name", name_);
  Status deleted = table_->Delete(row_id);
  PublishMemory();
  return deleted;
}

Status Shard::Replace(size_t row_id, Value key, std::string json_text,
                      std::unique_ptr<json::JsonNode> parsed) {
  FSDM_RETURN_NOT_OK(CheckWritable());
  FSDM_COUNT("fsdm_collection_replaces_total", 1);
  FSDM_TIME_SCOPE_US("fsdm_collection_replace_us");
  FSDM_TRACE_SPAN(span, "collection", "collection.replace");
  span.AddTextArg("name", name_);
  Status replaced = table_->Replace(
      row_id, {std::move(key), Value::String(std::move(json_text))},
      {json_pos_, std::move(parsed)});
  PublishMemory();
  return replaced;
}

void Shard::AppendDeadRows(size_t row_count) {
  table_->AppendDeadRows(row_count);
  PublishMemory();
}

// --- Observer ---------------------------------------------------------------

// The DmlObserver keeps the default (no-op) Undo* hooks: marking a row IMC
// dirty is conservative under rollback — a row a rolled-back DML marked
// only costs re-evaluating that one row at the next EnsureImc() — and the
// own-guide is additive like the index's DataGuide (§3.4).

Status Shard::DmlObserver::OnInsert(size_t row_id, const rdbms::Row&) {
  FSDM_TRACE_SPAN(span, "collection", "observer.insert");
  FSDM_FAULT_POINT("collection.observer.insert");
  owner_->InvalidateImc(row_id);
  if (owner_->index_ == nullptr) {
    return owner_->MaintainOwnGuide();
  }
  return Status::Ok();
}

Status Shard::DmlObserver::OnDelete(size_t row_id, const rdbms::Row&) {
  // The DataGuide is additive (§3.4): deletes never remove entries.
  FSDM_TRACE_SPAN(span, "collection", "observer.delete");
  FSDM_FAULT_POINT("collection.observer.delete");
  owner_->InvalidateImc(row_id);
  return Status::Ok();
}

Status Shard::DmlObserver::OnReplace(size_t row_id, const rdbms::Row&,
                                     const rdbms::Row&) {
  FSDM_TRACE_SPAN(span, "collection", "observer.replace");
  FSDM_FAULT_POINT("collection.observer.replace");
  owner_->InvalidateImc(row_id);
  if (owner_->index_ == nullptr) {
    return owner_->MaintainOwnGuide();
  }
  return Status::Ok();
}

void Shard::InvalidateImc(size_t row_id) {
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

Status Shard::MaintainOwnGuide() {
  // Reuse the parse the IS JSON constraint already paid for (§3.2.1). The
  // table checks every non-null document, so only a null one has no parse,
  // and it adds nothing. The path-statistics repository rides the same
  // walk as the scalar sink.
  const json::JsonNode* parsed = table_->ParsedJsonForObserver(json_pos_);
  if (parsed == nullptr) return Status::Ok();
  json::TreeDom dom(parsed);
  return own_guide_.AddDocument(dom, nullptr, &path_stats_).status();
}

// --- Derived schema ---------------------------------------------------------

Result<std::string> Shard::AddVirtualColumn(std::string column_name,
                                            const std::string& path,
                                            sqljson::Returning returning,
                                            bool hidden) {
  rdbms::ColumnDef def;
  def.name = column_name;
  def.type = returning == sqljson::Returning::kNumber
                 ? rdbms::ColumnType::kNumber
                 : rdbms::ColumnType::kString;
  def.hidden = hidden;
  FSDM_ASSIGN_OR_RETURN(def.virtual_expr,
                        sqljson::JsonValue(json_column_, path,
                                           sqljson::JsonStorage::kText,
                                           returning));
  FSDM_RETURN_NOT_OK(table_->AddVirtualColumn(std::move(def)));
  vc_for_path_[path] = column_name;
  return column_name;
}

Result<std::vector<std::string>> Shard::AddInferredVirtualColumns(
    const dataguide::GenerateOptions& options) {
  std::vector<std::string> paths;
  FSDM_ASSIGN_OR_RETURN(
      std::vector<std::string> added,
      dataguide::AddVc(table_, json_column_, sqljson::JsonStorage::kText,
                       dataguide(), options, &paths));
  for (size_t i = 0; i < added.size(); ++i) {
    vc_for_path_[paths[i]] = added[i];
  }
  return added;
}

Result<dataguide::DmdvView> Shard::CreateView(
    const std::string& root_path, const std::string& view_name,
    const dataguide::GenerateOptions& options) const {
  return dataguide::CreateViewOnPath(table_, json_column_,
                                     sqljson::JsonStorage::kText, dataguide(),
                                     root_path, view_name, options);
}

Result<std::vector<dataguide::DmdvView>> Shard::CreateViews(
    const dataguide::GenerateOptions& options) const {
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

const std::string* Shard::VirtualColumnFor(const std::string& path) const {
  auto it = vc_for_path_.find(path);
  return it == vc_for_path_.end() ? nullptr : &it->second;
}

// --- IMC --------------------------------------------------------------------

std::vector<std::string> Shard::DefaultImcColumns() const {
  std::vector<std::string> cols = {key_column_, kOsonColumnName};
  for (const auto& [path, name] : vc_for_path_) cols.push_back(name);
  return cols;
}

Status Shard::PopulateImc(std::vector<std::string> columns) {
  if (columns.empty()) columns = DefaultImcColumns();
  FSDM_ASSIGN_OR_RETURN(imc::ColumnStore store,
                        imc::ColumnStore::Populate(*table_, columns));
  imc_ = std::move(store);
  imc_columns_ = std::move(columns);
  imc_dirty_.clear();
  imc_valid_ = true;
  PublishMemory();
  return Status::Ok();
}

Result<const imc::ColumnStore*> Shard::EnsureImc() {
  if (imc() != nullptr) return &*imc_;
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
  PublishMemory();
  return &*imc_;
}

Result<imc::ColumnStore> Shard::MaterializeColumns(
    const std::vector<std::string>& columns) const {
  return imc::ColumnStore::Populate(*table_, columns);
}

rdbms::OperatorPtr Shard::Scan(bool include_hidden) const {
  return rdbms::Scan(table_, include_hidden);
}

}  // namespace fsdm::collection
