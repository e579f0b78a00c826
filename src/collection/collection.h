#ifndef FSDM_COLLECTION_COLLECTION_H_
#define FSDM_COLLECTION_COLLECTION_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "collection/router.h"
#include "common/status.h"
#include "common/value.h"
#include "dataguide/dataguide.h"
#include "dataguide/views.h"
#include "imc/column_store.h"
#include "index/search_index.h"
#include "rdbms/executor.h"
#include "rdbms/table.h"
#include "sqljson/operators.h"
#include "stats/path_stats.h"
#include "telemetry/memory_tracker.h"
#include "telemetry/telemetry.h"
#include "wal/wal.h"

namespace fsdm::collection {

/// Canonical name of the hidden OSON virtual column a collection installs
/// (§5.2.2). This is the ONE place in the repo that declares it; clients go
/// through JsonCollection instead of wiring the column by hand.
inline constexpr const char* kOsonColumnName = "SYS_OSON";

/// Health of the collection's side structures (degraded-mode routing).
/// TELEMETRY$COLLECTIONS' HEALTH column shows each collection's by name.
enum class CollectionHealth : int {
  /// Everything maintained; all access paths available.
  kHealthy = 0,
  /// The search index lost a compensation and suspended maintenance: the
  /// router must not trust posting-backed paths until RebuildIndex().
  kIndexDegraded = 1,
  /// RebuildIndex() itself failed: the collection refuses DML
  /// (Status::Unavailable) until a rebuild succeeds.
  kQuarantined = 2,
};

const char* CollectionHealthName(CollectionHealth health);

/// Result of JsonCollection::CheckConsistency(): cross-checks the base
/// table against every maintained side structure.
struct ConsistencyReport {
  bool consistent = false;
  size_t live_rows = 0;
  size_t indexed_docs = 0;
  std::vector<std::string> problems;

  /// Human-readable rendering (one line per problem) for logs and the
  /// chaos suite's failure artifacts.
  std::string ToString() const;
};

struct CollectionOptions {
  /// Key column (NUMBER) and document column (JSON text with IS JSON).
  std::string key_column = "DID";
  std::string json_column = "JDOC";

  /// Attach a JsonSearchIndex (inverted postings + persistent DataGuide)
  /// as a DML observer. When disabled the collection still maintains a
  /// live DataGuide of its own, piggybacking on the IS JSON constraint's
  /// parse, so view/VC generation and router statistics keep working —
  /// only posting-backed access paths are unavailable.
  bool attach_search_index = true;

  /// Number of backing shards. The collection is always a
  /// facade over N >= 1 Shards, each a full per-shard stack (table + OSON
  /// VC + search index/DataGuide + IMC + path statistics + health state).
  /// At N = 1 the one shard's table is named "<name>", so the classic
  /// single-table outputs are unchanged; at N > 1 the tables are
  /// "<name>$s<i>", documents are hash-placed by key via
  /// fsdm::ShardPlacementHash, and Route() fans out one costed sub-plan
  /// per shard, drained morsel-parallel on the worker pool.
  size_t shard_count = 1;

  /// Directory for the collection's write-ahead log (ISSUE 8). Empty (the
  /// default) keeps the collection purely in-memory, like every earlier
  /// release. When set, every DML appends a CRC-framed record (the
  /// document as a self-contained OSON image) *before* applying it, and
  /// Create() on a directory holding an existing log replays it — torn
  /// tail truncated, aborted operations skipped — to rebuild the full
  /// per-shard stack, finishing with CheckConsistency(). Recovery keeps
  /// the row ids the logging process acknowledged and writes no
  /// checkpoint: the log keeps growing until Checkpoint() is called. One
  /// collection per directory; the facade owns the log for all its shards.
  std::string wal_dir;
  /// Fsync policy (see wal.h); by default an acknowledged DML is durable.
  wal::FsyncPolicy wal_fsync = wal::FsyncPolicy::kAlways;
  /// Segment rotation threshold (see wal.h).
  size_t wal_segment_bytes = 1u << 20;
};

/// A collection's rows of TELEMETRY$MEMORY, in row order. Each shard
/// pushes the change of its own structures' footprints into the first
/// five (Shard::PublishMemory), so each sums over the shards; the facade
/// pushes the WAL's.
struct CollectionMemory {
  explicit CollectionMemory(const std::string& collection);

  telemetry::MemoryAccount table_heap;
  telemetry::MemoryAccount index_postings;
  /// The live guide plus, when the index persists it, the $DG side table.
  telemetry::MemoryAccount dataguide;
  /// A valid store only: an invalidated one reports 0.
  telemetry::MemoryAccount imc;
  telemetry::MemoryAccount path_stats;
  telemetry::MemoryAccount wal_buffers;
};

/// One per-shard document stack of the paper (§3, §5.2): a backing
/// rdbms::Table with the IS JSON check constraint, the hidden OSON virtual
/// column, the JSON search index with its persistent DataGuide (or a
/// shard-maintained guide when no index is attached), per-path value
/// statistics, a lazily populated in-memory column store that DML
/// *invalidates* through the table's observer hooks, and DMDV views and
/// JSON_VALUE virtual columns generated from the live DataGuide. Row ids
/// are local to the shard's table.
///
/// Built and owned by a JsonCollection, which places, logs and leases
/// every operation; a Shard holds no WAL, auto key or registry entry, and
/// pushes its structures' footprints into the collection's memory
/// accounts at the end of every mutator. The Database must outlive it;
/// destruction detaches every observer it registered.
class Shard {
 public:
  /// Creates the backing table `table_name` inside `db` and wires the
  /// stack according to `options`, publishing into `memory` (which must
  /// outlive the shard or its Detach()). A failure drops the table again.
  static Result<std::unique_ptr<Shard>> Create(
      rdbms::Database* db, const std::string& table_name,
      const CollectionOptions& options, CollectionMemory* memory);

  ~Shard();
  /// The DML observer holds `this`.
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;
  /// Unregisters all observers from the backing table and stops
  /// publishing memory. Idempotent; after it, table DML no longer
  /// maintains the index or IMC state.
  void Detach();

  // --- Components -------------------------------------------------------
  rdbms::Table* table() const { return table_; }
  /// The backing table's name.
  const std::string& name() const { return name_; }
  const std::string& json_column() const { return json_column_; }
  /// Positions of the key and document columns in stored rows.
  size_t key_pos() const { return key_pos_; }
  size_t json_pos() const { return json_pos_; }
  /// nullptr when created without a search index.
  const index::JsonSearchIndex* search_index() const { return index_.get(); }
  /// The search index's persistent guide, or the shard-maintained one.
  const dataguide::DataGuide& dataguide() const {
    return index_ != nullptr ? index_->dataguide() : own_guide_;
  }
  /// Per-path value statistics: document frequency, NDV sketch, min/max
  /// and a bounded histogram per scalar path, fed from the DataGuide walk
  /// the DML path already pays for; the router's selectivity estimates
  /// read from here. Additive like the DataGuide (§3.4); RebuildIndex()
  /// resets and re-feeds them.
  const stats::PathStatsRepository& path_stats() const { return path_stats_; }
  size_t document_count() const { return table_->live_row_count(); }

  // --- Health & crash consistency ---------------------------------------
  /// From the quarantine flag and the index's degraded state.
  CollectionHealth health() const;
  /// Why the shard is not healthy; empty when healthy.
  std::string health_reason() const;
  /// Refuse further DML until RebuildIndex() succeeds.
  void Quarantine(std::string reason);
  /// Rebuilds the index's postings, DataGuide coverage and the path
  /// statistics from the live rows, healing kIndexDegraded. Failure
  /// quarantines the shard; success lifts any quarantine.
  Status RebuildIndex();
  /// Cross-checks the table against every maintained side structure:
  /// posting lists, indexed-document count, DataGuide (additive: guide
  /// frequency >= observed frequency), $DG side table, and a valid IMC.
  ConsistencyReport CheckConsistency() const;

  // --- DML (IS JSON check, index/DataGuide maintenance, IMC invalidation;
  // Unavailable while quarantined) ----------------------------------------
  // A non-null `parsed` is json::Parse(json_text), already paid for by the
  // caller; the IS JSON check adopts it instead of parsing again.
  Result<size_t> Insert(Value key, std::string json_text,
                        std::unique_ptr<json::JsonNode> parsed = nullptr);
  Status Delete(size_t row_id);
  Status Replace(size_t row_id, Value key, std::string json_text,
                 std::unique_ptr<json::JsonNode> parsed = nullptr);
  /// Recovery only: dead row slots up to `row_count` (see
  /// rdbms::Table::AppendDeadRows), so later inserts get logged ids.
  void AppendDeadRows(size_t row_count);

  // --- Derived schema and IMC: see the JsonCollection methods -----------
  Result<std::string> AddVirtualColumn(std::string column_name,
                                       const std::string& path,
                                       sqljson::Returning returning,
                                       bool hidden);
  Result<std::vector<std::string>> AddInferredVirtualColumns(
      const dataguide::GenerateOptions& options);
  Result<dataguide::DmdvView> CreateView(
      const std::string& root_path, const std::string& view_name,
      const dataguide::GenerateOptions& options) const;
  Result<std::vector<dataguide::DmdvView>> CreateViews(
      const dataguide::GenerateOptions& options) const;
  const std::string* VirtualColumnFor(const std::string& path) const;
  Status PopulateImc(std::vector<std::string> columns);
  /// The managed store when populated AND still valid, else nullptr.
  const imc::ColumnStore* imc() const {
    return imc_valid_ && imc_.has_value() ? &*imc_ : nullptr;
  }
  /// The store the shard holds, valid or not: a store DML invalidated
  /// stays resident as the prior of the next EnsureImc() refresh.
  const imc::ColumnStore* held_imc() const {
    return imc_.has_value() ? &*imc_ : nullptr;
  }
  bool imc_populated() const { return imc_.has_value(); }
  Result<const imc::ColumnStore*> EnsureImc();
  size_t imc_invalidations() const {
    return static_cast<size_t>(imc_invalidations_.value());
  }
  Result<imc::ColumnStore> MaterializeColumns(
      const std::vector<std::string>& columns) const;
  rdbms::OperatorPtr Scan(bool include_hidden = false) const;

 private:
  /// Table observer wired at creation: invalidates the populated IMC and
  /// marks the touched row dirty on every insert/delete/replace, and
  /// maintains the shard-local DataGuide when no search index is attached
  /// (reusing the IS JSON constraint's parse).
  class DmlObserver final : public rdbms::TableObserver {
   public:
    explicit DmlObserver(Shard* owner) : owner_(owner) {}
    Status OnInsert(size_t row_id, const rdbms::Row& row) override;
    Status OnDelete(size_t row_id, const rdbms::Row& row) override;
    Status OnReplace(size_t row_id, const rdbms::Row& old_row,
                     const rdbms::Row& new_row) override;

   private:
    Shard* owner_;
  };

  Shard(rdbms::Table* table, std::string name,
        const CollectionOptions& options, CollectionMemory* memory);
  /// Pushes the change of each structure's footprint since the last push
  /// into the collection's accounts.
  void PublishMemory();

  void InvalidateImc(size_t row_id);
  Status MaintainOwnGuide();
  std::vector<std::string> DefaultImcColumns() const;
  /// DML guard: Unavailable while quarantined, OK otherwise.
  Status CheckWritable() const;

  rdbms::Table* table_;
  std::string name_;
  std::string key_column_;
  std::string json_column_;
  size_t key_pos_ = 0;
  size_t json_pos_ = 0;
  std::unique_ptr<index::JsonSearchIndex> index_;
  std::unique_ptr<DmlObserver> dml_observer_;
  dataguide::DataGuide own_guide_;  // used when no index is attached
  stats::PathStatsRepository path_stats_;
  // JSON path -> declared virtual column name (router / IMC metadata).
  std::map<std::string, std::string> vc_for_path_;
  std::optional<imc::ColumnStore> imc_;
  std::vector<std::string> imc_columns_;  // last requested population set
  bool imc_valid_ = false;
  // Row ids DML touched since the store was last populated, as a bitmap
  // indexed by row id; kept only while a store exists.
  std::vector<bool> imc_dirty_;
  telemetry::Counter imc_invalidations_;
  bool quarantined_ = false;
  std::string quarantine_reason_;
  CollectionMemory* memory_;  // nullptr once detached
  // Footprints as of the last PublishMemory(), in CollectionMemory order.
  uint64_t published_[5] = {};
};

/// A JSON collection: the facade over N >= 1 Shards
/// (CollectionOptions::shard_count). It owns what spans the shards — the
/// write-ahead log and its replay, the auto-key sequence and hash
/// placement, the CollectionRegistry entry (one TELEMETRY$COLLECTIONS row
/// with a per-shard health rollup), the memory accounts (the shards push
/// into them), the activity leases of the public DML — and delegates the
/// per-document work to the shards. The router (router.h) sits on top.
///
/// Placement is ShardPlacementHash(key display string) % N; row ids
/// returned by Insert encode (local_row * N + shard), the identity at
/// N = 1. At N = 1 the shard's table is named like the collection and
/// problem strings carry no "shard i: " prefix, so a one-shard collection
/// renders exactly like a plain table stack; table() and imc() are the
/// shard's there and nullptr at N > 1 (use shard(i)).
///
/// The Database must outlive the collection; destruction detaches every
/// observer. DML is single-threaded, like the engine underneath; routed
/// plans of a sharded collection drain on the worker pool.
class JsonCollection {
 public:
  /// Creates one Shard (table "<name>", or "<name>$s<i>" when N > 1) per
  /// placement slot inside `db`, then opens or replays the WAL.
  static Result<std::unique_ptr<JsonCollection>> Create(
      rdbms::Database* db, const std::string& name,
      const CollectionOptions& options = {});

  ~JsonCollection();
  /// Unregisters the collection, detaches every shard and drops its
  /// TELEMETRY$MEMORY rows. Idempotent;
  /// called by the destructor. Afterwards the collection is read-only.
  void Detach();

  // --- Components -------------------------------------------------------
  /// The backing table; nullptr when sharded (use shard(i)->table()).
  rdbms::Table* table() const {
    return shards_.size() == 1 ? shards_[0]->table() : nullptr;
  }
  const std::string& name() const { return name_; }
  const std::string& key_column() const { return options_.key_column; }
  const std::string& json_column() const { return options_.json_column; }
  const CollectionOptions& options() const { return options_; }
  /// The hidden OSON virtual column (§5.2.2) every shard installs; queries
  /// compiled against it navigate the binary image, and the IMC
  /// materializes it.
  const std::string& oson_column() const {
    static const std::string name = kOsonColumnName;
    return name;
  }
  /// Shard 0's index and live DataGuide: the only ones at N = 1, a
  /// representative when sharded (shards see disjoint document subsets).
  const index::JsonSearchIndex* search_index() const {
    return shards_[0]->search_index();
  }
  const dataguide::DataGuide& dataguide() const {
    return shards_[0]->dataguide();
  }
  size_t document_count() const;

  // --- Sharding ---------------------------------------------------------
  size_t shard_count() const { return shards_.size(); }
  const Shard* shard(size_t i) const { return shards_[i].get(); }
  Shard* shard(size_t i) { return shards_[i].get(); }
  /// ShardPlacementHash over the key's canonical display string, modulo
  /// shard_count(). Stable across platforms and runs (common/hash.h).
  size_t ShardForKey(const Value& key) const;

  // --- Health & crash consistency ---------------------------------------
  /// All shards healthy -> healthy; all quarantined -> quarantined;
  /// anything in between -> index-degraded (the router then falls back
  /// per shard).
  CollectionHealth health() const;
  /// Every unhealthy shard's reason ("shard i: "-prefixed when sharded);
  /// empty when healthy.
  std::string health_reason() const;
  /// Rebuilds every shard (a failure on one does not stop the next) and
  /// returns the first failure; see Shard::RebuildIndex.
  Status RebuildIndex();
  /// Ops/test hook: every shard refuses DML until RebuildIndex()
  /// succeeds. Logs once and raises one "quarantine" incident.
  void Quarantine(std::string reason);
  /// MonotonicNowUs() of the last successful RebuildIndex(); 0 until one
  /// happens (NULL in TELEMETRY$COLLECTIONS).
  uint64_t last_rebuild_ts_us() const { return last_rebuild_ts_us_; }
  /// Cause of the most recent health *transition* the collection drove
  /// (quarantine, the degradation a rebuild healed, a failed rebuild).
  /// Unlike health_reason() it survives healing, so TELEMETRY$COLLECTIONS'
  /// REASON can still say why a now-healthy collection was degraded.
  const std::string& last_health_cause() const { return last_health_cause_; }
  /// Shards currently healthy (TELEMETRY$COLLECTIONS' rollup).
  size_t healthy_shard_count() const;
  /// Every Shard::CheckConsistency() plus the cross-shard invariant: each
  /// live document sits on the shard its key hashes to.
  ConsistencyReport CheckConsistency() const;

  // --- Durability -------------------------------------------------------
  /// The write-ahead log covering every shard; nullptr without wal_dir.
  const wal::Wal* wal() const { return wal_.get(); }
  /// Writes a full-snapshot checkpoint into the log and truncates every
  /// older segment, bounding both log size and replay time. Replay after
  /// a checkpoint starts from the snapshot and keeps every row id: each
  /// live document comes back at its id, and the rows that were dead at
  /// the checkpoint come back as dead slots. Only an explicit call
  /// checkpoints; recovery writes none. InvalidArgument on a collection
  /// without a WAL.
  Status Checkpoint();

  // --- DML --------------------------------------------------------------
  /// Inserts one document on the shard its key places on; returns the
  /// encoded row id.
  Result<size_t> Insert(Value key, std::string json_text);
  /// Auto-assigns a monotonically increasing integer key.
  Result<size_t> Insert(std::string json_text);
  Status Delete(size_t row_id);
  /// InvalidArgument when the key would place the document on another
  /// shard (delete and re-insert instead).
  Status Replace(size_t row_id, Value key, std::string json_text);

  // --- Derived schema (read with schema, §3.3) --------------------------
  /// Declares one JSON_VALUE virtual column over the document column on
  /// every shard and records its path for the router and IMC. Hidden
  /// columns stay out of plain scans (TEXT-MODE must not pay for them)
  /// and are materialized by name at IMC population (§5.2.1).
  Result<std::string> AddVirtualColumn(std::string column_name,
                                       const std::string& path,
                                       sqljson::Returning returning,
                                       bool hidden = true);
  /// AddVC() (§3.3.1): one visible JSON_VALUE virtual column per singleton
  /// scalar path of each shard's DataGuide. Returns the union of added
  /// names in first-seen order.
  Result<std::vector<std::string>> AddInferredVirtualColumns(
      const dataguide::GenerateOptions& options = {});
  /// CreateViewOnPath() (§3.3.2) from the live DataGuide. A view binds to
  /// one table: InvalidArgument when sharded (use shard(i)).
  Result<dataguide::DmdvView> CreateView(
      const std::string& root_path, const std::string& view_name,
      const dataguide::GenerateOptions& options = {}) const;
  /// The root DMDV ("<name>_RV") plus one sub view per top-level array
  /// hierarchy, mirroring the paper's master-detail views per nested
  /// collection. InvalidArgument when sharded.
  Result<std::vector<dataguide::DmdvView>> CreateViews(
      const dataguide::GenerateOptions& options = {}) const;
  /// Virtual column materializing JSON_VALUE(`path`) on the first shard
  /// that declares one, or nullptr.
  const std::string* VirtualColumnFor(const std::string& path) const;

  // --- In-memory column store (§5.2) ------------------------------------
  /// Populates every shard's managed store from its live rows. Empty
  /// `columns` selects the key column, the hidden OSON column and every
  /// declared JSON_VALUE virtual column. DML then invalidates a store and
  /// marks the rows it touched dirty.
  Status PopulateImc(std::vector<std::string> columns = {});
  /// The managed store when populated AND still valid, else nullptr.
  /// Always nullptr when sharded (shard(i)->imc()).
  const imc::ColumnStore* imc() const {
    return shards_.size() == 1 ? shards_[0]->imc() : nullptr;
  }
  /// Every shard's store valid / populated at least once (possibly since
  /// invalidated — "stale" in TELEMETRY$COLLECTIONS terms).
  bool imc_valid() const;
  bool imc_populated() const;
  /// Brings every shard's store up to date — a full population the first
  /// time, later only the rows DML marked dirty (ColumnStore::Populate
  /// with a prior store) — and returns shard 0's.
  Result<const imc::ColumnStore*> EnsureImc();
  /// DML invalidations of populated stores, summed over shards (also
  /// counted engine-wide as fsdm_collection_imc_invalidations_total).
  size_t imc_invalidations() const;
  /// Ad-hoc unmanaged store over arbitrary columns (benchmarks comparing
  /// population sets side by side). InvalidArgument when sharded.
  Result<imc::ColumnStore> MaterializeColumns(
      const std::vector<std::string>& columns) const;

  // --- Query ------------------------------------------------------------
  /// UnionAll over every shard's scan in shard order (the bare table scan
  /// at N = 1).
  rdbms::OperatorPtr Scan(bool include_hidden = false) const;
  /// JSON_VALUE / JSON_EXISTS expressions over the text document column.
  Result<rdbms::ExprPtr> JsonValueExpr(
      const std::string& path,
      sqljson::Returning returning = sqljson::Returning::kAny) const;
  Result<rdbms::ExprPtr> JsonExistsExpr(const std::string& path) const;
  /// Access-path routed execution of a predicate conjunction (router.h);
  /// fans out one costed sub-plan per shard when sharded.
  Result<RoutedPlan> Route(const std::vector<PathPredicate>& predicates) const {
    return RoutePredicates(*this, predicates);
  }

 private:
  JsonCollection(std::string name, CollectionOptions options)
      : name_(std::move(name)), options_(std::move(options)) {}

  /// Failure path of the DML WAL appends: logs, and quarantines the
  /// collection when the append poisoned the writer (the reason carries
  /// the append error) so the transition is attributable through SQL.
  Status WalAppendFailed(const Status& append_status);
  /// Opens (or replays) the WAL in options_.wal_dir once every shard is
  /// wired; failure unwinds creation.
  Status InitWal();
  /// Redo pass over the durable prefix Open() returned: applies every
  /// non-aborted record from the last complete checkpoint at the row ids
  /// the logging process used, then verifies with CheckConsistency().
  /// Writes nothing to the log.
  Status ReplayWal(const std::vector<wal::Record>& records);
  /// Row-id -> (shard, key, OSON image) for every live document.
  Status AppendCheckpointDocs(uint64_t* doc_count);
  /// Pushes the WAL writer's footprint into its account; every mutator
  /// that may append, rotate or truncate calls it on return.
  void PublishWalMemory();

  std::string name_;
  CollectionOptions options_;
  /// The TELEMETRY$MEMORY rows; dropped by Detach(), after the shards
  /// stop publishing.
  std::unique_ptr<CollectionMemory> memory_;
  std::vector<std::unique_ptr<Shard>> shards_;  // never empty after Create
  int64_t next_auto_key_ = 1;
  uint64_t last_rebuild_ts_us_ = 0;
  std::string last_health_cause_;  // sticky; see last_health_cause()
  bool detached_ = false;
  std::unique_ptr<wal::Wal> wal_;
};

}  // namespace fsdm::collection

#endif  // FSDM_COLLECTION_COLLECTION_H_
