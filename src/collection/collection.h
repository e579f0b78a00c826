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

/// Health of the collection's side structures (ISSUE 3 degraded-mode
/// routing). The numeric values are exported as the
/// fsdm_collection_health gauge.
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
  /// Declared max document length (informational), 0 = unbounded.
  size_t max_document_length = 4000;

  /// Install the hidden OSON virtual column at creation (§5.2.2). Queries
  /// compiled against oson_column() then navigate the binary image; the
  /// IMC materializes it at population time.
  bool install_oson_column = true;

  /// Attach a JsonSearchIndex (inverted postings + persistent DataGuide)
  /// as a DML observer. When disabled the collection still maintains a
  /// live DataGuide of its own, piggybacking on the IS JSON constraint's
  /// parse, so view/VC generation and router statistics keep working —
  /// only posting-backed access paths are unavailable.
  bool attach_search_index = true;
  index::JsonSearchIndex::Options index_options;

  /// Number of backing shards (ISSUE 6). 1 (the default) builds the
  /// classic single-table stack with behavior identical to every earlier
  /// release. N > 1 builds a sharded facade: N full per-shard stacks
  /// (table "<name>$s<i>" + OSON VC + search index/DataGuide + IMC + path
  /// statistics + health state), documents hash-placed by key via
  /// fsdm::ShardPlacementHash, and Route() fanning out one costed
  /// sub-plan per shard, drained morsel-parallel on the worker pool.
  size_t shard_count = 1;

  /// Directory for the collection's write-ahead log (ISSUE 8). Empty (the
  /// default) keeps the collection purely in-memory, like every earlier
  /// release. When set, every DML appends a CRC-framed record (the
  /// document as a self-contained OSON image) *before* applying it, and
  /// Create() on a directory holding an existing log replays it — torn
  /// tail truncated, aborted operations skipped — to rebuild the full
  /// per-shard stack, finishing with CheckConsistency(). One collection
  /// per directory; the facade owns the log for all its shards.
  std::string wal_dir;
  /// Fsync policy; unset reads FSDM_WAL_FSYNC (always|group|off) and
  /// defaults to always — an acknowledged DML is durable.
  std::optional<wal::FsyncPolicy> wal_fsync;
  /// Segment rotation threshold and group-commit batch size (see wal.h).
  size_t wal_segment_bytes = 1u << 20;
  size_t wal_group_ops = 32;
};

/// The per-collection document stack of the paper (§3, §5.2) behind one
/// facade: a backing rdbms::Table with the IS JSON check constraint, the
/// hidden OSON virtual column, the JSON search index with its persistent
/// DataGuide, a lazily populated in-memory column store that DML
/// *invalidates* through the table's observer hooks, and one-call
/// generation of DMDV views and JSON_VALUE virtual columns from the live
/// DataGuide. The access-path router (router.h) sits on top.
///
/// Lifetime: the Database (and with it the backing table) must outlive the
/// collection; destroying the collection detaches every observer it
/// registered. DML is single-threaded, like the engine underneath; routed
/// query plans of a sharded collection drain on the worker pool.
///
/// Sharding (ISSUE 6): with CollectionOptions::shard_count = N > 1 this
/// object becomes a facade over N single-shard JsonCollections. Document
/// placement is ShardPlacementHash(key display string) % N; row ids
/// returned by Insert encode (local_row * N + shard), which is the
/// identity mapping at N = 1. Per-shard accessors are shard()/shard_count();
/// table() and imc() return nullptr on a facade (there is no single
/// backing table — go through the shards).
class JsonCollection {
 public:
  /// Creates the backing table `name` inside `db` and wires the stack
  /// according to `options`.
  static Result<std::unique_ptr<JsonCollection>> Create(
      rdbms::Database* db, const std::string& name,
      const CollectionOptions& options = {});

  ~JsonCollection();
  /// Unregisters all observers from the backing table. Idempotent; called
  /// by the destructor. After Detach the collection is read-only
  /// (further table DML no longer maintains the index or IMC state).
  void Detach();

  // --- Components -------------------------------------------------------
  /// The backing table; nullptr on a sharded facade (use shard(i)->table()).
  rdbms::Table* table() const { return table_; }
  const std::string& name() const { return name_; }
  const std::string& key_column() const { return options_.key_column; }
  const std::string& json_column() const { return options_.json_column; }
  const CollectionOptions& options() const { return options_; }
  /// Hidden OSON virtual column name; empty when not installed.
  const std::string& oson_column() const { return oson_column_; }
  /// nullptr when the collection was created without a search index. On a
  /// sharded facade: shard 0's index, as a representative.
  const index::JsonSearchIndex* search_index() const {
    return sharded() ? shards_[0]->search_index() : index_.get();
  }
  /// The live DataGuide: the search index's persistent guide, or the
  /// collection-maintained guide when no index is attached. On a sharded
  /// facade: shard 0's guide, as a representative (shards see disjoint
  /// document subsets; per-shard guides via shard(i)->dataguide()).
  const dataguide::DataGuide& dataguide() const {
    if (sharded()) return shards_[0]->dataguide();
    return index_ != nullptr ? index_->dataguide() : own_guide_;
  }

  // --- Sharding (ISSUE 6) -----------------------------------------------
  /// True when this collection is a facade over multiple backing shards.
  bool sharded() const { return !shards_.empty(); }
  size_t shard_count() const { return sharded() ? shards_.size() : 1; }
  /// The i-th backing shard; `this` on a single-shard collection (i must
  /// be 0 then). Each shard is a full single-shard JsonCollection.
  const JsonCollection* shard(size_t i) const {
    return sharded() ? shards_[i].get() : this;
  }
  JsonCollection* shard(size_t i) {
    return sharded() ? shards_[i].get() : this;
  }
  /// Shard a document key places on: ShardPlacementHash over the key's
  /// canonical display string, modulo shard_count(). Stable across
  /// platforms and runs (see common/hash.h).
  size_t ShardForKey(const Value& key) const;
  /// Per-path value statistics (ISSUE 5): document frequency, NDV sketch,
  /// min/max, and a bounded histogram per scalar path, fed from the same
  /// DataGuide walk the DML path already pays for. The router's
  /// selectivity estimates read from here. Additive like the DataGuide
  /// (§3.4): deletes and rollbacks never retract counts, so ratios stay
  /// approximately right; RebuildIndex() resets and re-feeds them. On a
  /// sharded facade: shard 0's repository (per-shard via shard(i)).
  const stats::PathStatsRepository& path_stats() const {
    return sharded() ? shards_[0]->path_stats_ : path_stats_;
  }
  size_t document_count() const;

  // --- Health & crash consistency ---------------------------------------
  /// Current health, derived from the quarantine flag and the index's
  /// degraded state. Also refreshes the fsdm_collection_health gauge.
  CollectionHealth health() const;
  /// Why the collection is not healthy; empty when healthy.
  std::string health_reason() const;

  /// Rebuilds the search index's postings (and DataGuide coverage) from
  /// the live table rows, healing kIndexDegraded. Failure quarantines the
  /// collection; a later successful call lifts the quarantine. No-op
  /// success when no index is attached.
  Status RebuildIndex();

  /// Ops/test hook: refuse further DML until RebuildIndex() succeeds.
  void Quarantine(std::string reason);

  /// MonotonicNowUs() timestamp of the last successful RebuildIndex();
  /// 0 until one happens (NULL in TELEMETRY$COLLECTIONS).
  uint64_t last_rebuild_ts_us() const { return last_rebuild_ts_us_; }

  /// Cause of the most recent health *transition* (quarantine, index
  /// degradation, rebuild failure). Unlike health_reason() this survives
  /// healing, so TELEMETRY$COLLECTIONS' REASON column can still say why a
  /// now-healthy collection was degraded. Empty until the first
  /// transition.
  const std::string& last_health_cause() const { return last_health_cause_; }

  /// Number of shards currently healthy (== shard_count() when healthy;
  /// rendered into TELEMETRY$COLLECTIONS' per-shard rollup).
  size_t healthy_shard_count() const;

  /// Cross-checks the base table against every maintained side structure:
  /// posting lists, indexed-document count, DataGuide (additive semantics:
  /// guide frequency >= observed frequency), $DG side table, and the IMC
  /// when populated and valid.
  ConsistencyReport CheckConsistency() const;

  // --- Durability (ISSUE 8) ---------------------------------------------
  /// The collection's write-ahead log; nullptr when created without
  /// wal_dir (and on the shards of a durable facade — the facade logs).
  const wal::Wal* wal() const { return wal_.get(); }
  /// Writes a full-snapshot checkpoint into the log and truncates every
  /// older segment, bounding both log size and replay time. Replay after
  /// a checkpoint starts from the snapshot, so recovered row ids compact
  /// to the live documents (keys are the stable identity, as everywhere).
  /// InvalidArgument on a collection without a WAL.
  Status Checkpoint();

  // --- DML --------------------------------------------------------------
  /// Inserts one document; returns the new row id. Runs the IS JSON check,
  /// index/DataGuide maintenance, and IMC invalidation in the DML path.
  Result<size_t> Insert(Value key, std::string json_text);
  /// Auto-assigns a monotonically increasing integer key.
  Result<size_t> Insert(std::string json_text);
  Status Delete(size_t row_id);
  Status Replace(size_t row_id, Value key, std::string json_text);

  // --- Derived schema (read with schema, §3.3) --------------------------
  /// Declares one JSON_VALUE virtual column over the document column and
  /// records its path so the router and IMC can use it. Returns the column
  /// name. Hidden columns stay out of plain scans (TEXT-MODE must not pay
  /// for them) and are materialized by name at IMC population (§5.2.1).
  Result<std::string> AddVirtualColumn(std::string column_name,
                                       const std::string& path,
                                       sqljson::Returning returning,
                                       bool hidden = true);

  /// AddVC() (§3.3.1) driven by the live DataGuide: one visible JSON_VALUE
  /// virtual column per singleton scalar path. Returns the added names.
  Result<std::vector<std::string>> AddInferredVirtualColumns(
      const dataguide::GenerateOptions& options = {});

  /// CreateViewOnPath() (§3.3.2) from the live DataGuide.
  Result<dataguide::DmdvView> CreateView(
      const std::string& root_path, const std::string& view_name,
      const dataguide::GenerateOptions& options = {}) const;

  /// One-call view generation: the root DMDV ("<name>_RV") plus one sub
  /// view per top-level array hierarchy in the DataGuide, mirroring how
  /// the paper derives master-detail views per nested collection.
  Result<std::vector<dataguide::DmdvView>> CreateViews(
      const dataguide::GenerateOptions& options = {}) const;

  /// Virtual-column name materializing JSON_VALUE(`path`), or nullptr.
  const std::string* VirtualColumnFor(const std::string& path) const;

  // --- In-memory column store (§5.2) ------------------------------------
  /// Populates the managed IMC store from every live row. Empty `columns`
  /// selects the default set: key column, the hidden OSON column (when
  /// installed), and every declared JSON_VALUE virtual column. Subsequent
  /// DML invalidates the store and marks the rows it touched dirty through
  /// the observer hook; EnsureImc() then re-evaluates only those rows.
  Status PopulateImc(std::vector<std::string> columns = {});
  /// The managed store when populated AND still valid, else nullptr.
  /// Always nullptr on a sharded facade (each shard manages its own store;
  /// shard(i)->imc()).
  const imc::ColumnStore* imc() const {
    if (sharded()) return nullptr;
    return imc_valid_ && imc_.has_value() ? &*imc_ : nullptr;
  }
  /// Facade: true when EVERY shard's store is valid.
  bool imc_valid() const;
  /// Populated at least once (possibly since invalidated — "stale" in
  /// TELEMETRY$COLLECTIONS terms). Facade: every shard populated.
  bool imc_populated() const;
  /// Lazily brings the managed store up to date and returns it: the first
  /// call populates in full, later ones refresh from the previous store,
  /// evaluating only the rows DML marked dirty (ColumnStore::Populate with
  /// a prior store). On a sharded facade, ensures every shard's store and
  /// returns shard 0's as a representative.
  Result<const imc::ColumnStore*> EnsureImc();
  /// Number of times DML invalidated a populated store. Backed by a
  /// telemetry::Counter; the engine-wide registry additionally aggregates
  /// the same events under fsdm_collection_imc_invalidations_total.
  /// Facade: sum over shards.
  size_t imc_invalidations() const;
  /// Ad-hoc unmanaged store over arbitrary columns (benchmarks comparing
  /// several population sets side by side); not invalidation-tracked.
  Result<imc::ColumnStore> MaterializeColumns(
      const std::vector<std::string>& columns) const;

  // --- Query ------------------------------------------------------------
  /// Row source over the backing table; on a sharded facade, a sequential
  /// UnionAll over every shard's scan in shard order.
  rdbms::OperatorPtr Scan(bool include_hidden = false) const;
  /// JSON_VALUE / JSON_EXISTS expressions over the text document column.
  Result<rdbms::ExprPtr> JsonValueExpr(
      const std::string& path,
      sqljson::Returning returning = sqljson::Returning::kAny) const;
  Result<rdbms::ExprPtr> JsonExistsExpr(const std::string& path) const;
  /// Access-path routed execution of a predicate conjunction (router.h).
  /// On a sharded facade this fans out one costed sub-plan per shard,
  /// merged through an order-preserving morsel-parallel union.
  Result<RoutedPlan> Route(const std::vector<PathPredicate>& predicates) const {
    return RoutePredicates(*this, predicates);
  }

 private:
  friend Result<RoutedPlan> RoutePredicates(
      const JsonCollection& coll, const std::vector<PathPredicate>& preds);

  /// Table observer wired at creation: invalidates the populated IMC and
  /// marks the touched row dirty on every insert/delete/replace (the
  /// stale-read hazard the facade closes), and maintains the
  /// collection-local DataGuide when no search index is attached (reusing
  /// the IS JSON constraint's parse).
  class DmlObserver final : public rdbms::TableObserver {
   public:
    explicit DmlObserver(JsonCollection* owner) : owner_(owner) {}
    Status OnInsert(size_t row_id, const rdbms::Row& row) override;
    Status OnDelete(size_t row_id, const rdbms::Row& row) override;
    Status OnReplace(size_t row_id, const rdbms::Row& old_row,
                     const rdbms::Row& new_row) override;

   private:
    JsonCollection* owner_;
  };

  JsonCollection(rdbms::Database* db, std::string name,
                 CollectionOptions options)
      : db_(db), name_(std::move(name)), options_(std::move(options)) {}

  void InvalidateImc(size_t row_id);
  Status MaintainOwnGuide(const Value& doc_value);
  std::vector<std::string> DefaultImcColumns() const;
  /// DML guard: Unavailable while quarantined, OK otherwise.
  Status CheckWritable() const;
  /// Shared failure path for the public DML wrappers' WAL appends: logs
  /// the failure and, when the append poisoned the writer, quarantines the
  /// collection (the reason carries the append error, errno text and all)
  /// so the health transition is attributable through SQL.
  Status WalAppendFailed(const Status& append_status);

  /// The pre-ISSUE-8 DML bodies: shard dispatch + the single-shard apply.
  /// The public Insert/Delete/Replace wrap them with the activity lease
  /// and the WAL append (top-level only — shard children apply directly).
  Result<size_t> ApplyInsert(Value key, std::string json_text);
  Status ApplyDelete(size_t row_id);
  Status ApplyReplace(size_t row_id, Value key, std::string json_text);

  /// Opens (or replays) the WAL configured in options_.wal_dir. Called by
  /// Create() after the stack is fully wired; failure unwinds creation.
  Status InitWal();
  /// Redo pass over the durable prefix Open() returned: applies every
  /// non-aborted record from the last complete checkpoint, translating
  /// logged row ids to live ones, then verifies with CheckConsistency()
  /// and writes a fresh checkpoint.
  Status ReplayWal(const std::vector<wal::Record>& records);
  /// Row-id -> (shard, key, OSON image) for every live document, shared
  /// by Checkpoint() and consistency-oblivious callers.
  Status AppendCheckpointDocs(uint64_t* doc_count);
  size_t KeyPhysicalPos(const rdbms::Table* t) const;
  /// Registers the ISSUE 9 memory reporters (table heap, index postings,
  /// DataGuide, IMC, path statistics, WAL writer) with the global
  /// MemoryTracker, labeled with the collection name. Called at the end of
  /// Create() on the top-level object only — facade reporters sum over the
  /// shards, which stay unregistered to avoid double counting.
  void RegisterMemoryReporters();

  rdbms::Database* db_;
  std::string name_;
  CollectionOptions options_;
  rdbms::Table* table_ = nullptr;
  std::string oson_column_;
  size_t json_physical_pos_ = 0;  // position within physical rows
  std::unique_ptr<index::JsonSearchIndex> index_;
  std::unique_ptr<DmlObserver> dml_observer_;
  dataguide::DataGuide own_guide_;  // used when no index is attached
  stats::PathStatsRepository path_stats_;
  // JSON path -> declared virtual column name (router / IMC metadata).
  std::map<std::string, std::string> vc_for_path_;
  std::optional<imc::ColumnStore> imc_;
  std::vector<std::string> imc_columns_;  // last requested population set
  bool imc_valid_ = false;
  // Shard-local row ids DML touched since the store was last populated,
  // as a bitmap indexed by row id; kept only while a store exists.
  std::vector<bool> imc_dirty_;
  telemetry::Counter imc_invalidations_;
  int64_t next_auto_key_ = 1;
  uint64_t last_rebuild_ts_us_ = 0;
  bool detached_ = false;
  bool quarantined_ = false;
  std::string quarantine_reason_;
  std::string last_health_cause_;  // sticky; see last_health_cause()
  /// This collection is a shard child of a durable facade: DML arrives
  /// pre-logged and pre-leased, so the public wrappers pass through.
  bool is_shard_ = false;
  std::unique_ptr<wal::Wal> wal_;
  /// Set while ReplayWal drives the DML paths: suppresses re-appending
  /// the operations being replayed.
  bool wal_replaying_ = false;
  /// Backing shards when this is a sharded facade (empty otherwise). Each
  /// is a full single-shard collection named "<name>$s<i>", kept out of
  /// the CollectionRegistry — only the facade is registered.
  std::vector<std::unique_ptr<JsonCollection>> shards_;
  /// Live memory-reporter registrations (RAII — Detach()/destruction
  /// unregisters them before the structures they poll go away).
  std::vector<telemetry::MemoryScope> mem_scopes_;
};

}  // namespace fsdm::collection

#endif  // FSDM_COLLECTION_COLLECTION_H_
