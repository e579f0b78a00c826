#ifndef FSDM_RDBMS_TABLE_H_
#define FSDM_RDBMS_TABLE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "json/node.h"
#include "rdbms/expression.h"

namespace fsdm::fault {
class FaultPoint;
}  // namespace fsdm::fault

namespace fsdm::rdbms {

/// Declared column types. kJson is a text column carrying the IS JSON check
/// constraint (the paper's storage for JSON collections); kRaw holds binary
/// images (BSON/OSON).
enum class ColumnType : uint8_t {
  kNumber,
  kString,
  kBool,
  kDate,
  kTimestamp,
  kJson,
  kRaw,
};

struct ColumnDef {
  std::string name;
  ColumnType type = ColumnType::kString;
  /// IS JSON check constraint (only meaningful on kJson columns).
  bool check_is_json = false;
  /// Virtual column: evaluated from the row on access, never stored.
  ExprPtr virtual_expr;
  /// Hidden columns are excluded from SELECT * / scans unless requested —
  /// used for the implicit OSON virtual column of §5.2.2.
  bool hidden = false;

  bool is_virtual() const { return virtual_expr != nullptr; }
};

/// Observes row-level changes; the JSON search index (and with it the
/// persistent DataGuide) registers one of these so index maintenance runs
/// inside the DML path, as in §3.2.1.
///
/// DML over an observed table is all-or-nothing: when an observer (or the
/// table's own apply step) fails, the table calls the matching Undo* hook
/// on every observer whose On* callback had already succeeded, in reverse
/// registration order, before surfacing the error — so the base table and
/// every maintained side structure end the DML in their pre-DML state.
/// Undo* must restore the observer's state as of before its On* callback;
/// an observer whose undo fails must absorb the damage itself (e.g. by
/// entering a degraded state) — the table only counts the failure
/// (fsdm_dml_undo_failures_total) and carries on with the rollback.
class TableObserver {
 public:
  virtual ~TableObserver() = default;
  virtual Status OnInsert(size_t row_id, const Row& row) = 0;
  virtual Status OnDelete(size_t row_id, const Row& row) = 0;
  virtual Status OnReplace(size_t row_id, const Row& old_row,
                           const Row& new_row) = 0;

  /// Compensation hooks; defaults are no-ops for observers whose On*
  /// effects are conservative under rollback (e.g. cache invalidation).
  virtual Status UndoInsert(size_t row_id, const Row& row) {
    (void)row_id;
    (void)row;
    return Status::Ok();
  }
  virtual Status UndoDelete(size_t row_id, const Row& row) {
    (void)row_id;
    (void)row;
    return Status::Ok();
  }
  virtual Status UndoReplace(size_t row_id, const Row& old_row,
                             const Row& new_row) {
    (void)row_id;
    (void)old_row;
    (void)new_row;
    return Status::Ok();
  }
};

/// A caller's parse of the text in an IS JSON column of the row it passes
/// to Table::Insert/Replace. The IS JSON check adopts it instead of parsing
/// again (a durable write parses once, for its log image and the check).
/// `tree` must be json::Parse() of exactly that text, with duplicate keys
/// rejected as the check rejects them.
struct ParsedJson {
  size_t physical_pos = 0;
  std::unique_ptr<json::JsonNode> tree;
};

/// Heap row store with typed columns, check constraints, virtual columns
/// and change observers. Single-threaded by design (the evaluation never
/// needs concurrent DML).
class Table {
 public:
  /// `insert_fault_point` names the fault point Insert() fires before any
  /// side effect; a table private to one component takes its own, so a
  /// fault armed to veto a collection's DML never hits it instead.
  Table(std::string name, std::vector<ColumnDef> columns,
        const std::string& insert_fault_point = "table.insert.apply");

  const std::string& name() const { return name_; }
  const std::vector<ColumnDef>& columns() const { return columns_; }
  /// Positions of physical (stored) columns within columns().
  const std::vector<size_t>& physical_columns() const { return physical_; }
  size_t row_count() const { return rows_.size(); }

  /// Index into columns() by name; Schema::npos if absent.
  size_t ColumnIndex(const std::string& name) const;

  /// Appends a virtual column (AddVC / hidden OSON column). Fails on
  /// duplicate name.
  Status AddVirtualColumn(ColumnDef def);

  /// Inserts one row of *physical* column values (in physical_columns()
  /// order). Runs type checks, the IS JSON constraint where declared, and
  /// observers. Returns the new row id. A non-null `parsed.tree` stands
  /// in for the IS JSON check's parse of that column.
  Result<size_t> Insert(Row physical_values, ParsedJson parsed = {});

  Status Delete(size_t row_id);
  Status Replace(size_t row_id, Row physical_values, ParsedJson parsed = {});

  /// Appends tombstoned all-NULL rows until row_count() reaches
  /// `row_count` (a no-op when it already has). Recovery uses it to
  /// rebuild the row-id slots of rows that were dead when logged, so
  /// later inserts get the ids the logging process gave them. Runs no
  /// observers and leaves live_row_count() unchanged.
  void AppendDeadRows(size_t row_count);

  /// Stored values of a row (physical columns only).
  const Row& StoredRow(size_t row_id) const { return rows_[row_id]; }
  bool IsLive(size_t row_id) const { return live_[row_id]; }
  /// Number of live rows, O(1). Atomic (relaxed), so a concurrent session
  /// (TELEMETRY$COLLECTIONS) can read it without walking live_ while DML
  /// resizes it.
  size_t live_row_count() const {
    return live_rows_.load(std::memory_order_relaxed);
  }

  /// Materializes a full output row: physical values plus evaluated
  /// virtual columns (hidden ones included only when `include_hidden`).
  /// The matching schema comes from OutputSchema(include_hidden).
  Result<Row> MaterializeRow(size_t row_id, bool include_hidden = false) const;
  Schema OutputSchema(bool include_hidden = false) const;
  /// Value of columns()[column] for a live row: the stored value, or the
  /// virtual expression evaluated over the stored row. Lets the IMC
  /// evaluate only the columns it holds.
  Result<Value> MaterializeColumn(size_t row_id, size_t column) const;

  void AddObserver(TableObserver* observer) { observers_.push_back(observer); }
  void RemoveObserver(TableObserver* observer);

  /// During observer callbacks only: the DOM the IS JSON check constraint
  /// already parsed for the physical column at `physical_pos`, or nullptr.
  /// Lets index/DataGuide maintenance piggyback on the constraint's parse
  /// instead of re-parsing (§3.2.1).
  const json::JsonNode* ParsedJsonForObserver(size_t physical_pos) const;

  /// Approximate stored byte size: sum over rows of value payload sizes.
  /// This is what the storage-size comparisons (Fig. 4) report.
  size_t EstimateStorageBytes() const;

  /// In-memory heap footprint of the row store (ISSUE 9 memory
  /// attribution): container overhead plus owned string payloads, by
  /// size() not capacity(). Maintained incrementally by DML; tombstoned
  /// rows stay counted because Delete() only marks them dead — their
  /// memory is not reclaimed.
  uint64_t HeapBytes() const {
    return heap_bytes_.load(std::memory_order_relaxed);
  }
  /// Exact O(rows) walk with the same formula; the accounting unit test
  /// pins HeapBytes() == RecomputeHeapBytes() across DML mixes.
  uint64_t RecomputeHeapBytes() const;

 private:
  Status ValidateRow(const Row& physical_values, ParsedJson parsed);

  std::string name_;
  std::vector<ColumnDef> columns_;
  std::vector<size_t> physical_;  // indexes of stored columns
  // Physical column names, which virtual expressions resolve against.
  // Fixed at construction: AddVirtualColumn() only appends virtual ones.
  Schema physical_schema_;
  std::vector<Row> rows_;        // stored values, physical order
  std::vector<bool> live_;       // tombstones for Delete
  // Count of true entries in live_: +1 on insert, -1 on insert rollback
  // and on delete.
  std::atomic<size_t> live_rows_{0};
  // Incremental accounting over rows_. Atomic (relaxed) so another
  // thread may read it while DML mutates it.
  std::atomic<uint64_t> heap_bytes_{0};
  std::vector<TableObserver*> observers_;
  fault::FaultPoint* insert_fault_;
  // Parse results of the current DML's IS JSON checks, shared with
  // observers; empty outside an Insert/Replace.
  std::map<size_t, std::unique_ptr<json::JsonNode>> dml_parsed_;
};

/// Named table/view registry.
class Database {
 public:
  Result<Table*> CreateTable(std::string name, std::vector<ColumnDef> columns);
  Result<Table*> GetTable(const std::string& name);
  Status DropTable(const std::string& name);

 private:
  std::map<std::string, std::unique_ptr<Table>> tables_;
};

/// Size in bytes a Value occupies in our simulated row storage; shared by
/// Table::EstimateStorageBytes and the benchmarks.
size_t ValueStorageBytes(const Value& v);

}  // namespace fsdm::rdbms

#endif  // FSDM_RDBMS_TABLE_H_
