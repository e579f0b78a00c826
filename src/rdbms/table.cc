#include "rdbms/table.h"

#include <algorithm>

#include "common/on_return.h"
#include "fault/fault.h"
#include "json/parser.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/telemetry.h"

namespace fsdm::rdbms {

namespace {

enum class DmlKind { kInsert, kDelete, kReplace };

/// Accounting footprint of one stored row: container overhead plus owned
/// string/binary payloads (size, not capacity, so the incremental counter
/// and the recompute walk agree exactly).
uint64_t RowHeapBytes(const Row& row) {
  uint64_t bytes = sizeof(Row) + row.size() * sizeof(Value);
  for (const Value& v : row) {
    const ScalarType t = v.type();
    if (t == ScalarType::kString) bytes += v.AsString().size();
    if (t == ScalarType::kBinary) bytes += v.AsBinary().size();
  }
  return bytes;
}

/// Compensates a partially fanned-out DML: calls the matching Undo* hook
/// on the first `completed` observers in reverse registration order. Undo
/// failures are the observer's to absorb (degraded state); here they are
/// only counted.
void RollbackObservers(const std::vector<TableObserver*>& observers,
                       size_t completed, DmlKind kind, size_t row_id,
                       const Row& old_row, const Row& new_row) {
  FSDM_COUNT("fsdm_dml_rollbacks_total", 1);
  FSDM_TRACE_INSTANT("rdbms", "dml.rollback");
  for (size_t j = completed; j-- > 0;) {
    Status undone;
    switch (kind) {
      case DmlKind::kInsert:
        undone = observers[j]->UndoInsert(row_id, new_row);
        break;
      case DmlKind::kDelete:
        undone = observers[j]->UndoDelete(row_id, old_row);
        break;
      case DmlKind::kReplace:
        undone = observers[j]->UndoReplace(row_id, old_row, new_row);
        break;
    }
    if (!undone.ok()) FSDM_COUNT("fsdm_dml_undo_failures_total", 1);
  }
}

}  // namespace

Table::Table(std::string name, std::vector<ColumnDef> columns,
             const std::string& insert_fault_point)
    : name_(std::move(name)),
      columns_(std::move(columns)),
      insert_fault_(
          fault::FaultRegistry::Global().Register(insert_fault_point)) {
  std::vector<std::string> physical_names;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].is_virtual()) continue;
    physical_.push_back(i);
    physical_names.push_back(columns_[i].name);
  }
  physical_schema_ = Schema(std::move(physical_names));
}

size_t Table::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return Schema::npos;
}

Status Table::AddVirtualColumn(ColumnDef def) {
  if (!def.is_virtual()) {
    return Status::InvalidArgument("AddVirtualColumn requires an expression");
  }
  if (ColumnIndex(def.name) != Schema::npos) {
    return Status::AlreadyExists("column '" + def.name + "' exists on " +
                                 name_);
  }
  columns_.push_back(std::move(def));
  return Status::Ok();
}

namespace {

bool TypeAccepts(ColumnType type, const Value& v) {
  if (v.is_null()) return true;
  switch (type) {
    case ColumnType::kNumber:
      return v.IsNumeric();
    case ColumnType::kString:
    case ColumnType::kJson:
      return v.type() == ScalarType::kString;
    case ColumnType::kBool:
      return v.type() == ScalarType::kBool;
    case ColumnType::kDate:
      // ISO date strings or day numbers both accepted.
      return v.type() == ScalarType::kDate ||
             v.type() == ScalarType::kString;
    case ColumnType::kTimestamp:
      return v.type() == ScalarType::kTimestamp;
    case ColumnType::kRaw:
      return v.type() == ScalarType::kBinary;
  }
  return false;
}

}  // namespace

Status Table::ValidateRow(const Row& physical_values, ParsedJson parsed) {
  if (physical_values.size() != physical_.size()) {
    return Status::InvalidArgument(
        name_ + ": expected " + std::to_string(physical_.size()) +
        " values, got " + std::to_string(physical_values.size()));
  }
  for (size_t i = 0; i < physical_.size(); ++i) {
    const ColumnDef& def = columns_[physical_[i]];
    const Value& v = physical_values[i];
    if (!TypeAccepts(def.type, v)) {
      return Status::InvalidArgument(
          name_ + "." + def.name + ": value type " +
          std::string(ScalarTypeName(v.type())) + " not accepted");
    }
    if (def.check_is_json && !v.is_null()) {
      // The IS JSON check constraint: full syntactic validation with
      // duplicate keys refused (an object may hold each name once), or the
      // caller's parse of the same text. The parsed DOM is kept through
      // the observer callbacks so index and DataGuide maintenance reuse
      // this parse (§3.2.1).
      FSDM_COUNT("fsdm_rdbms_isjson_checks_total", 1);
      FSDM_TIME_SCOPE_US("fsdm_rdbms_isjson_check_us");
      FSDM_TRACE_SPAN(span, "rdbms", "isjson.check");
      span.AddNumberArg("bytes", static_cast<double>(v.AsString().size()));
      if (parsed.tree != nullptr && parsed.physical_pos == i) {
        dml_parsed_[i] = std::move(parsed.tree);
        continue;
      }
      Result<std::unique_ptr<json::JsonNode>> tree =
          json::Parse(v.AsString(), {.reject_duplicate_keys = true});
      if (!tree.ok()) {
        return Status::ConstraintViolation(name_ + "." + def.name +
                                           " IS JSON failed: " +
                                           tree.status().message());
      }
      dml_parsed_[i] = tree.MoveValue();
    }
  }
  return Status::Ok();
}

Result<size_t> Table::Insert(Row physical_values, ParsedJson parsed) {
  // Simulated storage-layer failure before any side effect.
  if (insert_fault_->armed()) FSDM_RETURN_NOT_OK(insert_fault_->Fire());
  // However the DML ends, no parse outlives it.
  OnReturn clear_parse([this] { dml_parsed_.clear(); });
  FSDM_RETURN_NOT_OK(ValidateRow(physical_values, std::move(parsed)));
  size_t row_id = rows_.size();
  rows_.push_back(std::move(physical_values));
  live_.push_back(true);
  live_rows_.fetch_add(1, std::memory_order_relaxed);
  heap_bytes_.fetch_add(RowHeapBytes(rows_.back()),
                        std::memory_order_relaxed);
  Status failure;
  size_t completed = 0;
  for (TableObserver* obs : observers_) {
    failure = obs->OnInsert(row_id, rows_.back());
    if (!failure.ok()) break;
    ++completed;
  }
  if (!failure.ok()) {
    // All-or-nothing: compensate the observers that already applied, then
    // roll the row back, so storage and side structures stay consistent.
    RollbackObservers(observers_, completed, DmlKind::kInsert, row_id,
                      rows_.back(), rows_.back());
    heap_bytes_.fetch_sub(RowHeapBytes(rows_.back()),
                          std::memory_order_relaxed);
    rows_.pop_back();
    live_.pop_back();
    live_rows_.fetch_sub(1, std::memory_order_relaxed);
    return failure;
  }
  return row_id;
}

const json::JsonNode* Table::ParsedJsonForObserver(
    size_t physical_pos) const {
  auto it = dml_parsed_.find(physical_pos);
  return it == dml_parsed_.end() ? nullptr : it->second.get();
}

Status Table::Delete(size_t row_id) {
  if (row_id >= rows_.size() || !live_[row_id]) {
    return Status::NotFound("row " + std::to_string(row_id));
  }
  Status failure;
  size_t completed = 0;
  for (TableObserver* obs : observers_) {
    failure = obs->OnDelete(row_id, rows_[row_id]);
    if (!failure.ok()) break;
    ++completed;
  }
  if (failure.ok()) {
    // Simulated storage-layer failure after the observers committed: the
    // tombstone "write" fails and every observer must be compensated.
    failure = FSDM_FAULT_STATUS("table.delete.apply");
  }
  if (!failure.ok()) {
    RollbackObservers(observers_, completed, DmlKind::kDelete, row_id,
                      rows_[row_id], rows_[row_id]);
    return failure;
  }
  live_[row_id] = false;
  live_rows_.fetch_sub(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status Table::Replace(size_t row_id, Row physical_values, ParsedJson parsed) {
  if (row_id >= rows_.size() || !live_[row_id]) {
    return Status::NotFound("row " + std::to_string(row_id));
  }
  OnReturn clear_parse([this] { dml_parsed_.clear(); });
  FSDM_RETURN_NOT_OK(ValidateRow(physical_values, std::move(parsed)));
  Status failure;
  size_t completed = 0;
  for (TableObserver* obs : observers_) {
    failure = obs->OnReplace(row_id, rows_[row_id], physical_values);
    if (!failure.ok()) break;
    ++completed;
  }
  if (failure.ok()) {
    // Simulated storage-layer failure after the observers committed.
    failure = FSDM_FAULT_STATUS("table.replace.apply");
  }
  if (!failure.ok()) {
    RollbackObservers(observers_, completed, DmlKind::kReplace, row_id,
                      rows_[row_id], physical_values);
    return failure;
  }
  heap_bytes_.fetch_sub(RowHeapBytes(rows_[row_id]),
                        std::memory_order_relaxed);
  rows_[row_id] = std::move(physical_values);
  heap_bytes_.fetch_add(RowHeapBytes(rows_[row_id]),
                        std::memory_order_relaxed);
  return Status::Ok();
}

void Table::AppendDeadRows(size_t row_count) {
  while (rows_.size() < row_count) {
    rows_.emplace_back(physical_.size());
    live_.push_back(false);
    heap_bytes_.fetch_add(RowHeapBytes(rows_.back()),
                          std::memory_order_relaxed);
  }
}

Schema Table::OutputSchema(bool include_hidden) const {
  std::vector<std::string> names;
  for (const ColumnDef& def : columns_) {
    if (def.hidden && !include_hidden) continue;
    names.push_back(def.name);
  }
  return Schema(std::move(names));
}

Result<Row> Table::MaterializeRow(size_t row_id, bool include_hidden) const {
  if (row_id >= rows_.size() || !live_[row_id]) {
    return Status::NotFound("row " + std::to_string(row_id));
  }
  RowContext ctx{&physical_schema_, &rows_[row_id]};
  Row out;
  size_t phys_i = 0;
  for (const ColumnDef& def : columns_) {
    if (def.is_virtual()) {
      if (def.hidden && !include_hidden) continue;
      FSDM_ASSIGN_OR_RETURN(Value v, def.virtual_expr->Eval(ctx));
      out.push_back(std::move(v));
    } else {
      const Value& v = rows_[row_id][phys_i];
      ++phys_i;
      if (def.hidden && !include_hidden) continue;
      out.push_back(v);
    }
  }
  return out;
}

Result<Value> Table::MaterializeColumn(size_t row_id, size_t column) const {
  if (row_id >= rows_.size() || !live_[row_id]) {
    return Status::NotFound("row " + std::to_string(row_id));
  }
  if (column >= columns_.size()) {
    return Status::InvalidArgument("column " + std::to_string(column) +
                                   " of " + name_);
  }
  const ColumnDef& def = columns_[column];
  if (def.is_virtual()) {
    RowContext ctx{&physical_schema_, &rows_[row_id]};
    return def.virtual_expr->Eval(ctx);
  }
  const size_t phys_i =
      std::find(physical_.begin(), physical_.end(), column) - physical_.begin();
  return rows_[row_id][phys_i];
}

void Table::RemoveObserver(TableObserver* observer) {
  for (auto it = observers_.begin(); it != observers_.end(); ++it) {
    if (*it == observer) {
      observers_.erase(it);
      return;
    }
  }
}

size_t ValueStorageBytes(const Value& v) {
  switch (v.type()) {
    case ScalarType::kNull:
      return 1;
    case ScalarType::kBool:
      return 1;
    case ScalarType::kInt64: {
      std::string enc;
      Decimal::FromInt64(v.AsInt64()).EncodeBinary(&enc);
      return enc.size();
    }
    case ScalarType::kDouble:
      return 8;
    case ScalarType::kDecimal: {
      std::string enc;
      v.AsDecimal().EncodeBinary(&enc);
      return enc.size();
    }
    case ScalarType::kString:
      return v.AsString().size() + 1;  // length byte, varchar-style
    case ScalarType::kDate:
      return 4;
    case ScalarType::kTimestamp:
      return 8;
    case ScalarType::kBinary:
      return v.AsBinary().size() + 2;
  }
  return 0;
}

uint64_t Table::RecomputeHeapBytes() const {
  uint64_t total = 0;
  for (const Row& row : rows_) total += RowHeapBytes(row);
  return total;
}

size_t Table::EstimateStorageBytes() const {
  size_t total = 0;
  for (size_t r = 0; r < rows_.size(); ++r) {
    if (!live_[r]) continue;
    total += 3;  // row header
    for (const Value& v : rows_[r]) total += ValueStorageBytes(v);
  }
  return total;
}

Result<Table*> Database::CreateTable(std::string name,
                                     std::vector<ColumnDef> columns) {
  if (tables_.count(name)) {
    return Status::AlreadyExists("table " + name);
  }
  auto table = std::make_unique<Table>(name, std::move(columns));
  Table* raw = table.get();
  tables_[name] = std::move(table);
  return raw;
}

Result<Table*> Database::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("table " + name);
  return it->second.get();
}

Status Database::DropTable(const std::string& name) {
  if (tables_.erase(name) == 0) return Status::NotFound("table " + name);
  return Status::Ok();
}

}  // namespace fsdm::rdbms
