#include "imc/column_store.h"

#include <algorithm>
#include <set>

#include "fault/fault.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/telemetry.h"

namespace fsdm::imc {

namespace {

bool OpHolds(rdbms::CompareOp op, int cmp) {
  switch (op) {
    case rdbms::CompareOp::kEq:
      return cmp == 0;
    case rdbms::CompareOp::kNe:
      return cmp != 0;
    case rdbms::CompareOp::kLt:
      return cmp < 0;
    case rdbms::CompareOp::kLe:
      return cmp <= 0;
    case rdbms::CompareOp::kGt:
      return cmp > 0;
    case rdbms::CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

template <typename T>
int Spaceship(T a, T b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

}  // namespace

ColumnVector ColumnVector::Build(std::vector<Value> values) {
  ColumnVector col;
  col.size_ = values.size();
  col.nulls_.assign(values.size(), false);

  bool all_int = true, all_num = true, all_str = true, all_bool = true,
       all_bin = true;
  for (size_t i = 0; i < values.size(); ++i) {
    const Value& v = values[i];
    if (v.is_null()) {
      col.nulls_[i] = true;
      continue;
    }
    if (v.type() != ScalarType::kInt64) all_int = false;
    if (!v.IsNumeric()) all_num = false;
    if (v.type() != ScalarType::kString) all_str = false;
    if (v.type() != ScalarType::kBool) all_bool = false;
    if (v.type() != ScalarType::kBinary) all_bin = false;
  }

  if (all_int) {
    col.encoding_ = ColumnEncoding::kInt64;
    col.ints_.resize(values.size(), 0);
    for (size_t i = 0; i < values.size(); ++i) {
      if (!col.nulls_[i]) col.ints_[i] = values[i].AsInt64();
    }
    return col;
  }
  if (all_num) {
    col.encoding_ = ColumnEncoding::kNumber;
    col.doubles_.resize(values.size(), 0);
    for (size_t i = 0; i < values.size(); ++i) {
      if (!col.nulls_[i]) col.doubles_[i] = values[i].NumericAsDouble();
    }
    return col;
  }
  if (all_bool) {
    col.encoding_ = ColumnEncoding::kBool;
    col.bools_.resize(values.size(), false);
    for (size_t i = 0; i < values.size(); ++i) {
      if (!col.nulls_[i]) col.bools_[i] = values[i].AsBool();
    }
    return col;
  }
  if (all_str) {
    // Dictionary-encode when repetitive.
    std::set<std::string> distinct;
    for (size_t i = 0; i < values.size(); ++i) {
      if (!col.nulls_[i]) distinct.insert(values[i].AsString());
    }
    if (!values.empty() && distinct.size() * 2 < values.size()) {
      col.encoding_ = ColumnEncoding::kDictString;
      col.strings_.assign(distinct.begin(), distinct.end());
      col.codes_.resize(values.size(), 0);
      for (size_t i = 0; i < values.size(); ++i) {
        if (col.nulls_[i]) continue;
        auto it = std::lower_bound(col.strings_.begin(), col.strings_.end(),
                                   values[i].AsString());
        col.codes_[i] = static_cast<uint32_t>(it - col.strings_.begin());
      }
      return col;
    }
    col.encoding_ = ColumnEncoding::kString;
    col.strings_.resize(values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      if (!col.nulls_[i]) col.strings_[i] = values[i].AsString();
    }
    return col;
  }
  if (all_bin) {
    col.encoding_ = ColumnEncoding::kBinary;
    col.payloads_.resize(values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      if (!col.nulls_[i]) col.payloads_[i] = values[i].BinaryPayload();
    }
    return col;
  }
  col.encoding_ = ColumnEncoding::kMixed;
  col.boxed_ = std::move(values);
  return col;
}

Value ColumnVector::GetValue(size_t row) const {
  if (nulls_[row]) return Value::Null();
  switch (encoding_) {
    case ColumnEncoding::kInt64:
      return Value::Int64(ints_[row]);
    case ColumnEncoding::kNumber:
      return Value::Double(doubles_[row]);
    case ColumnEncoding::kString:
      return Value::String(strings_[row]);
    case ColumnEncoding::kDictString:
      return Value::String(strings_[codes_[row]]);
    case ColumnEncoding::kBool:
      return Value::Bool(bools_[row]);
    case ColumnEncoding::kBinary:
      return Value::Binary(payloads_[row]);
    case ColumnEncoding::kMixed:
      return boxed_[row];
  }
  return Value::Null();
}

Status ColumnVector::FilterCompare(rdbms::CompareOp op, const Value& literal,
                                   const std::vector<uint32_t>* in,
                                   std::vector<uint32_t>* out) const {
  if (literal.is_null()) return Status::Ok();  // NULL matches nothing

  auto for_each = [&](auto&& match) {
    if (in == nullptr) {
      for (uint32_t i = 0; i < size_; ++i) {
        if (!nulls_[i] && match(i)) out->push_back(i);
      }
    } else {
      for (uint32_t i : *in) {
        if (!nulls_[i] && match(i)) out->push_back(i);
      }
    }
  };

  switch (encoding_) {
    case ColumnEncoding::kInt64: {
      if (!literal.IsNumeric()) {
        return Status::InvalidArgument("numeric column vs non-numeric literal");
      }
      // Integer literal fast path; fractional literals via double.
      if (literal.type() == ScalarType::kInt64) {
        int64_t lit = literal.AsInt64();
        for_each([&](uint32_t i) { return OpHolds(op, Spaceship(ints_[i], lit)); });
      } else {
        double lit = literal.NumericAsDouble();
        for_each([&](uint32_t i) {
          return OpHolds(op, Spaceship(static_cast<double>(ints_[i]), lit));
        });
      }
      return Status::Ok();
    }
    case ColumnEncoding::kNumber: {
      if (!literal.IsNumeric()) {
        return Status::InvalidArgument("numeric column vs non-numeric literal");
      }
      double lit = literal.NumericAsDouble();
      for_each([&](uint32_t i) { return OpHolds(op, Spaceship(doubles_[i], lit)); });
      return Status::Ok();
    }
    case ColumnEncoding::kString: {
      if (literal.type() != ScalarType::kString) {
        return Status::InvalidArgument("string column vs non-string literal");
      }
      const std::string& lit = literal.AsString();
      for_each([&](uint32_t i) {
        return OpHolds(op, strings_[i].compare(lit) < 0
                               ? -1
                               : (strings_[i] == lit ? 0 : 1));
      });
      return Status::Ok();
    }
    case ColumnEncoding::kDictString: {
      if (literal.type() != ScalarType::kString) {
        return Status::InvalidArgument("string column vs non-string literal");
      }
      // Compare against the dictionary once, then scan integer codes —
      // the dictionary-encoding payoff.
      const std::string& lit = literal.AsString();
      auto it = std::lower_bound(strings_.begin(), strings_.end(), lit);
      uint32_t bound = static_cast<uint32_t>(it - strings_.begin());
      bool exact = it != strings_.end() && *it == lit;
      for_each([&](uint32_t i) {
        uint32_t c = codes_[i];
        int cmp = c < bound ? -1 : (c == bound && exact ? 0 : 1);
        return OpHolds(op, cmp);
      });
      return Status::Ok();
    }
    case ColumnEncoding::kBool: {
      if (literal.type() != ScalarType::kBool) {
        return Status::InvalidArgument("bool column vs non-bool literal");
      }
      bool lit = literal.AsBool();
      for_each([&](uint32_t i) {
        return OpHolds(op, Spaceship(bools_[i] ? 1 : 0, lit ? 1 : 0));
      });
      return Status::Ok();
    }
    case ColumnEncoding::kBinary:
    case ColumnEncoding::kMixed: {
      for_each([&](uint32_t i) {
        Value v = GetValue(i);
        Result<int> cmp = v.CompareTo(literal);
        return cmp.ok() && OpHolds(op, cmp.value());
      });
      return Status::Ok();
    }
  }
  return Status::Internal("bad encoding");
}

Result<double> ColumnVector::SumSelected(
    const std::vector<uint32_t>& sel) const {
  double total = 0;
  switch (encoding_) {
    case ColumnEncoding::kInt64:
      for (uint32_t i : sel) {
        if (!nulls_[i]) total += static_cast<double>(ints_[i]);
      }
      return total;
    case ColumnEncoding::kNumber:
      for (uint32_t i : sel) {
        if (!nulls_[i]) total += doubles_[i];
      }
      return total;
    default:
      return Status::InvalidArgument("SumSelected requires a numeric column");
  }
}

size_t StringHeapBytes(const std::string& s) {
  return s.capacity() > std::string().capacity() ? s.capacity() + 1 : 0;
}

size_t StringAllocBytes(const std::string& s) {
  return sizeof(std::string) + StringHeapBytes(s);
}

size_t SharedPayloadHeapBytes(const std::string& s) {
  // libstdc++'s in-place control block: a vtable pointer and the use and
  // weak counts, followed by the std::string object itself.
  constexpr size_t kControlBlockBytes = sizeof(void*) + 2 * sizeof(int);
  return kControlBlockBytes + StringAllocBytes(s);
}

namespace {

// Heap block behind a boxed Value, beyond its inline variant storage.
size_t BoxedHeapBytes(const Value& v) {
  switch (v.type()) {
    case ScalarType::kString:
      return StringHeapBytes(v.AsString());
    case ScalarType::kBinary:
      return SharedPayloadHeapBytes(v.AsBinary());
    default:
      return 0;
  }
}

}  // namespace

size_t ColumnVector::MemoryBytes() const {
  size_t n = (nulls_.size() + 7) / 8 + (bools_.size() + 7) / 8 +
             ints_.size() * sizeof(int64_t) +
             doubles_.size() * sizeof(double) +
             codes_.size() * sizeof(uint32_t);
  // strings_ is the value array for kString and the dictionary for
  // kDictString; either way each element owns its allocated block.
  for (const std::string& s : strings_) n += StringAllocBytes(s);
  for (const auto& p : payloads_) {
    n += sizeof(p) + (p != nullptr ? SharedPayloadHeapBytes(*p) : 0);
  }
  for (const Value& v : boxed_) n += sizeof(Value) + BoxedHeapBytes(v);
  return n;
}

Result<ColumnStore> ColumnStore::Populate(
    const rdbms::Table& table, const std::vector<std::string>& columns,
    const ColumnStore* prior, const std::vector<bool>& dirty) {
  // Simulated population failure (e.g. memory pressure) before any work.
  FSDM_FAULT_POINT("imc.populate");
  if (prior != nullptr && prior->names_ != columns) {
    return Status::InvalidArgument("prior IMC store holds other columns");
  }
  FSDM_COUNT("fsdm_imc_populations_total", 1);
  FSDM_TIME_SCOPE_US("fsdm_imc_populate_us");
  FSDM_TRACE_SPAN(span, "imc", "imc.populate");
  span.AddNumberArg("columns", static_cast<double>(columns.size()));
  ColumnStore store;
  store.names_ = columns;
  std::vector<std::vector<Value>> data(columns.size());

  std::vector<size_t> positions;  // within table.columns()
  // Columns whose prior values can be copied: GetValue() gives back what
  // the expression produced everywhere except kNumber, which keeps doubles.
  std::vector<bool> reusable;
  for (size_t c = 0; c < columns.size(); ++c) {
    size_t pos = table.ColumnIndex(columns[c]);
    if (pos == rdbms::Schema::npos) {
      return Status::NotFound("column '" + columns[c] + "' on " +
                              table.name());
    }
    positions.push_back(pos);
    bool reuse = false;
    if (prior != nullptr) {
      const ColumnEncoding e = prior->columns_[c].encoding();
      reuse = e != ColumnEncoding::kNumber;
    }
    reusable.push_back(reuse);
  }

  size_t evaluated = 0;
  size_t p = 0;  // cursor into prior->row_ids_, which ascend like r
  for (size_t r = 0; r < table.row_count(); ++r) {
    if (!table.IsLive(r)) continue;
    if (prior != nullptr) {
      while (p < prior->row_ids_.size() && prior->row_ids_[p] < r) ++p;
    }
    const bool kept = prior != nullptr && p < prior->row_ids_.size() &&
                      prior->row_ids_[p] == r &&
                      !(r < dirty.size() && dirty[r]);
    for (size_t c = 0; c < columns.size(); ++c) {
      if (kept && reusable[c]) {
        data[c].push_back(prior->columns_[c].GetValue(p));
        continue;
      }
      FSDM_ASSIGN_OR_RETURN(Value v,
                            table.MaterializeColumn(r, positions[c]));
      data[c].push_back(std::move(v));
    }
    if (!kept) ++evaluated;
    store.row_ids_.push_back(r);
  }
  for (size_t c = 0; c < columns.size(); ++c) {
    store.columns_.push_back(ColumnVector::Build(std::move(data[c])));
    store.index_[columns[c]] = c;
  }
  FSDM_COUNT("fsdm_imc_populated_rows_total", evaluated);
  size_t bytes = store.row_ids_.size() * sizeof(size_t);
  for (const ColumnVector& c : store.columns_) bytes += c.MemoryBytes();
  store.memory_bytes_ = bytes;
  FSDM_GAUGE_SET("fsdm_imc_bytes", store.MemoryBytes());
  return store;
}

const ColumnVector* ColumnStore::column(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? nullptr : &columns_[it->second];
}

namespace {

class ImcScanOp final : public rdbms::Operator {
 public:
  ImcScanOp(const ColumnStore* store, std::vector<std::string> columns)
      : store_(store) {
    if (columns.empty()) columns = store->column_names();
    for (const std::string& name : columns) {
      cols_.push_back(store->column(name));
    }
    schema_ = rdbms::Schema(std::move(columns));
  }

  Status Open() override {
    for (size_t i = 0; i < cols_.size(); ++i) {
      if (cols_[i] == nullptr) {
        return Status::NotFound("IMC column '" + schema_.columns()[i] + "'");
      }
    }
    next_ = 0;
    return Status::Ok();
  }

  Result<bool> Next(rdbms::Row* out) override {
    if (next_ >= store_->row_count()) return false;
    out->clear();
    for (const ColumnVector* c : cols_) out->push_back(c->GetValue(next_));
    ++next_;
    return true;
  }

  void Close() override {}

 private:
  const ColumnStore* store_;
  std::vector<const ColumnVector*> cols_;
  size_t next_ = 0;
};

}  // namespace

rdbms::OperatorPtr ColumnStore::Scan(std::vector<std::string> columns) const {
  return std::make_unique<ImcScanOp>(this, std::move(columns));
}

Result<std::vector<uint32_t>> ColumnStore::FilterPositions(
    const std::vector<Predicate>& predicates) const {
  FSDM_COUNT("fsdm_imc_filter_scans_total", 1);
  FSDM_TRACE_SPAN(span, "imc", "imc.filter_scan");
  span.AddNumberArg("predicates", static_cast<double>(predicates.size()));
  std::vector<uint32_t> sel;
  bool first = true;
  std::vector<uint32_t> next;
  for (const Predicate& p : predicates) {
    const ColumnVector* col = column(p.column);
    if (col == nullptr) return Status::NotFound("IMC column " + p.column);
    next.clear();
    // Each FilterCompare pass is one vectorized batch over the column.
    FSDM_COUNT("fsdm_imc_scan_batches_total", 1);
    FSDM_RETURN_NOT_OK(
        col->FilterCompare(p.op, p.literal, first ? nullptr : &sel, &next));
    sel = std::move(next);
    next = {};
    first = false;
  }
  if (first) {
    // No predicates: everything matches.
    sel.resize(row_count());
    for (uint32_t i = 0; i < row_count(); ++i) sel[i] = i;
  }
  FSDM_COUNT("fsdm_imc_scan_rows_total", sel.size());
  return sel;
}

Result<std::vector<rdbms::Row>> ColumnStore::FilterScan(
    const std::vector<Predicate>& predicates,
    const std::vector<std::string>& projection) const {
  FSDM_ASSIGN_OR_RETURN(std::vector<uint32_t> sel,
                        FilterPositions(predicates));
  std::vector<const ColumnVector*> cols;
  for (const std::string& name : projection) {
    const ColumnVector* c = column(name);
    if (c == nullptr) return Status::NotFound("IMC column " + name);
    cols.push_back(c);
  }
  std::vector<rdbms::Row> rows;
  rows.reserve(sel.size());
  for (uint32_t i : sel) {
    rdbms::Row row;
    row.reserve(cols.size());
    for (const ColumnVector* c : cols) row.push_back(c->GetValue(i));
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace fsdm::imc
