#ifndef FSDM_IMC_COLUMN_STORE_H_
#define FSDM_IMC_COLUMN_STORE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "rdbms/executor.h"
#include "rdbms/table.h"

namespace fsdm::imc {

/// Heap bytes a std::string occupies beyond its inline object: 0 while the
/// payload fits the SSO buffer, capacity()+1 (the allocated block includes
/// the terminator) once it has spilled. Exported so tests can pin the
/// MemoryBytes() accounting exactly.
size_t StringHeapBytes(const std::string& s);
/// sizeof(std::string) plus StringHeapBytes — the full footprint of one
/// owned string element.
size_t StringAllocBytes(const std::string& s);
/// Heap footprint of one shared binary payload (Value::BinaryPayload()):
/// the single std::make_shared block holding the reference counts and the
/// std::string object, plus that string's own StringHeapBytes.
size_t SharedPayloadHeapBytes(const std::string& s);

/// Physical layout of one in-memory column.
enum class ColumnEncoding : uint8_t {
  kInt64,       ///< flat int64 array
  kNumber,      ///< mixed numeric -> doubles (exact ints kept when possible)
  kString,      ///< flat string array
  kDictString,  ///< dictionary-encoded strings (codes + sorted dictionary)
  kBool,
  kBinary,      ///< shared immutable byte payloads (OSON/BSON images)
  kMixed,       ///< fallback: boxed Values
};

/// One materialized column: typed storage + null bitmap + vectorized
/// predicate kernels. The IMC columnar format of §5.2.1 — virtual-column
/// expressions (JSON_VALUE) are evaluated once at population time, after
/// which predicates and projections run over flat arrays.
class ColumnVector {
 public:
  /// Chooses the narrowest encoding that fits the values. Strings
  /// dictionary-encode when the distinct ratio is below 50%.
  static ColumnVector Build(std::vector<Value> values);

  size_t size() const { return size_; }
  ColumnEncoding encoding() const { return encoding_; }
  bool IsNull(size_t row) const { return nulls_[row]; }
  Value GetValue(size_t row) const;

  /// Vectorized filter: appends to *out the positions from `in` (or all
  /// rows when `in` is nullptr) where `value op literal` holds. NULLs never
  /// match. Runs as a tight loop over the typed array — the columnar SIMD
  /// stand-in.
  Status FilterCompare(rdbms::CompareOp op, const Value& literal,
                       const std::vector<uint32_t>* in,
                       std::vector<uint32_t>* out) const;

  /// Sum over a selection (numeric encodings only), as double.
  Result<double> SumSelected(const std::vector<uint32_t>& sel) const;

  /// Bytes of this column's payload: null/bool bitmaps at one bit per row
  /// (rounded up), typed arrays at element width times size(), dictionary
  /// codes at 4 bytes each plus the dictionary's strings, string payloads
  /// at their allocated capacity (StringAllocBytes), binary rows at one
  /// shared_ptr each plus SharedPayloadHeapBytes per non-null payload, and
  /// boxed values at sizeof(Value) plus any string/binary heap. A payload
  /// counts in full in every column that holds it.
  size_t MemoryBytes() const;

 private:
  ColumnEncoding encoding_ = ColumnEncoding::kMixed;
  size_t size_ = 0;
  std::vector<bool> nulls_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;   // kString values / kDictString dict
  std::vector<uint32_t> codes_;        // kDictString
  std::vector<bool> bools_;
  // kBinary: the Values' own payloads, shared rather than copied, so a scan
  // hands out an image with a reference-count bump. Null rows hold nullptr.
  std::vector<std::shared_ptr<const std::string>> payloads_;
  std::vector<Value> boxed_;           // kMixed
};

/// A populated in-memory column store over a table (§5.2): evaluates the
/// requested columns — including virtual columns such as JSON_VALUE
/// projections and the hidden OSON() column — once per row at population
/// time, then serves scans from the columnar image.
class ColumnStore {
 public:
  /// Populates `columns` of `table` (hidden virtual columns included when
  /// named explicitly). Deleted rows are skipped.
  ///
  /// With a `prior` store over the same columns, a live row that `prior`
  /// holds and `dirty` does not mark (row id < dirty.size() and set) keeps
  /// its values from `prior`; every other live row is evaluated. kNumber
  /// columns keep only doubles, which cannot give back the Int64/Decimal
  /// the expression produced, so those columns alone are re-evaluated on
  /// kept rows. fsdm_imc_populated_rows_total counts the evaluated rows.
  static Result<ColumnStore> Populate(const rdbms::Table& table,
                                      const std::vector<std::string>& columns,
                                      const ColumnStore* prior = nullptr,
                                      const std::vector<bool>& dirty = {});

  size_t row_count() const { return row_ids_.size(); }
  /// Table row id of each position, ascending.
  const std::vector<size_t>& row_ids() const { return row_ids_; }
  const std::vector<std::string>& column_names() const { return names_; }
  /// nullptr when absent.
  const ColumnVector* column(const std::string& name) const;

  /// Columnar image footprint: every column plus the row-id array.
  /// Computed once at Populate() (the vectors are immutable afterwards)
  /// and served from a cached value, so the owning shard publishes it
  /// without re-walking every dictionary string.
  size_t MemoryBytes() const { return memory_bytes_; }

  /// Row-source over the store (optionally only `columns`), so ordinary
  /// executor plans can consume IMC data.
  rdbms::OperatorPtr Scan(std::vector<std::string> columns = {}) const;

  /// Vectorized scan: conjunctive column predicates evaluated via
  /// ColumnVector::FilterCompare, then `projection` columns of the
  /// surviving rows are emitted. This is the genuine columnar path used by
  /// the VC-IMC mode of Fig. 6.
  struct Predicate {
    std::string column;
    rdbms::CompareOp op;
    Value literal;
  };
  Result<std::vector<rdbms::Row>> FilterScan(
      const std::vector<Predicate>& predicates,
      const std::vector<std::string>& projection) const;

  /// Matching positions only (for counting / joining).
  Result<std::vector<uint32_t>> FilterPositions(
      const std::vector<Predicate>& predicates) const;

 private:
  std::vector<std::string> names_;
  std::map<std::string, size_t> index_;
  std::vector<ColumnVector> columns_;
  std::vector<size_t> row_ids_;
  size_t memory_bytes_ = 0;  // cached at Populate; columns are immutable
};

}  // namespace fsdm::imc

#endif  // FSDM_IMC_COLUMN_STORE_H_
