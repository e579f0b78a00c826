#include "imc/column_store.h"

#include <gtest/gtest.h>

#include "sqljson/operators.h"

namespace fsdm::imc {
namespace {

using rdbms::ColumnDef;
using rdbms::ColumnType;
using rdbms::CompareOp;
using rdbms::Row;
using rdbms::Table;

std::vector<Value> Ints(std::initializer_list<int64_t> vs) {
  std::vector<Value> out;
  for (int64_t v : vs) out.push_back(Value::Int64(v));
  return out;
}

TEST(ColumnVectorTest, EncodingSelection) {
  EXPECT_EQ(ColumnVector::Build(Ints({1, 2, 3})).encoding(),
            ColumnEncoding::kInt64);
  EXPECT_EQ(ColumnVector::Build({Value::Int64(1), Value::Double(2.5)})
                .encoding(),
            ColumnEncoding::kNumber);
  EXPECT_EQ(ColumnVector::Build({Value::Bool(true), Value::Null()})
                .encoding(),
            ColumnEncoding::kBool);
  EXPECT_EQ(ColumnVector::Build({Value::String("a"), Value::String("b")})
                .encoding(),
            ColumnEncoding::kString);
  EXPECT_EQ(ColumnVector::Build({Value::Int64(1), Value::String("x")})
                .encoding(),
            ColumnEncoding::kMixed);
}

TEST(ColumnVectorTest, DictionaryEncodingKicksInForRepetitiveStrings) {
  std::vector<Value> vals;
  for (int i = 0; i < 100; ++i) {
    vals.push_back(Value::String(i % 3 == 0 ? "aa" : (i % 3 == 1 ? "bb" : "cc")));
  }
  ColumnVector col = ColumnVector::Build(vals);
  EXPECT_EQ(col.encoding(), ColumnEncoding::kDictString);
  EXPECT_EQ(col.GetValue(0).AsString(), "aa");
  EXPECT_EQ(col.GetValue(1).AsString(), "bb");
}

TEST(ColumnVectorTest, NullsPreserved) {
  ColumnVector col =
      ColumnVector::Build({Value::Int64(1), Value::Null(), Value::Int64(3)});
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_TRUE(col.GetValue(1).is_null());
  EXPECT_EQ(col.GetValue(2).AsInt64(), 3);
}

TEST(ColumnVectorTest, FilterCompareInt) {
  ColumnVector col = ColumnVector::Build(Ints({5, 10, 15, 20, 25}));
  std::vector<uint32_t> out;
  ASSERT_TRUE(
      col.FilterCompare(CompareOp::kGt, Value::Int64(12), nullptr, &out)
          .ok());
  EXPECT_EQ(out, (std::vector<uint32_t>{2, 3, 4}));
  // Chained selection.
  std::vector<uint32_t> out2;
  ASSERT_TRUE(
      col.FilterCompare(CompareOp::kLt, Value::Int64(25), &out, &out2).ok());
  EXPECT_EQ(out2, (std::vector<uint32_t>{2, 3}));
}

TEST(ColumnVectorTest, FilterCompareFractionalLiteralOnIntColumn) {
  ColumnVector col = ColumnVector::Build(Ints({1, 2, 3}));
  std::vector<uint32_t> out;
  ASSERT_TRUE(col.FilterCompare(CompareOp::kGe,
                                Value::Double(1.5), nullptr, &out)
                  .ok());
  EXPECT_EQ(out, (std::vector<uint32_t>{1, 2}));
}

TEST(ColumnVectorTest, FilterCompareDictString) {
  std::vector<Value> vals;
  for (int i = 0; i < 30; ++i) {
    vals.push_back(Value::String(i % 2 ? "xx" : "yy"));
  }
  ColumnVector col = ColumnVector::Build(vals);
  ASSERT_EQ(col.encoding(), ColumnEncoding::kDictString);
  std::vector<uint32_t> out;
  ASSERT_TRUE(col.FilterCompare(CompareOp::kEq, Value::String("xx"), nullptr,
                                &out)
                  .ok());
  EXPECT_EQ(out.size(), 15u);
  out.clear();
  ASSERT_TRUE(col.FilterCompare(CompareOp::kGt, Value::String("xx"), nullptr,
                                &out)
                  .ok());
  EXPECT_EQ(out.size(), 15u);  // the "yy"s
  out.clear();
  ASSERT_TRUE(col.FilterCompare(CompareOp::kEq, Value::String("zz"), nullptr,
                                &out)
                  .ok());
  EXPECT_TRUE(out.empty());
}

TEST(ColumnVectorTest, NullsNeverMatchFilters) {
  ColumnVector col =
      ColumnVector::Build({Value::Int64(1), Value::Null(), Value::Int64(3)});
  std::vector<uint32_t> out;
  ASSERT_TRUE(
      col.FilterCompare(CompareOp::kGe, Value::Int64(0), nullptr, &out).ok());
  EXPECT_EQ(out, (std::vector<uint32_t>{0, 2}));
}

TEST(ColumnVectorTest, TypeMismatchedFilterErrors) {
  ColumnVector col = ColumnVector::Build(Ints({1}));
  std::vector<uint32_t> out;
  EXPECT_FALSE(
      col.FilterCompare(CompareOp::kEq, Value::String("x"), nullptr, &out)
          .ok());
}

TEST(ColumnVectorTest, SumSelected) {
  ColumnVector col = ColumnVector::Build(Ints({10, 20, 30}));
  std::vector<uint32_t> sel = {0, 2};
  EXPECT_DOUBLE_EQ(col.SumSelected(sel).value(), 40.0);
  ColumnVector strs = ColumnVector::Build({Value::String("a")});
  EXPECT_FALSE(strs.SumSelected(sel).ok());
}

class ColumnStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<Table>(
        "T", std::vector<ColumnDef>{
                 {.name = "id", .type = ColumnType::kNumber},
                 {.name = "doc",
                  .type = ColumnType::kJson,
                  .check_is_json = true},
             });
    // JSON_VALUE virtual column (the §5.2.1 columnar projection).
    ColumnDef vc;
    vc.name = "num_vc";
    vc.type = ColumnType::kNumber;
    vc.virtual_expr =
        sqljson::JsonValue("doc", "$.num", sqljson::JsonStorage::kText,
                           sqljson::Returning::kNumber)
            .MoveValue();
    ASSERT_TRUE(table_->AddVirtualColumn(vc).ok());
    // Hidden OSON image column (§5.2.2).
    ColumnDef oson;
    oson.name = "OSON_IMG";
    oson.type = ColumnType::kRaw;
    oson.hidden = true;
    oson.virtual_expr = sqljson::OsonConstructor("doc");
    ASSERT_TRUE(table_->AddVirtualColumn(oson).ok());

    for (int i = 0; i < 50; ++i) {
      std::string doc = "{\"num\":" + std::to_string(i * 10) +
                        ",\"tag\":\"t" + std::to_string(i % 4) + "\"}";
      ASSERT_TRUE(
          table_->Insert({Value::Int64(i), Value::String(doc)}).ok());
    }
  }

  std::unique_ptr<Table> table_;
};

TEST_F(ColumnStoreTest, PopulateEvaluatesVirtualColumnsOnce) {
  ColumnStore store =
      ColumnStore::Populate(*table_, {"id", "num_vc"}).MoveValue();
  EXPECT_EQ(store.row_count(), 50u);
  const ColumnVector* vc = store.column("num_vc");
  ASSERT_NE(vc, nullptr);
  EXPECT_EQ(vc->encoding(), ColumnEncoding::kInt64);
  EXPECT_EQ(vc->GetValue(7).AsInt64(), 70);
}

TEST_F(ColumnStoreTest, HiddenOsonColumnLoadsByName) {
  ColumnStore store =
      ColumnStore::Populate(*table_, {"id", "OSON_IMG"}).MoveValue();
  const ColumnVector* img = store.column("OSON_IMG");
  ASSERT_NE(img, nullptr);
  EXPECT_EQ(img->encoding(), ColumnEncoding::kBinary);
  Value v = img->GetValue(3);
  EXPECT_EQ(v.type(), ScalarType::kBinary);
  EXPECT_EQ(v.AsBinary().substr(0, 4), "OSON");
}

TEST_F(ColumnStoreTest, PopulateSkipsDeletedRows) {
  ASSERT_TRUE(table_->Delete(0).ok());
  ASSERT_TRUE(table_->Delete(10).ok());
  ColumnStore store = ColumnStore::Populate(*table_, {"id"}).MoveValue();
  EXPECT_EQ(store.row_count(), 48u);
}

TEST_F(ColumnStoreTest, UnknownColumnFails) {
  EXPECT_FALSE(ColumnStore::Populate(*table_, {"nope"}).ok());
}

TEST_F(ColumnStoreTest, ScanFeedsExecutorPlans) {
  ColumnStore store =
      ColumnStore::Populate(*table_, {"id", "num_vc"}).MoveValue();
  auto plan = rdbms::Filter(store.Scan(),
                            rdbms::Ge(rdbms::Col("num_vc"),
                                      rdbms::Lit(Value::Int64(480))));
  Result<std::vector<Row>> rows = rdbms::Collect(plan.get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 2u);  // 480, 490
}

TEST_F(ColumnStoreTest, FilterScanVectorized) {
  ColumnStore store =
      ColumnStore::Populate(*table_, {"id", "num_vc"}).MoveValue();
  Result<std::vector<Row>> rows = store.FilterScan(
      {{"num_vc", CompareOp::kGe, Value::Int64(100)},
       {"num_vc", CompareOp::kLt, Value::Int64(150)}},
      {"id"});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 5u);  // 100..140
  EXPECT_EQ(rows.value()[0][0].AsInt64(), 10);
}

TEST_F(ColumnStoreTest, FilterPositionsEmptyPredicateMatchesAll) {
  ColumnStore store = ColumnStore::Populate(*table_, {"id"}).MoveValue();
  Result<std::vector<uint32_t>> pos = store.FilterPositions({});
  ASSERT_TRUE(pos.ok());
  EXPECT_EQ(pos.value().size(), 50u);
}

TEST_F(ColumnStoreTest, MemoryAccounting) {
  ColumnStore store =
      ColumnStore::Populate(*table_, {"id", "num_vc"}).MoveValue();
  EXPECT_GT(store.MemoryBytes(), 50u * 8u);
}

TEST_F(ColumnStoreTest, RowIdsSkipDeletedRows) {
  ASSERT_TRUE(table_->Delete(0).ok());
  ASSERT_TRUE(table_->Delete(10).ok());
  ColumnStore store = ColumnStore::Populate(*table_, {"id"}).MoveValue();
  ASSERT_EQ(store.row_ids().size(), 48u);
  EXPECT_EQ(store.row_ids()[0], 1u);
  EXPECT_EQ(store.row_ids()[9], 11u);
}

TEST_F(ColumnStoreTest, PopulateFromPriorKeepsCleanRowsOnly) {
  ColumnStore prior =
      ColumnStore::Populate(*table_, {"id", "num_vc"}).MoveValue();
  // Replace row 3 behind the store's back, then refresh with row 3 dirty:
  // the new value shows up, and the clean rows keep theirs.
  ASSERT_TRUE(
      table_->Replace(3, {Value::Int64(3), Value::String(R"({"num":-1})")})
          .ok());
  std::vector<bool> dirty(4, false);
  dirty[3] = true;
  ColumnStore store =
      ColumnStore::Populate(*table_, {"id", "num_vc"}, &prior, dirty)
          .MoveValue();
  EXPECT_EQ(store.row_ids(), prior.row_ids());
  EXPECT_EQ(store.column("num_vc")->GetValue(3).AsInt64(), -1);
  EXPECT_EQ(store.column("num_vc")->GetValue(4).AsInt64(), 40);
  // A prior store over other columns cannot seed the refresh.
  EXPECT_FALSE(ColumnStore::Populate(*table_, {"id"}, &prior, dirty).ok());
}

// Pins the MemoryBytes() accounting for every encoding Build() produces:
// bitmaps at one bit per row rounded up, typed arrays at element width,
// dictionary codes at 4 bytes plus the dictionary's own strings, string
// payloads through StringAllocBytes, shared binary payloads through
// SharedPayloadHeapBytes, boxed values at sizeof(Value) plus spilled heap.
TEST(ColumnVectorTest, MemoryBytesPinnedPerEncoding) {
  auto bitmap = [](size_t rows) { return (rows + 7) / 8; };

  // kInt64: null bitmap + 8 bytes per row.
  EXPECT_EQ(ColumnVector::Build(Ints({1, 2, 3})).MemoryBytes(),
            bitmap(3) + 3 * sizeof(int64_t));

  // kNumber: mixed numerics widen to doubles.
  ColumnVector num =
      ColumnVector::Build({Value::Int64(1), Value::Double(2.5)});
  ASSERT_EQ(num.encoding(), ColumnEncoding::kNumber);
  EXPECT_EQ(num.MemoryBytes(), bitmap(2) + 2 * sizeof(double));

  // kBool: two bitmaps (nulls + values), both rounded up.
  ColumnVector bools = ColumnVector::Build(
      {Value::Bool(true), Value::Null(), Value::Bool(false)});
  ASSERT_EQ(bools.encoding(), ColumnEncoding::kBool);
  EXPECT_EQ(bools.MemoryBytes(), 2 * bitmap(3));

  // kString, SSO payloads: no heap block, just the inline objects.
  ColumnVector sso =
      ColumnVector::Build({Value::String("a"), Value::String("b")});
  ASSERT_EQ(sso.encoding(), ColumnEncoding::kString);
  EXPECT_EQ(StringHeapBytes(std::string("a")), 0u);
  EXPECT_EQ(sso.MemoryBytes(), bitmap(2) + 2 * StringAllocBytes("a"));

  // kString, spilled payloads: the allocated block (capacity + NUL)
  // counts, not the logical size.
  std::string long_a(40, 'a'), long_b(48, 'b');
  ColumnVector spilled = ColumnVector::Build(
      {Value::String(long_a), Value::String(long_b)});
  ASSERT_EQ(spilled.encoding(), ColumnEncoding::kString);
  EXPECT_GT(StringHeapBytes(long_a), long_a.size());
  EXPECT_EQ(spilled.MemoryBytes(), bitmap(2) + StringAllocBytes(long_a) +
                                       StringAllocBytes(long_b));

  // kDictString: 4-byte codes per row + the dictionary's strings once —
  // NOT one string per row (the pre-fix accounting billed nothing for the
  // dictionary's allocation and undercounted bitmaps).
  std::vector<Value> rep;
  for (int i = 0; i < 30; ++i) rep.push_back(Value::String(i % 2 ? "xx" : "yy"));
  ColumnVector dict = ColumnVector::Build(rep);
  ASSERT_EQ(dict.encoding(), ColumnEncoding::kDictString);
  EXPECT_EQ(dict.MemoryBytes(), bitmap(30) + 30 * sizeof(uint32_t) +
                                    2 * StringAllocBytes("xx"));

  // kBinary: one shared_ptr per row, plus per non-null payload the
  // make_shared block (control block: vtable pointer and two counts; then
  // the std::string object) and the string's own heap block.
  const size_t control_block = sizeof(void*) + 2 * sizeof(int);
  EXPECT_EQ(SharedPayloadHeapBytes(long_a),
            control_block + sizeof(std::string) + StringHeapBytes(long_a));
  ColumnVector bin = ColumnVector::Build(
      {Value::Binary("raw"), Value::Null(), Value::Binary(long_b)});
  ASSERT_EQ(bin.encoding(), ColumnEncoding::kBinary);
  const size_t slot = sizeof(std::shared_ptr<const std::string>);
  EXPECT_EQ(bin.MemoryBytes(),
            bitmap(3) + 3 * slot + 2 * (control_block + sizeof(std::string)) +
                StringHeapBytes(long_b));

  // kMixed: boxed Values; only string/binary payloads add heap.
  ColumnVector mixed =
      ColumnVector::Build({Value::Int64(1), Value::String(long_a)});
  ASSERT_EQ(mixed.encoding(), ColumnEncoding::kMixed);
  EXPECT_EQ(mixed.MemoryBytes(),
            bitmap(2) + 2 * sizeof(Value) + StringHeapBytes(long_a));
}

// A store's footprint is its columns plus one table row id per position.
TEST_F(ColumnStoreTest, StoreMemoryBytesPinned) {
  ASSERT_TRUE(table_->Delete(5).ok());
  ColumnStore store =
      ColumnStore::Populate(*table_, {"id", "num_vc", "OSON_IMG"})
          .MoveValue();
  ASSERT_EQ(store.row_count(), 49u);
  size_t columns = 0;
  for (const std::string& name : store.column_names()) {
    columns += store.column(name)->MemoryBytes();
  }
  EXPECT_EQ(store.MemoryBytes(), columns + 49 * sizeof(size_t));
}

}  // namespace
}  // namespace fsdm::imc
