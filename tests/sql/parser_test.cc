#include "sql/parser.h"

#include <gtest/gtest.h>

#include "telemetry/telemetry.h"

namespace fsdm::sql {
namespace {

using rdbms::ColumnDef;
using rdbms::ColumnType;

constexpr const char* kPo1 =
    R"({"purchaseOrder":{"id":1,"costcenter":"CC1","reference":"r-1",
        "items":[{"partno":"p1","quantity":2,"unitprice":10.5},
                 {"partno":"p2","quantity":1,"unitprice":3}]}})";
constexpr const char* kPo2 =
    R"({"purchaseOrder":{"id":2,"costcenter":"CC2","reference":"r-2",
        "items":[{"partno":"p1","quantity":4,"unitprice":2.25}]}})";
constexpr const char* kPo3 =
    R"({"purchaseOrder":{"id":3,"costcenter":"CC1","reference":"r-3",
        "items":[]}})";

class SqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = db_.CreateTable(
                   "PO", {{.name = "DID", .type = ColumnType::kNumber},
                          {.name = "AMOUNT", .type = ColumnType::kNumber},
                          {.name = "NAME", .type = ColumnType::kString},
                          {.name = "JDOC",
                           .type = ColumnType::kJson,
                           .check_is_json = true}})
                 .MoveValue();
    auto ins = [&](int64_t id, int64_t amt, const char* name,
                   const char* doc) {
      ASSERT_TRUE(table_
                      ->Insert({Value::Int64(id), Value::Int64(amt),
                                Value::String(name), Value::String(doc)})
                      .ok());
    };
    ins(1, 100, "alpha", kPo1);
    ins(2, 250, "beta", kPo2);
    ins(3, 75, "alpha", kPo3);
  }

  std::vector<std::string> Q(const std::string& sql) {
    SqlSession session(&db_);
    Result<std::vector<std::string>> r = session.Query(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n  -> " << r.status().ToString();
    return r.ok() ? r.MoveValue() : std::vector<std::string>{};
  }

  rdbms::Database db_;
  rdbms::Table* table_ = nullptr;
};

TEST_F(SqlTest, SelectStar) {
  std::vector<std::string> rows = Q("SELECT * FROM PO");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].substr(0, 12), "1|100|alpha|");
}

TEST_F(SqlTest, ProjectionAndAliases) {
  EXPECT_EQ(Q("SELECT DID, AMOUNT * 2 AS doubled FROM PO LIMIT 2"),
            (std::vector<std::string>{"1|200", "2|500"}));
  EXPECT_EQ(Q("SELECT NAME FROM PO WHERE DID = 3"),
            std::vector<std::string>{"alpha"});
}

TEST_F(SqlTest, WherePredicates) {
  EXPECT_EQ(Q("SELECT DID FROM PO WHERE AMOUNT > 80 AND NAME = 'alpha'"),
            std::vector<std::string>{"1"});
  EXPECT_EQ(Q("SELECT DID FROM PO WHERE AMOUNT BETWEEN 80 AND 260"),
            (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(Q("SELECT DID FROM PO WHERE NAME IN ('beta', 'gamma')"),
            std::vector<std::string>{"2"});
  EXPECT_EQ(Q("SELECT DID FROM PO WHERE NOT (AMOUNT < 100)"),
            (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(Q("SELECT DID FROM PO WHERE NAME IS NOT NULL AND AMOUNT <> 100"),
            (std::vector<std::string>{"2", "3"}));
}

TEST_F(SqlTest, OrderByAndLimit) {
  EXPECT_EQ(Q("SELECT DID FROM PO ORDER BY AMOUNT DESC"),
            (std::vector<std::string>{"2", "1", "3"}));
  EXPECT_EQ(Q("SELECT DID, AMOUNT FROM PO ORDER BY 2 ASC LIMIT 2"),
            (std::vector<std::string>{"3|75", "1|100"}));
}

TEST_F(SqlTest, GlobalAggregates) {
  EXPECT_EQ(Q("SELECT COUNT(*) FROM PO"), std::vector<std::string>{"3"});
  EXPECT_EQ(Q("SELECT SUM(AMOUNT), MIN(AMOUNT), MAX(AMOUNT) FROM PO"),
            std::vector<std::string>{"425|75|250"});
  EXPECT_EQ(Q("SELECT COUNT(*) FROM PO WHERE AMOUNT >= 100"),
            std::vector<std::string>{"2"});
}

TEST_F(SqlTest, GroupByWithOrderByOrdinal) {
  // Table 13's Q2 shape.
  EXPECT_EQ(Q("SELECT NAME, COUNT(*) FROM PO GROUP BY NAME ORDER BY 1"),
            (std::vector<std::string>{"alpha|2", "beta|1"}));
  EXPECT_EQ(Q("SELECT NAME, SUM(AMOUNT) AS total FROM PO GROUP BY NAME "
              "ORDER BY total DESC"),
            (std::vector<std::string>{"beta|250", "alpha|175"}));
}

TEST_F(SqlTest, ScalarFunctions) {
  EXPECT_EQ(Q("SELECT SUBSTR(NAME, 1, 3) FROM PO WHERE DID = 1"),
            std::vector<std::string>{"alp"});
  EXPECT_EQ(Q("SELECT UPPER(NAME) FROM PO WHERE DID = 2"),
            std::vector<std::string>{"BETA"});
  EXPECT_EQ(Q("SELECT INSTR(NAME, 'e') FROM PO WHERE DID = 2"),
            std::vector<std::string>{"2"});
}

TEST_F(SqlTest, JsonValueAndExists) {
  EXPECT_EQ(
      Q("SELECT JSON_VALUE(JDOC, '$.purchaseOrder.costcenter') FROM PO "
        "WHERE DID = 2"),
      std::vector<std::string>{"CC2"});
  EXPECT_EQ(
      Q("SELECT DID FROM PO WHERE "
        "JSON_EXISTS(JDOC, '$.purchaseOrder.items[*]?(@.quantity > 3)')"),
      std::vector<std::string>{"2"});
  EXPECT_EQ(
      Q("SELECT JSON_VALUE(JDOC, '$.purchaseOrder.id' RETURNING NUMBER) + 10 "
        "FROM PO WHERE DID = 1"),
      std::vector<std::string>{"11"});
  EXPECT_EQ(Q("SELECT DID FROM PO WHERE "
              "JSON_TEXTCONTAINS(JDOC, '$.purchaseOrder.reference', 'r')"),
            (std::vector<std::string>{"1", "2", "3"}));
}

TEST_F(SqlTest, GroupByJsonValue) {
  EXPECT_EQ(
      Q("SELECT JSON_VALUE(JDOC, '$.purchaseOrder.costcenter') AS cc, "
        "COUNT(*) FROM PO GROUP BY JSON_VALUE(JDOC, "
        "'$.purchaseOrder.costcenter') ORDER BY 1"),
      (std::vector<std::string>{"CC1|2", "CC2|1"}));
}

TEST_F(SqlTest, OsonRewrite) {
  SqlSession session(&db_);
  ASSERT_TRUE(session.UseOsonFor("PO", "JDOC").ok());
  // Same SQL text, now transparently evaluated over the hidden OSON column.
  Result<std::vector<std::string>> rows = session.Query(
      "SELECT DID FROM PO WHERE "
      "JSON_EXISTS(JDOC, '$.purchaseOrder.items[*]?(@.partno == \"p1\")') "
      "ORDER BY DID");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows.value(), (std::vector<std::string>{"1", "2"}));
}

TEST_F(SqlTest, ErrorsAreParseErrors) {
  SqlSession session(&db_);
  for (const char* bad :
       {"", "SELECT", "SELECT FROM PO", "SELECT * FROM", "SELECT * FROM NOPE",
        "INSERT INTO PO", "SELECT * FROM PO WHERE", "SELECT * FROM PO GROUP",
        "SELECT * FROM PO ORDER BY 9", "SELECT * FROM PO extra",
        "SELECT COUNT( FROM PO", "SELECT 'unterminated FROM PO",
        "SELECT JSON_VALUE(JDOC) FROM PO",
        "SELECT COUNT(*) FROM PO WHERE COUNT(*) > 1"}) {
    EXPECT_FALSE(session.Query(bad).ok()) << "should reject: " << bad;
  }
}

TEST_F(SqlTest, KeywordsAreCaseInsensitive) {
  EXPECT_EQ(Q("select DID from PO where AMOUNT > 200"),
            std::vector<std::string>{"2"});
}

TEST_F(SqlTest, QuotedIdentifiersAndStringEscapes) {
  EXPECT_EQ(Q("SELECT \"NAME\" FROM PO WHERE NAME = 'alpha' AND DID = 1"),
            std::vector<std::string>{"alpha"});
  // Doubled single quote inside a string literal.
  EXPECT_EQ(Q("SELECT COUNT(*) FROM PO WHERE NAME = 'it''s'"),
            std::vector<std::string>{"0"});
}

TEST_F(SqlTest, TableQualifiedColumns) {
  EXPECT_EQ(Q("SELECT PO.DID FROM PO WHERE PO.AMOUNT = 250"),
            std::vector<std::string>{"2"});
}

TEST_F(SqlTest, TelemetryMetricsVirtualTable) {
  // Seed a counter through the registry API directly.
  telemetry::MetricsRegistry::Global()
      .GetCounter("fsdm_test_sql_counter_total")
      ->Add(5);
  EXPECT_EQ(Q("SELECT NAME, KIND, VALUE FROM TELEMETRY$METRICS "
              "WHERE NAME = 'fsdm_test_sql_counter_total'"),
            std::vector<std::string>{"fsdm_test_sql_counter_total|counter|5"});
  // Case-insensitive like every other table name, and real tables still
  // shadow nothing: unknown names keep failing.
  EXPECT_EQ(Q("SELECT COUNT(*) FROM telemetry$metrics "
              "WHERE KIND = 'counter' AND NAME = 'fsdm_test_sql_counter_total'"),
            std::vector<std::string>{"1"});
  SqlSession session(&db_);
  EXPECT_FALSE(session.Query("SELECT * FROM TELEMETRY$NOPE").ok());
}

}  // namespace
}  // namespace fsdm::sql
