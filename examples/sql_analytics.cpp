// SQL-text analytics over a schema-less JSON collection: the Table 13
// query shapes typed as plain SQL, first over JSON text, then transparently
// rewritten onto the hidden OSON virtual column (§5.2.2) — same SQL, same
// answers, different physical access.

#include <chrono>
#include <cstdio>

#include "collection/collection.h"
#include "sql/parser.h"
#include "workloads/generators.h"

using namespace fsdm;

static double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

int main() {
  rdbms::Database db;
  collection::CollectionOptions opts;
  // The SQL session installs its own hidden OSON column on UseOsonFor()
  // (§5.2.2); no index — this example is about the SQL surface.
  opts.attach_search_index = false;
  auto po = collection::JsonCollection::Create(&db, "PO", opts).MoveValue();
  Rng rng(77);
  for (int64_t i = 1; i <= 1500; ++i) {
    auto r = po->Insert(Value::Int64(i), workloads::PurchaseOrder(&rng, i));
    if (!r.ok()) {
      fprintf(stderr, "insert failed: %s\n", r.status().ToString().c_str());
      return 1;
    }
  }

  const char* queries[] = {
      // Q2-style: orders per cost center.
      "SELECT JSON_VALUE(JDOC, '$.purchaseOrder.costcenter') AS cc, COUNT(*) "
      "FROM PO GROUP BY JSON_VALUE(JDOC, '$.purchaseOrder.costcenter') "
      "ORDER BY 2 DESC LIMIT 5",
      // Existence predicate with a path filter.
      "SELECT COUNT(*) FROM PO WHERE "
      "JSON_EXISTS(JDOC, '$.purchaseOrder.items[*]?(@.quantity > 18)')",
      // Scalar projection + SQL functions.
      "SELECT SUBSTR(JSON_VALUE(JDOC, '$.purchaseOrder.reference'), 1, 12), "
      "JSON_VALUE(JDOC, '$.purchaseOrder.id' RETURNING NUMBER) "
      "FROM PO WHERE JSON_VALUE(JDOC, '$.purchaseOrder.id' RETURNING "
      "NUMBER) BETWEEN 3 AND 5 ORDER BY 2",
  };

  for (int pass = 0; pass < 2; ++pass) {
    sql::SqlSession session(&db);
    if (pass == 1) {
      // §5.2.2: same SQL text now navigates the hidden OSON image.
      if (!session.UseOsonFor("PO", "JDOC").ok()) return 1;
    }
    printf("=== pass %d: %s ===\n", pass + 1,
           pass == 0 ? "JSON text storage" : "transparent OSON rewrite");
    for (const char* q : queries) {
      auto t0 = std::chrono::steady_clock::now();
      auto rows = session.Query(q);
      if (!rows.ok()) {
        fprintf(stderr, "query failed: %s\n  %s\n", q,
                rows.status().ToString().c_str());
        return 1;
      }
      printf("%.60s...\n", q);
      for (const auto& row : rows.value()) printf("    %s\n", row.c_str());
      printf("    (%.2f ms)\n", MsSince(t0));
    }
    printf("\n");
  }
  printf(
      "Identical result sets; pass 2 answered every SQL/JSON operator from\n"
      "the OSON binary image instead of re-parsing text.\n");
  return 0;
}
