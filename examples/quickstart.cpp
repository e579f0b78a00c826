// Quickstart: "write without schema, read with schema".
//
// A JsonCollection bundles the whole document stack — table with IS JSON
// constraint, search index, DataGuide — behind one facade. Store
// schema-less JSON, let the DataGuide derive itself, then add JSON_VALUE
// virtual columns and query the collection relationally.

#include <cstdio>

#include "collection/collection.h"
#include "rdbms/executor.h"

using namespace fsdm;

#define CHECK_OK(expr)                                          \
  do {                                                          \
    auto&& _r = (expr);                                           \
    if (!_r.ok()) {                                             \
      fprintf(stderr, "FAILED: %s\n", _r.status().ToString().c_str()); \
      return 1;                                                 \
    }                                                           \
  } while (0)

int main() {
  // 1. A collection: backing table with a JSON document column (no schema
  //    declared for the documents), search index, and persistent DataGuide
  //    — wired in one call.
  rdbms::Database db;
  collection::CollectionOptions opts;
  opts.key_column = "ID";
  opts.json_column = "DOC";
  auto coll = collection::JsonCollection::Create(&db, "EVENTS", opts)
                  .MoveValue();

  // 2. Write without schema.
  const char* docs[] = {
      R"({"user":"ada","action":"login","device":{"os":"linux","ver":6}})",
      R"({"user":"grace","action":"purchase","amount":99.95,
          "items":[{"sku":"A-1","qty":2},{"sku":"B-9","qty":1}]})",
      R"({"user":"ada","action":"logout","device":{"os":"linux","ver":6}})",
  };
  for (const char* doc : docs) CHECK_OK(coll->Insert(doc));
  // Malformed documents are rejected by the IS JSON constraint:
  auto bad = coll->Insert("{oops");
  printf("malformed insert rejected: %s\n\n", bad.status().ToString().c_str());

  // 3. Read with schema: the DataGuide was derived automatically.
  printf("getDataGuide() [flat form]:\n%s\n\n",
         coll->search_index()->GetDataGuide(false).c_str());

  // 4. AddVC(): project singleton scalars as virtual columns.
  auto added = coll->AddInferredVirtualColumns();
  CHECK_OK(added);
  printf("virtual columns added:");
  for (const auto& name : added.value()) printf(" %s", name.c_str());
  printf("\n\n");

  // 5. Ordinary SQL over the virtual columns.
  auto plan = rdbms::Project(
      rdbms::Filter(coll->Scan(),
                    rdbms::Eq(rdbms::Col("DOC$user"),
                              rdbms::Lit(Value::String("ada")))),
      {{"ID", rdbms::Col("ID")}, {"ACTION", rdbms::Col("DOC$action")}});
  auto rows = rdbms::CollectStrings(plan.get());
  CHECK_OK(rows);
  printf("SELECT id, action WHERE user = 'ada':\n");
  for (const auto& row : rows.value()) printf("  %s\n", row.c_str());

  // 6. Routed execution: the collection picks the access path (here the
  //    index's value postings) from its DataGuide statistics.
  auto routed = coll->Route({collection::PathPredicate::Compare(
                    "$.user", rdbms::CompareOp::kEq,
                    Value::String("ada"))})
                    .MoveValue();
  printf("\nrouter chose: %s (%s)\n",
         collection::AccessPathName(routed.access_path),
         routed.trace.decision.reason().c_str());
  auto routed_rows = rdbms::CollectStrings(routed.plan.get());
  CHECK_OK(routed_rows);
  for (const auto& row : routed_rows.value()) printf("  %s\n", row.c_str());

  // 7. Ad-hoc structural search through the index.
  printf("\ndocs containing path $.items: ");
  for (size_t r : coll->search_index()->DocsWithPath("$.items")) {
    printf("row%zu ", r);
  }
  printf("\ndocs with keyword 'purchase' under $.action: ");
  for (size_t r :
       coll->search_index()->DocsWithKeyword("$.action", "purchase")) {
    printf("row%zu ", r);
  }
  printf("\n");
  return 0;
}
