// The ISSUE 4 flight recorder end to end: arm the recorder, run NOBENCH
// DML and a routed query, then look at what the engine did three ways —
// a chrome trace dumped to disk (load it in chrome://tracing or
// https://ui.perfetto.dev), the TELEMETRY$EVENTS relation queried through
// the SQL mini-engine, and the slow-query log capturing the query's
// EXPLAIN ANALYZE tree because the threshold was set to zero.

#include <cstdio>

#include "collection/collection.h"
#include "collection/router.h"
#include "rdbms/executor.h"
#include "sql/parser.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/slow_query.h"
#include "workloads/generators.h"

using namespace fsdm;

#define CHECK_OK(expr)                                                 \
  do {                                                                 \
    auto&& _r = (expr);                                                \
    if (!_r.ok()) {                                                    \
      fprintf(stderr, "FAILED: %s\n", _r.status().ToString().c_str()); \
      return 1;                                                        \
    }                                                                  \
  } while (0)

int main() {
  telemetry::FlightRecorder::Global().Arm();
  telemetry::SlowQueryLog::Global().SetThresholdUs(0);  // capture everything

  rdbms::Database db;
  auto nb = collection::JsonCollection::Create(&db, "NB").MoveValue();

  Rng rng(7);
  const size_t kDocs = 500;
  for (size_t i = 0; i < kDocs; ++i) {
    CHECK_OK(nb->Insert(Value::Int64(static_cast<int64_t>(i)),
                        workloads::Nobench(&rng, static_cast<int64_t>(i))));
  }
  printf("loaded %zu NOBENCH documents with the recorder armed\n", kDocs);

  // A routed query: the router span, the winner instant and the operator
  // open/close spans all land in the trace.
  auto routed = collection::RoutePredicates(
                    *nb, {collection::PathPredicate::Exists(
                             "$.sparse_110")})
                    .MoveValue();
  auto rows = rdbms::Collect(routed.plan.get());
  CHECK_OK(rows);
  printf("routed query (%s) returned %zu rows\n\n",
         collection::AccessPathName(routed.access_path), rows.value().size());

  // 1. The chrome trace.
  const char* trace_path = "flight_recorder_trace.json";
  if (telemetry::FlightRecorder::Global().DumpChromeTrace(trace_path)) {
    printf("chrome trace written to %s — open chrome://tracing and load "
           "it\n\n", trace_path);
  }

  // 2. The same events through SQL.
  sql::SqlSession session(&db);
  auto dml = session.Query(
      "SELECT CATEGORY, NAME, DUR_US FROM TELEMETRY$EVENTS "
      "WHERE PHASE = 'E' AND CATEGORY = 'collection' LIMIT 5");
  CHECK_OK(dml);
  printf("TELEMETRY$EVENTS (first 5 collection span-ends):\n");
  for (const std::string& row : dml.value()) printf("  %s\n", row.c_str());

  // 3. The slow-query log: every query qualified at threshold 0.
  auto slow = session.Query(
      "SELECT ACCESS_PATH, ELAPSED_US, ROWS, EVENT_COUNT "
      "FROM TELEMETRY$SLOW_QUERIES");
  CHECK_OK(slow);
  printf("\nTELEMETRY$SLOW_QUERIES:\n");
  for (const std::string& row : slow.value()) printf("  %s\n", row.c_str());

  auto snap = telemetry::SlowQueryLog::Global().Snapshot();
  if (!snap.empty()) {
    printf("\ncaptured trace for the slowest query:\n%s\n",
           snap.back().trace_text.c_str());
  }
  return 0;
}
