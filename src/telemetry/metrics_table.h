#ifndef FSDM_TELEMETRY_METRICS_TABLE_H_
#define FSDM_TELEMETRY_METRICS_TABLE_H_

#include "rdbms/executor.h"

namespace fsdm::telemetry {

/// Name under which the SQL mini-engine exposes the metrics relation
/// (metrics-as-relations: everything observable through SQL, matching the
/// paper's stance that JSON functionality lives inside the RDBMS).
inline constexpr const char* kMetricsTableName = "TELEMETRY$METRICS";

/// Row source over a snapshot of MetricsRegistry::Global(), taken at
/// Open(). Schema: (NAME, KIND, VALUE, COUNT, SUM, MIN, MAX, P50, P95,
/// P99) — VALUE carries counter/gauge readings, the statistics columns are
/// non-NULL for histograms only.
rdbms::OperatorPtr MetricsScan();

/// Flight-recorder snapshot as a relation (ISSUE 4). Schema: (TS_US,
/// THREAD, CATEGORY, NAME, PHASE, DUR_US, ARGS); PHASE is the Chrome
/// phase letter (B/E/I/C), DUR_US is NULL except on span ends, ARGS is the
/// {"k":v} JSON rendering of the event's args.
inline constexpr const char* kEventsTableName = "TELEMETRY$EVENTS";
rdbms::OperatorPtr EventsScan();

/// Slow-query log as a relation (ISSUE 4; ISSUE 9 added QUERY_ID and
/// PEAK_MEM_BYTES). Schema: (TS_US, QUERY_ID, QUERY, ACCESS_PATH,
/// ELAPSED_US, ROWS, EST_ROWS, PEAK_MEM_BYTES, EVENT_COUNT, TRACE) —
/// EST_ROWS is the router's cardinality estimate (ISSUE 5), NULL for
/// queries captured without one; QUERY_ID is NULL for records captured
/// outside routed execution; PEAK_MEM_BYTES is the tracker high-water the
/// probe sampled over the drain.
inline constexpr const char* kSlowQueriesTableName = "TELEMETRY$SLOW_QUERIES";
rdbms::OperatorPtr SlowQueriesScan();

/// Live query monitor as a relation (ISSUE 9 tentpole, V$SQL_MONITOR
/// style). One row per in-flight routed query (OPERATOR is NULL there)
/// followed by one row per operator in its plan, pre-order with DEPTH.
/// Schema: (QUERY_ID, COLLECTION, QUERY, ACCESS_PATH, OPERATOR, DEPTH,
/// SHARD, WORKER, STATE, ROWS_OUT, EST_ROWS, ELAPSED_US). SHARD/WORKER are
/// NULL off the morsel-parallel path; STATE is pending/open/done.
inline constexpr const char* kQueryMonitorTableName =
    "TELEMETRY$QUERY_MONITOR";
rdbms::OperatorPtr QueryMonitorScan();

/// Memory attribution as a relation. One row per memory
/// account: each collection's long-lived structures, labeled with its
/// name, then each subsystem that has held transient charges
/// (COLLECTION "-"). The writers keep the accounts current, so the scan
/// reads atomics and never touches a structure.
/// Schema: (SUBSYSTEM, COLLECTION, BYTES, PEAK_BYTES).
inline constexpr const char* kMemoryTableName = "TELEMETRY$MEMORY";
rdbms::OperatorPtr MemoryScan();

}  // namespace fsdm::telemetry

#endif  // FSDM_TELEMETRY_METRICS_TABLE_H_
