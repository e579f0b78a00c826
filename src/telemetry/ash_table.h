#ifndef FSDM_TELEMETRY_ASH_TABLE_H_
#define FSDM_TELEMETRY_ASH_TABLE_H_

#include "rdbms/executor.h"

namespace fsdm::telemetry {

/// Active Session History as a relation (ISSUE 7): one row per retained
/// sampler hit on an active record. Schema: (TS_US, THREAD, WAIT_STATE,
/// WAIT_CLASS, COLLECTION, ACCESS_PATH, OP, QUERY, QUERY_ID, SHARD,
/// WORKER) — SHARD/WORKER are NULL off the morsel-parallel path,
/// COLLECTION/QUERY NULL when the sampled work carried none, QUERY_ID
/// (ISSUE 9) the routed query id cross-linking into
/// TELEMETRY$QUERY_MONITOR and TELEMETRY$SLOW_QUERIES, NULL off the
/// routed path.
inline constexpr const char* kAshTableName = "TELEMETRY$ASH";
rdbms::OperatorPtr AshScan();

/// Workload repository snapshots as a relation (ISSUE 7). Schema:
/// (SNAP_ID, TS_US, LABEL, SAMPLER_TICKS, DB_SAMPLES, CPU_PCT,
/// TOP_WAIT_CLASS, TOP_WAIT_PCT, TOP_QUERY, TOP_QUERY_SAMPLES,
/// SHARD_SKEW, MEM_BYTES, MEM_PEAK_BYTES) — the percentage/top columns
/// are NULL when the snapshot's ASH window caught no samples of the
/// relevant kind; the MEM_* columns (ISSUE 9) are the memory tracker's
/// refreshed total and process high-water at the tick.
inline constexpr const char* kSnapshotsTableName = "TELEMETRY$SNAPSHOTS";
rdbms::OperatorPtr SnapshotsScan();

}  // namespace fsdm::telemetry

#endif  // FSDM_TELEMETRY_ASH_TABLE_H_
