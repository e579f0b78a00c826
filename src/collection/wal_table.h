#ifndef FSDM_COLLECTION_WAL_TABLE_H_
#define FSDM_COLLECTION_WAL_TABLE_H_

#include "rdbms/executor.h"
#include "wal/wal.h"

/// TELEMETRY$WAL (ISSUE 8): one row per durable collection's write-ahead
/// log, so durability state — LSN positions, segment counts, fsync and
/// checkpoint activity, torn-tail repairs — is visible from SQL alongside
/// the other TELEMETRY$ relations. Collections without a WAL do not appear.

namespace fsdm::collection {

class JsonCollection;

inline constexpr const char* kWalTableName = "TELEMETRY$WAL";

/// The relation's columns (see WalScan()); the incident bundle's `wal`
/// section keys its fields by their lower-cased names.
const rdbms::Schema& WalSchema();
/// One collection's row, in WalSchema() order: the one field list both
/// TELEMETRY$WAL and the incident bundle render.
rdbms::Row WalRow(const JsonCollection& collection, const wal::Wal& w);

/// Row source over the registry's durable collections. Schema:
/// (NAME, POLICY, SEGMENTS, LAST_LSN, DURABLE_LSN, APPENDS, APPEND_BYTES,
/// FSYNCS, CHECKPOINTS, ABORTS, RECOVERED_RECORDS, TORN_TAIL) —
/// POLICY is the fsync policy name, DURABLE_LSN trails LAST_LSN under group
/// commit, RECOVERED_RECORDS is how many records the last Open() replayed
/// and TORN_TAIL whether it had to truncate one (0/1).
rdbms::OperatorPtr WalScan();

}  // namespace fsdm::collection

#endif  // FSDM_COLLECTION_WAL_TABLE_H_
