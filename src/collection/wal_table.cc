#include "collection/wal_table.h"

#include <vector>

#include "collection/collection.h"
#include "collection/collections_table.h"
#include "wal/wal.h"

namespace fsdm::collection {

const rdbms::Schema& WalSchema() {
  static const rdbms::Schema schema(
      {"NAME", "POLICY", "SEGMENTS", "LAST_LSN", "DURABLE_LSN", "APPENDS",
       "APPEND_BYTES", "FSYNCS", "CHECKPOINTS", "ABORTS", "RECOVERED_RECORDS",
       "TORN_TAIL"});
  return schema;
}

rdbms::Row WalRow(const JsonCollection& collection, const wal::Wal& w) {
  auto n = [](uint64_t v) { return Value::Int64(static_cast<int64_t>(v)); };
  return {Value::String(collection.name()),
          Value::String(wal::FsyncPolicyName(w.options().fsync)),
          n(w.segment_count()),
          n(w.last_lsn()),
          n(w.durable_lsn()),
          n(w.appends()),
          n(w.append_bytes()),
          n(w.fsyncs()),
          n(w.checkpoints()),
          n(w.aborts()),
          n(w.recovery().records_scanned),
          n(w.recovery().torn_tail ? 1 : 0)};
}

rdbms::OperatorPtr WalScan() {
  return rdbms::ValuesFrom(WalSchema(), [] {
    std::vector<rdbms::Row> rows;
    for (const JsonCollection* c : CollectionRegistry::Global().collections()) {
      if (c->wal() != nullptr) rows.push_back(WalRow(*c, *c->wal()));
    }
    return rows;
  });
}

}  // namespace fsdm::collection
