#include "collection/wal_table.h"

#include <vector>

#include "collection/collection.h"
#include "collection/collections_table.h"
#include "wal/wal.h"

namespace fsdm::collection {

rdbms::OperatorPtr WalScan() {
  return rdbms::ValuesFrom(
      rdbms::Schema({"NAME", "POLICY", "SEGMENTS", "LAST_LSN", "DURABLE_LSN",
                     "APPENDS", "APPEND_BYTES", "FSYNCS", "CHECKPOINTS",
                     "ABORTS", "RECOVERED_RECORDS", "TORN_TAIL"}),
      [] {
        std::vector<rdbms::Row> rows;
        for (const JsonCollection* c :
             CollectionRegistry::Global().collections()) {
          const wal::Wal* w = c->wal();
          if (w == nullptr) continue;
          rows.push_back(
              {Value::String(c->name()),
               Value::String(wal::FsyncPolicyName(w->options().fsync)),
               Value::Int64(static_cast<int64_t>(w->segment_count())),
               Value::Int64(static_cast<int64_t>(w->last_lsn())),
               Value::Int64(static_cast<int64_t>(w->durable_lsn())),
               Value::Int64(static_cast<int64_t>(w->appends())),
               Value::Int64(static_cast<int64_t>(w->append_bytes())),
               Value::Int64(static_cast<int64_t>(w->fsyncs())),
               Value::Int64(static_cast<int64_t>(w->checkpoints())),
               Value::Int64(static_cast<int64_t>(w->aborts())),
               Value::Int64(
                   static_cast<int64_t>(w->recovery().records_scanned)),
               Value::Int64(w->recovery().torn_tail ? 1 : 0)});
        }
        return rows;
      });
}

}  // namespace fsdm::collection
