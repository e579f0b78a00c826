#include "collection/collections_table.h"

#include <algorithm>
#include <string>

#include "collection/collection.h"

namespace fsdm::collection {

CollectionRegistry& CollectionRegistry::Global() {
  static CollectionRegistry* registry = new CollectionRegistry();
  return *registry;
}

void CollectionRegistry::Register(const JsonCollection* coll) {
  if (std::find(collections_.begin(), collections_.end(), coll) ==
      collections_.end()) {
    collections_.push_back(coll);
  }
}

void CollectionRegistry::Unregister(const JsonCollection* coll) {
  collections_.erase(
      std::remove(collections_.begin(), collections_.end(), coll),
      collections_.end());
}

rdbms::OperatorPtr CollectionsScan() {
  return rdbms::ValuesFrom(
      rdbms::Schema({"NAME", "HEALTH", "REASON", "DOC_COUNT", "INDEX_PATHS",
                     "IMC_STATE", "LAST_REBUILD_TS", "SHARDS",
                     "SHARDS_HEALTHY"}),
      [] {
        std::vector<rdbms::Row> rows;
        for (const JsonCollection* c :
             CollectionRegistry::Global().collections()) {
          const char* imc_state =
              c->imc_valid() ? "valid"
                             : (c->imc_populated() ? "stale" : "unpopulated");
          // REASON: the live degradation cause while unhealthy, else the
          // last health-transition cause (sticky across healing).
          std::string reason = c->health_reason();
          if (reason.empty()) reason = c->last_health_cause();
          rows.push_back(
              {Value::String(c->name()),
               Value::String(CollectionHealthName(c->health())),
               reason.empty() ? Value::Null() : Value::String(reason),
               Value::Int64(static_cast<int64_t>(c->document_count())),
               Value::Int64(
                   static_cast<int64_t>(c->dataguide().distinct_path_count())),
               Value::String(imc_state),
               c->last_rebuild_ts_us() == 0
                   ? Value::Null()
                   : Value::Int64(
                         static_cast<int64_t>(c->last_rebuild_ts_us())),
               Value::Int64(static_cast<int64_t>(c->shard_count())),
               Value::Int64(static_cast<int64_t>(c->healthy_shard_count()))});
        }
        return rows;
      });
}

}  // namespace fsdm::collection
