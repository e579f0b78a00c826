#include "collection/path_stats_table.h"

#include <cmath>
#include <vector>

#include "collection/collection.h"
#include "collection/collections_table.h"
#include "stats/path_stats.h"

namespace fsdm::collection {

rdbms::OperatorPtr PathStatsScan() {
  return rdbms::ValuesFrom(
      rdbms::Schema({"COLLECTION", "SHARD", "PATH", "DOCS_SEEN",
                     "DOC_FREQUENCY", "VALUE_COUNT", "NULL_COUNT", "NDV", "MIN",
                     "MAX", "HIST_TOTAL", "HIST_LO", "HIST_HI"}),
      [] {
        std::vector<rdbms::Row> rows;
        for (const JsonCollection* c :
             CollectionRegistry::Global().collections()) {
          // One row-set per shard: the router costs each shard against
          // its own statistics.
          for (size_t shard = 0; shard < c->shard_count(); ++shard) {
            const stats::PathStatsRepository& repo =
                c->shard(shard)->path_stats();
            for (const auto& [path, found] :
                 repo.Sorted(c->shard(shard)->dataguide().paths())) {
              const stats::PathStats& s = *found;
              rows.push_back(
                  {Value::String(c->name()),
                   Value::Int64(static_cast<int64_t>(shard)),
                   Value::String(std::string(path)),
                   Value::Int64(static_cast<int64_t>(repo.docs_seen())),
                   Value::Int64(static_cast<int64_t>(s.doc_frequency)),
                   Value::Int64(static_cast<int64_t>(s.value_count)),
                   Value::Int64(static_cast<int64_t>(s.null_count)),
                   Value::Int64(
                       static_cast<int64_t>(std::llround(s.ndv.Estimate()))),
                   s.min_value.has_value()
                       ? Value::String(s.min_value->ToDisplayString())
                       : Value::Null(),
                   s.max_value.has_value()
                       ? Value::String(s.max_value->ToDisplayString())
                       : Value::Null(),
                   Value::Int64(static_cast<int64_t>(s.histogram.total())),
                   s.histogram.frozen() ? Value::Double(s.histogram.lo())
                                        : Value::Null(),
                   s.histogram.frozen() ? Value::Double(s.histogram.hi())
                                        : Value::Null()});
            }
          }
        }
        return rows;
      });
}

}  // namespace fsdm::collection
