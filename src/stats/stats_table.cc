#include "stats/stats_table.h"

#include <vector>

#include "stats/operator_costs.h"

namespace fsdm::stats {

rdbms::OperatorPtr OperatorCostsScan() {
  return rdbms::ValuesFrom(
      rdbms::Schema({"OPERATOR", "US_PER_ROW", "SEED_US_PER_ROW", "SAMPLES",
                     "ROWS_OBSERVED", "LAST_US_PER_ROW"}),
      [] {
        std::vector<rdbms::Row> rows;
        for (const auto& [name, e] : OperatorCostModel::Global().Snapshot()) {
          rows.push_back({Value::String(name), Value::Double(e.us_per_row),
                          Value::Double(e.seed_us_per_row),
                          Value::Int64(static_cast<int64_t>(e.samples)),
                          Value::Int64(static_cast<int64_t>(e.rows_total)),
                          e.samples == 0 ? Value::Null()
                                         : Value::Double(e.last_us_per_row)});
        }
        return rows;
      });
}

}  // namespace fsdm::stats
