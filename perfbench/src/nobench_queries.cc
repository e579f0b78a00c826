#include "nobench_queries.h"

#include <algorithm>
#include <cstdlib>

#include "json/parser.h"

namespace fsdm::perfbench {

void AdoptCollection(std::unique_ptr<collection::JsonCollection> coll,
                     const std::string& doc, NbDataset* ds) {
  ds->coll = std::move(coll);
  ds->table = ds->coll == nullptr ? nullptr : ds->coll->table();
  ds->q5_str1 = "none";
  ds->q8_word = "none";
  ds->q9_sparse_field = "sparse_0";
  ds->num_lo = 100000;
  ds->num_hi = 150000;  // ~5% selectivity over [0, 1e6), as in Build()
  Result<std::unique_ptr<json::JsonNode>> parsed = json::Parse(doc);
  if (!parsed.ok() || !parsed.value()->is_object()) return;
  const json::JsonNode& root = *parsed.value();
  if (const json::JsonNode* s = root.GetField("str1");
      s != nullptr && s->is_scalar()) {
    ds->q5_str1 = s->scalar().ToDisplayString();
  }
  if (const json::JsonNode* arr = root.GetField("nested_arr");
      arr != nullptr && arr->is_array() && arr->array_size() > 0 &&
      arr->element(0)->is_scalar()) {
    ds->q8_word = arr->element(0)->scalar().ToDisplayString();
  }
  for (size_t f = 0; f < root.field_count(); ++f) {
    if (root.field_name(f).rfind("sparse_", 0) == 0) {
      ds->q9_sparse_field = root.field_name(f);
      break;
    }
  }
}

Result<rdbms::OperatorPtr> NobenchQuery(int q, const NbDataset& ds,
                                        const NbAccess& access) {
  const auto& queries = benchutil::NobenchQueries();
  if (q < 1 || static_cast<size_t>(q) > queries.size()) {
    return Status::InvalidArgument("no NOBENCH query " + std::to_string(q));
  }
  return queries[static_cast<size_t>(q - 1)].second(ds, access);
}

int64_t TopLevelNum(const std::string& doc) {
  const size_t at = doc.find("\"num\":");
  return at == std::string::npos
             ? -1
             : std::strtoll(doc.c_str() + at + 6, nullptr, 10);
}

Result<std::string> CanonicalAnswer(rdbms::Operator* op,
                                    const NbAccess& access) {
  const size_t skip = op->schema().IndexOf(access.json_column);
  FSDM_ASSIGN_OR_RETURN(std::vector<rdbms::Row> rows, rdbms::Collect(op));
  std::vector<std::string> lines;
  lines.reserve(rows.size());
  for (const rdbms::Row& row : rows) {
    std::string line;
    for (size_t c = 0; c < row.size(); ++c) {
      if (c == skip) continue;
      line += row[c].ToDisplayString();
      line.push_back('|');
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out.push_back('\n');
  }
  return out;
}

}  // namespace fsdm::perfbench
