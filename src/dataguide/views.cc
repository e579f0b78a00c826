#include "dataguide/views.h"

#include <map>

namespace fsdm::dataguide {

namespace {

using sqljson::JsonStorage;
using sqljson::JsonTableColumn;
using sqljson::JsonTableDef;
using sqljson::Returning;

Returning ReturningFor(LeafType type) {
  switch (type) {
    case LeafType::kNumber:
      return Returning::kNumber;
    case LeafType::kString:
      return Returning::kString;
    default:
      return Returning::kAny;
  }
}

/// Path trie over the guide's entries below a root path.
struct TrieNode {
  std::map<std::string, TrieNode> children;
  bool is_array = false;
  bool is_object = false;
  // Merged scalar info across under_array variants.
  bool has_scalar = false;
  LeafType leaf_type = LeafType::kNull;
  size_t max_length = 0;
  uint64_t scalar_frequency = 0;
};

// Splits "$.a.b" into steps after the root prefix; returns false when the
// path is not under `root`.
bool RelativeSteps(std::string_view path, const std::string& root,
                   std::vector<std::string>* steps) {
  if (path.compare(0, root.size(), root) != 0) return false;
  std::string_view rest(path);
  rest.remove_prefix(root.size());
  if (!rest.empty() && rest[0] != '.') return false;
  steps->clear();
  while (!rest.empty()) {
    rest.remove_prefix(1);  // '.'
    size_t dot = rest.find('.');
    steps->push_back(std::string(rest.substr(0, dot)));
    if (dot == std::string_view::npos) break;
    rest.remove_prefix(dot);
  }
  return true;
}

struct NameAllocator {
  std::map<std::string, int> used;
  std::string prefix;
  const std::map<std::string, std::string>* renames = nullptr;

  std::string Allocate(const std::string& leaf) {
    std::string base = prefix.empty() ? leaf : prefix + "$" + leaf;
    int& n = used[base];
    ++n;
    if (n == 1) return base;
    return base + "_" + std::to_string(n - 1);
  }

  // Rename annotation wins over the prefix convention (§3.2.2).
  std::string AllocateFor(const std::string& abs_path,
                          const std::string& leaf) {
    if (renames != nullptr) {
      auto it = renames->find(abs_path);
      if (it != renames->end()) return it->second;
    }
    return Allocate(leaf);
  }
};

/// Emits columns and nested defs for the children of `node`. `rel` is the
/// path from the enclosing definition's row context to `node` ("$" at the
/// row context itself).
void EmitChildren(const TrieNode& node, const std::string& rel,
                  const std::string& abs, double min_freq,
                  uint64_t doc_count, NameAllocator* names,
                  JsonTableDef* def) {
  for (const auto& [field, child] : node.children) {
    std::string child_rel = rel + "." + field;
    std::string child_abs = abs + "." + field;
    if (child.has_scalar) {
      bool keep = true;
      if (min_freq > 0.0 && doc_count > 0) {
        keep = static_cast<double>(child.scalar_frequency) /
                   static_cast<double>(doc_count) >=
               min_freq;
      }
      if (keep) {
        JsonTableColumn col;
        col.name = names->AllocateFor(child_abs, field);
        col.path = child_rel;
        col.returning = ReturningFor(child.leaf_type);
        def->columns.push_back(std::move(col));
      }
    }
    if (child.is_array) {
      // NESTED PATH '<child>[*]' — children un-nest with left-outer-join
      // semantics; siblings union-join (§3.3.2).
      JsonTableDef nested;
      nested.row_path = child_rel + "[*]";
      // Array of scalars: project the element itself.
      if (child.has_scalar) {
        // Already projected above through lax un-nesting of the member
        // step; arrays of scalars additionally expose per-element rows.
        JsonTableColumn col;
        col.name = names->AllocateFor(child_abs + "[]", field + "_value");
        col.path = "$";
        col.returning = ReturningFor(child.leaf_type);
        nested.columns.push_back(std::move(col));
      }
      EmitChildren(child, "$", child_abs, min_freq, doc_count, names,
                   &nested);
      if (!nested.columns.empty() || !nested.nested.empty()) {
        def->nested.push_back(std::move(nested));
      }
    } else if (child.is_object) {
      // Note: a path that is an array in any document routes its object
      // children through the NESTED PATH block above — the common case is
      // array-of-objects, whose elements set is_object as well.
      EmitChildren(child, child_rel, child_abs, min_freq, doc_count, names,
                   def);
    }
  }
}

Result<TrieNode> BuildTrie(const DataGuide& guide, const std::string& root) {
  TrieNode trie;
  std::vector<std::string> steps;
  bool any = false;
  for (const PathEntry* e : guide.SortedEntries()) {
    if (!RelativeSteps(e->path, root, &steps)) continue;
    any = true;
    TrieNode* cur = &trie;
    for (const std::string& s : steps) cur = &cur->children[s];
    switch (e->kind) {
      case json::NodeKind::kArray:
        cur->is_array = true;
        break;
      case json::NodeKind::kObject:
        cur->is_object = true;
        break;
      case json::NodeKind::kScalar: {
        cur->has_scalar = true;
        cur->leaf_type = cur->scalar_frequency == 0
                             ? e->leaf_type
                             : (cur->leaf_type == e->leaf_type
                                    ? cur->leaf_type
                                    : LeafType::kString);
        cur->max_length = std::max(cur->max_length, e->max_length);
        cur->scalar_frequency += e->frequency;
        break;
      }
    }
  }
  if (!any) {
    return Status::NotFound("no DataGuide paths under '" + root + "'");
  }
  return trie;
}

}  // namespace

Result<std::vector<std::string>> AddVc(rdbms::Table* table,
                                       const std::string& json_column,
                                       JsonStorage storage,
                                       const DataGuide& guide,
                                       const GenerateOptions& options,
                                       std::vector<std::string>* added_paths) {
  NameAllocator names;
  names.prefix =
      options.column_prefix.empty() ? json_column : options.column_prefix;
  std::vector<std::string> added;
  for (const PathEntry* e : guide.SingletonScalarPaths()) {
    if (options.min_frequency_fraction > 0.0 && guide.document_count() > 0) {
      double frac = static_cast<double>(e->frequency) /
                    static_cast<double>(guide.document_count());
      if (frac < options.min_frequency_fraction) continue;
    }
    const std::string path(e->path);
    size_t dot = path.rfind('.');
    std::string leaf =
        dot == std::string::npos ? path : path.substr(dot + 1);
    rdbms::ColumnDef def;
    names.renames = &options.column_renames;
    def.name = names.AllocateFor(path, leaf);
    def.type = e->leaf_type == LeafType::kNumber ? rdbms::ColumnType::kNumber
                                                 : rdbms::ColumnType::kString;
    FSDM_ASSIGN_OR_RETURN(
        def.virtual_expr,
        sqljson::JsonValue(json_column, path, storage,
                           ReturningFor(e->leaf_type)));
    std::string added_name = def.name;
    FSDM_RETURN_NOT_OK(table->AddVirtualColumn(std::move(def)));
    if (added_paths != nullptr) added_paths->push_back(path);
    added.push_back(std::move(added_name));
  }
  return added;
}

std::vector<std::string> DmdvView::OutputColumns() const {
  std::vector<std::string> out = passthrough_columns;
  for (const std::string& c : sqljson::JsonTableOutputColumns(def)) {
    out.push_back(c);
  }
  return out;
}

Result<rdbms::OperatorPtr> DmdvView::MakePlan() const {
  rdbms::OperatorPtr scan = rdbms::Scan(table);
  FSDM_ASSIGN_OR_RETURN(
      rdbms::OperatorPtr jt,
      sqljson::JsonTable(std::move(scan), json_column, storage, def));
  // Project away the raw JSON column, keeping passthrough + JT columns.
  std::vector<std::pair<std::string, rdbms::ExprPtr>> exprs;
  for (const std::string& c : OutputColumns()) {
    exprs.emplace_back(c, rdbms::Col(c));
  }
  return rdbms::Project(std::move(jt), std::move(exprs));
}

namespace {

const char* SqlTypeFor(Returning returning) {
  switch (returning) {
    case Returning::kNumber:
      return "number";
    case Returning::kString:
      return "varchar2";
    default:
      return "any";
  }
}

void RenderDef(const JsonTableDef& def, int indent, bool is_root,
               std::string* out) {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  if (!is_root) {
    *out += pad + "NESTED PATH '" + def.row_path + "' COLUMNS (\n";
  }
  bool first = true;
  for (const JsonTableColumn& col : def.columns) {
    if (!first) *out += ",\n";
    first = false;
    *out += pad + "  \"" + col.name + "\" " + SqlTypeFor(col.returning) +
            " path '" + col.path + "'";
  }
  for (const JsonTableDef& nested : def.nested) {
    if (!first) *out += ",\n";
    first = false;
    RenderDef(nested, indent + 1, /*is_root=*/false, out);
  }
  if (!is_root) *out += "\n" + pad + ")";
}

}  // namespace

std::string DmdvView::ToSqlText() const {
  std::string out = "CREATE VIEW " + name + " AS\nSELECT ";
  for (const std::string& c : passthrough_columns) {
    out += table->name() + "." + c + ", ";
  }
  out += "JT.*\nFROM " + table->name() + ",\n  JSON_TABLE(\"" + json_column +
         "\" FORMAT JSON, '" + def.row_path + "'\n  COLUMNS (\n";
  RenderDef(def, 2, /*is_root=*/true, &out);
  out += "\n  )) JT;";
  return out;
}

Result<DmdvView> CreateViewOnPath(const rdbms::Table* table,
                                  const std::string& json_column,
                                  JsonStorage storage, const DataGuide& guide,
                                  const std::string& root_path,
                                  const std::string& view_name,
                                  const GenerateOptions& options) {
  FSDM_ASSIGN_OR_RETURN(TrieNode trie, BuildTrie(guide, root_path));

  DmdvView view;
  view.name = view_name;
  view.table = table;
  view.json_column = json_column;
  view.storage = storage;

  NameAllocator names;
  names.prefix =
      options.column_prefix.empty() ? json_column : options.column_prefix;
  names.renames = &options.column_renames;

  // Root rows: the document itself, or each element when the root path is
  // an array branch (CreateViewOnPath('$.purchaseOrder.items')).
  view.def.row_path = trie.is_array ? root_path + "[*]" : root_path;
  // When rooted at '$', column paths are absolute (Table 8's style).
  EmitChildren(trie, trie.is_array ? "$" : root_path, root_path,
               options.min_frequency_fraction, guide.document_count(),
               &names, &view.def);

  // Pass through the base table's non-JSON, non-hidden physical columns
  // (the paper's PO.DID key column).
  for (const rdbms::ColumnDef& c : table->columns()) {
    if (c.hidden || c.is_virtual() || c.name == json_column) continue;
    if (c.type == rdbms::ColumnType::kJson ||
        c.type == rdbms::ColumnType::kRaw) {
      continue;
    }
    view.passthrough_columns.push_back(c.name);
  }
  return view;
}

namespace {

class DataGuideAggregate final : public rdbms::CustomAggregate {
 public:
  DataGuideAggregate(AggForm form, std::vector<DataGuide>* sink)
      : form_(form), sink_(sink) {}

  Status Accumulate(const Value& arg) override {
    if (arg.is_null()) return Status::Ok();
    if (arg.type() != ScalarType::kString) {
      return Status::InvalidArgument(
          "JSON_DataGuideAgg expects JSON text input");
    }
    return guide_.AddJsonText(arg.AsString()).status();
  }

  Result<Value> Finalize() override {
    if (sink_ != nullptr) sink_->push_back(guide_);
    return Value::String(form_ == AggForm::kFlat
                             ? guide_.ToFlatJson()
                             : guide_.ToHierarchicalJson());
  }

 private:
  AggForm form_;
  std::vector<DataGuide>* sink_;
  DataGuide guide_;
};

}  // namespace

rdbms::AggSpec JsonDataGuideAgg(rdbms::ExprPtr json_column_expr,
                                std::string output_name, AggForm form) {
  rdbms::AggSpec spec;
  spec.kind = rdbms::AggSpec::Kind::kCustom;
  spec.arg = std::move(json_column_expr);
  spec.output_name = std::move(output_name);
  spec.custom = [form]() {
    return std::make_unique<DataGuideAggregate>(form, nullptr);
  };
  return spec;
}

rdbms::AggSpec JsonDataGuideAggInto(rdbms::ExprPtr json_column_expr,
                                    std::string output_name,
                                    std::vector<DataGuide>* sink) {
  rdbms::AggSpec spec;
  spec.kind = rdbms::AggSpec::Kind::kCustom;
  spec.arg = std::move(json_column_expr);
  spec.output_name = std::move(output_name);
  spec.custom = [sink]() {
    return std::make_unique<DataGuideAggregate>(AggForm::kFlat, sink);
  };
  return spec;
}

}  // namespace fsdm::dataguide
