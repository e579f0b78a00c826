#include "dataguide/dataguide.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "json/parser.h"
#include "json/serializer.h"

namespace fsdm::dataguide {

std::string_view LeafTypeName(LeafType type) {
  switch (type) {
    case LeafType::kNull:
      return "null";
    case LeafType::kBoolean:
      return "boolean";
    case LeafType::kNumber:
      return "number";
    case LeafType::kString:
      return "string";
  }
  return "unknown";
}

std::string PathEntry::TypeString() const {
  std::string base;
  switch (kind) {
    case json::NodeKind::kObject:
      base = "object";
      break;
    case json::NodeKind::kArray:
      base = "array";
      break;
    case json::NodeKind::kScalar:
      base = std::string(LeafTypeName(leaf_type));
      break;
  }
  return under_array ? "array of " + base : base;
}

namespace {

LeafType Categorize(const Value& v) {
  switch (v.type()) {
    case ScalarType::kNull:
      return LeafType::kNull;
    case ScalarType::kBool:
      return LeafType::kBoolean;
    case ScalarType::kInt64:
    case ScalarType::kDouble:
    case ScalarType::kDecimal:
      return LeafType::kNumber;
    default:
      return LeafType::kString;
  }
}

// Type generalization: null merges into anything; differing non-null types
// generalize to string (§3.1's merge rule).
LeafType Generalize(LeafType a, LeafType b) {
  if (a == b) return a;
  if (a == LeafType::kNull) return b;
  if (b == LeafType::kNull) return a;
  return LeafType::kString;
}

}  // namespace

PathDictionary::PathDictionary(const PathDictionary& other)
    : ids_(other.ids_),
      names_(other.names_.size()),
      path_bytes_(other.path_bytes_) {
  for (const auto& [name, id] : ids_) names_[id] = &name;
  PublishBytes();
}

PathDictionary::PathDictionary(PathDictionary&& other) noexcept
    : ids_(std::move(other.ids_)),
      names_(std::move(other.names_)),
      path_bytes_(std::exchange(other.path_bytes_, 0)) {
  PublishBytes();
  other.PublishBytes();
}

PathId PathDictionary::Intern(std::string_view path) {
  auto it = ids_.find(path);
  if (it != ids_.end()) return it->second;
  const PathId id = static_cast<PathId>(names_.size());
  it = ids_.emplace(std::string(path), id).first;
  names_.push_back(&it->first);
  path_bytes_ += PathBytes(path);
  PublishBytes();
  return id;
}

PathId PathDictionary::Find(std::string_view path) const {
  auto it = ids_.find(path);
  return it == ids_.end() ? kNoPath : it->second;
}

uint64_t PathDictionary::PathBytes(std::string_view path) {
  return sizeof(void*) + sizeof(size_t) + sizeof(decltype(ids_)::value_type) +
         sizeof(const std::string*) + path.size();
}

void PathDictionary::PublishBytes() {
  bytes_.store(names_.empty() ? 0
                              : ids_.bucket_count() * sizeof(void*) +
                                    path_bytes_,
               std::memory_order_relaxed);
}

uint64_t PathDictionary::RecomputeMemoryBytes() const {
  if (names_.empty()) return 0;
  uint64_t total = ids_.bucket_count() * sizeof(void*);
  for (const std::string* name : names_) total += PathBytes(*name);
  return total;
}

namespace {

/// The one recursive instance walk (see StageDocument). `text` is the path
/// of the node being walked.
struct Stager {
  const json::Dom& dom;
  PathDictionary* paths;
  bool with_display;
  std::string text;
  StagedDoc doc;

  Status Walk(json::Dom::NodeRef node, PathId path, bool under_array) {
    using json::NodeKind;
    const NodeKind kind = dom.GetNodeType(node);
    StagedNode& staged = doc.nodes.emplace_back();
    staged.path = path;
    staged.kind = kind;
    staged.under_array = under_array;
    switch (kind) {
      case NodeKind::kObject: {
        size_t n = dom.GetFieldCount(node);
        for (size_t i = 0; i < n; ++i) {
          std::string_view name;
          json::Dom::NodeRef child;
          dom.GetFieldAt(node, i, &name, &child);
          size_t mark = text.size();
          text.push_back('.');
          text.append(name);
          FSDM_RETURN_NOT_OK(Walk(child, paths->Intern(text), under_array));
          text.resize(mark);
        }
        return Status::Ok();
      }
      case NodeKind::kArray: {
        // Elements keep the array's path; descendants are marked as
        // under_array so their type strings carry the "array of" prefix.
        size_t n = dom.GetArrayLength(node);
        for (size_t i = 0; i < n; ++i) {
          FSDM_RETURN_NOT_OK(Walk(dom.GetArrayElement(node, i), path, true));
        }
        return Status::Ok();
      }
      case NodeKind::kScalar: {
        // `staged` is still valid: scalars stage no further node.
        FSDM_RETURN_NOT_OK(dom.GetScalarValue(node, &staged.value));
        if (with_display && !staged.value.is_null() &&
            staged.value.type() != ScalarType::kString) {
          staged.display = staged.value.ToDisplayString();
        }
        return Status::Ok();
      }
    }
    return Status::Internal("unreachable");
  }
};

// Display-length without allocating (the DataGuide length column only
// needs byte counts).
size_t CheapLength(const Value& v) {
  switch (v.type()) {
    case ScalarType::kString:
      return v.AsString().size();
    case ScalarType::kBool:
      return v.AsBool() ? 4 : 5;
    case ScalarType::kInt64: {
      int64_t x = v.AsInt64();
      size_t n = x < 0 ? 2 : 1;
      uint64_t mag = x < 0 ? static_cast<uint64_t>(-(x + 1)) + 1
                           : static_cast<uint64_t>(x);
      while (mag >= 10) {
        mag /= 10;
        ++n;
      }
      return n;
    }
    case ScalarType::kDecimal:
      // digits + sign + point bound; exact length is not worth a
      // formatting pass on the hot DML path.
      return static_cast<size_t>(v.AsDecimal().digit_count()) + 2;
    default:
      return 8;
  }
}

void UpdateMinMax(PathEntry* entry, const Value& v) {
  if (!entry->min_value.has_value()) {
    entry->min_value = v;
    entry->max_value = v;
    return;
  }
  Result<int> lo = v.CompareTo(*entry->min_value);
  if (lo.ok() && lo.value() < 0) entry->min_value = v;
  Result<int> hi = v.CompareTo(*entry->max_value);
  if (hi.ok() && hi.value() > 0) entry->max_value = v;
}

}  // namespace

DataGuide::DataGuide(const DataGuide& other)
    : paths_(other.paths_),
      entries_(other.entries_),
      doc_count_(other.doc_count_),
      entry_bytes_(EntryBytes()) {
  for (auto& [key, entry] : entries_) entry.path = paths_.Name(KeyPath(key));
}

DataGuide::DataGuide(DataGuide&& other) noexcept
    : paths_(std::move(other.paths_)),
      entries_(std::move(other.entries_)),
      doc_count_(std::exchange(other.doc_count_, 0)),
      entry_bytes_(EntryBytes()) {
  other.entry_bytes_.store(other.EntryBytes(), std::memory_order_relaxed);
}

Result<StagedDoc> StageDocument(const json::Dom& dom, PathDictionary* paths,
                                bool with_display) {
  Stager stager{dom, paths, with_display, "$", {}};
  FSDM_RETURN_NOT_OK(stager.Walk(dom.root(), paths->Intern("$"), false));
  return std::move(stager.doc);
}

int DataGuide::Apply(const StagedDoc& doc,
                     std::vector<const PathEntry*>* new_entries,
                     ScalarSink* sink) {
  // Per-document frequency is counted once per distinct key by stamping
  // the entries with this document's ordinal (no per-document set).
  const uint64_t stamp = doc_count_ + 1;
  int added = 0;
  for (const StagedNode& node : doc.nodes) {
    auto [it, inserted] = entries_.try_emplace(
        EntryKey(node.path, node.kind, node.under_array));
    PathEntry* entry = &it->second;
    if (inserted) {
      ++added;
      entry->path = paths_.Name(node.path);
      entry->id = node.path;
      entry->kind = node.kind;
      entry->under_array = node.under_array;
      if (new_entries != nullptr) new_entries->push_back(entry);
    }
    if (entry->last_doc_stamp != stamp) {
      entry->last_doc_stamp = stamp;
      ++entry->frequency;
    }
    if (node.kind != json::NodeKind::kScalar) continue;
    const Value& v = node.value;
    entry->leaf_type = Generalize(entry->leaf_type, Categorize(v));
    if (v.is_null()) {
      ++entry->null_count;
    } else {
      entry->max_length = std::max(entry->max_length, CheapLength(v));
      UpdateMinMax(entry, v);
    }
    if (sink != nullptr) sink->OnScalar(node);
  }
  ++doc_count_;
  if (added > 0) entry_bytes_.store(EntryBytes(), std::memory_order_relaxed);
  if (sink != nullptr) sink->OnDocumentEnd();
  return added;
}

Result<int> DataGuide::AddDocument(const json::Dom& dom,
                                   std::vector<const PathEntry*>* new_entries,
                                   ScalarSink* sink) {
  FSDM_ASSIGN_OR_RETURN(StagedDoc doc,
                        StageDocument(dom, &paths_, sink != nullptr));
  return Apply(doc, new_entries, sink);
}

Result<int> DataGuide::AddJsonText(std::string_view text) {
  FSDM_ASSIGN_OR_RETURN(std::unique_ptr<json::JsonNode> doc,
                        json::Parse(text));
  json::TreeDom dom(doc.get());
  return AddDocument(dom);
}

void DataGuide::Merge(const DataGuide& other) {
  for (const auto& [key, theirs] : other.entries_) {
    const PathId id = paths_.Intern(theirs.path);
    auto [it, inserted] = entries_.try_emplace(
        EntryKey(id, theirs.kind, theirs.under_array), theirs);
    if (inserted) {
      it->second.path = paths_.Name(id);
      it->second.id = id;
      continue;
    }
    PathEntry& ours = it->second;
    ours.leaf_type = Generalize(ours.leaf_type, theirs.leaf_type);
    ours.max_length = std::max(ours.max_length, theirs.max_length);
    ours.frequency += theirs.frequency;
    ours.null_count += theirs.null_count;
    if (theirs.min_value.has_value()) {
      if (!ours.min_value.has_value()) {
        ours.min_value = theirs.min_value;
      } else {
        Result<int> cmp = theirs.min_value->CompareTo(*ours.min_value);
        if (cmp.ok() && cmp.value() < 0) ours.min_value = theirs.min_value;
      }
    }
    if (theirs.max_value.has_value()) {
      if (!ours.max_value.has_value()) {
        ours.max_value = theirs.max_value;
      } else {
        Result<int> cmp = theirs.max_value->CompareTo(*ours.max_value);
        if (cmp.ok() && cmp.value() > 0) ours.max_value = theirs.max_value;
      }
    }
  }
  doc_count_ += other.doc_count_;
  entry_bytes_.store(EntryBytes(), std::memory_order_relaxed);
}

std::vector<const PathEntry*> DataGuide::SortedEntries() const {
  std::vector<const PathEntry*> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) out.push_back(&entry);
  std::sort(out.begin(), out.end(),
            [](const PathEntry* a, const PathEntry* b) {
              if (a->path != b->path) return a->path < b->path;
              if (a->kind != b->kind) return a->kind < b->kind;
              return a->under_array < b->under_array;
            });
  return out;
}

uint64_t DataGuide::EntryBytes() const {
  // Hash node overhead (next pointer + cached-hash slot) plus the key and
  // the entry payload; the path text is the dictionary's.
  constexpr uint64_t kEntryBytes =
      2 * sizeof(void*) + sizeof(decltype(entries_)::value_type);
  return (entries_.empty() ? 0 : entries_.bucket_count() * sizeof(void*)) +
         entries_.size() * kEntryBytes;
}

uint64_t DataGuide::RecomputeMemoryBytes() const {
  return paths_.RecomputeMemoryBytes() + EntryBytes();
}

const PathEntry* DataGuide::Find(PathId path, json::NodeKind kind,
                                 bool under_array) const {
  if (path == kNoPath) return nullptr;
  auto it = entries_.find(EntryKey(path, kind, under_array));
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<const PathEntry*> DataGuide::SingletonScalarPaths() const {
  std::vector<const PathEntry*> out;
  for (const PathEntry* e : SortedEntries()) {
    if (e->kind == json::NodeKind::kScalar && !e->under_array) {
      out.push_back(e);
    }
  }
  return out;
}

std::string DataGuide::ToFlatJson() const {
  std::string out = "[";
  bool first = true;
  for (const PathEntry* e : SortedEntries()) {
    if (!first) out += ",";
    first = false;
    out += "{\"o:path\":";
    json::AppendQuoted(&out, e->path);
    out += ",\"type\":";
    json::AppendQuoted(&out, e->TypeString());
    if (e->kind == json::NodeKind::kScalar) {
      out += ",\"o:length\":" + std::to_string(e->max_length);
    }
    out += ",\"o:frequency\":" + std::to_string(e->frequency);
    out += "}";
  }
  out += "]";
  return out;
}

namespace {

// Hierarchical rendering node.
struct HierNode {
  // child name -> node (objects)
  std::map<std::string, HierNode> properties;
  // element node (arrays); only ever 0 or 1 deep per path step
  std::unique_ptr<HierNode> items;
  std::vector<const PathEntry*> selves;  // entries at this exact path
};

void RenderHier(const HierNode& node, std::string* out) {
  // A path position can hold several merged kinds (e.g. scalar in one doc,
  // object in another); render "type" as a string or array of strings.
  out->push_back('{');
  std::string types;
  const PathEntry* scalar_entry = nullptr;
  bool has_object = !node.properties.empty();
  bool has_array = node.items != nullptr;
  std::set<std::string> type_set;
  for (const PathEntry* e : node.selves) {
    if (e->kind == json::NodeKind::kScalar) {
      scalar_entry = e;
      type_set.insert(std::string(LeafTypeName(e->leaf_type)));
    } else if (e->kind == json::NodeKind::kObject) {
      type_set.insert("object");
    } else {
      type_set.insert("array");
    }
  }
  if (has_object) type_set.insert("object");
  if (has_array) type_set.insert("array");
  out->append("\"type\":");
  if (type_set.size() == 1) {
    json::AppendQuoted(out, *type_set.begin());
  } else {
    out->push_back('[');
    bool first = true;
    for (const std::string& t : type_set) {
      if (!first) out->push_back(',');
      first = false;
      json::AppendQuoted(out, t);
    }
    out->push_back(']');
  }
  if (scalar_entry != nullptr) {
    out->append(",\"o:length\":" + std::to_string(scalar_entry->max_length));
    out->append(",\"o:frequency\":" +
                std::to_string(scalar_entry->frequency));
  }
  if (has_object) {
    out->append(",\"properties\":{");
    bool first = true;
    for (const auto& [name, child] : node.properties) {
      if (!first) out->push_back(',');
      first = false;
      json::AppendQuoted(out, name);
      out->push_back(':');
      RenderHier(child, out);
    }
    out->push_back('}');
  }
  if (has_array) {
    out->append(",\"items\":");
    RenderHier(*node.items, out);
  }
  out->push_back('}');
}

}  // namespace

std::string DataGuide::ToHierarchicalJson() const {
  HierNode root;
  for (const PathEntry* e : SortedEntries()) {
    // Split "$.a.b" into steps; descend/create the hierarchy. An entry
    // with under_array attaches beneath the nearest array's "items".
    HierNode* cur = &root;
    std::string_view rest(e->path);
    if (!rest.empty() && rest[0] == '$') rest.remove_prefix(1);
    while (!rest.empty()) {
      if (rest[0] == '.') rest.remove_prefix(1);
      size_t dot = rest.find('.');
      std::string step(rest.substr(0, dot));
      cur = &cur->properties[step];
      if (dot == std::string_view::npos) break;
      rest.remove_prefix(dot);
    }
    if (e->under_array || e->kind == json::NodeKind::kArray) {
      // Entries merged under arrays live inside the array's items node;
      // the array container entry itself stays on the outer node.
      if (e->under_array) {
        if (!cur->items) cur->items = std::make_unique<HierNode>();
        cur->items->selves.push_back(e);
        continue;
      }
    }
    cur->selves.push_back(e);
  }
  // Fix-up: object fields under arrays. Above, under_array entries landed
  // on items of their own path node, but their children (properties) were
  // attached to the outer node as well. This approximation renders the
  // structural shape faithfully for typical collections; the flat form is
  // the authoritative representation (as in the paper's $DG table).
  std::string out;
  RenderHier(root, &out);
  return out;
}

}  // namespace fsdm::dataguide
