#ifndef FSDM_DATAGUIDE_DATAGUIDE_H_
#define FSDM_DATAGUIDE_DATAGUIDE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "json/dom.h"

namespace fsdm::dataguide {

/// Generalized scalar category for DataGuide leaves. Merging a number with
/// a string generalizes to string (§3.1); null merges into anything.
enum class LeafType : uint8_t {
  kNull = 0,     // only nulls seen so far
  kBoolean,
  kNumber,
  kString,       // top of the generalization lattice
};

std::string_view LeafTypeName(LeafType type);

/// Dense id of a path in a PathDictionary.
using PathId = uint32_t;
inline constexpr PathId kNoPath = UINT32_MAX;

/// The path dictionary (§4.2.1's field ids applied to paths): each distinct
/// path string once, named by a dense id. Every DataGuide owns one, and the
/// guide's entries, the search index's postings and the path statistics
/// all key on its ids. Additive like the guide (§3.4): an id is never
/// reclaimed, so a rebuild keeps the dictionary.
class PathDictionary {
 public:
  PathDictionary() = default;
  /// A copy re-points its id -> name table at its own keys; a move keeps
  /// the map nodes, so the table stays valid.
  PathDictionary(const PathDictionary& other);
  PathDictionary(PathDictionary&& other) noexcept;

  PathId Intern(std::string_view path);
  /// kNoPath when the path was never interned. Allocation-free.
  PathId Find(std::string_view path) const;
  /// The text of an interned id; stable for the dictionary's lifetime.
  std::string_view Name(PathId id) const { return *names_[id]; }

  /// Accounting footprint: per path one hash node (next pointer, cached
  /// hash, key/value pair), its id -> name pointer and the path text by
  /// size(); plus the bucket array once a path exists. Maintained as paths
  /// are interned: O(1), and safe to poll while another thread interns.
  uint64_t MemoryBytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  /// Exact O(paths) walk with the same formula, for tests.
  uint64_t RecomputeMemoryBytes() const;

 private:
  /// Per-path bytes of the MemoryBytes() formula, bucket array excluded.
  static uint64_t PathBytes(std::string_view path);
  /// Stores the formula's current value where MemoryBytes() reads it.
  void PublishBytes();

  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view path) const {
      return std::hash<std::string_view>{}(path);
    }
  };
  std::unordered_map<std::string, PathId, Hash, std::equal_to<>> ids_;
  std::vector<const std::string*> names_;  // id -> key in ids_
  uint64_t path_bytes_ = 0;          // sum of PathBytes() over names_
  std::atomic<uint64_t> bytes_{0};  // MemoryBytes(), pollable
};

/// One node of a staged document, as the instance walk read it. Array
/// elements carry their array's path (the walk is positional-blind).
struct StagedNode {
  PathId path = kNoPath;
  json::NodeKind kind = json::NodeKind::kScalar;
  bool under_array = false;  // reached through >= 1 array un-nesting
  Value value;               // scalars only
  /// Canonical display form of a non-null, non-string scalar, when staged
  /// with displays (a string is its own display, see Display()).
  std::string display;

  /// The text value postings and NDV sketches key on: a string's own
  /// text, else `display`.
  std::string_view Display() const {
    return value.type() == ScalarType::kString
               ? std::string_view(value.AsString())
               : std::string_view(display);
  }
};

/// Every node of one document in walk (pre-)order.
struct StagedDoc {
  std::vector<StagedNode> nodes;
};

/// The instance walk: reads every node of `dom` once, interning paths into
/// `paths` (its only side effect). With `with_display` each non-null
/// non-string scalar is also formatted once, for the consumers that key on
/// display text (value postings, path statistics). The search index,
/// the DataGuide and the path statistics are all fed from its output.
Result<StagedDoc> StageDocument(const json::Dom& dom, PathDictionary* paths,
                                bool with_display);

/// One row of the $DG table: a distinct (path, node-kind) with statistics.
/// The paper's type vocabulary ("object", "array", "number", "array of
/// string", ...) comes out of TypeString(): nodes reached through at least
/// one un-nested array carry the "array of " prefix.
struct PathEntry {
  std::string_view path;       // "$.purchaseOrder.items.name" (dictionary)
  PathId id = kNoPath;         // the same path's id in that dictionary
  json::NodeKind kind = json::NodeKind::kScalar;
  bool under_array = false;    // reached through >= 1 array un-nesting
  LeafType leaf_type = LeafType::kNull;  // scalars only
  size_t max_length = 0;       // max display-byte length of scalar values

  // Statistics (§3.2.1's statistical columns).
  uint64_t frequency = 0;      // documents containing this path
  uint64_t null_count = 0;     // null scalar occurrences
  std::optional<Value> min_value;
  std::optional<Value> max_value;

  /// Internal: id of the last document that touched this entry, used to
  /// count per-document frequency without a per-document set.
  uint64_t last_doc_stamp = 0;

  /// "object" | "array" | "<leaf>" with "array of " prefix when
  /// under_array.
  std::string TypeString() const;
};

/// Observer fed while a staged document is applied to a guide: every
/// scalar node, then one end-of-document call. Statistics consumers (the
/// per-collection PathStatsRepository) hang off this so value-level stats
/// ride the walk the guide already pays for on the DML path. Node path ids
/// name paths in the applying guide's dictionary.
class ScalarSink {
 public:
  virtual ~ScalarSink() = default;
  virtual void OnScalar(const StagedNode& node) = 0;
  virtual void OnDocumentEnd() = 0;
};

/// The JSON DataGuide (§3): a dynamic soft schema computed from document
/// instances. One instance serves both roles in the paper — the persistent
/// DataGuide embedded in the JSON search index and the transient DataGuide
/// produced by the SQL aggregate.
class DataGuide {
 public:
  DataGuide() = default;
  /// An empty guide that interns into `paths`: seeded with a copy of
  /// another guide's dictionary, the two name every shared path by the
  /// same id.
  explicit DataGuide(PathDictionary paths) : paths_(std::move(paths)) {}
  /// A copy re-points its entries' path text at its own dictionary.
  DataGuide(const DataGuide& other);
  DataGuide(DataGuide&& other) noexcept;

  /// Extracts the skeleton of one document and merges it in:
  /// StageDocument() against this guide's dictionary, then Apply(). Returns the number of *new* $DG rows this document
  /// introduced (0 for documents whose structure is already fully known —
  /// the fast common case the check-constraint integration relies on,
  /// §3.2.1). When `new_entries` is non-null, pointers to the newly created
  /// entries are appended (the rows a persistent DataGuide must write to
  /// $DG). When `sink` is non-null it receives every scalar node.
  Result<int> AddDocument(const json::Dom& dom,
                          std::vector<const PathEntry*>* new_entries = nullptr,
                          ScalarSink* sink = nullptr);

  /// Merges a document staged against this guide's dictionary; cannot
  /// fail. Return value, `new_entries` and `sink` as for AddDocument.
  int Apply(const StagedDoc& doc, std::vector<const PathEntry*>* new_entries,
            ScalarSink* sink);

  /// Convenience: parse text then AddDocument.
  Result<int> AddJsonText(std::string_view text);

  /// Merges another DataGuide (union of paths, generalization of types).
  /// Entries are matched by path text: the two dictionaries' ids differ.
  void Merge(const DataGuide& other);

  uint64_t document_count() const { return doc_count_; }
  size_t distinct_path_count() const { return entries_.size(); }

  const PathDictionary& paths() const { return paths_; }
  PathDictionary* mutable_paths() { return &paths_; }

  /// In-memory footprint of the guide (ISSUE 9 memory attribution):
  /// per-entry hash node and payload, the entry hash map's bucket array,
  /// and the path dictionary, which holds each path's text once.
  /// Deterministic size-based formula; min/max sample Values are excluded
  /// (bounded per entry, and their variant payloads would make the formula
  /// value-dependent). Maintained as entries are added: O(1), and safe to
  /// poll while another thread applies documents.
  uint64_t MemoryBytes() const {
    return paths_.MemoryBytes() +
           entry_bytes_.load(std::memory_order_relaxed);
  }
  /// Exact walk with the same formula; the accounting unit test pins
  /// MemoryBytes() == RecomputeMemoryBytes() across inserts, merges and
  /// copies.
  uint64_t RecomputeMemoryBytes() const;

  /// Entries sorted by path (then container-before-leaf).
  std::vector<const PathEntry*> SortedEntries() const;

  /// Looks up an entry by path and kind.
  const PathEntry* Find(std::string_view path, json::NodeKind kind,
                        bool under_array) const {
    return Find(paths_.Find(path), kind, under_array);
  }
  /// The same by path id; nullptr for kNoPath. Allocation-free.
  const PathEntry* Find(PathId path, json::NodeKind kind,
                        bool under_array) const;

  /// Flat form (§3.2.2): a JSON array of {"o:path", "type", "o:length",
  /// "o:frequency"} objects — the shape Table 2 tabulates.
  std::string ToFlatJson() const;

  /// Hierarchical form: a JSON-Schema-flavored nested document with
  /// "type" / "properties" / "items" plus "o:length"/"o:frequency"
  /// annotations, as returned by getDataGuide().
  std::string ToHierarchicalJson() const;

  /// Leaf scalar paths with a one-to-one relationship to documents
  /// (never under an array) — the candidates for JSON_VALUE virtual
  /// columns (§3.3.1).
  std::vector<const PathEntry*> SingletonScalarPaths() const;

 private:
  /// Entries are keyed {path id, kind, under_array}, packed in one integer.
  static uint64_t EntryKey(PathId path, json::NodeKind kind,
                           bool under_array) {
    return uint64_t{path} << 8 | static_cast<uint64_t>(kind) << 1 |
           (under_array ? 1 : 0);
  }
  static PathId KeyPath(uint64_t key) { return static_cast<PathId>(key >> 8); }
  /// The entry share of the MemoryBytes() formula (no walk needed).
  uint64_t EntryBytes() const;

  PathDictionary paths_;
  std::unordered_map<uint64_t, PathEntry> entries_;
  uint64_t doc_count_ = 0;
  std::atomic<uint64_t> entry_bytes_{0};  // EntryBytes(), pollable
};

}  // namespace fsdm::dataguide

#endif  // FSDM_DATAGUIDE_DATAGUIDE_H_
