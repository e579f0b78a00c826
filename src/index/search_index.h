#ifndef FSDM_INDEX_SEARCH_INDEX_H_
#define FSDM_INDEX_SEARCH_INDEX_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dataguide/dataguide.h"
#include "rdbms/executor.h"
#include "rdbms/table.h"

namespace fsdm::index {

/// The posting lists of a JSON search index and their byte accounting: per
/// path id the sorted row ids of the documents holding the path, and per
/// (path id, text) key those holding a scalar display (values) or a
/// lowercased token (keywords). Path ids are those of a PathDictionary the
/// owner keeps. The live index maintains one store; the consistency check
/// builds a shadow with the same Swap() calls and diffs the two.
///
/// Value and keyword keys share one open-addressing table (see DESIGN.md
/// "Search index postings"): each slot holds a 32-bit hash and the index of
/// an entry; an entry holds the key (path id, kind bit and the offset of
/// its text in one arena) and either its single row id inline or the index
/// of a spilled sorted row-id list.
///
/// No value or keyword list is ever empty: an erase never creates a key,
/// and removing the last row id removes the key. An emptied path list
/// releases its heap but keeps its slot.
class Postings {
 public:
  using PathId = dataguide::PathId;

  /// Row ids a Swap() added and removed, for the owner's telemetry.
  struct Moved {
    size_t appended = 0;
    size_t erased = 0;
  };

  /// Moves `row_id` from the posting keys of `from` to those of `to`: an
  /// insert swaps from no document, a delete to none, a replace from the
  /// old document to the new one. A key both documents have keeps its list
  /// untouched rather than being erased and re-added, which would shift
  /// the long lists of common paths, values and tokens twice. A pure
  /// in-memory mutation that cannot fail.
  Moved Swap(const dataguide::StagedDoc& from, const dataguide::StagedDoc& to,
             size_t row_id);
  /// Drops every posting list in place. The path slots stay, and the slot,
  /// entry, spill and arena arrays keep their capacity, so refilling the
  /// same postings lands on the same MemoryBytes().
  void Clear();

  /// The rows under a path, value display or keyword token; empty when
  /// there are none. Valid until the next Swap() or Clear().
  std::span<const size_t> PathRows(PathId path) const {
    if (path >= paths_.size()) return {};
    return paths_[path];
  }
  std::span<const size_t> ValueRows(PathId path,
                                    std::string_view display) const {
    return Rows(Find(KeyOf(path, false), display));
  }
  std::span<const size_t> KeywordRows(PathId path,
                                      std::string_view token) const {
    return Rows(Find(KeyOf(path, true), token));
  }

  /// Appends to `problems`, sorted, one line per list that differs from
  /// `expected`'s (missing, spurious or wrong rows) and per list that is
  /// empty but should not be. `names` names every path id of both stores.
  void Diff(const Postings& expected, const dataguide::PathDictionary& names,
            std::vector<std::string>* problems) const;

  size_t posting_count() const;

  /// In-memory footprint: the slot, entry and spill arrays and the key
  /// text arena by capacity (a spill is one list header per key with two
  /// or more rows); the rows of spilled and path lists by size; one vector
  /// header per path slot. An inline row id lives in its entry. Path text
  /// is the dictionary's, charged there. Kept incrementally, O(1) to read;
  /// atomic (relaxed) so another thread may read it while DML mutates it.
  uint64_t MemoryBytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  /// Exact O(postings) walk with the same formula.
  uint64_t RecomputeMemoryBytes() const;

 private:
  /// Reads the table's layout in tests/index/postings_model_test.cc.
  friend struct PostingsPeer;

  static constexpr uint32_t kNone = UINT32_MAX;
  static constexpr uint32_t kFree = UINT32_MAX - 1;
  static constexpr size_t kNoSlot = SIZE_MAX;

  /// One table slot: the key's 32-bit hash (its low bits are the home
  /// slot, all of it is the tag compared before any text) and its entry.
  struct Slot {
    uint32_t hash = 0;
    uint32_t entry = kNone;
  };
  /// A value or keyword key and its rows. An entry keeps its index while
  /// its key lives; a removed key's entry goes on a free list chained
  /// through `row`.
  struct Entry {
    uint32_t key;     // path id << 1 | keyword bit
    uint32_t length;  // key text bytes at arena_[offset]
    uint32_t offset;
    uint32_t spill;  // kNone: one row id in `row`; kFree: unused entry
    size_t row;
  };
  /// The sorted rows of a key with two or more; `entry` points back so a
  /// freed spill can be filled with the last one.
  struct Spill {
    std::vector<size_t> rows;
    uint32_t entry;
  };

  static uint32_t KeyOf(PathId path, bool keyword) {
    assert(path < (1u << 31));
    return path << 1 | (keyword ? 1u : 0u);
  }
  static uint32_t HashOf(uint32_t key, std::string_view text);
  std::string_view Text(const Entry& e) const {
    return {arena_.data() + e.offset, e.length};
  }
  /// The slot holding the key, or kNoSlot.
  size_t FindSlot(uint32_t key, std::string_view text, uint32_t hash) const;
  /// The key's entry, or kNone.
  uint32_t Find(uint32_t key, std::string_view text) const;
  /// The rows of an entry (empty for kNone).
  std::span<const size_t> Rows(uint32_t entry) const;
  /// Adds `row_id` under the key, creating the key if needed; returns its
  /// entry.
  uint32_t Apply(uint32_t key, std::string_view text, size_t row_id,
                 Moved* moved);
  /// Removes `row_id` from the key at `slot`, and the key with it when
  /// its last row goes.
  void Erase(size_t slot, size_t row_id, Moved* moved);
  /// Removes the key at `slot` and frees its entry and text.
  void RemoveKey(size_t slot);
  /// Puts `slot` into the first empty slot from its home.
  void Place(Slot slot);
  /// Doubles the slot array (or makes the first one).
  void Grow();
  /// Rewrites the arena with only the live keys' text, into a buffer of
  /// `capacity` bytes.
  void CompactArena(size_t capacity);
  void ApplyPath(PathId path, size_t row_id, Moved* moved);
  void ErasePath(PathId path, size_t row_id, Moved* moved);
  /// Bytes of the arrays charged by capacity.
  uint64_t CapacityBytes() const;
  /// Charges what CapacityBytes() grew by since the last charge.
  void SyncCapacityBytes();
  void Charge(uint64_t bytes) {
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void Refund(uint64_t bytes) {
    bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  std::vector<std::vector<size_t>> paths_;
  std::vector<Slot> slots_;  // power-of-two size, or empty
  std::vector<Entry> entries_;
  std::vector<Spill> spills_;
  std::vector<char> arena_;
  size_t keys_ = 0;            // occupied slots
  uint32_t free_ = kNone;      // head of the free entry list
  size_t dead_text_ = 0;       // arena bytes of removed keys
  std::atomic<uint64_t> bytes_{0};
  uint64_t charged_capacity_ = 0;  // CapacityBytes() as charged
  // Swap()'s scratch, kept between calls: a move allocates only to spill
  // a key, to grow a list or an array, or to rewrite the arena.
  std::vector<PathId> from_paths_;
  std::vector<PathId> to_paths_;
  std::vector<uint32_t> kept_;
  std::string tokens_;
};

/// Schema-agnostic JSON search index (§3.2.1): an inverted index over every
/// JSON field path and every leaf scalar value of a JSON text column
/// (strings tokenized into keywords for full-text search), maintained
/// incrementally as a TableObserver on the base table's DML path.
///
/// The persistent JSON DataGuide is a component of this index: structural
/// analysis happens on the same parse the IS JSON constraint already paid
/// for, and new paths are persisted into the $DG side table. For documents
/// that introduce no new structure the DataGuide step is a pure hash-lookup
/// pass (the paper's fast common case).
///
/// The persistent DataGuide is additive: deletes remove postings but never
/// remove $DG rows (§3.4).
///
/// Failure semantics: every callback is one move of a row id between the
/// posting keys of two documents, and the move stages both documents (the
/// DataGuide's instance walk) *before* mutating the posting lists, so a
/// failure during staging (parse error, injected fault) leaves every
/// posting list as it was (staging may only have interned paths into the
/// guide's additive path dictionary) — in particular a replace is
/// stage-then-swap, never unindex-then-reindex. When a failure strikes
/// after the postings were applied (DataGuide persistence) or during a
/// compensation callback from the table, the index first tries to undo its
/// own partial work; if that undo itself fails it enters a *degraded*
/// state: all maintenance and undo callbacks become no-ops (so errors don't
/// cascade), degraded() turns true, and the router stops trusting the
/// postings until Rebuild() reconstructs them from the live table rows.
/// DataGuide additions are never rolled back (additive semantics, §3.4):
/// after a rollback the guide's frequencies may over-count, which
/// consistency checks must tolerate as `guide frequency >= observed
/// frequency`.
class JsonSearchIndex final : public rdbms::TableObserver {
 public:
  struct Options {
    /// Maintain the persistent DataGuide ($DG) alongside the postings.
    bool maintain_dataguide = true;
    /// Maintain inverted postings (paths/values/keywords). Disable to
    /// isolate DataGuide maintenance cost in benchmarks.
    bool maintain_postings = true;
    /// Optional observer fed every scalar node of each staged document
    /// (ISSUE 5: the collection's PathStatsRepository rides here, so
    /// value-level statistics cost no extra parse or walk). Not owned;
    /// must outlive the index. Only fires when maintain_dataguide is on.
    dataguide::ScalarSink* scalar_sink = nullptr;
  };

  /// Attaches to `table` as an observer and back-fills from existing rows.
  /// The index does not own the table; call Detach() (or destroy the
  /// index) before the table goes away.
  static Result<std::unique_ptr<JsonSearchIndex>> Create(
      rdbms::Table* table, const std::string& json_column,
      const Options& options);
  static Result<std::unique_ptr<JsonSearchIndex>> Create(
      rdbms::Table* table, const std::string& json_column) {
    return Create(table, json_column, Options());
  }

  ~JsonSearchIndex() override;
  void Detach();

  // --- TableObserver --------------------------------------------------------
  Status OnInsert(size_t row_id, const rdbms::Row& row) override;
  Status OnDelete(size_t row_id, const rdbms::Row& row) override;
  Status OnReplace(size_t row_id, const rdbms::Row& old_row,
                   const rdbms::Row& new_row) override;
  Status UndoInsert(size_t row_id, const rdbms::Row& row) override;
  Status UndoDelete(size_t row_id, const rdbms::Row& row) override;
  Status UndoReplace(size_t row_id, const rdbms::Row& old_row,
                     const rdbms::Row& new_row) override;

  // --- Crash consistency ------------------------------------------------
  /// True after a compensation failure left the postings untrustworthy.
  /// While degraded, maintenance is suspended and posting-backed access
  /// paths must not be used.
  bool degraded() const { return degraded_; }
  const std::string& degraded_reason() const { return degraded_reason_; }
  /// Test/ops hook: force the degraded state without an actual failure.
  void MarkDegraded(std::string reason);

  /// Reconstructs the postings (and DataGuide coverage) from the live
  /// table rows and clears the degraded state. On failure the index stays
  /// (or becomes) degraded with the failure recorded.
  Status Rebuild();

  // --- Ad-hoc queries (JSON_EXISTS / JSON_VALUE / JSON_TEXTCONTAINS
  //     pushdown) --------------------------------------------------------
  /// Row ids of documents containing the structural path ("$.a.b").
  std::vector<size_t> DocsWithPath(const std::string& path) const;
  /// Row ids of documents where `path` holds exactly `value` (scalar
  /// comparison by canonical display form).
  std::vector<size_t> DocsWithValue(const std::string& path,
                                    const Value& value) const;
  /// Row ids of documents where any string under `path` contains the
  /// keyword (lowercased token match).
  std::vector<size_t> DocsWithKeyword(const std::string& path,
                                      const std::string& keyword) const;

  // --- Persistent DataGuide --------------------------------------------
  const dataguide::DataGuide& dataguide() const { return dataguide_; }

  /// Renders the $DG side table (§3.2.1, Tables 2/4/6): one row per
  /// distinct path with its type string and statistics. Schema:
  /// (PATH, TYPE, LENGTH, FREQUENCY, NULL_COUNT, MIN, MAX).
  rdbms::Schema DgSchema() const;
  std::vector<rdbms::Row> DgRows() const;

  /// The live $DG side table maintained incrementally on the DML path
  /// (PATH, TYPE columns; statistics live in DgRows()).
  const rdbms::Table* dg_table() const { return dg_table_.get(); }

  /// getDataGuide(): flat or hierarchical JSON rendering (§3.2.2).
  std::string GetDataGuide(bool hierarchical = false) const;

  // --- Introspection ----------------------------------------------------
  size_t indexed_document_count() const { return indexed_docs_; }
  /// The live postings, keyed by the ids of dataguide().paths(); read-only
  /// (the consistency check diffs them against a shadow store).
  const Postings& postings() const { return postings_; }
  size_t posting_count() const { return postings_.posting_count(); }

  /// In-memory footprint of the postings (see Postings::MemoryBytes()),
  /// O(1) to read — the shard publishes it into the collection's
  /// index-postings memory account.
  uint64_t MemoryBytes() const { return postings_.MemoryBytes(); }
  /// Exact O(postings) walk with the same formula; the accounting unit
  /// test pins MemoryBytes() == RecomputeMemoryBytes() across DML mixes,
  /// rollbacks and rebuilds.
  uint64_t RecomputeMemoryBytes() const {
    return postings_.RecomputeMemoryBytes();
  }
  /// Number of $DG persistence events (documents that introduced at least
  /// one new path) — what Figures 7/8 measure indirectly.
  size_t dg_write_count() const { return dg_writes_; }

 private:
  JsonSearchIndex(rdbms::Table* table, size_t json_col_pos, Options options)
      : table_(table), json_col_pos_(json_col_pos), options_(options) {}

  using PathId = dataguide::PathId;
  using StagedDoc = dataguide::StagedDoc;

  /// doc -> staged nodes: the one parse-and-walk that every maintenance
  /// step shares. A null document stages no node. When `use_dml_parse`,
  /// borrows the DOM the IS JSON check already built for the in-flight DML
  /// (§3.2.1) if present. Interning into `paths` is its only effect, so a
  /// failure here leaves every posting list as it was.
  Result<StagedDoc> StageDoc(const Value& doc, bool use_dml_parse,
                             dataguide::PathDictionary* paths) const;

  /// Postings::Swap() on the live store, counted as index activity. A
  /// pure in-memory mutation that cannot fail, which is what makes
  /// stage-then-swap atomic.
  void SwapPostings(const StagedDoc& from, const StagedDoc& to,
                    size_t row_id);

  /// DataGuide + $DG side-table maintenance for one staged document.
  Status MaintainDataGuide(const StagedDoc& doc);

  /// The one write step behind all six callbacks: moves `row_id` from the
  /// posting keys of `from` to those of `to` (a null document has none)
  /// and moves the document count by (to non-null) - (from non-null).
  /// Stages both documents before mutating anything. The in-flight
  /// document may borrow the DML parse: `to` on a forward move, `from` on
  /// an `undo`. `from` is staged only when postings are maintained, and
  /// an undo stages nothing otherwise. A forward move then teaches the
  /// guide a non-null `to`; when that fails it swaps its postings back
  /// (degrading the index if even that fails) and returns the failure.
  /// `dml` names the statement in degraded reasons.
  Status Move(size_t row_id, const Value& from, const Value& to,
              const char* dml, bool undo = false);
  /// The Undo* callbacks: Move(undo) behind the `index.undo.postings`
  /// fault point; degrades the index on failure.
  Status Undo(size_t row_id, const Value& from, const Value& to,
              const char* dml);

  rdbms::Table* table_;
  size_t json_col_pos_;  // position within the physical row
  Options options_;

  // Keyed by the ids of dataguide_'s path dictionary.
  Postings postings_;
  // Owns the path dictionary the postings key on, whether or not the guide
  // itself is maintained.
  dataguide::DataGuide dataguide_;
  // The persistent $DG side table (§3.2.1): one row per distinct path,
  // appended when a document introduces new structure.
  std::unique_ptr<rdbms::Table> dg_table_;
  size_t indexed_docs_ = 0;
  size_t dg_writes_ = 0;
  bool detached_ = false;
  bool degraded_ = false;
  std::string degraded_reason_;
};

/// Splits a string into lowercase alphanumeric tokens (the tokenizer the
/// keyword postings use).
std::vector<std::string> TokenizeKeywords(std::string_view text);

/// One conjunct of a posting scan: a path-equals-value term when `value`
/// is set, a bare path-existence term otherwise.
struct IndexTerm {
  std::string path;
  std::optional<Value> value;
};

/// Statistics of the lookups and merge PostingScan performed, for the
/// router's cost feedback.
struct IntersectionInfo {
  size_t total_postings = 0;  // summed input posting-list lengths
  size_t matched = 0;         // rows surviving the intersection
};

/// The index-backed access path (§3.2.1: JSON_EXISTS, JSON_VALUE equality
/// and their conjunctions answered from the inverted index instead of
/// scanning every document). Fetches one posting list per term: one term's
/// list is scanned unchanged; two or more are intersected smallest-first
/// (sorted row-id merge with early exit on an empty intermediate). Emits
/// the base table's rows that are still live when drained, in row-id
/// order. With zero terms emits nothing.
rdbms::OperatorPtr PostingScan(const rdbms::Table* table,
                               const JsonSearchIndex* index,
                               const std::vector<IndexTerm>& terms,
                               IntersectionInfo* info = nullptr);

}  // namespace fsdm::index

#endif  // FSDM_INDEX_SEARCH_INDEX_H_
