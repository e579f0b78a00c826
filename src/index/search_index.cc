#include "index/search_index.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <utility>

#include "common/hash.h"
#include "fault/fault.h"
#include "json/parser.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/log.h"
#include "telemetry/telemetry.h"

namespace fsdm::index {

namespace {

/// Sorted-unique insert; true when `row_id` was added.
bool AddRowId(std::vector<size_t>* postings, size_t row_id) {
  auto it = std::lower_bound(postings->begin(), postings->end(), row_id);
  if (it != postings->end() && *it == row_id) return false;
  postings->insert(it, row_id);
  return true;
}

/// True when `row_id` was present and removed.
bool RemoveRowId(std::vector<size_t>* postings, size_t row_id) {
  auto it = std::lower_bound(postings->begin(), postings->end(), row_id);
  if (it == postings->end() || *it != row_id) return false;
  postings->erase(it);
  return true;
}

/// The keyword tokenizer: calls `emit(token)` for every maximal run of
/// ASCII alphanumerics in `text`, lowercased. The tokens are views into
/// `buf`, valid until its next use; nothing else is allocated.
template <typename Emit>
void ForEachKeyword(std::string_view text, std::string* buf,
                    const Emit& emit) {
  buf->resize(text.size());
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    const unsigned char c = i < text.size() ? text[i] : ' ';
    if (std::isalnum(c)) {
      (*buf)[i] = static_cast<char>(std::tolower(c));
      continue;
    }
    if (i > start) emit(std::string_view(buf->data() + start, i - start));
    start = i + 1;
  }
}

/// Calls `emit(is_keyword, path id, text)` for every value and keyword
/// posting key of a staged document: each non-null scalar's display, and
/// each string's keyword tokens (views into `buf`).
template <typename Emit>
void ForEachTextKey(const dataguide::StagedDoc& doc, std::string* buf,
                    const Emit& emit) {
  for (const dataguide::StagedNode& n : doc.nodes) {
    if (n.kind != json::NodeKind::kScalar || n.value.is_null()) continue;
    emit(false, n.path, n.Display());
    if (n.value.type() != ScalarType::kString) continue;
    ForEachKeyword(n.value.AsString(), buf, [&](std::string_view token) {
      emit(true, n.path, token);
    });
  }
}

/// Fills `paths` with the document's path ids, sorted and unique (array
/// elements share their array's path).
void SortedPaths(const dataguide::StagedDoc& doc,
                 std::vector<dataguide::PathId>* paths) {
  paths->clear();
  for (const dataguide::StagedNode& n : doc.nodes) paths->push_back(n.path);
  std::sort(paths->begin(), paths->end());
  paths->erase(std::unique(paths->begin(), paths->end()), paths->end());
}

/// An empty $DG side table for the collection table `table`. Its inserts
/// fire their own fault point, so a fault armed to veto the collection's
/// DML (`table.insert.apply`) never hits a $DG persist instead.
std::unique_ptr<rdbms::Table> NewDgTable(const std::string& table) {
  return std::make_unique<rdbms::Table>(
      table + "$DG",
      std::vector<rdbms::ColumnDef>{
          {.name = "PATH", .type = rdbms::ColumnType::kString},
          {.name = "TYPE", .type = rdbms::ColumnType::kString}},
      "index.dataguide.persist");
}

/// The table grows before a key would push the share of occupied slots
/// past 3/4.
constexpr size_t kLoadNum = 3;
constexpr size_t kLoadDen = 4;
constexpr size_t kFirstSlots = 16;
constexpr size_t kFirstArena = 64;

}  // namespace

std::vector<std::string> TokenizeKeywords(std::string_view text) {
  std::vector<std::string> tokens;
  std::string buf;
  ForEachKeyword(text, &buf,
                 [&](std::string_view token) { tokens.emplace_back(token); });
  return tokens;
}

uint32_t Postings::HashOf(uint32_t key, std::string_view text) {
  const uint64_t h = Hash64(text, (uint64_t{key} + 1) * 0x9e3779b97f4a7c15ull);
  return static_cast<uint32_t>(h ^ (h >> 32));
}

size_t Postings::FindSlot(uint32_t key, std::string_view text,
                          uint32_t hash) const {
  if (slots_.empty()) return kNoSlot;
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.entry == kNone) return kNoSlot;
    if (s.hash != hash) continue;
    const Entry& e = entries_[s.entry];
    if (e.key == key && Text(e) == text) return i;
  }
}

uint32_t Postings::Find(uint32_t key, std::string_view text) const {
  const size_t slot = FindSlot(key, text, HashOf(key, text));
  return slot == kNoSlot ? kNone : slots_[slot].entry;
}

std::span<const size_t> Postings::Rows(uint32_t entry) const {
  if (entry == kNone) return {};
  const Entry& e = entries_[entry];
  if (e.spill == kNone) return {&e.row, 1};
  return spills_[e.spill].rows;
}

void Postings::Place(Slot slot) {
  const size_t mask = slots_.size() - 1;
  size_t i = slot.hash & mask;
  while (slots_[i].entry != kNone) i = (i + 1) & mask;
  slots_[i] = slot;
}

void Postings::Grow() {
  std::vector<Slot> old(slots_.empty() ? kFirstSlots : slots_.size() * 2);
  old.swap(slots_);
  for (const Slot& s : old) {
    if (s.entry != kNone) Place(s);
  }
}

uint32_t Postings::Apply(uint32_t key, std::string_view text, size_t row_id,
                         Moved* moved) {
  const uint32_t hash = HashOf(key, text);
  const size_t slot = FindSlot(key, text, hash);
  if (slot != kNoSlot) {
    const uint32_t index = slots_[slot].entry;
    Entry& e = entries_[index];
    if (e.spill == kNone) {
      if (e.row == row_id) return index;
      // The key's second row: spill both to a sorted list.
      assert(spills_.size() < kFree);
      e.spill = static_cast<uint32_t>(spills_.size());
      spills_.push_back(Spill{{std::min(e.row, row_id), std::max(e.row, row_id)},
                              index});
      Charge(2 * sizeof(size_t));
    } else if (AddRowId(&spills_[e.spill].rows, row_id)) {
      Charge(sizeof(size_t));
    } else {
      return index;
    }
    ++moved->appended;
    return index;
  }
  if ((keys_ + 1) * kLoadDen > slots_.size() * kLoadNum) Grow();
  if (arena_.size() + text.size() > arena_.capacity()) {
    // A full arena is rewritten without its dead text; it doubles only
    // when its live text would then fill more than 7/8 of it, so churn
    // that replaces keys reuses the capacity their text left behind.
    const size_t needed = arena_.size() - dead_text_ + text.size();
    size_t capacity = arena_.capacity();
    if (needed * 8 > capacity * 7) {
      capacity = std::max({kFirstArena, 2 * capacity, needed});
    }
    CompactArena(capacity);
  }
  assert(arena_.size() + text.size() <= UINT32_MAX);
  const uint32_t offset = static_cast<uint32_t>(arena_.size());
  arena_.insert(arena_.end(), text.begin(), text.end());
  uint32_t index = free_;
  if (index != kNone) {
    free_ = static_cast<uint32_t>(entries_[index].row);
  } else {
    assert(entries_.size() < kFree);
    index = static_cast<uint32_t>(entries_.size());
    entries_.emplace_back();
  }
  entries_[index] = Entry{key, static_cast<uint32_t>(text.size()), offset,
                          kNone, row_id};
  Place(Slot{hash, index});
  ++keys_;
  ++moved->appended;
  return index;
}

void Postings::Erase(size_t slot, size_t row_id, Moved* moved) {
  Entry& e = entries_[slots_[slot].entry];
  if (e.spill == kNone) {
    if (e.row != row_id) return;
    RemoveKey(slot);
  } else {
    std::vector<size_t>& rows = spills_[e.spill].rows;
    if (!RemoveRowId(&rows, row_id)) return;
    Refund(sizeof(size_t));
    if (rows.size() == 1) {
      // Back to one row: inline it and fill the spill with the last one.
      Refund(sizeof(size_t));
      e.row = rows.front();
      if (e.spill + 1 != spills_.size()) {
        spills_[e.spill] = std::move(spills_.back());
        entries_[spills_[e.spill].entry].spill = e.spill;
      }
      spills_.pop_back();
      e.spill = kNone;
    }
  }
  ++moved->erased;
}

void Postings::RemoveKey(size_t slot) {
  const uint32_t index = slots_[slot].entry;
  Entry& e = entries_[index];
  dead_text_ += e.length;
  e.spill = kFree;
  e.row = free_;
  free_ = index;
  --keys_;
  // Backward-shift deletion: pull each later key of the probe run into
  // the hole unless its home slot lies cyclically in (hole, its slot].
  const size_t mask = slots_.size() - 1;
  size_t hole = slot;
  for (size_t i = (hole + 1) & mask; slots_[i].entry != kNone;
       i = (i + 1) & mask) {
    const size_t home = slots_[i].hash & mask;
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole] = Slot{};
}

void Postings::CompactArena(size_t capacity) {
  std::vector<char> fresh;
  fresh.reserve(capacity);
  for (Entry& e : entries_) {
    if (e.spill == kFree) continue;
    const std::string_view text = Text(e);
    e.offset = static_cast<uint32_t>(fresh.size());
    fresh.insert(fresh.end(), text.begin(), text.end());
  }
  arena_.swap(fresh);
  dead_text_ = 0;
}

void Postings::ApplyPath(PathId path, size_t row_id, Moved* moved) {
  if (path >= paths_.size()) {
    Charge((path + 1 - paths_.size()) * sizeof(std::vector<size_t>));
    paths_.resize(path + 1);
  }
  if (!AddRowId(&paths_[path], row_id)) return;
  Charge(sizeof(size_t));
  ++moved->appended;
}

void Postings::ErasePath(PathId path, size_t row_id, Moved* moved) {
  if (path >= paths_.size()) return;
  std::vector<size_t>* postings = &paths_[path];
  if (!RemoveRowId(postings, row_id)) return;
  // The path's last document is gone: release the list's heap.
  if (postings->empty()) std::vector<size_t>().swap(*postings);
  Refund(sizeof(size_t));
  ++moved->erased;
}

uint64_t Postings::CapacityBytes() const {
  return slots_.capacity() * sizeof(Slot) +
         entries_.capacity() * sizeof(Entry) +
         spills_.capacity() * sizeof(Spill) + arena_.capacity();
}

void Postings::SyncCapacityBytes() {
  // The arrays never shrink: Clear() and arena rewrites keep capacity.
  const uint64_t now = CapacityBytes();
  assert(now >= charged_capacity_);
  Charge(now - charged_capacity_);
  charged_capacity_ = now;
}

Postings::Moved Postings::Swap(const dataguide::StagedDoc& from,
                               const dataguide::StagedDoc& to,
                               size_t row_id) {
  Moved moved;
  // Sorted, unique path ids, so one merge finds the shared ones.
  SortedPaths(from, &from_paths_);
  SortedPaths(to, &to_paths_);
  auto f = from_paths_.begin();
  auto t = to_paths_.begin();
  while (f != from_paths_.end() || t != to_paths_.end()) {
    if (t == to_paths_.end() || (f != from_paths_.end() && *f < *t)) {
      ErasePath(*f++, row_id, &moved);
    } else if (f == from_paths_.end() || *t < *f) {
      ApplyPath(*t++, row_id, &moved);
    } else {
      ++f;
      ++t;
    }
  }
  // Values and keywords: apply `to` first and remember the entries it
  // touched (an entry's index is stable, and none is freed before the
  // erases); a key of `from` whose entry is among them is shared and stays
  // as it is. An erase never creates a key.
  kept_.clear();
  ForEachTextKey(to, &tokens_,
                 [&](bool keyword, PathId p, std::string_view text) {
                   const uint32_t entry =
                       Apply(KeyOf(p, keyword), text, row_id, &moved);
                   if (!from.nodes.empty()) kept_.push_back(entry);
                 });
  if (!from.nodes.empty()) {
    std::sort(kept_.begin(), kept_.end());
    ForEachTextKey(from, &tokens_,
                   [&](bool keyword, PathId p, std::string_view text) {
                     const uint32_t key = KeyOf(p, keyword);
                     const size_t slot =
                         FindSlot(key, text, HashOf(key, text));
                     if (slot != kNoSlot &&
                         !std::binary_search(kept_.begin(), kept_.end(),
                                             slots_[slot].entry)) {
                       Erase(slot, row_id, &moved);
                     }
                   });
    // Dead key text stays below live key text.
    if (dead_text_ > arena_.size() - dead_text_) {
      CompactArena(arena_.capacity());
    }
  }
  SyncCapacityBytes();
  return moved;
}

void Postings::Clear() {
  for (std::vector<size_t>& postings : paths_) {
    std::vector<size_t>().swap(postings);
  }
  std::fill(slots_.begin(), slots_.end(), Slot{});
  entries_.clear();
  spills_.clear();
  arena_.clear();
  keys_ = 0;
  free_ = kNone;
  dead_text_ = 0;
  charged_capacity_ = CapacityBytes();
  bytes_.store(RecomputeMemoryBytes(), std::memory_order_relaxed);
}

void Postings::Diff(const Postings& expected,
                    const dataguide::PathDictionary& names,
                    std::vector<std::string>* problems) const {
  const size_t first = problems->size();
  auto diff = [&](const std::string& key, std::span<const size_t> held,
                  std::span<const size_t> implied) {
    if (std::equal(held.begin(), held.end(), implied.begin(), implied.end())) {
      return;
    }
    problems->push_back("posting " + key + ": index has " +
                        std::to_string(held.size()) + " docs, table implies " +
                        std::to_string(implied.size()) +
                        (implied.empty() ? " (spurious)" : ""));
  };
  // Path lists, by id: an empty list is a path no live document has, and
  // must hold no heap.
  for (PathId id = 0; id < std::max(paths_.size(), expected.paths_.size());
       ++id) {
    const std::string path(names.Name(id));
    if (id < paths_.size() && paths_[id].empty() &&
        paths_[id].capacity() != 0) {
      problems->push_back("posting " + path +
                          ": empty list still holds heap");
    }
    diff(path, PathRows(id), expected.PathRows(id));
  }
  // Value and keyword lists: every expected key is present and exact, and
  // no key here is spurious or empty.
  auto name = [&](const Postings& store, const Entry& e) {
    return std::string(names.Name(e.key >> 1)) + ((e.key & 1) ? "~" : "=") +
           std::string(store.Text(e));
  };
  for (const Entry& e : expected.entries_) {
    if (e.spill == kFree) continue;
    diff(name(expected, e), Rows(Find(e.key, expected.Text(e))),
         expected.Rows(static_cast<uint32_t>(&e - expected.entries_.data())));
  }
  for (const Entry& e : entries_) {
    if (e.spill == kFree) continue;
    const std::span<const size_t> rows =
        Rows(static_cast<uint32_t>(&e - entries_.data()));
    if (rows.empty()) {
      problems->push_back("posting " + name(*this, e) +
                          ": empty list (an emptied key must be removed)");
    } else if (expected.Find(e.key, Text(e)) == kNone) {
      diff(name(*this, e), rows, {});
    }
  }
  // Entry order depends on the DML history; sorting makes the report
  // deterministic.
  std::sort(problems->begin() + first, problems->end());
}

size_t Postings::posting_count() const {
  size_t n = 0;
  for (const std::vector<size_t>& v : paths_) n += v.size();
  for (const Entry& e : entries_) {
    if (e.spill == kNone) {
      ++n;
    } else if (e.spill != kFree) {
      n += spills_[e.spill].rows.size();
    }
  }
  return n;
}

uint64_t Postings::RecomputeMemoryBytes() const {
  uint64_t total =
      CapacityBytes() + paths_.size() * sizeof(std::vector<size_t>);
  for (const std::vector<size_t>& rows : paths_) {
    total += rows.size() * sizeof(size_t);
  }
  for (const Spill& s : spills_) total += s.rows.size() * sizeof(size_t);
  return total;
}

// --- JsonSearchIndex ---------------------------------------------------------


Result<std::unique_ptr<JsonSearchIndex>> JsonSearchIndex::Create(
    rdbms::Table* table, const std::string& json_column,
    const Options& options) {
  // Resolve the column's position within the *physical* row layout, since
  // observers receive physical rows.
  size_t pos = rdbms::Schema::npos;
  const std::vector<size_t>& physical = table->physical_columns();
  for (size_t i = 0; i < physical.size(); ++i) {
    if (table->columns()[physical[i]].name == json_column) {
      pos = i;
      break;
    }
  }
  if (pos == rdbms::Schema::npos) {
    return Status::NotFound("physical column '" + json_column + "' on " +
                            table->name());
  }
  if (table->columns()[table->physical_columns()[pos]].type !=
      rdbms::ColumnType::kJson) {
    return Status::InvalidArgument("JSON search index requires a JSON column");
  }

  std::unique_ptr<JsonSearchIndex> idx(
      new JsonSearchIndex(table, pos, options));
  idx->dg_table_ = NewDgTable(table->name());
  // Back-fill existing rows.
  for (size_t r = 0; r < table->row_count(); ++r) {
    if (!table->IsLive(r)) continue;
    FSDM_RETURN_NOT_OK(idx->OnInsert(r, table->StoredRow(r)));
  }
  table->AddObserver(idx.get());
  return idx;
}

JsonSearchIndex::~JsonSearchIndex() { Detach(); }

void JsonSearchIndex::Detach() {
  if (!detached_ && table_ != nullptr) {
    table_->RemoveObserver(this);
    detached_ = true;
  }
}

Status JsonSearchIndex::OnInsert(size_t row_id, const rdbms::Row& row) {
  if (degraded_) return Status::Ok();  // maintenance suspended until Rebuild
  FSDM_COUNT("fsdm_index_docs_indexed_total", 1);
  FSDM_TIME_SCOPE_US("fsdm_index_maintain_us");
  FSDM_TRACE_SPAN(span, "index", "index.insert");
  const Value& doc = row[json_col_pos_];
  if (doc.is_null()) return Status::Ok();
  if (options_.maintain_postings) FSDM_FAULT_POINT("index.insert.postings");
  return Move(row_id, Value::Null(), doc, "insert");
}

Status JsonSearchIndex::OnDelete(size_t row_id, const rdbms::Row& row) {
  if (degraded_) return Status::Ok();
  FSDM_COUNT("fsdm_index_docs_unindexed_total", 1);
  FSDM_TIME_SCOPE_US("fsdm_index_maintain_us");
  FSDM_TRACE_SPAN(span, "index", "index.remove");
  const Value& doc = row[json_col_pos_];
  if (doc.is_null()) return Status::Ok();
  if (options_.maintain_postings) FSDM_FAULT_POINT("index.remove.postings");
  // The DataGuide is additive: no path removal on delete (§3.4).
  return Move(row_id, doc, Value::Null(), "delete");
}

Status JsonSearchIndex::OnReplace(size_t row_id, const rdbms::Row& old_row,
                                  const rdbms::Row& new_row) {
  if (degraded_) return Status::Ok();
  // One replace is one maintenance event: one replaced-docs count and one
  // combined latency observation, never a delete plus an insert.
  FSDM_COUNT("fsdm_index_docs_replaced_total", 1);
  FSDM_TIME_SCOPE_US("fsdm_index_maintain_us");
  FSDM_TRACE_SPAN(span, "index", "index.replace");
  FSDM_FAULT_POINT("index.replace.stage");
  return Move(row_id, old_row[json_col_pos_], new_row[json_col_pos_],
              "replace");
}

Status JsonSearchIndex::UndoInsert(size_t row_id, const rdbms::Row& row) {
  const Value& doc = row[json_col_pos_];
  return doc.is_null() ? Status::Ok()
                       : Undo(row_id, doc, Value::Null(), "insert");
}

Status JsonSearchIndex::UndoDelete(size_t row_id, const rdbms::Row& row) {
  const Value& doc = row[json_col_pos_];
  return doc.is_null() ? Status::Ok()
                       : Undo(row_id, Value::Null(), doc, "delete");
}

Status JsonSearchIndex::UndoReplace(size_t row_id, const rdbms::Row& old_row,
                                    const rdbms::Row& new_row) {
  return Undo(row_id, new_row[json_col_pos_], old_row[json_col_pos_],
              "replace");
}

Result<dataguide::StagedDoc> JsonSearchIndex::StageDoc(
    const Value& doc, bool use_dml_parse,
    dataguide::PathDictionary* paths) const {
  if (doc.is_null()) return StagedDoc();
  // Reuse the DOM the IS JSON constraint parsed on this DML when
  // available (§3.2.1); otherwise (back-fill, undo, rebuild) parse here.
  const json::JsonNode* tree =
      use_dml_parse ? table_->ParsedJsonForObserver(json_col_pos_) : nullptr;
  std::unique_ptr<json::JsonNode> owned;
  if (tree == nullptr) {
    FSDM_ASSIGN_OR_RETURN(owned, json::Parse(doc.AsString()));
    tree = owned.get();
  }
  // Displays feed the value postings and the statistics sink.
  const bool with_display =
      options_.maintain_postings || options_.scalar_sink != nullptr;
  return dataguide::StageDocument(json::TreeDom(tree), paths, with_display);
}

void JsonSearchIndex::SwapPostings(const StagedDoc& from, const StagedDoc& to,
                                   size_t row_id) {
  const Postings::Moved moved = postings_.Swap(from, to, row_id);
  FSDM_COUNT("fsdm_index_postings_appended_total", moved.appended);
  FSDM_COUNT("fsdm_index_postings_erased_total", moved.erased);
}

Status JsonSearchIndex::MaintainDataGuide(const StagedDoc& doc) {
  if (!options_.maintain_dataguide) return Status::Ok();
  // Fires *before* Apply so the in-memory guide and the $DG side table
  // always move together (their counts are a consistency invariant).
  FSDM_FAULT_POINT("index.insert.dataguide");
  std::vector<const dataguide::PathEntry*> new_entries;
  const int new_paths =
      dataguide_.Apply(doc, &new_entries, options_.scalar_sink);
  // Persisting to $DG only happens when structure actually changed —
  // the common case terminates after the in-memory structural check.
  if (new_paths > 0) {
    ++dg_writes_;
    FSDM_COUNT("fsdm_index_dataguide_writes_total", 1);
    FSDM_TRACE_SPAN(span, "index", "dg.persist");
    span.AddNumberArg("new_paths", static_cast<double>(new_paths));
    for (const dataguide::PathEntry* e : new_entries) {
      Status persisted = dg_table_
                             ->Insert({Value::String(std::string(e->path)),
                                       Value::String(e->TypeString())})
                             .status();
      if (!persisted.ok()) {
        // Apply already taught the in-memory guide these paths, so a
        // retry sees new_paths == 0 and never re-attempts this write: the
        // $DG side table is permanently behind unless Rebuild() re-derives
        // it from the guide. Degrade so that healing path runs.
        MarkDegraded("$DG persist failed: " + persisted.message());
        return persisted;
      }
    }
  }
  return Status::Ok();
}

Status JsonSearchIndex::Move(size_t row_id, const Value& from,
                             const Value& to, const char* dml, bool undo) {
  // Stage both documents before mutating any posting list: a failure here
  // (parse error, injected fault) leaves the postings as they were.
  StagedDoc staged_from;
  StagedDoc staged_to;
  if (options_.maintain_postings) {
    FSDM_ASSIGN_OR_RETURN(staged_from,
                          StageDoc(from, undo, dataguide_.mutable_paths()));
  }
  if (options_.maintain_postings || !undo) {
    FSDM_ASSIGN_OR_RETURN(staged_to,
                          StageDoc(to, !undo, dataguide_.mutable_paths()));
  }
  if (options_.maintain_postings) SwapPostings(staged_from, staged_to, row_id);
  // An undo leaves the guide as it is (additive, §3.4).
  if (!undo && !to.is_null()) {
    Status dg = MaintainDataGuide(staged_to);
    if (!dg.ok()) {
      // The postings already moved; move them back so the failed DML
      // leaves no trace.
      if (options_.maintain_postings) {
        Status undone = FSDM_FAULT_STATUS("index.undo.postings");
        if (undone.ok()) {
          SwapPostings(staged_to, staged_from, row_id);
        } else {
          MarkDegraded(std::string(dml) + " rollback failed on row " +
                       std::to_string(row_id) + ": " + undone.message());
        }
      }
      return dg;
    }
  }
  if (from.is_null() != to.is_null()) {
    if (from.is_null()) {
      ++indexed_docs_;
    } else if (indexed_docs_ > 0) {
      --indexed_docs_;
    }
  }
  return Status::Ok();
}

Status JsonSearchIndex::Undo(size_t row_id, const Value& from,
                             const Value& to, const char* dml) {
  if (degraded_) return Status::Ok();
  Status undone = FSDM_FAULT_STATUS("index.undo.postings");
  if (undone.ok()) undone = Move(row_id, from, to, dml, /*undo=*/true);
  if (!undone.ok()) {
    MarkDegraded(std::string("undo of ") + dml + " failed on row " +
                 std::to_string(row_id) + ": " + undone.message());
  }
  return undone;
}

void JsonSearchIndex::MarkDegraded(std::string reason) {
  if (!degraded_) {
    FSDM_COUNT("fsdm_index_degraded_total", 1);
    FSDM_TRACE_INSTANT_TEXT("index", "index.degraded", "reason", reason);
    FSDM_LOG(telemetry::LogLevel::kWarn, "index", 1101,
             "search index degraded: " + reason);
  }
  degraded_ = true;
  degraded_reason_ = std::move(reason);
}

Status JsonSearchIndex::Rebuild() {
  // Fires before any mutation: a refused rebuild leaves the index exactly
  // as it was (still degraded if it was degraded).
  FSDM_FAULT_POINT("index.rebuild");
  FSDM_COUNT("fsdm_index_rebuilds_total", 1);
  FSDM_TIME_SCOPE_US("fsdm_index_rebuild_us");
  FSDM_TRACE_SPAN(span, "index", "postings.rebuild");
  postings_.Clear();
  indexed_docs_ = 0;
  Status failure;
  for (size_t r = 0; r < table_->row_count() && failure.ok(); ++r) {
    if (!table_->IsLive(r)) continue;
    const Value& doc = table_->StoredRow(r)[json_col_pos_];
    if (doc.is_null()) continue;
    Result<StagedDoc> staged = StageDoc(doc, false, dataguide_.mutable_paths());
    failure = staged.status();
    if (!failure.ok()) break;
    if (options_.maintain_postings) {
      SwapPostings(StagedDoc(), staged.value(), r);
    }
    // Re-run DataGuide maintenance too: documents inserted while the
    // index was degraded never had their structure guided. Frequencies
    // may over-count (additive semantics tolerate that).
    failure = MaintainDataGuide(staged.value());
    if (failure.ok()) ++indexed_docs_;
  }
  if (failure.ok() && dg_table_ != nullptr) {
    // Re-derive the $DG side table from the in-memory guide. A failed
    // persist (or writes skipped while degraded) leaves it behind, and the
    // known-path fast path above never re-attempts those rows.
    std::unique_ptr<rdbms::Table> fresh_dg = NewDgTable(table_->name());
    for (const dataguide::PathEntry* e : dataguide_.SortedEntries()) {
      failure = fresh_dg
                    ->Insert({Value::String(std::string(e->path)),
                              Value::String(e->TypeString())})
                    .status();
      if (!failure.ok()) break;
    }
    if (failure.ok()) dg_table_ = std::move(fresh_dg);
  }
  if (!failure.ok()) {
    postings_.Clear();
    indexed_docs_ = 0;
    if (!degraded_) FSDM_COUNT("fsdm_index_degraded_total", 1);
    degraded_ = true;
    degraded_reason_ = "rebuild failed: " + failure.message();
    return failure;
  }
  degraded_ = false;
  degraded_reason_.clear();
  return Status::Ok();
}

std::vector<size_t> JsonSearchIndex::DocsWithPath(
    const std::string& path) const {
  FSDM_COUNT("fsdm_index_lookups_total", 1);
  const std::span<const size_t> rows =
      postings_.PathRows(dataguide_.paths().Find(path));
  std::vector<size_t> docs(rows.begin(), rows.end());
  FSDM_OBSERVE_SIZE("fsdm_index_lookup_postings_len", docs.size());
  return docs;
}

std::vector<size_t> JsonSearchIndex::DocsWithValue(const std::string& path,
                                                   const Value& value) const {
  FSDM_COUNT("fsdm_index_lookups_total", 1);
  const PathId id = dataguide_.paths().Find(path);
  std::vector<size_t> docs;
  if (id != dataguide::kNoPath) {
    const std::string display = value.ToDisplayString();
    const std::span<const size_t> rows = postings_.ValueRows(id, display);
    docs.assign(rows.begin(), rows.end());
  }
  FSDM_OBSERVE_SIZE("fsdm_index_lookup_postings_len", docs.size());
  return docs;
}

std::vector<size_t> JsonSearchIndex::DocsWithKeyword(
    const std::string& path, const std::string& keyword) const {
  FSDM_COUNT("fsdm_index_lookups_total", 1);
  std::vector<std::string> tokens = TokenizeKeywords(keyword);
  const PathId id = dataguide_.paths().Find(path);
  if (tokens.empty() || id == dataguide::kNoPath) return {};
  // Conjunction over the keyword's tokens.
  std::vector<size_t> acc;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const std::span<const size_t> rows = postings_.KeywordRows(id, tokens[i]);
    if (rows.empty()) return {};
    if (i == 0) {
      acc.assign(rows.begin(), rows.end());
    } else {
      std::vector<size_t> merged;
      std::set_intersection(acc.begin(), acc.end(), rows.begin(), rows.end(),
                            std::back_inserter(merged));
      acc = std::move(merged);
    }
  }
  FSDM_OBSERVE_SIZE("fsdm_index_lookup_postings_len", acc.size());
  return acc;
}

rdbms::Schema JsonSearchIndex::DgSchema() const {
  return rdbms::Schema({"PATH", "TYPE", "LENGTH", "FREQUENCY", "NULL_COUNT",
                        "MIN", "MAX"});
}

std::vector<rdbms::Row> JsonSearchIndex::DgRows() const {
  std::vector<rdbms::Row> rows;
  for (const dataguide::PathEntry* e : dataguide_.SortedEntries()) {
    rdbms::Row row;
    row.push_back(Value::String(std::string(e->path)));
    row.push_back(Value::String(e->TypeString()));
    row.push_back(e->kind == json::NodeKind::kScalar
                      ? Value::Int64(static_cast<int64_t>(e->max_length))
                      : Value::Null());
    row.push_back(Value::Int64(static_cast<int64_t>(e->frequency)));
    row.push_back(Value::Int64(static_cast<int64_t>(e->null_count)));
    row.push_back(e->min_value.value_or(Value::Null()));
    row.push_back(e->max_value.value_or(Value::Null()));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string JsonSearchIndex::GetDataGuide(bool hierarchical) const {
  return hierarchical ? dataguide_.ToHierarchicalJson()
                      : dataguide_.ToFlatJson();
}

namespace {

/// Row source over a posting list: materializes only the matching rows.
class PostingScanOp final : public rdbms::Operator {
 public:
  PostingScanOp(const rdbms::Table* table, std::vector<size_t> row_ids)
      : table_(table), row_ids_(std::move(row_ids)) {
    schema_ = table->OutputSchema();
  }

  Status Open() override {
    next_ = 0;
    return Status::Ok();
  }

  Result<bool> Next(rdbms::Row* out) override {
    while (next_ < row_ids_.size()) {
      size_t id = row_ids_[next_++];
      if (!table_->IsLive(id)) continue;
      FSDM_ASSIGN_OR_RETURN(*out, table_->MaterializeRow(id));
      return true;
    }
    return false;
  }

  void Close() override {}

 private:
  const rdbms::Table* table_;
  std::vector<size_t> row_ids_;
  size_t next_ = 0;
};

}  // namespace

rdbms::OperatorPtr PostingScan(const rdbms::Table* table,
                               const JsonSearchIndex* index,
                               const std::vector<IndexTerm>& terms,
                               IntersectionInfo* info) {
  std::vector<std::vector<size_t>> lists;
  lists.reserve(terms.size());
  size_t total = 0;
  for (const IndexTerm& t : terms) {
    lists.push_back(t.value.has_value() ? index->DocsWithValue(t.path, *t.value)
                                        : index->DocsWithPath(t.path));
    total += lists.back().size();
  }
  if (info != nullptr) info->total_postings = total;
  std::vector<size_t> acc;
  if (!terms.empty()) {
    // Smallest list first bounds every intermediate by the rarest term.
    std::sort(lists.begin(), lists.end(),
              [](const std::vector<size_t>& a, const std::vector<size_t>& b) {
                return a.size() < b.size();
              });
    acc = std::move(lists.front());
    for (size_t i = 1; i < lists.size() && !acc.empty(); ++i) {
      std::vector<size_t> merged;
      std::set_intersection(acc.begin(), acc.end(), lists[i].begin(),
                            lists[i].end(), std::back_inserter(merged));
      acc = std::move(merged);
    }
  }
  if (info != nullptr) info->matched = acc.size();
  return std::make_unique<PostingScanOp>(table, std::move(acc));
}

}  // namespace fsdm::index
