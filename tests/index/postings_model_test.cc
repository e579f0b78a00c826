#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <map>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "dataguide/dataguide.h"
#include "index/search_index.h"

/// A model oracle for the posting store: seeded Swap() sequences (inserts,
/// replaces, deletes) against a std::map<{kind, path, text}, std::set<row>>
/// reference. After every step every list equals the reference, no key is
/// empty, the open-addressing table's probe runs are intact,
/// MemoryBytes() == RecomputeMemoryBytes(), the Moved counts are the
/// reference's key differences, the key text arena stays within its
/// bounds, and Diff() against a store rebuilt from the reference is empty. The texts include empty ones, embedded NULs and
/// a text that is both a value and a keyword under one path; the runs grow
/// the table, compact the arena, and Clear() and refill it to the same
/// bytes. A deterministic case deletes keys in every order from a probe
/// run that wraps the slot array's end. FSDM_CHAOS_SEED pins one seed.

namespace fsdm::index {

/// Test access to the table's layout.
struct PostingsPeer {
  static size_t SlotCount(const Postings& p) { return p.slots_.size(); }
  static size_t HomeSlot(const Postings& p, dataguide::PathId path,
                         bool keyword, std::string_view text) {
    return Postings::HashOf(Postings::KeyOf(path, keyword), text) &
           (p.slots_.size() - 1);
  }
  static size_t SlotOf(const Postings& p, dataguide::PathId path,
                       bool keyword, std::string_view text) {
    const uint32_t key = Postings::KeyOf(path, keyword);
    return p.FindSlot(key, text, Postings::HashOf(key, text));
  }
  static bool Occupied(const Postings& p, size_t slot) {
    return p.slots_[slot].entry != Postings::kNone;
  }
  static size_t DeadText(const Postings& p) { return p.dead_text_; }
  static size_t ArenaBytes(const Postings& p) { return p.arena_.size(); }
  static size_t ArenaCapacity(const Postings& p) {
    return p.arena_.capacity();
  }

  /// Linear probing's invariant, which backward-shift deletion must keep:
  /// every key sits in its home slot or further along an unbroken run.
  /// Also: the key count matches the occupied slots and the live entries,
  /// every live entry is in exactly one slot, and no list is empty.
  static std::string Check(const Postings& p) {
    const size_t mask = p.slots_.size() - 1;
    size_t occupied = 0;
    std::vector<int> seen(p.entries_.size(), 0);
    for (size_t i = 0; i < p.slots_.size(); ++i) {
      const Postings::Slot& s = p.slots_[i];
      if (s.entry == Postings::kNone) continue;
      ++occupied;
      if (s.entry >= p.entries_.size()) return "slot points past entries";
      const Postings::Entry& e = p.entries_[s.entry];
      if (e.spill == Postings::kFree) return "slot points to a free entry";
      if (Postings::HashOf(e.key, p.Text(e)) != s.hash) return "stale tag";
      ++seen[s.entry];
      for (size_t j = s.hash & mask; j != i; j = (j + 1) & mask) {
        if (p.slots_[j].entry == Postings::kNone) {
          return "slot " + std::to_string(i) + " unreachable from home " +
                 std::to_string(s.hash & mask);
        }
      }
      if (p.Rows(s.entry).empty()) return "empty list";
      if (e.spill != Postings::kNone && p.spills_[e.spill].rows.size() < 2) {
        return "spilled list of one row";
      }
    }
    size_t live = 0;
    for (size_t i = 0; i < p.entries_.size(); ++i) {
      if (p.entries_[i].spill == Postings::kFree) continue;
      ++live;
      if (seen[i] != 1) return "live entry in " + std::to_string(seen[i]) +
                               " slots";
    }
    if (occupied != p.keys_ || live != p.keys_) return "key count";
    if (occupied * 4 > p.slots_.size() * 3) return "load factor";
    return "";
  }
};

namespace {

using dataguide::PathId;
using dataguide::StagedDoc;
using dataguide::StagedNode;

/// {keyword?, path, text}; paths use kind 2.
using ModelKey = std::tuple<int, PathId, std::string>;
using Model = std::map<ModelKey, std::set<size_t>>;

constexpr int kValue = 0;
constexpr int kKeyword = 1;
constexpr int kPath = 2;

/// The keyword tokenizer's contract, written independently of it: maximal
/// runs of ASCII alphanumerics, lowercased.
std::vector<std::string> Tokens(std::string_view text) {
  std::vector<std::string> out;
  std::string cur;
  for (unsigned char c : text) {
    if (std::isalnum(c)) {
      cur.push_back(static_cast<char>(std::tolower(c)));
    } else if (!cur.empty()) {
      out.push_back(std::move(cur));
      cur.clear();
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

std::set<ModelKey> KeysOf(const StagedDoc& doc) {
  std::set<ModelKey> keys;
  for (const StagedNode& n : doc.nodes) {
    keys.insert({kPath, n.path, ""});
    if (n.kind != json::NodeKind::kScalar || n.value.is_null()) continue;
    keys.insert({kValue, n.path, std::string(n.Display())});
    if (n.value.type() != ScalarType::kString) continue;
    for (std::string& tok : Tokens(n.value.AsString())) {
      keys.insert({kKeyword, n.path, std::move(tok)});
    }
  }
  return keys;
}

StagedNode StringNode(PathId path, std::string text) {
  StagedNode n;
  n.path = path;
  n.value = Value::String(std::move(text));
  return n;
}

/// A non-string scalar whose display is `display`.
StagedNode DisplayNode(PathId path, std::string display) {
  StagedNode n;
  n.path = path;
  n.value = Value::Int64(0);
  n.display = std::move(display);
  return n;
}

std::span<const size_t> Lookup(const Postings& p, const ModelKey& key) {
  const auto& [kind, path, text] = key;
  if (kind == kPath) return p.PathRows(path);
  return kind == kKeyword ? p.KeywordRows(path, text)
                          : p.ValueRows(path, text);
}

std::string Describe(const ModelKey& key) {
  std::string text = std::get<2>(key);
  std::replace(text.begin(), text.end(), '\0', '@');
  return std::to_string(std::get<0>(key)) + "/" +
         std::to_string(std::get<1>(key)) + "/'" + text + "'";
}

class PostingsModel {
 public:
  explicit PostingsModel(uint64_t seed) : rng_(seed), docs_(kRows) {
    for (int i = 0; i < kPaths; ++i) {
      names_.Intern("$.p" + std::to_string(i));
    }
  }

  void Run() {
    for (int step = 0; step < 1500; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      Step(step);
      if (::testing::Test::HasFatalFailure()) return;
      if (step % 300 == 299) {
        ClearAndRefill();
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    // The run reached every state the cases name.
    EXPECT_GT(PostingsPeer::SlotCount(store_), 16u) << "never grew";
    EXPECT_GT(compactions_, 0) << "never compacted the arena";
    EXPECT_GT(shared_text_, 0) << "no text was both value and keyword";
  }

 private:
  static constexpr size_t kRows = 40;
  static constexpr int kPaths = 4;

  std::string Text() {
    // Empty text, embedded NULs, case and punctuation that tokenizes to
    // the same keyword as another value, and texts unique to one step
    // (dead key text that the arena must compact away).
    static const char* const kFixed[] = {"", "ab", "AB", "ab cd", "x-ab",
                                         "Zz9", "cd", "q"};
    switch (rng_.Uniform(6)) {
      case 0:
        return std::string("a\0b", 3);
      case 1:
        return std::string(1, '\0');
      case 2:
        return "u" + std::to_string(unique_++) + " " + rng_.AlphaNum(12);
      default:
        return kFixed[rng_.Uniform(std::size(kFixed))];
    }
  }

  StagedDoc RandomDoc() {
    StagedDoc doc;
    const size_t n = 1 + rng_.Uniform(7);
    for (size_t i = 0; i < n; ++i) {
      const PathId path = static_cast<PathId>(rng_.Uniform(kPaths));
      switch (rng_.Uniform(5)) {
        case 0: {
          StagedNode obj;
          obj.path = path;
          obj.kind = json::NodeKind::kObject;
          doc.nodes.push_back(obj);
          break;
        }
        case 1: {
          StagedNode null_node;
          null_node.path = path;
          doc.nodes.push_back(null_node);
          break;
        }
        case 2:
          doc.nodes.push_back(DisplayNode(path, Text()));
          break;
        default:
          doc.nodes.push_back(StringNode(path, Text()));
          break;
      }
    }
    return doc;
  }

  void Step(int step) {
    const size_t row = rng_.Uniform(kRows);
    StagedDoc to;
    if (docs_[row].nodes.empty() || rng_.NextBool(0.6)) to = RandomDoc();
    const std::set<ModelKey> from_keys = KeysOf(docs_[row]);
    const std::set<ModelKey> to_keys = KeysOf(to);
    size_t appended = 0;
    size_t erased = 0;
    for (const ModelKey& k : to_keys) appended += !from_keys.count(k);
    for (const ModelKey& k : from_keys) erased += !to_keys.count(k);
    for (const ModelKey& k : to_keys) {
      if (std::get<0>(k) == kKeyword &&
          to_keys.count({kValue, std::get<1>(k), std::get<2>(k)})) {
        ++shared_text_;
      }
    }

    // The most key text the store holds at once: every key of the other
    // rows and of both `from` and `to`, before the erases.
    std::set<ModelKey> held = to_keys;
    for (const StagedDoc& doc : docs_) {
      const std::set<ModelKey> keys = KeysOf(doc);
      held.insert(keys.begin(), keys.end());
    }
    size_t held_text = 0;
    for (const ModelKey& k : held) {
      if (std::get<0>(k) != kPath) held_text += std::get<2>(k).size();
    }
    peak_text_ = std::max(peak_text_, held_text);

    const size_t dead_before = PostingsPeer::DeadText(store_);
    const Postings::Moved moved = store_.Swap(docs_[row], to, row);
    if (dead_before > 0 && PostingsPeer::DeadText(store_) == 0) {
      ++compactions_;
    }
    docs_[row] = std::move(to);
    EXPECT_EQ(moved.appended, appended);
    EXPECT_EQ(moved.erased, erased);
    for (const ModelKey& k : to_keys) seen_.insert(k);
    Verify(step);
  }

  void Verify(int step) {
    Model model;
    for (size_t row = 0; row < kRows; ++row) {
      for (const ModelKey& k : KeysOf(docs_[row])) model[k].insert(row);
    }
    size_t postings = 0;
    for (const auto& [key, rows] : model) {
      const std::span<const size_t> held = Lookup(store_, key);
      ASSERT_TRUE(std::equal(held.begin(), held.end(), rows.begin(),
                             rows.end()))
          << Describe(key) << ": store has " << held.size() << " rows, "
          << "model " << rows.size();
      postings += rows.size();
    }
    for (const ModelKey& key : seen_) {
      if (!model.count(key)) {
        ASSERT_TRUE(Lookup(store_, key).empty()) << Describe(key);
      }
    }
    ASSERT_EQ(store_.posting_count(), postings);
    ASSERT_EQ(PostingsPeer::Check(store_), "");
    ASSERT_EQ(store_.MemoryBytes(), store_.RecomputeMemoryBytes());
    // Dead key text stays below live key text between Swaps, and the
    // arena only doubles when its live text would fill more than 7/8 of
    // it: its capacity stays within 16/7 of the most text ever held (or
    // the 64-byte first arena).
    const size_t dead = PostingsPeer::DeadText(store_);
    ASSERT_LE(dead, PostingsPeer::ArenaBytes(store_) - dead);
    ASSERT_LE(PostingsPeer::ArenaCapacity(store_) * 7,
              std::max<size_t>(64 * 7, 16 * peak_text_));

    // Every fifth step (the diff walks both stores): a store rebuilt from
    // the model's documents holds the same postings.
    if (step % 5 != 0) return;
    Postings rebuilt;
    for (size_t row = 0; row < kRows; ++row) {
      rebuilt.Swap(StagedDoc(), docs_[row], row);
    }
    std::vector<std::string> problems;
    store_.Diff(rebuilt, names_, &problems);
    rebuilt.Diff(store_, names_, &problems);
    ASSERT_TRUE(problems.empty()) << problems.front();
  }

  void ClearAndRefill() {
    const uint64_t bytes = store_.MemoryBytes();
    store_.Clear();
    ASSERT_EQ(store_.posting_count(), 0u);
    ASSERT_EQ(store_.MemoryBytes(), store_.RecomputeMemoryBytes());
    for (size_t row = 0; row < kRows; ++row) {
      store_.Swap(StagedDoc(), docs_[row], row);
    }
    // Clear() kept every array's capacity, so the same postings land on
    // the same bytes.
    EXPECT_EQ(store_.MemoryBytes(), bytes);
    Verify(0);
  }

  Rng rng_;
  std::vector<StagedDoc> docs_;  // per row; empty = no document
  dataguide::PathDictionary names_;
  Postings store_;
  std::set<ModelKey> seen_;  // every key ever added, for absent lookups
  size_t peak_text_ = 0;  // the most key text the store held at once
  int unique_ = 0;
  int compactions_ = 0;
  int shared_text_ = 0;
};

TEST(PostingsModelTest, SeededSwapsMatchTheModel) {
  std::vector<uint64_t> seeds = {1, 2, 3};
  if (const char* env = std::getenv("FSDM_CHAOS_SEED")) {
    seeds = {std::strtoull(env, nullptr, 10)};
  }
  for (uint64_t seed : seeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    PostingsModel(seed).Run();
    if (HasFatalFailure()) return;
  }
}

// Keys whose home slots are the last slot and slot 0 form one probe run
// that wraps the slot array's end. Removing them in every order must
// shift each later key back exactly when its home allows, across the
// wrap, and leave every other key findable.
TEST(PostingsModelTest, BackwardShiftAcrossTheWrap) {
  Postings probe;
  probe.Swap(StagedDoc(), StagedDoc{{DisplayNode(0, "seed")}}, 0);
  const size_t slots = PostingsPeer::SlotCount(probe);
  ASSERT_EQ(slots, 16u);
  // Homes last, last, 0, last, 1: the run fills the last slot and 0..3.
  const std::vector<size_t> homes = {slots - 1, slots - 1, 0, slots - 1, 1};
  std::vector<std::string> texts;
  for (size_t want : homes) {
    for (int i = 0;; ++i) {
      const std::string text = "w" + std::to_string(i);
      if (std::find(texts.begin(), texts.end(), text) == texts.end() &&
          PostingsPeer::HomeSlot(probe, 0, false, text) == want) {
        texts.push_back(text);
        break;
      }
    }
  }
  std::vector<size_t> order = {0, 1, 2, 3, 4};
  int wrapped = 0;
  do {
    Postings store;
    for (size_t row = 0; row < texts.size(); ++row) {
      store.Swap(StagedDoc(), StagedDoc{{DisplayNode(0, texts[row])}}, row);
    }
    ASSERT_EQ(PostingsPeer::SlotCount(store), slots);
    ASSERT_EQ(PostingsPeer::SlotOf(store, 0, false, texts[1]), 0u);
    ASSERT_EQ(PostingsPeer::SlotOf(store, 0, false, texts[4]), 3u);
    std::set<size_t> gone;
    for (size_t row : order) {
      // The hole opens in the last slot and the run goes on at slot 0.
      if (PostingsPeer::SlotOf(store, 0, false, texts[row]) == slots - 1 &&
          PostingsPeer::Occupied(store, 0)) {
        ++wrapped;
      }
      store.Swap(StagedDoc{{DisplayNode(0, texts[row])}}, StagedDoc(), row);
      gone.insert(row);
      ASSERT_EQ(PostingsPeer::Check(store), "");
      ASSERT_EQ(store.MemoryBytes(), store.RecomputeMemoryBytes());
      for (size_t other = 0; other < texts.size(); ++other) {
        const std::span<const size_t> rows = store.ValueRows(0, texts[other]);
        if (gone.count(other)) {
          ASSERT_TRUE(rows.empty()) << texts[other];
        } else {
          ASSERT_EQ(rows.size(), 1u) << texts[other];
          ASSERT_EQ(rows[0], other);
        }
      }
    }
    ASSERT_EQ(store.posting_count(), 0u);
  } while (std::next_permutation(order.begin(), order.end()));
  // Every order removes the last slot's key at least once while the run
  // still reaches past the wrap.
  EXPECT_GE(wrapped, 120);
}

}  // namespace
}  // namespace fsdm::index
