#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "collection/collection.h"
#include "common/rng.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "index/search_index.h"
#include "json/dom.h"
#include "json/parser.h"
#include "workloads/generators.h"

namespace fsdm {
namespace {

using collection::CollectionOptions;
using collection::JsonCollection;
using collection::PathPredicate;
using collection::Shard;

/// Seeded index churn oracle: random inserts, replaces with fresh unique
/// values (as in the point_mix benchmark), deletes, vetoed DML and injected
/// DataGuide faults against a collection at 1 and 4 shards. After every
/// batch each shard's search index must
///   - pass Shard::CheckConsistency (postings, which also reports any empty
///     posting list, document count, DataGuide and $DG),
///   - reconcile MemoryBytes() with RecomputeMemoryBytes(),
///   - keep MemoryBytes() and posting_count() unchanged by a Rebuild() over
///     the same rows (replace churn leaves nothing behind),
///   - answer DocsWithPath/Value/Keyword exactly as a brute-force walk of
///     the live rows, for keys that are present and keys that are gone,
/// and routed equality/existence queries must return the key set of the
/// forced full scan. FSDM_CHAOS_SEED pins one seed (one per CI job).

using TextKey = std::pair<std::string, std::string>;

/// Every posting key of one document, computed independently of the index.
struct DocKeys {
  std::set<std::string> paths;
  std::map<TextKey, Value> values;  // (path, display) -> scalar
  std::set<TextKey> keywords;
};

void CollectKeys(const json::Dom& dom, json::Dom::NodeRef node,
                 const std::string& path, DocKeys* out) {
  out->paths.insert(path);
  switch (dom.GetNodeType(node)) {
    case json::NodeKind::kObject:
      for (size_t i = 0; i < dom.GetFieldCount(node); ++i) {
        std::string_view name;
        json::Dom::NodeRef child;
        dom.GetFieldAt(node, i, &name, &child);
        CollectKeys(dom, child, path + "." + std::string(name), out);
      }
      break;
    case json::NodeKind::kArray:
      for (size_t i = 0; i < dom.GetArrayLength(node); ++i) {
        CollectKeys(dom, dom.GetArrayElement(node, i), path, out);
      }
      break;
    case json::NodeKind::kScalar: {
      Value v;
      ASSERT_TRUE(dom.GetScalarValue(node, &v).ok());
      if (v.is_null()) break;
      out->values.emplace(TextKey{path, v.ToDisplayString()}, v);
      if (v.type() == ScalarType::kString) {
        for (const std::string& tok : index::TokenizeKeywords(v.AsString())) {
          out->keywords.insert({path, tok});
        }
      }
      break;
    }
  }
}

DocKeys KeysOf(const std::string& text) {
  DocKeys keys;
  auto parsed = json::Parse(text);
  EXPECT_TRUE(parsed.ok()) << text;
  if (!parsed.ok()) return keys;
  json::TreeDom dom(parsed.value().get());
  CollectKeys(dom, dom.root(), "$", &keys);
  return keys;
}

std::vector<std::string> DrainKeys(rdbms::Operator* op) {
  Result<std::vector<rdbms::Row>> rows = rdbms::Collect(op);
  EXPECT_TRUE(rows.ok()) << rows.status().message();
  std::vector<std::string> keys;
  if (rows.ok()) {
    for (const rdbms::Row& row : rows.value()) {
      keys.push_back(row[0].ToDisplayString());
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

class ChurnRun {
 public:
  ChurnRun(uint64_t seed, size_t shards)
      : rng_(seed * 1000003 + shards), doc_rng_(seed ^ 0x51ed270b2ab5f1c3ull) {
    CollectionOptions opts;
    opts.shard_count = shards;
    auto created = JsonCollection::Create(
        &db_, "CHURN_" + std::to_string(seed) + "_" + std::to_string(shards),
        opts);
    EXPECT_TRUE(created.ok()) << created.status().message();
    if (created.ok()) coll_ = created.MoveValue();
  }

  void Run() {
    ASSERT_NE(coll_, nullptr);
    for (int i = 0; i < 60; ++i) Insert();
    for (int batch = 0; batch < 8; ++batch) {
      SCOPED_TRACE("batch " + std::to_string(batch));
      for (int op = 0; op < 30; ++op) RandomOp();
      fault::FaultRegistry::Global().DisarmAll();
      CheckIndexes();
      CheckRouting();
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_GT(absent_probes_, 0u);
    EXPECT_GT(present_probes_, 0u);
    EXPECT_GT(vetoed_ops_, 0u);
  }

 private:
  /// A purchase order with fresh unique values, or now and then a small
  /// document whose top-level path no other document has, so that paths
  /// too lose their last document.
  std::string NewDoc() {
    const int64_t v = next_version_++;
    if (rng_.Uniform(8) == 0) {
      return "{\"rare_" + std::to_string(v) + "\":\"lone" + std::to_string(v) +
             " word\",\"n\":" + std::to_string(v) + "}";
    }
    return workloads::RenderPurchaseOrder(
        workloads::PurchaseOrderRows(&doc_rng_, v));
  }

  int64_t PickLiveKey() {
    auto it = live_.begin();
    std::advance(it, static_cast<long>(rng_.Uniform(live_.size())));
    return it->first;
  }

  bool Insert() {
    const int64_t key = next_key_++;
    std::string text = NewDoc();
    Result<size_t> row = coll_->Insert(Value::Int64(key), text);
    if (!row.ok()) return false;
    live_[key] = {row.value(), std::move(text)};
    return true;
  }

  bool Replace() {
    const int64_t key = PickLiveKey();
    std::string text = NewDoc();
    if (!coll_->Replace(live_[key].first, Value::Int64(key), text).ok()) {
      return false;
    }
    retired_.push_back(std::move(live_[key].second));
    live_[key].second = std::move(text);
    return true;
  }

  bool Delete() {
    const int64_t key = PickLiveKey();
    if (!coll_->Delete(live_[key].first).ok()) return false;
    retired_.push_back(std::move(live_[key].second));
    live_.erase(key);
    return true;
  }

  void RandomOp() {
    const double roll = rng_.NextDouble();
    if (live_.size() < 10) {
      EXPECT_TRUE(Insert());
    } else if (roll < 0.40) {
      EXPECT_TRUE(Replace());
    } else if (roll < 0.60) {
      EXPECT_TRUE(Insert());
    } else if (roll < 0.80) {
      EXPECT_TRUE(Delete());
    } else {
      // Vetoed DML: the fault fires after (or inside) the index's
      // maintenance, so the index must undo exactly what it applied.
      static constexpr const char* kVetoes[] = {
          "index.insert.dataguide", "collection.observer.insert",
          "table.replace.apply", "table.delete.apply"};
      const size_t pick = rng_.Uniform(std::size(kVetoes));
      fault::FaultRegistry::Global().Arm(kVetoes[pick],
                                         fault::FaultSpec::Once());
      bool ok = false;
      switch (pick) {
        case 0:
          ok = rng_.NextBool() ? Insert() : Replace();
          break;
        case 1:
          ok = Insert();
          break;
        case 2:
          ok = Replace();
          break;
        case 3:
          ok = Delete();
          break;
      }
      fault::FaultRegistry::Global().DisarmAll();
      EXPECT_FALSE(ok) << "vetoed by " << kVetoes[pick];
      ++vetoed_ops_;
    }
  }

  /// Documents to probe: a few live ones and a few replaced or deleted ones.
  std::vector<const std::string*> SampleDocs() {
    std::vector<const std::string*> docs;
    for (int i = 0; i < 3 && !live_.empty(); ++i) {
      docs.push_back(&live_[PickLiveKey()].second);
    }
    for (int i = 0; i < 3 && !retired_.empty(); ++i) {
      docs.push_back(&retired_[rng_.Uniform(retired_.size())]);
    }
    return docs;
  }

  void CheckIndexes() {
    std::vector<DocKeys> probes;
    for (const std::string* doc : SampleDocs()) probes.push_back(KeysOf(*doc));

    std::vector<uint64_t> bytes;
    std::vector<size_t> postings;
    for (size_t s = 0; s < coll_->shard_count(); ++s) {
      SCOPED_TRACE("shard " + std::to_string(s));
      const Shard* shard = coll_->shard(s);
      const index::JsonSearchIndex* idx = shard->search_index();
      ASSERT_NE(idx, nullptr);
      ASSERT_FALSE(idx->degraded()) << idx->degraded_reason();

      const collection::ConsistencyReport report = shard->CheckConsistency();
      EXPECT_TRUE(report.consistent) << report.ToString();
      EXPECT_EQ(idx->MemoryBytes(), idx->RecomputeMemoryBytes());
      bytes.push_back(idx->MemoryBytes());
      postings.push_back(idx->posting_count());

      // Brute force over the shard's live rows.
      const rdbms::Table* table = shard->table();
      size_t json_pos = 0;
      while (table->columns()[table->physical_columns()[json_pos]].name !=
             coll_->json_column()) {
        ++json_pos;
      }
      std::map<size_t, DocKeys> rows;
      for (size_t r = 0; r < table->row_count(); ++r) {
        if (table->IsLive(r)) {
          rows[r] = KeysOf(table->StoredRow(r)[json_pos].AsString());
        }
      }
      auto expect = [&](const std::vector<size_t>& got, auto&& has) {
        std::vector<size_t> want;
        for (const auto& [r, keys] : rows) {
          if (has(keys)) want.push_back(r);
        }
        (want.empty() ? absent_probes_ : present_probes_) += 1;
        return got == want;
      };
      for (const DocKeys& probe : probes) {
        for (const std::string& p : probe.paths) {
          EXPECT_TRUE(expect(idx->DocsWithPath(p), [&](const DocKeys& k) {
            return k.paths.count(p) > 0;
          })) << "path " << p;
        }
        for (const auto& [key, value] : probe.values) {
          EXPECT_TRUE(expect(idx->DocsWithValue(key.first, value),
                             [&](const DocKeys& k) {
                               return k.values.count(key) > 0;
                             }))
              << "value " << key.first << "=" << key.second;
        }
        for (const TextKey& key : probe.keywords) {
          EXPECT_TRUE(expect(idx->DocsWithKeyword(key.first, key.second),
                             [&](const DocKeys& k) {
                               return k.keywords.count(key) > 0;
                             }))
              << "keyword " << key.first << "~" << key.second;
        }
      }
    }

    // Replace churn must leave nothing a rebuild would not rebuild.
    ASSERT_TRUE(coll_->RebuildIndex().ok());
    for (size_t s = 0; s < coll_->shard_count(); ++s) {
      const index::JsonSearchIndex* idx = coll_->shard(s)->search_index();
      EXPECT_EQ(idx->MemoryBytes(), bytes[s]) << "shard " << s;
      EXPECT_EQ(idx->posting_count(), postings[s]) << "shard " << s;
    }
  }

  void CheckRouting() {
    std::vector<PathPredicate> preds;
    for (const std::string* doc : SampleDocs()) {
      const DocKeys keys = KeysOf(*doc);
      for (const auto& [key, value] : keys.values) {
        // Equality on singleton scalar paths (not under an array).
        if (key.first == "$.purchaseOrder.reference" ||
            key.first == "$.purchaseOrder.costcenter" ||
            key.first == "$.purchaseOrder.id" || key.first == "$.n") {
          preds.push_back(
              PathPredicate::Compare(key.first, rdbms::CompareOp::kEq, value));
        }
      }
      for (const std::string& p : keys.paths) {
        if (p.rfind("$.rare_", 0) == 0 || p == "$.purchaseOrder.items") {
          preds.push_back(PathPredicate::Exists(p));
        }
      }
    }
    for (const PathPredicate& pred : preds) {
      SCOPED_TRACE("predicate on " + pred.path);
      auto routed = coll_->Route({pred});
      ASSERT_TRUE(routed.ok()) << routed.status().message();
      rdbms::ExprPtr filter;
      if (pred.is_existence()) {
        filter = coll_->JsonExistsExpr(pred.path).MoveValue();
      } else {
        const sqljson::Returning ret = pred.literal->IsNumeric()
                                           ? sqljson::Returning::kNumber
                                           : sqljson::Returning::kString;
        filter = rdbms::Cmp(pred.op,
                            coll_->JsonValueExpr(pred.path, ret).MoveValue(),
                            rdbms::Lit(*pred.literal));
      }
      rdbms::OperatorPtr forced =
          rdbms::Filter(coll_->Scan(), std::move(filter));
      EXPECT_EQ(DrainKeys(routed.value().plan.get()), DrainKeys(forced.get()));
    }
  }

  rdbms::Database db_;
  std::unique_ptr<JsonCollection> coll_;
  Rng rng_;
  Rng doc_rng_;
  int64_t next_key_ = 0;
  int64_t next_version_ = 0;
  std::map<int64_t, std::pair<size_t, std::string>> live_;  // key -> row, doc
  std::vector<std::string> retired_;
  size_t present_probes_ = 0;
  size_t absent_probes_ = 0;
  size_t vetoed_ops_ = 0;
};

class IndexChurnOracle : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override { fault::FaultRegistry::Global().DisarmAll(); }
  void TearDown() override { fault::FaultRegistry::Global().DisarmAll(); }
};

TEST_P(IndexChurnOracle, SeededChurnMatchesRebuildAndBruteForce) {
  std::vector<uint64_t> seeds = {1, 2, 3};
  if (const char* env = std::getenv("FSDM_CHAOS_SEED")) {
    seeds = {std::strtoull(env, nullptr, 10)};
  }
  for (uint64_t seed : seeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ChurnRun(seed, GetParam()).Run();
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, IndexChurnOracle,
                         ::testing::Values(size_t{1}, size_t{4}));

}  // namespace
}  // namespace fsdm
