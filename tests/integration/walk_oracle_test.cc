#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "collection/collection.h"
#include "collection/path_stats_table.h"
#include "common/rng.h"
#include "dataguide/dataguide.h"
#include "gtest/gtest.h"
#include "index/search_index.h"
#include "json/dom.h"
#include "json/parser.h"
#include "rdbms/executor.h"
#include "stats/path_stats.h"
#include "workloads/generators.h"

namespace fsdm {
namespace {

using collection::CollectionOptions;
using collection::JsonCollection;
using collection::Shard;

/// One instance walk feeds the search index postings, the DataGuide and the
/// path statistics. This oracle loads one seeded corpus — purchase orders
/// plus NOBENCH, with its type-unstable dyn1, nested arrays and sparse
/// keys — three ways:
///   1. an indexed collection (the index's guide feeds the statistics),
///   2. an unindexed collection (the collection's own guide feeds them),
///   3. a standalone DataGuide + PathStatsRepository fed by AddDocument,
/// at 1 and 4 shards, and checks per shard that the $DG rows, the flat and
/// hierarchical getDataGuide() renderings and the TELEMETRY$PATH_STATS
/// rows are identical in content and order, and that
/// Shard::CheckConsistency finds nothing. It repeats the check after
/// RebuildIndex(), which re-walks every document into the (additive) guide
/// and re-feeds freshly cleared statistics. FSDM_CHAOS_SEED pins one seed
/// (one per CI job).

/// A row as text, with each value's type, so rows compare exactly.
std::string RowText(const rdbms::Row& row) {
  std::string out;
  for (const Value& v : row) {
    out += std::to_string(static_cast<int>(v.type()));
    out += ':';
    out += v.ToDisplayString();
    out += '|';
  }
  return out;
}

std::vector<std::string> RowTexts(const std::vector<rdbms::Row>& rows) {
  std::vector<std::string> out;
  for (const rdbms::Row& row : rows) out.push_back(RowText(row));
  return out;
}

/// The $DG statistics rows of any guide, in JsonSearchIndex::DgRows()'s
/// shape: (PATH, TYPE, LENGTH, FREQUENCY, NULL_COUNT, MIN, MAX).
std::vector<std::string> DgRowsOf(const dataguide::DataGuide& guide) {
  std::vector<rdbms::Row> rows;
  for (const dataguide::PathEntry* e : guide.SortedEntries()) {
    rows.push_back(
        {Value::String(std::string(e->path)), Value::String(e->TypeString()),
         e->kind == json::NodeKind::kScalar
             ? Value::Int64(static_cast<int64_t>(e->max_length))
             : Value::Null(),
         Value::Int64(static_cast<int64_t>(e->frequency)),
         Value::Int64(static_cast<int64_t>(e->null_count)),
         e->min_value.value_or(Value::Null()),
         e->max_value.value_or(Value::Null())});
  }
  return RowTexts(rows);
}

/// TELEMETRY$PATH_STATS rows of one collection shard, without the
/// COLLECTION and SHARD columns.
std::vector<std::string> TelemetryStatsRows(const std::string& collection,
                                            size_t shard) {
  rdbms::OperatorPtr scan = collection::PathStatsScan();
  Result<std::vector<rdbms::Row>> rows = rdbms::Collect(scan.get());
  EXPECT_TRUE(rows.ok());
  std::vector<rdbms::Row> mine;
  if (!rows.ok()) return {};
  for (rdbms::Row& row : rows.value()) {
    if (row[0].AsString() != collection ||
        row[1].AsInt64() != static_cast<int64_t>(shard)) {
      continue;
    }
    mine.emplace_back(row.begin() + 2, row.end());
  }
  return RowTexts(mine);
}

/// The same columns rendered from a standalone repository.
std::vector<std::string> StatsRowsOf(const stats::PathStatsRepository& repo,
                                     const dataguide::DataGuide& guide) {
  std::vector<rdbms::Row> rows;
  for (const auto& [path, s] : repo.Sorted(guide.paths())) {
    rows.push_back(
        {Value::String(std::string(path)),
         Value::Int64(static_cast<int64_t>(repo.docs_seen())),
         Value::Int64(static_cast<int64_t>(s->doc_frequency)),
         Value::Int64(static_cast<int64_t>(s->value_count)),
         Value::Int64(static_cast<int64_t>(s->null_count)),
         Value::Int64(static_cast<int64_t>(std::llround(s->ndv.Estimate()))),
         s->min_value.has_value()
             ? Value::String(s->min_value->ToDisplayString())
             : Value::Null(),
         s->max_value.has_value()
             ? Value::String(s->max_value->ToDisplayString())
             : Value::Null(),
         Value::Int64(static_cast<int64_t>(s->histogram.total())),
         s->histogram.frozen() ? Value::Double(s->histogram.lo())
                               : Value::Null(),
         s->histogram.frozen() ? Value::Double(s->histogram.hi())
                               : Value::Null()});
  }
  return RowTexts(rows);
}

/// Everything one way of loading produces for one shard.
struct Snapshot {
  std::vector<std::string> dg_rows;
  std::string flat;
  std::string hierarchical;
  std::vector<std::string> stats_rows;
};

Snapshot OfCollection(const JsonCollection& coll, size_t shard) {
  const Shard& s = *coll.shard(shard);
  Snapshot snap;
  snap.dg_rows = DgRowsOf(s.dataguide());
  snap.flat = s.dataguide().ToFlatJson();
  snap.hierarchical = s.dataguide().ToHierarchicalJson();
  snap.stats_rows = TelemetryStatsRows(coll.name(), shard);
  if (const index::JsonSearchIndex* idx = s.search_index()) {
    // The index's own renderings of its guide.
    EXPECT_EQ(RowTexts(idx->DgRows()), snap.dg_rows);
    EXPECT_EQ(idx->GetDataGuide(false), snap.flat);
    EXPECT_EQ(idx->GetDataGuide(true), snap.hierarchical);
    EXPECT_EQ(idx->dg_table()->row_count(),
              s.dataguide().distinct_path_count());
  }
  return snap;
}

Snapshot OfStandalone(const dataguide::DataGuide& guide,
                      const stats::PathStatsRepository& repo) {
  return {DgRowsOf(guide), guide.ToFlatJson(), guide.ToHierarchicalJson(),
          StatsRowsOf(repo, guide)};
}

void ExpectSame(const Snapshot& want, const Snapshot& got,
                const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_FALSE(want.dg_rows.empty());
  EXPECT_FALSE(want.stats_rows.empty());
  EXPECT_EQ(got.dg_rows, want.dg_rows);
  EXPECT_EQ(got.flat, want.flat);
  EXPECT_EQ(got.hierarchical, want.hierarchical);
  EXPECT_EQ(got.stats_rows, want.stats_rows);
}

void ExpectConsistent(const JsonCollection& coll) {
  for (size_t s = 0; s < coll.shard_count(); ++s) {
    const collection::ConsistencyReport report =
        coll.shard(s)->CheckConsistency();
    EXPECT_TRUE(report.consistent) << "shard " << s << ": "
                                   << report.ToString();
  }
}

/// A standalone guide and statistics fed by AddDocument.
struct Standalone {
  dataguide::DataGuide guide;
  stats::PathStatsRepository stats;

  void Feed(const std::string& text) {
    Result<std::unique_ptr<json::JsonNode>> tree = json::Parse(text);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    ASSERT_TRUE(guide.AddDocument(json::TreeDom(tree.value().get()), nullptr,
                                  &stats)
                    .ok());
  }
};

void RunOracle(uint64_t seed, size_t shards) {
  Rng rng(seed);
  std::vector<std::string> corpus;
  for (int i = 0; i < 240; ++i) {
    corpus.push_back(i % 3 == 0 ? workloads::PurchaseOrder(&rng, i)
                                : workloads::Nobench(&rng, i));
  }

  rdbms::Database db;
  CollectionOptions indexed;
  indexed.shard_count = shards;
  CollectionOptions unindexed = indexed;
  unindexed.attach_search_index = false;
  auto ix = JsonCollection::Create(&db, "WALK_IX", indexed).MoveValue();
  auto nx = JsonCollection::Create(&db, "WALK_NX", unindexed).MoveValue();
  std::vector<Standalone> standalone(shards);
  std::vector<std::vector<const std::string*>> shard_docs(shards);
  for (size_t i = 0; i < corpus.size(); ++i) {
    const Value key = Value::Int64(static_cast<int64_t>(i));
    ASSERT_TRUE(ix->Insert(key, corpus[i]).ok());
    ASSERT_TRUE(nx->Insert(key, corpus[i]).ok());
    const size_t shard = ix->ShardForKey(key);
    ASSERT_EQ(shard, nx->ShardForKey(key));
    standalone[shard].Feed(corpus[i]);
    shard_docs[shard].push_back(&corpus[i]);
  }

  std::vector<Snapshot> unindexed_before;
  for (size_t s = 0; s < shards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    const Snapshot want =
        OfStandalone(standalone[s].guide, standalone[s].stats);
    ExpectSame(want, OfCollection(*ix, s), "indexed collection");
    unindexed_before.push_back(OfCollection(*nx, s));
    ExpectSame(want, unindexed_before.back(), "unindexed collection");
  }
  ExpectConsistent(*ix);
  ExpectConsistent(*nx);

  // RebuildIndex() clears the statistics, keeps the path dictionary and
  // re-walks every live document into the additive guide; the standalone
  // pair does the same. Without an index there is nothing to rebuild.
  ASSERT_TRUE(ix->RebuildIndex().ok());
  ASSERT_TRUE(nx->RebuildIndex().ok());
  for (size_t s = 0; s < shards; ++s) {
    SCOPED_TRACE("rebuilt shard " + std::to_string(s));
    standalone[s].stats.Clear();
    for (const std::string* doc : shard_docs[s]) standalone[s].Feed(*doc);
    ExpectSame(OfStandalone(standalone[s].guide, standalone[s].stats),
               OfCollection(*ix, s), "indexed collection");
    ExpectSame(unindexed_before[s], OfCollection(*nx, s),
               "unindexed collection");
  }
  ExpectConsistent(*ix);
  ExpectConsistent(*nx);
}

class WalkOracle : public ::testing::TestWithParam<size_t> {};

TEST_P(WalkOracle, IndexedUnindexedAndStandaloneAgree) {
  std::vector<uint64_t> seeds = {1, 2, 3};
  if (const char* env = std::getenv("FSDM_CHAOS_SEED")) {
    seeds = {std::strtoull(env, nullptr, 10)};
  }
  for (uint64_t seed : seeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunOracle(seed, GetParam());
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, WalkOracle,
                         ::testing::Values(size_t{1}, size_t{4}));

}  // namespace
}  // namespace fsdm
