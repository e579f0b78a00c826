// Ablations beyond the paper's figures:
//   (a) access paths for a selective JSON_EXISTS predicate — full text
//       scan vs OSON scan vs search-index posting lookup (§3.2.1);
//   (b) §7 set encoding — shared-dictionary memory footprint and query
//       time vs self-contained per-instance images.

#include "bench/harness.h"
#include "collection/collection.h"
#include "json/parser.h"
#include "jsonpath/evaluator.h"
#include "oson/set_encoding.h"
#include "rdbms/parallel.h"

namespace fsdm {
namespace {

constexpr const char* kRarePath = "$.purchaseOrder.foreign_id";

void AccessPathAblation(size_t docs_n) {
  printf("--- (a) access paths for JSON_EXISTS(%s) ---\n", kRarePath);
  // One collection carries all three access paths: text scan over the
  // document column, OSON navigation over the hidden virtual column
  // populated into the IMC (encoded once, §5.2.2), and the search index's
  // postings (§3.2.1). The router picks among them from DataGuide
  // statistics; we also time each path explicitly.
  rdbms::Database db;
  auto coll = collection::JsonCollection::Create(&db, "PO").MoveValue();

  Rng rng(8);
  for (size_t i = 0; i < docs_n; ++i) {
    std::string doc = workloads::PurchaseOrder(&rng, i + 1);
    // ~2% of documents get the rare field the predicate probes.
    if (rng.NextBool(0.02)) {
      doc.insert(doc.find("\"items\""),
                 "\"foreign_id\":\"F" + std::to_string(i) + "\",");
    }
    if (!coll->Insert(Value::Int64(static_cast<int64_t>(i + 1)),
                      std::move(doc))
             .ok()) {
      fprintf(stderr, "insert failed\n");
      exit(1);
    }
  }
  if (Status pop =
          coll->PopulateImc({coll->key_column(), coll->oson_column()});
      !pop.ok()) {
    fprintf(stderr, "IMC population failed: %s\n", pop.ToString().c_str());
    exit(1);
  }
  const imc::ColumnStore* store = coll->imc();

  auto time_plan = [&](auto make_plan) {
    double best = 1e300;
    size_t rows = 0;
    for (int r = 0; r < 3; ++r) {
      benchutil::Timer t;
      rdbms::OperatorPtr plan = make_plan();
      Result<size_t> n = benchutil::Drain(plan.get());
      if (!n.ok()) {
        fprintf(stderr, "%s\n", n.status().ToString().c_str());
        exit(1);
      }
      rows = n.value();
      best = std::min(best, t.ElapsedMs());
    }
    return std::pair<double, size_t>(best, rows);
  };

  auto [t_text, n1] = time_plan([&] {
    auto exists = coll->JsonExistsExpr(kRarePath).MoveValue();
    return rdbms::Filter(coll->Scan(), std::move(exists));
  });
  auto [t_oson, n2] = time_plan([&] {
    auto exists = sqljson::JsonExists(coll->oson_column(), kRarePath,
                                      sqljson::JsonStorage::kOson)
                      .MoveValue();
    return rdbms::Filter(
        store->Scan({coll->key_column(), coll->oson_column()}),
        std::move(exists));
  });
  // The routed plan: an existence predicate on a ~2% path warrants the
  // posting lookup, and the router's DataGuide statistics say so.
  auto routed = coll->Route({collection::PathPredicate::Exists(kRarePath)})
                    .MoveValue();
  printf("router: %s (%s)\n", collection::AccessPathName(routed.access_path),
         routed.trace.decision.reason().c_str());
  auto [t_index, n3] = time_plan([&] {
    // Re-route into the outer RoutedPlan: the plan's instrumentation
    // points into the trace it owns, so the trace must outlive the drain.
    routed = coll->Route({collection::PathPredicate::Exists(kRarePath)})
                 .MoveValue();
    return std::move(routed.plan);
  });
  if (n1 != n3 || n2 != n3) {
    fprintf(stderr, "access paths disagree: %zu %zu %zu\n", n1, n2, n3);
    exit(1);
  }
  benchutil::PrintHeader({"access path", "ms", "speedup vs text"});
  benchutil::PrintRow({"text scan + exists", benchutil::Fmt(t_text), "1.0x"});
  benchutil::PrintRow({"OSON-IMC scan + exists", benchutil::Fmt(t_oson),
                       benchutil::Fmt(t_text / t_oson, 1) + "x"});
  benchutil::PrintRow({"routed: index postings", benchutil::Fmt(t_index),
                       benchutil::Fmt(t_text / t_index, 1) + "x"});
  printf("(matching rows: %zu of %zu)\n\n", n3, docs_n);

  // (c) The ISSUE 5 cost model: route one query per shape, drain it, and
  // report the router's cardinality estimate against the actual row count.
  // scripts/check_stats.py consumes these rows from the BENCH json and
  // fails CI when an estimate is missing or the median misestimation
  // ratio blows past 10x.
  printf("--- (c) cost-based routing: estimated vs actual rows ---\n");
  using collection::PathPredicate;
  struct Shape {
    const char* name;
    std::vector<PathPredicate> preds;
  };
  const std::vector<Shape> shapes = {
      {"exists rare path", {PathPredicate::Exists(kRarePath)}},
      {"equality on costcenter",
       {PathPredicate::Compare("$.purchaseOrder.costcenter",
                               rdbms::CompareOp::kEq,
                               Value::String("CC7"))}},
      {"conjunction eq+exists",
       {PathPredicate::Compare("$.purchaseOrder.costcenter",
                               rdbms::CompareOp::kEq, Value::String("CC7")),
        PathPredicate::Exists(kRarePath)}},
  };
  benchutil::PrintHeader(
      {"query shape", "access path", "est rows", "actual rows", "ms"});
  for (const Shape& shape : shapes) {
    double best_ms = 1e300;
    size_t rows = 0;
    double est = -1;
    const char* path_name = "";
    for (int r = 0; r < 3; ++r) {
      benchutil::Timer t;
      auto rp = coll->Route(shape.preds).MoveValue();
      Result<size_t> n = benchutil::Drain(rp.plan.get());
      if (!n.ok()) {
        fprintf(stderr, "%s\n", n.status().ToString().c_str());
        exit(1);
      }
      rows = n.value();
      best_ms = std::min(best_ms, t.ElapsedMs());
      est = rp.trace.decision.est_out_rows;
      path_name = collection::AccessPathName(rp.access_path);
    }
    benchutil::PrintRow({shape.name, path_name, benchutil::Fmt(est, 1),
                         std::to_string(rows), benchutil::Fmt(best_ms)});
  }
  printf("\n");
}

// (d) ISSUE 6: sharded collections drained morsel-parallel. One routed
// range scan (not index-answerable, so every shard pays a real full-scan
// morsel) over a 4-shard collection, at 1/2/4 worker threads, with a
// speedup-vs-1-thread column. The run at the largest thread count is last
// so the flight-recorder dump (TRACE_*.json) ends with a stitched
// multi-worker span tree.
void ShardScalingAblation(size_t docs_n) {
  printf("--- (d) sharded morsel-parallel scaling (4 shards) ---\n");
  rdbms::Database db;
  collection::CollectionOptions opts;
  opts.shard_count = 4;
  auto coll = collection::JsonCollection::Create(&db, "POS", opts)
                  .MoveValue();
  Rng rng(21);
  for (size_t i = 0; i < docs_n; ++i) {
    if (!coll->Insert(Value::Int64(static_cast<int64_t>(i + 1)),
                      workloads::PurchaseOrder(&rng, i + 1))
             .ok()) {
      fprintf(stderr, "insert failed\n");
      exit(1);
    }
  }

  // A half-selective range on a numeric path: no posting path answers an
  // inequality, so every shard routes to a full document scan — the
  // morsel shape that actually scales with workers.
  const std::vector<collection::PathPredicate> preds = {
      collection::PathPredicate::Compare(
          "$.purchaseOrder.id", rdbms::CompareOp::kGt,
          Value::Int64(static_cast<int64_t>(docs_n / 2)))};

  size_t expect_rows = 0;
  {
    auto probe = coll->Route(preds).MoveValue();
    expect_rows = benchutil::Drain(probe.plan.get()).MoveValue();
  }

  // Route + drain end-to-end, best of 5 (the RoutedPlan owns the trace
  // the plan's instrumentation points into, so it stays in scope for the
  // drain).
  auto time_routed = [&] {
    double best = 1e300;
    for (int r = 0; r < 5; ++r) {
      benchutil::Timer t;
      auto rp = coll->Route(preds).MoveValue();
      Result<size_t> n = benchutil::Drain(rp.plan.get());
      if (!n.ok()) {
        fprintf(stderr, "%s\n", n.status().ToString().c_str());
        exit(1);
      }
      if (n.value() != expect_rows) {
        fprintf(stderr, "parallel drain row mismatch: %zu != %zu\n",
                n.value(), expect_rows);
        exit(1);
      }
      best = std::min(best, t.ElapsedMs());
    }
    return best;
  };

  // The leading label keeps row keys unique (BENCH json consumers pair
  // rows by first cell); shards/threads/speedup stay plain numbers so the
  // BENCH json cells parse as JSON numbers.
  benchutil::PrintHeader(
      {"scaling config", "shards", "threads", "ms", "speedup vs 1 thread"});
  double t1 = 0;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    rdbms::WorkerPool::Global().Resize(threads);
    double best = time_routed();
    if (threads == 1) t1 = best;
    benchutil::PrintRow({"4 shards @ " + std::to_string(threads) + " thr",
                         "4", std::to_string(threads), benchutil::Fmt(best),
                         benchutil::Fmt(t1 / best, 2)});
  }
  printf("(matching rows: %zu of %zu; worker pool left at 4 threads)\n\n",
         expect_rows, docs_n);
}

void SetEncodingAblation(size_t docs_n) {
  printf("--- (b) §7 set encoding vs self-contained OSON ---\n");
  Rng rng(13);
  std::vector<std::string> texts;
  std::vector<std::unique_ptr<json::JsonNode>> trees;
  for (size_t i = 0; i < docs_n; ++i) {
    texts.push_back(workloads::PurchaseOrder(&rng, i + 1));
    trees.push_back(json::Parse(texts.back()).MoveValue());
  }

  // Self-contained images.
  std::vector<std::string> self_images;
  size_t self_bytes = 0;
  for (const auto& tree : trees) {
    self_images.push_back(oson::Encode(*tree).MoveValue());
    self_bytes += self_images.back().size();
  }

  // Set-encoded images + one shared dictionary.
  oson::SetEncoder enc;
  for (const auto& tree : trees) enc.CollectNames(*tree);
  if (!enc.FinalizeDictionary().ok()) exit(1);
  std::vector<std::string> set_images;
  size_t set_bytes = enc.dictionary().MemoryBytes();
  for (const auto& tree : trees) {
    set_images.push_back(enc.Encode(*tree).MoveValue());
    set_bytes += set_images.back().size();
  }

  // Query both stores: singleton JSON_VALUE over every document.
  jsonpath::PathExpression path =
      jsonpath::PathExpression::Parse("$.purchaseOrder.costcenter")
          .MoveValue();
  auto time_query = [&](auto open_dom) {
    double best = 1e300;
    for (int r = 0; r < 5; ++r) {
      jsonpath::PathEvaluator eval(&path);
      benchutil::Timer t;
      size_t hits = 0;
      for (size_t i = 0; i < docs_n; ++i) {
        auto dom = open_dom(i);
        Result<std::optional<Value>> v = eval.FirstScalar(dom);
        if (v.ok() && v.value().has_value()) ++hits;
      }
      if (hits != docs_n) {
        fprintf(stderr, "query missed documents\n");
        exit(1);
      }
      best = std::min(best, t.ElapsedMs());
    }
    return best;
  };
  double t_self = time_query([&](size_t i) {
    return oson::OsonDom::Open(self_images[i]).MoveValue();
  });
  double t_set = time_query([&](size_t i) {
    return oson::OpenSetImage(set_images[i], &enc.dictionary()).MoveValue();
  });

  benchutil::PrintHeader({"store", "MB", "query ms", ""});
  benchutil::PrintRow({"self-contained",
                       benchutil::Fmt(self_bytes / 1048576.0),
                       benchutil::Fmt(t_self), ""});
  benchutil::PrintRow({"set-encoded",
                       benchutil::Fmt(set_bytes / 1048576.0),
                       benchutil::Fmt(t_set),
                       benchutil::Fmt(100.0 * set_bytes / self_bytes, 1) +
                           "% of bytes"});
}

void Run() {
  size_t docs = benchutil::DocCount(4000);
  printf("=== Ablations: access paths & set encoding, %zu docs ===\n\n",
         docs);
  AccessPathAblation(docs);
  ShardScalingAblation(docs);
  SetEncodingAblation(docs);
}

}  // namespace
}  // namespace fsdm

int main() {
  fsdm::benchutil::BenchJson::Global().Init("ablation_access_paths");
  fsdm::Run();
  return 0;
}
