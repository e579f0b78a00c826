// ingest_wal: durable NOBENCH ingest with the search index, DataGuide and
// path statistics, plus crash-recovery replay of the log.
//
// The run is a sequence of cycles. Each cycle creates a fresh durable
// collection and preloads it (set-up), copies the set-up log aside, times a
// long stretch of single-document inserts, reads a sample of them back
// through the router, drops the collection, and finally replays the copied
// log. Cycling keeps memory and log size bounded however long the timed
// phase is, and spreads the set-ups and the replays over the whole run, so
// their medians see the same host as the inserts.

#include <map>
#include <set>

#include "common/rng.h"
#include "layers.h"
#include "measure.h"
#include "nobench_queries.h"
#include "workloads/generators.h"

namespace fsdm::perfbench {

namespace {

namespace fs = std::filesystem;
using collection::JsonCollection;

struct Scale {
  size_t preload;
  size_t inserts;
  size_t reads;
};

constexpr size_t kProbeEvery = 1000;

Scale ScaleFor(const Config& cfg) {
  if (cfg.tiny) return {100, 300, 50};
  return {1000, 4000, 1000};
}

struct IngestRun {
  const Config& cfg;
  Scale scale;
  Report report;
  Rng rng;
  int64_t next_id = 0;
  size_t cycles = 0;
  EndToEnd e2e;
  RouteStats routes;

  // The first cycle's set-up log and documents, for the layer suite.
  fs::path first_log;
  std::vector<std::string> first_docs;

  explicit IngestRun(const Config& c)
      : cfg(c), scale(ScaleFor(c)), rng(c.seed),
        first_log(c.workdir / "first-log") {
    e2e.write_chunk = scale.inserts;
  }

  /// One cycle; appends to the end-to-end samples.
  void RunCycle(bool traced) {
    const fs::path dir = cfg.workdir / "cycle";
    const fs::path setup_log = cfg.workdir / "setup-log";
    fs::remove_all(dir);
    const int64_t base = next_id;
    std::vector<std::string> docs;
    for (size_t i = 0; i < scale.preload + scale.inserts; ++i) {
      docs.push_back(workloads::Nobench(&rng, next_id++));
    }

    e2e.host.Sample();
    Stopwatch setup;
    auto db = std::make_unique<rdbms::Database>();
    Result<std::unique_ptr<JsonCollection>> created =
        JsonCollection::Create(db.get(), "NB", DurableOptions(dir, true));
    report.Check(created.ok(), "create durable collection");
    if (!created.ok()) return;
    std::unique_ptr<JsonCollection> coll = created.MoveValue();
    for (size_t i = 0; i < scale.preload; ++i) {
      report.Check(coll->Insert(Value::Int64(base + static_cast<int64_t>(i)),
                                docs[i]).ok(),
                   "preload insert");
    }
    e2e.setup_s.push_back(e2e.host.Normalize(setup.Us()) / 1e6);
    CopyDir(dir, setup_log);

    // The host is sampled every kProbeEvery inserts; the probes are not
    // part of the insert time.
    double insert_us = 0;
    for (size_t i = scale.preload; i < docs.size(); ++i) {
      if ((i - scale.preload) % kProbeEvery == 0) e2e.host.Sample();
      const double t0 = NowUs();
      const bool ok =
          coll->Insert(Value::Int64(base + static_cast<int64_t>(i)), docs[i])
              .ok();
      const double us = e2e.host.Normalize(NowUs() - t0);
      e2e.write_us.push_back(us);
      insert_us += us;
      report.Check(ok, "timed insert");
    }
    e2e.ops += static_cast<double>(scale.inserts);
    e2e.busy_us += insert_us;

    // Read-back: routed equality on $.num must return exactly the acked
    // documents carrying that value.
    std::map<int64_t, std::set<int64_t>> keys_by_num;
    for (size_t i = 0; i < docs.size(); ++i) {
      keys_by_num[TopLevelNum(docs[i])].insert(base + static_cast<int64_t>(i));
    }
    e2e.host.Sample();
    Stopwatch reads;
    for (size_t r = 0; r < scale.reads; ++r) {
      const int64_t num = TopLevelNum(docs[rng.Uniform(docs.size())]);
      double route_us = 0;
      double drain_us = 0;
      RoutedRows got = RouteAndDrain(
          *coll,
          {collection::PathPredicate::Compare("$.num", rdbms::CompareOp::kEq,
                                              Value::Int64(num))},
          &route_us, &drain_us);
      e2e.read_us.push_back(e2e.host.Normalize(route_us + drain_us));
      if (traced) routes.Record(got.plan, route_us, drain_us);
      std::set<int64_t> keys;
      for (const rdbms::Row& row : got.rows) keys.insert(row[0].AsInt64());
      std::set<int64_t> expected = keys_by_num[num];
      if (cfg.inject_wrong_answer && e2e.read_us.size() == 1) {
        expected.insert(-1);
      }
      report.Check(got.ok && keys == expected,
                   "read-back of num " + std::to_string(num));
    }
    e2e.round_ops_per_s.push_back(
        static_cast<double>(scale.inserts + scale.reads) /
        ((insert_us + e2e.host.Normalize(reads.Us())) / 1e6));

    if (++cycles == 3) {
      double text_bytes = 0;
      for (const std::string& d : docs) text_bytes += d.size();
      e2e.resident_bytes_per_doc_byte =
          static_cast<double>(ResidentBytes()) / text_bytes;
      e2e.wal_bytes_per_doc_byte =
          static_cast<double>(DirBytes(dir)) / text_bytes;
      e2e.peak_rss_mb = PeakRssMb();
    }
    if (first_docs.empty()) {
      CopyDir(setup_log, first_log);
      first_docs.assign(docs.begin(), docs.begin() + scale.preload);
    }
    coll.reset();
    db.reset();
    fs::remove_all(dir);

    docs.resize(scale.preload);
    e2e.recovery_docs_per_s.push_back(
        TimedReplay(setup_log, cfg.workdir / "replay", /*search_index=*/true,
                    docs, base, cfg.inject_wrong_answer, &e2e.host, &report));
  }

  /// Cycles until `budget_s` of wall time has passed (at least three);
  /// `trace` alternates untraced and traced cycles.
  void RunPhase(double budget_s, bool trace) {
    Stopwatch phase;
    while (e2e.round_ops_per_s.size() < 3 || phase.Seconds() < budget_s) {
      const size_t before = e2e.round_ops_per_s.size();
      RunCycle(trace && TracedRound(before));
      if (e2e.round_ops_per_s.size() == before) break;  // set-up failed
    }
  }
};

}  // namespace

int RunIngestWal(const Config& cfg) {
  IngestRun run(cfg);
  if (!cfg.trace) {
    run.RunPhase(cfg.seconds, /*trace=*/false);
    EmitEndToEnd(run.e2e, &run.report);
    return run.report.Print();
  }

  // Traced run: the same loop with every other cycle traced, then the layer
  // suite over the first cycle's set-up documents and log.
  run.RunPhase(cfg.seconds, /*trace=*/true);
  run.routes.Emit(&run.report);
  run.report.Metric("telemetry.trace_overhead_share",
                    TraceOverheadShare(run.e2e.round_ops_per_s), "ratio");
  run.report.Metric("host.probe_us", run.e2e.host.MedianProbeUs(), "us");
  LayerInputs in;
  in.docs = run.first_docs;
  for (size_t i = 0; i < in.docs.size() / 2; ++i) {
    in.replacements.push_back(
        workloads::Nobench(&run.rng, static_cast<int64_t>(i)));
  }
  in.wal_copy = run.first_log;
  in.scratch = cfg.workdir / "layers";
  in.search_index = true;
  RunLayerSuite(in, &run.report);
  return run.report.Print();
}

}  // namespace fsdm::perfbench
