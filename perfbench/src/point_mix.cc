// point_mix: a durable purchase-order collection under a constant-size mix
// of 90% routed equality reads on the unique $.purchaseOrder.reference and
// 10% Replace() of existing documents, keys chosen uniformly.
//
// Reads exercise the router, posting lookup and row materialization; writes
// use the index the other way (old postings out, new postings in). Every
// read is checked against a reference map of the latest version of each
// document. Throughout the timed phase a fixed prefix of the set-up log is
// replayed, each time from its own pristine copy, and a throwaway
// collection is set up again, so that both medians see the same host as the
// rounds. At the end the collection checkpoints and recovery must return
// the latest version of every document.

#include "common/rng.h"
#include "layers.h"
#include "measure.h"
#include "workloads/generators.h"

namespace fsdm::perfbench {

namespace {

namespace fs = std::filesystem;
using collection::JsonCollection;

struct Scale {
  size_t docs;
  size_t round_ops;
  /// The recovery metric replays the set-up log as it stood after this
  /// many documents, once every `replay_every` rounds.
  size_t replay_docs;
  size_t replay_every;
  /// A throwaway set-up once every this many rounds.
  size_t setup_every;
  /// Space is sampled after this many rounds.
  size_t space_round;
};

Scale ScaleFor(const Config& cfg) {
  if (cfg.tiny) return {300, 200, 100, 1, 1, 2};
  return {2000, 1000, 500, 6, 20, 40};
}

struct PointMixRun {
  const Config& cfg;
  Scale scale;
  Report report;
  Rng rng;
  EndToEnd e2e;
  RouteStats routes;

  std::vector<std::string> refs;
  std::vector<std::string> original;
  std::vector<std::string> latest;
  double logged_text_bytes = 0;
  size_t rounds = 0;

  fs::path dir;
  fs::path prefix_log;
  std::unique_ptr<rdbms::Database> db;
  std::unique_ptr<JsonCollection> coll;

  explicit PointMixRun(const Config& c)
      : cfg(c), scale(ScaleFor(c)), rng(c.seed), dir(c.workdir / "live"),
        prefix_log(c.workdir / "prefix-log") {
    for (size_t i = 0; i < scale.docs; ++i) {
      workloads::PurchaseOrderRelational po =
          workloads::PurchaseOrderRows(&rng, static_cast<int64_t>(i));
      refs.push_back(po.reference);
      original.push_back(workloads::RenderPurchaseOrder(po));
    }
    latest = original;
    for (const std::string& d : original) logged_text_bytes += d.size();
  }

  /// A new version of document i: fresh contents, same reference.
  std::string NewVersion(size_t i) {
    workloads::PurchaseOrderRelational po =
        workloads::PurchaseOrderRows(&rng, static_cast<int64_t>(i));
    po.reference = refs[i];
    return workloads::RenderPurchaseOrder(po);
  }

  /// Set-up: a durable collection in `in` preloaded with every original
  /// document. Appends its time to setup_s; `prefix`, when given, receives
  /// a copy of the log after `scale.replay_docs` documents (not timed).
  std::unique_ptr<JsonCollection> SetUp(rdbms::Database* in_db,
                                        const fs::path& in,
                                        const fs::path* prefix) {
    fs::remove_all(in);
    e2e.host.Sample();
    Stopwatch t;
    Result<std::unique_ptr<JsonCollection>> created =
        JsonCollection::Create(in_db, "PO", DurableOptions(in, true));
    report.Check(created.ok(), "create durable collection");
    if (!created.ok()) return nullptr;
    double copy_us = 0;
    for (size_t i = 0; i < original.size(); ++i) {
      report.Check(created.value()->Insert(
                       Value::Int64(static_cast<int64_t>(i)), original[i]).ok(),
                   "preload insert");
      if (prefix != nullptr && i + 1 == scale.replay_docs) {
        Stopwatch copy;
        CopyDir(in, *prefix);
        copy_us = copy.Us();
      }
    }
    e2e.setup_s.push_back(e2e.host.Normalize(t.Us() - copy_us) / 1e6);
    return created.MoveValue();
  }

  void Setup() {
    db = std::make_unique<rdbms::Database>();
    coll = SetUp(db.get(), dir, &prefix_log);
  }

  void Write(size_t i, double* busy_us) {
    std::string text = NewVersion(i);
    const double t0 = NowUs();
    const bool ok =
        coll->Replace(i, Value::Int64(static_cast<int64_t>(i)), text).ok();
    const double us = e2e.host.Normalize(NowUs() - t0);
    e2e.write_us.push_back(us);
    *busy_us += us;
    report.Check(ok, "replace");
    logged_text_bytes += text.size();
    if (ok) latest[i] = std::move(text);
  }

  void Read(size_t i, bool traced, double* busy_us) {
    double route_us = 0;
    double drain_us = 0;
    RoutedRows got = RouteAndDrain(
        *coll,
        {collection::PathPredicate::Compare("$.purchaseOrder.reference",
                                            rdbms::CompareOp::kEq,
                                            Value::String(refs[i]))},
        &route_us, &drain_us);
    const double us = e2e.host.Normalize(route_us + drain_us);
    e2e.read_us.push_back(us);
    *busy_us += us;
    if (traced) routes.Record(got.plan, route_us, drain_us);
    const bool inject = cfg.inject_wrong_answer && e2e.read_us.size() == 1;
    report.Check(got.ok && got.rows.size() == 1 &&
                     got.rows[0][0].AsInt64() == static_cast<int64_t>(i) &&
                     got.rows[0][1].AsString() == latest[i] && !inject,
                 "read of reference " + refs[i] + " returns its latest version");
  }

  /// Rounds of `scale.round_ops` operations until `budget_s` of wall time
  /// has passed; `trace` alternates untraced and traced rounds.
  void RunPhase(double budget_s, bool trace) {
    Stopwatch phase;
    while (coll != nullptr &&
           (e2e.round_ops_per_s.size() < 2 || phase.Seconds() < budget_s)) {
      const bool traced = trace && TracedRound(e2e.round_ops_per_s.size());
      double busy_us = 0;
      e2e.host.Sample();
      Stopwatch wall;
      for (size_t op = 0; op < scale.round_ops; ++op) {
        const size_t i = rng.Uniform(scale.docs);
        if (rng.Uniform(10) == 0) {
          Write(i, &busy_us);
        } else {
          Read(i, traced, &busy_us);
        }
      }
      const double ops = static_cast<double>(scale.round_ops);
      e2e.round_ops_per_s.push_back(ops /
                                    (e2e.host.Normalize(wall.Us()) / 1e6));
      e2e.ops += ops;
      e2e.busy_us += busy_us;
      if (++rounds == scale.space_round) {
        double live_bytes = 0;
        for (const std::string& d : latest) live_bytes += d.size();
        e2e.resident_bytes_per_doc_byte =
            static_cast<double>(ResidentBytes()) / live_bytes;
        e2e.wal_bytes_per_doc_byte =
            static_cast<double>(DirBytes(dir)) / logged_text_bytes;
        e2e.peak_rss_mb = PeakRssMb();
      }
      if (rounds % scale.replay_every == 0) {
        e2e.recovery_docs_per_s.push_back(TimedReplay(
            prefix_log, cfg.workdir / "replay", /*search_index=*/true,
            std::vector<std::string>(original.begin(),
                                     original.begin() + scale.replay_docs),
            0, cfg.inject_wrong_answer, &e2e.host, &report));
      }
      if (rounds % scale.setup_every == 0) {
        rdbms::Database throwaway;
        SetUp(&throwaway, cfg.workdir / "setup", nullptr).reset();
        fs::remove_all(cfg.workdir / "setup");
      }
    }
  }

  /// Recovery after a checkpoint must return every latest version.
  fs::path CheckpointAndVerify() {
    return perfbench::CheckpointAndVerify(coll.get(), dir, cfg.workdir,
                                          /*search_index=*/true, latest,
                                          &report);
  }
};

}  // namespace

int RunPointMix(const Config& cfg) {
  PointMixRun run(cfg);
  run.Setup();
  if (!cfg.trace) {
    run.RunPhase(cfg.seconds, /*trace=*/false);
    run.CheckpointAndVerify();
    EmitEndToEnd(run.e2e, &run.report);
    return run.report.Print();
  }

  run.RunPhase(cfg.seconds, /*trace=*/true);
  run.routes.Emit(&run.report);
  run.report.Metric("telemetry.trace_overhead_share",
                    TraceOverheadShare(run.e2e.round_ops_per_s), "ratio");
  run.report.Metric("host.probe_us", run.e2e.host.MedianProbeUs(), "us");
  LayerInputs in;
  in.docs = run.original;
  for (size_t i = 0; i < in.docs.size() / 2; ++i) {
    in.replacements.push_back(run.NewVersion(i));
  }
  in.wal_copy = run.CheckpointAndVerify();
  in.scratch = cfg.workdir / "layers";
  in.search_index = true;
  run.coll.reset();
  run.db.reset();
  RunLayerSuite(in, &run.report);
  return run.report.Print();
}

}  // namespace fsdm::perfbench
