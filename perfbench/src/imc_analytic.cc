// imc_analytic: the eleven NOBENCH queries in OSON-IMC mode over a
// collection with the three §6.4 JSON_VALUE virtual columns, no search
// index, and the in-memory column store populated with key + OSON.
//
// The timed phase is a sequence of refresh cycles: one round of the eleven
// queries, then a batch of Replace()s that invalidates the IMC, then the
// timed EnsureImc() that repopulates it. The batch toggles a fixed set of
// documents between two versions, so the collection only ever holds two
// states; every OSON-IMC answer is compared with the TEXT-mode answer of
// its state, computed once per state outside the timed phase.
//
// The collection logs its writes (fsync off) so that restart and log size
// are measured on this workload too; the WAL sits only on the Replace path,
// which is a small share of the timed phase. Every few cycles the set-up
// log is replayed from its own pristine copy, and a throwaway collection is
// set up again, so that both medians see the same host as the cycles. At
// the end the collection checkpoints and recovery must return the current
// version of every document.

#include <set>

#include "common/rng.h"
#include "layers.h"
#include "measure.h"
#include "nobench_queries.h"
#include "telemetry/telemetry.h"
#include "workloads/generators.h"

namespace fsdm::perfbench {

namespace {

namespace fs = std::filesystem;
using collection::JsonCollection;

struct Scale {
  size_t docs;
  size_t toggled;
  /// A set-up log replay, and a throwaway set-up, once every this many
  /// refresh cycles.
  size_t replay_every;
  size_t setup_every;
  /// Space is sampled after this many refresh cycles.
  size_t space_cycle;
  size_t probes;  // traced run: routed lookups on the analytic collection
};

Scale ScaleFor(const Config& cfg) {
  if (cfg.tiny) return {200, 10, 1, 1, 2, 20};
  return {600, 40, 4, 8, 30, 200};
}

struct ImcRun {
  const Config& cfg;
  Scale scale;
  Report report;
  Rng rng;

  std::vector<std::string> original;
  std::vector<size_t> toggled;  // row ids (== keys) of the toggled set
  std::vector<std::string> alternate;
  int state = 0;
  std::vector<std::string> text_answers[2];

  fs::path dir;
  fs::path setup_log;
  std::unique_ptr<NbDataset> live;

  EndToEnd e2e;
  double refresh_us = 0;
  double query_us = 0;
  double logged_text_bytes = 0;
  size_t cycles = 0;
  size_t docs_changed = 0;
  uint64_t rows_reencoded = 0;
  std::vector<std::vector<double>> span_us =
      std::vector<std::vector<double>>(kNobenchQueries);

  explicit ImcRun(const Config& c)
      : cfg(c), scale(ScaleFor(c)), rng(c.seed), dir(c.workdir / "live"),
        setup_log(c.workdir / "setup-log") {
    for (size_t i = 0; i < scale.docs; ++i) {
      original.push_back(workloads::Nobench(&rng, static_cast<int64_t>(i)));
    }
    std::set<size_t> picked;
    while (picked.size() < scale.toggled) picked.insert(rng.Uniform(scale.docs));
    for (size_t i : picked) {
      toggled.push_back(i);
      alternate.push_back(workloads::Nobench(&rng, static_cast<int64_t>(i)));
    }
    e2e.read_classes.resize(kNobenchQueries);
  }

  JsonCollection& coll() { return *live->coll; }

  const std::string& Current(size_t i) const {
    if (state == 1) {
      for (size_t j = 0; j < toggled.size(); ++j) {
        if (toggled[j] == i) return alternate[j];
      }
    }
    return original[i];
  }

  /// Set-up: the collection with its virtual columns, the preload, and the
  /// first IMC populate, logged into `in`. Appends its time to setup_s.
  std::unique_ptr<NbDataset> SetUp(const fs::path& in) {
    fs::remove_all(in);
    e2e.host.Sample();
    Stopwatch t;
    auto ds = std::make_unique<NbDataset>();
    Result<std::unique_ptr<JsonCollection>> created =
        JsonCollection::Create(&ds->db, "NB", DurableOptions(in, false));
    report.Check(created.ok(), "create collection");
    if (!created.ok()) return nullptr;
    JsonCollection& c = *created.value();
    bool ok = c.AddVirtualColumn("STR1_VC", "$.str1",
                                 sqljson::Returning::kString).ok();
    ok &= c.AddVirtualColumn("NUM_VC", "$.num",
                             sqljson::Returning::kNumber).ok();
    ok &= c.AddVirtualColumn("DYN1_VC", "$.dyn1",
                             sqljson::Returning::kNumber).ok();
    for (size_t i = 0; i < original.size(); ++i) {
      ok &= c.Insert(Value::Int64(static_cast<int64_t>(i)), original[i]).ok();
    }
    ok &= c.PopulateImc().ok();
    e2e.setup_s.push_back(e2e.host.Normalize(t.Us()) / 1e6);
    report.Check(ok, "preload and first IMC populate");
    AdoptCollection(created.MoveValue(), original[scale.docs / 3], ds.get());
    return ds;
  }

  void Setup() {
    live = SetUp(dir);
    if (live == nullptr) return;
    for (const std::string& d : original) logged_text_bytes += d.size();
    CopyDir(dir, setup_log);
  }

  /// TEXT-mode answers of the current state, computed on first entry.
  const std::vector<std::string>& TextAnswers() {
    std::vector<std::string>& answers = text_answers[state];
    if (!answers.empty()) return answers;
    const NbAccess text = benchutil::TextAccess(*live);
    for (int q = 1; q <= kNobenchQueries; ++q) {
      Result<rdbms::OperatorPtr> plan = NobenchQuery(q, *live, text);
      Result<std::string> answer =
          plan.ok() ? CanonicalAnswer(plan.value().get(), text)
                    : Result<std::string>(plan.status());
      report.Check(answer.ok(), "TEXT-mode Q" + std::to_string(q));
      answers.push_back(answer.ok() ? answer.MoveValue() : "");
    }
    if (cfg.inject_wrong_answer) answers[0] += "wrong";
    return answers;
  }

  /// One refresh cycle: a round of queries, the write batch, EnsureImc().
  /// A traced cycle wraps each query plan in an EXPLAIN ANALYZE probe and
  /// files the probe's time under its query.
  void Cycle(bool traced) {
    const std::vector<std::string>& expected = TextAnswers();
    e2e.host.Sample();
    Stopwatch wall;
    Result<const imc::ColumnStore*> store = coll().EnsureImc();
    report.Check(store.ok() && store.value() != nullptr, "IMC available");
    if (!store.ok()) return;
    const NbAccess imc = benchutil::OsonImcAccess(*live, store.value());
    double busy_us = 0;
    for (int q = 1; q <= kNobenchQueries; ++q) {
      telemetry::OperatorSpan span;
      const double t0 = NowUs();
      Result<rdbms::OperatorPtr> plan = NobenchQuery(q, *live, imc);
      if (plan.ok() && traced) {
        plan = rdbms::Instrument(plan.MoveValue(), &span);
      }
      Result<std::string> answer =
          plan.ok() ? CanonicalAnswer(plan.value().get(), imc)
                    : Result<std::string>(plan.status());
      const double us = e2e.host.Normalize(NowUs() - t0);
      e2e.read_us.push_back(us);
      e2e.read_classes[q - 1].push_back(us);
      if (traced) span_us[q - 1].push_back(span.elapsed_us);
      query_us += us;
      busy_us += us;
      report.Check(answer.ok() && answer.value() == expected[q - 1],
                   "OSON-IMC Q" + std::to_string(q) + " equals TEXT answer");
    }

    state ^= 1;
    for (size_t j = 0; j < toggled.size(); ++j) {
      const size_t i = toggled[j];
      const std::string& text = state == 1 ? alternate[j] : original[i];
      const double t0 = NowUs();
      const bool ok =
          coll().Replace(i, Value::Int64(static_cast<int64_t>(i)), text).ok();
      const double us = e2e.host.Normalize(NowUs() - t0);
      e2e.write_us.push_back(us);
      busy_us += us;
      report.Check(ok, "replace");
      logged_text_bytes += text.size();
    }
    docs_changed += toggled.size();

    const uint64_t populated_before = ImcPopulatedRows();
    const double t0 = NowUs();
    Result<const imc::ColumnStore*> refreshed = coll().EnsureImc();
    const double us = e2e.host.Normalize(NowUs() - t0);
    rows_reencoded += ImcPopulatedRows() - populated_before;
    refresh_us += us;
    busy_us += us;
    report.Check(refreshed.ok() && refreshed.value() != nullptr &&
                     refreshed.value()->row_count() == scale.docs,
                 "IMC repopulated");
    const double ops = static_cast<double>(kNobenchQueries + toggled.size());
    e2e.ops += ops;
    e2e.busy_us += busy_us;
    e2e.round_ops_per_s.push_back(ops /
                                  (e2e.host.Normalize(wall.Us()) / 1e6));
    ++cycles;
  }

  /// Work between cycles: space at its fixed cycle, replays and throwaway
  /// set-ups at their period.
  void BetweenCycles() {
    if (cycles == scale.space_cycle) {
      double live_bytes = 0;
      for (size_t i = 0; i < original.size(); ++i) {
        live_bytes += Current(i).size();
      }
      e2e.resident_bytes_per_doc_byte =
          static_cast<double>(ResidentBytes()) / live_bytes;
      e2e.wal_bytes_per_doc_byte =
          static_cast<double>(DirBytes(dir)) / logged_text_bytes;
      e2e.peak_rss_mb = PeakRssMb();
    }
    if (cycles % scale.replay_every == 0) {
      e2e.recovery_docs_per_s.push_back(
          TimedReplay(setup_log, cfg.workdir / "replay",
                      /*search_index=*/false, original, 0,
                      cfg.inject_wrong_answer, &e2e.host, &report));
    }
    if (cycles % scale.setup_every == 0) {
      SetUp(cfg.workdir / "setup").reset();
      fs::remove_all(cfg.workdir / "setup");
    }
  }

  /// Refresh cycles until `budget_s` of wall time has passed; `trace`
  /// alternates untraced and traced cycles.
  void RunPhase(double budget_s, bool trace) {
    Stopwatch phase;
    while (live != nullptr &&
           (e2e.round_ops_per_s.size() < 2 || phase.Seconds() < budget_s)) {
      const size_t before = e2e.round_ops_per_s.size();
      Cycle(trace && TracedRound(before));
      if (e2e.round_ops_per_s.size() == before) break;  // IMC unavailable
      BetweenCycles();
    }
  }

  /// Recovery after a checkpoint must return every current version.
  fs::path CheckpointAndVerify() {
    std::vector<std::string> current;
    for (size_t i = 0; i < original.size(); ++i) current.push_back(Current(i));
    return perfbench::CheckpointAndVerify(live->coll.get(), dir, cfg.workdir,
                                          /*search_index=*/false, current,
                                          &report);
  }

  /// Traced run only: routed equality lookups on $.num, which the router
  /// may answer from the populated IMC's NUM_VC column.
  void Probes(RouteStats* routes) {
    Result<const imc::ColumnStore*> store = coll().EnsureImc();
    report.Check(store.ok(), "IMC available for probes");
    for (size_t p = 0; p < scale.probes; ++p) {
      const int64_t num = TopLevelNum(Current(rng.Uniform(scale.docs)));
      std::set<int64_t> expected;
      for (size_t i = 0; i < original.size(); ++i) {
        if (TopLevelNum(Current(i)) == num) {
          expected.insert(static_cast<int64_t>(i));
        }
      }
      double route_us = 0;
      double drain_us = 0;
      RoutedRows got = RouteAndDrain(
          coll(),
          {collection::PathPredicate::Compare("$.num", rdbms::CompareOp::kEq,
                                              Value::Int64(num))},
          &route_us, &drain_us);
      routes->Record(got.plan, route_us, drain_us);
      std::set<int64_t> keys;
      for (const rdbms::Row& row : got.rows) keys.insert(row[0].AsInt64());
      report.Check(got.ok && keys == expected,
                   "routed probe of num " + std::to_string(num));
    }
  }
};

}  // namespace

int RunImcAnalytic(const Config& cfg) {
  ImcRun run(cfg);
  run.Setup();
  run.RunPhase(cfg.seconds, cfg.trace);
  if (!cfg.trace) {
    run.CheckpointAndVerify();
    EmitEndToEnd(run.e2e, &run.report);
    fprintf(stderr, "imc_analytic: refresh share of timed phase %.3f\n",
            run.refresh_us /
                (run.refresh_us + run.query_us + Sum(run.e2e.write_us)));
    return run.report.Print();
  }

  // Traced run: the routed probes and the layer suite follow the timed
  // phase.
  RouteStats routes;
  run.Probes(&routes);
  routes.Emit(&run.report);
  EmitQueryMetrics(run.span_us, &run.report);
  run.report.Metric("imc.docs_reencoded_per_doc_changed",
                    static_cast<double>(run.rows_reencoded) /
                        static_cast<double>(run.docs_changed),
                    "ratio");
  run.report.Metric("telemetry.trace_overhead_share",
                    TraceOverheadShare(run.e2e.round_ops_per_s), "ratio");
  run.report.Metric("host.probe_us", run.e2e.host.MedianProbeUs(), "us");
  LayerInputs in;
  in.docs = run.original;
  for (size_t i = 0; i < std::min<size_t>(in.docs.size(), 500); ++i) {
    in.replacements.push_back(
        workloads::Nobench(&run.rng, static_cast<int64_t>(i)));
  }
  in.wal_copy = run.CheckpointAndVerify();
  in.scratch = cfg.workdir / "layers";
  in.search_index = false;
  in.queries = false;
  in.imc_refresh = false;
  run.live.reset();
  RunLayerSuite(in, &run.report);
  return run.report.Print();
}

}  // namespace fsdm::perfbench
