// WAL durability bench (ISSUE 8): durable-ingest throughput of NOBENCH
// documents under each fsync policy — none (no WAL at all), off, group,
// always — plus recovery: time to reopen the directory and replay the log
// back into a full collection stack. The "wal" section of the BENCH json
// (validated by scripts/check_bench_json.py) carries docs/sec per policy and the recovery time with the LSN count it
// replayed.

#include <filesystem>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "wal/wal.h"

namespace fsdm {
namespace {

namespace fs = std::filesystem;

struct PolicyResult {
  std::string name;
  double insert_ms = 0;
  double docs_per_sec = 0;
  uint64_t fsyncs = 0;
};

fs::path BenchDir() {
  return fs::temp_directory_path() / "fsdm_bench_wal_durability";
}

collection::CollectionOptions DurableOptions(wal::FsyncPolicy policy) {
  collection::CollectionOptions options;
  options.wal_dir = BenchDir().string();
  options.wal_fsync = policy;
  return options;
}

PolicyResult IngestOnce(const std::vector<std::string>& docs,
                        const wal::FsyncPolicy* policy) {
  fs::remove_all(BenchDir());
  PolicyResult res;
  rdbms::Database db;
  collection::CollectionOptions options;
  if (policy != nullptr) {
    options = DurableOptions(*policy);
    res.name = wal::FsyncPolicyName(*policy);
  } else {
    res.name = "none";
  }
  auto coll = collection::JsonCollection::Create(&db, "WALBENCH", options)
                  .MoveValue();
  benchutil::Timer t;
  for (size_t i = 0; i < docs.size(); ++i) {
    Result<size_t> r =
        coll->Insert(Value::Int64(static_cast<int64_t>(i)), docs[i]);
    if (!r.ok()) {
      fprintf(stderr, "insert failed: %s\n", r.status().ToString().c_str());
      exit(1);
    }
  }
  res.insert_ms = t.ElapsedMs();
  res.docs_per_sec = 1000.0 * static_cast<double>(docs.size()) /
                     (res.insert_ms > 0 ? res.insert_ms : 1e-9);
  if (coll->wal() != nullptr) res.fsyncs = coll->wal()->fsyncs();
  return res;
}

void Run() {
  const size_t docs_n = benchutil::DocCount(2000);
  printf("=== WAL durability: ingest %zu NOBENCH docs per fsync policy ===\n",
         docs_n);
  Rng rng(20160626);
  std::vector<std::string> docs;
  docs.reserve(docs_n);
  for (size_t i = 0; i < docs_n; ++i) {
    docs.push_back(workloads::Nobench(&rng, static_cast<int64_t>(i)));
  }

  const wal::FsyncPolicy kPolicies[] = {
      wal::FsyncPolicy::kOff, wal::FsyncPolicy::kGroup,
      wal::FsyncPolicy::kAlways};
  std::vector<PolicyResult> results;
  // Throwaway warmup so the first measured run doesn't absorb the
  // allocator/page-cache cold start.
  (void)IngestOnce(docs, nullptr);
  results.push_back(IngestOnce(docs, nullptr));
  for (const wal::FsyncPolicy& p : kPolicies) {
    results.push_back(IngestOnce(docs, &p));
  }
  // The "always" run is the one left on disk: recover from it — the
  // worst-case log (one record per op, no checkpoint).
  double recovery_ms = 0;
  uint64_t replayed_lsns = 0;
  size_t recovered_docs = 0;
  {
    rdbms::Database db;
    benchutil::Timer t;
    auto coll = collection::JsonCollection::Create(
        &db, "WALRECOVER", DurableOptions(wal::FsyncPolicy::kOff));
    if (!coll.ok()) {
      fprintf(stderr, "recovery failed: %s\n",
              coll.status().ToString().c_str());
      exit(1);
    }
    recovery_ms = t.ElapsedMs();
    replayed_lsns = coll.value()->wal()->recovery().max_lsn;
    recovered_docs = coll.value()->document_count();
  }
  fs::remove_all(BenchDir());

  benchutil::PrintHeader(
      {"policy", "ingest ms", "docs/sec", "fsyncs", "vs none"});
  std::string wal_json = "{\"ingest\":[";
  for (size_t i = 0; i < results.size(); ++i) {
    const PolicyResult& r = results[i];
    benchutil::PrintRow(
        {r.name, benchutil::Fmt(r.insert_ms), benchutil::Fmt(r.docs_per_sec, 0),
         std::to_string(r.fsyncs),
         benchutil::Fmt(r.insert_ms / results[0].insert_ms, 2) + "x"});
    if (i > 0) wal_json += ",";
    wal_json += "{\"policy\":\"" + r.name +
                "\",\"docs_per_sec\":" + benchutil::Fmt(r.docs_per_sec, 1) +
                ",\"ingest_ms\":" + benchutil::Fmt(r.insert_ms, 3) +
                ",\"fsyncs\":" + std::to_string(r.fsyncs) + "}";
  }
  printf("\nrecovery: %zu docs, %llu LSNs replayed in %.2f ms (%.0f LSN/s)\n",
         recovered_docs, static_cast<unsigned long long>(replayed_lsns),
         recovery_ms,
         1000.0 * static_cast<double>(replayed_lsns) /
             (recovery_ms > 0 ? recovery_ms : 1e-9));
  wal_json += "],\"recovery\":{\"ms\":" + benchutil::Fmt(recovery_ms, 3) +
              ",\"lsns_replayed\":" + std::to_string(replayed_lsns) +
              ",\"docs\":" + std::to_string(recovered_docs) + "}}";
  benchutil::BenchJson::Global().SetExtraSection("wal", wal_json);
}

}  // namespace
}  // namespace fsdm

int main() {
  fsdm::benchutil::BenchJson::Global().Init("wal_durability");
  fsdm::Run();
  return 0;
}
