#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "collection/collection.h"
#include "common/rng.h"
#include "json/serializer.h"
#include "oson/oson.h"
#include "rdbms/executor.h"

namespace fsdm {
namespace {

namespace fs = std::filesystem;

using collection::CollectionOptions;
using collection::JsonCollection;

/// Kill-and-recover chaos harness: fork a child that runs a seeded DML
/// storm against a durable collection with wal_fsync = kAlways, reporting
/// every operation over a pipe — one "B" line before it starts, one "A"
/// line after the engine acknowledged it (an insert's carries its row id).
/// The parent SIGKILLs the child at a random point, reopens the WAL
/// directory in-process, and asserts the recovered collection equals the
/// acknowledged state exactly — plus at most the single in-flight
/// operation (begun, never acknowledged: durability of an un-acked op is
/// the allowed direction of the crash ambiguity; losing an acked one is the
/// bug this harness exists to catch) — and that every acknowledged row id
/// still addresses its own key.
///
/// A second generation then reopens the same directory in a new child,
/// checkpoints mid-storm, and deletes and replaces by generation 1's
/// acknowledged row ids; it is killed and recovered the same way.
///
/// Seeds are fixed; the CI matrix pins one per job via FSDM_CHAOS_SEED.
/// On failure the evidence — protocol tail, expected/actual diff, the
/// WAL's RecoveryInfo — is dumped to crash_chaos_report_seed<N>.txt for
/// artifact upload.
///
/// Fork-safety: the harness never routes queries or populates IMC state
/// in the parent before forking (no worker-pool threads), and the ASH
/// sampler is pinned off for the whole binary below.

const bool kAshOff = [] {
  ::setenv("FSDM_ASH_HZ", "0", 1);
  return true;
}();

std::string Canon(const std::string& text) {
  auto img = oson::EncodeFromText(text);
  if (!img.ok()) return "<encode-error>";
  auto node = oson::Decode(img.value());
  if (!node.ok()) return "<decode-error>";
  return json::Serialize(*node.value());
}

std::map<std::string, std::string> Contents(const JsonCollection& coll) {
  std::map<std::string, std::string> out;
  auto rows = rdbms::Collect(coll.Scan().get());
  EXPECT_TRUE(rows.ok()) << rows.status().message();
  if (rows.ok()) {
    for (const rdbms::Row& row : rows.value()) {
      out[row[0].ToDisplayString()] = Canon(row[1].AsString());
    }
  }
  return out;
}

std::string MapToString(const std::map<std::string, std::string>& m) {
  std::string out;
  for (const auto& [k, v] : m) out += "  " + k + " -> " + v + "\n";
  return out.empty() ? "  (empty)\n" : out;
}

/// Where a generation's storm starts: the keys and acknowledged row ids
/// it may use, its first fresh key, and whether it checkpoints mid-storm.
struct StormStart {
  std::map<int64_t, size_t> live;  // key -> row id
  int64_t next_key = 1;
  bool checkpoint = false;
};

/// The child's side: a storm of ops, each framed by B/A protocol lines
/// written unbuffered straight to the pipe. Never returns.
[[noreturn]] void RunStormChild(uint64_t seed, const std::string& wal_dir,
                                size_t shards, StormStart start,
                                int pipe_fd) {
  CollectionOptions options;
  options.wal_dir = wal_dir;
  options.wal_fsync = wal::FsyncPolicy::kAlways;  // ack == durable
  options.shard_count = shards;
  rdbms::Database db;
  auto coll_r = JsonCollection::Create(&db, "STORM", options);
  if (!coll_r.ok()) _exit(2);
  JsonCollection* coll = coll_r.value().get();

  Rng rng(seed);
  int64_t next_key = start.next_key;
  std::map<int64_t, size_t>& live = start.live;
  constexpr int kOps = 400;
  for (int op = 0; op < kOps; ++op) {
    if (start.checkpoint && op == kOps / 4) {
      dprintf(pipe_fd, "B C\n");
      if (!coll->Checkpoint().ok()) _exit(6);
      dprintf(pipe_fd, "A C\n");
    }
    const double roll = rng.NextDouble();
    if (roll < 0.6 || live.size() < 5) {
      const int64_t key = next_key++;
      const std::string doc = "{\"k\":" + std::to_string(key) +
                              ",\"pad\":\"" + rng.AlphaNum(rng.Uniform(24)) +
                              "\"}";
      dprintf(pipe_fd, "B I %lld %s\n", static_cast<long long>(key),
              doc.c_str());
      auto row = coll->Insert(Value::Int64(key), doc);
      if (!row.ok()) _exit(3);
      live[key] = row.value();
      dprintf(pipe_fd, "A I %lld %zu\n", static_cast<long long>(key),
              row.value());
    } else if (roll < 0.8) {
      auto it = live.begin();
      std::advance(it, rng.Uniform(live.size()));
      dprintf(pipe_fd, "B D %lld\n", static_cast<long long>(it->first));
      if (!coll->Delete(it->second).ok()) _exit(4);
      dprintf(pipe_fd, "A D %lld\n", static_cast<long long>(it->first));
      live.erase(it);
    } else {
      auto it = live.begin();
      std::advance(it, rng.Uniform(live.size()));
      const std::string doc = "{\"k\":" + std::to_string(it->first) +
                              ",\"v\":\"" + rng.AlphaNum(rng.Uniform(24)) +
                              "\"}";
      dprintf(pipe_fd, "B R %lld %s\n", static_cast<long long>(it->first),
              doc.c_str());
      if (!coll->Replace(it->second, Value::Int64(it->first), doc).ok()) {
        _exit(5);
      }
      dprintf(pipe_fd, "A R %lld\n", static_cast<long long>(it->first));
    }
  }
  dprintf(pipe_fd, "DONE\n");
  _exit(0);
}

struct ProtocolState {
  /// Acknowledged state: key -> canonical document.
  std::map<std::string, std::string> acked;
  /// Acknowledged row ids of the keys in `acked`.
  std::map<int64_t, size_t> ids;
  /// The one begun-but-unacked op, applied to a copy of `acked`.
  bool has_inflight = false;
  std::map<std::string, std::string> with_inflight;
  /// The in-flight op's key when it is a delete.
  std::optional<int64_t> inflight_delete;
  std::vector<std::string> tail;  // last lines, for the failure report
};

/// Applies one "B" line's op to `state`; returns its kind and key.
std::pair<std::string, std::string> ApplyOp(
    const std::string& begin_line, std::map<std::string, std::string>* state) {
  std::istringstream in(begin_line);
  std::string tag, kind, key;
  in >> tag >> kind >> key;
  if (kind == "D") {
    state->erase(key);
  } else if (kind != "C") {
    std::string doc;
    std::getline(in, doc);
    if (!doc.empty() && doc[0] == ' ') doc.erase(0, 1);
    (*state)[key] = Canon(doc);
  }
  return {kind, key};
}

/// Replays the B/A protocol into the model, starting from the state and
/// row ids `start` left. Every "A" commits the preceding "B"; a trailing
/// "B" without its "A" becomes the in-flight op.
ProtocolState ParseProtocol(const std::vector<std::string>& lines,
                            ProtocolState start) {
  ProtocolState st = std::move(start);
  std::string pending;  // the "B" line awaiting its "A"
  for (const std::string& line : lines) {
    if (line.empty() || line == "DONE") continue;
    if (line[0] == 'B') {
      pending = line;
      continue;
    }
    if (line[0] != 'A' || pending.empty()) continue;
    const auto [kind, key] = ApplyOp(pending, &st.acked);
    if (kind == "I") {
      std::istringstream ack(line);
      std::string tag, ack_kind;
      long long ack_key = 0;
      size_t row = 0;
      ack >> tag >> ack_kind >> ack_key >> row;
      st.ids[ack_key] = row;
    } else if (kind == "D") {
      st.ids.erase(std::stoll(key));
    }
    pending.clear();
  }
  st.with_inflight = st.acked;
  if (!pending.empty()) {
    st.has_inflight = true;
    const auto [kind, key] = ApplyOp(pending, &st.with_inflight);
    if (kind == "D") st.inflight_delete = std::stoll(key);
  }
  const size_t keep = lines.size() < 12 ? 0 : lines.size() - 12;
  for (size_t i = keep; i < lines.size(); ++i) st.tail.push_back(lines[i]);
  if (!pending.empty()) st.tail.push_back("(in-flight) " + pending);
  return st;
}

/// Keys whose acknowledged row id no longer addresses them, one line each.
std::string MisplacedIds(const JsonCollection& coll,
                         const std::map<int64_t, size_t>& ids) {
  std::string out;
  const size_t n = coll.shard_count();
  for (const auto& [key, id] : ids) {
    const collection::Shard& shard = *coll.shard(id % n);
    const rdbms::Table& table = *shard.table();
    const size_t local = id / n;
    if (local >= table.row_count() || !table.IsLive(local) ||
        table.StoredRow(local)[shard.key_pos()].ToDisplayString() !=
            std::to_string(key)) {
      out += "  key " + std::to_string(key) + " row " + std::to_string(id) +
             "\n";
    }
  }
  return out;
}

/// Runs one generation: forks a storm child over `dir`, SIGKILLs it at a
/// seed-derived point, recovers in-process and checks the recovered
/// collection against the acknowledged state `*state` grew into. Leaves
/// in `*state` the recovered state and the row ids the next generation
/// may use.
void RunGeneration(uint64_t seed, int generation, const fs::path& dir,
                   size_t shards, bool checkpoint, ProtocolState* state) {
  const uint64_t later = static_cast<uint64_t>(generation - 1);
  StormStart start;
  start.live = state->ids;
  start.next_key = 1 + 100000 * static_cast<int64_t>(later);
  start.checkpoint = checkpoint;

  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    close(fds[0]);
    RunStormChild(seed + 1000 * later, dir.string(), shards, std::move(start),
                  fds[1]);
  }
  close(fds[1]);

  // Read protocol lines until the kill point — a seed-derived number of
  // lines into the storm — then SIGKILL mid-flight and drain what the
  // child managed to write before dying.
  Rng rng((seed ^ 0xdeadbeefULL) + later);
  const size_t kill_after = 20 + rng.Uniform(600);
  std::vector<std::string> lines;
  std::string buf, chunk(4096, '\0');
  bool killed = false;
  auto split = [&]() {
    size_t nl;
    while ((nl = buf.find('\n')) != std::string::npos) {
      lines.push_back(buf.substr(0, nl));
      buf.erase(0, nl + 1);
    }
  };
  while (true) {
    const ssize_t n = read(fds[0], chunk.data(), chunk.size());
    if (n <= 0) break;  // EOF: the child died (or finished and exited)
    buf.append(chunk.data(), static_cast<size_t>(n));
    split();
    if (!killed && lines.size() >= kill_after) {
      kill(child, SIGKILL);
      killed = true;
    }
  }
  close(fds[0]);
  int wstatus = 0;
  waitpid(child, &wstatus, 0);
  if (!killed) {
    // The storm finished before the kill point; the "crash" is then a
    // SIGKILL-equivalent exit after the last ack. Still a valid case.
    ASSERT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0)
        << "child failed with status " << wstatus;
  }

  ProtocolState& st = *state;
  st = ParseProtocol(lines, std::move(st));

  // Recover in-process.
  CollectionOptions options;
  options.wal_dir = dir.string();
  options.wal_fsync = wal::FsyncPolicy::kOff;  // verification only
  options.shard_count = shards;
  rdbms::Database db;
  auto coll_r = JsonCollection::Create(&db, "RECOVERED", options);
  ASSERT_TRUE(coll_r.ok()) << coll_r.status().message();
  JsonCollection* coll = coll_r.value().get();

  const std::map<std::string, std::string> recovered = Contents(*coll);
  const bool matches_acked = recovered == st.acked;
  const bool matches_inflight =
      st.has_inflight && recovered == st.with_inflight;
  if (!matches_acked && matches_inflight && st.inflight_delete) {
    st.ids.erase(*st.inflight_delete);
  }
  const std::string misplaced = MisplacedIds(*coll, st.ids);
  collection::ConsistencyReport report = coll->CheckConsistency();

  if (!(matches_acked || matches_inflight) || !misplaced.empty() ||
      !report.consistent) {
    // Dump the evidence for the CI artifact before failing.
    const std::string path =
        "crash_chaos_report_seed" + std::to_string(seed) + ".txt";
    std::ofstream out(path);
    out << "crash-chaos seed " << seed << " generation " << generation
        << " shards " << shards << "\n"
        << "protocol lines: " << lines.size() << " (killed: " << killed
        << ", kill_after: " << kill_after << ")\n\nprotocol tail:\n";
    for (const std::string& l : st.tail) out << "  " << l << "\n";
    out << "\nacked state (" << st.acked.size() << " docs):\n"
        << MapToString(st.acked);
    if (st.has_inflight) {
      out << "\nacked + in-flight (" << st.with_inflight.size()
          << " docs):\n"
          << MapToString(st.with_inflight);
    }
    out << "\nrecovered state (" << recovered.size() << " docs):\n"
        << MapToString(recovered) << "\nacknowledged row ids that moved:\n"
        << (misplaced.empty() ? "  (none)\n" : misplaced) << "\nconsistency:\n"
        << report.ToString() << "\nrecovery info:\n"
        << coll->wal()->recovery().ToString();
    FAIL() << "generation " << generation
           << ": recovered state diverges from acknowledged state "
           << "(report written to " << path << ")";
  }
  // The next generation starts from what was recovered: an in-flight op
  // that survived is part of it, under a row id only an insert's ack
  // would have told.
  st.acked = recovered;
  st.has_inflight = false;
  st.inflight_delete.reset();
  st.tail.clear();
}

void RunKillAndRecover(uint64_t seed) {
  SCOPED_TRACE("crash-chaos seed " + std::to_string(seed));
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("fsdm_crash_chaos_" + std::to_string(seed));
  fs::remove_all(dir);
  const size_t shards = 1 + seed % 4;  // vary the stack shape per seed

  ProtocolState state;
  RunGeneration(seed, 1, dir, shards, /*checkpoint=*/false, &state);
  if (::testing::Test::HasFatalFailure()) return;
  RunGeneration(seed, 2, dir, shards, /*checkpoint=*/true, &state);
  if (::testing::Test::HasFatalFailure()) return;
  fs::remove_all(dir);
}

TEST(CrashChaosTest, KilledStormRecoversEveryAcknowledgedOp) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "fork-heavy harness is not TSan-compatible";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  GTEST_SKIP() << "fork-heavy harness is not TSan-compatible";
#endif
#endif
  if (const char* env = std::getenv("FSDM_CHAOS_SEED")) {
    RunKillAndRecover(std::strtoull(env, nullptr, 10));
    return;
  }
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    RunKillAndRecover(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace fsdm
