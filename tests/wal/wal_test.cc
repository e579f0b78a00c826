#include "wal/wal.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "fault/fault.h"
#include "oson/oson.h"

namespace fsdm::wal {
namespace {

namespace fs = std::filesystem;

/// Fresh empty directory per test, removed on teardown.
class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("fsdm_wal_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fault::FaultRegistry::Global().DisarmAll();
  }
  void TearDown() override {
    fault::FaultRegistry::Global().DisarmAll();
    fs::remove_all(dir_);
  }

  WalOptions Options(FsyncPolicy policy = FsyncPolicy::kOff) {
    WalOptions o;
    o.dir = dir_.string();
    o.fsync = policy;
    return o;
  }

  static std::string Oson(const std::string& json) {
    auto r = oson::EncodeFromText(json);
    EXPECT_TRUE(r.ok()) << r.status().message();
    return r.ok() ? r.value() : std::string();
  }

  /// All segment files in the directory, sorted.
  std::vector<fs::path> Segments() const {
    std::vector<fs::path> out;
    for (const auto& e : fs::directory_iterator(dir_)) out.push_back(e.path());
    std::sort(out.begin(), out.end());
    return out;
  }

  fs::path dir_;
};

TEST_F(WalTest, AppendAndReplayRoundTrip) {
  {
    auto opened = Wal::Open(Options()).MoveValue();
    EXPECT_TRUE(opened.replay.empty());
    Wal* w = opened.wal.get();
    ASSERT_TRUE(w->AppendInsert(0, Value::Int64(1), Oson("{\"a\":1}")).ok());
    ASSERT_TRUE(w->AppendReplace(0, 0, Value::Int64(1), Oson("{\"a\":2}")).ok());
    ASSERT_TRUE(w->AppendDelete(0, 0).ok());
    ASSERT_TRUE(w->Flush().ok());
    EXPECT_EQ(w->last_lsn(), 3u);
    EXPECT_EQ(w->durable_lsn(), 3u);
  }
  auto reopened = Wal::Open(Options()).MoveValue();
  ASSERT_EQ(reopened.replay.size(), 3u);
  EXPECT_EQ(reopened.replay[0].type, RecordType::kInsert);
  EXPECT_EQ(reopened.replay[0].lsn, 1u);
  EXPECT_EQ(reopened.replay[0].key.AsInt64(), 1);
  EXPECT_EQ(reopened.replay[0].oson, Oson("{\"a\":1}"));
  EXPECT_EQ(reopened.replay[1].type, RecordType::kReplace);
  EXPECT_EQ(reopened.replay[1].ref_id, 0u);
  EXPECT_EQ(reopened.replay[1].oson, Oson("{\"a\":2}"));
  EXPECT_EQ(reopened.replay[2].type, RecordType::kDelete);
  EXPECT_EQ(reopened.replay[2].ref_id, 0u);
  // The writer continues after the durable prefix.
  EXPECT_FALSE(reopened.wal->failed());
  auto lsn = reopened.wal->AppendDelete(0, 7);
  ASSERT_TRUE(lsn.ok()) << lsn.status().message();
  EXPECT_EQ(lsn.value(), 4u);
}

TEST_F(WalTest, KeyTypesRoundTrip) {
  {
    auto opened = Wal::Open(Options()).MoveValue();
    Wal* w = opened.wal.get();
    const std::string img = Oson("{}");
    ASSERT_TRUE(w->AppendInsert(0, Value::Null(), img).ok());
    ASSERT_TRUE(w->AppendInsert(0, Value::Bool(true), img).ok());
    ASSERT_TRUE(w->AppendInsert(0, Value::Int64(-42), img).ok());
    ASSERT_TRUE(w->AppendInsert(0, Value::Double(2.5), img).ok());
    ASSERT_TRUE(
        w->AppendInsert(0, Value::Dec(Decimal::FromString("12.34").value()),
                        img)
            .ok());
    ASSERT_TRUE(
        w->AppendInsert(0, Value::String(std::string("k\0ey", 4)), img).ok());
    ASSERT_TRUE(w->Flush().ok());
  }
  auto reopened = Wal::Open(Options()).MoveValue();
  ASSERT_EQ(reopened.replay.size(), 6u);
  EXPECT_TRUE(reopened.replay[0].key.is_null());
  EXPECT_EQ(reopened.replay[1].key.AsBool(), true);
  EXPECT_EQ(reopened.replay[2].key.AsInt64(), -42);
  EXPECT_EQ(reopened.replay[3].key.AsDouble(), 2.5);
  EXPECT_EQ(reopened.replay[4].key.AsDecimal().ToString(), "12.34");
  EXPECT_EQ(reopened.replay[5].key.AsString(), std::string("k\0ey", 4));
}

TEST_F(WalTest, RotationKeepsAllRecordsAcrossSegments) {
  WalOptions o = Options();
  o.segment_bytes = 256;  // force frequent rotation
  {
    auto opened = Wal::Open(o).MoveValue();
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(opened.wal
                      ->AppendInsert(0, Value::Int64(i),
                                     Oson("{\"i\":" + std::to_string(i) + "}"))
                      .ok());
    }
    ASSERT_TRUE(opened.wal->Flush().ok());
    EXPECT_GT(opened.wal->segment_count(), 1u);
    EXPECT_GT(opened.wal->rotations(), 0u);
  }
  auto reopened = Wal::Open(o).MoveValue();
  ASSERT_EQ(reopened.replay.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(reopened.replay[i].lsn, static_cast<uint64_t>(i + 1));
    EXPECT_EQ(reopened.replay[i].key.AsInt64(), i);
  }
  EXPECT_GT(reopened.replay.size(), 0u);
  EXPECT_GT(reopened.wal->recovery().segments_scanned, 1u);
}

TEST_F(WalTest, GroupCommitAdvancesDurableLsnInBatches) {
  WalOptions o = Options(FsyncPolicy::kGroup);
  o.group_ops = 4;
  auto opened = Wal::Open(o).MoveValue();
  Wal* w = opened.wal.get();
  const std::string img = Oson("{}");
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(w->AppendInsert(0, Value::Int64(i), img).ok());
  }
  EXPECT_EQ(w->durable_lsn(), 0u) << "no fsync before the group fills";
  ASSERT_TRUE(w->AppendInsert(0, Value::Int64(3), img).ok());
  EXPECT_EQ(w->durable_lsn(), 4u) << "group boundary fsyncs";
  ASSERT_TRUE(w->AppendInsert(0, Value::Int64(4), img).ok());
  EXPECT_EQ(w->durable_lsn(), 4u);
  ASSERT_TRUE(w->Flush().ok());
  EXPECT_EQ(w->durable_lsn(), 5u) << "Flush is the escape hatch";
  EXPECT_GE(w->fsyncs(), 2u);
}

TEST_F(WalTest, AlwaysPolicyFsyncsEveryAppend) {
  auto opened = Wal::Open(Options(FsyncPolicy::kAlways)).MoveValue();
  Wal* w = opened.wal.get();
  ASSERT_TRUE(w->AppendInsert(0, Value::Int64(1), Oson("{}")).ok());
  EXPECT_EQ(w->durable_lsn(), 1u);
  ASSERT_TRUE(w->AppendDelete(0, 0).ok());
  EXPECT_EQ(w->durable_lsn(), 2u);
  EXPECT_GE(w->fsyncs(), 2u);
}

TEST_F(WalTest, TornTailTruncatedByteTruncation) {
  {
    auto opened = Wal::Open(Options()).MoveValue();
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          opened.wal->AppendInsert(0, Value::Int64(i), Oson("{\"x\":1}")).ok());
    }
    ASSERT_TRUE(opened.wal->Flush().ok());
  }
  // Chop 3 bytes off the tail: the last record is now short.
  const fs::path seg = Segments().back();
  const auto size = fs::file_size(seg);
  fs::resize_file(seg, size - 3);

  auto reopened = Wal::Open(Options()).MoveValue();
  EXPECT_EQ(reopened.replay.size(), 4u) << "last record discarded";
  EXPECT_TRUE(reopened.wal->recovery().torn_tail);
  EXPECT_GT(reopened.wal->recovery().torn_bytes, 0u);
  // The repair physically truncated the file: a third open is clean.
  auto again = Wal::Open(Options()).MoveValue();
  EXPECT_EQ(again.replay.size(), 4u);
  EXPECT_FALSE(again.wal->recovery().torn_tail);
}

TEST_F(WalTest, MidRecordCorruptionStopsTheScanThere) {
  {
    auto opened = Wal::Open(Options()).MoveValue();
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          opened.wal->AppendInsert(0, Value::Int64(i), Oson("{\"x\":1}")).ok());
    }
    ASSERT_TRUE(opened.wal->Flush().ok());
  }
  // Flip one byte in the middle of the file: the record containing it
  // fails its CRC and everything after it is discarded too.
  const fs::path seg = Segments().back();
  std::string bytes;
  {
    std::ifstream in(seg, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  bytes[bytes.size() / 2] ^= 0x40;
  {
    std::ofstream out(seg, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto reopened = Wal::Open(Options()).MoveValue();
  EXPECT_LT(reopened.replay.size(), 5u);
  EXPECT_TRUE(reopened.wal->recovery().torn_tail);
  // The surviving prefix is intact and in order.
  for (size_t i = 0; i < reopened.replay.size(); ++i) {
    EXPECT_EQ(reopened.replay[i].lsn, i + 1);
  }
}

TEST_F(WalTest, DuplicatedTailRecordIsCutByLsnMonotonicity) {
  {
    auto opened = Wal::Open(Options()).MoveValue();
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          opened.wal->AppendInsert(0, Value::Int64(i), Oson("{\"x\":1}")).ok());
    }
    ASSERT_TRUE(opened.wal->Flush().ok());
  }
  // Duplicate the last record's bytes at the tail (a rewind-style tear:
  // valid CRC, stale LSN). The duplicate must not replay twice.
  const fs::path seg = Segments().back();
  std::string bytes;
  {
    std::ifstream in(seg, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  // All three records are identical length; the last third of the
  // post-header bytes is the last record.
  const size_t body = bytes.size() - kSegmentHeaderSize;
  ASSERT_EQ(body % 3, 0u);
  std::string last = bytes.substr(bytes.size() - body / 3);
  {
    std::ofstream out(seg, std::ios::binary | std::ios::app);
    out.write(last.data(), static_cast<std::streamsize>(last.size()));
  }
  auto reopened = Wal::Open(Options()).MoveValue();
  EXPECT_EQ(reopened.replay.size(), 3u);
  EXPECT_TRUE(reopened.wal->recovery().torn_tail);
}

TEST_F(WalTest, CheckpointTruncatesOlderSegments) {
  WalOptions o = Options();
  o.segment_bytes = 256;
  auto opened = Wal::Open(o).MoveValue();
  Wal* w = opened.wal.get();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(w->AppendInsert(0, Value::Int64(i), Oson("{\"x\":1}")).ok());
  }
  const size_t before = w->segment_count();
  ASSERT_GT(before, 1u);
  ASSERT_TRUE(w->CheckpointBegin(31, {30}).ok());
  ASSERT_TRUE(
      w->CheckpointDoc(0, 5, Value::Int64(5), Oson("{\"x\":1}")).ok());
  ASSERT_TRUE(w->CheckpointEnd(1).ok());
  EXPECT_EQ(w->segment_count(), 1u) << "only the checkpoint segment survives";
  EXPECT_EQ(w->checkpoints(), 1u);
  EXPECT_EQ(Segments().size(), 1u);

  // Replay starts at the checkpoint.
  auto reopened = Wal::Open(o).MoveValue();
  ASSERT_GE(reopened.replay.size(), 3u);
  EXPECT_EQ(reopened.replay[0].type, RecordType::kCheckpointBegin);
  EXPECT_EQ(reopened.replay[0].next_auto_key, 31u);
  ASSERT_EQ(reopened.replay[0].shard_highwater.size(), 1u);
  EXPECT_EQ(reopened.replay[0].shard_highwater[0], 30u);
  EXPECT_EQ(reopened.replay[1].type, RecordType::kCheckpointDoc);
  EXPECT_EQ(reopened.replay[1].ref_id, 5u);
  EXPECT_EQ(reopened.replay[2].type, RecordType::kCheckpointEnd);
  EXPECT_EQ(reopened.replay[2].ref_id, 1u);
}

TEST_F(WalTest, InterruptedCheckpointLosesNothing) {
  auto opened = Wal::Open(Options()).MoveValue();
  Wal* w = opened.wal.get();
  ASSERT_TRUE(w->AppendInsert(0, Value::Int64(1), Oson("{\"x\":1}")).ok());
  ASSERT_TRUE(w->CheckpointBegin(2, {1}).ok());
  ASSERT_TRUE(w->CheckpointDoc(0, 0, Value::Int64(1), Oson("{\"x\":1}")).ok());
  // No End: the process "crashed" mid-checkpoint. The pre-checkpoint
  // insert segment must still be on disk for replay to fall back to.
  ASSERT_TRUE(w->Flush().ok());
  opened.wal.reset();
  auto reopened = Wal::Open(Options()).MoveValue();
  bool saw_insert = false;
  for (const Record& r : reopened.replay) {
    if (r.type == RecordType::kInsert) saw_insert = true;
    EXPECT_NE(r.type, RecordType::kCheckpointEnd);
  }
  EXPECT_TRUE(saw_insert);
}

TEST_F(WalTest, AbortRecordRoundTrips) {
  {
    auto opened = Wal::Open(Options()).MoveValue();
    auto lsn = opened.wal->AppendInsert(0, Value::Int64(1), Oson("{}"));
    ASSERT_TRUE(lsn.ok());
    opened.wal->AppendAbort(lsn.value());
    EXPECT_EQ(opened.wal->aborts(), 1u);
    ASSERT_TRUE(opened.wal->Flush().ok());
  }
  auto reopened = Wal::Open(Options()).MoveValue();
  ASSERT_EQ(reopened.replay.size(), 2u);
  EXPECT_EQ(reopened.replay[1].type, RecordType::kAbort);
  EXPECT_EQ(reopened.replay[1].ref_id, reopened.replay[0].lsn);
}

TEST_F(WalTest, ShortWriteFaultPoisonsTheWriter) {
  auto opened = Wal::Open(Options()).MoveValue();
  Wal* w = opened.wal.get();
  ASSERT_TRUE(w->AppendInsert(0, Value::Int64(1), Oson("{\"x\":1}")).ok());
  fault::ScopedFault guard("wal.append.short_write", fault::FaultSpec::Once());
  EXPECT_FALSE(w->AppendInsert(0, Value::Int64(2), Oson("{\"x\":2}")).ok());
  EXPECT_TRUE(w->failed());
  // Poisoned: refuses further appends rather than writing after a hole.
  EXPECT_FALSE(w->AppendInsert(0, Value::Int64(3), Oson("{\"x\":3}")).ok());
  EXPECT_FALSE(w->Flush().ok());
  opened.wal.reset();
  // Recovery truncates the half-written record; the first insert survives.
  auto reopened = Wal::Open(Options()).MoveValue();
  ASSERT_EQ(reopened.replay.size(), 1u);
  EXPECT_EQ(reopened.replay[0].key.AsInt64(), 1);
  EXPECT_TRUE(reopened.wal->recovery().torn_tail);
}

TEST_F(WalTest, TornWriteFaultIsSilentUntilRecovery) {
  auto opened = Wal::Open(Options()).MoveValue();
  Wal* w = opened.wal.get();
  ASSERT_TRUE(w->AppendInsert(0, Value::Int64(1), Oson("{\"x\":1}")).ok());
  {
    fault::ScopedFault guard("wal.append.torn_write",
                             fault::FaultSpec::Once());
    // The append SUCCEEDS — the corruption is only visible to recovery.
    ASSERT_TRUE(w->AppendInsert(0, Value::Int64(2), Oson("{\"x\":2}")).ok());
  }
  ASSERT_TRUE(w->AppendInsert(0, Value::Int64(3), Oson("{\"x\":3}")).ok());
  ASSERT_TRUE(w->Flush().ok());
  opened.wal.reset();
  auto reopened = Wal::Open(Options()).MoveValue();
  // The CRC catches the flipped byte; record 2 and everything after fall.
  ASSERT_EQ(reopened.replay.size(), 1u);
  EXPECT_EQ(reopened.replay[0].key.AsInt64(), 1);
  EXPECT_TRUE(reopened.wal->recovery().torn_tail);
}

TEST_F(WalTest, FsyncFaultCarriesErrnoAndPoisons) {
  auto opened = Wal::Open(Options(FsyncPolicy::kAlways)).MoveValue();
  Wal* w = opened.wal.get();
  ASSERT_TRUE(w->AppendInsert(0, Value::Int64(1), Oson("{\"x\":1}")).ok());
  {
    fault::ScopedFault guard("wal.fsync", fault::FaultSpec::Errno(ENOSPC));
    Result<uint64_t> r = w->AppendInsert(0, Value::Int64(2), Oson("{\"x\":2}"));
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("No space left on device"),
              std::string::npos)
        << r.status().message();
  }
  // The failed append was compensated, and the writer poisoned itself:
  // after a failed fsync the kernel may have dropped the dirty pages, so
  // no later "successful" fsync can vouch for them (the fsyncgate rule —
  // see DESIGN.md). Durability resumes only through reopen + replay.
  EXPECT_EQ(w->aborts(), 1u);
  EXPECT_TRUE(w->failed());
  EXPECT_FALSE(w->AppendInsert(0, Value::Int64(3), Oson("{\"x\":3}")).ok());
  opened.wal.reset();
  auto reopened = Wal::Open(Options()).MoveValue();
  // Replay: insert 1, the compensated insert 2, its abort. The post-
  // poisoning append was refused, so nothing after.
  ASSERT_EQ(reopened.replay.size(), 3u);
  EXPECT_EQ(reopened.replay[0].key.AsInt64(), 1);
  EXPECT_EQ(reopened.replay[2].type, RecordType::kAbort);
  EXPECT_EQ(reopened.replay[2].ref_id, reopened.replay[1].lsn);
  EXPECT_FALSE(reopened.wal->failed());
}

TEST_F(WalTest, PolicyAndTypeNames) {
  EXPECT_STREQ(FsyncPolicyName(FsyncPolicy::kAlways), "always");
  EXPECT_STREQ(FsyncPolicyName(FsyncPolicy::kGroup), "group");
  EXPECT_STREQ(FsyncPolicyName(FsyncPolicy::kOff), "off");
  EXPECT_STREQ(RecordTypeName(RecordType::kInsert), "insert");
  EXPECT_STREQ(RecordTypeName(RecordType::kAbort), "abort");
  EXPECT_STREQ(RecordTypeName(RecordType::kCheckpointBegin),
               "checkpoint-begin");
}

TEST_F(WalTest, ForeignFilesAreIgnored) {
  fs::create_directories(dir_);
  std::ofstream(dir_ / "README.txt") << "not a segment";
  std::ofstream(dir_ / "wal-notanumber.walseg") << "junk";
  auto opened = Wal::Open(Options());
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  EXPECT_TRUE(opened.value().replay.empty());
}

}  // namespace
}  // namespace fsdm::wal
