#ifndef FSDM_WAL_WAL_H_
#define FSDM_WAL_WAL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/value.h"

/// Per-collection segmented write-ahead log (ISSUE 8 tentpole). The unit of
/// logging is one DML operation against one shard, with the document
/// payload carried as a self-contained OSON image — the same bytes the
/// hidden OSON virtual column materializes, which makes the log replayable
/// without re-parsing JSON text through collection-specific options.
///
/// On-disk layout (everything little-endian, fixed-width):
///
///   segment file "wal-<seq 8 digits>.walseg":
///     [magic "FSDMWAL1" (8)] [seq u32] [masked CRC32C of bytes 0..11 (4)]
///     record*
///
///   record:
///     [masked CRC32C over length..payload (4)] [payload_len u32]
///     [lsn u64] [type u8] [shard u32] [payload payload_len bytes]
///
/// LSNs are assigned by the writer, strictly increasing across the whole
/// log (all segments). Recovery (Wal::Open on a non-empty directory) scans
/// segments in sequence order and stops at the first bad CRC, short
/// record, or non-monotonic LSN — the *torn-tail rule*: everything before
/// the stop point is the durable prefix, everything at and after it is
/// treated as a clean truncation point (the file is truncated there and
/// later segments unlinked), never as an error. A record is therefore
/// atomic: either its CRC validates and it replays, or it never happened.
///
/// Durability policies (WalOptions::fsync):
///   always — fsync after every append; an acknowledged DML is durable.
///   group  — group commit: fsync once per `group_ops` appends (and on
///            rotation/checkpoint/Flush). A crash may lose the un-synced
///            tail of acknowledged ops, never a synced one.
///   off    — no fsyncs; the OS decides. For benchmarks and tests.
///
/// Checkpointing: CheckpointBegin/Doc/End write a full snapshot of the
/// collection (every live document with its row id, plus the auto-key
/// cursor and per-shard row high-water marks) into a fresh segment, fsync
/// it, and unlink every older segment. Replay then starts at the last
/// *complete* checkpoint; an interrupted checkpoint (no End record) is
/// skipped entirely and replay falls back to the previous one.
///
/// Failure injection (ISSUE 8's robustness headline): the append path
/// carries fault points "wal.append.short_write" (a partial record reaches
/// the file and the writer poisons itself, as a crashed process would),
/// "wal.append.torn_write" (one seeded byte of the record is corrupted but
/// the append *succeeds silently* — recovery must catch it by CRC), and
/// "wal.fsync" (the fsync fails with an injected — typically errno-style —
/// status). The collection layer adds "wal.apply.crash" between append and
/// apply.
///
/// Threading: single-writer, like the DML path it serves. Not thread-safe.

namespace fsdm::wal {

inline constexpr char kSegmentMagic[8] = {'F', 'S', 'D', 'M',
                                          'W', 'A', 'L', '1'};
inline constexpr size_t kSegmentHeaderSize = 16;
inline constexpr size_t kRecordHeaderSize = 4 + 4 + 8 + 1 + 4;
inline constexpr const char* kSegmentSuffix = ".walseg";

/// When acknowledged appends hit the platter. See file comment.
enum class FsyncPolicy : uint8_t { kAlways = 0, kGroup, kOff };

const char* FsyncPolicyName(FsyncPolicy p);

enum class RecordType : uint8_t {
  kInsert = 1,
  kDelete = 2,
  kReplace = 3,
  /// Compensation: the operation logged at `ref_id` (an LSN here) was
  /// appended but failed to apply (observer fan-out, constraint). Replay
  /// must skip the referenced record or recovery would resurrect an
  /// operation the client saw fail.
  kAbort = 4,
  /// Checkpoint framing. Begin carries the auto-key cursor and the
  /// per-shard row high-water marks; one Doc per live document (ref_id =
  /// its global row id); End carries the document count. Only a
  /// Begin..End pair with every Doc in between counts as a checkpoint.
  kCheckpointBegin = 5,
  kCheckpointDoc = 6,
  kCheckpointEnd = 7,
};

const char* RecordTypeName(RecordType t);

/// One decoded log record (the writer's append API takes the fields
/// directly; this is the replay-side representation).
struct Record {
  uint64_t lsn = 0;
  RecordType type = RecordType::kInsert;
  uint32_t shard = 0;
  /// kDelete/kReplace/kCheckpointDoc: global row id. kAbort: the aborted
  /// LSN. kCheckpointEnd: the document count. Unused otherwise.
  uint64_t ref_id = 0;
  /// kInsert/kReplace/kCheckpointDoc: the document key.
  Value key;
  /// kInsert/kReplace/kCheckpointDoc: self-contained OSON image.
  std::string oson;
  /// kCheckpointBegin only.
  uint64_t next_auto_key = 0;
  std::vector<uint64_t> shard_highwater;
};

struct WalOptions {
  std::string dir;
  /// Segment rotation threshold. A record larger than this still goes into
  /// one segment (segments are record-aligned, records never split).
  size_t segment_bytes = 1u << 20;
  FsyncPolicy fsync = FsyncPolicy::kAlways;
  /// kGroup: fsync once per this many appends.
  size_t group_ops = 32;
};

/// What Open() found and repaired; kept by the Wal for TELEMETRY$WAL, the
/// crash-chaos report artifact, and the recovery bench.
struct RecoveryInfo {
  size_t segments_scanned = 0;
  size_t records_scanned = 0;
  /// Filled by the collection layer after replay.
  size_t records_applied = 0;
  size_t aborted_skipped = 0;
  double replay_ms = 0.0;
  uint64_t max_lsn = 0;
  bool torn_tail = false;
  /// Bytes discarded by the torn-tail truncation (including later
  /// segments unlinked whole).
  uint64_t torn_bytes = 0;
  std::vector<std::string> notes;

  std::string ToString() const;
};

class Wal {
 public:
  struct OpenResult {
    std::unique_ptr<Wal> wal;
    /// The durable prefix, in LSN order, for the owner to replay. Empty on
    /// a fresh directory.
    std::vector<Record> replay;
  };

  /// Creates `options.dir` if needed, scans any existing segments
  /// (repairing a torn tail in place), and positions the writer after the
  /// last durable record. IO errors surface as Status::Unavailable;
  /// corruption never fails Open — it truncates, per the torn-tail rule.
  static Result<OpenResult> Open(WalOptions options);

  /// Flushes (best-effort) and closes the segment file.
  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // --- Append (one call per DML, before the engine applies it) ----------
  Result<uint64_t> AppendInsert(uint32_t shard, const Value& key,
                                std::string_view oson);
  Result<uint64_t> AppendDelete(uint32_t shard, uint64_t row_id);
  Result<uint64_t> AppendReplace(uint32_t shard, uint64_t row_id,
                                 const Value& key, std::string_view oson);
  /// Best-effort compensation record (see RecordType::kAbort): never
  /// fails the caller — if the abort itself cannot be made durable the
  /// recovery may redo an unacknowledged op, which is the documented
  /// (safe) direction of the ambiguity.
  void AppendAbort(uint64_t aborted_lsn);

  // --- Checkpoint --------------------------------------------------------
  Status CheckpointBegin(uint64_t next_auto_key,
                         const std::vector<uint64_t>& shard_highwater);
  Status CheckpointDoc(uint32_t shard, uint64_t row_id, const Value& key,
                       std::string_view oson);
  /// Fsyncs the checkpoint and unlinks every segment older than the one
  /// CheckpointBegin started.
  Status CheckpointEnd(uint64_t doc_count);

  /// Fsyncs pending appends regardless of policy (kOff included — Flush is
  /// the explicit escape hatch).
  Status Flush();

  // --- Introspection (TELEMETRY$WAL) -------------------------------------
  const WalOptions& options() const { return options_; }
  uint64_t last_lsn() const { return last_lsn_; }
  /// Highest LSN known to have hit the platter (== last_lsn under kAlways).
  uint64_t durable_lsn() const { return durable_lsn_; }
  size_t segment_count() const { return segments_.size(); }
  uint64_t current_segment_seq() const { return cur_seq_; }
  /// True after an unrecoverable append failure: the log refuses further
  /// appends rather than writing after a hole.
  bool failed() const { return failed_; }
  const RecoveryInfo& recovery() const { return recovery_; }
  RecoveryInfo* mutable_recovery() { return &recovery_; }

  /// In-memory writer state (ISSUE 9 memory attribution): the WAL streams
  /// records straight to the segment fd — it keeps no record buffers — so
  /// this is the writer object and the live segment list. The directory
  /// path and the recovery notes are left out so the figure does not
  /// depend on where the log lives. Small and deterministic.
  uint64_t MemoryBytes() const;

  uint64_t appends() const { return appends_; }
  uint64_t append_bytes() const { return append_bytes_; }
  uint64_t fsyncs() const { return fsyncs_; }
  uint64_t rotations() const { return rotations_; }
  uint64_t checkpoints() const { return checkpoints_; }
  uint64_t aborts() const { return aborts_; }

 private:
  explicit Wal(WalOptions options) : options_(std::move(options)) {}

  std::string SegmentPath(uint64_t seq) const;
  Status OpenSegmentForAppend(uint64_t seq, bool fresh, size_t size);
  Status Rotate();
  Status Fsync();
  Result<uint64_t> AppendRecord(RecordType type, uint32_t shard,
                                std::string payload);

  WalOptions options_;
  int fd_ = -1;
  uint64_t cur_seq_ = 0;
  size_t cur_size_ = 0;
  std::vector<uint64_t> segments_;  // sorted live segment sequence numbers
  uint64_t next_lsn_ = 1;
  uint64_t last_lsn_ = 0;
  uint64_t durable_lsn_ = 0;
  size_t pending_appends_ = 0;  // appended since the last fsync
  uint64_t checkpoint_seq_ = 0;  // segment the open checkpoint started in
  bool in_checkpoint_ = false;
  bool failed_ = false;
  RecoveryInfo recovery_;

  uint64_t appends_ = 0;
  uint64_t append_bytes_ = 0;
  uint64_t fsyncs_ = 0;
  uint64_t rotations_ = 0;
  uint64_t checkpoints_ = 0;
  uint64_t aborts_ = 0;
};

}  // namespace fsdm::wal

#endif  // FSDM_WAL_WAL_H_
