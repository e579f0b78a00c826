#include "wal/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/crc32c.h"
#include "common/decimal.h"
#include "fault/fault.h"
#include "telemetry/activity.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/incident.h"
#include "telemetry/log.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_event.h"

namespace fsdm::wal {

namespace fs = std::filesystem;

const char* FsyncPolicyName(FsyncPolicy p) {
  switch (p) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kGroup:
      return "group";
    case FsyncPolicy::kOff:
      return "off";
  }
  return "unknown";
}

const char* RecordTypeName(RecordType t) {
  switch (t) {
    case RecordType::kInsert:
      return "insert";
    case RecordType::kDelete:
      return "delete";
    case RecordType::kReplace:
      return "replace";
    case RecordType::kAbort:
      return "abort";
    case RecordType::kCheckpointBegin:
      return "checkpoint-begin";
    case RecordType::kCheckpointDoc:
      return "checkpoint-doc";
    case RecordType::kCheckpointEnd:
      return "checkpoint-end";
  }
  return "unknown";
}

std::string RecoveryInfo::ToString() const {
  std::string out = "wal recovery: segments=" + std::to_string(segments_scanned) +
                    " records=" + std::to_string(records_scanned) +
                    " applied=" + std::to_string(records_applied) +
                    " aborted_skipped=" + std::to_string(aborted_skipped) +
                    " max_lsn=" + std::to_string(max_lsn) +
                    " torn_tail=" + (torn_tail ? "yes" : "no") +
                    " torn_bytes=" + std::to_string(torn_bytes) + "\n";
  for (const std::string& n : notes) out += "  - " + n + "\n";
  return out;
}

// --- Little-endian scalar framing --------------------------------------------

namespace {

void PutU8(std::string* b, uint8_t v) { b->push_back(static_cast<char>(v)); }

void PutU32(std::string* b, uint32_t v) {
  char tmp[4];
  std::memcpy(tmp, &v, 4);
  b->append(tmp, 4);
}

void PutU64(std::string* b, uint64_t v) {
  char tmp[8];
  std::memcpy(tmp, &v, 8);
  b->append(tmp, 8);
}

void PutBytes(std::string* b, std::string_view bytes) {
  PutU32(b, static_cast<uint32_t>(bytes.size()));
  b->append(bytes.data(), bytes.size());
}

/// Bounded little-endian reader over one record payload (or header).
/// Every Get* returns false on underflow, which recovery treats as a torn
/// record and corruption fuzz relies on: a decoder must never read past
/// the buffer no matter what the bytes say.
struct Reader {
  const char* p;
  const char* end;

  size_t remaining() const { return static_cast<size_t>(end - p); }
  bool GetU8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = static_cast<uint8_t>(*p++);
    return true;
  }
  bool GetU32(uint32_t* v) {
    if (remaining() < 4) return false;
    std::memcpy(v, p, 4);
    p += 4;
    return true;
  }
  bool GetU64(uint64_t* v) {
    if (remaining() < 8) return false;
    std::memcpy(v, p, 8);
    p += 8;
    return true;
  }
  bool GetBytes(std::string* out) {
    uint32_t n = 0;
    if (!GetU32(&n)) return false;
    if (remaining() < n) return false;
    out->assign(p, n);
    p += n;
    return true;
  }
};

// Key framing: one kind byte + a fixed or length-prefixed body. Only the
// scalar kinds a NUMBER/text key column can actually hold are supported;
// decimals travel as their canonical display string (Decimal::ToString
// round-trips through FromString exactly).
enum KeyKind : uint8_t {
  kKeyNull = 0,
  kKeyBool = 1,
  kKeyInt64 = 2,
  kKeyDouble = 3,
  kKeyDecimal = 4,
  kKeyString = 5,
};

Status EncodeKey(std::string* b, const Value& key) {
  switch (key.type()) {
    case ScalarType::kNull:
      PutU8(b, kKeyNull);
      return Status::Ok();
    case ScalarType::kBool:
      PutU8(b, kKeyBool);
      PutU8(b, key.AsBool() ? 1 : 0);
      return Status::Ok();
    case ScalarType::kInt64: {
      PutU8(b, kKeyInt64);
      PutU64(b, static_cast<uint64_t>(key.AsInt64()));
      return Status::Ok();
    }
    case ScalarType::kDouble: {
      PutU8(b, kKeyDouble);
      uint64_t bits = 0;
      const double d = key.AsDouble();
      std::memcpy(&bits, &d, 8);
      PutU64(b, bits);
      return Status::Ok();
    }
    case ScalarType::kDecimal:
      PutU8(b, kKeyDecimal);
      PutBytes(b, key.AsDecimal().ToString());
      return Status::Ok();
    case ScalarType::kString:
      PutU8(b, kKeyString);
      PutBytes(b, key.AsString());
      return Status::Ok();
    default:
      return Status::Unsupported("WAL cannot frame key of this type: " +
                                 key.ToDisplayString());
  }
}

bool DecodeKey(Reader* r, Value* out) {
  uint8_t kind = 0;
  if (!r->GetU8(&kind)) return false;
  switch (kind) {
    case kKeyNull:
      *out = Value::Null();
      return true;
    case kKeyBool: {
      uint8_t v = 0;
      if (!r->GetU8(&v)) return false;
      *out = Value::Bool(v != 0);
      return true;
    }
    case kKeyInt64: {
      uint64_t v = 0;
      if (!r->GetU64(&v)) return false;
      *out = Value::Int64(static_cast<int64_t>(v));
      return true;
    }
    case kKeyDouble: {
      uint64_t bits = 0;
      if (!r->GetU64(&bits)) return false;
      double d = 0;
      std::memcpy(&d, &bits, 8);
      *out = Value::Double(d);
      return true;
    }
    case kKeyDecimal: {
      std::string text;
      if (!r->GetBytes(&text)) return false;
      Result<Decimal> dec = Decimal::FromString(text);
      if (!dec.ok()) return false;
      *out = Value::Dec(std::move(dec).value());
      return true;
    }
    case kKeyString: {
      std::string text;
      if (!r->GetBytes(&text)) return false;
      *out = Value::String(std::move(text));
      return true;
    }
    default:
      return false;
  }
}

Status ErrnoStatus(const std::string& what, int err) {
  return Status::Unavailable(what + ": " + std::strerror(err));
}

/// One record as it goes to disk: header, payload, and the masked CRC32C
/// over everything after the CRC field.
std::string FrameRecord(uint64_t lsn, RecordType type, uint32_t shard,
                        std::string_view payload) {
  std::string buf;
  buf.reserve(kRecordHeaderSize + payload.size());
  PutU32(&buf, 0);  // CRC placeholder
  PutU32(&buf, static_cast<uint32_t>(payload.size()));
  PutU64(&buf, lsn);
  PutU8(&buf, static_cast<uint8_t>(type));
  PutU32(&buf, shard);
  buf += payload;
  const uint32_t crc = Crc32cMask(Crc32c(buf.data() + 4, buf.size() - 4));
  std::memcpy(buf.data(), &crc, 4);
  return buf;
}

/// Parses one payload into `rec` (type/lsn/shard already filled from the
/// header). False = malformed, which the scanner treats as a tear.
bool DecodePayload(std::string_view payload, Record* rec) {
  Reader r{payload.data(), payload.data() + payload.size()};
  switch (rec->type) {
    case RecordType::kInsert:
      if (!DecodeKey(&r, &rec->key)) return false;
      if (!r.GetBytes(&rec->oson)) return false;
      break;
    case RecordType::kDelete:
      if (!r.GetU64(&rec->ref_id)) return false;
      break;
    case RecordType::kReplace:
      if (!r.GetU64(&rec->ref_id)) return false;
      if (!DecodeKey(&r, &rec->key)) return false;
      if (!r.GetBytes(&rec->oson)) return false;
      break;
    case RecordType::kAbort:
      if (!r.GetU64(&rec->ref_id)) return false;
      break;
    case RecordType::kCheckpointBegin: {
      if (!r.GetU64(&rec->next_auto_key)) return false;
      uint32_t shard_count = 0;
      if (!r.GetU32(&shard_count)) return false;
      if (shard_count > 1u << 16) return false;  // sanity bound
      rec->shard_highwater.resize(shard_count);
      for (uint32_t i = 0; i < shard_count; ++i) {
        if (!r.GetU64(&rec->shard_highwater[i])) return false;
      }
      break;
    }
    case RecordType::kCheckpointDoc:
      if (!r.GetU64(&rec->ref_id)) return false;
      if (!DecodeKey(&r, &rec->key)) return false;
      if (!r.GetBytes(&rec->oson)) return false;
      break;
    case RecordType::kCheckpointEnd:
      if (!r.GetU64(&rec->ref_id)) return false;
      break;
    default:
      return false;
  }
  return r.remaining() == 0;
}

/// Upper bound on a single record's payload — anything larger in a length
/// field is treated as corruption, so a flipped bit in the length can
/// never make the scanner allocate gigabytes.
constexpr uint32_t kMaxPayload = 256u << 20;

/// Scans the segment file `path` (sequence number `seq`), appending its
/// records to `out` and counting them in `info`. Returns "" when the
/// whole segment is intact. Otherwise returns the note on why the
/// torn-tail rule stops the scan, with `*off` at the first byte to
/// discard (0 when the file or its header is unusable).
std::string ScanSegment(const std::string& path, uint64_t seq,
                        uint64_t* prev_lsn, size_t* off,
                        std::vector<Record>* out, RecoveryInfo* info) {
  *off = 0;
  std::string contents;
  {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      return "cannot read segment " + path + ": " + std::strerror(errno);
    }
    char buf[1 << 16];
    ssize_t n = 0;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
      contents.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
  }
  ++info->segments_scanned;
  auto tear = [&](const std::string& what) {
    return "segment " + path + ": " + what;
  };

  // Segment header.
  if (contents.size() < kSegmentHeaderSize ||
      std::memcmp(contents.data(), kSegmentMagic, 8) != 0) {
    return tear("bad header");
  }
  uint32_t hdr_seq = 0;
  uint32_t hdr_crc = 0;
  std::memcpy(&hdr_seq, contents.data() + 8, 4);
  std::memcpy(&hdr_crc, contents.data() + 12, 4);
  if (hdr_seq != seq || Crc32cUnmask(hdr_crc) != Crc32c(contents.data(), 12)) {
    return tear("header CRC/seq mismatch");
  }

  for (*off = kSegmentHeaderSize; *off < contents.size();) {
    const size_t left = contents.size() - *off;
    if (left < kRecordHeaderSize) {
      return tear("short record header at " + std::to_string(*off));
    }
    const char* hdr = contents.data() + *off;
    uint32_t crc = 0;
    uint32_t len = 0;
    uint64_t lsn = 0;
    uint8_t type = 0;
    uint32_t shard = 0;
    std::memcpy(&crc, hdr, 4);
    std::memcpy(&len, hdr + 4, 4);
    std::memcpy(&lsn, hdr + 8, 8);
    std::memcpy(&type, hdr + 16, 1);
    std::memcpy(&shard, hdr + 17, 4);
    if (len > kMaxPayload || left - kRecordHeaderSize < len) {
      return tear("truncated record at " + std::to_string(*off));
    }
    if (Crc32cUnmask(crc) != Crc32c(hdr + 4, kRecordHeaderSize - 4 + len)) {
      return tear("CRC mismatch at " + std::to_string(*off));
    }
    if (lsn <= *prev_lsn) {
      // A duplicated tail (a copied block re-appearing later in the log)
      // shows up as an LSN that goes backwards; the prefix up to here is
      // intact, everything after is discarded.
      return tear("non-monotonic LSN " + std::to_string(lsn) + " at " +
                  std::to_string(*off));
    }
    Record rec;
    rec.lsn = lsn;
    rec.type = static_cast<RecordType>(type);
    rec.shard = shard;
    if (!DecodePayload({hdr + kRecordHeaderSize, len}, &rec)) {
      return tear("malformed payload at " + std::to_string(*off));
    }
    *prev_lsn = lsn;
    ++info->records_scanned;
    out->push_back(std::move(rec));
    *off += kRecordHeaderSize + len;
  }
  return "";
}

}  // namespace

// --- Open / recovery scan ----------------------------------------------------

std::string Wal::SegmentPath(uint64_t seq) const {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%08llu",
                static_cast<unsigned long long>(seq));
  return options_.dir + "/" + name + kSegmentSuffix;
}

Result<Wal::OpenResult> Wal::Open(WalOptions options) {
  FSDM_TRACE_SPAN(span, "wal", "wal.open");
  if (options.dir.empty()) {
    return Status::InvalidArgument("WalOptions::dir is empty");
  }
  if (options.segment_bytes < kSegmentHeaderSize + kRecordHeaderSize) {
    return Status::InvalidArgument("WalOptions::segment_bytes too small");
  }
  if (options.group_ops == 0) options.group_ops = 1;

  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    return Status::Unavailable("cannot create WAL dir " + options.dir + ": " +
                               ec.message());
  }

  std::unique_ptr<Wal> wal(new Wal(std::move(options)));
  OpenResult result;

  // Enumerate segments: "wal-<seq>.walseg", scanned in sequence order.
  std::vector<uint64_t> seqs;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(wal->options_.dir, ec)) {
    const std::string fname = entry.path().filename().string();
    if (fname.size() <= 4 + std::strlen(kSegmentSuffix)) continue;
    if (fname.rfind("wal-", 0) != 0) continue;
    if (fname.size() < std::strlen(kSegmentSuffix) ||
        fname.substr(fname.size() - std::strlen(kSegmentSuffix)) !=
            kSegmentSuffix) {
      continue;
    }
    const std::string digits =
        fname.substr(4, fname.size() - 4 - std::strlen(kSegmentSuffix));
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    seqs.push_back(std::strtoull(digits.c_str(), nullptr, 10));
  }
  std::sort(seqs.begin(), seqs.end());

  RecoveryInfo& info = wal->recovery_;
  uint64_t prev_lsn = 0;
  // Tear bookkeeping: index into `seqs` of the segment the scan stopped
  // in, and the byte offset of the first bad record there.
  size_t tear_seg = seqs.size();
  size_t tear_offset = 0;

  for (size_t si = 0; si < seqs.size(); ++si) {
    size_t off = 0;
    std::string note = ScanSegment(wal->SegmentPath(seqs[si]), seqs[si],
                                   &prev_lsn, &off, &result.replay, &info);
    if (!note.empty()) {
      info.notes.push_back(std::move(note));
      tear_seg = si;
      tear_offset = off;
      break;
    }
  }

  // Torn-tail repair: truncate the segment the scan stopped in at the
  // stop offset (drop it entirely when even the header was bad) and
  // unlink every later segment, so the next generation of appends never
  // lands after garbage.
  if (tear_seg < seqs.size()) {
    info.torn_tail = true;
    FSDM_COUNT("fsdm_wal_torn_tails_total", 1);
    for (size_t si = tear_seg; si < seqs.size(); ++si) {
      const std::string path = wal->SegmentPath(seqs[si]);
      std::error_code size_ec;
      const uint64_t file_size = fs::file_size(path, size_ec);
      if (si == tear_seg && tear_offset >= kSegmentHeaderSize) {
        if (!size_ec && file_size > tear_offset) {
          info.torn_bytes += file_size - tear_offset;
        }
        if (::truncate(path.c_str(), static_cast<off_t>(tear_offset)) != 0) {
          return ErrnoStatus("cannot repair torn WAL segment " + path, errno);
        }
      } else {
        if (!size_ec) info.torn_bytes += file_size;
        std::error_code rm_ec;
        fs::remove(path, rm_ec);
        if (rm_ec) {
          return Status::Unavailable("cannot unlink torn WAL segment " +
                                     path + ": " + rm_ec.message());
        }
      }
    }
    seqs.resize(tear_offset >= kSegmentHeaderSize ? tear_seg + 1 : tear_seg);
    const std::string why =
        info.notes.empty() ? std::string("torn tail") : info.notes.back();
    FSDM_LOG(telemetry::LogLevel::kWarn, "wal", 2002,
             "torn tail repaired: " + why,
             telemetry::LogNum("torn_bytes",
                               static_cast<double>(info.torn_bytes)),
             telemetry::LogNum("records_kept",
                               static_cast<double>(info.records_scanned)));
    telemetry::IncidentManager::Global().Raise("torn-tail",
                                               wal->options_.dir, why);
  }
  info.max_lsn = prev_lsn;
  if (info.records_scanned > 0) FSDM_COUNT("fsdm_wal_recoveries_total", 1);
  FSDM_COUNT("fsdm_wal_recovered_records_total", info.records_scanned);

  wal->segments_ = seqs;
  wal->next_lsn_ = prev_lsn + 1;
  wal->last_lsn_ = prev_lsn;
  wal->durable_lsn_ = prev_lsn;

  // Position the writer: continue the last surviving segment if it still
  // has room, else start a fresh one.
  if (!seqs.empty()) {
    const std::string path = wal->SegmentPath(seqs.back());
    std::error_code size_ec;
    const uint64_t size = fs::file_size(path, size_ec);
    if (size_ec) {
      return Status::Unavailable("cannot stat WAL segment " + path + ": " +
                                 size_ec.message());
    }
    if (size + kRecordHeaderSize <= wal->options_.segment_bytes) {
      FSDM_RETURN_NOT_OK(wal->OpenSegmentForAppend(
          seqs.back(), /*fresh=*/false, static_cast<size_t>(size)));
    } else {
      FSDM_RETURN_NOT_OK(
          wal->OpenSegmentForAppend(seqs.back() + 1, /*fresh=*/true, 0));
    }
  } else {
    FSDM_RETURN_NOT_OK(wal->OpenSegmentForAppend(1, /*fresh=*/true, 0));
  }

  FSDM_LOG(telemetry::LogLevel::kInfo, "wal", 2001,
           "WAL opened: " + wal->options_.dir,
           telemetry::LogNum("segments",
                             static_cast<double>(wal->segments_.size())),
           telemetry::LogNum("recovered_records",
                             static_cast<double>(info.records_scanned)));
  result.wal = std::move(wal);
  return result;
}

Status Wal::OpenSegmentForAppend(uint64_t seq, bool fresh, size_t size) {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  const std::string path = SegmentPath(seq);
  const int flags = O_WRONLY | O_CREAT | O_APPEND | (fresh ? O_TRUNC : 0);
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) return ErrnoStatus("cannot open WAL segment " + path, errno);
  fd_ = fd;
  cur_seq_ = seq;
  cur_size_ = size;
  if (fresh) {
    std::string header;
    header.append(kSegmentMagic, 8);
    PutU32(&header, static_cast<uint32_t>(seq));
    PutU32(&header, Crc32cMask(Crc32c(header.data(), header.size())));
    const ssize_t n = ::write(fd_, header.data(), header.size());
    if (n != static_cast<ssize_t>(header.size())) {
      return ErrnoStatus("cannot write WAL segment header " + path,
                         n < 0 ? errno : EIO);
    }
    cur_size_ = header.size();
    segments_.push_back(seq);
  }
  return Status::Ok();
}

Wal::~Wal() {
  if (fd_ >= 0) {
    if (pending_appends_ > 0) (void)::fsync(fd_);
    ::close(fd_);
  }
}

// --- Append path -------------------------------------------------------------

Status Wal::Fsync() {
  FSDM_TRACE_SPAN(span, "wal", "wal.fsync");
  FSDM_TIME_SCOPE_US("fsdm_wal_fsync_us");
  telemetry::ScopedWaitState wait(telemetry::WaitState::kWalFsync);
  Status st = FSDM_FAULT_STATUS("wal.fsync");
  if (st.ok() && ::fsync(fd_) != 0) {
    st = ErrnoStatus("WAL fsync failed", errno);
  }
  if (!st.ok()) {
    FSDM_COUNT("fsdm_wal_fsync_failures_total", 1);
    FSDM_LOG(telemetry::LogLevel::kError, "wal", 2005,
             "WAL fsync failed: " + st.message());
    return st;
  }
  ++fsyncs_;
  FSDM_COUNT("fsdm_wal_fsyncs_total", 1);
  durable_lsn_ = last_lsn_;
  pending_appends_ = 0;
  return Status::Ok();
}

Status Wal::Rotate() {
  FSDM_TRACE_SPAN(span, "wal", "wal.rotate");
  // A completed segment is sealed with an fsync (even under kGroup): once
  // the writer moves on, the old segment's bytes never change again, so
  // making them durable here keeps "torn tail" confined to the newest
  // segment.
  if (options_.fsync != FsyncPolicy::kOff && pending_appends_ > 0) {
    FSDM_RETURN_NOT_OK(Fsync());
  }
  FSDM_RETURN_NOT_OK(OpenSegmentForAppend(cur_seq_ + 1, /*fresh=*/true, 0));
  ++rotations_;
  FSDM_COUNT("fsdm_wal_segments_rotated_total", 1);
  FSDM_LOG(telemetry::LogLevel::kInfo, "wal", 2003,
           "WAL segment rotated: " + options_.dir,
           telemetry::LogNum("segment", static_cast<double>(cur_seq_)),
           telemetry::LogNum("segments",
                             static_cast<double>(segments_.size())));
  return Status::Ok();
}

Result<uint64_t> Wal::AppendRecord(RecordType type, uint32_t shard,
                                   std::string payload) {
  if (fd_ < 0 || failed_) {
    return Status::Unavailable(
        "WAL is poisoned by an earlier append failure; reopen to recover");
  }
  const uint64_t lsn = next_lsn_;
  std::string buf = FrameRecord(lsn, type, shard, payload);

  if (cur_size_ + buf.size() > options_.segment_bytes &&
      cur_size_ > kSegmentHeaderSize && !in_checkpoint_) {
    FSDM_RETURN_NOT_OK(Rotate());
  }

  // Injected short write: a prefix of the record reaches the file and the
  // writer refuses further work — the on-disk state is exactly what a
  // crash mid-write leaves behind, and recovery must truncate it away.
  Status short_write = FSDM_FAULT_STATUS("wal.append.short_write");
  if (!short_write.ok()) {
    (void)!::write(fd_, buf.data(), buf.size() / 2);
    cur_size_ += buf.size() / 2;
    failed_ = true;
    FSDM_COUNT("fsdm_wal_short_writes_total", 1);
    FSDM_LOG(telemetry::LogLevel::kError, "wal", 2007,
             "WAL poisoned by short write: " + short_write.message(),
             telemetry::LogNum("lsn", static_cast<double>(lsn)));
    telemetry::IncidentManager::Global().Raise(
        "wal-poisoned", options_.dir,
        "short append write: " + short_write.message());
    return short_write;
  }

  // Injected torn write: one seeded byte of the record is flipped but the
  // append *succeeds silently* — the client gets an ack for a record the
  // CRC will reject at recovery. This is the silent-corruption case the
  // fuzz suite drives; nothing in the process notices until reopen.
  Status torn = FSDM_FAULT_STATUS("wal.append.torn_write");
  if (!torn.ok()) {
    buf[lsn % buf.size()] = static_cast<char>(buf[lsn % buf.size()] ^ 0x40);
    FSDM_COUNT("fsdm_wal_torn_writes_total", 1);
  }

  const ssize_t n = ::write(fd_, buf.data(), buf.size());
  if (n != static_cast<ssize_t>(buf.size())) {
    const int err = n < 0 ? errno : EIO;
    // Claw the partial record back; if even that fails the log has a hole
    // and the writer poisons itself.
    if (n > 0 &&
        ::ftruncate(fd_, static_cast<off_t>(cur_size_)) != 0) {
      failed_ = true;
      FSDM_LOG(telemetry::LogLevel::kError, "wal", 2006,
               "WAL poisoned: partial append could not be repaired",
               telemetry::LogNum("lsn", static_cast<double>(lsn)));
      telemetry::IncidentManager::Global().Raise(
          "wal-poisoned", options_.dir,
          "partial append write could not be truncated away");
    }
    return ErrnoStatus("WAL append failed", err);
  }
  cur_size_ += buf.size();
  next_lsn_ = lsn + 1;
  last_lsn_ = lsn;
  ++pending_appends_;
  ++appends_;
  append_bytes_ += buf.size();
  FSDM_COUNT("fsdm_wal_appends_total", 1);
  FSDM_COUNT("fsdm_wal_append_bytes_total", buf.size());

  const bool group_due = options_.fsync == FsyncPolicy::kGroup &&
                         pending_appends_ >= options_.group_ops;
  if (options_.fsync == FsyncPolicy::kAlways || group_due) {
    Status synced = Fsync();
    if (!synced.ok()) {
      // The record is written but not durable; compensate so replay skips
      // the op the caller is about to see fail. Best-effort: if the abort
      // cannot be written either, recovery may redo an unacknowledged op
      // — the safe direction. Then the writer poisons itself: after a
      // failed fsync the kernel may have dropped the dirty pages, so
      // acking any LATER append would claim durability this file can no
      // longer promise (the DESIGN.md fsync-gate rule). Reopen to
      // recover.
      AppendAbort(lsn);
      failed_ = true;
      FSDM_LOG(telemetry::LogLevel::kError, "wal", 2008,
               "WAL poisoned by fsync failure: " + synced.message(),
               telemetry::LogNum("lsn", static_cast<double>(lsn)));
      telemetry::IncidentManager::Global().Raise(
          "wal-poisoned", options_.dir,
          "fsync failure: " + synced.message());
      return synced;
    }
  }
  return lsn;
}

Result<uint64_t> Wal::AppendInsert(uint32_t shard, const Value& key,
                                   std::string_view oson) {
  FSDM_TRACE_SPAN(span, "wal", "wal.append");
  std::string payload;
  payload.reserve(1 + 8 + 4 + oson.size());
  FSDM_RETURN_NOT_OK(EncodeKey(&payload, key));
  PutBytes(&payload, oson);
  return AppendRecord(RecordType::kInsert, shard, std::move(payload));
}

Result<uint64_t> Wal::AppendDelete(uint32_t shard, uint64_t row_id) {
  FSDM_TRACE_SPAN(span, "wal", "wal.append");
  std::string payload;
  PutU64(&payload, row_id);
  return AppendRecord(RecordType::kDelete, shard, std::move(payload));
}

Result<uint64_t> Wal::AppendReplace(uint32_t shard, uint64_t row_id,
                                    const Value& key, std::string_view oson) {
  FSDM_TRACE_SPAN(span, "wal", "wal.append");
  std::string payload;
  payload.reserve(8 + 1 + 8 + 4 + oson.size());
  PutU64(&payload, row_id);
  FSDM_RETURN_NOT_OK(EncodeKey(&payload, key));
  PutBytes(&payload, oson);
  return AppendRecord(RecordType::kReplace, shard, std::move(payload));
}

void Wal::AppendAbort(uint64_t aborted_lsn) {
  if (fd_ < 0 || failed_) return;
  std::string payload;
  PutU64(&payload, aborted_lsn);
  // Bypass AppendRecord's policy fsync: the abort is an opportunistic
  // marker, and an fsync failure in the failure path must not recurse.
  const uint64_t lsn = next_lsn_;
  const std::string buf = FrameRecord(lsn, RecordType::kAbort, 0, payload);
  const ssize_t n = ::write(fd_, buf.data(), buf.size());
  if (n != static_cast<ssize_t>(buf.size())) {
    if (n > 0) (void)::ftruncate(fd_, static_cast<off_t>(cur_size_));
    return;
  }
  cur_size_ += buf.size();
  next_lsn_ = lsn + 1;
  last_lsn_ = lsn;
  ++pending_appends_;
  ++aborts_;
  FSDM_COUNT("fsdm_wal_aborts_total", 1);
  if (options_.fsync != FsyncPolicy::kOff) {
    if (Fsync().ok()) durable_lsn_ = lsn;
  }
}

uint64_t Wal::MemoryBytes() const {
  return sizeof(Wal) + segments_.size() * sizeof(uint64_t);
}

Status Wal::Flush() {
  if (fd_ < 0) return Status::Unavailable("WAL is closed");
  if (failed_) {
    return Status::Unavailable("WAL is poisoned by an earlier append failure");
  }
  if (pending_appends_ == 0) return Status::Ok();
  return Fsync();
}

// --- Checkpoint --------------------------------------------------------------

Status Wal::CheckpointBegin(uint64_t next_auto_key,
                            const std::vector<uint64_t>& shard_highwater) {
  FSDM_TRACE_SPAN(span, "wal", "wal.checkpoint");
  if (in_checkpoint_) {
    return Status::InvalidArgument("checkpoint already in progress");
  }
  // The checkpoint gets its own fresh segment so CheckpointEnd can unlink
  // everything older wholesale.
  if (pending_appends_ > 0 && options_.fsync != FsyncPolicy::kOff) {
    FSDM_RETURN_NOT_OK(Fsync());
  }
  if (cur_size_ > kSegmentHeaderSize) {
    FSDM_RETURN_NOT_OK(OpenSegmentForAppend(cur_seq_ + 1, /*fresh=*/true, 0));
    ++rotations_;
  }
  in_checkpoint_ = true;
  checkpoint_seq_ = cur_seq_;
  std::string payload;
  PutU64(&payload, next_auto_key);
  PutU32(&payload, static_cast<uint32_t>(shard_highwater.size()));
  for (uint64_t hw : shard_highwater) PutU64(&payload, hw);
  Status appended =
      AppendRecord(RecordType::kCheckpointBegin, 0, std::move(payload))
          .status();
  if (!appended.ok()) in_checkpoint_ = false;
  return appended;
}

Status Wal::CheckpointDoc(uint32_t shard, uint64_t row_id, const Value& key,
                          std::string_view oson) {
  if (!in_checkpoint_) {
    return Status::InvalidArgument("CheckpointDoc outside a checkpoint");
  }
  std::string payload;
  payload.reserve(8 + 1 + 8 + 4 + oson.size());
  PutU64(&payload, row_id);
  Status encoded = EncodeKey(&payload, key);
  if (!encoded.ok()) {
    in_checkpoint_ = false;
    return encoded;
  }
  PutBytes(&payload, oson);
  Status appended =
      AppendRecord(RecordType::kCheckpointDoc, shard, std::move(payload))
          .status();
  if (!appended.ok()) in_checkpoint_ = false;
  return appended;
}

Status Wal::CheckpointEnd(uint64_t doc_count) {
  FSDM_TRACE_SPAN(span, "wal", "wal.checkpoint");
  if (!in_checkpoint_) {
    return Status::InvalidArgument("CheckpointEnd outside a checkpoint");
  }
  std::string payload;
  PutU64(&payload, doc_count);
  // The flag clears only AFTER the End record is in: rotation stays
  // suppressed for the append itself, so Begin..End can never straddle a
  // segment boundary (replay would otherwise see an End whose Begin was
  // unlinked).
  Result<uint64_t> appended =
      AppendRecord(RecordType::kCheckpointEnd, 0, std::move(payload));
  in_checkpoint_ = false;
  FSDM_RETURN_NOT_OK(appended.status());
  // The checkpoint must be durable BEFORE the history it replaces is
  // unlinked, or a crash in between would leave neither.
  if (pending_appends_ > 0) FSDM_RETURN_NOT_OK(Fsync());
  std::vector<uint64_t> keep;
  for (uint64_t seq : segments_) {
    if (seq >= checkpoint_seq_) {
      keep.push_back(seq);
      continue;
    }
    std::error_code ec;
    std::filesystem::remove(SegmentPath(seq), ec);
    if (ec) {
      return Status::Unavailable("cannot unlink WAL segment " +
                                 SegmentPath(seq) + ": " + ec.message());
    }
  }
  segments_ = std::move(keep);
  ++checkpoints_;
  FSDM_COUNT("fsdm_wal_checkpoints_total", 1);
  FSDM_LOG(telemetry::LogLevel::kInfo, "wal", 2004,
           "WAL checkpoint complete: " + options_.dir,
           telemetry::LogNum("docs", static_cast<double>(doc_count)),
           telemetry::LogNum("segments",
                             static_cast<double>(segments_.size())));
  return Status::Ok();
}

}  // namespace fsdm::wal
