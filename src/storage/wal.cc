#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/byte_codec.h"
#include "common/failpoint.h"
#include "common/telemetry.h"

namespace hd {

namespace {

constexpr uint32_t kSegmentMagic = 0x4844574cu;  // "HDWL"
constexpr uint32_t kSegmentVersion = 1;
constexpr uint32_t kMaxRecordBytes = 64u << 20;  // frame sanity bound

struct WalStats {
  TCounter* appends = Telemetry::Instance().Counter("wal.appends");
  TCounter* bytes = Telemetry::Instance().Counter("wal.bytes");
  TCounter* fsyncs = Telemetry::Instance().Counter("wal.fsyncs");
  THistogram* group_size = Telemetry::Instance().Histogram("wal.group_size");
  THistogram* flush_wait_ns =
      Telemetry::Instance().Histogram("wal.flush_wait_ns");
};

WalStats& Stats() {
  static WalStats s;
  return s;
}

void PutRow(std::vector<uint8_t>* out, const WalRow& row) {
  PutU32(out, static_cast<uint32_t>(row.size()));
  for (const WalValue& v : row) {
    PutU8(out, static_cast<uint8_t>(v.tag));
    switch (v.tag) {
      case WalValue::Tag::kPacked: PutI64(out, v.packed); break;
      case WalValue::Tag::kString: PutString(out, v.str); break;
      case WalValue::Tag::kNull: break;
    }
  }
}

bool GetRow(ByteCursor* c, WalRow* out) {
  const uint32_t n = c->U32();
  if (!c->ok || n > (16u << 20)) return c->ok = false, false;
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n && c->ok; ++i) {
    WalValue v;
    v.tag = static_cast<WalValue::Tag>(c->U8());
    switch (v.tag) {
      case WalValue::Tag::kPacked: v.packed = c->I64(); break;
      case WalValue::Tag::kString: v.str = c->Str(); break;
      case WalValue::Tag::kNull: break;
      default: return c->ok = false, false;
    }
    out->push_back(std::move(v));
  }
  return c->ok;
}

const uint32_t* Crc32Table() {
  static uint32_t table[256];
  static bool init = [] {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return true;
  }();
  (void)init;
  return table;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

uint32_t WalCrc32(const uint8_t* data, size_t n) {
  const uint32_t* table = Crc32Table();
  uint32_t c = 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    c = table[(c ^ data[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

const char* DurabilityModeName(DurabilityMode m) {
  switch (m) {
    case DurabilityMode::kOff: return "off";
    case DurabilityMode::kCommit: return "commit";
    case DurabilityMode::kGroup: return "group";
  }
  return "?";
}

bool ParseDurabilityMode(const std::string& s, DurabilityMode* out) {
  if (s == "off") *out = DurabilityMode::kOff;
  else if (s == "commit") *out = DurabilityMode::kCommit;
  else if (s == "group") *out = DurabilityMode::kGroup;
  else return false;
  return true;
}

// ---------------------------------------------------------------------
// Record encode / decode.
// ---------------------------------------------------------------------

void WalRecord::EncodeBody(std::vector<uint8_t>* out) const {
  PutU64(out, lsn);
  PutU8(out, static_cast<uint8_t>(type));
  PutU64(out, txn);
  PutU32(out, table_id);
  switch (type) {
    case WalRecordType::kTxnCommit:
    case WalRecordType::kTxnAbort:
      break;
    case WalRecordType::kInsert:
      PutI64(out, rid);
      PutRow(out, new_row);
      break;
    case WalRecordType::kUpdate:
      PutI64(out, rid);
      PutRow(out, old_row);
      PutRow(out, new_row);
      break;
    case WalRecordType::kDelete:
      PutI64(out, rid);
      PutRow(out, old_row);
      break;
    case WalRecordType::kCsiReorg:
      PutString(out, aux);
      break;
  }
}

Status WalRecord::DecodeBody(const uint8_t* data, size_t n, WalRecord* out) {
  ByteCursor c{data, n};
  out->lsn = c.U64();
  out->type = static_cast<WalRecordType>(c.U8());
  out->txn = c.U64();
  out->table_id = c.U32();
  switch (out->type) {
    case WalRecordType::kTxnCommit:
    case WalRecordType::kTxnAbort:
      break;
    case WalRecordType::kInsert:
      out->rid = c.I64();
      GetRow(&c, &out->new_row);
      break;
    case WalRecordType::kUpdate:
      out->rid = c.I64();
      GetRow(&c, &out->old_row);
      GetRow(&c, &out->new_row);
      break;
    case WalRecordType::kDelete:
      out->rid = c.I64();
      GetRow(&c, &out->old_row);
      break;
    case WalRecordType::kCsiReorg:
      out->aux = c.Str();
      break;
    default:
      return Status::Corruption("unknown WAL record type");
  }
  if (!c.ok || c.left != 0) {
    return Status::Corruption("short or overlong WAL record body");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// WalManager.
// ---------------------------------------------------------------------

WalManager::WalManager(std::string dir, DurabilityMode mode, WalOptions opts)
    : dir_(std::move(dir)), mode_(mode), opts_(opts) {}

WalManager::~WalManager() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    stop_ = true;
    // Final flush so a clean shutdown loses nothing even without an
    // explicit checkpoint (best-effort: errors are unreportable here).
    if (fd_ >= 0 && poison_.ok()) (void)SyncLocked();
  }
  work_cv_.notify_all();
  durable_cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  if (fd_ >= 0) ::close(fd_);
}

std::string WalManager::WalDir(const std::string& dir) {
  return dir + "/wal";
}

Status WalManager::Open(uint64_t next_lsn, uint64_t next_txn) {
  std::error_code ec;
  std::filesystem::create_directories(WalDir(dir_), ec);
  if (ec) {
    return Status::IoError("cannot create WAL dir: " + ec.message());
  }
  std::unique_lock<std::mutex> lk(mu_);
  next_lsn_ = std::max<uint64_t>(1, next_lsn);
  written_lsn_ = durable_lsn_ = next_lsn_ - 1;
  next_txn_.store(std::max<uint64_t>(1, next_txn));
  // Enumerate pre-existing segments (recovery already consumed them; we
  // only need their names for truncation) and continue the sequence.
  segment_seq_ = 0;
  closed_segments_.clear();
  for (const auto& e : std::filesystem::directory_iterator(WalDir(dir_), ec)) {
    const std::string name = e.path().filename().string();
    unsigned long long seq = 0;
    if (std::sscanf(name.c_str(), "wal-%llu.log", &seq) == 1) {
      segment_seq_ = std::max<uint64_t>(segment_seq_, seq);
      // Old segments hold records strictly below our start LSN.
      closed_segments_.emplace_back(0, e.path().string());
    }
  }
  std::sort(closed_segments_.begin(), closed_segments_.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  ++segment_seq_;
  HD_RETURN_IF_ERROR(OpenSegmentLocked());
  if (mode_ == DurabilityMode::kGroup && !writer_.joinable()) {
    stop_ = false;
    writer_ = std::thread([this] { WriterLoop(); });
  }
  return Status::OK();
}

Status WalManager::OpenSegmentLocked() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  char name[64];
  std::snprintf(name, sizeof(name), "wal-%010llu.log",
                static_cast<unsigned long long>(segment_seq_));
  const std::string path = WalDir(dir_) + "/" + name;
  fd_ = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    return Status::IoError("cannot open WAL segment " + path + ": " +
                           std::strerror(errno));
  }
  segment_bytes_written_ = 0;
  segment_first_lsn_ = next_lsn_;
  // Segment header: magic, version, first LSN to be written here.
  std::vector<uint8_t> hdr;
  PutU32(&hdr, kSegmentMagic);
  PutU32(&hdr, kSegmentVersion);
  PutU64(&hdr, next_lsn_);
  HD_RETURN_IF_ERROR(WriteLocked(hdr.data(), hdr.size()));
  // Make the segment itself durable before any record relies on it.
  if (::fsync(fd_) != 0) {
    return Status::IoError("WAL segment header fsync failed");
  }
  // fsync the directory so the new file name survives a crash.
  const int dfd = ::open(WalDir(dir_).c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

Status WalManager::WriteLocked(const uint8_t* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd_, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("WAL write failed: ") +
                             std::strerror(errno));
    }
    off += static_cast<size_t>(w);
  }
  segment_bytes_written_ += n;
  return Status::OK();
}

uint64_t WalManager::AllocTxnId() {
  return next_txn_.fetch_add(1, std::memory_order_relaxed);
}

void WalManager::FrameRecordLocked(WalRecord* rec, std::vector<uint8_t>* out) {
  rec->lsn = next_lsn_++;
  std::vector<uint8_t> body;
  rec->EncodeBody(&body);
  PutU32(out, static_cast<uint32_t>(body.size()));
  PutU32(out, WalCrc32(body.data(), body.size()));
  out->insert(out->end(), body.begin(), body.end());
}

Status WalManager::Append(WalRecord* rec, uint64_t* lsn_out) {
  HD_FAILPOINT_RETURN("wal.append");
  std::unique_lock<std::mutex> lk(mu_);
  if (fd_ < 0) return Status::Internal("WAL not open");
  if (!poison_.ok()) return poison_;
  std::vector<uint8_t> framed;
  FrameRecordLocked(rec, &framed);
  if (buffer_.empty()) buffer_begin_lsn_ = rec->lsn;
  buffer_end_lsn_ = rec->lsn;
  buffer_.insert(buffer_.end(), framed.begin(), framed.end());
  switch (rec->type) {
    case WalRecordType::kInsert:
    case WalRecordType::kUpdate:
    case WalRecordType::kDelete:
      if (rec->txn != 0) {
        active_txn_first_lsn_.try_emplace(rec->txn, rec->lsn);
      }
      break;
    case WalRecordType::kTxnCommit:
    case WalRecordType::kTxnAbort:
      active_txn_first_lsn_.erase(rec->txn);
      break;
    case WalRecordType::kCsiReorg:
      break;
  }
  appends_.fetch_add(1, std::memory_order_relaxed);
  Stats().appends->Add(1);
  Stats().bytes->Add(static_cast<int64_t>(framed.size()));
  if (lsn_out != nullptr) *lsn_out = rec->lsn;
  return Status::OK();
}

Status WalManager::FlushBufferLocked() {
  if (!poison_.ok()) return poison_;
  if (buffer_.empty()) return Status::OK();
  Status w = WriteLocked(buffer_.data(), buffer_.size());
  if (!w.ok()) {
    // A failed write(2) leaves the byte-stream position unknown; any
    // further append would tear the log silently. Poison.
    poison_ = w;
    return w;
  }
  written_lsn_ = buffer_end_lsn_;
  buffer_.clear();
  buffer_begin_lsn_ = 0;
  return Status::OK();
}

Status WalManager::SyncLocked() {
  // Flush the buffer and fsync; caller holds mu_.
  HD_RETURN_IF_ERROR(FlushBufferLocked());
  if (written_lsn_ <= durable_lsn_) return Status::OK();
  Status fp = EvalFailPoint("wal.fsync");
  bool real_failure = false;
  if (fp.ok() && ::fsync(fd_) != 0) {
    fp = Status::IoError(std::string("WAL fsync failed: ") +
                         std::strerror(errno));
    real_failure = true;
  }
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  Stats().fsyncs->Add(1);
  if (!fp.ok()) {
    // durable_lsn_ stays put — nothing past it is proven on disk. A real
    // fsync failure additionally poisons the log: the kernel may have
    // dropped the dirty pages, so a later successful fsync would prove
    // nothing about this range (fsyncgate). Injected faults are
    // transient by contract and may be retried.
    if (real_failure) poison_ = fp;
    return fp;
  }
  durable_lsn_ = written_lsn_;
  // Rotate once past the segment budget; a freshly rotated segment starts
  // durable (header fsync in OpenSegmentLocked).
  if (segment_bytes_written_ >= opts_.segment_bytes) {
    closed_segments_.emplace_back(segment_first_lsn_, [&] {
      char name[64];
      std::snprintf(name, sizeof(name), "wal-%010llu.log",
                    static_cast<unsigned long long>(segment_seq_));
      return WalDir(dir_) + "/" + name;
    }());
    ++segment_seq_;
    HD_RETURN_IF_ERROR(OpenSegmentLocked());
  }
  return Status::OK();
}

Status WalManager::Flush() {
  std::unique_lock<std::mutex> lk(mu_);
  return FlushBufferLocked();
}

Status WalManager::Sync() {
  std::unique_lock<std::mutex> lk(mu_);
  pending_commits_ = 0;
  return SyncLocked();
}

Status WalManager::EnsureDurable(uint64_t lsn) {
  if (lsn == 0) return Status::OK();
  std::unique_lock<std::mutex> lk(mu_);
  if (!poison_.ok()) return poison_;
  if (durable_lsn_ >= lsn) return Status::OK();
  if (mode_ == DurabilityMode::kGroup && writer_.joinable()) {
    work_cv_.notify_one();
    durable_cv_.wait(
        lk, [&] { return durable_lsn_ >= lsn || stop_ || !poison_.ok(); });
    if (!poison_.ok()) return poison_;
    if (durable_lsn_ < lsn) return Status::Internal("WAL writer stopped");
    return Status::OK();
  }
  return SyncLocked();
}

Status WalManager::Commit(uint64_t txn) {
  WalRecord rec;
  rec.type = WalRecordType::kTxnCommit;
  rec.txn = txn;
  uint64_t lsn = 0;
  HD_RETURN_IF_ERROR(Append(&rec, &lsn));
  const int64_t t0 = NowNs();
  Status s;
  if (mode_ == DurabilityMode::kCommit) {
    std::unique_lock<std::mutex> lk(mu_);
    pending_commits_ = 0;
    s = SyncLocked();
  } else {
    std::unique_lock<std::mutex> lk(mu_);
    ++pending_commits_;
    work_cv_.notify_one();
    // Park until the writer's fsync actually covers our LSN. A batch
    // whose fsync hit an injected fault is retried next window, so the
    // wait simply lasts longer; only a poisoned log or writer shutdown
    // fails the commit (durability unknown in both cases).
    durable_cv_.wait(
        lk, [&] { return durable_lsn_ >= lsn || stop_ || !poison_.ok(); });
    if (!poison_.ok()) {
      s = poison_;
    } else if (durable_lsn_ < lsn) {
      s = Status::Internal("WAL writer stopped before commit became durable");
    }
  }
  Stats().flush_wait_ns->Record(NowNs() - t0);
  return s;
}

Status WalManager::Abort(uint64_t txn) {
  WalRecord rec;
  rec.type = WalRecordType::kTxnAbort;
  rec.txn = txn;
  return Append(&rec);
}

void WalManager::WriterLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  bool backoff = false;
  while (true) {
    if (backoff) {
      // Previous fsync hit an injected fault; the bytes are written but
      // unproven (durable_lsn_ < written_lsn_, so the wake predicate is
      // already true). Plain timed sleep paces the retry.
      work_cv_.wait_for(lk, std::chrono::microseconds(opts_.group_window_us));
      backoff = false;
    } else {
      work_cv_.wait_for(lk, std::chrono::microseconds(opts_.group_window_us),
                        [&] {
                          return stop_ || !buffer_.empty() ||
                                 written_lsn_ > durable_lsn_;
                        });
    }
    if (!poison_.ok()) {
      durable_cv_.notify_all();
      return;
    }
    if (buffer_.empty() && written_lsn_ <= durable_lsn_) {
      if (stop_) return;
      continue;
    }
    const uint64_t group = pending_commits_;
    pending_commits_ = 0;
    Status s = SyncLocked();
    if (!s.ok()) {
      if (!poison_.ok() || stop_) {
        // Real failure or shutdown: parked committers wake, see the
        // poison/stop state, and report the commit failed (durability
        // unknown). durable_lsn_ was never advanced over the batch.
        durable_cv_.notify_all();
        return;
      }
      backoff = true;  // injected transient fault: retry next window
      continue;
    }
    if (group > 0) Stats().group_size->Record(static_cast<int64_t>(group));
    durable_cv_.notify_all();
  }
}

uint64_t WalManager::next_lsn() const {
  std::unique_lock<std::mutex> lk(mu_);
  return next_lsn_;
}

uint64_t WalManager::durable_lsn() const {
  std::unique_lock<std::mutex> lk(mu_);
  return durable_lsn_;
}

uint64_t WalManager::OldestActiveTxnLsn() const {
  std::unique_lock<std::mutex> lk(mu_);
  uint64_t oldest = 0;
  for (const auto& [txn, first] : active_txn_first_lsn_) {
    if (oldest == 0 || first < oldest) oldest = first;
  }
  return oldest;
}

Status WalManager::TruncateBelow(uint64_t lsn) {
  std::unique_lock<std::mutex> lk(mu_);
  // A closed segment is deletable when the NEXT segment starts at or
  // below `lsn` (so every record in it is < lsn). Segments enumerated at
  // Open() with unknown first LSN (0) are pre-recovery leftovers — they
  // are deletable whenever any post-recovery checkpoint advances past
  // them, which `lsn >= segment_first_lsn_ of the active segment` covers
  // because recovery replayed them fully before this manager opened.
  size_t deletable = 0;
  for (size_t i = 0; i < closed_segments_.size(); ++i) {
    const uint64_t next_first = i + 1 < closed_segments_.size()
                                    ? closed_segments_[i + 1].first
                                    : segment_first_lsn_;
    if (next_first <= lsn) {
      deletable = i + 1;
    } else {
      break;
    }
  }
  for (size_t i = 0; i < deletable; ++i) {
    std::error_code ec;
    std::filesystem::remove(closed_segments_[i].second, ec);
  }
  closed_segments_.erase(closed_segments_.begin(),
                         closed_segments_.begin() + deletable);
  return Status::OK();
}

Status WalManager::ReadLog(const std::string& dir,
                           const std::function<void(const WalRecord&)>& fn,
                           uint64_t* truncated_bytes) {
  if (truncated_bytes != nullptr) *truncated_bytes = 0;
  std::error_code ec;
  if (!std::filesystem::is_directory(WalDir(dir), ec)) return Status::OK();
  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const auto& e : std::filesystem::directory_iterator(WalDir(dir), ec)) {
    unsigned long long seq = 0;
    if (std::sscanf(e.path().filename().string().c_str(), "wal-%llu.log",
                    &seq) == 1) {
      segments.emplace_back(seq, e.path().string());
    }
  }
  std::sort(segments.begin(), segments.end());
  uint64_t last_lsn = 0;
  for (const auto& [seq, path] : segments) {
    FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) continue;
    std::fseek(f, 0, SEEK_END);
    const long fsize = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<uint8_t> data(fsize > 0 ? static_cast<size_t>(fsize) : 0);
    const size_t got = data.empty() ? 0 : std::fread(data.data(), 1, data.size(), f);
    std::fclose(f);
    data.resize(got);
    size_t off = 0;
    // Segment header.
    if (data.size() < 16) continue;
    uint32_t magic, version;
    std::memcpy(&magic, data.data(), 4);
    std::memcpy(&version, data.data() + 4, 4);
    if (magic != kSegmentMagic || version != kSegmentVersion) continue;
    off = 16;
    // Records until a torn/corrupt frame — the rest of THIS segment is
    // unreachable tail (later segments belong to later generations that
    // recovered past the tear, so the scan continues with them).
    while (off + 8 <= data.size()) {
      uint32_t len, crc;
      std::memcpy(&len, data.data() + off, 4);
      std::memcpy(&crc, data.data() + off + 4, 4);
      if (len > kMaxRecordBytes || off + 8 + len > data.size()) break;
      const uint8_t* body = data.data() + off + 8;
      if (WalCrc32(body, len) != crc) break;
      WalRecord rec;
      if (!WalRecord::DecodeBody(body, len, &rec).ok()) break;
      if (rec.lsn <= last_lsn) break;  // stale bytes past a truncation
      last_lsn = rec.lsn;
      fn(rec);
      off += 8 + len;
    }
    if (truncated_bytes != nullptr && off < data.size()) {
      *truncated_bytes += data.size() - off;
    }
  }
  return Status::OK();
}

}  // namespace hd
