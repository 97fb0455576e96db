// Write-ahead log: the durability substrate (ROADMAP item 2).
//
// Everything else in this engine models I/O through DiskModel; the WAL is
// the one component doing REAL file I/O, because its whole point is to
// survive `kill -9`. The design is ARIES-lite with logical redo:
//
//   - The log is an append-only sequence of CRC-framed records in
//     fixed-capacity segment files (`wal-<seq>.log` under <dir>/wal/).
//     Every record carries an LSN from a single monotonic allocator.
//   - Records are *logical table-level* mutations (insert/update/delete
//     with packed row images, strings spelled out so dictionaries
//     rebuild), transaction commit/abort marks, and a "reorg applied"
//     mark for the columnstore tuple mover. Physical page contents are
//     never logged — recovery replays the logical operations against
//     structures rebuilt from the last checkpoint, which reproduces
//     heap pages, B+ trees, and CSI row groups deterministically.
//   - WAL rule: callers append a record (getting its LSN) BEFORE applying
//     the mutation, stamp the touched structures with that LSN, and a
//     checkpoint only persists state after EnsureDurable(lsn) has fsynced
//     the log past every stamped LSN (BufferPool::CleanUpTo enforces it).
//   - Group commit: in kGroup mode committing transactions park on a
//     commit queue while a dedicated log writer batches everything
//     pending and fsyncs ONCE per window, so update throughput scales
//     with writer concurrency instead of paying one fsync per txn.
//     kCommit fsyncs synchronously per commit; kOff means no WAL at all.
//   - Fsync failure: durable_lsn only advances on a SUCCESSFUL fsync.
//     An injected (failpoint) fault is transient — kCommit surfaces it to
//     the committer (durability unknown), the group writer retries the
//     batch next window and parked committers wait it out. A real
//     write/fsync syscall failure poisons the log: the kernel may have
//     dropped the dirty pages, so every later append/commit/barrier
//     fails until restart recovery re-reads what actually reached disk.
//
// Failpoint seams (docs/ROBUSTNESS.md): `wal.append` (record append),
// `wal.fsync` (group/commit fsync), `wal.checkpoint` (checkpoint write;
// armed in catalog/recovery.cc), `recovery.redo` (replay loop).
//
// Telemetry (docs/OBSERVABILITY.md): wal.appends, wal.bytes, wal.fsyncs,
// wal.covered_commits, wal.group_size, wal.flush_wait_ns; recovery.*
// counters are published by catalog/recovery.cc.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace hd {

/// How a commit becomes durable. Parsed from --durability=<off|commit|group>.
enum class DurabilityMode {
  kOff,     // no WAL: everything volatile (the pre-durability engine)
  kCommit,  // append + fsync synchronously inside every commit
  kGroup,   // commits park; the log writer batches one fsync per window
};

const char* DurabilityModeName(DurabilityMode m);
bool ParseDurabilityMode(const std::string& s, DurabilityMode* out);

/// CRC32 (IEEE, reflected) over a byte range — the record frame checksum.
uint32_t WalCrc32(const uint8_t* data, size_t n);

enum class WalRecordType : uint8_t {
  kTxnCommit = 1,
  kTxnAbort = 2,
  kInsert = 3,   // rid + new row image
  kUpdate = 4,   // rid + old row image + new row image
  kDelete = 5,   // rid + old row image (secondary keys need it to redo)
  kCsiReorg = 6, // tuple mover ran on (table, index); replayed for layout
};

/// One logged column value. Strings travel as text so recovery can rebuild
/// dictionary codes no matter what the crash did to in-memory dicts.
struct WalValue {
  enum class Tag : uint8_t { kPacked = 0, kString = 1, kNull = 2 };
  Tag tag = Tag::kPacked;
  int64_t packed = 0;
  std::string str;

  static WalValue Packed(int64_t v) {
    WalValue w;
    w.packed = v;
    return w;
  }
  static WalValue Str(std::string s) {
    WalValue w;
    w.tag = Tag::kString;
    w.str = std::move(s);
    return w;
  }
  static WalValue Null() {
    WalValue w;
    w.tag = Tag::kNull;
    return w;
  }
};

using WalRow = std::vector<WalValue>;

/// One decoded log record. `txn` 0 is reserved for records that are
/// logically self-committed (e.g. kCsiReorg).
struct WalRecord {
  uint64_t lsn = 0;  // assigned by Append
  WalRecordType type = WalRecordType::kInsert;
  uint64_t txn = 0;
  uint32_t table_id = 0;
  int64_t rid = -1;
  WalRow old_row;  // kUpdate / kDelete
  WalRow new_row;  // kInsert / kUpdate
  std::string aux; // kCsiReorg: secondary index name ("" = primary CSI)

  void EncodeBody(std::vector<uint8_t>* out) const;
  /// Decode from a body buffer (after the frame was CRC-verified).
  static Status DecodeBody(const uint8_t* data, size_t n, WalRecord* out);
};

struct WalOptions {
  /// Rotate to a new segment once the current one exceeds this.
  uint64_t segment_bytes = 8ull << 20;
  /// kGroup: the writer sleeps at most this long before flushing whatever
  /// accumulated (commits are woken as soon as their batch is durable, so
  /// this is a latency cap, not a floor).
  int group_window_us = 500;
};

/// Append-only segmented log with group commit. Thread-safe.
class WalManager {
 public:
  WalManager(std::string dir, DurabilityMode mode, WalOptions opts = {});
  ~WalManager();

  WalManager(const WalManager&) = delete;
  WalManager& operator=(const WalManager&) = delete;

  /// Create <dir> (and <dir>/wal/) if needed and open a fresh segment for
  /// appends, starting LSN/txn allocation at the given values (recovery
  /// passes the maxima it observed + 1; a fresh database passes 1).
  /// Starts the group-commit writer in kGroup mode.
  Status Open(uint64_t next_lsn, uint64_t next_txn);

  DurabilityMode mode() const { return mode_; }
  const std::string& dir() const { return dir_; }
  bool open() const { return fd_ >= 0; }

  /// Allocate a WAL transaction id (never reused across restarts —
  /// recovery re-seeds the counter past everything in the log).
  uint64_t AllocTxnId();

  /// Frame + buffer one record, assigning its LSN (returned via the
  /// record and `*lsn_out` when non-null). The record is durable only
  /// after the commit protocol (or an explicit Sync). Fails on the
  /// `wal.append` failpoint — callers must then NOT apply the mutation.
  Status Append(WalRecord* rec, uint64_t* lsn_out = nullptr);

  /// Append the commit record for `txn` and make it durable per mode:
  /// kCommit = synchronous fsync, unless a concurrent commit's fsync
  /// already covered the record; kGroup = park until the writer's batch
  /// fsync covers our LSN. Returns the fsync failure if durability could
  /// not be established (the commit must then be reported failed).
  Status Commit(uint64_t txn);

  /// Append the abort record for `txn` (no durability wait — an aborted
  /// transaction that vanishes in a crash aborts "harder").
  Status Abort(uint64_t txn);

  /// Write buffered records to the OS (no fsync).
  Status Flush();
  /// Flush + fsync everything appended so far.
  Status Sync();
  /// Ensure the log is durable at least through `lsn` (checkpoint's WAL
  /// rule). No-op when already durable.
  Status EnsureDurable(uint64_t lsn);

  uint64_t next_lsn() const;
  /// Highest LSN known fsynced.
  uint64_t durable_lsn() const;
  /// First LSN of the oldest transaction with logged-but-unresolved
  /// records, or 0 when none — the fuzzy checkpoint's undo horizon.
  uint64_t OldestActiveTxnLsn() const;

  /// Delete whole segments whose records all have LSN < `lsn` (checkpoint
  /// truncation). The active segment is never deleted.
  Status TruncateBelow(uint64_t lsn);

  uint64_t fsyncs() const { return fsyncs_; }
  /// kCommit commits that returned without an fsync of their own, their
  /// record already made durable by a concurrent commit's fsync.
  uint64_t covered_commits() const { return covered_commits_; }
  uint64_t appends() const { return appends_; }

  /// Scan every segment under <dir>/wal/ in LSN order, invoking `fn` per
  /// CRC-valid record. Stops cleanly (Status::OK) at the first torn or
  /// corrupt frame — everything after a bad frame is unreachable tail by
  /// the append-only contract — reporting the count of discarded tail
  /// bytes in `*truncated_bytes` (may be non-null). Used by recovery
  /// before any WalManager is opened for appends.
  static Status ReadLog(const std::string& dir,
                        const std::function<void(const WalRecord&)>& fn,
                        uint64_t* truncated_bytes = nullptr);

  static std::string WalDir(const std::string& dir);

 private:
  Status OpenSegmentLocked();
  Status WriteLocked(const uint8_t* data, size_t n);
  /// Write buffered frames to the OS under mu_; poisons the log on a real
  /// write failure (the byte stream position is then unknown).
  Status FlushBufferLocked();
  /// Flush buffer + fsync under mu_ held by the caller (kCommit path).
  Status SyncLocked();
  void WriterLoop();
  void FrameRecordLocked(WalRecord* rec, std::vector<uint8_t>* out);

  const std::string dir_;
  const DurabilityMode mode_;
  const WalOptions opts_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;     // writer: work available / stop
  std::condition_variable durable_cv_;  // committers: durable_lsn_ advanced
  std::vector<uint8_t> buffer_;         // framed records not yet written
  uint64_t buffer_begin_lsn_ = 0;       // first lsn in buffer_ (0 = empty)
  uint64_t buffer_end_lsn_ = 0;         // last lsn in buffer_
  uint64_t pending_commits_ = 0;        // commit records in buffer_
  uint64_t next_lsn_ = 1;
  uint64_t written_lsn_ = 0;   // last lsn handed to the OS
  uint64_t durable_lsn_ = 0;   // last lsn fsynced; only ever advances on a
                               // SUCCESSFUL fsync
  /// Non-OK once a real write/fsync syscall failed: the kernel may have
  /// dropped dirty pages (fsyncgate), so no later success can prove the
  /// earlier bytes reached disk. Every subsequent Append/Commit/
  /// EnsureDurable/Sync fails with this status until restart+recovery.
  /// Injected (failpoint) faults do NOT poison — they model transient
  /// failures the group writer retries.
  Status poison_;
  std::map<uint64_t, uint64_t> active_txn_first_lsn_;
  std::atomic<uint64_t> next_txn_{1};

  int fd_ = -1;
  uint64_t segment_seq_ = 0;
  uint64_t segment_bytes_written_ = 0;
  uint64_t segment_first_lsn_ = 0;
  /// (first_lsn, path) of closed segments, for truncation.
  std::vector<std::pair<uint64_t, std::string>> closed_segments_;

  std::thread writer_;
  bool stop_ = false;

  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> covered_commits_{0};
  std::atomic<uint64_t> appends_{0};
};

}  // namespace hd
