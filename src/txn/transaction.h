// Transactions, isolation levels, and the version store that makes
// Snapshot Isolation reads pay for version-chain traversal.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/wal.h"
#include "txn/lock_manager.h"

namespace hd {

enum class IsolationLevel {
  kReadCommitted,  // short S locks on reads, X till commit
  kSnapshot,       // no read locks; reads resolve row versions
  kSerializable,   // S and X locks held till commit
};

const char* IsolationLevelName(IsolationLevel l);

class TransactionManager;

/// One transaction. Not thread-safe; each worker owns its transactions.
class Transaction {
 public:
  uint64_t id() const { return id_; }
  /// Deadlock-victim rank passed to LockManager::Acquire: the id of the
  /// first attempt of the operation this transaction runs, so a retry
  /// outranks transactions that began after that first attempt.
  uint64_t age() const { return age_; }
  IsolationLevel isolation() const { return iso_; }
  /// Snapshot timestamp (SI): versions written after this are invisible.
  uint64_t snapshot_ts() const { return snapshot_ts_; }

  /// WAL transaction id (0 when durability is off). Distinct from id():
  /// the WAL allocator survives restarts, this one does not.
  uint64_t wal_id() const { return wal_id_; }
  /// Mark that a statement logged under wal_id() — Commit must then wait
  /// for the log per the durability mode, and Abort must log the abort.
  void MarkWalWrite() { wal_wrote_ = true; }
  bool wal_wrote() const { return wal_wrote_; }

 private:
  friend class TransactionManager;
  uint64_t id_ = 0;
  uint64_t age_ = 0;
  IsolationLevel iso_ = IsolationLevel::kReadCommitted;
  uint64_t snapshot_ts_ = 0;
  uint64_t wal_id_ = 0;
  bool wal_wrote_ = false;
  /// Begin() time, for the commit/abort latency telemetry histograms.
  std::chrono::steady_clock::time_point begin_tp_;
  /// Version-store entries this transaction created. Abort undoes them so
  /// aborted writers leave no phantom versions (an abort neither advances
  /// the clock nor runs GC — without undo these would inflate chain
  /// lengths until a later commit swept them); Commit trims the version
  /// lists of the tables they name.
  struct Noted {
    uint64_t table;
    int64_t rid;
    uint64_t stamp;
  };
  std::vector<Noted> noted_;
};

/// Manages transaction lifecycle, the lock manager, and a version store.
///
/// The version store models SI's row versioning cost: every update under
/// SI appends a version marker keyed by (table, rid); an SI reader walks
/// the chain of each row it reads that gained a version since its
/// snapshot. Every Commit trims one of the 64 store shards (round-robin)
/// down to the oldest open snapshot, so the store holds the versions some
/// open snapshot may count plus at most 64 commits of sweep lag — no
/// background thread. The `txn.versions` gauge counts the entries.
///
/// Each table also keeps its versions as one list in stamp order, so a
/// reader finds the rows versioned since its snapshot (VersionedSince)
/// without probing the store per row.
class TransactionManager {
 public:
  TransactionManager() = default;
  /// Retracts this manager's versions from the `txn.versions` gauge.
  ~TransactionManager();

  /// `age` is a retried operation's first age() (0 for a first attempt).
  std::unique_ptr<Transaction> Begin(IsolationLevel iso, uint64_t age = 0);

  /// Commit: when the transaction logged WAL records, the commit record is
  /// made durable per the WAL's mode FIRST (before locks release). A
  /// returned error means durability is UNKNOWN — the commit's effects are
  /// applied in memory and may or may not survive a crash, so callers must
  /// report the operation failed and must NOT retry it (a retry that lands
  /// after a commit record that did reach disk double-applies on replay).
  Status Commit(Transaction* txn);
  void Abort(Transaction* txn);

  /// Route commits/aborts through `wal` (may be null = durability off).
  /// Begin() then stamps each transaction with a WAL txn id.
  void BindWal(WalManager* wal) { wal_ = wal; }
  WalManager* wal() const { return wal_; }

  LockManager* locks() { return &locks_; }
  uint64_t current_ts() const { return ts_.load(); }

  /// Record that (table, rid) gained a version at the current timestamp.
  /// When `txn` is given, the entry is remembered so Abort can undo it.
  void NoteVersion(uint64_t table_hash, int64_t rid,
                   Transaction* txn = nullptr);

  /// Number of versions of (table, rid) newer than `snapshot_ts` — the
  /// chain length an SI reader must traverse. 0 for unversioned rows.
  int VersionChainLength(uint64_t table_hash, int64_t rid,
                         uint64_t snapshot_ts) const;

  /// The rids of `table_hash` with a version stamped at or after
  /// `snapshot_ts`, sorted and distinct: the rows whose chain an SI reader
  /// at that snapshot must walk. O(log n + k) in the table's own list.
  std::vector<int64_t> VersionedSince(uint64_t table_hash,
                                      uint64_t snapshot_ts) const;

  /// Drop versions older than the oldest open snapshot from every shard
  /// and every table list: the trims Commit runs, looped over all of them.
  /// Commits keep the store bounded on their own; call this for a drained
  /// store at a quiescent point (version_count() == 0 with no open
  /// snapshot).
  void GarbageCollect();

  /// Entries in the version store (walks every shard).
  uint64_t version_count() const;

 private:
  struct VersionShard {
    mutable std::mutex mu;
    // (table ^ rid-mix) -> timestamps of versions, newest last.
    std::unordered_map<uint64_t, std::vector<uint64_t>> chains;
  };
  static uint64_t VKey(uint64_t table_hash, int64_t rid) {
    return table_hash ^ (static_cast<uint64_t>(rid) * 0x9e3779b97f4a7c15ull);
  }
  VersionShard& VShardFor(uint64_t key) const {
    return vshards_[key % kNumShards];
  }
  /// Unregister `txn`'s snapshot. Caller holds active_mu_.
  void EndSnapshotLocked(const Transaction* txn);
  /// Snapshot timestamp of the oldest open SI transaction, or the clock
  /// when none is open. Caller holds active_mu_.
  uint64_t OldestSnapshotLocked() const;
  /// Drop every stamp older than `oldest` from `sh`.
  void TrimShard(VersionShard& sh, uint64_t oldest);

  /// One table's versions as (stamp, rid), stamps ascending: NoteVersion
  /// reads the clock under `mu` before it appends.
  struct TableVersions {
    std::mutex mu;
    std::deque<std::pair<uint64_t, int64_t>> log;
  };
  /// The list of `table_hash`, or null before its first version. Lists
  /// live as long as the manager, so they are used without tables_mu_.
  TableVersions* FindVersions(uint64_t table_hash) const;
  /// FindVersions, creating the list on first use.
  TableVersions& VersionsOf(uint64_t table_hash);
  /// Drop the head of `tv` stamped before `oldest`.
  static void TrimTable(TableVersions& tv, uint64_t oldest);

  static constexpr int kNumShards = 64;
  WalManager* wal_ = nullptr;
  LockManager locks_;
  std::atomic<uint64_t> next_txn_{1};
  std::atomic<uint64_t> ts_{1};
  mutable VersionShard vshards_[kNumShards];
  std::atomic<uint64_t> gc_cursor_{0};  // next shard a commit trims
  mutable std::shared_mutex tables_mu_;  // guards the map, not the lists
  std::unordered_map<uint64_t, std::unique_ptr<TableVersions>> tables_;

  /// Guards active_snapshots_ and orders every ts_ read that registers a
  /// snapshot (Begin) against every ts_ read that bounds a trim (GC).
  mutable std::mutex active_mu_;
  /// snapshot_ts of each open SI transaction; a multiset because
  /// transactions that begin between two commits share a timestamp.
  std::multiset<uint64_t> active_snapshots_;
};

}  // namespace hd
