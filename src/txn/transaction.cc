#include "txn/transaction.h"

#include <algorithm>

#include "common/telemetry.h"

namespace hd {

namespace {

// Process-wide transaction telemetry: lifetime histograms (Begin to
// Commit/Abort), outcome counters, and the version-store size summed over
// live managers.
struct TxnStats {
  TCounter* commits = Telemetry::Instance().Counter("txn.commits");
  TCounter* aborts = Telemetry::Instance().Counter("txn.aborts");
  THistogram* commit_ns = Telemetry::Instance().Histogram("txn.commit_ns");
  THistogram* abort_ns = Telemetry::Instance().Histogram("txn.abort_ns");
  TGauge* versions = Telemetry::Instance().Gauge("txn.versions");
};

TxnStats& Stats() {
  static TxnStats s;
  return s;
}

int64_t SinceNs(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

const char* IsolationLevelName(IsolationLevel l) {
  switch (l) {
    case IsolationLevel::kReadCommitted: return "RC";
    case IsolationLevel::kSnapshot: return "SI";
    case IsolationLevel::kSerializable: return "SR";
  }
  return "?";
}

TransactionManager::~TransactionManager() {
  Stats().versions->Add(-static_cast<int64_t>(version_count()));
}

std::unique_ptr<Transaction> TransactionManager::Begin(IsolationLevel iso,
                                                      uint64_t age) {
  auto t = std::make_unique<Transaction>();
  t->id_ = next_txn_.fetch_add(1);
  t->age_ = age != 0 ? age : t->id_;
  t->iso_ = iso;
  t->begin_tp_ = std::chrono::steady_clock::now();
  if (wal_ != nullptr) t->wal_id_ = wal_->AllocTxnId();
  if (iso == IsolationLevel::kSnapshot) {
    // Read the clock and register the snapshot in one critical section: a
    // trim that computed its bound between the two would drop versions
    // this snapshot counts.
    std::lock_guard<std::mutex> g(active_mu_);
    t->snapshot_ts_ = ts_.load();
    active_snapshots_.insert(t->snapshot_ts_);
  } else {
    t->snapshot_ts_ = ts_.load();
  }
  return t;
}

Status TransactionManager::Commit(Transaction* txn) {
  // Durability first: the commit record must be on disk (per mode) before
  // locks release and the effects become visible to other transactions.
  Status durable = Status::OK();
  if (wal_ != nullptr && txn->wal_wrote_) {
    durable = wal_->Commit(txn->wal_id_);
  }
  locks_.ReleaseAll(txn->id());
  txn->noted_.clear();  // committed versions are permanent
  uint64_t oldest = 0;
  {
    std::lock_guard<std::mutex> g(active_mu_);
    if (txn->isolation() == IsolationLevel::kSnapshot) EndSnapshotLocked(txn);
    ts_.fetch_add(1);
    oldest = OldestSnapshotLocked();
  }
  // Incremental GC: sweep one shard per commit, so every shard is trimmed
  // within 64 commits of any version becoming invisible.
  TrimShard(vshards_[gc_cursor_.fetch_add(1) % kNumShards], oldest);
  Stats().commits->Add(1);
  Stats().commit_ns->Record(SinceNs(txn->begin_tp_));
  return durable;
}

void TransactionManager::Abort(Transaction* txn) {
  // Note: logical rollback of data is the caller's responsibility (our
  // workloads retry idempotent statements); this releases locks and
  // removes the version markers the transaction created, so aborted
  // writers do not inflate SI chain lengths or leak version_count().
  // Recovery undoes the transaction's logged inserts; the abort record is
  // advisory (a missing one just means a longer analysis loser set).
  if (wal_ != nullptr && txn->wal_wrote_) wal_->Abort(txn->wal_id_);
  locks_.ReleaseAll(txn->id());
  int64_t undone = 0;
  for (auto rit = txn->noted_.rbegin(); rit != txn->noted_.rend(); ++rit) {
    const auto [key, stamp] = *rit;
    VersionShard& sh = VShardFor(key);
    std::lock_guard<std::mutex> g(sh.mu);
    auto it = sh.chains.find(key);
    if (it == sh.chains.end()) continue;  // trimmed by chain bounding / GC
    auto& chain = it->second;
    // Erase one matching stamp, newest-first (ours is likely near the
    // back). Best effort: the marker may already be gone to bounding.
    for (auto c = chain.rbegin(); c != chain.rend(); ++c) {
      if (*c == stamp) {
        chain.erase(std::next(c).base());
        ++undone;
        break;
      }
    }
    if (chain.empty()) sh.chains.erase(it);
  }
  Stats().versions->Add(-undone);
  txn->noted_.clear();
  if (txn->isolation() == IsolationLevel::kSnapshot) {
    std::lock_guard<std::mutex> g(active_mu_);
    EndSnapshotLocked(txn);
  }
  Stats().aborts->Add(1);
  Stats().abort_ns->Record(SinceNs(txn->begin_tp_));
}

void TransactionManager::NoteVersion(uint64_t table_hash, int64_t rid,
                                     Transaction* txn) {
  const uint64_t key = VKey(table_hash, rid);
  VersionShard& sh = VShardFor(key);
  int64_t added = 1;
  uint64_t now = 0;
  {
    std::lock_guard<std::mutex> g(sh.mu);
    // Stamped under the shard lock, so each chain stays sorted — the trim
    // relies on it.
    now = ts_.load();
    auto& chain = sh.chains[key];
    chain.push_back(now);
    // Bound chains: a hot row's chain cannot outgrow the sweep.
    if (chain.size() > 64) {
      chain.erase(chain.begin(), chain.begin() + 32);
      added -= 32;
    }
  }
  if (txn != nullptr) txn->noted_.emplace_back(key, now);
  Stats().versions->Add(added);
}

int TransactionManager::VersionChainLength(uint64_t table_hash, int64_t rid,
                                           uint64_t snapshot_ts) const {
  const uint64_t key = VKey(table_hash, rid);
  VersionShard& sh = VShardFor(key);
  std::lock_guard<std::mutex> g(sh.mu);
  auto it = sh.chains.find(key);
  if (it == sh.chains.end()) return 0;
  // A version stamped at ts >= snapshot_ts was written after the snapshot
  // was taken (commits advance the clock past their writes).
  int n = 0;
  for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
    if (*rit < snapshot_ts) break;
    ++n;
  }
  return n;
}

void TransactionManager::EndSnapshotLocked(const Transaction* txn) {
  // Erase one registration: other transactions may share the timestamp.
  auto it = active_snapshots_.find(txn->snapshot_ts_);
  if (it != active_snapshots_.end()) active_snapshots_.erase(it);
}

uint64_t TransactionManager::OldestSnapshotLocked() const {
  const uint64_t now = ts_.load();
  return active_snapshots_.empty() ? now
                                   : std::min(now, *active_snapshots_.begin());
}

void TransactionManager::TrimShard(VersionShard& sh, uint64_t oldest) {
  // A snapshot at ts counts stamps >= ts; no open or future snapshot is
  // older than `oldest`, so stamps below it are invisible to all of them.
  int64_t dropped = 0;
  {
    std::lock_guard<std::mutex> g(sh.mu);
    for (auto it = sh.chains.begin(); it != sh.chains.end();) {
      auto& chain = it->second;
      auto keep = std::lower_bound(chain.begin(), chain.end(), oldest);
      dropped += keep - chain.begin();
      chain.erase(chain.begin(), keep);
      it = chain.empty() ? sh.chains.erase(it) : std::next(it);
    }
  }
  Stats().versions->Add(-dropped);
}

void TransactionManager::GarbageCollect() {
  uint64_t oldest = 0;
  {
    std::lock_guard<std::mutex> g(active_mu_);
    oldest = OldestSnapshotLocked();
  }
  for (auto& sh : vshards_) TrimShard(sh, oldest);
}

uint64_t TransactionManager::version_count() const {
  uint64_t n = 0;
  for (auto& sh : vshards_) {
    std::lock_guard<std::mutex> g(sh.mu);
    for (auto& [k, c] : sh.chains) n += c.size();
  }
  return n;
}

}  // namespace hd
