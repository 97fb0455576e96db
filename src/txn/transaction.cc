#include "txn/transaction.h"

#include <algorithm>
#include <climits>

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
  // Each table list is trimmed by the commits of the transactions that
  // write the table. Committed versions are permanent: forget them.
  std::vector<uint64_t> tables;
  for (const Transaction::Noted& n : txn->noted_) tables.push_back(n.table);
  std::sort(tables.begin(), tables.end());
  tables.erase(std::unique(tables.begin(), tables.end()), tables.end());
  for (uint64_t t : tables) TrimTable(VersionsOf(t), oldest);
  txn->noted_.clear();
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
    const Transaction::Noted& n = *rit;
    {
      // Best effort, as below: a trim may have dropped the entry already.
      TableVersions& tv = VersionsOf(n.table);
      std::lock_guard<std::mutex> g(tv.mu);
      auto e = std::lower_bound(tv.log.begin(), tv.log.end(),
                                std::make_pair(n.stamp, INT64_MIN));
      for (; e != tv.log.end() && e->first == n.stamp; ++e) {
        if (e->second == n.rid) {
          tv.log.erase(e);
          break;
        }
      }
    }
    const uint64_t key = VKey(n.table, n.rid);
    VersionShard& sh = VShardFor(key);
    std::lock_guard<std::mutex> g(sh.mu);
    auto it = sh.chains.find(key);
    if (it == sh.chains.end()) continue;  // trimmed by chain bounding / GC
    auto& chain = it->second;
    // Erase one matching stamp, newest-first (ours is likely near the
    // back). Best effort: the marker may already be gone to bounding.
    for (auto c = chain.rbegin(); c != chain.rend(); ++c) {
      if (*c == n.stamp) {
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
  TableVersions& tv = VersionsOf(table_hash);
  const uint64_t key = VKey(table_hash, rid);
  VersionShard& sh = VShardFor(key);
  int64_t added = 1;
  uint64_t now = 0;
  {
    // Stamped under the table's lock, so its list stays sorted — the
    // trims and VersionedSince rely on it.
    std::lock_guard<std::mutex> tg(tv.mu);
    now = ts_.load();
    tv.log.emplace_back(now, rid);
    std::lock_guard<std::mutex> g(sh.mu);
    // Sorted insert (at the back but for keys two tables share), so each
    // chain stays sorted too.
    auto& chain = sh.chains[key];
    chain.insert(std::upper_bound(chain.begin(), chain.end(), now), now);
    // Bound chains: a hot row's chain cannot outgrow the sweep.
    if (chain.size() > 64) {
      chain.erase(chain.begin(), chain.begin() + 32);
      added -= 32;
    }
  }
  if (txn != nullptr) txn->noted_.push_back({table_hash, rid, now});
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

std::vector<int64_t> TransactionManager::VersionedSince(
    uint64_t table_hash, uint64_t snapshot_ts) const {
  std::vector<int64_t> rids;
  TableVersions* tv = FindVersions(table_hash);
  if (tv == nullptr) return rids;
  {
    std::lock_guard<std::mutex> g(tv->mu);
    auto e = std::lower_bound(tv->log.begin(), tv->log.end(),
                              std::make_pair(snapshot_ts, INT64_MIN));
    for (; e != tv->log.end(); ++e) rids.push_back(e->second);
  }
  std::sort(rids.begin(), rids.end());
  rids.erase(std::unique(rids.begin(), rids.end()), rids.end());
  return rids;
}

TransactionManager::TableVersions* TransactionManager::FindVersions(
    uint64_t table_hash) const {
  std::shared_lock<std::shared_mutex> g(tables_mu_);
  auto it = tables_.find(table_hash);
  return it == tables_.end() ? nullptr : it->second.get();
}

TransactionManager::TableVersions& TransactionManager::VersionsOf(
    uint64_t table_hash) {
  if (TableVersions* tv = FindVersions(table_hash)) return *tv;
  std::unique_lock<std::shared_mutex> g(tables_mu_);
  auto& slot = tables_[table_hash];
  if (slot == nullptr) slot = std::make_unique<TableVersions>();
  return *slot;
}

void TransactionManager::TrimTable(TableVersions& tv, uint64_t oldest) {
  std::lock_guard<std::mutex> g(tv.mu);
  tv.log.erase(tv.log.begin(),
               std::lower_bound(tv.log.begin(), tv.log.end(),
                                std::make_pair(oldest, INT64_MIN)));
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
  std::shared_lock<std::shared_mutex> g(tables_mu_);
  for (auto& [t, tv] : tables_) TrimTable(*tv, oldest);
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
