// Hierarchical two-phase lock manager (table intent locks + row locks).
//
// Used by the mixed-workload experiments (Sections 3.4 and 5.2.2) where
// lock contention between short update transactions and long analytic
// scans is part of the measured behaviour. Deadlocks are detected on a
// waits-for graph: the youngest transaction of a cycle aborts at once, and
// the per-request timeout stays only as a backstop (for cycles through
// latches, which the graph cannot see).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace hd {

enum class LockMode : uint8_t { kIS, kIX, kS, kX };

const char* LockModeName(LockMode m);

/// True if a new request `req` is compatible with an already-granted `held`.
bool LockCompatible(LockMode held, LockMode req);

/// Lockable resource: a whole table (rid == kTableResource) or one row.
struct LockResource {
  uint64_t table = 0;  // table name hash
  int64_t rid = kTableResource;

  static constexpr int64_t kTableResource = -1;

  bool operator<(const LockResource& o) const {
    return table != o.table ? table < o.table : rid < o.rid;
  }
  bool operator==(const LockResource& o) const {
    return table == o.table && rid == o.rid;
  }
};

class LockManager {
 public:
  LockManager() = default;

  /// Acquire (or upgrade) a lock for transaction `txn_id`. Blocks until
  /// granted, until the request closes a waits-for cycle whose youngest
  /// member is `txn_id`, or until `timeout_ms` elapsed; the last two return
  /// Aborted (the caller is the deadlock victim and should roll back).
  /// `age` ranks victims — the largest age in a cycle aborts (ties: the
  /// largest txn id); 0 means `txn_id`. A retried operation passes its
  /// first attempt's age so it grows older instead of losing every cycle.
  Status Acquire(uint64_t txn_id, const LockResource& res, LockMode mode,
                 int timeout_ms = 200, uint64_t age = 0);

  /// Take the lock only if it can be granted at once (behind no earlier
  /// incompatible waiter); `*granted` says whether it was. Never waits, so
  /// a caller holding a latch can try first and wait (Acquire) only after
  /// releasing the latch. Evaluates the `lockmgr.acquire` failpoint as
  /// Acquire does.
  Status TryAcquire(uint64_t txn_id, const LockResource& res, LockMode mode,
                    bool* granted);
  /// Release one resource held by `txn_id`.
  void Release(uint64_t txn_id, const LockResource& res);

  /// Release everything `txn_id` holds (commit/abort).
  void ReleaseAll(uint64_t txn_id);

  /// Resource hash helper for table names.
  static uint64_t HashTable(const std::string& name);

  /// Introspection for tests.
  int GrantedCount(const LockResource& res);

  /// Total granted locks across all shards — zero once every transaction
  /// has committed or aborted (the chaos harness's leak check).
  uint64_t TotalGranted();

 private:
  struct Waiter {
    uint64_t ticket;
    uint64_t txn;
    LockMode mode;
  };
  struct LockState {
    // txn -> strongest granted mode.
    std::map<uint64_t, LockMode> granted;
    // FIFO wait queue: a request must also wait behind earlier
    // incompatible waiters, so writers cannot starve readers (and vice
    // versa).
    std::vector<Waiter> waiters;
  };
  struct Shard {
    std::mutex mu;
    std::condition_variable cv;
    std::map<LockResource, LockState> locks;
    // txn -> resources held (within this shard).
    std::map<uint64_t, std::vector<LockResource>> held;
  };

  Shard& ShardFor(const LockResource& r) {
    return shards_[(r.table ^ static_cast<uint64_t>(r.rid * 0x9e3779b9)) %
                   kNumShards];
  }

  /// True if the request can be granted now. Otherwise, when `blockers`
  /// is given, it receives every transaction the request waits for.
  static bool CanGrant(const LockState& st, uint64_t txn_id, LockMode mode,
                       uint64_t ticket,
                       std::vector<uint64_t>* blockers = nullptr);

  /// One blocked request in the waits-for graph.
  struct WaitEdge {
    uint64_t txn;
    uint64_t age;
    std::vector<uint64_t> blockers;
  };
  /// Publish (or refresh) the waits-for edges of request `ticket` and
  /// report whether it should abort: true when the edges close a cycle
  /// whose youngest member is `txn`.
  bool DeadlockVictim(uint64_t ticket, uint64_t txn, uint64_t age,
                      const std::vector<uint64_t>& blockers);
  void EraseWait(uint64_t ticket);

  static constexpr int kNumShards = 64;
  Shard shards_[kNumShards];
  std::atomic<uint64_t> next_ticket_{1};

  /// Waits-for graph: ticket -> edges of a request blocked right now. Lock
  /// order: a shard mutex may be held while taking graph_mu_, never the
  /// reverse.
  std::mutex graph_mu_;
  std::map<uint64_t, WaitEdge> waits_;
};

}  // namespace hd
