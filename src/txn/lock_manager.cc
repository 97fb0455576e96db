#include "txn/lock_manager.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <unordered_map>

#include "common/failpoint.h"
#include "common/telemetry.h"

namespace hd {

namespace {

// Process-wide lock-manager telemetry. The wait histogram records only
// contended acquires (requests granted without blocking skip the clock
// entirely, keeping the uncontended OLTP path cheap).
struct LockStats {
  TCounter* grants = Telemetry::Instance().Counter("lock.grants");
  TCounter* waits = Telemetry::Instance().Counter("lock.waits");
  TCounter* timeouts = Telemetry::Instance().Counter("lock.timeouts");
  TCounter* deadlocks = Telemetry::Instance().Counter("lock.deadlocks");
  THistogram* wait_ns = Telemetry::Instance().Histogram("lock.wait_ns");
};

LockStats& Stats() {
  static LockStats s;
  return s;
}

}  // namespace

const char* LockModeName(LockMode m) {
  switch (m) {
    case LockMode::kIS: return "IS";
    case LockMode::kIX: return "IX";
    case LockMode::kS: return "S";
    case LockMode::kX: return "X";
  }
  return "?";
}

bool LockCompatible(LockMode held, LockMode req) {
  // Standard multi-granularity matrix.
  switch (held) {
    case LockMode::kIS:
      return req != LockMode::kX;
    case LockMode::kIX:
      return req == LockMode::kIS || req == LockMode::kIX;
    case LockMode::kS:
      return req == LockMode::kIS || req == LockMode::kS;
    case LockMode::kX:
      return false;
  }
  return false;
}

uint64_t LockManager::HashTable(const std::string& name) {
  return std::hash<std::string>{}(name) | 1;  // never zero
}

bool LockManager::CanGrant(const LockState& st, uint64_t txn_id,
                           LockMode mode, uint64_t ticket,
                           std::vector<uint64_t>* blockers) {
  if (blockers != nullptr) blockers->clear();
  bool grantable = true;
  for (const auto& [other, held] : st.granted) {
    if (other == txn_id) continue;
    if (!LockCompatible(held, mode)) {
      if (blockers == nullptr) return false;
      grantable = false;
      blockers->push_back(other);
    }
  }
  // Fairness: wait behind earlier incompatible waiters.
  for (const auto& w : st.waiters) {
    if (w.txn == txn_id || w.ticket >= ticket) continue;
    if (!LockCompatible(w.mode, mode) || !LockCompatible(mode, w.mode)) {
      if (blockers == nullptr) return false;
      grantable = false;
      blockers->push_back(w.txn);
    }
  }
  return grantable;
}

bool LockManager::DeadlockVictim(uint64_t ticket, uint64_t txn, uint64_t age,
                                 const std::vector<uint64_t>& blockers) {
  std::lock_guard<std::mutex> g(graph_mu_);
  waits_[ticket] = WaitEdge{txn, age, blockers};
  // Edges by transaction: parallel scan workers can block one transaction
  // on several resources at once.
  std::unordered_map<uint64_t, std::vector<uint64_t>> out;
  std::unordered_map<uint64_t, uint64_t> ages;
  for (const auto& [t, e] : waits_) {
    auto& v = out[e.txn];
    v.insert(v.end(), e.blockers.begin(), e.blockers.end());
    ages[e.txn] = e.age;
  }
  // Depth-first search from this request's blockers back to `txn`. Only
  // blocked transactions have out-edges, so a running holder ends a path.
  std::unordered_map<uint64_t, uint64_t> parent;
  std::vector<uint64_t> stack;
  for (uint64_t b : blockers) {
    if (parent.emplace(b, txn).second) stack.push_back(b);
  }
  while (!stack.empty()) {
    const uint64_t n = stack.back();
    stack.pop_back();
    if (n == txn) {
      // Walk the cycle; abort here only if no member is younger.
      for (uint64_t m = parent[txn]; m != txn; m = parent[m]) {
        const uint64_t m_age = ages[m];
        if (m_age > age || (m_age == age && m > txn)) return false;
      }
      return true;
    }
    auto it = out.find(n);
    if (it == out.end()) continue;
    for (uint64_t m : it->second) {
      if (parent.emplace(m, n).second) stack.push_back(m);
    }
  }
  return false;
}

void LockManager::EraseWait(uint64_t ticket) {
  std::lock_guard<std::mutex> g(graph_mu_);
  waits_.erase(ticket);
}

namespace {
/// Strength order for upgrades: IS < IX < S < X (S/IX incomparable in
/// theory — we rank X strongest, then S, then IX, then IS, which is safe
/// for our usage where upgrades are IS->S, IX->X, S->X).
int Strength(LockMode m) {
  switch (m) {
    case LockMode::kIS: return 0;
    case LockMode::kIX: return 1;
    case LockMode::kS: return 2;
    case LockMode::kX: return 3;
  }
  return 0;
}
}  // namespace

Status LockManager::Acquire(uint64_t txn_id, const LockResource& res,
                            LockMode mode, int timeout_ms, uint64_t age) {
  // Spurious timeout injection: the caller sees the same Aborted status a
  // real deadlock victim gets, so its rollback/retry path is exercised
  // without having to manufacture an actual lock cycle.
  HD_FAILPOINT_RETURN("lockmgr.acquire");
  Shard& sh = ShardFor(res);
  std::unique_lock<std::mutex> g(sh.mu);
  LockState& st = sh.locks[res];
  auto it = st.granted.find(txn_id);
  if (it != st.granted.end() && Strength(it->second) >= Strength(mode)) {
    return Status::OK();  // already held at sufficient strength
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  const uint64_t ticket = next_ticket_.fetch_add(1);
  st.waiters.push_back(Waiter{ticket, txn_id, mode});
  auto remove_waiter = [&] {
    for (auto it = st.waiters.begin(); it != st.waiters.end(); ++it) {
      if (it->ticket == ticket) {
        st.waiters.erase(it);
        break;
      }
    }
  };
  // Contended path: time the wait (fast grants below never take a clock).
  const bool contended = !CanGrant(st, txn_id, mode, ticket);
  std::chrono::steady_clock::time_point wait_start;
  if (contended) {
    wait_start = std::chrono::steady_clock::now();
    Stats().waits->Add(1);
  }
  auto record_wait = [&] {
    if (!contended) return;
    Stats().wait_ns->Record(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wait_start)
            .count());
  };
  // A blocked request publishes its waits-for edges and re-checks them on
  // every wake-up; the poll bounds how long the youngest member of a cycle
  // closed by another transaction's request sleeps before it notices.
  constexpr auto kDeadlockPoll = std::chrono::milliseconds(2);
  if (age == 0) age = txn_id;
  std::vector<uint64_t> blockers;
  bool in_graph = false;
  auto give_up = [&](TCounter* counter, const char* why) {
    if (in_graph) EraseWait(ticket);
    remove_waiter();
    sh.cv.notify_all();  // successors may now be grantable
    record_wait();
    counter->Add(1);
    return Status::Aborted(why);
  };
  while (!CanGrant(st, txn_id, mode, ticket, &blockers)) {
    in_graph = true;
    if (DeadlockVictim(ticket, txn_id, age, blockers)) {
      return give_up(Stats().deadlocks, "deadlock victim (waits-for cycle)");
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return give_up(Stats().timeouts, "lock timeout (deadlock victim)");
    }
    sh.cv.wait_until(g, std::min(deadline, now + kDeadlockPoll));
  }
  if (in_graph) EraseWait(ticket);
  remove_waiter();
  sh.cv.notify_all();  // our dequeue may unblock same-mode successors
  record_wait();
  Stats().grants->Add(1);
  const bool upgrade = st.granted.count(txn_id) > 0;
  st.granted[txn_id] = mode;
  if (!upgrade) sh.held[txn_id].push_back(res);
  return Status::OK();
}

Status LockManager::TryAcquire(uint64_t txn_id, const LockResource& res,
                               LockMode mode, bool* granted) {
  *granted = false;
  HD_FAILPOINT_RETURN("lockmgr.acquire");
  Shard& sh = ShardFor(res);
  std::lock_guard<std::mutex> g(sh.mu);
  auto lit = sh.locks.find(res);
  if (lit != sh.locks.end()) {
    const LockState& cur = lit->second;
    auto held = cur.granted.find(txn_id);
    if (held != cur.granted.end() &&
        Strength(held->second) >= Strength(mode)) {
      *granted = true;
      return Status::OK();
    }
    if (!CanGrant(cur, txn_id, mode, next_ticket_.load())) {
      return Status::OK();  // must wait; leaves no entry behind
    }
  }
  LockState& st = sh.locks[res];
  auto it = st.granted.find(txn_id);
  Stats().grants->Add(1);
  const bool upgrade = it != st.granted.end();
  st.granted[txn_id] = mode;
  if (!upgrade) sh.held[txn_id].push_back(res);
  *granted = true;
  return Status::OK();
}

void LockManager::Release(uint64_t txn_id, const LockResource& res) {
  Shard& sh = ShardFor(res);
  std::lock_guard<std::mutex> g(sh.mu);
  auto it = sh.locks.find(res);
  if (it == sh.locks.end()) return;
  it->second.granted.erase(txn_id);
  if (it->second.granted.empty() && it->second.waiters.empty()) {
    sh.locks.erase(it);
  }
  auto hit = sh.held.find(txn_id);
  if (hit != sh.held.end()) {
    auto& v = hit->second;
    for (auto rit = v.begin(); rit != v.end(); ++rit) {
      if (*rit == res) {
        v.erase(rit);
        break;
      }
    }
    if (v.empty()) sh.held.erase(hit);
  }
  sh.cv.notify_all();
}

void LockManager::ReleaseAll(uint64_t txn_id) {
  for (auto& sh : shards_) {
    std::lock_guard<std::mutex> g(sh.mu);
    auto hit = sh.held.find(txn_id);
    if (hit == sh.held.end()) continue;
    for (const auto& res : hit->second) {
      auto it = sh.locks.find(res);
      if (it == sh.locks.end()) continue;
      it->second.granted.erase(txn_id);
      if (it->second.granted.empty() && it->second.waiters.empty()) {
        sh.locks.erase(it);
      }
    }
    sh.held.erase(hit);
    sh.cv.notify_all();
  }
}

uint64_t LockManager::TotalGranted() {
  uint64_t n = 0;
  for (auto& sh : shards_) {
    std::lock_guard<std::mutex> g(sh.mu);
    for (const auto& [res, st] : sh.locks) n += st.granted.size();
  }
  return n;
}

int LockManager::GrantedCount(const LockResource& res) {
  Shard& sh = ShardFor(res);
  std::lock_guard<std::mutex> g(sh.mu);
  auto it = sh.locks.find(res);
  return it == sh.locks.end() ? 0 : static_cast<int>(it->second.granted.size());
}

}  // namespace hd
