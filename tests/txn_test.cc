// Lock manager and transaction tests, including the SI version store and
// concurrent mixed execution through the executor.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/telemetry.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "txn/transaction.h"
#include "workload/micro.h"
#include "workload/mixed_driver.h"
#include "workload/tpch.h"

namespace hd {
namespace {

TEST(LockCompatTest, Matrix) {
  using M = LockMode;
  EXPECT_TRUE(LockCompatible(M::kIS, M::kIS));
  EXPECT_TRUE(LockCompatible(M::kIS, M::kIX));
  EXPECT_TRUE(LockCompatible(M::kIS, M::kS));
  EXPECT_FALSE(LockCompatible(M::kIS, M::kX));
  EXPECT_TRUE(LockCompatible(M::kIX, M::kIX));
  EXPECT_FALSE(LockCompatible(M::kIX, M::kS));
  EXPECT_TRUE(LockCompatible(M::kS, M::kS));
  EXPECT_FALSE(LockCompatible(M::kS, M::kX));
  EXPECT_FALSE(LockCompatible(M::kX, M::kS));
}

TEST(LockManagerTest, GrantAndRelease) {
  LockManager lm;
  LockResource r{LockManager::HashTable("t"), 5};
  ASSERT_TRUE(lm.Acquire(1, r, LockMode::kX, 50).ok());
  EXPECT_EQ(lm.GrantedCount(r), 1);
  lm.Release(1, r);
  ASSERT_TRUE(lm.Acquire(2, r, LockMode::kX, 50).ok());
  lm.ReleaseAll(2);
  EXPECT_EQ(lm.GrantedCount(r), 0);
}

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm;
  LockResource r{LockManager::HashTable("t"), 1};
  ASSERT_TRUE(lm.Acquire(1, r, LockMode::kS, 50).ok());
  ASSERT_TRUE(lm.Acquire(2, r, LockMode::kS, 50).ok());
  EXPECT_EQ(lm.GrantedCount(r), 2);
}

TEST(LockManagerTest, ConflictTimesOut) {
  LockManager lm;
  LockResource r{LockManager::HashTable("t"), 1};
  ASSERT_TRUE(lm.Acquire(1, r, LockMode::kX, 50).ok());
  Status s = lm.Acquire(2, r, LockMode::kX, 50);
  EXPECT_TRUE(s.IsAborted());
}

TEST(LockManagerTest, ReacquireIsIdempotent) {
  LockManager lm;
  LockResource r{LockManager::HashTable("t"), 1};
  ASSERT_TRUE(lm.Acquire(1, r, LockMode::kX, 50).ok());
  ASSERT_TRUE(lm.Acquire(1, r, LockMode::kX, 50).ok());
  ASSERT_TRUE(lm.Acquire(1, r, LockMode::kS, 50).ok());  // weaker: no-op
}

TEST(LockManagerTest, UpgradeSToX) {
  LockManager lm;
  LockResource r{LockManager::HashTable("t"), 1};
  ASSERT_TRUE(lm.Acquire(1, r, LockMode::kS, 50).ok());
  ASSERT_TRUE(lm.Acquire(1, r, LockMode::kX, 50).ok());
  // Another S must now fail.
  EXPECT_TRUE(lm.Acquire(2, r, LockMode::kS, 50).IsAborted());
}

TEST(LockManagerTest, BlockedWaiterWakesOnRelease) {
  LockManager lm;
  LockResource r{LockManager::HashTable("t"), 1};
  ASSERT_TRUE(lm.Acquire(1, r, LockMode::kX, 50).ok());
  std::thread t([&] {
    EXPECT_TRUE(lm.Acquire(2, r, LockMode::kX, 2000).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  lm.ReleaseAll(1);
  t.join();
}

TEST(LockManagerTest, FairnessReaderNotStarved) {
  // A waiting S behind an X must be granted before later IX churn.
  LockManager lm;
  LockResource r{LockManager::HashTable("t"), LockResource::kTableResource};
  ASSERT_TRUE(lm.Acquire(1, r, LockMode::kIX, 50).ok());
  std::atomic<bool> s_granted{false};
  std::thread reader([&] {
    EXPECT_TRUE(lm.Acquire(2, r, LockMode::kS, 3000).ok());
    s_granted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // Churn IX from other transactions; they must queue behind the S waiter.
  Status s3 = lm.Acquire(3, r, LockMode::kIX, 30);
  EXPECT_TRUE(s3.IsAborted());  // blocked behind the S waiter, times out
  lm.ReleaseAll(1);
  reader.join();
  EXPECT_TRUE(s_granted);
}

// Two IX holders converting to S wait for each other's IX: a cycle no
// timeout should have to break. The youngest member aborts at once, on
// whichever side closed the cycle, and the other is granted once the
// victim releases (as its rollback does).
struct ConversionCycle {
  uint64_t first_id, first_age;    // converts first, then waits
  uint64_t second_id, second_age;  // closes the cycle
};

void RunConversionCycle(const ConversionCycle& c, bool first_is_victim) {
  LockManager lm;
  LockResource r{LockManager::HashTable("t"), LockResource::kTableResource};
  const auto deadlocks = [] {
    return Telemetry::Instance().Snapshot().counters["lock.deadlocks"];
  };
  const uint64_t deadlocks_before = deadlocks();
  ASSERT_TRUE(lm.Acquire(c.first_id, r, LockMode::kIX, 50, c.first_age).ok());
  ASSERT_TRUE(
      lm.Acquire(c.second_id, r, LockMode::kIX, 50, c.second_age).ok());
  constexpr int kTimeoutMs = 10000;
  Status first_status;
  std::thread first([&] {
    first_status = lm.Acquire(c.first_id, r, LockMode::kS, kTimeoutMs,
                              c.first_age);
    if (!first_status.ok()) lm.ReleaseAll(c.first_id);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto t0 = std::chrono::steady_clock::now();
  Status second_status =
      lm.Acquire(c.second_id, r, LockMode::kS, kTimeoutMs, c.second_age);
  if (!second_status.ok()) lm.ReleaseAll(c.second_id);
  first.join();
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_LT(ms, kTimeoutMs / 2.0);  // detected, not timed out
  if (first_is_victim) {
    EXPECT_TRUE(first_status.IsAborted()) << first_status.ToString();
    EXPECT_TRUE(second_status.ok()) << second_status.ToString();
  } else {
    EXPECT_TRUE(first_status.ok()) << first_status.ToString();
    EXPECT_TRUE(second_status.IsAborted()) << second_status.ToString();
  }
  EXPECT_EQ(deadlocks(), deadlocks_before + 1);
  lm.ReleaseAll(c.first_id);
  lm.ReleaseAll(c.second_id);
  EXPECT_EQ(lm.TotalGranted(), 0u);
}

TEST(LockManagerTest, ConversionDeadlockAbortsYoungestClosingRequest) {
  RunConversionCycle({1, 0, 2, 0}, /*first_is_victim=*/false);
}

TEST(LockManagerTest, ConversionDeadlockAbortsYoungestWaitingRequest) {
  // The older transaction closes the cycle; the younger one, already
  // asleep, finds the cycle on its own re-check and steps aside.
  RunConversionCycle({2, 0, 1, 0}, /*first_is_victim=*/true);
}

TEST(LockManagerTest, RetriedTransactionKeepsItsAge) {
  // Txn 5 is a retry of an operation first started as txn 1: it outranks
  // txn 3, which began later, although its own id is larger.
  RunConversionCycle({5, 1, 3, 0}, /*first_is_victim=*/false);
}

TEST(TransactionTest, BeginCommitReleasesLocks) {
  TransactionManager tm;
  auto t1 = tm.Begin(IsolationLevel::kReadCommitted);
  LockResource r{LockManager::HashTable("t"), 9};
  ASSERT_TRUE(tm.locks()->Acquire(t1->id(), r, LockMode::kX, 50).ok());
  tm.Commit(t1.get());
  auto t2 = tm.Begin(IsolationLevel::kReadCommitted);
  EXPECT_TRUE(tm.locks()->Acquire(t2->id(), r, LockMode::kX, 50).ok());
  tm.Commit(t2.get());
}

TEST(TransactionTest, VersionChains) {
  TransactionManager tm;
  const uint64_t th = LockManager::HashTable("t");
  auto reader = tm.Begin(IsolationLevel::kSnapshot);
  const uint64_t snap = reader->snapshot_ts();
  // Writer updates row 5 twice after the snapshot.
  auto w1 = tm.Begin(IsolationLevel::kReadCommitted);
  tm.NoteVersion(th, 5);
  tm.Commit(w1.get());
  auto w2 = tm.Begin(IsolationLevel::kReadCommitted);
  tm.NoteVersion(th, 5);
  tm.Commit(w2.get());
  EXPECT_EQ(tm.VersionChainLength(th, 5, snap), 2);
  EXPECT_EQ(tm.VersionChainLength(th, 6, snap), 0);
  // A fresh snapshot sees no newer versions.
  auto reader2 = tm.Begin(IsolationLevel::kSnapshot);
  EXPECT_EQ(tm.VersionChainLength(th, 5, reader2->snapshot_ts()), 0);
  tm.Commit(reader.get());
  tm.Commit(reader2.get());
  tm.GarbageCollect();
  EXPECT_EQ(tm.version_count(), 0u);
}

TEST(TransactionTest, GcKeepsVersionsForActiveSnapshots) {
  TransactionManager tm;
  const uint64_t th = LockManager::HashTable("t");
  auto reader = tm.Begin(IsolationLevel::kSnapshot);
  auto w = tm.Begin(IsolationLevel::kReadCommitted);
  tm.NoteVersion(th, 1);
  tm.Commit(w.get());
  tm.GarbageCollect();
  EXPECT_GT(tm.version_count(), 0u);  // reader still needs them
  tm.Commit(reader.get());
  tm.GarbageCollect();
  EXPECT_EQ(tm.version_count(), 0u);
}

TEST(TransactionTest, VersionedSinceListsOneTablesNewerRows) {
  TransactionManager tm;
  const uint64_t th = LockManager::HashTable("t");
  const uint64_t other = LockManager::HashTable("u");
  using Rids = std::vector<int64_t>;
  using Notes = std::vector<std::pair<uint64_t, int64_t>>;
  auto write = [&](const Notes& notes) {
    auto w = tm.Begin(IsolationLevel::kReadCommitted);
    for (const auto& [t, rid] : notes) tm.NoteVersion(t, rid, w.get());
    return w;
  };
  auto commit = [&](const Notes& notes) {
    ASSERT_TRUE(tm.Commit(write(notes).get()).ok());
  };
  // Committed before the snapshot: not listed.
  commit({{th, 1}, {other, 2}});
  auto reader = tm.Begin(IsolationLevel::kSnapshot);
  const uint64_t snap = reader->snapshot_ts();
  EXPECT_EQ(tm.VersionedSince(th, snap), Rids{});
  // After it: t's rows 7 (twice) and 3, u's row 5, and an open writer's 9.
  commit({{th, 7}, {other, 5}, {th, 3}});
  commit({{th, 7}});
  auto loser = write({{th, 9}});
  EXPECT_EQ(tm.VersionedSince(th, snap), (Rids{3, 7, 9}));
  tm.Abort(loser.get());
  EXPECT_EQ(tm.VersionedSince(th, snap), (Rids{3, 7}));
  EXPECT_EQ(tm.VersionedSince(other, snap), Rids{5});
  EXPECT_EQ(tm.VersionChainLength(th, 7, snap), 2);
  // Commits trim below the oldest open snapshot: the reader's rows stay.
  for (int64_t i = 0; i < 3; ++i) commit({{th, 100 + i}, {other, 100 + i}});
  EXPECT_EQ(tm.VersionedSince(th, snap), (Rids{3, 7, 100, 101, 102}));
  // A later snapshot lists only what comes after it. Once the first
  // reader ends, a commit that writes t trims t's list below the second
  // reader; u's list keeps its rows until a writer of u commits.
  auto reader2 = tm.Begin(IsolationLevel::kSnapshot);
  EXPECT_EQ(tm.VersionedSince(th, reader2->snapshot_ts()), Rids{});
  ASSERT_TRUE(tm.Commit(reader.get()).ok());
  commit({{th, 42}});
  EXPECT_EQ(tm.VersionedSince(th, snap), Rids{42});
  EXPECT_EQ(tm.VersionedSince(th, reader2->snapshot_ts()), Rids{42});
  EXPECT_EQ(tm.VersionedSince(other, snap), (Rids{5, 100, 101, 102}));
  EXPECT_EQ(tm.VersionedSince(LockManager::HashTable("none"), 0), Rids{});
  ASSERT_TRUE(tm.Commit(reader2.get()).ok());
  tm.GarbageCollect();
  EXPECT_EQ(tm.VersionedSince(th, 0), Rids{});
  EXPECT_EQ(tm.VersionedSince(other, 0), Rids{});
}

int64_t VersionsGauge() {
  return Telemetry::Instance().Gauge("txn.versions")->Value();
}

TEST(TransactionTest, CommitsKeepTheVersionStoreBounded) {
  TransactionManager tm;
  const uint64_t th = LockManager::HashTable("t");
  const int64_t gauge0 = VersionsGauge();
  // Each commit sweeps one of the 64 shards, so with no other snapshot
  // open only the versions of the last 64 single-row commits survive.
  for (int i = 0; i < 10000; ++i) {
    auto t = tm.Begin(IsolationLevel::kSnapshot);
    tm.NoteVersion(th, i, t.get());
    ASSERT_TRUE(tm.Commit(t.get()).ok());
    ASSERT_LE(tm.version_count(), 64u) << "after commit " << i;
  }
  EXPECT_EQ(VersionsGauge() - gauge0,
            static_cast<int64_t>(tm.version_count()));
}

TEST(TransactionTest, OpenSnapshotPinsVersionsAcrossSweeps) {
  TransactionManager tm;
  const uint64_t th = LockManager::HashTable("t");
  auto reader = tm.Begin(IsolationLevel::kSnapshot);
  const uint64_t snap = reader->snapshot_ts();
  // A transaction that shares the reader's timestamp ends first; the
  // reader's registration must survive it.
  auto twin = tm.Begin(IsolationLevel::kSnapshot);
  ASSERT_EQ(twin->snapshot_ts(), snap);
  ASSERT_TRUE(tm.Commit(twin.get()).ok());
  constexpr int kRows = 100;
  for (int r = 0; r < kRows; ++r) {
    for (int k = 0; k <= r % 3; ++k) {
      auto w = tm.Begin(IsolationLevel::kSnapshot);
      tm.NoteVersion(th, r, w.get());
      ASSERT_TRUE(tm.Commit(w.get()).ok());
    }
  }
  // Two full rounds of the sweep: every shard trimmed at least twice.
  for (int i = 0; i < 128; ++i) {
    auto t = tm.Begin(IsolationLevel::kReadCommitted);
    ASSERT_TRUE(tm.Commit(t.get()).ok());
  }
  for (int r = 0; r < kRows; ++r) {
    EXPECT_EQ(tm.VersionChainLength(th, r, snap), r % 3 + 1) << "row " << r;
  }
  // Once the reader ends, its commit and 63 more sweep every shard.
  ASSERT_TRUE(tm.Commit(reader.get()).ok());
  EXPECT_GT(tm.version_count(), 0u);
  for (int i = 0; i < 63; ++i) {
    auto t = tm.Begin(IsolationLevel::kReadCommitted);
    ASSERT_TRUE(tm.Commit(t.get()).ok());
  }
  EXPECT_EQ(tm.version_count(), 0u);
}

TEST(TransactionTest, ConcurrentBeginNoteCommit) {
  // Writers commit (sweeping shards) and abort (undoing versions) while
  // checkers hold snapshots: a version written inside an open snapshot
  // must survive every concurrent sweep until that snapshot ends.
  TransactionManager tm;
  const uint64_t th = LockManager::HashTable("t");
  const uint64_t th_check = LockManager::HashTable("check");
  const int64_t gauge0 = VersionsGauge();
  constexpr int kWriters = 3;
  constexpr int kOps = 3000;
  std::atomic<uint64_t> commits{0};
  std::atomic<int> writers_left{kWriters};
  std::atomic<int> lost{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kOps; ++i) {
        auto t = tm.Begin(i % 2 ? IsolationLevel::kSnapshot
                                : IsolationLevel::kReadCommitted);
        tm.NoteVersion(th, (w * kOps + i) % 512, t.get());
        if (i % 8 == 7) {
          tm.Abort(t.get());
        } else {
          EXPECT_TRUE(tm.Commit(t.get()).ok());
          commits.fetch_add(1);
        }
      }
      writers_left.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {
    for (int64_t rid = 0; writers_left.load() > 0; ++rid) {
      auto t = tm.Begin(IsolationLevel::kSnapshot);
      tm.NoteVersion(th_check, rid, t.get());
      const uint64_t until = commits.load() + 64;
      while (commits.load() < until && writers_left.load() > 0) {
        std::this_thread::yield();
      }
      if (tm.VersionChainLength(th_check, rid, t->snapshot_ts()) != 1) {
        lost.fetch_add(1);
      }
      EXPECT_TRUE(tm.Commit(t.get()).ok());
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(lost.load(), 0);
  EXPECT_EQ(VersionsGauge() - gauge0,
            static_cast<int64_t>(tm.version_count()));
  tm.GarbageCollect();
  EXPECT_EQ(tm.version_count(), 0u);
  EXPECT_EQ(VersionsGauge(), gauge0);
}

// ---------------- executor under transactions ----------------

TEST(TxnExecTest, UpdateConflictAborts) {
  Database db;
  MicroOptions mo;
  mo.rows = 1000;
  mo.max_value = 100;
  MakeUniformIntTable(&db, "t", 2, mo);
  TransactionManager tm;
  Optimizer opt(&db);
  Configuration cfg = Configuration::FromCatalog(db);

  Query upd;
  upd.kind = Query::Kind::kUpdate;
  upd.base.table = "t";
  upd.base.preds = {Pred::Lt(0, Value::Int64(200))};
  upd.sets = {UpdateSet::Add(1, 1.0)};

  auto t1 = tm.Begin(IsolationLevel::kReadCommitted);
  {
    ExecContext ctx;
    ctx.db = &db;
    ctx.txns = &tm;
    ctx.txn = t1.get();
    ctx.lock_timeout_ms = 30;
    Executor ex(ctx);
    QueryResult r = ex.Execute(upd, opt.Plan(upd, cfg, {})->plan);
    ASSERT_TRUE(r.ok()) << r.status.ToString();
  }
  // A second txn updating the same rows must time out.
  auto t2 = tm.Begin(IsolationLevel::kReadCommitted);
  {
    ExecContext ctx;
    ctx.db = &db;
    ctx.txns = &tm;
    ctx.txn = t2.get();
    ctx.lock_timeout_ms = 30;
    Executor ex(ctx);
    QueryResult r = ex.Execute(upd, opt.Plan(upd, cfg, {})->plan);
    EXPECT_TRUE(r.status.IsAborted());
  }
  tm.Abort(t2.get());
  tm.Commit(t1.get());
}

TEST(TxnExecTest, MixedDriverRunsCleanly) {
  Database db;
  TpchOptions to;
  to.rows = 50000;
  Table* t = MakeLineitem(&db, "li", to);
  ASSERT_TRUE(t->SetPrimary(PrimaryKind::kBTree,
                            {LineitemCols::kOrderKey,
                             LineitemCols::kLineNumber}).ok());
  ASSERT_TRUE(
      t->CreateSecondaryBTree("ix_ship", {LineitemCols::kShipDate}, {}).ok());
  TransactionManager tm;
  MixedOptions mo;
  mo.threads = 4;
  mo.total_ops = 120;
  OpGenerator gen = [](int, Rng* rng) {
    const int32_t d = static_cast<int32_t>(
        rng->Uniform(kTpchShipDateLo, kTpchShipDateHi - 3));
    if (rng->Flip(0.2)) {
      Query q = TpchQ5("li", d);
      q.id = "scan";
      return q;
    }
    Query q = TpchQ4("li", 5, d);
    q.id = "update";
    return q;
  };
  MixedResult r = RunMixedWorkload(&db, &tm, gen, mo);
  uint64_t total = 0;
  for (auto& [type, st] : r.per_type) total += st.count;
  EXPECT_EQ(total, 120u);
  // Data integrity: the table is still fully consistent.
  EXPECT_EQ(t->num_rows(), 50000u);
}

TEST(TxnExecTest, SnapshotReadersSkipLocks) {
  Database db;
  MicroOptions mo;
  mo.rows = 10000;
  mo.max_value = 100;
  MakeUniformIntTable(&db, "t", 2, mo);
  TransactionManager tm;
  Optimizer opt(&db);
  Configuration cfg = Configuration::FromCatalog(db);

  // Writer holds X locks on some rows.
  Query upd;
  upd.kind = Query::Kind::kUpdate;
  upd.base.table = "t";
  upd.base.preds = {Pred::Eq(0, Value::Int64(50))};
  upd.sets = {UpdateSet::Add(1, 1.0)};
  auto w = tm.Begin(IsolationLevel::kReadCommitted);
  {
    ExecContext ctx;
    ctx.db = &db;
    ctx.txns = &tm;
    ctx.txn = w.get();
    Executor ex(ctx);
    ASSERT_TRUE(ex.Execute(upd, opt.Plan(upd, cfg, {})->plan).ok());
  }
  // An SI reader scans everything without blocking.
  auto r = tm.Begin(IsolationLevel::kSnapshot);
  {
    Query scan = MicroQ1("t", 1.0, 100);
    ExecContext ctx;
    ctx.db = &db;
    ctx.txns = &tm;
    ctx.txn = r.get();
    ctx.lock_timeout_ms = 30;
    Executor ex(ctx);
    QueryResult res = ex.Execute(scan, opt.Plan(scan, cfg, {})->plan);
    EXPECT_TRUE(res.ok()) << res.status.ToString();
  }
  tm.Commit(w.get());
  tm.Commit(r.get());
}

}  // namespace
}  // namespace hd
