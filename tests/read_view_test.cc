// Columnstore read views (columnstore/columnstore.h: CsiReadView) and the
// executor's per-table latching (DESIGN.md, "Latching and read views").
//
// A SELECT over a columnstore pins a view under the table latch and scans
// it unlatched, so writers to the same table run while the scan does. The
// tests here check the promises that makes:
//   - a writer never waits for a parked columnstore scan, and the scan
//     still returns the table as of its pin;
//   - every concurrent scan sees each statement's effect exactly once
//     (serial, morsel-parallel and shared-pass scans), while updates,
//     delta closes, delete-buffer compaction and reorganization run;
//   - a shared-scan consumer only joins a pass over its own row-group
//     version;
//   - snapshot reads, which collect the rows versioned since their
//     snapshot, return the same rows while transactions write and trim.
// None of them sleeps: pauses are blocking failpoint hooks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "catalog/string_dict.h"
#include "common/failpoint.h"
#include "common/latch.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "exec/executor.h"
#include "exec/scan_scheduler.h"
#include "storage/buffer_pool.h"
#include "storage/disk_model.h"
#include "txn/transaction.h"
#include "workload/micro.h"

namespace hd {
namespace {

constexpr uint64_t kRows = 20'000;
constexpr int64_t kMaxV = 999;      // k, a and b are uniform in [0, kMaxV]
constexpr int64_t kOutside = 5000;  // inserted rows' k: outside the band

/// t(k, a, b): heap primary plus a secondary columnstore, so deletes go
/// through the delete buffer and updates land in the delta store.
Table* BuildTable(Database* db) {
  MicroOptions mo;
  mo.rows = kRows;
  mo.max_value = kMaxV;
  Table* t = MakeUniformIntTable(db, "t", 3, mo);
  if (t == nullptr || !t->CreateSecondaryColumnStore("csi_t").ok()) {
    return nullptr;
  }
  return t;
}

ColumnStoreIndex* Csi(Table* t) { return t->FindSecondary("csi_t")->csi.get(); }

/// SELECT count(*), sum(a + b) FROM t WHERE k <= kMaxV, over the CSI.
QueryResult CountSum(Database* db, int dop, ScanScheduler* sched = nullptr) {
  Query q;
  q.base.table = "t";
  q.base.preds.push_back(Pred::Le(0, Value::Int64(kMaxV)));
  q.aggs.push_back(AggSpec::CountStar());
  q.aggs.push_back(AggSpec::Sum(Expr::Add(Expr::Col(0, 1), Expr::Col(0, 2))));
  PhysicalPlan p;
  p.base.kind = AccessPath::Kind::kCsiScan;
  p.base.index_name = "csi_t";
  p.agg = AggMethod::kHash;
  p.dop = dop;
  ExecContext ctx;
  ctx.db = db;
  ctx.max_dop = dop;
  ctx.scan_scheduler = sched;
  return Executor(ctx).Execute(q, p);
}

QueryResult RunDml(Database* db, const Query& q) {
  PhysicalPlan p;  // heap scan qualifies UPDATE rows
  ExecContext ctx;
  ctx.db = db;
  ctx.max_dop = 1;
  return Executor(ctx).Execute(q, p);
}

/// UPDATE t SET a = a + d, b = b - d WHERE k = key: sum(a + b) unchanged.
Query Shift(int64_t key, int64_t d) {
  Query q;
  q.kind = Query::Kind::kUpdate;
  q.base.table = "t";
  q.base.preds.push_back(Pred::Eq(0, Value::Int64(key)));
  q.sets.push_back(UpdateSet::Add(1, static_cast<double>(d)));
  q.sets.push_back(UpdateSet::Add(2, static_cast<double>(-d)));
  return q;
}

Query InsertOutside(int n, int64_t first) {
  Query q;
  q.kind = Query::Kind::kInsert;
  q.base.table = "t";
  for (int i = 0; i < n; ++i) {
    q.insert_rows.push_back({Value::Int64(kOutside + first + i),
                             Value::Int64(first + i), Value::Int64(7)});
  }
  return q;
}

struct Image {
  int64_t count = 0;
  double sum = 0;
};

Image Read(const QueryResult& r) {
  EXPECT_TRUE(r.ok()) << r.status.ToString();
  if (!r.ok() || r.rows.empty()) return {};
  return Image{r.rows[0][0].i64(), r.rows[0][1].f64()};
}

/// Parks the first thread that reaches a failpoint until Release().
struct Gate {
  std::promise<void> arrived, released;
  std::shared_future<void> release_f{released.get_future().share()};
  FailSpec Spec() {
    FailSpec s = FailSpec::OneShot(Code::kOk);
    s.hook = [this] {
      arrived.set_value();
      release_f.wait();
    };
    return s;
  }
  void Release() { released.set_value(); }
};

// ---------------------------------------------------------------------
// (a) A parked columnstore scan holds no latch.
// ---------------------------------------------------------------------

TEST(ReadViewTest, WritersCompleteWhileScanIsParked) {
  Database db;
  Table* t = BuildTable(&db);
  ASSERT_NE(t, nullptr);
  const Image before = Read(CountSum(&db, 1));
  ASSERT_EQ(before.count, static_cast<int64_t>(kRows));

  Gate gate;
  ScopedFailPoint fp("exec.csi_scan", gate.Spec());
  std::future<QueryResult> select =
      std::async(std::launch::async, [&] { return CountSum(&db, 1); });
  gate.arrived.get_future().wait();  // the SELECT sits inside its scan

  // Both writers need the table's exclusive latch. With the scan holding
  // it shared, they would wait forever here.
  Query ins;
  ins.kind = Query::Kind::kInsert;
  ins.base.table = "t";
  ins.insert_rows.push_back({Value::Int64(1), Value::Int64(500), Value::Int64(500)});
  ASSERT_TRUE(RunDml(&db, ins).ok());
  Query upd;
  upd.kind = Query::Kind::kUpdate;
  upd.base.table = "t";
  upd.base.preds.push_back(Pred::Le(0, Value::Int64(kMaxV)));
  upd.sets.push_back(UpdateSet::Add(1, 3));
  const QueryResult ur = RunDml(&db, upd);
  ASSERT_TRUE(ur.ok()) << ur.status.ToString();
  ASSERT_EQ(ur.affected_rows, kRows + 1);

  gate.Release();
  const Image during = Read(select.get());
  EXPECT_EQ(during.count, before.count);  // the image as of the pin
  EXPECT_EQ(during.sum, before.sum);

  const Image after = Read(CountSum(&db, 1));
  EXPECT_EQ(after.count, before.count + 1);
  EXPECT_EQ(after.sum, before.sum + 1000 + 3.0 * (kRows + 1));
}

// A DML statement that must wait for a row lock waits with its table
// latch released, so other statements on the table keep running and the
// wait stays visible to deadlock detection.
TEST(ReadViewTest, UpdateWaitsForRowLockWithoutTheLatch) {
  Database db;
  Table* t = BuildTable(&db);
  ASSERT_NE(t, nullptr);
  TransactionManager txns;
  auto run = [&](Transaction* txn, const Query& q, const PhysicalPlan& p) {
    ExecContext ctx;
    ctx.db = &db;
    ctx.max_dop = 1;
    ctx.txns = &txns;
    ctx.txn = txn;
    ctx.lock_timeout_ms = 600'000;  // only a release ends the wait
    return Executor(ctx).Execute(q, p);
  };
  const PhysicalPlan heap_scan;
  const Query upd = Shift(7, 5);
  auto holder = txns.Begin(IsolationLevel::kReadCommitted);
  const QueryResult first = run(holder.get(), upd, heap_scan);
  ASSERT_TRUE(first.ok()) << first.status.ToString();
  ASSERT_GT(first.affected_rows, 0u);

  TCounter* waits = Telemetry::Instance().Counter("lock.waits");
  const uint64_t waits0 = waits->Value();
  auto waiter = txns.Begin(IsolationLevel::kReadCommitted);
  std::future<QueryResult> second = std::async(std::launch::async, [&] {
    return run(waiter.get(), upd, heap_scan);
  });
  while (waits->Value() == waits0) std::this_thread::yield();

  // The waiting UPDATE holds no latch: a heap scan of the same table runs.
  Query sum;
  sum.base.table = "t";
  sum.aggs.push_back(AggSpec::CountStar());
  const QueryResult r = run(nullptr, sum, heap_scan);
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(r.rows[0][0].i64(), static_cast<int64_t>(kRows));

  ASSERT_TRUE(txns.Commit(holder.get()).ok());
  const QueryResult got = second.get();
  ASSERT_TRUE(got.ok()) << got.status.ToString();
  EXPECT_EQ(got.affected_rows, first.affected_rows);
  ASSERT_TRUE(txns.Commit(waiter.get()).ok());
}

// ---------------------------------------------------------------------
// (b) Exactly once: concurrent scans against every kind of CSI change.
// ---------------------------------------------------------------------

enum class ScanMode { kSerial, kDop4, kShared };

class ExactlyOnceTest : public ::testing::TestWithParam<ScanMode> {};

TEST_P(ExactlyOnceTest, CountAndSumHoldUnderConcurrentWriters) {
  Database db;
  Table* t = BuildTable(&db);
  ASSERT_NE(t, nullptr);
  ColumnStoreIndex* csi = Csi(t);
  const Image want = Read(CountSum(&db, 1));
  ASSERT_EQ(want.count, static_cast<int64_t>(kRows));
  TCounter* flushes = Telemetry::Instance().Counter("csi.delta_flushes");
  TCounter* reorgs = Telemetry::Instance().Counter("csi.reorganizes");
  const uint64_t flushes0 = flushes->Value(), reorgs0 = reorgs->Value();

  std::atomic<int> writers_left{4};
  std::atomic<bool> failed{false};
  auto writer = [&](auto body) {
    return std::thread([&, body] {
      body();
      writers_left.fetch_sub(1);
    });
  };
  std::vector<std::thread> threads;
  for (uint64_t seed : {1u, 2u}) {  // updaters
    threads.push_back(writer([&, seed] {
      Rng rng(seed);
      for (int i = 0; i < 150 && !failed; ++i) {
        const QueryResult r =
            RunDml(&db, Shift(rng.Uniform(0, kMaxV), rng.Uniform(1, 50)));
        if (!r.ok()) failed = true;
      }
    }));
  }
  threads.push_back(writer([&] {  // inserter: each batch closes the delta
    for (int i = 0; i < 40 && !failed; ++i) {
      std::unique_lock<FairSharedMutex> latch(t->phys_latch());
      for (const auto& row : InsertOutside(100, i * 100).insert_rows) {
        if (!t->InsertRow(row, nullptr).ok()) failed = true;
      }
      if (!csi->CompressDelta(nullptr).ok()) failed = true;
    }
  }));
  threads.push_back(writer([&] {  // tuple mover
    for (int i = 0; i < 8 && !failed; ++i) {
      {
        std::unique_lock<FairSharedMutex> latch(t->phys_latch());
        if (!csi->CompactDeleteBuffer(nullptr).ok()) failed = true;
      }
      if (!t->ReorganizeColumnstores().ok()) failed = true;
    }
  }));

  ScanScheduler sched;
  const ScanMode mode = GetParam();
  const int nreaders = mode == ScanMode::kShared ? 2 : 1;
  std::atomic<int> reads{0};
  for (int r = 0; r < nreaders; ++r) {
    threads.emplace_back([&] {
      // At least a few reads even when the writers finish first.
      for (int i = 0; writers_left.load() > 0 || i < 3; ++i) {
        const QueryResult res =
            mode == ScanMode::kSerial ? CountSum(&db, 1)
            : mode == ScanMode::kDop4 ? CountSum(&db, 4)
                                      : CountSum(&db, 1, &sched);
        const Image got = Read(res);
        if (got.count != want.count || got.sum != want.sum) {
          ADD_FAILURE() << "read " << i << ": count " << got.count
                        << " sum " << got.sum << ", want " << want.count
                        << " / " << want.sum;
          failed = true;
          return;
        }
        reads.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GE(reads.load(), 3 * nreaders);
  EXPECT_GT(flushes->Value(), flushes0);  // deltas closed mid-run
  EXPECT_GT(reorgs->Value(), reorgs0);
  if (mode == ScanMode::kShared) {
    EXPECT_GT(sched.passes_started(), 0u);
  }
  EXPECT_EQ(sched.active_passes(), 0u);
  const Image end = Read(CountSum(&db, 1));
  EXPECT_EQ(end.count, want.count);
  EXPECT_EQ(end.sum, want.sum);
}

INSTANTIATE_TEST_SUITE_P(Modes, ExactlyOnceTest,
                         ::testing::Values(ScanMode::kSerial, ScanMode::kDop4,
                                           ScanMode::kShared),
                         [](const auto& info) {
                           switch (info.param) {
                             case ScanMode::kSerial: return "serial";
                             case ScanMode::kDop4: return "dop4";
                             case ScanMode::kShared: return "shared";
                           }
                           return "unknown";
                         });

// ---------------------------------------------------------------------
// (c) Shared passes are per row-group version.
// ---------------------------------------------------------------------

TEST(ReadViewTest, NewerViewDoesNotAttachToOlderPass) {
  DiskModel disk;
  BufferPool pool(&disk);
  CsiOptions opts;
  opts.rowgroup_size = 1024;  // two row groups: a parked consumer's slot
                              // never blocks a second consumer's ring
  ColumnStoreIndex csi(ColumnStoreIndex::Kind::kSecondary, 1, &pool, opts);
  std::vector<std::vector<int64_t>> cols(1);
  std::vector<int64_t> locs;
  for (int64_t i = 0; i < 2048; ++i) {
    cols[0].push_back(i);
    locs.push_back(i);
  }
  csi.BulkLoad(std::move(cols), std::move(locs));
  const CsiViewPtr old_a = csi.Pin().value();
  const CsiViewPtr old_b = csi.Pin().value();
  ASSERT_EQ(old_a->version(), old_b->version());

  ScanScheduler sched;
  auto count_rows = [&](const CsiViewPtr& v,
                        const std::function<bool(const ColumnBatch&)>& fn) {
    return sched.Scan(v, {0}, {}, fn, nullptr, /*need_locators=*/false);
  };
  // Consumer A parks inside its first batch, attached to the old pass.
  Gate gate;
  std::atomic<uint64_t> a_rows{0};
  bool parked = false;
  std::thread a([&] {
    ASSERT_TRUE(count_rows(old_a, [&](const ColumnBatch& b) {
                  if (!parked) {
                    parked = true;
                    gate.arrived.set_value();
                    gate.release_f.wait();
                  }
                  a_rows += b.count;
                  return true;
                }).ok());
  });
  gate.arrived.get_future().wait();
  ASSERT_EQ(sched.passes_started(), 1u);

  // Same version: attaches to A's pass.
  uint64_t same_rows = 0;
  ASSERT_TRUE(count_rows(old_b, [&](const ColumnBatch& b) {
                same_rows += b.count;
                return true;
              }).ok());
  EXPECT_EQ(sched.passes_started(), 1u);
  EXPECT_EQ(sched.attaches(), 2u);
  EXPECT_EQ(same_rows, 2048u);

  // A delete changes the version; the newer consumer starts its own pass
  // and sees the delete, while the old pass is still in flight.
  const std::vector<int64_t> gone = {5, 6, 1500};
  ASSERT_TRUE(csi.DeleteBatch(gone, nullptr).ok());
  const CsiViewPtr fresh = csi.Pin().value();
  EXPECT_NE(fresh->version(), old_a->version());
  uint64_t new_rows = 0;
  ASSERT_TRUE(count_rows(fresh, [&](const ColumnBatch& b) {
                new_rows += b.count;
                return true;
              }).ok());
  EXPECT_EQ(sched.passes_started(), 2u);
  EXPECT_EQ(new_rows, 2048u - gone.size());

  gate.Release();
  a.join();
  EXPECT_EQ(a_rows.load(), 2048u);  // A's image predates the delete
  EXPECT_EQ(sched.active_passes(), 0u);
}

// A view keeps its rows through every mutator, including a reorganize
// that replaces all row groups and a compaction that rewrites bitmaps.
TEST(ReadViewTest, PinnedViewOutlivesMutators) {
  DiskModel disk;
  BufferPool pool(&disk);
  CsiOptions opts;
  opts.rowgroup_size = 512;
  ColumnStoreIndex csi(ColumnStoreIndex::Kind::kSecondary, 2, &pool, opts);
  std::vector<std::vector<int64_t>> cols(2);
  std::vector<int64_t> locs;
  for (int64_t i = 0; i < 2000; ++i) {
    cols[0].push_back(i);
    cols[1].push_back(1);
    locs.push_back(i);
  }
  csi.BulkLoad(std::move(cols), std::move(locs));
  for (int64_t i = 0; i < 10; ++i) {
    const std::vector<int64_t> row = {10000 + i, 1};
    ASSERT_TRUE(csi.Insert(row, 10000 + i, nullptr).ok());
  }
  const CsiViewPtr view = csi.Pin().value();
  auto sum = [](const CsiReadView& v) {
    int64_t s = 0;
    auto fn = [&](const ColumnBatch& b) {
      for (int i = 0; i < b.count; ++i) s += b.cols[0][i];
      return true;
    };
    EXPECT_TRUE(v.ScanGroups(0, v.num_row_groups(), {1}, {}, fn, nullptr).ok());
    EXPECT_TRUE(v.ScanDelta({1}, {}, fn, nullptr).ok());
    return s;
  };
  ASSERT_EQ(sum(*view), 2010);

  const std::vector<int64_t> gone = {1, 2, 3, 10003};
  ASSERT_TRUE(csi.DeleteBatch(gone, nullptr).ok());
  ASSERT_TRUE(csi.CompactDeleteBuffer(nullptr).ok());
  ASSERT_TRUE(csi.Reorganize().ok());
  EXPECT_EQ(sum(*view), 2010);
  EXPECT_EQ(sum(*csi.Pin().value()), 2006);
}

// ---------------------------------------------------------------------
// (d) Snapshot readers beside transactional writers.
// ---------------------------------------------------------------------

// SI readers run a grouped and a global aggregate over the columnstore
// while writers in transactions update, insert, abort and commit on the
// same table, so commits trim the table's version list as reads collect
// from it. Every update keeps each k group's count and sum(a + b), and
// inserted rows fall outside the band, so every read must return the
// table's first image, whichever rows paid the chain walk.
TEST(ReadViewTest, SnapshotReadsHoldUnderTransactionalWriters) {
  Database db;
  Table* t = BuildTable(&db);
  ASSERT_NE(t, nullptr);
  TransactionManager tm;
  Query grouped;
  grouped.base.table = "t";
  grouped.base.preds.push_back(Pred::Le(0, Value::Int64(kMaxV)));
  grouped.group_by = {ColRef{0, 0}};
  grouped.aggs = {AggSpec::CountStar(),
                  AggSpec::Sum(Expr::Add(Expr::Col(0, 1), Expr::Col(0, 2)))};
  Query global;
  global.base = grouped.base;
  global.aggs = {AggSpec::CountStar(), AggSpec::Min(Expr::Col(0, 0)),
                 AggSpec::Max(Expr::Col(0, 0))};
  auto si_read = [&](const Query& q, int dop) {
    PhysicalPlan p;
    p.base.kind = AccessPath::Kind::kCsiScan;
    p.base.index_name = "csi_t";
    p.agg = AggMethod::kHash;
    p.dop = dop;
    auto txn = tm.Begin(IsolationLevel::kSnapshot);
    ExecContext ctx;
    ctx.db = &db;
    ctx.max_dop = dop;
    ctx.txn = txn.get();
    ctx.txns = &tm;
    QueryResult r = Executor(ctx).Execute(q, p);
    EXPECT_TRUE(tm.Commit(txn.get()).ok());
    return r;
  };
  auto image = [](const QueryResult& r) {
    std::vector<std::string> rows;
    for (const Row& row : r.rows) {
      std::string s;
      for (const Value& v : row) s += v.ToString() + ",";
      rows.push_back(std::move(s));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  const QueryResult want_grouped = si_read(grouped, 1);
  const QueryResult want_global = si_read(global, 1);
  ASSERT_TRUE(want_grouped.ok() && want_global.ok());
  ASSERT_EQ(want_global.rows[0][0].i64(), static_cast<int64_t>(kRows));

  // One DML statement in its own transaction, aborted when `abort`. An
  // abort leaves the statement's effects (PROTOCOL.md §3.3), which keep
  // the invariant as a commit's do.
  std::atomic<bool> failed{false};
  auto txn_dml = [&](const Query& q, IsolationLevel iso, bool abort) {
    auto txn = tm.Begin(iso);
    ExecContext ctx;
    ctx.db = &db;
    ctx.max_dop = 1;
    ctx.txn = txn.get();
    ctx.txns = &tm;
    const QueryResult r = Executor(ctx).Execute(q, PhysicalPlan{});
    if (!r.ok() && !r.status.IsRetryable()) failed = true;
    if (!r.ok() || abort) {
      tm.Abort(txn.get());
    } else if (!tm.Commit(txn.get()).ok()) {
      failed = true;
    }
  };
  std::atomic<int> writers_left{3};
  std::vector<std::thread> threads;
  for (uint64_t seed : {1u, 2u}) {  // updaters
    threads.emplace_back([&, seed] {
      Rng rng(seed);
      for (int i = 0; i < 120 && !failed; ++i) {
        txn_dml(Shift(rng.Uniform(0, kMaxV), rng.Uniform(1, 50)),
                i % 2 ? IsolationLevel::kSnapshot
                      : IsolationLevel::kReadCommitted,
                i % 4 == 3);
      }
      writers_left.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {  // inserter
    for (int i = 0; i < 30 && !failed; ++i) {
      txn_dml(InsertOutside(20, i * 20), IsolationLevel::kSnapshot,
              i % 3 == 2);
    }
    writers_left.fetch_sub(1);
  });
  std::atomic<int> reads{0};
  for (int dop : {1, 4}) {
    threads.emplace_back([&, dop] {
      for (int i = 0; writers_left.load() > 0 || i < 4; ++i) {
        const bool g = i % 2 == 0;
        const QueryResult r = si_read(g ? grouped : global, dop);
        if (!r.ok() || image(r) != image(g ? want_grouped : want_global) ||
            r.metrics.version_rows.load() > kRows) {
          ADD_FAILURE() << (g ? "grouped" : "global") << " read " << i
                        << " at dop " << dop << ": " << r.status.ToString()
                        << ", " << r.row_count << " rows, version_rows "
                        << r.metrics.version_rows.load();
          failed = true;
          return;
        }
        reads.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GE(reads.load(), 8);
  // With every writer ended, a new snapshot has no newer version.
  const QueryResult end = si_read(grouped, 4);
  EXPECT_EQ(image(end), image(want_grouped));
  EXPECT_EQ(end.metrics.version_rows.load(), 0u);
}

// ---------------------------------------------------------------------
// StringDict: lock-free readers beside appending writers.
// ---------------------------------------------------------------------

TEST(StringDictTest, ConcurrentGetOrAddAndReaders) {
  StringDict dict;
  dict.BuildSorted({"apple", "banana", "cherry"});
  constexpr int kWriters = 3, kPerWriter = 3000;
  auto name = [](int i) { return "s" + std::to_string(i); };
  std::atomic<bool> done{false};
  std::atomic<bool> bad{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      // Writers overlap on purpose: neighbours add half of each other's
      // strings, so GetOrAdd races on the same string.
      for (int i = 0; i < kPerWriter; ++i) {
        const int id = (w * kPerWriter / 2) + i;
        const int64_t code = dict.GetOrAdd(name(id));
        if (dict.At(code) != name(id)) bad = true;
      }
    });
  }
  threads.emplace_back([&] {
    while (!done.load()) {
      // Every published code reads back a complete string that maps back
      // to the same code.
      const size_t n = dict.size();
      for (size_t c = 0; c < n; c += 97) {
        const std::string& s = dict.At(static_cast<int64_t>(c));
        if (dict.Lookup(s) != static_cast<int64_t>(c)) bad = true;
      }
      if (dict.Lookup("banana") != 1) bad = true;
    }
  });
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  done = true;
  threads.back().join();
  EXPECT_FALSE(bad.load());
  const int distinct = (kWriters - 1) * kPerWriter / 2 + kPerWriter;
  EXPECT_EQ(dict.size(), static_cast<size_t>(3 + distinct));
  EXPECT_FALSE(dict.sorted());
  for (int i = 0; i < distinct; ++i) {
    const int64_t c = dict.Lookup(name(i));
    ASSERT_GE(c, 3) << name(i);
    EXPECT_EQ(dict.At(c), name(i));
  }
}

}  // namespace
}  // namespace hd
