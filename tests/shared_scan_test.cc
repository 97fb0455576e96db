// Cooperative shared scans + admission control (exec/scan_scheduler.h,
// exec/admission.h).
//
// The core contract under test: routing a SELECT through the shared-scan
// scheduler must be INVISIBLE in its results — any set of concurrent
// queries, attaching and detaching at arbitrary pass positions, over a
// table with compressed groups, delta rows, and deleted rows, returns
// exactly what a private scan returns. Failure of one consumer (injected
// at the csi.shared_consume seam) must not corrupt or stall the others.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/latch.h"
#include "common/metrics.h"
#include "exec/admission.h"
#include "exec/executor.h"
#include "exec/scan_scheduler.h"
#include "optimizer/optimizer.h"
#include "txn/transaction.h"
#include "workload/micro.h"

namespace hd {
namespace {

// 400k rows / 2^17-row groups = 4 row groups, so circular passes have
// meaningful length and mid-pass attach positions differ across threads.
constexpr uint64_t kRows = 400'000;
constexpr int64_t kMaxV = 9999;

Table* BuildCsiTable(Database* db, const std::string& name) {
  MicroOptions mo;
  mo.rows = kRows;
  mo.max_value = kMaxV;
  Table* t = MakeUniformIntTable(db, name, 2, mo);
  if (t == nullptr || !t->SetPrimary(PrimaryKind::kColumnStore).ok()) {
    return nullptr;
  }
  return t;
}

QueryResult ExecQ(Database* db, const Query& q, ScanScheduler* sched,
                AdmissionController* adm = nullptr) {
  Optimizer opt(db);
  Configuration cfg = Configuration::FromCatalog(*db);
  PlanOptions popts;
  popts.max_dop = 2;
  auto plan = opt.Plan(q, cfg, popts);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  ExecContext ctx;
  ctx.db = db;
  ctx.max_dop = 2;
  ctx.scan_scheduler = sched;
  ctx.admission = adm;
  Executor ex(ctx);
  return ex.Execute(q, plan->plan);
}

/// Add delta rows and delete a value so shared passes must merge the
/// delete snapshot and each consumer must privately scan the delta store.
void MutateTable(Database* db, const std::string& table) {
  Query ins;
  ins.kind = Query::Kind::kInsert;
  ins.base.table = table;
  for (int i = 0; i < 500; ++i) {
    ins.insert_rows.push_back(
        {Value::Int64(i % (kMaxV + 1)), Value::Int64(1000 + i)});
  }
  QueryResult ri = ExecQ(db, ins, nullptr);
  ASSERT_TRUE(ri.ok()) << ri.status.ToString();
  Query del;
  del.kind = Query::Kind::kDelete;
  del.base.table = table;
  del.base.preds.push_back(Pred::Eq(0, Value::Int64(7)));
  QueryResult rd = ExecQ(db, del, nullptr);
  ASSERT_TRUE(rd.ok()) << rd.status.ToString();
  EXPECT_GT(rd.affected_rows, 0u);
}

// ---------------------------------------------------------------------
// Result equivalence: shared == private, including delta + deletes.
// ---------------------------------------------------------------------

TEST(SharedScanTest, ConcurrentSharedQueriesMatchPrivateScans) {
  Database db;
  ASSERT_NE(BuildCsiTable(&db, "t"), nullptr);
  MutateTable(&db, "t");

  // Staggered, overlapping BETWEEN ranges: different selectivities mean
  // different consume speeds, so attach positions diverge mid-pass.
  struct Case {
    int64_t lo, hi;
  };
  const std::vector<Case> cases = {{0, 9999},   {0, 4999},   {2500, 7499},
                                   {5000, 9999}, {100, 300},  {7, 7},
                                   {9000, 9999}, {4000, 6000}};
  std::vector<int64_t> expected(cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    QueryResult r =
        ExecQ(&db, MicroQ1SumOther("t", cases[i].lo, cases[i].hi), nullptr);
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    expected[i] = r.rows[0][0].i64();
  }

  ScanScheduler sched;
  // Two rounds so later queries join passes the first round started.
  for (int round = 0; round < 2; ++round) {
    std::vector<int64_t> got(cases.size());
    std::vector<Status> st(cases.size());
    std::vector<std::thread> threads;
    for (size_t i = 0; i < cases.size(); ++i) {
      threads.emplace_back([&, i] {
        QueryResult r =
            ExecQ(&db, MicroQ1SumOther("t", cases[i].lo, cases[i].hi), &sched);
        st[i] = r.status;
        if (r.ok()) got[i] = r.rows[0][0].i64();
      });
    }
    for (auto& t : threads) t.join();
    for (size_t i = 0; i < cases.size(); ++i) {
      ASSERT_TRUE(st[i].ok()) << st[i].ToString();
      EXPECT_EQ(got[i], expected[i])
          << "case " << i << " [" << cases[i].lo << "," << cases[i].hi << "]";
    }
  }
  EXPECT_GE(sched.attaches(), 2 * cases.size());
  EXPECT_GE(sched.passes_started(), 1u);
}

// ---------------------------------------------------------------------
// Attach/detach mid-pass: early-stopping consumers (LIMIT) alongside
// full scans must neither corrupt nor stall the others.
// ---------------------------------------------------------------------

TEST(SharedScanTest, EarlyStopDetachLeavesOthersCorrect) {
  Database db;
  ASSERT_NE(BuildCsiTable(&db, "t"), nullptr);

  Query full = MicroQ1SumOther("t", 0, kMaxV);
  QueryResult ref = ExecQ(&db, full, nullptr);
  ASSERT_TRUE(ref.ok());
  const int64_t expected = ref.rows[0][0].i64();

  Query limited;
  limited.base.table = "t";
  limited.base.preds.push_back(
      Pred::Between(0, Value::Int64(0), Value::Int64(kMaxV)));
  limited.select_cols = {ColRef{0, 1}};
  limited.limit = 10;

  ScanScheduler sched;
  std::vector<std::thread> threads;
  std::atomic<int> bad{0};
  for (int i = 0; i < 6; ++i) {
    threads.emplace_back([&, i] {
      if (i % 2 == 0) {
        // Early-stopper: detaches after ~10 rows of the first group.
        QueryResult r = ExecQ(&db, limited, &sched);
        if (!r.ok() || r.rows.size() != 10) bad.fetch_add(1);
      } else {
        QueryResult r = ExecQ(&db, full, &sched);
        if (!r.ok() || r.rows[0][0].i64() != expected) bad.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
}

// ---------------------------------------------------------------------
// Predicate isolation: consumers sharing a pass apply their OWN
// predicates to the shared decoded image.
// ---------------------------------------------------------------------

TEST(SharedScanTest, PredicateIsolationAcrossConsumers) {
  Database db;
  ASSERT_NE(BuildCsiTable(&db, "t"), nullptr);

  const int64_t r1 = ExecQ(&db, MicroQ1SumOther("t", 0, 99), nullptr)
                         .rows[0][0].i64();
  const int64_t r2 = ExecQ(&db, MicroQ1SumOther("t", 9900, 9999), nullptr)
                         .rows[0][0].i64();
  ASSERT_NE(r1, r2);  // disjoint ranges over uniform data

  for (int round = 0; round < 3; ++round) {
    ScanScheduler sched;
    int64_t g1 = 0, g2 = 0;
    std::thread a([&] {
      g1 = ExecQ(&db, MicroQ1SumOther("t", 0, 99), &sched).rows[0][0].i64();
    });
    std::thread b([&] {
      g2 = ExecQ(&db, MicroQ1SumOther("t", 9900, 9999), &sched).rows[0][0].i64();
    });
    a.join();
    b.join();
    EXPECT_EQ(g1, r1);
    EXPECT_EQ(g2, r2);
  }
}

// ---------------------------------------------------------------------
// Fault injection: one consumer dying mid-pass must not corrupt or stall
// the rest, and must surface a typed error.
// ---------------------------------------------------------------------

TEST(SharedScanTest, FailpointAbortIsolatesVictim) {
  Database db;
  ASSERT_NE(BuildCsiTable(&db, "t"), nullptr);

  Query full = MicroQ1SumOther("t", 0, kMaxV);
  const int64_t expected = ExecQ(&db, full, nullptr).rows[0][0].i64();

  ScopedFailPoint fp("csi.shared_consume",
                     FailSpec::OneShot(Code::kIoError, "injected abort"));
  ScanScheduler sched;
  std::atomic<int> failed{0}, wrong{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 6; ++i) {
    threads.emplace_back([&] {
      QueryResult r = ExecQ(&db, full, &sched);
      if (!r.ok()) {
        // The victim's error must be the injected one, well-typed.
        if (r.status.IsIoError()) failed.fetch_add(1);
        else wrong.fetch_add(1);
      } else if (r.rows[0][0].i64() != expected) {
        wrong.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failed.load(), 1);  // exactly the one-shot victim
  EXPECT_EQ(wrong.load(), 0);

  // The pass state must be reusable after the abort: a fresh query works.
  QueryResult after = ExecQ(&db, full, &sched);
  ASSERT_TRUE(after.ok()) << after.status.ToString();
  EXPECT_EQ(after.rows[0][0].i64(), expected);
}

// ---------------------------------------------------------------------
// Columnstore driver x consumer matrix: every batch consumer returns the
// heap scan's answer over a secondary CSI under every schedule the driver
// runs (serial, DOP 4 morsels, shared pass), first with delta rows only
// and then with a non-empty delete buffer too.
// ---------------------------------------------------------------------

/// Rows rendered as text and sorted: projections come back in scan order
/// and groups in hash order, neither of which the matrix pins down.
std::vector<std::string> Canonical(const QueryResult& r) {
  std::vector<std::string> out;
  for (const Row& row : r.rows) {
    std::string s;
    for (const Value& v : row) s += v.ToString() + "|";
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(CsiDriverMatrixTest, EveryConsumerAgreesWithTheHeapOnEverySchedule) {
  Database db;
  // fact(k, g, v): heap primary plus a secondary CSI of 3 row groups.
  auto fact = db.CreateTable("fact", Schema({{"k", ValueType::kInt64, 0},
                                             {"g", ValueType::kInt64, 0},
                                             {"v", ValueType::kInt64, 0}}));
  ASSERT_TRUE(fact.ok());
  std::vector<std::vector<int64_t>> cols(3);
  for (int64_t i = 0; i < 300'000; ++i) {
    cols[0].push_back(i);
    cols[1].push_back(i % 50);
    cols[2].push_back((i * 7919) % 1000);
  }
  fact.value()->BulkLoadPacked(std::move(cols));
  ASSERT_TRUE(fact.value()->CreateSecondaryColumnStore("csi").ok());
  const ColumnStoreIndex* csi = fact.value()->FindSecondary("csi")->csi.get();
  ASSERT_GE(csi->num_row_groups(), 2);
  // dim(pk, attr): the batch join's build side.
  auto dim = db.CreateTable("dim", Schema({{"pk", ValueType::kInt64, 0},
                                           {"attr", ValueType::kInt64, 0}}));
  ASSERT_TRUE(dim.ok());
  std::vector<std::vector<int64_t>> dcols(2);
  for (int64_t i = 0; i < 50; ++i) {
    dcols[0].push_back(i);
    dcols[1].push_back(i % 5);
  }
  dim.value()->BulkLoadPacked(std::move(dcols));

  auto pred_v = [](int64_t lo, int64_t hi) {
    return Pred::Between(2, Value::Int64(lo), Value::Int64(hi));
  };
  struct Consumer {
    const char* name;
    Query q;
    bool shares;  // the executor routes it through a shared pass
    bool pushes;  // encoded-domain pushdown can answer whole row groups
  };
  std::vector<Consumer> consumers;
  {
    Query q;  // projection
    q.base.table = "fact";
    q.base.preds = {Pred::Eq(1, Value::Int64(7)), pred_v(0, 499)};
    q.select_cols = {ColRef{0, 0}, ColRef{0, 2}};
    consumers.push_back({"projection", q, true, false});
  }
  {
    Query q;  // batch hash join
    q.base.table = "fact";
    q.base.preds = {pred_v(100, 899)};
    JoinClause jc;
    jc.dim.table = "dim";
    jc.dim.preds = {Pred::Eq(1, Value::Int64(2))};
    jc.base_col = 1;
    jc.dim_col = 0;
    q.joins.push_back(jc);
    q.aggs = {AggSpec::CountStar(), AggSpec::Sum(Expr::Col(0, 2), "s")};
    consumers.push_back({"batch join", q, false, false});
  }
  {
    Query q;  // grouped aggregate
    q.base.table = "fact";
    q.base.preds = {pred_v(100, 999)};
    q.group_by = {ColRef{0, 1}};
    q.aggs = {AggSpec::CountStar(), AggSpec::Sum(Expr::Col(0, 2), "s"),
              AggSpec::Min(Expr::Col(0, 2)), AggSpec::Max(Expr::Col(0, 0))};
    consumers.push_back({"grouped aggregate", q, true, false});
  }
  {
    Query q;  // global aggregate, pushable: predicates on its own column
    q.base.table = "fact";
    q.base.preds = {pred_v(100, 799)};
    q.aggs = {AggSpec::CountStar(), AggSpec::Sum(Expr::Col(0, 2), "s"),
              AggSpec::Min(Expr::Col(0, 2)), AggSpec::Max(Expr::Col(0, 2))};
    consumers.push_back({"global aggregate", q, false, true});
  }
  {
    Query q;  // global aggregate with a cross-column predicate
    q.base.table = "fact";
    q.base.preds = {Pred::Lt(1, Value::Int64(20))};
    q.aggs = {AggSpec::CountStar(), AggSpec::Sum(Expr::Col(0, 2), "s"),
              AggSpec::Max(Expr::Col(0, 0))};
    consumers.push_back({"global aggregate, cross-column", q, true, false});
  }

  enum class Schedule { kSerial, kMorsels, kShared };
  const std::pair<Schedule, const char*> schedules[] = {
      {Schedule::kSerial, "serial"},
      {Schedule::kMorsels, "dop 4"},
      {Schedule::kShared, "shared pass"}};
  ScanScheduler sched;
  auto run = [&](const Consumer& c, AccessPath::Kind kind, Schedule sc) {
    PhysicalPlan p;
    p.base.kind = kind;
    if (kind == AccessPath::Kind::kCsiScan) p.base.index_name = "csi";
    for (size_t j = 0; j < c.q.joins.size(); ++j) {
      JoinStep js;
      js.join_idx = static_cast<int>(j);
      p.joins.push_back(js);
    }
    p.agg = c.q.aggs.empty() ? AggMethod::kNone : AggMethod::kHash;
    p.dop = sc == Schedule::kMorsels ? 4 : 1;
    ExecContext ctx;
    ctx.db = &db;
    ctx.max_dop = 4;
    if (sc == Schedule::kShared) ctx.scan_scheduler = &sched;
    Executor ex(ctx);
    return ex.Execute(c.q, p);
  };

  auto check_all = [&](bool expect_pushdown) {
    for (const Consumer& c : consumers) {
      QueryResult ref =
          run(c, AccessPath::Kind::kHeapScan, Schedule::kSerial);
      ASSERT_TRUE(ref.ok()) << c.name << ": " << ref.status.ToString();
      ASSERT_FALSE(ref.rows.empty()) << c.name;
      for (const auto& [sc, sname] : schedules) {
        SCOPED_TRACE(std::string(c.name) + " / " + sname);
        QueryResult r = run(c, AccessPath::Kind::kCsiScan, sc);
        ASSERT_TRUE(r.ok()) << r.status.ToString();
        EXPECT_EQ(r.row_count, ref.row_count);
        EXPECT_EQ(Canonical(r), Canonical(ref));
        const bool shared = sc == Schedule::kShared && c.shares;
        EXPECT_EQ(r.metrics.shared_scan_attaches.load() > 0, shared);
        if (c.pushes && sc != Schedule::kShared) {
          EXPECT_EQ(r.metrics.aggs_pushed_down.load() > 0, expect_pushdown);
        }
      }
    }
  };

  // Delta rows: trickle inserts stay in the delta store.
  Query ins;
  ins.kind = Query::Kind::kInsert;
  ins.base.table = "fact";
  for (int64_t i = 0; i < 500; ++i) {
    ins.insert_rows.push_back({Value::Int64(300'000 + i), Value::Int64(i % 50),
                               Value::Int64((i * 31) % 1000)});
  }
  QueryResult ir = ExecQ(&db, ins, nullptr);
  ASSERT_TRUE(ir.ok()) << ir.status.ToString();
  ASSERT_GT(csi->delta_rows(), 0u);
  ASSERT_EQ(csi->delete_buffer_rows(), 0u);
  check_all(/*expect_pushdown=*/true);

  // Deletes of compressed rows land in the secondary CSI's delete buffer,
  // which turns encoded-domain pushdown off for every row group.
  Query del;
  del.kind = Query::Kind::kDelete;
  del.base.table = "fact";
  del.base.preds = {Pred::Between(0, Value::Int64(1000), Value::Int64(1999))};
  QueryResult dr = ExecQ(&db, del, nullptr);
  ASSERT_TRUE(dr.ok()) << dr.status.ToString();
  ASSERT_EQ(dr.affected_rows, 1000u);
  ASSERT_GT(csi->delete_buffer_rows(), 0u);
  check_all(/*expect_pushdown=*/false);
}

// ---------------------------------------------------------------------
// Admission controller: slots, grants, timeout, shed — unit level.
// ---------------------------------------------------------------------

TEST(AdmissionTest, MemoryGrantAccounting) {
  AdmissionOptions ao;
  ao.max_concurrent = 4;
  ao.max_memory_grant = 100;
  ao.queue_timeout_ms = 50;
  AdmissionController ac(ao);

  AdmissionController::Ticket t1;
  ASSERT_TRUE(ac.Admit(60, &t1).ok());
  EXPECT_EQ(ac.grant_in_use(), 60u);

  // 60 + 60 > 100: second query must time out in the queue, typed.
  AdmissionController::Ticket t2;
  Status s = ac.Admit(60, &t2).ok() ? Status::OK()
                                    : Status::ResourceExhausted("x");
  {
    AdmissionController::Ticket tx;
    Status direct = ac.Admit(60, &tx);
    EXPECT_FALSE(direct.ok());
    EXPECT_TRUE(direct.IsResourceExhausted()) << direct.ToString();
  }
  (void)s;

  // Small grants still fit alongside.
  AdmissionController::Ticket t3;
  ASSERT_TRUE(ac.Admit(30, &t3).ok());
  EXPECT_EQ(ac.grant_in_use(), 90u);

  t1.Release();
  EXPECT_EQ(ac.grant_in_use(), 30u);
  AdmissionController::Ticket t4;
  ASSERT_TRUE(ac.Admit(60, &t4).ok());

  // A grant larger than the whole budget is force-admitted when idle
  // (it could otherwise never run).
  t3.Release();
  t4.Release();
  EXPECT_EQ(ac.running(), 0);
  AdmissionController::Ticket big;
  ASSERT_TRUE(ac.Admit(1000, &big).ok());
}

TEST(AdmissionTest, QueueTimeoutIsTypedAndCounted) {
  AdmissionOptions ao;
  ao.max_concurrent = 1;
  ao.queue_timeout_ms = 40;
  AdmissionController ac(ao);

  AdmissionController::Ticket held;
  ASSERT_TRUE(ac.Admit(0, &held).ok());
  AdmissionController::Ticket waiter;
  Status s = ac.Admit(0, &waiter);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
  EXPECT_EQ(ac.timeouts(), 1u);
  EXPECT_EQ(ac.queued(), 0);  // timed-out waiter removed itself
}

TEST(AdmissionTest, ShedWhenQueueFull) {
  AdmissionOptions ao;
  ao.max_concurrent = 1;
  ao.max_queue_depth = 0;  // any waiter is one too many
  AdmissionController ac(ao);

  AdmissionController::Ticket held;
  ASSERT_TRUE(ac.Admit(0, &held).ok());
  AdmissionController::Ticket shed;
  Status s = ac.Admit(0, &shed);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
  EXPECT_EQ(ac.shed(), 1u);
  EXPECT_EQ(ac.timeouts(), 0u);  // shed on arrival, not a timeout
}

// ---------------------------------------------------------------------
// Admission through the executor: the gate bounds real queries.
// ---------------------------------------------------------------------

TEST(AdmissionTest, ExecutorBoundsInFlightAt4xOversubscription) {
  Database db;
  ASSERT_NE(BuildCsiTable(&db, "t"), nullptr);

  AdmissionOptions ao;
  ao.max_concurrent = 2;
  ao.queue_timeout_ms = 30'000;
  AdmissionController ac(ao);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {  // 4x the slot count
    threads.emplace_back([&] {
      for (int j = 0; j < 2; ++j) {
        QueryResult r =
            ExecQ(&db, MicroQ1SumOther("t", 0, kMaxV), nullptr, &ac);
        if (!r.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ac.admitted(), 16u);
  EXPECT_LE(ac.peak_running(), ao.max_concurrent);
  EXPECT_LE(ac.peak_queued(), ao.max_queue_depth);
}

TEST(AdmissionTest, InTransactionStatementsBypassTheGate) {
  Database db;
  ASSERT_NE(BuildCsiTable(&db, "t"), nullptr);
  TransactionManager txns;

  AdmissionOptions ao;
  ao.max_concurrent = 1;
  AdmissionController ac(ao);
  AdmissionController::Ticket held;
  ASSERT_TRUE(ac.Admit(0, &held).ok());  // gate now "full"

  // An in-transaction SELECT must not queue behind the gate: it may hold
  // locks, and stalling a lock holder behind admission invites deadlocks.
  auto txn = txns.Begin(IsolationLevel::kReadCommitted);
  Query q = MicroQ1SumOther("t", 0, kMaxV);
  Optimizer opt(&db);
  auto plan = opt.Plan(q, Configuration::FromCatalog(db), {});
  ASSERT_TRUE(plan.ok());
  ExecContext ctx;
  ctx.db = &db;
  ctx.txns = &txns;
  ctx.txn = txn.get();
  ctx.admission = &ac;
  Executor ex(ctx);
  QueryResult r = ex.Execute(q, plan->plan);
  EXPECT_TRUE(r.ok()) << r.status.ToString();
  txns.Commit(txn.get());
  EXPECT_EQ(ac.admitted(), 1u);  // only the held ticket; the txn bypassed
}

// Closed-loop readers overlap their shared holds nearly continuously; a
// reader-preferring latch (glibc std::shared_mutex) starves the writer
// outright in that regime, which livelocked the mixed workload's update
// stream the moment concurrent analytic side-streams landed. The
// phys_latch is writer-preferring (common/latch.h) exactly so this
// terminates: once the writer queues, new shared acquisitions block and
// the in-flight readers drain.
TEST(FairLatchTest, WriterNotStarvedByContinuousReaders) {
  FairSharedMutex latch;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        latch.lock_shared();
        reads.fetch_add(1, std::memory_order_relaxed);
        latch.unlock_shared();
      }
    });
  }
  // Let the readers saturate the latch, then demand it exclusively.
  while (reads.load(std::memory_order_relaxed) < 1000) std::this_thread::yield();
  Timer t;
  for (int w = 0; w < 50; ++w) {
    latch.lock();
    latch.unlock();
  }
  const double writer_ms = t.ElapsedMs();
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();
  // 50 exclusive acquisitions against 3 saturating readers: seconds would
  // mean starvation; fair queuing keeps each wait to ~one critical section.
  EXPECT_LT(writer_ms, 2000.0) << "writer starved behind continuous readers";
}

}  // namespace
}  // namespace hd
