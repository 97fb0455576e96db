// Chaos harness: concurrent mixed transactional workloads run while
// failpoints swept from a seeded RNG inject faults across every layer
// (disk, buffer pool, heap, B+ tree, columnstore, locks, thread pool).
//
// After each episode the harness disarms everything and asserts the
// system-wide invariants of docs/ROBUSTNESS.md:
//   (a) no leaked locks          — LockManager::TotalGranted() == 0
//   (b) no leaked versions       — version_count() == 0 after GC
//   (c) recovery                 — the next uninjected query succeeds
//   (d) no hung pool             — the episode terminates (bounded wall)
//   (e) well-typed failures      — every failed op surfaced a Status that
//                                  is the injected code or the driver's
//                                  kResourceExhausted budget verdict
//   (f) exact metrics rollup     — retry/backoff counters in the merged
//                                  QueryMetrics match the driver's totals
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "server/client.h"
#include "server/server.h"
#include "txn/transaction.h"
#include "workload/micro.h"
#include "workload/mixed_driver.h"

namespace hd {
namespace {

/// Path under the test temp dir with this process's pid in its name, so
/// concurrent copies of this binary never share a file.
std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name + "_" + std::to_string(::getpid());
}

// The full catalog of wired failpoints (docs/ROBUSTNESS.md).
constexpr const char* kCatalog[] = {
    "disk.read",      "bufferpool.register", "heapfile.io",
    "disk.write",     "bufferpool.evict",    "btree.split",
    "lockmgr.acquire", "csi.compress_delta", "csi.reorganize",
    "threadpool.task", "telemetry.sample",
};
constexpr int kCatalogSize = static_cast<int>(std::size(kCatalog));

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoints::Instance().DisarmAll();
    MicroOptions mo;
    mo.rows = 20000;
    mo.max_value = 1000;
    MakeUniformIntTable(&db_, "h", 3, mo);  // heap primary
    Table* c = MakeUniformIntTable(&db_, "c", 3, mo);
    ASSERT_TRUE(c->SetPrimary(PrimaryKind::kColumnStore).ok());
  }
  void TearDown() override { FailPoints::Instance().DisarmAll(); }

  /// Mixed read/update/insert transactions over both physical designs.
  static TxnOp GenOp(int /*tid*/, Rng* rng) {
    const std::string table = rng->Flip(0.5) ? "h" : "c";
    TxnOp op;
    const int64_t pick = rng->Uniform(0, 99);
    if (pick < 40) {
      Query q = MicroQ1(table, 0.05, 1000);
      q.id = "scan";
      op.statements.push_back(std::move(q));
    } else if (pick < 75) {
      Query q;
      q.id = "update";
      q.kind = Query::Kind::kUpdate;
      q.base.table = table;
      q.base.preds = {Pred::Eq(0, Value::Int64(rng->Uniform(0, 1000)))};
      q.sets = {UpdateSet::Add(1, 1.0)};
      op.statements.push_back(std::move(q));
    } else {
      // Multi-statement txn: insert then read back — a failure in either
      // statement must abort the whole op (no partial commit).
      Query ins;
      ins.id = "insert";
      ins.kind = Query::Kind::kInsert;
      ins.base.table = table;
      ins.insert_rows = {{Value::Int64(rng->Uniform(0, 1000)),
                          Value::Int64(rng->Uniform(0, 1000)),
                          Value::Int64(rng->Uniform(0, 1000))}};
      Query q = MicroQ1(table, 0.02, 1000);
      q.id = "insert";
      op.statements.push_back(std::move(ins));
      op.statements.push_back(std::move(q));
    }
    op.id = op.statements.back().id;
    return op;
  }

  MixedResult RunEpisode(TransactionManager* tm, uint64_t seed, int ops) {
    MixedOptions mo;
    mo.threads = 4;
    mo.total_ops = ops;
    mo.seed = seed;
    mo.max_dop_per_query = 2;
    mo.lock_timeout_ms = 100;
    mo.max_retries = 4;        // small budget so exhaustion is reachable
    mo.backoff_base_ms = 0.05;
    mo.backoff_cap_ms = 0.4;
    return RunMixedTxnWorkload(&db_, tm, GenOp, mo);
  }

  QueryResult RunOne(TransactionManager* tm, const Query& q, int dop = 2) {
    Optimizer opt(&db_);
    PlanOptions popts;
    popts.max_dop = dop;
    auto plan = opt.Plan(q, Configuration::FromCatalog(db_), popts);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    ExecContext ctx;
    ctx.db = &db_;
    ctx.txns = tm;
    ctx.max_dop = dop;
    Executor ex(ctx);
    return ex.Execute(q, plan->plan);
  }

  Database db_;
};

TEST_F(ChaosTest, SweepEpisodesHoldInvariants) {
  TransactionManager tm;
  // The telemetry sampler runs through every episode, so sweep-armed
  // `telemetry.sample` injections hit a live sampler and the chaos
  // workload races real registry snapshots.
  TelemetrySampler sampler;
  ASSERT_TRUE(
      sampler.Start(TempPath("chaos_stats") + ".jsonl", 5).ok());

  // Baseline: the workload is clean with nothing armed.
  MixedResult base = RunEpisode(&tm, 1, 60);
  ASSERT_TRUE(base.first_error.ok()) << base.first_error.ToString();
  EXPECT_EQ(base.total_failures, 0u);

  Rng sweep(20260806);
  const Code codes[] = {Code::kIoError, Code::kAborted,
                        Code::kResourceExhausted};
  for (int ep = 0; ep < 5; ++ep) {
    // Arm 2–3 points (possibly re-arming one) with seeded-random
    // triggers and effects.
    const int npoints = static_cast<int>(sweep.Uniform(2, 3));
    bool tp_armed = false;
    std::vector<std::string> armed;
    for (int i = 0; i < npoints; ++i) {
      const char* pt = kCatalog[sweep.Uniform(0, kCatalogSize - 1)];
      tp_armed |= std::string(pt) == "threadpool.task";
      armed.push_back(pt);
      FailSpec spec = FailSpec::Probability(
          sweep.UniformReal(0.02, 0.25), sweep.Uniform(1, 1 << 20),
          codes[sweep.Uniform(0, 2)]);
      if (sweep.Flip(0.3)) spec.latency_ms = 0.5;  // latency spike too
      FailPoints::Instance().Arm(pt, spec);
    }

    MixedResult r = RunEpisode(&tm, 100 + static_cast<uint64_t>(ep), 60);
    FailPoints::Instance().DisarmAll();
    SCOPED_TRACE("episode " + std::to_string(ep) + " armed: " + armed[0] +
                 "," + armed[1] + (armed.size() > 2 ? "," + armed[2] : ""));

    // (d) terminated, with sane accounting. A threadpool.task injection
    // skips client-worker morsels by design; the surviving workers drain
    // the whole op budget unless every worker morsel was skipped.
    uint64_t total_ops = 0;
    for (const auto& [type, st] : r.per_type) total_ops += st.count;
    if (tp_armed) {
      EXPECT_TRUE(total_ops == 60u || total_ops == 0u) << total_ops;
    } else {
      EXPECT_EQ(total_ops, 60u);
    }
    EXPECT_LT(r.wall_ms, 120000.0);

    // (a) no leaked locks, (b) no leaked versions.
    EXPECT_EQ(tm.locks()->TotalGranted(), 0u);
    tm.GarbageCollect();
    EXPECT_EQ(tm.version_count(), 0u);

    // (e) failures, when present, are well-typed: the injected code for
    // non-retryable faults, kResourceExhausted when the retry budget ran
    // out on retryable ones.
    if (r.total_failures > 0) {
      ASSERT_FALSE(r.first_error.ok());
      EXPECT_TRUE(r.first_error.IsResourceExhausted() ||
                  r.first_error.IsIoError() || r.first_error.IsAborted())
          << r.first_error.ToString();
    } else {
      EXPECT_TRUE(r.first_error.ok());
    }
    EXPECT_LE(r.total_exhausted, r.total_failures);

    // (f) exact metrics rollup: driver totals == merged QueryMetrics.
    EXPECT_EQ(r.metrics.txn_retries.load(), r.total_retries);
    if (r.total_retries > 0) {
      EXPECT_GT(r.metrics.backoff_ns.load(), 0u);
    }

    // (c) recovery: the next uninjected queries succeed on both designs.
    QueryResult qh = RunOne(&tm, MicroQ1("h", 0.5, 1000), 4);
    EXPECT_TRUE(qh.ok()) << qh.status.ToString();
    QueryResult qc = RunOne(&tm, MicroQ1("c", 0.5, 1000), 4);
    EXPECT_TRUE(qc.ok()) << qc.status.ToString();
  }
  sampler.Stop();
  EXPECT_GT(sampler.samples_written(), 0u);
}

// Shutdown-ordering regression: the sampler must keep snapshotting safely
// while every engine object it reports on (Database -> tables -> CSIs ->
// BufferPool, TransactionManager) is destroyed underneath it, because it
// reads only the leaked registry. The per-instance gauge contributions
// must also retract exactly on destruction, so process gauges return to
// their pre-engine baseline instead of pointing at dead objects.
TEST(TelemetryShutdownOrder, SamplerSurvivesEngineTeardown) {
  const TelemetrySnapshot before = Telemetry::Instance().Snapshot();
  const auto base_gauge = [&](const char* n) {
    auto it = before.gauges.find(n);
    return it == before.gauges.end() ? int64_t{0} : it->second;
  };

  TelemetrySampler sampler;
  ASSERT_TRUE(
      sampler.Start(TempPath("shutdown_stats") + ".jsonl", 1).ok());
  {
    Database db;
    MicroOptions mo;
    mo.rows = 20000;
    mo.max_value = 1000;
    Table* c = MakeUniformIntTable(&db, "t", 3, mo);
    ASSERT_TRUE(c->SetPrimary(PrimaryKind::kColumnStore).ok());
    TransactionManager tm;
    // Touch every instrumented subsystem so the gauges are non-trivially
    // populated while the sampler ticks.
    Optimizer opt(&db);
    Query q = MicroQ1("t", 0.5, 1000);
    auto plan = opt.Plan(q, Configuration::FromCatalog(db), {});
    ASSERT_TRUE(plan.ok());
    ExecContext ctx;
    ctx.db = &db;
    ctx.txns = &tm;
    ctx.max_dop = 4;
    Executor ex(ctx);
    ASSERT_TRUE(ex.Execute(q, plan->plan).ok());
    TelemetrySnapshot live = Telemetry::Instance().Snapshot();
    EXPECT_GT(live.gauges["csi.row_groups"], base_gauge("csi.row_groups"));
    EXPECT_GT(live.gauges["bp.total_bytes"], base_gauge("bp.total_bytes"));
    // Engine objects die here, sampler still running.
  }
  // Let the sampler take ticks strictly after the teardown.
  const uint64_t at_teardown = sampler.samples_written();
  while (sampler.samples_written() < at_teardown + 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sampler.Stop();
  EXPECT_GT(sampler.samples_written(), at_teardown);

  const TelemetrySnapshot after = Telemetry::Instance().Snapshot();
  for (const char* g : {"csi.row_groups", "csi.compressed_rows",
                        "csi.delta_rows", "csi.delete_buffer_rows",
                        "csi.deleted_rows", "csi.compressed_bytes",
                        "csi.raw_bytes", "bp.resident_bytes",
                        "bp.total_bytes"}) {
    auto it = after.gauges.find(g);
    if (it == after.gauges.end()) continue;
    EXPECT_EQ(it->second, base_gauge(g)) << g;
  }
}

TEST_F(ChaosTest, LockInjectionLeavesCleanStateAndRecovers) {
  TransactionManager tm;
  Query upd;
  upd.kind = Query::Kind::kUpdate;
  upd.base.table = "h";
  upd.base.preds = {Pred::Lt(0, Value::Int64(100))};
  upd.sets = {UpdateSet::Add(1, 1.0)};

  {
    ScopedFailPoint fp("lockmgr.acquire", FailSpec::OneShot(Code::kAborted,
                                                            "spurious"));
    auto txn = tm.Begin(IsolationLevel::kReadCommitted);
    Optimizer opt(&db_);
    auto plan = opt.Plan(upd, Configuration::FromCatalog(db_), {});
    ASSERT_TRUE(plan.ok());
    ExecContext ctx;
    ctx.db = &db_;
    ctx.txns = &tm;
    ctx.txn = txn.get();
    Executor ex(ctx);
    QueryResult r = ex.Execute(upd, plan->plan);
    EXPECT_TRUE(r.status.IsAborted()) << r.status.ToString();
    tm.Abort(txn.get());
  }
  // The abort left no locks and no phantom versions behind.
  EXPECT_EQ(tm.locks()->TotalGranted(), 0u);
  tm.GarbageCollect();
  EXPECT_EQ(tm.version_count(), 0u);

  // Uninjected retry of the identical statement succeeds.
  auto txn = tm.Begin(IsolationLevel::kReadCommitted);
  Optimizer opt(&db_);
  auto plan = opt.Plan(upd, Configuration::FromCatalog(db_), {});
  ASSERT_TRUE(plan.ok());
  ExecContext ctx;
  ctx.db = &db_;
  ctx.txns = &tm;
  ctx.txn = txn.get();
  Executor ex(ctx);
  QueryResult r = ex.Execute(upd, plan->plan);
  EXPECT_TRUE(r.ok()) << r.status.ToString();
  tm.Commit(txn.get());
  EXPECT_EQ(tm.locks()->TotalGranted(), 0u);
}

TEST_F(ChaosTest, MorselInjectionCancelsLoopAndPoolSurvives) {
  TransactionManager tm;
  {
    ScopedFailPoint fp("threadpool.task",
                       FailSpec::EveryNth(4, Code::kIoError, "lane died"));
    std::atomic<bool> cancel{false};
    std::atomic<uint64_t> ran{0};
    MorselStats ms = ThreadPool::Global().ParallelFor(
        256, 4, [&](int, uint64_t) { ran.fetch_add(1); }, &cancel);
    // The first injected lane failure surfaced and tripped cancellation:
    // the loop was cut short instead of burning all 256 morsels.
    EXPECT_TRUE(ms.status.IsIoError()) << ms.status.ToString();
    EXPECT_TRUE(cancel.load());
    EXPECT_LT(ran.load(), 256u);
    EXPECT_EQ(ms.scheduled, ran.load());
  }
  // The pool is not hung: a full loop and a parallel query both run clean.
  MorselStats ms = ThreadPool::Global().ParallelFor(
      256, 4, [](int, uint64_t) {}, nullptr);
  EXPECT_TRUE(ms.status.ok());
  EXPECT_EQ(ms.scheduled, 256u);
  QueryResult r = RunOne(&tm, MicroQ1("h", 1.0, 1000), 4);
  EXPECT_TRUE(r.ok()) << r.status.ToString();
}

TEST_F(ChaosTest, RetryBudgetExhaustionSurfacesWithCounters) {
  TransactionManager tm;
  // Every lock acquire fails -> every op retries to exhaustion (scans,
  // updates, and inserts all acquire locks under RC).
  FailPoints::Instance().Arm("lockmgr.acquire",
                             FailSpec::Always(Code::kAborted, "spurious"));
  MixedResult r = RunEpisode(&tm, 7, 24);
  FailPoints::Instance().DisarmAll();

  EXPECT_EQ(r.total_failures, 24u);
  EXPECT_EQ(r.total_exhausted, 24u);
  ASSERT_FALSE(r.first_error.ok());
  EXPECT_TRUE(r.first_error.IsResourceExhausted()) << r.first_error.ToString();
  // 4 retries per op, all counted in both rollups, with real backoff time.
  EXPECT_EQ(r.total_retries, 24u * 4);
  EXPECT_EQ(r.metrics.txn_retries.load(), r.total_retries);
  EXPECT_GT(r.metrics.backoff_ns.load(), 0u);
  uint64_t failures = 0;
  for (const auto& [type, st] : r.per_type) failures += st.failures;
  EXPECT_EQ(failures, 24u);

  EXPECT_EQ(tm.locks()->TotalGranted(), 0u);
  tm.GarbageCollect();
  EXPECT_EQ(tm.version_count(), 0u);

  // Clean run afterwards: no residual failures.
  MixedResult clean = RunEpisode(&tm, 8, 24);
  EXPECT_EQ(clean.total_failures, 0u);
  EXPECT_TRUE(clean.first_error.ok()) << clean.first_error.ToString();
}

// Connection-fault sweep over the socket/session layer's failpoint seams
// (server.accept, server.read, server.write — docs/ROBUSTNESS.md). Each
// episode arms a probability mix while clients hammer the server with
// queries and abrupt disconnects; after disarming, the server must hold
// the same invariants as the engine sweep: no leaked sessions, no leaked
// locks, and full recovery for the next clean client.
TEST_F(ChaosTest, ServerConnectionFaultSweepRecovers) {
  ServerOptions sopts;
  sopts.shared_scans = true;
  sopts.workers = 2;
  Server server(&db_, sopts);
  ASSERT_TRUE(server.Start().ok());

  Rng sweep(20260809);
  const char* kSeams[] = {"server.accept", "server.read", "server.write"};
  for (int ep = 0; ep < 4; ++ep) {
    SCOPED_TRACE("episode " + std::to_string(ep));
    const int npoints = static_cast<int>(sweep.Uniform(1, 3));
    for (int i = 0; i < npoints; ++i) {
      FailPoints::Instance().Arm(
          kSeams[sweep.Uniform(0, 2)],
          FailSpec::Probability(sweep.UniformReal(0.05, 0.4),
                                sweep.Uniform(1, 1 << 20), Code::kIoError,
                                "connection chaos"));
    }

    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t) {
      const uint64_t seed = sweep.Uniform(1, 1 << 20);
      clients.emplace_back([&server, seed] {
        Rng rng(seed);
        for (int q = 0; q < 8; ++q) {
          Client c;
          if (!c.Connect("127.0.0.1", server.port()).ok()) continue;
          // Errors are expected under injection; crashes and hangs are
          // not. A fraction of clients vanish mid-conversation.
          (void)c.Query(rng.Flip(0.5)
                            ? "SELECT sum(col0) FROM c WHERE col0 < 500"
                            : "SELECT count(*) FROM h WHERE col1 < 200");
          if (rng.Flip(0.3)) {
            c.Abort();
          } else {
            (void)c.Close();
          }
        }
      });
    }
    for (auto& th : clients) th.join();
    FailPoints::Instance().DisarmAll();

    // Invariants after every episode: sessions drain, nothing leaks,
    // and a clean client gets a correct answer.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(5000);
    while (server.sessions_active() > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(server.sessions_active(), 0);
    EXPECT_EQ(server.txns()->locks()->TotalGranted(), 0u);
    EXPECT_EQ(server.scan_scheduler()->active_passes(), 0u);
    Client probe;
    ASSERT_TRUE(probe.Connect("127.0.0.1", server.port()).ok());
    auto r = probe.Query("SELECT count(*) FROM h");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->rows.size(), 1u);
    EXPECT_EQ(r->rows[0][0].ToString(), "20000");
  }
  server.Stop();
}

// Query-store chaos (docs/ROBUSTNESS.md, PR 10): the `querystore.record`
// seam is swept with probability faults while concurrent clients run
// statements through the server. The capture contract is best-effort:
//   (k) no query ever fails because its capture write was poisoned
//   (l) exact accounting — recorded + dropped == statements issued
TEST_F(ChaosTest, QueryStoreFaultSweepNeverFailsQueries) {
  ServerOptions sopts;
  sopts.workers = 2;
  Server server(&db_, sopts);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.query_store(), nullptr);

  Rng sweep(424242);
  uint64_t issued = 0;
  for (int ep = 0; ep < 3; ++ep) {
    SCOPED_TRACE("episode " + std::to_string(ep));
    FailPoints::Instance().Arm(
        "querystore.record",
        FailSpec::Probability(sweep.UniformReal(0.2, 0.8),
                              sweep.Uniform(1, 1 << 20), Code::kIoError,
                              "capture chaos"));
    std::atomic<uint64_t> ok_count{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t) {
      clients.emplace_back([&server, &ok_count] {
        Client c;
        if (!c.Connect("127.0.0.1", server.port()).ok()) return;
        for (int q = 0; q < 10; ++q) {
          auto r = c.Query("SELECT count(*) FROM h WHERE col1 < 200");
          // (k): capture faults must be invisible to the client.
          EXPECT_TRUE(r.ok()) << r.status().ToString();
          if (r.ok()) ok_count.fetch_add(1);
        }
        (void)c.Close();
      });
    }
    for (auto& th : clients) th.join();
    FailPoints::Instance().DisarmAll();
    issued += ok_count.load();
    EXPECT_EQ(ok_count.load(), 40u);
  }
  // (l): every issued statement was either captured or counted dropped —
  // and the sweep probabilities make both bins nonempty with certainty
  // for these seeds.
  const QueryStore& qs = *server.query_store();
  EXPECT_EQ(qs.recorded() + qs.dropped(), issued);
  EXPECT_GT(qs.recorded(), 0u);
  EXPECT_GT(qs.dropped(), 0u);
  server.Stop();
}

// Abrupt disconnect mid-exchange (PR 10): the session executes a
// statement it can no longer answer — the client is gone — but the
// query-store record must still be finalized exactly once: execution is
// synchronous in the session worker and the record is assembled at the
// executor's rollup point, before any doomed send.
TEST_F(ChaosTest, AbruptDisconnectStillFinalizesCaptureRecord) {
  ServerOptions sopts;
  sopts.workers = 1;
  Server server(&db_, sopts);
  ASSERT_TRUE(server.Start().ok());
  const uint64_t before = server.query_store()->recorded();
  {
    Client c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server.port()).ok());
    // Fire the query and vanish without reading the response.
    ASSERT_TRUE(WriteFrame(c.fd(), MsgType::kQuery,
                           EncodeQuery({"SELECT sum(col0) FROM c WHERE "
                                        "col0 < 900",
                                        0xabad1deaull}))
                    .ok());
    c.Abort();
  }
  // The worker finishes the statement and finalizes the record.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5000);
  while (server.query_store()->recorded() == before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.query_store()->recorded(), before + 1);
  auto recent = server.query_store()->Recent(1);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].trace_id, 0xabad1deaull);
  EXPECT_TRUE(recent[0].ok());
  // And the session itself drains without leaks.
  const auto drain =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5000);
  while (server.sessions_active() > 0 &&
         std::chrono::steady_clock::now() < drain) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.sessions_active(), 0);
  server.Stop();
}

// Restart chaos (docs/ROBUSTNESS.md "Durability"): a concurrent
// transactional insert workload over a DURABLE database is killed without
// a checkpoint or clean shutdown — with fsync faults injected mid-run —
// and recovered from disk. Invariants after every recovery, per seed:
//   (g) committed durable   — every txn whose Commit() returned OK is
//                             fully present after replay
//   (h) uncommitted gone    — every client-aborted txn is fully absent
//   (i) atomic ambiguity    — a commit that FAILED (durability unknown)
//                             is all-there or all-gone, never torn
//   (j) telemetry agreement — redo/undo record counts match the ledger
TEST_F(ChaosTest, RestartSweepCommittedDurableUncommittedGone) {
  for (const uint64_t seed : {1001ull, 2002ull, 3003ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string dir = TempPath("chaos_restart_" + std::to_string(seed));
    std::filesystem::remove_all(dir);

    constexpr int kThreads = 4;
    constexpr int kTxnsPerThread = 30;
    // Per-txn ledger: the pair of unique col0 values it inserted, by fate.
    std::mutex ledger_mu;
    std::vector<std::pair<int64_t, int64_t>> committed, aborted, unknown;
    {
      Database db;
      ASSERT_TRUE(db.OpenDurability(dir, DurabilityMode::kGroup).ok());
      auto made = db.CreateTable(
          "d", Schema({{"a", ValueType::kInt64, 0},
                       {"b", ValueType::kInt64, 0}}));
      ASSERT_TRUE(made.ok());
      // DDL is not logged: the checkpoint is its durability point.
      ASSERT_TRUE(db.Checkpoint().ok());
      TransactionManager tm;
      tm.BindWal(db.wal());

      // Fsync faults land on a fraction of group-commit batches, turning
      // those commits into durability-unknown failures.
      FailPoints::Instance().Arm(
          "wal.fsync", FailSpec::Probability(0.05, seed, Code::kIoError,
                                             "battery died"));
      std::vector<std::thread> workers;
      for (int tid = 0; tid < kThreads; ++tid) {
        workers.emplace_back([&, tid] {
          Rng rng(seed * 131 + tid);
          for (int i = 0; i < kTxnsPerThread; ++i) {
            const int64_t v = (tid * kTxnsPerThread + i) * 2;
            auto txn = tm.Begin(IsolationLevel::kReadCommitted);
            Query ins;
            ins.id = "ins";
            ins.kind = Query::Kind::kInsert;
            ins.base.table = "d";
            // Two rows in one txn: recovery must keep or drop BOTH.
            ins.insert_rows = {{Value::Int64(v), Value::Int64(tid)},
                               {Value::Int64(v + 1), Value::Int64(tid)}};
            Optimizer opt(&db);
            auto plan = opt.Plan(ins, Configuration::FromCatalog(db), {});
            ASSERT_TRUE(plan.ok());
            ExecContext ctx;
            ctx.db = &db;
            ctx.txns = &tm;
            ctx.txn = txn.get();
            Executor ex(ctx);
            QueryResult r = ex.Execute(ins, plan->plan);
            std::lock_guard<std::mutex> g(ledger_mu);
            if (!r.ok()) {
              tm.Abort(txn.get());
              aborted.emplace_back(v, v + 1);
            } else if (rng.Flip(0.2)) {
              tm.Abort(txn.get());
              aborted.emplace_back(v, v + 1);
            } else if (Status cs = tm.Commit(txn.get()); cs.ok()) {
              committed.emplace_back(v, v + 1);
            } else {
              unknown.emplace_back(v, v + 1);
            }
          }
        });
      }
      for (auto& w : workers) w.join();
      FailPoints::Instance().DisarmAll();
      // kill -9: the Database goes away with no checkpoint and no drain.
    }

    Database db2;
    RecoveryStats stats;
    ASSERT_TRUE(db2.OpenDurability(dir, DurabilityMode::kGroup, WalOptions(),
                                   &stats)
                    .ok());
    Table* t = db2.GetTable("d");
    ASSERT_NE(t, nullptr);
    std::set<int64_t> present;
    t->ScanAll(
        [&](int64_t, const int64_t* row) {
          present.insert(row[0]);
          return true;
        },
        nullptr);
    for (const auto& [a, b] : committed) {
      EXPECT_TRUE(present.count(a) && present.count(b))
          << "committed txn (" << a << "," << b << ") lost";
    }
    for (const auto& [a, b] : aborted) {
      EXPECT_TRUE(!present.count(a) && !present.count(b))
          << "aborted txn (" << a << "," << b << ") survived";
    }
    for (const auto& [a, b] : unknown) {
      EXPECT_EQ(present.count(a), present.count(b))
          << "durability-unknown txn (" << a << "," << b << ") torn";
    }
    // Telemetry agreement: replay re-inserts every logged insert
    // (winners and losers), and undo removes at least the aborted pairs.
    EXPECT_GE(stats.redo_records,
              2 * (committed.size() + aborted.size()));
    EXPECT_GE(stats.undo_records, 2 * aborted.size());
  }
}

}  // namespace
}  // namespace hd
