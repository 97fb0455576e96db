// Batch-mode join pipeline (exec/join_hash.h, Bloom pushdown, late
// materialization through joins).
//
// The row-mode probe path is kept as the differential oracle: every
// batch-mode plan shape is executed against the identical data through a
// row-mode (heap base) plan and the result multisets must match exactly —
// including duplicate-heavy build keys (vector expansion), FK misses,
// empty build sides, and the in-band sentinel key the flat table reserves
// for "empty slot".
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <thread>
#include <vector>

#include "common/bloom.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "exec/admission.h"
#include "exec/executor.h"
#include "exec/join_hash.h"
#include "exec/scan_scheduler.h"
#include "optimizer/optimizer.h"
#include "workload/micro.h"

namespace hd {
namespace {

QueryResult ExecPlan(Database* db, const Query& q, const PhysicalPlan& p,
                int max_dop = 4, ScanScheduler* sched = nullptr,
                AdmissionController* adm = nullptr) {
  ExecContext ctx;
  ctx.db = db;
  ctx.max_dop = max_dop;
  ctx.scan_scheduler = sched;
  ctx.admission = adm;
  Executor ex(ctx);
  return ex.Execute(q, p);
}

QueryResult RunPlanned(Database* db, const Query& q, int max_dop = 4,
                       ScanScheduler* sched = nullptr,
                       AdmissionController* adm = nullptr) {
  Optimizer opt(db);
  auto plan = opt.Plan(q, Configuration::FromCatalog(*db), {});
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return ExecPlan(db, q, plan->plan, max_dop, sched, adm);
}

/// Rows as plain int64 tuples, sorted, for multiset comparison.
std::vector<std::vector<int64_t>> SortedRows(const QueryResult& r) {
  std::vector<std::vector<int64_t>> out;
  out.reserve(r.rows.size());
  for (const auto& row : r.rows) {
    std::vector<int64_t> t;
    t.reserve(row.size());
    for (const auto& v : row) t.push_back(v.i64());
    out.push_back(std::move(t));
  }
  std::sort(out.begin(), out.end());
  return out;
}

PhysicalPlan HashJoinPlan(AccessPath::Kind base, size_t njoins = 1,
                          int dop = 1) {
  PhysicalPlan p;
  p.base.kind = base;
  for (size_t s = 0; s < njoins; ++s) {
    JoinStep js;
    js.join_idx = static_cast<int>(s);
    js.method = JoinStep::Method::kHash;
    js.dim_path.kind = AccessPath::Kind::kHeapScan;
    p.joins.push_back(js);
  }
  p.agg = AggMethod::kHash;
  p.dop = dop;
  return p;
}

// ---------------------------------------------------------------------
// Fixture: the same fact data behind a CSI primary (batch-mode base) and
// a heap primary (row-mode oracle), joined to configurable dimensions.
// ---------------------------------------------------------------------

class BatchJoinTest : public ::testing::Test {
 protected:
  /// fact(fk, measure): `rows` rows, fk uniform in [0, fk_max].
  void MakeFacts(int rows, int64_t fk_max, uint64_t seed = 42) {
    Rng rng(seed);
    std::vector<std::vector<int64_t>> cols(2);
    for (int i = 0; i < rows; ++i) {
      cols[0].push_back(rng.Uniform(0, fk_max));
      cols[1].push_back(rng.Uniform(0, 1000));
    }
    auto csi = db_.CreateTable(
        "fact_csi", Schema({{"fk", ValueType::kInt64, 0},
                            {"measure", ValueType::kInt64, 0}}));
    auto cols2 = cols;
    csi.value()->BulkLoadPacked(std::move(cols2));
    ASSERT_TRUE(csi.value()->SetPrimary(PrimaryKind::kColumnStore).ok());
    auto heap = db_.CreateTable(
        "fact_row", Schema({{"fk", ValueType::kInt64, 0},
                            {"measure", ValueType::kInt64, 0}}));
    heap.value()->BulkLoadPacked(std::move(cols));
  }

  /// dim(pk, attr): n rows, pk = key_of(i), attr = i % 10.
  template <typename KeyFn>
  void MakeDim(const std::string& name, int n, KeyFn key_of) {
    auto dim = db_.CreateTable(name, Schema({{"pk", ValueType::kInt64, 0},
                                             {"attr", ValueType::kInt64, 0}}));
    std::vector<std::vector<int64_t>> cols(2);
    for (int i = 0; i < n; ++i) {
      cols[0].push_back(key_of(i));
      cols[1].push_back(i % 10);
    }
    dim.value()->BulkLoadPacked(std::move(cols));
  }

  /// SELECT fact.fk, fact.measure, dim.attr with an optional dim filter.
  Query WideJoinQuery(const std::string& fact, const std::string& dim,
                      int attr_eq = -1) {
    Query q;
    q.base.table = fact;
    JoinClause jc;
    jc.dim.table = dim;
    if (attr_eq >= 0) jc.dim.preds.push_back(Pred::Eq(1, Value::Int64(attr_eq)));
    jc.base_col = 0;
    jc.dim_col = 0;
    q.joins.push_back(jc);
    q.select_cols = {ColRef{0, 0}, ColRef{0, 1}, ColRef{1, 1}};
    return q;
  }

  /// Batch (CSI base) and row (heap base) runs must agree exactly.
  void ExpectBatchMatchesRow(const std::string& dim, int attr_eq,
                             int dop = 1) {
    Query qb = WideJoinQuery("fact_csi", dim, attr_eq);
    Query qr = WideJoinQuery("fact_row", dim, attr_eq);
    QueryResult rb =
        ExecPlan(&db_, qb, HashJoinPlan(AccessPath::Kind::kCsiScan, 1, dop));
    QueryResult rr = ExecPlan(&db_, qr, HashJoinPlan(AccessPath::Kind::kHeapScan));
    ASSERT_TRUE(rb.ok()) << rb.status.ToString();
    ASSERT_TRUE(rr.ok()) << rr.status.ToString();
    EXPECT_EQ(SortedRows(rb), SortedRows(rr));
    // The CSI base must actually have taken the batch-probe path, and the
    // heap base must not have.
    if (rb.row_count > 0) {
      EXPECT_GT(rb.metrics.join_batch_probes.load(), 0u);
    }
    EXPECT_EQ(rr.metrics.join_batch_probes.load(), 0u);
    // Bloom safety: a filter may drop at most the non-matching inflow,
    // and every match must have survived both filter and probe.
    EXPECT_LE(rb.metrics.join_bloom_filtered.load(),
              rb.metrics.join_bloom_checks.load());
    EXPECT_GE(rb.metrics.join_matches.load(), rb.row_count);
  }

  Database db_;
};

TEST_F(BatchJoinTest, DuplicateHeavyBuildKeysMatchRowMode) {
  // Result sets must stay under the executor's kMaxMaterializedRows cap
  // or batch and row mode would each truncate a different subset.
  MakeFacts(800, 39);
  // 400 dim rows over 40 distinct keys: every probe hit expands 10-way.
  MakeDim("dim", 400, [](int i) { return i % 40; });
  ExpectBatchMatchesRow("dim", /*attr_eq=*/3);
  ExpectBatchMatchesRow("dim", /*attr_eq=*/-1);
}

TEST_F(BatchJoinTest, FkMissesMatchRowMode) {
  // fk in [0, 800) but dim keys only cover [0, 400): half the probes miss
  // and most of those are Bloom-filtered before the probe kernels run.
  MakeFacts(16000, 799);
  MakeDim("dim", 400, [](int i) { return i; });
  ExpectBatchMatchesRow("dim", /*attr_eq=*/-1);
  Query q = WideJoinQuery("fact_csi", "dim");
  QueryResult r = ExecPlan(&db_, q, HashJoinPlan(AccessPath::Kind::kCsiScan));
  EXPECT_GT(r.metrics.join_bloom_filtered.load(), 0u);
}

TEST_F(BatchJoinTest, EmptyBuildSideProbesNothing) {
  MakeFacts(20000, 399);
  MakeDim("dim", 400, [](int i) { return i; });
  MakeDim("dim_empty", 0, [](int i) { return i; });
  // An impossible dim predicate and a zero-row dimension both yield an
  // all-zero Bloom filter, so every scanned row is filtered before the
  // probe kernels ever run.
  for (const char* dim : {"dim_empty"}) {
    Query q = WideJoinQuery("fact_csi", dim);
    QueryResult r = ExecPlan(&db_, q, HashJoinPlan(AccessPath::Kind::kCsiScan));
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    EXPECT_EQ(r.row_count, 0u);
    EXPECT_GT(r.metrics.join_bloom_checks.load(), 0u);
    EXPECT_EQ(r.metrics.join_bloom_filtered.load(),
              r.metrics.join_bloom_checks.load());
    EXPECT_EQ(r.metrics.join_batch_probes.load(), 0u);
  }
  Query q = WideJoinQuery("fact_csi", "dim", /*attr_eq=*/77);  // impossible
  QueryResult r = ExecPlan(&db_, q, HashJoinPlan(AccessPath::Kind::kCsiScan));
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(r.row_count, 0u);
  EXPECT_EQ(r.metrics.join_batch_probes.load(), 0u);
}

TEST_F(BatchJoinTest, ParallelBuildAndProbeMatchesSerial) {
  // Dimension large enough for several CSI row groups, so PrepareJoins
  // takes the morsel-parallel build path at dop > 1.
  MakeFacts(50000, 299999);
  MakeDim("bigdim", 300000, [](int i) { return i; });
  Table* d = db_.GetTable("bigdim");
  ASSERT_TRUE(d->SetPrimary(PrimaryKind::kColumnStore).ok());
  Query q;
  q.base.table = "fact_csi";
  JoinClause jc;
  jc.dim.table = "bigdim";
  jc.dim.preds.push_back(Pred::Lt(1, Value::Int64(5)));
  jc.base_col = 0;
  jc.dim_col = 0;
  q.joins.push_back(jc);
  q.aggs.push_back(AggSpec::Sum(Expr::Col(0, 1), "s"));
  q.aggs.push_back(AggSpec::CountStar());
  PhysicalPlan serial = HashJoinPlan(AccessPath::Kind::kCsiScan, 1, 1);
  serial.joins[0].dim_path.kind = AccessPath::Kind::kCsiScan;
  PhysicalPlan par = serial;
  par.dop = 4;
  QueryResult rs = ExecPlan(&db_, q, serial);
  QueryResult rp = ExecPlan(&db_, q, par, /*max_dop=*/4);
  ASSERT_TRUE(rs.ok()) << rs.status.ToString();
  ASSERT_TRUE(rp.ok()) << rp.status.ToString();
  EXPECT_EQ(SortedRows(rs), SortedRows(rp));
  EXPECT_GT(rp.metrics.join_batch_probes.load(), 0u);
}

TEST_F(BatchJoinTest, LimitStopsBatchJoinEarly) {
  MakeFacts(200000, 399);
  MakeDim("dim", 400, [](int i) { return i; });
  Query q = WideJoinQuery("fact_csi", "dim");
  q.limit = 10;
  QueryResult r = ExecPlan(&db_, q, HashJoinPlan(AccessPath::Kind::kCsiScan));
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(r.row_count, 10u);
  EXPECT_LT(r.metrics.rows_scanned.load(), 200000u);
}

// A columnstore projection without joins ends in the output sink too: a
// LIMIT without ORDER BY stops the scan once the sink has its rows, at
// DOP 1 and across morsel workers, and Project counts only the rows the
// sink took.
TEST_F(BatchJoinTest, LimitStopsColumnstoreProjectionEarly) {
  MakeFacts(200000, 399);
  Query q;
  q.base.table = "fact_csi";
  q.select_cols = {ColRef{0, 0}, ColRef{0, 1}};
  q.limit = 10;
  for (int dop : {1, 4}) {
    SCOPED_TRACE(dop);
    PhysicalPlan p;
    p.base.kind = AccessPath::Kind::kCsiScan;
    p.dop = dop;
    QueryResult r = ExecPlan(&db_, q, p, dop);
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    EXPECT_EQ(r.row_count, 10u);
    EXPECT_EQ(r.rows.size(), 10u);
    EXPECT_LT(r.metrics.rows_scanned.load(), 200000u);
    ASSERT_EQ(r.operators.back().name, "Project");
    EXPECT_EQ(r.operators.back().rows_in, 10u);
  }
}

TEST_F(BatchJoinTest, AllPlanShapesAgree) {
  // Hash (batch + row), index-NL, and dimension-driven plans over the
  // same logical join must produce the same aggregate.
  MakeFacts(30000, 399);
  MakeDim("dim", 400, [](int i) { return i; });

  auto agg_query = [&](const std::string& fact) {
    Query q;
    q.base.table = fact;
    JoinClause jc;
    jc.dim.table = "dim";
    jc.dim.preds.push_back(Pred::Eq(1, Value::Int64(3)));
    jc.base_col = 0;
    jc.dim_col = 0;
    q.joins.push_back(jc);
    q.aggs.push_back(AggSpec::Sum(Expr::Col(0, 1), "s"));
    return q;
  };
  QueryResult batch = ExecPlan(&db_, agg_query("fact_csi"),
                          HashJoinPlan(AccessPath::Kind::kCsiScan));
  QueryResult row = ExecPlan(&db_, agg_query("fact_row"),
                        HashJoinPlan(AccessPath::Kind::kHeapScan));
  // Index-NL needs the dim behind a B+ tree on the join column; convert
  // only after the heap-scanning hash plans above have run.
  ASSERT_TRUE(db_.GetTable("dim")->SetPrimary(PrimaryKind::kBTree, {0}).ok());
  PhysicalPlan nl;
  nl.base.kind = AccessPath::Kind::kHeapScan;
  JoinStep js;
  js.join_idx = 0;
  js.method = JoinStep::Method::kIndexNL;
  js.dim_path.kind = AccessPath::Kind::kBTreeRange;
  nl.joins.push_back(js);
  nl.agg = AggMethod::kHash;
  QueryResult nlr = ExecPlan(&db_, agg_query("fact_row"), nl);
  ASSERT_TRUE(batch.ok() && row.ok() && nlr.ok());
  ASSERT_EQ(batch.rows.size(), 1u);
  EXPECT_EQ(batch.rows[0][0].i64(), row.rows[0][0].i64());
  EXPECT_EQ(batch.rows[0][0].i64(), nlr.rows[0][0].i64());
}

TEST_F(BatchJoinTest, RollupChargesJoinCountersToJoinOperator) {
  MakeFacts(30000, 799);
  MakeDim("dim", 400, [](int i) { return i; });
  Query q = WideJoinQuery("fact_csi", "dim");
  QueryResult r = ExecPlan(&db_, q, HashJoinPlan(AccessPath::Kind::kCsiScan));
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  ASSERT_GE(r.operators.size(), 3u);  // scan, join, project
  uint64_t op_probes = 0, op_checks = 0, op_filtered = 0, op_matches = 0;
  for (const auto& op : r.operators) {
    const uint64_t c = op.metrics.join_bloom_checks.load();
    const uint64_t p = op.metrics.join_batch_probes.load();
    if (c > 0 || p > 0) {
      // Bloom and probe work is attributed to join operators only — never
      // to the scan the filter physically ran inside.
      EXPECT_EQ(op.phase, "join") << op.name;
    }
    op_probes += p;
    op_checks += c;
    op_filtered += op.metrics.join_bloom_filtered.load();
    op_matches += op.metrics.join_matches.load();
  }
  EXPECT_GT(op_probes, 0u);
  EXPECT_GT(op_checks, 0u);
  // Exact-sum rollup: query totals are the sum over operator blocks (the
  // residual contributes no join work).
  EXPECT_EQ(r.metrics.join_batch_probes.load(), op_probes);
  EXPECT_EQ(r.metrics.join_bloom_checks.load(), op_checks);
  EXPECT_EQ(r.metrics.join_bloom_filtered.load(), op_filtered);
  EXPECT_EQ(r.metrics.join_matches.load(), op_matches);
}

// ---------------------------------------------------------------------
// Sentinel-collision regression: a legitimate build/probe key equal to
// FlatJoinMap's in-band empty marker must behave like any other key.
// ---------------------------------------------------------------------

TEST(FlatJoinMapTest, SentinelKeyIsAnOrdinaryKey) {
  const int64_t S = FlatJoinMap::kEmptyKey;
  std::vector<std::pair<int64_t, uint32_t>> pairs;
  std::multimap<int64_t, uint32_t> oracle;
  Rng rng(7);
  uint32_t next = 0;
  auto add = [&](int64_t k) {
    pairs.emplace_back(k, next);
    oracle.emplace(k, next);
    ++next;
  };
  // The sentinel key itself, duplicated, surrounded by a dense adversarial
  // neighbourhood and random keys (the old in-executor table truncated
  // probe chains once a build key equal to the sentinel was inserted).
  add(S);
  add(S);
  add(S);
  for (int64_t d = 1; d <= 16; ++d) add(S + d);
  for (int i = 0; i < 500; ++i) add(rng.Uniform(0, 1000));
  FlatJoinMap m;
  m.Build(pairs);
  EXPECT_FALSE(m.unique_keys());
  EXPECT_EQ(m.size(), pairs.size());

  std::vector<int64_t> probes;
  for (const auto& [k, v] : oracle) {
    (void)v;
    probes.push_back(k);
  }
  probes.push_back(S - 1);     // miss next to the sentinel
  probes.push_back(12345678);  // plain miss
  for (int64_t k : probes) {
    uint32_t n = 0;
    const uint32_t* idx = m.Find(k, &n);
    auto [lo, hi] = oracle.equal_range(k);
    std::vector<uint32_t> want, got;
    for (auto it = lo; it != hi; ++it) want.push_back(it->second);
    for (uint32_t i = 0; i < n; ++i) got.push_back(idx[i]);
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "key " << k;
  }

  // The batch kernels must agree with Find() on the same probe vector.
  std::vector<uint64_t> hashes(probes.size());
  std::vector<int32_t> slots(probes.size());
  m.ComputeHashes(probes.data(), probes.size(), hashes.data());
  m.FindSlots(probes.data(), hashes.data(), probes.size(), slots.data());
  std::vector<uint32_t> prow, brow;
  const size_t nm =
      m.ExpandMatches(slots.data(), probes.size(), &prow, &brow);
  std::multimap<int64_t, uint32_t> got;
  for (size_t i = 0; i < nm; ++i) got.emplace(probes[prow[i]], brow[i]);
  std::multimap<int64_t, uint32_t> want;
  for (int64_t k : probes) {
    auto [lo, hi] = oracle.equal_range(k);
    for (auto it = lo; it != hi; ++it) want.emplace(k, it->second);
  }
  EXPECT_EQ(got, want);
}

TEST(FlatJoinMapTest, UniqueDetectionSurvivesSentinelKey) {
  std::vector<std::pair<int64_t, uint32_t>> pairs;
  for (int i = 0; i < 100; ++i) {
    pairs.emplace_back(i * 3, static_cast<uint32_t>(i));
  }
  pairs.emplace_back(FlatJoinMap::kEmptyKey, 100);
  FlatJoinMap m;
  m.Build(pairs);
  EXPECT_TRUE(m.unique_keys());
  pairs.emplace_back(FlatJoinMap::kEmptyKey, 101);  // now a duplicate
  m.Build(pairs);
  EXPECT_FALSE(m.unique_keys());
}

TEST_F(BatchJoinTest, SentinelKeyEndToEnd) {
  // Fact and dim both carry the sentinel key value; batch and row plans
  // must agree on the join result.
  const int64_t S = FlatJoinMap::kEmptyKey;
  auto mk = [&](const char* name, bool csi) {
    auto t = db_.CreateTable(
        name, Schema({{"fk", ValueType::kInt64, 0},
                      {"measure", ValueType::kInt64, 0}}));
    std::vector<std::vector<int64_t>> cols(2);
    for (int i = 0; i < 5000; ++i) {
      cols[0].push_back(i % 7 == 0 ? S : i % 50);
      cols[1].push_back(i);
    }
    t.value()->BulkLoadPacked(std::move(cols));
    if (csi) {
      ASSERT_TRUE(t.value()->SetPrimary(PrimaryKind::kColumnStore).ok());
    }
  };
  mk("sfact_csi", true);
  mk("sfact_row", false);
  MakeDim("sdim", 60, [&](int i) { return i == 59 ? S : i; });
  Query qb = WideJoinQuery("sfact_csi", "sdim");
  Query qr = WideJoinQuery("sfact_row", "sdim");
  QueryResult rb = ExecPlan(&db_, qb, HashJoinPlan(AccessPath::Kind::kCsiScan));
  QueryResult rr = ExecPlan(&db_, qr, HashJoinPlan(AccessPath::Kind::kHeapScan));
  ASSERT_TRUE(rb.ok()) << rb.status.ToString();
  ASSERT_TRUE(rr.ok()) << rr.status.ToString();
  EXPECT_GT(rb.row_count, 0u);
  EXPECT_EQ(SortedRows(rb), SortedRows(rr));
}

// ---------------------------------------------------------------------
// Bloom filter unit: false positives allowed, false negatives never.
// ---------------------------------------------------------------------

TEST(BlockedBloomTest, NoFalseNegativesAndBoundedFalsePositives) {
  BlockedBloomFilter f;
  f.Init(10000);
  for (int64_t k = 0; k < 10000; ++k) f.Insert(k * 3);
  for (int64_t k = 0; k < 10000; ++k) {
    ASSERT_TRUE(f.MayContain(k * 3)) << k;  // never drop a real match
  }
  int fp = 0;
  for (int64_t k = 0; k < 10000; ++k) {
    if (f.MayContain(k * 3 + 1)) ++fp;
  }
  EXPECT_LT(fp, 1000);  // loose: a useful filter, not a specific rate
}

TEST(BlockedBloomTest, EmptyFilterRejectsEverything) {
  BlockedBloomFilter f;
  EXPECT_TRUE(f.empty());
  f.Init(0);
  EXPECT_FALSE(f.empty());
  for (int64_t k = -5; k < 5; ++k) EXPECT_FALSE(f.MayContain(k));
  EXPECT_FALSE(f.MayContain(FlatJoinMap::kEmptyKey));
}

// ---------------------------------------------------------------------
// Batch joins alongside shared scans + admission control.
// ---------------------------------------------------------------------

TEST_F(BatchJoinTest, JoinsUnderSharedScansAndAdmission) {
  MakeFacts(200000, 399);
  MakeDim("dim", 400, [](int i) { return i; });
  Query join_q = WideJoinQuery("fact_csi", "dim", /*attr_eq=*/3);
  join_q.select_cols.clear();
  Query scan_q;
  scan_q.base.table = "fact_csi";
  scan_q.base.preds.push_back(Pred::Lt(0, Value::Int64(200)));
  scan_q.aggs.push_back(AggSpec::Sum(Expr::Col(0, 1), "s"));
  join_q.aggs.push_back(AggSpec::Sum(Expr::Col(0, 1), "s"));

  const int64_t join_ref =
      ExecPlan(&db_, join_q, HashJoinPlan(AccessPath::Kind::kCsiScan))
          .rows[0][0]
          .i64();
  const int64_t scan_ref = RunPlanned(&db_, scan_q).rows[0][0].i64();

  ScanScheduler sched;
  AdmissionOptions ao;
  ao.max_concurrent = 2;
  ao.max_queue_depth = 64;
  ao.queue_timeout_ms = 30000;
  AdmissionController adm(ao);
  std::vector<std::thread> threads;
  std::atomic<int> bad{0};
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&, i] {
      const bool join = i % 2 == 0;
      const Query& q = join ? join_q : scan_q;
      QueryResult r =
          join ? ExecPlan(&db_, q, HashJoinPlan(AccessPath::Kind::kCsiScan), 2,
                     &sched, &adm)
               : RunPlanned(&db_, q, 2, &sched, &adm);
      if (!r.ok() || r.rows.size() != 1 ||
          r.rows[0][0].i64() != (join ? join_ref : scan_ref)) {
        ++bad;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(adm.running(), 0);
  EXPECT_EQ(adm.grant_in_use(), 0u);
  EXPECT_LE(adm.peak_running(), 2);
}

// ---------------------------------------------------------------------
// A failpoint kill mid-build must leak neither latches nor admission
// passes: the statement fails, accounting returns to zero, and the same
// query (and DML on the same tables) succeed immediately afterwards.
// ---------------------------------------------------------------------

TEST_F(BatchJoinTest, FailpointMidBuildLeaksNothing) {
  MakeFacts(30000, 399);
  MakeDim("dim", 400, [](int i) { return i; });
  Query q = WideJoinQuery("fact_csi", "dim", /*attr_eq=*/3);
  AdmissionController adm;
  {
    ScopedFailPoint fp("exec.join_build",
                       FailSpec::Always(Code::kIoError, "mid-build kill"));
    QueryResult r = ExecPlan(&db_, q, HashJoinPlan(AccessPath::Kind::kCsiScan),
                        /*max_dop=*/4, nullptr, &adm);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.status.IsIoError()) << r.status.ToString();
  }
  EXPECT_EQ(adm.running(), 0);
  EXPECT_EQ(adm.grant_in_use(), 0u);
  // No leaked admission pass or latch: the query and a write on the same
  // table both run to completion.
  QueryResult ok = ExecPlan(&db_, q, HashJoinPlan(AccessPath::Kind::kCsiScan),
                       /*max_dop=*/4, nullptr, &adm);
  ASSERT_TRUE(ok.ok()) << ok.status.ToString();
  EXPECT_GT(ok.row_count, 0u);
  Query ins;
  ins.kind = Query::Kind::kInsert;
  ins.base.table = "fact_csi";
  ins.insert_rows.push_back({Value::Int64(1), Value::Int64(1)});
  QueryResult ri = RunPlanned(&db_, ins);
  EXPECT_TRUE(ri.ok()) << ri.status.ToString();
}

}  // namespace
}  // namespace hd
