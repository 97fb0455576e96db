// Property tests: randomized queries and DML sequences must behave
// identically across every physical design, and engine invariants must
// hold under randomized mutation.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "workload/micro.h"

namespace hd {
namespace {

QueryResult RunQ(Database* db, const Query& q, int max_dop = 2) {
  Optimizer opt(db);
  auto plan = opt.Plan(q, Configuration::FromCatalog(*db), {});
  EXPECT_TRUE(plan.ok());
  ExecContext ctx;
  ctx.db = db;
  ctx.max_dop = max_dop;
  Executor ex(ctx);
  QueryResult r = ex.Execute(q, plan->plan);
  EXPECT_TRUE(r.ok()) << r.status.ToString();
  return r;
}

/// Generate a random single-table query over a 3-int-column table.
Query RandomQuery(Rng* rng, int64_t maxv) {
  Query q;
  q.id = "rand";
  q.base.table = "t";
  const int npred = static_cast<int>(rng->Uniform(0, 2));
  for (int p = 0; p < npred; ++p) {
    const int col = static_cast<int>(rng->Uniform(0, 2));
    const int64_t a = rng->Uniform(0, maxv);
    const int64_t b = rng->Uniform(0, maxv);
    switch (rng->Uniform(0, 3)) {
      case 0: q.base.preds.push_back(Pred::Lt(col, Value::Int64(a))); break;
      case 1: q.base.preds.push_back(Pred::Ge(col, Value::Int64(a))); break;
      case 2:
        q.base.preds.push_back(
            Pred::Between(col, Value::Int64(std::min(a, b)),
                          Value::Int64(std::max(a, b))));
        break;
      default: q.base.preds.push_back(Pred::Eq(col, Value::Int64(a % 50)));
    }
  }
  if (rng->Flip(0.5)) {
    q.aggs = {AggSpec::Sum(Expr::Col(0, 1), "s"), AggSpec::CountStar(),
              AggSpec::Min(Expr::Col(0, 2)), AggSpec::Max(Expr::Col(0, 0))};
    if (rng->Flip(0.4)) {
      q.group_by = {ColRef{0, static_cast<int>(rng->Uniform(0, 2))}};
    }
  } else {
    q.select_cols = {ColRef{0, 0}, ColRef{0, 2}};
    if (rng->Flip(0.5)) q.order_by = {ColRef{0, 1}};
    if (rng->Flip(0.3)) q.limit = rng->Uniform(1, 100);
  }
  return q;
}

/// Canonical comparable form of a result (sorted rows as strings).
std::multiset<std::string> Canon(const QueryResult& r) {
  std::multiset<std::string> out;
  for (const auto& row : r.rows) {
    std::string s;
    for (const auto& v : row) s += v.ToString() + "|";
    out.insert(s);
  }
  return out;
}

class CrossDesignProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrossDesignProperty, RandomQueriesAgreeAcrossDesigns) {
  const uint64_t seed = GetParam();
  const int64_t maxv = 5000;
  Rng rng(seed);

  // Same data under three physical designs.
  Database db;
  MicroOptions mo;
  mo.rows = 30000;
  mo.max_value = maxv;
  mo.seed = seed;
  Table* heap = MakeUniformIntTable(&db, "t", 3, mo);
  ASSERT_NE(heap, nullptr);

  std::vector<Query> queries;
  for (int i = 0; i < 12; ++i) queries.push_back(RandomQuery(&rng, maxv));

  std::vector<std::vector<std::multiset<std::string>>> results;
  std::vector<std::vector<uint64_t>> counts;
  auto run_all = [&]() {
    std::vector<std::multiset<std::string>> res;
    std::vector<uint64_t> cnt;
    for (const auto& q : queries) {
      QueryResult r = RunQ(&db, q);
      res.push_back(Canon(r));
      cnt.push_back(r.row_count);
    }
    results.push_back(std::move(res));
    counts.push_back(std::move(cnt));
  };

  run_all();  // heap
  ASSERT_TRUE(heap->SetPrimary(PrimaryKind::kBTree, {0}).ok());
  ASSERT_TRUE(heap->CreateSecondaryColumnStore("csi").ok());
  ASSERT_TRUE(heap->CreateSecondaryBTree("ix12", {1}, {2}).ok());
  run_all();  // btree + csi + secondary
  ASSERT_TRUE(heap->SetPrimary(PrimaryKind::kColumnStore).ok());
  run_all();  // primary columnstore

  for (size_t d = 1; d < results.size(); ++d) {
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(counts[0][i], counts[d][i])
          << "design " << d << " query " << i << " seed " << seed;
      // Content comparison is only meaningful when the result is
      // deterministic: aggregates always are; projections are only when
      // no LIMIT truncates an arbitrary (or tie-broken) subset and the
      // whole result was materialized.
      const bool deterministic =
          !queries[i].aggs.empty() ||
          (queries[i].limit < 0 && counts[0][i] == results[0][i].size());
      if (deterministic) {
        EXPECT_EQ(results[0][i], results[d][i])
            << "design " << d << " query " << i << " seed " << seed;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossDesignProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

/// One DML property case: the primary structure and the RNG seed. Test
/// names carry the seed only; the instantiation names the primary.
struct DmlCase {
  PrimaryKind primary;
  uint64_t seed;
};
void PrintTo(const DmlCase& c, std::ostream* os) { *os << c.seed; }

class DmlConsistencyProperty : public ::testing::TestWithParam<DmlCase> {};

TEST_P(DmlConsistencyProperty, RandomDmlKeepsIndexesConsistent) {
  const PrimaryKind primary = GetParam().primary;
  const uint64_t seed = GetParam().seed;
  Rng rng(seed);
  Database db;
  MicroOptions mo;
  mo.rows = 5000;
  mo.max_value = 500;
  mo.seed = seed;
  Table* t = MakeUniformIntTable(&db, "t", 3, mo);
  if (primary != PrimaryKind::kHeap) {
    ASSERT_TRUE(t->SetPrimary(primary, {0}).ok());
  }
  // Col 0 is included so that, over every primary, the secondary B+ tree
  // covers the checks below and they read its entries, not primary rows.
  ASSERT_TRUE(t->CreateSecondaryBTree("ix", {1}, {2, 0}).ok());
  // One columnstore per table: a primary columnstore precludes a
  // secondary one.
  const bool secondary_csi = primary != PrimaryKind::kColumnStore;
  if (secondary_csi) {
    ASSERT_TRUE(t->CreateSecondaryColumnStore("csi").ok());
  }

  // Reference state: multiset of (col0, col1, col2).
  using RefRow = std::array<int64_t, 3>;
  std::multiset<RefRow> ref;
  t->ScanAll(
      [&](int64_t, const int64_t* row) {
        ref.insert({row[0], row[1], row[2]});
        return true;
      },
      nullptr);

  for (int step = 0; step < 30; ++step) {
    const int64_t v = rng.Uniform(0, 500);
    const int op = static_cast<int>(rng.Uniform(0, 4));
    if (op == 0) {
      // Delete all rows with col1 == v.
      Query d;
      d.kind = Query::Kind::kDelete;
      d.base.table = "t";
      d.base.preds = {Pred::Eq(1, Value::Int64(v))};
      RunQ(&db, d);
      for (auto it = ref.begin(); it != ref.end();) {
        it = (*it)[1] == v ? ref.erase(it) : std::next(it);
      }
    } else if (op <= 3) {
      // Update for col1 == v: col2 += 7 changes only payloads; col0 += 1000
      // moves rows in the clustered B+ tree; col1 += 3 moves them in the
      // secondary B+ tree.
      const int col = op == 1 ? 2 : op == 2 ? 0 : 1;
      const int64_t delta = op == 1 ? 7 : op == 2 ? 1000 : 3;
      Query u;
      u.kind = Query::Kind::kUpdate;
      u.base.table = "t";
      u.base.preds = {Pred::Eq(1, Value::Int64(v))};
      u.sets = {UpdateSet::Add(col, static_cast<double>(delta))};
      RunQ(&db, u);
      std::multiset<RefRow> next;
      for (RefRow r : ref) {
        if (r[1] == v) r[col] += delta;
        next.insert(r);
      }
      ref = std::move(next);
    } else {
      // Insert a few rows.
      Query ins;
      ins.kind = Query::Kind::kInsert;
      ins.base.table = "t";
      for (int k = 0; k < 3; ++k) {
        const int64_t a = rng.Uniform(0, 500), b = rng.Uniform(0, 500),
                      c = rng.Uniform(0, 500);
        ins.insert_rows.push_back(
            {Value::Int64(a), Value::Int64(b), Value::Int64(c)});
        ref.insert({a, b, c});
      }
      RunQ(&db, ins);
    }
  }

  // The primary and all secondary structures must agree with the
  // reference, via each access path.
  auto check_counts = [&](const char* which, const AccessPath::Kind kind,
                          const std::string& index) {
    Query q;
    q.base.table = "t";
    q.aggs = {AggSpec::CountStar(), AggSpec::Sum(Expr::Col(0, 2), "s2"),
              AggSpec::Sum(Expr::Col(0, 0), "s0"),
              AggSpec::Sum(Expr::Col(0, 1), "s1")};
    PhysicalPlan p;
    p.base.kind = kind;
    p.base.index_name = index;
    p.agg = AggMethod::kHash;
    ExecContext ctx;
    ctx.db = &db;
    Executor ex(ctx);
    QueryResult r = ex.Execute(q, p);
    ASSERT_TRUE(r.ok()) << which;
    int64_t ref_sum[3] = {0, 0, 0};
    for (const auto& e : ref) {
      for (int c = 0; c < 3; ++c) ref_sum[c] += e[c];
    }
    EXPECT_EQ(r.rows[0][0].i64(), static_cast<int64_t>(ref.size()))
        << which << " seed " << seed;
    EXPECT_EQ(r.rows[0][1].i64(), ref_sum[2]) << which << " seed " << seed;
    EXPECT_EQ(r.rows[0][2].i64(), ref_sum[0]) << which << " seed " << seed;
    EXPECT_EQ(r.rows[0][3].i64(), ref_sum[1]) << which << " seed " << seed;
  };
  switch (primary) {
    case PrimaryKind::kHeap:
      check_counts("heap", AccessPath::Kind::kHeapScan, "");
      break;
    case PrimaryKind::kBTree:
      check_counts("primary btree", AccessPath::Kind::kBTreeFullScan, "");
      break;
    case PrimaryKind::kColumnStore:
      check_counts("primary csi", AccessPath::Kind::kCsiScan, "");
      break;
  }
  if (secondary_csi) {
    check_counts("secondary csi", AccessPath::Kind::kCsiScan, "csi");
  }
  check_counts("secondary btree", AccessPath::Kind::kBTreeRange, "ix");
}

std::vector<DmlCase> DmlCases(PrimaryKind primary) {
  std::vector<DmlCase> out;
  for (uint64_t seed : {7, 19, 31, 43}) out.push_back({primary, seed});
  return out;
}

// "Seeds" is the clustered B+ tree, the first design this test covered.
INSTANTIATE_TEST_SUITE_P(Seeds, DmlConsistencyProperty,
                         ::testing::ValuesIn(DmlCases(PrimaryKind::kBTree)));
INSTANTIATE_TEST_SUITE_P(HeapSeeds, DmlConsistencyProperty,
                         ::testing::ValuesIn(DmlCases(PrimaryKind::kHeap)));
INSTANTIATE_TEST_SUITE_P(
    CsiSeeds, DmlConsistencyProperty,
    ::testing::ValuesIn(DmlCases(PrimaryKind::kColumnStore)));

}  // namespace
}  // namespace hd
