// EXPLAIN / EXPLAIN ANALYZE and trace export.
//
// The load-bearing check is the attribution contract from
// docs/OBSERVABILITY.md: on the Fig. 1 selectivity query, the per-operator
// data-path counters must sum exactly to the query-level QueryMetrics
// (rollup + zero residual for an untransacted read), including under a
// parallel morsel-driven scan.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/trace.h"
#include "exec/executor.h"
#include "exec/explain.h"
#include "optimizer/optimizer.h"
#include "sql/parser.h"
#include "workload/micro.h"

namespace hd {
namespace {

QueryResult RunQ(Database* db, const Query& q, int max_dop = 4,
                 PhysicalPlan* plan_out = nullptr) {
  Optimizer opt(db);
  Configuration cfg = Configuration::FromCatalog(*db);
  PlanOptions popts;
  popts.max_dop = max_dop;
  auto plan = opt.Plan(q, cfg, popts);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (plan_out != nullptr) *plan_out = plan->plan;
  ExecContext ctx;
  ctx.db = db;
  ctx.max_dop = max_dop;
  Executor ex(ctx);
  QueryResult r = ex.Execute(q, plan->plan);
  EXPECT_TRUE(r.ok()) << r.status.ToString() << " plan=" << r.plan_desc;
  return r;
}

/// Sorted 300k-row CSI table: 3 row groups, min/max-prunable on col0.
Table* MakeSortedCsi(Database* db, const std::string& name) {
  MicroOptions mo;
  mo.rows = 300000;
  mo.max_value = 999999;
  mo.sorted_on_col0 = true;
  Table* t = MakeUniformIntTable(db, name, 2, mo);
  EXPECT_NE(t, nullptr);
  EXPECT_TRUE(t->SetPrimary(PrimaryKind::kColumnStore).ok());
  t->Analyze();
  return t;
}

uint64_t SumOps(const QueryResult& r,
                uint64_t (*get)(const QueryMetrics&)) {
  uint64_t s = 0;
  for (const auto& op : r.operators) s += get(op.metrics);
  return s;
}

// ---------------------------------------------------------------------
// Parser: EXPLAIN prefix.
// ---------------------------------------------------------------------

TEST(ExplainParseTest, ExplainModes) {
  Database db;
  MicroOptions mo;
  mo.rows = 100;
  ASSERT_NE(MakeUniformIntTable(&db, "t", 2, mo), nullptr);

  auto plain = ParseSql(db, "SELECT count(*) FROM t");
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain.value().explain, Query::ExplainMode::kNone);

  auto ex = ParseSql(db, "EXPLAIN SELECT count(*) FROM t WHERE col0 < 5");
  ASSERT_TRUE(ex.ok()) << ex.status().ToString();
  EXPECT_EQ(ex.value().explain, Query::ExplainMode::kPlan);
  EXPECT_EQ(ex.value().kind, Query::Kind::kSelect);

  auto an = ParseSql(db, "explain analyze UPDATE t SET col1 = 7 WHERE col0 < 5");
  ASSERT_TRUE(an.ok()) << an.status().ToString();
  EXPECT_EQ(an.value().explain, Query::ExplainMode::kAnalyze);
  EXPECT_EQ(an.value().kind, Query::Kind::kUpdate);

  // EXPLAIN with nothing behind it is still an error.
  EXPECT_FALSE(ParseSql(db, "EXPLAIN").ok());
}

// ---------------------------------------------------------------------
// Rendering.
// ---------------------------------------------------------------------

TEST(ExplainRenderTest, PlanTreeShowsEstimatesAndOperators) {
  Database db;
  MakeSortedCsi(&db, "t");
  Query q = MicroQ1("t", 0.001, 999999);
  Optimizer opt(&db);
  auto plan = opt.Plan(q, Configuration::FromCatalog(db), {});
  ASSERT_TRUE(plan.ok());
  const std::string s = ExplainPlan(q, plan->plan);
  EXPECT_NE(s.find("EXPLAIN"), std::string::npos) << s;
  EXPECT_NE(s.find("-> "), std::string::npos) << s;
  EXPECT_NE(s.find("[t]"), std::string::npos) << s;
  EXPECT_NE(s.find("est_rows="), std::string::npos) << s;
  EXPECT_NE(s.find("est_cost_ms="), std::string::npos) << s;
  // Aggregating query: an agg root above the scan.
  EXPECT_NE(s.find("Agg"), std::string::npos) << s;
  // Estimates only — no actuals without execution.
  EXPECT_EQ(s.find("[actual"), std::string::npos) << s;
}

TEST(ExplainRenderTest, AnalyzeShowsActualsAndTotals) {
  Database db;
  MakeSortedCsi(&db, "t");
  Query q = MicroQ1("t", 0.001, 999999);
  PhysicalPlan plan;
  QueryResult r = RunQ(&db, q, /*max_dop=*/4, &plan);
  const std::string s = ExplainAnalyze(q, plan, r);
  EXPECT_NE(s.find("EXPLAIN ANALYZE"), std::string::npos) << s;
  EXPECT_NE(s.find("[actual"), std::string::npos) << s;
  EXPECT_NE(s.find("rows_out="), std::string::npos) << s;
  EXPECT_NE(s.find("segments_scanned="), std::string::npos) << s;
  EXPECT_NE(s.find("skipped"), std::string::npos) << s;
  EXPECT_NE(s.find("Query totals"), std::string::npos) << s;
}

// A plan costed at DOP 8 on a pool capped at 4 runs at 4: the EXPLAIN
// ANALYZE header, the totals line and plan_desc all name the DOP the
// statement ran at. EXPLAIN runs nothing and names none.
TEST(ExplainRenderTest, HeaderDopIsTheDopTheStatementRanAt) {
  Database db;
  MakeSortedCsi(&db, "t");
  Query q = MicroQ1("t", 0.2, 999999);
  Optimizer opt(&db);
  PlanOptions popts;
  popts.max_dop = 8;
  auto plan = opt.Plan(q, Configuration::FromCatalog(db), popts);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->plan.dop, 8) << plan->plan.Describe();
  ExecContext ctx;
  ctx.db = &db;
  ctx.max_dop = 4;
  QueryResult r = Executor(ctx).Execute(q, plan->plan);
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(r.metrics.dop, 4);
  const std::string s = ExplainAnalyze(q, plan->plan, r);
  const std::string header = s.substr(0, s.find('\n'));
  const size_t totals_at = s.find("Query totals");
  ASSERT_NE(totals_at, std::string::npos) << s;
  const std::string totals =
      s.substr(totals_at, s.find('\n', totals_at) - totals_at);
  EXPECT_NE(header.find("(dop=4)"), std::string::npos) << s;
  EXPECT_NE(totals.find(" dop=4"), std::string::npos) << s;
  EXPECT_EQ(s.find("dop=8"), std::string::npos) << s;
  EXPECT_EQ(header, "EXPLAIN ANALYZE " + r.plan_desc);
  EXPECT_EQ(ExplainPlan(q, plan->plan).find("dop="), std::string::npos);
}

// ---------------------------------------------------------------------
// Attribution contract: operator counters sum to the query totals.
// ---------------------------------------------------------------------

TEST(ExplainRollupTest, Fig1SelectivityQuerySumsToQueryTotals) {
  Database db;
  MakeSortedCsi(&db, "t");
  // The Fig. 1 micro-query at 0.1% selectivity over the sorted CSI: the
  // parallel scan must skip trailing row groups via min/max.
  Query q = MicroQ1("t", 0.001, 999999);
  QueryResult r = RunQ(&db, q, /*max_dop=*/4);

  ASSERT_GE(r.operators.size(), 2u);  // CsiScan + HashAgg
  EXPECT_NE(r.operators[0].name.find("[t]"), std::string::npos);
  EXPECT_EQ(r.operators[0].phase, "scan");

  EXPECT_GT(r.metrics.segments_skipped.load(), 0u);
  EXPECT_GT(r.metrics.rows_scanned.load(), 0u);

  // An untransacted read charges nothing at query level: every summed
  // counter is the sum of its operator blocks.
  for (const CounterDef& c : kQueryCounters) {
    if (c.merge != CounterMerge::kSum) continue;
    uint64_t ops = 0;
    for (const auto& op : r.operators) ops += (op.metrics.*c.member).load();
    EXPECT_EQ(ops, (r.metrics.*c.member).load()) << c.name;
  }
  // The selection counter accounts every row surviving the predicate; a
  // pure COUNT under a pushable predicate answers row groups in the
  // encoded domain (aggs_pushed_down > 0) without decoding them.
  EXPECT_GT(r.metrics.rows_selected.load(), 0u);
  EXPECT_GT(r.metrics.aggs_pushed_down.load(), 0u);
  EXPECT_LE(r.metrics.rows_selected.load(), r.metrics.rows_scanned.load());

  // The scan fed the aggregate every selected row — batched rows plus the
  // rows pushed-down aggregates consumed in the encoded domain.
  EXPECT_EQ(r.operators[0].rows_out, r.operators[1].rows_in);
  EXPECT_GT(r.operators[0].rows_out, 0u);
}

TEST(ExplainRollupTest, JoinQueryRowFlowIsConsistent) {
  Database db;
  MicroOptions mo;
  mo.rows = 20000;
  mo.max_value = 99;  // join key domain
  Table* t = MakeUniformIntTable(&db, "fact", 2, mo);
  ASSERT_NE(t, nullptr);
  MicroOptions dmo;
  dmo.rows = 100;
  dmo.max_value = 99;
  Table* d = MakeUniformIntTable(&db, "dim", 2, dmo);
  ASSERT_NE(d, nullptr);
  db.GetTable("fact")->Analyze();
  db.GetTable("dim")->Analyze();

  auto q = ParseSql(db, "SELECT count(*) FROM fact JOIN dim ON fact.col0 = dim.col0");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  QueryResult r = RunQ(&db, q.value(), /*max_dop=*/1);

  ASSERT_GE(r.operators.size(), 3u);  // scan + join + agg
  int join_idx = -1;
  for (size_t i = 0; i < r.operators.size(); ++i) {
    if (r.operators[i].phase == "join") join_idx = static_cast<int>(i);
  }
  ASSERT_GE(join_idx, 0);
  // Every scanned fact row is probed into the join.
  EXPECT_EQ(r.operators[0].rows_out, r.operators[join_idx].rows_in);
  EXPECT_GT(r.operators[join_idx].rows_in, 0u);
  // Rollup still holds with a join in the pipeline.
  EXPECT_EQ(SumOps(r, [](const QueryMetrics& m) { return m.rows_scanned.load(); }),
            r.metrics.rows_scanned.load());
  EXPECT_EQ(SumOps(r, [](const QueryMetrics& m) { return m.cpu_ns.load(); }),
            r.metrics.cpu_ns.load());
}

TEST(ExplainRollupTest, DmlOperatorsCoverScanAndMutation) {
  Database db;
  MicroOptions mo;
  mo.rows = 10000;
  mo.max_value = 999;
  ASSERT_NE(MakeUniformIntTable(&db, "t", 2, mo), nullptr);
  auto q = ParseSql(db, "UPDATE t SET col1 = 5 WHERE col0 < 100");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  QueryResult r = RunQ(&db, q.value(), /*max_dop=*/1);
  ASSERT_EQ(r.operators.size(), 2u);  // scan + Update
  EXPECT_EQ(r.operators[1].name, "Update[t]");
  EXPECT_EQ(r.operators[1].rows_out, r.affected_rows);
  EXPECT_EQ(r.operators[0].rows_out, r.operators[1].rows_in);
  EXPECT_EQ(SumOps(r, [](const QueryMetrics& m) { return m.rows_scanned.load(); }),
            r.metrics.rows_scanned.load());
}

// ---------------------------------------------------------------------
// Trace export: valid Chrome trace-event JSON.
// ---------------------------------------------------------------------

// Minimal JSON syntax checker (objects, arrays, strings, numbers, bools,
// null). Returns true iff the whole input is one valid value.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}
  bool Valid() {
    Ws();
    if (!Value()) return false;
    Ws();
    return i_ == s_.size();
  }

 private:
  void Ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  bool Lit(const char* w) {
    const size_t n = std::string(w).size();
    if (s_.compare(i_, n, w) != 0) return false;
    i_ += n;
    return true;
  }
  bool String() {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') {
        if (i_ + 1 >= s_.size()) return false;
        ++i_;
      }
      ++i_;
    }
    if (i_ >= s_.size()) return false;
    ++i_;  // closing quote
    return true;
  }
  bool Number() {
    const size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) || s_[i_] == '.' ||
            s_[i_] == 'e' || s_[i_] == 'E' || s_[i_] == '+' || s_[i_] == '-')) {
      ++i_;
    }
    return i_ > start;
  }
  bool Value() {
    Ws();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') return Object();
    if (c == '[') return Array();
    if (c == '"') return String();
    if (c == 't') return Lit("true");
    if (c == 'f') return Lit("false");
    if (c == 'n') return Lit("null");
    return Number();
  }
  bool Object() {
    ++i_;  // {
    Ws();
    if (i_ < s_.size() && s_[i_] == '}') { ++i_; return true; }
    while (true) {
      Ws();
      if (!String()) return false;
      Ws();
      if (i_ >= s_.size() || s_[i_] != ':') return false;
      ++i_;
      if (!Value()) return false;
      Ws();
      if (i_ < s_.size() && s_[i_] == ',') { ++i_; continue; }
      break;
    }
    if (i_ >= s_.size() || s_[i_] != '}') return false;
    ++i_;
    return true;
  }
  bool Array() {
    ++i_;  // [
    Ws();
    if (i_ < s_.size() && s_[i_] == ']') { ++i_; return true; }
    while (true) {
      if (!Value()) return false;
      Ws();
      if (i_ < s_.size() && s_[i_] == ',') { ++i_; continue; }
      break;
    }
    if (i_ >= s_.size() || s_[i_] != ']') return false;
    ++i_;
    return true;
  }

  const std::string& s_;
  size_t i_ = 0;
};

TEST(TraceTest, DisabledRecordsNothing) {
  Trace::Global().Disable();
  Trace::Global().Clear();
  Database db;
  MakeSortedCsi(&db, "t");
  RunQ(&db, MicroQ1("t", 0.01, 999999), /*max_dop=*/4);
  EXPECT_EQ(Trace::Global().event_count(), 0u);
  EXPECT_TRUE(JsonChecker(Trace::Global().ToJson()).Valid());
}

TEST(TraceTest, ParallelScanEmitsValidChromeTraceJson) {
  Database db;
  MakeSortedCsi(&db, "t");
  Trace::Global().Enable();
  RunQ(&db, MicroQ1("t", 0.2, 999999), /*max_dop=*/4);
  Trace::Global().Disable();
  ASSERT_GT(Trace::Global().event_count(), 0u);

  const std::string json = Trace::Global().ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"hd-trace/2\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // Events carry the operator label and morsel index.
  EXPECT_NE(json.find("[t]"), std::string::npos);
  EXPECT_NE(json.find("\"morsel\""), std::string::npos);

  // WriteJson round-trips the same bytes to disk.
  const std::string path = "trace_test_out.json";
  ASSERT_TRUE(Trace::Global().WriteJson(path).ok());
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string disk;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) disk.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(disk, json);

  Trace::Global().Clear();
}


// ---------------------------------------------------------------------
// Counter rendering: one list feeds EXPLAIN ANALYZE and bench JSON.
// ---------------------------------------------------------------------

size_t Count(const std::string& s, const std::string& needle) {
  size_t n = 0;
  for (size_t p = s.find(needle); p != std::string::npos;
       p = s.find(needle, p + 1)) {
    ++n;
  }
  return n;
}

TEST(CounterRenderTest, EveryNonZeroCounterAppearsByName) {
  Database db;
  MakeSortedCsi(&db, "t");
  Query q = MicroQ1("t", 0.001, 999999);
  PhysicalPlan plan;
  QueryResult r = RunQ(&db, q, /*max_dop=*/4, &plan);
  ASSERT_FALSE(r.operators.empty());
  // Distinct non-zero values; timings in whole milliseconds.
  QueryMetrics all;
  uint64_t i = 0;
  for (const CounterDef& c : kQueryCounters) {
    ++i;
    all.*c.member = c.ms_label != nullptr ? i * 1000000 : 1000 + i;
  }
  r.metrics = all;
  r.operators[0].metrics = all;

  const std::string text = ExplainAnalyze(q, plan, r);
  const std::string path = "BENCH_counter_render_test.json";
  bench::BenchJson json("counter_render_test");
  json.Point("all", 1, r);
  json.Write();
  std::string disk;
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) disk.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_TRUE(JsonChecker(disk).Valid()) << disk;

  all.ForEachCounter([&](const CounterDef& c, uint64_t v) {
    const std::string value =
        c.ms_label != nullptr ? std::to_string(v / 1000000) + ".0"
                              : std::to_string(v);
    // The leaf operator's line and the query totals line.
    EXPECT_EQ(Count(text, std::string(" ") + c.label() + "=" + value), 2u)
        << c.name << "\n" << text;
    // The flat point record and its leaf operator record.
    EXPECT_EQ(Count(disk, std::string("\"") + c.label() + "\": " + value), 2u)
        << c.name << "\n" << disk;
  });
}

}  // namespace
}  // namespace hd
