// Figure 11: CH benchmark — hybrid physical design vs B+ tree-only under
// Snapshot Isolation (SI) and Serializable (SR), with concurrent TPC-C
// transactions and analytic queries sharing the data.
#include <algorithm>
#include <map>

#include "bench/bench_util.h"
#include "core/advisor.h"
#include "workload/ch.h"

using namespace hd;
using namespace hd::bench;

namespace {

const std::vector<double> kBuckets = {0.5, 0.8, 1.2, 1.5, 2, 5, 10};

void ApplyBTreeBaseline(Database* db) {
  using C = ChCols;
  // TPC-C-style design: clustered B+ trees on the keys, secondaries on the
  // hot lookup columns.
  (void)db->GetTable("customer")->SetPrimary(PrimaryKind::kBTree, {C::kCUid});
  (void)db->GetTable("orders")->SetPrimary(PrimaryKind::kBTree, {C::kOUid});
  (void)db->GetTable("orders")->CreateSecondaryBTree("ix_o_cust",
                                                     {C::kOCUid}, {});
  (void)db->GetTable("order_line")
      ->SetPrimary(PrimaryKind::kBTree, {C::kOlOUid, C::kOlNumber});
  (void)db->GetTable("stock")->SetPrimary(PrimaryKind::kBTree, {C::kSUid});
  (void)db->GetTable("item")->SetPrimary(PrimaryKind::kBTree, {C::kIId});
  (void)db->GetTable("district")->SetPrimary(PrimaryKind::kBTree, {0});
  for (auto& [n, t] : db->tables()) t->Analyze();
}

MixedResult RunMix(ChBenchmark* ch, IsolationLevel iso, int ops) {
  TransactionManager txns;
  MixedOptions mo;
  mo.threads = 6;  // thread 0 = analytics, 1-5 = TPC-C clients
  mo.total_ops = ops;
  mo.isolation = iso;
  mo.max_dop_per_query = 1;
  mo.interval_ms = 100;  // per-interval throughput series for BENCH json
  return RunMixedTxnWorkload(ch->db(), &txns, ch->MakeGenerator(), mo);
}

}  // namespace

int main() {
  const double scale = Scale();
  const int ops = static_cast<int>(1500 * scale);

  // ---- B+ tree-only design ----
  Database db_bt;
  ChOptions co;
  co.warehouses = std::max(2, static_cast<int>(4 * scale));
  ChBenchmark ch_bt(&db_bt, co);
  ApplyBTreeBaseline(&db_bt);
  // ---- hybrid design: baseline + advisor-recommended columnstores ----
  Database db_hy;
  ChBenchmark ch_hy(&db_hy, co);
  ApplyBTreeBaseline(&db_hy);
  {
    AdvisorOptions ao;
    ao.mode = AdvisorMode::kHybrid;
    Advisor advisor(&db_hy, ao);
    auto rec = advisor.Recommend(ch_hy.AdvisorWorkload());
    if (!rec.ok()) return 1;
    std::printf("CH hybrid recommendation:\n%s\n", rec->Report().c_str());
    // Add the recommended secondaries on top of the baseline design.
    for (const auto& ci : rec->chosen) {
      Table* t = db_hy.GetTable(ci.table);
      if (t != nullptr) (void)t->ApplyIndexDef(ci.def);
    }
    for (auto& [n, t] : db_hy.tables()) t->Analyze();
  }

  std::printf("CH benchmark: %d warehouses, %d ops, 6 threads\n",
              co.warehouses, ops);

  BenchJson json("fig11_ch");

  // ---- standalone analytic medians ----
  // The fig. 11 analytics side in isolation (no concurrent TPC-C), with
  // the per-operator breakdown — join counters included — in the BENCH
  // json. Under the hybrid design the join queries run the batch-mode
  // pipeline (CSI base, Bloom pushdown, vectorized probes); the B+
  // tree-only design takes the row-mode fallback, so the two series are
  // the before/after of the batch-join work at equal plans-for-data. The
  // hybrid queries run a second time each inside a SNAPSHOT transaction:
  // with no writer, no row has a version newer than the snapshot, so SI
  // reads take the auto-commit path (version_rows == 0).
  {
    const int reps = std::max(3, static_cast<int>(5 * scale));
    std::vector<Query> qs = ch_bt.AnalyticQueries(/*seed=*/12345);
    std::printf("\n== Fig 11 standalone analytics: median ms over %d runs "
                "(B+tree-only vs hybrid) ==\n",
                reps);
    std::printf("%-12s%12s%12s%10s%14s%14s%12s\n", "query", "B+tree",
                "hybrid", "speedup", "batch probes", "bloom drop",
                "hybrid SI");
    TransactionManager si;
    uint64_t hy_probes = 0, hy_bloom_filtered = 0, si_version_rows = 0;
    double hy_ms = 0, si_ms = 0;
    double join_speedup_sum = 0;
    int join_count = 0;
    for (size_t qi = 0; qi < qs.size(); ++qi) {
      QueryResult rb = MedianRunResult(&db_bt, qs[qi], reps, /*cold=*/false);
      QueryResult rh = MedianRunResult(&db_hy, qs[qi], reps, /*cold=*/false);
      QueryResult rs = MedianRunResult(&db_hy, qs[qi], reps, /*cold=*/false,
                                       8ull << 30, 8, &si);
      json.Point("analytic_btree", static_cast<double>(qi), rb);
      json.Point("analytic_hybrid", static_cast<double>(qi), rh);
      json.Point("analytic_hybrid_si", static_cast<double>(qi), rs);
      const double b = std::max(1e-3, rb.metrics.exec_ms());
      const double h = std::max(1e-3, rh.metrics.exec_ms());
      hy_ms += rh.metrics.exec_ms();
      si_ms += rs.metrics.exec_ms();
      si_version_rows += rs.metrics.version_rows.load();
      std::printf("%-12s%12.2f%12.2f%10.2f%14llu%14llu%12.2f\n",
                  qs[qi].id.c_str(), b, h, b / h,
                  static_cast<unsigned long long>(
                      rh.metrics.join_batch_probes.load()),
                  static_cast<unsigned long long>(
                      rh.metrics.join_bloom_filtered.load()),
                  rs.metrics.exec_ms());
      hy_probes += rh.metrics.join_batch_probes.load();
      hy_bloom_filtered += rh.metrics.join_bloom_filtered.load();
      if (!qs[qi].joins.empty()) {
        join_speedup_sum += b / h;
        ++join_count;
      }
    }
    Shape(hy_probes > 0 && hy_bloom_filtered > 0,
          "hybrid analytics run the batch join pipeline (" +
              std::to_string(hy_probes) + " batch probes, " +
              std::to_string(hy_bloom_filtered) + " rows Bloom-filtered)");
    Shape(si_version_rows == 0,
          "SI analytics with no writer walk no version chain (" +
              std::to_string(si_version_rows) +
              " version_rows); SI / auto-commit hybrid total " +
              std::to_string(Ratio(si_ms, hy_ms)) + "x");
    Shape(join_count > 0 && join_speedup_sum / join_count > 1.0,
          "join queries are faster under the hybrid design, mean speedup " +
              std::to_string(join_count ? join_speedup_sum / join_count : 0) +
              "x");
  }
  for (IsolationLevel iso :
       {IsolationLevel::kSnapshot, IsolationLevel::kSerializable}) {
    MixedResult rbt = RunMix(&ch_bt, iso, ops);
    MixedResult rhy = RunMix(&ch_hy, iso, ops);
    // x encodes the isolation level (0 = SI, 1 = SR) for the point record.
    const double x = iso == IsolationLevel::kSnapshot ? 0 : 1;
    json.MixedPoint(std::string("btree_only_") + IsolationLevelName(iso), x,
                    rbt);
    json.MixedPoint(std::string("hybrid_") + IsolationLevelName(iso), x, rhy);
    auto& bt = rbt.per_type;
    auto& hy = rhy.per_type;
    std::printf("\n== Fig 11 (%s): median latency ms (B+tree-only vs hybrid) "
                "and speedup ==\n",
                IsolationLevelName(iso));
    std::printf("%-12s%12s%12s%10s\n", "op", "B+tree", "hybrid", "speedup");
    std::vector<int> hist(kBuckets.size() + 1, 0);
    double h_speedup_sum = 0;
    int h_count = 0;
    double write_slowdown_max = 0;
    for (auto& [type, st] : bt) {
      if (hy.find(type) == hy.end()) continue;
      const double b = std::max(1e-3, st.median_ms());
      const double h = std::max(1e-3, hy[type].median_ms());
      const double sp = b / h;
      std::printf("%-12s%12.2f%12.2f%10.2f\n", type.c_str(), b, h, sp);
      size_t bk = 0;
      while (bk < kBuckets.size() && sp > kBuckets[bk]) ++bk;
      hist[bk]++;
      if (type.rfind("CH-", 0) == 0) {
        h_speedup_sum += sp;
        ++h_count;
      }
      if (type == "NewOrder" || type == "Payment") {
        write_slowdown_max = std::max(write_slowdown_max, 1.0 / sp);
      }
    }
    std::printf("speedup histogram (0.5/0.8/1.2/1.5/2/5/10/>10):");
    for (int v : hist) std::printf("%4d", v);
    std::printf("\n");
    Shape(h_count > 0 && h_speedup_sum / h_count > 1.5,
          std::string(IsolationLevelName(iso)) +
              ": hybrid speeds up the analytic (H) queries, mean speedup " +
              std::to_string(h_count ? h_speedup_sum / h_count : 0) + "x");
    Shape(write_slowdown_max < 5.0,
          std::string(IsolationLevelName(iso)) +
              ": write transactions only moderately slower under hybrid (" +
              std::to_string(write_slowdown_max) + "x)");
  }
  json.Write();
  return 0;
}
