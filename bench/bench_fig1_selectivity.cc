// Figure 1: execution time and CPU time vs selectivity, hot and cold runs,
// primary columnstore vs primary B+ tree (paper: 10 GB single-int-column
// table, selectivity 0 .. 100%).
#include "bench/bench_util.h"
#include "workload/micro.h"

using namespace hd;
using namespace hd::bench;

int main() {
  const uint64_t rows = static_cast<uint64_t>(4'000'000 * Scale());
  const int64_t maxv = (1ll << 31) - 1;

  // Scale-equivalent storage: the paper's table is 10 GB on a ~1 GB/s
  // array (a full cold scan takes ~10 s, dwarfing a few random B+ tree
  // I/Os). Our table is ~3 orders of magnitude smaller, so we slow the
  // simulated medium proportionally to preserve the cold-run ratios.
  DiskConfig disk;
  disk.read_bw_mb_s = 60;
  disk.write_bw_mb_s = 25;
  disk.random_latency_ms = 1.0;
  Database db(disk);
  MicroOptions mo;
  mo.rows = rows;
  mo.max_value = maxv;
  Table* bt = MakeUniformIntTable(&db, "t_btree", 1, mo);
  Table* ct = MakeUniformIntTable(&db, "t_csi", 1, mo);
  if (bt == nullptr || ct == nullptr) return 1;
  if (!bt->SetPrimary(PrimaryKind::kBTree, {0}).ok()) return 1;
  if (!ct->SetPrimary(PrimaryKind::kColumnStore).ok()) return 1;

  const std::vector<double> sel_pct = {0,    1e-5, 1e-4, 1e-3, 0.01, 0.05,
                                       0.09, 0.4,  1,    10,   30,   50,
                                       100};

  Series csi_cold{"CSI cold", {}}, bt_cold{"B+tree cold", {}};
  Series csi_hot{"CSI hot", {}}, bt_hot{"B+tree hot", {}};
  Series csi_cpu_c{"CSI cpu cold", {}}, bt_cpu_c{"B+ cpu cold", {}};
  Series csi_cpu_h{"CSI cpu hot", {}}, bt_cpu_h{"B+ cpu hot", {}};
  BenchJson json("fig1_selectivity");

  for (double pct : sel_pct) {
    const double sel = pct / 100.0;
    Query qb = MicroQ1Range("t_btree", sel, maxv);
    Query qc = MicroQ1Range("t_csi", sel, maxv);
    QueryResult rbc = MedianRunResult(&db, qb, 3, /*cold=*/true);
    QueryResult rcc = MedianRunResult(&db, qc, 3, /*cold=*/true);
    db.WarmAll();
    QueryResult rbh = MedianRunResult(&db, qb, 5, /*cold=*/false);
    QueryResult rch = MedianRunResult(&db, qc, 5, /*cold=*/false);
    const QueryMetrics& mbc = rbc.metrics;
    const QueryMetrics& mcc = rcc.metrics;
    const QueryMetrics& mbh = rbh.metrics;
    const QueryMetrics& mch = rch.metrics;
    bt_cold.ys.push_back(mbc.exec_ms());
    csi_cold.ys.push_back(mcc.exec_ms());
    bt_hot.ys.push_back(mbh.exec_ms());
    csi_hot.ys.push_back(mch.exec_ms());
    bt_cpu_c.ys.push_back(mbc.cpu_ms());
    csi_cpu_c.ys.push_back(mcc.cpu_ms());
    bt_cpu_h.ys.push_back(mbh.cpu_ms());
    csi_cpu_h.ys.push_back(mch.cpu_ms());
    // Embed the per-operator breakdown for each point.
    json.Point("btree_cold", pct, rbc);
    json.Point("csi_cold", pct, rcc);
    json.Point("btree_hot", pct, rbh);
    json.Point("csi_hot", pct, rch);
  }
  json.Write();

  std::printf("Figure 1 reproduction: %llu rows, 1 int column\n",
              static_cast<unsigned long long>(rows));
  PrintTable("Fig 1(a) execution time (ms)", "sel(%)", sel_pct,
             {csi_cold, bt_cold, csi_hot, bt_hot});
  PrintTable("Fig 1(b) CPU time (ms)", "sel(%)", sel_pct,
             {csi_cpu_c, bt_cpu_c, csi_cpu_h, bt_cpu_h});

  // Shape checks against the paper's qualitative claims.
  const double lowsel_gain_hot = Ratio(csi_hot.ys[2], bt_hot.ys[2]);
  Shape(lowsel_gain_hot > 10,
        "B+ tree beats CSI by >=1 order of magnitude at low selectivity "
        "(hot), measured " + std::to_string(lowsel_gain_hot) + "x");
  const double lowsel_gain_cold = Ratio(csi_cold.ys[2], bt_cold.ys[2]);
  Shape(lowsel_gain_cold > 5,
        "cold runs favor B+ tree at low selectivity (accesses far less "
        "data), measured " + std::to_string(lowsel_gain_cold) + "x");
  const double scan_gain = Ratio(bt_hot.ys.back(), csi_hot.ys.back());
  Shape(scan_gain > 5,
        "CSI beats B+ tree for full scans (hot), measured " +
            std::to_string(scan_gain) + "x");
  const double cross_hot = CrossoverX(sel_pct, bt_hot.ys, csi_hot.ys);
  const double cross_cold = CrossoverX(sel_pct, bt_cold.ys, csi_cold.ys);
  Shape(cross_hot > 0 && cross_hot <= 10,
        "hot crossover below ~10% selectivity, measured at " +
            std::to_string(cross_hot) + "%");
  Shape(cross_cold >= cross_hot,
        "cold crossover at higher selectivity than hot (paper: ~10%), "
        "measured " + std::to_string(cross_cold) + "%");
  const double cpu_gain = Ratio(csi_cpu_h.ys[2], bt_cpu_h.ys[2]);
  Shape(cpu_gain > 100,
        "CPU time gap up to 3 orders of magnitude at low selectivity, "
        "measured " + std::to_string(cpu_gain) + "x");
  return 0;
}
