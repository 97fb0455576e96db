// Figure 6: mixed OLTP/analytics workload, 10 concurrent threads, Read
// Committed, scan percentage 0% .. 5%. Three designs as in Fig 5:
//   (A) primary B+ tree + secondary B+ tree on shipdate
//   (B) design A + secondary columnstore
//   (C) primary columnstore + secondary B+ tree on shipdate
//
// On top of the paper's transactional mix, three concurrent analytic
// streams (wide Q5 range scans, OUTSIDE any transaction) ride alongside —
// routed through the cooperative shared-scan scheduler and the admission
// gate (--shared=off disables the scheduler; see EXPERIMENTS.md). Their
// latencies land in a separate "analytic" stream per MixedPoint, so the
// Fig 6 transactional-latency shapes are unchanged.
//
// A fourth axis sweeps durability on the hybrid design (B): the same
// update-only mix (scan% = 0) with the WAL off, fsync-per-commit, and
// group commit. 10 writer threads, so the group-commit batching claim
// (mean fsyncs per committed txn < 1 at k >= 8 writers) is measured
// directly from wal.fsyncs deltas. Per-commit durability is checked as
// fsyncs plus covered commits (wal.covered_commits: commits a concurrent
// commit's fsync already made durable) per committed txn.
#include <unistd.h>

#include <filesystem>

#include "bench/bench_util.h"
#include "exec/admission.h"
#include "exec/scan_scheduler.h"
#include "workload/mixed_driver.h"
#include "workload/tpch.h"

using namespace hd;
using namespace hd::bench;

namespace {

Table* Build(Database* db, const std::string& name, uint64_t rows,
             bool primary_csi, bool secondary_csi) {
  TpchOptions to;
  to.rows = rows;
  Table* t = MakeLineitem(db, name, to);
  if (t == nullptr) return nullptr;
  using L = LineitemCols;
  if (primary_csi) {
    if (!t->SetPrimary(PrimaryKind::kColumnStore).ok()) return nullptr;
  } else if (!t->SetPrimary(PrimaryKind::kBTree,
                            {L::kOrderKey, L::kLineNumber}).ok()) {
    return nullptr;
  }
  if (!t->CreateSecondaryBTree("ix_ship", {L::kShipDate}, {}).ok()) return nullptr;
  if (secondary_csi && !t->CreateSecondaryColumnStore("csi").ok()) return nullptr;
  t->Analyze();
  return t;
}

MixedResult RunMix(Database* db, TransactionManager* txns,
                   const std::string& table, double scan_frac, int ops,
                   ScanScheduler* sched, AdmissionController* adm) {
  MixedOptions mo;
  mo.threads = 10;
  mo.total_ops = ops;
  mo.isolation = IsolationLevel::kReadCommitted;
  mo.interval_ms = 100;  // per-interval throughput series for BENCH json
  mo.analytic_threads = 3;
  mo.scan_scheduler = sched;
  mo.admission = adm;
  mo.analytic_gen = [&table](int, Rng* rng) {
    const int32_t d = static_cast<int32_t>(
        rng->Uniform(kTpchShipDateLo, kTpchShipDateHi - 120));
    Query q = TpchQ5Range(table, d, 120);  // wide analytic range scan
    q.id = "analytic";
    return q;
  };
  OpGenerator gen = [&table, scan_frac](int, Rng* rng) {
    const int32_t d = static_cast<int32_t>(
        rng->Uniform(kTpchShipDateLo, kTpchShipDateHi - 40));
    if (rng->Flip(scan_frac)) {
      Query q = TpchQ5Range(table, d, 60);  // analytic scan
      q.id = "scan";
      return q;
    }
    Query q = TpchQ4(table, 10, d);  // short update transaction
    q.id = "update";
    return q;
  };
  return RunMixedWorkload(db, txns, gen, mo);
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = ParseFlags(argc, argv);
  const uint64_t rows = static_cast<uint64_t>(1'000'000 * Scale());
  const int ops = static_cast<int>(1200 * Scale());
  Database db;
  if (Build(&db, "li_a", rows, false, false) == nullptr) return 1;
  if (Build(&db, "li_b", rows, false, true) == nullptr) return 1;
  if (Build(&db, "li_c", rows, true, false) == nullptr) return 1;
  TransactionManager txns;

  // One scheduler + gate shared by every analytic stream in the run, as a
  // server process would wire them. --shared=off measures private scans.
  ScanScheduler sched;
  AdmissionController adm;  // default: 8 slots, depth 64, 2s timeout
  ScanScheduler* sp = flags.RunShared() ? &sched : nullptr;

  const std::vector<double> scan_pct = {0, 1, 2, 3, 4, 5};
  Series a{"Pri.B+tree", {}}, b{"B+t+sec.CSI", {}}, c{"Pri.CSI", {}};
  BenchJson json("fig6_mixed");
  double upd_med_a0 = 0, upd_med_b0 = 0, upd_med_c0 = 0;
  for (double pct : scan_pct) {
    MixedResult ra = RunMix(&db, &txns, "li_a", pct / 100, ops, sp, &adm);
    MixedResult rb = RunMix(&db, &txns, "li_b", pct / 100, ops, sp, &adm);
    MixedResult rc = RunMix(&db, &txns, "li_c", pct / 100, ops, sp, &adm);
    a.ys.push_back(ra.OverallMeanMs());
    b.ys.push_back(rb.OverallMeanMs());
    c.ys.push_back(rc.OverallMeanMs());
    json.MixedPoint(a.name, pct, ra);
    json.MixedPoint(b.name, pct, rb);
    json.MixedPoint(c.name, pct, rc);
    if (pct == 0) {
      upd_med_a0 = ra.per_type["update"].median_ms();
      upd_med_b0 = rb.per_type["update"].median_ms();
      upd_med_c0 = rc.per_type["update"].median_ms();
    }
  }

  std::printf(
      "Figure 6 reproduction: lineitem %llu rows, 10 threads, RC, %d ops\n",
      static_cast<unsigned long long>(rows), ops);
  PrintTable("Fig 6 mean statement latency (ms)", "scan%", scan_pct,
             {a, b, c});

  Shape(upd_med_a0 <= upd_med_b0 && upd_med_a0 < upd_med_c0,
        "with no scans the pure B+ tree design is superior (median update "
        "latency, Sec 3.4): A=" + std::to_string(upd_med_a0) + " B=" +
            std::to_string(upd_med_b0) + " C=" + std::to_string(upd_med_c0));
  Shape(c.ys[0] > a.ys[0] * 3,
        "primary CSI makes the update-only workload much slower, measured " +
            std::to_string(c.ys[0] / a.ys[0]) + "x");
  // From 1% scans on, the hybrid design (B) wins overall.
  bool b_best = true;
  for (size_t i = 1; i < scan_pct.size(); ++i) {
    b_best &= b.ys[i] <= a.ys[i] && b.ys[i] <= c.ys[i];
  }
  Shape(b_best,
        "secondary CSI + B+ tree is the best hybrid once scans appear");
  Shape(a.ys.back() > b.ys.back() * 2,
        "B+ tree-only pays heavily for scans at 5%, measured " +
            std::to_string(a.ys.back() / b.ys.back()) + "x vs hybrid");

  // ---- Durability axis: off / commit / group ----
  // Fresh database per mode; the table is bulk-loaded BEFORE the WAL opens
  // (bulk loads are not logged — they become durable at the next
  // checkpoint, which this bench skips since it never restarts). The
  // update stream then commits through the WAL, so the latency deltas are
  // pure commit-path cost.
  {
    struct DurPoint {
      const char* name;
      DurabilityMode mode;
    };
    const DurPoint dmodes[] = {
        {"dur.off", DurabilityMode::kOff},
        {"dur.commit", DurabilityMode::kCommit},
        {"dur.group", DurabilityMode::kGroup},
    };
    const uint64_t drows = std::max<uint64_t>(rows / 2, 1);
    Series dp50{"update p50 (ms)", {}}, dp99{"update p99 (ms)", {}};
    std::vector<double> dxs;
    double commit_durable_per_txn = 0, group_fsyncs_per_txn = 0;
    int di = 0;
    for (const DurPoint& dm : dmodes) {
      Database ddb;
      if (Build(&ddb, "li_d", drows, false, true) == nullptr) return 1;
      const std::string dir =
          (std::filesystem::temp_directory_path() /
           ("hd_fig6_dur_" + std::to_string(getpid()) + "_" +
            std::to_string(di)))
              .string();
      if (dm.mode != DurabilityMode::kOff) {
        std::filesystem::remove_all(dir);
        if (!ddb.OpenDurability(dir, dm.mode).ok()) return 1;
      }
      TransactionManager dtm;
      dtm.BindWal(ddb.wal());
      WalManager* wal = ddb.wal();
      const uint64_t fsyncs0 = wal ? wal->fsyncs() : 0;
      const uint64_t covered0 = wal ? wal->covered_commits() : 0;
      MixedResult rd = RunMix(&ddb, &dtm, "li_d", 0, ops, sp, &adm);
      const uint64_t fsyncs = (wal ? wal->fsyncs() : 0) - fsyncs0;
      const uint64_t covered = (wal ? wal->covered_commits() : 0) - covered0;
      const OpStats& upd = rd.per_type["update"];
      const uint64_t committed = upd.count - upd.failures;
      const double per_txn =
          committed > 0 ? static_cast<double>(fsyncs) / committed : 0;
      // A kCommit commit is durable by its own fsync or, covered, by a
      // concurrent commit's.
      if (dm.mode == DurabilityMode::kCommit) {
        commit_durable_per_txn =
            committed > 0 ? static_cast<double>(fsyncs + covered) / committed
                          : 0;
      }
      if (dm.mode == DurabilityMode::kGroup) group_fsyncs_per_txn = per_txn;
      dp50.ys.push_back(upd.median_ms());
      dp99.ys.push_back(upd.p99_ms());
      dxs.push_back(di);
      json.MixedPoint(dm.name, di, rd);
      std::printf("  %-12s update p50=%8.3f p99=%8.3f ms  fsyncs/txn=%.3f\n",
                  dm.name, upd.median_ms(), upd.p99_ms(), per_txn);
      if (dm.mode != DurabilityMode::kOff) std::filesystem::remove_all(dir);
      ++di;
    }
    PrintTable("Durability axis (0=off 1=commit 2=group), design B, 0% scans",
               "mode", dxs, {dp50, dp99});
    Shape(commit_durable_per_txn >= 1.0,
          "per-commit durability makes every committed txn durable by its "
          "own or a covering fsync, (fsyncs + covered commits) per txn "
          "measured " + std::to_string(commit_durable_per_txn));
    Shape(group_fsyncs_per_txn < 1.0,
          "group commit batches fsyncs below one per committed txn at 10 "
          "writers, measured " + std::to_string(group_fsyncs_per_txn));
  }
  json.Write();
  return 0;
}
