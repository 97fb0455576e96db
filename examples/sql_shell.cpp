// A miniature SQL shell over the engine: reads statements from stdin (or
// runs a scripted demo when stdin is a terminal-less pipe with no input),
// plans them against the current physical design, executes, and prints
// results with plan and timing.
//
//   $ ./build/examples/sql_shell
//   sql> SELECT region, sum(revenue) FROM sales GROUP BY region
//   sql> EXPLAIN ANALYZE SELECT count(*) FROM sales WHERE day < 40
//
// Prefix any statement with EXPLAIN to see the chosen physical plan with
// optimizer estimates (the statement is not executed), or with EXPLAIN
// ANALYZE to execute it and print the plan annotated with per-operator
// actuals (see docs/OBSERVABILITY.md).
//
// Meta-commands (not SQL):
//   .stats               print the process telemetry registry (counters,
//                        gauges, latency histograms with p50/p95/p99/p999)
//                        plus derived health ratios.
//   .stats prom          same registry in Prometheus text format.
//   .queries [top]       query store: most recent captured statements
//                        (trace id, fingerprint, latency, rows).
//   .queries slow        the slow-query log (--slow-query-ms threshold).
//   .queries fingerprints  per-statement-class aggregates: calls, total
//                        and p95 latency, rows, decode bytes.
//
// Flags:
//   --trace <out.json>   record morsel-level execution events and write a
//                        chrome://tracing / Perfetto-compatible JSON file
//                        on exit.
//   --dop <n>            cap the degree of parallelism (default: hardware
//                        concurrency). Parallel plans schedule morsels and
//                        emit trace events only when the effective DOP > 1.
//   --stats-json <file>  append hd-stats/1 JSONL telemetry snapshots to
//                        <file> from a background sampler thread (one final
//                        snapshot is always written on exit).
//   --stats-interval <ms> sampler tick interval (default 1000).
//   --stats-prom <file>  write a final Prometheus text-format snapshot of
//                        the telemetry registry on exit.
//   --shared-scans       route non-transactional columnstore SELECTs
//                        through the cooperative shared-scan scheduler
//                        (EXPLAIN ANALYZE then shows shared_scan_attaches=1
//                        when a statement joined a pass).
//   --admission <n>      gate statements behind an admission controller
//                        with n concurrent slots (overload surfaces as a
//                        resource-exhausted error, visible in .stats under
//                        admission.*).
//   --data-dir <path>    durable root (WAL + checkpoints). Recovers the
//                        directory's contents on startup, loads the demo
//                        table only when it is fresh, and checkpoints on
//                        clean exit.
//   --durability <m>     off | commit | group (default group when
//                        --data-dir is given).
//   --query-store-capacity <n>  retained query-store records (default
//                        1024; 0 disables capture and `.queries`).
//   --slow-query-ms <ms> slow-query log threshold (default: disabled).
//   --qlog <file>        append one hd-qlog/1 JSONL line per statement —
//                        the advisor replays it via
//                        --workload-from-capture.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "common/telemetry.h"
#include "common/trace.h"
#include "exec/admission.h"
#include "exec/executor.h"
#include "exec/explain.h"
#include "exec/scan_scheduler.h"
#include "obs/query_store.h"
#include "optimizer/optimizer.h"
#include "sql/parser.h"

using namespace hd;

namespace {

int g_max_dop = 0;  // 0 = hardware default
std::unique_ptr<ScanScheduler> g_scan_scheduler;
std::unique_ptr<AdmissionController> g_admission;
std::unique_ptr<QueryStore> g_query_store;
uint64_t g_next_trace = 0;  // shell = session 0 in the trace-id scheme

/// `.stats` / `.stats prom`: dump the process telemetry registry.
void PrintStats(bool prometheus) {
  TelemetrySnapshot snap = Telemetry::Instance().Snapshot();
  if (prometheus) {
    std::printf("%s", snap.ToPrometheus().c_str());
    return;
  }
  std::printf("-- counters --\n");
  for (const auto& [name, v] : snap.counters) {
    std::printf("  %-24s %llu\n", name.c_str(),
                static_cast<unsigned long long>(v));
  }
  std::printf("-- gauges --\n");
  for (const auto& [name, v] : snap.gauges) {
    std::printf("  %-24s %lld\n", name.c_str(), static_cast<long long>(v));
  }
  std::printf("-- histograms (count / mean / p50 / p95 / p99 / p999) --\n");
  for (const auto& [name, h] : snap.histograms) {
    std::printf("  %-24s %llu  %.0f  %.0f  %.0f  %.0f  %.0f\n", name.c_str(),
                static_cast<unsigned long long>(h.count), h.Mean(),
                h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99),
                h.Quantile(0.999));
  }
  // Derived health ratios (guarded: the metric appears only after first use).
  const auto ctr = [&](const char* n) -> double {
    auto it = snap.counters.find(n);
    return it == snap.counters.end() ? 0 : static_cast<double>(it->second);
  };
  const auto gau = [&](const char* n) -> double {
    auto it = snap.gauges.find(n);
    return it == snap.gauges.end() ? 0 : static_cast<double>(it->second);
  };
  std::printf("-- derived --\n");
  if (ctr("bp.hits") + ctr("bp.misses") > 0) {
    std::printf("  %-24s %.4f\n", "bp hit ratio",
                ctr("bp.hits") / (ctr("bp.hits") + ctr("bp.misses")));
  }
  if (gau("csi.compressed_rows") > 0) {
    std::printf("  %-24s %.4f\n", "delete-bitmap density",
                gau("csi.deleted_rows") / gau("csi.compressed_rows"));
  }
  if (gau("csi.compressed_bytes") > 0) {
    std::printf("  %-24s %.2fx\n", "csi compression ratio",
                gau("csi.raw_bytes") / gau("csi.compressed_bytes"));
  }
}

/// `.queries [top|slow|fingerprints]`: dump the query store.
void PrintQueries(const std::string& arg) {
  if (g_query_store == nullptr) {
    std::printf("query store disabled (--query-store-capacity 0)\n");
    return;
  }
  if (arg.empty() || arg == "top") {
    std::printf("%s", g_query_store->RenderTop().c_str());
  } else if (arg == "slow") {
    std::printf("%s", g_query_store->RenderSlow().c_str());
  } else if (arg == "fingerprints" || arg == "fp") {
    std::printf("%s", g_query_store->RenderFingerprints().c_str());
  } else {
    std::printf("usage: .queries [top|slow|fingerprints]\n");
  }
}

void RunStatement(Database* db, const std::string& sql) {
  const uint64_t trace_id = ++g_next_trace;
  Timer wall;
  // Parse/plan failures still land in the query store (kind "invalid"):
  // NormalizeSql tokenizes even unparseable text, so mistyped statement
  // classes show up in the fingerprint table instead of vanishing.
  auto record_failure = [&](const Status& st) {
    if (g_query_store == nullptr) return;
    QueryRecord rec;
    rec.trace_id = trace_id;
    rec.sql = sql;
    rec.norm = NormalizeSql(sql);
    rec.fingerprint = FingerprintText(rec.norm);
    rec.kind = "invalid";
    rec.code = st.code();
    rec.error = st.message();
    rec.latency_ms = wall.ElapsedMs();
    g_query_store->Record(std::move(rec));
  };
  auto q = ParseSql(*db, sql);
  if (!q.ok()) {
    record_failure(q.status());
    std::printf("error: %s\n", q.status().ToString().c_str());
    return;
  }
  Optimizer opt(db);
  auto plan = opt.Plan(*q, Configuration::FromCatalog(*db), {});
  if (!plan.ok()) {
    record_failure(plan.status());
    std::printf("plan error: %s\n", plan.status().ToString().c_str());
    return;
  }
  if (q->explain == Query::ExplainMode::kPlan) {
    std::printf("%s", ExplainPlan(*q, plan->plan).c_str());
    return;
  }
  ExecContext ctx;
  ctx.db = db;
  ctx.max_dop = g_max_dop;
  ctx.scan_scheduler = g_scan_scheduler.get();
  ctx.admission = g_admission.get();
  if (g_query_store != nullptr) {
    ctx.query_store = g_query_store.get();
    ctx.capture.sql = sql;
    ctx.capture.norm = NormalizeSql(sql);
    ctx.capture.fingerprint = FingerprintText(ctx.capture.norm);
    ctx.capture.trace_id = trace_id;
  }
  Executor ex(ctx);
  Timer t;
  QueryResult r = ex.Execute(*q, plan->plan);
  if (!r.ok()) {
    std::printf("exec error: %s\n", r.status.ToString().c_str());
    return;
  }
  if (q->explain == Query::ExplainMode::kAnalyze) {
    std::printf("%s", ExplainAnalyze(*q, plan->plan, r).c_str());
    return;
  }
  for (size_t i = 0; i < r.rows.size() && i < 20; ++i) {
    std::string line;
    for (size_t c = 0; c < r.rows[i].size(); ++c) {
      if (c) line += " | ";
      line += r.rows[i][c].ToString();
    }
    std::printf("%s\n", line.c_str());
  }
  if (r.row_count > 20) {
    std::printf("... (%llu rows total)\n",
                static_cast<unsigned long long>(r.row_count));
  }
  if (q->kind != Query::Kind::kSelect) {
    std::printf("%llu rows affected\n",
                static_cast<unsigned long long>(r.affected_rows));
  }
  if (g_query_store != nullptr) {
    std::printf("-- %s | %.2f ms | trace %s\n", r.plan_desc.c_str(),
                t.ElapsedMs(), FingerprintHex(r.trace_id).c_str());
  } else {
    std::printf("-- %s | %.2f ms\n", r.plan_desc.c_str(), t.ElapsedMs());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string stats_path;
  std::string prom_path;
  std::string data_dir;
  QueryStoreOptions qs_opts;
  DurabilityMode durability = DurabilityMode::kOff;
  bool durability_set = false;
  int stats_interval_ms = 1000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--dop") == 0 && i + 1 < argc) {
      g_max_dop = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--stats-json") == 0 && i + 1 < argc) {
      stats_path = argv[++i];
    } else if (std::strcmp(argv[i], "--stats-interval") == 0 && i + 1 < argc) {
      stats_interval_ms = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--stats-prom") == 0 && i + 1 < argc) {
      prom_path = argv[++i];
    } else if (std::strcmp(argv[i], "--shared-scans") == 0) {
      g_scan_scheduler = std::make_unique<ScanScheduler>();
    } else if (std::strcmp(argv[i], "--admission") == 0 && i + 1 < argc) {
      AdmissionOptions ao;
      ao.max_concurrent = std::atoi(argv[++i]);
      g_admission = std::make_unique<AdmissionController>(ao);
    } else if (std::strcmp(argv[i], "--data-dir") == 0 && i + 1 < argc) {
      data_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--durability") == 0 && i + 1 < argc) {
      if (!ParseDurabilityMode(argv[++i], &durability)) {
        std::fprintf(stderr, "--durability must be off|commit|group\n");
        return 2;
      }
      durability_set = true;
    } else if (std::strcmp(argv[i], "--query-store-capacity") == 0 &&
               i + 1 < argc) {
      qs_opts.capacity = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--slow-query-ms") == 0 && i + 1 < argc) {
      qs_opts.slow_query_ms = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--qlog") == 0 && i + 1 < argc) {
      qs_opts.qlog_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--trace out.json] [--dop n] "
                   "[--stats-json out.jsonl] [--stats-interval ms] "
                   "[--stats-prom out.prom] [--shared-scans] [--admission n] "
                   "[--data-dir path] [--durability off|commit|group] "
                   "[--query-store-capacity n] [--slow-query-ms ms] "
                   "[--qlog out.jsonl]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!data_dir.empty() && !durability_set) durability = DurabilityMode::kGroup;
  if (data_dir.empty() && durability_set &&
      durability != DurabilityMode::kOff) {
    std::fprintf(stderr, "--durability %s requires --data-dir\n",
                 DurabilityModeName(durability));
    return 2;
  }
  if (!trace_path.empty()) Trace::Global().Enable();
  if (qs_opts.capacity > 0) {
    g_query_store = std::make_unique<QueryStore>(qs_opts);
  }
  TelemetrySampler sampler;
  if (!stats_path.empty()) {
    Status s = sampler.Start(stats_path, stats_interval_ms);
    if (!s.ok()) {
      std::fprintf(stderr, "stats sampler failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  Database db;
  RecoveryStats rstats;
  if (durability != DurabilityMode::kOff) {
    if (Status s =
            db.OpenDurability(data_dir, durability, WalOptions(), &rstats);
        !s.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (rstats.checkpoint_loaded) {
    std::printf("recovered %s: redo=%llu undo=%llu in %.1fms (durability=%s)\n\n",
                data_dir.c_str(),
                static_cast<unsigned long long>(rstats.redo_records),
                static_cast<unsigned long long>(rstats.undo_records),
                rstats.restart_ms, DurabilityModeName(durability));
  } else {
    // Demo schema, preloaded.
    auto sales = db.CreateTable(
        "sales", Schema({{"region", ValueType::kString, 8},
                         {"day", ValueType::kInt32, 0},
                         {"units", ValueType::kInt32, 0},
                         {"revenue", ValueType::kDouble, 0}}));
    // 400k rows: several columnstore row groups, so the clustered
    // (region, day) order gives min/max segment elimination something to
    // skip — visible in EXPLAIN ANALYZE.
    static const char* kRegions[] = {"east", "north", "south", "west"};
    std::vector<Row> rows;
    for (int i = 0; i < 400000; ++i) {
      rows.push_back({Value::String(kRegions[i % 4]), Value::Int32(i % 365),
                      Value::Int32(1 + i % 9), Value::Double(5.0 + i % 200)});
    }
    sales.value()->BulkLoad(rows);
    (void)sales.value()->SetPrimary(PrimaryKind::kBTree, {0, 1});
    (void)sales.value()->CreateSecondaryColumnStore("csi_sales");
    sales.value()->Analyze();
    // Bulk loads are not logged: the checkpoint is their durability point.
    if (durability != DurabilityMode::kOff) {
      if (Status s = db.Checkpoint(); !s.ok()) {
        std::fprintf(stderr, "initial checkpoint failed: %s\n",
                     s.ToString().c_str());
        return 1;
      }
    }
    std::printf("preloaded table 'sales'(region, day, units, revenue) with "
                "400000 rows\nhybrid design: clustered B+ tree(region, day) + "
                "secondary columnstore\n\n");
  }

  std::string line;
  bool any = false;
  std::printf("sql> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    any = true;
    if (line == "quit" || line == "exit") break;
    if (line == ".stats") {
      PrintStats(false);
    } else if (line == ".stats prom") {
      PrintStats(true);
    } else if (line.rfind(".queries", 0) == 0) {
      std::string arg = line.substr(std::strlen(".queries"));
      while (!arg.empty() && arg.front() == ' ') arg.erase(arg.begin());
      while (!arg.empty() && arg.back() == ' ') arg.pop_back();
      PrintQueries(arg);
    } else if (!line.empty()) {
      RunStatement(&db, line);
    }
    std::printf("sql> ");
    std::fflush(stdout);
  }
  if (!any) {
    // No stdin: run the scripted demo.
    std::printf("(no input; running demo script)\n");
    for (const char* s :
         {"SELECT count(*), sum(revenue) FROM sales",
          "SELECT region, sum(revenue) FROM sales GROUP BY region ORDER BY region",
          "SELECT day, units FROM sales WHERE region = 'east' AND day < 3 LIMIT 5",
          "UPDATE sales SET revenue = revenue + 1 WHERE day = 100",
          "SELECT count(*) FROM sales WHERE day BETWEEN 100 AND 101",
          "EXPLAIN SELECT sum(revenue) FROM sales WHERE region = 'east' AND day < 40",
          "EXPLAIN ANALYZE SELECT sum(revenue) FROM sales WHERE region = 'east' AND day < 40"}) {
      std::printf("sql> %s\n", s);
      RunStatement(&db, s);
    }
    std::printf("sql> .stats\n");
    PrintStats(false);
    std::printf("sql> .queries fingerprints\n");
    PrintQueries("fingerprints");
  }

  if (durability != DurabilityMode::kOff) {
    if (Status s = db.Checkpoint(); !s.ok()) {
      std::fprintf(stderr, "final checkpoint failed: %s\n",
                   s.ToString().c_str());
    }
  }

  if (!stats_path.empty()) {
    sampler.Stop();
    std::printf("wrote %llu telemetry samples to %s (hd-stats/1 JSONL)\n",
                static_cast<unsigned long long>(sampler.samples_written()),
                stats_path.c_str());
  }
  if (!prom_path.empty()) {
    FILE* f = std::fopen(prom_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", prom_path.c_str());
      return 1;
    }
    const std::string text = Telemetry::Instance().Snapshot().ToPrometheus();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("wrote Prometheus snapshot to %s\n", prom_path.c_str());
  }
  if (!trace_path.empty()) {
    Status s = Trace::Global().WriteJson(trace_path);
    if (!s.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote %llu trace events to %s (open in chrome://tracing)\n",
                static_cast<unsigned long long>(Trace::Global().event_count()),
                trace_path.c_str());
  }
  return 0;
}
