// Shared helpers for the figure/table reproduction benches.
//
// Each bench binary regenerates one table or figure from the paper: it
// prints the same x-axis points and series the paper plots, plus a SHAPE
// line summarizing the qualitative claim (who wins, where the crossover
// falls). Absolute numbers differ from the paper's SQL Server testbed;
// the shapes are the reproduction target (see EXPERIMENTS.md).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "obs/query_store.h"
#include "optimizer/optimizer.h"
#include "txn/transaction.h"
#include "workload/mixed_driver.h"

namespace hd {
namespace bench {

/// Scale multiplier from the environment (HD_BENCH_SCALE, default 1.0).
/// Benches size their data so scale 1.0 finishes in tens of seconds.
inline double Scale() {
  const char* s = std::getenv("HD_BENCH_SCALE");
  return s != nullptr ? std::atof(s) : 1.0;
}

/// HD_BENCH_CAPTURE=1 routes every RunQuery through a process-global
/// query store (HD_BENCH_QLOG names an optional hd-qlog/1 output file).
/// This is how EXPERIMENTS.md "Capture overhead" measures the cost of
/// the observability path: run a bench with and without the env var and
/// compare. Returns nullptr when capture is off (the default).
inline QueryStore* CaptureStore() {
  static QueryStore* store = []() -> QueryStore* {
    const char* e = std::getenv("HD_BENCH_CAPTURE");
    if (e == nullptr || e[0] == '\0' || e[0] == '0') return nullptr;
    QueryStoreOptions o;
    if (const char* p = std::getenv("HD_BENCH_QLOG")) o.qlog_path = p;
    return new QueryStore(o);  // leaked: lives for the bench process
  }();
  return store;
}

/// Common CLI flags for the concurrency-aware benches (see EXPERIMENTS.md):
///   --threads=N           override the client-count sweep with a single N
///   --queries=N           total queries per measured point
///   --shared={on,off,both} restrict which scan-sharing series run
/// Unknown flags abort with a message naming the binary (typo protection);
/// flags a bench does not consult are simply ignored by it.
struct BenchFlags {
  int threads = 0;   // 0 = bench's default sweep
  int queries = 0;   // 0 = bench's default volume
  std::string shared = "both";
  /// Drive the measured queries through hd_server sockets (SQL text over
  /// hd-proto/1) instead of in-process Executor calls. Only benches that
  /// document a remote mode honor it (EXPERIMENTS.md).
  bool remote = false;

  bool RunShared() const { return shared != "off"; }
  bool RunPrivate() const { return shared != "on"; }
};

inline BenchFlags ParseFlags(int argc, char** argv) {
  BenchFlags f;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&](const char* prefix) -> const char* {
      const size_t n = std::string(prefix).size();
      return a.compare(0, n, prefix) == 0 ? a.c_str() + n : nullptr;
    };
    if (const char* v = val("--threads=")) {
      f.threads = std::atoi(v);
    } else if (const char* v = val("--queries=")) {
      f.queries = std::atoi(v);
    } else if (const char* v = val("--shared=")) {
      f.shared = v;
      if (f.shared != "on" && f.shared != "off" && f.shared != "both") {
        std::fprintf(stderr, "%s: --shared must be on|off|both\n", argv[0]);
        std::exit(2);
      }
    } else if (a == "--remote") {
      f.remote = true;
    } else {
      std::fprintf(stderr, "%s: unknown flag %s\n", argv[0], a.c_str());
      std::exit(2);
    }
  }
  return f;
}

struct Series {
  std::string name;
  std::vector<double> ys;
};

/// Print a CSV-ish aligned table: x column plus one column per series.
inline void PrintTable(const std::string& title, const std::string& xlabel,
                       const std::vector<double>& xs,
                       const std::vector<Series>& series) {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("%-14s", xlabel.c_str());
  for (const auto& s : series) std::printf("%16s", s.name.c_str());
  std::printf("\n");
  for (size_t i = 0; i < xs.size(); ++i) {
    std::printf("%-14g", xs[i]);
    for (const auto& s : series) {
      if (i < s.ys.size()) {
        std::printf("%16.4f", s.ys[i]);
      } else {
        std::printf("%16s", "-");
      }
    }
    std::printf("\n");
  }
}

/// First x at which series b becomes cheaper than (or equal to) series a;
/// returns -1 if never.
inline double CrossoverX(const std::vector<double>& xs,
                         const std::vector<double>& a,
                         const std::vector<double>& b) {
  for (size_t i = 0; i < xs.size(); ++i) {
    if (b[i] <= a[i]) return xs[i];
  }
  return -1;
}

inline double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

/// Execute a query end-to-end: optimize under the current catalog, run.
/// With `snapshot`, the query runs inside its own SNAPSHOT transaction of
/// that manager, committed after it.
inline QueryResult RunQuery(Database* db, const Query& q,
                            uint64_t grant = 8ull << 30, int max_dop = 8,
                            bool cold = false,
                            TransactionManager* snapshot = nullptr) {
  Optimizer opt(db);
  Configuration cfg = Configuration::FromCatalog(*db);
  PlanOptions popts;
  popts.memory_grant_bytes = grant;
  popts.max_dop = max_dop;
  popts.cold = cold;
  auto plan = opt.Plan(q, cfg, popts);
  if (!plan.ok()) {
    std::fprintf(stderr, "plan failed: %s\n", plan.status().ToString().c_str());
    std::abort();
  }
  if (cold) db->ColdStart();
  ExecContext ctx;
  ctx.db = db;
  ctx.memory_grant_bytes = grant;
  ctx.max_dop = max_dop;
  if (QueryStore* qs = CaptureStore()) {
    // Bench queries are built programmatically — there is no SQL text,
    // so the query id doubles as the statement class. The store still
    // pays its full record/aggregate/qlog cost, which is the point.
    ctx.query_store = qs;
    ctx.capture.sql = q.id;
    ctx.capture.norm = q.id;
    ctx.capture.fingerprint = FingerprintText(q.id);
  }
  std::unique_ptr<Transaction> txn;
  if (snapshot != nullptr) {
    txn = snapshot->Begin(IsolationLevel::kSnapshot);
    ctx.txn = txn.get();
    ctx.txns = snapshot;
  }
  Executor ex(ctx);
  QueryResult r = ex.Execute(q, plan->plan);
  if (txn != nullptr && r.ok()) r.status = snapshot->Commit(txn.get());
  if (!r.ok()) {
    std::fprintf(stderr, "exec failed: %s\n", r.status.ToString().c_str());
    std::abort();
  }
  return r;
}

/// Median run (by exec_ms) over `reps` runs, with the full result
/// (metrics plus the per-operator breakdown) of the median repetition.
inline QueryResult MedianRunResult(Database* db, const Query& q, int reps,
                                   bool cold, uint64_t grant = 8ull << 30,
                                   int max_dop = 8,
                                   TransactionManager* snapshot = nullptr) {
  std::vector<QueryResult> rs;
  for (int i = 0; i < reps; ++i) {
    rs.push_back(RunQuery(db, q, grant, max_dop, cold, snapshot));
  }
  std::sort(rs.begin(), rs.end(), [](const QueryResult& a, const QueryResult& b) {
    return a.metrics.exec_ms() < b.metrics.exec_ms();
  });
  return std::move(rs[rs.size() / 2]);
}

/// Median execution metrics over `reps` runs.
inline QueryMetrics MedianRun(Database* db, const Query& q, int reps,
                              bool cold, uint64_t grant = 8ull << 30,
                              int max_dop = 8) {
  return MedianRunResult(db, q, reps, cold, grant, max_dop).metrics;
}

inline void Shape(bool ok, const std::string& claim) {
  std::printf("SHAPE %-4s %s\n", ok ? "[ok]" : "[??]", claim.c_str());
}

/// Machine-readable bench output: collects one record per measured point
/// (plotted value plus every QueryMetrics counter, see HD_QUERY_COUNTERS)
/// and writes `BENCH_<name>.json` in the working directory on Write().
///
/// Schema (the "schema" field in the output, see docs/OBSERVABILITY.md):
///   hd-bench/3 — adds the MixedPoint record (per-stream latency
///   percentiles p50/p95/p99/p999 plus a per-interval throughput series)
///   for the mixed-workload benches. hd-bench/2 added an optional
///   per-point "operators" array (one entry per physical plan node,
///   emitted by the QueryResult overload of Point) to the hd-bench/1 flat
///   point records. Fields are only ever added: consumers should key on
///   field names, not field order.
class BenchJson {
 public:
  static constexpr const char* kSchema = "hd-bench/3";

  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  /// Record one measured point of `series` with its full metrics block.
  void Point(const std::string& series, double x, const QueryMetrics& m) {
    points_.push_back(MetricsRecord(series, x, m) + "}");
  }

  /// Record one measured point with the per-operator breakdown embedded
  /// (an "operators" array in plan pipeline order, leaf scan first).
  void Point(const std::string& series, double x, const QueryResult& r) {
    std::string rec = MetricsRecord(series, x, r.metrics);
    rec += ", \"operators\": [";
    for (size_t i = 0; i < r.operators.size(); ++i) {
      const OperatorProfile& op = r.operators[i];
      rec += i ? ", " : "";
      rec += "{\"name\": \"" + op.name + "\", \"phase\": \"" + op.phase +
             "\", \"est_rows\": " + Num("%g", op.est_rows) +
             ", \"rows_in\": " + std::to_string(op.rows_in) +
             ", \"rows_out\": " + std::to_string(op.rows_out);
      AppendCounters(&rec, op.metrics);
      rec += "}";
    }
    rec += "]}";
    points_.push_back(std::move(rec));
  }

  /// Record one mixed-workload run: per-stream latency percentiles
  /// (p50/p95/p99/p999) and, when the driver produced one, the
  /// per-interval throughput series (hd-bench/3).
  void MixedPoint(const std::string& series, double x, const MixedResult& r) {
    char buf[512];
    uint64_t total_ops = 0;
    for (const auto& [t, s] : r.per_type) total_ops += s.count;
    std::snprintf(buf, sizeof buf,
                  "{\"series\": \"%s\", \"x\": %g, \"wall_ms\": %.4f, "
                  "\"total_ops\": %llu, \"throughput_ops_s\": %.4f, "
                  "\"aborts\": %llu, \"retries\": %llu, \"failures\": %llu",
                  series.c_str(), x, r.wall_ms,
                  static_cast<unsigned long long>(total_ops),
                  r.wall_ms > 0 ? total_ops * 1000.0 / r.wall_ms : 0.0,
                  static_cast<unsigned long long>(r.total_aborts),
                  static_cast<unsigned long long>(r.total_retries),
                  static_cast<unsigned long long>(r.total_failures));
    std::string rec = buf;
    rec += ", \"streams\": {";
    bool first = true;
    // Transactional streams first, then the concurrent analytic streams
    // (MixedResult::analytic) — same record shape, distinguished by the
    // statement id the generator assigned.
    for (const auto* map : {&r.per_type, &r.analytic}) {
      for (const auto& [type, s] : *map) {
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"ops\": %llu, \"mean_ms\": %.4f, "
                      "\"p50_ms\": %.4f, \"p95_ms\": %.4f, \"p99_ms\": %.4f, "
                      "\"p999_ms\": %.4f, \"failures\": %llu}",
                      first ? "" : ", ", type.c_str(),
                      static_cast<unsigned long long>(s.count), s.mean_ms(),
                      s.median_ms(), s.p95_ms(), s.p99_ms(), s.p999_ms(),
                      static_cast<unsigned long long>(s.failures));
        rec += buf;
        first = false;
      }
    }
    rec += "}";
    if (!r.intervals.empty()) {
      rec += ", \"intervals\": [";
      for (size_t i = 0; i < r.intervals.size(); ++i) {
        const MixedInterval& iv = r.intervals[i];
        std::snprintf(buf, sizeof buf,
                      "%s{\"start_ms\": %.1f, \"end_ms\": %.1f, "
                      "\"ops\": %llu, \"throughput_ops_s\": %.4f}",
                      i ? ", " : "", iv.start_ms, iv.end_ms,
                      static_cast<unsigned long long>(iv.ops),
                      iv.throughput_ops_s);
        rec += buf;
      }
      rec += "]";
    }
    rec += "}";
    points_.push_back(std::move(rec));
  }

  /// Record a point carrying a scalar only (wall-clock series etc.).
  void Value(const std::string& series, double x, const char* key, double v) {
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "{\"series\": \"%s\", \"x\": %g, \"%s\": %.4f}",
                  series.c_str(), x, key, v);
    points_.emplace_back(buf);
  }

  void Write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"schema\": \"%s\",\n  \"points\": [\n",
                 name_.c_str(), kSchema);
    for (size_t i = 0; i < points_.size(); ++i) {
      std::fprintf(f, "    %s%s\n", points_[i].c_str(),
                   i + 1 < points_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu points)\n", path.c_str(), points_.size());
  }

 private:
  static std::string Num(const char* fmt, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, fmt, v);
    return buf;
  }

  /// Every QueryMetrics counter under its label; timings in milliseconds.
  static void AppendCounters(std::string* rec, const QueryMetrics& m) {
    m.ForEachCounter([rec](const CounterDef& c, uint64_t v) {
      *rec += std::string(", \"") + c.label() + "\": ";
      *rec += c.ms_label != nullptr ? Num("%.4f", v / 1e6) : std::to_string(v);
    });
  }

  /// Flat counter record shared by both Point overloads; returned without
  /// the closing brace so callers can append fields.
  static std::string MetricsRecord(const std::string& series, double x,
                                   const QueryMetrics& m) {
    std::string rec = "{\"series\": \"" + series + "\", \"x\": " +
                      Num("%g", x) + ", \"exec_ms\": " +
                      Num("%.4f", m.exec_ms()) +
                      ", \"dop\": " + std::to_string(m.dop);
    AppendCounters(&rec, m);
    return rec;
  }

  std::string name_;
  std::vector<std::string> points_;
};

}  // namespace bench
}  // namespace hd
