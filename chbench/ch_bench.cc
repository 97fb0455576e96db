// ch_bench: the CH mix against hd_server over hd-proto/1, timed by the
// wall clock, plus an in-process replay of the same statement streams
// that times each layer a session calls.
//
//   ch_bench --workload ch_oltp|ch_olap|ch_htap --seed N --seconds S
//            --trace 0|1 --data-dir DIR [--spans FILE] [--commit SHA]
//
// One run:
//   1. Set up kSetups times (load CH data, B+ tree baseline, advisor in
//      hybrid mode, group-commit WAL + checkpoint in DIR, start the
//      server). setup_s is the median. The first set-up serves the socket
//      run; with --trace 1 the last two serve the untraced and the traced
//      in-process replays.
//   2. Socket run: closed-loop clients, one hd::Client each, for S seconds.
//      The end-to-end timings skip a warm-up tenth; throughput and p99
//      are medians over kWindows equal windows of the rest (Windows).
//   3. Output checks (CheckOlapResults, CheckOltpTotals). A failed check
//      makes the run report correct=false and exit non-zero.
// The last stdout line is the result object; with --trace 0 it carries the
// end-to-end metrics, with --trace 1 the per-layer ones. Lines before it
// start with '#': the host/build stamp and the details (sample counts,
// layer shares).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ch_sql.h"
#include "common/backoff.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "core/advisor.h"
#include "exec/admission.h"
#include "exec/executor.h"
#include "exec/scan_scheduler.h"
#include "obs/query_store.h"
#include "optimizer/optimizer.h"
#include "server/client.h"
#include "server/server.h"
#include "spans.h"
#include "sql/parser.h"
#include "workload/ch.h"

using namespace hd;
namespace fs = std::filesystem;

namespace chbench {
namespace {

// ---------------------------------------------------------------------------
// Fixed benchmark parameters (recorded in the stamp line).

constexpr int kSetups = 5;
constexpr int kWarehouses = 4;
constexpr int kServerWorkers = 4;
constexpr int kAdmissionSlots = 2;
constexpr int kDashboardParamSets = 8;
/// The CH population is the same in every run (the seed of
/// bench_fig11_ch); --seed picks the statement streams and the dashboard's
/// parameters. Seed-to-seed differences in the data would otherwise add
/// to the run-to-run spread without exercising anything new.
constexpr uint64_t kDataSeed = 42;
constexpr int kRetryBudget = 20;
constexpr double kBackoffBaseMs = 0.5;
constexpr double kBackoffCapMs = 8.0;
/// The socket run's end-to-end timings leave out the first
/// 1/kWarmupDivisor of the run (connections, plan caches and buffer pool
/// filling); throughput and p99 are the median over kWindows equal windows
/// of the rest, so that a stall of a few seconds moves one window, not the
/// figure.
constexpr int kWarmupDivisor = 10;
constexpr int kWindows = 4;

enum Cls { kWrite = 0, kRead = 1, kOlap = 2, kNumCls = 3 };
const char* const kClsName[kNumCls] = {"write", "read", "olap"};

/// Client threads of one workload. OLAP statements run outside a
/// transaction (so the admission gate and shared scans see them) unless
/// `olap_in_txn`, which wraps each in BEGIN SNAPSHOT ... COMMIT.
struct WorkloadSpec {
  const char* name;
  int oltp_clients;
  int olap_clients;
  bool olap_in_txn;
};

const WorkloadSpec kWorkloads[] = {
    {"ch_oltp", 4, 0, false},
    {"ch_olap", 0, 4, false},
    {"ch_htap", 3, 1, true},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string data_dir;
  std::string spans_path;  // where --trace 1 writes its spans; "" = nowhere
  std::string commit = "unknown";
};

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Length of each in-process replay on --trace 1: an eighth of the socket
/// run, so a traced run costs about a quarter more than an untraced one.
int LocalSeconds(int seconds) { return std::max(1, seconds / 8); }

// ---------------------------------------------------------------------------
// Set-up: one fresh CH database behind one server.

void ApplyBTreeBaseline(Database* db) {
  // The TPC-C design of bench_fig11_ch: clustered B+ trees on the keys and
  // a secondary on the OrderStatus lookup column.
  using C = ChCols;
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

ChOptions DataOptions() {
  ChOptions co;
  co.warehouses = kWarehouses;
  co.seed = kDataSeed;
  return co;
}

ServerOptions MakeServerOptions() {
  ServerOptions so;
  so.port = 0;
  so.workers = kServerWorkers;
  so.shared_scans = true;
  so.admission_slots = kAdmissionSlots;
  return so;
}

struct Setup {
  std::unique_ptr<Database> db;
  std::unique_ptr<ChBenchmark> ch;
  std::unique_ptr<Server> server;
  double setup_s = 0;
  double advise_ms = 0;
  int candidates_generated = 0;
  double advisor_gain_pct = 0;
  std::string design;  // recommended indexes, space-separated
};

Result<std::unique_ptr<Setup>> MakeSetup(const fs::path& dir) {
  auto s = std::make_unique<Setup>();
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create " + dir.string());

  const int64_t t0 = NowNs();
  s->db = std::make_unique<Database>();
  s->ch = std::make_unique<ChBenchmark>(s->db.get(), DataOptions());
  ApplyBTreeBaseline(s->db.get());

  const int64_t a0 = NowNs();
  AdvisorOptions ao;
  ao.mode = AdvisorMode::kHybrid;
  Advisor advisor(s->db.get(), ao);
  HD_ASSIGN_OR_RETURN(Recommendation rec,
                      advisor.Recommend(s->ch->AdvisorWorkload()));
  s->advise_ms = Ms(NowNs() - a0);
  s->candidates_generated = rec.candidates_generated;
  s->advisor_gain_pct =
      100.0 * Ratio(rec.initial_cost_ms - rec.final_cost_ms,
                    rec.initial_cost_ms);
  for (const ChosenIndex& ci : rec.chosen) {
    Table* t = s->db->GetTable(ci.table);
    if (t == nullptr) continue;
    HD_RETURN_IF_ERROR(t->ApplyIndexDef(ci.def));
    s->design += ci.table + ":" + ci.def.name + " ";
  }
  for (auto& [n, t] : s->db->tables()) t->Analyze();

  HD_RETURN_IF_ERROR(
      s->db->OpenDurability(dir.string(), DurabilityMode::kGroup));
  HD_RETURN_IF_ERROR(s->db->Checkpoint());
  s->server = std::make_unique<Server>(s->db.get(), MakeServerOptions());
  HD_RETURN_IF_ERROR(s->server->Start());
  s->setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  return s;
}

// ---------------------------------------------------------------------------
// Statement streams. Every client draws its operations from its own RNG,
// seeded from the workload seed and the client's index only.

/// Columns whose growth the output check accounts for: a statement tagged
/// with one adds its affected rows to that total.
enum Effect { kNoEffect = 0, kOrderRows, kStockOrderCnt, kPaymentCnt, kNumEffects };
const char* const kEffectName[kNumEffects] = {
    "", "orders rows", "sum(stock.s_order_cnt)", "sum(customer.c_payment_cnt)"};

struct Op {
  Cls cls = kWrite;
  std::string type;
  std::vector<std::string> sql;
  std::vector<Effect> effect;  // index-aligned with sql
  bool in_txn = true;
};

Effect EffectOf(const Query& q) {
  if (q.kind == Query::Kind::kInsert && q.base.table == "orders") {
    return kOrderRows;
  }
  if (q.kind == Query::Kind::kUpdate) {
    for (const UpdateSet& u : q.sets) {
      if (q.base.table == "stock" && u.col == ChCols::kSOrderCnt) {
        return kStockOrderCnt;
      }
      if (q.base.table == "customer" && u.col == ChCols::kCPaymentCnt) {
        return kPaymentCnt;
      }
    }
  }
  return kNoEffect;
}

/// The CH-H statements a dashboard re-issues: kDashboardParamSets
/// parameter draws of the ten queries.
struct DashboardStmt {
  std::string id;
  std::string sql;
};

std::vector<DashboardStmt> MakeDashboard(const ChBenchmark& ch,
                                         uint64_t seed) {
  std::vector<DashboardStmt> out;
  for (int p = 0; p < kDashboardParamSets; ++p) {
    for (Query& q : ch.AnalyticQueries(seed * 7919 + p)) {
      out.push_back({q.id, RenderSql(*ch.db(), q)});
    }
  }
  return out;
}

class OpSource {
 public:
  OpSource(ChBenchmark* ch, const std::vector<DashboardStmt>* dashboard,
           bool olap, bool olap_in_txn, uint64_t seed)
      : ch_(ch),
        dashboard_(dashboard),
        olap_(olap),
        olap_in_txn_(olap_in_txn),
        gen_(ch->MakeGenerator()),
        rng_(seed) {}

  Op Next() {
    Op op;
    if (olap_) {
      const DashboardStmt& d = (*dashboard_)[static_cast<size_t>(
          rng_.Uniform(0, static_cast<int64_t>(dashboard_->size()) - 1))];
      op.cls = kOlap;
      op.type = d.id;
      op.sql = {d.sql};
      op.effect = {kNoEffect};
      op.in_txn = olap_in_txn_;
      return op;
    }
    // Thread ids >= 1 draw from the TPC-C mix (0 is the analytic stream).
    TxnOp t = gen_(1, &rng_);
    op.type = t.id;
    op.cls = (t.id == "OrderStatus" || t.id == "StockLevel") ? kRead : kWrite;
    for (const Query& q : t.statements) {
      op.sql.push_back(RenderSql(*ch_->db(), q));
      op.effect.push_back(EffectOf(q));
    }
    return op;
  }

 private:
  ChBenchmark* ch_;
  const std::vector<DashboardStmt>* dashboard_;
  bool olap_;
  bool olap_in_txn_;
  TxnGenerator gen_;
  Rng rng_;
};

uint64_t ClientSeed(uint64_t seed, int client) {
  return seed * 1000003ull + 17ull * static_cast<uint64_t>(client) + 1;
}

// ---------------------------------------------------------------------------
// Per-thread results, merged after the run.

struct StmtResult {
  std::vector<Row> rows;
  uint64_t row_count = 0;
  uint64_t affected_rows = 0;
};

void Append(std::vector<double>* a, const std::vector<double>& b) {
  a->insert(a->end(), b.begin(), b.end());
}

/// Timed calls of the traced replay, and span self times folded by layer.
struct LayerTimes {
  std::vector<double> parse_us, stats_us, plan_us, admission_ms, commit_us;
  std::vector<double> execute_us[kNumCls];
  /// Self time per layer name over all statements of each class.
  std::map<std::string, double> self_ms[kNumCls];
  double stmt_ms[kNumCls] = {0, 0, 0};

  void Merge(const LayerTimes& o) {
    Append(&parse_us, o.parse_us);
    Append(&stats_us, o.stats_us);
    Append(&plan_us, o.plan_us);
    Append(&admission_ms, o.admission_ms);
    Append(&commit_us, o.commit_us);
    for (int c = 0; c < kNumCls; ++c) {
      Append(&execute_us[c], o.execute_us[c]);
      for (const auto& [k, v] : o.self_ms[c]) self_ms[c][k] += v;
      stmt_ms[c] += o.stmt_ms[c];
    }
  }
};

/// One acknowledged operation of the closed loop.
struct Sample {
  double end_s;  // completion, seconds after the run started
  double ms;     // latency, retries included
  std::string type;
};

struct ThreadStats {
  std::vector<double> lat_ms[kNumCls];
  std::vector<Sample> samples;
  uint64_t attempted = 0, failed = 0, retries = 0;
  uint64_t acked_new_orders = 0, acked_payments = 0;
  /// Rows written by acknowledged statements, per tracked column; the part
  /// written by attempts that then aborted is also in `orphaned`.
  uint64_t applied[kNumEffects] = {0, 0, 0, 0};
  uint64_t orphaned[kNumEffects] = {0, 0, 0, 0};
  std::vector<double> stmt_us;  // every statement's round trip
  std::vector<double> wire_us;  // round trip minus server exec_ms
  double executed_rtt_us = 0;   // round trips of the statements in wire_us
  /// First result of each distinct CH-H statement (ch_olap's check).
  std::map<std::string, StmtResult> olap_rows;
  /// The first failed operation's error; a client that could not connect
  /// also sets `connect_failed`.
  std::string first_error;
  bool connect_failed = false;
  // In-process replay only.
  QueryMetrics metrics[kNumCls];
  uint64_t stmts[kNumCls] = {0, 0, 0};
  LayerTimes layers;
  std::vector<Span> spans;

  void Merge(ThreadStats& o) {
    for (int c = 0; c < kNumCls; ++c) {
      Append(&lat_ms[c], o.lat_ms[c]);
      metrics[c].Merge(o.metrics[c]);
      stmts[c] += o.stmts[c];
    }
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    attempted += o.attempted;
    failed += o.failed;
    retries += o.retries;
    acked_new_orders += o.acked_new_orders;
    acked_payments += o.acked_payments;
    for (int e = 0; e < kNumEffects; ++e) {
      applied[e] += o.applied[e];
      orphaned[e] += o.orphaned[e];
    }
    Append(&stmt_us, o.stmt_us);
    Append(&wire_us, o.wire_us);
    executed_rtt_us += o.executed_rtt_us;
    for (auto& [k, v] : o.olap_rows) olap_rows.emplace(k, std::move(v));
    if (first_error.empty()) first_error = o.first_error;
    connect_failed |= o.connect_failed;
    layers.Merge(o.layers);
    const int base = static_cast<int>(spans.size());
    for (Span& s : o.spans) {
      if (s.parent >= 0) s.parent += base;
      spans.push_back(std::move(s));
    }
  }
};

// ---------------------------------------------------------------------------
// Connections: the socket client, and an in-process stand-in that makes
// the same engine calls a server session makes.

class Conn {
 public:
  virtual ~Conn() = default;
  /// Run one statement (SQL or BEGIN/COMMIT/ROLLBACK).
  virtual Status Exec(const std::string& sql, StmtResult* out) = 0;
  Cls cls = kWrite;
};

class RemoteConn : public Conn {
 public:
  explicit RemoteConn(ThreadStats* st) : st_(st) {}

  Status Connect(int port) { return client_.Connect("127.0.0.1", port, "ch_bench"); }

  Status Exec(const std::string& sql, StmtResult* out) override {
    const int64_t t0 = NowNs();
    Result<RemoteResult> r = client_.Query(sql);
    const double rtt_us = static_cast<double>(NowNs() - t0) / 1e3;
    if (!r.ok()) return r.status();
    st_->stmt_us.push_back(rtt_us);
    if (r->exec_ms > 0) {
      st_->wire_us.push_back(rtt_us - r->exec_ms * 1e3);
      st_->executed_rtt_us += rtt_us;
    }
    *out = {std::move(r->rows), r->row_count, r->affected_rows};
    return Status::OK();
  }

 private:
  Client client_;
  ThreadStats* st_;
};

/// Engine objects the in-process replay shares across its threads, wired
/// as Server wires them for its sessions.
struct LocalEnv {
  Database* db = nullptr;
  TransactionManager txns;
  ScanScheduler scans;
  AdmissionController admission;
  QueryStore query_store;

  explicit LocalEnv(Database* d)
      : db(d), admission(AdmissionOptions{kAdmissionSlots}) {
    txns.BindWal(d->wal());
  }
};

std::string FirstWordUpper(const std::string& sql) {
  size_t j = 0;
  while (j < sql.size() && std::isalpha(static_cast<unsigned char>(sql[j]))) {
    ++j;
  }
  std::string w = sql.substr(0, j);
  for (char& c : w) c = static_cast<char>(std::toupper(c));
  return w;
}

class LocalConn : public Conn {
 public:
  LocalConn(LocalEnv* env, ThreadStats* st, SpanRecorder* rec, int client)
      : env_(env), st_(st), rec_(rec), client_(client) {}
  ~LocalConn() override {
    if (txn_) env_->txns.Abort(txn_.get());
  }

  Status Exec(const std::string& sql, StmtResult* out) override {
    const uint64_t trace_id =
        (static_cast<uint64_t>(client_ + 1) << 40) | ++stmt_seq_;
    const int64_t t0 = rec_ ? 0 : NowNs();
    const int root =
        rec_ ? rec_->Begin(std::string("stmt.") + kClsName[cls], trace_id)
             : -1;
    Status s = Run(sql, out, trace_id, root);
    if (rec_) {
      rec_->End(root);
    } else {
      st_->stmt_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    st_->stmts[cls]++;
    return s;
  }

 private:
  struct Cached {
    Query query;
    PhysicalPlan plan;
  };

  /// Time `fn` as a child span of `parent`; returns its duration in µs.
  template <typename Fn>
  double Timed(const char* name, uint64_t trace_id, int parent, Fn&& fn) {
    if (!rec_) {
      fn();
      return 0;
    }
    const int idx = rec_->Begin(name, trace_id, parent);
    fn();
    rec_->End(idx);
    return static_cast<double>(rec_->spans()[idx].duration_ns()) / 1e3;
  }

  Status Run(const std::string& sql, StmtResult* out, uint64_t trace_id,
             int root) {
    const std::string word = FirstWordUpper(sql);
    LayerTimes& lt = st_->layers;
    if (word == "BEGIN") {
      Timed("txn.begin", trace_id, root,
            [&] { txn_ = env_->txns.Begin(IsolationLevel::kSnapshot); });
      return Status::OK();
    }
    if ((word == "COMMIT" || word == "ROLLBACK") && txn_ == nullptr) {
      return Status::InvalidArgument("no open transaction");
    }
    if (word == "COMMIT") {
      Status cs;
      const double us = Timed("txn.commit", trace_id, root,
                              [&] { cs = env_->txns.Commit(txn_.get()); });
      if (rec_ && cls != kOlap) lt.commit_us.push_back(us);
      txn_.reset();
      return cs;
    }
    if (word == "ROLLBACK") {
      Timed("txn.abort", trace_id, root,
            [&] { env_->txns.Abort(txn_.get()); });
      txn_.reset();
      return Status::OK();
    }

    // Session::PlanStatement: the plan cache is keyed by the exact text.
    auto it = cache_.find(sql);
    if (it == cache_.end()) {
      std::optional<Result<Query>> q;
      double us = Timed("sql.parse", trace_id, root,
                        [&] { q.emplace(ParseSql(*env_->db, sql)); });
      if (!q->ok()) return q->status();
      if (rec_) lt.parse_us.push_back(us);
      Configuration cfg;
      us = Timed("optimizer.stats", trace_id, root,
                 [&] { cfg = Configuration::FromCatalog(*env_->db); });
      if (rec_) lt.stats_us.push_back(us);
      std::optional<Result<Optimizer::PlanResult>> pr;
      us = Timed("optimizer.plan", trace_id, root, [&] {
        pr.emplace(Optimizer(env_->db).Plan(**q, cfg, PlanOptions()));
      });
      if (!pr->ok()) return pr->status();
      if (rec_) lt.plan_us.push_back(us);
      if (cache_.size() >= 64) {
        cache_.erase(order_.front());
        order_.erase(order_.begin());
      }
      it = cache_.emplace(sql, Cached{q->take(), std::move((*pr)->plan)})
               .first;
      order_.push_back(sql);
    }
    const Query& q = it->second.query;

    // The executor's admission gate, taken here so its wait is its own
    // span: auto-commit SELECTs only, as in Executor::Execute.
    AdmissionController::Ticket ticket;
    if (q.kind == Query::Kind::kSelect && txn_ == nullptr) {
      Status as;
      const double us = Timed("exec.admission", trace_id, root, [&] {
        as = env_->admission.Admit(ExecContext().memory_grant_bytes, &ticket);
      });
      if (rec_) lt.admission_ms.push_back(us / 1e3);
      if (!as.ok()) return as;
    }

    ExecContext ctx;
    ctx.db = env_->db;
    ctx.scan_scheduler = &env_->scans;
    ctx.query_store = &env_->query_store;
    ctx.capture.sql = sql;
    ctx.capture.trace_id = trace_id;
    if (txn_) {
      ctx.txns = &env_->txns;
      ctx.txn = txn_.get();
    }
    QueryResult r;
    const double us = Timed("exec.execute", trace_id, root, [&] {
      r = Executor(ctx).Execute(q, it->second.plan);
    });
    if (rec_) lt.execute_us[cls].push_back(us);
    st_->metrics[cls].Merge(r.metrics);
    if (!r.ok()) return r.status;
    *out = {std::move(r.rows), r.row_count, r.affected_rows};
    return Status::OK();
  }

  LocalEnv* env_;
  ThreadStats* st_;
  SpanRecorder* rec_;
  int client_;
  uint64_t stmt_seq_ = 0;
  std::unique_ptr<Transaction> txn_;
  std::map<std::string, Cached> cache_;
  std::vector<std::string> order_;
};

// ---------------------------------------------------------------------------
// The closed loop: one operation at a time, no think time. A transaction
// that aborts (deadlock victim, lock timeout) is rolled back and retried
// with jittered backoff, up to kRetryBudget times; its latency runs from
// the first BEGIN to the final COMMIT ack, retries included.
//
// ROLLBACK releases locks but does not undo applied statements
// (docs/PROTOCOL.md §3.3), so the writes an aborted attempt's acknowledged
// statements made stay in the tables. They are counted as orphaned.

Status RunOp(Conn* conn, const Op& op, Backoff* backoff, ThreadStats* st,
             StmtResult* out) {
  conn->cls = op.cls;
  StmtResult res;
  while (true) {
    Status s;
    bool committing = false;
    uint64_t wrote[kNumEffects] = {0, 0, 0, 0};
    if (op.in_txn) s = conn->Exec("BEGIN SNAPSHOT", &res);
    for (size_t i = 0; s.ok() && i < op.sql.size(); ++i) {
      s = conn->Exec(op.sql[i], &res);
      if (s.ok()) wrote[op.effect[i]] += res.affected_rows;
    }
    if (s.ok() && out != nullptr) *out = std::move(res);
    if (s.ok() && op.in_txn) {
      committing = true;
      s = conn->Exec("COMMIT", &res);
    }
    for (int e = 1; e < kNumEffects; ++e) {
      st->applied[e] += wrote[e];
      if (!s.ok()) st->orphaned[e] += wrote[e];
    }
    if (s.ok()) return s;
    if (op.in_txn && !committing) (void)conn->Exec("ROLLBACK", &res);
    if (!s.IsRetryable() || committing) return s;
    if (backoff->Exhausted()) {
      return Status::ResourceExhausted("retry budget spent: " + s.ToString());
    }
    st->retries++;
    backoff->SleepNext();
  }
}

struct RunResult {
  ThreadStats st;
  double elapsed_s = 0;
};

/// Drive `spec`'s clients for `seconds`. `make_conn(client, stats)`
/// returns the connection a client thread uses.
template <typename MakeConn>
RunResult DriveClients(const WorkloadSpec& spec, Setup* setup,
                       const std::vector<DashboardStmt>& dashboard,
                       uint64_t seed, int seconds, bool keep_rows,
                       MakeConn make_conn) {
  const int n = spec.oltp_clients + spec.olap_clients;
  std::vector<ThreadStats> per(n);
  std::vector<std::thread> threads;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  int64_t start_ns = 0;
  std::vector<int64_t> end_ns(n, 0);
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      ThreadStats& st = per[c];
      const bool olap = c >= spec.oltp_clients;
      OpSource src(setup->ch.get(), &dashboard, olap, spec.olap_in_txn,
                   ClientSeed(seed, c));
      std::unique_ptr<Conn> conn = make_conn(c, &st);
      ready++;
      while (!go.load()) std::this_thread::yield();
      const int64_t deadline =
          start_ns + static_cast<int64_t>(seconds) * 1'000'000'000;
      while (conn != nullptr && NowNs() < deadline) {
        Op op = src.Next();
        const bool want_rows =
            keep_rows && op.cls == kOlap && !st.olap_rows.count(op.sql[0]);
        StmtResult rows;
        Backoff backoff(kBackoffBaseMs, kBackoffCapMs, kRetryBudget,
                        ClientSeed(seed, c) + st.attempted);
        const int64_t t0 = NowNs();
        Status s = RunOp(conn.get(), op, &backoff, &st,
                         want_rows ? &rows : nullptr);
        const int64_t t1 = NowNs();
        const double ms = Ms(t1 - t0);
        st.attempted++;
        if (!s.ok()) {
          st.failed++;
          if (st.first_error.empty()) {
            st.first_error = op.type + ": " + s.ToString();
          }
          continue;
        }
        st.lat_ms[op.cls].push_back(ms);
        st.samples.push_back(
            {static_cast<double>(t1 - start_ns) / 1e9, ms, op.type});
        if (op.type == "NewOrder") {
          st.acked_new_orders++;
        } else if (op.type == "Payment") {
          st.acked_payments++;
        }
        if (want_rows) st.olap_rows.emplace(op.sql[0], std::move(rows));
      }
      if (conn == nullptr) {
        st.connect_failed = true;
        st.first_error = "client could not connect";
        st.attempted++;
        st.failed++;
      }
      end_ns[c] = NowNs();
    });
  }
  while (ready.load() < n) std::this_thread::yield();
  start_ns = NowNs();
  go.store(true);
  for (auto& t : threads) t.join();
  RunResult rr;
  rr.elapsed_s =
      static_cast<double>(*std::max_element(end_ns.begin(), end_ns.end()) -
                          start_ns) /
      1e9;
  for (ThreadStats& st : per) rr.st.Merge(st);
  return rr;
}

// ---------------------------------------------------------------------------
// Registry deltas over the socket run.

struct RegistryDelta {
  TelemetrySnapshot before, after;

  double Counter(const std::string& k) const {
    auto a = after.counters.find(k);
    auto b = before.counters.find(k);
    const uint64_t av = a == after.counters.end() ? 0 : a->second;
    const uint64_t bv = b == before.counters.end() ? 0 : b->second;
    return static_cast<double>(av - bv);
  }
  HistSnapshot Hist(const std::string& k) const {
    HistSnapshot d;
    auto a = after.histograms.find(k);
    if (a == after.histograms.end()) return d;
    std::map<uint32_t, uint64_t> prev;
    auto b = before.histograms.find(k);
    if (b != before.histograms.end()) {
      for (auto [i, c] : b->second.buckets) prev[i] = c;
      d.sum = a->second.sum - b->second.sum;
      d.count = a->second.count - b->second.count;
    } else {
      d.sum = a->second.sum;
      d.count = a->second.count;
    }
    for (auto [i, c] : a->second.buckets) {
      const uint64_t diff = c - prev[i];
      if (diff > 0) d.buckets.emplace_back(i, diff);
    }
    return d;
  }
};

// ---------------------------------------------------------------------------
// Output checks.

Result<QueryResult> RunInProcess(Database* db, const Query& q) {
  HD_ASSIGN_OR_RETURN(Optimizer::PlanResult pr,
                      Optimizer(db).Plan(q, Configuration::FromCatalog(*db)));
  ExecContext ctx;
  ctx.db = db;
  QueryResult r = Executor(ctx).Execute(q, pr.plan);
  if (!r.ok()) return r.status;
  return r;
}

Result<double> Scalar(Database* db, const std::string& sql) {
  HD_ASSIGN_OR_RETURN(Query q, ParseSql(*db, sql));
  HD_ASSIGN_OR_RETURN(QueryResult r, RunInProcess(db, q));
  if (r.rows.size() != 1 || r.rows[0].empty()) {
    return Status::Internal("expected one value from: " + sql);
  }
  return r.rows[0][0].AsDouble();
}

struct Totals {
  double orders = 0, order_cnt = 0, payment_cnt = 0;
};

Result<Totals> ReadTotals(Database* db) {
  Totals t;
  HD_ASSIGN_OR_RETURN(t.orders, Scalar(db, "SELECT COUNT(*) FROM orders"));
  HD_ASSIGN_OR_RETURN(t.order_cnt,
                      Scalar(db, "SELECT SUM(s_order_cnt) FROM stock"));
  HD_ASSIGN_OR_RETURN(t.payment_cnt,
                      Scalar(db, "SELECT SUM(c_payment_cnt) FROM customer"));
  return t;
}

bool SameValue(const Value& a, const Value& b) {
  if (a.kind() == Value::Kind::kString || b.kind() == Value::Kind::kString) {
    return a.kind() == b.kind() && a.str() == b.str();
  }
  const double x = a.AsDouble(), y = b.AsDouble();
  return std::fabs(x - y) <= 1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
}

bool SameRow(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameValue(a[i], b[i])) return false;
  }
  return true;
}

bool RowLess(const Row& a, const Row& b) {
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    const int c = a[i].Compare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

std::string RowText(const Row& r) {
  std::string s = "(";
  for (const Value& v : r) s += (s.size() > 1 ? ", " : "") + v.ToString();
  return s + ")";
}

/// Empty when `got` matches the oracle's result `want` of `q`, else what
/// differs. Complete results with one right answer must be equal as
/// multisets. Where the answer is not unique — a LIMIT without ORDER BY —
/// or either side hit the executor's materialization cap, the true row
/// counts must agree and every returned group must carry the oracle's
/// values for that group.
std::string ResultsDiffer(const Query& q, StmtResult got, StmtResult want) {
  // Rows are materialized up to the cap; the server must send them all.
  const uint64_t sent = std::min<uint64_t>(got.row_count,
                                           QueryResult::kMaxMaterializedRows);
  if (got.rows.size() != sent) {
    return std::to_string(got.rows.size()) + " rows sent of " +
           std::to_string(sent);
  }
  std::sort(got.rows.begin(), got.rows.end(), RowLess);
  std::sort(want.rows.begin(), want.rows.end(), RowLess);
  const bool got_all = got.rows.size() == got.row_count;
  const bool want_all = want.rows.size() == want.row_count;
  const bool unique = q.limit < 0 || !q.order_by.empty();
  if (unique && got_all && want_all) {
    for (size_t i = 0; i < std::min(got.rows.size(), want.rows.size()); ++i) {
      if (!SameRow(got.rows[i], want.rows[i])) {
        return "row " + RowText(got.rows[i]) + " vs oracle " +
               RowText(want.rows[i]);
      }
    }
    if (got.rows.size() != want.rows.size()) {
      return std::to_string(got.rows.size()) + " rows vs oracle " +
             std::to_string(want.rows.size());
    }
    return "";
  }
  if (got.row_count != want.row_count || q.group_by.empty()) {
    return std::to_string(got.row_count) + " rows vs oracle " +
           std::to_string(want.row_count);
  }
  const size_t k = q.group_by.size();
  auto key = [k](const Row& r) {
    std::string s;
    for (size_t i = 0; i < k && i < r.size(); ++i) s += r[i].ToString() + "|";
    return s;
  };
  std::map<std::string, const Row*> by_key;
  for (const Row& r : want.rows) by_key[key(r)] = &r;
  for (const Row& g : got.rows) {
    auto it = by_key.find(key(g));
    if (it == by_key.end()) {
      if (want_all) return "group " + RowText(g) + " not in oracle";
      continue;
    }
    if (!SameRow(g, *it->second)) {
      return "row " + RowText(g) + " vs oracle " + RowText(*it->second);
    }
  }
  return "";
}

/// ch_olap: every CH-H statement's socket result equals the same statement
/// run in-process on the B+ tree-only design of the same data (no
/// columnstores, so the executor takes its row-mode path).
Status CheckOlapResults(const std::map<std::string, StmtResult>& got,
                        size_t* checked) {
  Database oracle;
  ChBenchmark ch(&oracle, DataOptions());
  ApplyBTreeBaseline(&oracle);
  *checked = 0;
  for (const auto& [sql, res] : got) {
    HD_ASSIGN_OR_RETURN(Query q, ParseSql(oracle, sql));
    HD_ASSIGN_OR_RETURN(QueryResult r, RunInProcess(&oracle, q));
    const std::string diff =
        ResultsDiffer(q, res, {std::move(r.rows), r.row_count, 0});
    if (!diff.empty()) {
      return Status::Internal("result differs from the row-mode oracle: " +
                              sql + ": " + diff);
    }
    ++*checked;
  }
  return Status::OK();
}

/// ch_oltp / ch_htap: the growth of orders, stock.s_order_cnt and
/// customer.c_payment_cnt equals the rows the acknowledged statements
/// wrote: no acknowledged write lost, none applied twice, none invented.
/// Writes of aborted attempts are in that total (ROLLBACK keeps them) and
/// are reported apart as orphaned.
Status CheckOltpTotals(const Totals& before, const Totals& after,
                       const ThreadStats& st) {
  const double grew[kNumEffects] = {0, after.orders - before.orders,
                                    after.order_cnt - before.order_cnt,
                                    after.payment_cnt - before.payment_cnt};
  for (int e = 1; e < kNumEffects; ++e) {
    if (grew[e] != static_cast<double>(st.applied[e])) {
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "%s grew by %.0f; acknowledged statements wrote %llu",
                    kEffectName[e], grew[e],
                    static_cast<unsigned long long>(st.applied[e]));
      return Status::Internal(buf);
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Storage footprint.

struct Footprint {
  double space_ratio = 0;
  double csi_bytes = 0;
  double delta_rows = 0;
  double raw_bytes = 0;
};

Footprint MeasureFootprint(const Database& db) {
  Footprint f;
  double held = 0;
  for (const auto& [name, t] : db.tables()) {
    f.raw_bytes += static_cast<double>(t->num_rows()) * t->schema().RowWidth();
    held += static_cast<double>(t->primary_size_bytes());
    for (const auto& si : t->secondaries()) {
      held += static_cast<double>(si->size_bytes());
      if (si->csi) {
        f.csi_bytes += static_cast<double>(si->size_bytes());
        f.delta_rows += static_cast<double>(si->csi->delta_rows());
      }
    }
  }
  f.space_ratio = Ratio(held, f.raw_bytes);
  return f;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Steady summaries of one run.

/// Typical operation latency: each operation type's median, combined as a
/// geometric mean weighted by the type's share of operations. A median
/// over all operations would sit between the short Payment and the long
/// NewOrder modes and jump with small shifts of the mix.
double TypicalLatencyMs(const std::map<std::string, std::vector<double>>& t) {
  double log_sum = 0, n = 0;
  for (const auto& [type, v] : t) {
    const double med = Percentile(v, 0.5);
    if (med <= 0) continue;
    log_sum += static_cast<double>(v.size()) * std::log(med);
    n += static_cast<double>(v.size());
  }
  return n > 0 ? std::exp(log_sum / n) : 0;
}

/// The socket run after its warm-up: each window's throughput and p99, in
/// time order, and every latency by operation type ("NewOrder", "CH-Q1",
/// ...). The typical latency is already made of per-type medians, which a
/// short stall barely moves, so it takes the whole run; per window, the
/// rarer types would have too few samples for a steady median.
struct WindowFigures {
  std::vector<double> ops_s, p99_ms;
  std::map<std::string, std::vector<double>> by_type;
};

/// The median, halfway between the middle two of an even count.
double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

WindowFigures Windows(const std::vector<Sample>& samples, int seconds) {
  const double warmup = static_cast<double>(seconds) / kWarmupDivisor;
  const double len = (seconds - warmup) / kWindows;
  WindowFigures f;
  std::vector<std::vector<double>> all(kWindows);
  for (const Sample& s : samples) {
    if (s.end_s < warmup || s.end_s >= seconds) continue;
    const int w = std::min(kWindows - 1,
                           static_cast<int>((s.end_s - warmup) / len));
    f.by_type[s.type].push_back(s.ms);
    all[w].push_back(s.ms);
  }
  for (int w = 0; w < kWindows; ++w) {
    f.ops_s.push_back(static_cast<double>(all[w].size()) / len);
    f.p99_ms.push_back(Percentile(all[w], 0.99));
  }
  return f;
}

std::string JsonList(const std::vector<double>& v, const char* fmt) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), fmt, v[i]);
    out += (i ? ", " : "") + std::string(buf);
  }
  return out + "]";
}

// ---------------------------------------------------------------------------
// Result line.

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.15g", value);
    if (!out_.empty()) out_ += ", ";
    out_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
            "\"}";
  }
  const std::string& json() const { return out_; }

 private:
  std::string out_;
};

std::string JsonStr(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o + "\"";
}

/// Self time per layer for one statement class, as shares of the
/// statement time.
std::string ShareRow(const LayerTimes& lt, int c) {
  std::string row;
  for (const auto& [layer, ms] : lt.self_ms[c]) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s%s: %.4f", row.empty() ? "" : ", ",
                  JsonStr(layer).c_str(), Ratio(ms, lt.stmt_ms[c]));
    row += buf;
  }
  return "{" + row + "}";
}

/// Fold the traced spans into per-class layer self times. Layer = the span
/// name's module prefix ("sql.parse" -> "sql"); a statement span
/// ("stmt.<class>") keeps as "stmt" the self time no child covers (plan
/// cache lookup, result hand-off).
void FoldSpans(LayerTimes* lt, const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::vector<int> cls_of(spans.size(), kWrite);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent >= 0) {
      cls_of[i] = cls_of[s.parent];
    } else {
      for (int c = 0; c < kNumCls; ++c) {
        if (s.name == std::string("stmt.") + kClsName[c]) cls_of[i] = c;
      }
    }
    const int c = cls_of[i];
    if (s.parent < 0) lt->stmt_ms[c] += Ms(s.duration_ns());
    const std::string layer = s.name.substr(0, s.name.find('.'));
    lt->self_ms[c][layer] += Ms(self[i]);
  }
}

int Main(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr || args.data_dir.empty() || args.seconds < 1) {
    std::fprintf(stderr,
                 "usage: ch_bench --workload ch_oltp|ch_olap|ch_htap "
                 "--seed N --seconds S --trace 0|1 --data-dir DIR "
                 "[--spans FILE] [--commit SHA]\n");
    return 2;
  }
  const fs::path root = args.data_dir;

  std::printf(
      "# stamp {\"nproc\": %u, \"compiler\": %s, \"build_type\": %s, "
      "\"commit\": %s, \"workload\": %s, \"seed\": %llu, \"seconds\": %d, "
      "\"trace\": %d, \"server\": {\"wal_mode\": \"group\", "
      "\"shared_scans\": true, \"admission_slots\": %d, \"workers\": %d, "
      "\"plan_cache\": 64, \"query_store\": 1024}, \"warehouses\": %d, "
      "\"clients\": {\"oltp\": %d, \"olap\": %d}}\n",
      std::thread::hardware_concurrency(), JsonStr(CHBENCH_COMPILER).c_str(),
      JsonStr(CHBENCH_BUILD_TYPE).c_str(), JsonStr(args.commit).c_str(),
      JsonStr(spec->name).c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, kAdmissionSlots, kServerWorkers,
      kWarehouses, spec->oltp_clients, spec->olap_clients);
  std::fflush(stdout);

  std::vector<double> setup_times;
  std::string error;
  bool correct = true;
  auto fail = [&](const std::string& what) {
    if (error.empty()) error = what;
    correct = false;
  };

  // ---- set-up #1 and the socket run ----
  auto s1 = MakeSetup(root / "s1");
  if (!s1.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", s1.status().ToString().c_str());
    return 1;
  }
  Setup& setup = **s1;
  setup_times.push_back(setup.setup_s);
  const std::vector<DashboardStmt> dashboard =
      MakeDashboard(*setup.ch, args.seed);
  Result<Totals> before = ReadTotals(setup.db.get());
  if (!before.ok()) fail(before.status().ToString());

  RegistryDelta reg;
  reg.before = Telemetry::Instance().Snapshot();
  const int port = setup.server->port();
  RunResult net = DriveClients(
      *spec, &setup, dashboard, args.seed, args.seconds,
      /*keep_rows=*/spec->oltp_clients == 0,
      [&](int, ThreadStats* st) -> std::unique_ptr<Conn> {
        auto conn = std::make_unique<RemoteConn>(st);
        if (!conn->Connect(port).ok()) return nullptr;
        return conn;
      });
  setup.server->Stop();
  reg.after = Telemetry::Instance().Snapshot();
  const Footprint fp = MeasureFootprint(*setup.db);
  if (net.st.connect_failed) fail(net.st.first_error);

  // ---- output checks ----
  size_t olap_checked = 0;
  if (spec->oltp_clients > 0 && before.ok()) {
    Result<Totals> after = ReadTotals(setup.db.get());
    if (!after.ok()) {
      fail(after.status().ToString());
    } else if (Status cs = CheckOltpTotals(*before, *after, net.st);
               !cs.ok()) {
      fail(cs.ToString());
    }
  }
  if (spec->oltp_clients == 0) {
    if (Status cs = CheckOlapResults(net.st.olap_rows, &olap_checked);
        !cs.ok()) {
      fail(cs.ToString());
    } else if (olap_checked == 0) {
      fail("no CH-H result was checked");
    }
  }
  const double advise_ms = setup.advise_ms;
  const int candidates = setup.candidates_generated;
  const double gain_pct = setup.advisor_gain_pct;
  const std::string design = setup.design;
  s1->reset();

  // ---- set-ups #2 to #kSetups: timed always; on --trace 1 the last two
  // are replayed in-process, untraced (local[0]) then traced (local[1]).
  RunResult local[2];
  for (int k = 2; k <= kSetups; ++k) {
    auto sk = MakeSetup(root / ("s" + std::to_string(k)));
    if (!sk.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   sk.status().ToString().c_str());
      return 1;
    }
    setup_times.push_back((*sk)->setup_s);
    const int replay = k - (kSetups - 1);
    if (!args.trace || replay < 0) continue;
    (*sk)->server->Stop();
    const bool traced = replay == 1;
    LocalEnv env((*sk)->db.get());
    std::vector<SpanRecorder> recs(spec->oltp_clients + spec->olap_clients);
    local[replay] = DriveClients(
        *spec, sk->get(), dashboard, args.seed, LocalSeconds(args.seconds),
        false,
        [&](int c, ThreadStats* st) -> std::unique_ptr<Conn> {
          return std::make_unique<LocalConn>(
              &env, st, traced ? &recs[c] : nullptr, c);
        });
    if (local[replay].st.connect_failed) {
      fail(local[replay].st.first_error);
    }
    if (traced) {
      ThreadStats& lt = local[replay].st;
      for (SpanRecorder& rec : recs) {
        FoldSpans(&lt.layers, rec.spans());
        ThreadStats one;
        one.spans = rec.spans();
        lt.Merge(one);
      }
      if (!args.spans_path.empty() &&
          !WriteSpansJson(lt.spans, args.spans_path)) {
        std::fprintf(stderr, "cannot write %s\n", args.spans_path.c_str());
      }
    }
  }
  const double setup_s = Median(setup_times);

  // ---- report ----
  const ThreadStats& st = net.st;
  const double el = net.elapsed_s;
  const uint64_t commits = st.lat_ms[kWrite].size() + st.lat_ms[kRead].size();
  const WindowFigures win = Windows(st.samples, args.seconds);
  std::string types;
  for (const auto& [type, v] : win.by_type) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": [%zu, %.4f]",
                  types.empty() ? "" : ", ", type.c_str(), v.size(),
                  Percentile(v, 0.5));
    types += buf;
  }
  std::printf(
      "# detail {\"elapsed_s\": %.3f, \"samples\": {\"write\": %zu, "
      "\"read\": %zu, \"olap\": %zu}, \"retries\": %llu, \"acked_new_orders\": "
      "%llu, \"acked_payments\": %llu, \"orphaned_rows\": [%llu, %llu, %llu], "
      "\"olap_checked\": %zu, \"csi_bytes\": %.0f, \"raw_bytes\": %.0f, "
      "\"l2_bytes\": 2097152, "
      "\"design\": %s, \"setup_s\": %s, \"types\": {%s}, \"windows\": "
      "{\"ops_s\": %s, \"p99_ms\": %s}, \"first_failure\": %s, "
      "\"error\": %s}\n",
      el, st.lat_ms[kWrite].size(), st.lat_ms[kRead].size(),
      st.lat_ms[kOlap].size(), static_cast<unsigned long long>(st.retries),
      static_cast<unsigned long long>(st.acked_new_orders),
      static_cast<unsigned long long>(st.acked_payments),
      static_cast<unsigned long long>(st.orphaned[kOrderRows]),
      static_cast<unsigned long long>(st.orphaned[kStockOrderCnt]),
      static_cast<unsigned long long>(st.orphaned[kPaymentCnt]), olap_checked,
      fp.csi_bytes, fp.raw_bytes, JsonStr(design).c_str(),
      JsonList(setup_times, "%.4f").c_str(), types.c_str(),
      JsonList(win.ops_s, "%.1f").c_str(), JsonList(win.p99_ms, "%.2f").c_str(),
      JsonStr(st.first_error).c_str(), JsonStr(error).c_str());

  Metrics m;
  if (!args.trace) {
    // Every end-to-end metric exists on every workload, so these are over
    // all operations; the per-class figures are per-layer metrics.
    m.Add("ops_s", Median(win.ops_s), "op/s");
    m.Add("op_ms", TypicalLatencyMs(win.by_type), "ms");
    m.Add("p99_ms", Median(win.p99_ms), "ms");
    m.Add("ok_frac",
          Ratio(static_cast<double>(st.attempted - st.failed),
                static_cast<double>(st.attempted)),
          "ratio");
    m.Add("setup_s", setup_s, "s");
    m.Add("rss_mb", PeakRssMb(), "MiB");
    m.Add("space_ratio", fp.space_ratio, "ratio");
    m.Add("advisor_gain_pct", gain_pct, "%");
  } else {
    const RunResult& untraced = local[0];
    const RunResult& traced = local[1];
    const LayerTimes& lt = traced.st.layers;
    const QueryMetrics& om = traced.st.metrics[kOlap];
    QueryMetrics all;
    for (int c = 0; c < kNumCls; ++c) all.Merge(traced.st.metrics[c]);
    const double stmts = static_cast<double>(traced.st.stmts[0] +
                                             traced.st.stmts[1] +
                                             traced.st.stmts[2]);
    const double olap_stmts = static_cast<double>(traced.st.stmts[kOlap]);
    const double txns = reg.Counter("txn.commits");
    const double med_net = Percentile(st.stmt_us, 0.5);
    const double med_local = Percentile(untraced.st.stmt_us, 0.5);
    std::vector<double> traced_us;
    for (const Span& s : traced.st.spans) {
      if (s.parent < 0) traced_us.push_back(s.duration_ns() / 1e3);
    }
    const double med_traced = Percentile(traced_us, 0.5);
    HistSnapshot lock_wait = reg.Hist("lock.wait_ns");
    HistSnapshot flush_wait = reg.Hist("wal.flush_wait_ns");
    HistSnapshot group = reg.Hist("wal.group_size");
    HistSnapshot seek = reg.Hist("btree.seek_depth");
    HistSnapshot pool_task = reg.Hist("pool.task_ns");

    m.Add("txn_s", Ratio(static_cast<double>(commits), el), "txn/s");
    for (int c = 0; c < kNumCls; ++c) {
      const std::string n = kClsName[c];
      m.Add(n + "_samples", static_cast<double>(st.lat_ms[c].size()), "count");
      m.Add(n + "_p50_ms", Percentile(st.lat_ms[c], 0.5), "ms");
      m.Add(n + "_p99_ms", Percentile(st.lat_ms[c], 0.99), "ms");
    }
    m.Add("olap_qps", Ratio(static_cast<double>(st.lat_ms[kOlap].size()), el),
          "stmt/s");
    m.Add("server.wire_us", Percentile(st.wire_us, 0.5), "us");
    m.Add("server.wire_cost_us", med_net - med_local, "us");
    m.Add("server.plan_cache_hit_ratio",
          Ratio(reg.Counter("server.plan_cache_hits"),
                reg.Counter("server.queries")),
          "ratio");
    m.Add("bench.trace_overhead_pct",
          100.0 * Ratio(med_traced - med_local, med_local), "%");
    m.Add("sql.parse_us", Percentile(lt.parse_us, 0.5), "us");
    m.Add("optimizer.stats_us", Percentile(lt.stats_us, 0.5), "us");
    m.Add("optimizer.plan_us", Percentile(lt.plan_us, 0.5), "us");
    m.Add("exec.write_execute_us", Percentile(lt.execute_us[kWrite], 0.5),
          "us");
    m.Add("exec.read_execute_us", Percentile(lt.execute_us[kRead], 0.5), "us");
    m.Add("exec.olap_execute_ms",
          Percentile(lt.execute_us[kOlap], 0.5) / 1e3, "ms");
    m.Add("exec.admission_wait_ms", Percentile(lt.admission_ms, 0.5), "ms");
    m.Add("exec.admission_shed", reg.Counter("admission.shed"), "count");
    m.Add("exec.shared_attach_ratio",
          Ratio(reg.Counter("scan.shared_attaches") -
                    reg.Counter("scan.shared_passes"),
                reg.Counter("scan.shared_attaches")),
          "ratio");
    m.Add("exec.decode_bytes_saved",
          Ratio(reg.Counter("scan.decode_bytes_saved"),
                static_cast<double>(st.lat_ms[kOlap].size())),
          "B/stmt");
    m.Add("exec.hash_probes_per_row",
          Ratio(static_cast<double>(om.hash_probes.load()),
                static_cast<double>(om.rows_scanned.load())),
          "ratio");
    m.Add("exec.join_batch_probes",
          Ratio(static_cast<double>(om.join_batch_probes.load()), olap_stmts),
          "probes/stmt");
    m.Add("exec.join_bloom_drop_ratio",
          Ratio(static_cast<double>(om.join_bloom_filtered.load()),
                static_cast<double>(om.join_bloom_checks.load())),
          "ratio");
    m.Add("exec.rows_scanned_per_output_row",
          Ratio(static_cast<double>(all.rows_scanned.load()),
                static_cast<double>(all.rows_output.load())),
          "ratio");
    m.Add("common.pool_task_ms", pool_task.Quantile(0.5) / 1e6, "ms");
    m.Add("common.pool_morsels",
          Ratio(reg.Counter("pool.morsels"), reg.Counter("server.queries")),
          "morsels/stmt");
    m.Add("common.pool_steals",
          Ratio(reg.Counter("pool.steals"), reg.Counter("pool.morsels")),
          "ratio");
    m.Add("columnstore.rows_decoded",
          Ratio(static_cast<double>(om.rows_decoded.load()), olap_stmts),
          "rows/stmt");
    m.Add("columnstore.segment_skip_ratio",
          Ratio(static_cast<double>(om.segments_skipped.load()),
                static_cast<double>(om.segments_skipped.load() +
                                    om.segments_scanned.load())),
          "ratio");
    m.Add("columnstore.bytes_processed",
          Ratio(static_cast<double>(om.bytes_processed.load()), olap_stmts),
          "B/stmt");
    m.Add("columnstore.delta_rows", fp.delta_rows, "rows");
    m.Add("columnstore.delta_flushes", reg.Counter("csi.delta_flushes"),
          "count");
    m.Add("btree.seek_depth", seek.Mean(), "levels");
    m.Add("btree.splits", reg.Counter("btree.splits"), "count");
    m.Add("storage.wal_fsyncs_per_commit",
          Ratio(reg.Counter("wal.fsyncs"), txns), "ratio");
    m.Add("storage.wal_bytes_per_commit",
          Ratio(reg.Counter("wal.bytes"), txns), "B");
    m.Add("storage.wal_flush_wait_us", flush_wait.Quantile(0.5) / 1e3, "us");
    m.Add("storage.wal_group_size", group.Mean(), "txns");
    m.Add("storage.bp_hit_ratio",
          Ratio(reg.Counter("bp.hits"),
                reg.Counter("bp.hits") + reg.Counter("bp.misses")),
          "ratio");
    m.Add("storage.sim_io_ms",
          Ratio(static_cast<double>(all.sim_io_ns.load()) / 1e6, stmts),
          "ms/stmt");
    m.Add("txn.commit_us", Percentile(lt.commit_us, 0.5), "us");
    m.Add("txn.lock_waits_per_txn", Ratio(reg.Counter("lock.waits"), txns),
          "ratio");
    m.Add("txn.lock_wait_ms", lock_wait.Quantile(0.5) / 1e6, "ms");
    m.Add("txn.lock_timeouts", reg.Counter("lock.timeouts"), "count");
    m.Add("txn.orphaned_rows",
          static_cast<double>(st.orphaned[kOrderRows] +
                              st.orphaned[kStockOrderCnt] +
                              st.orphaned[kPaymentCnt]),
          "rows");
    m.Add("txn.abort_ratio",
          Ratio(reg.Counter("txn.aborts"),
                reg.Counter("txn.aborts") + reg.Counter("txn.commits")),
          "ratio");
    m.Add("core.advise_ms", advise_ms, "ms");
    m.Add("core.candidates_generated", candidates, "count");
    m.Add("obs.qstore_recorded",
          Ratio(reg.Counter("qstore.recorded"), reg.Counter("server.queries")),
          "ratio");
    m.Add("obs.qstore_dropped", reg.Counter("qstore.dropped"), "count");
    double wire_total = 0;
    for (double w : st.wire_us) wire_total += w;
    std::printf(
        "# layers {\"write\": %s, \"read\": %s, \"olap\": %s, "
        "\"socket_wire_share\": %.4f}\n",
        ShareRow(lt, kWrite).c_str(), ShareRow(lt, kRead).c_str(),
        ShareRow(lt, kOlap).c_str(), Ratio(wire_total, st.executed_rtt_us));
  }
  if (!correct) std::fprintf(stderr, "check failed: %s\n", error.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(st.attempted),
      static_cast<unsigned long long>(st.failed), m.json().c_str());
  std::fflush(stdout);
  std::error_code ec;
  fs::remove_all(root / "s1", ec);
  fs::remove_all(root / "s2", ec);
  fs::remove_all(root / "s3", ec);
  return correct ? 0 : 3;
}

}  // namespace
}  // namespace chbench

int main(int argc, char** argv) {
  chbench::Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atoi(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--data-dir") {
      a.data_dir = v;
    } else if (k == "--spans") {
      a.spans_path = v;
    } else if (k == "--commit") {
      a.commit = v;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  return chbench::Main(a);
}
