#include "workload/mixed_driver.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

#include "common/backoff.h"
#include "common/thread_pool.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"

namespace hd {

double OpStats::PercentileMs(double p) const {
  if (latencies_ms.empty()) return 0;
  std::vector<double> v = latencies_ms;
  const size_t k =
      std::min(v.size() - 1, static_cast<size_t>(v.size() * p));
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return v[k];
}

double MixedResult::OverallMeanMs() const {
  double total = 0;
  uint64_t n = 0;
  for (const auto& [t, s] : per_type) {
    total += s.total_ms;
    n += s.count;
  }
  return n ? total / n : 0;
}

MixedResult RunMixedWorkload(Database* db, TransactionManager* txns,
                             const OpGenerator& gen, const MixedOptions& opts) {
  return RunMixedTxnWorkload(
      db, txns,
      [&gen](int tid, Rng* rng) {
        TxnOp op;
        op.statements.push_back(gen(tid, rng));
        op.id = op.statements[0].id;
        return op;
      },
      opts);
}

MixedResult RunMixedTxnWorkload(Database* db, TransactionManager* txns,
                                const TxnGenerator& gen,
                                const MixedOptions& opts) {
  MixedResult result;
  std::mutex result_mu;
  std::atomic<int> ops_left{opts.total_ops};
  Optimizer optimizer(db);
  Timer wall;

  auto worker = [&](int tid) {
    Rng rng(opts.seed + tid * 7919);
    std::map<std::string, OpStats> local;
    QueryMetrics local_metrics;
    Status local_first;
    while (ops_left.fetch_sub(1) > 0) {
      TxnOp op = gen(tid, &rng);
      Timer op_timer;
      uint64_t aborts = 0;
      // Seed the jitter per (run, client) so two victims of the same
      // deadlock desynchronize, while reruns stay byte-identical.
      Backoff backoff(opts.backoff_base_ms, opts.backoff_cap_ms,
                      opts.max_retries,
                      opts.seed ^ (static_cast<uint64_t>(tid) * 0x9e3779b9ull));
      Status op_status;
      uint64_t age = 0;  // first attempt's age, kept across retries
      while (true) {
        auto txn = txns->Begin(opts.isolation, age);
        age = txn->age();
        Configuration cfg = Configuration::FromCatalog(*db);
        PlanOptions popts;
        popts.max_dop = opts.max_dop_per_query;
        Status stmt_status;
        for (const Query& q : op.statements) {
          auto plan = optimizer.Plan(q, cfg, popts);
          if (!plan.ok()) {
            stmt_status = plan.status();
            break;
          }
          ExecContext ctx;
          ctx.db = db;
          ctx.max_dop = opts.max_dop_per_query;
          ctx.txns = txns;
          ctx.txn = txn.get();
          ctx.lock_timeout_ms = opts.lock_timeout_ms;
          Executor ex(ctx);
          QueryResult r = ex.Execute(q, plan->plan);
          local_metrics.Merge(r.metrics);
          if (!r.status.ok()) {
            // Any statement failure aborts the transaction: committing a
            // partially-applied multi-statement op would persist half its
            // writes.
            stmt_status = r.status;
            break;
          }
        }
        if (stmt_status.ok()) {
          // A commit failure (durability unknown) is terminal for the op,
          // never retried: the commit record may have reached disk, and a
          // rerun landing after it would double-apply on recovery replay.
          Status cs = txns->Commit(txn.get());
          if (!cs.ok()) op_status = std::move(cs);
          break;
        }
        txns->Abort(txn.get());
        if (!stmt_status.IsRetryable()) {
          op_status = std::move(stmt_status);
          break;
        }
        if (backoff.Exhausted()) {
          op_status = Status::ResourceExhausted(
              "retry budget exhausted after " +
              std::to_string(backoff.attempts()) +
              " attempts; last: " + stmt_status.ToString());
          break;
        }
        ++aborts;
        backoff.SleepNext();
      }
      OpStats& st = local[op.id];
      st.count += 1;
      st.aborts += aborts;
      st.txn_retries += aborts;
      st.backoff_ms += backoff.total_backoff_ms();
      if (!op_status.ok()) {
        st.failures += 1;
        if (op_status.IsResourceExhausted()) st.exhausted += 1;
        if (local_first.ok()) local_first = std::move(op_status);
      }
      const double ms = op_timer.ElapsedMs();
      st.total_ms += ms;
      st.latencies_ms.push_back(ms);
      st.completion_ms.push_back(wall.ElapsedMs());
    }
    local_metrics.txn_retries +=
        [&] {
          uint64_t n = 0;
          for (const auto& [t, s] : local) n += s.txn_retries;
          return n;
        }();
    local_metrics.backoff_ns += [&] {
      double total = 0;
      for (const auto& [t, s] : local) total += s.backoff_ms;
      return static_cast<uint64_t>(total * 1e6);
    }();
    std::lock_guard<std::mutex> g(result_mu);
    for (auto& [type, st] : local) {
      OpStats& dst = result.per_type[type];
      dst.count += st.count;
      dst.aborts += st.aborts;
      dst.txn_retries += st.txn_retries;
      dst.backoff_ms += st.backoff_ms;
      dst.failures += st.failures;
      dst.exhausted += st.exhausted;
      dst.total_ms += st.total_ms;
      dst.latencies_ms.insert(dst.latencies_ms.end(), st.latencies_ms.begin(),
                              st.latencies_ms.end());
      dst.completion_ms.insert(dst.completion_ms.end(),
                               st.completion_ms.begin(),
                               st.completion_ms.end());
      result.total_aborts += st.aborts;
      result.total_retries += st.txn_retries;
      result.total_failures += st.failures;
      result.total_exhausted += st.exhausted;
    }
    result.metrics.Merge(local_metrics);
    if (result.first_error.ok() && !local_first.ok()) {
      result.first_error = std::move(local_first);
    }
  };

  // Concurrent analytic streams: dedicated OS threads (not pool morsels —
  // they must overlap the transactional clients, not queue behind them)
  // running non-transactional statements closed-loop until the
  // transactional stream drains. do/while so every stream completes at
  // least one statement even in degenerate configs.
  std::atomic<bool> analytic_stop{false};
  auto analytic_worker = [&](int aid) {
    const int tid = opts.threads + aid;
    Rng rng(opts.seed + static_cast<uint64_t>(tid) * 7919);
    std::map<std::string, OpStats> local;
    QueryMetrics local_metrics;
    Status local_first;
    do {
      Query q = opts.analytic_gen(tid, &rng);
      Timer op_timer;
      Configuration cfg = Configuration::FromCatalog(*db);
      PlanOptions popts;
      popts.max_dop = opts.max_dop_per_query;
      auto plan = optimizer.Plan(q, cfg, popts);
      Status op_status = plan.ok() ? Status::OK() : plan.status();
      if (plan.ok()) {
        ExecContext ctx;
        ctx.db = db;
        ctx.max_dop = opts.max_dop_per_query;
        ctx.scan_scheduler = opts.scan_scheduler;
        ctx.admission = opts.admission;
        Executor ex(ctx);
        QueryResult r = ex.Execute(q, plan->plan);
        local_metrics.Merge(r.metrics);
        op_status = std::move(r.status);
      }
      OpStats& st = local[q.id];
      st.count += 1;
      if (!op_status.ok()) {
        st.failures += 1;
        if (op_status.IsResourceExhausted()) st.exhausted += 1;
        if (local_first.ok()) local_first = std::move(op_status);
      }
      const double ms = op_timer.ElapsedMs();
      st.total_ms += ms;
      st.latencies_ms.push_back(ms);
      st.completion_ms.push_back(wall.ElapsedMs());
    } while (!analytic_stop.load(std::memory_order_relaxed));
    std::lock_guard<std::mutex> g(result_mu);
    for (auto& [type, st] : local) {
      OpStats& dst = result.analytic[type];
      dst.count += st.count;
      dst.failures += st.failures;
      dst.exhausted += st.exhausted;
      dst.total_ms += st.total_ms;
      dst.latencies_ms.insert(dst.latencies_ms.end(), st.latencies_ms.begin(),
                              st.latencies_ms.end());
      dst.completion_ms.insert(dst.completion_ms.end(),
                               st.completion_ms.begin(),
                               st.completion_ms.end());
    }
    result.metrics.Merge(local_metrics);
    if (result.first_error.ok() && !local_first.ok()) {
      result.first_error = std::move(local_first);
    }
  };
  std::vector<std::thread> analytic_clients;
  if (opts.analytic_threads > 0 && opts.analytic_gen) {
    analytic_clients.reserve(opts.analytic_threads);
    for (int a = 0; a < opts.analytic_threads; ++a) {
      analytic_clients.emplace_back(analytic_worker, a);
    }
  }

  // One morsel per simulated client; each runs its whole op stream. The
  // shared pool supplies the threads (its size, not opts.threads, bounds
  // hardware concurrency — `threads` keeps its workload meaning of
  // concurrent client sessions).
  ThreadPool::Global().ParallelFor(
      static_cast<uint64_t>(std::max(0, opts.threads)), opts.threads,
      [&](int /*slot*/, uint64_t tid) { worker(static_cast<int>(tid)); });
  analytic_stop.store(true, std::memory_order_relaxed);
  for (auto& t : analytic_clients) t.join();
  result.wall_ms = wall.ElapsedMs();
  if (opts.interval_ms > 0 && result.wall_ms > 0) {
    const double width = opts.interval_ms;
    const size_t n =
        static_cast<size_t>(result.wall_ms / width) + 1;
    result.intervals.resize(n);
    for (size_t i = 0; i < n; ++i) {
      result.intervals[i].start_ms = static_cast<double>(i) * width;
      result.intervals[i].end_ms = static_cast<double>(i + 1) * width;
    }
    for (const auto* map : {&result.per_type, &result.analytic}) {
      for (const auto& [type, st] : *map) {
        for (double t : st.completion_ms) {
          size_t i = static_cast<size_t>(t / width);
          if (i >= n) i = n - 1;  // completion raced past the final wall read
          result.intervals[i].ops += 1;
          result.intervals[i].ops_per_type[type] += 1;
        }
      }
    }
    for (auto& iv : result.intervals) {
      // The last window is usually partial; scale by its real span.
      const double span = std::min(iv.end_ms, result.wall_ms) - iv.start_ms;
      iv.throughput_ops_s = span > 0 ? iv.ops * 1000.0 / span : 0;
    }
  }
  return result;
}

}  // namespace hd
