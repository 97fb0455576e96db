// Per-query execution metrics and timing helpers.
//
// The engine reports two time components for every query, mirroring the
// paper's methodology (Section 3.1): measured CPU work, and simulated I/O
// stall time charged by the DiskModel for non-resident data. "Execution
// time" = CPU critical path + I/O stalls; "CPU time" = total work summed
// over worker threads (so parallel plans show the Fig. 1(b) jump).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace hd {

/// Monotonic wall-clock stopwatch (milliseconds).
class Timer {
 public:
  Timer() { Reset(); }
  void Reset() { start_ = Clock::now(); }
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Every QueryMetrics counter, declared once as X(name, merge, ms_label):
///   - name: the member, and the label the text renderers (ToString,
///     EXPLAIN ANALYZE) and bench JSON print it under unless ms_label
///     is set;
///   - merge: kSum adds under Merge, kMax keeps the high-water mark;
///   - ms_label: nullptr for counts; for a nanosecond timing, the label it
///     renders under, converted to milliseconds.
/// docs/OBSERVABILITY.md's counter glossary has one row per entry
/// (tools/check_counter_glossary.py keeps them in step).
#define HD_QUERY_COUNTERS(X)                                               \
  X(pages_read, kSum, nullptr)                                             \
  /* Bytes read from "disk" (cold). */                                     \
  X(bytes_read, kSum, nullptr)                                             \
  /* Decoded/scanned bytes. */                                             \
  X(bytes_processed, kSum, nullptr)                                        \
  X(rows_scanned, kSum, nullptr)                                           \
  X(rows_output, kSum, nullptr)                                            \
  X(segments_scanned, kSum, nullptr)                                       \
  X(segments_skipped, kSum, nullptr)                                       \
  /* Morsel scheduling (shared work-stealing pool): morsels dispatched for \
     this query, and how many ran on a participant that did not own them.  \
   */                                                                      \
  X(morsels_scheduled, kSum, nullptr)                                      \
  X(morsels_stolen, kSum, nullptr)                                         \
  /* Encoded-domain predicate evaluation: RLE runs tested per-run instead  \
     of per-row, and rows actually decoded to values (output columns). */  \
  X(runs_evaluated, kSum, nullptr)                                         \
  X(rows_decoded, kSum, nullptr)                                           \
  /* Vectorized scan kernels: rows surviving the predicate bitmaps (before \
     delete filtering), and rows decoded through the sparse                \
     late-materialization gather (a subset of rows_decoded). */            \
  X(rows_selected, kSum, nullptr)                                          \
  X(rows_late_materialized, kSum, nullptr)                                 \
  /* Aggregates answered entirely in the encoded domain (no decode),       \
     aggregate hash-table probe chains walked (one per FindOrInsert), and  \
     rows aggregated into direct-indexed (dense) group states, which take  \
     no probe. */                                                          \
  X(aggs_pushed_down, kSum, nullptr)                                       \
  X(hash_probes, kSum, nullptr)                                            \
  X(agg_dense_rows, kSum, nullptr)                                         \
  /* Batch-mode hash joins: keys probed through the vectorized kernels     \
     (one per key per join step), and (probe-row, build-row) matches those \
     probes expanded to. Bloom pushdown (sideways information passing):    \
     decoded join keys tested against a build-side Bloom filter inside the \
     base scan, and how many of those the filter eliminated before any     \
     other column was gathered. */                                         \
  X(join_batch_probes, kSum, nullptr)                                      \
  X(join_matches, kSum, nullptr)                                           \
  X(join_bloom_checks, kSum, nullptr)                                      \
  X(join_bloom_filtered, kSum, nullptr)                                    \
  /* Simulated I/O stall nanoseconds (summed; on the critical path for     \
     serial plans, divided by DOP for parallel scans when reporting). */   \
  X(sim_io_ns, kSum, "io_ms")                                              \
  /* Measured compute nanoseconds summed over all worker threads. */       \
  X(cpu_ns, kSum, "cpu_ms")                                                \
  X(peak_memory_bytes, kMax, nullptr)                                      \
  X(spill_bytes, kSum, nullptr)                                            \
  /* Cooperative shared scans (ScanScheduler): passes this query attached  \
     to, column segments whose decode it consumed from another query's     \
     decode work, and the decoded bytes it therefore did not produce       \
     itself. */                                                            \
  X(shared_scan_attaches, kSum, nullptr)                                   \
  X(segments_shared, kSum, nullptr)                                        \
  X(decode_bytes_saved, kSum, nullptr)                                     \
  /* Transaction-level robustness counters (mixed driver): whole-txn       \
     retries after a retryable failure, and wall-clock nanoseconds spent   \
     sleeping in the retry backoff. */                                     \
  X(txn_retries, kSum, nullptr)                                            \
  X(backoff_ns, kSum, nullptr)

/// Counters accumulated while executing one query. Thread-safe: parallel
/// operator instances add into the same object.
struct QueryMetrics {
#define HD_COUNTER_MEMBER(name, merge, ms_label) std::atomic<uint64_t> name{0};
  HD_QUERY_COUNTERS(HD_COUNTER_MEMBER)
#undef HD_COUNTER_MEMBER
  int dop = 1;

  QueryMetrics() = default;
  QueryMetrics(const QueryMetrics& o) { *this = o; }
  QueryMetrics& operator=(const QueryMetrics& o) {
    if (this == &o) return *this;
    Clear();
    Merge(o);
    dop = o.dop;
    return *this;
  }

  void Clear();

  /// Merge counters from another metrics block (e.g. per-thread locals).
  void Merge(const QueryMetrics& o);

  /// Call f(const CounterDef&, uint64_t value) for every counter, in list
  /// order.
  template <typename F>
  void ForEachCounter(F&& f) const;

  double cpu_ms() const { return cpu_ns.load() / 1e6; }
  double sim_io_ms() const { return sim_io_ns.load() / 1e6; }
  /// End-to-end execution estimate: compute critical path + I/O stalls.
  double exec_ms() const {
    int d = dop > 0 ? dop : 1;
    return cpu_ns.load() / 1e6 / d + sim_io_ns.load() / 1e6 / d;
  }
  double data_read_mb() const { return bytes_read.load() / (1024.0 * 1024.0); }

  void UpdatePeakMemory(uint64_t bytes) {
    StoreMax(&peak_memory_bytes, bytes);
  }

  /// " label=value" for every non-zero counter, in list order; timings in
  /// milliseconds. The counter part of ToString and EXPLAIN ANALYZE.
  std::string CounterText() const;
  /// "exec_ms=... dop=..." followed by CounterText().
  std::string ToString() const;

 private:
  static void StoreMax(std::atomic<uint64_t>* a, uint64_t v) {
    uint64_t prev = a->load();
    while (v > prev && !a->compare_exchange_weak(prev, v)) {
    }
  }
};

enum class CounterMerge { kSum, kMax };

/// One HD_QUERY_COUNTERS entry.
struct CounterDef {
  const char* name;
  CounterMerge merge;
  const char* ms_label;
  std::atomic<uint64_t> QueryMetrics::*member;

  /// The name a renderer prints: ms_label for timings, else name.
  const char* label() const { return ms_label != nullptr ? ms_label : name; }
};

inline constexpr CounterDef kQueryCounters[] = {
#define HD_COUNTER_DEF(name, merge, ms_label) \
  {#name, CounterMerge::merge, ms_label, &QueryMetrics::name},
    HD_QUERY_COUNTERS(HD_COUNTER_DEF)
#undef HD_COUNTER_DEF
};

template <typename F>
void QueryMetrics::ForEachCounter(F&& f) const {
  for (const CounterDef& c : kQueryCounters) f(c, (this->*c.member).load());
}

/// One physical plan node's identity plus the counters attributed to it
/// during execution (the EXPLAIN ANALYZE payload). The executor runs a
/// pipelined plan (scan -> join steps -> agg/sort), so operators form a
/// linear chain; `depth` positions the node when rendering the tree
/// (larger = deeper, i.e. the leaf scan has the largest depth).
///
/// Attribution contract (see docs/OBSERVABILITY.md): every counter
/// increment during execution lands in exactly one operator's `metrics`
/// block; the query-level QueryMetrics is the merge ("rollup") of all
/// operator blocks plus a small residual (locks, version-chain probes,
/// DML mutation) charged at query level. An untransacted read has no
/// residual, so every kSum counter sums exactly across operators to the
/// query totals. Bloom pushdown checks are charged to the *join* operator
/// whose filter ran (not the scan it ran inside): the check is work done
/// on that join's behalf.
struct OperatorProfile {
  std::string name;   ///< e.g. "CsiScan[csi_sales]", "HashAgg"
  std::string phase;  ///< "scan" | "join" | "agg" | "sort"
  int depth = 0;
  /// Optimizer estimates captured at planning time; -1 = not estimated.
  double est_rows = -1;
  double est_cost_ms = -1;
  /// Row flow through this operator (actuals).
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  /// Counters incremented exclusively on behalf of this operator.
  QueryMetrics metrics;
};

}  // namespace hd
