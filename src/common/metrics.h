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

/// Counters accumulated while executing one query. Thread-safe: parallel
/// operator instances add into the same object.
struct QueryMetrics {
  std::atomic<uint64_t> pages_read{0};
  std::atomic<uint64_t> bytes_read{0};        // from "disk" (cold)
  std::atomic<uint64_t> bytes_processed{0};   // decoded/scanned bytes
  std::atomic<uint64_t> rows_scanned{0};
  std::atomic<uint64_t> rows_output{0};
  std::atomic<uint64_t> segments_scanned{0};
  std::atomic<uint64_t> segments_skipped{0};
  /// Morsel scheduling (shared work-stealing pool): morsels dispatched for
  /// this query, and how many ran on a participant that did not own them.
  std::atomic<uint64_t> morsels_scheduled{0};
  std::atomic<uint64_t> morsels_stolen{0};
  /// Encoded-domain predicate evaluation: RLE runs tested per-run instead
  /// of per-row, and rows actually decoded to values (output columns).
  std::atomic<uint64_t> runs_evaluated{0};
  std::atomic<uint64_t> rows_decoded{0};
  /// Vectorized scan kernels: rows surviving the predicate bitmaps
  /// (before delete filtering), and rows decoded through the sparse
  /// late-materialization gather (a subset of rows_decoded).
  std::atomic<uint64_t> rows_selected{0};
  std::atomic<uint64_t> rows_late_materialized{0};
  /// Aggregates answered entirely in the encoded domain (no decode),
  /// aggregate hash-table probe chains walked (one per FindOrInsert), and
  /// rows aggregated into direct-indexed (dense) group states, which take
  /// no probe.
  std::atomic<uint64_t> aggs_pushed_down{0};
  std::atomic<uint64_t> hash_probes{0};
  std::atomic<uint64_t> agg_dense_rows{0};
  /// Batch-mode hash joins: keys probed through the vectorized kernels
  /// (one per key per join step), and (probe-row, build-row) matches those
  /// probes expanded to. Bloom pushdown (sideways information passing):
  /// decoded join keys tested against a build-side Bloom filter inside the
  /// base scan, and how many of those the filter eliminated before any
  /// other column was gathered.
  std::atomic<uint64_t> join_batch_probes{0};
  std::atomic<uint64_t> join_matches{0};
  std::atomic<uint64_t> join_bloom_checks{0};
  std::atomic<uint64_t> join_bloom_filtered{0};
  /// Simulated I/O stall nanoseconds (summed; on the critical path for
  /// serial plans, divided by DOP for parallel scans when reporting).
  std::atomic<uint64_t> sim_io_ns{0};
  /// Measured compute nanoseconds summed over all worker threads.
  std::atomic<uint64_t> cpu_ns{0};
  std::atomic<uint64_t> peak_memory_bytes{0};
  std::atomic<uint64_t> spill_bytes{0};
  /// Cooperative shared scans (ScanScheduler): passes this query attached
  /// to, column segments whose decode it consumed from another query's
  /// decode work, and the decoded bytes it therefore did not produce
  /// itself.
  std::atomic<uint64_t> shared_scan_attaches{0};
  std::atomic<uint64_t> segments_shared{0};
  std::atomic<uint64_t> shared_decode_bytes_saved{0};
  /// Transaction-level robustness counters (mixed driver): whole-txn
  /// retries after a retryable failure, and wall-clock nanoseconds spent
  /// sleeping in the retry backoff.
  std::atomic<uint64_t> txn_retries{0};
  std::atomic<uint64_t> backoff_ns{0};
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

  double cpu_ms() const { return cpu_ns.load() / 1e6; }
  double sim_io_ms() const { return sim_io_ns.load() / 1e6; }
  /// End-to-end execution estimate: compute critical path + I/O stalls.
  double exec_ms() const {
    int d = dop > 0 ? dop : 1;
    return cpu_ns.load() / 1e6 / d + sim_io_ns.load() / 1e6 / d;
  }
  double data_read_mb() const { return bytes_read.load() / (1024.0 * 1024.0); }

  void UpdatePeakMemory(uint64_t bytes) {
    uint64_t prev = peak_memory_bytes.load();
    while (bytes > prev &&
           !peak_memory_bytes.compare_exchange_weak(prev, bytes)) {
    }
  }

  std::string ToString() const;
};

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
/// DML mutation) charged at query level. For read-only statements the
/// data-path counters (rows_scanned, segments_*, runs_evaluated,
/// rows_decoded, rows_selected, rows_late_materialized, aggs_pushed_down,
/// hash_probes, agg_dense_rows, join_batch_probes, join_matches, join_bloom_checks,
/// join_bloom_filtered, morsels_*) therefore sum exactly across operators
/// to the query totals. The join_bloom_* pair is charged to the *join*
/// operator whose filter ran (not the scan it ran inside): the check is
/// work done on that join's behalf.
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
