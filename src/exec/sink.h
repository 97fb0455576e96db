// Pipeline ends: every SELECT feeds exactly one sink, an AggSink
// (exec/agg_sink.h) when it aggregates, else an OutputSink (projection,
// ORDER BY, LIMIT). Rows arrive as batches of *sink columns*, the packed
// table columns the result reads: a decoded columnstore batch, a gather
// at the batch join boundary, or one row of the row-mode pipeline
// (AddRow). Each worker owns its state; Finish merges them.
#pragma once

#include <atomic>
#include <vector>

#include "exec/executor.h"

namespace hd {

class DiskModel;
class Table;

/// One sink column: the table column its values come from (packed).
struct SinkColumn {
  const Table* table = nullptr;
  int col = 0;
  ValueType type = ValueType::kInt64;
};

class Sink {
 public:
  virtual ~Sink() = default;
  /// Take `n` rows for worker `w`: cols[k] holds the n values of sink
  /// column k. False once the sink needs no more rows: the scan stops.
  virtual bool Update(int w, size_t n, const int64_t* const* cols) = 0;
  /// Take one row for worker `w`: vals[k] is sink column k.
  virtual bool AddRow(int w, const int64_t* vals) = 0;
  /// Emit the result into `res` (rows capped at kMaxMaterializedRows,
  /// row_count the true count); spill I/O and peak memory land on `fm`.
  virtual Status Finish(QueryResult* res, QueryMetrics* fm) = 0;
  /// Rows taken so far; exact after Finish.
  virtual uint64_t rows_in() const = 0;
  /// Rows the sink still takes before it stops (UINT64_MAX = no bound).
  virtual uint64_t Remaining() const { return UINT64_MAX; }
};

class OutputSink : public Sink {
 public:
  struct Options {
    /// The output columns (`nout` of them), then ORDER BY columns the
    /// output lacks.
    std::vector<SinkColumn> cols;
    size_t nout = 0;
    /// ORDER BY column positions in `cols`; `sort` is false when the scan
    /// already delivers that order.
    std::vector<int> order_keys;
    bool sort = false;
    /// Rows returned at most (-1 = all). Without ORDER BY the sink stops
    /// taking rows once it has `limit`.
    int64_t limit = -1;
    int nworkers = 1;
    /// Memory grant in bytes (0 = unlimited); a sort past it spills to
    /// `disk`.
    uint64_t grant = 0;
    const DiskModel* disk = nullptr;
  };

  explicit OutputSink(Options o);

  bool Update(int w, size_t n, const int64_t* const* cols) override;
  bool AddRow(int w, const int64_t* vals) override;
  Status Finish(QueryResult* res, QueryMetrics* fm) override;
  uint64_t rows_in() const override;
  /// Bounded only under a LIMIT without ORDER BY.
  uint64_t Remaining() const override;

 private:
  struct Part {
    std::vector<int64_t> rows;  ///< row-major, cols.size() values a row
    uint64_t count = 0;         ///< rows taken, kept or not
    std::vector<const int64_t*> ptrs;
  };

  bool sorting() const { return o_.sort && !o_.order_keys.empty(); }
  Options o_;
  std::vector<Part> parts_;
  /// Rows taken by all workers, counted only under a LIMIT that stops.
  std::atomic<uint64_t> taken_{0};
};

}  // namespace hd
