// Batch aggregate sink: every aggregating SELECT feeds its rows here.
//
// Its sink columns (exec/sink.h) are the group-key columns first, then the
// columns the aggregate arguments read. Rows the row-mode pipeline adds
// one at a time (AddRow) are staged and aggregated in batches.
//
// Group states are per-aggregate arrays indexed by a group slot, in one of
// four shapes:
//   - global (no GROUP BY): slot 1.
//   - dense: a single integer-packed key whose [lo, hi] is known before
//     the scan, spans at most kDenseMaxSpan values, and whose arrays fit
//     the worker's share of the memory grant: slot = key - lo + 1. No hash.
//   - hash: an AggHashTable maps the key to a group g, slot = g + 1. Past
//     the worker's share of the grant, rows of new groups grace-spill to
//     one of kSpillParts partitions, aggregated after the scan.
//   - sorted (a stream aggregate, one worker): rows arrive ordered by the
//     group key, so a key change closes the running group and opens the
//     next one, slot = g + 1 in arrival order. No hash, no spill: closed
//     groups are cut to the ones the output can still return (at most
//     kMaxMaterializedRows, or the LIMIT), so memory stays bounded
//     whatever the group count.
// Slot 0 absorbs spilled rows, so the update loops never branch. Each
// worker owns its states; Finish merges them, runs the spill phase, and
// emits the groups.
#pragma once

#include <cstdint>
#include <vector>

#include "columnstore/columnstore.h"
#include "exec/agg_hash.h"
#include "exec/query.h"
#include "exec/sink.h"

namespace hd {

class StringDict;

/// One aggregate over sink columns.
struct SinkAgg {
  /// kCount reads nothing. kPacked keeps an int64 per group over packed
  /// column `col`: an integer SUM/AVG, or a MIN/MAX of any column type
  /// (packing preserves order). kNumeric keeps a double per group over
  /// `expr`, whose column leaves name sink columns (ColRef::col).
  enum class Kind { kCount, kPacked, kNumeric };
  AggSpec::Fn fn = AggSpec::Fn::kCount;
  Kind kind = Kind::kCount;
  int col = -1;
  Expr expr;
};

class AggSink : public Sink {
 public:
  /// Widest key span aggregated into direct-indexed arrays.
  static constexpr uint64_t kDenseMaxSpan = uint64_t{1} << 16;
  static constexpr int kSpillParts = 16;

  struct Options {
    /// Group keys first (`key_width` of them), then aggregate inputs.
    std::vector<SinkColumn> cols;
    size_t key_width = 0;
    std::vector<SinkAgg> aggs;
    int nworkers = 1;
    /// Memory grant in bytes (0 = unlimited), shared by the workers;
    /// grace-spilled rows pay simulated I/O on `disk`.
    uint64_t grant = 0;
    const DiskModel* disk = nullptr;
    /// Inclusive packed range of the single group key, when known before
    /// the scan: the dense candidates.
    bool key_range_known = false;
    int64_t key_lo = 0;
    int64_t key_hi = 0;
    /// Rows arrive ordered by the group key. Honoured with one worker
    /// only: several workers' rows interleave.
    bool sorted_input = false;
    /// Output shape. With `order_keys` (positions in the group key) or a
    /// `limit` >= 0, groups are ordered by those keys, then by the
    /// remaining keys, in Value order, and only the first `limit` are
    /// returned.
    std::vector<int> order_keys;
    int64_t limit = -1;
  };

  explicit AggSink(Options o);

  bool dense() const { return mode_ == Mode::kDense; }

  /// Aggregates every row it is given: never asks the scan to stop.
  bool Update(int w, size_t n, const int64_t* const* cols) override;
  bool AddRow(int w, const int64_t* vals) override;
  /// Fold encoded-domain pushdown partials of a global aggregate: `rows`
  /// rows, acc[i] answering aggregate i.
  void AddPushed(int w, uint64_t rows, const PushAggState* acc);

  /// Merge the workers' states, aggregate the spill partitions, and emit
  /// the groups in the Options' output shape. Charges spill I/O,
  /// hash_probes, agg_dense_rows and peak memory to `fm`.
  Status Finish(QueryResult* res, QueryMetrics* fm) override;
  uint64_t rows_in() const override;

 private:
  enum class Mode { kGlobal, kDense, kHash, kSorted };

  /// Per-slot aggregate states: rows per slot, and one array per
  /// aggregate (`packed` for kPacked, `num` for kNumeric).
  struct States {
    std::vector<uint64_t> rows;
    std::vector<std::vector<int64_t>> packed;
    std::vector<std::vector<double>> num;
  };

  struct Part {
    States st;
    AggHashTable table;
    /// Spilled rows: [partition][sink column] values.
    std::vector<std::vector<std::vector<int64_t>>> spill;
    uint64_t spill_rows = 0;
    std::vector<int64_t> stage;  ///< column-major, kStageRows per column
    size_t staged = 0;
    uint64_t rows_in = 0;
    /// Sorted mode: key words of each group in slot order (the last group
    /// is the running one), groups cut away by Trim, and the most slots
    /// held at once.
    std::vector<int64_t> gkeys;
    uint64_t trimmed = 0;
    size_t peak_slots = 0;
    // Per-batch scratch.
    std::vector<uint32_t> slot;
    std::vector<uint64_t> hash;
    std::vector<int64_t> keys;
    std::vector<std::vector<double>> ebuf;
    std::vector<const int64_t*> ptrs;
  };

  void InitPart(Part* p, bool hash) const;
  void Resize(States* st, size_t slots) const;
  void UpdatePart(Part* p, size_t n, const int64_t* const* cols,
                  size_t max_groups);
  void Flush(Part* p);
  /// Evaluate `e` over n rows into `out`; scratch from p->ebuf[depth..].
  void Eval(const Expr& e, size_t n, const int64_t* const* cols, Part* p,
            double* out, size_t depth);
  /// Fold slot `ss` of `s` into slot `ds` of `d`.
  void Combine(States* d, size_t ds, const States& s, size_t ss) const;
  /// Fold every group of hash part `from` into `into`'s table and states.
  void MergeHash(Part* into, const Part& from) const;
  /// Sorted mode: slots for n rows, opening a group at each key change.
  void SortedSlots(Part* p, size_t n, const int64_t* const* cols);
  /// Sorted mode: once the closed groups pass twice what the output can
  /// return, keep only those it can (the first ones in output order).
  void Trim(Part* p);
  /// Per group-key column, the dictionary PackedLess compares strings
  /// through, or null.
  std::vector<const StringDict*> KeyDicts() const;
  /// Whether group key `a` comes before `b` in the output order (Value
  /// order); `dicts` from KeyDicts.
  bool KeyLess(const int64_t* a, const int64_t* b,
               const StringDict* const* dicts) const;
  /// Groups the output returns at most: min(limit, kMaxMaterializedRows).
  size_t Keep() const;
  bool Ordered() const { return !o_.order_keys.empty() || o_.limit >= 0; }

  Options o_;
  Mode mode_ = Mode::kHash;
  /// Key positions compared by KeyLess: order_keys, then the rest.
  std::vector<int> key_order_;
  size_t max_groups_ = static_cast<size_t>(-1);
  std::vector<Part> parts_;
};

}  // namespace hd
