// Physical plans: the optimizer's output, the executor's input.
#pragma once

#include <string>
#include <vector>

#include "catalog/index_def.h"

namespace hd {

/// How one table is accessed.
struct AccessPath {
  enum class Kind {
    kHeapScan,        // full scan of a heap primary
    kBTreeRange,      // (range) scan/seek of primary or secondary B+ tree
    kBTreeFullScan,   // full ordered scan of a B+ tree
    kCsiScan,         // vectorized columnstore scan (primary or secondary)
  };

  Kind kind = Kind::kHeapScan;
  /// Secondary index name; empty = the table's primary structure.
  std::string index_name;
  /// For kBTreeRange: number of leading key columns bounded by predicates.
  int seek_cols = 0;

  bool is_btree() const {
    return kind == Kind::kBTreeRange || kind == Kind::kBTreeFullScan;
  }
  bool is_csi() const { return kind == Kind::kCsiScan; }

  std::string Describe() const;
};

/// One join in execution order.
struct JoinStep {
  enum class Method {
    kHash,     // build hash table on the dimension, probe from base stream
    kIndexNL,  // per base row, seek the dimension's B+ tree on the join col
  };
  int join_idx = 0;  // index into Query::joins
  Method method = Method::kHash;
  AccessPath dim_path;  // how the dimension is read (build side / NL target)

  // Optimizer estimates captured at planning time (-1 = not estimated):
  // dimension rows surviving the dim predicates (hash build size / NL
  // match pool), and rows streaming out of this join step.
  double est_dim_rows = -1;
  double est_rows_out = -1;

  std::string Describe() const;
};

/// Aggregation strategy.
enum class AggMethod {
  kNone,
  kHash,      // hash aggregate (spills beyond the memory grant)
  kStream,    // streaming aggregate over sorted input (needs order)
};

/// A complete physical plan for one Query.
struct PhysicalPlan {
  AccessPath base;
  std::vector<JoinStep> joins;
  AggMethod agg = AggMethod::kNone;
  /// Sort needed to satisfy ORDER BY (false if the base path provides it).
  bool explicit_sort = false;
  /// Degree of parallelism asked for the base scan; the executor runs at
  /// most the pool's cap (QueryMetrics::dop has what it ran at).
  int dop = 1;
  /// If >= 0, the plan is dimension-driven: joins[driving_join]'s dim table
  /// is scanned as the outer side and each of its rows seeks the base
  /// table's B+ tree (`base`, which must be kBTreeRange leading on the join
  /// column). This is the hybrid plan shape of Section 5.3 (e.g. TPC-DS
  /// Q54): selective dimension predicates drive index seeks into the fact.
  int driving_join = -1;

  // Optimizer estimates (cost model units ~ milliseconds).
  double est_cost = 0;
  double est_base_rows = 0;   // rows out of the base access path
  double est_out_rows = 0;

  /// Leaf-access accounting for Fig. 10.
  int leaf_btree_count() const;
  int leaf_csi_count() const;
  int leaf_heap_count() const;
  bool is_hybrid() const {
    return leaf_btree_count() > 0 && leaf_csi_count() > 0;
  }

  /// The plan shape, with " (dop=N)" when it ran at `run_dop` > 1.
  std::string Describe(int run_dop = 1) const;
};

inline std::string AccessPath::Describe() const {
  std::string s;
  switch (kind) {
    case Kind::kHeapScan: s = "HeapScan"; break;
    case Kind::kBTreeRange: s = "BTreeRange(seek=" + std::to_string(seek_cols) + ")"; break;
    case Kind::kBTreeFullScan: s = "BTreeScan"; break;
    case Kind::kCsiScan: s = "CsiScan"; break;
  }
  if (!index_name.empty()) s += "[" + index_name + "]";
  return s;
}

inline std::string JoinStep::Describe() const {
  return std::string(method == Method::kHash ? "HashJoin" : "IndexNLJoin") +
         "{" + dim_path.Describe() + "}";
}

inline int PhysicalPlan::leaf_btree_count() const {
  int n = base.is_btree() ? 1 : 0;
  for (const auto& j : joins) n += j.dim_path.is_btree() ? 1 : 0;
  return n;
}

inline int PhysicalPlan::leaf_csi_count() const {
  int n = base.is_csi() ? 1 : 0;
  for (const auto& j : joins) n += j.dim_path.is_csi() ? 1 : 0;
  return n;
}

inline int PhysicalPlan::leaf_heap_count() const {
  int n = base.kind == AccessPath::Kind::kHeapScan ? 1 : 0;
  for (const auto& j : joins) {
    n += j.dim_path.kind == AccessPath::Kind::kHeapScan ? 1 : 0;
  }
  return n;
}

inline std::string PhysicalPlan::Describe(int run_dop) const {
  std::string s = base.Describe();
  for (const auto& j : joins) s += " -> " + j.Describe();
  if (agg == AggMethod::kHash) s += " -> HashAgg";
  if (agg == AggMethod::kStream) s += " -> StreamAgg";
  if (explicit_sort) s += " -> Sort";
  if (run_dop > 1) s += " (dop=" + std::to_string(run_dop) + ")";
  return s;
}

}  // namespace hd
