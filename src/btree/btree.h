// B+ tree index over packed rows.
//
// Entries are (key, payload) pairs of fixed int64 widths. Keys must be
// unique: tables append a hidden uniquifier column to non-unique keys
// (same trick SQL Server uses for non-unique clustered indexes). Interior
// and leaf nodes are sized to the 8 KB page budget and registered with the
// buffer pool so traversals charge hot/cold I/O faithfully.
//
// Primary ("clustered") indexes store the full table row as payload;
// secondary indexes store included columns plus a row locator. That policy
// lives in catalog::Table — this class is agnostic.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/packed.h"
#include "common/relaxed.h"
#include "common/status.h"
#include "storage/buffer_pool.h"

namespace hd {

/// Half-open/inclusive bound for a range scan; empty key = unbounded.
struct Bound {
  std::vector<int64_t> key;  // may be a strict prefix of the index key
  bool inclusive = true;

  static Bound Unbounded() { return Bound{}; }
  static Bound Inclusive(std::vector<int64_t> k) { return Bound{std::move(k), true}; }
  static Bound Exclusive(std::vector<int64_t> k) { return Bound{std::move(k), false}; }
  bool unbounded() const { return key.empty(); }
};

/// Opaque handle to a leaf, used to partition scans across worker threads.
struct LeafHandle {
  const void* leaf = nullptr;
};

class BTree {
 public:
  /// `key_width` int64 slots of key, `payload_width` slots of payload.
  BTree(int key_width, int payload_width, BufferPool* pool);
  ~BTree();

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  int key_width() const { return kw_; }
  int payload_width() const { return pw_; }
  /// Drop every entry, leaving an empty tree (the object stays, so
  /// unlatched size readers never see it replaced).
  void Clear();
  uint64_t num_entries() const { return num_entries_; }
  int height() const { return height_; }
  uint64_t num_nodes() const { return num_nodes_; }
  /// Bytes of node storage, page-rounded (for size budgets / cost model).
  uint64_t size_bytes() const { return num_nodes_ * kPageBytes; }

  /// WAL rule plumbing (storage/wal.h): LSN of the last logged mutation
  /// applied to this tree. A checkpoint must not persist the tree before
  /// the log is durable past this point. Stamped by catalog::Table.
  uint64_t recovery_lsn() const { return recovery_lsn_; }
  void set_recovery_lsn(uint64_t lsn) {
    if (lsn > recovery_lsn_) recovery_lsn_ = lsn;
  }

  /// Bulk build from entries sorted ascending by key. Each entry is
  /// key_width+payload_width int64s (key first). Destroys prior content.
  void BulkLoad(const std::vector<int64_t>& flat_entries);

  /// Insert one entry; key must not already exist.
  Status Insert(std::span<const int64_t> key, std::span<const int64_t> payload,
                QueryMetrics* m);

  /// Remove the entry with exactly this key.
  Status Delete(std::span<const int64_t> key, QueryMetrics* m);

  /// Replace the payload of an existing key.
  Status UpdatePayload(std::span<const int64_t> key,
                       std::span<const int64_t> payload, QueryMetrics* m);

  /// Exact-match lookup of a full key. Copies payload into `out` (must have
  /// payload_width capacity). NotFound if absent.
  Status SeekEqual(std::span<const int64_t> key, int64_t* out,
                   QueryMetrics* m) const;

  /// Ordered range scan. `fn(key, payload)` returns false to stop (still
  /// OK). Non-OK only on a propagated buffer-pool/disk failure.
  Status Scan(const Bound& lo, const Bound& hi,
              const std::function<bool(const int64_t* key, const int64_t* payload)>& fn,
              QueryMetrics* m) const;

  /// Leaves overlapping [lo, hi], in order, for parallel scan partitioning.
  Status CollectLeaves(const Bound& lo, const Bound& hi, QueryMetrics* m,
                       std::vector<LeafHandle>* out) const;

  /// Scan the entries of one leaf that satisfy [lo, hi].
  Status ScanLeaf(LeafHandle h, const Bound& lo, const Bound& hi,
                  const std::function<bool(const int64_t* key, const int64_t* payload)>& fn,
                  QueryMetrics* m) const;

 private:
  struct Leaf;
  struct Internal;
  struct Node;

  /// Descent helpers return nullptr for an empty tree OR an I/O failure;
  /// when `io` is given it distinguishes the two (non-OK = failed Access,
  /// and the caller must propagate it instead of reporting NotFound).
  Leaf* DescendToLeaf(std::span<const int64_t> key, QueryMetrics* m,
                      std::vector<Internal*>* path,
                      Status* io = nullptr) const;
  Leaf* LeftmostLeaf(QueryMetrics* m, Status* io = nullptr) const;
  /// First leaf that can contain keys >= / > `lo`.
  Leaf* SeekLeaf(const Bound& lo, QueryMetrics* m, Status* io = nullptr) const;
  int LowerBoundInLeaf(const Leaf* l, std::span<const int64_t> key) const;
  /// -1/0/+1 of entry key vs a (possibly prefix) bound key.
  static int CmpPrefix(const int64_t* entry_key, const std::vector<int64_t>& bound,
                       int kw);
  bool PastHi(const int64_t* entry_key, const Bound& hi) const;
  void InsertIntoParent(std::vector<Internal*>* path, Node* left,
                        const int64_t* sep_key, Node* right);
  Leaf* NewLeaf();
  Internal* NewInternal();

  int kw_;
  int pw_;
  int stride_;       // kw_ + pw_
  int leaf_cap_;
  int internal_cap_;
  BufferPool* pool_;
  Node* root_ = nullptr;
  Leaf* first_leaf_ = nullptr;
  /// Size fields the planner reads unlatched (common/relaxed.h).
  Relaxed<uint64_t> num_entries_ = 0;
  Relaxed<uint64_t> num_nodes_ = 0;
  int height_ = 0;
  uint64_t recovery_lsn_ = 0;
};

}  // namespace hd
