#include "btree/btree.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/failpoint.h"
#include "common/telemetry.h"

namespace hd {

namespace {

// Process-wide B+ tree maintenance telemetry: structural splits (leaf +
// internal) and the depth point lookups traverse.
struct BtStats {
  TCounter* splits = Telemetry::Instance().Counter("btree.splits");
  THistogram* seek_depth = Telemetry::Instance().Histogram("btree.seek_depth");
};

BtStats& Stats() {
  static BtStats s;
  return s;
}

}  // namespace

struct BTree::Node {
  bool is_leaf = false;
  ExtentId extent = kInvalidExtent;
};

struct BTree::Leaf : BTree::Node {
  // count entries, each stride_ int64s, key first.
  std::vector<int64_t> data;
  int count = 0;
  /// Position of the last insert into this leaf (-1: none yet).
  int last_pos = -1;
  Leaf* next = nullptr;
  Leaf* prev = nullptr;

  const int64_t* Entry(int i, int stride) const { return data.data() + i * stride; }
  int64_t* Entry(int i, int stride) { return data.data() + i * stride; }
};

struct BTree::Internal : BTree::Node {
  // count children; count-1 separator keys, each kw_ int64s. Separator i
  // is the smallest key in child i+1's subtree.
  std::vector<int64_t> keys;
  std::vector<Node*> children;

  const int64_t* Key(int i, int kw) const { return keys.data() + i * kw; }
  int64_t* Key(int i, int kw) { return keys.data() + i * kw; }
  int count() const { return static_cast<int>(children.size()); }
};

BTree::BTree(int key_width, int payload_width, BufferPool* pool)
    : kw_(key_width), pw_(payload_width), stride_(key_width + payload_width),
      pool_(pool) {
  assert(kw_ >= 1);
  const int entry_bytes = stride_ * 8;
  leaf_cap_ = std::clamp<int>(static_cast<int>(kPageBytes) / entry_bytes, 8, 1024);
  const int ikey_bytes = kw_ * 8 + 8;  // separator + child pointer
  internal_cap_ = std::clamp<int>(static_cast<int>(kPageBytes) / ikey_bytes, 8, 1024);
}

BTree::~BTree() { Clear(); }

void BTree::Clear() {
  // Walk the tree freeing nodes level by level via leaf chain + recursion.
  std::function<void(Node*)> free_node = [&](Node* n) {
    if (n == nullptr) return;
    if (!n->is_leaf) {
      auto* in = static_cast<Internal*>(n);
      for (Node* c : in->children) free_node(c);
      pool_->Unregister(in->extent);
      delete in;
    } else {
      auto* l = static_cast<Leaf*>(n);
      pool_->Unregister(l->extent);
      delete l;
    }
  };
  free_node(root_);
  root_ = nullptr;
  first_leaf_ = nullptr;
  num_entries_ = 0;
  num_nodes_ = 0;
  height_ = 0;
}

BTree::Leaf* BTree::NewLeaf() {
  auto* l = new Leaf();
  l->is_leaf = true;
  l->data.resize(static_cast<size_t>(leaf_cap_) * stride_);
  l->extent = pool_->Register(kPageBytes);
  ++num_nodes_;
  return l;
}

BTree::Internal* BTree::NewInternal() {
  auto* n = new Internal();
  n->is_leaf = false;
  n->extent = pool_->Register(kPageBytes);
  ++num_nodes_;
  return n;
}

void BTree::BulkLoad(const std::vector<int64_t>& flat) {
  Clear();
  const uint64_t n = flat.size() / stride_;
  assert(flat.size() == n * static_cast<uint64_t>(stride_));
  if (n == 0) {
    root_ = first_leaf_ = NewLeaf();
    height_ = 1;
    return;
  }
  // Build leaves ~90% full so near-term inserts do not immediately split.
  const int fill = std::max(1, leaf_cap_ * 9 / 10);
  std::vector<Node*> level;
  std::vector<std::vector<int64_t>> level_keys;  // first key of each node
  Leaf* prev = nullptr;
  for (uint64_t i = 0; i < n;) {
    Leaf* l = NewLeaf();
    const int take = static_cast<int>(std::min<uint64_t>(fill, n - i));
    std::memcpy(l->data.data(), flat.data() + i * stride_,
                static_cast<size_t>(take) * stride_ * 8);
    l->count = take;
    if (prev != nullptr) {
      prev->next = l;
      l->prev = prev;
    } else {
      first_leaf_ = l;
    }
    prev = l;
    level.push_back(l);
    level_keys.emplace_back(l->Entry(0, stride_), l->Entry(0, stride_) + kw_);
    i += take;
  }
  num_entries_ = n;
  height_ = 1;
  // Build internal levels bottom-up.
  const int ifill = std::max(2, internal_cap_ * 9 / 10);
  while (level.size() > 1) {
    std::vector<Node*> up;
    std::vector<std::vector<int64_t>> up_keys;
    for (size_t i = 0; i < level.size();) {
      Internal* in = NewInternal();
      const size_t take = std::min<size_t>(ifill, level.size() - i);
      for (size_t j = 0; j < take; ++j) {
        in->children.push_back(level[i + j]);
        if (j > 0) {
          in->keys.insert(in->keys.end(), level_keys[i + j].begin(),
                          level_keys[i + j].end());
        }
      }
      up.push_back(in);
      up_keys.push_back(level_keys[i]);
      i += take;
    }
    level = std::move(up);
    level_keys = std::move(up_keys);
    ++height_;
  }
  root_ = level[0];
}

int BTree::CmpPrefix(const int64_t* entry_key, const std::vector<int64_t>& bound,
                     int kw) {
  const int n = std::min<int>(kw, static_cast<int>(bound.size()));
  return ComparePacked(entry_key, bound.data(), n);
}

bool BTree::PastHi(const int64_t* entry_key, const Bound& hi) const {
  if (hi.unbounded()) return false;
  const int c = CmpPrefix(entry_key, hi.key, kw_);
  return hi.inclusive ? c > 0 : c >= 0;
}

BTree::Leaf* BTree::DescendToLeaf(std::span<const int64_t> key, QueryMetrics* m,
                                  std::vector<Internal*>* path,
                                  Status* io) const {
  Node* n = root_;
  if (n == nullptr) return nullptr;
  while (!n->is_leaf) {
    auto* in = static_cast<Internal*>(n);
    {
      Status s = pool_->Access(in->extent, IoPattern::kRandom, m);
      if (!s.ok()) {
        if (io != nullptr) *io = std::move(s);
        return nullptr;
      }
    }
    // Binary search over separators: child i covers keys in
    // [sep[i-1], sep[i]). For a full key, sep == key means the key lives in
    // the right child (separators are right-child minimums). For a prefix
    // key we descend to the *leftmost* child that may hold the prefix, so
    // equality keeps us left; the leaf chain covers the rest.
    const int n_cmp = std::min<int>(kw_, static_cast<int>(key.size()));
    const bool full_key = n_cmp == kw_;
    int child = 0;
    int l = 0, r = in->count() - 2;
    while (l <= r) {
      int mid = (l + r) / 2;
      int c = ComparePacked(in->Key(mid, kw_), key.data(), n_cmp);
      if (c < 0 || (c == 0 && full_key)) {
        child = mid + 1;
        l = mid + 1;
      } else {
        r = mid - 1;
      }
    }
    if (path != nullptr) path->push_back(in);
    n = in->children[child];
  }
  auto* leaf = static_cast<Leaf*>(n);
  {
    Status s = pool_->Access(leaf->extent, IoPattern::kRandom, m);
    if (!s.ok()) {
      if (io != nullptr) *io = std::move(s);
      return nullptr;
    }
  }
  return leaf;
}

BTree::Leaf* BTree::LeftmostLeaf(QueryMetrics* m, Status* io) const {
  Node* n = root_;
  if (n == nullptr) return nullptr;
  while (!n->is_leaf) {
    auto* in = static_cast<Internal*>(n);
    Status s = pool_->Access(in->extent, IoPattern::kRandom, m);
    if (!s.ok()) {
      if (io != nullptr) *io = std::move(s);
      return nullptr;
    }
    n = in->children[0];
  }
  auto* leaf = static_cast<Leaf*>(n);
  Status s = pool_->Access(leaf->extent, IoPattern::kRandom, m);
  if (!s.ok()) {
    if (io != nullptr) *io = std::move(s);
    return nullptr;
  }
  return leaf;
}

BTree::Leaf* BTree::SeekLeaf(const Bound& lo, QueryMetrics* m,
                             Status* io) const {
  if (lo.unbounded()) return LeftmostLeaf(m, io);
  return DescendToLeaf(std::span<const int64_t>(lo.key.data(), lo.key.size()),
                       m, nullptr, io);
}

int BTree::LowerBoundInLeaf(const Leaf* l, std::span<const int64_t> key) const {
  int lo = 0, hi = l->count;
  const int n = std::min<int>(kw_, static_cast<int>(key.size()));
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (ComparePacked(l->Entry(mid, stride_), key.data(), n) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Status BTree::Insert(std::span<const int64_t> key,
                     std::span<const int64_t> payload, QueryMetrics* m) {
  assert(static_cast<int>(key.size()) == kw_);
  assert(static_cast<int>(payload.size()) == pw_);
  if (root_ == nullptr) {
    root_ = first_leaf_ = NewLeaf();
    height_ = 1;
  }
  std::vector<Internal*> path;
  Status io;
  Leaf* leaf = DescendToLeaf(key, m, &path, &io);
  if (leaf == nullptr) return io.ok() ? Status::NotFound("empty tree") : io;
  int pos = LowerBoundInLeaf(leaf, key);
  if (pos < leaf->count &&
      ComparePacked(leaf->Entry(pos, stride_), key.data(), kw_) == 0) {
    return Status::InvalidArgument("duplicate key in B+ tree insert");
  }
  if (leaf->count < leaf_cap_) {
    int64_t* base = leaf->data.data();
    std::memmove(base + (pos + 1) * stride_, base + pos * stride_,
                 static_cast<size_t>(leaf->count - pos) * stride_ * 8);
    std::memcpy(base + pos * stride_, key.data(), kw_ * 8);
    // copy_n, not memcpy: a zero-width payload (delete buffers) may be a
    // null span, which memcpy may not receive.
    std::copy_n(payload.data(), pw_, base + pos * stride_ + kw_);
    ++leaf->count;
    leaf->last_pos = pos;
    ++num_entries_;
    return Status::OK();
  }
  // Split the leaf. The failpoint models node-allocation failure at the
  // riskiest structural moment; firing here leaves the tree exactly as it
  // was before the insert (no entry added, no chain links touched).
  HD_FAILPOINT_RETURN_M("btree.split", m);
  Stats().splits->Add(1);
  Leaf* right = NewLeaf();
  // Ascending inserts — past the last entry (a delta store's insert
  // sequence) or right after the previous insert (one district's next
  // order, in front of the next district's keys) — split at the insert
  // position, like SQL Server's end-of-page split: the left leaf stays full
  // and later ascending keys keep filling it or a fresh right sibling. A
  // 50/50 split there would leave every left half half-empty for good.
  const bool ascending =
      pos == leaf->count || (leaf->last_pos >= 0 && pos == leaf->last_pos + 1);
  const int half = ascending ? pos : leaf->count / 2;
  std::memcpy(right->data.data(), leaf->Entry(half, stride_),
              static_cast<size_t>(leaf->count - half) * stride_ * 8);
  right->count = leaf->count - half;
  leaf->count = half;
  right->next = leaf->next;
  if (right->next != nullptr) right->next->prev = right;
  right->prev = leaf;
  leaf->next = right;
  // Re-insert into the proper half.
  Leaf* target =
      right->count == 0 ||
              ComparePacked(key.data(), right->Entry(0, stride_), kw_) >= 0
          ? right
          : leaf;
  pos = LowerBoundInLeaf(target, key);
  int64_t* base = target->data.data();
  std::memmove(base + (pos + 1) * stride_, base + pos * stride_,
               static_cast<size_t>(target->count - pos) * stride_ * 8);
  std::memcpy(base + pos * stride_, key.data(), kw_ * 8);
  std::copy_n(payload.data(), pw_, base + pos * stride_ + kw_);
  ++target->count;
  target->last_pos = pos;
  ++num_entries_;
  InsertIntoParent(&path, leaf, right->Entry(0, stride_), right);
  // The structural change is durable at this point; a failed touch of the
  // fresh right sibling is only an accounting miss, not a lost insert.
  if (m != nullptr) {
    HD_RETURN_IF_ERROR(pool_->Access(right->extent, IoPattern::kRandom, m));
  }
  return Status::OK();
}

void BTree::InsertIntoParent(std::vector<Internal*>* path, Node* left,
                             const int64_t* sep_key, Node* right) {
  if (path->empty()) {
    Internal* nr = NewInternal();
    nr->children.push_back(left);
    nr->children.push_back(right);
    nr->keys.assign(sep_key, sep_key + kw_);
    root_ = nr;
    ++height_;
    return;
  }
  Internal* parent = path->back();
  path->pop_back();
  // Position of `left` among children.
  int idx = 0;
  while (idx < parent->count() && parent->children[idx] != left) ++idx;
  assert(idx < parent->count());
  parent->children.insert(parent->children.begin() + idx + 1, right);
  parent->keys.insert(parent->keys.begin() + idx * kw_, sep_key, sep_key + kw_);
  if (parent->count() <= internal_cap_) return;
  // Split the internal node; a child appended at the end splits off alone,
  // as leaves do.
  Stats().splits->Add(1);
  Internal* rnode = NewInternal();
  const int total = parent->count();
  const int lcount = idx + 2 == total ? total - 1 : total / 2;  // stay left
  const int rcount = total - lcount;      // children moving right
  // Separator promoted to grandparent = key index lcount-1.
  std::vector<int64_t> promoted(parent->Key(lcount - 1, kw_),
                                parent->Key(lcount - 1, kw_) + kw_);
  rnode->children.assign(parent->children.begin() + lcount,
                         parent->children.end());
  rnode->keys.assign(parent->keys.begin() + lcount * kw_, parent->keys.end());
  parent->children.resize(lcount);
  parent->keys.resize(static_cast<size_t>(lcount - 1) * kw_);
  (void)rcount;
  InsertIntoParent(path, parent, promoted.data(), rnode);
}

Status BTree::Delete(std::span<const int64_t> key, QueryMetrics* m) {
  Status io;
  Leaf* leaf = DescendToLeaf(key, m, nullptr, &io);
  if (leaf == nullptr) return io.ok() ? Status::NotFound("empty tree") : io;
  int pos = LowerBoundInLeaf(leaf, key);
  if (pos >= leaf->count ||
      ComparePacked(leaf->Entry(pos, stride_), key.data(), kw_) != 0) {
    return Status::NotFound("key not in B+ tree");
  }
  int64_t* base = leaf->data.data();
  std::memmove(base + pos * stride_, base + (pos + 1) * stride_,
               static_cast<size_t>(leaf->count - pos - 1) * stride_ * 8);
  --leaf->count;
  --num_entries_;
  // No rebalancing on underflow: sparse leaves are tolerated (deletes are
  // a small fraction of our workloads; SQL Server likewise defers merges).
  return Status::OK();
}

Status BTree::UpdatePayload(std::span<const int64_t> key,
                            std::span<const int64_t> payload, QueryMetrics* m) {
  Status io;
  Leaf* leaf = DescendToLeaf(key, m, nullptr, &io);
  if (leaf == nullptr) return io.ok() ? Status::NotFound("empty tree") : io;
  int pos = LowerBoundInLeaf(leaf, key);
  if (pos >= leaf->count ||
      ComparePacked(leaf->Entry(pos, stride_), key.data(), kw_) != 0) {
    return Status::NotFound("key not in B+ tree");
  }
  std::copy_n(payload.data(), pw_, leaf->Entry(pos, stride_) + kw_);
  return Status::OK();
}

Status BTree::SeekEqual(std::span<const int64_t> key, int64_t* out,
                        QueryMetrics* m) const {
  Status io;
  Leaf* leaf = DescendToLeaf(key, m, nullptr, &io);
  if (leaf == nullptr) return io.ok() ? Status::NotFound("empty tree") : io;
  Stats().seek_depth->Record(height_);
  int pos = LowerBoundInLeaf(leaf, key);
  if (pos >= leaf->count ||
      ComparePacked(leaf->Entry(pos, stride_), key.data(), kw_) != 0) {
    return Status::NotFound("key not in B+ tree");
  }
  std::copy_n(leaf->Entry(pos, stride_) + kw_, pw_, out);
  return Status::OK();
}

Status BTree::Scan(
    const Bound& lo, const Bound& hi,
    const std::function<bool(const int64_t*, const int64_t*)>& fn,
    QueryMetrics* m) const {
  Status io;
  Leaf* leaf = SeekLeaf(lo, m, &io);
  if (leaf == nullptr) return io;
  int pos = 0;
  if (!lo.unbounded()) {
    pos = LowerBoundInLeaf(leaf, std::span<const int64_t>(lo.key.data(),
                                                          lo.key.size()));
  }
  // An exclusive prefix lower bound must keep skipping equal-prefix entries
  // even across leaf boundaries.
  bool checking_lo = !lo.unbounded() && !lo.inclusive;
  bool first = true;
  while (leaf != nullptr) {
    if (!first) {
      HD_RETURN_IF_ERROR(
          pool_->Access(leaf->extent, IoPattern::kSequential, m));
      pos = 0;
    }
    first = false;
    for (; pos < leaf->count; ++pos) {
      const int64_t* e = leaf->Entry(pos, stride_);
      if (checking_lo) {
        if (CmpPrefix(e, lo.key, kw_) == 0) continue;
        checking_lo = false;
      }
      if (PastHi(e, hi)) return Status::OK();
      if (m != nullptr) m->rows_scanned += 1;
      if (!fn(e, e + kw_)) return Status::OK();
    }
    leaf = leaf->next;
  }
  return Status::OK();
}

Status BTree::CollectLeaves(const Bound& lo, const Bound& hi, QueryMetrics* m,
                            std::vector<LeafHandle>* out) const {
  out->clear();
  Status io;
  Leaf* leaf = SeekLeaf(lo, m, &io);
  if (leaf == nullptr) return io;
  while (leaf != nullptr) {
    if (leaf->count > 0 && PastHi(leaf->Entry(0, stride_), hi)) break;
    out->push_back(LeafHandle{leaf});
    leaf = leaf->next;
  }
  return Status::OK();
}

Status BTree::ScanLeaf(
    LeafHandle h, const Bound& lo, const Bound& hi,
    const std::function<bool(const int64_t*, const int64_t*)>& fn,
    QueryMetrics* m) const {
  const Leaf* leaf = static_cast<const Leaf*>(h.leaf);
  HD_RETURN_IF_ERROR(pool_->Access(leaf->extent, IoPattern::kSequential, m));
  for (int i = 0; i < leaf->count; ++i) {
    const int64_t* e = leaf->Entry(i, stride_);
    if (!lo.unbounded()) {
      const int c = CmpPrefix(e, lo.key, kw_);
      if (c < 0 || (c == 0 && !lo.inclusive)) continue;
    }
    if (PastHi(e, hi)) return Status::OK();
    if (m != nullptr) m->rows_scanned += 1;
    if (!fn(e, e + kw_)) return Status::OK();
  }
  return Status::OK();
}

}  // namespace hd
