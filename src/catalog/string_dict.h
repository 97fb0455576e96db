// Per-column string dictionary: maps strings to packed int64 codes.
//
// Bulk loads build the dictionary sorted, so codes are order-preserving
// and range predicates on strings work. Strings first seen by later
// trickle inserts get appended codes that are only equality-correct
// (documented engine limitation; none of the reproduced workloads range-
// scan strings inserted after load).
//
// Concurrency: the dictionary is append-only. GetOrAdd serializes behind
// its own mutex; At, Lookup, FloorCode, size, sorted and byte_size take no
// lock, so statements that decode strings without holding the table latch
// (and checkpoints copying the dictionary) may run beside inserters.
//   - Strings live in chunks that never move (chunk k holds 1024 << k
//     strings), so a reference returned by At stays valid for the
//     dictionary's lifetime.
//   - The count is published with release ordering after the string is
//     written: every code below an acquired size() reads a complete string.
//   - Lookup probes an open-addressing index of codes. A full index is
//     rebuilt at twice the size and published; the old one is retired, not
//     freed, so a reader still probing it stays safe.
// BuildSorted and Restore replace the whole contents and must not run
// beside readers (load and recovery are single-threaded).
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace hd {

class StringDict {
 public:
  StringDict() { Reset(1024); }
  StringDict(const StringDict&) = delete;
  StringDict& operator=(const StringDict&) = delete;

  /// Build from (not necessarily distinct) values; codes assigned in
  /// sorted order of the distinct set.
  void BuildSorted(std::vector<std::string> values);

  /// Code for `s`, inserting if absent (appended, possibly out of order).
  int64_t GetOrAdd(const std::string& s);

  /// Restore an exact dictionary image (checkpoint recovery): `strings`
  /// are the code->string table in code order, `sorted` the flag the
  /// saved dictionary carried. Codes are preserved bit-for-bit so packed
  /// row images in the same checkpoint stay valid.
  void Restore(std::vector<std::string> strings, bool sorted);

  /// Code for `s`, or -1 if absent.
  int64_t Lookup(const std::string& s) const;

  /// Largest code whose string is <= s (for range bounds); -1 if none.
  /// Only meaningful while the dictionary is sorted.
  int64_t FloorCode(const std::string& s) const;

  const std::string& At(int64_t code) const {
    const uint64_t v = static_cast<uint64_t>(code) / kFirstChunk + 1;
    const int k = std::bit_width(v) - 1;
    return chunks_[k][static_cast<uint64_t>(code) -
                      kFirstChunk * ((uint64_t{1} << k) - 1)];
  }
  size_t size() const { return size_.load(std::memory_order_acquire); }
  bool sorted() const { return sorted_.load(std::memory_order_acquire); }
  uint64_t byte_size() const;

 private:
  static constexpr uint64_t kFirstChunk = 1024;
  static constexpr int kMaxChunks = 44;

  /// Open-addressing table of code + 1 (0 = empty slot).
  struct Index {
    explicit Index(size_t cap)
        : mask(cap - 1), slots(new std::atomic<int64_t>[cap]) {
      for (size_t i = 0; i < cap; ++i) slots[i].store(0, std::memory_order_relaxed);
    }
    size_t mask;
    std::unique_ptr<std::atomic<int64_t>[]> slots;
  };

  static size_t Hash(const std::string& s) { return std::hash<std::string>{}(s); }
  /// Empty dictionary with an index of `cap` slots (a power of two).
  void Reset(size_t cap);
  /// Append `s` as the next code (caller holds mu_ and knows `s` is new).
  int64_t AppendLocked(const std::string& s);
  /// Insert `code` into `idx` (caller holds mu_).
  void IndexLocked(Index* idx, int64_t code);

  mutable std::mutex mu_;  // serializes writers
  std::unique_ptr<std::string[]> chunks_[kMaxChunks];
  std::atomic<size_t> size_{0};
  std::atomic<bool> sorted_{true};
  std::atomic<Index*> index_{nullptr};
  /// The published index and every retired one (writers only).
  std::vector<std::unique_ptr<Index>> indexes_;
};

/// Value order of two packed values of one column. `unordered` is the
/// column's dictionary when its codes are out of string order (see
/// UnorderedDict), else null: packing preserves value order for every
/// other column. NULL packs lowest.
inline bool PackedLess(int64_t a, int64_t b, const StringDict* unordered) {
  if (unordered == nullptr || a == INT64_MIN || b == INT64_MIN) return a < b;
  return unordered->At(a) < unordered->At(b);
}

/// `d` when PackedLess must compare its strings (a trickle insert appended
/// a code out of string order), else null. Codes only fall out of order,
/// so a caller decides once, after the rows it sorts were read.
inline const StringDict* UnorderedDict(const StringDict* d) {
  return d != nullptr && !d->sorted() ? d : nullptr;
}

inline void StringDict::Reset(size_t cap) {
  for (auto& c : chunks_) c.reset();
  size_.store(0, std::memory_order_relaxed);
  sorted_.store(true, std::memory_order_relaxed);
  indexes_.clear();
  indexes_.push_back(std::make_unique<Index>(cap));
  index_.store(indexes_.back().get(), std::memory_order_release);
}

inline void StringDict::IndexLocked(Index* idx, int64_t code) {
  size_t i = Hash(At(code)) & idx->mask;
  while (idx->slots[i].load(std::memory_order_relaxed) != 0) {
    i = (i + 1) & idx->mask;
  }
  idx->slots[i].store(code + 1, std::memory_order_release);
}

inline int64_t StringDict::AppendLocked(const std::string& s) {
  const size_t code = size_.load(std::memory_order_relaxed);
  const uint64_t v = code / kFirstChunk + 1;
  const int k = std::bit_width(v) - 1;
  if (!chunks_[k]) chunks_[k].reset(new std::string[kFirstChunk << k]);
  chunks_[k][code - kFirstChunk * ((uint64_t{1} << k) - 1)] = s;
  if (code > 0 && s < At(static_cast<int64_t>(code) - 1)) {
    sorted_.store(false, std::memory_order_release);
  }
  Index* idx = index_.load(std::memory_order_relaxed);
  if ((code + 1) * 2 > idx->mask + 1) {
    // Grow: build the doubled index off to the side, then publish it.
    indexes_.push_back(std::make_unique<Index>((idx->mask + 1) * 2));
    idx = indexes_.back().get();
    for (size_t c = 0; c < code; ++c) IndexLocked(idx, static_cast<int64_t>(c));
    index_.store(idx, std::memory_order_release);
  }
  IndexLocked(idx, static_cast<int64_t>(code));
  size_.store(code + 1, std::memory_order_release);
  return static_cast<int64_t>(code);
}

inline int64_t StringDict::Lookup(const std::string& s) const {
  const Index* idx = index_.load(std::memory_order_acquire);
  for (size_t i = Hash(s) & idx->mask;; i = (i + 1) & idx->mask) {
    const int64_t e = idx->slots[i].load(std::memory_order_acquire);
    if (e == 0) return -1;
    if (At(e - 1) == s) return e - 1;
  }
}

inline void StringDict::BuildSorted(std::vector<std::string> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  Restore(std::move(values), true);
}

inline void StringDict::Restore(std::vector<std::string> strings, bool sorted) {
  std::lock_guard<std::mutex> g(mu_);
  Reset(std::bit_ceil(std::max<size_t>(1024, strings.size() * 2)));
  for (const auto& s : strings) AppendLocked(s);
  sorted_.store(sorted, std::memory_order_release);
}

inline int64_t StringDict::GetOrAdd(const std::string& s) {
  if (const int64_t c = Lookup(s); c >= 0) return c;
  std::lock_guard<std::mutex> g(mu_);
  if (const int64_t c = Lookup(s); c >= 0) return c;  // lost the race
  return AppendLocked(s);
}

inline int64_t StringDict::FloorCode(const std::string& s) const {
  int64_t lo = 0, hi = static_cast<int64_t>(size());  // first code > s
  while (lo < hi) {
    const int64_t mid = lo + (hi - lo) / 2;
    if (s < At(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo - 1;
}

inline uint64_t StringDict::byte_size() const {
  uint64_t b = 0;
  const size_t n = size();
  for (size_t c = 0; c < n; ++c) b += At(static_cast<int64_t>(c)).size() + 32;
  return b;
}

}  // namespace hd
