// Flat open-addressing group table for hash aggregation.
//
// Maps a group key (key_width int64 words) to a dense group index, in
// insertion order; the aggregate states live outside the table, in the
// batch aggregate sink's per-aggregate arrays indexed by that group
// (exec/agg_sink.h). The slot directory is a power-of-two linear-probe
// table of 32-bit group references. One hash per probe: the hash is
// computed once per input row, drives FindOrInsert, selects the
// grace-spill partition on overflow, and is cached per group so growth
// and the end-of-query worker merge never rehash a key.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

namespace hd {

class AggHashTable {
 public:
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  /// Prepare for keys of `key_width` int64s. Clears any previous contents.
  void Init(size_t key_width);

  size_t size() const { return ngroups_; }

  /// One hash per row drives the probe, the spill partition and (cached
  /// per group) the worker merge — computing it once is the whole point.
  static uint64_t HashKey(const int64_t* key, size_t kw) {
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < kw; ++i) {
      h ^= static_cast<uint64_t>(key[i]);
      h *= 0x9e3779b97f4a7c15ull;
      h ^= h >> 29;
    }
    return h;
  }

  /// Hash `n` keys laid out key_width-strided in `keys`. Also prefetches
  /// each hash's slot word so the probe pass that follows finds the slot
  /// directory cache-resident.
  void ComputeHashes(const int64_t* keys, size_t n, uint64_t* out) const;

  /// One probe chain: return the group index for `key` (hash precomputed),
  /// inserting the group when absent. Returns kNoSlot — with nothing
  /// inserted — when inserting would exceed `max_groups`
  /// (the grace-spill signal; the caller routes the row to partition
  /// hash % kSpillParts). The probe loop is inline (it runs once per input
  /// row); only the insert path leaves the header.
  size_t FindOrInsert(const int64_t* key, uint64_t hash, size_t max_groups) {
    ++probes_;
    size_t s = hash & mask_;
    if (kw_ == 1) {
      // Single-word keys (the common group-by): the key compare is one
      // word, so checking the cached hash first would only add a load.
      const int64_t k0 = key[0];
      while (true) {
        const uint32_t ref = slots_[s];
        if (ref == 0) return InsertAt(s, key, hash, max_groups);
        const size_t g = ref - 1;
        if (keys_[g * kw_] == k0) return g;
        s = (s + 1) & mask_;
      }
    }
    while (true) {
      const uint32_t ref = slots_[s];
      if (ref == 0) return InsertAt(s, key, hash, max_groups);
      const size_t g = ref - 1;
      if (hashes_[g] == hash &&
          std::memcmp(keys_.data() + g * kw_, key,
                      kw_ * sizeof(int64_t)) == 0) {
        return g;
      }
      s = (s + 1) & mask_;
    }
  }

  const int64_t* KeyAt(size_t g) const { return keys_.data() + g * kw_; }
  uint64_t HashAt(size_t g) const { return hashes_[g]; }

  /// Probe chains walked (one per FindOrInsert call) — the hash_probes
  /// observability counter.
  uint64_t probes() const { return probes_; }
  uint64_t memory_bytes() const {
    return slots_.size() * sizeof(uint32_t) +
           keys_.size() * sizeof(int64_t) +
           hashes_.size() * sizeof(uint64_t);
  }

 private:
  /// Insert slow path: append the group at empty slot `s` (or refuse with
  /// kNoSlot at the max_groups cap), growing the directory afterwards if
  /// the load factor cap (0.7) was crossed.
  size_t InsertAt(size_t s, const int64_t* key, uint64_t hash,
                  size_t max_groups);
  void Grow();

  size_t kw_ = 1;
  size_t ngroups_ = 0;
  size_t mask_ = 0;
  std::vector<uint32_t> slots_;   ///< group index + 1; 0 = empty
  std::vector<int64_t> keys_;     ///< ngroups rows of key words
  std::vector<uint64_t> hashes_;  ///< one cached hash per group
  uint64_t probes_ = 0;
};

}  // namespace hd
