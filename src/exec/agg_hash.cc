#include "exec/agg_hash.h"

namespace hd {

void AggHashTable::Init(size_t key_width) {
  kw_ = key_width == 0 ? 1 : key_width;
  ngroups_ = 0;
  probes_ = 0;
  constexpr size_t kInitSlots = 1024;  // power of two
  slots_.assign(kInitSlots, 0);
  mask_ = kInitSlots - 1;
  keys_.clear();
  hashes_.clear();
}

void AggHashTable::ComputeHashes(const int64_t* keys, size_t n,
                                 uint64_t* out) const {
  if (kw_ == 1) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = HashKey(keys + i, 1);
      __builtin_prefetch(&slots_[out[i] & mask_], 0, 1);
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    out[i] = HashKey(keys + i * kw_, kw_);
    __builtin_prefetch(&slots_[out[i] & mask_], 0, 1);
  }
}

size_t AggHashTable::InsertAt(size_t s, const int64_t* key, uint64_t hash,
                              size_t max_groups) {
  if (ngroups_ >= max_groups) return kNoSlot;
  keys_.insert(keys_.end(), key, key + kw_);
  hashes_.push_back(hash);
  slots_[s] = static_cast<uint32_t>(ngroups_) + 1;
  const size_t g = ngroups_++;
  // Keep the load factor under 0.7; growing after the append is safe (the
  // directory is rebuilt from the cached hashes).
  if (ngroups_ * 10 >= (mask_ + 1) * 7) Grow();
  return g;
}

void AggHashTable::Grow() {
  const size_t cap = (mask_ + 1) * 2;
  slots_.assign(cap, 0);
  mask_ = cap - 1;
  // Cached per-group hashes make rehashing slot-directory-only work.
  for (size_t g = 0; g < ngroups_; ++g) {
    size_t s = hashes_[g] & mask_;
    while (slots_[s] != 0) s = (s + 1) & mask_;
    slots_[s] = static_cast<uint32_t>(g) + 1;
  }
}

}  // namespace hd
