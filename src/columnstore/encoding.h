// Column segment encodings: bit-packing, dictionary, run-length.
//
// Mirrors the SQL Server columnstore compression pipeline described in
// Section 2 of the paper: values are dictionary-encoded when the domain is
// small, then either run-length encoded (when sorting produced long runs)
// or bit-packed. Each encoder reports its exact encoded byte size, which
// the advisor's size-estimation work (Section 4.4) is validated against.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace hd {

/// Number of bits needed to represent `v` (v >= 0); 0 for v == 0.
inline int BitsFor(uint64_t v) {
  return v == 0 ? 0 : 64 - std::countl_zero(v);
}

/// Word-packed selection bitmap over one scan batch: bit i set = row i
/// survives the predicate chain. Replaces the one-uint8-per-row match
/// vector — 64 rows per word, popcount instead of a byte-summing loop,
/// and O(words) all-pass / none proofs.
///
/// Contract: tail bits past size() are always zero, so Count()/AllSet()/
/// NoneSet() are plain word scans. Reset() keeps the backing store, so one
/// SelVector serves every batch of a scan without reallocating.
class SelVector {
 public:
  SelVector() = default;

  /// Size to `n` rows, all bits clear.
  void Reset(size_t n) {
    n_ = n;
    const size_t nw = NumWords(n);
    if (words_.size() < nw) words_.resize(nw);
    if (nw == 0) return;  // an empty vector's data() may be null
    std::memset(words_.data(), 0, nw * sizeof(uint64_t));
  }

  /// Size to `n` rows, all bits set (all-pass fast path).
  void ResetAllSet(size_t n) {
    n_ = n;
    const size_t nw = NumWords(n);
    if (words_.size() < nw) words_.resize(nw);
    if (nw == 0) return;
    std::memset(words_.data(), 0xff, nw * sizeof(uint64_t));
    words_[nw - 1] &= TailMask(n);
  }

  size_t size() const { return n_; }
  size_t num_words() const { return NumWords(n_); }
  uint64_t* words() { return words_.data(); }
  const uint64_t* words() const { return words_.data(); }

  bool Test(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  void Set(size_t i) { words_[i >> 6] |= 1ull << (i & 63); }
  void Clear(size_t i) { words_[i >> 6] &= ~(1ull << (i & 63)); }

  /// Set bits [b, e) — the RLE per-run writer.
  void SetRange(size_t b, size_t e);
  /// Clear bits [b, e).
  void ClearRange(size_t b, size_t e);

  /// Number of set bits (hardware popcount per word).
  uint64_t Count() const {
    uint64_t c = 0;
    const size_t nw = NumWords(n_);
    for (size_t w = 0; w < nw; ++w) c += std::popcount(words_[w]);
    return c;
  }

  bool AllSet() const {
    const size_t nw = NumWords(n_);
    if (nw == 0) return true;
    for (size_t w = 0; w + 1 < nw; ++w) {
      if (words_[w] != ~0ull) return false;
    }
    return words_[nw - 1] == TailMask(n_);
  }

  bool NoneSet() const {
    const size_t nw = NumWords(n_);
    for (size_t w = 0; w < nw; ++w) {
      if (words_[w] != 0) return false;
    }
    return true;
  }

  /// AND another selection of the same size into this one (conjunctive
  /// predicate chains).
  void And(const SelVector& o) {
    const size_t nw = NumWords(n_);
    for (size_t w = 0; w < nw; ++w) words_[w] &= o.words_[w];
  }

  /// Materialize set-bit positions into `out` (capacity >= size()).
  /// Returns the number of indices written. Skips empty words whole; a set
  /// bit costs one countr_zero + clear-lowest-bit.
  int ToIndices(uint32_t* out) const {
    int k = 0;
    const size_t nw = NumWords(n_);
    for (size_t w = 0; w < nw; ++w) {
      uint64_t bits = words_[w];
      const uint32_t base = static_cast<uint32_t>(w << 6);
      while (bits != 0) {
        out[k++] = base + static_cast<uint32_t>(std::countr_zero(bits));
        bits &= bits - 1;
      }
    }
    return k;
  }

 private:
  static size_t NumWords(size_t n) { return (n + 63) >> 6; }
  /// Mask of valid bits in the last word (n > 0).
  static uint64_t TailMask(size_t n) {
    const int tail = static_cast<int>(n & 63);
    return tail == 0 ? ~0ull : (1ull << tail) - 1;
  }

  std::vector<uint64_t> words_;
  size_t n_ = 0;
};

/// Fixed-width bit-packed array of unsigned values.
class BitPacked {
 public:
  BitPacked() = default;

  /// Pack `values` using width = BitsFor(max).
  void Pack(std::span<const uint64_t> values);

  /// Random access. Inline: called per-element inside scan and gather
  /// loops; the value mask is precomputed at Pack() time, so a call is two
  /// shifts, a conditional straddle fixup, and an AND.
  uint64_t Get(size_t i) const {
    if (bits_ == 0) return 0;
    const size_t bitpos = i * static_cast<size_t>(bits_);
    const size_t w = bitpos >> 6;
    const int off = static_cast<int>(bitpos & 63);
    uint64_t v = words_[w] >> off;
    if (off + bits_ > 64) {
      v |= words_[w + 1] << (64 - off);
    }
    return v & mask_;
  }

  size_t size() const { return n_; }
  int bit_width() const { return bits_; }
  /// Encoded size; the trailing pad word Pack() appends (decode-kernel
  /// bounds slack, not data) is excluded.
  size_t byte_size() const {
    return (words_.empty() ? 0 : words_.size() - 1) * 8 + sizeof(*this);
  }

  /// Unpack [start, start+count) into out. Width-specialized: bit widths
  /// that divide 64 unpack whole words with an unrolled, auto-vectorizable
  /// inner loop; other widths run a branch-free two-word gather.
  void Decode(size_t start, size_t count, uint64_t* out) const;

  /// Late materialization: unpack only rows start+sel[k] (sel ascending,
  /// relative to start) into out[k].
  void DecodeSelected(size_t start, std::span<const uint32_t> sel,
                      uint64_t* out) const;

  /// Evaluate `lo <= value <= hi` for elements [start, start+count)
  /// directly over the packed words — the encoded-domain predicate kernel
  /// (no value materialization). Match bits are packed into `sel` (bit i =
  /// element start+i). refine=false overwrites sel's words; refine=true
  /// ANDs into them. `sel` must be Reset/ResetAllSet to `count` rows.
  void EvalRange(size_t start, size_t count, uint64_t lo, uint64_t hi,
                 bool refine, SelVector* sel) const;

  /// Σ values[start, start+count) in the packed domain (no output buffer).
  uint64_t Sum(size_t start, size_t count) const;

  /// Sum + count of elements in [lo, hi] over [start, start+count) — the
  /// encoded-domain filtered-SUM kernel.
  void SumRange(size_t start, size_t count, uint64_t lo, uint64_t hi,
                uint64_t* sum, uint64_t* matches) const;

 private:
  std::vector<uint64_t> words_;
  size_t n_ = 0;
  int bits_ = 0;
  uint64_t mask_ = 0;  ///< (1 << bits_) - 1, precomputed at Pack()
};

/// One maximal run of identical values.
struct Run {
  uint32_t code;    // dictionary code (or raw offset value)
  uint32_t length;
};

/// Encoding selected for a segment.
enum class SegEncoding : uint8_t {
  kDictRle,    // dictionary + run-length on codes
  kDictPacked, // dictionary + bit-packed codes
  kRawPacked,  // (value - min) bit-packed, no dictionary
};

const char* SegEncodingName(SegEncoding e);

/// Count maximal runs of identical adjacent values.
uint64_t CountRuns(std::span<const int64_t> values);

}  // namespace hd
