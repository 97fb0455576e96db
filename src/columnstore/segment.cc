#include "columnstore/segment.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

namespace hd {

namespace {

/// v - base as an unsigned offset (wraps instead of overflowing when the
/// segment's range spans more than INT64_MAX).
uint64_t Offset(int64_t v, int64_t base) {
  return static_cast<uint64_t>(v) - static_cast<uint64_t>(base);
}

/// base + off, the inverse of Offset, added in uint64_t for the same reason.
int64_t FromOffset(uint64_t off, int64_t base) {
  return static_cast<int64_t>(static_cast<uint64_t>(base) + off);
}

}  // namespace

ColumnSegment::~ColumnSegment() { Reset(); }

void ColumnSegment::Reset() {
  if (extent_ != kInvalidExtent && pool_ != nullptr) {
    pool_->Unregister(extent_);
    extent_ = kInvalidExtent;
  }
}

ColumnSegment::ColumnSegment(ColumnSegment&& o) noexcept { *this = std::move(o); }

ColumnSegment& ColumnSegment::operator=(ColumnSegment&& o) noexcept {
  if (this == &o) return *this;
  Reset();
  n_ = o.n_;
  min_ = o.min_;
  max_ = o.max_;
  num_runs_ = o.num_runs_;
  approx_ndv_ = o.approx_ndv_;
  enc_ = o.enc_;
  size_bytes_ = o.size_bytes_;
  extent_ = o.extent_;
  pool_ = o.pool_;
  dict_ = std::move(o.dict_);
  runs_ = std::move(o.runs_);
  packed_ = std::move(o.packed_);
  run_offsets_ = std::move(o.run_offsets_);
  o.extent_ = kInvalidExtent;
  o.pool_ = nullptr;
  return *this;
}

void ColumnSegment::Build(std::span<const int64_t> values, BufferPool* pool) {
  Reset();
  pool_ = pool;
  n_ = values.size();
  if (n_ == 0) {
    extent_ = pool->Register(64);
    size_bytes_ = 64;
    return;
  }
  min_ = max_ = values[0];
  for (int64_t v : values) {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  num_runs_ = CountRuns(values);

  // Distinct values, capped: dictionaries above 1M entries stop paying.
  constexpr size_t kMaxDict = 1u << 20;
  std::unordered_map<int64_t, uint32_t> code_of;
  code_of.reserve(std::min(n_, kMaxDict));
  bool dict_ok = true;
  for (int64_t v : values) {
    if (code_of.size() >= kMaxDict) {
      dict_ok = false;
      break;
    }
    code_of.emplace(v, 0);
  }

  const double avg_run = static_cast<double>(n_) / num_runs_;
  // Pick the cheaper representation: dictionary-based encodings pay the
  // dictionary (8 bytes/distinct), raw bit-packing pays BitsFor(max-min)
  // bits per row. High-cardinality wide-domain columns should stay raw.
  bool dict_wins = dict_ok;
  if (dict_ok) {
    const double dict_bits_per_row =
        BitsFor(code_of.size() > 0 ? code_of.size() - 1 : 0);
    const double raw_bits_per_row =
        BitsFor(Offset(max_, min_));
    const double dict_total =
        n_ * dict_bits_per_row / 8.0 + code_of.size() * 8.0;
    const double rle_total =
        avg_run >= 3.0 ? num_runs_ * sizeof(Run) + code_of.size() * 8.0
                       : dict_total;
    const double raw_total = n_ * raw_bits_per_row / 8.0;
    dict_wins = std::min(dict_total, rle_total) <= raw_total;
  }
  if (dict_wins) {
    dict_.reserve(code_of.size());
    for (auto& [v, c] : code_of) dict_.push_back(v);
    std::sort(dict_.begin(), dict_.end());
    for (size_t i = 0; i < dict_.size(); ++i) code_of[dict_[i]] = static_cast<uint32_t>(i);
    approx_ndv_ = dict_.size();
    if (avg_run >= 3.0) {
      enc_ = SegEncoding::kDictRle;
      runs_.reserve(num_runs_);
      run_offsets_.reserve(num_runs_ + 1);
      run_offsets_.push_back(0);
      size_t i = 0;
      while (i < n_) {
        size_t j = i + 1;
        while (j < n_ && values[j] == values[i]) ++j;
        runs_.push_back(Run{code_of[values[i]], static_cast<uint32_t>(j - i)});
        run_offsets_.push_back(static_cast<uint32_t>(j));
        i = j;
      }
      size_bytes_ = runs_.size() * sizeof(Run) + dict_.size() * 8 + 64;
    } else {
      enc_ = SegEncoding::kDictPacked;
      std::vector<uint64_t> codes(n_);
      for (size_t i = 0; i < n_; ++i) codes[i] = code_of[values[i]];
      packed_.Pack(codes);
      size_bytes_ = packed_.byte_size() + dict_.size() * 8 + 64;
    }
  } else {
    enc_ = SegEncoding::kRawPacked;
    approx_ndv_ = dict_ok ? code_of.size() : n_;
    std::vector<uint64_t> offs(n_);
    for (size_t i = 0; i < n_; ++i) {
      offs[i] = Offset(values[i], min_);
    }
    packed_.Pack(offs);
    size_bytes_ = packed_.byte_size() + 64;
  }
  extent_ = pool->Register(size_bytes_);
}

ColumnSegment::CodeRange ColumnSegment::TranslateRange(int64_t lo,
                                                       int64_t hi) const {
  CodeRange cr;
  if (n_ == 0 || hi < lo || hi < min_ || lo > max_) {
    cr.none = true;
    return cr;
  }
  if (lo <= min_ && max_ <= hi) {
    cr.all = true;
    return cr;
  }
  switch (enc_) {
    case SegEncoding::kDictRle:
    case SegEncoding::kDictPacked: {
      auto b = std::lower_bound(dict_.begin(), dict_.end(), lo);
      auto e = std::upper_bound(b, dict_.end(), hi);
      if (b == e) {
        // Range overlaps [min,max] but no stored value falls inside it —
        // the dictionary proves the whole segment empty for this predicate.
        cr.none = true;
        return cr;
      }
      cr.lo = static_cast<uint64_t>(b - dict_.begin());
      cr.hi = static_cast<uint64_t>(e - dict_.begin()) - 1;
      return cr;
    }
    case SegEncoding::kRawPacked: {
      cr.lo = lo <= min_ ? 0 : Offset(lo, min_);
      cr.hi = hi >= max_ ? Offset(max_, min_)
                         : Offset(hi, min_);
      return cr;
    }
  }
  cr.all = true;
  return cr;
}

uint64_t ColumnSegment::EvalRange(size_t start, size_t count,
                                  const CodeRange& cr, bool refine,
                                  SelVector* sel) const {
  assert(start + count <= n_);
  assert(sel->size() == count);
  if (cr.none) {
    sel->Reset(count);
    return 0;
  }
  if (cr.all) {
    if (!refine) sel->ResetAllSet(count);
    return 0;
  }
  switch (enc_) {
    case SegEncoding::kDictRle: {
      size_t r = std::upper_bound(run_offsets_.begin(), run_offsets_.end(),
                                  static_cast<uint32_t>(start)) -
                 run_offsets_.begin() - 1;
      uint64_t runs = 0;
      size_t produced = 0;
      size_t pos = start;
      while (produced < count) {
        const Run& run = runs_[r];
        const size_t run_end = run_offsets_[r] + run.length;
        const size_t take = std::min(count - produced, run_end - pos);
        const bool match = run.code >= cr.lo && run.code <= cr.hi;
        ++runs;
        if (match) {
          if (!refine) sel->SetRange(produced, produced + take);
        } else {
          sel->ClearRange(produced, produced + take);
        }
        produced += take;
        pos += take;
        if (pos >= run_end) ++r;
      }
      return runs;
    }
    case SegEncoding::kDictPacked:
    case SegEncoding::kRawPacked:
      packed_.EvalRange(start, count, cr.lo, cr.hi, refine, sel);
      return 0;
  }
  return 0;
}

void ColumnSegment::Decode(size_t start, size_t count, int64_t* out) const {
  assert(start + count <= n_);
  switch (enc_) {
    case SegEncoding::kDictRle: {
      // Locate the run containing `start` by binary search on offsets.
      size_t r = std::upper_bound(run_offsets_.begin(), run_offsets_.end(),
                                  static_cast<uint32_t>(start)) -
                 run_offsets_.begin() - 1;
      size_t produced = 0;
      size_t pos = start;
      while (produced < count) {
        const Run& run = runs_[r];
        const size_t run_start = run_offsets_[r];
        const size_t run_end = run_start + run.length;
        const size_t take = std::min(count - produced, run_end - pos);
        const int64_t v = dict_[run.code];
        for (size_t i = 0; i < take; ++i) out[produced + i] = v;
        produced += take;
        pos += take;
        if (pos >= run_end) ++r;
      }
      break;
    }
    case SegEncoding::kDictPacked: {
      for (size_t i = 0; i < count; ++i) {
        out[i] = dict_[packed_.Get(start + i)];
      }
      break;
    }
    case SegEncoding::kRawPacked: {
      for (size_t i = 0; i < count; ++i) {
        out[i] = FromOffset(packed_.Get(start + i), min_);
      }
      break;
    }
  }
}

void ColumnSegment::DecodeSelected(size_t start, std::span<const uint32_t> sel,
                                   int64_t* out) const {
  if (sel.empty()) return;
  assert(start + sel.back() < n_);
  switch (enc_) {
    case SegEncoding::kDictRle: {
      // One forward walk over the runs covering the selected positions.
      size_t r = std::upper_bound(run_offsets_.begin(), run_offsets_.end(),
                                  static_cast<uint32_t>(start + sel[0])) -
                 run_offsets_.begin() - 1;
      size_t run_end = run_offsets_[r] + runs_[r].length;
      for (size_t k = 0; k < sel.size(); ++k) {
        const size_t pos = start + sel[k];
        while (pos >= run_end) {
          ++r;
          run_end = run_offsets_[r] + runs_[r].length;
        }
        out[k] = dict_[runs_[r].code];
      }
      break;
    }
    case SegEncoding::kDictPacked: {
      for (size_t k = 0; k < sel.size(); ++k) {
        out[k] = dict_[packed_.Get(start + sel[k])];
      }
      break;
    }
    case SegEncoding::kRawPacked: {
      for (size_t k = 0; k < sel.size(); ++k) {
        out[k] = FromOffset(packed_.Get(start + sel[k]), min_);
      }
      break;
    }
  }
}

int64_t ColumnSegment::SumAll() const {
  int64_t acc = 0;
  switch (enc_) {
    case SegEncoding::kDictRle:
      for (const Run& run : runs_) {
        acc += dict_[run.code] * static_cast<int64_t>(run.length);
      }
      break;
    case SegEncoding::kDictPacked:
      for (size_t i = 0; i < n_; ++i) acc += dict_[packed_.Get(i)];
      break;
    case SegEncoding::kRawPacked:
      acc = min_ * static_cast<int64_t>(n_) +
            static_cast<int64_t>(packed_.Sum(0, n_));
      break;
  }
  return acc;
}

uint64_t ColumnSegment::SumWhere(const CodeRange& cr, int64_t* sum,
                                 uint64_t* matches) const {
  int64_t acc = 0;
  uint64_t cnt = 0;
  uint64_t runs = 0;
  switch (enc_) {
    case SegEncoding::kDictRle:
      for (const Run& run : runs_) {
        ++runs;
        if (run.code >= cr.lo && run.code <= cr.hi) {
          acc += dict_[run.code] * static_cast<int64_t>(run.length);
          cnt += run.length;
        }
      }
      break;
    case SegEncoding::kDictPacked:
      for (size_t i = 0; i < n_; ++i) {
        const uint64_t code = packed_.Get(i);
        const bool match = code >= cr.lo && code <= cr.hi;
        acc += dict_[code] * static_cast<int64_t>(match);
        cnt += match;
      }
      break;
    case SegEncoding::kRawPacked: {
      uint64_t offsum = 0;
      packed_.SumRange(0, n_, cr.lo, cr.hi, &offsum, &cnt);
      acc = min_ * static_cast<int64_t>(cnt) + static_cast<int64_t>(offsum);
      break;
    }
  }
  *sum = acc;
  *matches = cnt;
  return runs;
}

bool ColumnSegment::MinMaxWhere(const CodeRange& cr, int64_t* mn,
                                int64_t* mx) const {
  switch (enc_) {
    case SegEncoding::kDictRle:
    case SegEncoding::kDictPacked:
      // Every dictionary code occurs in the segment, so the sorted
      // dictionary answers directly.
      if (cr.lo >= dict_.size() || cr.hi < cr.lo) return false;
      *mn = dict_[cr.lo];
      *mx = dict_[std::min<uint64_t>(cr.hi, dict_.size() - 1)];
      return true;
    case SegEncoding::kRawPacked: {
      // Offsets in [lo, hi] are not guaranteed present: scan for the
      // extremes in the packed domain.
      uint64_t lo_seen = UINT64_MAX;
      uint64_t hi_seen = 0;
      bool any = false;
      for (size_t i = 0; i < n_; ++i) {
        const uint64_t off = packed_.Get(i);
        if (off < cr.lo || off > cr.hi) continue;
        lo_seen = std::min(lo_seen, off);
        hi_seen = std::max(hi_seen, off);
        any = true;
      }
      if (!any) return false;
      *mn = FromOffset(lo_seen, min_);
      *mx = FromOffset(hi_seen, min_);
      return true;
    }
  }
  return false;
}

}  // namespace hd
