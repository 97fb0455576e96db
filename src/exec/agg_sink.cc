#include "exec/agg_sink.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <type_traits>

#include "catalog/table.h"
#include "common/packed.h"
#include "storage/disk_model.h"

namespace hd {

namespace {

constexpr size_t kStageRows = 1024;
constexpr size_t kUnlimited = static_cast<size_t>(-1);

bool IsMin(AggSpec::Fn fn) { return fn == AggSpec::Fn::kMin; }
bool IsMax(AggSpec::Fn fn) { return fn == AggSpec::Fn::kMax; }

/// Initial state value: the identity of the aggregate's fold.
template <typename T>
T Identity(AggSpec::Fn fn) {
  if (IsMin(fn)) return std::numeric_limits<T>::max();
  if (IsMax(fn)) {
    return std::is_floating_point_v<T> ? -std::numeric_limits<T>::max()
                                       : std::numeric_limits<T>::min();
  }
  return T{0};
}

/// v[slot[i]] (op)= x[i]: SUM/AVG add, MIN/MAX keep the extreme.
template <typename T>
void FoldSlots(AggSpec::Fn fn, const T* x, const uint32_t* slot, size_t n,
               T* v) {
  if (IsMin(fn)) {
    for (size_t i = 0; i < n; ++i) v[slot[i]] = std::min(v[slot[i]], x[i]);
  } else if (IsMax(fn)) {
    for (size_t i = 0; i < n; ++i) v[slot[i]] = std::max(v[slot[i]], x[i]);
  } else {
    for (size_t i = 0; i < n; ++i) v[slot[i]] += x[i];
  }
}

/// *v (op)= x[0..n), accumulated in a register.
template <typename T>
void FoldOne(AggSpec::Fn fn, const T* x, size_t n, T* v) {
  T acc = *v;
  if (IsMin(fn)) {
    for (size_t i = 0; i < n; ++i) acc = std::min(acc, x[i]);
  } else if (IsMax(fn)) {
    for (size_t i = 0; i < n; ++i) acc = std::max(acc, x[i]);
  } else {
    for (size_t i = 0; i < n; ++i) acc += x[i];
  }
  *v = acc;
}

template <typename T>
T FoldPair(AggSpec::Fn fn, T a, T b) {
  if (IsMin(fn)) return std::min(a, b);
  if (IsMax(fn)) return std::max(a, b);
  return a + b;
}

}  // namespace

AggSink::AggSink(Options o) : o_(std::move(o)) {
  const int nw = std::max(1, o_.nworkers);
  const uint64_t share = o_.grant > 0 ? o_.grant / nw : 0;
  size_t value_arrays = 0;
  for (const SinkAgg& a : o_.aggs) value_arrays += a.kind != SinkAgg::Kind::kCount;
  const uint64_t slot_bytes = 8 * (1 + value_arrays);
  if (o_.key_width == 0) {
    mode_ = Mode::kGlobal;
  } else if (o_.sorted_input && nw == 1) {
    mode_ = Mode::kSorted;
  } else if (o_.key_width == 1 && o_.key_range_known &&
             o_.cols[0].type != ValueType::kDouble && o_.key_lo <= o_.key_hi &&
             static_cast<uint64_t>(o_.key_hi) - static_cast<uint64_t>(o_.key_lo) <
                 kDenseMaxSpan) {
    const uint64_t span =
        static_cast<uint64_t>(o_.key_hi) - static_cast<uint64_t>(o_.key_lo) + 1;
    // Dense bytes count against the grant like hash groups do.
    if (share == 0 || (span + 1) * slot_bytes <= share) mode_ = Mode::kDense;
  }
  if (mode_ == Mode::kHash && share > 0) {
    const uint64_t group_bytes = 48 + o_.key_width * 8 + slot_bytes;
    max_groups_ = static_cast<size_t>(share / group_bytes);
  }
  key_order_ = o_.order_keys;
  for (size_t k = 0; k < o_.key_width; ++k) {
    if (std::find(key_order_.begin(), key_order_.end(), static_cast<int>(k)) ==
        key_order_.end()) {
      key_order_.push_back(static_cast<int>(k));
    }
  }
  parts_.resize(nw);
  for (Part& p : parts_) InitPart(&p, mode_ == Mode::kHash);
}

void AggSink::InitPart(Part* p, bool hash) const {
  p->st.packed.resize(o_.aggs.size());
  p->st.num.resize(o_.aggs.size());
  size_t slots = 2;  // slot 0 absorbs spilled rows; global uses slot 1
  if (mode_ == Mode::kDense) {
    slots = static_cast<size_t>(static_cast<uint64_t>(o_.key_hi) -
                                static_cast<uint64_t>(o_.key_lo)) +
            2;
  }
  if (hash || mode_ == Mode::kSorted) slots = 1;
  if (hash) {
    p->table.Init(o_.key_width);
    p->spill.assign(kSpillParts,
                    std::vector<std::vector<int64_t>>(o_.cols.size()));
  }
  Resize(&p->st, slots);
}

void AggSink::Resize(States* st, size_t slots) const {
  if (st->rows.size() >= slots) return;
  // Grow geometrically: hash groups arrive a batch at a time.
  slots = std::max(slots, st->rows.size() * 3 / 2);
  st->rows.resize(slots, 0);
  for (size_t ai = 0; ai < o_.aggs.size(); ++ai) {
    const SinkAgg& a = o_.aggs[ai];
    if (a.kind == SinkAgg::Kind::kPacked) {
      st->packed[ai].resize(slots, Identity<int64_t>(a.fn));
    } else if (a.kind == SinkAgg::Kind::kNumeric) {
      st->num[ai].resize(slots, Identity<double>(a.fn));
    }
  }
}

void AggSink::Eval(const Expr& e, size_t n, const int64_t* const* cols,
                   Part* p, double* out, size_t depth) {
  switch (e.kind) {
    case Expr::Kind::kConst:
      std::fill(out, out + n, e.constant);
      return;
    case Expr::Kind::kCol: {
      const int64_t* c = cols[e.col.col];
      if (o_.cols[e.col.col].type == ValueType::kDouble) {
        for (size_t i = 0; i < n; ++i) out[i] = UnpackDouble(c[i]);
      } else {
        for (size_t i = 0; i < n; ++i) out[i] = static_cast<double>(c[i]);
      }
      return;
    }
    case Expr::Kind::kAdd:
    case Expr::Kind::kSub:
    case Expr::Kind::kMul: {
      Eval(e.children[0], n, cols, p, out, depth + 1);
      if (p->ebuf.size() <= depth) p->ebuf.resize(depth + 1);
      std::vector<double>& rb = p->ebuf[depth];
      if (rb.size() < n) rb.resize(n);
      double* r = rb.data();
      Eval(e.children[1], n, cols, p, r, depth + 1);
      if (e.kind == Expr::Kind::kAdd) {
        for (size_t i = 0; i < n; ++i) out[i] += r[i];
      } else if (e.kind == Expr::Kind::kSub) {
        for (size_t i = 0; i < n; ++i) out[i] -= r[i];
      } else {
        for (size_t i = 0; i < n; ++i) out[i] *= r[i];
      }
      return;
    }
  }
}

bool AggSink::Update(int w, size_t n, const int64_t* const* cols) {
  UpdatePart(&parts_[w], n, cols, max_groups_);
  return true;
}

void AggSink::UpdatePart(Part* p, size_t n, const int64_t* const* cols,
                         size_t max_groups) {
  const bool global = mode_ == Mode::kGlobal;
  p->rows_in += n;
  p->slot.resize(n);
  uint32_t* slot = p->slot.data();
  if (mode_ == Mode::kDense) {
    // Unsigned offsets: lo may be the NULL sentinel (INT64_MIN).
    const int64_t* k = cols[0];
    const uint64_t base = static_cast<uint64_t>(o_.key_lo) - 1;
    for (size_t i = 0; i < n; ++i) {
      slot[i] = static_cast<uint32_t>(static_cast<uint64_t>(k[i]) - base);
    }
  } else if (mode_ == Mode::kSorted) {
    SortedSlots(p, n, cols);
  } else if (!global) {
    const size_t kw = o_.key_width;
    const int64_t* keys = cols[0];
    if (kw > 1) {
      p->keys.resize(n * kw);
      for (size_t k = 0; k < kw; ++k) {
        for (size_t i = 0; i < n; ++i) p->keys[i * kw + k] = cols[k][i];
      }
      keys = p->keys.data();
    }
    p->hash.resize(n);
    p->table.ComputeHashes(keys, n, p->hash.data());
    for (size_t i = 0; i < n; ++i) {
      const size_t g = p->table.FindOrInsert(keys + i * kw, p->hash[i],
                                             max_groups);
      if (g != AggHashTable::kNoSlot) {
        slot[i] = static_cast<uint32_t>(g + 1);
        continue;
      }
      // Grace spill: the row waits in its hash partition for phase 2.
      slot[i] = 0;
      auto& part = p->spill[p->hash[i] % kSpillParts];
      for (size_t c = 0; c < o_.cols.size(); ++c) part[c].push_back(cols[c][i]);
      ++p->spill_rows;
    }
    Resize(&p->st, p->table.size() + 1);
  }
  States& st = p->st;
  if (global) {
    st.rows[1] += n;
  } else {
    for (size_t i = 0; i < n; ++i) ++st.rows[slot[i]];
  }
  for (size_t ai = 0; ai < o_.aggs.size(); ++ai) {
    const SinkAgg& a = o_.aggs[ai];
    if (a.kind == SinkAgg::Kind::kPacked) {
      int64_t* v = st.packed[ai].data();
      if (global) {
        FoldOne(a.fn, cols[a.col], n, v + 1);
      } else {
        FoldSlots(a.fn, cols[a.col], slot, n, v);
      }
    } else if (a.kind == SinkAgg::Kind::kNumeric) {
      if (p->ebuf.empty()) p->ebuf.resize(1);
      // ebuf[0] holds the result; nested operands use ebuf[1..].
      std::vector<double>& xb = p->ebuf[0];
      if (xb.size() < n) xb.resize(n);
      Eval(a.expr, n, cols, p, xb.data(), 1);
      double* v = st.num[ai].data();
      if (global) {
        FoldOne(a.fn, p->ebuf[0].data(), n, v + 1);
      } else {
        FoldSlots(a.fn, p->ebuf[0].data(), slot, n, v);
      }
    }
  }
}

void AggSink::SortedSlots(Part* p, size_t n, const int64_t* const* cols) {
  Trim(p);
  const size_t kw = o_.key_width;
  uint32_t* slot = p->slot.data();
  size_t g = p->gkeys.size() / kw;  // groups held; the last one is running
  for (size_t i = 0; i < n; ++i) {
    bool same = g > 0;
    for (size_t k = 0; same && k < kw; ++k) {
      same = cols[k][i] == p->gkeys[(g - 1) * kw + k];
    }
    if (!same) {
      for (size_t k = 0; k < kw; ++k) p->gkeys.push_back(cols[k][i]);
      ++g;
    }
    slot[i] = static_cast<uint32_t>(g);
  }
  Resize(&p->st, g + 1);
  p->peak_slots = std::max(p->peak_slots, p->st.rows.size());
}

size_t AggSink::Keep() const {
  size_t keep = QueryResult::kMaxMaterializedRows;
  if (o_.limit >= 0) keep = std::min(keep, static_cast<size_t>(o_.limit));
  return keep;
}

void AggSink::Trim(Part* p) {
  const size_t kw = o_.key_width;
  const size_t held = p->gkeys.size() / kw;
  if (held == 0) return;
  // The running group (the last one) may still grow: it is never cut.
  const size_t closed = held - 1;
  const size_t keep = Keep();
  if (closed <= 2 * keep) return;
  std::vector<uint32_t> order(closed);
  std::iota(order.begin(), order.end(), 0u);
  if (Ordered()) {
    const std::vector<const StringDict*> dicts = KeyDicts();
    std::partial_sort(order.begin(), order.begin() + keep, order.end(),
                      [&](uint32_t a, uint32_t b) {
                        return KeyLess(&p->gkeys[a * kw], &p->gkeys[b * kw],
                                       dicts.data());
                      });
  }
  order.resize(keep);
  order.push_back(static_cast<uint32_t>(closed));
  States st;
  st.packed.resize(o_.aggs.size());
  st.num.resize(o_.aggs.size());
  Resize(&st, order.size() + 1);
  std::vector<int64_t> keys;
  keys.reserve(order.size() * kw);
  for (size_t j = 0; j < order.size(); ++j) {
    // Folding into identity states copies the group.
    Combine(&st, j + 1, p->st, order[j] + 1);
    const int64_t* k = &p->gkeys[order[j] * kw];
    keys.insert(keys.end(), k, k + kw);
  }
  p->trimmed += closed - keep;
  p->st = std::move(st);
  p->gkeys = std::move(keys);
}

std::vector<const StringDict*> AggSink::KeyDicts() const {
  std::vector<const StringDict*> d(o_.key_width);
  for (size_t k = 0; k < o_.key_width; ++k) {
    d[k] = UnorderedDict(o_.cols[k].table->dict(o_.cols[k].col));
  }
  return d;
}

bool AggSink::KeyLess(const int64_t* a, const int64_t* b,
                      const StringDict* const* dicts) const {
  for (int k : key_order_) {
    if (a[k] != b[k]) return PackedLess(a[k], b[k], dicts[k]);
  }
  return false;
}

bool AggSink::AddRow(int w, const int64_t* vals) {
  Part& p = parts_[w];
  const size_t k = o_.cols.size();
  if (p.stage.empty()) p.stage.resize(std::max<size_t>(1, k) * kStageRows);
  for (size_t c = 0; c < k; ++c) p.stage[c * kStageRows + p.staged] = vals[c];
  if (++p.staged == kStageRows) Flush(&p);
  return true;
}

void AggSink::Flush(Part* p) {
  if (p->staged == 0) return;
  p->ptrs.resize(o_.cols.size());
  for (size_t c = 0; c < o_.cols.size(); ++c) {
    p->ptrs[c] = p->stage.data() + c * kStageRows;
  }
  const size_t n = p->staged;
  p->staged = 0;
  UpdatePart(p, n, p->ptrs.data(), max_groups_);
}

void AggSink::AddPushed(int w, uint64_t rows, const PushAggState* acc) {
  States& st = parts_[w].st;
  st.rows[1] += rows;
  for (size_t ai = 0; ai < o_.aggs.size(); ++ai) {
    const SinkAgg& a = o_.aggs[ai];
    if (a.kind != SinkAgg::Kind::kPacked) continue;
    int64_t& v = st.packed[ai][1];
    if (IsMin(a.fn) || IsMax(a.fn)) {
      if (acc[ai].has) v = FoldPair(a.fn, v, acc[ai].minmax);
    } else {
      v += acc[ai].sum;
    }
  }
}

uint64_t AggSink::rows_in() const {
  uint64_t n = 0;
  for (const Part& p : parts_) n += p.rows_in;
  return n;
}

void AggSink::Combine(States* d, size_t ds, const States& s,
                      size_t ss) const {
  d->rows[ds] += s.rows[ss];
  for (size_t ai = 0; ai < o_.aggs.size(); ++ai) {
    const SinkAgg& a = o_.aggs[ai];
    if (a.kind == SinkAgg::Kind::kPacked) {
      d->packed[ai][ds] = FoldPair(a.fn, d->packed[ai][ds], s.packed[ai][ss]);
    } else if (a.kind == SinkAgg::Kind::kNumeric) {
      d->num[ai][ds] = FoldPair(a.fn, d->num[ai][ds], s.num[ai][ss]);
    }
  }
}

void AggSink::MergeHash(Part* into, const Part& from) const {
  const AggHashTable& t = from.table;
  for (size_t g = 0; g < t.size(); ++g) {
    // Cached hashes: the merge re-probes without rehashing any key.
    const size_t dst = into->table.FindOrInsert(t.KeyAt(g), t.HashAt(g),
                                                kUnlimited);
    Resize(&into->st, dst + 2);
    Combine(&into->st, dst + 1, from.st, g + 1);
  }
}

Status AggSink::Finish(QueryResult* res, QueryMetrics* fm) {
  uint64_t spill_rows = 0;
  for (Part& p : parts_) {
    Flush(&p);
    spill_rows += p.spill_rows;
  }
  if (spill_rows > 0) {
    // Grace spill: the partitions go to disk and come back for phase 2.
    const uint64_t bytes = spill_rows * o_.cols.size() * 8;
    res->spilled = true;
    fm->spill_bytes += bytes;
    HD_RETURN_IF_ERROR(o_.disk->Write(bytes, IoPattern::kSequential, fm));
    HD_RETURN_IF_ERROR(o_.disk->Read(bytes, IoPattern::kSequential, fm));
  }
  Part& out = parts_[0];
  uint64_t probes = 0;
  uint64_t dense_rows = 0;
  if (mode_ == Mode::kHash) {
    for (size_t w = 1; w < parts_.size(); ++w) MergeHash(&out, parts_[w]);
    // Grace-hash phase 2: each partition aggregates into its own table,
    // which then merges like a worker's.
    for (int part = 0; part < kSpillParts; ++part) {
      Part pp;
      InitPart(&pp, true);
      std::vector<const int64_t*> cols(o_.cols.size());
      for (const Part& p : parts_) {
        const auto& buf = p.spill[part];
        const size_t n = buf.empty() ? 0 : buf[0].size();
        if (n == 0) continue;
        for (size_t c = 0; c < cols.size(); ++c) cols[c] = buf[c].data();
        UpdatePart(&pp, n, cols.data(), kUnlimited);
      }
      MergeHash(&out, pp);
      probes += pp.table.probes();
    }
    for (const Part& p : parts_) probes += p.table.probes();
  } else {
    const size_t slots = out.st.rows.size();
    for (size_t w = 1; w < parts_.size(); ++w) {
      for (size_t s = 1; s < slots; ++s) Combine(&out.st, s, parts_[w].st, s);
    }
    if (mode_ == Mode::kDense) {
      for (const Part& p : parts_) dense_rows += p.rows_in;
    }
  }

  // The groups to emit: key words and state slot, dense slots only when
  // touched.
  const size_t kw = o_.key_width;
  std::vector<int64_t> keys;
  std::vector<uint32_t> slots;
  if (mode_ == Mode::kGlobal) {
    slots.push_back(1);
  } else if (mode_ == Mode::kDense) {
    for (size_t s = 1; s < out.st.rows.size(); ++s) {
      if (out.st.rows[s] == 0) continue;
      keys.push_back(static_cast<int64_t>(static_cast<uint64_t>(o_.key_lo) +
                                          (s - 1)));
      slots.push_back(static_cast<uint32_t>(s));
    }
  } else {
    // Hash groups, or sorted mode's held groups: slot = g + 1.
    const size_t g = mode_ == Mode::kSorted ? out.gkeys.size() / kw
                                            : out.table.size();
    if (mode_ == Mode::kSorted) {
      keys = out.gkeys;
    } else {
      keys.assign(out.table.KeyAt(0), out.table.KeyAt(0) + g * kw);
    }
    slots.resize(g);
    std::iota(slots.begin(), slots.end(), 1u);
  }
  const size_t ngroups = slots.size();
  // Sorted mode cut groups the output could not return; they still count.
  const uint64_t total = ngroups + out.trimmed;
  const uint64_t nout =
      o_.limit >= 0 ? std::min<uint64_t>(total, o_.limit) : total;
  const size_t nmat = static_cast<size_t>(
      std::min<uint64_t>(nout, QueryResult::kMaxMaterializedRows));
  std::vector<uint32_t> order(ngroups);
  std::iota(order.begin(), order.end(), 0u);
  if (kw > 0 && Ordered()) {
    const std::vector<const StringDict*> dicts = KeyDicts();
    auto less = [&](uint32_t a, uint32_t b) {
      return KeyLess(&keys[a * kw], &keys[b * kw], dicts.data());
    };
    if (nmat < ngroups) {
      std::partial_sort(order.begin(), order.begin() + nmat, order.end(), less);
    } else {
      std::sort(order.begin(), order.end(), less);
    }
  }

  const States& st = out.st;
  res->row_count = nout;
  res->rows.reserve(nmat);
  for (size_t r = 0; r < nmat; ++r) {
    const size_t gi = order[r];
    const size_t s = slots[gi];
    Row row;
    row.reserve(kw + o_.aggs.size());
    for (size_t k = 0; k < kw; ++k) {
      const SinkColumn& c = o_.cols[k];
      row.push_back(c.table->UnpackValue(c.col, keys[gi * kw + k]));
    }
    const uint64_t n = st.rows[s];
    for (size_t ai = 0; ai < o_.aggs.size(); ++ai) {
      const SinkAgg& a = o_.aggs[ai];
      switch (a.fn) {
        case AggSpec::Fn::kCount:
          row.push_back(Value::Int64(static_cast<int64_t>(n)));
          break;
        case AggSpec::Fn::kSum:
          row.push_back(a.kind == SinkAgg::Kind::kPacked
                            ? Value::Int64(st.packed[ai][s])
                            : Value::Double(st.num[ai][s]));
          break;
        case AggSpec::Fn::kAvg: {
          const double total = a.kind == SinkAgg::Kind::kPacked
                                   ? static_cast<double>(st.packed[ai][s])
                                   : st.num[ai][s];
          row.push_back(Value::Double(n > 0 ? total / n : 0.0));
          break;
        }
        case AggSpec::Fn::kMin:
        case AggSpec::Fn::kMax:
          if (n == 0) {
            row.push_back(Value::Null());
          } else if (a.kind == SinkAgg::Kind::kPacked) {
            const SinkColumn& c = o_.cols[a.col];
            row.push_back(c.table->UnpackValue(c.col, st.packed[ai][s]));
          } else {
            row.push_back(Value::Double(st.num[ai][s]));
          }
          break;
      }
    }
    res->rows.push_back(std::move(row));
  }

  uint64_t state_bytes = 0;
  uint64_t slot_words = 1;
  for (const SinkAgg& a : o_.aggs) slot_words += a.kind != SinkAgg::Kind::kCount;
  if (mode_ == Mode::kSorted) slot_words += kw;  // the held group keys
  for (const Part& p : parts_) {
    const size_t slots_held = std::max(p.peak_slots, p.st.rows.size());
    state_bytes += slots_held * slot_words * 8 + p.table.memory_bytes();
  }
  fm->hash_probes += probes;
  fm->agg_dense_rows += dense_rows;
  fm->UpdatePeakMemory(state_bytes);
  return Status::OK();
}

}  // namespace hd
