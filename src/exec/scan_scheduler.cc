#include "exec/scan_scheduler.h"

#include <algorithm>

#include "common/failpoint.h"
#include "common/telemetry.h"

namespace hd {

// One ring entry: the dense decoded image of row group (seq % ngroups).
// Slot `s` always lives at ring[s % ring_slots]; it is recycled only once
// every consumer counted in `pending` has consumed (or detached), so a
// consumer may read `data` outside the pass lock while it still owes its
// decrement.
struct ScanScheduler::Slot {
  enum class State { kFree, kDecoding, kReady };
  State state = State::kFree;
  uint64_t seq = 0;
  int pending = 0;
  const Consumer* decoder = nullptr;
  DecodedGroup data;
};

struct ScanScheduler::Consumer {
  uint64_t begin = 0;  // pass position at attach
  uint64_t end = 0;    // begin + ngroups (full wrap)
  uint64_t next = 0;   // next seq to consume
  std::vector<int> cols;        // columns this consumer's batches emit
  /// cols ∪ predicate columns: what this consumer wants in the decoded
  /// image. ScanDecodedGroup evaluates predicates only in the value
  /// domain (a branchless compare over contiguous int64s), so every
  /// predicate column must be in the image.
  std::vector<int> image_cols;
  bool need_locators = false;
};

struct ScanScheduler::Pass {
  std::mutex mu;
  std::condition_variable cv;
  /// The starting consumer's view: every decode and every consumer's
  /// predicate and delete filtering read this image.
  CsiViewPtr view;
  int ngroups = 0;
  uint64_t next_claim = 0;  // next seq any consumer may claim for decode
  std::vector<Slot> ring;
  std::vector<Consumer*> consumers;
  int active = 0;
  Status broken = Status::OK();  // first decode failure; fails the pass
};

ScanScheduler::ScanScheduler(ScanSchedulerOptions opts) : opts_(opts) {
  if (opts_.ring_slots < 1) opts_.ring_slots = 1;
}

ScanScheduler::~ScanScheduler() = default;

uint64_t ScanScheduler::passes_started() const {
  std::lock_guard<std::mutex> lk(mu_);
  return passes_started_;
}

uint64_t ScanScheduler::attaches() const {
  std::lock_guard<std::mutex> lk(mu_);
  return attaches_;
}

size_t ScanScheduler::active_passes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return passes_.size();
}

void ScanScheduler::Detach(const std::shared_ptr<Pass>& pass, Consumer* me) {
  std::lock_guard<std::mutex> lk(mu_);
  std::lock_guard<std::mutex> plk(pass->mu);
  // Release this consumer's stake in every claimed-but-unconsumed slot of
  // its window so an early detach (LIMIT, error, failpoint) never stalls
  // the other consumers or leaks a ring slot.
  for (auto& sl : pass->ring) {
    if (sl.state == Slot::State::kFree) continue;
    if (sl.seq < me->next || sl.seq >= me->end) continue;
    sl.pending--;
    if (sl.pending == 0 && sl.state == Slot::State::kReady) {
      sl.state = Slot::State::kFree;
    }
  }
  pass->consumers.erase(
      std::remove(pass->consumers.begin(), pass->consumers.end(), me),
      pass->consumers.end());
  pass->active--;
  if (pass->active == 0) {
    auto it = passes_.find(pass->view->version());
    if (it != passes_.end() && it->second == pass) passes_.erase(it);
  }
  pass->cv.notify_all();
}

Status ScanScheduler::Scan(const CsiViewPtr& view,
                           const std::vector<int>& cols_needed,
                           const std::vector<SegPredicate>& preds,
                           const std::function<bool(const ColumnBatch&)>& fn,
                           QueryMetrics* m, bool need_locators) {
  const int ngroups = view->num_row_groups();
  if (ngroups == 0) return Status::OK();

  static TCounter* c_attaches =
      Telemetry::Instance().Counter("scan.shared_attaches");
  static TCounter* c_passes =
      Telemetry::Instance().Counter("scan.shared_passes");
  static TCounter* c_segs =
      Telemetry::Instance().Counter("scan.segments_shared");
  static TCounter* c_saved =
      Telemetry::Instance().Counter("scan.decode_bytes_saved");

  Consumer me;
  me.cols = cols_needed;
  me.image_cols = cols_needed;
  for (const auto& p : preds) {
    if (std::find(me.image_cols.begin(), me.image_cols.end(), p.col) ==
        me.image_cols.end()) {
      me.image_cols.push_back(p.col);
    }
  }
  me.need_locators = need_locators;

  std::shared_ptr<Pass> pass;
  {
    std::lock_guard<std::mutex> lk(mu_);
    std::shared_ptr<Pass>& entry = passes_[view->version()];
    bool fresh = false;
    if (entry != nullptr) {
      std::lock_guard<std::mutex> plk(entry->mu);
      // A pass poisoned by a decode failure drains with its current
      // consumers; new arrivals start a replacement pass.
      if (!entry->broken.ok()) entry = nullptr;
    }
    if (entry == nullptr) {
      entry = std::make_shared<Pass>();
      fresh = true;
    }
    pass = entry;
    std::lock_guard<std::mutex> plk(pass->mu);
    if (fresh) {
      pass->view = view;
      pass->ngroups = ngroups;
      pass->ring.resize(static_cast<size_t>(opts_.ring_slots));
      passes_started_++;
      c_passes->Add(1);
    }
    me.begin = pass->next_claim;
    me.end = me.begin + static_cast<uint64_t>(pass->ngroups);
    me.next = me.begin;
    pass->consumers.push_back(&me);
    pass->active++;
    attaches_++;
  }
  c_attaches->Add(1);
  if (m != nullptr) m->shared_scan_attaches += 1;

  const CsiReadView& pv = *pass->view;
  const size_t nring = pass->ring.size();
  Status result = Status::OK();
  std::unique_lock<std::mutex> lk(pass->mu);
  while (true) {
    if (!pass->broken.ok()) {
      result = pass->broken;
      break;
    }
    if (me.next == me.end) break;  // full wrap: done
    Slot& sl = pass->ring[me.next % nring];

    if (me.next == pass->next_claim && sl.state == Slot::State::kFree) {
      // Claim: this consumer decodes the group on behalf of everyone
      // attached right now whose window covers it.
      const uint64_t seq = pass->next_claim++;
      const int group = static_cast<int>(seq % pass->ngroups);
      sl.state = Slot::State::kDecoding;
      sl.seq = seq;
      sl.decoder = &me;
      sl.pending = 0;
      std::vector<int> union_cols;
      bool want_locs = false;
      for (const Consumer* c : pass->consumers) {
        if (c->begin > seq || seq >= c->end) continue;
        sl.pending++;
        want_locs |= c->need_locators;
        for (int col : c->image_cols) {
          if (std::find(union_cols.begin(), union_cols.end(), col) ==
              union_cols.end()) {
            union_cols.push_back(col);
          }
        }
      }
      want_locs |= !pv.dead().empty() || pv.group(group).has_deletes();
      lk.unlock();
      Status ds = pv.DecodeGroupDense(group, union_cols, want_locs, &sl.data, m);
      lk.lock();
      if (!ds.ok()) {
        pass->broken = ds;
        pass->cv.notify_all();
        result = ds;
        break;
      }
      sl.state = Slot::State::kReady;
      pass->cv.notify_all();
      continue;  // loop back and consume it ourselves
    }

    if (me.next < pass->next_claim && sl.seq == me.next &&
        sl.state == Slot::State::kReady) {
      // Consume: evaluate our predicates against the shared image.
      const bool shared_decode = sl.decoder != &me;
      DecodedGroup& dg = sl.data;
      lk.unlock();
      Status cs = EvalFailPoint("csi.shared_consume", m);
      bool stopped = false;
      if (cs.ok()) {
        if (shared_decode && m != nullptr) {
          const uint64_t nsegs = me.cols.size() + (me.need_locators ? 1 : 0);
          m->segments_shared += nsegs;
          m->decode_bytes_saved += dg.rows * sizeof(int64_t) * me.cols.size();
          c_segs->Add(nsegs);
          c_saved->Add(dg.rows * sizeof(int64_t) * me.cols.size());
        }
        cs = pv.ScanDecodedGroup(dg, me.cols, preds, fn, m, me.need_locators,
                                 &stopped);
      }
      lk.lock();
      sl.pending--;
      if (sl.pending == 0 && sl.state == Slot::State::kReady) {
        sl.state = Slot::State::kFree;
        pass->cv.notify_all();
      }
      me.next++;
      if (!cs.ok()) {
        result = cs;
        break;
      }
      if (stopped) break;  // fn asked to stop (e.g. LIMIT satisfied)
      continue;
    }

    // Either our next group is mid-decode by another consumer, or the ring
    // slot it maps to is still owed to a lagging consumer.
    pass->cv.wait(lk);
  }
  lk.unlock();
  Detach(pass, &me);
  return result;
}

}  // namespace hd
