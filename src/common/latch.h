// Writer-preferring shared latch: each table's phys_latch.
//
// std::shared_mutex on glibc is pthread_rwlock with READER preference: as
// long as any reader holds the lock, new readers are admitted immediately,
// so a writer can wait unboundedly when readers overlap continuously.
// FairSharedMutex flips the policy: once a writer is waiting, new
// lock_shared() callers block; current readers drain, the writer runs,
// then the queued readers are admitted in a batch. Readers never starve
// writers. Acquisition cost is one mutex round-trip per lock/unlock —
// fine for statement-granular latches, wrong for per-row paths.
//
// How long readers hold it: a SELECT latches its tables only while it
// reads them. A columnstore scan holds the latch just long enough to pin
// the index's read view (columnstore.h), a hash join's build side until
// the build is done, and B+ tree or heap reads until their scan ends;
// nothing stays latched across aggregation, sort or result decoding
// (DESIGN.md, "Latching and read views"). DML holds its base table's latch
// exclusively for the statement.
//
// Wait telemetry: an acquisition that cannot proceed at once records its
// wait in the `latch.wait_ns.shared` or `latch.wait_ns.exclusive`
// histogram (docs/OBSERVABILITY.md). The uncontended path records
// nothing, so its cost is unchanged.
//
// Meets the C++ SharedMutex named requirements, so std::shared_lock /
// std::unique_lock / std::scoped_lock work unchanged.
//
// Deadlock note: statements acquire multiple shared latches in one
// globally sorted order (and release them early in any order) and DML
// takes exactly one exclusive latch, so the waits-for graph stays acyclic
// even though waiting writers block incoming readers.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/telemetry.h"

namespace hd {

class FairSharedMutex {
 public:
  FairSharedMutex() = default;
  FairSharedMutex(const FairSharedMutex&) = delete;
  FairSharedMutex& operator=(const FairSharedMutex&) = delete;

  void lock() {
    std::unique_lock<std::mutex> lk(mu_);
    if (writer_active_ || readers_ != 0) {
      const auto t0 = std::chrono::steady_clock::now();
      ++writers_waiting_;
      gate_.wait(lk, [&] { return !writer_active_ && readers_ == 0; });
      --writers_waiting_;
      RecordWait(ExclusiveWaits(), t0);
    }
    writer_active_ = true;
  }

  bool try_lock() {
    std::lock_guard<std::mutex> lk(mu_);
    if (writer_active_ || readers_ != 0) return false;
    writer_active_ = true;
    return true;
  }

  void unlock() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      writer_active_ = false;
    }
    gate_.notify_all();
  }

  void lock_shared() {
    std::unique_lock<std::mutex> lk(mu_);
    // Blocking behind writers_waiting_ is the whole point: an arriving
    // reader yields to every queued writer, which bounds writer wait by
    // the in-flight readers' critical sections.
    if (writer_active_ || writers_waiting_ != 0) {
      const auto t0 = std::chrono::steady_clock::now();
      gate_.wait(lk, [&] { return !writer_active_ && writers_waiting_ == 0; });
      RecordWait(SharedWaits(), t0);
    }
    ++readers_;
  }

  bool try_lock_shared() {
    std::lock_guard<std::mutex> lk(mu_);
    if (writer_active_ || writers_waiting_ != 0) return false;
    ++readers_;
    return true;
  }

  void unlock_shared() {
    bool wake;
    {
      std::lock_guard<std::mutex> lk(mu_);
      wake = (--readers_ == 0);
    }
    if (wake) gate_.notify_all();
  }

 private:
  static THistogram* SharedWaits() {
    static THistogram* h =
        Telemetry::Instance().Histogram("latch.wait_ns.shared");
    return h;
  }
  static THistogram* ExclusiveWaits() {
    static THistogram* h =
        Telemetry::Instance().Histogram("latch.wait_ns.exclusive");
    return h;
  }
  static void RecordWait(THistogram* h,
                         std::chrono::steady_clock::time_point t0) {
    h->Record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count());
  }

  std::mutex mu_;
  std::condition_variable gate_;
  int readers_ = 0;
  int writers_waiting_ = 0;
  bool writer_active_ = false;
};

}  // namespace hd
