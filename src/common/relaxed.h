// Size counters that the planner reads without the structure's latch.
//
// A heap file, B+ tree or columnstore changes its size fields under its
// table's exclusive latch, while Configuration::FromCatalog reads them on
// every statement with no latch held. Relaxed atomics make those reads
// race-free: a reader sees a recent value, never a torn one, and no
// ordering with the structure's other data is implied — the planner only
// needs an estimate.
#pragma once

#include <atomic>

namespace hd {

template <typename T>
class Relaxed {
 public:
  Relaxed(T v = T{}) : v_(v) {}  // NOLINT: a drop-in for a plain field
  Relaxed(const Relaxed& o) : v_(o.load()) {}
  Relaxed& operator=(const Relaxed& o) {
    store(o.load());
    return *this;
  }
  Relaxed& operator=(T v) {
    store(v);
    return *this;
  }
  operator T() const { return load(); }  // NOLINT: reads like the field

  T load() const { return v_.load(std::memory_order_relaxed); }
  void store(T v) { v_.store(v, std::memory_order_relaxed); }

  Relaxed& operator+=(T d) {
    v_.fetch_add(d, std::memory_order_relaxed);
    return *this;
  }
  Relaxed& operator-=(T d) {
    v_.fetch_sub(d, std::memory_order_relaxed);
    return *this;
  }
  T operator++() { return v_.fetch_add(1, std::memory_order_relaxed) + 1; }
  T operator++(int) { return v_.fetch_add(1, std::memory_order_relaxed); }
  T operator--() { return v_.fetch_sub(1, std::memory_order_relaxed) - 1; }

 private:
  std::atomic<T> v_;
};

}  // namespace hd
