// Deterministic fault injection ("failpoints"), in the style of the
// registries RocksDB and TiKV use for crash/error testing.
//
// A failpoint is a named hook compiled into a risky seam of the engine
// (an I/O charge, a B+ tree split, a lock acquire, a morsel dispatch).
// Tests arm a failpoint with a *trigger* (one-shot, every-Nth call,
// probability-p from a seeded RNG) and an *effect* (return an injected
// Status, add real latency, charge simulated I/O stall — or a mix).
// Everything is deterministic under a fixed seed, so a chaos run that
// found a bug can be replayed exactly.
//
// Cost when nothing is armed: one relaxed atomic load per check
// (HD_FAILPOINT* macros below), so the hooks can live on warm paths
// without moving benchmark medians.
//
// See docs/ROBUSTNESS.md for the catalog of wired failpoints and the
// invariants the chaos harness (tests/chaos_test.cc) asserts.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <random>
#include <string>

#include "common/metrics.h"
#include "common/status.h"

namespace hd {

/// Trigger + effect of one armed failpoint.
struct FailSpec {
  enum class Trigger {
    kAlways,       // fire on every evaluation
    kOneShot,      // fire on the first evaluation only
    kEveryNth,     // fire on evaluations n, 2n, 3n, ...
    kProbability,  // fire with probability p per evaluation (seeded RNG)
  };

  Trigger trigger = Trigger::kAlways;
  uint64_t every_n = 1;      // kEveryNth period
  double probability = 1.0;  // kProbability fire chance
  uint64_t seed = 42;        // kProbability draw stream

  /// Injected status; Code::kOk makes the failpoint latency-only.
  Code code = Code::kIoError;
  std::string message = "injected fault";
  /// Real wall-clock sleep when the point fires (latency spike).
  double latency_ms = 0;
  /// Simulated I/O stall charged into the caller's QueryMetrics (only at
  /// sites that evaluate with a metrics block).
  double sim_io_ms = 0;
  /// Run on the evaluating thread when the point fires, outside the
  /// registry lock — a test's blocking hook that parks the caller at the
  /// seam until the test lets it go (no sleeps).
  std::function<void()> hook;

  static FailSpec Always(Code c, std::string msg = "injected fault") {
    FailSpec s;
    s.trigger = Trigger::kAlways;
    s.code = c;
    s.message = std::move(msg);
    return s;
  }
  static FailSpec OneShot(Code c, std::string msg = "injected fault") {
    FailSpec s;
    s.trigger = Trigger::kOneShot;
    s.code = c;
    s.message = std::move(msg);
    return s;
  }
  static FailSpec EveryNth(uint64_t n, Code c,
                           std::string msg = "injected fault") {
    FailSpec s;
    s.trigger = Trigger::kEveryNth;
    s.every_n = n > 0 ? n : 1;
    s.code = c;
    s.message = std::move(msg);
    return s;
  }
  static FailSpec Probability(double p, uint64_t seed, Code c,
                              std::string msg = "injected fault") {
    FailSpec s;
    s.trigger = Trigger::kProbability;
    s.probability = p;
    s.seed = seed;
    s.code = c;
    s.message = std::move(msg);
    return s;
  }
  /// Latency-only spike (no error): fires always.
  static FailSpec Latency(double ms) {
    FailSpec s;
    s.code = Code::kOk;
    s.latency_ms = ms;
    return s;
  }
};

/// Process-wide registry of named failpoints. Thread-safe: Arm/Disarm and
/// Evaluate may race freely (chaos workloads arm points while queries
/// run). The disabled fast path is a single relaxed atomic load.
class FailPoints {
 public:
  static FailPoints& Instance();

  /// Arm (or re-arm, resetting counters) the named point.
  void Arm(const std::string& name, FailSpec spec);
  void Disarm(const std::string& name);
  void DisarmAll();

  /// True if any failpoint is armed anywhere in the process. The macros
  /// gate on this so un-instrumented runs pay one relaxed load per check.
  static bool AnyArmed() {
    return armed_count_.load(std::memory_order_relaxed) > 0;
  }

  /// Evaluate the named point: count the evaluation, decide whether it
  /// fires, apply effects. Returns the injected Status when it fires with
  /// a non-OK code, OK otherwise (including when the point is not armed).
  Status Evaluate(const char* name, QueryMetrics* m = nullptr);

  // Introspection (tests).
  bool Armed(const std::string& name) const;
  uint64_t EvalCount(const std::string& name) const;
  uint64_t HitCount(const std::string& name) const;
  /// Total fires across all points since the last DisarmAll/Arm reset.
  uint64_t TotalHits() const;

 private:
  FailPoints() = default;

  struct Point {
    FailSpec spec;
    uint64_t evals = 0;
    uint64_t hits = 0;
    bool done = false;  // one-shot already fired
    std::mt19937_64 rng;
  };

  mutable std::mutex mu_;
  std::map<std::string, Point> points_;
  static std::atomic<int> armed_count_;
};

/// RAII arming for tests: arms in the constructor, disarms when the scope
/// ends (even on early return / test failure).
class ScopedFailPoint {
 public:
  ScopedFailPoint(std::string name, FailSpec spec) : name_(std::move(name)) {
    FailPoints::Instance().Arm(name_, std::move(spec));
  }
  ~ScopedFailPoint() { FailPoints::Instance().Disarm(name_); }
  ScopedFailPoint(const ScopedFailPoint&) = delete;
  ScopedFailPoint& operator=(const ScopedFailPoint&) = delete;

 private:
  std::string name_;
};

/// Evaluate a failpoint, returning its injected Status (OK when disabled).
/// The AnyArmed() gate keeps the disabled cost to one relaxed load.
inline Status EvalFailPoint(const char* name, QueryMetrics* m = nullptr) {
  if (!FailPoints::AnyArmed()) return Status::OK();
  return FailPoints::Instance().Evaluate(name, m);
}

/// Propagate an injected failure out of a Status-returning function.
#define HD_FAILPOINT_RETURN(name)                            \
  do {                                                       \
    if (::hd::FailPoints::AnyArmed()) {                      \
      ::hd::Status _fp = ::hd::FailPoints::Instance().Evaluate(name); \
      if (!_fp.ok()) return _fp;                             \
    }                                                        \
  } while (0)

/// Same, charging simulated-I/O effects into a QueryMetrics block.
#define HD_FAILPOINT_RETURN_M(name, m)                       \
  do {                                                       \
    if (::hd::FailPoints::AnyArmed()) {                      \
      ::hd::Status _fp = ::hd::FailPoints::Instance().Evaluate(name, m); \
      if (!_fp.ok()) return _fp;                             \
    }                                                        \
  } while (0)

}  // namespace hd
