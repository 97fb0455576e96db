#include "common/failpoint.h"

#include <chrono>
#include <thread>

namespace hd {

std::atomic<int> FailPoints::armed_count_{0};

FailPoints& FailPoints::Instance() {
  static FailPoints* fp = new FailPoints();  // leaked: evaluated from pool
  // worker threads that outlive static destructors.
  return *fp;
}

void FailPoints::Arm(const std::string& name, FailSpec spec) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = points_.find(name);
  if (it == points_.end()) {
    armed_count_.fetch_add(1, std::memory_order_relaxed);
    it = points_.emplace(name, Point{}).first;
  }
  Point& p = it->second;
  p.evals = 0;
  p.hits = 0;
  p.done = false;
  p.rng.seed(spec.seed);
  p.spec = std::move(spec);
}

void FailPoints::Disarm(const std::string& name) {
  std::lock_guard<std::mutex> g(mu_);
  if (points_.erase(name) > 0) {
    armed_count_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void FailPoints::DisarmAll() {
  std::lock_guard<std::mutex> g(mu_);
  armed_count_.fetch_sub(static_cast<int>(points_.size()),
                         std::memory_order_relaxed);
  points_.clear();
}

Status FailPoints::Evaluate(const char* name, QueryMetrics* m) {
  double latency_ms = 0;
  double sim_io_ms = 0;
  Code code = Code::kOk;
  std::string message;
  std::function<void()> hook;
  {
    std::lock_guard<std::mutex> g(mu_);
    auto it = points_.find(name);
    if (it == points_.end()) return Status::OK();
    Point& p = it->second;
    ++p.evals;
    bool fire = false;
    switch (p.spec.trigger) {
      case FailSpec::Trigger::kAlways:
        fire = true;
        break;
      case FailSpec::Trigger::kOneShot:
        fire = !p.done;
        p.done = true;
        break;
      case FailSpec::Trigger::kEveryNth:
        fire = (p.evals % p.spec.every_n) == 0;
        break;
      case FailSpec::Trigger::kProbability: {
        // Per-point seeded stream: the fire pattern is a pure function of
        // (seed, evaluation index), independent of wall clock or global
        // RNG state.
        std::uniform_real_distribution<double> u(0.0, 1.0);
        fire = u(p.rng) < p.spec.probability;
        break;
      }
    }
    if (!fire) return Status::OK();
    ++p.hits;
    latency_ms = p.spec.latency_ms;
    sim_io_ms = p.spec.sim_io_ms;
    code = p.spec.code;
    message = p.spec.message;
    hook = p.spec.hook;
  }
  // Effects applied outside the registry lock.
  if (hook) hook();
  if (latency_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(latency_ms));
  }
  if (sim_io_ms > 0 && m != nullptr) {
    m->sim_io_ns += static_cast<uint64_t>(sim_io_ms * 1e6);
  }
  if (code == Code::kOk) return Status::OK();
  return Status(code, message + " (failpoint " + name + ")");
}

bool FailPoints::Armed(const std::string& name) const {
  std::lock_guard<std::mutex> g(mu_);
  return points_.count(name) > 0;
}

uint64_t FailPoints::EvalCount(const std::string& name) const {
  std::lock_guard<std::mutex> g(mu_);
  auto it = points_.find(name);
  return it == points_.end() ? 0 : it->second.evals;
}

uint64_t FailPoints::HitCount(const std::string& name) const {
  std::lock_guard<std::mutex> g(mu_);
  auto it = points_.find(name);
  return it == points_.end() ? 0 : it->second.hits;
}

uint64_t FailPoints::TotalHits() const {
  std::lock_guard<std::mutex> g(mu_);
  uint64_t n = 0;
  for (const auto& [k, p] : points_) n += p.hits;
  return n;
}

}  // namespace hd
