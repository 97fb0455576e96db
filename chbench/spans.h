// In-memory span recorder for the traced replay.
//
// A span is one timed call at a layer boundary: its name, start and end
// (steady clock, ns), the span that caused it, and the id of the statement
// it belongs to. Each replay thread owns one SpanRecorder, so recording
// takes no lock; the spans are written out after the run ends.
//
// A span's self time is its duration minus the part of its interval that
// its children cover (overlapping children count once). For a statement
// whose children run one after another inside it, the self times of the
// statement span and all its descendants sum to the statement's duration.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace chbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the parent span in the same recorder; -1 for a root.
  int parent = -1;
  /// Shared by every span of one statement.
  uint64_t trace_id = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  /// Open a span now; returns its index for End() and for children.
  int Begin(std::string name, uint64_t trace_id, int parent = -1) {
    spans_.push_back(Span{std::move(name), NowNs(), 0, parent, trace_id});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int idx) { spans_[idx].end_ns = NowNs(); }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Self time of every span, index-aligned with `spans`.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Write spans as one JSON array of {name, start_ns, end_ns, parent,
/// trace} objects. Returns false when the file cannot be written.
bool WriteSpansJson(const std::vector<Span>& spans, const std::string& path);

}  // namespace chbench
