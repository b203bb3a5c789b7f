// Spans the benchmark records around its calls into the program's layers.
//
// A span has a name, a start and end on the host clock, a parent (the
// span that was open when it started) and the id of the operation it
// belongs to.  Each operation records into its own OpTrace on the thread
// that runs it; finished traces are appended to a SpanLog, kept in
// memory and written out when the run ends.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct Span {
  const char* name = "";     ///< static string
  std::int64_t start = 0;    ///< wall_ns()
  std::int64_t end = 0;
  std::int32_t parent = -1;  ///< index in the same list; -1 = none
  std::uint64_t op = 0;
};

/// The spans of one operation.  Not thread-safe: one thread records it.
class OpTrace {
 public:
  explicit OpTrace(std::uint64_t op) : op_(op) {}

  std::int32_t open(const char* name) {
    const auto i = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, wall_ns(), 0, current_, op_});
    current_ = i;
    return i;
  }
  void close(std::int32_t i) {
    spans_[static_cast<std::size_t>(i)].end = wall_ns();
    current_ = spans_[static_cast<std::size_t>(i)].parent;
  }

  std::uint64_t op() const { return op_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint64_t op_;
  std::int32_t current_ = -1;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; does
/// nothing when `trace` is nullptr (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(OpTrace* trace, const char* name)
      : trace_(trace), index_(trace ? trace->open(name) : -1) {}
  ~ScopedSpan() {
    if (trace_) trace_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  OpTrace* trace_;
  std::int32_t index_;
};

/// Busy and self time of the spans of one name.
struct SpanTotals {
  std::int64_t busy_ns = 0;
  /// busy minus the part of each span's interval its children cover.
  std::int64_t self_ns = 0;
};

/// Every finished operation's spans.  add() is thread-safe.
class SpanLog {
 public:
  void add(const OpTrace& trace);

  /// Totals of the spans named `name` whose operation `keep` accepts
  /// (all operations when `keep` is empty).  Call after recording ends.
  SpanTotals totals(std::string_view name,
                    const std::function<bool(std::uint64_t)>& keep = {}) const;

  /// Writes one JSON object per span; times in ns since the first span.
  bool write_jsonl(const std::string& path) const;

 private:
  std::mutex mu_;
  std::vector<Span> spans_;  // parents rebased to indices in spans_
};

}  // namespace perfbench
