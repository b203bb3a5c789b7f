#include "span.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

void SpanLog::add(const OpTrace& trace) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto base = static_cast<std::int32_t>(spans_.size());
  for (Span s : trace.spans()) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

SpanTotals SpanLog::totals(std::string_view name,
                           const std::function<bool(std::uint64_t)>& keep) const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);

  SpanTotals t;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (name != s.name || (keep && !keep(s.op))) continue;
    const std::int64_t dur = s.end - s.start;
    // Union of the children's intervals, clipped to this span.
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start);
      hi = std::min(hi, s.end);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    t.busy_ns += dur;
    t.self_ns += dur - covered;
  }
  return t;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t t0 = 0;
  for (const Span& s : spans_)
    if (t0 == 0 || s.start < t0) t0 = s.start;
  for (const Span& s : spans_)
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"op\":%llu}\n",
                 s.name, static_cast<long long>(s.start - t0),
                 static_cast<long long>(s.end - t0), s.parent,
                 static_cast<unsigned long long>(s.op));
  return std::fclose(f) == 0;
}

}  // namespace perfbench
