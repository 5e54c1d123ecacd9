// Measurement helpers of the benchmark: robust summaries, the tail rule,
// in-memory spans with self time, and ablation differencing. Header-only and
// free of simulator types so the helper tests exercise them directly.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace qosbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// an empty input.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2.0;
}

/// A percentile with the samples that back it: `value` is the nearest-rank
/// `pct` percentile of `n` samples and `beyond` of them lie above its rank.
struct Percentile {
  double pct = 0.0;
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank percentile: the smallest sample with at least pct% of the
/// samples at or below it.
inline Percentile percentile(std::vector<double> v, double pct) {
  Percentile p;
  p.pct = pct;
  p.n = v.size();
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  const double exact = pct / 100.0 * static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  p.value = v[rank - 1];
  p.beyond = v.size() - rank;
  return p;
}

/// The tail: the highest percentile of the ladder 50, 90, 99, 99.9, ...
/// that still has at least ten samples beyond it, so one outlier cannot
/// set it. Below twenty samples no rung qualifies and the median is
/// returned (its `beyond` then shows fewer than ten).
inline Percentile tail(const std::vector<double>& v) {
  constexpr std::array<double, 6> kLadder = {50.0, 90.0, 99.0,
                                             99.9, 99.99, 99.999};
  Percentile best = percentile(v, kLadder[0]);
  for (const double pct : kLadder) {
    const Percentile p = percentile(v, pct);
    if (p.beyond < 10) break;
    best = p;
  }
  return best;
}

/// Cost of one checking leg per stepped cycle: the same scenarios timed with
/// the leg on and with it toggled off, the difference spread over the
/// cycles both runs stepped. Negative when noise exceeds the leg's cost;
/// reported as measured.
inline double leg_ns_per_cycle(double with_ns, double without_ns,
                               double stepped_cycles) {
  if (stepped_cycles <= 0.0) return 0.0;
  return (with_ns - without_ns) / stepped_cycles;
}

/// One timed call: its name, the unit (scenario, shard or pass) it belongs
/// to, and its enclosing span (-1 for a root).
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  [[nodiscard]] std::int64_t duration() const { return end_ns - start_ns; }
};

/// Spans of one thread, kept in memory. A disabled recorder records
/// nothing, so untraced runs pay two branch tests per call.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled = false) : enabled_(enabled) {}

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when disabled.
  int open(const char* name, std::uint64_t id) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.id = id;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_ns = now_ns();
    spans_.push_back(s);
    const int idx = static_cast<int>(spans_.size() - 1);
    stack_.push_back(idx);
    return idx;
  }

  void close(int idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Reassigns the unit id of an open or closed span (a claim learns its
  /// shard only when it succeeds).
  void set_id(int idx, std::uint64_t id) {
    if (idx >= 0) spans_[static_cast<std::size_t>(idx)].id = id;
  }

  /// Makes room for `extra` more spans, so that recording them allocates
  /// nothing.
  void reserve(std::size_t extra) {
    if (!enabled_) return;
    spans_.reserve(spans_.size() + extra);
    stack_.reserve(16);
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Times `fn()` in nanoseconds, recording a span around it when the
/// recorder is enabled. The span closes even if `fn` throws.
template <typename Fn>
std::int64_t timed(SpanRecorder& rec, const char* name, std::uint64_t id,
                   Fn&& fn) {
  struct Close {
    SpanRecorder& rec;
    int idx;
    ~Close() { rec.close(idx); }
  } close{rec, rec.open(name, id)};
  const std::int64_t t0 = now_ns();
  fn();
  return now_ns() - t0;
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    iv.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t a = std::max(spans[c].start_ns, p.start_ns);
      const std::int64_t b = std::min(spans[c].end_ns, p.end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t reach = p.start_ns;
    for (const auto& [a, b] : iv) {
      const std::int64_t from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    self[i] = p.duration() - covered;
  }
  return self;
}

}  // namespace qosbench
