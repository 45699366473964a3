#ifndef VALMOD_PERFBENCH_STATS_H_
#define VALMOD_PERFBENCH_STATS_H_

// The benchmark's own statistics, kept free of library dependencies so
// stats_selftest.cc can check them in isolation: nearest-rank quantiles,
// the tail percentile that still has ten samples beyond it, time slicing
// of a timed loop, span self time, and deltas of monotone counters.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace valmod::perfbench {

/// Nearest-rank quantile of an ascending-sorted sample: the value at rank
/// ceil(q * n) (1-based, clamped to [1, n]). 0 for an empty sample.
inline double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

inline double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return SortedQuantile(samples, 0.5);
}

/// A tail latency together with the percentile it actually is: the
/// highest percentile <= the target that leaves at least `kTailBeyond`
/// samples above its rank, but never below the median — a sample too
/// small to support any tail (fewer than 2 * kTailBeyond + 1 samples)
/// reports its median.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};

inline constexpr std::size_t kTailBeyond = 10;

inline Tail TailPercentile(std::vector<double> samples, double target = 0.99) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const std::size_t median_rank = (n + 1) / 2;  // ceil(n / 2)
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(target * static_cast<double>(n)));
  rank = std::min(rank, n > kTailBeyond ? n - kTailBeyond : 0);
  rank = std::max(rank, median_rank);
  tail.value = samples[rank - 1];
  tail.percentile = static_cast<double>(rank) / static_cast<double>(n);
  return tail;
}

/// One timed operation: when it started (seconds into its phase) and how
/// long it took.
struct TimedSample {
  double start_s = 0.0;
  double ms = 0.0;
};

/// Buckets samples into `slices` equal slices of [0, seconds) by start
/// time (a start at or past `seconds` lands in the last slice), keeping
/// each slice's durations.
inline std::vector<std::vector<double>> SliceByStart(
    const std::vector<TimedSample>& samples, double seconds,
    std::size_t slices) {
  std::vector<std::vector<double>> out(slices);
  if (slices == 0) return out;
  for (const TimedSample& s : samples) {
    const double position =
        seconds > 0.0 ? s.start_s / seconds * static_cast<double>(slices)
                      : 0.0;
    const std::size_t index = position <= 0.0
                                  ? 0
                                  : std::min(static_cast<std::size_t>(position),
                                             slices - 1);
    out[index].push_back(s.ms);
  }
  return out;
}

/// One span of a request's trace tree, as RenderTraceJson writes it.
struct Span {
  std::string name;
  int parent = -1;  // index into the span vector; -1 = root
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
};

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover. Overlapping children (parallel fan-out) are
/// merged first, and a child running past its parent's end (the service's
/// "serialize" span starts as the root closes) only counts inside it.
inline std::uint64_t SelfTimeNs(const std::vector<Span>& spans,
                                std::size_t index) {
  const Span& self = spans[index];
  const std::uint64_t begin = self.start_ns;
  const std::uint64_t end = self.start_ns + self.duration_ns;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
  for (const Span& child : spans) {
    if (child.parent != static_cast<int>(index)) continue;
    const std::uint64_t lo = std::max(begin, child.start_ns);
    const std::uint64_t hi =
        std::min(end, child.start_ns + child.duration_ns);
    if (lo < hi) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  std::uint64_t busy = 0;
  std::uint64_t reach = begin;
  for (const auto& [lo, hi] : covered) {
    const std::uint64_t from = std::max(lo, reach);
    if (hi > from) busy += hi - from;
    reach = std::max(reach, hi);
  }
  return self.duration_ns - busy;
}

/// Named monotone counters (process totals read before and after a phase).
using Counters = std::map<std::string, std::uint64_t>;

/// after - before, per name; a name missing from `before` counts from 0.
/// nullopt when any counter went backwards or vanished — the snapshots
/// are then not of one monotone process total and no delta is meaningful.
inline std::optional<Counters> CounterDelta(const Counters& after,
                                            const Counters& before) {
  Counters delta;
  for (const auto& [name, value] : before) {
    if (!after.contains(name)) return std::nullopt;
  }
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    const std::uint64_t base = it == before.end() ? 0 : it->second;
    if (value < base) return std::nullopt;
    delta[name] = value - base;
  }
  return delta;
}

/// num / den, or 0 when den is 0 (a layer the workload never entered).
inline double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

}  // namespace valmod::perfbench

#endif  // VALMOD_PERFBENCH_STATS_H_
