// Self-tests of the benchmark's own statistics (stats.h). run.py runs this
// before every benchmark run and refuses to measure when it fails.
//
//   .bench_build/perfbench/perfbench_selftest   -> exit 0 and "ok"

#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

using valmod::perfbench::CounterDelta;
using valmod::perfbench::Counters;
using valmod::perfbench::Median;
using valmod::perfbench::Ratio;
using valmod::perfbench::SelfTimeNs;
using valmod::perfbench::Span;
using valmod::perfbench::TailPercentile;

int failures = 0;

void Expect(bool condition, const char* what) {
  if (!condition) {
    ++failures;
    std::fprintf(stderr, "FAILED: %s\n", what);
  }
}

/// 1..n in shuffled order, so the functions must sort.
std::vector<double> OneTo(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) {
    v.push_back(static_cast<double>((i * 7919) % n + 1));
  }
  return v;
}

void TestMedianAndTail() {
  Expect(Median(OneTo(5)) == 3.0, "median of 1..5 is 3");
  Expect(Median(OneTo(4)) == 2.0, "nearest-rank median of 1..4 is 2");
  Expect(Median({}) == 0.0, "median of nothing is 0");

  // Slices by start time; starts past the end land in the last slice.
  using valmod::perfbench::SliceByStart;
  using valmod::perfbench::TimedSample;
  const std::vector<TimedSample> timed = {
      {0.0, 1.0}, {0.9, 2.0}, {1.0, 3.0}, {3.99, 4.0}, {4.5, 5.0}};
  const auto slices = SliceByStart(timed, 4.0, 2);
  Expect(slices.size() == 2, "two slices");
  Expect(slices[0] == std::vector<double>({1.0, 2.0, 3.0}), "first slice");
  Expect(slices[1] == std::vector<double>({4.0, 5.0}), "late start in last");

  // 1000 samples: p99 is rank 990 and leaves exactly ten samples beyond.
  const auto t1000 = TailPercentile(OneTo(1000));
  Expect(t1000.value == 990.0, "p99 of 1..1000 is 990");
  Expect(t1000.percentile == 0.99, "1000 samples support p99");
  Expect(t1000.samples == 1000, "sample count is kept");

  // 100 samples: p99 would leave one beyond; the tail falls back to the
  // highest rank with ten beyond, rank 90 (p90).
  const auto t100 = TailPercentile(OneTo(100));
  Expect(t100.value == 90.0, "tail of 1..100 is rank 90");
  Expect(t100.percentile == 0.90, "100 samples support only p90");

  // 30 samples: rank 20 leaves ten beyond.
  Expect(TailPercentile(OneTo(30)).value == 20.0, "tail of 1..30 is rank 20");
  // Too few samples for any tail above the median: the median is reported.
  Expect(TailPercentile(OneTo(15)).value == 8.0, "tail of 1..15 is its median");
  const auto t5 = TailPercentile(OneTo(5));
  Expect(t5.value == 3.0 && t5.percentile == 0.6, "tail of 1..5 is its median");
  Expect(TailPercentile({}).value == 0.0, "tail of nothing is 0");
}

void TestSelfTime() {
  // root [0,100) with children [10,30) and [20,50) (overlapping: 40 ns
  // covered) and a grandchild inside the first child that must not count
  // against the root.
  std::vector<Span> spans = {
      {"request", -1, 0, 100},
      {"parse", 0, 10, 20},
      {"compute", 0, 20, 30},
      {"engine", 2, 25, 10},
  };
  Expect(SelfTimeNs(spans, 0) == 60, "root self time excludes the union");
  Expect(SelfTimeNs(spans, 2) == 20, "child self time excludes grandchild");
  Expect(SelfTimeNs(spans, 3) == 10, "leaf self time is its duration");

  // A child running past the parent's end only counts inside it (the
  // service's serialize span starts as the root closes).
  std::vector<Span> tail = {{"request", -1, 0, 100}, {"serialize", 0, 90, 40}};
  Expect(SelfTimeNs(tail, 0) == 90, "overhanging child is clipped");
  std::vector<Span> after = {{"request", -1, 0, 100}, {"serialize", 0, 100, 5}};
  Expect(SelfTimeNs(after, 0) == 100, "child after the parent covers nothing");
}

void TestCounterDelta() {
  const Counters before = {{"a", 10}, {"b", 5}};
  const Counters after = {{"a", 15}, {"b", 5}, {"c", 3}};
  const auto delta = CounterDelta(after, before);
  Expect(delta.has_value(), "monotone counters give a delta");
  if (delta) {
    Expect(delta->at("a") == 5, "delta of a");
    Expect(delta->at("b") == 0, "unchanged counter reads 0");
    Expect(delta->at("c") == 3, "a new counter counts from 0");
  }
  Expect(!CounterDelta({{"a", 9}, {"b", 5}}, before).has_value(),
         "a counter going backwards is rejected");
  Expect(!CounterDelta({{"a", 10}}, before).has_value(),
         "a vanished counter is rejected");
  Expect(Ratio(1, 4) == 0.25 && Ratio(3, 0) == 0.0, "ratio with empty base");
}

}  // namespace

int main() {
  TestMedianAndTail();
  TestSelfTime();
  TestCounterDelta();
  if (failures != 0) {
    std::fprintf(stderr, "%d perfbench self-test(s) failed\n", failures);
    return 1;
  }
  std::printf("ok\n");
  return 0;
}
