// Windowed streaming-profile tests: eviction parity against batch STOMP on
// the retained window, incremental top-k parity, the anchored-normalization
// drift regression, and concurrent append/read through the service Dataset.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "mp/stomp.h"
#include "mp/streaming.h"
#include "series/data_series.h"
#include "series/generators.h"
#include "service/registry.h"

namespace valmod::mp {
namespace {

/// Batch oracle: STOMP profile of the last `window` raw values.
MatrixProfile BatchProfile(const std::vector<double>& raw, std::size_t window,
                           std::size_t length) {
  const std::size_t n = std::min(raw.size(), window);
  std::vector<double> retained(raw.end() - static_cast<long>(n), raw.end());
  auto series = series::DataSeries::Create(std::move(retained));
  EXPECT_TRUE(series.ok());
  auto batch = ComputeStomp(*series, length, {});
  EXPECT_TRUE(batch.ok());
  return *std::move(batch);
}

void ExpectProfilesMatch(const MatrixProfile& maintained,
                         const MatrixProfile& batch, double tolerance,
                         const std::string& context) {
  ASSERT_EQ(maintained.size(), batch.size()) << context;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (std::isfinite(batch.distances[i])) {
      EXPECT_NEAR(maintained.distances[i], batch.distances[i], tolerance)
          << context << " row " << i;
    } else {
      EXPECT_FALSE(std::isfinite(maintained.distances[i]))
          << context << " row " << i;
    }
  }
}

struct WindowedCase {
  std::string generator;
  std::uint64_t seed;
  std::size_t n;
  std::size_t length;
  std::size_t max_points;
};

class StreamingWindowedTest : public ::testing::TestWithParam<WindowedCase> {};

TEST_P(StreamingWindowedTest, EvictionParityWithBatchOnRetainedWindow) {
  const WindowedCase& c = GetParam();
  auto series = synth::ByName(c.generator, c.n, c.seed);
  ASSERT_TRUE(series.ok());
  const std::vector<double> raw(series->values().begin(),
                                series->values().end());

  StreamingOptions options;
  options.max_points = c.max_points;
  auto stream = StreamingProfile::Create(c.length, options);
  ASSERT_TRUE(stream.ok());

  // Feed in randomized batch sizes (append/evict interleavings differ per
  // seed) and check parity at several checkpoints deep into eviction.
  std::mt19937_64 rng(c.seed * 7919 + 13);
  std::uniform_int_distribution<std::size_t> batch_size(1, 2 * c.length);
  std::size_t fed = 0;
  std::size_t next_check = 2 * c.max_points;
  while (fed < raw.size()) {
    const std::size_t take = std::min(batch_size(rng), raw.size() - fed);
    ASSERT_TRUE(
        stream->AppendAll({raw.data() + fed, take}).ok());
    fed += take;
    if (fed >= next_check || fed == raw.size()) {
      next_check += c.max_points;
      const std::vector<double> prefix(raw.begin(),
                                       raw.begin() + static_cast<long>(fed));
      const MatrixProfile batch =
          BatchProfile(prefix, c.max_points, c.length);
      ExpectProfilesMatch(stream->ProfileSnapshot(), batch, 2e-5,
                          "checkpoint " + std::to_string(fed));
      EXPECT_EQ(stream->size(), std::min(fed, c.max_points));
      EXPECT_EQ(stream->window_start(),
                fed - std::min(fed, c.max_points));
    }
  }
  EXPECT_EQ(stream->total_appended(), raw.size());
}

TEST_P(StreamingWindowedTest, TopKMatchesBatchOracle) {
  const WindowedCase& c = GetParam();
  auto series = synth::ByName(c.generator, c.n, c.seed + 1);
  ASSERT_TRUE(series.ok());
  const std::vector<double> raw(series->values().begin(),
                                series->values().end());

  StreamingOptions options;
  options.max_points = c.max_points;
  auto stream = StreamingProfile::Create(c.length, options);
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(stream->AppendAll(raw).ok());

  const MatrixProfile batch = BatchProfile(raw, c.max_points, c.length);
  // Both rankings run through the same TopKMotifs/TopKDiscords free
  // functions, so any disagreement is a profile disagreement, not a
  // ranking-convention one.
  const std::size_t k = 5;
  const auto motifs = stream->TopMotifs(k);
  const auto batch_motifs = TopKMotifs(batch, k);
  ASSERT_EQ(motifs.size(), batch_motifs.size());
  for (std::size_t r = 0; r < motifs.size(); ++r) {
    EXPECT_EQ(motifs[r].offset_a, batch_motifs[r].offset_a) << "rank " << r;
    EXPECT_EQ(motifs[r].offset_b, batch_motifs[r].offset_b) << "rank " << r;
    EXPECT_NEAR(motifs[r].distance, batch_motifs[r].distance, 2e-5)
        << "rank " << r;
  }
  const auto discords = stream->TopDiscords(k);
  const auto batch_discords = TopKDiscords(batch, k);
  ASSERT_EQ(discords.size(), batch_discords.size());
  for (std::size_t r = 0; r < discords.size(); ++r) {
    EXPECT_EQ(discords[r].offset, batch_discords[r].offset) << "rank " << r;
    EXPECT_NEAR(discords[r].distance, batch_discords[r].distance, 2e-5)
        << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, StreamingWindowedTest,
    ::testing::Values(
        WindowedCase{"random_walk", 11, 1200, 16, 128},
        WindowedCase{"random_walk", 23, 900, 24, 200},
        WindowedCase{"sine", 37, 1500, 32, 256},
        WindowedCase{"ecg", 41, 1000, 25, 150},
        WindowedCase{"random_walk", 53, 2000, 8, 64}));

TEST(StreamingWindowedProfileTest, WindowSmallerThanTwoLengthsRejected) {
  StreamingOptions options;
  options.max_points = 31;
  EXPECT_FALSE(StreamingProfile::Create(16, options).ok());
  options.max_points = 32;
  EXPECT_TRUE(StreamingProfile::Create(16, options).ok());
}

TEST(StreamingWindowedProfileTest, AppendAllRejectsBatchAtomically) {
  StreamingOptions options;
  auto stream = StreamingProfile::Create(4, options);
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(stream->AppendAll(std::vector<double>{1, 2, 3, 4, 5}).ok());
  const std::vector<double> bad = {6.0, 7.0, std::nan(""), 8.0};
  const Status status = stream->AppendAll(bad);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("index 2"), std::string::npos)
      << status.message();
  // Nothing from the bad batch landed.
  EXPECT_EQ(stream->size(), 5u);
  EXPECT_EQ(stream->total_appended(), 5u);
}

TEST(StreamingWindowedProfileTest, MemoryBoundedAtHundredTimesWindow) {
  const std::size_t window = 512;
  StreamingOptions options;
  options.max_points = window;
  auto stream = StreamingProfile::Create(16, options);
  ASSERT_TRUE(stream.ok());

  auto series = synth::ByName("random_walk", 100 * window, 5);
  ASSERT_TRUE(series.ok());
  std::size_t high_water = 0;
  const auto values = series->values();
  for (std::size_t fed = 0; fed < values.size(); fed += window / 4) {
    const std::size_t take = std::min(window / 4, values.size() - fed);
    ASSERT_TRUE(stream->AppendAll(values.subspan(fed, take)).ok());
    high_water = std::max(high_water, stream->MemoryBytes());
  }
  EXPECT_EQ(stream->size(), window);
  EXPECT_EQ(stream->total_appended(), 100 * window);
  // All maintained arrays are O(window): eight sliding buffers of one
  // double-or-int64 per retained point, each at most ~2x live + growth
  // slack, plus four O(window) scratch rows.
  EXPECT_LE(high_water, 40 * window * sizeof(double));
}

TEST(StreamingWindowedProfileTest, MemoryCountsStatsAndScratch) {
  // One AppendAll of exactly W points into a fresh windowed profile: every
  // sliding buffer holds exactly what the call reserved, and the scratch
  // rows exactly what construction reserved, so the footprint has no slack
  // that could hide a buffer MemoryBytes() forgot.
  const std::size_t window = 128;
  const std::size_t length = 16;
  StreamingOptions options;
  options.max_points = window;
  auto stream = StreamingProfile::Create(length, options);
  ASSERT_TRUE(stream.ok());
  auto series = synth::ByName("random_walk", window, 17);
  ASSERT_TRUE(series.ok());
  ASSERT_TRUE(stream->AppendAll(series->values()).ok());
  const std::size_t rows = window - length + 1;
  // Sliding buffers: the values and two prefix sums (W + 1 boundaries),
  // three window stats, the best correlations and the neighbors (W each).
  const std::size_t sliding = window + 2 * (window + 1) + 5 * window;
  // Scratch, one row each: the dot carry and its ping-pong partner, the
  // candidate row, the repair chain (plus its stepping headroom) and the
  // orphan list.
  const std::size_t scratch = 5 * rows;
  EXPECT_GE(stream->MemoryBytes(), (sliding + scratch) * sizeof(double));
}

/// Feeds `raw` into a windowed profile either in one AppendAll or one
/// Append per point, returning the final snapshot.
MatrixProfile FeedWindowed(const std::vector<double>& raw, std::size_t window,
                           std::size_t length, bool per_point) {
  StreamingOptions options;
  options.max_points = window;
  auto stream = StreamingProfile::Create(length, options);
  EXPECT_TRUE(stream.ok());
  if (per_point) {
    for (const double value : raw) EXPECT_TRUE(stream->Append(value).ok());
  } else {
    EXPECT_TRUE(stream->AppendAll(raw).ok());
  }
  EXPECT_EQ(stream->window_start(), raw.size() - window);
  return stream->ProfileSnapshot();
}

TEST(StreamingWindowedProfileTest, OneCallAndPerPointAppendsMatchBatch) {
  // One AppendAll of 3 W points defers every repair to the end of the call:
  // most rows orphaned along the way leave the window before it ends, and
  // some are orphaned more than once. Per-point Append repairs after every
  // point. Both must land on the batch profile of the retained window.
  const std::size_t window = 128;
  const std::size_t length = 16;
  for (const char* generator : {"random_walk", "ecg", "sine"}) {
    auto series = synth::ByName(generator, 3 * window, 29);
    ASSERT_TRUE(series.ok());
    const std::vector<double> raw(series->values().begin(),
                                  series->values().end());
    const MatrixProfile batch = BatchProfile(raw, window, length);
    ExpectProfilesMatch(FeedWindowed(raw, window, length, false), batch, 2e-5,
                        std::string(generator) + " one call");
    ExpectProfilesMatch(FeedWindowed(raw, window, length, true), batch, 2e-5,
                        std::string(generator) + " per point");
  }
}

/// Pearson correlation of two raw windows, straight from the definition.
double ReferenceCorrelation(const double* a, const double* b,
                            std::size_t length) {
  double mean_a = 0.0;
  double mean_b = 0.0;
  for (std::size_t i = 0; i < length; ++i) {
    mean_a += a[i];
    mean_b += b[i];
  }
  mean_a /= static_cast<double>(length);
  mean_b /= static_cast<double>(length);
  double cov = 0.0;
  double var_a = 0.0;
  double var_b = 0.0;
  for (std::size_t i = 0; i < length; ++i) {
    cov += (a[i] - mean_a) * (b[i] - mean_b);
    var_a += (a[i] - mean_a) * (a[i] - mean_a);
    var_b += (b[i] - mean_b) * (b[i] - mean_b);
  }
  return cov / std::sqrt(var_a * var_b);
}

TEST(StreamingWindowedProfileTest, PlateausAndSpikesKeepExactConventions) {
  // A plateau (an opening point at 0 sets the anchor off the plateau
  // level, so its shifted values are non-zero) with isolated one-point
  // spikes and smooth sine bursts: constant windows,
  // spike windows whose best match is a constant window, and generic
  // windows, all churned through eviction.
  const std::size_t window = 256;
  const std::size_t length = 16;
  std::vector<double> raw = {0.0};
  for (std::size_t i = 0; i < 4 * window; ++i) {
    const std::size_t phase = i % 300;
    double value = 1.7;
    if (phase == 150) value = 1.7 + 0.5 * static_cast<double>(1 + i % 3);
    if (phase < 60) value = 1.7 + std::sin(2.0 * M_PI * phase / 60.0);
    raw.push_back(value);
  }
  const double sqrt_l = std::sqrt(static_cast<double>(length));
  for (const bool per_point : {false, true}) {
    const std::string context = per_point ? "per point" : "one call";
    const MatrixProfile maintained =
        FeedWindowed(raw, window, length, per_point);
    const MatrixProfile batch = BatchProfile(raw, window, length);
    ExpectProfilesMatch(maintained, batch, 2e-5, context);

    const double* retained = raw.data() + raw.size() - window;
    const std::size_t rows = maintained.size();
    std::vector<bool> constant(rows);
    for (std::size_t w = 0; w < rows; ++w) {
      constant[w] = std::all_of(retained + w, retained + w + length,
                                [&](double x) { return x == retained[w]; });
    }
    std::size_t exact_zero = 0;
    std::size_t exact_sqrt_l = 0;
    for (std::size_t w = 0; w < rows; ++w) {
      // The conventions decide a row when its best candidate is a constant
      // window: always for a constant row with a constant candidate
      // (distance 0), and for a non-constant row whose non-constant
      // candidates all correlate clearly below 0.5 (distance sqrt(l)).
      bool constant_candidate = false;
      double best_other = -1.0;
      for (std::size_t j = 0; j < rows; ++j) {
        const std::size_t gap = j > w ? j - w : w - j;
        if (gap < maintained.exclusion_zone) continue;
        if (constant[j]) {
          constant_candidate = true;
        } else if (!constant[w]) {
          best_other = std::max(best_other, ReferenceCorrelation(
                                                retained + w, retained + j,
                                                length));
        }
      }
      if (!constant_candidate) continue;
      if (constant[w]) {
        EXPECT_EQ(maintained.distances[w], 0.0) << context << " row " << w;
        ++exact_zero;
      } else if (best_other < 0.5 - 1e-6) {
        EXPECT_EQ(maintained.distances[w], sqrt_l) << context << " row " << w;
        ++exact_sqrt_l;
      }
    }
    EXPECT_GT(exact_zero, 0u) << context;
    EXPECT_GT(exact_sqrt_l, 0u) << context;
  }
}

TEST(StreamingWindowedProfileTest, RepetitiveDataSurvivesEvictionChurn) {
  // Constant + periodic data makes every window a tie: eviction repair must
  // not degrade into quadratic re-orphan storms, and the profile must stay
  // exactly 0 where matches exist.
  StreamingOptions options;
  options.max_points = 96;
  auto stream = StreamingProfile::Create(8, options);
  ASSERT_TRUE(stream.ok());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(stream->Append(3.5).ok());
  }
  const MatrixProfile profile = stream->ProfileSnapshot();
  for (std::size_t i = 0; i < profile.size(); ++i) {
    if (profile.indices[i] >= 0) {
      EXPECT_DOUBLE_EQ(profile.distances[i], 0.0) << i;
      EXPECT_LT(profile.indices[i],
                static_cast<std::int64_t>(profile.size()));
    }
  }
}

// ---------------------------------------------------------------------------
// Anchored-normalization drift regression (the caveat README documents):
// a fixed anchor makes the incremental variance cancel catastrophically once
// the window mean drifts far from it; periodic re-anchoring keeps parity.
// ---------------------------------------------------------------------------

std::vector<double> LevelShiftStream(std::size_t n_high, std::size_t n_low) {
  // A stretch at level 1e6, then a sine around 0: once the window slides
  // past the shift the retained values sit ~1e6 away from the fixed anchor.
  std::vector<double> values;
  values.reserve(n_high + n_low);
  for (std::size_t i = 0; i < n_high; ++i) {
    values.push_back(1e6 + std::sin(0.4 * static_cast<double>(i)));
  }
  for (std::size_t i = 0; i < n_low; ++i) {
    values.push_back(std::sin(0.31 * static_cast<double>(i)) +
                     0.2 * std::sin(0.043 * static_cast<double>(i)));
  }
  return values;
}

double MaxBatchError(bool reanchor) {
  const std::size_t length = 16;
  const std::size_t window = 128;
  const std::vector<double> raw = LevelShiftStream(100, 500);

  StreamingOptions options;
  options.max_points = window;
  options.reanchor = reanchor;
  auto stream = StreamingProfile::Create(length, options);
  EXPECT_TRUE(stream.ok());
  EXPECT_TRUE(stream->AppendAll(raw).ok());

  const MatrixProfile maintained = stream->ProfileSnapshot();
  const MatrixProfile batch = BatchProfile(raw, window, length);
  EXPECT_EQ(maintained.size(), batch.size());
  double max_error = 0.0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!std::isfinite(batch.distances[i])) continue;
    max_error = std::max(
        max_error, std::abs(maintained.distances[i] - batch.distances[i]));
  }
  return max_error;
}

TEST(StreamingReanchorTest, ReanchoringKeepsParityWhereFixedAnchorDrifts) {
  const double with_reanchor = MaxBatchError(/*reanchor=*/true);
  const double fixed_anchor = MaxBatchError(/*reanchor=*/false);
  // Re-anchored: same accuracy as the non-drifting parity suites.
  EXPECT_LT(with_reanchor, 1e-5) << "re-anchored error";
  // Fixed anchor: the mean^2/variance cancellation visibly corrupts the
  // distances (this is the regression documented in the README — if this
  // starts passing with a tiny error, the conditioning analysis changed).
  EXPECT_GT(fixed_anchor, 1e-4) << "fixed-anchor error";
  EXPECT_GT(fixed_anchor, 100.0 * with_reanchor);
}

TEST(StreamingReanchorTest, ParityHoldsRightAfterEveryReanchor) {
  // A re-anchor rebuilds the prefix sums, the per-window stats and the dot
  // carry; check the profile against batch right after each one, while the
  // windows admitted before it are still retained. The stream opens with
  // one point at 0 (the anchor) and then stays near 1e3: conditioned well
  // enough (mean^2 / variance ~ 2e6) that rows recorded before the
  // re-anchor are accurate, and far enough (past the 1e6 threshold) that
  // the re-anchor fires once the opening point is evicted.
  const std::size_t length = 16;
  const std::size_t window = 128;
  std::vector<double> raw = {0.0};
  for (std::size_t i = 0; i < 3 * window; ++i) {
    const double t = static_cast<double>(i);
    raw.push_back(1e3 + std::sin(0.31 * t) + 0.2 * std::sin(0.043 * t));
  }
  StreamingOptions options;
  options.max_points = window;
  auto stream = StreamingProfile::Create(length, options);
  ASSERT_TRUE(stream.ok());
  std::uint64_t epoch = 0;
  for (std::size_t fed = 0; fed < raw.size(); fed += 7) {
    const std::size_t take = std::min<std::size_t>(7, raw.size() - fed);
    ASSERT_TRUE(stream->AppendAll({raw.data() + fed, take}).ok());
    if (stream->anchor_epoch() == epoch) continue;
    epoch = stream->anchor_epoch();
    const std::vector<double> prefix(
        raw.begin(), raw.begin() + static_cast<long>(fed + take));
    ExpectProfilesMatch(stream->ProfileSnapshot(),
                        BatchProfile(prefix, window, length), 2e-5,
                        "epoch " + std::to_string(epoch));
  }
  EXPECT_GT(epoch, 0u);
}

// ---------------------------------------------------------------------------
// Concurrency: appends race snapshot/profile/top-k readers through the
// service Dataset (run under TSan in CI).
// ---------------------------------------------------------------------------

TEST(StreamingWindowedConcurrencyTest, AppendsRaceReaders) {
  auto dataset = service::Dataset::CreateStreaming(
      "stream", /*subsequence_length=*/16, /*exclusion_fraction=*/0.5,
      /*max_points=*/256);
  ASSERT_TRUE(dataset.ok());
  auto series = synth::ByName("random_walk", 4096, 77);
  ASSERT_TRUE(series.ok());
  const auto values = series->values();

  std::thread appender([&] {
    for (std::size_t fed = 0; fed < values.size(); fed += 32) {
      ASSERT_TRUE((*dataset)->Append(values.subspan(fed, 32)).ok());
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        auto state = (*dataset)->StreamingProfileSnapshot();
        if (state.ok()) {
          EXPECT_LE(state->profile.size(), 256u);
        }
        auto top = (*dataset)->StreamingTopKSnapshot(3, 3);
        if (top.ok()) {
          EXPECT_LE(top->motifs.size(), 3u);
        }
        (void)(*dataset)->Snapshot();  // batch materialization racing appends
        (void)(*dataset)->Memory();
      }
    });
  }
  appender.join();
  for (std::thread& reader : readers) reader.join();

  // Final state parity: maintained profile equals batch on the retained
  // window even after the concurrent churn.
  auto state = (*dataset)->StreamingProfileSnapshot();
  ASSERT_TRUE(state.ok());
  const std::vector<double> raw(values.begin(), values.end());
  const MatrixProfile batch = BatchProfile(raw, 256, 16);
  ExpectProfilesMatch(state->profile, batch, 2e-5, "after concurrency");
}

}  // namespace
}  // namespace valmod::mp
