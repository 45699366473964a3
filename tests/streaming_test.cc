// Tests for the streaming (append-only) matrix profile.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "mp/stomp.h"
#include "mp/streaming.h"
#include "series/data_series.h"
#include "series/generators.h"
#include "simd/dispatch.h"

namespace valmod::mp {
namespace {

struct StreamCase {
  std::string generator;
  std::size_t n;
  std::size_t length;
};

class StreamingTest : public ::testing::TestWithParam<StreamCase> {};

TEST_P(StreamingTest, FinalProfileMatchesBatchStomp) {
  const StreamCase& c = GetParam();
  auto series = synth::ByName(c.generator, c.n, 97);
  ASSERT_TRUE(series.ok());

  auto stream = StreamingProfile::Create(c.length);
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(stream->AppendAll(series->values()).ok());

  auto batch = ComputeStomp(*series, c.length, {});
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(stream->ProfileSnapshot().size(), batch->size());
  for (std::size_t i = 0; i < batch->size(); ++i) {
    EXPECT_NEAR(stream->ProfileSnapshot().distances[i], batch->distances[i], 2e-5)
        << "row " << i;
  }
}

TEST_P(StreamingTest, IntermediateSnapshotsMatchPrefixes) {
  const StreamCase& c = GetParam();
  auto series = synth::ByName(c.generator, c.n, 101);
  ASSERT_TRUE(series.ok());

  auto stream = StreamingProfile::Create(c.length);
  ASSERT_TRUE(stream.ok());
  const auto values = series->values();

  const std::size_t checkpoints[] = {c.n / 2, 3 * c.n / 4, c.n};
  std::size_t next = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_TRUE(stream->Append(values[i]).ok());
    if (next < 3 && i + 1 == checkpoints[next]) {
      ++next;
      auto prefix = series->Prefix(i + 1);
      ASSERT_TRUE(prefix.ok());
      auto batch = ComputeStomp(*prefix, c.length, {});
      ASSERT_TRUE(batch.ok());
      ASSERT_EQ(stream->ProfileSnapshot().size(), batch->size());
      for (std::size_t r = 0; r < batch->size(); ++r) {
        EXPECT_NEAR(stream->ProfileSnapshot().distances[r], batch->distances[r],
                    2e-5)
            << "checkpoint " << i + 1 << " row " << r;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, StreamingTest,
    ::testing::Values(StreamCase{"random_walk", 300, 16},
                      StreamCase{"sine", 400, 32},
                      StreamCase{"ecg", 350, 25}));

TEST(StreamingProfileTest, WarmUpYieldsNoSubsequences) {
  auto stream = StreamingProfile::Create(10);
  ASSERT_TRUE(stream.ok());
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(stream->Append(static_cast<double>(i)).ok());
    EXPECT_EQ(stream->NumSubsequences(), 0u);
    EXPECT_TRUE(stream->ProfileSnapshot().distances.empty());
  }
  ASSERT_TRUE(stream->Append(9.0).ok());
  EXPECT_EQ(stream->NumSubsequences(), 1u);
  EXPECT_EQ(stream->ProfileSnapshot().distances.size(), 1u);
  EXPECT_EQ(stream->ProfileSnapshot().distances[0], kInfinity);
}

TEST(StreamingProfileTest, LargeLevelOffsetHandledByAnchor) {
  // The anchor shift keeps prefix sums conditioned for large levels.
  auto base = synth::ByName("sine", 300, 103);
  ASSERT_TRUE(base.ok());
  std::vector<double> shifted(base->values().begin(), base->values().end());
  for (double& v : shifted) v += 1e8;

  auto stream = StreamingProfile::Create(24);
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(stream->AppendAll(shifted).ok());

  auto series = series::DataSeries::Create(std::move(shifted));
  ASSERT_TRUE(series.ok());
  auto batch = ComputeStomp(*series, 24, {});
  ASSERT_TRUE(batch.ok());
  for (std::size_t i = 0; i < batch->size(); ++i) {
    EXPECT_NEAR(stream->ProfileSnapshot().distances[i], batch->distances[i], 1e-4)
        << i;
  }
}

TEST(StreamingProfileTest, RejectsBadInput) {
  EXPECT_FALSE(StreamingProfile::Create(1).ok());
  EXPECT_FALSE(StreamingProfile::Create(10, -0.5).ok());
  auto stream = StreamingProfile::Create(5);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(stream->Append(std::nan("")).code(),
            StatusCode::kInvalidArgument);
}

TEST(StreamingProfileTest, ConstantStreamAllZeros) {
  auto stream = StreamingProfile::Create(8);
  ASSERT_TRUE(stream.ok());
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(stream->Append(3.5).ok());
  const auto& profile = stream->ProfileSnapshot();
  for (std::size_t i = 0; i < profile.size(); ++i) {
    if (profile.indices[i] >= 0) {
      EXPECT_DOUBLE_EQ(profile.distances[i], 0.0) << i;
    }
  }
  // With 33 windows and exclusion 4, interior rows must have matches.
  EXPECT_GE(profile.indices[0], 0);
}

std::uint64_t DotProductCalls() {
  const simd::KernelCounters counters = simd::KernelCountersSnapshot();
  std::uint64_t total = 0;
  for (int target = 0; target < simd::kNumTargets; ++target) {
    total += counters.calls[target]
                           [static_cast<int>(simd::KernelKind::kDotProduct)];
  }
  return total;
}

TEST(StreamingProfileTest, DirectDotProductsAreCounted) {
  auto series = synth::ByName("sine", 400, 7);
  ASSERT_TRUE(series.ok());

  // Unbounded: one direct dot per admitted window (the recurrence derives
  // the rest), noted once per call.
  auto stream = StreamingProfile::Create(16);
  ASSERT_TRUE(stream.ok());
  std::uint64_t before = DotProductCalls();
  ASSERT_TRUE(stream->AppendAll(series->values()).ok());
  EXPECT_EQ(DotProductCalls() - before, 400u - 16u + 1u);
  before = DotProductCalls();
  ASSERT_TRUE(stream->Append(0.25).ok());
  EXPECT_EQ(DotProductCalls() - before, 1u);

  // Windowed: rows orphaned by eviction are repaired with direct dots too.
  StreamingOptions options;
  options.max_points = 64;
  auto windowed = StreamingProfile::Create(16, options);
  ASSERT_TRUE(windowed.ok());
  before = DotProductCalls();
  ASSERT_TRUE(windowed->AppendAll(series->values()).ok());
  EXPECT_GT(DotProductCalls() - before, 400u - 16u + 1u);
}

}  // namespace
}  // namespace valmod::mp
