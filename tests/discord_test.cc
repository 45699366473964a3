// Tests for discord (anomaly) extraction from matrix profiles.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mp/discord.h"
#include "mp/stomp.h"
#include "series/data_series.h"
#include "series/generators.h"

namespace valmod::mp {
namespace {

MatrixProfile MakeProfile(std::vector<double> distances,
                          std::vector<int64_t> indices, std::size_t length,
                          std::size_t exclusion) {
  MatrixProfile profile;
  profile.subsequence_length = length;
  profile.exclusion_zone = exclusion;
  profile.distances = std::move(distances);
  profile.indices = std::move(indices);
  return profile;
}

TEST(DiscordTest, PicksLargestRowMinimum) {
  MatrixProfile profile =
      MakeProfile({1.0, 7.0, 2.0, 3.0}, {2, 3, 0, 2}, 5, 1);
  auto discords = ExtractTopKDiscords(profile, 1);
  ASSERT_TRUE(discords.ok());
  ASSERT_EQ(discords->size(), 1u);
  EXPECT_EQ((*discords)[0].offset, 1);
  EXPECT_DOUBLE_EQ((*discords)[0].distance, 7.0);
}

TEST(DiscordTest, SeparatesChosenDiscords) {
  // Offsets 4 and 5 both score high but overlap under exclusion 3.
  MatrixProfile profile = MakeProfile({1.0, 1.0, 1.0, 1.0, 9.0, 8.5, 1.0, 7.0},
                                      {1, 0, 3, 2, 0, 0, 0, 0}, 4, 3);
  auto discords = ExtractTopKDiscords(profile, 2);
  ASSERT_TRUE(discords.ok());
  ASSERT_EQ(discords->size(), 2u);
  EXPECT_EQ((*discords)[0].offset, 4);
  EXPECT_EQ((*discords)[1].offset, 7);  // 5 skipped: within 3 of 4
}

TEST(DiscordTest, SkipsRowsWithoutNeighbors) {
  MatrixProfile profile =
      MakeProfile({kInfinity, 3.0}, {-1, 0}, 4, 1);
  auto discords = ExtractTopKDiscords(profile, 2);
  ASSERT_TRUE(discords.ok());
  ASSERT_EQ(discords->size(), 1u);
  EXPECT_EQ((*discords)[0].offset, 1);
}

TEST(DiscordTest, RejectsZeroK) {
  MatrixProfile profile = MakeProfile({1.0}, {0}, 2, 1);
  EXPECT_EQ(ExtractTopKDiscords(profile, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DiscordTest, FindsInjectedAnomaly) {
  // A sine wave with one corrupted stretch: the anomaly has the farthest
  // nearest neighbor at the anomaly length.
  auto series = synth::Sine({.length = 1200,
                             .seed = 2,
                             .period = 60.0,
                             .amplitude = 1.0,
                             .noise_stddev = 0.02});
  ASSERT_TRUE(series.ok());
  std::vector<double> data(series->values().begin(), series->values().end());
  for (std::size_t i = 600; i < 660; ++i) {
    data[i] += ((i % 7) < 3 ? 1.8 : -1.4);  // structured corruption
  }
  auto corrupted = series::DataSeries::Create(std::move(data));
  ASSERT_TRUE(corrupted.ok());

  auto profile = ComputeStomp(*corrupted, 60, {});
  ASSERT_TRUE(profile.ok());
  auto discords = ExtractTopKDiscords(*profile, 1);
  ASSERT_TRUE(discords.ok());
  ASSERT_EQ(discords->size(), 1u);
  EXPECT_NEAR(static_cast<double>((*discords)[0].offset), 615.0, 75.0);
}

// The extraction as it was before the bounded top-k: sort every row by
// (descending distance, offset), then walk that order greedily, skipping
// rows without a neighbor.
std::vector<Discord> FullSortDiscords(const MatrixProfile& profile,
                                      std::size_t k) {
  std::vector<std::size_t> order(profile.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (profile.distances[a] != profile.distances[b]) {
      return profile.distances[a] > profile.distances[b];
    }
    return a < b;
  });
  std::vector<Discord> discords;
  for (std::size_t row : order) {
    if (discords.size() >= k) break;
    if (profile.indices[row] < 0 || profile.distances[row] == kInfinity) {
      continue;
    }
    const int64_t offset = static_cast<int64_t>(row);
    bool overlapping = false;
    for (const Discord& d : discords) {
      if (std::llabs(d.offset - offset) <
          static_cast<int64_t>(profile.exclusion_zone)) {
        overlapping = true;
        break;
      }
    }
    if (overlapping) continue;
    discords.push_back(Discord{offset, profile.indices[row],
                               profile.subsequence_length,
                               profile.distances[row]});
  }
  return discords;
}

void ExpectSameDiscords(const std::vector<Discord>& got,
                        const std::vector<Discord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].offset, want[i].offset) << "rank " << i;
    EXPECT_EQ(got[i].nearest_neighbor, want[i].nearest_neighbor)
        << "rank " << i;
    EXPECT_EQ(got[i].length, want[i].length) << "rank " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << "rank " << i;
  }
}

TEST(DiscordTest, BoundedSelectionMatchesFullSort) {
  // Distances drawn from a handful of values, so most rows tie exactly and
  // the order among them is decided by offset; every ninth row has no
  // neighbor and is not a candidate.
  const std::size_t n = 600;
  Rng rng(53);
  std::vector<double> distances(n);
  std::vector<int64_t> indices(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 9 == 4) {
      // Either marker disqualifies a row, even next to a finite score.
      distances[i] = i % 2 == 0 ? kInfinity : 9.0;
      indices[i] = i % 2 == 0 ? 0 : -1;
      continue;
    }
    distances[i] = static_cast<double>(rng.UniformInt(0, 5)) * 0.5;
    indices[i] = static_cast<int64_t>((i + 300) % n);
  }
  for (std::size_t exclusion : {0, 1, 2, 7, 40}) {
    const MatrixProfile profile =
        MakeProfile(distances, indices, 16, exclusion);
    // k = n is more than any exclusion can separate.
    for (std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{20},
                          std::size_t{100}, n}) {
      SCOPED_TRACE("exclusion=" + std::to_string(exclusion) +
                   " k=" + std::to_string(k));
      auto got = ExtractTopKDiscords(profile, k);
      ASSERT_TRUE(got.ok());
      ExpectSameDiscords(*got, FullSortDiscords(profile, k));
    }
  }
}

TEST(DiscordTest, BoundedSelectionKeepsTheLongestGreedyWalk) {
  // The worst case the bound must cover: every pick but the last is
  // followed in the order by all 2 * exclusion - 2 rows it blocks, so the
  // walk reads (k - 1) * (2 * exclusion - 1) + 1 rows before its k-th pick.
  for (std::size_t exclusion : {2, 3}) {
    const std::size_t k = 2 * exclusion + 1;
    const std::size_t spacing = 4 * exclusion;
    const std::size_t n = spacing * (k + 1);
    std::vector<double> distances(n, 1.0);
    std::vector<int64_t> indices(n, 0);
    for (std::size_t pick = 0; pick < k; ++pick) {
      const std::size_t center = spacing * (pick + 1);
      const double top = 1000.0 - 100.0 * static_cast<double>(pick);
      distances[center] = top;
      for (std::size_t d = 1; d < exclusion; ++d) {
        distances[center - d] = top - static_cast<double>(2 * d);
        distances[center + d] = top - static_cast<double>(2 * d + 1);
      }
    }
    const MatrixProfile profile =
        MakeProfile(distances, indices, 8, exclusion);
    auto got = ExtractTopKDiscords(profile, k);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), k) << "exclusion=" << exclusion;
    ExpectSameDiscords(*got, FullSortDiscords(profile, k));
  }
}

TEST(DiscordTest, BoundedSelectionMatchesFullSortOnStomp) {
  auto series = synth::ByName("ecg", 1500, 59);
  ASSERT_TRUE(series.ok());
  auto profile = ComputeStomp(*series, 48, {});
  ASSERT_TRUE(profile.ok());
  for (std::size_t k : {std::size_t{1}, std::size_t{5}, std::size_t{2000}}) {
    auto got = ExtractTopKDiscords(*profile, k);
    ASSERT_TRUE(got.ok());
    ExpectSameDiscords(*got, FullSortDiscords(*profile, k));
  }
}

}  // namespace
}  // namespace valmod::mp
