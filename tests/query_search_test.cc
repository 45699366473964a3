// Tests for query-by-content search over MASS.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mass/query_search.h"
#include "mp/matrix_profile.h"
#include "series/data_series.h"
#include "series/generators.h"

namespace valmod::mass {
namespace {

TEST(QuerySearchTest, FindsPlantedOccurrences) {
  synth::PlantedMotifOptions plant;
  plant.length = 6000;
  plant.seed = 31;
  plant.motif_length = 100;
  plant.occurrences = 4;
  plant.occurrence_noise = 0.02;
  auto planted = synth::PlantedMotif(plant);
  ASSERT_TRUE(planted.ok());

  // Query with the first planted occurrence; the other three must be among
  // the top four matches (the first match is the query's own location).
  auto query =
      planted->series.Subsequence(planted->motif_offsets[0], 100);
  ASSERT_TRUE(query.ok());
  QuerySearchOptions options;
  options.k = 4;
  auto matches = FindQueryMatches(planted->series, *query, options);
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 4u);
  EXPECT_EQ((*matches)[0].offset,
            static_cast<int64_t>(planted->motif_offsets[0]));
  EXPECT_NEAR((*matches)[0].distance, 0.0, 1e-5);

  for (std::size_t occurrence : planted->motif_offsets) {
    bool found = false;
    for (const QueryMatch& m : *matches) {
      if (std::llabs(m.offset - static_cast<int64_t>(occurrence)) <= 4) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "occurrence at " << occurrence;
  }
}

TEST(QuerySearchTest, MatchesAreOrderedAndSeparated) {
  auto series = synth::ByName("sine", 2000, 33);
  ASSERT_TRUE(series.ok());
  auto query = series->Subsequence(100, 60);
  ASSERT_TRUE(query.ok());
  QuerySearchOptions options;
  options.k = 8;
  auto matches = FindQueryMatches(*series, *query, options);
  ASSERT_TRUE(matches.ok());
  ASSERT_GE(matches->size(), 2u);
  for (std::size_t i = 1; i < matches->size(); ++i) {
    EXPECT_LE((*matches)[i - 1].distance, (*matches)[i].distance + 1e-12);
  }
  for (std::size_t a = 0; a < matches->size(); ++a) {
    for (std::size_t b = a + 1; b < matches->size(); ++b) {
      EXPECT_GE(std::llabs((*matches)[a].offset - (*matches)[b].offset), 30);
    }
  }
}

TEST(QuerySearchTest, ZeroExclusionAllowsAdjacentMatches) {
  auto series = synth::ByName("sine", 500, 35);
  ASSERT_TRUE(series.ok());
  auto query = series->Subsequence(0, 40);
  ASSERT_TRUE(query.ok());
  QuerySearchOptions options;
  options.k = 5;
  options.exclusion_fraction = 0.0;
  auto matches = FindQueryMatches(*series, *query, options);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->size(), 5u);
}

TEST(QuerySearchTest, ExternalQueryWorks) {
  auto series = synth::ByName("random_walk", 800, 37);
  ASSERT_TRUE(series.ok());
  std::vector<double> external = {0.0, 1.0, 2.0, 1.0, 0.0, -1.0, -2.0, -1.0};
  auto matches = FindQueryMatches(*series, external, {});
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 1u);
  EXPECT_GE((*matches)[0].offset, 0);
}

TEST(QuerySearchTest, ValidatesArguments) {
  auto series = synth::ByName("random_walk", 100, 39);
  ASSERT_TRUE(series.ok());
  QuerySearchOptions zero_k;
  zero_k.k = 0;
  std::vector<double> query(10, 1.0);
  EXPECT_FALSE(FindQueryMatches(*series, query, zero_k).ok());
  EXPECT_FALSE(FindQueryMatches(*series, {}, {}).ok());
  std::vector<double> too_long(200, 1.0);
  EXPECT_FALSE(FindQueryMatches(*series, too_long, {}).ok());
}

// The selection as it was before the bounded top-k: sort every window by
// (distance, offset), then walk that order greedily.
std::vector<QueryMatch> FullSortSelection(const std::vector<double>& distances,
                                          std::size_t query_length,
                                          std::size_t k,
                                          double exclusion_fraction) {
  const std::size_t exclusion =
      exclusion_fraction <= 0.0
          ? 0
          : mp::ExclusionZoneFor(query_length, exclusion_fraction);
  std::vector<std::size_t> order(distances.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (distances[a] != distances[b]) return distances[a] < distances[b];
    return a < b;
  });
  std::vector<QueryMatch> matches;
  for (std::size_t offset : order) {
    if (matches.size() >= k) break;
    bool overlapping = false;
    for (const QueryMatch& m : matches) {
      if (std::llabs(m.offset - static_cast<int64_t>(offset)) <
          static_cast<int64_t>(exclusion)) {
        overlapping = true;
        break;
      }
    }
    if (!overlapping) {
      matches.push_back(
          QueryMatch{static_cast<int64_t>(offset), distances[offset]});
    }
  }
  return matches;
}

// Alternating flat stretches and noise: constant windows tie exactly at 0
// against a constant query and at sqrt(l) against any other, so the order
// among them is decided by offset alone.
series::DataSeries PlateauSeries(std::size_t n) {
  Rng rng(43);
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t stretch = i / 150;
    values[i] = stretch % 2 == 0 ? static_cast<double>(stretch % 3)
                                 : rng.Gaussian();
  }
  return std::move(series::DataSeries::Create(std::move(values))).value();
}

TEST(QuerySearchTest, BoundedSelectionMatchesFullSort) {
  const std::size_t n = 1800;
  std::vector<std::pair<std::string, series::DataSeries>> all;
  for (const char* name : {"ecg", "random_walk"}) {
    all.emplace_back(name, std::move(synth::ByName(name, n, 47)).value());
  }
  all.emplace_back("plateau", PlateauSeries(n));

  for (const auto& [name, series] : all) {
    MassEngine engine(series);
    std::vector<std::vector<double>> queries;
    for (std::size_t length : {1, 2, 3, 32, 96, 700}) {
      queries.push_back(
          series.Subsequence(length * 7 % (n - length), length).value());
    }
    queries.push_back(std::vector<double>(48, 1.5));  // constant
    for (const std::vector<double>& query : queries) {
      auto distances = engine.DistanceProfile(query);
      ASSERT_TRUE(distances.ok());
      // More than any exclusion can separate: every window is a match.
      const std::size_t beyond = distances->size() + 5;
      for (std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{100},
                            beyond}) {
        for (double exclusion_fraction : {0.0, 0.5, 1.0}) {
          SCOPED_TRACE(name + " length=" + std::to_string(query.size()) +
                       " k=" + std::to_string(k) +
                       " exclusion=" + std::to_string(exclusion_fraction));
          QuerySearchOptions options;
          options.k = k;
          options.exclusion_fraction = exclusion_fraction;
          auto got = FindQueryMatches(engine, query, options);
          ASSERT_TRUE(got.ok());
          const std::vector<QueryMatch> want = FullSortSelection(
              *distances, query.size(), k, exclusion_fraction);
          ASSERT_EQ(got->size(), want.size());
          for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ((*got)[i].offset, want[i].offset) << "rank " << i;
            EXPECT_EQ((*got)[i].distance, want[i].distance) << "rank " << i;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace valmod::mass
