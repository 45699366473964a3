#ifndef VALMOD_MASS_QUERY_SEARCH_H_
#define VALMOD_MASS_QUERY_SEARCH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/timer.h"
#include "mass/engine.h"
#include "series/data_series.h"

namespace valmod::mass {

/// One query match: where and how close.
struct QueryMatch {
  int64_t offset = -1;
  double distance = 0.0;
};

/// Options for query-by-content search.
struct QuerySearchOptions {
  /// Number of matches to return.
  std::size_t k = 1;
  /// Matches must be mutually separated by this fraction of the query
  /// length (0 disables separation entirely).
  double exclusion_fraction = 0.5;
  /// Convolution backend for the distance profile; kAuto applies the
  /// engine's cost-model crossover.
  ConvolutionBackend backend = ConvolutionBackend::kAuto;
  /// Cooperative timeout / cancellation, checked once, before the distance
  /// profile is computed: the profile is most of a query search's cost and
  /// the bounded selection after it is a single pass over the finished
  /// profile, so there is no finer-grained checkpoint worth polling. The
  /// service scheduler threads per-request deadlines through here.
  Deadline deadline;
};

/// Finds the k best z-normalized matches of `query` inside `series`
/// (query-by-content over an external pattern — the "similarity search" use
/// of MASS). Matches are returned in ascending distance and are mutually
/// non-overlapping under the exclusion fraction. Returns fewer than k when
/// the series runs out of separated windows. One distance profile plus an
/// O(n log(k * w)) selection, w = max(1, 2 * exclusion - 1) (see
/// SelectQueryMatches).
Result<std::vector<QueryMatch>> FindQueryMatches(
    const series::DataSeries& series, std::span<const double> query,
    const QuerySearchOptions& options = {});

/// Engine form: reuses `engine`'s cached series spectrum, so a stream of
/// queries against one series pays the series transform once in total. The
/// series-taking overload above is a convenience wrapper around this one.
Result<std::vector<QueryMatch>> FindQueryMatches(
    MassEngine& engine, std::span<const double> query,
    const QuerySearchOptions& options = {});

/// The selection half of FindQueryMatches: the k mutually separated best
/// windows of a finished distance profile of a `query_length`-point query,
/// in ascending distance with ties broken by lower offset (see
/// mp::SelectSeparatedBest). Exclusion radius as in QuerySearchOptions.
std::vector<QueryMatch> SelectQueryMatches(std::span<const double> distances,
                                           std::size_t query_length,
                                           std::size_t k,
                                           double exclusion_fraction);

}  // namespace valmod::mass

#endif  // VALMOD_MASS_QUERY_SEARCH_H_
