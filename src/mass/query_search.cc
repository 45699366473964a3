#include "mass/query_search.h"

#include <functional>

#include "common/status.h"
#include "common/trace.h"
#include "mp/matrix_profile.h"
#include "mp/separated_select.h"

namespace valmod::mass {

Result<std::vector<QueryMatch>> FindQueryMatches(
    const series::DataSeries& series, std::span<const double> query,
    const QuerySearchOptions& options) {
  MassEngine engine(series);
  return FindQueryMatches(engine, query, options);
}

Result<std::vector<QueryMatch>> FindQueryMatches(
    MassEngine& engine, std::span<const double> query,
    const QuerySearchOptions& options) {
  const trace::TraceSpan span("query_search");
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");
  if (options.deadline.Expired()) {
    return Status::DeadlineExceeded("query search deadline expired");
  }
  VALMOD_ASSIGN_OR_RETURN(std::vector<double> distances,
                          engine.DistanceProfile(query, options.backend));
  return SelectQueryMatches(distances, query.size(), options.k,
                            options.exclusion_fraction);
}

std::vector<QueryMatch> SelectQueryMatches(std::span<const double> distances,
                                           std::size_t query_length,
                                           std::size_t k,
                                           double exclusion_fraction) {
  const std::size_t exclusion =
      exclusion_fraction <= 0.0
          ? 0
          : mp::ExclusionZoneFor(query_length, exclusion_fraction);
  const std::vector<std::size_t> offsets = mp::SelectSeparatedBest(
      distances, k, exclusion, std::less<double>(),
      [](std::size_t) { return true; });
  std::vector<QueryMatch> matches;
  matches.reserve(offsets.size());
  for (std::size_t offset : offsets) {
    matches.push_back(
        QueryMatch{static_cast<int64_t>(offset), distances[offset]});
  }
  return matches;
}

}  // namespace valmod::mass
