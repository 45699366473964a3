#include "mass/mass.h"

#include <limits>
#include <string>

#include "mass/engine.h"
#include "series/znorm.h"
#include "simd/dispatch.h"
#include "stats/moving_stats.h"

namespace valmod::mass {

Status ValidateWindow(const series::DataSeries& series, std::size_t offset,
                      std::size_t length) {
  if (length == 0) {
    return Status::InvalidArgument("subsequence length must be positive");
  }
  if (offset + length > series.size()) {
    return Status::OutOfRange(
        "window (offset=" + std::to_string(offset) +
        ", length=" + std::to_string(length) + ") outside series of size " +
        std::to_string(series.size()));
  }
  return Status::Ok();
}

Result<CenteredQuery> CenterQuery(std::span<const double> query) {
  if (query.empty()) {
    return Status::InvalidArgument("query must be non-empty");
  }
  VALMOD_ASSIGN_OR_RETURN(stats::MovingStats query_stats,
                          stats::MovingStats::Create(query));
  CenteredQuery centered;
  centered.values.assign(query.begin(), query.end());
  const double mean = query_stats.Mean(0, query.size());
  for (double& v : centered.values) v -= mean;
  centered.std_dev = query_stats.StdDev(0, query.size());
  centered.constant = query_stats.IsConstant(0, query.size());
  return centered;
}

void DistancesFromExternalQueryDots(const series::DataSeries& series,
                                    double query_std, bool query_constant,
                                    std::size_t length,
                                    std::span<const double> dots,
                                    std::vector<double>* distances) {
  const stats::MovingStats& stats = series.stats();
  const double const_threshold = stats.constant_std_threshold();
  distances->resize(dots.size());
  for (std::size_t j = 0; j < dots.size(); ++j) {
    const double mean_j = stats.CenteredMean(j, length);
    const double std_j = stats.StdDev(j, length);
    (*distances)[j] = series::PairDistanceFromDot(
        dots[j], /*mean_a=*/0.0, mean_j, query_std, std_j, length,
        query_constant, std_j <= const_threshold);
  }
}

std::vector<double> DirectSlidingDots(std::span<const double> centered,
                                      std::size_t query_offset,
                                      std::size_t length, std::size_t count) {
  return DirectExternalSlidingDots(centered,
                                   centered.subspan(query_offset, length),
                                   count);
}

std::vector<double> DirectExternalSlidingDots(
    std::span<const double> centered_series,
    std::span<const double> centered_query, std::size_t count) {
  std::vector<double> dots(count);
  // Hoist the dispatched kernel out of the loop: one atomic load for the
  // whole sweep instead of one per window.
  const auto dot = simd::ActiveKernels().dot_product;
  for (std::size_t j = 0; j < count; ++j) {
    dots[j] = dot(centered_query.data(), centered_series.data() + j,
                  centered_query.size());
  }
  simd::NoteKernelCalls(simd::KernelKind::kDotProduct, count);
  return dots;
}

void DistancesFromDots(const series::DataSeries& series,
                       std::size_t query_offset, std::size_t length,
                       std::span<const double> dots,
                       std::vector<double>* distances) {
  const stats::MovingStats& stats = series.stats();
  const double mean_q = stats.CenteredMean(query_offset, length);
  const double std_q = stats.StdDev(query_offset, length);
  const double const_threshold = stats.constant_std_threshold();
  const bool const_q = std_q <= const_threshold;

  distances->resize(dots.size());
  for (std::size_t j = 0; j < dots.size(); ++j) {
    const double mean_j = stats.CenteredMean(j, length);
    const double std_j = stats.StdDev(j, length);
    (*distances)[j] = series::PairDistanceFromDot(
        dots[j], mean_q, mean_j, std_q, std_j, length, const_q,
        std_j <= const_threshold);
  }
}

Result<RowProfile> ComputeRowProfile(const series::DataSeries& series,
                                     std::size_t query_offset,
                                     std::size_t length) {
  // A throwaway engine re-derives nothing the uncached path didn't already
  // pay for (the series spectrum is built once either way); routing through
  // it keeps the kernels and the cost model in exactly one place.
  MassEngine engine(series);
  return engine.ComputeRowProfile(query_offset, length);
}

Result<std::vector<double>> DistanceProfile(const series::DataSeries& series,
                                            std::span<const double> query) {
  MassEngine engine(series);
  return engine.DistanceProfile(query);
}

Result<std::vector<double>> BruteDistanceProfile(
    const series::DataSeries& series, std::span<const double> query) {
  if (query.empty()) {
    return Status::InvalidArgument("query must be non-empty");
  }
  if (query.size() > series.size()) {
    return Status::InvalidArgument("query longer than series");
  }
  const std::size_t count = series.NumSubsequences(query.size());
  std::vector<double> distances(count);
  for (std::size_t j = 0; j < count; ++j) {
    VALMOD_ASSIGN_OR_RETURN(
        std::vector<double> window, series.Subsequence(j, query.size()));
    VALMOD_ASSIGN_OR_RETURN(double d,
                            series::ZNormalizedDistance(query, window));
    distances[j] = d;
  }
  return distances;
}

void ApplyExclusionZone(std::vector<double>* distances, std::size_t center,
                        std::size_t exclusion) {
  if (exclusion == 0) return;
  const std::size_t lo = center >= exclusion - 1 ? center - (exclusion - 1)
                                                 : 0;
  const std::size_t hi =
      std::min(distances->size(), center + exclusion);  // exclusive
  for (std::size_t j = lo; j < hi; ++j) {
    (*distances)[j] = std::numeric_limits<double>::infinity();
  }
}

}  // namespace valmod::mass
