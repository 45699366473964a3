#include "mass/mass.h"

#include <algorithm>
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

void ExternalQueryDistancesInPlace(const series::DataSeries& series,
                                   double query_std, bool query_constant,
                                   std::size_t length,
                                   std::span<double> values) {
  const stats::MovingStats& stats = series.stats();
  const double const_threshold = stats.constant_std_threshold();
  // A block of statistics (8 KiB) stays in L1 while its distances are
  // written over its dots.
  constexpr std::size_t kBlock = 512;
  double means[kBlock] = {};
  double std_devs[kBlock] = {};
  for (std::size_t first = 0; first < values.size(); first += kBlock) {
    const std::size_t count = std::min(kBlock, values.size() - first);
    stats.CenteredWindowStats(first, count, length, means, std_devs);
    double* block = values.data() + first;
    for (std::size_t b = 0; b < count; ++b) {
      block[b] = series::PairDistanceFromDot(
          block[b], /*mean_a=*/0.0, means[b], query_std, std_devs[b], length,
          query_constant, std_devs[b] <= const_threshold);
    }
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

Status BuildWindowStatArrays(const series::DataSeries& series,
                             std::size_t length, WindowStatArrays* stats) {
  const stats::MovingStats& moving = series.stats();
  stats->constant_std_threshold = moving.constant_std_threshold();
  return moving.CenteredWindowStats(length, &stats->means, &stats->std_devs);
}

void DistancesFromDots(const WindowStatArrays& stats,
                       std::size_t query_offset, std::size_t length,
                       std::span<const double> dots,
                       std::vector<double>* distances) {
  const double* means = stats.means.data();
  const double* std_devs = stats.std_devs.data();
  const double const_threshold = stats.constant_std_threshold;
  const double mean_q = means[query_offset];
  const double std_q = std_devs[query_offset];
  const bool const_q = std_q <= const_threshold;

  distances->resize(dots.size());
  for (std::size_t j = 0; j < dots.size(); ++j) {
    (*distances)[j] = series::PairDistanceFromDot(
        dots[j], mean_q, means[j], std_q, std_devs[j], length, const_q,
        std_devs[j] <= const_threshold);
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
