#include "mp/discord.h"

#include <functional>

#include "common/status.h"
#include "mp/separated_select.h"

namespace valmod::mp {

Result<std::vector<Discord>> ExtractTopKDiscords(const MatrixProfile& profile,
                                                 std::size_t k) {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");

  // Rows with no valid neighbor have an undefined discord score: they are
  // not candidates at all, so they take no room in the bounded selection.
  const std::vector<std::size_t> rows = SelectSeparatedBest(
      profile.distances, k, profile.exclusion_zone, std::greater<double>(),
      [&profile](std::size_t row) {
        return profile.indices[row] >= 0 &&
               profile.distances[row] != kInfinity;
      });
  std::vector<Discord> discords;
  discords.reserve(rows.size());
  for (std::size_t row : rows) {
    discords.push_back(Discord{static_cast<int64_t>(row), profile.indices[row],
                               profile.subsequence_length,
                               profile.distances[row]});
  }
  return discords;
}

}  // namespace valmod::mp
