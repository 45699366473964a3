#ifndef VALMOD_MP_SEPARATED_SELECT_H_
#define VALMOD_MP_SEPARATED_SELECT_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

namespace valmod::mp {

/// The k mutually separated best positions of `scores` under a total order,
/// best first: the selection behind query matches and discords.
///
/// The order ranks position a before b when `better(scores[a], scores[b])`,
/// and positions whose scores tie (neither is better) by lower position.
/// A greedy walk down that order takes each position that lies at least
/// `exclusion` away from every position taken so far (0 takes every
/// position) and stops after `k`. Positions with `include(i)` false are not
/// candidates. Returns fewer than k when the candidates run out.
///
/// Exact without ordering every candidate: a taken position blocks at most
/// 2 * exclusion - 2 others, so the walk takes at least one of every
/// w = max(1, 2 * exclusion - 1) candidates it reads and never reads past
/// the k * w best. Only those are kept (a bounded max-heap, no n-sized
/// index) and sorted, and the walk checks separation against a mask of
/// blocked positions (n bits) rather than against every taken position:
/// O(n log(k * w)) time for any k. When k * w >= n every candidate is kept
/// and sorted.
template <typename Better, typename Include>
std::vector<std::size_t> SelectSeparatedBest(std::span<const double> scores,
                                             std::size_t k,
                                             std::size_t exclusion,
                                             Better better, Include include) {
  if (k == 0) return {};
  struct Candidate {
    double score;
    std::size_t position;
  };
  const auto before = [&better](const Candidate& a, const Candidate& b) {
    if (better(a.score, b.score)) return true;
    if (better(b.score, a.score)) return false;
    return a.position < b.position;
  };

  const std::size_t n = scores.size();
  const std::size_t w = exclusion > 1 ? 2 * exclusion - 1 : 1;
  const std::size_t bound = k > n / w ? n : k * w;
  std::vector<Candidate> kept;
  kept.reserve(bound);
  std::size_t i = 0;
  for (; i < n && kept.size() < bound; ++i) {
    if (include(i)) kept.push_back({scores[i], i});
  }
  if (i < n) {
    // Full: the worst kept candidate sits on top. A later position loses
    // every tie, so it replaces the top only with a strictly better score.
    std::make_heap(kept.begin(), kept.end(), before);
    double worst = kept.front().score;
    for (; i < n; ++i) {
      if (!better(scores[i], worst) || !include(i)) continue;
      std::pop_heap(kept.begin(), kept.end(), before);
      kept.back() = Candidate{scores[i], i};
      std::push_heap(kept.begin(), kept.end(), before);
      worst = kept.front().score;
    }
  }
  std::sort(kept.begin(), kept.end(), before);

  // A taken position p blocks every position within (p - exclusion,
  // p + exclusion); marking that span makes each check O(1) however many
  // positions are taken. Below 2 a position blocks only itself.
  std::vector<bool> blocked(exclusion > 1 ? n : 0);
  std::vector<std::size_t> taken;
  for (const Candidate& candidate : kept) {
    if (taken.size() >= k) break;
    const std::size_t p = candidate.position;
    if (exclusion > 1) {
      if (blocked[p]) continue;
      const std::size_t lo = p >= exclusion - 1 ? p - (exclusion - 1) : 0;
      const std::size_t hi = std::min(n, p + exclusion);
      for (std::size_t b = lo; b < hi; ++b) blocked[b] = true;
    }
    taken.push_back(p);
  }
  return taken;
}

}  // namespace valmod::mp

#endif  // VALMOD_MP_SEPARATED_SELECT_H_
